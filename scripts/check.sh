#!/usr/bin/env bash
# CI gate: everything a PR must keep green.
#   - release build of the whole workspace
#   - unit + integration + property + doc tests
#   - clippy clean under -D warnings
#   - rustdoc builds warning-free (RUSTDOCFLAGS turns warnings into errors)
#   - benchmark lane: the separate benchmark/ workspace (path deps on the
#     engine crates) builds and its unit tests pass; --locked keeps it from
#     rewriting benchmark/Cargo.lock
#   - testkit gate: the differential-oracle suites in crates/testkit
#     (includes the sparse-engine-vs-dense-oracle property suite)
#   - difftest smoke: a clean sparse-vs-oracle run passes AND the armed
#     planted defects are actually caught (a flipped pivot sign and a
#     transposed postsolve column pair must both exit 4 — guards the
#     harness against going blind)
#   - telemetry smoke: quickstart emits a snapshot that parses as JSON
#   - lp bench smoke: BENCH_lp.json regenerates and holds the warm-start
#     iteration-reduction and presolve+cuts node-count reduction (>= 1.3x
#     on the largest shape) acceptance numbers
#   - sta/db bench lanes: the sta_engine and db_pipeline benches run and
#     write every key of BENCH_sta.json and BENCH_db.json, starting from
#     no file
#   - MIP-root lane: the `runtime` bin proves c6288 at beta 10%, C = 2
#     optimal within its 60 s ILP budget (a cell whose root once never
#     finished its cut rounds)
#   - Table 1 ILP lane: the `table1_ilp` bin's exact ILP answers for all
#     28 Table 1 cells (status, leakage bits, assignment) match
#     tests/golden/table1_ilp.txt line for line, every cell proven optimal
#   - Table 1 heuristic lane: the `table1_heuristic` bin's two-pass
#     heuristic answers for all 36 Table 1 cells match
#     tests/golden/table1_heuristic.txt line for line
#   - sweep golden lane: the `sweep_200k` bin's warm-sweep answers on the
#     composed 200k-gate design (per-beta constraint counts, then status,
#     leakage bits, cluster count and assignment of all 8 cells) match
#     tests/golden/sweep_200k.txt line for line
#   - sweep lane: BENCH_sweep.json regenerates on a composed >=50k-gate
#     design and holds the warm-pipeline acceptance numbers (>= 2x over
#     cold per-cell solves, bit-identical cells), plus an `fbb sweep`
#     CLI smoke on a composed design with a JSON report round trip
#   - lint gate: one `fbb lint --json` pass (all 12 rules: the per-file
#     rules plus the token-tree parse + workspace call graph) clean over
#     the tree, with every audit.toml trust-boundary entry proven
#     panic-free in its JSON report, AND the planted-violation fixtures
#     trip exit code 5 (guards the analyzer against going blind)
#   - model audit smoke: `fbb lint --models` audits the generated ILP for
#     all 9 Table 1 designs at beta in {5%,10%} with zero structural errors
#   - release-safe lane: fbb-core builds with --features release-safe, and
#     combining release-safe with fault-inject is a compile_error!
#   - design-database lane: fbb compile -> solve/sta/difftest round trip on
#     two Table 1 designs, byte-for-byte comparison against the golden
#     fixtures in tests/golden/, and a corrupt-input smoke (a truncated
#     .fbb must exit non-zero with a reason, never crash)
#   - serve lane: a real daemon on an ephemeral port, a 100-request
#     bench-serve smoke (>=1 cache hit, warm p50 beating the cold CLI),
#     and a graceful SIGTERM drain (exit 0 + "drained cleanly")
# The bench lanes and bench-serve rewrite the committed BENCH_*.json
# snapshots in place; on exit they are put back as the run found them.
set -euo pipefail
cd "$(dirname "$0")/.."

# One EXIT trap for every lane: scratch files go, a daemon still running is
# stopped, and the BENCH_*.json snapshots are restored.
bench_backup=$(mktemp -d /tmp/fbb_bench_backup.XXXXXX)
cp BENCH_*.json "$bench_backup/"
tel_json="" sweep_json="" db_dir="" serve_log="" serve_pid=""
cleanup() {
    cp "$bench_backup"/BENCH_*.json .
    rm -rf "$bench_backup" "$db_dir"
    rm -f "$tel_json" "$sweep_json" "$serve_log"
    if [ -n "$serve_pid" ]; then kill "$serve_pid" 2>/dev/null || true; fi
}
trap cleanup EXIT

cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Benchmark lane: benchmark/ is its own workspace, so `--workspace` above
# never compiles it; build and test it here so that removing an engine API
# it uses fails this gate, not the first benchmark run.
cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml

# Differential-testing gate: oracles vs engines, plus fault-injection suites.
cargo test -q -p fbb-testkit

# Clean difftest must pass (the LP layer pits the sparse revised engine
# against the independent dense-tableau oracle on every case)…
cargo run --release --quiet -- difftest --cases 64 --seed 7
# …and the harness must catch a planted solver bug (expect exit code 4).
if cargo run --release --quiet -- difftest --cases 64 --seed 7 --inject-pivot-bug \
    > /dev/null 2>&1; then
    echo "check.sh: difftest FAILED to catch the injected pivot-sign bug" >&2
    exit 1
fi
# Same drill for the §5j postsolve defect: a transposed column pair in the
# presolve→postsolve map must be flagged as a mismatch, exit code 4 exactly
# (any other failure means the harness died rather than detected).
set +e
cargo run --release --quiet -- difftest --cases 64 --seed 7 --inject-postsolve-bug \
    > /dev/null 2>&1
postsolve_code=$?
set -e
if [ "$postsolve_code" -ne 4 ]; then
    echo "check.sh: armed postsolve-swap run exited $postsolve_code, expected 4" >&2
    exit 1
fi
echo "difftest smoke: clean run green, injected defects caught (pivot + postsolve)"

# Lint gate: the tree must be clean (exit 0; pipefail keeps that gate
# through the pipe), and every declared trust-boundary entry must be proven
# panic-free in the JSON…
cargo run --release --quiet -- lint --json | python3 -c '
import json, sys
rep = json.load(sys.stdin)
violations = rep["violations"]
assert rep["violation_count"] == 0, f"lint violations: {violations}"
deep = rep["deep"]
entries = deep["trust_boundary"]
assert entries, "audit.toml declares no trust-boundary entries"
unproven = [e["entry"] for e in entries if not e["panic_free"]]
assert not unproven, f"entries with reachable panics: {unproven}"
assert deep["audit_panic_reachable"] == 0, "panic sites reachable from the trust boundary"
fns, edges = deep["audit_parse_fns"], deep["audit_callgraph_edges"]
assert fns > 500 and edges > 1000, "lint under-parsed the tree"
print(f"lint: {fns} fns, {edges} edges, {len(entries)} trust entries proven panic-free")
'
# …and the planted fixtures must trip the analyzer (expect exit code 5;
# anything else — including exit 1 for a rule that no longer fires — fails).
set +e
cargo run --release --quiet -- lint --fixtures > /dev/null 2>&1
lint_code=$?
set -e
if [ "$lint_code" -ne 5 ]; then
    echo "check.sh: lint --fixtures exited $lint_code, expected 5 (analyzer blind?)" >&2
    exit 1
fi
echo "lint gate: workspace clean, armed fixtures trip exit 5"

# Layer-2 smoke: every Table 1 design's generated ILP passes the model and
# Eq.1-4 structure audits at both paper beta points.
cargo run --release --quiet -- lint --models

# Release-safe lane: the shipping feature set builds, and the contradictory
# one (fault hooks in a release-safe binary) is a compile_error!.
cargo build --release -q -p fbb-core --features release-safe
if cargo build -q -p fbb-lp --features release-safe,fault-inject > /dev/null 2>&1; then
    echo "check.sh: release-safe + fault-inject built; the compile_error! guard is gone" >&2
    exit 1
fi
echo "release-safe lane: clean build green, contradictory build rejected"

tel_json=$(mktemp /tmp/fbb_telemetry_smoke.XXXXXX.json)
FBB_TELEMETRY="$tel_json" cargo run --release --example quickstart > /dev/null
python3 - "$tel_json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    snap = json.load(f)
assert snap.get("lp_simplex_solves", 0) > 0, "no simplex counters in snapshot"
assert all(isinstance(v, (int, float)) for v in snap.values()), "non-numeric value"
print(f"telemetry smoke: {len(snap)} keys, JSON OK")
EOF

# LP solver bench smoke: regenerate BENCH_lp.json and hold the acceptance
# numbers — warm starts cutting per-node simplex iterations below cold
# two-phase solves, and the §5j presolve+cuts tree at least 1.3x smaller
# than the raw tree on the largest clustered shape.
cargo bench -p fbb-bench --bench lp_solver > /dev/null
python3 - BENCH_lp.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    snap = json.load(f)
reduction = snap["bnb_warm_iter_reduction"]
assert reduction > 1.0, f"warm starts do not reduce per-node iterations ({reduction})"
nodes = snap["bnb_node_reduction_large"]
assert nodes >= 1.3, f"presolve+cuts node reduction {nodes} below the 1.3x floor"
print(f"lp bench smoke: warm iter reduction {reduction:.2f}x, "
      f"node reduction {nodes:.1f}x")
EOF
# STA and design-database bench lanes: each bench starts from no snapshot
# and must write every key of it, so a key it stopped writing shows up here
# instead of surviving from the committed copy (restored on exit).
rm -f BENCH_sta.json BENCH_db.json
cargo bench -p fbb-bench --bench sta_engine > /dev/null
cargo bench -p fbb-bench --bench db_pipeline > /dev/null
python3 - <<'EOF'
import json
expected = {
    "BENCH_sta.json": [
        "sta_gate_count", "sta_full_analyze_ns", "mc_serial_ns", "mc_parallel_ns",
        "mc_parallel_speedup", "mc_workers_used", "threads", "sta_composed_gate_count",
        "sta_composed_blocks", "sta_composed_full_analyze_ns", "sta_composed_path_set_ns",
        "sta_composed_constrained_path_set_ns",
    ],
    "BENCH_db.json": [
        f"db_{design}_{key}" for design in ("c1355", "c3540")
        for key in ("cold_pipeline_ns", "compile_ns", "warm_solve_ns", "warm_speedup", "bytes")
    ],
}
for path, keys in expected.items():
    with open(path) as f:
        snap = json.load(f)
    assert sorted(snap) == sorted(keys), f"{path} holds {sorted(snap)}, expected {sorted(keys)}"
    assert all(v > 0 for v in snap.values()), f"{path} has a non-positive value"
print(f"sta/db bench lanes: {sum(map(len, expected.values()))} keys written")
EOF
# MIP-root lane: c6288 at beta 10%, C = 2 is the Table 1 cell whose root
# cut rounds once stalled in cold re-solves and never reached node 1. The
# runtime bin's "optimal?" column must read "yes" (not "gap ...") within
# the 60 s ILP budget.
c6288_optimal=$(cargo run --release --quiet -p fbb-bench --bin runtime -- \
    --designs c6288 --beta 0.10 --clusters 2 --ilp-time-limit 60 \
    | awk '$1 == "c6288" { print $6 }')
if [ "$c6288_optimal" != "yes" ]; then
    echo "check.sh: c6288 beta=0.10 C=2 not proven optimal in 60 s (got '$c6288_optimal')" >&2
    exit 1
fi
echo "mip-root lane: c6288 beta=0.10 C=2 proven optimal"
# Table 1 ILP lane: the exact answers of every Table 1 cell (no node limit,
# 120 s per cell) must match the golden file bit for bit, and every cell
# must be proven optimal. The benchmark only checks that two passes of one
# binary agree; this pins the answers across changes.
table1_ilp=$(cargo run --release --quiet -p fbb-bench --bin table1_ilp)
if ! diff <(echo "$table1_ilp") tests/golden/table1_ilp.txt >&2; then
    echo "check.sh: Table 1 ILP answers differ from tests/golden/table1_ilp.txt" >&2
    exit 1
fi
unproven=$(echo "$table1_ilp" | awk '$4 != "optimal"' | wc -l)
if [ "$unproven" -ne 0 ] || [ "$(echo "$table1_ilp" | wc -l)" -ne 28 ]; then
    echo "check.sh: Table 1 ILP lane expects 28 cells, all optimal" >&2
    exit 1
fi
echo "table1 ilp lane: 28 cells match the golden answers, all optimal"
# Table 1 heuristic lane: the two-pass heuristic's answers on all 36
# Table 1 cells (9 designs x beta {5%,10%} x C {2,3}: leakage bits, cluster
# count, assignment) must match the golden file line for line. Nothing
# else pins heuristic bits across changes; serve_warm only compares the
# daemon with the same build run in-process.
table1_heuristic=$(cargo run --release --quiet -p fbb-bench --bin table1_heuristic)
if ! diff <(echo "$table1_heuristic") tests/golden/table1_heuristic.txt >&2; then
    echo "check.sh: Table 1 heuristic answers differ from tests/golden/table1_heuristic.txt" >&2
    exit 1
fi
if [ "$(echo "$table1_heuristic" | wc -l)" -ne 36 ]; then
    echo "check.sh: Table 1 heuristic lane expects 36 cells" >&2
    exit 1
fi
echo "table1 heuristic lane: 36 cells match the golden answers"
# Sweep golden lane: the warm sweep's answers on the composed 200k-gate
# design (the benchmark's sweep_200k grid: 2 constraint-count lines, then
# 8 cells of status, leakage bits, cluster count and assignment) must match
# the golden file line for line. The benchmark only compares a build's warm
# sweep with its own cold sweep; this pins the answers across changes.
sweep_200k=$(cargo run --release --quiet -p fbb-bench --bin sweep_200k)
if ! diff <(echo "$sweep_200k") tests/golden/sweep_200k.txt >&2; then
    echo "check.sh: composed sweep answers differ from tests/golden/sweep_200k.txt" >&2
    exit 1
fi
if [ "$(echo "$sweep_200k" | wc -l)" -ne 10 ]; then
    echo "check.sh: sweep golden lane expects 10 lines (2 betas + 8 cells)" >&2
    exit 1
fi
echo "sweep golden lane: 8 composed-design cells match the golden answers"
# Sweep lane: regenerate BENCH_sweep.json on the composed 200k-gate design
# and hold the acceptance numbers — the warm pipeline at least 2x faster
# than cold per-cell solves, every cell bit-identical between the two, on
# a design comfortably past the 50k-gate scaling floor.
cargo bench -p fbb-bench --bench sweep > /dev/null
python3 - BENCH_sweep.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    snap = json.load(f)
speedup = snap["sweep_warm_speedup"]
assert speedup >= 2.0, f"warm sweep speedup {speedup} below the 2x floor"
assert snap["sweep_bit_identical"] == 1.0, "warm sweep diverged from cold per-cell bits"
gates = snap["sweep_gate_count"]
assert gates >= 50_000, f"composed design has {gates} gates, below the 50k floor"
print(f"sweep bench: {speedup:.2f}x warm over cold on {gates:.0f} gates, "
      f"{snap['sweep_cells']:.0f} cells bit-identical")
EOF
# CLI smoke: a composed-design sweep must complete warm and write a report
# whose cells all carry hex objective bits (the difftest currency).
sweep_json=$(mktemp /tmp/fbb_sweep_check.XXXXXX.json)
cargo run --release --quiet -- sweep --compose 60000 --betas 0.05 \
    --clusters 2,3 --levels 6 --report "$sweep_json" > /dev/null
python3 - "$sweep_json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    rep = json.load(f)
assert len(rep["cells"]) == 2, f"expected 2 cells, got {len(rep['cells'])}"
assert all(len(c["leakage_bits"]) == 16 for c in rep["cells"]), "malformed objective bits"
assert rep["preprocess_count"] == 1, "warm sweep should preprocess once per beta"
print(f"sweep CLI smoke: {len(rep['cells'])} cells, report JSON OK")
EOF

# Design-database lane: compile-once -> solve round trip on two Table 1
# designs, golden-fixture byte comparison, and corrupt-input smoke.
db_dir=$(mktemp -d /tmp/fbb_db_check.XXXXXX)
for design in c1355 c3540; do
    cargo run --release --quiet -- compile --design "$design" \
        -o "$db_dir/$design.fbb" --betas 0.05,0.10 --clusters 3 > /dev/null
    cargo run --release --quiet -- solve --netlist "$db_dir/$design.fbb" \
        --beta 0.05 > /dev/null
    cargo run --release --quiet -- sta --netlist "$db_dir/$design.fbb" > /dev/null
    cargo run --release --quiet -- difftest --db "$db_dir/$design.fbb" > /dev/null
done
# Golden fixtures: the checked-in bytes must still decode and re-solve
# (tests/db_golden.rs pins byte equality; here we pin the CLI reads them).
for golden in tests/golden/*.fbb; do
    cargo run --release --quiet -- difftest --db "$golden" > /dev/null
done
# Corrupt-input smoke: a truncated database must exit non-zero (exit 1,
# CliError::Usage — never a panic, never exit 0).
head -c 100 "$db_dir/c1355.fbb" > "$db_dir/truncated.fbb"
set +e
cargo run --release --quiet -- solve --netlist "$db_dir/truncated.fbb" \
    --beta 0.05 > /dev/null 2>&1
db_code=$?
set -e
if [ "$db_code" -eq 0 ] || [ "$db_code" -ge 101 ]; then
    echo "check.sh: truncated .fbb exited $db_code, expected a clean non-zero error" >&2
    exit 1
fi
echo "db lane: compile/solve round trips green, goldens decode, truncation rejected (exit $db_code)"

# Serve lane: run the actual release binary (not `cargo run`, so the signal
# reaches the daemon itself), parse its ephemeral port, hammer it with a
# 100-request bench-serve, then check the graceful-drain contract.
serve_log=$(mktemp /tmp/fbb_serve_check.XXXXXX.log)
./target/release/fbb serve --addr 127.0.0.1:0 --workers 2 > "$serve_log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
    grep -q "listening on" "$serve_log" && break
    sleep 0.1
done
serve_addr=$(sed -n 's/.*listening on \([0-9.:]*\) .*/\1/p' "$serve_log" | head -1)
if [ -z "$serve_addr" ]; then
    echo "check.sh: serve daemon never reported its address" >&2
    cat "$serve_log" >&2
    exit 1
fi
# 4 connections x 25 solves = 100 requests against the live daemon; the
# design is loaded once and hit from the cache thereafter.
./target/release/fbb bench-serve --addr "$serve_addr" --design c1355 \
    --connections 4 --requests 25 > /dev/null
python3 - BENCH_serve.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    snap = json.load(f)
for key in ("serve_warm_p50_ns", "serve_warm_p99_ns", "serve_cold_cli_ns",
            "serve_cache_hits", "serve_cache_misses", "serve_cache_hit_rate"):
    assert key in snap, f"BENCH_serve.json missing {key}"
assert snap["serve_requests_total"] >= 100, "bench-serve ran fewer than 100 requests"
assert snap["serve_cache_hits"] >= 1, "design cache never hit"
speedup = snap["serve_p50_speedup_vs_cli"]
assert speedup > 1.0, f"warm daemon p50 no faster than the cold CLI ({speedup})"
print(f"serve bench: p50 {snap['serve_warm_p50_ns']/1e3:.0f}us, "
      f"{speedup:.1f}x vs cold CLI, hit rate {snap['serve_cache_hit_rate']:.2f}")
EOF
# Graceful drain: SIGTERM must finish queued work and exit 0.
kill -TERM "$serve_pid"
set +e
wait "$serve_pid"
serve_code=$?
set -e
serve_pid=""
if [ "$serve_code" -ne 0 ]; then
    echo "check.sh: serve daemon exited $serve_code under SIGTERM, expected 0" >&2
    cat "$serve_log" >&2
    exit 1
fi
if ! grep -q "drained cleanly" "$serve_log"; then
    echo "check.sh: serve daemon never reported a clean drain" >&2
    cat "$serve_log" >&2
    exit 1
fi
echo "serve lane: bench green, SIGTERM drain clean (exit 0)"

echo "check.sh: all green"
