//! `sweep_200k`: the warm β × C × P grid over the composed 200,861-gate
//! design. One operation is one `run_sweep` call.

use std::time::Instant;

use fbb_core::{
    check_timing, run_sweep, single_bb, FbbProblem, IlpAllocator, Preprocessed, SweepCell,
    SweepGrid, SweepOptions, SweepStatus,
};

use crate::designs;
use crate::gauge::Gauge;
use crate::json::Json;
use crate::layers::{self, Telemetry};
use crate::metrics::{peak_rss_mb, Outcome};
use crate::stats;
use crate::trace::Tracer;

const TARGET_GATES: usize = 200_000;
const ROWS: u32 = 64;
/// Untraced set-ups after the sweeps, besides the one before them (at most
/// one composed design alive at a time); the median of all is reported.
const SETUP_REPS_AFTER: usize = 2;
/// Sweeps always run, even past `--seconds`.
const MIN_OPS: usize = 5;
/// Gauge readings before each sweep (see `gauge`), so that about ten fall
/// within the conversion window of a sweep of about 0.45 s.
const READINGS_PER_SWEEP: usize = 2;

fn grid() -> SweepGrid {
    SweepGrid {
        betas: vec![0.03, 0.05],
        clusters: vec![2, 3],
        levels: vec![6, 11],
    }
}

/// Bit-level identity of a cell: status, objective bits, and assignment.
fn cell_key(c: &SweepCell) -> (SweepStatus, u64, usize, usize, u64, Option<Vec<usize>>) {
    (
        c.status,
        c.beta.to_bits(),
        c.clusters,
        c.levels,
        c.leakage_nw.to_bits(),
        c.assignment.clone(),
    )
}

fn same_cells(a: &[SweepCell], b: &[SweepCell]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| cell_key(x) == cell_key(y))
}

/// The pre-processed problem a cell was solved on: its β's problem
/// restricted to its P levels.
fn cell_problem(pre_by_beta: &[(f64, Preprocessed)], cell: &SweepCell) -> Preprocessed {
    let (_, pre) = pre_by_beta
        .iter()
        .find(|(b, _)| b.to_bits() == cell.beta.to_bits())
        .expect("a grid beta");
    let mut restricted = pre
        .restrict_levels(cell.levels)
        .expect("grid levels are valid");
    restricted.max_clusters = cell.clusters;
    restricted
}

/// Checks each cell's answer independently and returns its leakage saving
/// against the single-BB baseline of the same problem.
fn check_cells(
    pre_by_beta: &[(f64, Preprocessed)],
    cells: &[SweepCell],
    out: &mut Outcome,
) -> Vec<f64> {
    let mut savings = Vec::new();
    for cell in cells {
        let label = format!("beta={} C={} P={}", cell.beta, cell.clusters, cell.levels);
        if cell.status != SweepStatus::Optimal {
            out.fail(format!(
                "{label}: status {:?}, expected Optimal",
                cell.status
            ));
            continue;
        }
        let pre = cell_problem(pre_by_beta, cell);
        let assignment = cell.assignment.as_deref().unwrap_or_default();
        if check_timing(&pre, assignment).is_err() {
            out.fail(format!("{label}: answer violates timing"));
        }
        if Preprocessed::cluster_count(assignment) > cell.clusters {
            out.fail(format!("{label}: cluster budget exceeded"));
        }
        match single_bb(&pre) {
            Ok(base) => savings.push((base.leakage_nw - cell.leakage_nw) / base.leakage_nw * 100.0),
            Err(e) => out.fail(format!("{label}: single_bb: {e}")),
        }
    }
    savings
}

/// Runs the workload for about `seconds` of sweeps.
pub fn run(_seed: u64, seconds: f64, traced: bool) -> Outcome {
    // The composed design and the grid are fixed, so the seed changes
    // nothing here: every run sweeps the same inputs.
    let mut out = Outcome::default();
    let mut tr = Tracer::new(traced);
    let mut gauge = Gauge::new();
    let mut setups = Vec::new();
    let set_up = |tr: &mut Tracer, gauge: &mut Gauge, setups: &mut Vec<(Instant, Instant)>| {
        gauge.tick();
        let t = Instant::now();
        let d = designs::composed(TARGET_GATES, ROWS, tr);
        setups.push((t, Instant::now()));
        gauge.tick();
        d
    };
    let d = set_up(&mut tr, &mut gauge, &mut setups);
    let grid = grid();

    let mut reference: Option<Vec<SweepCell>> = None;
    // (start, end, traced) of every sweep, in run order.
    let mut ops: Vec<(Instant, Instant, bool)> = Vec::new();
    let mut savings = Vec::new();
    let mut op = 0u64;
    fbb_telemetry::reset();
    let start = Instant::now();
    loop {
        op += 1;
        out.attempted += 1;
        // A traced run keeps its first sweep untraced as the overhead base.
        let traced_op = traced && op > 1;
        for _ in 0..READINGS_PER_SWEEP {
            gauge.tick();
        }
        let t = Instant::now();
        let report = if traced_op {
            fbb_telemetry::enable();
            let id = tr.begin("sweep.op", op);
            let r = run_sweep(
                &d.netlist,
                &d.placement,
                &d.chara,
                &grid,
                &SweepOptions::default(),
                |_| {},
            );
            tr.end(id);
            fbb_telemetry::disable();
            r
        } else {
            run_sweep(
                &d.netlist,
                &d.placement,
                &d.chara,
                &grid,
                &SweepOptions::default(),
                |_| {},
            )
        };
        ops.push((t, Instant::now(), traced_op));
        match report {
            Err(e) => out.fail(format!("sweep {op}: {e}")),
            Ok(report) => match &reference {
                None => reference = Some(report.cells),
                Some(r) if !same_cells(r, &report.cells) => {
                    out.fail(format!("sweep {op}: cells differ from the first sweep"))
                }
                Some(_) => {}
            },
        }
        let elapsed = start.elapsed().as_secs_f64();
        if op as usize >= MIN_OPS && elapsed >= seconds {
            break;
        }
    }
    gauge.tick();

    // Independent checks, outside the timed loop: each cell against its own
    // problem, and the warm pipeline against a cold solve of every cell.
    let pre_by_beta: Vec<(f64, Preprocessed)> = grid
        .betas
        .iter()
        .map(|&beta| {
            let problem =
                FbbProblem::new(&d.netlist, &d.placement, &d.chara, beta, 3).expect("valid grid");
            let pre = tr
                .time("core.preprocess", op + 1, || problem.preprocess())
                .expect("composed designs are acyclic");
            (beta, pre)
        })
        .collect();
    out.attempted += 1;
    gauge.tick();
    let cold_start = Instant::now();
    let cold = run_sweep(
        &d.netlist,
        &d.placement,
        &d.chara,
        &grid,
        &SweepOptions {
            cold: true,
            ..SweepOptions::default()
        },
        |_| {},
    );
    let cold_end = Instant::now();
    gauge.tick();
    match (&reference, cold) {
        (Some(warm), Ok(cold)) => {
            if !same_cells(warm, &cold.cells) {
                out.fail("cold sweep differs from the warm sweep".to_owned());
            }
            savings = check_cells(&pre_by_beta, warm, &mut out);
        }
        (_, Err(e)) => out.fail(format!("cold sweep: {e}")),
        (None, _) => out.fail("no warm sweep completed".to_owned()),
    }
    out.extra
        .push(("gates".into(), Json::Num(d.netlist.gate_count() as f64)));
    // Every time at the reference speed (see `gauge`).
    let cold_ms = gauge.ms(cold_start, cold_end);
    out.extra.push(("cold_sweep_ms".into(), Json::Num(cold_ms)));
    let times = |gauge: &Gauge, traced_ops: bool| -> Vec<f64> {
        ops.iter()
            .filter(|o| o.2 == traced_ops)
            .map(|&(a, b, _)| gauge.ms(a, b))
            .collect()
    };

    if !traced {
        out.set("peak_rss_mb", peak_rss_mb("self"));
        drop((d, pre_by_beta));
        for _ in 0..SETUP_REPS_AFTER {
            drop(set_up(&mut tr, &mut gauge, &mut setups));
        }
        let intervals: Vec<_> = ops.iter().map(|&(a, b, _)| (a, b)).collect();
        out.extra.push(("gauge".into(), gauge.to_json(&intervals)));
        let op_ms = times(&gauge, false);
        let setup_s: Vec<f64> = setups.iter().map(|&(a, b)| gauge.ms(a, b) / 1e3).collect();
        out.set("setup_s", stats::median(&setup_s));
        // One distinct operation: the typical and tail times are its own.
        let sweeps = [op_ms.clone()];
        out.set("ops_per_s", stats::round_rate(&sweeps));
        out.set("op_typical_ms", stats::typical(&sweeps));
        out.set("op_tail_ms", stats::tail(&sweeps));
        out.extra.push(("op_ms".into(), Json::nums(&op_ms)));
        out.set("savings_pct", stats::mean(&savings));
        return out;
    }

    let (op_ms, untraced_ms) = (times(&gauge, true), times(&gauge, false));

    // Layer replays on the sweep's own inputs: STA and pre-processing per
    // β, and one model per (β, P) as the warm pipeline builds them.
    let replay = op + 2;
    let mut paths = Vec::new();
    let mut constraints = Vec::new();
    for (beta, pre) in &pre_by_beta {
        let problem =
            FbbProblem::new(&d.netlist, &d.placement, &d.chara, *beta, 3).expect("valid grid");
        paths.push(layers::replay_sta(&d.netlist, &problem, &mut tr, replay) as f64);
        constraints.push(pre.constraint_count() as f64);
        for &levels in &grid.levels {
            let restricted = pre.restrict_levels(levels).expect("grid levels are valid");
            let model = tr
                .time("core.build_model", replay, || {
                    IlpAllocator::default().build_model(&restricted)
                })
                .expect("sweep problems build");
            layers::replay_lp(&model, &mut tr, replay);
        }
    }
    let telemetry = Telemetry::capture();
    layers::set_setup_metrics(&tr, 1, &mut out);
    telemetry.set_lp_metrics(&mut out);
    layers::set_sta_metrics(&tr, &mut out);
    out.set("sta.paths", stats::mean(&paths));
    out.set("core.constraints", stats::mean(&constraints));
    out.set("core.ilp_savings_pct", stats::mean(&savings));
    let optimal = reference
        .iter()
        .flatten()
        .filter(|c| c.status == SweepStatus::Optimal)
        .count();
    out.set(
        "lp.proven_optimal_frac",
        optimal as f64 / grid.cell_count() as f64,
    );
    out.set("core.sweep_cold_over_warm", cold_ms / stats::median(&op_ms));
    out.set(
        "trace.overhead_pct",
        (stats::median(&op_ms) / stats::median(&untraced_ms) - 1.0) * 100.0,
    );
    let (spans, summary) = tr.to_json();
    out.extra.push(("span_summary".into(), summary));
    out.extra.push(("spans".into(), spans));
    out
}
