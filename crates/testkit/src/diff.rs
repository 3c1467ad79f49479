//! The cross-engine differential harness.
//!
//! For every seeded case the runner generates one instance per layer and
//! checks the production engines against the independent oracles:
//!
//! * **LP** — `solve_lp` and the (continuous-relaxation) branch & bound must
//!   agree with the dense textbook simplex on both the feasibility verdict
//!   and, within tolerance, the optimal objective;
//! * **cluster** — the ILP must be provably optimal per the brute-force
//!   enumerator; the two-pass greedy must be feasible, within the cluster
//!   budget, and within a bounded leakage gap of the optimum; on
//!   uncompensable instances every engine must agree on infeasibility and
//!   the heuristic's diagnosed worst path must match the oracle's;
//! * **STA** — `TimingGraph::analyze` must stay *bit-identical* (per
//!   `f64::to_bits`) to the naive queue-based oracle before and after every
//!   delay flip, down to each gate's longest path and the order of Π;
//! * **fault** — a deterministic [`FaultPlan`] forces the
//!   degraded exits and asserts they are labeled honestly.
//!
//! Mismatch counts flow through `fbb_telemetry` under `difftest_*` keys, so
//! long soaks can be monitored exactly like any other solver run.

use fbb_core::Preprocessed;
use fbb_lp::{solve_lp, LpStatus, MipOptions, MipStatus};
use fbb_sta::TimingGraph;

use crate::gen::{self, LpInstance};
use crate::oracle::{dense_simplex, enumerate, naive_sta};
use crate::FaultPlan;

/// Relative tolerance for objective comparisons between the engine and the
/// dense oracle (both certify a vertex; only arithmetic noise separates
/// them).
const OBJ_RTOL: f64 = 1e-5;

/// Configuration of a differential run.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Number of cases per layer.
    pub cases: usize,
    /// Suite seed; case `i` uses `gen::case_rng(seed, i)`.
    pub seed: u64,
    /// Maximum tolerated relative leakage excess of the greedy solution
    /// over the ILP optimum, e.g. `0.6` = 60% worse. The two-pass heuristic
    /// has no approximation guarantee, but on the generator's small
    /// instances its gap is empirically far below this; a regression that
    /// blows past it is a real quality bug, not noise.
    pub greedy_gap_limit: f64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig { cases: 64, seed: 0, greedy_gap_limit: 0.6 }
    }
}

/// Cap on recorded failure descriptions (counters keep exact totals).
const MAX_RECORDED_FAILURES: usize = 8;

/// Outcome of a differential run.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Cases executed per layer.
    pub cases: usize,
    /// LP-layer mismatches (simplex or B&B vs. dense oracle).
    pub lp_mismatches: usize,
    /// Cluster-layer mismatches (ILP/greedy vs. enumerator).
    pub cluster_mismatches: usize,
    /// STA-layer mismatches (`analyze` vs. naive oracle).
    pub sta_mismatches: usize,
    /// Fault-layer mismatches (mislabeled degraded exits).
    pub fault_mismatches: usize,
    /// First few failure descriptions, one line each.
    pub failures: Vec<String>,
}

impl DiffReport {
    /// Total mismatches across all layers.
    pub fn total_mismatches(&self) -> usize {
        self.lp_mismatches + self.cluster_mismatches + self.sta_mismatches + self.fault_mismatches
    }

    /// Whether every engine agreed with every oracle on every case.
    pub fn is_clean(&self) -> bool {
        self.total_mismatches() == 0
    }

    /// One-paragraph human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "difftest: {} cases/layer, {} mismatches (lp {}, cluster {}, sta {}, fault {})",
            self.cases,
            self.total_mismatches(),
            self.lp_mismatches,
            self.cluster_mismatches,
            self.sta_mismatches,
            self.fault_mismatches,
        )
    }
}

/// Runs the four differential layers over seeded random cases.
#[derive(Debug, Clone, Default)]
pub struct DiffRunner {
    /// Run configuration.
    pub config: DiffConfig,
}

impl DiffRunner {
    /// Runner with default tolerances.
    pub fn new(cases: usize, seed: u64) -> Self {
        DiffRunner { config: DiffConfig { cases, seed, ..DiffConfig::default() } }
    }

    /// Runner with an explicit configuration.
    pub fn with_config(config: DiffConfig) -> Self {
        DiffRunner { config }
    }

    /// Executes the run. Never panics on a mismatch — every divergence is
    /// counted and (up to the cap) described in the report, so soaks always
    /// run to completion.
    pub fn run(&self) -> DiffReport {
        let cfg = &self.config;
        let mut report = DiffReport { cases: cfg.cases, ..DiffReport::default() };
        for case in 0..cfg.cases as u64 {
            let outcomes = [
                ("lp", check_lp_case(cfg.seed, case)),
                ("cluster", check_cluster_case(cfg.seed, case, cfg.greedy_gap_limit)),
                ("sta", check_sta_case(cfg.seed, case)),
                ("fault", check_fault_case(cfg.seed, case)),
            ];
            for (layer, outcome) in outcomes {
                if let Err(reason) = outcome {
                    match layer {
                        "lp" => {
                            report.lp_mismatches += 1;
                            fbb_telemetry::counter("difftest_lp_mismatches", 1);
                        }
                        "cluster" => {
                            report.cluster_mismatches += 1;
                            fbb_telemetry::counter("difftest_cluster_mismatches", 1);
                        }
                        "sta" => {
                            report.sta_mismatches += 1;
                            fbb_telemetry::counter("difftest_sta_mismatches", 1);
                        }
                        _ => {
                            report.fault_mismatches += 1;
                            fbb_telemetry::counter("difftest_fault_mismatches", 1);
                        }
                    }
                    if report.failures.len() < MAX_RECORDED_FAILURES {
                        report
                            .failures
                            .push(format!("[{layer} seed={} case={case}] {reason}", cfg.seed));
                    }
                }
            }
            fbb_telemetry::counter("difftest_cases", 1);
        }
        report
    }
}

/// LP layer: engine simplex and B&B vs. the dense textbook simplex.
///
/// Public (with the other per-layer checks) so targeted tests and the
/// injected-defect drill can replay a single `(seed, case)` pair.
pub fn check_lp_case(seed: u64, case: u64) -> Result<(), String> {
    let mut rng = gen::case_rng(seed ^ 0x1, case);
    let inst = gen::random_lp(&mut rng);
    check_lp_instance(&inst)
}

/// Runs the LP-layer comparison on one explicit instance (also used by the
/// fault layer on hand-built degenerate instances).
pub fn check_lp_instance(inst: &LpInstance) -> Result<(), String> {
    let truth = dense_simplex::solve(inst);
    let model = inst.to_model();

    let lp = solve_lp(&model).map_err(|e| format!("engine simplex hard error: {e}"))?;
    check_lp_against_oracle("simplex", inst, lp.status, lp.objective, &lp.x, &truth)?;

    // The same model through branch & bound (no integers, so B&B must reduce
    // to one root relaxation with the same answer).
    let mip = fbb_lp::solve_mip(&model, &MipOptions::default(), None)
        .map_err(|e| format!("b&b hard error: {e}"))?;
    let status = match mip.status {
        MipStatus::Optimal => LpStatus::Optimal,
        MipStatus::Infeasible => LpStatus::Infeasible,
        MipStatus::Unbounded => LpStatus::Unbounded,
        other => return Err(format!("b&b returned {other:?} with no limits set")),
    };
    check_lp_against_oracle("b&b", inst, status, mip.objective, &mip.x, &truth)
}

fn check_lp_against_oracle(
    engine: &str,
    inst: &LpInstance,
    status: LpStatus,
    objective: f64,
    x: &[f64],
    truth: &dense_simplex::DenseLpResult,
) -> Result<(), String> {
    match (truth, status) {
        (dense_simplex::DenseLpResult::Optimal { objective: oracle_obj, .. }, LpStatus::Optimal) => {
            let tol = OBJ_RTOL * oracle_obj.abs().max(1.0);
            if (objective - oracle_obj).abs() > tol {
                return Err(format!(
                    "{engine} objective {objective} vs oracle {oracle_obj} (tol {tol})"
                ));
            }
            if !inst.to_model().is_feasible(x, 1e-5) {
                return Err(format!("{engine} point violates its own model"));
            }
            Ok(())
        }
        (dense_simplex::DenseLpResult::Infeasible, LpStatus::Infeasible) => Ok(()),
        (oracle, engine_status) => Err(format!(
            "{engine} says {engine_status:?}, oracle says {}",
            match oracle {
                dense_simplex::DenseLpResult::Optimal { objective, .. } =>
                    format!("Optimal({objective})"),
                other => format!("{other:?}"),
            }
        )),
    }
}

/// Cluster layer: ILP and greedy vs. the brute-force enumerator.
pub fn check_cluster_case(seed: u64, case: u64, greedy_gap_limit: f64) -> Result<(), String> {
    let mut rng = gen::case_rng(seed ^ 0x2, case);
    let pre = gen::random_cluster(&mut rng);
    check_cluster_instance(&pre, greedy_gap_limit)
}

/// Runs the cluster-layer comparison on one explicit instance (also used by
/// the fault layer on degenerate layouts).
pub fn check_cluster_instance(pre: &Preprocessed, greedy_gap_limit: f64) -> Result<(), String> {
    let pre = pre.clone();
    let truth = enumerate::best_assignment(&pre);
    let ilp = fbb_core::IlpAllocator::default()
        .solve(&pre)
        .map_err(|e| format!("ilp hard error: {e}"))?;
    let greedy = fbb_core::TwoPassHeuristic.solve(&pre);

    match truth {
        Some(best) => {
            // ILP: must prove optimality and hit the enumerated optimum.
            if !ilp.proven_optimal {
                return Err(format!(
                    "ilp failed to prove optimality on a {}-point instance (gap {})",
                    pre.levels().pow(pre.n_rows() as u32),
                    ilp.gap
                ));
            }
            let sol =
                ilp.solution.as_ref().ok_or_else(|| "ilp optimal but no solution".to_string())?;
            let tol = 1e-6 * best.leakage_nw.max(1.0);
            if (sol.leakage_nw - best.leakage_nw).abs() > tol {
                return Err(format!(
                    "ilp leakage {} vs enumerated optimum {}",
                    sol.leakage_nw, best.leakage_nw
                ));
            }
            if !enumerate::assignment_is_feasible(&pre, &sol.assignment) {
                return Err("ilp assignment infeasible per oracle".into());
            }

            // Greedy: feasible, within budget, and within the quality bound.
            let sol = greedy.map_err(|e| format!("greedy failed on feasible instance: {e}"))?;
            if !enumerate::assignment_is_feasible(&pre, &sol.assignment) {
                return Err("greedy assignment infeasible per oracle".into());
            }
            let gap = (sol.leakage_nw - best.leakage_nw) / best.leakage_nw.max(1e-12);
            fbb_telemetry::record("difftest_greedy_gap", gap);
            if gap < -1e-9 {
                return Err(format!(
                    "greedy leakage {} beats the enumerated optimum {} — oracle bug",
                    sol.leakage_nw, best.leakage_nw
                ));
            }
            if gap > greedy_gap_limit {
                return Err(format!(
                    "greedy gap {:.1}% exceeds the {:.1}% bound (greedy {}, optimum {})",
                    gap * 100.0,
                    greedy_gap_limit * 100.0,
                    sol.leakage_nw,
                    best.leakage_nw
                ));
            }
            Ok(())
        }
        None => {
            // Uncompensable: every engine must agree, and the heuristic's
            // diagnosis must name the oracle's worst path.
            if ilp.solution.is_some() {
                return Err("ilp found a solution the enumerator proves impossible".into());
            }
            let err = match greedy {
                Ok(sol) => {
                    return Err(format!(
                        "greedy claims feasible (leakage {}) on an uncompensable instance",
                        sol.leakage_nw
                    ))
                }
                Err(e) => e,
            };
            let (oracle_path, oracle_shortfall) = enumerate::uncompensable_reason(&pre)
                .ok_or_else(|| {
                    "enumerator says infeasible but the all-top assignment passes".to_string()
                })?;
            match err {
                fbb_core::FbbError::Uncompensable { worst_path, shortfall_ps, .. } => {
                    if worst_path != Some(oracle_path) {
                        return Err(format!(
                            "engine blames path {worst_path:?}, oracle blames {oracle_path}"
                        ));
                    }
                    if (shortfall_ps - oracle_shortfall).abs() > 1e-6 * oracle_shortfall.max(1.0) {
                        return Err(format!(
                            "engine shortfall {shortfall_ps} vs oracle {oracle_shortfall}"
                        ));
                    }
                    Ok(())
                }
                other => Err(format!("expected Uncompensable, got: {other}")),
            }
        }
    }
}

/// STA layer: `analyze` vs. the naive queue oracle, compared bit-for-bit
/// on the initial delays and after each flip: `Dcrit`, every arrival and
/// tail, every gate's longest path (gates and delay), and Π in order.
pub fn check_sta_case(seed: u64, case: u64) -> Result<(), String> {
    let mut rng = gen::case_rng(seed ^ 0x3, case);
    let sta_case = gen::random_sta(&mut rng);
    let nl = &sta_case.netlist;
    let graph = TimingGraph::new(nl).map_err(|e| format!("graph build failed: {e}"))?;

    let mut delays = sta_case.delays_ps.clone();
    compare_sta(nl, &graph, &delays, "initial")?;
    for (step, &(gate, new_delay)) in sta_case.flips.iter().enumerate() {
        delays[gate] = new_delay;
        compare_sta(nl, &graph, &delays, &format!("flip {step}"))?;
    }
    Ok(())
}

fn compare_sta(
    nl: &fbb_netlist::Netlist,
    graph: &TimingGraph<'_>,
    delays: &[f64],
    label: &str,
) -> Result<(), String> {
    let full = graph.analyze(delays);
    let truth = naive_sta::analyze(nl, delays);
    if full.dcrit_ps().to_bits() != truth.dcrit_ps.to_bits() {
        return Err(format!(
            "{label}: full dcrit {} != naive {}",
            full.dcrit_ps(),
            truth.dcrit_ps
        ));
    }
    let gates = |path: &[fbb_netlist::GateId]| path.iter().map(|g| g.index()).collect::<Vec<_>>();
    for i in 0..nl.gate_count() {
        let id = fbb_netlist::GateId::from_index(i);
        if full.arrival_ps(id).to_bits() != truth.arrival_ps[i].to_bits() {
            return Err(format!(
                "{label}: full arrival[{i}] {} != naive {}",
                full.arrival_ps(id),
                truth.arrival_ps[i]
            ));
        }
        if full.tail_ps(id).to_bits() != truth.tail_ps[i].to_bits() {
            return Err(format!(
                "{label}: full tail[{i}] {} != naive {}",
                full.tail_ps(id),
                truth.tail_ps[i]
            ));
        }
        // The path's gates follow the critical links, so this pins the
        // first-strict-maximum tie-breaks of `pred` and `succ`.
        let path = full.longest_path_through(id);
        let expected = truth.path_through(i);
        let delay = truth.longest_through_ps(delays, i);
        if gates(&path.gates) != expected || path.delay_ps.to_bits() != delay.to_bits() {
            return Err(format!(
                "{label}: path through {i} is {:?} ({} ps), naive {expected:?} ({delay} ps)",
                gates(&path.gates),
                path.delay_ps
            ));
        }
    }
    let pi = full.critical_path_set();
    let expected = truth.critical_path_set(nl, delays);
    if pi.len() != expected.len() {
        return Err(format!("{label}: Π holds {} paths, naive {}", pi.len(), expected.len()));
    }
    for (k, (path, (naive_gates, naive_delay))) in pi.iter().zip(&expected).enumerate() {
        if gates(&path.gates) != *naive_gates || path.delay_ps.to_bits() != naive_delay.to_bits() {
            return Err(format!(
                "{label}: Π path {k} is {:?} ({} ps), naive {naive_gates:?} ({naive_delay} ps)",
                gates(&path.gates),
                path.delay_ps
            ));
        }
    }
    Ok(())
}

/// Fault layer: execute the case's deterministic fault plan.
pub fn check_fault_case(seed: u64, case: u64) -> Result<(), String> {
    FaultPlan::from_seed(gen::splitmix64(seed ^ 0x4) ^ case).execute()
}
