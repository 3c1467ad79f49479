//! Pins the warm sweep's answers on the composed 200k-gate design: the
//! benchmark's `sweep_200k` grid (β {0.03, 0.05} × C {2, 3} × P {6, 11})
//! over `compose` with a 200,000-gate target, tiled into 64 rows, with the
//! date09 characterization. It prints each β's constraint count, then one
//! line per cell in sweep order giving the status, the leakage with its
//! `f64` bits, the cluster count, and the row assignment.
//! `scripts/check.sh` diffs this output against
//! `tests/golden/sweep_200k.txt`, so a change to the timing graph, the
//! pre-process or the solver that moves any answer shows up as a changed
//! line.
//!
//! ```text
//! cargo run -p fbb-bench --release --bin sweep_200k > tests/golden/sweep_200k.txt
//! ```

use fbb_core::{run_sweep, FbbProblem, Preprocessed, SweepGrid, SweepOptions, SweepStatus};
use fbb_device::{BiasLadder, BodyBiasModel, Library};
use fbb_netlist::{compose, ComposeOptions};
use fbb_placement::tile;

const TARGET_GATES: usize = 200_000;
const ROWS: u32 = 64;

fn main() {
    let netlist = compose("composed", &ComposeOptions::with_target(TARGET_GATES))
        .expect("composition succeeds")
        .netlist;
    let library = Library::date09_45nm();
    let placement = tile(&netlist, &library, ROWS).expect("tiling succeeds");
    let chara = library
        .characterize(&BodyBiasModel::date09_45nm(), &BiasLadder::date09().expect("valid ladder"));
    let grid = SweepGrid { betas: vec![0.03, 0.05], clusters: vec![2, 3], levels: vec![6, 11] };

    for &beta in &grid.betas {
        let pre = FbbProblem::new(&netlist, &placement, &chara, beta, 3)
            .expect("valid grid")
            .preprocess()
            .expect("composed designs are acyclic");
        println!("beta={beta:.2} constraints={}", pre.constraint_count());
    }
    let report = run_sweep(&netlist, &placement, &chara, &grid, &SweepOptions::default(), |_| {})
        .expect("the grid is valid");
    for cell in &report.cells {
        let status = match cell.status {
            SweepStatus::Optimal => "optimal",
            SweepStatus::Feasible => "feasible",
            SweepStatus::Infeasible => "infeasible",
            SweepStatus::Unknown => "unknown",
        };
        let assignment = cell.assignment.as_deref().unwrap_or_default();
        let rows: Vec<String> = assignment.iter().map(usize::to_string).collect();
        println!(
            "beta={:.2} C={} P={} {status} leakage_nw={:.4} bits={:016x} clusters={} assignment={}",
            cell.beta,
            cell.clusters,
            cell.levels,
            cell.leakage_nw,
            cell.leakage_nw.to_bits(),
            Preprocessed::cluster_count(assignment),
            rows.join(",")
        );
    }
}
