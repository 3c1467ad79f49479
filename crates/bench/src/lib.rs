//! Shared experiment harness: design loading, allocation runs, and table
//! formatting for the binaries that regenerate the paper's tables/figures,
//! and the flag reader those binaries and the `fbb` CLI share
//! ([`arg_parse`], [`arg_list`], [`arg_seconds`]).

pub mod report;

use std::fmt;
use std::str::FromStr;
use std::time::Duration;

use fbb_core::{single_bb, ClusterSolution, FbbError, FbbProblem, IlpAllocator, IlpOutcome, Preprocessed, TwoPassHeuristic};
use fbb_device::{BiasLadder, BodyBiasModel, Characterization, Library};
use fbb_netlist::suite::{self, PaperStats};
use fbb_netlist::Netlist;
use fbb_placement::{Placement, PlacementOrder, Placer, PlacerOptions};

/// A fully prepared Table 1 design: generated netlist, paper-row-count
/// placement, and library characterization.
pub struct PreparedDesign {
    /// Paper-reported statistics for the design.
    pub stats: PaperStats,
    /// The generated stand-in netlist.
    pub netlist: Netlist,
    /// Row-based placement at the paper's row count.
    pub placement: Placement,
    /// Cell characterization tables.
    pub characterization: Characterization,
}

/// Rejects a name that is not a Table 1 design: the one check every
/// caller of [`prepare_design`] that takes a design name from its command
/// line (the `fbb` CLI and the experiment binaries) makes before any work,
/// so an unknown name exits 1 naming it instead of panicking.
///
/// # Errors
///
/// An [`ArgError`] naming `name` when it is not a Table 1 design.
pub fn require_table1(name: &str) -> Result<(), ArgError> {
    if suite::PAPER_TABLE1.iter().any(|s| s.name == name) {
        Ok(())
    } else {
        Err(ArgError(format!("unknown design {name}; use a Table 1 name")))
    }
}

/// Generates, places (at the paper's exact row count), and characterizes a
/// Table 1 design.
///
/// # Panics
///
/// Panics if `name` is not a Table 1 design (callers check it first with
/// [`require_table1`]) or the placer fails (covered by the suite's tests,
/// so a failure here is a programming error).
pub fn prepare_design(name: &str) -> PreparedDesign {
    let stats = *suite::PAPER_TABLE1
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("{name} is not a Table 1 design"));
    let netlist = suite::generate(name).expect("suite name");
    let library = Library::date09_45nm();
    // Array datapaths (the multiplier and the wide adder) place as
    // row-major grids whose every row touches critical chains; cone-style
    // logic clusters by timing region under a timing-driven flow.
    let gridlike = matches!(name, "c6288" | "adder_128bits");
    let placer = Placer::new(PlacerOptions {
        target_rows: Some(stats.rows as u32),
        // Bound the annealing effort on the largest industrial blocks.
        anneal_moves: 40_000.min(netlist.gate_count() * 4),
        timing_driven: !gridlike,
        order: if gridlike { PlacementOrder::Natural } else { PlacementOrder::Cone },
    });
    let placement = placer.place(&netlist, &library).expect("paper row counts are placeable");
    let characterization = library
        .characterize(&BodyBiasModel::date09_45nm(), &BiasLadder::date09().expect("valid ladder"));
    PreparedDesign { stats, netlist, placement, characterization }
}

impl PreparedDesign {
    /// Pre-processes the design at a slowdown β and cluster budget C.
    ///
    /// # Panics
    ///
    /// Panics on invalid β/C (the harness always passes paper values).
    pub fn preprocess(&self, beta: f64, max_clusters: usize) -> Preprocessed {
        FbbProblem::new(&self.netlist, &self.placement, &self.characterization, beta, max_clusters)
            .expect("valid parameters")
            .preprocess()
            .expect("suite netlists are acyclic")
    }
}

/// One (β, C) measurement of one design.
#[derive(Debug, Clone)]
pub struct AllocationRun {
    /// Block-level single-voltage baseline.
    pub baseline: ClusterSolution,
    /// Two-pass heuristic solution.
    pub heuristic: ClusterSolution,
    /// Exact ILP outcome (`None` if skipped).
    pub ilp: Option<IlpOutcome>,
    /// Constraint count `M`.
    pub constraints: usize,
}

impl AllocationRun {
    /// Heuristic savings vs the single-BB baseline, percent.
    pub fn heuristic_savings(&self) -> f64 {
        self.heuristic.savings_vs(&self.baseline)
    }

    /// ILP savings vs the single-BB baseline, percent (`None` when the ILP
    /// was skipped or found no solution).
    pub fn ilp_savings(&self) -> Option<f64> {
        self.ilp
            .as_ref()
            .and_then(|o| o.solution.as_ref())
            .map(|s| s.savings_vs(&self.baseline))
    }
}

/// Runs baseline + heuristic (+ optionally ILP) on a pre-processed problem.
///
/// # Errors
///
/// Returns [`FbbError::Uncompensable`] when the slowdown exceeds the ladder.
pub fn run_allocation(
    pre: &Preprocessed,
    ilp_time_limit: Option<Duration>,
    run_ilp: bool,
) -> Result<AllocationRun, FbbError> {
    let baseline = single_bb(pre)?;
    let heuristic = TwoPassHeuristic.solve(pre)?;
    let ilp = if run_ilp {
        let allocator = IlpAllocator { time_limit: ilp_time_limit, ..IlpAllocator::default() };
        Some(allocator.solve(pre)?)
    } else {
        None
    };
    Ok(AllocationRun { baseline, heuristic, ilp, constraints: pre.constraint_count() })
}

/// Formats a line of aligned columns.
pub fn format_row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// The value after `--flag` in `args`, `None` when the flag is absent or
/// is the last argument.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

/// Whether a bare `--flag` is present.
pub fn arg_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// A usage error: a flag given without a value or with a value that does
/// not parse (the message names the flag and the value), or a design name
/// [`require_table1`] rejects (the message names the design). `Debug`
/// prints the bare message, so a binary whose `main` returns
/// `Result<(), ArgError>` reports `Error: bad --beta "x": …` and exits 1.
pub struct ArgError(String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

fn parse_as<T: FromStr>(flag: &str, raw: &str) -> Result<T, ArgError>
where
    T::Err: fmt::Display,
{
    raw.parse().map_err(|e| ArgError(format!("bad {flag} {raw:?}: {e}")))
}

/// Reads `--flag value` as a `T`, `Ok(None)` when the flag is absent.
///
/// # Errors
///
/// An [`ArgError`] when the flag is the last argument or its value does not
/// parse as `T`.
pub fn arg_parse<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, ArgError>
where
    T::Err: fmt::Display,
{
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let raw = args.get(i + 1).ok_or_else(|| ArgError(format!("missing value after {flag}")))?;
    parse_as(flag, raw).map(Some)
}

/// Reads a comma-separated list flag (`--betas 0.03,0.05`), `default` when
/// the flag is absent.
///
/// # Errors
///
/// As [`arg_parse`], for the value and for each item of the list.
pub fn arg_list<T: FromStr + Clone>(
    args: &[String],
    flag: &str,
    default: &[T],
) -> Result<Vec<T>, ArgError>
where
    T::Err: fmt::Display,
{
    match arg_parse::<String>(args, flag)? {
        None => Ok(default.to_vec()),
        Some(list) => list.split(',').map(|item| parse_as(flag, item.trim())).collect(),
    }
}

/// Reads a time budget in seconds, `Ok(None)` when the flag is absent.
///
/// # Errors
///
/// As [`arg_parse`], and also for a number of seconds that a `Duration`
/// cannot hold (negative, NaN, or too large), which would otherwise panic.
pub fn arg_seconds(args: &[String], flag: &str) -> Result<Option<Duration>, ArgError> {
    let Some(raw) = arg_parse::<String>(args, flag)? else {
        return Ok(None);
    };
    let secs: f64 = parse_as(flag, &raw)?;
    Duration::try_from_secs_f64(secs)
        .map(Some)
        .map_err(|e| ArgError(format!("bad {flag} {raw:?}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_small_design_matches_paper_rows() {
        let d = prepare_design("c1355");
        assert_eq!(d.placement.row_count(), 13);
        assert_eq!(d.stats.gates, 439);
    }

    #[test]
    fn allocation_run_end_to_end() {
        let d = prepare_design("c1355");
        let pre = d.preprocess(0.05, 3);
        let run = run_allocation(&pre, None, true).unwrap();
        assert!(run.heuristic.meets_timing);
        assert!(run.heuristic_savings() >= 0.0);
        let ilp_savings = run.ilp_savings().expect("ilp ran");
        assert!(ilp_savings + 1e-6 >= run.heuristic_savings());
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> =
            ["--beta", "0.05", "--layout"].iter().map(|s| s.to_string()).collect();
        assert_eq!(arg_value(&args, "--beta").as_deref(), Some("0.05"));
        assert!(arg_flag(&args, "--layout"));
        assert!(!arg_flag(&args, "--missing"));
        assert_eq!(arg_value(&args, "--none"), None);
    }

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn typed_reads_reject_bad_values_by_name() {
        let args = argv(&["--beta", "0,08", "--clusters", "3", "--rows"]);
        assert_eq!(arg_parse::<usize>(&args, "--clusters").unwrap(), Some(3));
        assert_eq!(arg_parse::<usize>(&args, "--levels").unwrap(), None);
        let bad = arg_parse::<f64>(&args, "--beta").unwrap_err().to_string();
        assert!(bad.starts_with("bad --beta \"0,08\": "), "{bad}");
        let missing = arg_parse::<u32>(&args, "--rows").unwrap_err().to_string();
        assert_eq!(missing, "missing value after --rows");
    }

    #[test]
    fn lists_default_when_absent_and_name_a_bad_item() {
        let args = argv(&["--betas", "0.03, 0.05", "--levels", "6,x"]);
        assert_eq!(arg_list(&args, "--betas", &[0.1]).unwrap(), vec![0.03, 0.05]);
        assert_eq!(arg_list(&args, "--clusters", &[2usize, 3]).unwrap(), vec![2, 3]);
        let bad = arg_list::<usize>(&args, "--levels", &[]).unwrap_err().to_string();
        assert!(bad.starts_with("bad --levels \"x\": "), "{bad}");
    }

    #[test]
    fn budgets_reject_what_a_duration_cannot_hold() {
        let ok = argv(&["--limit", "1.5"]);
        assert_eq!(arg_seconds(&ok, "--limit").unwrap(), Some(Duration::from_millis(1500)));
        assert_eq!(arg_seconds(&ok, "--other").unwrap(), None);
        for value in ["-1", "nan", "1e300", "soon"] {
            let err = arg_seconds(&argv(&["--limit", value]), "--limit").unwrap_err().to_string();
            assert!(err.starts_with(&format!("bad --limit \"{value}\": ")), "{err}");
        }
    }
}
