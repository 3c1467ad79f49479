//! Problem definition and the pre-processing phase (§4.1).

use fbb_device::Characterization;
use fbb_netlist::Netlist;
use fbb_placement::Placement;
use fbb_sta::{TimingAnalysis, TimingGraph};
use serde::{Deserialize, Serialize};

use crate::FbbError;

/// The physical unit at which one bias voltage is applied.
///
/// The paper's contribution is the `Row` granularity; `Block` is the prior
/// art it measures against, and `Gate` is the fine-grained clustering of
/// Kulkarni et al. that §2 argues against on area grounds (adjacent gates in
/// different clusters need well separation and placement perturbation). The
/// `granularity` experiment binary reproduces that comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Granularity {
    /// One voltage for the whole block (prior art).
    Block,
    /// One voltage per standard-cell row (the paper).
    #[default]
    Row,
    /// One voltage per gate (Kulkarni-style fine-grained clustering).
    Gate,
}

/// An FBB allocation problem over one placed circuit block.
#[derive(Debug, Clone)]
pub struct FbbProblem<'a> {
    netlist: &'a Netlist,
    placement: &'a Placement,
    characterization: &'a Characterization,
    beta: f64,
    max_clusters: usize,
    instance_jitter: f64,
}

impl<'a> FbbProblem<'a> {
    /// Bundles a problem instance.
    ///
    /// `beta` is the design slowdown coefficient (`0.05` = every path 5 %
    /// slow); `max_clusters` is the paper's `C` (distinct voltages including
    /// the no-bias level; the layout style supports at most 3).
    ///
    /// # Errors
    ///
    /// Returns [`FbbError::InvalidProblem`] for β outside `[0, 1]` or a zero
    /// cluster budget, and [`FbbError::Placement`] if the placement does not
    /// cover the netlist.
    pub fn new(
        netlist: &'a Netlist,
        placement: &'a Placement,
        characterization: &'a Characterization,
        beta: f64,
        max_clusters: usize,
    ) -> Result<Self, FbbError> {
        if !(0.0..=1.0).contains(&beta) {
            return Err(FbbError::InvalidProblem(format!(
                "slowdown coefficient beta = {beta} outside [0, 1]"
            )));
        }
        if max_clusters == 0 {
            return Err(FbbError::InvalidProblem("cluster budget C must be at least 1".into()));
        }
        placement.validate(netlist)?;
        Ok(FbbProblem {
            netlist,
            placement,
            characterization,
            beta,
            max_clusters,
            instance_jitter: 0.05,
        })
    }

    /// Sets the per-instance delay jitter amplitude (default 5 %).
    ///
    /// Library characterization gives every instance of a cell the same
    /// delay, which collapses the worst-path multiplicity real designs have
    /// (interconnect and fanout loading make every instance slightly
    /// different). A deterministic ±`amplitude` perturbation per gate id
    /// restores that diversity; `0.0` disables it.
    ///
    /// # Panics
    ///
    /// Panics if `amplitude` is not within `[0, 0.5]`.
    pub fn with_instance_jitter(mut self, amplitude: f64) -> Self {
        assert!((0.0..=0.5).contains(&amplitude), "jitter amplitude outside [0, 0.5]");
        self.instance_jitter = amplitude;
        self
    }

    /// The slowdown coefficient β.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The cluster budget C.
    pub fn max_clusters(&self) -> usize {
        self.max_clusters
    }

    /// The nominal (NBB) per-gate delay vector the pre-processing analyzes:
    /// library delays at level 0 with the deterministic per-instance loading
    /// perturbation of [`FbbProblem::with_instance_jitter`] applied.
    ///
    /// Exposed so design databases can persist the exact STA input and later
    /// cross-check stored timing against it.
    pub fn nominal_delays(&self) -> Vec<f64> {
        self.netlist
            .gates()
            .iter()
            .enumerate()
            .map(|(i, g)| {
                // Weyl-sequence hash in [-1, 1).
                let h = ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64
                    / (1u64 << 53) as f64;
                self.characterization.delay_ps(g.cell, 0)
                    * (1.0 + self.instance_jitter * (2.0 * h - 1.0))
            })
            .collect()
    }

    /// Runs the paper's pre-processing: nominal STA, critical-path-set
    /// extraction and pruning, per-row leakage tables, and delay-reduction
    /// coefficients.
    ///
    /// # Errors
    ///
    /// Returns [`FbbError::Netlist`] if the netlist has combinational
    /// cycles.
    pub fn preprocess(&self) -> Result<Preprocessed, FbbError> {
        self.preprocess_at(Granularity::Row)
    }

    /// Pre-processes at an explicit clustering granularity: the "rows" of
    /// the returned problem become blocks, standard-cell rows, or single
    /// gates. All allocators work unchanged on any granularity.
    ///
    /// # Errors
    ///
    /// See [`FbbProblem::preprocess`].
    pub fn preprocess_at(&self, granularity: Granularity) -> Result<Preprocessed, FbbError> {
        let graph = TimingGraph::new(self.netlist)?;
        let analysis = graph.analyze(&self.nominal_delays());
        self.preprocess_on(&analysis, granularity)
    }

    /// Pre-processes on an existing nominal analysis: everything
    /// [`FbbProblem::preprocess_at`] does after its STA.
    ///
    /// The nominal analysis, `TimingGraph::new(netlist)` analyzed on
    /// [`FbbProblem::nominal_delays`], reads neither β, the cluster budget
    /// nor the granularity, so one analysis serves every problem over the
    /// same design; the result is identical to `preprocess_at`.
    ///
    /// # Errors
    ///
    /// Returns [`FbbError::InvalidProblem`] if `analysis` is not this
    /// problem's nominal analysis: it ran on a different netlist, or on a
    /// delay vector that is not bit-equal to
    /// [`FbbProblem::nominal_delays`].
    pub fn preprocess_on(
        &self,
        analysis: &TimingAnalysis<'_, '_>,
        granularity: Granularity,
    ) -> Result<Preprocessed, FbbError> {
        let _span = fbb_telemetry::span("core_preprocess");
        if !std::ptr::eq(analysis.graph().netlist(), self.netlist) {
            return Err(FbbError::InvalidProblem(
                "timing analysis ran on a different netlist".into(),
            ));
        }
        // Nominal (NBB) per-gate delays, with a deterministic per-instance
        // loading perturbation (see [`FbbProblem::with_instance_jitter`]).
        let nominal = analysis.delays();
        let bits = |d: &f64| d.to_bits();
        if !nominal.iter().map(bits).eq(self.nominal_delays().iter().map(bits)) {
            return Err(FbbError::InvalidProblem(
                "timing analysis delays are not this problem's nominal delays".into(),
            ));
        }

        let chara = self.characterization;
        let levels = chara.level_count();
        let group_of: Vec<usize> = match granularity {
            Granularity::Block => vec![0; self.netlist.gate_count()],
            Granularity::Row => (0..self.netlist.gate_count())
                .map(|i| self.placement.row_of(fbb_netlist::GateId::from_index(i)).index())
                .collect(),
            Granularity::Gate => (0..self.netlist.gate_count()).collect(),
        };
        let n_rows = match granularity {
            Granularity::Block => 1,
            Granularity::Row => self.placement.row_count(),
            Granularity::Gate => self.netlist.gate_count(),
        };
        let dcrit = analysis.dcrit_ps();

        // Per-group leakage at every level: L[i][j].
        let mut row_leakage = vec![vec![0.0f64; levels]; n_rows];
        for (id, gate) in self.netlist.iter_gates() {
            let row = group_of[id.index()];
            for (j, slot) in row_leakage[row].iter_mut().enumerate() {
                *slot += chara.leakage_nw(gate.cell, j);
            }
        }

        // The pruned path set Π, filtered to the constrained subset
        // (degraded delay above Dcrit): the paper's `No.Constr`.
        let speedups: Vec<f64> = (0..levels).map(|j| chara.speedup_fraction(j)).collect();
        let mut paths = Vec::new();
        let mut row_criticality = vec![0.0f64; n_rows];
        let slack_floor = (dcrit * 1e-3).max(1e-6);
        for path in analysis.constrained_path_set(self.beta) {
            let degraded = path.delay_ps * (1.0 + self.beta);
            // Group the path's gates by row; reduction of row i at level j is
            // sum over its gates of degraded_gate_delay * speedup_j.
            let mut per_row: Vec<(usize, f64, usize)> = Vec::new(); // (row, delay sum, gate count)
            for &g in &path.gates {
                let row = group_of[g.index()];
                let d = nominal[g.index()] * (1.0 + self.beta);
                match per_row.iter_mut().find(|(r, _, _)| *r == row) {
                    Some((_, sum, q)) => {
                        *sum += d;
                        *q += 1;
                    }
                    None => per_row.push((row, d, 1)),
                }
            }
            let slack = (dcrit - path.delay_ps).max(slack_floor);
            for &(row, _, q) in &per_row {
                // Paper's criticality: ct_i = sum_k Q_{i,k} / slack_k.
                row_criticality[row] += q as f64 / slack;
            }
            let rows = per_row
                .into_iter()
                .map(|(row, delay_sum, _)| {
                    let reductions = speedups.iter().map(|&s| delay_sum * s).collect();
                    (row, reductions)
                })
                .collect();
            paths.push(PathConstraint {
                degraded_delay_ps: degraded,
                required_reduction_ps: degraded - dcrit,
                nominal_delay_ps: path.delay_ps,
                rows,
            });
        }

        Ok(Preprocessed {
            n_rows,
            levels,
            beta: self.beta,
            max_clusters: self.max_clusters,
            dcrit_ps: dcrit,
            row_leakage_nw: row_leakage,
            row_criticality,
            paths,
        })
    }
}

/// One timing constraint: a path of Π whose degraded delay violates `Dcrit`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathConstraint {
    /// Path delay after the β slowdown (`pd · (1 + β)`).
    pub degraded_delay_ps: f64,
    /// Reduction needed to restore `Dcrit` (the magnitude of the paper's
    /// `b_k`).
    pub required_reduction_ps: f64,
    /// Nominal (pre-slowdown) path delay.
    pub nominal_delay_ps: f64,
    /// Per-row delay-reduction table: `(row, reductions[level])` where
    /// `reductions[j]` is the paper's `a[i][j][k]` — the total delay this
    /// path recovers when row `i` sits at bias level `j`.
    pub rows: Vec<(usize, Vec<f64>)>,
}

impl PathConstraint {
    /// Total reduction this path receives under a row→level assignment.
    pub fn reduction(&self, assignment: &[usize]) -> f64 {
        self.rows.iter().map(|(row, reds)| reds[assignment[*row]]).sum()
    }

    /// Whether the path meets timing under the assignment.
    pub fn satisfied(&self, assignment: &[usize]) -> bool {
        self.reduction(assignment) + 1e-9 >= self.required_reduction_ps
    }
}

/// The pre-processed allocation problem the algorithms operate on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Preprocessed {
    /// Number of rows `N`.
    pub n_rows: usize,
    /// Number of bias levels `P` (index 0 = no body bias).
    pub levels: usize,
    /// The slowdown coefficient β.
    pub beta: f64,
    /// Cluster budget `C` (distinct levels including NBB).
    pub max_clusters: usize,
    /// Nominal critical delay.
    pub dcrit_ps: f64,
    /// Per-row leakage `L[i][j]` in nanowatts.
    pub row_leakage_nw: Vec<Vec<f64>>,
    /// Row timing-criticality coefficients `ct_i` for the heuristic ranking.
    pub row_criticality: Vec<f64>,
    /// Constrained path set (the paper's `M` = `paths.len()`).
    pub paths: Vec<PathConstraint>,
}

impl Preprocessed {
    /// Total leakage (nW) of an assignment.
    pub fn leakage_nw(&self, assignment: &[usize]) -> f64 {
        assignment
            .iter()
            .enumerate()
            .map(|(row, &level)| self.row_leakage_nw[row][level])
            .sum()
    }

    /// Number of distinct bias levels used (incl. NBB) — the cluster count.
    pub fn cluster_count(assignment: &[usize]) -> usize {
        let mut levels: Vec<usize> = assignment.to_vec();
        levels.sort_unstable();
        levels.dedup();
        levels.len()
    }

    /// Number of timing constraints `M` (the paper's `No.Constr` column).
    pub fn constraint_count(&self) -> usize {
        self.paths.len()
    }

    /// A copy of this problem truncated to the first `levels` bias levels.
    ///
    /// Level `j`'s leakage and delay-reduction entries do not depend on how
    /// many higher levels the characterization carries, so truncating a
    /// full-resolution pre-process is *identical* to pre-processing with a
    /// `levels`-deep characterization — this is what defines the P axis of
    /// a grid sweep, for warm cells (shared pre-process, truncated per P)
    /// and cold cells (fresh pre-process, truncated the same way) alike.
    /// Criticality coefficients and `dcrit` are level-independent and pass
    /// through unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`FbbError::InvalidProblem`] if `levels` is zero or exceeds
    /// the levels present.
    pub fn restrict_levels(&self, levels: usize) -> Result<Preprocessed, FbbError> {
        if levels == 0 || levels > self.levels {
            return Err(FbbError::InvalidProblem(format!(
                "cannot restrict a {}-level problem to {levels} levels",
                self.levels
            )));
        }
        let mut out = self.clone();
        out.levels = levels;
        for leak in &mut out.row_leakage_nw {
            leak.truncate(levels);
        }
        for path in &mut out.paths {
            for (_, reds) in &mut path.rows {
                reds.truncate(levels);
            }
        }
        Ok(out)
    }

    /// Checks the internal consistency of a `Preprocessed` instance that
    /// did not come out of [`FbbProblem::preprocess`] — e.g. one decoded
    /// from a persisted design database — so that corrupted tables error
    /// cleanly instead of panicking inside an allocator.
    ///
    /// Verified: dimensions are non-degenerate, every table has the declared
    /// `n_rows` × `levels` shape, every path row index is in range, and
    /// every numeric entry is finite (leakage and criticality non-negative).
    ///
    /// # Errors
    ///
    /// Returns [`FbbError::InvalidProblem`] naming the first violation.
    pub fn validate(&self) -> Result<(), FbbError> {
        let fail = |msg: String| Err(FbbError::InvalidProblem(msg));
        if self.n_rows == 0 || self.levels == 0 {
            return fail(format!("degenerate shape: {} rows x {} levels", self.n_rows, self.levels));
        }
        if self.max_clusters == 0 {
            return fail("cluster budget C must be at least 1".into());
        }
        if !self.beta.is_finite() || !(0.0..=1.0).contains(&self.beta) {
            return fail(format!("slowdown coefficient beta = {} outside [0, 1]", self.beta));
        }
        if !self.dcrit_ps.is_finite() || self.dcrit_ps <= 0.0 {
            return fail(format!("critical delay {} ps is not physical", self.dcrit_ps));
        }
        if self.row_leakage_nw.len() != self.n_rows || self.row_criticality.len() != self.n_rows {
            return fail(format!(
                "leakage/criticality tables cover {}/{} rows, expected {}",
                self.row_leakage_nw.len(),
                self.row_criticality.len(),
                self.n_rows
            ));
        }
        for (row, leak) in self.row_leakage_nw.iter().enumerate() {
            if leak.len() != self.levels {
                return fail(format!(
                    "row {row} leakage table has {} levels, expected {}",
                    leak.len(),
                    self.levels
                ));
            }
            if leak.iter().any(|l| !l.is_finite() || *l < 0.0) {
                return fail(format!("row {row} leakage table has a non-physical entry"));
            }
        }
        if self.row_criticality.iter().any(|c| !c.is_finite() || *c < 0.0) {
            return fail("criticality table has a non-physical entry".into());
        }
        for (k, path) in self.paths.iter().enumerate() {
            let finite = path.degraded_delay_ps.is_finite()
                && path.required_reduction_ps.is_finite()
                && path.nominal_delay_ps.is_finite();
            if !finite {
                return fail(format!("path {k} carries a non-finite delay"));
            }
            for (row, reds) in &path.rows {
                if *row >= self.n_rows {
                    return fail(format!(
                        "path {k} references row {row}, but only {} exist",
                        self.n_rows
                    ));
                }
                if reds.len() != self.levels {
                    return fail(format!(
                        "path {k} row {row} has {} reduction levels, expected {}",
                        reds.len(),
                        self.levels
                    ));
                }
                if reds.iter().any(|r| !r.is_finite()) {
                    return fail(format!("path {k} row {row} has a non-finite reduction"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbb_device::{BiasLadder, BodyBiasModel, Library};
    use fbb_netlist::generators;
    use fbb_placement::{Placer, PlacerOptions};

    fn setup() -> (Netlist, Placement, Characterization) {
        let nl = generators::ripple_adder("a24", 24, false).unwrap();
        let lib = Library::date09_45nm();
        let placement =
            Placer::new(PlacerOptions::with_target_rows(6)).place(&nl, &lib).unwrap();
        let chara = lib.characterize(&BodyBiasModel::date09_45nm(), &BiasLadder::date09().unwrap());
        (nl, placement, chara)
    }

    #[test]
    fn rejects_bad_parameters() {
        let (nl, p, c) = setup();
        assert!(FbbProblem::new(&nl, &p, &c, -0.1, 3).is_err());
        assert!(FbbProblem::new(&nl, &p, &c, 1.5, 3).is_err());
        assert!(FbbProblem::new(&nl, &p, &c, 0.05, 0).is_err());
        assert!(FbbProblem::new(&nl, &p, &c, 0.05, 3).is_ok());
    }

    #[test]
    fn preprocess_dimensions() {
        let (nl, p, c) = setup();
        let pre = FbbProblem::new(&nl, &p, &c, 0.05, 3).unwrap().preprocess().unwrap();
        assert_eq!(pre.n_rows, 6);
        assert_eq!(pre.levels, 11);
        assert!(pre.dcrit_ps > 0.0);
        assert!(!pre.paths.is_empty());
        assert_eq!(pre.row_leakage_nw.len(), 6);
        assert!(pre.row_leakage_nw.iter().all(|r| r.len() == 11));
    }

    #[test]
    fn leakage_grows_with_level() {
        let (nl, p, c) = setup();
        let pre = FbbProblem::new(&nl, &p, &c, 0.05, 3).unwrap().preprocess().unwrap();
        for row in &pre.row_leakage_nw {
            for j in 1..row.len() {
                assert!(row[j] > row[j - 1]);
            }
        }
        let all_nbb = vec![0usize; pre.n_rows];
        let all_max = vec![pre.levels - 1; pre.n_rows];
        assert!(pre.leakage_nw(&all_max) > 3.0 * pre.leakage_nw(&all_nbb));
    }

    #[test]
    fn constraint_count_grows_with_beta() {
        let (nl, p, c) = setup();
        let pre5 = FbbProblem::new(&nl, &p, &c, 0.05, 3).unwrap().preprocess().unwrap();
        let pre10 = FbbProblem::new(&nl, &p, &c, 0.10, 3).unwrap().preprocess().unwrap();
        assert!(pre10.constraint_count() >= pre5.constraint_count());
        assert!(pre5.constraint_count() >= 1);
    }

    #[test]
    fn reductions_are_monotone_in_level() {
        let (nl, p, c) = setup();
        let pre = FbbProblem::new(&nl, &p, &c, 0.05, 3).unwrap().preprocess().unwrap();
        for path in &pre.paths {
            for (_, reds) in &path.rows {
                assert_eq!(reds[0], 0.0, "NBB reduces nothing");
                for j in 1..reds.len() {
                    assert!(reds[j] >= reds[j - 1]);
                }
            }
        }
    }

    #[test]
    fn max_bias_satisfies_all_constraints() {
        // At full bias, every gate speeds up by the ladder maximum, which by
        // construction covers beta <= ~9.9% ... use beta = 5%.
        let (nl, p, c) = setup();
        let pre = FbbProblem::new(&nl, &p, &c, 0.05, 3).unwrap().preprocess().unwrap();
        let all_max = vec![pre.levels - 1; pre.n_rows];
        for path in &pre.paths {
            assert!(path.satisfied(&all_max));
        }
        let all_nbb = vec![0usize; pre.n_rows];
        assert!(pre.paths.iter().any(|p| !p.satisfied(&all_nbb)));
    }

    #[test]
    fn cluster_count_counts_distinct_levels() {
        assert_eq!(Preprocessed::cluster_count(&[0, 0, 0]), 1);
        assert_eq!(Preprocessed::cluster_count(&[0, 5, 5, 0]), 2);
        assert_eq!(Preprocessed::cluster_count(&[1, 2, 3]), 3);
    }

    #[test]
    fn criticality_nonzero_only_for_rows_on_paths() {
        let (nl, p, c) = setup();
        let pre = FbbProblem::new(&nl, &p, &c, 0.05, 3).unwrap().preprocess().unwrap();
        let on_paths: std::collections::HashSet<usize> =
            pre.paths.iter().flat_map(|p| p.rows.iter().map(|(r, _)| *r)).collect();
        for (row, &ct) in pre.row_criticality.iter().enumerate() {
            assert_eq!(ct > 0.0, on_paths.contains(&row), "row {row}");
        }
    }

    #[test]
    fn one_nominal_analysis_serves_every_beta_and_granularity() {
        let (nl, p, c) = setup();
        let first = FbbProblem::new(&nl, &p, &c, 0.03, 2).unwrap();
        let graph = TimingGraph::new(&nl).unwrap();
        let analysis = graph.analyze(&first.nominal_delays());
        for beta in [0.0, 0.05, 0.10] {
            let problem = FbbProblem::new(&nl, &p, &c, beta, 3).unwrap();
            for g in [Granularity::Block, Granularity::Row, Granularity::Gate] {
                let shared = problem.preprocess_on(&analysis, g).unwrap();
                assert_eq!(shared, problem.preprocess_at(g).unwrap(), "beta {beta}, {g:?}");
            }
        }
    }

    #[test]
    fn preprocess_on_rejects_a_foreign_analysis() {
        let (nl, p, c) = setup();
        let problem = FbbProblem::new(&nl, &p, &c, 0.05, 3).unwrap();
        let rejects = |analysis: &TimingAnalysis| {
            matches!(
                problem.preprocess_on(analysis, Granularity::Row),
                Err(FbbError::InvalidProblem(_))
            )
        };

        // The same design, but another netlist object.
        let copy = nl.clone();
        let graph = TimingGraph::new(&copy).unwrap();
        assert!(rejects(&graph.analyze(&problem.nominal_delays())));

        // The right netlist, but delays that are not the nominal ones.
        let graph = TimingGraph::new(&nl).unwrap();
        let unjittered = problem.clone().with_instance_jitter(0.0).nominal_delays();
        assert!(rejects(&graph.analyze(&unjittered)));
        let mut nudged = problem.nominal_delays();
        nudged[0] = f64::from_bits(nudged[0].to_bits() + 1);
        assert!(rejects(&graph.analyze(&nudged)));
    }
}
