//! Problem definition and the pre-processing phase (§4.1).

use std::fmt;
use std::sync::Arc;

use fbb_device::Characterization;
use fbb_netlist::{Gate, Netlist};
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

impl std::str::FromStr for Granularity {
    type Err = String;

    /// Parses the lower-case name: `block`, `row` or `gate`.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "block" => Ok(Granularity::Block),
            "row" => Ok(Granularity::Row),
            "gate" => Ok(Granularity::Gate),
            _ => Err("unknown granularity (expected block, row or gate)".to_owned()),
        }
    }
}

/// An FBB allocation problem over one placed circuit block.
#[derive(Debug, Clone)]
pub struct FbbProblem<'a> {
    netlist: &'a Netlist,
    placement: &'a Placement,
    characterization: &'a Characterization,
    beta: f64,
    max_clusters: usize,
}

/// The per-instance delay jitter amplitude (5 %).
///
/// Library characterization gives every instance of a cell the same delay,
/// which collapses the worst-path multiplicity real designs have
/// (interconnect and fanout loading make every instance slightly
/// different). A deterministic ±5 % perturbation per gate id restores that
/// diversity.
const INSTANCE_JITTER: f64 = 0.05;

/// The nominal (NBB) per-gate delay vector the pre-processing analyzes:
/// each gate's level-0 library delay with the deterministic ±5 %
/// per-instance loading perturbation applied (see `INSTANCE_JITTER`).
///
/// It reads no placement, so a timing report on a bare netlist times the
/// very delays the allocators solve on. [`FbbProblem::nominal_delays`] is
/// this function on the problem's netlist and characterization.
pub fn nominal_delays(netlist: &Netlist, characterization: &Characterization) -> Vec<f64> {
    netlist.gates().iter().enumerate().map(|(i, g)| nominal_delay(characterization, i, g)).collect()
}

/// Element `i` of [`nominal_delays`]: gate `i`'s level-0 library delay
/// with its per-instance perturbation.
fn nominal_delay(characterization: &Characterization, i: usize, gate: &Gate) -> f64 {
    // Weyl-sequence hash in [-1, 1).
    let h = ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 / (1u64 << 53) as f64;
    characterization.delay_ps(gate.cell, 0) * (1.0 + INSTANCE_JITTER * (2.0 * h - 1.0))
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
        check_beta(beta)?;
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
        })
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
    /// [`nominal_delays`] on this problem's netlist and characterization.
    ///
    /// Exposed so design databases can persist the exact STA input and later
    /// cross-check stored timing against it.
    pub fn nominal_delays(&self) -> Vec<f64> {
        nominal_delays(self.netlist, self.characterization)
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
    /// same design; the result is identical to `preprocess_at`. This is
    /// the one-β case of [`FbbProblem::preprocess_betas_on`].
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
        let nominal = self.nominal_tables(analysis, granularity)?;
        self.preprocess_beta(&nominal, self.beta)
    }

    /// Pre-processes this problem at each of `betas` on one nominal
    /// analysis, in order: element `k` equals [`FbbProblem::preprocess_on`]
    /// of the same problem built at `betas[k]`.
    ///
    /// The β-independent half — the analysis check, the gate→row map and
    /// the per-row leakage table — runs once for all of them, so a caller
    /// that needs several β over one design (a sweep, a design database)
    /// passes them here together rather than pre-processing once per β.
    ///
    /// # Errors
    ///
    /// As [`FbbProblem::preprocess_on`], and [`FbbError::InvalidProblem`]
    /// for a β outside `[0, 1]`.
    pub fn preprocess_betas_on(
        &self,
        analysis: &TimingAnalysis<'_, '_>,
        granularity: Granularity,
        betas: &[f64],
    ) -> Result<Vec<Preprocessed>, FbbError> {
        let _span = fbb_telemetry::span("core_preprocess");
        let nominal = self.nominal_tables(analysis, granularity)?;
        betas
            .iter()
            .map(|&beta| {
                check_beta(beta)?;
                self.preprocess_beta(&nominal, beta)
            })
            .collect()
    }

    /// The β-independent half of pre-processing: checks that `analysis` is
    /// this problem's nominal analysis, then maps gates to rows and sums
    /// the per-row leakage at every level.
    fn nominal_tables<'t>(
        &self,
        analysis: &'t TimingAnalysis<'_, '_>,
        granularity: Granularity,
    ) -> Result<NominalTables<'t>, FbbError> {
        if !std::ptr::eq(analysis.graph().netlist(), self.netlist) {
            return Err(FbbError::InvalidProblem(
                "timing analysis ran on a different netlist".into(),
            ));
        }
        // Nominal (NBB) per-gate delays, with a deterministic per-instance
        // loading perturbation (see `INSTANCE_JITTER`),
        // compared gate by gate without building a second vector.
        let nominal = analysis.delays();
        let gates = self.netlist.gates();
        let same = nominal.len() == gates.len()
            && gates
                .iter()
                .zip(nominal)
                .enumerate()
                .all(|(i, (g, d))| {
                    nominal_delay(self.characterization, i, g).to_bits() == d.to_bits()
                });
        if !same {
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

        // Per-group leakage at every level: L[i][j], row-major.
        let mut row_leakage = vec![0.0f64; n_rows * levels];
        for (id, gate) in self.netlist.iter_gates() {
            let row = group_of[id.index()];
            for (j, slot) in row_leakage[row * levels..(row + 1) * levels].iter_mut().enumerate() {
                *slot += chara.leakage_nw(gate.cell, j);
            }
        }
        Ok(NominalTables { analysis, group_of, n_rows, row_leakage })
    }

    /// The β-dependent half of pre-processing: the constrained path set at
    /// `beta`, its per-row reductions and the row criticalities.
    fn preprocess_beta(
        &self,
        nominal_tables: &NominalTables<'_>,
        beta: f64,
    ) -> Result<Preprocessed, FbbError> {
        let NominalTables { analysis, group_of, n_rows, row_leakage } = nominal_tables;
        let nominal = analysis.delays();
        let chara = self.characterization;
        let levels = chara.level_count();
        let dcrit = analysis.dcrit_ps();

        // The pruned path set Π, filtered to the constrained subset
        // (degraded delay above Dcrit): the paper's `No.Constr`.
        let speedups: Vec<f64> = (0..levels).map(|j| chara.speedup_fraction(j)).collect();
        let mut paths = Vec::new();
        let mut row_criticality = vec![0.0f64; *n_rows];
        let slack_floor = (dcrit * 1e-3).max(1e-6);
        for path in analysis.constrained_path_set(beta) {
            let degraded = path.delay_ps * (1.0 + beta);
            // Group the path's gates by row; reduction of row i at level j is
            // sum over its gates of degraded_gate_delay * speedup_j.
            let mut per_row: Vec<(usize, f64, usize)> = Vec::new(); // (row, delay sum, gate count)
            for &g in &path.gates {
                let row = group_of[g.index()];
                let d = nominal[g.index()] * (1.0 + beta);
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
            paths.push((degraded, path.delay_ps, per_row));
        }

        let mut builder = Preprocessed::builder(levels, row_leakage.clone(), row_criticality)?;
        let (mut rows, mut reductions) = (Vec::new(), Vec::new());
        for (degraded, nominal_delay, per_row) in paths {
            rows.clear();
            reductions.clear();
            for (row, delay_sum, _) in per_row {
                rows.push(row);
                reductions.extend(speedups.iter().map(|&s| delay_sum * s));
            }
            builder.push_path(degraded, degraded - dcrit, nominal_delay, &rows, &reductions)?;
        }
        Ok(builder.into_problem(beta, self.max_clusters, dcrit))
    }
}

/// Rejects a slowdown coefficient outside `[0, 1]`.
fn check_beta(beta: f64) -> Result<(), FbbError> {
    if (0.0..=1.0).contains(&beta) {
        Ok(())
    } else {
        Err(FbbError::InvalidProblem(format!("slowdown coefficient beta = {beta} outside [0, 1]")))
    }
}

/// What pre-processing reads from one nominal analysis at one granularity,
/// whatever β: the checked analysis, each gate's row, and the row leakage
/// `L[i][j]` (nanowatts, at `i * levels + j`).
struct NominalTables<'t> {
    analysis: &'t TimingAnalysis<'t, 't>,
    group_of: Vec<usize>,
    n_rows: usize,
    row_leakage: Vec<f64>,
}

/// The tables of one pre-processed problem, shared by every
/// [`Preprocessed`] view over them.
///
/// Every table is stored once, at the full level count it was built with;
/// views cut it to their own `P` on read. Each path entry — one path `k`
/// crossing one row `i`, with its reductions `a[i][j][k]` for every level
/// `j` — is stored once, and entries are grouped by row, so moving a row
/// between levels ([`CheckState`](crate::CheckState)) reads one contiguous
/// run. Each path keeps the ids of its entries in its own row order, so a
/// path's sums run in the order it was built with.
#[derive(Debug)]
struct Tables {
    /// Levels every table holds: the stride of `row_leakage_nw` and
    /// `reductions`.
    levels: usize,
    /// `L[i][j]` in nanowatts at `i * levels + j`.
    row_leakage_nw: Vec<f64>,
    /// Row criticality coefficients `ct_i`, one per row.
    row_criticality: Vec<f64>,
    /// Per path: delay after the β slowdown.
    degraded_delay_ps: Vec<f64>,
    /// Per path: the reduction `b_k` needed to restore `Dcrit`.
    required_reduction_ps: Vec<f64>,
    /// Per path: nominal delay.
    nominal_delay_ps: Vec<f64>,
    /// Row `i`'s entries are `row_start[i]..row_start[i + 1]`.
    row_start: Vec<usize>,
    /// Per entry: the path it belongs to.
    entry_path: Vec<usize>,
    /// Per entry: `levels` reductions, entry `e`'s at `e * levels..`.
    reductions: Vec<f64>,
    /// Path `k`'s rows are `path_rows[path_start[k]..path_start[k + 1]]`,
    /// and the matching slots of `path_entries` hold their entry ids.
    path_start: Vec<usize>,
    /// Rows of every path, path after path, each path in its own order.
    path_rows: Vec<usize>,
    /// Entry ids, parallel to `path_rows`.
    path_entries: Vec<usize>,
}

/// Collects a problem's tables path by path; see [`Preprocessed::builder`].
#[derive(Debug)]
pub struct PreprocessedBuilder {
    levels: usize,
    row_leakage_nw: Vec<f64>,
    row_criticality: Vec<f64>,
    degraded_delay_ps: Vec<f64>,
    required_reduction_ps: Vec<f64>,
    nominal_delay_ps: Vec<f64>,
    /// Path `k`'s rows are `rows[path_start[k]..path_start[k + 1]]`.
    path_start: Vec<usize>,
    /// Rows of every path, path after path.
    rows: Vec<usize>,
    /// `levels` reductions per entry of `rows`.
    reductions: Vec<f64>,
}

impl PreprocessedBuilder {
    /// Appends one path of Π. `rows` lists the rows it crosses, in its own
    /// order; `reductions` holds `levels` values per listed row, the
    /// reduction of `rows[r]` at level `j` at `r * levels + j` (the paper's
    /// `a[i][j][k]`: what this path recovers when row `i` sits at level
    /// `j`).
    ///
    /// A row listed twice is accepted here and rejected by
    /// [`Preprocessed::validate`], as are non-finite values.
    ///
    /// # Errors
    ///
    /// Returns [`FbbError::InvalidProblem`] if `reductions` does not hold
    /// `levels` values per row or a row is out of range.
    pub fn push_path(
        &mut self,
        degraded_delay_ps: f64,
        required_reduction_ps: f64,
        nominal_delay_ps: f64,
        rows: &[usize],
        reductions: &[f64],
    ) -> Result<(), FbbError> {
        let k = self.degraded_delay_ps.len();
        if rows.len().checked_mul(self.levels) != Some(reductions.len()) {
            return Err(FbbError::InvalidProblem(format!(
                "path {k} lists {} rows but {} reductions at {} levels",
                rows.len(),
                reductions.len(),
                self.levels
            )));
        }
        let n_rows = self.row_criticality.len();
        if let Some(row) = rows.iter().find(|&&row| row >= n_rows) {
            return Err(FbbError::InvalidProblem(format!(
                "path {k} references row {row}, but only {n_rows} exist"
            )));
        }
        self.degraded_delay_ps.push(degraded_delay_ps);
        self.required_reduction_ps.push(required_reduction_ps);
        self.nominal_delay_ps.push(nominal_delay_ps);
        self.rows.extend_from_slice(rows);
        self.reductions.extend_from_slice(reductions);
        self.path_start.push(self.rows.len());
        Ok(())
    }

    /// Groups the entries by row and returns the full-level view over the
    /// tables, with its scalar parameters: the slowdown β, the cluster
    /// budget C and the critical delay `Dcrit`.
    pub fn into_problem(self, beta: f64, max_clusters: usize, dcrit_ps: f64) -> Preprocessed {
        let (n_rows, levels) = (self.row_criticality.len(), self.levels);
        let n_entries = self.rows.len();
        // Counting sort of the entries by row, stable in path order.
        let mut row_start = vec![0usize; n_rows + 1];
        for &row in &self.rows {
            row_start[row + 1] += 1;
        }
        for i in 0..n_rows {
            row_start[i + 1] += row_start[i];
        }
        let mut next = row_start.clone();
        let mut entry_path = vec![0usize; n_entries];
        let mut reductions = vec![0.0f64; n_entries * levels];
        let mut path_entries = Vec::with_capacity(n_entries);
        for (k, span) in self.path_start.windows(2).enumerate() {
            for r in span[0]..span[1] {
                let row = self.rows[r];
                let e = next[row];
                next[row] += 1;
                entry_path[e] = k;
                reductions[e * levels..(e + 1) * levels]
                    .copy_from_slice(&self.reductions[r * levels..(r + 1) * levels]);
                path_entries.push(e);
            }
        }
        let tables = Tables {
            levels,
            row_leakage_nw: self.row_leakage_nw,
            row_criticality: self.row_criticality,
            degraded_delay_ps: self.degraded_delay_ps,
            required_reduction_ps: self.required_reduction_ps,
            nominal_delay_ps: self.nominal_delay_ps,
            row_start,
            entry_path,
            reductions,
            path_start: self.path_start,
            path_rows: self.rows,
            path_entries,
        };
        Preprocessed { tables: Arc::new(tables), levels, beta, max_clusters, dcrit_ps }
    }
}

/// The pre-processed allocation problem the algorithms operate on.
///
/// A view: the scalar parameters below sit over tables shared by `Arc`, so
/// `clone`, a cluster-budget override and [`Preprocessed::restrict_levels`]
/// cost O(1). Equality compares the logical problem — every table as the
/// view reads it — not the sharing.
#[derive(Debug, Clone)]
pub struct Preprocessed {
    tables: Arc<Tables>,
    /// Bias levels `P` this view reads (at most the tables' levels).
    levels: usize,
    /// The slowdown coefficient β.
    pub beta: f64,
    /// Cluster budget `C` (distinct levels including NBB).
    pub max_clusters: usize,
    /// Nominal critical delay.
    pub dcrit_ps: f64,
}

/// One timing constraint of a [`Preprocessed`] view: a path of Π whose
/// degraded delay violates `Dcrit`.
#[derive(Clone, Copy)]
pub struct PathRef<'a> {
    tables: &'a Tables,
    levels: usize,
    k: usize,
}

impl<'a> PathRef<'a> {
    /// Path delay after the β slowdown (`pd · (1 + β)`).
    pub fn degraded_delay_ps(&self) -> f64 {
        self.tables.degraded_delay_ps[self.k]
    }

    /// Reduction needed to restore `Dcrit` (the magnitude of the paper's
    /// `b_k`).
    pub fn required_reduction_ps(&self) -> f64 {
        self.tables.required_reduction_ps[self.k]
    }

    /// Nominal (pre-slowdown) path delay.
    pub fn nominal_delay_ps(&self) -> f64 {
        self.tables.nominal_delay_ps[self.k]
    }

    /// The rows this path crosses, in its own order, each with its
    /// reductions by level cut to the view's `P`: `reductions[j]` is the
    /// paper's `a[i][j][k]`, the delay this path recovers when row `i`
    /// sits at level `j`.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = (usize, &'a [f64])> {
        let (t, p) = (self.tables, self.levels);
        let span = t.path_start[self.k]..t.path_start[self.k + 1];
        t.path_rows[span.clone()]
            .iter()
            .zip(&t.path_entries[span])
            .map(move |(&row, &e)| (row, &t.reductions[e * t.levels..e * t.levels + p]))
    }

    /// Total reduction this path receives under a row→level assignment,
    /// summed in the path's row order.
    pub fn reduction(&self, assignment: &[usize]) -> f64 {
        self.rows().map(|(row, reds)| reds[assignment[row]]).sum()
    }

    /// Whether the path meets timing under the assignment.
    pub fn satisfied(&self, assignment: &[usize]) -> bool {
        self.reduction(assignment) + 1e-9 >= self.required_reduction_ps()
    }
}

impl fmt::Debug for PathRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PathRef")
            .field("path", &self.k)
            .field("degraded_delay_ps", &self.degraded_delay_ps())
            .field("required_reduction_ps", &self.required_reduction_ps())
            .field("nominal_delay_ps", &self.nominal_delay_ps())
            .field("rows", &self.rows().collect::<Vec<_>>())
            .finish()
    }
}

impl PartialEq for PathRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.degraded_delay_ps() == other.degraded_delay_ps()
            && self.required_reduction_ps() == other.required_reduction_ps()
            && self.nominal_delay_ps() == other.nominal_delay_ps()
            && self.rows().eq(other.rows())
    }
}

impl PartialEq for Preprocessed {
    fn eq(&self, other: &Self) -> bool {
        self.levels == other.levels
            && self.beta == other.beta
            && self.max_clusters == other.max_clusters
            && self.dcrit_ps == other.dcrit_ps
            && self.row_criticality() == other.row_criticality()
            && (0..self.n_rows()).all(|i| self.row_leakage(i) == other.row_leakage(i))
            && self.paths().eq(other.paths())
    }
}

impl Preprocessed {
    /// Starts a problem over `row_criticality.len()` rows and `levels` bias
    /// levels: `row_leakage_nw` holds row `i`'s leakage at level `j`
    /// (`L[i][j]`, nanowatts) at `i * levels + j`, and `row_criticality`
    /// the rows' timing-criticality coefficients `ct_i`. Paths follow
    /// through [`PreprocessedBuilder::push_path`]; this is the one way to
    /// build a problem, and nothing beyond the table shapes is checked
    /// until [`Preprocessed::validate`].
    ///
    /// # Errors
    ///
    /// Returns [`FbbError::InvalidProblem`] if `levels` is zero or the
    /// leakage table does not hold `levels` values per row.
    pub fn builder(
        levels: usize,
        row_leakage_nw: Vec<f64>,
        row_criticality: Vec<f64>,
    ) -> Result<PreprocessedBuilder, FbbError> {
        let n_rows = row_criticality.len();
        if levels == 0 || n_rows.checked_mul(levels) != Some(row_leakage_nw.len()) {
            return Err(FbbError::InvalidProblem(format!(
                "leakage table holds {} values, expected {n_rows} rows x {levels} levels",
                row_leakage_nw.len()
            )));
        }
        Ok(PreprocessedBuilder {
            levels,
            row_leakage_nw,
            row_criticality,
            degraded_delay_ps: Vec::new(),
            required_reduction_ps: Vec::new(),
            nominal_delay_ps: Vec::new(),
            path_start: vec![0],
            rows: Vec::new(),
            reductions: Vec::new(),
        })
    }

    /// Number of rows `N`.
    pub fn n_rows(&self) -> usize {
        self.tables.row_criticality.len()
    }

    /// Number of bias levels `P` (index 0 = no body bias).
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Row `row`'s leakage `L[i][j]` in nanowatts, for each of the `P`
    /// levels.
    pub fn row_leakage(&self, row: usize) -> &[f64] {
        let t = &*self.tables;
        &t.row_leakage_nw[row * t.levels..row * t.levels + self.levels]
    }

    /// Row timing-criticality coefficients `ct_i` for the heuristic
    /// ranking, one per row.
    pub fn row_criticality(&self) -> &[f64] {
        &self.tables.row_criticality
    }

    /// Path `k` of the constrained path set, `k < constraint_count()`.
    pub fn path(&self, k: usize) -> PathRef<'_> {
        PathRef { tables: &self.tables, levels: self.levels, k }
    }

    /// The constrained path set (the paper's `M` paths), in order.
    pub fn paths(&self) -> impl ExactSizeIterator<Item = PathRef<'_>> {
        (0..self.constraint_count()).map(|k| self.path(k))
    }

    /// The paths crossing `row`, in path order, each with its reductions
    /// by level at this row cut to `P`. The entries sit contiguously, so
    /// this is what moving a row between levels reads.
    pub fn row_entries(&self, row: usize) -> impl ExactSizeIterator<Item = (usize, &[f64])> {
        let (t, p) = (&*self.tables, self.levels);
        let span = t.row_start[row]..t.row_start[row + 1];
        t.entry_path[span.clone()]
            .iter()
            .zip(t.reductions[span.start * t.levels..span.end * t.levels].chunks_exact(t.levels))
            .map(move |(&k, reds)| (k, &reds[..p]))
    }

    /// Total leakage (nW) of an assignment.
    pub fn leakage_nw(&self, assignment: &[usize]) -> f64 {
        assignment
            .iter()
            .enumerate()
            .map(|(row, &level)| self.row_leakage(row)[level])
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
        self.tables.degraded_delay_ps.len()
    }

    /// A view of this problem cut to the first `levels` bias levels,
    /// sharing its tables.
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
        Ok(Preprocessed { levels, ..self.clone() })
    }

    /// Checks the internal consistency of a `Preprocessed` instance that
    /// did not come out of [`FbbProblem::preprocess`] — e.g. one decoded
    /// from a persisted design database — so that corrupted tables error
    /// cleanly instead of panicking inside an allocator.
    ///
    /// Verified: dimensions are non-degenerate, every numeric entry is
    /// finite (leakage and criticality non-negative), and no path lists a
    /// row twice. Table shapes and row ranges hold by construction.
    ///
    /// # Errors
    ///
    /// Returns [`FbbError::InvalidProblem`] naming the first violation.
    pub fn validate(&self) -> Result<(), FbbError> {
        let fail = |msg: String| Err(FbbError::InvalidProblem(msg));
        let (t, n_rows) = (&*self.tables, self.n_rows());
        if n_rows == 0 || self.levels == 0 {
            return fail(format!("degenerate shape: {n_rows} rows x {} levels", self.levels));
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
        for (row, leak) in t.row_leakage_nw.chunks_exact(t.levels).enumerate() {
            if leak[..self.levels].iter().any(|l| !l.is_finite() || *l < 0.0) {
                return fail(format!("row {row} leakage table has a non-physical entry"));
            }
        }
        if t.row_criticality.iter().any(|c| !c.is_finite() || *c < 0.0) {
            return fail("criticality table has a non-physical entry".into());
        }
        // `last_path[i]` is the last path seen crossing row i, so a row a
        // path lists twice shows as a row already stamped with that path.
        let mut last_path = vec![usize::MAX; n_rows];
        for (k, span) in t.path_start.windows(2).enumerate() {
            let span = span[0]..span[1];
            let finite = t.degraded_delay_ps[k].is_finite()
                && t.required_reduction_ps[k].is_finite()
                && t.nominal_delay_ps[k].is_finite();
            if !finite {
                return fail(format!("path {k} carries a non-finite delay"));
            }
            for (&row, &e) in t.path_rows[span.clone()].iter().zip(&t.path_entries[span]) {
                if last_path[row] == k {
                    return fail(format!("path {k} lists row {row} twice"));
                }
                last_path[row] = k;
                let reds = &t.reductions[e * t.levels..e * t.levels + self.levels];
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
        assert_eq!(pre.n_rows(), 6);
        assert_eq!(pre.levels(), 11);
        assert!(pre.dcrit_ps > 0.0);
        assert!(pre.constraint_count() > 0);
        assert_eq!(pre.row_criticality().len(), 6);
        assert!((0..6).all(|i| pre.row_leakage(i).len() == 11));
    }

    #[test]
    fn leakage_grows_with_level() {
        let (nl, p, c) = setup();
        let pre = FbbProblem::new(&nl, &p, &c, 0.05, 3).unwrap().preprocess().unwrap();
        for i in 0..pre.n_rows() {
            let row = pre.row_leakage(i);
            for j in 1..row.len() {
                assert!(row[j] > row[j - 1]);
            }
        }
        let all_nbb = vec![0usize; pre.n_rows()];
        let all_max = vec![pre.levels() - 1; pre.n_rows()];
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
        for path in pre.paths() {
            for (_, reds) in path.rows() {
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
        let all_max = vec![pre.levels() - 1; pre.n_rows()];
        for path in pre.paths() {
            assert!(path.satisfied(&all_max));
        }
        let all_nbb = vec![0usize; pre.n_rows()];
        assert!(pre.paths().any(|p| !p.satisfied(&all_nbb)));
    }

    #[test]
    fn row_entries_index_every_path_row_once() {
        let (nl, p, c) = setup();
        let pre = FbbProblem::new(&nl, &p, &c, 0.10, 3).unwrap().preprocess().unwrap();
        let mut by_path: Vec<(usize, usize, Vec<f64>)> = (0..pre.n_rows())
            .flat_map(|row| pre.row_entries(row).map(move |(k, reds)| (k, row, reds.to_vec())))
            .collect();
        let mut by_row: Vec<(usize, usize, Vec<f64>)> = pre
            .paths()
            .enumerate()
            .flat_map(|(k, path)| path.rows().map(move |(row, reds)| (k, row, reds.to_vec())))
            .collect();
        by_path.sort_by_key(|&(k, row, _)| (k, row));
        by_row.sort_by_key(|&(k, row, _)| (k, row));
        assert_eq!(by_path, by_row);
    }

    #[test]
    fn views_share_the_tables() {
        let (nl, p, c) = setup();
        let pre = FbbProblem::new(&nl, &p, &c, 0.05, 3).unwrap().preprocess().unwrap();
        let restricted = pre.restrict_levels(4).unwrap();
        let mut budget = pre.clone();
        budget.max_clusters = 2;
        assert!(Arc::ptr_eq(&pre.tables, &restricted.tables));
        assert!(Arc::ptr_eq(&pre.tables, &budget.tables));
        assert_eq!(restricted.levels(), 4);
        assert!(restricted.paths().all(|path| path.rows().all(|(_, reds)| reds.len() == 4)));
        assert_ne!(restricted, pre);
        assert_ne!(budget, pre);
    }

    fn one_row_problem(rows: &[usize], reductions: &[f64]) -> Result<Preprocessed, FbbError> {
        let mut builder = Preprocessed::builder(2, vec![1.0, 2.0, 1.0, 2.0], vec![1.0, 1.0])?;
        builder.push_path(110.0, 10.0, 100.0, rows, reductions)?;
        Ok(builder.into_problem(0.1, 2, 100.0))
    }

    #[test]
    fn builder_rejects_misshapen_tables() {
        assert!(Preprocessed::builder(2, vec![1.0; 3], vec![1.0, 1.0]).is_err());
        assert!(Preprocessed::builder(0, vec![], vec![]).is_err());
        assert!(one_row_problem(&[2], &[0.0, 4.0]).is_err(), "row out of range");
        assert!(one_row_problem(&[0], &[0.0, 4.0, 8.0]).is_err(), "reduction count");
        one_row_problem(&[0, 1], &[0.0, 4.0, 0.0, 8.0]).unwrap().validate().unwrap();
    }

    #[test]
    fn validate_rejects_a_path_listing_a_row_twice() {
        let pre = one_row_problem(&[1, 0, 1], &[0.0, 4.0, 0.0, 1.0, 0.0, 8.0]).unwrap();
        let err = pre.validate().unwrap_err().to_string();
        assert!(err.contains("path 0 lists row 1 twice"), "{err}");
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
            pre.paths().flat_map(|p| p.rows().map(|(r, _)| r)).collect();
        for (row, &ct) in pre.row_criticality().iter().enumerate() {
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
    fn one_pass_over_several_betas_equals_one_problem_per_beta() {
        let (nl, p, c) = setup();
        let first = FbbProblem::new(&nl, &p, &c, 0.03, 3).unwrap();
        let graph = TimingGraph::new(&nl).unwrap();
        let analysis = graph.analyze(&first.nominal_delays());
        let betas = [0.10, 0.0, 0.05, 0.05];
        for g in [Granularity::Block, Granularity::Row, Granularity::Gate] {
            let all = first.preprocess_betas_on(&analysis, g, &betas).unwrap();
            assert_eq!(all.len(), betas.len());
            for (pre, &beta) in all.iter().zip(&betas) {
                let problem = FbbProblem::new(&nl, &p, &c, beta, 3).unwrap();
                assert_eq!(*pre, problem.preprocess_at(g).unwrap(), "beta {beta}, {g:?}");
            }
        }
        assert!(first.preprocess_betas_on(&analysis, Granularity::Row, &[]).unwrap().is_empty());
        for bad in [-0.1, 1.5, f64::NAN] {
            assert!(matches!(
                first.preprocess_betas_on(&analysis, Granularity::Row, &[0.05, bad]),
                Err(FbbError::InvalidProblem(_))
            ));
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
        let unjittered: Vec<f64> = nl.gates().iter().map(|g| c.delay_ps(g.cell, 0)).collect();
        assert!(rejects(&graph.analyze(&unjittered)));
        let mut nudged = problem.nominal_delays();
        nudged[0] = f64::from_bits(nudged[0].to_bits() + 1);
        assert!(rejects(&graph.analyze(&nudged)));
    }
}
