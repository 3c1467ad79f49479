//! Pseudocost branching state (DESIGN.md §5j).
//!
//! A pseudocost is the observed per-unit objective degradation of pushing a
//! fractional variable up (to `ceil`) or down (to `floor`), averaged over
//! the branches actually taken. Once a variable has been branched on in
//! both directions its pseudocosts predict the bound movement of a new
//! branch without solving anything; until then the tree either falls back
//! to the global average pseudocost or — on the first few nodes — runs
//! *strong-branch probes*: actually dual-simplex-warm-starting the two
//! child relaxations of each candidate from the parent basis and scoring
//! the real degradations. The probes both pick the first branches and seed
//! the pseudocost table with real observations.
//!
//! Scoring uses the standard product rule
//! `score = max(up, ε) · max(down, ε)`, which prefers variables that move
//! the bound in *both* children (a variable with one huge and one zero
//! degradation mostly re-discovers the same child). Branching-priority
//! classes still dominate: candidates are drawn only from the highest
//! priority class with a fractional variable, matching the
//! most-fractional rule this module replaces.

/// Per-variable pseudocost accumulators for one branch & bound tree.
#[derive(Debug)]
pub(crate) struct Pseudocosts {
    /// Summed per-unit degradation of up-branches, per variable.
    up_sum: Vec<f64>,
    /// Number of observed up-branches, per variable.
    up_count: Vec<u32>,
    /// Summed per-unit degradation of down-branches, per variable.
    down_sum: Vec<f64>,
    /// Number of observed down-branches, per variable.
    down_count: Vec<u32>,
}

/// Floor for a degradation estimate in the product rule: keeps a zero
/// observed movement from zeroing the whole score.
const EPSILON: f64 = 1e-6;

impl Pseudocosts {
    pub(crate) fn new(vars: usize) -> Self {
        Pseudocosts {
            up_sum: vec![0.0; vars],
            up_count: vec![0; vars],
            down_sum: vec![0.0; vars],
            down_count: vec![0; vars],
        }
    }

    /// Records one observed branch: variable `var` was pushed `up` (or
    /// down) across a fractional distance `dist`, and the child relaxation
    /// bound degraded by `degradation` (clamped at 0: a child bound can
    /// never genuinely improve on its parent's).
    pub(crate) fn observe(&mut self, var: usize, up: bool, dist: f64, degradation: f64) {
        if !dist.is_finite() || dist <= EPSILON || !degradation.is_finite() {
            return;
        }
        let per_unit = degradation.max(0.0) / dist;
        if up {
            self.up_sum[var] += per_unit;
            self.up_count[var] += 1;
        } else {
            self.down_sum[var] += per_unit;
            self.down_count[var] += 1;
        }
    }

    /// Whether `var` has observations in both directions.
    pub(crate) fn reliable(&self, var: usize) -> bool {
        self.up_count[var] > 0 && self.down_count[var] > 0
    }

    /// A scorer for one branching decision: it averages each direction
    /// over the whole table once, so scoring every candidate (twice per
    /// comparison in a sort or `max_by`) does not re-sum the table. Take a
    /// new one after the table is observed.
    pub(crate) fn scorer(&self) -> Scorer<'_> {
        Scorer {
            table: self,
            up_average: average(&self.up_sum, &self.up_count),
            down_average: average(&self.down_sum, &self.down_count),
        }
    }
}

/// Average per-unit degradation over every observation of one direction,
/// or 1.0 when there is none.
fn average(sums: &[f64], counts: &[u32]) -> f64 {
    let total: u32 = counts.iter().sum();
    if total > 0 {
        sums.iter().sum::<f64>() / f64::from(total)
    } else {
        1.0
    }
}

/// [`Pseudocosts`] with both directions' table-wide averages computed, from
/// [`Pseudocosts::scorer`].
pub(crate) struct Scorer<'a> {
    table: &'a Pseudocosts,
    up_average: f64,
    down_average: f64,
}

impl Scorer<'_> {
    /// Product-rule score of branching on `var` at fractional value `frac`
    /// (`frac ∈ (0,1)` is the distance to `floor`). Directions without
    /// observations for `var` fall back to the global average pseudocost
    /// of that direction, or 1.0 when the whole tree has no observations
    /// yet — which degrades the rule to most-fractional.
    pub(crate) fn score(&self, var: usize, frac: f64) -> f64 {
        let down = self.estimate(var, false) * frac;
        let up = self.estimate(var, true) * (1.0 - frac);
        down.max(EPSILON) * up.max(EPSILON)
    }

    fn estimate(&self, var: usize, up: bool) -> f64 {
        let t = self.table;
        let (sum, count, fallback) = if up {
            (t.up_sum[var], t.up_count[var], self.up_average)
        } else {
            (t.down_sum[var], t.down_count[var], self.down_average)
        };
        if count > 0 {
            sum / f64::from(count)
        } else {
            fallback
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unobserved_table_degrades_to_most_fractional() {
        let pc = Pseudocosts::new(3);
        // score = frac * (1 - frac): maximized at 0.5.
        assert!(pc.scorer().score(0, 0.5) > pc.scorer().score(1, 0.1));
        assert!(pc.scorer().score(0, 0.5) > pc.scorer().score(2, 0.9));
        assert!(!pc.reliable(0));
    }

    #[test]
    fn observations_steer_the_score() {
        let mut pc = Pseudocosts::new(2);
        // Variable 0 moves the bound hard both ways; variable 1 barely.
        pc.observe(0, true, 0.5, 10.0);
        pc.observe(0, false, 0.5, 8.0);
        pc.observe(1, true, 0.5, 0.1);
        pc.observe(1, false, 0.5, 0.1);
        assert!(pc.reliable(0) && pc.reliable(1));
        assert!(pc.scorer().score(0, 0.5) > pc.scorer().score(1, 0.5));
    }

    #[test]
    fn averages_accumulate_per_unit() {
        let mut pc = Pseudocosts::new(1);
        pc.observe(0, true, 0.25, 1.0); // 4.0 per unit
        pc.observe(0, true, 0.5, 1.0); // 2.0 per unit
        pc.observe(0, false, 0.5, 3.0); // 6.0 per unit
        // up estimate 3.0, down estimate 6.0; frac 0.5 halves both.
        let score = pc.scorer().score(0, 0.5);
        assert!((score - 3.0 * 0.5 * 6.0f64.mul_add(0.5, 0.0)).abs() < 1e-9);
    }

    #[test]
    fn one_sided_observations_borrow_the_global_average() {
        let mut pc = Pseudocosts::new(2);
        pc.observe(0, true, 0.5, 4.0); // global up average: 8.0 per unit
        assert!(!pc.reliable(0));
        // Variable 1 has no up observations: borrows 8.0; its down side
        // borrows... nothing exists, so 1.0.
        let s = pc.scorer().score(1, 0.5);
        assert!((s - (1.0 * 0.5) * (8.0 * 0.5)).abs() < 1e-9);
    }

    #[test]
    fn degenerate_observations_are_ignored() {
        let mut pc = Pseudocosts::new(1);
        pc.observe(0, true, 0.0, 5.0); // zero distance
        pc.observe(0, true, 0.5, f64::INFINITY); // unbounded degradation
        pc.observe(0, false, 0.5, -3.0); // "improvement" clamps to 0
        assert_eq!(pc.up_count[0], 0);
        assert_eq!(pc.down_count[0], 1);
        assert!(pc.down_sum[0].abs() < 1e-12);
    }
}
