//! First-order statistical static timing analysis (SSTA).
//!
//! The paper positions post-silicon tuning against design-time *statistical
//! optimization* (§1, citing Mani et al.): statistical methods carry the
//! process spread through timing as distributions and sign off on a timing
//! *yield*. This module provides that capability so the two philosophies can
//! be compared quantitatively (see the `ssta_vs_mc` experiment):
//!
//! * [`CanonicalDelay`] — the classic first-order canonical form
//!   `D = μ + a·X_g + b·X_i`, with one globally shared standard normal
//!   `X_g` (die-to-die) and an independent per-node `X_i` (within-die
//!   random);
//! * [`TimingGraph::analyze_statistical`](crate::TimingGraph::analyze_statistical)
//!   — block-based propagation with Clark's moment-matching `max`;
//! * [`CanonicalDelay::yield_at`] — timing yield at a clock period.

use serde::{Deserialize, Serialize};

use crate::TimingGraph;

/// Standard normal probability density.
fn phi(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal cumulative distribution (Abramowitz–Stegun 7.1.26
/// via `erf`; absolute error < 1.5e-7).
fn cap_phi(x: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.3275911 * (x.abs() / std::f64::consts::SQRT_2));
    let erf = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-(x * x) / 2.0).exp();
    if x >= 0.0 {
        0.5 * (1.0 + erf)
    } else {
        0.5 * (1.0 - erf)
    }
}

/// A Gaussian delay in first-order canonical form:
/// `D = mean + global·X_g + indep·X_i`.
///
/// ```
/// use fbb_sta::ssta::CanonicalDelay;
///
/// let d = CanonicalDelay::new(100.0, 5.0, 3.0);
/// assert!((d.sigma() - (34.0f64).sqrt()).abs() < 1e-12);
/// assert!(d.yield_at(100.0) > 0.49 && d.yield_at(100.0) < 0.51);
/// assert!(d.yield_at(120.0) > 0.99);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CanonicalDelay {
    /// Mean delay.
    pub mean: f64,
    /// Sensitivity to the shared global variable (die-to-die).
    pub global: f64,
    /// Independent random sigma (within-die, uncorrelated).
    pub indep: f64,
}

impl CanonicalDelay {
    /// A canonical delay with the given moments.
    pub fn new(mean: f64, global: f64, indep: f64) -> Self {
        CanonicalDelay { mean, global, indep }
    }

    /// A deterministic delay (zero spread).
    pub fn deterministic(mean: f64) -> Self {
        CanonicalDelay { mean, global: 0.0, indep: 0.0 }
    }

    /// The zero delay.
    pub fn zero() -> Self {
        Self::deterministic(0.0)
    }

    /// Total standard deviation.
    pub fn sigma(&self) -> f64 {
        (self.global * self.global + self.indep * self.indep).sqrt()
    }

    /// Sum of two canonical delays: means and global sensitivities add,
    /// independent parts add in quadrature.
    pub fn add(&self, other: &CanonicalDelay) -> CanonicalDelay {
        CanonicalDelay {
            mean: self.mean + other.mean,
            global: self.global + other.global,
            indep: (self.indep * self.indep + other.indep * other.indep).sqrt(),
        }
    }

    /// Statistical maximum via Clark's moment matching, re-expressed in
    /// canonical form with tightness-weighted global sensitivity.
    pub fn max(&self, other: &CanonicalDelay) -> CanonicalDelay {
        let (s1, s2) = (self.sigma(), other.sigma());
        let cov = self.global * other.global; // only X_g is shared
        let theta2 = (s1 * s1 + s2 * s2 - 2.0 * cov).max(0.0);
        let theta = theta2.sqrt();
        if theta < 1e-12 {
            // Perfectly correlated equal-variance case: plain max of means.
            return if self.mean >= other.mean { *self } else { *other };
        }
        let alpha = (self.mean - other.mean) / theta;
        let t = cap_phi(alpha);
        let mean = self.mean * t + other.mean * (1.0 - t) + theta * phi(alpha);
        let raw_second = (self.mean * self.mean + s1 * s1) * t
            + (other.mean * other.mean + s2 * s2) * (1.0 - t)
            + (self.mean + other.mean) * theta * phi(alpha);
        let var = (raw_second - mean * mean).max(0.0);
        // Tightness-weighted reconstruction of the canonical form.
        let global = self.global * t + other.global * (1.0 - t);
        let indep = (var - global * global).max(0.0).sqrt();
        CanonicalDelay { mean, global, indep }
    }

    /// Probability that this delay is at most `clock` (the timing yield).
    pub fn yield_at(&self, clock: f64) -> f64 {
        let s = self.sigma();
        if s < 1e-12 {
            return if self.mean <= clock { 1.0 } else { 0.0 };
        }
        cap_phi((clock - self.mean) / s)
    }

    /// The `q`-quantile of the delay (e.g. `0.997` for a 3σ sign-off).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < q < 1`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0, 1)");
        // Beasley-Springer-Moro style rational approximation via bisection
        // on the monotone CDF (robust, good to ~1e-9 over a wide bracket).
        let s = self.sigma();
        if s < 1e-12 {
            return self.mean;
        }
        let (mut lo, mut hi) = (-9.0, 9.0);
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if cap_phi(mid) < q {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        self.mean + s * 0.5 * (lo + hi)
    }
}

impl TimingGraph<'_> {
    /// Statistical arrival propagation: like
    /// [`TimingGraph::analyze`](crate::TimingGraph::analyze) but over
    /// canonical delays, returning the statistical critical delay (the
    /// distribution of `Dcrit` across the die population).
    ///
    /// # Panics
    ///
    /// Panics if `delays.len() != self.gate_count()`.
    pub fn analyze_statistical(&self, delays: &[CanonicalDelay]) -> CanonicalDelay {
        assert_eq!(delays.len(), self.gate_count(), "one delay per gate required");
        let n = self.gate_count();
        let mut arrival = vec![CanonicalDelay::zero(); n];

        for &id in self.topo() {
            let i = id.index();
            let mut best = CanonicalDelay::zero();
            let mut first = true;
            for &p in self.comb_fanin(i) {
                best = if first { arrival[p.index()] } else { best.max(&arrival[p.index()]) };
                first = false;
            }
            for &ff in self.seq_fanin(i) {
                let launch = delays[ff.index()];
                best = if first { launch } else { best.max(&launch) };
                first = false;
            }
            arrival[i] = best.add(&delays[i]);
        }

        let mut dcrit = CanonicalDelay::zero();
        let mut first = true;
        for &id in self.topo() {
            if self.is_endpoint(id.index()) {
                let a = arrival[id.index()];
                dcrit = if first { a } else { dcrit.max(&a) };
                first = false;
            }
        }
        dcrit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbb_netlist::generators::{random_logic, RandomLogicOptions};
    use rand::{Rng as _, SeedableRng as _};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn normal_cdf_reference_points() {
        assert!((cap_phi(0.0) - 0.5).abs() < 1e-7);
        assert!((cap_phi(1.0) - 0.8413).abs() < 1e-4);
        assert!((cap_phi(-1.0) - 0.1587).abs() < 1e-4);
        assert!((cap_phi(3.0) - 0.99865).abs() < 1e-4);
    }

    #[test]
    fn deterministic_ssta_equals_sta() {
        let nl = random_logic(
            "p",
            &RandomLogicOptions {
                target_gates: 150,
                n_inputs: 8,
                seed: 5,
                registered: false,
                locality_window: 16,
            },
        )
        .unwrap();
        let graph = crate::TimingGraph::new(&nl).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let means: Vec<f64> = (0..nl.gate_count()).map(|_| rng.gen_range(5.0..25.0)).collect();
        let sta = graph.analyze(&means).dcrit_ps();
        let canon: Vec<CanonicalDelay> =
            means.iter().map(|&m| CanonicalDelay::deterministic(m)).collect();
        let ssta = graph.analyze_statistical(&canon);
        assert!((ssta.mean - sta).abs() < 1e-6);
        assert!(ssta.sigma() < 1e-9);
    }

    #[test]
    fn quantiles_are_monotone_and_bracket_the_mean() {
        let d = CanonicalDelay::new(100.0, 4.0, 3.0);
        let q10 = d.quantile(0.10);
        let q50 = d.quantile(0.50);
        let q90 = d.quantile(0.90);
        assert!(q10 < q50 && q50 < q90);
        assert!((q50 - 100.0).abs() < 1e-6);
        assert!((d.quantile(0.8413) - (100.0 + d.sigma())).abs() < 0.01);
    }

    #[test]
    fn clark_max_against_monte_carlo_two_variables() {
        // max of two correlated Gaussians, checked against sampling.
        let a = CanonicalDelay::new(100.0, 6.0, 2.0);
        let b = CanonicalDelay::new(96.0, 3.0, 7.0);
        let m = a.max(&b);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let xg: f64 = gauss(&mut rng);
            let va = a.mean + a.global * xg + a.indep * gauss(&mut rng);
            let vb = b.mean + b.global * xg + b.indep * gauss(&mut rng);
            let v = va.max(vb);
            sum += v;
            sum2 += v * v;
        }
        let mc_mean = sum / n as f64;
        let mc_sigma = (sum2 / n as f64 - mc_mean * mc_mean).sqrt();
        assert!((m.mean - mc_mean).abs() < 0.15, "mean {} vs MC {mc_mean}", m.mean);
        assert!((m.sigma() - mc_sigma).abs() < 0.2, "sigma {} vs MC {mc_sigma}", m.sigma());
    }

    #[test]
    fn circuit_ssta_tracks_model_consistent_monte_carlo() {
        let nl = random_logic(
            "p",
            &RandomLogicOptions {
                target_gates: 120,
                n_inputs: 8,
                seed: 11,
                registered: false,
                locality_window: 16,
            },
        )
        .unwrap();
        let graph = crate::TimingGraph::new(&nl).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let canon: Vec<CanonicalDelay> = (0..nl.gate_count())
            .map(|_| {
                let mean = rng.gen_range(8.0..20.0);
                CanonicalDelay::new(mean, 0.04 * mean, 0.03 * mean)
            })
            .collect();
        let ssta = graph.analyze_statistical(&canon);

        // Monte Carlo with the same underlying model.
        let samples = 3000;
        let mut dcrits = Vec::with_capacity(samples);
        for _ in 0..samples {
            let xg = gauss(&mut rng);
            let d: Vec<f64> = canon
                .iter()
                .map(|c| (c.mean + c.global * xg + c.indep * gauss(&mut rng)).max(0.1))
                .collect();
            dcrits.push(graph.analyze(&d).dcrit_ps());
        }
        let mc_mean = dcrits.iter().sum::<f64>() / samples as f64;
        dcrits.sort_by(|a, b| a.partial_cmp(b).unwrap());

        // Clark's approximation with reconvergent correlation: a few percent.
        assert!(
            (ssta.mean - mc_mean).abs() / mc_mean < 0.03,
            "ssta mean {} vs mc {mc_mean}",
            ssta.mean
        );
        // Yield prediction at the MC p90 clock should be near 0.9.
        let p90 = dcrits[(samples * 9) / 10];
        let y = ssta.yield_at(p90);
        assert!((0.75..=0.99).contains(&y), "predicted yield {y} at the MC p90 clock");
    }

    fn gauss(rng: &mut ChaCha8Rng) -> f64 {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}
