//! Order statistics and fits used by every workload and by `compare`.

/// The percentile [`tail`] takes of each operation's times.
pub const TAIL_P: f64 = 90.0;

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of positive values; 0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
    }
}

/// The geometric mean, over a workload's distinct operations, of `stat` of
/// each one's times; operations without times are skipped. Every operation
/// weighs the same whatever its size, and a uniform speed-up of `x` moves
/// the result by exactly `x`.
fn over_operations(times_by_operation: &[Vec<f64>], stat: impl Fn(&[f64]) -> f64) -> f64 {
    let values: Vec<f64> = times_by_operation
        .iter()
        .filter(|t| !t.is_empty())
        .map(|t| stat(t))
        .collect();
    geomean(&values)
}

/// The time of a typical operation: the geometric mean over the distinct
/// operations of each one's median time.
pub fn typical(times_by_operation: &[Vec<f64>]) -> f64 {
    over_operations(times_by_operation, median)
}

/// The tail time: the geometric mean over the distinct operations of each
/// one's [`TAIL_P`] percentile time. It is taken per operation because a
/// percentile of the pooled times of operations that differ in size by
/// orders of magnitude lands between two of them and jumps from one to the
/// other (over ten runs of `table1_flow` its p86 varied by 32%).
pub fn tail(times_by_operation: &[Vec<f64>]) -> f64 {
    over_operations(times_by_operation, |t| percentile(t, TAIL_P))
}

/// Operations per second over one round of every distinct operation, each
/// at its median time (in ms): the operations with times over the sum of
/// their medians. Long operations weigh by their length here, where
/// [`typical`] weighs every operation the same; every sample counts, and a
/// partial last round does not tilt the mix.
pub fn round_rate(times_by_operation: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = times_by_operation
        .iter()
        .filter(|t| !t.is_empty())
        .map(|t| median(t))
        .collect();
    let total: f64 = medians.iter().sum();
    if total > 0.0 {
        medians.len() as f64 * 1e3 / total
    } else {
        0.0
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads printed here match the ones computed from the result files.
/// Fewer than two values give the single value (or 0) for both.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Quartile spread as a share of the median: `(q3 - q1) / median`.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Least-squares slope of `log(y)` against `log(x)`: the exponent `k` of
/// `y ∝ x^k`. Points with a non-positive coordinate are skipped; fewer than
/// two usable points (or no spread in `x`) give 0.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(x, y)| x > 0.0 && y > 0.0)
        .map(|&(x, y)| (x.ln(), y.ln()))
        .collect();
    if logs.len() < 2 {
        return 0.0;
    }
    let n = logs.len() as f64;
    let mx = logs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = logs.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = logs.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = logs.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), (1.25, 3.75));
        // Two values extrapolate: quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[5.0; 6]), 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_time_is_the_geomean_of_each_operations_p90() {
        // p90 of 1..=100 is 90; of three samples, the largest.
        let ops = vec![
            (1..=100).map(f64::from).collect(),
            vec![4.0, 1.0, 2.5],
            vec![],
        ];
        assert!((tail(&ops) - (90.0f64 * 4.0).sqrt()).abs() < 1e-9);
        let slower: Vec<Vec<f64>> = ops
            .iter()
            .map(|t| t.iter().map(|x| x * 1.25).collect())
            .collect();
        assert!((tail(&slower) / tail(&ops) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn typical_time_is_the_geomean_of_medians() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        let ops = vec![vec![1.0, 9.0, 2.0], vec![400.0, 100.0], vec![]];
        // medians 2 and 250 (the empty operation is skipped)
        assert!((typical(&ops) - (2.0f64 * 250.0).sqrt()).abs() < 1e-9);
        let faster: Vec<Vec<f64>> = ops
            .iter()
            .map(|t| t.iter().map(|x| x * 0.8).collect())
            .collect();
        assert!((typical(&faster) / typical(&ops) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn round_rate_runs_every_operation_once_at_its_median() {
        // Medians 100 ms and 300 ms (one stalled sample does not count):
        // two operations in 0.4 s.
        let ops = vec![vec![100.0, 100.0, 5000.0], vec![300.0], vec![]];
        assert!((round_rate(&ops) - 5.0).abs() < 1e-9);
        assert_eq!(round_rate(&[]), 0.0);
    }

    #[test]
    fn slope_fit_recovers_exponents() {
        let linear: Vec<(f64, f64)> = [100.0, 1000.0, 5000.0]
            .iter()
            .map(|&x| (x, 3.0 * x))
            .collect();
        assert!((loglog_slope(&linear) - 1.0).abs() < 1e-12);
        let quad: Vec<(f64, f64)> = [2.0, 4.0, 8.0, 16.0]
            .iter()
            .map(|&x| (x, 0.5 * x * x))
            .collect();
        assert!((loglog_slope(&quad) - 2.0).abs() < 1e-12);
        assert_eq!(loglog_slope(&[(10.0, 1.0)]), 0.0);
        assert_eq!(loglog_slope(&[(10.0, 1.0), (10.0, 2.0)]), 0.0);
    }
}
