//! Statistics helpers: percentiles under the ten-beyond rule, means,
//! and the attempted/failed tally.

/// Percentiles the benchmark may report, highest first.
pub const PERCENTILES: [f64; 3] = [0.99, 0.9, 0.5];

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether `n` samples support percentile `q`: at least
/// [`MIN_BEYOND`] samples must lie beyond its rank.
pub fn supports(q: f64, n: usize) -> bool {
    n > 0 && n - rank(q, n) >= MIN_BEYOND
}

/// Nearest-rank percentile `q` of `samples` (sorted or not).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(q, v.len()) - 1]
}

/// The tail percentile to report: `wanted` when the samples support
/// it, else the highest of [`PERCENTILES`] below it that they do.
/// `None` when not even the median has ten samples beyond it.
pub fn tail(samples: &[f64], wanted: f64) -> Option<(f64, f64)> {
    PERCENTILES
        .iter()
        .copied()
        .filter(|&q| q <= wanted && supports(q, samples.len()))
        .map(|q| (q, percentile(samples, q)))
        .next()
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median; 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Operations attempted and failed. An operation fails when it errors,
/// is refused, or returns a wrong answer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were wrong.
    pub failed: u64,
}

impl Tally {
    /// Records one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed share of attempts (0 when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples is rank 90: exactly ten lie beyond.
        assert!(supports(0.9, 100));
        assert!(!supports(0.9, 99));
        assert!(supports(0.99, 1000));
        assert!(!supports(0.99, 999));
        assert!(supports(0.5, 20));
        assert!(!supports(0.5, 19));
        assert!(!supports(0.5, 0));
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        assert_eq!(tail(&ramp(1000), 0.99), Some((0.99, 990.0)));
        assert_eq!(tail(&ramp(500), 0.99), Some((0.9, 450.0)));
        assert_eq!(tail(&ramp(50), 0.9), Some((0.5, 25.0)));
        assert_eq!(tail(&ramp(19), 0.9), None);
        // Never above the wanted percentile, however many samples.
        assert_eq!(tail(&ramp(5000), 0.9), Some((0.9, 4500.0)));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v = ramp(200);
        v.reverse();
        assert_eq!(percentile(&v, 0.5), 100.0);
        assert_eq!(median(&v), 100.5);
        assert_eq!(mean(&ramp(3)), 2.0);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false);
        let mut u = Tally::default();
        u.record(true);
        u.record(true);
        t.merge(u);
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.fail_frac(), 0.25);
        assert_eq!(Tally::default().fail_frac(), 0.0);
    }
}
