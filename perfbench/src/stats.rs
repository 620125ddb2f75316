//! Order statistics and failure accounting shared by every workload.

/// Sorts a sample in place (total order, so NaN cannot poison the sort).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// Median of a sample (mean of the two middle values for even counts);
/// 0 for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    sort(&mut v);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples (the
/// epsilon keeps `0.999 * 10000` from rounding up past 9990).
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0–100] of an already sorted sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`
/// samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest of the conventional tail percentiles (99.9, 99, 95, 90,
/// 50) not above `cap` that still has at least ten samples beyond it, or
/// `None` when even the median does not.
pub fn highest_supported_percentile(n: usize, cap: f64) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| p <= cap && n > 0 && samples_beyond(n, p) >= 10)
}

/// Median plus the highest-supported tail of one latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Samples the figures rest on.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile actually reported.
    pub tail_pct: f64,
    /// Value at `tail_pct`.
    pub tail: f64,
}

impl Tail {
    /// Median and tail of `samples`: the highest percentile up to `cap`
    /// that has ten samples beyond it, named in `tail_pct`. A workload
    /// whose sample count varies across a threshold fixes `cap` below it,
    /// so every run reports the same percentile.
    pub fn of(samples: &[f64], cap: f64) -> Tail {
        let mut v = samples.to_vec();
        sort(&mut v);
        if v.is_empty() {
            return Tail {
                count: 0,
                p50: 0.0,
                tail_pct: 0.0,
                tail: 0.0,
            };
        }
        let tail_pct = highest_supported_percentile(v.len(), cap).unwrap_or(100.0);
        Tail {
            count: v.len(),
            p50: median(&v),
            tail_pct,
            tail: percentile_sorted(&v, tail_pct),
        }
    }
}

/// Outcome counts of one workload run. Every request, layer round trip
/// or simulation the workload attempts lands in exactly one bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Operations attempted.
    pub attempted: u64,
    /// Finished and verified.
    pub completed: u64,
    /// Refused by admission control.
    pub shed: u64,
    /// Finished with an error (a decode fault, a lost completion).
    pub failed: u64,
    /// Finished but produced a wrong result.
    pub mismatched: u64,
}

impl Outcomes {
    /// Operations that did not complete correctly.
    pub fn failures(&self) -> u64 {
        self.shed + self.failed + self.mismatched
    }

    /// `(shed + failed + mismatched) / attempted`; 0 when nothing ran.
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failures() as f64 / self.attempted as f64
        }
    }

    /// Every attempt is accounted for exactly once.
    pub fn balanced(&self) -> bool {
        self.attempted == self.completed + self.failures()
    }

    /// Adds another run's counts.
    pub fn add(&mut self, o: Outcomes) {
        self.attempted += o.attempted;
        self.completed += o.completed;
        self.shed += o.shed;
        self.failed += o.failed;
        self.mismatched += o.mismatched;
    }
}

/// One line on a run's iterations: their count and median host time.
pub fn iteration_note<T>(iters: &[T], host_ns: impl Fn(&T) -> f64) -> String {
    let v: Vec<f64> = iters.iter().map(host_ns).collect();
    format!(
        "{} iterations, median {:.2} host ms",
        v.len(),
        median(&v) / 1e6
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(highest_supported_percentile(1000, 99.9), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000, 99.9), Some(99.9));
        assert_eq!(highest_supported_percentile(10_000, 99.0), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000, 95.0), Some(95.0));
        assert_eq!(highest_supported_percentile(999, 99.9), Some(95.0));
        assert_eq!(highest_supported_percentile(100, 99.9), Some(90.0));
        assert_eq!(highest_supported_percentile(20, 99.9), Some(50.0));
        assert_eq!(highest_supported_percentile(19, 99.9), None);

        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = Tail::of(&v, 99.0);
        assert_eq!((t.count, t.tail_pct, t.tail), (1000, 99.0, 990.0));
        let t = Tail::of(&v[..500], 99.0);
        assert_eq!((t.tail_pct, t.tail), (95.0, 475.0));
        // Capped below the threshold, 999 and 1000 samples report alike.
        let (a, b) = (Tail::of(&v[..999], 95.0), Tail::of(&v, 95.0));
        assert_eq!((a.tail_pct, b.tail_pct), (95.0, 95.0));
    }

    #[test]
    fn fail_frac_counts_sheds_failures_and_mismatches() {
        let o = Outcomes {
            attempted: 100,
            completed: 90,
            shed: 5,
            failed: 3,
            mismatched: 2,
        };
        assert!(o.balanced());
        assert_eq!(o.failures(), 10);
        assert!((o.fail_frac() - 0.1).abs() < 1e-15);

        let lost = Outcomes {
            attempted: 10,
            completed: 8,
            ..Outcomes::default()
        };
        assert!(!lost.balanced(), "an unaccounted request must show");

        let mut sum = Outcomes::default();
        sum.add(o);
        sum.add(o);
        assert_eq!(sum.attempted, 200);
        assert_eq!(sum.failures(), 20);
        assert_eq!(Outcomes::default().fail_frac(), 0.0);
    }
}
