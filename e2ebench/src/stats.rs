//! Order statistics over latency samples.
//!
//! Tail metrics report the highest percentile that still has at least
//! [`MIN_BEYOND`] samples above it, so a p99 is never quoted from a
//! handful of observations: 108 samples give a p90, 1000 give a p99.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles a metric may report, highest first, in per-mille
/// (integer arithmetic keeps the rank exact: 0.99 × 1000 is not).
const TAIL_PERMILLE: [usize; 3] = [990, 900, 500];

/// 0-based nearest-rank index of the `permille` percentile in `n`
/// sorted samples.
fn rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n) - 1
}

/// The highest candidate percentile (in per-mille) with at least
/// [`MIN_BEYOND`] of `n` samples beyond it, if any.
pub fn tail_permille(n: usize) -> Option<usize> {
    TAIL_PERMILLE
        .iter()
        .copied()
        .find(|&p| n > 0 && n - (rank(n, p) + 1) >= MIN_BEYOND)
}

/// `p90`, `p99`, ... for a per-mille percentile.
pub fn percentile_label(permille: usize) -> String {
    if permille.is_multiple_of(10) {
        format!("p{}", permille / 10)
    } else {
        format!("p{}", permille as f64 / 10.0)
    }
}

/// Median and tail of one sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// 90th percentile (nearest rank).
    pub p90: f64,
    /// 95th percentile (nearest rank).
    pub p95: f64,
    /// Geometric mean: every sample counts, none dominates.
    pub gmean: f64,
    /// The tail percentile reported, in per-mille.
    pub tail_permille: usize,
    /// Its value.
    pub tail: f64,
}

impl Summary {
    /// Summarize `samples`; `None` when there are too few for any tail
    /// percentile (fewer than 20).
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let tail_permille = tail_permille(s.len())?;
        Some(Summary {
            n: s.len(),
            p50: s[rank(s.len(), 500)],
            p90: s[rank(s.len(), 900)],
            p95: s[rank(s.len(), 950)],
            gmean: (s.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / s.len() as f64).exp(),
            tail_permille,
            tail: s[rank(s.len(), tail_permille)],
        })
    }

    /// The tail label, e.g. `p99`.
    pub fn tail_label(&self) -> String {
        percentile_label(self.tail_permille)
    }
}

/// Median of a sample set (nearest rank); 0 for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank(s.len(), 500)]
}

/// Nearest-rank `permille` percentile of a sample set; 0 when empty.
pub fn percentile(samples: &[f64], permille: usize) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank(s.len(), permille)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_needs_ten_samples_beyond() {
        assert_eq!(tail_permille(108), Some(900));
        assert_eq!(tail_permille(999), Some(900));
        assert_eq!(tail_permille(1000), Some(990));
        assert_eq!(tail_permille(99), Some(500));
        assert_eq!(tail_permille(20), Some(500));
        assert_eq!(tail_permille(19), None);
        assert_eq!(tail_permille(0), None);
    }

    #[test]
    fn picked_tail_has_exactly_the_promised_samples_beyond() {
        for n in [20, 99, 100, 108, 500, 999, 1000, 5000] {
            let p = tail_permille(n).unwrap();
            let beyond = n - (rank(n, p) + 1);
            assert!(beyond >= MIN_BEYOND, "n={n} p={p} beyond={beyond}");
        }
    }

    #[test]
    fn summary_reads_ranks() {
        let samples: Vec<f64> = (1..=108).rev().map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!(
            (s.n, s.p50, s.tail_label(), s.tail),
            (108, 54.0, "p90".into(), 98.0)
        );
        assert_eq!((s.p90, s.p95), (98.0, 103.0));
        let g = Summary::of(
            &[2.0; 20]
                .iter()
                .chain(&[8.0; 20])
                .copied()
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!((g.gmean - 4.0).abs() < 1e-9);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 990), 0.0);
    }
}
