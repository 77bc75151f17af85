//! Sample summaries: the median and the tail percentile rule.

/// Percentiles the tail rule may pick, lowest first, in per-mille so
/// ranks are exact integer arithmetic.
pub const TAIL_LADDER: [usize; 7] = [500, 750, 900, 950, 990, 995, 999];

/// Samples that must lie beyond a percentile for it to count as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The median (mean of the two middle samples for an even count); 0 for
/// no samples.
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

/// Zero-based nearest-rank index of the `per_mille` percentile among
/// `n` samples.
fn rank(n: usize, per_mille: usize) -> usize {
    (per_mille * n).div_ceil(1000).clamp(1, n) - 1
}

/// `"p90"` / `"p99.5"` for a per-mille percentile.
fn percentile_label(per_mille: usize) -> String {
    if per_mille.is_multiple_of(10) {
        format!("p{}", per_mille / 10)
    } else {
        format!("p{}.{}", per_mille / 10, per_mille % 10)
    }
}

/// A tail summary: which percentile, its value, and its base.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    /// `"p90"`, `"p99.5"`, or `"max"` when no ladder percentile qualifies.
    pub label: String,
    pub value: f64,
    /// Samples ranked beyond the reported one.
    pub beyond: usize,
    pub samples: usize,
}

impl std::fmt::Display for Tail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} of {} samples ({} beyond)",
            self.label, self.samples, self.beyond
        )
    }
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples ranked beyond it (nearest rank); the maximum when the sample
/// is too small for any of them.
pub fn tail(samples: &[f64]) -> Tail {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail {
            label: "none".into(),
            value: 0.0,
            beyond: 0,
            samples: 0,
        };
    }
    for &p in TAIL_LADDER.iter().rev() {
        let idx = rank(n, p);
        let beyond = n - 1 - idx;
        if beyond >= TAIL_MIN_BEYOND {
            return Tail {
                label: percentile_label(p),
                value: v[idx],
                beyond,
                samples: n,
            };
        }
    }
    Tail {
        label: "max".into(),
        value: v[n - 1],
        beyond: 0,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reverse order, so the rule must sort.
        (0..n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 126 units (one mid-membound round): p95 leaves 6, p90 leaves 12.
        let t = tail(&ramp(126));
        assert_eq!((t.label.as_str(), t.beyond, t.value), ("p90", 12, 113.0));
        // 252 samples: p95 leaves 12, p99 leaves 2.
        assert_eq!(tail(&ramp(252)).label, "p95");
        // 1000 samples: p99 leaves exactly 10, p99.5 only 5.
        let t = tail(&ramp(1000));
        assert_eq!((t.label.as_str(), t.beyond), ("p99", 10));
        // 10000 samples reach the top of the ladder.
        assert_eq!(tail(&ramp(10_000)).label, "p99.9");
    }

    #[test]
    fn tail_falls_back_to_max_on_small_samples() {
        let t = tail(&ramp(19));
        assert_eq!((t.label.as_str(), t.value, t.samples), ("max", 18.0, 19));
        // 20 samples: p50 leaves exactly 10.
        assert_eq!(tail(&ramp(20)).label, "p50");
        assert_eq!(tail(&[]).label, "none");
    }

    #[test]
    fn every_reported_tail_satisfies_the_rule() {
        for n in 1..600 {
            let t = tail(&ramp(n));
            if t.label != "max" {
                assert!(t.beyond >= TAIL_MIN_BEYOND, "n={n}");
                // The next ladder step up would leave fewer than ten.
                let at = TAIL_LADDER
                    .iter()
                    .position(|&q| percentile_label(q) == t.label)
                    .unwrap();
                if let Some(&next) = TAIL_LADDER.get(at + 1) {
                    assert!(n - 1 - rank(n, next) < TAIL_MIN_BEYOND, "n={n}");
                }
            }
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
