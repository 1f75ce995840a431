//! Order statistics with the benchmark's percentile rule.
//!
//! A tail latency is reported at the highest percentile of [`LADDER`]
//! that still has at least [`MIN_BEYOND`] samples beyond it, so a short
//! run never reports a "p99" that rests on one or two samples. When no
//! rung qualifies the maximum is reported, and the rung used is always
//! printed next to the sample count.

/// Percentile rungs tried from the top.
pub const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median (mean of the middle two for an even count); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Index of the nearest-rank `p`-th percentile in a sorted sample of `n`,
/// in integer per-mille arithmetic so `p99.9` of 10 000 is exact.
fn rank(p: f64, n: usize) -> usize {
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n) - 1
}

/// A tail percentile chosen by the ladder rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (100 means the maximum).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Sample count.
    pub n: usize,
}

/// The highest [`LADDER`] percentile with at least [`MIN_BEYOND`]
/// samples beyond it, or the maximum when none qualifies.
pub fn tail(xs: &[f64]) -> Tail {
    let n = xs.len();
    if n == 0 {
        return Tail {
            pct: 100.0,
            value: 0.0,
            n,
        };
    }
    let s = sorted(xs);
    for p in LADDER {
        let r = rank(p, n);
        if n - (r + 1) >= MIN_BEYOND {
            return Tail {
                pct: p,
                value: s[r],
                n,
            };
        }
    }
    Tail {
        pct: 100.0,
        value: s[n - 1],
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.pct, t.value, t.n), (99.0, 990.0, 1000));
        // One sample short: only nine lie beyond p99, so the rule steps
        // down to p95.
        let t = tail(&xs[..999]);
        assert_eq!(t.pct, 95.0);
        assert_eq!(t.value, 950.0);
    }

    #[test]
    fn p999_needs_ten_thousand_samples() {
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.pct, t.value), (99.9, 9990.0));
    }

    #[test]
    fn small_samples_report_the_maximum() {
        let t = tail(&[5.0, 1.0, 9.0, 3.0]);
        assert_eq!((t.pct, t.value, t.n), (100.0, 9.0, 4));
        let t = tail(&(1..=20).map(f64::from).collect::<Vec<_>>());
        assert_eq!((t.pct, t.value), (50.0, 10.0));
    }
}
