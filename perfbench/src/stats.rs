//! Order statistics over raw samples.

/// Median of `xs` (mean of the middle pair for an even count); `0.0`
/// when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail the sample supports: the highest percentile with at least
/// ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// Value at that percentile.
    pub value: f64,
    /// The percentile, 0–100.
    pub pct: f64,
    /// Sample count.
    pub n: usize,
}

/// [`Tail`] of `xs`. With eleven samples or fewer no percentile has ten
/// beyond it, and the maximum is reported at percentile 100.
pub fn tail(xs: &[f64]) -> Tail {
    let n = xs.len();
    if n <= 11 {
        let value = xs.iter().copied().fold(0.0, f64::max);
        return Tail {
            value,
            pct: 100.0,
            n,
        };
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // Index n-11 has exactly ten samples after it.
    Tail {
        value: v[n - 11],
        pct: 100.0 * (n - 10) as f64 / n as f64,
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 990.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
        assert!((t.pct - 99.0).abs() < 1e-9);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
