//! Order statistics for trial aggregation and per-frame latencies.

/// Median, quartiles and sample count of one metric over its trials.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Interquartile distance as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    v
}

/// The median of `values` (mean of the two middle samples for even counts).
/// Panics on an empty slice: every metric is reported from at least one trial.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median and quartiles. Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), the rule the
/// acceptance driver applies, so a spread computed here reads the same
/// there. A single sample is its own quartiles.
pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let only = median(values);
        return Summary {
            median: only,
            q1: only,
            q3: only,
            n,
        };
    }
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        median: median(&v),
        q1: quartile(1),
        q3: quartile(3),
        n,
    }
}

/// Why a percentile was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TooFewSamples {
    pub beyond: usize,
}

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice at `level` in (0, 1).
/// Refused when fewer than [`MIN_BEYOND`] samples lie beyond it: a tail
/// read off a handful of samples is one frame's luck, not a property of
/// the system.
pub fn percentile(ascending: &[f64], level: f64) -> Result<f64, TooFewSamples> {
    assert!(level > 0.0 && level < 1.0, "level must be inside (0, 1)");
    let n = ascending.len();
    // The epsilon keeps 0.99 * 3000 from rounding up to rank 2971.
    let rank = ((level * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if beyond < MIN_BEYOND {
        return Err(TooFewSamples { beyond });
    }
    Ok(ascending[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let s = summarize(&[40.0, 10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (10.0, 20.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn single_sample_is_its_own_quartiles() {
        let s = summarize(&[5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (5.0, 5.0, 5.0, 1));
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(summarize(&v).spread(), 1.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=3000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Ok(1500.0));
        assert_eq!(percentile(&v, 0.99), Ok(2970.0));
    }

    #[test]
    fn percentile_refuses_a_level_with_fewer_than_ten_samples_beyond() {
        let v: Vec<f64> = (1..=600).map(f64::from).collect();
        // p99 of 600 samples leaves 6 beyond it.
        assert_eq!(percentile(&v, 0.99), Err(TooFewSamples { beyond: 6 }));
        // p98 leaves 12.
        assert_eq!(percentile(&v, 0.98), Ok(588.0));
        // Exactly ten beyond is accepted, nine is not.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Ok(990.0));
        assert_eq!(
            percentile(&v[..999], 0.99),
            Err(TooFewSamples { beyond: 9 })
        );
    }
}
