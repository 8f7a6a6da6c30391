//! Online mean accumulation and precision/recall counts for experiment
//! reporting. The paper's figures report means; no spread or percentile
//! is kept here.

use crate::time::SimDuration;

/// Welford online mean accumulator; O(1) memory.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats::default()
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "OnlineStats observation is NaN");
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
    }

    /// Add a duration observation, in milliseconds.
    pub fn push_duration(&mut self, d: SimDuration) {
        self.push(d.as_millis_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

/// Compute precision, recall, and F-score from counts of true positives,
/// false positives and false negatives. Degenerate cases return zeros.
///
/// This is the `f(θL, θU) = 2pr/(p+r)` used throughout the paper's
/// evaluation (§3.4, §5).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PrecisionRecall {
    /// True positives.
    pub tp: u64,
    /// False positives.
    pub fp: u64,
    /// False negatives.
    pub fn_: u64,
}

impl PrecisionRecall {
    /// Accumulate another set of counts.
    pub fn add(&mut self, other: PrecisionRecall) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.fn_ += other.fn_;
    }

    /// `tp / (tp + fp)`, or 0 when undefined.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// `tp / (tp + fn)`, or 0 when undefined.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// Harmonic mean of precision and recall, or 0 when undefined.
    pub fn f_score(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_matches_batch() {
        let values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut o = OnlineStats::new();
        for &v in &values {
            o.push(v);
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        assert!((o.mean() - mean).abs() < 1e-12);
        assert_eq!(o.count(), 8);
    }

    #[test]
    fn online_empty_defaults() {
        let o = OnlineStats::new();
        assert_eq!(o.mean(), 0.0);
    }

    #[test]
    fn precision_recall_f_score() {
        let pr = PrecisionRecall {
            tp: 8,
            fp: 2,
            fn_: 4,
        };
        assert!((pr.precision() - 0.8).abs() < 1e-12);
        assert!((pr.recall() - 8.0 / 12.0).abs() < 1e-12);
        let f = pr.f_score();
        let expect = 2.0 * 0.8 * (8.0 / 12.0) / (0.8 + 8.0 / 12.0);
        assert!((f - expect).abs() < 1e-12);
    }

    #[test]
    fn precision_recall_degenerate() {
        let pr = PrecisionRecall::default();
        assert_eq!(pr.precision(), 0.0);
        assert_eq!(pr.recall(), 0.0);
        assert_eq!(pr.f_score(), 0.0);
    }

    #[test]
    fn precision_recall_add() {
        let mut a = PrecisionRecall {
            tp: 1,
            fp: 2,
            fn_: 3,
        };
        a.add(PrecisionRecall {
            tp: 4,
            fp: 5,
            fn_: 6,
        });
        assert_eq!(
            a,
            PrecisionRecall {
                tp: 5,
                fp: 7,
                fn_: 9
            }
        );
    }
}
