//! The two distributions the simulated models sample: [`Normal`] (link
//! and inference latency) and [`Kumaraswamy`] (detector confidence).
//!
//! Implemented directly on top of [`DetRng`] (rather than pulling in
//! `rand_distr`) so the workspace stays within its approved dependency set
//! and sampling remains bit-stable across versions.

use crate::rng::DetRng;

/// A distribution over `f64` that can be sampled with a [`DetRng`].
pub trait Distribution {
    /// Draw one sample.
    fn sample(&self, rng: &mut DetRng) -> f64;
}

/// Normal distribution `N(mean, std²)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Normal {
    /// Mean of the distribution.
    pub mean: f64,
    /// Standard deviation; must be non-negative.
    pub std: f64,
}

impl Normal {
    /// Create a normal distribution. Panics if `std < 0`.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(std >= 0.0, "standard deviation must be non-negative");
        Normal { mean, std }
    }

    /// Sample, then clamp to `[lo, hi]`. Useful for latency models where
    /// negative draws are meaningless.
    pub fn sample_clamped(&self, rng: &mut DetRng, lo: f64, hi: f64) -> f64 {
        self.sample(rng).clamp(lo, hi)
    }
}

impl Distribution for Normal {
    fn sample(&self, rng: &mut DetRng) -> f64 {
        self.mean + self.std * rng.standard_normal()
    }
}

/// Kumaraswamy distribution on `[0, 1]` with shape parameters `a`, `b`.
///
/// A close, cheap stand-in for the Beta distribution with a closed-form
/// inverse CDF: `x = (1 - (1 - u)^(1/b))^(1/a)`. We use it to model
/// detector confidence scores: `a > 1, b < a` skews mass towards 1
/// (confident detections), `a < 1` towards 0 (low-confidence noise).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Kumaraswamy {
    /// First shape parameter; must be positive.
    pub a: f64,
    /// Second shape parameter; must be positive.
    pub b: f64,
}

impl Kumaraswamy {
    /// Create a Kumaraswamy distribution. Panics unless both shapes are positive.
    pub fn new(a: f64, b: f64) -> Self {
        assert!(a > 0.0 && b > 0.0, "shape parameters must be positive");
        Kumaraswamy { a, b }
    }

    /// The distribution mean, `b·B(1 + 1/a, b)` computed via ln-gamma.
    pub fn mean(&self) -> f64 {
        let ln_beta =
            ln_gamma(1.0 + 1.0 / self.a) + ln_gamma(self.b) - ln_gamma(1.0 + 1.0 / self.a + self.b);
        self.b * ln_beta.exp()
    }
}

impl Distribution for Kumaraswamy {
    fn sample(&self, rng: &mut DetRng) -> f64 {
        let u = rng.uniform();
        (1.0 - (1.0 - u).powf(1.0 / self.b)).powf(1.0 / self.a)
    }
}

/// Natural log of the gamma function (Lanczos approximation, g=7, n=9).
/// Accurate to ~1e-13 over the positive reals, which is far more than the
/// simulators need.
pub(crate) fn ln_gamma(x: f64) -> f64 {
    #[allow(clippy::excessive_precision)] // verbatim Lanczos constants
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x)
    } else {
        let x = x - 1.0;
        let mut a = COEFFS[0];
        let t = x + 7.5;
        for (i, &c) in COEFFS.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        0.5 * (std::f64::consts::TAU).ln() + (x + 0.5) * t.ln() - t + a.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn moments(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn normal_moments() {
        let mut rng = DetRng::new(1);
        let d = Normal::new(5.0, 2.0);
        let s: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        let (mean, var) = moments(&s);
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn normal_clamped_respects_bounds() {
        let mut rng = DetRng::new(2);
        let d = Normal::new(0.0, 10.0);
        for _ in 0..1_000 {
            let x = d.sample_clamped(&mut rng, -1.0, 1.0);
            assert!((-1.0..=1.0).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn normal_negative_std_panics() {
        Normal::new(0.0, -1.0);
    }

    #[test]
    fn kumaraswamy_support_and_skew() {
        let mut rng = DetRng::new(4);
        let high = Kumaraswamy::new(5.0, 1.5); // mass near 1
        let low = Kumaraswamy::new(1.2, 4.0); // mass near 0
        let hs: Vec<f64> = (0..20_000).map(|_| high.sample(&mut rng)).collect();
        let ls: Vec<f64> = (0..20_000).map(|_| low.sample(&mut rng)).collect();
        assert!(hs.iter().all(|&x| (0.0..=1.0).contains(&x)));
        assert!(ls.iter().all(|&x| (0.0..=1.0).contains(&x)));
        let (hm, _) = moments(&hs);
        let (lm, _) = moments(&ls);
        assert!(hm > 0.7, "high-confidence mean {hm}");
        assert!(lm < 0.35, "low-confidence mean {lm}");
    }

    #[test]
    fn kumaraswamy_empirical_mean_matches_analytic() {
        let mut rng = DetRng::new(5);
        let d = Kumaraswamy::new(2.0, 3.0);
        let s: Vec<f64> = (0..100_000).map(|_| d.sample(&mut rng)).collect();
        let (mean, _) = moments(&s);
        assert!(
            (mean - d.mean()).abs() < 0.005,
            "empirical {mean} analytic {}",
            d.mean()
        );
    }

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(5) = 24, Γ(0.5) = √π.
        assert!(ln_gamma(1.0).abs() < 1e-10);
        assert!(ln_gamma(2.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }
}
