//! Point-to-point link model.

use croesus_sim::{DetRng, Normal, SimDuration};

/// A network link: propagation delay (normally distributed with jitter),
/// serialization bandwidth, and a monetary cost per transferred gigabyte
/// ("public cloud providers charge a cost for communicated data between the
/// data center and the Internet", §3.1).
#[derive(Clone, Debug)]
pub struct Link {
    /// Link name, for reports.
    pub name: String,
    /// One-way propagation delay distribution, in milliseconds.
    pub propagation_ms: Normal,
    /// Bandwidth in bits per second.
    pub bandwidth_bps: f64,
    /// Cost per gigabyte transferred, in dollars.
    pub cost_per_gb: f64,
}

impl Link {
    /// Create a link. Panics on non-positive bandwidth.
    pub fn new(name: &str, propagation_ms: Normal, bandwidth_bps: f64, cost_per_gb: f64) -> Self {
        assert!(bandwidth_bps > 0.0, "bandwidth must be positive");
        assert!(cost_per_gb >= 0.0, "cost must be non-negative");
        Link {
            name: name.to_string(),
            propagation_ms,
            bandwidth_bps,
            cost_per_gb,
        }
    }

    /// One-way latency to move `bytes` across this link: a propagation
    /// sample plus serialization time.
    pub fn transfer_latency(&self, bytes: u64, rng: &mut DetRng) -> SimDuration {
        let prop = self.propagation_ms.sample_clamped(
            rng,
            (self.propagation_ms.mean - 3.0 * self.propagation_ms.std).max(0.05),
            self.propagation_ms.mean + 3.0 * self.propagation_ms.std,
        );
        let serialization_ms = (bytes as f64 * 8.0) / self.bandwidth_bps * 1e3;
        SimDuration::from_millis_f64(prop + serialization_ms)
    }

    /// Mean one-way latency for `bytes` (no jitter) — used by analytic
    /// summaries.
    pub fn mean_latency(&self, bytes: u64) -> SimDuration {
        let serialization_ms = (bytes as f64 * 8.0) / self.bandwidth_bps * 1e3;
        SimDuration::from_millis_f64(self.propagation_ms.mean + serialization_ms)
    }

    /// Dollar cost of transferring `bytes`.
    pub fn transfer_cost(&self, bytes: u64) -> f64 {
        bytes as f64 / 1e9 * self.cost_per_gb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> Link {
        // 60 ms propagation, 200 Mbps, $0.09/GB — a CA→VA-ish link.
        Link::new("test", Normal::new(60.0, 3.0), 200e6, 0.09)
    }

    #[test]
    fn transfer_latency_includes_serialization() {
        let mut rng = DetRng::new(1);
        let l = link();
        // 150 KB at 200 Mbps = 6 ms serialization.
        let lat: Vec<f64> = (0..2000)
            .map(|_| l.transfer_latency(150_000, &mut rng).as_millis_f64())
            .collect();
        let mean = lat.iter().sum::<f64>() / lat.len() as f64;
        assert!((mean - 66.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn zero_bytes_is_pure_propagation() {
        let l = link();
        assert!((l.mean_latency(0).as_millis_f64() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn bigger_payload_takes_longer() {
        let l = link();
        assert!(l.mean_latency(1_000_000) > l.mean_latency(100_000));
    }

    #[test]
    fn latency_is_never_negative_even_with_huge_jitter() {
        let mut rng = DetRng::new(2);
        let l = Link::new("jittery", Normal::new(1.0, 50.0), 1e9, 0.0);
        for _ in 0..1000 {
            let lat = l.transfer_latency(1000, &mut rng);
            assert!(lat.as_micros() > 0);
        }
    }

    #[test]
    fn cost_scales_linearly() {
        let l = link();
        assert!((l.transfer_cost(1_000_000_000) - 0.09).abs() < 1e-12);
        assert!((l.transfer_cost(500_000_000) - 0.045).abs() < 1e-12);
        assert_eq!(l.transfer_cost(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_panics() {
        Link::new("bad", Normal::new(1.0, 0.0), 0.0, 0.0);
    }
}
