//! Bandwidth-utilization and transfer-cost accounting.
//!
//! §5.1 defines "Edge-Cloud Bandwidth Utilization (BU) ... as the ratio of
//! frames being sent to the cloud relative to all processed frames"; §3.4
//! motivates thresholding with the performance *and monetary* overhead of
//! edge-cloud communication. The meter tracks both.

/// Accumulates per-run bandwidth statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BandwidthMeter {
    frames_processed: u64,
    frames_sent: u64,
    bytes_sent: u64,
    dollars: f64,
}

impl BandwidthMeter {
    /// A fresh meter.
    pub fn new() -> Self {
        BandwidthMeter::default()
    }

    /// Record a frame processed at the edge (sent to the cloud or not).
    pub fn record_processed(&mut self) {
        self.frames_processed += 1;
    }

    /// Record a frame sent to the cloud with its payload size and cost.
    pub fn record_sent(&mut self, bytes: u64, dollars: f64) {
        self.frames_sent += 1;
        self.bytes_sent += bytes;
        self.dollars += dollars;
    }

    /// The paper's BU metric: frames sent / frames processed (0 if none).
    pub fn bandwidth_utilization(&self) -> f64 {
        if self.frames_processed == 0 {
            0.0
        } else {
            self.frames_sent as f64 / self.frames_processed as f64
        }
    }

    /// Total frames processed.
    pub fn frames_processed(&self) -> u64 {
        self.frames_processed
    }

    /// Total bytes shipped edge→cloud.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Total transfer cost in dollars.
    pub fn dollars(&self) -> f64 {
        self.dollars
    }

    /// Merge another meter into this one.
    pub fn merge(&mut self, other: &BandwidthMeter) {
        self.frames_processed += other.frames_processed;
        self.frames_sent += other.frames_sent;
        self.bytes_sent += other.bytes_sent;
        self.dollars += other.dollars;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_meter_is_zero() {
        let m = BandwidthMeter::new();
        assert_eq!(m.bandwidth_utilization(), 0.0);
        assert_eq!(m.bytes_sent(), 0);
    }

    #[test]
    fn bu_is_sent_over_processed() {
        let mut m = BandwidthMeter::new();
        for i in 0..10 {
            m.record_processed();
            if i % 2 == 0 {
                m.record_sent(1000, 0.001);
            }
        }
        assert!((m.bandwidth_utilization() - 0.5).abs() < 1e-12);
        assert_eq!(m.bytes_sent(), 5000);
    }

    #[test]
    fn cost_accumulates() {
        let mut m = BandwidthMeter::new();
        m.record_processed();
        m.record_sent(1_000_000_000, 0.09);
        m.record_processed();
        m.record_sent(1_000_000_000, 0.09);
        assert!((m.dollars() - 0.18).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_componentwise() {
        let mut a = BandwidthMeter::new();
        a.record_processed();
        a.record_sent(10, 0.01);
        let mut b = BandwidthMeter::new();
        b.record_processed();
        b.record_processed();
        a.merge(&b);
        assert_eq!(a.frames_processed(), 3);
        assert!((a.bandwidth_utilization() - 1.0 / 3.0).abs() < 1e-12);
    }
}
