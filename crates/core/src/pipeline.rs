//! The evaluation workload's transactions bank, plus whole-pipeline tests.
//!
//! The execution pattern of Figure 1 is the one frame loop in
//! [`crate::fleet`], reached through
//! [`Deployment::run`](crate::system::Deployment::run); build a deployment
//! with [`Croesus::builder`](crate::system::Croesus::builder) (protocol,
//! mode, durability and edge-fleet selection included).

use std::sync::Arc;

use crate::bank::{TransactionsBank, TriggerRule};
use crate::workload::YcsbWorkload;

/// The default transactions bank for the evaluation workload: every
/// detection triggers one YCSB-A-style transaction (§5.1).
pub fn evaluation_bank() -> Arc<TransactionsBank> {
    Arc::new(TransactionsBank::new().with_rule(TriggerRule {
        class_group: "any-detection".into(),
        classes: vec![],
        requires_aux: None,
        template: Arc::new(YcsbWorkload::new()),
    }))
}

#[cfg(test)]
mod tests {
    use crate::config::{CroesusConfig, ValidationPolicy};
    use crate::metrics::RunMetrics;
    use crate::system::Croesus;
    use crate::threshold::ThresholdPair;
    use croesus_video::VideoPreset;

    fn run(cfg: &CroesusConfig) -> RunMetrics {
        Croesus::multistage(cfg).run()
    }

    fn quick(preset: VideoPreset, pair: ThresholdPair) -> RunMetrics {
        run(&CroesusConfig::new(preset, pair).with_frames(80))
    }

    #[test]
    fn run_produces_consistent_metrics() {
        let m = quick(VideoPreset::StreetTraffic, ThresholdPair::new(0.4, 0.6));
        assert!(m.f_score > 0.0 && m.f_score <= 1.0);
        assert!(m.bandwidth_utilization >= 0.0 && m.bandwidth_utilization <= 1.0);
        assert!(m.initial_commit_ms > 150.0, "edge detect dominates initial");
        assert!(m.final_commit_ms >= m.initial_commit_ms);
        assert!(m.transactions_committed > 0);
    }

    #[test]
    fn validated_frames_pay_the_cloud_path() {
        let all = quick(VideoPreset::StreetTraffic, ThresholdPair::new(0.0, 0.9));
        let none = quick(VideoPreset::StreetTraffic, ThresholdPair::new(0.5, 0.5));
        assert!(all.bandwidth_utilization > 0.8);
        assert!(none.bandwidth_utilization < 0.1);
        assert!(
            all.final_commit_ms > none.final_commit_ms + 500.0,
            "cloud path ≈1.2s: {} vs {}",
            all.final_commit_ms,
            none.final_commit_ms
        );
        assert!(all.f_score > none.f_score);
    }

    #[test]
    fn initial_commit_is_real_time_regardless_of_validation() {
        let all = quick(VideoPreset::StreetTraffic, ThresholdPair::new(0.0, 0.9));
        // Initial commit stays ~edge-path even when every frame goes to
        // the cloud — the client "has the illusion of both fast and
        // accurate detection".
        assert!(
            all.initial_commit_ms < 300.0,
            "initial {}",
            all.initial_commit_ms
        );
    }

    #[test]
    fn forced_bu_sweep_is_monotone_in_latency() {
        let base =
            CroesusConfig::new(VideoPreset::ParkDog, ThresholdPair::new(0.4, 0.6)).with_frames(60);
        let lo = run(&base
            .clone()
            .with_validation(ValidationPolicy::ForcedBu(0.25)));
        let hi = run(&base
            .clone()
            .with_validation(ValidationPolicy::ForcedBu(1.0)));
        assert!((lo.bandwidth_utilization - 0.25).abs() < 0.05);
        assert!(hi.bandwidth_utilization > 0.95);
        assert!(hi.final_commit_ms > lo.final_commit_ms);
        assert!(hi.f_score >= lo.f_score);
    }

    #[test]
    fn runs_are_reproducible() {
        let a = quick(VideoPreset::MallSurveillance, ThresholdPair::new(0.3, 0.6));
        let b = quick(VideoPreset::MallSurveillance, ThresholdPair::new(0.3, 0.6));
        assert_eq!(a.f_score, b.f_score);
        assert_eq!(a.bandwidth_utilization, b.bandwidth_utilization);
        assert_eq!(a.bytes_sent, b.bytes_sent);
        assert_eq!(a.corrections, b.corrections);
    }

    #[test]
    fn no_pending_frames_leak() {
        let cfg = CroesusConfig::new(VideoPreset::StreetTraffic, ThresholdPair::new(0.3, 0.7))
            .with_frames(40);
        // The deployment drains every frame (validated or local).
        let m = run(&cfg);
        assert!(m.transactions_committed > 0);
    }

    #[test]
    fn cloud_loss_degrades_accuracy_but_never_blocks_commits() {
        let base = CroesusConfig::new(VideoPreset::MallSurveillance, ThresholdPair::new(0.2, 0.8))
            .with_frames(80);
        let healthy = run(&base.clone());
        let lossy = run(&base.clone().with_cloud_loss(1.0));
        assert_eq!(healthy.cloud_timeouts, 0);
        assert!(lossy.cloud_timeouts > 0);
        // With total loss, no frame ever gets corrected.
        assert!(lossy.f_score < healthy.f_score);
        // The guarantee holds: every transaction still finally committed.
        assert!(lossy.transactions_committed > 0);
        // Timeouts dominate latency for validated frames.
        assert!(lossy.final_commit_ms > healthy.final_commit_ms);
    }

    #[test]
    fn partial_cloud_loss_sits_between_extremes() {
        let base = CroesusConfig::new(VideoPreset::StreetTraffic, ThresholdPair::new(0.3, 0.7))
            .with_frames(80);
        let none = run(&base.clone());
        let half = run(&base.clone().with_cloud_loss(0.5));
        let all = run(&base.clone().with_cloud_loss(1.0));
        assert!(half.cloud_timeouts > 0 && half.cloud_timeouts < all.cloud_timeouts);
        assert!(half.f_score <= none.f_score + 1e-9);
        assert!(half.f_score >= all.f_score - 1e-9);
    }

    #[test]
    fn corrections_happen_on_hard_video_with_validation() {
        let m = quick(VideoPreset::MallSurveillance, ThresholdPair::new(0.2, 0.8));
        let c = m.corrections;
        assert!(
            c.corrected + c.erroneous + c.missed > 0,
            "hard video must produce corrections: {c:?}"
        );
    }
}
