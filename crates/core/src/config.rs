//! Run configuration: the plain data a
//! [`CroesusBuilder`](crate::system::CroesusBuilder) produces and
//! [`Deployment::config`](crate::system::Deployment::config) returns.
//!
//! Nothing here sets an option. The builder is the one vocabulary; its
//! `Default` holds the paper's defaults, and the fields no setter reaches
//! (`overlap_threshold`, `low_confidence_filter`, `cloud_timeout_ms`) keep
//! them.

use croesus_detect::ModelKind;
use croesus_net::{PayloadCodec, Setup};
use croesus_video::VideoPreset;

use crate::threshold::ThresholdPair;

/// How the pipeline decides which frames to validate at the cloud.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ValidationPolicy {
    /// Bandwidth thresholding with a `(θL, θU)` pair (§3.4) — the Croesus
    /// mechanism.
    Thresholds(ThresholdPair),
    /// Send a fixed fraction of frames, spread evenly — the "BU
    /// configuration" sweeps of Figure 2. Detections below the default
    /// low-confidence filter are still discarded.
    ForcedBu(f64),
}

impl ValidationPolicy {
    /// For [`ValidationPolicy::ForcedBu`], whether frame `index` is sent:
    /// a deterministic even spread hitting exactly `⌊n·bu⌋` of `n` frames.
    pub(crate) fn forced_send(bu: f64, index: u64) -> bool {
        let bu = bu.clamp(0.0, 1.0);
        ((index + 1) as f64 * bu).floor() > (index as f64 * bu).floor()
    }
}

/// Configuration of one Croesus run, as the builder resolved it.
#[derive(Clone, Debug)]
pub struct CroesusConfig {
    /// The video to process.
    pub preset: VideoPreset,
    /// Number of frames to generate.
    pub num_frames: u64,
    /// Experiment seed: drives scene generation, detections, link jitter
    /// and workload key choice.
    pub seed: u64,
    /// The cloud model (Table 2 varies this; YOLOv3-416 is the default).
    pub cloud_model: ModelKind,
    /// Deployment setup (edge machine class and colocation).
    pub setup: Setup,
    /// Frame validation policy.
    pub validation: ValidationPolicy,
    /// Payload encoding for edge→cloud transfers.
    pub codec: PayloadCodec,
    /// Bounding-box overlap threshold for label matching (10% in §5.1).
    pub overlap_threshold: f64,
    /// Detections below this confidence are dropped by the edge input
    /// processor before triggering anything ("the input processing
    /// component removes any labels ... that have low confidence").
    /// Thresholding policies use θL instead.
    pub low_confidence_filter: f64,
    /// Probability that a validated frame's cloud labels never arrive
    /// (cloud outage / packet loss). The edge then finalizes locally after
    /// `cloud_timeout_ms`, keeping the multi-stage guarantee: initially
    /// committed transactions still finally commit.
    pub cloud_loss_rate: f64,
    /// How long the edge waits for cloud labels before giving up, ms.
    pub cloud_timeout_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forced_bu_hits_exact_fraction() {
        for bu in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let n = 400u64;
            let sent = (0..n)
                .filter(|&i| ValidationPolicy::forced_send(bu, i))
                .count();
            assert_eq!(sent, (n as f64 * bu).floor() as usize, "bu={bu}");
        }
    }

    #[test]
    fn forced_bu_spreads_evenly() {
        let sent: Vec<u64> = (0..100)
            .filter(|&i| ValidationPolicy::forced_send(0.5, i))
            .collect();
        // Every other frame, not the first 50.
        assert!(sent.windows(2).all(|w| w[1] - w[0] == 2));
    }

    #[test]
    fn forced_bu_clamps() {
        assert!(ValidationPolicy::forced_send(1.5, 0));
        assert!(!ValidationPolicy::forced_send(-0.5, 0));
    }
}
