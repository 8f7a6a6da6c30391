//! Cross-crate integration tests: the full Croesus pipeline against the
//! baselines, across the paper's video presets.

use croesus::core::{
    Croesus, CroesusBuilder, DeploymentMode, ProtocolKind, RunMetrics, ThresholdPair,
    ValidationPolicy,
};
use croesus::detect::ModelKind;
use croesus::net::{Colocation, EdgeClass, Setup};
use croesus::video::VideoPreset;

const FRAMES: u64 = 120;

fn cfg(preset: VideoPreset, pair: ThresholdPair) -> CroesusBuilder {
    Croesus::builder()
        .preset(preset)
        .thresholds(pair)
        .frames(FRAMES)
}

fn run_croesus(config: CroesusBuilder) -> RunMetrics {
    config.build().run()
}

fn run_edge_only(config: CroesusBuilder) -> RunMetrics {
    config.mode(DeploymentMode::EdgeOnly).build().run()
}

fn run_cloud_only(config: CroesusBuilder) -> RunMetrics {
    config.mode(DeploymentMode::CloudOnly).build().run()
}

#[test]
fn protocol_matrix_agrees_on_accuracy_and_bandwidth() {
    // The unified API's promise: the consistency protocol changes *how*
    // transactions commit, not what the client sees of the video pipeline.
    let base = cfg(VideoPreset::StreetTraffic, ThresholdPair::new(0.3, 0.7));
    let reference = run_croesus(base.clone());
    for kind in [ProtocolKind::MsSr, ProtocolKind::Staged] {
        let m = run_croesus(base.clone().protocol(kind));
        assert_eq!(m.f_score, reference.f_score, "{kind}");
        assert_eq!(m.bytes_sent, reference.bytes_sent, "{kind}");
        assert!(m.transactions_committed > 0, "{kind}");
    }
}

#[test]
fn croesus_beats_edge_accuracy_on_every_video() {
    for preset in VideoPreset::FIG2 {
        let pair = ThresholdPair::new(0.3, 0.7);
        let croesus = run_croesus(cfg(preset, pair));
        let edge = run_edge_only(cfg(preset, pair));
        assert!(
            croesus.f_score >= edge.f_score,
            "{preset:?}: croesus {} < edge {}",
            croesus.f_score,
            edge.f_score
        );
    }
}

#[test]
fn croesus_initial_commit_matches_edge_latency() {
    for preset in [VideoPreset::StreetTraffic, VideoPreset::MallSurveillance] {
        let croesus = run_croesus(cfg(preset, ThresholdPair::new(0.2, 0.8)));
        let edge = run_edge_only(cfg(preset, ThresholdPair::new(0.2, 0.8)));
        let diff = (croesus.initial_commit_ms - edge.initial_commit_ms).abs();
        assert!(
            diff < 30.0,
            "{preset:?}: initial commits should track the edge baseline (diff {diff} ms)"
        );
    }
}

#[test]
fn croesus_final_latency_sits_between_edge_and_cloud() {
    let preset = VideoPreset::StreetTraffic;
    let pair = ThresholdPair::new(0.4, 0.6);
    let croesus = run_croesus(cfg(preset, pair));
    let edge = run_edge_only(cfg(preset, pair));
    let cloud = run_cloud_only(cfg(preset, pair));
    assert!(croesus.final_commit_ms > edge.final_commit_ms);
    assert!(croesus.final_commit_ms < cloud.final_commit_ms);
}

#[test]
fn full_bu_croesus_costs_more_than_cloud_baseline() {
    // §5.2.1: "When BU is 100%, the total cloud latency for Croesus becomes
    // even higher than state-of-the-art cloud" — it pays both paths.
    let preset = VideoPreset::ParkDog;
    let base = cfg(preset, ThresholdPair::new(0.4, 0.6));
    let croesus = run_croesus(base.clone().validation(ValidationPolicy::ForcedBu(1.0)));
    let cloud = run_cloud_only(base);
    assert!(
        croesus.final_commit_ms > cloud.final_commit_ms,
        "croesus@100% {} vs cloud {}",
        croesus.final_commit_ms,
        cloud.final_commit_ms
    );
    assert!((croesus.f_score - 1.0).abs() < 1e-9, "all frames validated");
}

#[test]
fn bandwidth_utilization_tracks_validation_policy() {
    let preset = VideoPreset::StreetTraffic;
    for bu in [0.0, 0.5, 1.0] {
        let m = run_croesus(
            cfg(preset, ThresholdPair::new(0.4, 0.6)).validation(ValidationPolicy::ForcedBu(bu)),
        );
        assert!(
            (m.bandwidth_utilization - bu).abs() < 0.02,
            "target {bu}, got {}",
            m.bandwidth_utilization
        );
    }
}

#[test]
fn evaluator_prediction_matches_pipeline_measurement() {
    // The optimizer's fast surface evaluation and the full pipeline must
    // agree: a deployment's evaluator runs its own models over its own
    // frames and decides each frame as the frame loop does. Every Figure 2
    // video × every Figure 3 pair × two cloud models.
    let pairs = [
        (0.5, 0.5),
        (0.5, 0.6),
        (0.5, 0.7),
        (0.6, 0.7),
        (0.4, 0.6),
        (0.3, 0.7),
        (0.2, 0.8),
        (0.1, 0.9),
    ];
    for preset in VideoPreset::FIG2 {
        for kind in [ModelKind::YoloV3_416, ModelKind::YoloV3_608] {
            for (lo, hi) in pairs {
                let pair = ThresholdPair::new(lo, hi);
                let d = cfg(preset, pair).cloud_model(kind).build();
                let predicted = d.threshold_evaluator().evaluate(pair);
                let measured = d.run();
                let at = format!("{preset:?} {kind:?} ({lo}, {hi})");
                assert!(
                    (predicted.bu - measured.bandwidth_utilization).abs() < 1e-9,
                    "{at} BU: predicted {} measured {}",
                    predicted.bu,
                    measured.bandwidth_utilization
                );
                assert!(
                    (predicted.f_score - measured.f_score).abs() < 1e-9,
                    "{at} F: predicted {} measured {}",
                    predicted.f_score,
                    measured.f_score
                );
            }
        }
    }
}

#[test]
fn colocated_cloud_cuts_final_latency() {
    let preset = VideoPreset::StreetTraffic;
    let pair = ThresholdPair::new(0.2, 0.8);
    let far = run_croesus(cfg(preset, pair).setup(Setup {
        edge: EdgeClass::Xlarge,
        colocation: Colocation::CrossCountry,
    }));
    let near = run_croesus(cfg(preset, pair).setup(Setup {
        edge: EdgeClass::Xlarge,
        colocation: Colocation::SameLocation,
    }));
    assert!(
        far.final_commit_ms > near.final_commit_ms + 50.0,
        "far {} near {}",
        far.final_commit_ms,
        near.final_commit_ms
    );
    // Accuracy is a property of the models, not the network.
    assert!((far.f_score - near.f_score).abs() < 0.02);
}

#[test]
fn small_edge_slows_initial_commit_only() {
    let preset = VideoPreset::ParkDog;
    let pair = ThresholdPair::new(0.4, 0.6);
    let small = run_croesus(cfg(preset, pair).setup(Setup {
        edge: EdgeClass::Small,
        colocation: Colocation::CrossCountry,
    }));
    let regular = run_croesus(cfg(preset, pair).setup(Setup {
        edge: EdgeClass::Xlarge,
        colocation: Colocation::CrossCountry,
    }));
    assert!(
        small.initial_commit_ms > regular.initial_commit_ms * 1.8,
        "small {} regular {}",
        small.initial_commit_ms,
        regular.initial_commit_ms
    );
    // The cloud detection share is identical.
    assert!((small.breakdown.cloud_detect_ms - regular.breakdown.cloud_detect_ms).abs() < 30.0);
}

#[test]
fn transfer_cost_scales_with_bu() {
    let preset = VideoPreset::StreetTraffic;
    let base = cfg(preset, ThresholdPair::new(0.4, 0.6));
    let half = run_croesus(base.clone().validation(ValidationPolicy::ForcedBu(0.5)));
    let full = run_croesus(base.validation(ValidationPolicy::ForcedBu(1.0)));
    assert!(full.transfer_dollars > half.transfer_dollars * 1.8);
    assert!(full.bytes_sent > half.bytes_sent * 18 / 10);
}
