//! Figure 6(c): hybrid edge-cloud techniques — compression and difference
//! communication — applied to the cloud baseline and to Croesus, on the
//! park video (v1) with the larger YOLOv3-608 cloud model.

use croesus_bench::{banner, builder, f2, ms, pct, Table, DEFAULT_MU};
use croesus_core::{DeploymentMode, ThresholdPair};
use croesus_detect::ModelKind;
use croesus_net::PayloadCodec;
use croesus_video::VideoPreset;

fn main() {
    banner("Figure 6(c): hybrid techniques (v1, YOLOv3-608)");
    let preset = VideoPreset::ParkDog;

    let base = builder(preset, ThresholdPair::new(0.4, 0.6)).cloud_model(ModelKind::YoloV3_608);
    // Optimal thresholds for v1 under the 608 cloud model.
    let pair = base
        .clone()
        .build()
        .threshold_evaluator()
        .brute_force(DEFAULT_MU, 0.1)
        .pair;

    let mut t = Table::new(&[
        "system",
        "final latency (ms)",
        "bytes sent (MB)",
        "F-score",
        "BU",
    ]);
    for codec in PayloadCodec::FIG6C {
        let m = base
            .clone()
            .codec(codec)
            .mode(DeploymentMode::CloudOnly)
            .build()
            .run();
        t.row(vec![
            format!("cloud{}", codec.label()),
            ms(m.final_commit_ms),
            format!("{:.1}", m.bytes_sent as f64 / 1e6),
            f2(m.f_score),
            pct(m.bandwidth_utilization),
        ]);
    }
    for codec in PayloadCodec::FIG6C {
        let m = base.clone().thresholds(pair).codec(codec).build().run();
        t.row(vec![
            format!("croesus{}", codec.label()),
            ms(m.final_commit_ms),
            format!("{:.1}", m.bytes_sent as f64 / 1e6),
            f2(m.f_score),
            pct(m.bandwidth_utilization),
        ]);
    }
    t.print();
    println!(
        "\n  Paper shape: compression/difference shave transfer time but the improvement is\n  \
         small — cloud detection latency dominates; in isolation the hybrid techniques\n  \
         still pay for every frame, while Croesus cuts the frames themselves."
    );
}
