//! End-to-end pipeline benchmarks: a whole Croesus run (and the baselines)
//! over a short video. These measure the *simulator's* execution speed —
//! the latencies the pipeline reports are virtual.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use croesus_core::{DeploymentMode, ProtocolKind, ThresholdPair};
use croesus_video::VideoPreset;

fn pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline");
    g.measurement_time(Duration::from_secs(4))
        .warm_up_time(Duration::from_millis(500));
    g.sample_size(10);

    let base =
        croesus_bench::builder(VideoPreset::StreetTraffic, ThresholdPair::new(0.4, 0.6)).frames(60);
    g.bench_function("croesus_60_frames", |b| {
        b.iter(|| black_box(base.clone().build().run()))
    });
    // The protocol axis: the same pipeline under MS-SR and staged.
    for kind in [ProtocolKind::MsSr, ProtocolKind::Staged] {
        let protocol = base.clone().protocol(kind);
        g.bench_function(format!("croesus_60_frames_{kind}"), |b| {
            b.iter(|| black_box(protocol.clone().build().run()))
        });
    }
    let edge_only = base.clone().mode(DeploymentMode::EdgeOnly);
    g.bench_function("edge_only_60_frames", |b| {
        b.iter(|| black_box(edge_only.clone().build().run()))
    });
    let cloud_only = base.mode(DeploymentMode::CloudOnly);
    g.bench_function("cloud_only_60_frames", |b| {
        b.iter(|| black_box(cloud_only.clone().build().run()))
    });
    g.finish();
}

criterion_group!(benches, pipeline);
criterion_main!(benches);
