//! Microbenchmarks for the multi-stage transaction protocols, all driven
//! through one `Executor`: the full commit path of each protocol
//! (without the cloud wait — the protocol overhead itself) and the batch
//! sequencer.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use croesus_core::HotspotWorkload;
use croesus_sim::DetRng;
use croesus_store::{KvStore, LockManager, LockPolicy, TxnId};
use croesus_txn::{ExecutorCore, ProtocolKind, RwSet, Sequencer};

fn protocol_commit_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("protocol");
    g.measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));

    let rw = RwSet::new()
        .write("a")
        .write("b")
        .write("c")
        .read("d")
        .read("e");

    // Keep the historical bench ids (tspl_full_txn / ms_ia_full_txn) so
    // the perf trajectory stays comparable across PRs; staged is new.
    let mut id = 0u64;
    for (bench_id, kind) in [
        ("tspl_full_txn", ProtocolKind::MsSr),
        ("ms_ia_full_txn", ProtocolKind::MsIa),
        ("staged_full_txn", ProtocolKind::Staged),
    ] {
        let ex = kind.build(ExecutorCore::new(
            Arc::new(KvStore::new()),
            Arc::new(LockManager::new(LockPolicy::Block)),
        ));
        let stages = [rw.clone(), rw.clone()];
        g.bench_function(bench_id, |b| {
            b.iter(|| {
                id += 1;
                let h = ex.begin(TxnId(id), &stages);
                let (_, h) = ex
                    .stage(h, &rw, |ctx| {
                        ctx.write("a", 1i64)?;
                        Ok(())
                    })
                    .unwrap();
                ex.stage(h.unwrap(), &rw, |ctx| {
                    ctx.write("b", 2i64)?;
                    Ok(())
                })
                .unwrap()
            })
        });
    }
    g.finish();
}

fn sequencer_waves(c: &mut Criterion) {
    let mut g = c.benchmark_group("sequencer");
    g.measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    for (label, key_range) in [("hot_50txn", 100u64), ("wide_50txn", 100_000u64)] {
        let workload = HotspotWorkload {
            key_range,
            updates: 5,
        };
        let mut rng = DetRng::new(1).fork_named("bench");
        let sets: Vec<RwSet> = (0..50).map(|_| workload.rwset(&mut rng)).collect();
        g.bench_function(label, |b| b.iter(|| black_box(Sequencer::waves(&sets))));
    }
    g.finish();
}

criterion_group!(benches, protocol_commit_paths, sequencer_waves);
criterion_main!(benches);
