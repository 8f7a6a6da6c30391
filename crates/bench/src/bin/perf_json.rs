//! Machine-readable perf snapshot: measures the storage/locking hot path,
//! the Fig-6 contention harness, the throughput of each multi-stage
//! protocol through the unified `dyn MultiStageProtocol` API (PR 2), the
//! WAL (PR 3): record append throughput, durable commit throughput per
//! group-commit size (the fsync amortization curve), and recovery replay
//! speed — since PR 9, the wave-parallel worker-pool scaling curve — and,
//! since PR 10, the pipelined writer (sync off the commit path) and the
//! cross-edge coalesced-sync fleet curve.
//! Writes `BENCH_PR10.json` so the perf trajectory is tracked PR over PR
//! (future PRs emit `BENCH_PR<n>.json` next to it; never overwrite an
//! earlier PR's file).
//!
//! Usage:
//!
//! ```text
//! cargo run -p croesus-bench --release --bin perf_json [-- <output-path>] [--quick]
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use croesus_bench::contention::{run_ms_ia, run_ms_sr, run_released_pooled, ContentionConfig};
use croesus_store::{Key, KvStore, LockManager, LockMode, LockPolicy, TxnId, Value};
use croesus_txn::{ExecutorCore, MultiStageProtocolExt, ProtocolKind, RwSet};
use croesus_wal::{
    FileStorage, FlushDriver, StageFlags, StageRecord, SyncCoalescer, Wal, WalConfig, WriteImage,
};

/// Criterion `ns/iter` numbers recorded during PR 1 (median of 3
/// interleaved `CRITERION_QUICK=1` runs): seed code vs. the PR-1 hot-path
/// rework. Kept as data so the trajectory survives even if the old code is
/// gone. For live criterion numbers run the benches with
/// `CRITERION_JSON=<path>`.
const CRITERION_PRE_PR1: &[(&str, f64)] = &[
    ("kv/get_hit", 140.1),
    ("kv/put_overwrite", 155.3),
    ("kv/put_get_delete_fresh", 295.6),
    ("locks/acquire_release_Block", 320.3),
    ("locks/acquire_release_NoWait", 317.5),
    ("locks/acquire_release_WaitDie", 325.6),
    ("locks/acquire_all_10_keys", 3399.6),
    ("undo/log_5_writes_and_rollback", 1550.3),
    ("protocol/tspl_full_txn", 4009.6),
    ("protocol/ms_ia_full_txn", 4846.6),
    ("sequencer/hot_50txn", 14121.5),
    ("sequencer/wide_50txn", 100794.7),
];

const CRITERION_POST_PR1: &[(&str, f64)] = &[
    ("kv/get_hit", 114.9),
    ("kv/put_overwrite", 138.2),
    ("kv/put_get_delete_fresh", 204.6),
    ("locks/acquire_release_Block", 250.4),
    ("locks/acquire_release_NoWait", 252.4),
    ("locks/acquire_release_WaitDie", 250.1),
    ("locks/acquire_all_10_keys", 2565.5),
    ("undo/log_5_writes_and_rollback", 1106.5),
    ("protocol/tspl_full_txn", 3467.7),
    ("protocol/ms_ia_full_txn", 4095.0),
    ("sequencer/hot_50txn", 4721.7),
    ("sequencer/wide_50txn", 28445.3),
];

/// Time `op` in batches until `budget` elapses (after a 10% warm-up);
/// returns operations per second.
fn ops_per_sec(budget: Duration, mut op: impl FnMut()) -> f64 {
    let warm_end = Instant::now() + budget / 10;
    while Instant::now() < warm_end {
        op();
    }
    let start = Instant::now();
    let mut iters = 0u64;
    let mut batch = 64u64;
    loop {
        for _ in 0..batch {
            op();
        }
        iters += batch;
        let elapsed = start.elapsed();
        if elapsed >= budget {
            return iters as f64 / elapsed.as_secs_f64();
        }
        if batch < 1 << 18 {
            batch *= 2;
        }
    }
}

/// Full two-stage transactions per second for one protocol, driven through
/// `dyn MultiStageProtocol` exactly like the pipeline drives it.
fn protocol_txn_per_sec(kind: ProtocolKind, budget: Duration) -> f64 {
    let ex = kind.build(ExecutorCore::new(
        Arc::new(KvStore::new()),
        Arc::new(LockManager::new(LockPolicy::Block)),
    ));
    let rw = RwSet::new()
        .write("a")
        .write("b")
        .write("c")
        .read("d")
        .read("e");
    let stages = [rw.clone(), rw.clone()];
    let mut id = 0u64;
    ops_per_sec(budget, || {
        id += 1;
        let h = ex.begin(TxnId(id), &stages);
        let (_, h) = ex
            .stage(h, &rw, |ctx| {
                ctx.write("a", 1i64)?;
                Ok(())
            })
            .unwrap();
        ex.stage(h.expect("two stages"), &rw, |ctx| {
            ctx.write("b", 2i64)?;
            Ok(())
        })
        .unwrap();
    })
}

/// One WAL stage record shaped like the pipeline's YCSB transactions.
fn wal_stage(txn: u64) -> StageRecord {
    StageRecord {
        txn: TxnId(txn),
        stage: 0,
        total: 2,
        flags: StageFlags(StageFlags::COMMIT_POINT | StageFlags::REGISTER),
        reads: vec![Key::indexed("r", txn % 64)],
        writes: vec![Key::indexed("w", txn % 64)],
        images: vec![
            WriteImage {
                key: Key::indexed("w", txn % 64),
                pre: Some(Arc::new(Value::Int(txn as i64))),
                post: Some(Arc::new(Value::Int(txn as i64 + 1))),
            },
            WriteImage {
                key: Key::indexed("w2", txn % 64),
                pre: None,
                post: Some(Arc::new(Value::Str("payload-string".into()))),
            },
        ],
    }
}

/// Durable commit points per second through the *pipelined* writer over a
/// real file: appends land in the active buffer while the dedicated
/// flusher syncs sealed ones — same group-64 loss window as
/// `commit_file_group64`, without the inline sync stall. The final
/// `flush` (draining every in-flight buffer) is inside the timed window,
/// so every commit counted is durable by the end of it.
fn wal_file_pipelined_commits_per_sec(dir: &std::path::Path, group: usize, n: u64) -> f64 {
    let storage = FileStorage::create(dir.join(format!("perf-pipelined-{group}.wal")))
        .expect("temp dir is writable");
    let wal = Wal::with_storage(
        Box::new(storage),
        WalConfig {
            group_commit: group,
            checkpoint_every: 0,
        },
        FlushDriver::Thread { coalescer: None },
    );
    let start = Instant::now();
    for txn in 1..=n {
        wal.append_stage(wal_stage(txn)).unwrap();
    }
    wal.flush().unwrap();
    n as f64 / start.elapsed().as_secs_f64()
}

/// Aggregate durable commits per second for `edges` pipelined writers
/// sharing one directory (hence one device) and one [`SyncCoalescer`]:
/// every flusher's fsync-equivalent joins a shared device window. Returns
/// the aggregate rate plus the window counters (windows < requests is
/// the coalescing win).
fn coalesced_fleet_commits_per_sec(
    dir: &std::path::Path,
    edges: usize,
    n_per_edge: u64,
) -> (f64, croesus_wal::CoalesceStats) {
    let coalescer = Arc::new(SyncCoalescer::new());
    let wals: Vec<Arc<Wal>> = (0..edges)
        .map(|i| {
            let storage = FileStorage::create(dir.join(format!("fleet-{edges}-{i}.wal")))
                .expect("temp dir is writable");
            Arc::new(Wal::with_storage(
                Box::new(storage),
                WalConfig {
                    group_commit: 64,
                    checkpoint_every: 0,
                },
                FlushDriver::Thread {
                    coalescer: Some(Arc::clone(&coalescer)),
                },
            ))
        })
        .collect();
    let start = Instant::now();
    let handles: Vec<_> = wals
        .iter()
        .map(|wal| {
            let wal = Arc::clone(wal);
            std::thread::spawn(move || {
                for txn in 1..=n_per_edge {
                    wal.append_stage(wal_stage(txn)).unwrap();
                }
                wal.flush().unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let rate = (edges as u64 * n_per_edge) as f64 / start.elapsed().as_secs_f64();
    (rate, coalescer.stats())
}

/// Durable commit points per second at a given group-commit size, against
/// a real file (fsync-bound for small groups — the amortization curve is
/// the point of group commit).
fn wal_file_commits_per_sec(dir: &std::path::Path, group: usize, budget: Duration) -> f64 {
    let wal = Wal::create(
        dir.join(format!("perf-group-{group}.wal")),
        WalConfig {
            group_commit: group,
            checkpoint_every: 0,
        },
    )
    .expect("temp dir is writable");
    let mut txn = 0u64;
    ops_per_sec(budget, || {
        txn += 1;
        wal.append_stage(wal_stage(txn)).unwrap();
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_PR10.json".to_string());
    let budget = if quick {
        Duration::from_millis(120)
    } else {
        Duration::from_millis(600)
    };

    eprintln!("measuring store ops...");
    let store = KvStore::new();
    for i in 0..10_000u64 {
        store.put(Key::indexed("k", i), Value::Int(i as i64));
    }
    let keys: Vec<Key> = (0..10_000u64).map(|i| Key::indexed("k", i)).collect();
    let mut n = 0usize;
    let get_hit = ops_per_sec(budget, || {
        n = (n + 1) % keys.len();
        std::hint::black_box(store.get(&keys[n]));
    });
    let mut m = 0usize;
    let put_overwrite = ops_per_sec(budget, || {
        m = (m + 1) % keys.len();
        std::hint::black_box(store.put(keys[m].clone(), Value::Int(7)));
    });

    eprintln!("measuring lock ops...");
    let lm = LockManager::new(LockPolicy::WaitDie);
    let hot = Key::new("uncontended");
    let acquire_release = ops_per_sec(budget, || {
        lm.lock(TxnId(1), &hot, LockMode::Exclusive).unwrap();
        lm.release(TxnId(1), &hot);
    });
    let batch_pairs: Vec<(Key, LockMode)> = (0..10)
        .map(|i| (Key::indexed("multi", i), LockMode::Exclusive))
        .collect();
    let lm2 = Arc::new(LockManager::new(LockPolicy::Block));
    let acquire_all_batches = ops_per_sec(budget, || {
        lm2.acquire_all(TxnId(1), &batch_pairs, None).unwrap();
        lm2.release_all(TxnId(1), batch_pairs.iter().map(|(k, _)| k));
    });

    eprintln!("measuring per-protocol transaction throughput...");
    let ms_sr_tps = protocol_txn_per_sec(ProtocolKind::MsSr, budget);
    let ms_ia_tps = protocol_txn_per_sec(ProtocolKind::MsIa, budget);
    let staged_tps = protocol_txn_per_sec(ProtocolKind::Staged, budget);

    eprintln!("measuring WAL append / group commit / recovery...");
    let (mem_wal, mem_probe) = Wal::in_memory(WalConfig {
        group_commit: usize::MAX,
        checkpoint_every: 0,
    });
    let mut wtxn = 0u64;
    let wal_append = ops_per_sec(budget, || {
        wtxn += 1;
        mem_wal.append_stage(wal_stage(wtxn)).unwrap();
    });
    let wal_dir = croesus_wal::scratch_dir("perf-json");
    // fsync-bound measurements get a shorter budget; the curve matters,
    // not the absolute precision.
    let sync_budget = budget / 2;
    let wal_file_strict = wal_file_commits_per_sec(&wal_dir, 1, sync_budget);
    let wal_file_group8 = wal_file_commits_per_sec(&wal_dir, 8, sync_budget);
    let wal_file_group64 = wal_file_commits_per_sec(&wal_dir, 64, sync_budget);

    eprintln!("measuring pipelined WAL / coalesced fleet curve...");
    let pipelined_n = if quick { 2_000 } else { 12_000 };
    let wal_file_pipelined = wal_file_pipelined_commits_per_sec(&wal_dir, 64, pipelined_n);
    let fleet_n = if quick { 600 } else { 4_000 };
    let fleet_json = [1usize, 2, 4, 8]
        .iter()
        .map(|&edges| {
            let (rate, stats) = coalesced_fleet_commits_per_sec(&wal_dir, edges, fleet_n);
            format!(
                "      {{\"edges\": {edges}, \"commits_per_sec\": {rate:.0}, \
\"sync_requests\": {}, \"sync_windows\": {}}}",
                stats.requests, stats.windows
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let _ = std::fs::remove_dir_all(&wal_dir);
    // Recovery replay: records per second over the log built above.
    mem_wal.flush().unwrap();
    let replay_bytes = mem_probe.durable();
    let replay_frames = croesus_wal::recover(&replay_bytes).frames as f64;
    let replay_runs = ops_per_sec(budget, || {
        std::hint::black_box(croesus_wal::recover(&replay_bytes).frames);
    });
    let wal_replay_records = replay_runs * replay_frames;

    eprintln!("running Fig-6 contention harness...");
    let mut cfg = ContentionConfig::paper(100);
    if quick {
        cfg.txns = 40;
        cfg.scaled_cloud_wait = Duration::from_micros(1_000);
        cfg.section_work = Duration::from_micros(100);
    }
    let sr = run_ms_sr(&cfg);
    let ia = run_ms_ia(&cfg);

    eprintln!("measuring worker-pool scaling curve...");
    // Wide hot-spot range: waves are broad, so the pool's parallelism —
    // not conflict structure — is what the curve measures. Section work
    // dominates the run, which is the edge's actual shape (detection and
    // validation inside the stage bodies).
    let mut scale_cfg = ContentionConfig::paper(100_000);
    if quick {
        scale_cfg.txns = 64;
        scale_cfg.section_work = Duration::from_micros(200);
    }
    let worker_counts = [1usize, 2, 4, 8];
    let curve: Vec<(usize, f64)> = worker_counts
        .iter()
        .map(|&w| {
            let r = run_released_pooled(ProtocolKind::MsIa, &scale_cfg, w);
            assert_eq!(r.commits as usize, scale_cfg.txns, "pooled run lost txns");
            (w, r.txn_per_sec())
        })
        .collect();
    let base_tps = curve[0].1;
    let scaling_json = curve
        .iter()
        .map(|(w, tps)| {
            format!(
                "    {{\"workers\": {w}, \"txn_per_sec\": {tps:.1}, \"speedup\": {:.2}}}",
                tps / base_tps
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");

    let fmt_pairs = |pairs: &[(&str, f64)]| -> String {
        pairs
            .iter()
            .map(|(id, ns)| format!("      \"{id}\": {ns:.1}"))
            .collect::<Vec<_>>()
            .join(",\n")
    };

    let json = format!(
        r#"{{
  "pr": 10,
  "generated_by": "cargo run -p croesus-bench --release --bin perf_json",
  "quick": {quick},
  "store": {{
    "get_hit_ops_per_sec": {get_hit:.0},
    "put_overwrite_ops_per_sec": {put_overwrite:.0}
  }},
  "locks": {{
    "acquire_release_ops_per_sec": {acquire_release:.0},
    "acquire_all_10_keys_batches_per_sec": {acquire_all_batches:.0},
    "acquire_all_10_keys_locks_per_sec": {locks_per_sec:.0}
  }},
  "protocols": {{
    "note": "full 2-stage txns/sec (5-key rw-set, no cloud wait), each driven through dyn MultiStageProtocol — the unified API introduced in PR 2",
    "ms_sr_txn_per_sec": {ms_sr_tps:.0},
    "ms_ia_txn_per_sec": {ms_ia_tps:.0},
    "staged_txn_per_sec": {staged_tps:.0}
  }},
  "wal": {{
    "note": "PR 3 durability subsystem: append = encode+CRC+shadow-state per stage record (2 write images) into a memory device, never synced; commit_file_groupN = durable commit points/sec against a real file syncing every N commit points (the group-commit amortization curve); replay = recovery records/sec over a 1-commit-point-per-record log",
    "append_stage_ops_per_sec": {wal_append:.0},
    "commit_file_group1_per_sec": {wal_file_strict:.0},
    "commit_file_group8_per_sec": {wal_file_group8:.0},
    "commit_file_group64_per_sec": {wal_file_group64:.0},
    "replay_records_per_sec": {wal_replay_records:.0}
  }},
  "wal_pipelined": {{
    "note": "PR 10 pipelined double-buffered writer: appends take a global monotone LSN in the active buffer while a dedicated flusher syncs sealed ones; commit_file_pipelined = durable commits/sec over a real file at the same group-64 loss window as commit_file_group64 (final drain inside the timed window); fleet_shared_device = N pipelined edges sharing one directory and one SyncCoalescer, aggregate durable commits/sec (sync_windows < sync_requests is the device-level group commit)",
    "commit_file_pipelined_per_sec": {wal_file_pipelined:.0},
    "pipelined_vs_group64_speedup": {pipelined_speedup:.2},
    "fleet_shared_device": [
{fleet_json}
    ]
  }},
  "fig6_contention": {{
    "config": {{"txns": {txns}, "threads": {threads}, "key_range": {key_range}, "updates": {updates}}},
    "ms_sr": {{"avg_lock_hold_ms": {sr_hold:.3}, "abort_rate": {sr_abort:.4}, "commits": {sr_commits}}},
    "ms_ia": {{"avg_lock_hold_ms": {ia_hold:.3}, "abort_rate": {ia_abort:.4}, "commits": {ia_commits}}}
  }},
  "workers_scaling": {{
    "note": "PR 9 wave-parallel edge runtime: MS-IA over a wide hot-spot range ({scale_range} keys, {scale_txns} txns, {scale_work_us}us/section), sequencer waves executed on the per-edge WorkerPool; workers=1 is the inline (historic, byte-identical) path",
    "curve": [
{scaling_json}
    ]
  }},
  "criterion_ns_per_iter_pr1_record": {{
    "note": "frozen historical record measured once during PR 1, NOT re-measured by this binary; for live criterion numbers run the benches with CRITERION_JSON=<path>",
    "pre_pr1_seed": {{
{pre}
    }},
    "post_pr1": {{
{post}
    }}
  }}
}}
"#,
        locks_per_sec = acquire_all_batches * batch_pairs.len() as f64,
        pipelined_speedup = wal_file_pipelined / wal_file_group64,
        scale_range = scale_cfg.key_range,
        scale_txns = scale_cfg.txns,
        scale_work_us = scale_cfg.section_work.as_micros(),
        txns = cfg.txns,
        threads = cfg.threads,
        key_range = cfg.key_range,
        updates = cfg.updates,
        sr_hold = sr.avg_hold_ms,
        sr_abort = sr.abort_rate,
        sr_commits = sr.commits,
        ia_hold = ia.avg_hold_ms,
        ia_abort = ia.abort_rate,
        ia_commits = ia.commits,
        pre = fmt_pairs(CRITERION_PRE_PR1),
        post = fmt_pairs(CRITERION_POST_PR1),
    );

    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("{json}");
    eprintln!("wrote {out_path}");
}
