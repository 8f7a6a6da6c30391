//! The differential oracle over the configuration lattice: every cell is
//! compared, part by part, with a reference cell that differs from it only
//! in settings that must not change what the system does.
//!
//! Per protocol, at 40 frames:
//!
//! * **`run()` cells** — mode {multi-stage, edge-only, cloud-only} ×
//!   durability {off, strict, group commit, pipelined} × obs {off, on} ×
//!   workers {1, 2, 4}: 72 cells.
//! * **`run_fleet()` cells** — 3 edges × plan {fault-free, the seeded
//!   plans 11 and 23 that `chaos.rs` and `obs_trace.rs` use} × the three
//!   durable modes × obs × workers: 54 cells.
//!
//! The digest, and what each part's reference cell may differ in:
//!
//! | part | cells | digest | reference per |
//! |------|-------|--------|---------------|
//! | (a) | `run()` | the simulated `RunMetrics` fields the per-mode golden pins fix | mode |
//! | (b) | fleet | the `FleetReport`, timeline emptied | plan × durability |
//! | (c) | durable | per edge: the recovered store, unfinalized and apologies-owed counts, and the log's stage records as a sorted multiset of (txn, stage, flags, write keys) | mode or plan × durability |
//! | (d) | observed | `check_obs` passes; per-edge, per-kind event counts, less the six kinds flush timing sets | mode or plan × durability |
//!
//! The reference under each key is the first cell the sweep reaches:
//! `workers(1)` and obs off (for (a), durability off too); for (d) the
//! first observed cell. A kill legitimately loses a different unsynced
//! tail under each flush policy, which is why (b) and (c) are keyed by
//! durability. (c)'s record multiset is the one part that ties each
//! transaction id to what the transaction did, so it is what catches a
//! worker pool that hands out ids in any order but wave order.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use croesus::core::{
    Croesus, CroesusBuilder, DeploymentMode, DurabilityMode, FaultPlan, FleetReport, ProtocolKind,
    RunMetrics, ThresholdPair,
};
use croesus::obs::{check_obs, EventKind, Obs};
use croesus::store::{Key, TxnId, Value};
use croesus::txn::recover_edge_file;
use croesus::wal::{scratch_dir, FrameReader, WalRecord};

const FRAMES: u64 = 40;
const EDGES: usize = 3;
const WORKERS: [usize; 3] = [1, 2, 4];

/// A durability setting: its name in cell labels, and the mode over a
/// cell's scratch directory.
type Policy = (&'static str, fn(&Path) -> DurabilityMode);

/// The durability axis: off first (the reference), then every flush policy.
const DURABILITY: [Policy; 4] = [
    ("off", |_| DurabilityMode::Disabled),
    ("strict", |dir| DurabilityMode::GroupCommit {
        dir: dir.into(),
        group: 1,
    }),
    ("group", |dir| DurabilityMode::group_commit(dir)),
    ("pipelined", |dir| DurabilityMode::pipelined(dir)),
];

/// (a): label; f-score, precision, recall, BU, dollars and the four
/// simulated breakdown components; bytes, commits, timeouts and the four
/// correction counts.
type Simulated = (String, [f64; 9], [u64; 7]);

fn simulated(m: &RunMetrics) -> Simulated {
    let (b, c) = (m.breakdown, m.corrections);
    (
        m.label.clone(),
        [
            m.f_score,
            m.precision,
            m.recall,
            m.bandwidth_utilization,
            m.transfer_dollars,
            b.edge_link_ms,
            b.edge_detect_ms,
            b.cloud_link_ms,
            b.cloud_detect_ms,
        ],
        [
            m.bytes_sent,
            m.transactions_committed,
            m.cloud_timeouts,
            c.correct,
            c.corrected,
            c.erroneous,
            c.missed,
        ],
    )
}

/// (c): one edge's durable image.
#[derive(Debug, PartialEq)]
struct EdgeLog {
    store: Vec<(Key, Arc<Value>)>,
    unfinalized: usize,
    apologies_owed: usize,
    /// (txn, stage, flags, sorted write keys) per stage record, sorted.
    stages: Vec<(TxnId, u32, u8, Vec<Key>)>,
}

fn edge_logs(durability: &DurabilityMode, edges: usize) -> Vec<EdgeLog> {
    (0..edges)
        .map(|i| {
            let path = durability.edge_log_path(i).expect("durability is on");
            let rec = recover_edge_file(&path).expect("the edge log is readable");
            let bytes = std::fs::read(&path).expect("every edge opened its log");
            let mut stages: Vec<_> = FrameReader::new(&bytes)
                .filter_map(|payload| {
                    match WalRecord::decode(payload).expect("a CRC-clean frame decodes") {
                        WalRecord::Stage(r) => {
                            let mut writes = r.writes;
                            writes.sort();
                            Some((r.txn, r.stage, r.flags.0, writes))
                        }
                        _ => None,
                    }
                })
                .collect();
            stages.sort();
            EdgeLog {
                store: rec
                    .store
                    .snapshot()
                    .into_iter()
                    .map(|(k, v)| (k, v.value))
                    .collect(),
                unfinalized: rec.unfinalized.len(),
                apologies_owed: rec.apologies_owed().len(),
                stages,
            }
        })
        .collect()
}

/// Kinds whose counts the flush timing sets: at group 1 two pooled
/// appenders can share one seal, and coalesced syncs vary even inline.
fn flush_timed(kind: EventKind) -> bool {
    matches!(
        kind,
        EventKind::WalBufferSeal { .. }
            | EventKind::WalSync { .. }
            | EventKind::WalCoalescedSync { .. }
            | EventKind::ShipPublish { .. }
            | EventKind::ShipAccept { .. }
            | EventKind::ShipReject
    )
}

/// (d): per-edge, per-kind event counts.
fn event_counts(obs: &Obs) -> BTreeMap<(u32, &'static str), u64> {
    let mut counts = BTreeMap::new();
    for e in obs.events().into_iter().filter(|e| !flush_timed(e.kind)) {
        *counts.entry((e.edge, e.kind.name())).or_default() += 1;
    }
    counts
}

/// Whether `value` equals the reference under `key`; the first value
/// under a key becomes its reference.
fn agrees<T: PartialEq>(refs: &mut BTreeMap<String, T>, key: String, value: T) -> bool {
    match refs.entry(key) {
        Entry::Vacant(slot) => {
            slot.insert(value);
            true
        }
        Entry::Occupied(reference) => *reference.get() == value,
    }
}

#[derive(Default)]
struct Lattice {
    cells: usize,
    /// One line per disagreeing cell, naming the parts that disagree.
    mismatches: Vec<String>,
    simulated: BTreeMap<String, Simulated>,
    reports: BTreeMap<String, FleetReport>,
    logs: BTreeMap<String, Vec<EdgeLog>>,
    counts: BTreeMap<String, BTreeMap<(u32, &'static str), u64>>,
}

impl Lattice {
    /// Every durability × obs × workers cell over `base`, one row of the
    /// lattice: `run()` cells, or `run_fleet()` cells when `fleet`.
    fn sweep(&mut self, row: &str, base: &CroesusBuilder, durability: &[Policy], fleet: bool) {
        for &(policy, mode_in) in durability {
            let key = format!("{row} / {policy}");
            for observed in [false, true] {
                for workers in WORKERS {
                    let dir = scratch_dir("differential");
                    let mode = mode_in(&dir);
                    let obs = Obs::shared();
                    let mut builder = base.clone().durability(mode.clone()).workers(workers);
                    if observed {
                        builder = builder.observe(Arc::clone(&obs));
                    }
                    let deployment = builder.build();
                    let mut bad = Vec::new();
                    if fleet {
                        let mut report = deployment.run_fleet();
                        report.timeline.clear();
                        if !agrees(&mut self.reports, key.clone(), report) {
                            bad.push("(b) fleet report".to_string());
                        }
                    } else {
                        let m = simulated(&deployment.run());
                        if !agrees(&mut self.simulated, row.to_string(), m) {
                            bad.push("(a) simulated metrics".to_string());
                        }
                    }
                    if mode.is_enabled() {
                        let logs = edge_logs(&mode, deployment.num_edges());
                        if !agrees(&mut self.logs, key.clone(), logs) {
                            bad.push("(c) durable image".to_string());
                        }
                    }
                    if observed {
                        if let Err(v) = check_obs(&obs) {
                            bad.push(format!("(d) ordering contract: {v}"));
                        }
                        if !agrees(&mut self.counts, key.clone(), event_counts(&obs)) {
                            bad.push("(d) event counts".to_string());
                        }
                    }
                    if !bad.is_empty() {
                        self.mismatches.push(format!(
                            "{key} obs={observed} workers={workers}: {}",
                            bad.join(", ")
                        ));
                    }
                    self.cells += 1;
                    std::fs::remove_dir_all(&dir).unwrap();
                }
            }
        }
    }
}

fn lattice(kind: ProtocolKind) {
    let mut lattice = Lattice::default();
    let run = Croesus::builder()
        .protocol(kind)
        .thresholds(ThresholdPair::new(0.3, 0.7))
        .frames(FRAMES);
    for mode in [
        DeploymentMode::MultiStage,
        DeploymentMode::EdgeOnly,
        DeploymentMode::CloudOnly,
    ] {
        lattice.sweep(
            &format!("{mode:?}"),
            &run.clone().mode(mode),
            &DURABILITY,
            false,
        );
    }
    // The fleet exactly as `chaos.rs` drives it.
    let fleet = Croesus::builder()
        .protocol(kind)
        .frames(FRAMES)
        .edges(EDGES)
        .failover(true)
        .heartbeat_timeout(3);
    for (plan, faults) in [
        ("fault-free", FaultPlan::new()),
        ("seed 11", FaultPlan::seeded(11, FRAMES, EDGES, 0.06)),
        ("seed 23", FaultPlan::seeded(23, FRAMES, EDGES, 0.06)),
    ] {
        lattice.sweep(plan, &fleet.clone().faults(faults), &DURABILITY[1..], true);
    }
    assert_eq!(lattice.cells, 72 + 54, "{kind}: the whole lattice ran");
    assert!(
        lattice.mismatches.is_empty(),
        "{kind}: {} of {} cells disagree with their reference cell:\n{}",
        lattice.mismatches.len(),
        lattice.cells,
        lattice.mismatches.join("\n")
    );
}

#[test]
fn ms_ia_lattice_agrees_with_its_reference_cells() {
    lattice(ProtocolKind::MsIa);
}

#[test]
fn ms_sr_lattice_agrees_with_its_reference_cells() {
    lattice(ProtocolKind::MsSr);
}

#[test]
fn staged_lattice_agrees_with_its_reference_cells() {
    lattice(ProtocolKind::Staged);
}
