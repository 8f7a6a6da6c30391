//! The collector: per-edge bounded ring buffers, per-kind counters and
//! named latency histograms behind a cheap handle.
//!
//! [`Obs`] owns one [`EdgeObs`] stream per edge. An `EdgeObs` is the
//! handle threaded through executors, WAL writers and the fleet loop;
//! it is `Clone` (all clones share the edge's stream) and defaults to
//! *disabled* — internally an `Option<Arc<..>>` that is `None`, so the
//! emission macro-path in instrumented code is a single branch and the
//! disabled build stays byte-identical on the golden pins.
//!
//! Events go into a bounded ring (oldest dropped first, with a drop
//! counter so the ordering checker knows the stream was truncated);
//! per-kind counters (kept under the same lock as the ring, so one
//! critical section covers the whole emission) and the atomic
//! histograms never drop.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::event::{Event, EventKind};
use crate::hist::{AtomicHistogram, Quantiles};

/// Default per-edge ring capacity (events kept per edge).
///
/// 16Ki events ≈ 1 MiB per edge — small enough that the ring's cache
/// footprint stays out of the pipeline's way (the enabled-path overhead
/// budget is 5%), large enough to hold the last few hundred frames'
/// worth of transactions for forensics. Counters and histograms never
/// drop regardless; only the event window is bounded.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 14;

/// The named latency/lag histograms every edge stream keeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HistKind {
    /// Frame-ingest → initial (stage-0) commit, milliseconds.
    InitialCommitMs,
    /// Final-stage execution → final commit, milliseconds.
    FinalCommitMs,
    /// One WAL fsync (group commit), milliseconds.
    WalSyncMs,
    /// Source durable bytes minus replica-consumed bytes, sampled per
    /// frame (dimensionless ticks = bytes).
    ShipLagBytes,
    /// Heartbeat-silence frames observed at the moment a takeover
    /// started (dimensionless ticks = frames).
    DetectToTakeoverFrames,
}

impl HistKind {
    /// Stable display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            HistKind::InitialCommitMs => "initial_commit_ms",
            HistKind::FinalCommitMs => "final_commit_ms",
            HistKind::WalSyncMs => "wal_sync_ms",
            HistKind::ShipLagBytes => "ship_lag_bytes",
            HistKind::DetectToTakeoverFrames => "detect_to_takeover_frames",
        }
    }

    /// Whether samples are durations (ms) rather than raw units.
    #[must_use]
    pub fn is_duration(self) -> bool {
        matches!(
            self,
            HistKind::InitialCommitMs | HistKind::FinalCommitMs | HistKind::WalSyncMs
        )
    }

    const COUNT: usize = 5;

    fn index(self) -> usize {
        match self {
            HistKind::InitialCommitMs => 0,
            HistKind::FinalCommitMs => 1,
            HistKind::WalSyncMs => 2,
            HistKind::ShipLagBytes => 3,
            HistKind::DetectToTakeoverFrames => 4,
        }
    }

    /// All kinds, in index order.
    #[must_use]
    pub fn all() -> [HistKind; HistKind::COUNT] {
        [
            HistKind::InitialCommitMs,
            HistKind::FinalCommitMs,
            HistKind::WalSyncMs,
            HistKind::ShipLagBytes,
            HistKind::DetectToTakeoverFrames,
        ]
    }
}

/// Bounded event ring: oldest events are dropped first. The next
/// sequence number lives inside the ring (not a separate atomic) so that
/// seq allocation and insertion are one critical section — ring order
/// always equals seq order, which the ordering checker's `seq-monotone`
/// invariant relies on.
struct Ring {
    cap: usize,
    seq: u64,
    buf: std::collections::VecDeque<Event>,
    dropped: u64,
    // Per-kind totals live here too: the emitter already holds the lock,
    // so plain increments beat a second atomic RMW per event.
    counters: [u64; EventKind::COUNT],
}

impl Ring {
    fn push(&mut self, event: Event) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
    }
}

/// One edge's shared stream state.
struct EdgeInner {
    edge: u32,
    frame: AtomicU64,
    ring: Mutex<Ring>,
    hists: [AtomicHistogram; HistKind::COUNT],
}

impl EdgeInner {
    fn new(edge: u32, cap: usize) -> Self {
        EdgeInner {
            edge,
            frame: AtomicU64::new(0),
            ring: Mutex::new(Ring {
                cap,
                seq: 0,
                // Sized once, up front: growing it while a run emits would
                // bill the reallocations to the enabled path.
                buf: std::collections::VecDeque::with_capacity(cap),
                dropped: 0,
                counters: [0; EventKind::COUNT],
            }),
            hists: std::array::from_fn(|_| AtomicHistogram::new()),
        }
    }
}

/// Cheap per-edge emission handle; `None` inside means disabled.
///
/// Disabled is the default everywhere: every emission site first
/// branches on the `Option`, so an unobserved run does no atomic work,
/// takes no locks and allocates nothing — the golden-pin runs stay
/// byte-identical.
#[derive(Clone, Default)]
pub struct EdgeObs {
    inner: Option<Arc<EdgeInner>>,
}

impl std::fmt::Debug for EdgeObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("EdgeObs(disabled)"),
            Some(inner) => write!(f, "EdgeObs(edge={})", inner.edge),
        }
    }
}

impl EdgeObs {
    /// The no-op handle (the default for every instrumented component).
    #[must_use]
    pub fn disabled() -> Self {
        EdgeObs { inner: None }
    }

    /// A standalone enabled handle for unit tests and benches, not
    /// attached to any [`Obs`] collector.
    #[must_use]
    pub fn standalone(edge: u32) -> Self {
        EdgeObs {
            inner: Some(Arc::new(EdgeInner::new(edge, DEFAULT_RING_CAPACITY))),
        }
    }

    /// Whether events will actually be recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Advance the stream's sim frame clock (called at frame ingest).
    pub fn set_frame(&self, frame: u64) {
        if let Some(inner) = &self.inner {
            inner.frame.store(frame, Ordering::Relaxed);
        }
    }

    /// Current sim frame clock.
    #[must_use]
    pub fn frame(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.frame.load(Ordering::Relaxed))
    }

    /// Emit an event with no transaction id.
    pub fn emit(&self, kind: EventKind) {
        self.emit_opt(None, kind);
    }

    /// Emit an event for transaction `txn`.
    pub fn emit_txn(&self, txn: u64, kind: EventKind) {
        self.emit_opt(Some(txn), kind);
    }

    fn emit_opt(&self, txn: Option<u64>, kind: EventKind) {
        let Some(inner) = &self.inner else { return };
        let mut ring = inner.ring.lock();
        // Read the clock under the ring lock, with the seq: read before it,
        // a flusher thread could stamp a frame older than an event the
        // frame loop sequenced while the flusher waited for the lock.
        let frame = inner.frame.load(Ordering::Relaxed);
        ring.counters[kind.index()] += 1;
        let seq = ring.seq;
        ring.seq += 1;
        ring.push(Event {
            seq,
            frame,
            edge: inner.edge,
            txn,
            kind,
        });
    }

    /// Record a duration sample into one of the edge's histograms.
    pub fn record_duration(&self, hist: HistKind, d: Duration) {
        if let Some(inner) = &self.inner {
            inner.hists[hist.index()].record_duration(d);
        }
    }

    /// Record a dimensionless sample (bytes, frames).
    pub fn record_value(&self, hist: HistKind, value: u64) {
        if let Some(inner) = &self.inner {
            inner.hists[hist.index()].record_value(value);
        }
    }

    /// Snapshot of this edge's event stream, in emission order.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.ring.lock().buf.iter().cloned().collect())
    }

    /// Events dropped from this edge's ring (stream truncated if > 0).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.ring.lock().dropped)
    }

    /// Count of events of `kind` emitted (never truncated).
    #[must_use]
    pub fn count(&self, kind: EventKind) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.ring.lock().counters[kind.index()])
    }

    /// Quantiles of one of the edge's histograms.
    #[must_use]
    pub fn quantiles(&self, hist: HistKind) -> Quantiles {
        self.inner.as_ref().map_or_else(Quantiles::default, |i| {
            let h = &i.hists[hist.index()];
            if hist.is_duration() {
                h.quantiles_ms()
            } else {
                h.quantiles_value()
            }
        })
    }

    /// Samples recorded into one of the edge's histograms.
    #[must_use]
    pub fn hist_count(&self, hist: HistKind) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.hists[hist.index()].count())
    }

    fn inner_hist(&self, hist: HistKind) -> Option<&AtomicHistogram> {
        self.inner.as_ref().map(|i| &i.hists[hist.index()])
    }
}

/// The fleet-wide collector: one [`EdgeObs`] stream per edge.
pub struct Obs {
    cap: usize,
    edges: Mutex<Vec<EdgeObs>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("edges", &self.edges.lock().len())
            .field("ring_capacity", &self.cap)
            .finish()
    }
}

impl Default for Obs {
    fn default() -> Self {
        Self::new()
    }
}

impl Obs {
    /// A collector with the default per-edge ring capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A collector keeping at most `cap` events per edge.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Obs {
            cap: cap.max(1),
            edges: Mutex::new(Vec::new()),
        }
    }

    /// Convenience: a shareable collector.
    #[must_use]
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// The (persistent) stream handle for edge `edge`; creating it on
    /// first use. Re-requesting the same edge returns the *same*
    /// stream, so a replacement node after failover continues the dead
    /// node's sequence numbers.
    #[must_use]
    pub fn edge(&self, edge: usize) -> EdgeObs {
        let mut edges = self.edges.lock();
        while edges.len() <= edge {
            let id = edges.len() as u32;
            edges.push(EdgeObs {
                inner: Some(Arc::new(EdgeInner::new(id, self.cap))),
            });
        }
        edges[edge].clone()
    }

    /// All events, grouped by edge and in per-edge emission order.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        let edges = self.edges.lock().clone();
        let mut out = Vec::new();
        for e in &edges {
            out.extend(e.events());
        }
        out
    }

    /// One edge's events (empty if the edge was never observed).
    #[must_use]
    pub fn edge_events(&self, edge: usize) -> Vec<Event> {
        let edges = self.edges.lock();
        edges.get(edge).map_or_else(Vec::new, EdgeObs::events)
    }

    /// Total events dropped across all edge rings.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        let edges = self.edges.lock().clone();
        edges.iter().map(EdgeObs::dropped).sum()
    }

    /// Fleet-wide count of events of `kind`.
    #[must_use]
    pub fn count(&self, kind: EventKind) -> u64 {
        let edges = self.edges.lock().clone();
        edges.iter().map(|e| e.count(kind)).sum()
    }

    /// Fleet-wide merged quantiles for one histogram kind.
    #[must_use]
    pub fn quantiles(&self, hist: HistKind) -> Quantiles {
        let edges = self.edges.lock().clone();
        let merged = AtomicHistogram::new();
        for e in &edges {
            if let Some(h) = e.inner_hist(hist) {
                merged.merge(h);
            }
        }
        if hist.is_duration() {
            merged.quantiles_ms()
        } else {
            merged.quantiles_value()
        }
    }

    /// Fleet-wide sample count for one histogram kind.
    #[must_use]
    pub fn hist_count(&self, hist: HistKind) -> u64 {
        let edges = self.edges.lock().clone();
        edges.iter().map(|e| e.hist_count(hist)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = EdgeObs::disabled();
        assert!(!obs.is_enabled());
        obs.set_frame(7);
        obs.emit(EventKind::FrameIngest);
        obs.emit_txn(1, EventKind::InitialCommit);
        obs.record_duration(HistKind::WalSyncMs, Duration::from_millis(1));
        assert_eq!(obs.frame(), 0);
        assert!(obs.events().is_empty());
        assert_eq!(obs.count(EventKind::FrameIngest), 0);
        assert_eq!(obs.hist_count(HistKind::WalSyncMs), 0);
    }

    #[test]
    fn events_carry_seq_frame_edge_txn() {
        let obs = EdgeObs::standalone(3);
        obs.set_frame(10);
        obs.emit(EventKind::FrameIngest);
        obs.emit_txn(42, EventKind::TxnBegin { stages: 2 });
        obs.set_frame(11);
        obs.emit_txn(42, EventKind::FinalCommit);
        let events = obs.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[0].frame, 10);
        assert_eq!(events[0].edge, 3);
        assert_eq!(events[0].txn, None);
        assert_eq!(events[1].txn, Some(42));
        assert_eq!(events[2].frame, 11);
        assert_eq!(events[2].seq, 2);
        assert_eq!(obs.count(EventKind::FinalCommit), 1);
    }

    /// Flusher threads emitting while the frame loop advances the clock (a
    /// pipelined WAL's syncs) never stamp an event with a frame older than
    /// one sequenced before it. The race needs a preemption between the
    /// clock read and the ring lock, so the test runs several rounds.
    #[test]
    fn frame_stamps_never_go_backwards_in_seq_order() {
        const FRAMES: u64 = 50_000;
        const FLUSHERS: usize = 3;
        for _ in 0..8 {
            let obs = Obs::with_capacity((FLUSHERS + 1) * FRAMES as usize);
            let edge = obs.edge(0);
            let start = Arc::new(std::sync::Barrier::new(FLUSHERS + 1));
            let flushers: Vec<_> = (0..FLUSHERS)
                .map(|_| {
                    let (edge, start) = (edge.clone(), Arc::clone(&start));
                    std::thread::spawn(move || {
                        start.wait();
                        for _ in 0..FRAMES {
                            edge.emit(EventKind::WalSync { lsn: 0, epoch: 0 });
                        }
                    })
                })
                .collect();
            start.wait();
            for frame in 0..FRAMES {
                edge.set_frame(frame);
                edge.emit(EventKind::FrameIngest);
            }
            for f in flushers {
                f.join().unwrap();
            }
            let events = edge.events();
            assert_eq!(events.len(), (FLUSHERS + 1) * FRAMES as usize);
            if let Some(w) = events.windows(2).find(|w| w[1].frame < w[0].frame) {
                panic!(
                    "seq {} stamped frame {} after {}",
                    w[1].seq, w[1].frame, w[0].frame
                );
            }
        }
    }

    #[test]
    fn ring_drops_oldest_and_counts_truncation() {
        let obs = Obs::with_capacity(4);
        let edge = obs.edge(0);
        for i in 0..10 {
            edge.emit_txn(i, EventKind::InitialCommit);
        }
        let events = edge.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].txn, Some(6));
        assert_eq!(edge.dropped(), 6);
        // Counters never truncate.
        assert_eq!(edge.count(EventKind::InitialCommit), 10);
    }

    #[test]
    fn same_edge_handle_is_shared_across_requests() {
        let obs = Obs::new();
        obs.edge(1).emit(EventKind::TakeoverStart);
        obs.edge(1).emit(EventKind::TakeoverEnd { retractions: 0 });
        let events = obs.edge_events(1);
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].seq, 1, "replacement continues the stream");
    }

    #[test]
    fn fleet_quantiles_merge_edge_histograms() {
        let obs = Obs::new();
        obs.edge(0)
            .record_duration(HistKind::WalSyncMs, Duration::from_millis(2));
        obs.edge(1)
            .record_duration(HistKind::WalSyncMs, Duration::from_millis(8));
        assert_eq!(obs.hist_count(HistKind::WalSyncMs), 2);
        let q = obs.quantiles(HistKind::WalSyncMs);
        assert!(q.p999 > 7.0, "merged p999={}", q.p999);
    }
}
