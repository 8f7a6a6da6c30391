//! Deterministic fault injection for chaos runs.
//!
//! A [`FaultPlan`] is a replayable schedule of failures: each
//! [`FaultEvent`] names a frame, an edge, and what happens to it. Plans
//! are either scripted (the builder API) or generated from a seed via the
//! same [`DetRng`] the rest of the simulation uses — so a chaos run is a
//! pure function of `(workload seed, fault seed)` and any failure it
//! uncovers replays exactly.
//!
//! The [`FaultInjector`] drains the plan frame by frame; the fleet driver
//! (in `croesus-core`) owns the interpretation of each kind:
//!
//! * **Kill** — process death. In-memory state and the unsynced WAL tail
//!   are lost; only synced bytes survive. Triggers failover once the
//!   failure detector times the edge out.
//! * **Stall** — the node freezes (GC pause, overload): it misses
//!   heartbeats but loses nothing. Past the heartbeat timeout it is
//!   indistinguishable from dead and gets deposed; on waking it must be
//!   fenced, not resumed.
//! * **Partition** — the edge→cloud uplink drops for a while. Shipping
//!   and cloud validation stall; the edge itself keeps serving and
//!   finalizes locally (degraded mode). Crucially *not* a failover
//!   trigger here: the authoritative copy is still alive.
//! * **Resurrect** — a killed edge restarts from its durable log.
//! * **CorruptShipment** — one shipped batch is damaged in flight; the
//!   replica must detect (CRC/decode) and refetch.

use crate::rng::DetRng;

/// What happens to an edge (or its uplink).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Process death: everything unsynced is lost.
    Kill,
    /// Freeze for this many frames; no state is lost.
    Stall {
        /// Frames the node stays frozen.
        frames: u64,
    },
    /// Cut the edge→cloud uplink for this many frames.
    Partition {
        /// Frames the uplink stays down.
        frames: u64,
    },
    /// Restart a killed edge from its durable log.
    Resurrect,
    /// Damage the next shipped WAL batch in flight (the source stays
    /// pristine; the replica detects and refetches).
    CorruptShipment,
}

/// One scheduled fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Frame index at which the fault fires (before the frame is
    /// processed).
    pub frame: u64,
    /// The targeted edge.
    pub edge: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// A replayable fault schedule.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults — the control run).
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Script one fault (builder style).
    #[must_use]
    pub fn at(mut self, frame: u64, edge: usize, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { frame, edge, kind });
        self
    }

    /// Generate a plan from a seed: roughly `intensity` faults per edge
    /// per frame (Bernoulli), kinds mixed across kill/stall/partition/
    /// corruption, each kill followed by a resurrect a few frames later.
    /// An edge gets no new fault while a previous one is still playing
    /// out, so generated schedules stay interpretable.
    #[must_use]
    pub fn seeded(seed: u64, frames: u64, edges: usize, intensity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&intensity),
            "intensity is a probability"
        );
        let mut rng = DetRng::new(seed).fork_named("fault-plan");
        let mut plan = FaultPlan::new();
        // Frame index until which each edge is busy with an earlier fault.
        let mut busy_until = vec![0u64; edges];
        for frame in 0..frames {
            for (edge, busy) in busy_until.iter_mut().enumerate() {
                if frame < *busy || !rng.bernoulli(intensity) {
                    continue;
                }
                let kind = match rng.index(4) {
                    0 => FaultKind::Kill,
                    1 => FaultKind::Stall {
                        frames: rng.int_range(2, 6),
                    },
                    2 => FaultKind::Partition {
                        frames: rng.int_range(2, 8),
                    },
                    _ => FaultKind::CorruptShipment,
                };
                plan.events.push(FaultEvent { frame, edge, kind });
                *busy = match kind {
                    FaultKind::Kill => {
                        let back = frame + rng.int_range(3, 9);
                        plan.events.push(FaultEvent {
                            frame: back,
                            edge,
                            kind: FaultKind::Resurrect,
                        });
                        back + 1
                    }
                    FaultKind::Stall { frames } | FaultKind::Partition { frames } => {
                        frame + frames + 1
                    }
                    FaultKind::Resurrect | FaultKind::CorruptShipment => frame + 1,
                };
            }
        }
        plan
    }

    /// The scheduled events (scripted order; the injector sorts by frame).
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Drains a [`FaultPlan`] frame by frame.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    events: Vec<FaultEvent>,
    cursor: usize,
}

impl FaultInjector {
    /// Build over a plan; events are sorted by frame (stable, so two
    /// faults scripted at the same frame fire in scripted order).
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        let mut events = plan.events;
        events.sort_by_key(|e| e.frame);
        FaultInjector { events, cursor: 0 }
    }

    /// Every event due at or before `frame` that has not fired yet.
    pub fn take_due(&mut self, frame: u64) -> Vec<FaultEvent> {
        let start = self.cursor;
        while self.cursor < self.events.len() && self.events[self.cursor].frame <= frame {
            self.cursor += 1;
        }
        self.events[start..self.cursor].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(7, 100, 4, 0.05);
        let b = FaultPlan::seeded(7, 100, 4, 0.05);
        assert_eq!(a.events(), b.events());
        assert!(!a.is_empty(), "5% over 400 edge-frames fires something");
        let c = FaultPlan::seeded(8, 100, 4, 0.05);
        assert_ne!(a.events(), c.events(), "a different seed differs");
    }

    #[test]
    fn every_seeded_kill_gets_a_resurrect() {
        let plan = FaultPlan::seeded(42, 200, 3, 0.1);
        for e in plan.events() {
            if e.kind == FaultKind::Kill {
                assert!(
                    plan.events().iter().any(|r| r.edge == e.edge
                        && r.kind == FaultKind::Resurrect
                        && r.frame > e.frame),
                    "kill at frame {} has no resurrect",
                    e.frame
                );
            }
        }
    }

    #[test]
    fn injector_drains_in_frame_order() {
        let plan = FaultPlan::new()
            .at(5, 1, FaultKind::Kill)
            .at(2, 0, FaultKind::CorruptShipment)
            .at(5, 0, FaultKind::Stall { frames: 2 });
        let mut inj = FaultInjector::new(plan);
        assert!(inj.take_due(1).is_empty());
        let due = inj.take_due(2);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].kind, FaultKind::CorruptShipment);
        let due = inj.take_due(6);
        assert_eq!(due.len(), 2, "both frame-5 events fire together");
        assert_eq!(due[0].edge, 1, "stable order preserves script order");
    }

    #[test]
    fn seeded_faults_do_not_overlap_per_edge() {
        let plan = FaultPlan::seeded(3, 300, 2, 0.2);
        for edge in 0..2 {
            let mut busy_until = 0u64;
            for e in plan.events().iter().filter(|e| e.edge == edge) {
                if e.kind == FaultKind::Resurrect {
                    continue; // paired with its kill, inside the busy span
                }
                assert!(
                    e.frame >= busy_until,
                    "edge {edge}: fault at {} overlaps a fault busy until {busy_until}",
                    e.frame
                );
                busy_until = match e.kind {
                    FaultKind::Stall { frames } | FaultKind::Partition { frames } => {
                        e.frame + frames + 1
                    }
                    _ => e.frame,
                };
            }
        }
    }
}
