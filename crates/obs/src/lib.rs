//! # croesus-obs — structured tracing with an executable ordering contract
//!
//! Low-overhead structured observability for the Croesus stack: typed
//! lifecycle [`Event`]s collected into per-edge bounded rings with
//! per-kind counters, plus an [`ordering`] checker that replays a
//! collected stream against the system's happens-before contract and
//! rejects any trace that breaks it.
//!
//! It keeps events and counts only, no histogram or latency statistic:
//! the figures' means are `croesus_sim::OnlineStats` and the lock-hold
//! mean is `croesus_txn::ProtocolStats`'s.
//!
//! Three design rules hold everywhere:
//!
//! 1. **Disabled is free.** Every emission handle is an [`EdgeObs`]
//!    whose disabled form is `None` inside — one branch, no atomics, no
//!    locks — so unobserved runs are byte-identical to uninstrumented
//!    builds on the golden pins.
//! 2. **Sim clock, not wall clock.** Events are stamped with the
//!    simulation frame number and a per-edge sequence number, never
//!    wall time, so traces are deterministic, `Eq`-comparable, and
//!    valid under the mcheck scheduler. The crate reads no wall clock.
//! 3. **The trace is checkable.** [`ordering::check_stream`] is the
//!    contract-as-code: shipped ⊆ durable, begin-before-lifecycle,
//!    retract ⇒ apology, heartbeat-miss ≺ takeover ≺ fence.
//!
//! See `DESIGN.md` § Observability for the taxonomy and the full
//! invariant table.

#![warn(missing_docs)]

pub mod event;
pub mod ordering;
pub mod sink;

pub use event::{Event, EventKind};
pub use ordering::{check_obs, check_stream, OrderingReport, Violation};
pub use sink::{EdgeObs, Obs};
