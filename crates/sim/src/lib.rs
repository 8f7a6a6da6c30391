//! Deterministic simulation substrate for Croesus.
//!
//! The Croesus paper evaluates a distributed edge-cloud deployment on AWS.
//! This crate provides the pieces that let the rest of the workspace
//! reproduce those experiments deterministically on a single machine:
//!
//! * [`time`] — a virtual clock ([`SimTime`]) with microsecond resolution
//!   and a duration type ([`SimDuration`]) with convenient constructors.
//! * [`rng`] — a seedable, forkable random number generator
//!   ([`DetRng`]) so every sampled quantity is a pure function of
//!   `(seed, stream)`.
//! * [`dist`] — the distributions used across the workspace (normal,
//!   Kumaraswamy) implemented from first principles on top of [`DetRng`].
//! * [`stats`] — online mean/variance accumulation ([`OnlineStats`]) and
//!   precision/recall counts for reporting experiment results.
//! * [`fault`] — replayable fault schedules ([`FaultPlan`]) and the
//!   [`FaultInjector`] that drains them, so chaos runs against the edge
//!   fleet are as deterministic as the fault-free ones.

pub mod dist;
pub mod fault;
pub mod rng;
pub mod stats;
pub mod time;

pub use dist::{Distribution, Kumaraswamy, Normal};
pub use fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan};
pub use rng::DetRng;
pub use stats::{OnlineStats, PrecisionRecall};
pub use time::{SimDuration, SimTime};
