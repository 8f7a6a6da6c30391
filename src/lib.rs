//! # Croesus
//!
//! A Rust reproduction of *"Croesus: Multi-Stage Processing and Transactions
//! for Video-Analytics in Edge-Cloud Systems"* (ICDE 2022).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`sim`] — deterministic discrete-event simulation, RNG, statistics.
//! * [`video`] — synthetic video scenes and the paper's five video presets.
//! * [`detect`] — simulated CNN detectors (Tiny-YOLOv3 / YOLOv3 profiles)
//!   and accuracy evaluation.
//! * [`store`] — key-value store, lock manager, undo log, partitions.
//! * [`wal`] — per-edge write-ahead log: CRC-framed records, group
//!   commit, checkpoints, crash recovery.
//! * [`txn`] — the multi-stage transaction model behind one `Executor`:
//!   MS-SR (TSPL), MS-IA and the generalized staged discipline as three
//!   lock schedules over a shared `ExecutorCore`, plus apologies,
//!   sequencer, two-phase commit, history checkers, and apology-aware
//!   crash recovery (`txn::recovery`).
//! * [`net`] — edge-cloud network links, payload/compression models, cost.
//! * [`obs`] — structured transaction tracing: a typed event stream on the
//!   simulated frame clock, per-edge ring collectors with latency
//!   histograms, and an executable event-ordering
//!   contract (`obs::check_stream`). Off by default; attach with
//!   `Croesus::builder().observe(..)`.
//! * [`core`] — the Croesus system: the `Croesus` deployment builder
//!   (pipeline + baselines, any protocol, any edge-fleet size), edge/cloud
//!   nodes, transactions bank, bandwidth thresholding, and the threshold
//!   optimizer.
//!
//! See `examples/quickstart.rs` for an end-to-end tour and `DESIGN.md` for
//! the paper-to-module map and the protocol/builder API surface.

pub use croesus_core as core;
pub use croesus_detect as detect;
pub use croesus_net as net;
pub use croesus_obs as obs;
pub use croesus_sim as sim;
pub use croesus_store as store;
pub use croesus_txn as txn;
pub use croesus_video as video;
pub use croesus_wal as wal;
