//! Network substrate.
//!
//! The paper's deployments place the edge in California and the cloud in
//! Virginia (or co-located), on t3a-class machines (§5.1). This crate
//! models the links between client, edge and cloud:
//!
//! * [`link`] — a link with a propagation-delay distribution, bandwidth,
//!   and per-GB monetary cost; transfer latency = propagation +
//!   serialization.
//! * [`topology`] — the four deployment setups of Figure 4 ({small,
//!   regular edge} × {same, different location}) as presets.
//! * [`payload`] — frame payload transforms: the compression and
//!   difference-encoding hybrid techniques of §5.2.5 / Figure 6(c).
//! * [`meter`] — bandwidth-utilization and monetary-cost accounting (§3.4
//!   motivates thresholding with exactly these costs).

pub mod link;
pub mod meter;
pub mod payload;
pub mod topology;

pub use link::Link;
pub use meter::BandwidthMeter;
pub use payload::PayloadCodec;
pub use topology::{Colocation, EdgeClass, Setup, Topology};
