//! The Croesus system (§3 of the paper): a multi-stage edge-cloud
//! video-analytics pipeline co-designed with multi-stage transactions.
//!
//! A frame arrives at the [`edge`] node, which runs the small model,
//! filters detections through the [`threshold`] bands (discard / validate /
//! keep), triggers the matching transactions from the [`bank`], and commits
//! their initial sections immediately — through the
//! [`Executor`](croesus_txn::Executor) of whichever protocol the deployment
//! selected. Frames in the validate band travel to the [`cloud`] node; when
//! the accurate labels return, [`matching`] pairs them with the edge labels
//! and the final sections run — correcting, retracting and apologizing as
//! needed. The [`optimizer`] picks the `(θL, θU)` thresholds that minimize
//! bandwidth subject to an accuracy floor (the §3.4 formulation).
//!
//! The entry point is the [`system`] module's builder, the one way to
//! configure a deployment: every option is a [`CroesusBuilder`] setter,
//! and [`CroesusConfig`] is the plain data it resolves, read back through
//! [`Deployment::config`]:
//!
//! ```
//! use croesus_core::{Croesus, DeploymentMode, ProtocolKind, ThresholdPair};
//! use croesus_video::VideoPreset;
//!
//! let deployment = Croesus::builder()
//!     .preset(VideoPreset::StreetTraffic)
//!     .thresholds(ThresholdPair::new(0.4, 0.6))
//!     .protocol(ProtocolKind::MsIa)   // or MsSr / Staged — same pipeline
//!     .frames(40)
//!     .build();
//! let metrics = deployment.run();
//! assert!(metrics.f_score > 0.0);
//! ```
//!
//! [`DeploymentMode::EdgeOnly`] and [`DeploymentMode::CloudOnly`] give the
//! §5 baselines from the same builder (clone it to compare modes), and
//! [`CroesusBuilder::durability`] switches on per-edge write-ahead
//! logging with apology-aware crash recovery (`croesus_txn::recovery`).

pub mod bank;
pub mod cloud;
pub mod config;
pub mod edge;
pub mod fleet;
pub mod matching;
pub mod metrics;
pub mod optimizer;
pub mod system;
pub mod threshold;
pub mod workload;

pub use bank::{evaluation_bank, TransactionsBank, TriggerRule, TxnInstance, TxnTemplate};
pub use cloud::{CloudNode, ReplicaTailer, TailPoll};
pub use config::{CroesusConfig, ValidationPolicy};
pub use croesus_sim::{FaultEvent, FaultInjector, FaultKind, FaultPlan};
pub use croesus_txn::ProtocolKind;
pub use croesus_wal::DurabilityMode;
pub use edge::{EdgeNode, FinalStage, InitialStage};
pub use fleet::{FleetReport, Takeover};
pub use matching::{match_edge_to_cloud, FinalInput, FrameMatch, LabelVerdict};
pub use metrics::{CorrectionCounts, LatencyBreakdown, MetricsCollector, RunMetrics};
pub use optimizer::{OptimalThresholds, ThresholdEvaluator, ThresholdOutcome};
pub use system::{Croesus, CroesusBuilder, Deployment, DeploymentMode, EDGE_BASELINE_CONFIDENCE};
pub use threshold::{BandDecision, FrameDecision, ThresholdPair};
pub use workload::{HotspotWorkload, YcsbWorkload};
