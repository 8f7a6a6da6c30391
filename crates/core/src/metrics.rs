//! Run metrics: the per-run quantities the paper's figures report, plus
//! the commit-latency tail.
//!
//! The figure-facing numbers (means, F-score, bandwidth, correction
//! counts) are unchanged from the paper's reporting. On top of them the
//! collector feeds [`croesus_obs::AtomicHistogram`]s for the initial- and
//! final-commit paths, so [`RunMetrics`] carries full p50/p90/p99/p999
//! [`Quantiles`] — the histogram is the only place a percentile comes
//! from; every mean is a Welford [`OnlineStats`].

use croesus_net::BandwidthMeter;
use croesus_obs::{AtomicHistogram, Quantiles};
use croesus_sim::{OnlineStats, SimDuration};

/// Mean per-frame latency of each pipeline component, in milliseconds —
/// the stacked bars of Figure 2.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyBreakdown {
    /// Client→edge frame transfer ("edge latency").
    pub edge_link_ms: f64,
    /// Small-model inference ("edge detection latency").
    pub edge_detect_ms: f64,
    /// Initial transaction sections ("initial transaction latency").
    pub initial_txn_ms: f64,
    /// Edge→cloud transfer and label return ("cloud latency"), averaged
    /// over validated frames.
    pub cloud_link_ms: f64,
    /// Cloud-model inference ("cloud detection latency"), averaged over
    /// validated frames.
    pub cloud_detect_ms: f64,
    /// Final transaction sections ("final transaction latency").
    pub final_txn_ms: f64,
}

impl LatencyBreakdown {
    /// The initial-commit share: what the client sees in real time.
    pub fn initial_commit_ms(&self) -> f64 {
        self.edge_link_ms + self.edge_detect_ms + self.initial_txn_ms
    }
}

/// Counts of final-stage label verdicts over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CorrectionCounts {
    /// Edge labels the cloud confirmed.
    pub correct: u64,
    /// Edge labels with the right box but wrong name (case 3).
    pub corrected: u64,
    /// Edge labels with no real object behind them (case 1).
    pub erroneous: u64,
    /// Cloud labels the edge missed entirely (fresh transactions).
    pub missed: u64,
}

impl CorrectionCounts {
    /// Total verdicts.
    pub fn total(&self) -> u64 {
        self.correct + self.corrected + self.erroneous + self.missed
    }
}

/// The complete result of one run (Croesus or a baseline) over one video.
#[derive(Clone, Debug, PartialEq)]
pub struct RunMetrics {
    /// What ran, e.g. `"croesus v2 (0.4,0.6)"`.
    pub label: String,
    /// Component means.
    pub breakdown: LatencyBreakdown,
    /// Mean latency to initial commit, ms.
    pub initial_commit_ms: f64,
    /// Mean latency to final commit, ms.
    pub final_commit_ms: f64,
    /// Initial-commit latency tail (histogram-derived, bounded relative
    /// error).
    pub initial_commit_quantiles: Quantiles,
    /// Final-commit latency tail (histogram-derived, bounded relative
    /// error).
    pub final_commit_quantiles: Quantiles,
    /// F-score of the client-observed labels against the cloud reference.
    pub f_score: f64,
    /// Precision component.
    pub precision: f64,
    /// Recall component.
    pub recall: f64,
    /// Bandwidth utilization (frames sent / frames processed).
    pub bandwidth_utilization: f64,
    /// Bytes shipped edge→cloud.
    pub bytes_sent: u64,
    /// Transfer cost in dollars.
    pub transfer_dollars: f64,
    /// Transactions whose initial sections the edge's initial stage
    /// committed. The fresh transactions run at the final stage for labels
    /// only the cloud saw are not counted, though an observed trace shows
    /// their `InitialCommit`s too.
    pub transactions_committed: u64,
    /// Validated frames whose cloud labels never arrived (finalized
    /// locally after the timeout).
    pub cloud_timeouts: u64,
    /// Final-stage verdict counts.
    pub corrections: CorrectionCounts,
}

/// Accumulates per-frame observations into a [`RunMetrics`].
#[derive(Debug, Default)]
pub(crate) struct MetricsCollector {
    edge_link: OnlineStats,
    edge_detect: OnlineStats,
    initial_txn: OnlineStats,
    cloud_link: OnlineStats,
    cloud_detect: OnlineStats,
    final_txn: OnlineStats,
    initial_commit: OnlineStats,
    final_commit: OnlineStats,
    initial_commit_hist: AtomicHistogram,
    final_commit_hist: AtomicHistogram,
    pr: croesus_sim::stats::PrecisionRecall,
    corrections: CorrectionCounts,
    transactions: u64,
    cloud_timeouts: u64,
}

impl MetricsCollector {
    /// A fresh collector.
    pub fn new() -> Self {
        MetricsCollector::default()
    }

    /// Record one frame. `cloud` is the `(link, detect)` time of the trip
    /// up and back for a frame that was sent, `None` for one that stayed
    /// at the edge — so the cloud means average over sent frames only.
    pub(crate) fn record_frame(
        &mut self,
        edge_link: SimDuration,
        edge_detect: SimDuration,
        initial_txn: SimDuration,
        cloud: Option<(SimDuration, SimDuration)>,
        final_txn: SimDuration,
    ) {
        self.edge_link.push_duration(edge_link);
        self.edge_detect.push_duration(edge_detect);
        self.initial_txn.push_duration(initial_txn);
        self.final_txn.push_duration(final_txn);
        let initial = edge_link + edge_detect + initial_txn;
        let mut fin = initial + final_txn;
        if let Some((cloud_link, cloud_detect)) = cloud {
            self.cloud_link.push_duration(cloud_link);
            self.cloud_detect.push_duration(cloud_detect);
            fin += cloud_link + cloud_detect;
        }
        self.initial_commit.push_duration(initial);
        self.initial_commit_hist.record_ms(initial.as_millis_f64());
        self.final_commit.push_duration(fin);
        self.final_commit_hist.record_ms(fin.as_millis_f64());
    }

    /// Record a frame's accuracy counts.
    pub(crate) fn record_accuracy(&mut self, pr: croesus_sim::stats::PrecisionRecall) {
        self.pr.add(pr);
    }

    /// Record final-stage verdicts.
    pub(crate) fn record_corrections(
        &mut self,
        correct: u64,
        corrected: u64,
        erroneous: u64,
        missed: u64,
    ) {
        self.corrections.correct += correct;
        self.corrections.corrected += corrected;
        self.corrections.erroneous += erroneous;
        self.corrections.missed += missed;
    }

    /// Record committed transactions.
    pub(crate) fn record_transactions(&mut self, n: u64) {
        self.transactions += n;
    }

    /// Record a validated frame whose cloud labels never arrived.
    pub(crate) fn record_cloud_timeout(&mut self) {
        self.cloud_timeouts += 1;
    }

    /// Produce the final metrics.
    pub fn finish(self, label: String, meter: &BandwidthMeter) -> RunMetrics {
        RunMetrics {
            label,
            breakdown: LatencyBreakdown {
                edge_link_ms: self.edge_link.mean(),
                edge_detect_ms: self.edge_detect.mean(),
                initial_txn_ms: self.initial_txn.mean(),
                cloud_link_ms: self.cloud_link.mean(),
                cloud_detect_ms: self.cloud_detect.mean(),
                final_txn_ms: self.final_txn.mean(),
            },
            initial_commit_ms: self.initial_commit.mean(),
            final_commit_ms: self.final_commit.mean(),
            initial_commit_quantiles: self.initial_commit_hist.quantiles_ms(),
            final_commit_quantiles: self.final_commit_hist.quantiles_ms(),
            f_score: self.pr.f_score(),
            precision: self.pr.precision(),
            recall: self.pr.recall(),
            bandwidth_utilization: meter.bandwidth_utilization(),
            bytes_sent: meter.bytes_sent(),
            transfer_dollars: meter.dollars(),
            transactions_committed: self.transactions,
            cloud_timeouts: self.cloud_timeouts,
            corrections: self.corrections,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use croesus_sim::stats::PrecisionRecall;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    #[test]
    fn edge_frame_composes_latencies() {
        let mut c = MetricsCollector::new();
        c.record_frame(ms(8), ms(190), ms(1), None, ms(1));
        let m = c.finish("edge".into(), &BandwidthMeter::new());
        assert!((m.initial_commit_ms - 199.0).abs() < 1e-9);
        assert!((m.final_commit_ms - 200.0).abs() < 1e-9);
        assert_eq!(m.breakdown.cloud_detect_ms, 0.0);
    }

    #[test]
    fn validated_frame_includes_cloud_path() {
        let mut c = MetricsCollector::new();
        c.record_frame(ms(8), ms(190), ms(1), Some((ms(130), ms(1120))), ms(1));
        let m = c.finish("val".into(), &BandwidthMeter::new());
        assert!((m.final_commit_ms - 1450.0).abs() < 1e-9);
        assert!((m.initial_commit_ms - 199.0).abs() < 1e-9);
        assert!((m.breakdown.initial_commit_ms() - 199.0).abs() < 1e-9);
    }

    #[test]
    fn mixed_frames_average() {
        let mut c = MetricsCollector::new();
        c.record_frame(ms(10), ms(200), ms(0), None, ms(0));
        c.record_frame(ms(10), ms(200), ms(0), Some((ms(100), ms(1000))), ms(0));
        let m = c.finish("mix".into(), &BandwidthMeter::new());
        assert!((m.final_commit_ms - (210.0 + 1310.0) / 2.0).abs() < 1e-9);
        // Cloud components average over validated frames only.
        assert!((m.breakdown.cloud_detect_ms - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn accuracy_aggregates_counts() {
        let mut c = MetricsCollector::new();
        c.record_accuracy(PrecisionRecall {
            tp: 9,
            fp: 1,
            fn_: 0,
        });
        c.record_accuracy(PrecisionRecall {
            tp: 0,
            fp: 0,
            fn_: 1,
        });
        let m = c.finish("acc".into(), &BandwidthMeter::new());
        assert!((m.precision - 0.9).abs() < 1e-12);
        assert!((m.recall - 0.9).abs() < 1e-12);
        assert!(m.f_score > 0.89);
    }

    #[test]
    fn corrections_and_transactions_accumulate() {
        let mut c = MetricsCollector::new();
        c.record_corrections(5, 2, 1, 3);
        c.record_corrections(1, 0, 0, 0);
        c.record_transactions(7);
        let m = c.finish("x".into(), &BandwidthMeter::new());
        assert_eq!(m.corrections.correct, 6);
        assert_eq!(m.corrections.total(), 12);
        assert_eq!(m.transactions_committed, 7);
    }

    #[test]
    fn commit_quantiles_track_the_recorded_tail() {
        let mut c = MetricsCollector::new();
        // 99 fast edge frames and one slow validated frame: the final-
        // commit p99/p999 must land on the slow one, p50 on the fast path.
        for _ in 0..99 {
            c.record_frame(ms(10), ms(190), ms(0), None, ms(0));
        }
        c.record_frame(ms(10), ms(190), ms(0), Some((ms(130), ms(1120))), ms(0));
        let m = c.finish("tail".into(), &BandwidthMeter::new());
        let q = m.final_commit_quantiles;
        assert!((q.p50 - 200.0).abs() / 200.0 < 0.1, "p50={}", q.p50);
        // One slow frame in a hundred: p99 still rides the fast path,
        // p999 must land on the outlier.
        assert!((q.p99 - 200.0).abs() / 200.0 < 0.1, "p99={}", q.p99);
        assert!((q.p999 - 1450.0).abs() / 1450.0 < 0.1, "p999={}", q.p999);
        assert!(q.p50 <= q.p90 && q.p90 <= q.p99 && q.p99 <= q.p999);
        // The exact nearest-rank p99 of these hundred samples is 200 ms:
        // the histogram agrees within its 1/16 bucket error.
        assert!((q.p99 - 200.0).abs() / 200.0 < 1.0 / 16.0, "p99={}", q.p99);
        // Initial commit never includes the cloud leg.
        assert!(m.initial_commit_quantiles.p999 < 250.0);
    }

    #[test]
    fn empty_run_has_zero_quantiles() {
        let m = MetricsCollector::new().finish("empty".into(), &BandwidthMeter::new());
        assert_eq!(m.final_commit_quantiles, croesus_obs::Quantiles::default());
        assert_eq!(m.initial_commit_quantiles.p50, 0.0);
    }

    #[test]
    fn meter_carries_bu_and_cost() {
        let mut meter = BandwidthMeter::new();
        meter.record_processed();
        meter.record_processed();
        meter.record_sent(100, 0.5);
        let m = MetricsCollector::new().finish("bu".into(), &meter);
        assert!((m.bandwidth_utilization - 0.5).abs() < 1e-12);
        assert_eq!(m.bytes_sent, 100);
        assert!((m.transfer_dollars - 0.5).abs() < 1e-12);
    }
}
