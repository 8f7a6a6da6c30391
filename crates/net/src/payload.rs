//! Frame payload transforms: the hybrid edge-cloud techniques of §5.2.5.
//!
//! Figure 6(c) evaluates two pre-processing techniques from prior hybrid
//! systems: "(1) compression in which the frame is compressed before
//! sending it to reduce the communication bandwidth and latency, and (2)
//! difference communication in which only the difference between the
//! current frame and a reference frame is sent to the cloud." Both can be
//! layered on the cloud-only baseline or on Croesus.

use croesus_sim::SimDuration;

/// Payload encoding configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PayloadCodec {
    /// Re-compress the frame before sending.
    pub compression: bool,
    /// Send only the difference against a reference frame.
    pub difference: bool,
}

/// Result of encoding a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EncodedPayload {
    /// Bytes actually sent.
    pub bytes: u64,
    /// CPU time spent encoding at the edge.
    pub encode_latency: SimDuration,
}

impl PayloadCodec {
    /// No transform: raw frames.
    pub fn raw() -> Self {
        PayloadCodec::default()
    }

    /// Compression only.
    pub fn compressed() -> Self {
        PayloadCodec {
            compression: true,
            difference: false,
        }
    }

    /// Label as Figure 6(c) prints it, suffixed to a system name.
    pub fn label(&self) -> &'static str {
        match (self.compression, self.difference) {
            (false, false) => "",
            (true, false) => "+compression",
            (false, true) => "+difference",
            (true, true) => "+compression+difference",
        }
    }

    /// Encode a frame of `frame_bytes`. `is_reference` marks frames that
    /// must be sent whole (the first frame, or a scene change): difference
    /// encoding does not apply to them.
    ///
    /// Ratios and CPU costs are calibrated to re-encoding 1080p JPEG-class
    /// frames on a t3a CPU: compression keeps ~55% of the bytes for ~6 ms;
    /// difference encoding keeps ~40% of the (possibly compressed) bytes
    /// for ~4 ms more.
    pub fn encode(&self, frame_bytes: u64, is_reference: bool) -> EncodedPayload {
        let mut bytes = frame_bytes as f64;
        let mut latency_ms = 0.0;
        if self.compression {
            bytes *= 0.55;
            latency_ms += 6.0;
        }
        if self.difference && !is_reference {
            bytes *= 0.40;
            latency_ms += 4.0;
        }
        EncodedPayload {
            bytes: bytes.round() as u64,
            encode_latency: SimDuration::from_millis_f64(latency_ms),
        }
    }

    /// The four configurations compared in Figure 6(c) for each system.
    pub const FIG6C: [PayloadCodec; 3] = [
        PayloadCodec {
            compression: false,
            difference: false,
        },
        PayloadCodec {
            compression: true,
            difference: false,
        },
        PayloadCodec {
            compression: true,
            difference: true,
        },
    ];
}

#[cfg(test)]
impl PayloadCodec {
    /// Compression plus difference encoding.
    pub(crate) fn compressed_difference() -> Self {
        PayloadCodec {
            compression: true,
            difference: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_is_identity() {
        let e = PayloadCodec::raw().encode(150_000, false);
        assert_eq!(e.bytes, 150_000);
        assert_eq!(e.encode_latency, SimDuration::ZERO);
    }

    #[test]
    fn compression_shrinks_and_costs_cpu() {
        let e = PayloadCodec::compressed().encode(150_000, false);
        assert_eq!(e.bytes, 82_500);
        assert!(e.encode_latency.as_millis_f64() > 0.0);
    }

    #[test]
    fn difference_stacks_on_compression() {
        let e = PayloadCodec::compressed_difference().encode(150_000, false);
        assert_eq!(e.bytes, 33_000);
        assert!(
            e.encode_latency
                > PayloadCodec::compressed()
                    .encode(150_000, false)
                    .encode_latency
        );
    }

    #[test]
    fn reference_frames_skip_difference() {
        let c = PayloadCodec::compressed_difference();
        let reference = c.encode(150_000, true);
        let delta = c.encode(150_000, false);
        assert_eq!(reference.bytes, 82_500, "reference compressed only");
        assert!(delta.bytes < reference.bytes);
    }

    #[test]
    fn labels_match_fig6c() {
        assert_eq!(PayloadCodec::raw().label(), "");
        assert_eq!(PayloadCodec::compressed().label(), "+compression");
        assert_eq!(
            PayloadCodec::compressed_difference().label(),
            "+compression+difference"
        );
    }

    #[test]
    fn fig6c_set_is_ordered_by_aggressiveness() {
        let sizes: Vec<u64> = PayloadCodec::FIG6C
            .iter()
            .map(|c| c.encode(100_000, false).bytes)
            .collect();
        assert!(sizes[0] > sizes[1] && sizes[1] > sizes[2]);
    }
}
