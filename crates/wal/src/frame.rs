//! CRC-framed record encoding.
//!
//! Every log record travels inside one frame:
//!
//! ```text
//! ┌──────────┬──────────┬──────────────┐
//! │ len: u32 │ crc: u32 │ payload[len] │   (all integers little-endian)
//! └──────────┴──────────┴──────────────┘
//! ```
//!
//! `crc` is CRC-32 (IEEE) over the payload bytes. A frame whose length
//! header runs past the available bytes, or whose checksum does not match,
//! marks the *torn tail* of the log: a crash mid-write leaves at most one
//! partial frame at the end, and recovery stops there — everything before
//! it is a valid prefix, everything from it on is discarded.

/// Frames larger than this are rejected as corruption rather than read
/// (a garbage length header must not trigger a multi-gigabyte read).
pub const MAX_FRAME_LEN: u32 = 1 << 28;

/// Byte overhead of one frame header.
pub const FRAME_HEADER_LEN: usize = 8;

/// CRC-32 (IEEE, reflected, polynomial `0xEDB88320`) lookup table.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Slicing-by-8 tables: `CRC_SLICES[k][b]` is the CRC contribution of
/// byte `b` followed by `k` zero bytes, so eight table lookups fold eight
/// input bytes at once. `CRC_SLICES[0]` is [`CRC_TABLE`].
const CRC_SLICES: [[u32; 256]; 8] = {
    let mut slices = [CRC_TABLE; 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = slices[k - 1][i];
            slices[k][i] = (prev >> 8) ^ CRC_TABLE[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    slices
};

/// CRC-32 (IEEE) over `bytes`: eight bytes a step, the remainder bytewise.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_SLICES;
    let mut crc = u32::MAX;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// The header that frames `payload`: its length, then its CRC.
#[must_use]
pub(crate) fn frame_header(payload: &[u8]) -> [u8; FRAME_HEADER_LEN] {
    assert!(
        payload.len() <= MAX_FRAME_LEN as usize,
        "WAL record of {} bytes exceeds the {} byte frame limit",
        payload.len(),
        MAX_FRAME_LEN
    );
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    header
}

/// Append one framed payload to `out`. The writer frames in place
/// instead; this is the reference its bytes are tested against.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&frame_header(payload));
    out.extend_from_slice(payload);
}

/// Why frame iteration stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TailState {
    /// The byte stream ended exactly at a frame boundary.
    Clean,
    /// A partial or corrupt frame was found and discarded (torn write).
    Torn,
}

/// Iterator over the valid frame payloads of a log byte stream, stopping
/// at the first partial or corrupt frame.
pub struct FrameReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    tail: TailState,
}

impl<'a> FrameReader<'a> {
    /// Read frames from `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        FrameReader {
            bytes,
            pos: 0,
            tail: TailState::Clean,
        }
    }

    /// How iteration ended (meaningful once `next` has returned `None`).
    #[must_use]
    pub fn tail(&self) -> TailState {
        self.tail
    }

    /// Byte offset of the first unread (or torn) byte.
    #[must_use]
    pub fn offset(&self) -> usize {
        self.pos
    }
}

impl<'a> Iterator for FrameReader<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let rest = &self.bytes[self.pos..];
        if rest.is_empty() {
            return None;
        }
        if rest.len() < FRAME_HEADER_LEN {
            self.tail = TailState::Torn;
            return None;
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if len > MAX_FRAME_LEN || rest.len() - FRAME_HEADER_LEN < len as usize {
            self.tail = TailState::Torn;
            return None;
        }
        let payload = &rest[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len as usize];
        if crc32(payload) != crc {
            self.tail = TailState::Torn;
            return None;
        }
        self.pos += FRAME_HEADER_LEN + len as usize;
        Some(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // The standard check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The one-byte-a-step CRC the sliced loop must reproduce.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn sliced_crc_matches_the_bytewise_oracle() {
        // Pseudo-random bytes (an LCG), so every table index is reached.
        let mut x = 0x9E37_79B9u32;
        let buf: Vec<u8> = (0..72)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 24) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start}, len {len}"
                );
            }
        }
    }

    #[test]
    fn frames_roundtrip() {
        let mut log = Vec::new();
        write_frame(&mut log, b"alpha");
        write_frame(&mut log, b"");
        write_frame(&mut log, b"gamma-gamma");
        let mut r = FrameReader::new(&log);
        assert_eq!(r.next(), Some(&b"alpha"[..]));
        assert_eq!(r.next(), Some(&b""[..]));
        assert_eq!(r.next(), Some(&b"gamma-gamma"[..]));
        assert_eq!(r.next(), None);
        assert_eq!(r.tail(), TailState::Clean);
        assert_eq!(r.offset(), log.len());
    }

    #[test]
    fn truncated_tail_is_torn_and_prefix_survives() {
        let mut log = Vec::new();
        write_frame(&mut log, b"first");
        let boundary = log.len();
        write_frame(&mut log, b"second");
        for cut in boundary + 1..log.len() {
            let mut r = FrameReader::new(&log[..cut]);
            assert_eq!(r.next(), Some(&b"first"[..]), "cut at {cut}");
            assert_eq!(r.next(), None);
            assert_eq!(r.tail(), TailState::Torn);
            assert_eq!(r.offset(), boundary);
        }
    }

    #[test]
    fn corrupt_byte_stops_iteration() {
        let mut log = Vec::new();
        write_frame(&mut log, b"first");
        write_frame(&mut log, b"second");
        let flip = log.len() - 3; // inside the second payload
        log[flip] ^= 0x40;
        let mut r = FrameReader::new(&log);
        assert_eq!(r.next(), Some(&b"first"[..]));
        assert_eq!(r.next(), None);
        assert_eq!(r.tail(), TailState::Torn);
    }

    #[test]
    fn absurd_length_header_is_rejected() {
        let mut log = Vec::new();
        log.extend_from_slice(&u32::MAX.to_le_bytes());
        log.extend_from_slice(&0u32.to_le_bytes());
        log.extend_from_slice(&[0u8; 64]);
        let mut r = FrameReader::new(&log);
        assert_eq!(r.next(), None);
        assert_eq!(r.tail(), TailState::Torn);
    }
}
