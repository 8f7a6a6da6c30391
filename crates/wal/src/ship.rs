//! Edge→cloud log shipping: the durable image of an edge's WAL, published
//! for a cloud replica to tail.
//!
//! The shipping contract is deliberately tiny (see DESIGN.md, "Failure
//! model & failover"):
//!
//! * The unit of shipping is the **durable byte image** of the log — the
//!   same CRC-framed bytes `recover()` replays. No second serialization
//!   format exists; the replica runs the very same replay code an
//!   in-place restart would.
//! * A [`ShipCursor`] is `(epoch, offset)`. Within an epoch the log only
//!   grows, so a cursor is a plain byte offset; a checkpoint truncates
//!   the log and **bumps the epoch**, telling the replica to discard its
//!   copy and re-tail from the checkpoint frame (a *restart batch*).
//! * The writer's only publish site, in every durability mode, is the
//!   post-sync section that advances `last_flushed_lsn` (under its state
//!   lock) — so `shipped ⊆ durable` always, and after each publish
//!   `shipped == durable`. The replica can lag; it can never run ahead of
//!   what a crash would preserve.
//!
//! Fault injection lives here too, because this is the edge→cloud link
//! the chaos harness perturbs: [`LogShipper::set_offline`] makes fetches
//! fail (a partitioned uplink — the source keeps accumulating), and
//! [`LogShipper::corrupt_next_fetch`] flips a byte in the *next fetched
//! copy only* — the pristine source image is untouched, modelling a
//! transfer error the replica must detect (CRC / decode) and refetch.

use std::sync::Mutex;

/// A replica's position in an edge's shipped log.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShipCursor {
    /// Checkpoint epoch of the source log the cursor is valid for.
    pub epoch: u64,
    /// Bytes of that epoch's log already consumed.
    pub offset: usize,
}

/// One fetched batch of log bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShipBatch {
    /// The source epoch these bytes belong to.
    pub epoch: u64,
    /// True when the source checkpointed past the caller's cursor: the
    /// bytes are the *whole* new log and replace the replica's copy.
    pub restart: bool,
    /// Frame-aligned log bytes starting at the caller's offset (or at 0
    /// for a restart batch).
    pub bytes: Vec<u8>,
}

/// The outcome of a fetch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShipFetch {
    /// The cursor is at the durable frontier — nothing new.
    UpToDate,
    /// New bytes (or a restart after a checkpoint).
    Batch(ShipBatch),
    /// The uplink is down; try again later. The source keeps the bytes.
    Offline,
}

#[derive(Debug, Default)]
struct ShipperInner {
    epoch: u64,
    log: Vec<u8>,
    offline: bool,
    corrupt_next: bool,
}

/// The shipping endpoint an edge's [`Wal`](crate::Wal) publishes into and
/// a cloud replica fetches from. Shared as `Arc<LogShipper>`.
#[derive(Debug, Default)]
pub struct LogShipper {
    inner: Mutex<ShipperInner>,
}

impl LogShipper {
    /// A fresh shipper at epoch 0 with an empty log.
    #[must_use]
    pub fn new() -> Self {
        LogShipper::default()
    }

    /// Append newly-durable frame bytes to the current epoch's image.
    /// Called by the writer strictly after the sync that made `bytes`
    /// durable, under its state lock.
    pub fn publish(&self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        self.inner.lock().unwrap().log.extend_from_slice(bytes);
    }

    /// The source checkpointed: bump the epoch and replace the image with
    /// `initial` (the framed checkpoint record). Replicas holding an older
    /// epoch's cursor get a restart batch on their next fetch.
    pub fn restart_epoch(&self, initial: &[u8]) {
        let mut inner = self.inner.lock().unwrap();
        inner.epoch += 1;
        inner.log.clear();
        inner.log.extend_from_slice(initial);
    }

    /// Fetch everything past `cursor`. A cursor from an older epoch gets
    /// the whole current image as a restart batch.
    #[must_use]
    pub fn fetch(&self, cursor: ShipCursor) -> ShipFetch {
        let mut inner = self.inner.lock().unwrap();
        if inner.offline {
            return ShipFetch::Offline;
        }
        let (restart, from) = if cursor.epoch == inner.epoch {
            if cursor.offset >= inner.log.len() {
                return ShipFetch::UpToDate;
            }
            (false, cursor.offset)
        } else {
            (true, 0)
        };
        let mut bytes = inner.log[from..].to_vec();
        if inner.corrupt_next && !bytes.is_empty() {
            // A transfer fault: flip one bit in the fetched *copy*. The
            // source image stays pristine, so a refetch after the replica
            // rejects this batch succeeds.
            inner.corrupt_next = false;
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
        }
        ShipFetch::Batch(ShipBatch {
            epoch: inner.epoch,
            restart,
            bytes,
        })
    }

    /// Cut or restore the uplink (partition fault).
    pub fn set_offline(&self, offline: bool) {
        self.inner.lock().unwrap().offline = offline;
    }

    /// Whether the uplink is currently cut.
    #[must_use]
    pub fn is_offline(&self) -> bool {
        self.inner.lock().unwrap().offline
    }

    /// Corrupt the next non-empty fetch (one transfer error).
    pub fn corrupt_next_fetch(&self) {
        self.inner.lock().unwrap().corrupt_next = true;
    }

    /// Current epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.inner.lock().unwrap().epoch
    }

    /// Bytes in the current epoch's image.
    #[must_use]
    pub fn shipped_len(&self) -> usize {
        self.inner.lock().unwrap().log.len()
    }

    /// A copy of the current epoch's full image (what a brand-new replica
    /// would fetch) — also handy for byte-identical recovery assertions.
    #[must_use]
    pub fn image(&self) -> Vec<u8> {
        self.inner.lock().unwrap().log.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tailing_sees_exactly_the_published_bytes() {
        let s = LogShipper::new();
        let mut cursor = ShipCursor::default();
        assert_eq!(s.fetch(cursor), ShipFetch::UpToDate);

        s.publish(b"aaaa");
        let ShipFetch::Batch(b) = s.fetch(cursor) else {
            panic!("expected a batch");
        };
        assert_eq!(
            (b.epoch, b.restart, b.bytes.as_slice()),
            (0, false, &b"aaaa"[..])
        );
        cursor.offset += b.bytes.len();

        s.publish(b"bb");
        let ShipFetch::Batch(b) = s.fetch(cursor) else {
            panic!("expected a batch");
        };
        assert_eq!(b.bytes, b"bb");
        cursor.offset += b.bytes.len();
        assert_eq!(s.fetch(cursor), ShipFetch::UpToDate);
        assert_eq!(s.image(), b"aaaabb");
    }

    #[test]
    fn checkpoint_bumps_the_epoch_and_restarts_the_tail() {
        let s = LogShipper::new();
        s.publish(b"old-log");
        let cursor = ShipCursor {
            epoch: 0,
            offset: 7,
        };
        s.restart_epoch(b"cp");
        let ShipFetch::Batch(b) = s.fetch(cursor) else {
            panic!("expected a restart batch");
        };
        assert!(b.restart);
        assert_eq!(b.epoch, 1);
        assert_eq!(b.bytes, b"cp");
    }

    #[test]
    fn offline_fails_the_fetch_but_keeps_the_bytes() {
        let s = LogShipper::new();
        s.publish(b"xyz");
        s.set_offline(true);
        assert_eq!(s.fetch(ShipCursor::default()), ShipFetch::Offline);
        s.set_offline(false);
        let ShipFetch::Batch(b) = s.fetch(ShipCursor::default()) else {
            panic!("back online");
        };
        assert_eq!(b.bytes, b"xyz");
    }

    #[test]
    fn corruption_hits_one_fetch_only() {
        let s = LogShipper::new();
        s.publish(b"pristine");
        s.corrupt_next_fetch();
        let ShipFetch::Batch(bad) = s.fetch(ShipCursor::default()) else {
            panic!()
        };
        assert_ne!(bad.bytes, b"pristine", "the fetched copy was damaged");
        let ShipFetch::Batch(good) = s.fetch(ShipCursor::default()) else {
            panic!()
        };
        assert_eq!(good.bytes, b"pristine", "the source was untouched");
    }
}
