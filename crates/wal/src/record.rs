//! Log record types and their binary codec.
//!
//! One frame carries one [`WalRecord`]. A whole executed *stage* — its
//! write images and its commit metadata — is a single [`StageRecord`]
//! frame, so recovery never sees half a stage: a frame either decodes
//! completely or marks the torn tail.
//!
//! Commit-point semantics are per protocol (§4 of the paper):
//!
//! * MS-IA and the staged discipline reach a durable commit point at
//!   **every** stage ([`StageFlags::COMMIT_POINT`] on each record; stage 0
//!   is the initial commit the client already saw).
//! * MS-SR reaches its only durable commit point at **final commit** —
//!   earlier stages are logged without the flag and their writes stay
//!   buffered during replay, because locks hid them from every other
//!   transaction and a crash simply un-happens them.
//!
//! [`StageFlags::REGISTER`] marks a stage whose footprint was registered
//! with the apology manager as a retractable guess; recovery rebuilds
//! exactly those entries.

use std::sync::Arc;

use croesus_store::{Key, TxnId, Value};

/// Decoding failure: the payload did not parse as a record. Carries the
/// reason for diagnostics; recovery treats any decode failure as
/// corruption at that frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError(pub &'static str);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WAL record decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

type DecodeResult<T> = Result<T, DecodeError>;

/// Bit flags on a [`StageRecord`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageFlags(pub u8);

impl StageFlags {
    /// This stage is a durable commit point: replay applies the
    /// transaction's buffered writes when it sees this record.
    pub const COMMIT_POINT: u8 = 0b001;
    /// This stage is the transaction's final stage.
    pub const FINAL: u8 = 0b010;
    /// This stage's footprint was registered with the apology manager as a
    /// retractable guess.
    pub const REGISTER: u8 = 0b100;

    /// Whether the commit-point bit is set.
    #[must_use]
    pub fn commit_point(self) -> bool {
        self.0 & Self::COMMIT_POINT != 0
    }

    /// Whether the final bit is set.
    #[must_use]
    pub fn is_final(self) -> bool {
        self.0 & Self::FINAL != 0
    }

    /// Whether the register bit is set.
    #[must_use]
    pub fn register(self) -> bool {
        self.0 & Self::REGISTER != 0
    }
}

/// One write performed by a stage: the key, its pre-image (for undo /
/// retraction) and its post-image (for redo). `post = None` is a delete.
#[derive(Clone, Debug, PartialEq)]
pub struct WriteImage {
    /// The written key.
    pub key: Key,
    /// Value before the stage's first write to the key (None = absent).
    pub pre: Option<Arc<Value>>,
    /// Value after the stage (None = the stage deleted the key).
    pub post: Option<Arc<Value>>,
}

/// One executed stage of a multi-stage transaction.
#[derive(Clone, Debug, PartialEq)]
pub struct StageRecord {
    /// The transaction.
    pub txn: TxnId,
    /// 0-based stage index.
    pub stage: u32,
    /// Total stages declared at `begin`.
    pub total: u32,
    /// Commit-point / final / register flags.
    pub flags: StageFlags,
    /// Declared read set (the retraction cascade is computed from these).
    pub reads: Vec<Key>,
    /// Declared write set.
    pub writes: Vec<Key>,
    /// The writes actually performed, in execution order.
    pub images: Vec<WriteImage>,
}

/// The retraction of one apology-manager entry: the store restores that
/// were applied (in rollback order), logged so replay repeats the exact
/// mutations instead of re-deriving them.
#[derive(Clone, Debug, PartialEq)]
pub struct RetractRecord {
    /// The retracted transaction.
    pub txn: TxnId,
    /// `(key, restored value)` in the order the rollback applied them;
    /// `None` deletes the key.
    pub restores: Vec<(Key, Option<Arc<Value>>)>,
}

/// A log record — one per frame.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// One executed stage (writes + commit metadata, atomically).
    Stage(StageRecord),
    /// One apology-manager entry retracted (with its store restores).
    Retract(RetractRecord),
    /// The 2PC coordinator's phase-1 decision for a cross-partition
    /// transaction, logged before any participant enters phase 2. After a
    /// coordinator crash, recovery reads this record to finish phase 2
    /// instead of leaving participants in doubt (§4.5).
    TpcDecision {
        /// The distributed transaction.
        txn: TxnId,
        /// True = commit everywhere, false = abort everywhere.
        commit: bool,
    },
    /// A checkpoint: the full recovery state at a moment in time. The log
    /// is truncated to just this record, bounding replay work.
    Checkpoint(Box<CheckpointRecord>),
    /// A settle point: the edge was quiescent (no frame in flight) and
    /// dropped every registered apology entry — finalized guesses included
    /// — because no retraction can reach back past a quiescent boundary.
    /// Replay drops the same entries, so shadow state and checkpoints stay
    /// bounded however long the run (the settle-and-prune pass).
    Settle,
    /// The 2PC coordinator finished phase 2 for `txn`: every participant
    /// acked. The decision entry can be dropped from the shadow state —
    /// nobody can be in doubt about a transaction whose phase 2 completed.
    /// Not synced on its own: losing it re-runs an idempotent phase 2.
    TpcEnd {
        /// The finished distributed transaction.
        txn: TxnId,
    },
}

/// Serialized recovery state (see `recover::RecoveryState`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CheckpointRecord {
    /// Committed store contents at the checkpoint (pending uncommitted
    /// MS-SR writes are overlaid back to their pre-images before
    /// snapshotting), in canonical order: ascending cached FNV-1a key
    /// hash, then key.
    pub store: Vec<(Key, Arc<Value>)>,
    /// Per-transaction replay state (settled transactions are pruned).
    pub txns: Vec<CheckpointTxn>,
    /// Next apology-entry sequence number.
    pub next_seq: u64,
    /// Running count of finalized transactions.
    pub finalized: u64,
    /// Coordinator decisions not yet resolved.
    pub tpc: Vec<(TxnId, bool)>,
    /// Next transaction id the edge would assign (so a replacement node
    /// taking over the partition continues the id sequence instead of
    /// colliding with ids the dead edge already used).
    pub next_txn: u64,
}

/// One transaction's state inside a checkpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointTxn {
    /// The transaction.
    pub txn: TxnId,
    /// Writes logged but not yet covered by a commit point.
    pub pending: Vec<WriteImage>,
    /// Registered (retractable) entries, in registration order.
    pub entries: Vec<CheckpointEntry>,
    /// Whether any commit point was reached.
    pub initial_committed: bool,
    /// Whether the final stage committed.
    pub finalized: bool,
}

/// One registered apology entry inside a checkpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointEntry {
    /// Registration sequence number (cascade ordering).
    pub seq: u64,
    /// Whether this entry was already retracted (a later stage of the
    /// same transaction may register *new* live entries afterwards, so
    /// retraction is per entry, not per transaction — mirroring the
    /// live `ApologyManager`).
    pub retracted: bool,
    /// Declared reads.
    pub reads: Vec<Key>,
    /// Declared writes.
    pub writes: Vec<Key>,
    /// Undo pre-images, first-write-wins, in record order.
    pub undo: Vec<(Key, Option<Arc<Value>>)>,
}

// ---------------------------------------------------------------------------
// Codec. Little-endian integers, u32 length prefixes, one leading tag byte.

const TAG_STAGE: u8 = 1;
const TAG_RETRACT: u8 = 2;
const TAG_TPC: u8 = 3;
const TAG_CHECKPOINT: u8 = 4;
const TAG_SETTLE: u8 = 5;
const TAG_TPC_END: u8 = 6;

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        if self.bytes.len() - self.pos < n {
            return Err(DecodeError("unexpected end of record"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> DecodeResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> DecodeResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> DecodeResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn i64(&mut self) -> DecodeResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// A length prefix that must be satisfiable by the remaining bytes
    /// (each element needs ≥ 1 byte), so corrupt lengths fail fast instead
    /// of attempting huge allocations.
    fn len(&mut self) -> DecodeResult<usize> {
        let n = self.u32()? as usize;
        if n > self.bytes.len() - self.pos {
            return Err(DecodeError("length prefix exceeds record size"));
        }
        Ok(n)
    }

    fn str_bytes(&mut self) -> DecodeResult<&'a [u8]> {
        let n = self.len()?;
        self.take(n)
    }

    fn key(&mut self) -> DecodeResult<Key> {
        let bytes = self.str_bytes()?;
        let s = std::str::from_utf8(bytes).map_err(|_| DecodeError("key is not UTF-8"))?;
        Ok(Key::new(s))
    }

    fn done(&self) -> DecodeResult<()> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(DecodeError("trailing bytes after record"))
        }
    }
}

fn put_u32(out: &mut Vec<u8>, n: u32) {
    out.extend_from_slice(&n.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, n: u64) {
    out.extend_from_slice(&n.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

fn put_key(out: &mut Vec<u8>, key: &Key) {
    put_bytes(out, key.as_str().as_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            out.push(0);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(1);
            put_bytes(out, s.as_bytes());
        }
        Value::Bytes(b) => {
            out.push(2);
            put_bytes(out, b);
        }
    }
}

fn get_value(c: &mut Cursor<'_>) -> DecodeResult<Value> {
    match c.u8()? {
        0 => Ok(Value::Int(c.i64()?)),
        1 => {
            let b = c.str_bytes()?;
            let s = std::str::from_utf8(b).map_err(|_| DecodeError("string value not UTF-8"))?;
            Ok(Value::Str(s.to_string()))
        }
        2 => Ok(Value::Bytes(c.str_bytes()?.to_vec())),
        _ => Err(DecodeError("unknown value tag")),
    }
}

fn put_opt_value(out: &mut Vec<u8>, v: Option<&Value>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_value(out, v);
        }
    }
}

fn get_opt_value(c: &mut Cursor<'_>) -> DecodeResult<Option<Arc<Value>>> {
    match c.u8()? {
        0 => Ok(None),
        1 => Ok(Some(Arc::new(get_value(c)?))),
        _ => Err(DecodeError("unknown option tag")),
    }
}

fn put_keys(out: &mut Vec<u8>, keys: &[Key]) {
    put_u32(out, keys.len() as u32);
    for k in keys {
        put_key(out, k);
    }
}

fn get_keys(c: &mut Cursor<'_>) -> DecodeResult<Vec<Key>> {
    let n = c.len()?;
    let mut keys = Vec::with_capacity(n);
    for _ in 0..n {
        keys.push(c.key()?);
    }
    Ok(keys)
}

fn put_images(out: &mut Vec<u8>, images: &[WriteImage]) {
    put_u32(out, images.len() as u32);
    for w in images {
        put_key(out, &w.key);
        put_opt_value(out, w.pre.as_deref());
        put_opt_value(out, w.post.as_deref());
    }
}

fn get_images(c: &mut Cursor<'_>) -> DecodeResult<Vec<WriteImage>> {
    let n = c.len()?;
    let mut images = Vec::with_capacity(n);
    for _ in 0..n {
        images.push(WriteImage {
            key: c.key()?,
            pre: get_opt_value(c)?,
            post: get_opt_value(c)?,
        });
    }
    Ok(images)
}

fn put_restores(out: &mut Vec<u8>, restores: &[(Key, Option<Arc<Value>>)]) {
    put_u32(out, restores.len() as u32);
    for (k, v) in restores {
        put_key(out, k);
        put_opt_value(out, v.as_deref());
    }
}

fn get_restores(c: &mut Cursor<'_>) -> DecodeResult<Vec<(Key, Option<Arc<Value>>)>> {
    let n = c.len()?;
    let mut restores = Vec::with_capacity(n);
    for _ in 0..n {
        restores.push((c.key()?, get_opt_value(c)?));
    }
    Ok(restores)
}

impl WalRecord {
    /// Serialize to one frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    /// Serialize to one frame payload, appended to `out` — the writer
    /// encodes into a buffer it reuses, so a record is written once.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Stage(s) => {
                out.push(TAG_STAGE);
                put_u64(out, s.txn.0);
                put_u32(out, s.stage);
                put_u32(out, s.total);
                out.push(s.flags.0);
                put_keys(out, &s.reads);
                put_keys(out, &s.writes);
                put_images(out, &s.images);
            }
            WalRecord::Retract(r) => {
                out.push(TAG_RETRACT);
                put_u64(out, r.txn.0);
                put_restores(out, &r.restores);
            }
            WalRecord::TpcDecision { txn, commit } => {
                out.push(TAG_TPC);
                put_u64(out, txn.0);
                out.push(u8::from(*commit));
            }
            WalRecord::Checkpoint(cp) => {
                out.push(TAG_CHECKPOINT);
                put_u32(out, cp.store.len() as u32);
                for (k, v) in &cp.store {
                    put_key(out, k);
                    put_value(out, v);
                }
                put_u32(out, cp.txns.len() as u32);
                for t in &cp.txns {
                    put_u64(out, t.txn.0);
                    out.push(u8::from(t.initial_committed) | u8::from(t.finalized) << 1);
                    put_images(out, &t.pending);
                    put_u32(out, t.entries.len() as u32);
                    for e in &t.entries {
                        put_u64(out, e.seq);
                        out.push(u8::from(e.retracted));
                        put_keys(out, &e.reads);
                        put_keys(out, &e.writes);
                        put_restores(out, &e.undo);
                    }
                }
                put_u64(out, cp.next_seq);
                put_u64(out, cp.finalized);
                put_u32(out, cp.tpc.len() as u32);
                for (txn, commit) in &cp.tpc {
                    put_u64(out, txn.0);
                    out.push(u8::from(*commit));
                }
                put_u64(out, cp.next_txn);
            }
            WalRecord::Settle => {
                out.push(TAG_SETTLE);
            }
            WalRecord::TpcEnd { txn } => {
                out.push(TAG_TPC_END);
                put_u64(out, txn.0);
            }
        }
    }

    /// Deserialize one frame payload.
    pub fn decode(payload: &[u8]) -> DecodeResult<WalRecord> {
        let mut c = Cursor::new(payload);
        let record = match c.u8()? {
            TAG_STAGE => WalRecord::Stage(StageRecord {
                txn: TxnId(c.u64()?),
                stage: c.u32()?,
                total: c.u32()?,
                flags: StageFlags(c.u8()?),
                reads: get_keys(&mut c)?,
                writes: get_keys(&mut c)?,
                images: get_images(&mut c)?,
            }),
            TAG_RETRACT => WalRecord::Retract(RetractRecord {
                txn: TxnId(c.u64()?),
                restores: get_restores(&mut c)?,
            }),
            TAG_TPC => WalRecord::TpcDecision {
                txn: TxnId(c.u64()?),
                commit: c.u8()? != 0,
            },
            TAG_CHECKPOINT => {
                let n = c.len()?;
                let mut store = Vec::with_capacity(n);
                for _ in 0..n {
                    store.push((c.key()?, Arc::new(get_value(&mut c)?)));
                }
                let n = c.len()?;
                let mut txns = Vec::with_capacity(n);
                for _ in 0..n {
                    let txn = TxnId(c.u64()?);
                    let bits = c.u8()?;
                    let pending = get_images(&mut c)?;
                    let en = c.len()?;
                    let mut entries = Vec::with_capacity(en);
                    for _ in 0..en {
                        entries.push(CheckpointEntry {
                            seq: c.u64()?,
                            retracted: c.u8()? != 0,
                            reads: get_keys(&mut c)?,
                            writes: get_keys(&mut c)?,
                            undo: get_restores(&mut c)?,
                        });
                    }
                    txns.push(CheckpointTxn {
                        txn,
                        pending,
                        entries,
                        initial_committed: bits & 1 != 0,
                        finalized: bits & 2 != 0,
                    });
                }
                let next_seq = c.u64()?;
                let finalized = c.u64()?;
                let n = c.len()?;
                let mut tpc = Vec::with_capacity(n);
                for _ in 0..n {
                    tpc.push((TxnId(c.u64()?), c.u8()? != 0));
                }
                let next_txn = c.u64()?;
                WalRecord::Checkpoint(Box::new(CheckpointRecord {
                    store,
                    txns,
                    next_seq,
                    finalized,
                    tpc,
                    next_txn,
                }))
            }
            TAG_SETTLE => WalRecord::Settle,
            TAG_TPC_END => WalRecord::TpcEnd {
                txn: TxnId(c.u64()?),
            },
            _ => return Err(DecodeError("unknown record tag")),
        };
        c.done()?;
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(r: WalRecord) {
        let bytes = r.encode();
        assert_eq!(WalRecord::decode(&bytes).unwrap(), r);
    }

    #[test]
    fn stage_roundtrips() {
        roundtrip(WalRecord::Stage(StageRecord {
            txn: TxnId(42),
            stage: 1,
            total: 3,
            flags: StageFlags(StageFlags::COMMIT_POINT | StageFlags::REGISTER),
            reads: vec!["a".into(), "b/7".into()],
            writes: vec!["c".into()],
            images: vec![
                WriteImage {
                    key: "c".into(),
                    pre: None,
                    post: Some(Arc::new(Value::Int(-9))),
                },
                WriteImage {
                    key: "d".into(),
                    pre: Some(Arc::new(Value::Str("old".into()))),
                    post: None,
                },
            ],
        }));
    }

    #[test]
    fn retract_and_tpc_roundtrip() {
        roundtrip(WalRecord::Retract(RetractRecord {
            txn: TxnId(7),
            restores: vec![
                ("x".into(), Some(Arc::new(Value::Bytes(vec![1, 2, 3])))),
                ("y".into(), None),
            ],
        }));
        roundtrip(WalRecord::TpcDecision {
            txn: TxnId(u64::MAX),
            commit: true,
        });
        roundtrip(WalRecord::TpcDecision {
            txn: TxnId(0),
            commit: false,
        });
    }

    #[test]
    fn checkpoint_roundtrips() {
        roundtrip(WalRecord::Checkpoint(Box::new(CheckpointRecord {
            store: vec![
                ("k/1".into(), Arc::new(Value::Int(5))),
                ("k/2".into(), Arc::new(Value::Str("s".into()))),
            ],
            txns: vec![CheckpointTxn {
                txn: TxnId(3),
                pending: vec![WriteImage {
                    key: "p".into(),
                    pre: Some(Arc::new(Value::Int(1))),
                    post: Some(Arc::new(Value::Int(2))),
                }],
                entries: vec![CheckpointEntry {
                    seq: 9,
                    retracted: true,
                    reads: vec!["r".into()],
                    writes: vec!["w".into()],
                    undo: vec![("w".into(), None)],
                }],
                initial_committed: true,
                finalized: false,
            }],
            next_seq: 10,
            finalized: 4,
            tpc: vec![(TxnId(11), true)],
            next_txn: 77,
        })));
    }

    #[test]
    fn settle_and_tpc_end_roundtrip() {
        roundtrip(WalRecord::Settle);
        roundtrip(WalRecord::TpcEnd { txn: TxnId(19) });
        roundtrip(WalRecord::TpcEnd {
            txn: TxnId(u64::MAX),
        });
    }

    #[test]
    fn empty_checkpoint_roundtrips() {
        roundtrip(WalRecord::Checkpoint(Box::default()));
    }

    #[test]
    fn garbage_fails_cleanly() {
        assert!(WalRecord::decode(&[]).is_err());
        assert!(WalRecord::decode(&[99]).is_err());
        assert!(WalRecord::decode(&[TAG_STAGE, 1, 2]).is_err());
        // Trailing bytes are corruption, not silently ignored.
        let mut ok = WalRecord::TpcDecision {
            txn: TxnId(1),
            commit: true,
        }
        .encode();
        ok.push(0);
        assert!(WalRecord::decode(&ok).is_err());
        // A length prefix larger than the record must fail, not allocate.
        let mut huge = vec![TAG_RETRACT];
        huge.extend_from_slice(&1u64.to_le_bytes());
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(WalRecord::decode(&huge).is_err());
    }

    #[test]
    fn flag_accessors() {
        let f = StageFlags(StageFlags::COMMIT_POINT | StageFlags::FINAL);
        assert!(f.commit_point() && f.is_final() && !f.register());
        assert!(!StageFlags::default().commit_point());
    }
}
