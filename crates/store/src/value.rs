//! Keys and values.
//!
//! A [`Key`] is `{ hash: u64, text: Arc<str> }`: the FNV-1a hash of its
//! text, computed once at construction, beside one shared allocation
//! holding the text. The hot path (shard selection, `HashMap` lookup,
//! partition routing) never re-hashes the key text, a probe compares the
//! inline hash before it follows the pointer, and cloning a key allocates
//! nothing. Every constructor allocates exactly once: [`Key::indexed`]
//! assembles its text on the stack first.
//!
//! [`Value`]s are stored behind `Arc` so reads are refcount bumps, not deep
//! clones, and one value may be stored under many keys; a write takes
//! anything [`IntoSharedValue`] — a plain value or an `Arc<Value>` already
//! shared. See the crate docs for the aliasing rules.

use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a over a byte string. This is the *routing* hash: it is stable
/// across runs and processes, and [`crate::PartitionMap`] has always used
/// exactly this function, so cached key hashes keep routing byte-identical.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Finalizing mix (splitmix64 tail). FNV-1a's low bits correlate with the
/// partition/shard residues, so everything that *indexes* by hash (shard
/// selection, `HashMap` buckets) goes through this avalanche first;
/// only partition routing uses the raw FNV value.
#[inline]
pub(crate) fn mix64(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Longest text [`Key::indexed`] builds on the stack before its one
/// allocation: a 43-byte keyspace, the `/` and all 20 digits of `u64::MAX`.
const INDEXED_STACK_BYTES: usize = 64;

/// A database key: its FNV-1a hash beside a shared text, 24 bytes in all.
///
/// The text is one `Arc<str>` allocation — keys are cloned freely into
/// lock tables, undo logs and read/write sets, and a clone is a refcount
/// bump. The hash is computed exactly once at construction and reused
/// everywhere: equality checks, `HashMap` hashing (via [`KeyHashBuilder`]
/// pass-through), store/lock-manager shard selection and partition
/// routing. Because it sits inline, a map probe rejects a wrong key
/// without dereferencing the text.
#[derive(Clone)]
pub struct Key {
    hash: u64,
    text: Arc<str>,
}

impl Key {
    /// Create a key from a string.
    pub fn new(s: &str) -> Self {
        Key {
            hash: fnv1a(s.as_bytes()),
            text: Arc::from(s),
        }
    }

    /// Key text.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// The cached FNV-1a hash of the key text. Stable across runs and
    /// processes (unlike `DefaultHasher`), so it is safe to route on.
    #[inline]
    pub fn hash_u64(&self) -> u64 {
        self.hash
    }

    /// The canonical order: cached hash, then key text. Like the text
    /// order it depends only on the keys, but it compares the inline hash
    /// and reads text only on a collision. Checkpoints list their pairs
    /// in it ([`KvStore::canonical_pairs`](crate::KvStore::canonical_pairs)).
    #[inline]
    pub fn canonical_cmp(&self, other: &Key) -> std::cmp::Ordering {
        self.hash.cmp(&other.hash).then_with(|| self.cmp(other))
    }

    /// Shard index in `[0, n)` for in-process sharded containers. Uses the
    /// *upper* bits of the mixed hash so it stays decorrelated from
    /// `HashMap` bucket indices (low mixed bits) and partition residues
    /// (raw hash modulus).
    #[inline]
    pub(crate) fn shard_index(&self, n: usize) -> usize {
        ((mix64(self.hash) >> 32) % n as u64) as usize
    }

    /// A key in a numbered keyspace, e.g. `Key::indexed("user", 42)` →
    /// `"user/42"`. The workloads use this for YCSB-style key selection.
    ///
    /// The text is assembled right to left in a stack buffer and allocated
    /// once, at its final size; only a keyspace too long for the buffer
    /// goes through a formatted `String` first.
    pub fn indexed(space: &str, index: u64) -> Self {
        let mut buf = [0u8; INDEXED_STACK_BYTES];
        let mut start = buf.len();
        let mut rest = index;
        loop {
            start -= 1;
            buf[start] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        let Some(space_at) = start.checked_sub(space.len() + 1) else {
            return Key::from(format!("{space}/{index}"));
        };
        buf[space_at..start - 1].copy_from_slice(space.as_bytes());
        buf[start - 1] = b'/';
        Key::new(std::str::from_utf8(&buf[space_at..]).expect("a str, a '/' and ASCII digits"))
    }
}

impl PartialEq for Key {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        // The cached hash rejects almost all unequal keys without touching
        // the text; pointer equality then catches the common
        // clone-of-same-key case without a byte scan.
        self.hash == other.hash
            && (Arc::ptr_eq(&self.text, &other.text) || *self.text == *other.text)
    }
}

impl Eq for Key {}

impl Hash for Key {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Single u64 write: with [`KeyHasher`] this makes map hashing a
        // pass-through of the cached hash instead of a SipHash of the text.
        state.write_u64(self.hash);
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Lexicographic by text — ordering is a user-visible contract
        // (sorted snapshots, ordered lock acquisition).
        self.text.cmp(&other.text)
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Self {
        Key::new(s)
    }
}

impl From<String> for Key {
    fn from(s: String) -> Self {
        Key {
            hash: fnv1a(s.as_bytes()),
            text: Arc::from(s),
        }
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key({})", self.as_str())
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Pass-through [`Hasher`] for [`Key`]-keyed maps: consumes the single
/// `write_u64` of the cached key hash and finalizes with a splitmix64 mix, so a
/// map operation performs zero bytes of real hashing.
#[derive(Clone, Copy, Default)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.0)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Only reached if a non-Key type is hashed with this hasher
        // (e.g. a unit test); fall back to FNV-1a rather than panic.
        self.0 = bytes.iter().fold(self.0 ^ FNV_OFFSET, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
        });
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        // Combine rather than overwrite so composite keys hashing several
        // u64s (e.g. `(TxnId, Key)` tuples) don't collapse to the last
        // write. For the single-write `Key` case this is `0 ^ n == n` —
        // the pure pass-through the hot path relies on.
        self.0 = self.0.rotate_left(32) ^ n;
    }
}

/// `BuildHasher` plugging [`KeyHasher`] into `HashMap`.
pub type KeyHashBuilder = BuildHasherDefault<KeyHasher>;

/// A stored value. A small sum type keeps the example applications natural
/// (token balances are integers, building info is text) without dragging in
/// serialization.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A signed integer (counters, token balances).
    Int(i64),
    /// A string (names, descriptions, reservation targets).
    Str(String),
    /// Raw bytes (opaque payloads).
    Bytes(Vec<u8>),
}

impl Value {
    /// The integer inside, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The string inside, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bytes inside, if this is `Bytes`.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Approximate in-memory size, for store accounting.
    pub fn size_bytes(&self) -> usize {
        match self {
            Value::Int(_) => 8,
            Value::Str(s) => s.len(),
            Value::Bytes(b) => b.len(),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<Vec<u8>> for Value {
    fn from(b: Vec<u8>) -> Self {
        Value::Bytes(b)
    }
}

/// What a write accepts: anything convertible into a [`Value`], which is
/// wrapped in a fresh `Arc`, or an `Arc<Value>`, which is stored as is.
/// Writing one `Arc<Value>` under several keys stores one allocation.
pub trait IntoSharedValue {
    /// The value as the store holds it.
    fn into_shared(self) -> Arc<Value>;
}

impl<T: Into<Value>> IntoSharedValue for T {
    fn into_shared(self) -> Arc<Value> {
        Arc::new(self.into())
    }
}

impl IntoSharedValue for Arc<Value> {
    fn into_shared(self) -> Arc<Value> {
        self
    }
}

// Heterogeneous equality so call sites can compare an `Arc<Value>` read
// straight against a plain `Value` without unwrapping.
impl PartialEq<Value> for Arc<Value> {
    fn eq(&self, other: &Value) -> bool {
        **self == *other
    }
}

impl PartialEq<Arc<Value>> for Value {
    fn eq(&self, other: &Arc<Value>) -> bool {
        *self == **other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_equality_and_indexing() {
        assert_eq!(Key::new("a"), Key::from("a"));
        assert_eq!(Key::indexed("user", 42).as_str(), "user/42");
        assert_ne!(Key::indexed("user", 1), Key::indexed("user", 2));
    }

    #[test]
    fn key_ordering_is_lexicographic() {
        assert!(Key::new("a") < Key::new("b"));
        assert!(Key::indexed("k", 10) < Key::indexed("k", 9)); // lexicographic!
    }

    #[test]
    fn cached_hash_is_fnv1a_of_text() {
        for s in [
            "",
            "a",
            "user/42",
            "τ-unicode",
            "a/very/long/key/path/0123456789",
        ] {
            assert_eq!(Key::new(s).hash_u64(), fnv1a(s.as_bytes()));
        }
        // Construction routes (new / from-String / indexed) agree.
        assert_eq!(
            Key::indexed("user", 42).hash_u64(),
            Key::from(String::from("user/42")).hash_u64()
        );
    }

    #[test]
    fn indexed_formats_boundary_values() {
        assert_eq!(Key::indexed("k", 0).as_str(), "k/0");
        assert_eq!(
            Key::indexed("k", u64::MAX).as_str(),
            format!("k/{}", u64::MAX)
        );
    }

    #[test]
    fn every_constructor_of_one_text_builds_the_same_key() {
        for (space, i) in [("item", 0u64), ("user", 42), ("k", u64::MAX), ("", 7)] {
            let text = format!("{space}/{i}");
            let keys = [
                Key::new(&text),
                Key::from(text.clone()),
                Key::indexed(space, i),
            ];
            for key in &keys {
                assert_eq!(key.as_str(), text);
                assert_eq!(key.hash_u64(), fnv1a(text.as_bytes()));
                assert_eq!(*key, keys[0]);
                assert_eq!(key.cmp(&keys[0]), std::cmp::Ordering::Equal);
            }
        }
    }

    #[test]
    fn indexed_past_the_stack_buffer_matches_the_formatted_key() {
        for len in [
            INDEXED_STACK_BYTES - 21,
            INDEXED_STACK_BYTES - 20,
            INDEXED_STACK_BYTES,
            3 * INDEXED_STACK_BYTES,
        ] {
            let space = "s".repeat(len);
            for i in [0u64, 9, 10, 12_345, u64::MAX] {
                let key = Key::indexed(&space, i);
                let formatted = Key::from(format!("{space}/{i}"));
                assert_eq!(key.as_str(), formatted.as_str());
                assert_eq!(key.hash_u64(), formatted.hash_u64());
                assert_eq!(key, formatted);
                assert_eq!(key.cmp(&formatted), std::cmp::Ordering::Equal);
                // Ordering against a neighbour is the text's ordering.
                let next = Key::from(format!("{space}/{i}0"));
                assert!(key < next);
            }
        }
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_key_is_a_hash_beside_one_pointer() {
        assert_eq!(std::mem::size_of::<Key>(), 24);
    }

    #[test]
    fn shared_values_are_stored_as_is() {
        let v = Arc::new(Value::Int(1));
        assert!(Arc::ptr_eq(&Arc::clone(&v).into_shared(), &v));
        assert_eq!(7i64.into_shared(), Value::Int(7));
        assert_eq!("x".into_shared(), Value::from("x"));
    }

    #[test]
    fn key_hasher_passes_cached_hash_through() {
        use std::hash::BuildHasher;
        let key = Key::new("user/7");
        let hashed = KeyHashBuilder::default().hash_one(&key);
        assert_eq!(hashed, mix64(key.hash_u64()));
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_str(), None);
        assert_eq!(Value::from("hi").as_str(), Some("hi"));
        assert_eq!(Value::from(vec![1u8, 2]).as_bytes(), Some(&[1u8, 2][..]));
    }

    #[test]
    fn value_sizes() {
        assert_eq!(Value::Int(0).size_bytes(), 8);
        assert_eq!(Value::from("abc").size_bytes(), 3);
        assert_eq!(Value::from(vec![0u8; 10]).size_bytes(), 10);
    }

    #[test]
    fn key_display() {
        assert_eq!(format!("{}", Key::new("x/1")), "x/1");
        assert_eq!(format!("{:?}", Key::new("x")), "Key(x)");
    }

    #[test]
    fn arc_value_compares_against_value() {
        let v: Arc<Value> = Arc::new(Value::Int(3));
        assert!(v == Value::Int(3));
        assert!(Value::Int(3) == v);
        assert!(v != Value::Int(4));
    }
}
