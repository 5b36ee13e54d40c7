//! Result memoisation: the [`CachingStore`](crate::CachingStore)
//! fingerprint idea extended from problem *bytes* to computed *answers*.
//!
//! The path cache keys entries by `(path, length, mtime)` because its
//! identity is "the file I would re-read". A serving session has no
//! paths — requests carry problems — so the memo keys by the *content*
//! of the serialized problem plus the execution parameters that are part
//! of the result contract: chunk size and SIMD lane width change the
//! summation order of the kernels (see `docs/PARALLEL.md` /
//! `docs/SIMD.md`), so two computes only produce bit-identical answers
//! when fingerprint **and** chunk **and** lanes all match. Thread count
//! is deliberately *not* part of the key — results are bit-identical
//! across worker counts by the executor's contract.
//!
//! The identity is therefore: 64-bit mixed hash × exact byte length ×
//! chunk × lanes ([`ContentFingerprint`], [`MemoKey`]). The content is
//! fingerprinted from the bytes ([`ContentFingerprint::of_bytes`]), or
//! from the field calls that would write them, with nothing written
//! ([`ContentFingerprint::of_fields`], what `serve` keys by). It lives
//! and dies with the process — never persisted, never on the wire.
//!
//! [`ResultCache`] is value-generic (the store crate stays ignorant of
//! pricing types); the serving layer instantiates it with its answer
//! type and a per-entry byte estimate, and the same byte-budgeted LRU
//! discipline as the path cache keeps memory bounded.
//!
//! A key hashes to one word ([`MemoKey`]'s `Hash`), and nothing hashes
//! it again. The memo finds a key through an open-addressed table of
//! packed `(tag, slab cell)` words, eight bytes a slot, with linear
//! probing and backward-shift deletion: a miss reads one run of adjacent
//! words. The table is never more than half full, so those runs stay
//! short when the memo is full and every insert evicts — the steady
//! state of never-seen traffic. At a serving session's default 1 MiB
//! budget that is 11 915 entries in 32 768 slots, a 256 KiB table.
//! [`MemoMap`], a `HashMap` whose hasher returns the word, is a serving
//! batch's coalescing index.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use xdrser::{Encoder, FieldSink};

/// A content fingerprint of a serialized problem: a 64-bit mixed hash
/// of the bytes — or of the field calls that write them — plus the
/// exact byte length. Two problems with equal fingerprints are treated
/// as the same problem for coalescing and memoisation.
///
/// The hash is fast, unkeyed and not cryptographic: among honest
/// problems a collision is a 2⁻⁶⁴-per-pair accident (~3·10⁻⁸ over a
/// million live entries), but colliding inputs can be crafted, so it may
/// only name problems this process fingerprinted itself. It is
/// process-local — never persisted, never on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentFingerprint {
    /// Mixed 64-bit hash of the serialized bytes and their length.
    pub hash: u64,
    /// Exact byte length (cheap second factor against collisions).
    pub len: u64,
}

/// wyhash's default secret: odd words, half their bits set.
const K: [u64; 3] = [
    0xa076_1d64_78bd_642f,
    0xe703_7ed1_a0b4_28db,
    0x8ebc_6af0_9c88_c6e3,
];

/// The 64×64→128-bit product, its halves folded together.
fn fold(a: u64, b: u64) -> u64 {
    let m = u128::from(a) * u128::from(b);
    (m as u64) ^ ((m >> 64) as u64)
}

/// Absorb two more words into `hash`: one multiply.
fn mix(hash: u64, a: u64, b: u64) -> u64 {
    fold(a ^ K[1], b ^ hash)
}

/// The last fold: all 64 bits of the state, and the length, mixed.
fn finish(hash: u64, len: u64) -> ContentFingerprint {
    ContentFingerprint {
        hash: fold(hash ^ K[2], K[1] ^ len),
        len,
    }
}

impl ContentFingerprint {
    /// Fingerprint a byte slice, sixteen bytes per multiply. The length
    /// seeds the state (it alone tells `[1]` from `[1, 0]`: the last
    /// block is zero-padded) and a final fold mixes all 64 bits.
    pub fn of_bytes(bytes: &[u8]) -> Self {
        let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("eight bytes"));
        let len = bytes.len() as u64;
        let mut hash = K[0] ^ len.wrapping_mul(K[2]);
        let mut blocks = bytes.chunks_exact(16);
        for b in &mut blocks {
            hash = mix(hash, word(&b[..8]), word(&b[8..16]));
        }
        let tail = blocks.remainder();
        if !tail.is_empty() {
            let mut b = [0u8; 16];
            b[..tail.len()].copy_from_slice(tail);
            hash = mix(hash, word(&b[..8]), word(&b[8..]));
        }
        finish(hash, len)
    }

    /// Fingerprint the hash value whose entries `write` writes, without
    /// writing it. `len` is exactly the length of the bytes
    /// [`Encoder::hash`] would write for the same calls. Calls that write
    /// the same bytes get the same fingerprint, and calls that write
    /// different bytes different ones, up to the same 2⁻⁶⁴ accident as
    /// [`Self::of_bytes`]. The two hash differently, so a key space uses
    /// one of them, never both.
    pub fn of_fields(write: impl FnOnce(&mut FieldFingerprint)) -> Self {
        let mut f = FieldFingerprint {
            hash: K[0],
            pending: None,
            len: Encoder::HASH_LEN,
        };
        write(&mut f);
        if let Some(last) = f.pending {
            // Stands for a token of kind 0, which no call writes.
            f.hash = mix(f.hash, last, 0);
        }
        finish(f.hash, f.len as u64)
    }
}

/// The [`FieldSink`] behind [`ContentFingerprint::of_fields`]. Each call
/// is one token of words: a head word (the call's kind in the low byte,
/// the key's length above it), the key's bytes, then the value — a
/// float's bits (so −0.0 is not 0.0, as in the bytes), a boolean, or a
/// string's length and bytes. A table is its head, its entries and a
/// closing token. Every token's length follows from its head, so the
/// words spell one call sequence only; and the calls spell the bytes.
/// Alongside, each call adds its encoded length by the `Encoder`'s size
/// rules.
///
/// Its methods are inlined (`#[inline]`, and `bytes`
/// `#[inline(always)]`) so that the whole walk, wherever `write_fields`
/// is instantiated, keeps the state in registers: called across the
/// crate boundary, the same sink took 185 ns where it takes 30 for a
/// closed-form vanilla (one pinned vCPU of a shared VM).
#[derive(Debug)]
pub struct FieldFingerprint {
    hash: u64,
    /// A word waiting for its partner: words are mixed in pairs.
    pending: Option<u64>,
    len: usize,
}

/// Token kinds; zero is none of them.
const STRING: u64 = 1;
const SCALAR: u64 = 2;
const BOOLEAN: u64 = 3;
const TABLE: u64 = 4;
const END: u64 = 5;

impl FieldFingerprint {
    #[inline]
    fn word(&mut self, w: u64) {
        match self.pending.take() {
            Some(a) => self.hash = mix(self.hash, a, w),
            None => self.pending = Some(w),
        }
    }

    /// A string's bytes as words; its length, already absorbed, says how
    /// to read them back. Up to eight bytes make one word holding every
    /// byte (two overlapping halves, or first, middle and last); a longer
    /// string is eight bytes to a word, the last word its last eight.
    /// Large enough that `#[inline]` alone left it an out-of-line call.
    #[inline(always)]
    fn bytes(&mut self, s: &str) {
        let b = s.as_bytes();
        let n = b.len();
        let le4 = |at: usize| u64::from(u32::from_le_bytes(b[at..at + 4].try_into().expect("4")));
        let le8 = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().expect("8"));
        match n {
            0 => {}
            1..=3 => {
                self.word(u64::from(b[0]) | u64::from(b[n / 2]) << 8 | u64::from(b[n - 1]) << 16)
            }
            4..=8 => self.word(le4(0) | le4(n - 4) << 32),
            _ => {
                for at in (0..n - 8).step_by(8) {
                    self.word(le8(at));
                }
                self.word(le8(n - 8));
            }
        }
    }

    /// A token's head and key.
    #[inline]
    fn head(&mut self, kind: u64, key: &str) {
        self.word(kind | (key.len() as u64) << 8);
        self.bytes(key);
    }
}

impl FieldSink for FieldFingerprint {
    #[inline]
    fn string(&mut self, key: &str, v: &str) {
        self.len += Encoder::string_len(key, v);
        self.head(STRING, key);
        self.word(v.len() as u64);
        self.bytes(v);
    }
    #[inline]
    fn scalar(&mut self, key: &str, v: f64) {
        self.len += Encoder::scalar_len(key);
        self.head(SCALAR, key);
        self.word(v.to_bits());
    }
    #[inline]
    fn boolean(&mut self, key: &str, v: bool) {
        self.len += Encoder::boolean_len(key);
        self.head(BOOLEAN, key);
        self.word(u64::from(v));
    }
    #[inline]
    fn table(&mut self, key: &str, fill: impl FnOnce(&mut Self)) {
        self.len += Encoder::table_len(key);
        self.head(TABLE, key);
        fill(self);
        self.word(END);
    }
}

/// Full memo key: problem content × the execution parameters that are
/// part of the result contract. `chunk = 0, lanes = 0` encodes the
/// sequential kernel (no executor policy), which produces different
/// bits from any chunked run and must never share entries with one.
///
/// A serving session prices every problem with the sequential kernel,
/// so it always writes `chunk: 0, lanes: 0`. The two fields stay only
/// because the benchmark harness's `store.memo_*` replay builds keys
/// with them; the next change to the benchmark drops both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct MemoKey {
    /// Content fingerprint of the serialized problem.
    pub fp: ContentFingerprint,
    /// Executor chunk size (0 = sequential legacy kernel).
    pub chunk: u32,
    /// SIMD lane width (0 = sequential legacy kernel, 1 = scalar
    /// chunked, 4/8 = lane-batched).
    pub lanes: u32,
}

impl MemoKey {
    /// The key's hash, one word: `fp.hash` is already mixed, so the
    /// execution parameters are folded into it (`fp.len` only confirms a
    /// match).
    #[inline]
    fn word(&self) -> u64 {
        let params = u64::from(self.chunk) << 32 | u64::from(self.lanes);
        self.fp.hash ^ params.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    /// The index's tag of the key: the high half of its hash word.
    #[inline]
    fn tag(&self) -> u32 {
        (self.word() >> 32) as u32
    }
}

impl Hash for MemoKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.word());
    }
}

/// The hasher of a [`MemoMap`]: the word a [`MemoKey`] writes *is* the
/// hash — mixing it again would pay twice for the same bits.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemoHasher(u64);

impl Hasher for MemoHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a MemoKey hashes as one u64");
    }
    fn write_u64(&mut self, word: u64) {
        self.0 = word;
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A hash map keyed by [`MemoKey`] that trusts the fingerprint's own
/// mixing: a serving batch's coalescing index.
pub type MemoMap<V> = HashMap<MemoKey, V, BuildHasherDefault<MemoHasher>>;

/// Overhead charged per entry on top of the caller-supplied value size:
/// the key itself plus index and list bookkeeping.
const ENTRY_OVERHEAD: usize = 64;

/// Counters for memo traffic (mirrors [`StoreStats`](crate::StoreStats)
/// for the path cache).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups served from the memo.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted.
    insertions: u64,
    /// Entries evicted to respect the byte budget.
    pub evictions: u64,
    /// Bytes currently charged against the budget.
    bytes_used: usize,
}

impl MemoStats {
    /// Hit fraction over all lookups (0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// "No entry": the end of the recency list or of the free list.
const NIL: u32 = u32::MAX;

/// One slab cell: a live entry on the recency list (`prev` towards the
/// most recent), or a vacated one on the free list (through `next`; its
/// stale value is dropped when the cell is reused).
struct Entry<V> {
    key: MemoKey,
    value: V,
    bytes: usize,
    prev: u32,
    next: u32,
}

/// The memo's index: an open-addressed table of packed words, one per
/// slot, each a key's tag (the high half of its hash word) over its slab
/// cell plus one; zero is an empty slot. A key's home slot is its tag's
/// low bits, so a word says where it belongs without touching the slab,
/// and growing the table or closing a gap reads only the table.
///
/// Collisions probe linearly, and a removal shifts the rest of its probe
/// run back into the gap (no tombstones), so a probe ends at the first
/// empty slot. The table is at most half full. A full memo under
/// never-seen traffic misses, evicts and inserts for every problem, and
/// each of those walks a probe run, whose expected length for a miss is
/// `(1 + 1 / (1 - load)²) / 2` slots (Knuth): at a serving session's
/// 1 MiB budget the load is 0.36 and a miss reads ~1.7 slots, where a
/// three-quarters rule would leave 0.73 and ~7.2. The price is at most
/// sixteen bytes of table an entry.
#[derive(Default)]
struct Index {
    slots: Vec<u64>,
    len: usize,
}

impl Index {
    fn word(tag: u32, cell: u32) -> u64 {
        u64::from(tag) << 32 | (u64::from(cell) + 1)
    }

    fn tag(word: u64) -> u32 {
        (word >> 32) as u32
    }

    fn cell(word: u64) -> u32 {
        (word as u32).wrapping_sub(1)
    }

    fn mask(&self) -> usize {
        self.slots.len().wrapping_sub(1)
    }

    /// The slot of the entry tagged `tag` whose cell `is` accepts.
    fn find(&self, tag: u32, mut is: impl FnMut(u32) -> bool) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let mask = self.mask();
        let mut at = tag as usize & mask;
        loop {
            let w = self.slots[at];
            if w == 0 {
                return None;
            }
            if Self::tag(w) == tag && is(Self::cell(w)) {
                return Some(at);
            }
            at = (at + 1) & mask;
        }
    }

    /// Add cell `cell` under `tag`; the caller knows its key is absent.
    fn insert(&mut self, tag: u32, cell: u32) {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        self.place(Self::word(tag, cell));
        self.len += 1;
    }

    /// Put `word` in the first empty slot of its probe run.
    fn place(&mut self, word: u64) {
        let mask = self.mask();
        let mut at = Self::tag(word) as usize & mask;
        while self.slots[at] != 0 {
            at = (at + 1) & mask;
        }
        self.slots[at] = word;
    }

    /// Double the table (to eight slots at first), re-placing every word.
    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(8);
        let old = std::mem::replace(&mut self.slots, vec![0; size]);
        for w in old.into_iter().filter(|&w| w != 0) {
            self.place(w);
        }
    }

    /// Empty slot `at`, then shift back every later word of its probe run
    /// that may move into the gap: one whose home is not cyclically
    /// inside `(gap, slot]`.
    fn remove_at(&mut self, mut at: usize) {
        let mask = self.mask();
        let mut gap = at;
        loop {
            at = (at + 1) & mask;
            let w = self.slots[at];
            if w == 0 {
                break;
            }
            let home = Self::tag(w) as usize & mask;
            if (at.wrapping_sub(home) & mask) >= (at.wrapping_sub(gap) & mask) {
                self.slots[gap] = w;
                gap = at;
            }
        }
        self.slots[gap] = 0;
        self.len -= 1;
    }
}

/// A byte-budgeted LRU memo from [`MemoKey`] to computed answers.
///
/// Same discipline as [`CachingStore`](crate::CachingStore): every
/// entry charges its value size plus a fixed overhead against the
/// budget, lookups refresh recency, and inserts evict
/// least-recently-used entries until the new entry fits. A value larger
/// than the whole budget is simply not cached.
///
/// Every operation is O(1): the entries live in one slab, doubly linked
/// in recency order by index, and an open-addressed table of packed
/// `(tag, cell)` words, eight bytes a slot, finds a key's cell. A miss
/// reads one run of adjacent slots; a hit adds the one slab cell it
/// returns.
///
/// Unlike the path cache the memo is single-owner (the serving front
/// loop), so it is not internally locked.
pub struct ResultCache<V> {
    budget: usize,
    index: Index,
    slab: Vec<Entry<V>>,
    /// Most and least recently used, and the first vacated cell.
    head: u32,
    tail: u32,
    free: u32,
    stats: MemoStats,
}

impl<V: Clone> ResultCache<V> {
    /// New memo with a byte budget. A zero budget disables caching
    /// entirely (every lookup misses, nothing is stored).
    pub fn new(budget: usize) -> Self {
        ResultCache {
            budget,
            index: Index::default(),
            slab: Vec::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
            stats: MemoStats::default(),
        }
    }

    /// The index slot holding `key`.
    fn slot_of(&self, key: &MemoKey) -> Option<usize> {
        self.index
            .find(key.tag(), |cell| self.slab[cell as usize].key == *key)
    }

    /// The slab cell holding `key`.
    fn lookup(&self, key: &MemoKey) -> Option<u32> {
        self.slot_of(key)
            .map(|at| Index::cell(self.index.slots[at]))
    }

    /// Take cell `at` out of the recency list.
    fn unlink(&mut self, at: u32) {
        let Entry { prev, next, .. } = self.slab[at as usize];
        match prev {
            NIL => self.head = next,
            p => self.slab[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n as usize].prev = prev,
        }
    }

    /// Put cell `at` at the most-recent end of the recency list.
    fn push_front(&mut self, at: u32) {
        let old = std::mem::replace(&mut self.head, at);
        self.slab[at as usize].prev = NIL;
        self.slab[at as usize].next = old;
        match old {
            NIL => self.tail = at,
            o => self.slab[o as usize].prev = at,
        }
    }

    /// Look up a memoised answer, refreshing its recency on hit.
    pub fn get(&mut self, key: &MemoKey) -> Option<V> {
        let Some(at) = self.lookup(key) else {
            self.stats.misses += 1;
            return None;
        };
        self.unlink(at);
        self.push_front(at);
        self.stats.hits += 1;
        Some(self.slab[at as usize].value.clone())
    }

    /// Insert an answer, charging `value_bytes` (plus a fixed per-entry
    /// overhead) against the budget and evicting LRU entries to make
    /// room. Re-inserting an existing key refreshes its value and
    /// recency; a re-insert too large to cache forgets the old value
    /// (neither an insertion nor an eviction).
    pub fn insert(&mut self, key: MemoKey, value: V, value_bytes: usize) {
        if let Some(slot) = self.slot_of(&key) {
            let at = Index::cell(self.index.slots[slot]);
            self.index.remove_at(slot);
            self.vacate(at);
        }
        let cost = value_bytes + ENTRY_OVERHEAD;
        if cost > self.budget {
            return;
        }
        while self.stats.bytes_used + cost > self.budget {
            let victim = self.tail;
            assert_ne!(victim, NIL, "budget accounting broke");
            let tag = self.slab[victim as usize].key.tag();
            let slot = self.index.find(tag, |cell| cell == victim);
            self.index
                .remove_at(slot.expect("every live cell is indexed"));
            self.vacate(victim);
            self.stats.evictions += 1;
        }
        let entry = Entry {
            key,
            value,
            bytes: cost,
            prev: NIL,
            next: NIL,
        };
        let at = match self.free {
            NIL => {
                self.slab.push(entry);
                u32::try_from(self.slab.len() - 1)
                    .ok()
                    .filter(|&at| at != NIL)
                    .expect("fewer than 2^32 - 1 memo entries")
            }
            at => {
                self.free = self.slab[at as usize].next;
                self.slab[at as usize] = entry;
                at
            }
        };
        self.push_front(at);
        self.index.insert(key.tag(), at);
        self.stats.bytes_used += cost;
        self.stats.insertions += 1;
    }

    /// Move live cell `at` (already out of the index) to the free list.
    fn vacate(&mut self, at: u32) {
        self.unlink(at);
        self.stats.bytes_used -= self.slab[at as usize].bytes;
        self.slab[at as usize].next = std::mem::replace(&mut self.free, at);
    }

    /// Traffic counters.
    pub fn stats(&self) -> MemoStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<V: Clone> ResultCache<V> {
        /// Number of live entries.
        fn len(&self) -> usize {
            self.index.len
        }

        /// True when the memo holds nothing.
        fn is_empty(&self) -> bool {
            self.index.len == 0
        }
    }

    fn key(tag: u8, chunk: u32, lanes: u32) -> MemoKey {
        MemoKey {
            fp: ContentFingerprint::of_bytes(&[tag; 16]),
            chunk,
            lanes,
        }
    }

    #[test]
    fn fingerprint_separates_content_and_length() {
        let a = ContentFingerprint::of_bytes(b"hello");
        let b = ContentFingerprint::of_bytes(b"hellp");
        let c = ContentFingerprint::of_bytes(b"hell");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, ContentFingerprint::of_bytes(b"hello"));
        assert_eq!(a.len, 5);
    }

    #[test]
    fn exec_params_are_part_of_the_key() {
        let mut memo: ResultCache<u64> = ResultCache::new(1 << 16);
        memo.insert(key(1, 0, 0), 10, 8);
        memo.insert(key(1, 1024, 1), 20, 8);
        memo.insert(key(1, 1024, 8), 30, 8);
        assert_eq!(memo.get(&key(1, 0, 0)), Some(10));
        assert_eq!(memo.get(&key(1, 1024, 1)), Some(20));
        assert_eq!(memo.get(&key(1, 1024, 8)), Some(30));
        assert_eq!(memo.get(&key(1, 512, 1)), None);
        assert_eq!(memo.len(), 3);
    }

    #[test]
    fn memoised_value_is_the_inserted_value_bit_for_bit() {
        let mut memo: ResultCache<f64> = ResultCache::new(1 << 16);
        let v = 1.000000000000004_f64;
        memo.insert(key(2, 1024, 4), v, 8);
        assert_eq!(memo.get(&key(2, 1024, 4)).unwrap().to_bits(), v.to_bits());
    }

    #[test]
    fn budget_evicts_lru_first() {
        // Budget fits exactly two entries of cost 100 + 64.
        let mut memo: ResultCache<u32> = ResultCache::new(2 * (100 + ENTRY_OVERHEAD));
        memo.insert(key(1, 0, 0), 1, 100);
        memo.insert(key(2, 0, 0), 2, 100);
        // Touch 1 so 2 becomes LRU, then overflow.
        assert_eq!(memo.get(&key(1, 0, 0)), Some(1));
        memo.insert(key(3, 0, 0), 3, 100);
        assert_eq!(memo.get(&key(2, 0, 0)), None, "LRU entry evicted");
        assert_eq!(memo.get(&key(1, 0, 0)), Some(1));
        assert_eq!(memo.get(&key(3, 0, 0)), Some(3));
        let s = memo.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.insertions, 3);
        assert!(s.bytes_used <= 2 * (100 + ENTRY_OVERHEAD));
    }

    #[test]
    fn oversized_value_and_zero_budget_are_never_cached() {
        let mut memo: ResultCache<u32> = ResultCache::new(128);
        memo.insert(key(1, 0, 0), 1, 1024);
        assert!(memo.is_empty());
        let mut off: ResultCache<u32> = ResultCache::new(0);
        off.insert(key(1, 0, 0), 1, 0);
        assert!(off.is_empty());
        assert_eq!(off.get(&key(1, 0, 0)), None);
        assert_eq!(off.stats().misses, 1);
    }

    #[test]
    fn reinsert_refreshes_value_without_leaking_budget() {
        let mut memo: ResultCache<u32> = ResultCache::new(1 << 12);
        memo.insert(key(1, 0, 0), 1, 100);
        let used = memo.stats().bytes_used;
        memo.insert(key(1, 0, 0), 9, 100);
        assert_eq!(memo.stats().bytes_used, used);
        assert_eq!(memo.get(&key(1, 0, 0)), Some(9));
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn oversized_reinsert_forgets_the_old_value() {
        let mut memo: ResultCache<u32> = ResultCache::new(1 << 10);
        memo.insert(key(1, 0, 0), 1, 100);
        let (len, used) = (memo.len(), memo.stats().bytes_used);
        memo.insert(key(2, 0, 0), 2, 100);
        memo.insert(key(2, 0, 0), 9, 1 << 10);
        assert_eq!(memo.get(&key(2, 0, 0)), None, "the stale value is gone");
        assert_eq!((memo.len(), memo.stats().bytes_used), (len, used));
        assert_eq!(memo.get(&key(1, 0, 0)), Some(1));
        let s = memo.stats();
        assert_eq!((s.insertions, s.evictions), (2, 0));
    }

    #[test]
    fn stats_hit_rate() {
        let mut memo: ResultCache<u32> = ResultCache::new(1 << 12);
        memo.insert(key(1, 0, 0), 1, 8);
        assert!(memo.get(&key(1, 0, 0)).is_some());
        assert!(memo.get(&key(2, 0, 0)).is_none());
        assert!(memo.get(&key(1, 0, 0)).is_some());
        let s = memo.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn fingerprint_sees_the_last_byte_of_every_length_and_the_length_itself() {
        for len in 0..=64usize {
            let bytes: Vec<u8> = (0..len as u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
            let fp = ContentFingerprint::of_bytes(&bytes);
            assert_eq!(fp.len, len as u64);
            if let Some(last) = bytes.len().checked_sub(1) {
                for bit in 0..8 {
                    let mut flipped = bytes.clone();
                    flipped[last] ^= 1 << bit;
                    let other = ContentFingerprint::of_bytes(&flipped);
                    assert_ne!(fp.hash, other.hash, "len {len}, bit {bit}");
                }
            }
            // The tail is zero-padded, so only the length tells the
            // bytes from the same bytes with zeros appended.
            let mut longer = bytes.clone();
            for _ in 0..33 {
                longer.push(0);
                let other = ContentFingerprint::of_bytes(&longer);
                assert_ne!(fp.hash, other.hash, "len {len} + {}", longer.len() - len);
            }
        }
    }

    #[test]
    fn field_fingerprint_tells_apart_exactly_what_the_bytes_tell_apart() {
        /// A [`FieldSink`] as an object, so one list of writers drives
        /// both the encoder and the fingerprint.
        trait Sink {
            fn s(&mut self, k: &str, v: &str);
            fn x(&mut self, k: &str, v: f64);
            fn b(&mut self, k: &str, v: bool);
            fn t(&mut self, k: &str, fill: fn(&mut dyn Sink));
        }
        impl<F: FieldSink + 'static> Sink for F {
            fn s(&mut self, k: &str, v: &str) {
                self.string(k, v);
            }
            fn x(&mut self, k: &str, v: f64) {
                self.scalar(k, v);
            }
            fn b(&mut self, k: &str, v: bool) {
                self.boolean(k, v);
            }
            fn t(&mut self, k: &str, fill: fn(&mut dyn Sink)) {
                self.table(k, |t| fill(t));
            }
        }
        let writers: [fn(&mut dyn Sink); 14] = [
            |s| s.x("a", 0.0),
            |s| s.x("a", -0.0),
            |s| s.x("b", 0.0),
            |s| s.s("a", "xyz"),
            |s| s.s("a", "xyw"),
            |s| s.s("ax", "yz"),
            |s| s.s("a", "xyz\0"),
            |s| s.b("a", true),
            |s| s.b("a", false),
            // Where a table ends is part of the value.
            |s| s.t("t", |t| t.x("a", 1.0)),
            |s| {
                s.t("t", |t| {
                    t.x("a", 1.0);
                    t.x("c", 2.0);
                })
            },
            |s| {
                s.t("t", |t| t.x("a", 1.0));
                s.x("c", 2.0);
            },
            |s| s.t("t", |t| t.t("u", |_| {})),
            |s| {
                s.t("t", |_| {});
                s.t("u", |_| {});
            },
        ];
        let run = |write: fn(&mut dyn Sink)| {
            let bytes = Encoder::hash(0, |e| write(e));
            let fp = ContentFingerprint::of_fields(|f| write(f));
            assert_eq!(fp.len, bytes.len() as u64);
            (bytes, fp)
        };
        let all: Vec<_> = writers.iter().map(|&w| run(w)).collect();
        for (i, (bytes_a, fp_a)) in all.iter().enumerate() {
            for (bytes_b, fp_b) in &all[i + 1..] {
                assert_ne!(bytes_a, bytes_b, "two writers wrote the same bytes");
                assert_ne!(fp_a, fp_b, "{bytes_a:?} vs {bytes_b:?}");
            }
            assert_eq!(*fp_a, run(writers[i]).1, "the same calls, the same key");
        }
    }

    #[test]
    #[should_panic(expected = "one u64")]
    fn memo_hasher_refuses_keys_that_do_not_hash_as_one_word() {
        let mut map: HashMap<&str, u32, BuildHasherDefault<MemoHasher>> = HashMap::default();
        map.insert("not a memo key", 1);
    }

    /// The obvious LRU: a `Vec` in recency order, least recent first.
    struct NaiveLru {
        budget: usize,
        order: Vec<(MemoKey, u32, usize)>,
        stats: MemoStats,
    }

    impl NaiveLru {
        fn get(&mut self, key: &MemoKey) -> Option<u32> {
            let Some(at) = self.order.iter().position(|e| e.0 == *key) else {
                self.stats.misses += 1;
                return None;
            };
            let e = self.order.remove(at);
            self.order.push(e);
            self.stats.hits += 1;
            Some(e.1)
        }

        /// Inserts, returning the keys it dropped: those evicted, oldest
        /// first, and a key re-inserted too large to keep.
        fn insert(&mut self, key: MemoKey, value: u32, value_bytes: usize) -> Vec<MemoKey> {
            let mut victims = Vec::new();
            if let Some(at) = self.order.iter().position(|e| e.0 == key) {
                self.stats.bytes_used -= self.order.remove(at).2;
                victims.push(key);
            }
            let cost = value_bytes + ENTRY_OVERHEAD;
            if cost > self.budget {
                return victims;
            }
            victims.clear();
            while self.stats.bytes_used + cost > self.budget {
                let gone = self.order.remove(0);
                self.stats.bytes_used -= gone.2;
                self.stats.evictions += 1;
                victims.push(gone.0);
            }
            self.order.push((key, value, cost));
            self.stats.bytes_used += cost;
            self.stats.insertions += 1;
            victims
        }
    }

    #[test]
    fn slab_lru_and_naive_lru_agree_step_for_step() {
        const KEYS: u64 = 48;
        let keys: Vec<MemoKey> = (0..KEYS).map(|k| key(k as u8, k as u32 % 3, 1)).collect();
        // Room for about twenty entries, for exactly one, for one that
        // about half the inserts overflow, and for none.
        for budget in [
            20 * (ENTRY_OVERHEAD + 24),
            ENTRY_OVERHEAD + 40,
            ENTRY_OVERHEAD + 20,
            0,
        ] {
            let mut memo: ResultCache<u32> = ResultCache::new(budget);
            let mut naive = NaiveLru {
                budget,
                order: Vec::new(),
                stats: MemoStats::default(),
            };
            let mut high_water = 0;
            let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ budget as u64;
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            for step in 0..100_000u32 {
                let k = keys[(next() % KEYS) as usize];
                if next() % 3 == 0 {
                    assert_eq!(memo.get(&k), naive.get(&k), "step {step}");
                } else {
                    // Sizes vary, so one insert may evict several, and
                    // a re-insert may change what its key is charged.
                    let bytes = (next() % 41) as usize;
                    let before: Vec<MemoKey> = naive.order.iter().map(|e| e.0).collect();
                    let victims = naive.insert(k, step, bytes);
                    memo.insert(k, step, bytes);
                    for gone in &before {
                        let evicted = victims.contains(gone);
                        assert_eq!(memo.lookup(gone).is_some(), !evicted, "step {step}");
                    }
                }
                assert_eq!(memo.stats(), naive.stats, "step {step}");
                assert_eq!(memo.len(), naive.order.len());
                assert!(memo.stats().bytes_used <= budget);
                high_water = high_water.max(memo.len());
                assert!(memo.slab.len() <= high_water, "slab grew past its entries");
            }
            // The recency list itself, end to end, both ways.
            let mut walked = Vec::new();
            let mut at = memo.tail;
            while at != NIL {
                walked.push(memo.slab[at as usize].key);
                at = memo.slab[at as usize].prev;
            }
            let order: Vec<MemoKey> = naive.order.iter().map(|e| e.0).collect();
            assert_eq!(walked, order);
            walked.clear();
            let mut at = memo.head;
            while at != NIL {
                walked.push(memo.slab[at as usize].key);
                at = memo.slab[at as usize].next;
            }
            walked.reverse();
            assert_eq!(walked, order);
            assert!(budget == 0 || memo.stats().evictions > 1_000);
        }
    }

    /// A key per number, with the default execution parameters.
    fn nth(i: u32) -> MemoKey {
        MemoKey {
            fp: ContentFingerprint::of_bytes(&i.to_le_bytes()),
            chunk: 1024,
            lanes: 1,
        }
    }

    /// The live keys, least recently used first, walked both ways.
    fn recency<V: Clone>(memo: &ResultCache<V>) -> Vec<MemoKey> {
        let mut up = Vec::new();
        let mut at = memo.tail;
        while at != NIL {
            up.push(memo.slab[at as usize].key);
            at = memo.slab[at as usize].prev;
        }
        let mut down = Vec::new();
        let mut at = memo.head;
        while at != NIL {
            down.push(memo.slab[at as usize].key);
            at = memo.slab[at as usize].next;
        }
        down.reverse();
        assert_eq!(up, down, "the two directions of the list disagree");
        up
    }

    #[test]
    fn index_deletion_closes_a_probe_run_that_wraps_past_the_end() {
        let mut index = Index::default();
        // Three tags homed at the last of eight slots, and one homed at
        // the first: the run is 7, 0, 1, 2.
        for (tag, cell) in [(7, 0), (15, 1), (23, 2), (8, 3)] {
            index.insert(tag, cell);
        }
        assert_eq!(index.slots.len(), 8);
        let at = |index: &Index, tag: u32, cell: u32| index.find(tag, |c| c == cell);
        assert_eq!(at(&index, 7, 0), Some(7));
        assert_eq!(at(&index, 8, 3), Some(2));
        index.remove_at(7);
        // Everything behind the gap moved back one slot, across the end.
        assert_eq!(at(&index, 15, 1), Some(7));
        assert_eq!(at(&index, 23, 2), Some(0));
        assert_eq!(at(&index, 8, 3), Some(1));
        assert_eq!(at(&index, 7, 0), None);
        assert_eq!(index.slots[2], 0);
        assert_eq!(index.len, 3);
        // A word at its own home never moves back into a gap.
        let mut index = Index::default();
        index.insert(3, 0);
        index.insert(4, 1);
        index.remove_at(3);
        assert_eq!(at(&index, 4, 1), Some(4));
        assert_eq!((index.slots[3], index.len), (0, 1));
    }

    #[test]
    fn growth_keeps_every_entry_and_the_recency_order() {
        let mut memo: ResultCache<u32> = ResultCache::new(1 << 20);
        let mut order = Vec::new();
        for i in 0..1_000 {
            memo.insert(nth(i), i, 8);
            order.push(nth(i));
            // Touch an older entry now and then, so recency is not
            // insertion order.
            if i % 7 == 3 {
                let old = nth(i / 2);
                assert_eq!(memo.get(&old), Some(i / 2));
                order.retain(|k| *k != old);
                order.push(old);
            }
        }
        assert!(memo.index.slots.len() >= 2_048, "the table grew");
        assert!(2 * memo.len() <= memo.index.slots.len());
        assert_eq!(recency(&memo), order);
        for i in 0..1_000 {
            assert_eq!(memo.get(&nth(i)), Some(i));
        }
        assert_eq!(memo.stats().evictions, 0);
    }

    #[test]
    fn a_full_memo_under_all_miss_churn_stays_half_loaded_and_keeps_the_newest() {
        // A serving session's default budget and per-answer charge.
        const BUDGET: usize = 1 << 20;
        const VALUE_BYTES: usize = 24;
        const INSERTS: u32 = 50_000;
        let fits = BUDGET / (ENTRY_OVERHEAD + VALUE_BYTES);
        let mut memo: ResultCache<u32> = ResultCache::new(BUDGET);
        for i in 0..INSERTS {
            assert_eq!(memo.get(&nth(i)), None, "never seen");
            memo.insert(nth(i), i, VALUE_BYTES);
            assert!(
                2 * memo.len() <= memo.index.slots.len(),
                "{} entries in {} slots after insert {i}",
                memo.len(),
                memo.index.slots.len()
            );
        }
        assert_eq!(memo.len(), fits);
        assert_eq!(memo.index.slots.len(), 32_768, "a 256 KiB table");
        let newest = INSERTS - fits as u32..INSERTS;
        assert_eq!(recency(&memo), newest.clone().map(nth).collect::<Vec<_>>());
        let s = memo.stats();
        assert_eq!((s.insertions, s.misses), (INSERTS.into(), INSERTS.into()));
        assert_eq!(s.evictions, u64::from(INSERTS) - fits as u64);
        assert_eq!(s.bytes_used, fits * (ENTRY_OVERHEAD + VALUE_BYTES));
        assert!((0..newest.start).all(|i| memo.lookup(&nth(i)).is_none()));
        for i in newest {
            assert_eq!(memo.get(&nth(i)), Some(i));
        }
    }

    #[test]
    fn keys_that_share_a_tag_are_told_apart_by_the_key() {
        let a = nth(1);
        let b = MemoKey {
            fp: ContentFingerprint {
                len: a.fp.len + 1,
                ..a.fp
            },
            ..a
        };
        assert_eq!(a.tag(), b.tag());
        assert_ne!(a, b);
        let mut memo: ResultCache<u32> = ResultCache::new(1 << 12);
        memo.insert(a, 1, 8);
        memo.insert(b, 2, 8);
        assert_eq!((memo.get(&a), memo.get(&b)), (Some(1), Some(2)));
        // Forgetting one (an oversized re-insert) leaves the other.
        memo.insert(a, 3, 1 << 12);
        assert_eq!((memo.get(&a), memo.get(&b)), (None, Some(2)));
        memo.insert(a, 4, 8);
        assert_eq!((memo.get(&a), memo.get(&b)), (Some(4), Some(2)));
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn evict_everything_then_refill() {
        let cost = ENTRY_OVERHEAD + 8;
        let mut memo: ResultCache<u32> = ResultCache::new(16 * cost);
        for i in 0..16 {
            memo.insert(nth(i), i, 8);
        }
        assert_eq!(memo.len(), 16);
        // One entry as large as the budget evicts all sixteen.
        memo.insert(nth(100), 100, 16 * cost - ENTRY_OVERHEAD);
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.stats().evictions, 16);
        assert!((0..16).all(|i| memo.lookup(&nth(i)).is_none()));
        assert_eq!(recency(&memo), [nth(100)]);
        // Refilled, it is evicted in turn, and every new key is found.
        for i in 200..216 {
            memo.insert(nth(i), i, 8);
        }
        assert_eq!(memo.len(), 16);
        assert_eq!(memo.get(&nth(100)), None);
        for i in 200..216 {
            assert_eq!(memo.get(&nth(i)), Some(i));
        }
        assert_eq!(recency(&memo), (200..216).map(nth).collect::<Vec<_>>());
        assert_eq!(memo.stats().bytes_used, 16 * cost);
    }

    #[test]
    fn len_and_is_empty_count_live_entries() {
        let cost = ENTRY_OVERHEAD + 8;
        let mut memo: ResultCache<u32> = ResultCache::new(3 * cost);
        assert!(memo.is_empty());
        assert_eq!(memo.len(), 0);
        for i in 0..3 {
            memo.insert(nth(i), i, 8);
            assert_eq!(memo.len(), i as usize + 1);
        }
        // A re-insert and an eviction leave the count where it was.
        memo.insert(nth(0), 9, 8);
        assert_eq!(memo.len(), 3);
        memo.insert(nth(3), 3, 8);
        assert_eq!(memo.len(), 3);
        assert!(!memo.is_empty());
        // Oversized re-inserts forget entries one by one.
        for (left, i) in (0..3).rev().zip([2, 0, 3]) {
            memo.insert(nth(i), i, 4 * cost);
            assert_eq!(memo.len(), left);
        }
        assert!(memo.is_empty());
        assert_eq!(memo.stats().bytes_used, 0);
    }
}
