//! The serialized format without the [`nspval::Value`] tree in between.
//!
//! §4.2's argument for `sload` is that a rank should not build an object
//! it "would actually be useless" to have. The same holds one level down
//! for a rank that already knows what it is writing or reading: an
//! [`Encoder`] streams the entries of a hash straight into the bytes
//! `serialize_to_bytes` would produce for it — through [`FieldSink`],
//! the same calls that would build the tree — and a
//! [`Walker`] reads serialized bytes in place — keys, strings and opaque
//! payloads borrowed from the slice — accepting and rejecting exactly
//! what `unserialize_bytes` accepts and rejects.

use crate::codec::{XdrReader, XdrWriter};
use crate::error::XdrError;
use crate::ser::{
    expect_end, get_header, put_bools, put_count, put_header, put_real, put_serial, put_strs,
    TAG_BOOL, TAG_HASH, TAG_LIST, TAG_NONE, TAG_REAL, TAG_SERIAL, TAG_STR,
};
use nspval::{Hash, Value};

/// A hash of 1×1 leaves and nested such hashes being written, one entry
/// per call, in order — into a [`Hash`](nspval::Hash), or by an [`Encoder`] straight
/// into the bytes that hash would serialize to. Keys within one hash
/// must be distinct.
pub trait FieldSink {
    /// An entry holding a 1×1 string matrix.
    fn string(&mut self, key: &str, v: &str);
    /// An entry holding a 1×1 real matrix.
    fn scalar(&mut self, key: &str, v: f64);
    /// An entry holding a 1×1 boolean matrix.
    fn boolean(&mut self, key: &str, v: bool);
    /// An entry holding a nested hash whose entries `fill` writes.
    fn table(&mut self, key: &str, fill: impl FnOnce(&mut Self));
}

impl FieldSink for Hash {
    fn string(&mut self, key: &str, v: &str) {
        self.set(key, Value::string(v));
    }
    fn scalar(&mut self, key: &str, v: f64) {
        self.set(key, Value::scalar(v));
    }
    fn boolean(&mut self, key: &str, v: bool) {
        self.set(key, Value::boolean(v));
    }
    fn table(&mut self, key: &str, fill: impl FnOnce(&mut Self)) {
        let mut h = Hash::new();
        fill(&mut h);
        self.set(key, Value::Hash(h));
    }
}

/// The [`FieldSink`] that builds no tree.
#[derive(Debug)]
pub struct Encoder {
    w: XdrWriter,
    /// Entries written so far into the innermost open hash.
    entries: u32,
}

impl Encoder {
    /// Serialize (magic and version included) the hash whose entries
    /// `fill` writes, into a buffer of the given capacity.
    pub fn hash(cap: usize, fill: impl FnOnce(&mut Self)) -> Vec<u8> {
        let mut e = Encoder {
            w: XdrWriter::with_capacity(cap),
            entries: 0,
        };
        put_header(&mut e.w);
        e.body(fill);
        e.w.into_bytes()
    }

    /// A hash value: its count is filled in once `fill` has written the
    /// entries.
    fn body(&mut self, fill: impl FnOnce(&mut Self)) {
        put_count(&mut self.w, TAG_HASH, 0);
        let count_at = self.w.len() - 4;
        let outer = std::mem::replace(&mut self.entries, 0);
        fill(self);
        self.w.set_u32(count_at, self.entries);
        self.entries = outer;
    }

    fn key(&mut self, key: &str) {
        self.entries += 1;
        self.w.put_string(key);
    }

    /// What [`Encoder::hash`] writes around the entries: magic, version,
    /// and the hash's tag and count.
    pub const HASH_LEN: usize = 16;

    /// Encoded length of a [`FieldSink::string`] entry. With the other
    /// `*_len` rules, a sink that writes nothing can still say exactly how
    /// long the bytes would be.
    #[inline]
    pub fn string_len(key: &str, v: &str) -> usize {
        opaque_len(key.len()) + MATRIX_HEAD_LEN + opaque_len(v.len())
    }

    /// Encoded length of a [`FieldSink::scalar`] entry.
    #[inline]
    pub fn scalar_len(key: &str) -> usize {
        opaque_len(key.len()) + MATRIX_HEAD_LEN + 8
    }

    /// Encoded length of a [`FieldSink::boolean`] entry.
    #[inline]
    pub fn boolean_len(key: &str) -> usize {
        opaque_len(key.len()) + MATRIX_HEAD_LEN + opaque_len(1)
    }

    /// Encoded length of a [`FieldSink::table`] entry before its own
    /// entries: the key, and the nested hash's tag and count.
    #[inline]
    pub fn table_len(key: &str) -> usize {
        opaque_len(key.len()) + 8
    }
}

/// A matrix's tag, rows and cols.
const MATRIX_HEAD_LEN: usize = 12;

/// Encoded length of an opaque (or string) of `n` bytes: its length word
/// and the bytes, padded to four.
#[inline]
fn opaque_len(n: usize) -> usize {
    4 + n.next_multiple_of(4)
}

impl FieldSink for Encoder {
    fn string(&mut self, key: &str, v: &str) {
        self.key(key);
        put_strs(&mut self.w, 1, 1, std::iter::once(v));
    }
    fn scalar(&mut self, key: &str, v: f64) {
        self.key(key);
        put_real(&mut self.w, 1, 1, &[v]);
    }
    fn boolean(&mut self, key: &str, v: bool) {
        self.key(key);
        put_bools(&mut self.w, 1, 1, &[v]);
    }
    fn table(&mut self, key: &str, fill: impl FnOnce(&mut Self)) {
        self.key(key);
        self.body(fill);
    }
}

/// A flat list of leaves written item by item, straight into the bytes
/// `serialize_to_bytes` would produce for it (magic and version
/// included): how a rank frames many already-serialized objects into
/// one message without building — or copying them into — a tree first.
#[derive(Debug)]
pub struct ListEncoder {
    w: XdrWriter,
    count_at: usize,
    items: u32,
}

impl ListEncoder {
    /// Start an empty list in `buf`, recycling its allocation.
    pub fn new(buf: Vec<u8>) -> Self {
        let mut w = XdrWriter::from_vec(buf);
        put_header(&mut w);
        put_count(&mut w, TAG_LIST, 0);
        let count_at = w.len() - 4;
        ListEncoder {
            w,
            count_at,
            items: 0,
        }
    }

    /// Append a 1×1 real matrix.
    pub fn scalar(&mut self, v: f64) {
        self.items += 1;
        put_real(&mut self.w, 1, 1, &[v]);
    }

    /// Append a 1×1 string matrix.
    pub fn string(&mut self, v: &str) {
        self.items += 1;
        put_strs(&mut self.w, 1, 1, std::iter::once(v));
    }

    /// Append a serial object holding `bytes`.
    pub fn serial(&mut self, compressed: bool, bytes: &[u8]) {
        self.items += 1;
        put_serial(&mut self.w, compressed, bytes);
    }

    /// Append an uncompressed serial object whose bytes `fill` appends to
    /// the buffer it is handed: they are written once, at their final
    /// offset, and the length word is written after them, as a count is.
    /// Returns what `fill` returned and the serial's length. When `fill`
    /// fails, the list is left as it was.
    pub fn serial_filled<T, E>(
        &mut self,
        fill: impl FnOnce(&mut Vec<u8>) -> Result<T, E>,
    ) -> Result<(T, usize), E> {
        let head = self.w.len();
        self.w.put_u32(TAG_SERIAL);
        self.w.put_bool(false);
        self.w.put_u32(0);
        let body = self.w.len();
        let buf = self.w.buf_mut();
        let filled = fill(buf);
        let len = (buf.len().checked_sub(body)).expect("fill only appends");
        match filled {
            Ok(done) => {
                self.w.pad(len);
                self.w.set_u32(body - 4, len as u32);
                self.items += 1;
                Ok((done, len))
            }
            Err(e) => {
                self.w.buf_mut().truncate(head);
                Err(e)
            }
        }
    }

    /// The serialized list.
    pub fn finish(mut self) -> Vec<u8> {
        self.w.set_u32(self.count_at, self.items);
        self.w.into_bytes()
    }
}

/// What [`Walker::node`] found at the cursor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Node<'a> {
    /// A 1×1 real matrix.
    Scalar(f64),
    /// A 1×1 string matrix.
    Str(&'a str),
    /// A 1×1 boolean matrix.
    Bool(bool),
    /// A list of this many values, the cursor now at the first.
    List(usize),
    /// A hash of this many entries, the cursor now at the first key.
    Hash(usize),
    /// A serial object, its bytes borrowed.
    Serial {
        /// Whether the bytes are LZSS-compressed.
        compressed: bool,
        /// The serial's content.
        bytes: &'a [u8],
    },
    /// Anything else — a matrix that is not 1×1, the absent value:
    /// checked and skipped.
    Other,
}

/// A cursor over serialized bytes that materialises nothing.
#[derive(Debug)]
pub struct Walker<'a> {
    r: XdrReader<'a>,
}

impl<'a> Walker<'a> {
    /// Check magic and version; the cursor is left at the value.
    pub fn open(bytes: &'a [u8]) -> Result<Self, XdrError> {
        let mut r = XdrReader::new(bytes);
        get_header(&mut r)?;
        Ok(Walker { r })
    }

    /// Read the value at the cursor. A leaf is consumed whole; for a
    /// list or hash only the count is, and the caller reads (or
    /// [`skips`](Self::skip_rest)) that many items next.
    pub fn node(&mut self) -> Result<Node<'a>, XdrError> {
        let r = &mut self.r;
        let tag = r.get_u32()?;
        match tag {
            TAG_REAL | TAG_BOOL | TAG_STR => {}
            TAG_LIST | TAG_HASH => {
                let n = r.get_u32()? as usize;
                // Every item costs at least one word.
                if n > r.remaining() {
                    return Err(XdrError::UnexpectedEof);
                }
                return Ok(if tag == TAG_LIST {
                    Node::List(n)
                } else {
                    Node::Hash(n)
                });
            }
            TAG_SERIAL => {
                let compressed = r.get_bool()?;
                let bytes = r.get_opaque()?;
                return Ok(Node::Serial { compressed, bytes });
            }
            TAG_NONE => return Ok(Node::Other),
            _ => return Err(XdrError::Corrupt(format!("unknown type tag {tag}"))),
        }
        let (rows, cols) = (r.get_u32()? as usize, r.get_u32()? as usize);
        let one = rows == 1 && cols == 1;
        let n = rows
            .checked_mul(cols)
            .ok_or_else(|| XdrError::Corrupt("matrix size overflow".into()))?;
        Ok(match tag {
            TAG_REAL if one => Node::Scalar(r.get_f64()?),
            TAG_REAL => {
                r.take(n.checked_mul(8).ok_or(XdrError::UnexpectedEof)?)?;
                Node::Other
            }
            TAG_BOOL => {
                let bytes = r.get_opaque()?;
                if bytes.len() != n {
                    return Err(XdrError::Corrupt("bool matrix length mismatch".into()));
                }
                if one {
                    Node::Bool(bytes[0] != 0)
                } else {
                    Node::Other
                }
            }
            // Each string costs at least a 4-byte length word.
            _ if n > r.remaining() => return Err(XdrError::UnexpectedEof),
            _ if one => Node::Str(r.get_str()?),
            _ => {
                for _ in 0..n {
                    r.get_str()?;
                }
                Node::Other
            }
        })
    }

    /// Read the key of the next hash entry.
    pub fn key(&mut self) -> Result<&'a str, XdrError> {
        self.r.get_str()
    }

    /// Read the key of the next hash entry and say whether it is `key`.
    /// Nothing is validated: bytes equal to a `str`'s are UTF-8.
    pub fn key_is(&mut self, key: &str) -> Result<bool, XdrError> {
        Ok(self.r.get_opaque()? == key.as_bytes())
    }

    /// Skip the rest of the value whose head [`Self::node`] just returned:
    /// nothing for a leaf, every item of a list or hash — checked as
    /// thoroughly as if it were read. Nesting costs heap, not stack.
    pub fn skip_rest(&mut self, mut head: Node<'a>) -> Result<(), XdrError> {
        // Containers still open: items left, and whether they are keyed.
        let mut open: Vec<(usize, bool)> = Vec::new();
        loop {
            match head {
                Node::List(n) => open.push((n, false)),
                Node::Hash(n) => open.push((n, true)),
                _ => {}
            }
            loop {
                match open.last_mut() {
                    None => return Ok(()),
                    Some((0, _)) => {
                        open.pop();
                    }
                    Some((left, keyed)) => {
                        *left -= 1;
                        if *keyed {
                            self.key()?;
                        }
                        break;
                    }
                }
            }
            head = self.node()?;
        }
    }

    /// The value must end where the bytes end.
    pub fn close(self) -> Result<(), XdrError> {
        expect_end(&self.r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{serialize_to_bytes, unserialize_bytes};
    use nspval::{BoolMatrix, Matrix, Serial, StrMatrix};

    fn sample() -> Value {
        let mut inner = Hash::new();
        inner.set("x", Value::scalar(1.5));
        inner.set("deep", Value::list(vec![Value::list(vec![Value::None])]));
        let mut h = Hash::new();
        h.set("name", Value::string("héllo"));
        h.set("flag", Value::boolean(true));
        h.set("m", Value::Real(Matrix::range(1.0, 5.0)));
        h.set("b", Value::Bool(BoolMatrix::row(vec![true, false, true])));
        h.set(
            "s",
            Value::Str(StrMatrix::row(vec!["a".into(), "bc".into()])),
        );
        h.set("inner", Value::Hash(inner));
        h.set("z", Value::Serial(Serial::new_compressed(vec![1, 2, 3])));
        h.set("e", Value::empty_matrix());
        Value::list(vec![Value::scalar(7.0), Value::Hash(h), Value::None])
    }

    /// Walk a whole buffer the way a caller would: open, skip, close.
    fn walk(bytes: &[u8]) -> Result<(), XdrError> {
        let mut w = Walker::open(bytes)?;
        let head = w.node()?;
        w.skip_rest(head)?;
        w.close()
    }

    #[test]
    fn encoder_writes_the_bytes_of_the_tree_the_same_calls_build() {
        fn fill(s: &mut impl FieldSink) {
            s.string("class", "PremiaModel");
            s.table("model", |t| {
                t.scalar("spot", 100.0);
                t.boolean("antithetic", true);
                t.table("deeper", |d| d.string("name", "héllo"));
            });
            s.table("empty", |_| {});
            s.scalar("last", -0.0);
        }
        let mut h = Hash::new();
        fill(&mut h);
        assert_eq!(h.len(), 4);
        assert_eq!(Encoder::hash(0, fill), serialize_to_bytes(&Value::Hash(h)));
    }

    #[test]
    fn the_size_rules_say_how_long_the_encoder_writes() {
        /// Adds up the rules, writing nothing.
        struct Len(usize);
        impl FieldSink for Len {
            fn string(&mut self, key: &str, v: &str) {
                self.0 += Encoder::string_len(key, v);
            }
            fn scalar(&mut self, key: &str, _: f64) {
                self.0 += Encoder::scalar_len(key);
            }
            fn boolean(&mut self, key: &str, _: bool) {
                self.0 += Encoder::boolean_len(key);
            }
            fn table(&mut self, key: &str, fill: impl FnOnce(&mut Self)) {
                self.0 += Encoder::table_len(key);
                fill(self);
            }
        }
        // Keys and strings of every length mod 4, at two depths.
        fn write(s: &mut impl FieldSink) {
            let text = "abcdefgh";
            for n in 0..9 {
                let key = "k".repeat(n);
                s.string(&key, &text[..n]);
                s.scalar(&format!("{key}s"), -0.0);
                s.boolean(&format!("{key}b"), true);
            }
            s.table("inner", |t| {
                t.string("name", "héllo");
                t.table("", |_| {});
            });
        }
        let mut len = Len(Encoder::HASH_LEN);
        write(&mut len);
        assert_eq!(len.0, Encoder::hash(0, write).len());
        assert_eq!(Encoder::HASH_LEN, Encoder::hash(0, |_| {}).len());
    }

    #[test]
    fn list_encoder_writes_the_bytes_of_the_list_it_describes() {
        let tree = Value::list(vec![
            Value::scalar(7.0),
            Value::Serial(Serial::new(vec![1, 2, 3, 4, 5])),
            Value::scalar(8.0),
            Value::string("pb-00008.bin"),
            Value::Serial(Serial::new_compressed(vec![9])),
        ]);
        // A recycled buffer's old contents do not leak into the list.
        let mut e = ListEncoder::new(vec![0xAA; 100]);
        e.scalar(7.0);
        e.serial(false, &[1, 2, 3, 4, 5]);
        e.scalar(8.0);
        e.string("pb-00008.bin");
        e.serial(true, &[9]);
        assert_eq!(e.finish(), serialize_to_bytes(&tree));
        assert_eq!(
            ListEncoder::new(Vec::new()).finish(),
            serialize_to_bytes(&Value::list(vec![]))
        );
    }

    #[test]
    fn a_serial_filled_in_place_is_the_serial_copied_in() {
        for n in 0..9u8 {
            let bytes: Vec<u8> = (1..=n).collect();
            let mut copied = ListEncoder::new(Vec::new());
            copied.scalar(1.0);
            copied.serial(false, &bytes);
            let mut filled = ListEncoder::new(Vec::new());
            filled.scalar(1.0);
            let fill = |out: &mut Vec<u8>| {
                out.extend_from_slice(&bytes);
                Ok::<_, ()>(())
            };
            assert_eq!(filled.serial_filled(fill), Ok(((), n as usize)));
            assert_eq!(filled.finish(), copied.finish(), "{n} bytes");
        }
        // A fill that fails leaves the list as it was, whatever it wrote.
        let mut e = ListEncoder::new(Vec::new());
        e.string("kept");
        let fail = |out: &mut Vec<u8>| {
            out.extend_from_slice(&[1, 2, 3]);
            Err::<(), _>("no such file")
        };
        assert_eq!(e.serial_filled(fail), Err("no such file"));
        assert_eq!(
            e.finish(),
            serialize_to_bytes(&Value::list(vec![Value::string("kept")]))
        );
    }

    #[test]
    fn walker_reads_leaves_borrowed_and_counts_containers() {
        let bytes = serialize_to_bytes(&sample());
        let mut w = Walker::open(&bytes).unwrap();
        assert_eq!(w.node().unwrap(), Node::List(3));
        assert_eq!(w.node().unwrap(), Node::Scalar(7.0));
        assert_eq!(w.node().unwrap(), Node::Hash(8));
        let mut seen = Vec::new();
        for _ in 0..8 {
            let key = w.key().unwrap();
            let node = w.node().unwrap();
            w.skip_rest(node).unwrap();
            seen.push((key, node));
        }
        assert_eq!(
            seen,
            [
                ("name", Node::Str("héllo")),
                ("flag", Node::Bool(true)),
                ("m", Node::Other),
                ("b", Node::Other),
                ("s", Node::Other),
                ("inner", Node::Hash(2)),
                (
                    "z",
                    Node::Serial {
                        compressed: true,
                        bytes: &[1, 2, 3]
                    }
                ),
                ("e", Node::Other),
            ]
        );
        assert_eq!(w.node().unwrap(), Node::Other);
        w.close().unwrap();
    }

    #[test]
    fn deep_nesting_is_skipped_without_recursion() {
        let mut w = XdrWriter::new();
        put_header(&mut w);
        for _ in 0..200_000 {
            put_count(&mut w, TAG_LIST, 1);
        }
        w.put_u32(TAG_NONE);
        walk(&w.into_bytes()).unwrap();
    }

    /// Same verdict as the tree decoder, same error kind when it is one.
    fn assert_agrees(bytes: &[u8]) {
        let kind = |e: &XdrError| std::mem::discriminant(e);
        match (unserialize_bytes(bytes), walk(bytes)) {
            (Ok(_), Ok(())) => {}
            (Err(a), Err(b)) => assert_eq!(kind(&a), kind(&b), "{a} vs {b}"),
            (a, b) => panic!("tree {:?} vs walk {b:?} on {bytes:?}", a.map(|_| ())),
        }
    }

    #[test]
    fn walker_and_tree_decoder_agree_on_a_mutation_corpus() {
        let bytes = serialize_to_bytes(&sample());
        assert_agrees(&bytes);
        for cut in 0..bytes.len() {
            assert_agrees(&bytes[..cut]);
        }
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _ in 0..4_000 {
            let mut m = bytes.clone();
            let at = next() as usize % m.len();
            m[at] = next() as u8;
            assert_agrees(&m);
            // A whole word, the way a wrong length or tag would read.
            let mut m = bytes.clone();
            let at = (next() as usize % (m.len() / 4)) * 4;
            let word = match next() % 4 {
                0 => 0,
                1 => u32::MAX,
                2 => next() as u32 % 16,
                _ => next() as u32,
            };
            m[at..at + 4].copy_from_slice(&word.to_be_bytes());
            assert_agrees(&m);
        }
    }
}
