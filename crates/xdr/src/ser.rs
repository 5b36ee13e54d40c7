//! Serialization of [`nspval::Value`] trees, plus file `save`/`load` and
//! the `sload` fast path.
//!
//! The byte format is a 4-byte magic (`NSPS`), a format-version word, then
//! a recursively encoded value. Exactly as in Nsp, the *file* format and
//! the *serialization* format are the same bytes: "serialization just
//! redirects the binary savings of objects to a string buffer". That
//! identity is what makes `sload` possible — reading the file contents
//! verbatim yields a valid `Serial` object.

use crate::codec::XdrWriter;
use crate::direct::{Node, Walker};
use crate::error::XdrError;
use nspval::{BoolMatrix, Matrix, Serial, StrMatrix, Value, MAX_DEPTH};
use std::fs::{self, File};
use std::io::{ErrorKind, Read};
use std::path::Path;

pub(crate) const MAGIC: &[u8; 4] = b"NSPS";
pub(crate) const VERSION: u32 = 1;

// Type tags on the wire.
pub(crate) const TAG_REAL: u32 = 1;
pub(crate) const TAG_BOOL: u32 = 2;
pub(crate) const TAG_STR: u32 = 3;
pub(crate) const TAG_LIST: u32 = 4;
pub(crate) const TAG_HASH: u32 = 5;
pub(crate) const TAG_SERIAL: u32 = 6;
pub(crate) const TAG_NONE: u32 = 7;

/// Magic and format version: what every serialized value starts with.
pub(crate) fn put_header(w: &mut XdrWriter) {
    w.put_u32(u32::from_be_bytes(*MAGIC));
    w.put_u32(VERSION);
}

// One writer per matrix kind, shared by the tree encoder below and the
// tree-less [`crate::Encoder`]: whichever way a value is written, these
// are its bytes.

pub(crate) fn put_real(w: &mut XdrWriter, rows: usize, cols: usize, data: &[f64]) {
    w.put_u32(TAG_REAL);
    w.put_u32(rows as u32);
    w.put_u32(cols as u32);
    for &x in data {
        w.put_f64(x);
    }
}

pub(crate) fn put_bools(w: &mut XdrWriter, rows: usize, cols: usize, data: &[bool]) {
    w.put_u32(TAG_BOOL);
    w.put_u32(rows as u32);
    w.put_u32(cols as u32);
    // Pack the booleans as bytes inside one opaque (XDR-aligned).
    let bytes: Vec<u8> = data.iter().map(|&x| x as u8).collect();
    w.put_opaque(&bytes);
}

pub(crate) fn put_strs<'s>(
    w: &mut XdrWriter,
    rows: usize,
    cols: usize,
    data: impl Iterator<Item = &'s str>,
) {
    w.put_u32(TAG_STR);
    w.put_u32(rows as u32);
    w.put_u32(cols as u32);
    for item in data {
        w.put_string(item);
    }
}

pub(crate) fn put_serial(w: &mut XdrWriter, compressed: bool, bytes: &[u8]) {
    w.put_u32(TAG_SERIAL);
    w.put_bool(compressed);
    w.put_opaque(bytes);
}

pub(crate) fn put_count(w: &mut XdrWriter, tag: u32, n: usize) {
    w.put_u32(tag);
    w.put_u32(n as u32);
}

fn encode_value(w: &mut XdrWriter, v: &Value) {
    match v {
        Value::Real(m) => put_real(w, m.rows(), m.cols(), m.data()),
        Value::Bool(b) => put_bools(w, b.rows(), b.cols(), b.data()),
        Value::Str(s) => put_strs(w, s.rows(), s.cols(), s.data().iter().map(String::as_str)),
        Value::List(l) => {
            put_count(w, TAG_LIST, l.len());
            for item in l.iter() {
                encode_value(w, item);
            }
        }
        Value::Hash(h) => {
            put_count(w, TAG_HASH, h.len());
            for (k, item) in h.iter() {
                w.put_string(k);
                encode_value(w, item);
            }
        }
        Value::Serial(s) => put_serial(w, s.is_compressed(), s.bytes()),
        Value::None => {
            w.put_u32(TAG_NONE);
        }
    }
}

/// What a list or hash being read holds so far: a hash's entries with a
/// repeated key's included, collected into the hash once it closes.
enum Items {
    List(Vec<Value>),
    Hash(Vec<(String, Value)>),
}

/// Build the value at the walker's cursor. The lists and hashes still
/// open, each with the count of its items still to come, are a stack on
/// the heap, so nesting costs no recursion.
fn read_value(w: &mut Walker<'_>) -> Result<Value, XdrError> {
    let mut open: Vec<(usize, Items)> = Vec::new();
    loop {
        let mut value = None;
        match w.node()? {
            // Grown as items come, not sized from a count the bytes claim.
            Node::List(n) => open.push((n, Items::List(Vec::new()))),
            Node::Hash(n) => open.push((n, Items::Hash(Vec::new()))),
            Node::Scalar(x) => value = Some(Value::scalar(x)),
            Node::Str(s) => value = Some(Value::string(s)),
            Node::Bool(b) => value = Some(Value::boolean(b)),
            Node::Reals(rows, cols, data) => {
                let data = (0..data.len()).map(|i| data.get(i)).collect();
                value = Some(Value::Real(Matrix::from_col_major(rows, cols, data)));
            }
            Node::Bools(rows, cols, data) => {
                let data = data.iter().map(|&b| b != 0).collect();
                value = Some(Value::Bool(BoolMatrix::from_col_major(rows, cols, data)));
            }
            Node::Strs(rows, cols, data) => {
                let data = data.iter().map(str::to_owned).collect();
                value = Some(Value::Str(StrMatrix::from_col_major(rows, cols, data)));
            }
            Node::Serial {
                compressed: false,
                bytes,
            } => value = Some(Value::Serial(Serial::new(bytes.to_vec()))),
            Node::Serial { bytes, .. } => {
                value = Some(Value::Serial(Serial::new_compressed(bytes.to_vec())));
            }
            Node::None => value = Some(Value::None),
        }
        if open.len() > MAX_DEPTH {
            return Err(XdrError::Corrupt(format!(
                "value nested deeper than {MAX_DEPTH}"
            )));
        }
        // Hand the finished value to its container, closing each one it
        // fills, until one has an item still to come: that item is next.
        while let Some((left, items)) = open.last_mut() {
            match (&mut *items, value.take()) {
                (Items::List(list), Some(v)) => list.push(v),
                (Items::Hash(entries), Some(v)) => {
                    entries.last_mut().expect("its key is read first").1 = v
                }
                (_, None) => {}
            }
            if *left > 0 {
                *left -= 1;
                if let Items::Hash(entries) = items {
                    entries.push((w.key()?.to_owned(), Value::None));
                }
                break;
            }
            value = Some(match open.pop().expect("the top container").1 {
                Items::List(list) => Value::list(list),
                Items::Hash(entries) => Value::Hash(entries.into_iter().collect()),
            });
        }
        if open.is_empty() {
            return Ok(value.expect("the outermost value, finished"));
        }
    }
}

/// The room to reserve for `v`'s bytes: exactly what a leaf encodes to,
/// so its buffer never grows (packing a serial copies its bytes once);
/// 64 to start a list or a hash with.
fn capacity_for(v: &Value) -> usize {
    let opaque = |n: usize| 4 + n.next_multiple_of(4);
    let body = match v {
        Value::Real(m) => 12 + 8 * m.len(),
        Value::Bool(b) => 12 + opaque(b.data().len()),
        Value::Str(s) => 12 + s.data().iter().map(|x| opaque(x.len())).sum::<usize>(),
        Value::Serial(s) => 8 + opaque(s.len()),
        Value::None => 4,
        Value::List(_) | Value::Hash(_) => return 64,
    };
    8 + body
}

/// Serialize a value to raw bytes (magic + version + encoded tree).
pub fn serialize_to_bytes(v: &Value) -> Vec<u8> {
    let mut w = XdrWriter::with_capacity(capacity_for(v));
    put_header(&mut w);
    encode_value(&mut w, v);
    w.into_bytes()
}

/// Nsp's `serialize(A)`: value → `Serial` object.
pub fn serialize(v: &Value) -> Serial {
    Serial::new(serialize_to_bytes(v))
}

/// Decode raw serialized bytes back into a value, read through a
/// [`Walker`]: the bytes it refuses are refused here, and so is a value
/// nested deeper than [`nspval::MAX_DEPTH`] lists and hashes.
pub fn unserialize_bytes(bytes: &[u8]) -> Result<Value, XdrError> {
    let mut w = Walker::open(bytes)?;
    let v = read_value(&mut w)?;
    w.close()?;
    Ok(v)
}

/// Nsp's `S.unserialize[]`: `Serial` → value, transparently decompressing
/// compressed serials (as the paper notes, "the unserialize method can then
/// transparently manage unserialization of compressed and non compressed
/// Serial objects").
pub fn unserialize(s: &Serial) -> Result<Value, XdrError> {
    if s.is_compressed() {
        let plain = crate::compress::decompress_serial(s)?;
        unserialize_bytes(plain.bytes())
    } else {
        unserialize_bytes(s.bytes())
    }
}

/// Nsp's `save('file', V)`: write the serialized bytes to a file.
pub fn save<P: AsRef<Path>>(path: P, v: &Value) -> Result<(), XdrError> {
    fs::write(path, serialize_to_bytes(v))?;
    Ok(())
}

/// Nsp's `load('file')`: read a file and materialise the value.
pub fn load<P: AsRef<Path>>(path: P) -> Result<Value, XdrError> {
    let mut bytes = Vec::new();
    read_to_eof(File::open(path)?, &mut bytes)?;
    unserialize_bytes(&bytes)
}

/// Nsp's `sload('file')` (Fig. 2): read the file **directly into a
/// `Serial` object** without creating the value. This skips the
/// materialise-then-reserialize round trip of the "full load" strategy —
/// the key optimisation behind the "serialized load" columns of
/// Tables II/III.
pub fn sload<P: AsRef<Path>>(path: P) -> Result<Serial, XdrError> {
    let mut bytes = Vec::new();
    sload_into(File::open(path)?, &mut bytes)?;
    Ok(Serial::new(bytes))
}

/// [`sload`] from an open file, appending its bytes to `out` — where a
/// caller that frames many problems wants them — and returning how many
/// there were. Only the header is checked, in place, so corrupt files
/// fail fast without paying for a full decode. On any error `out` is
/// left exactly as it was.
pub fn sload_into(file: File, out: &mut Vec<u8>) -> Result<usize, XdrError> {
    let start = out.len();
    let n = read_to_eof(file, out)?;
    if n < 8 || out[start..start + 4] != MAGIC[..] {
        out.truncate(start);
        return Err(XdrError::BadMagic);
    }
    Ok(n)
}

/// First read size of [`read_to_eof`], doubled for each read after it.
/// A problem file fits in one read (the generated portfolios' files are
/// 436–704 bytes), and each read first zeroes the room it reads into.
const READ_CHUNK: usize = 1 << 10;

/// Append what is left of `file` to `out`, reading until a read returns
/// 0. Unlike `std::fs::read`, no `statx` sizes the buffer first and no
/// probe read follows a read that filled it, so a file below
/// [`READ_CHUNK`] costs the open, two reads and the close. On an error
/// `out` is truncated back to where it was.
fn read_to_eof(mut file: File, out: &mut Vec<u8>) -> std::io::Result<usize> {
    let start = out.len();
    let (mut filled, mut chunk) = (start, READ_CHUNK);
    loop {
        if filled == out.len() {
            out.resize(filled + chunk, 0);
            chunk *= 2;
        }
        match file.read(&mut out[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => {
                out.truncate(start);
                return Err(e);
            }
        }
    }
    out.truncate(filled);
    Ok(filled - start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nspval::Hash;

    fn sample_values() -> Vec<Value> {
        vec![
            Value::scalar(3.75),
            Value::string("PutAmer"),
            Value::boolean(true),
            Value::empty_matrix(),
            Value::Real(Matrix::from_row_major(
                2,
                3,
                &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            )),
            Value::Bool(BoolMatrix::row(vec![true, false, true])),
            Value::Str(StrMatrix::row(vec!["foo".into(), "bar".into()])),
            Value::list(vec![
                Value::string("string"),
                Value::boolean(true),
                Value::Real(Matrix::from_row_major(2, 2, &[0.1, 0.2, 0.3, 0.4])),
            ]),
            {
                let mut h = Hash::new();
                h.set("A", Value::Bool(BoolMatrix::row(vec![true, false])));
                h.set(
                    "B",
                    Value::list(vec![
                        Value::string("foo"),
                        Value::Real(Matrix::range(1.0, 4.0)),
                    ]),
                );
                Value::Hash(h)
            },
            Value::None,
        ]
    }

    #[test]
    fn round_trip_all_sample_values() {
        for v in sample_values() {
            let s = serialize(&v);
            let back = unserialize(&s).unwrap();
            assert!(v.equal(&back), "round trip failed for {v:?}");
        }
    }

    #[test]
    fn a_leaf_is_written_into_a_buffer_of_its_exact_size() {
        let serial = Value::Serial(serialize(&Value::string("odd")));
        let leaves = sample_values().into_iter().chain([serial]);
        for v in leaves.filter(|v| !matches!(v, Value::List(_) | Value::Hash(_))) {
            let bytes = serialize_to_bytes(&v);
            assert_eq!(bytes.len(), capacity_for(&v), "{v:?}");
            assert_eq!(bytes.capacity(), bytes.len(), "{v:?} grew its buffer");
        }
    }

    #[test]
    fn nested_serial_round_trips() {
        // The paper serializes a value, then sends the *Serial* as an
        // object: serialize(serialize(A)) must work.
        let inner = serialize(&Value::string("nested"));
        let v = Value::Serial(inner.clone());
        let s = serialize(&v);
        let back = unserialize(&s).unwrap();
        assert_eq!(back.as_serial().unwrap(), &inner);
        let inner_back = unserialize(back.as_serial().unwrap()).unwrap();
        assert_eq!(inner_back.as_str(), Some("nested"));
    }

    #[test]
    fn paper_fig2_serial_size_reported() {
        // -nsp->A=1:100; S=serialize(A) prints <842-bytes>. Our format
        // differs in header size but must be in the same ballpark:
        // 100 doubles = 800 bytes + tags.
        let v = Value::Real(Matrix::range(1.0, 100.0));
        let s = serialize(&v);
        assert!(s.len() >= 800 && s.len() < 900, "size {}", s.len());
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join("xdr_test_save_load");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("value.bin");
        let v = sample_values().pop().unwrap();
        for v in sample_values() {
            save(&path, &v).unwrap();
            let back = load(&path).unwrap();
            assert!(v.equal(&back));
        }
        let _ = v;
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sload_returns_exact_file_bytes() {
        let dir = std::env::temp_dir().join("xdr_test_sload");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("h.bin");
        // Fig. 2: H.A=rand(4,5); H.B=rand(4,1); save; sload; unserialize.
        let mut h = Hash::new();
        h.set("A", Value::Real(Matrix::zeros(4, 5)));
        h.set("B", Value::Real(Matrix::zeros(4, 1)));
        let v = Value::Hash(h);
        save(&path, &v).unwrap();
        let s = sload(&path).unwrap();
        assert_eq!(s.bytes(), serialize_to_bytes(&v).as_slice());
        let back = unserialize(&s).unwrap();
        assert!(back.equal(&v));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sload_into_appends_the_file_across_read_boundaries() {
        let dir = std::env::temp_dir().join("xdr_test_sload_into");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pb.bin");
        // Reads fill the buffer exactly at 1 and 1 + 2 chunks.
        let chunks = [READ_CHUNK, 3 * READ_CHUNK];
        let around = chunks.into_iter().flat_map(|n| [n - 1, n, n + 1]);
        for n in [8, 9].into_iter().chain(around) {
            let mut bytes = MAGIC.to_vec();
            bytes.extend((4..n).map(|i| i as u8));
            fs::write(&path, &bytes).unwrap();
            let mut out = b"frame head".to_vec();
            assert_eq!(sload_into(File::open(&path).unwrap(), &mut out).unwrap(), n);
            assert_eq!(&out[..10], b"frame head");
            assert_eq!(&out[10..], bytes.as_slice(), "{n} bytes");
            assert_eq!(sload(&path).unwrap().bytes(), bytes.as_slice());
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sload_into_leaves_the_buffer_as_it_was_on_error() {
        let dir = std::env::temp_dir().join("xdr_test_sload_into_bad");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("junk.bin");
        for junk in [&b""[..], b"NSPS", b"not a serial value"] {
            fs::write(&path, junk).unwrap();
            let mut out = vec![7u8; 3];
            let err = sload_into(File::open(&path).unwrap(), &mut out).unwrap_err();
            assert!(matches!(err, XdrError::BadMagic), "{err}");
            assert_eq!(out, [7, 7, 7]);
        }
        // A directory opens but does not read.
        let mut out = vec![7u8; 3];
        let err = sload_into(File::open(&dir).unwrap(), &mut out).unwrap_err();
        assert!(matches!(err, XdrError::Io(_)), "{err}");
        assert_eq!(out, [7, 7, 7]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sload_rejects_non_serialized_file() {
        let dir = std::env::temp_dir().join("xdr_test_sload_bad");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("junk.bin");
        fs::write(&path, b"this is not a serialized value").unwrap();
        assert!(matches!(sload(&path), Err(XdrError::BadMagic)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        assert!(matches!(
            load("/nonexistent/definitely/missing.bin"),
            Err(XdrError::Io(_))
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = serialize_to_bytes(&Value::scalar(1.0));
        bytes[0] = b'X';
        assert!(matches!(unserialize_bytes(&bytes), Err(XdrError::BadMagic)));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = serialize_to_bytes(&Value::scalar(1.0));
        bytes[7] = 99;
        assert!(matches!(
            unserialize_bytes(&bytes),
            Err(XdrError::BadVersion(_))
        ));
    }

    #[test]
    fn truncated_buffer_rejected() {
        let bytes = serialize_to_bytes(&Value::Real(Matrix::range(1.0, 50.0)));
        for cut in [9, 16, bytes.len() - 1] {
            assert!(unserialize_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = serialize_to_bytes(&Value::scalar(1.0));
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert!(matches!(
            unserialize_bytes(&bytes),
            Err(XdrError::Corrupt(_))
        ));
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut w = XdrWriter::new();
        w.put_u32(u32::from_be_bytes(*MAGIC));
        w.put_u32(VERSION);
        w.put_u32(999);
        assert!(matches!(
            unserialize_bytes(&w.into_bytes()),
            Err(XdrError::Corrupt(_))
        ));
    }

    /// `depth` lists and hashes, each holding the next, around nothing.
    fn nested(depth: usize) -> Value {
        let mut v = Value::None;
        for d in 0..depth {
            v = if d % 2 == 0 {
                Value::list(vec![v])
            } else {
                let mut h = Hash::new();
                h.set("k", v);
                Value::Hash(h)
            };
        }
        v
    }

    #[test]
    fn values_nest_as_deep_as_the_bound_and_no_deeper() {
        let v = nested(MAX_DEPTH);
        assert!(v.equal(&unserialize(&serialize(&v)).unwrap()));
        let err = unserialize(&serialize(&nested(MAX_DEPTH + 1))).unwrap_err();
        assert!(matches!(err, XdrError::Corrupt(_)), "{err}");
        // 10 000 one-item lists, 80 KB: refused before the value built
        // could cost its drop the stack of a 2 MiB thread.
        let mut w = XdrWriter::new();
        put_header(&mut w);
        for _ in 0..10_000 {
            put_count(&mut w, TAG_LIST, 1);
        }
        w.put_u32(TAG_NONE);
        let bytes = w.into_bytes();
        assert!(bytes.len() > 80_000);
        let read = std::thread::Builder::new().stack_size(2 << 20);
        let read = read.spawn(move || unserialize_bytes(&bytes).map(drop));
        let err = read.unwrap().join().unwrap().unwrap_err();
        assert!(matches!(err, XdrError::Corrupt(_)), "{err}");
    }

    #[test]
    fn deep_nesting_round_trips() {
        let mut v = Value::scalar(1.0);
        for _ in 0..50 {
            v = Value::list(vec![v]);
        }
        let s = serialize(&v);
        let back = unserialize(&s).unwrap();
        assert!(v.equal(&back));
    }
}
