//! The dynamic `Value` enum and its container types (`List`, `Hash`,
//! `Serial`).

use crate::matrix::{BoolMatrix, Matrix, StrMatrix};
use std::fmt;

/// An ordered, heterogeneous list — Nsp's `list(...)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct List {
    items: Vec<Value>,
}

impl List {
    /// An empty list.
    pub fn new() -> Self {
        List { items: Vec::new() }
    }

    /// Build from an item vector.
    pub fn from_vec(items: Vec<Value>) -> Self {
        List { items }
    }

    /// Number of contained elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when there are no elements.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Nsp's `L.add_last[v]`.
    pub fn add_last(&mut self, v: Value) {
        self.items.push(v);
    }

    /// 0-based access (Nsp is 1-based at the language level; the
    /// interpreter does the shift).
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.items.get(i)
    }

    /// Mutable element at a 0-based index.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut Value> {
        self.items.get_mut(i)
    }

    /// Iterate over the contents in order.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.items.iter()
    }

    /// Remove `count` items starting at 0-based `start` —
    /// `Lpb(1:mpi_size-1)=[]` in the Fig. 4 master script.
    pub fn remove_range(&mut self, start: usize, count: usize) {
        let end = (start + count).min(self.items.len());
        self.items.drain(start..end);
    }
}

impl IntoIterator for List {
    type Item = Value;
    type IntoIter = std::vec::IntoIter<Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

/// An insertion-ordered string-keyed table — Nsp's hash tables
/// (`hash_create(A=..., B=...)`, `H.A = ...`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Hash {
    entries: Vec<(String, Value)>,
}

impl Hash {
    /// An empty hash table.
    pub fn new() -> Self {
        Hash {
            entries: Vec::new(),
        }
    }

    /// Number of contained elements.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when there are no elements.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Insert or overwrite (`H.key = v`).
    pub fn set(&mut self, key: &str, v: Value) {
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| k == key) {
            slot.1 = v;
        } else {
            self.entries.push((key.to_string(), v));
        }
    }

    /// Look up an entry by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Mutable lookup by key.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Remove an entry by key, returning it.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let idx = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(idx).1)
    }

    /// Iterate over the contents in order.
    pub fn iter(&self) -> std::slice::Iter<'_, (String, Value)> {
        self.entries.iter()
    }
}

/// What [`Hash::set`] on each entry in turn builds (a key keeps its first
/// place, its last value wins), in O(n log n) time: the entries' places
/// are sorted by key, so each key's places sit side by side, in order.
impl FromIterator<(String, Value)> for Hash {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(entries: I) -> Self {
        let mut entries: Vec<(String, Value)> = entries.into_iter().collect();
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_unstable_by(|&a, &b| entries[a].0.cmp(&entries[b].0).then(a.cmp(&b)));
        // Last to first, a repeated key's value moves back to its first
        // place, and each later place goes.
        let mut keep = vec![true; entries.len()];
        for pair in order.windows(2).rev() {
            if entries[pair[0]].0 == entries[pair[1]].0 {
                entries.swap(pair[0], pair[1]);
                keep[pair[1]] = false;
            }
        }
        let mut keep = keep.into_iter();
        entries.retain(|_| keep.next().expect("one flag an entry"));
        Hash { entries }
    }
}

/// An opaque serialized byte buffer — Nsp's `Serial` objects, produced by
/// `serialize(...)` or `sload(...)` and consumed by `unserialize`
/// (`S.unserialize[]`). The `compressed` flag mirrors Nsp's
/// compressed-serial extension (`S.compress[]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Serial {
    bytes: Vec<u8>,
    compressed: bool,
}

impl Serial {
    /// Wrap raw serialized bytes as an uncompressed serial.
    pub fn new(bytes: Vec<u8>) -> Self {
        Serial {
            bytes,
            compressed: false,
        }
    }

    /// Wrap bytes produced by the LZSS compressor.
    pub fn new_compressed(bytes: Vec<u8>) -> Self {
        Serial {
            bytes,
            compressed: true,
        }
    }

    /// The raw bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Number of contained elements.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when there are no elements.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// True when the buffer holds compressed data.
    pub fn is_compressed(&self) -> bool {
        self.compressed
    }
}

impl fmt::Display for Serial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}-bytes> serial", self.bytes.len())
    }
}

/// How deep lists and hashes may nest in a value, over its whole life: a
/// script cannot build a deeper one and the serialized format's reader
/// refuses one, so every recursive walk of a value is bounded.
pub const MAX_DEPTH: usize = 128;

/// A dynamically typed Nsp value, nested at most [`MAX_DEPTH`] deep.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Real matrix (`r`); scalars are 1×1.
    Real(Matrix),
    /// Boolean matrix (`b`); `%t`/`%f` are 1×1.
    Bool(BoolMatrix),
    /// String matrix (`s`); plain strings are 1×1.
    Str(StrMatrix),
    /// Ordered heterogeneous list (`l`).
    List(List),
    /// Insertion-ordered hash table (`h`).
    Hash(Hash),
    /// Opaque serialized buffer.
    Serial(Serial),
    /// The absent value (empty matrix `[]` doubles as "none" in scripts).
    None,
}

impl Value {
    // ----- constructors ---------------------------------------------------

    /// A 1×1 value.
    pub fn scalar(x: f64) -> Value {
        Value::Real(Matrix::scalar(x))
    }

    /// A 1×1 string value.
    pub fn string<S: Into<String>>(s: S) -> Value {
        Value::Str(StrMatrix::scalar(s))
    }

    /// A 1×1 boolean value.
    pub fn boolean(b: bool) -> Value {
        Value::Bool(BoolMatrix::scalar(b))
    }

    /// A list holding the given items.
    pub fn list(items: Vec<Value>) -> Value {
        Value::List(List::from_vec(items))
    }

    /// Nsp's empty matrix `[]`.
    pub fn empty_matrix() -> Value {
        Value::Real(Matrix::zeros(0, 0))
    }

    // ----- inspectors -----------------------------------------------------

    /// The scalar content of a 1×1 real value.
    pub fn as_scalar(&self) -> Option<f64> {
        match self {
            Value::Real(m) if m.is_scalar() => Some(m.get(0, 0)),
            _ => None,
        }
    }

    /// The string content of a 1×1 string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => s.as_scalar(),
            _ => None,
        }
    }

    /// The boolean content of a 1×1 boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) if b.is_scalar() => Some(b.get(0, 0)),
            _ => None,
        }
    }

    /// The contained real matrix, if any.
    pub fn as_matrix(&self) -> Option<&Matrix> {
        match self {
            Value::Real(m) => Some(m),
            _ => None,
        }
    }

    /// The contained list, if any.
    pub fn as_list(&self) -> Option<&List> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// The contained hash table, if any.
    pub fn as_hash(&self) -> Option<&Hash> {
        match self {
            Value::Hash(h) => Some(h),
            _ => None,
        }
    }

    /// The contained serial buffer, if any.
    pub fn as_serial(&self) -> Option<&Serial> {
        match self {
            Value::Serial(s) => Some(s),
            _ => None,
        }
    }

    /// How many lists and hashes nest in this value: 0 for a leaf, one
    /// more than its deepest item for a list or hash. It recurses once a
    /// level, as `Clone` and `Drop` do: [`MAX_DEPTH`] bounds all three.
    pub fn depth(&self) -> usize {
        match self {
            Value::List(l) => 1 + l.iter().map(Value::depth).max().unwrap_or(0),
            Value::Hash(h) => 1 + h.iter().map(|(_, v)| v.depth()).max().unwrap_or(0),
            _ => 0,
        }
    }

    /// Nsp's `A.equal[B]` — deep structural equality; matrices compare
    /// element-wise exactly.
    pub fn equal(&self, other: &Value) -> bool {
        self == other
    }

    /// Is this the empty matrix `[]` (the stop sentinel of Fig. 4)?
    pub fn is_empty_matrix(&self) -> bool {
        matches!(self, Value::Real(m) if m.is_empty())
    }

    /// Truthiness in `if`/`while` (boolean matrices: all true; scalars:
    /// nonzero).
    pub fn truthy(&self) -> bool {
        match self {
            Value::Bool(b) => b.all() && b.data().iter().count() > 0,
            Value::Real(m) => !m.is_empty() && m.data().iter().all(|&x| x != 0.0),
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Real(m) => write!(f, "{m}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::List(l) => {
                writeln!(f, "l ({})", l.len())?;
                for (i, v) in l.iter().enumerate() {
                    writeln!(f, "({}) = {}", i + 1, v)?;
                }
                Ok(())
            }
            Value::Hash(h) => {
                writeln!(f, "h ({})", h.len())?;
                for (k, v) in h.iter() {
                    writeln!(f, "{k} = {v}")?;
                }
                Ok(())
            }
            Value::Serial(s) => write!(f, "{s}"),
            Value::None => write!(f, "none"),
        }
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::scalar(x)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::boolean(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::string(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::string(s)
    }
}

impl From<Matrix> for Value {
    fn from(m: Matrix) -> Value {
        Value::Real(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Hash {
        /// True when the key is present.
        fn contains_key(&self, key: &str) -> bool {
            self.entries.iter().any(|(k, _)| k == key)
        }
    }

    impl Value {
        /// One-letter type tag as printed by Nsp (`r`, `b`, `s`, `l`, `h`, …).
        fn type_tag(&self) -> char {
            match self {
                Value::Real(_) => 'r',
                Value::Bool(_) => 'b',
                Value::Str(_) => 's',
                Value::List(_) => 'l',
                Value::Hash(_) => 'h',
                Value::Serial(_) => 'z',
                Value::None => 'n',
            }
        }
    }

    #[test]
    fn scalar_round_trip() {
        let v = Value::scalar(3.25);
        assert_eq!(v.as_scalar(), Some(3.25));
        assert_eq!(v.type_tag(), 'r');
        assert!(v.as_str().is_none());
    }

    #[test]
    fn string_round_trip() {
        let v = Value::string("premia");
        assert_eq!(v.as_str(), Some("premia"));
        assert_eq!(v.type_tag(), 's');
    }

    #[test]
    fn list_like_paper_example() {
        // A = list('string', %t, rand(4,4)) from §3.2
        let v = Value::list(vec![
            Value::string("string"),
            Value::boolean(true),
            Value::Real(Matrix::zeros(4, 4)),
        ]);
        let l = v.as_list().unwrap();
        assert_eq!(l.len(), 3);
        assert_eq!(l.get(0).unwrap().as_str(), Some("string"));
        assert_eq!(l.get(1).unwrap().as_bool(), Some(true));
        assert_eq!(l.get(2).unwrap().as_matrix().unwrap().rows(), 4);
    }

    #[test]
    fn hash_insertion_order_preserved() {
        let mut h = Hash::new();
        h.set("B", Value::scalar(2.0));
        h.set("A", Value::scalar(1.0));
        h.set("B", Value::scalar(3.0)); // overwrite keeps position
        let keys: Vec<&str> = h.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["B", "A"]);
        assert_eq!(h.get("B").unwrap().as_scalar(), Some(3.0));
        assert_eq!(h.len(), 2);
        assert!(h.contains_key("A"));
        assert_eq!(h.remove("A").unwrap().as_scalar(), Some(1.0));
        assert!(!h.contains_key("A"));
    }

    #[test]
    fn collecting_entries_builds_what_set_builds() {
        let entries = [
            ("B", 1.0),
            ("A", 2.0),
            ("B", 3.0),
            ("C", 4.0),
            ("A", 5.0),
            ("B", 6.0),
        ];
        let mut want = Hash::new();
        for (k, x) in entries {
            want.set(k, Value::scalar(x));
        }
        let got: Hash = (entries.iter())
            .map(|&(k, x)| (k.to_string(), Value::scalar(x)))
            .collect();
        assert_eq!(got, want);
        let keys: Vec<&str> = got.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["B", "A", "C"]);
        assert_eq!(Hash::from_iter([]), Hash::new());
    }

    #[test]
    fn depth_counts_the_lists_and_hashes_on_the_deepest_path() {
        assert_eq!(Value::scalar(1.0).depth(), 0);
        assert_eq!(Value::None.depth(), 0);
        assert_eq!(Value::list(vec![]).depth(), 1);
        assert_eq!(Value::Hash(Hash::new()).depth(), 1);
        // The deepest path is neither the first nor the last item.
        let mut h = Hash::new();
        h.set("flat", Value::list(vec![Value::scalar(1.0)]));
        h.set("deep", Value::list(vec![Value::list(vec![Value::None])]));
        h.set("leaf", Value::string("x"));
        let v = Value::list(vec![Value::None, Value::Hash(h), Value::list(vec![])]);
        assert_eq!(v.depth(), 4);
    }

    #[test]
    fn list_remove_range_like_fig4() {
        // Lpb(1:mpi_size-1) = [] removes the already-dispatched head.
        let mut l = List::from_vec((0..10).map(|i| Value::scalar(i as f64)).collect());
        l.remove_range(0, 3);
        assert_eq!(l.len(), 7);
        assert_eq!(l.get(0).unwrap().as_scalar(), Some(3.0));
        // Removing past the end clamps.
        l.remove_range(5, 100);
        assert_eq!(l.len(), 5);
    }

    #[test]
    fn empty_matrix_is_stop_sentinel() {
        let stop = Value::empty_matrix();
        assert!(stop.is_empty_matrix());
        assert!(!Value::scalar(0.0).is_empty_matrix());
    }

    #[test]
    fn equal_is_deep() {
        let a = Value::list(vec![Value::string("x"), Value::scalar(1.0)]);
        let b = Value::list(vec![Value::string("x"), Value::scalar(1.0)]);
        let c = Value::list(vec![Value::string("x"), Value::scalar(2.0)]);
        assert!(a.equal(&b));
        assert!(!a.equal(&c));
    }

    #[test]
    fn truthiness() {
        assert!(Value::boolean(true).truthy());
        assert!(!Value::boolean(false).truthy());
        assert!(Value::scalar(1.0).truthy());
        assert!(!Value::scalar(0.0).truthy());
        assert!(!Value::empty_matrix().truthy());
        assert!(!Value::string("x").truthy());
    }

    #[test]
    fn serial_display_matches_paper_format() {
        // The paper prints `<842-bytes> serial`.
        let s = Serial::new(vec![0u8; 842]);
        assert_eq!(format!("{s}"), "<842-bytes> serial");
        assert!(!s.is_compressed());
        assert!(Serial::new_compressed(vec![1]).is_compressed());
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(2.0).as_scalar(), Some(2.0));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::from("s").as_str(), Some("s"));
        assert_eq!(Value::from(String::from("t")).as_str(), Some("t"));
    }
}
