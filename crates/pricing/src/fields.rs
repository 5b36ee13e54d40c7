//! Where a problem's fields are read from.
//!
//! `problem.rs` lists each spec's fields once per direction. Writing goes
//! through [`xdrser::FieldSink`] — into a [`Hash`], or straight into
//! serialized bytes; reading through [`Fields`] here — from a [`Hash`]
//! (what `nsplang` and `save`/`load` handle), or from a [`Tree`] over
//! the serialized bytes themselves. Either way it is one field list, so
//! the two representations cannot drift apart.

use crate::problem::PricingError;
use nspval::{Hash, Value};
use xdrser::{Node, Walker, XdrError};

/// A string-keyed table being read. A getter answers `None` when the key
/// is absent *or* holds another type or shape (a 2×1 matrix is not a
/// scalar).
pub(crate) trait Fields<'s>: Copy {
    fn scalar(self, key: &str) -> Option<f64>;
    fn string(self, key: &str) -> Option<&'s str>;
    fn boolean(self, key: &str) -> Option<bool>;
    /// `None` when the key is absent, `Some(None)` when it does not hold
    /// a table.
    fn table(self, key: &str) -> Option<Option<Self>>;
}

impl<'h> Fields<'h> for &'h Hash {
    fn scalar(self, key: &str) -> Option<f64> {
        self.get(key)?.as_scalar()
    }
    fn string(self, key: &str) -> Option<&'h str> {
        self.get(key)?.as_str()
    }
    fn boolean(self, key: &str) -> Option<bool> {
        self.get(key)?.as_bool()
    }
    fn table(self, key: &str) -> Option<Option<Self>> {
        self.get(key).map(Value::as_hash)
    }
}

fn missing(what: &str, key: &str) -> PricingError {
    PricingError::Malformed(format!("missing {what} field {key}"))
}

pub(crate) fn get_f64<'s>(h: impl Fields<'s>, key: &str) -> Result<f64, PricingError> {
    h.scalar(key).ok_or_else(|| missing("scalar", key))
}

pub(crate) fn get_str<'s>(h: impl Fields<'s>, key: &str) -> Result<&'s str, PricingError> {
    h.string(key).ok_or_else(|| missing("string", key))
}

pub(crate) fn get_usize<'s>(h: impl Fields<'s>, key: &str) -> Result<usize, PricingError> {
    let x = get_f64(h, key)?;
    if x < 0.0 || x.fract() != 0.0 {
        return Err(PricingError::Malformed(format!(
            "field {key} is not a count: {x}"
        )));
    }
    Ok(x as usize)
}

pub(crate) fn get_bool<'s>(h: impl Fields<'s>, key: &str) -> Result<bool, PricingError> {
    h.boolean(key).ok_or_else(|| missing("boolean", key))
}

pub(crate) fn get_table<'s, F: Fields<'s>>(h: F, key: &str) -> Result<F, PricingError> {
    match h.table(key) {
        Some(Some(t)) => Ok(t),
        Some(None) => Err(PricingError::Malformed(format!("{key} is not a hash"))),
        None => Err(PricingError::Malformed(format!("missing {key}"))),
    }
}

// ---------------------------------------------------------------------------
// Reading from serialized bytes
// ---------------------------------------------------------------------------

/// One hash entry: the table it belongs to, its key, what it holds.
type Entry<'a> = (usize, &'a str, Node<'a>);

/// The entries of a serialized hash and of the hashes directly under it
/// — as deep as a problem goes — keys and leaves borrowed from the
/// bytes; everything else in the value is checked and passed over.
///
/// Entries sit in reading order, so a nested hash's own follow the entry
/// that holds it: the table of the entry at index `i` is numbered
/// `i + 1` and, with `m` entries, spans `i + 1 .. i + 1 + m`. The root
/// is table 0, spanning everything.
#[derive(Debug)]
pub(crate) struct Tree<'a>(Vec<Entry<'a>>);

impl<'a> Tree<'a> {
    /// Read serialized bytes, holding them to everything
    /// `xdrser::unserialize_bytes` holds them to. `Ok(None)` when the
    /// value is well-formed but not a hash.
    pub(crate) fn read(bytes: &'a [u8]) -> Result<Option<Tree<'a>>, XdrError> {
        let mut w = Walker::open(bytes)?;
        // Room for the canonical encoding's largest problem.
        let mut tree = Tree(Vec::with_capacity(28));
        let is_hash = match w.node()? {
            Node::Hash(n) => {
                tree.read_table(&mut w, n, 0)?;
                true
            }
            other => {
                w.skip_rest(other)?;
                false
            }
        };
        w.close()?;
        Ok(is_hash.then_some(tree))
    }

    fn read_table(&mut self, w: &mut Walker<'a>, n: usize, table: usize) -> Result<(), XdrError> {
        for _ in 0..n {
            let key = w.key()?;
            let node = w.node()?;
            self.0.push((table, key, node));
            match node {
                Node::Hash(m) if table == 0 => self.read_table(w, m, self.0.len())?,
                other => w.skip_rest(other)?,
            }
        }
        Ok(())
    }

    pub(crate) fn root(&self) -> TableRef<'_, 'a> {
        TableRef {
            entries: &self.0,
            table: 0,
            end: self.0.len(),
        }
    }
}

/// One table of a [`Tree`]: the entries numbered `table` within
/// `table..end`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TableRef<'t, 'a> {
    entries: &'t [Entry<'a>],
    table: usize,
    end: usize,
}

impl<'a> TableRef<'_, 'a> {
    /// The entry under `key` and where it sits. Latest first: as in
    /// `Hash::set`, a later duplicate of a key replaced the earlier one.
    fn find(self, key: &str) -> Option<(usize, Node<'a>)> {
        self.entries[self.table..self.end]
            .iter()
            .enumerate()
            .rev()
            .find(|(_, e)| e.0 == self.table && e.1 == key)
            .map(|(at, e)| (self.table + at, e.2))
    }
}

impl<'a> Fields<'a> for TableRef<'_, 'a> {
    fn scalar(self, key: &str) -> Option<f64> {
        match self.find(key)?.1 {
            Node::Scalar(x) => Some(x),
            _ => None,
        }
    }
    fn string(self, key: &str) -> Option<&'a str> {
        match self.find(key)?.1 {
            Node::Str(s) => Some(s),
            _ => None,
        }
    }
    fn boolean(self, key: &str) -> Option<bool> {
        match self.find(key)?.1 {
            Node::Bool(b) => Some(b),
            _ => None,
        }
    }
    fn table(self, key: &str) -> Option<Option<Self>> {
        Some(match self.find(key)? {
            // Only the root's hashes were read as tables.
            (at, Node::Hash(n)) if self.table == 0 => Some(TableRef {
                entries: self.entries,
                table: at + 1,
                end: at + 1 + n,
            }),
            _ => None,
        })
    }
}
