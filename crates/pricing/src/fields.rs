//! Where a problem's fields are read from.
//!
//! `problem.rs` lists each spec's fields once per direction. Writing goes
//! through [`xdrser::FieldSink`] — into a [`Hash`], or straight into
//! serialized bytes; reading through [`Fields`] here — from a [`Hash`]
//! (what `nsplang` and `save`/`load` handle), or straight from the
//! serialized bytes when they are in the order the field list writes
//! them ([`read_in_order`]). Bytes in any other order are read into a
//! [`Hash`] first. Either way it is one field list, so the two
//! representations cannot drift apart.

use crate::problem::PricingError;
use nspval::{Hash, Value};
use std::cell::RefCell;
use xdrser::{Node, Walker};

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
// Reading serialized bytes in the order they were written
// ---------------------------------------------------------------------------

/// A cursor over a serialized hash whose reader asks for the entries in
/// the order they sit in the bytes.
struct InOrder<'a> {
    w: Walker<'a>,
    /// Entries not yet read: of the root, of the nested table now open.
    left: [usize; 2],
    /// Root entries read so far; an entry holding a table numbers it.
    read: usize,
    /// The table now open (0: the root).
    open: usize,
    /// Some getter went unanswered: the cursor answers nothing more.
    missed: bool,
}

impl<'a> InOrder<'a> {
    /// The next entry of `table`, if `key` is its key.
    fn next(&mut self, table: usize, key: &str) -> Option<Node<'a>> {
        if self.missed {
            return None;
        }
        if table != self.open {
            // Only back to the root, and only from a table read out.
            if table != 0 || self.left[1] != 0 {
                return None;
            }
            self.open = 0;
        }
        let left = &mut self.left[usize::from(table != 0)];
        *left = left.checked_sub(1)?;
        self.read += usize::from(table == 0);
        if !self.w.key_is(key).ok()? {
            return None;
        }
        self.w.node().ok()
    }
}

/// One table of an [`InOrder`] read. A getter is answered from the
/// *next* entry of its table or not at all, and the first one not
/// answered — another key there, another type, no entry left — is the
/// last one asked: the read as a whole then fails.
#[derive(Clone, Copy)]
pub(crate) struct InOrderRef<'c, 'a> {
    cursor: &'c RefCell<InOrder<'a>>,
    table: usize,
}

impl<'a> InOrderRef<'_, 'a> {
    fn entry<T>(self, key: &str, pick: impl FnOnce(Node<'a>) -> Option<T>) -> Option<T> {
        let mut cursor = self.cursor.borrow_mut();
        let found = cursor.next(self.table, key).and_then(pick);
        cursor.missed |= found.is_none();
        found
    }
}

impl<'a> Fields<'a> for InOrderRef<'_, 'a> {
    fn scalar(self, key: &str) -> Option<f64> {
        self.entry(key, |node| match node {
            Node::Scalar(x) => Some(x),
            _ => None,
        })
    }
    fn string(self, key: &str) -> Option<&'a str> {
        self.entry(key, |node| match node {
            Node::Str(s) => Some(s),
            _ => None,
        })
    }
    fn boolean(self, key: &str) -> Option<bool> {
        self.entry(key, |node| match node {
            Node::Bool(b) => Some(b),
            _ => None,
        })
    }
    fn table(self, key: &str) -> Option<Option<Self>> {
        let entries = self.entry(key, |node| match node {
            // Only the root's hashes are tables: no field list reads deeper.
            Node::Hash(n) if self.table == 0 => Some(n),
            _ => None,
        })?;
        let mut cursor = self.cursor.borrow_mut();
        cursor.left[1] = entries;
        cursor.open = cursor.read;
        Some(Some(InOrderRef {
            cursor: self.cursor,
            table: cursor.open,
        }))
    }
}

/// Read serialized bytes whose entries sit exactly where `read` asks for
/// them — the bytes a field list wrote, read by the same list. `None`
/// when they are anything else (another order, an entry never asked
/// for, a duplicate, a wrong type, any fault of the format), or when
/// `read` itself gives up: what is and is not a problem is for the
/// value path to say, from the start of the bytes.
pub(crate) fn read_in_order<'a, T>(
    bytes: &'a [u8],
    read: impl FnOnce(InOrderRef<'_, 'a>) -> Option<T>,
) -> Option<T> {
    let mut w = Walker::open(bytes).ok()?;
    let Node::Hash(entries) = w.node().ok()? else {
        return None;
    };
    let cursor = RefCell::new(InOrder {
        w,
        left: [entries, 0],
        read: 0,
        open: 0,
        missed: false,
    });
    let found = read(InOrderRef {
        cursor: &cursor,
        table: 0,
    })?;
    let InOrder {
        w, left, missed, ..
    } = cursor.into_inner();
    (!missed && left == [0, 0] && w.close().is_ok()).then_some(found)
}
