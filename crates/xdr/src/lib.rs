//! Architecture-independent serialization of Nsp values.
//!
//! The paper stores `PremiaModel` objects (and arbitrary Nsp values) with
//! the XDR library — eXternal Data Representation, RFC 4506: big-endian,
//! 4-byte aligned primitives — "so that any `PremiaModel` object can be
//! saved to a file in a format which is independent of the computer
//! architecture". This crate reproduces that stack:
//!
//! * `codec` — the XDR primitive encoder/decoder (big-endian integers,
//!   IEEE doubles, length-prefixed padded opaques);
//! * [`serialize`] / [`unserialize`] — Nsp values ↔ `Serial` byte buffers,
//!   the payloads of `MPI_Send_Obj`;
//! * [`save`] / [`load`] — write/read a value to/from a file (same byte
//!   format as serialization, exactly as in Nsp where "serialization just
//!   redirects the binary savings of objects to a string buffer");
//! * [`sload`] — load a file **directly into a `Serial` object** without
//!   materialising the value (Fig. 2); this is the "serialized load"
//!   transmission strategy of Tables II/III; [`sload_into`] appends the
//!   same bytes from an open file to a caller's buffer;
//! * [`FieldSink`] / [`Encoder`] / [`Walker`] — the same bytes written and
//!   read without the value tree in between, for ranks that know what
//!   they hold — and, through the `Encoder`'s size rules, measured
//!   without being written. The `Walker` is the format's one reader:
//!   [`unserialize_bytes`] builds its value from the walker's nodes;
//! * [`compress`] — LZSS compression of serial buffers (§3.2's
//!   compressed-serialization extension, left as future work in the paper
//!   and implemented here as an ablation).
//!
//! Serialized bytes come from outside the program, so no reader recurses
//! on them. The value reader refuses lists and hashes nested deeper than
//! [`nspval::MAX_DEPTH`] (128, serde_json's default bound) as
//! [`XdrError::Corrupt`]: the bound of a value's whole life, which a
//! script cannot build past either, so the recursive writer behind
//! [`serialize`] and [`save`] is bounded too.

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]
mod codec;
pub mod compress;
mod direct;
mod error;
mod ser;

pub use codec::XdrWriter;
pub use compress::{compress_serial, decompress_serial};
pub use direct::{Encoder, FieldSink, ListEncoder, Node, Reals, Strs, Walker};
pub use error::XdrError;
pub use ser::{
    load, save, serialize, serialize_to_bytes, sload, sload_into, unserialize, unserialize_bytes,
};
