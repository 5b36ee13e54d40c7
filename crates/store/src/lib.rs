//! The tiered problem store — the storage subsystem behind the farm's
//! three transmission strategies (§4 of the paper).
//!
//! The §4 strategy comparison is really a storage story: NFS wins or
//! loses on *client-side caching effects*, and serialized load wins
//! because it ships unmaterialised `Serial` bytes straight off disk.
//! This crate makes that story explicit:
//!
//! * [`ProblemStore`] — the trait through which problem bytes are
//!   acquired.
//! * [`DirStore`] — the base backend and the farm's one read path: a
//!   shared directory (the paper's NFS export) read via
//!   [`xdrser::sload`], returning the raw on-disk XDR image as an
//!   unmaterialised [`nspval::Serial`]; or, through
//!   [`ProblemStore::fetch_into`] and a per-frame [`FrameReader`],
//!   appending it straight into the frame being built. Every farm
//!   byte-path (full load, the NFS slave-side read, serialized load)
//!   reads through it; `crates/farm` contains no direct `std::fs` reads
//!   on its job paths.
//! * [`CachingStore`] — a byte-budgeted LRU decorator holding `Serial`
//!   buffers, content-addressed by path + file fingerprint (length +
//!   mtime), with explicit invalidation and full hit/miss/eviction
//!   accounting ([`StoreStats`]). No farm run reads through it: it is
//!   what the `perf` harness's store replays time. A warm client cache
//!   in front of the farm is priced on the simulator instead
//!   (`clustersim`'s store model).
//! * [`ResultCache`] — the fingerprint idea extended from problem bytes
//!   to computed *answers*: a byte-budgeted LRU memo keyed by
//!   [`ContentFingerprint`] × execution parameters ([`MemoKey`]), used
//!   by the serving session to coalesce identical requests. The session
//!   takes the fingerprint from a problem's fields
//!   ([`ContentFingerprint::of_fields`] over a [`FieldFingerprint`]):
//!   the hash and exact length of the bytes, with no bytes written.
//!
//! See `docs/STORE.md` and `docs/SERVICE.md` for the design discussion.

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

mod backend;
mod cache;
mod dir;
mod memo;

pub use backend::{DirStore, Disposition, Fetched, FrameReader, ProblemStore, StoreStats};
pub use cache::CachingStore;
pub use memo::{
    ContentFingerprint, FieldFingerprint, MemoHasher, MemoKey, MemoMap, MemoStats, ResultCache,
};
