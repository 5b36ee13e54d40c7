//! The tiered problem store — the storage subsystem behind the farm's
//! three transmission strategies (§4 of the paper).
//!
//! The §4 strategy comparison is really a storage story: NFS wins or
//! loses on *client-side caching effects*, and serialized load wins
//! because it ships unmaterialised `Serial` bytes straight off disk.
//! This crate makes that story explicit:
//!
//! * [`ProblemStore`] — the one trait through which the farm acquires
//!   problem bytes. Every byte-path (full load, the NFS slave-side read,
//!   serialized load) fetches through it; `crates/farm` contains no
//!   direct `std::fs` reads on its job paths.
//! * [`DirStore`] — the base backend: a shared directory (the paper's
//!   NFS export) read via [`xdrser::sload`], returning the raw on-disk
//!   XDR image as an unmaterialised [`nspval::Serial`]; or, through
//!   [`ProblemStore::fetch_into`] and a per-frame [`FrameReader`],
//!   appending it straight into the frame being built.
//! * [`CachingStore`] — a byte-budgeted LRU decorator holding `Serial`
//!   buffers, content-addressed by path + file fingerprint (length +
//!   mtime), with explicit invalidation and full hit/miss/eviction
//!   accounting ([`StoreStats`]).
//! * [`Prefetcher`] — a bounded master-side pipeline that pulls the next
//!   `depth` problems into the store while earlier sends are still in
//!   flight, so a warm cache greets every dispatch.
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
mod prefetch;

pub use backend::{DirStore, Disposition, Fetched, FrameReader, ProblemStore, StoreStats};
pub use cache::CachingStore;
pub use memo::{
    ContentFingerprint, FieldFingerprint, MemoHasher, MemoKey, MemoMap, MemoStats, ResultCache,
};
pub use prefetch::Prefetcher;
