//! The [`ProblemStore`] trait and the directory-backed base store.

use crate::dir::ParentDir;
use nspval::Serial;
use std::path::Path;
use std::sync::Arc;
use xdrser::XdrError;

/// What one [`ProblemStore::fetch`] hands back.
#[derive(Debug, Clone)]
pub struct Fetched {
    /// The unmaterialised serialized problem — the raw on-disk XDR
    /// image, shared so cache hits never copy the payload.
    pub serial: Arc<Serial>,
    /// Cache disposition: `None` means the backend has no cache layer
    /// (a plain [`DirStore`]), `Some(true)` a cache hit, `Some(false)`
    /// a miss that went to the backend.
    pub(crate) cached: Option<bool>,
    /// Bytes the store evicted to make room for this entry (0 unless a
    /// budgeted cache had to reclaim space on this fetch).
    pub(crate) evicted_bytes: u64,
}

impl Fetched {
    /// Wrap a backend read with no cache disposition.
    fn uncached(serial: Serial) -> Self {
        Fetched {
            serial: Arc::new(serial),
            cached: None,
            evicted_bytes: 0,
        }
    }

    /// How this fetch was served.
    pub fn disposition(&self) -> Disposition {
        Disposition {
            cached: self.cached,
            evicted_bytes: self.evicted_bytes,
        }
    }
}

/// How a fetch was served: [`Fetched`] without the bytes, which
/// [`ProblemStore::fetch_into`] hands back in the caller's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disposition {
    /// As `Fetched::cached`.
    pub cached: Option<bool>,
    /// As `Fetched::evicted_bytes`.
    pub evicted_bytes: u64,
}

impl Disposition {
    /// A backend read with no cache layer.
    const UNCACHED: Disposition = Disposition {
        cached: None,
        evicted_bytes: 0,
    };
}

/// Reads the problems of one frame build straight into the frame. It
/// is taken from the store ([`ProblemStore::reader`]) per frame and
/// dropped with it, so whatever it holds open — a [`DirStore`] reader's
/// directory handle — never outlives one frame.
pub trait FrameReader {
    /// As [`ProblemStore::fetch_into`].
    fn fetch_into(&mut self, path: &Path, out: &mut Vec<u8>) -> Result<Disposition, XdrError>;
}

/// Any store reads a frame one [`ProblemStore::fetch_into`] at a time.
impl<S: ProblemStore + ?Sized> FrameReader for &S {
    fn fetch_into(&mut self, path: &Path, out: &mut Vec<u8>) -> Result<Disposition, XdrError> {
        (**self).fetch_into(path, out)
    }
}

/// Aggregate counters a store keeps about itself. All zero for
/// cache-less backends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Total fetches served.
    pub fetches: u64,
    /// Fetches answered from a cache layer.
    pub hits: u64,
    /// Fetches that had to go to the backend.
    pub misses: u64,
    /// Entries evicted to respect a byte budget.
    pub evictions: u64,
    /// Bytes reclaimed by those evictions.
    pub(crate) evicted_bytes: u64,
    /// Entries dropped because their on-disk fingerprint changed or an
    /// explicit [`ProblemStore::invalidate`] was issued.
    pub invalidations: u64,
    /// Entries currently resident in the cache.
    pub resident_entries: u64,
    /// Bytes currently resident in the cache.
    pub resident_bytes: u64,
}

impl StoreStats {
    /// Hit fraction over all fetches (0 when nothing was fetched).
    pub fn hit_rate(&self) -> f64 {
        if self.fetches == 0 {
            0.0
        } else {
            self.hits as f64 / self.fetches as f64
        }
    }
}

/// The one way problem bytes reach the farm.
///
/// A store maps a problem-file path to its serialized (`sload`-style,
/// unmaterialised) byte image. Implementations must be shareable across
/// the master and the slaves (`Send + Sync`), because a live farm run
/// is a thread-world.
pub trait ProblemStore: Send + Sync + std::fmt::Debug {
    /// Fetch the serialized image of the problem at `path`.
    fn fetch(&self, path: &Path) -> Result<Fetched, XdrError>;

    /// Append the bytes [`fetch`](ProblemStore::fetch) would hand back
    /// to `out` — a frame being built — and say how they were served.
    /// On an error `out` is left as it was. The default fetches and
    /// copies, which serves a cache hit with one copy from the cached
    /// buffer.
    fn fetch_into(&self, path: &Path, out: &mut Vec<u8>) -> Result<Disposition, XdrError> {
        let fetched = self.fetch(path)?;
        out.extend_from_slice(fetched.serial.bytes());
        Ok(fetched.disposition())
    }

    /// A reader for one frame build. The default reads through
    /// [`fetch_into`](ProblemStore::fetch_into).
    fn reader(&self) -> Box<dyn FrameReader + '_> {
        Box::new(self)
    }

    /// Drop any cached state for `path` (no-op for cache-less stores).
    /// The next [`fetch`](ProblemStore::fetch) re-reads the backend.
    fn invalidate(&self, _path: &Path) {}

    /// Current counters (all-zero default for stores that keep none).
    fn stats(&self) -> StoreStats {
        StoreStats::default()
    }
}

/// Blanket passthrough so `Arc<dyn ProblemStore>` (and `Arc<DirStore>`
/// etc.) are themselves stores — decorators take `Arc<S>` freely.
impl<S: ProblemStore + ?Sized> ProblemStore for Arc<S> {
    fn fetch(&self, path: &Path) -> Result<Fetched, XdrError> {
        (**self).fetch(path)
    }
    fn fetch_into(&self, path: &Path, out: &mut Vec<u8>) -> Result<Disposition, XdrError> {
        (**self).fetch_into(path, out)
    }
    fn reader(&self) -> Box<dyn FrameReader + '_> {
        (**self).reader()
    }
    fn invalidate(&self, path: &Path) {
        (**self).invalidate(path)
    }
    fn stats(&self) -> StoreStats {
        (**self).stats()
    }
}

/// The base backend: problems live as XDR files in a shared directory
/// (the paper's NFS export). Every fetch is a real disk read through
/// [`xdrser::sload_into`] — header-validated, unmaterialised — and a frame's
/// reads open each file relative to its directory (`docs/STORE.md`,
/// "Read path"). The store itself holds nothing open.
#[derive(Debug, Default)]
pub struct DirStore;

impl DirStore {
    /// A fresh directory store.
    pub fn new() -> Self {
        DirStore
    }
}

impl ProblemStore for DirStore {
    fn fetch(&self, path: &Path) -> Result<Fetched, XdrError> {
        let mut bytes = Vec::new();
        xdrser::sload_into(std::fs::File::open(path)?, &mut bytes)?;
        // A cached serial holds no more than it is budgeted for.
        bytes.shrink_to_fit();
        Ok(Fetched::uncached(Serial::new(bytes)))
    }

    fn reader(&self) -> Box<dyn FrameReader + '_> {
        Box::new(DirReader::default())
    }
}

/// A [`DirStore`]'s reader: each file of the frame opens relative to a
/// handle on its directory, which closes with the reader.
#[derive(Debug, Default)]
struct DirReader {
    dir: ParentDir,
}

impl FrameReader for DirReader {
    fn fetch_into(&mut self, path: &Path, out: &mut Vec<u8>) -> Result<Disposition, XdrError> {
        xdrser::sload_into(self.dir.open(path)?, out)?;
        Ok(Disposition::UNCACHED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nspval::Value;

    fn save(dir: &str, name: &str, v: &Value) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        xdrser::save(&path, v).unwrap();
        path
    }

    #[test]
    fn dir_store_returns_raw_file_bytes() {
        let path = save("store_backend_raw", "a.bin", &Value::scalar(42.0));
        let store = DirStore::new();
        let f = store.fetch(&path).unwrap();
        assert_eq!(f.serial.bytes(), std::fs::read(&path).unwrap().as_slice());
        assert_eq!(f.cached, None);
        assert_eq!(f.evicted_bytes, 0);
        // A cache-less store keeps no counters.
        assert_eq!(store.stats(), StoreStats::default());
        assert_eq!(store.stats().hit_rate(), 0.0);
    }

    #[test]
    fn dir_store_rejects_non_xdr_files() {
        let dir = std::env::temp_dir().join("store_backend_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("junk.bin");
        std::fs::write(&path, b"definitely not XDR").unwrap();
        assert!(DirStore::new().fetch(&path).is_err());
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = DirStore::new()
            .fetch(Path::new("/nonexistent/definitely/missing.bin"))
            .unwrap_err();
        assert!(matches!(err, XdrError::Io(_)));
    }

    #[test]
    fn arc_passthrough_is_a_store() {
        let path = save("store_backend_arc", "a.bin", &Value::scalar(1.0));
        let store: Arc<dyn ProblemStore> = Arc::new(DirStore::new());
        let f = store.fetch(&path).unwrap();
        assert!(!f.serial.bytes().is_empty());
        store.invalidate(&path); // no-op, but callable
        assert_eq!(store.stats(), StoreStats::default());
    }
}
