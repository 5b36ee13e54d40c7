//! A byte-budgeted, content-addressed LRU cache over any
//! [`ProblemStore`].

use crate::backend::{Fetched, ProblemStore, StoreStats};
use nspval::Serial;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;
use xdrser::XdrError;

/// What identifies a cached entry's *content*: the file's length and
/// modification time. A rewrite changes at least one of them, so a hit
/// is only served while the on-disk bytes are provably the ones cached
/// — stale entries are invalidated and reloaded, never served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    len: u64,
    mtime: SystemTime,
}

fn fingerprint(path: &Path) -> Result<Fingerprint, XdrError> {
    let meta = std::fs::metadata(path)?;
    Ok(Fingerprint {
        len: meta.len(),
        mtime: meta.modified()?,
    })
}

#[derive(Debug)]
struct Entry {
    serial: Arc<Serial>,
    fp: Fingerprint,
    /// Position in the LRU order (key into `CacheState::lru`).
    tick: u64,
    /// Times this entry was served from cache.
    hits: u64,
}

#[derive(Debug, Default)]
struct CacheState {
    entries: HashMap<PathBuf, Entry>,
    /// `tick → path`, oldest first: the eviction order.
    lru: BTreeMap<u64, PathBuf>,
    /// Paths whose miss is reading the backend right now.
    loading: HashSet<PathBuf>,
    tick: u64,
    resident_bytes: u64,
    fetches: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    evicted_bytes: u64,
    invalidations: u64,
}

impl CacheState {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Remove `path` from the cache (if present), returning its size.
    fn remove(&mut self, path: &Path) -> Option<u64> {
        let entry = self.entries.remove(path)?;
        self.lru.remove(&entry.tick);
        let len = entry.serial.len() as u64;
        self.resident_bytes -= len;
        Some(len)
    }

    /// Evict oldest entries until `resident_bytes + incoming` fits in
    /// `budget`. Returns the bytes reclaimed.
    fn make_room(&mut self, incoming: u64, budget: u64) -> u64 {
        let mut reclaimed = 0;
        while self.resident_bytes + incoming > budget {
            let Some((_, victim)) = self.lru.pop_first() else {
                break;
            };
            let entry = self.entries.remove(&victim).expect("lru and entries agree");
            let len = entry.serial.len() as u64;
            self.resident_bytes -= len;
            self.evictions += 1;
            self.evicted_bytes += len;
            reclaimed += len;
        }
        reclaimed
    }
}

/// A byte-budgeted LRU of unmaterialised [`Serial`] buffers in front of
/// a slower backend.
///
/// * **Content-addressed**: entries are keyed by path *and* revalidated
///   against the file's `(length, mtime)` fingerprint on every hit, so
///   a rewritten problem file is never served stale.
/// * **Byte-budgeted**: resident bytes never exceed the budget; the
///   least-recently-used entries are evicted to make room, and an
///   object larger than the whole budget is served but not cached.
/// * **Shared-nothing hot path**: the backend read happens *outside*
///   the cache lock, so a miss never blocks concurrent hits.
/// * **Single-flight misses**: one backend read per path at a time. A
///   fetcher that finds the path already loading waits for that read
///   and counts a hit, so two threads fetching one file read it once.
#[derive(Debug)]
pub struct CachingStore {
    inner: Arc<dyn ProblemStore>,
    budget: u64,
    state: Mutex<CacheState>,
    /// Signalled whenever a backend read finishes.
    #[allow(
        clippy::disallowed_types,
        reason = "single-flight misses: a fetcher waits for another thread's backend read of \
                  the same path, a wait on shared state that no message queue carries"
    )]
    loaded: std::sync::Condvar,
}

impl CachingStore {
    /// Wrap `inner` with a cache of at most `budget` resident bytes.
    pub fn new(inner: Arc<dyn ProblemStore>, budget: u64) -> Self {
        CachingStore {
            inner,
            budget,
            state: Mutex::new(CacheState::default()),
            loaded: Default::default(),
        }
    }

    /// Convenience: a budgeted cache straight over a [`crate::DirStore`].
    pub fn over_dir(budget: u64) -> Self {
        CachingStore::new(Arc::new(crate::DirStore::new()), budget)
    }

    /// The configured byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }
}

impl ProblemStore for CachingStore {
    fn fetch(&self, path: &Path) -> Result<Fetched, XdrError> {
        let fp = fingerprint(path)?;

        let mut state = self.state.lock().expect("cache lock");
        state.fetches += 1;
        loop {
            // Fast path: serve a fingerprint-validated resident entry.
            if let Some(entry) = state.entries.get(path) {
                if entry.fp == fp {
                    let serial = entry.serial.clone();
                    let old_tick = entry.tick;
                    let tick = state.next_tick();
                    let entry = state.entries.get_mut(path).expect("entry resident");
                    entry.tick = tick;
                    entry.hits += 1;
                    state.lru.remove(&old_tick);
                    state.lru.insert(tick, path.to_path_buf());
                    state.hits += 1;
                    return Ok(Fetched {
                        serial,
                        cached: Some(true),
                        evicted_bytes: 0,
                    });
                }
                // Stale: the file changed under us. Drop and reload.
                state.remove(path);
                state.invalidations += 1;
            }
            // Single flight: another fetcher is already reading this
            // path, so wait for its entry instead of reading it twice.
            if !state.loading.contains(path) {
                break;
            }
            state = self.loaded.wait(state).expect("cache lock");
        }
        state.misses += 1;
        state.loading.insert(path.to_path_buf());
        drop(state);

        // Miss: read the backend *outside* the lock.
        let fetched = self.inner.fetch(path);

        let mut state = self.state.lock().expect("cache lock");
        state.loading.remove(path);
        let loaded = fetched.map(|fetched| {
            let serial = fetched.serial;
            let len = serial.len() as u64;
            let mut evicted = 0;
            if len <= self.budget {
                // Nobody else loads this path while we do, so there is
                // no entry to replace.
                debug_assert!(!state.entries.contains_key(path));
                evicted = state.make_room(len, self.budget);
                let tick = state.next_tick();
                state.lru.insert(tick, path.to_path_buf());
                state.entries.insert(
                    path.to_path_buf(),
                    Entry {
                        serial: serial.clone(),
                        fp,
                        tick,
                        hits: 0,
                    },
                );
                state.resident_bytes += len;
            }
            Fetched {
                serial,
                cached: Some(false),
                evicted_bytes: evicted,
            }
        });
        drop(state);
        // Waiters find the entry (a hit), or — after a failed or
        // uncacheable read — nothing, and read the backend themselves.
        self.loaded.notify_all();
        loaded
    }

    fn invalidate(&self, path: &Path) {
        let mut state = self.state.lock().expect("cache lock");
        if state.remove(path).is_some() {
            state.invalidations += 1;
        }
        self.inner.invalidate(path);
    }

    fn stats(&self) -> StoreStats {
        let state = self.state.lock().expect("cache lock");
        StoreStats {
            fetches: state.fetches,
            hits: state.hits,
            misses: state.misses,
            evictions: state.evictions,
            evicted_bytes: state.evicted_bytes,
            invalidations: state.invalidations,
            resident_entries: state.entries.len() as u64,
            resident_bytes: state.resident_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nspval::Value;

    impl CachingStore {
        /// Times the entry for `path` has been served from cache (`None`
        /// when not resident). Test/diagnostic hook.
        fn entry_hits(&self, path: &Path) -> Option<u64> {
            let state = self.state.lock().expect("cache lock");
            state.entries.get(path).map(|e| e.hits)
        }
    }

    fn setup(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("store_cache_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn save(dir: &Path, name: &str, v: &Value) -> PathBuf {
        let path = dir.join(name);
        xdrser::save(&path, v).unwrap();
        path
    }

    #[test]
    fn second_fetch_is_a_hit_with_identical_bytes() {
        let dir = setup("hit");
        let path = save(&dir, "a.bin", &Value::scalar(7.0));
        let store = CachingStore::over_dir(1 << 20);
        let cold = store.fetch(&path).unwrap();
        let warm = store.fetch(&path).unwrap();
        assert_eq!(cold.cached, Some(false));
        assert_eq!(warm.cached, Some(true));
        assert_eq!(cold.serial.bytes(), warm.serial.bytes());
        let s = store.stats();
        assert_eq!((s.fetches, s.hits, s.misses), (2, 1, 1));
        assert_eq!(s.resident_entries, 1);
        assert_eq!(s.resident_bytes, cold.serial.len() as u64);
        assert_eq!(store.entry_hits(&path), Some(1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rewrite_invalidates_the_entry() {
        let dir = setup("rewrite");
        let path = save(&dir, "a.bin", &Value::string("first version"));
        let store = CachingStore::over_dir(1 << 20);
        store.fetch(&path).unwrap();
        // Rewrite with different-length content: the fingerprint moves.
        xdrser::save(&path, &Value::string("second, longer version!")).unwrap();
        let after = store.fetch(&path).unwrap();
        assert_eq!(after.cached, Some(false), "stale entry must not be served");
        assert_eq!(
            xdrser::unserialize(&after.serial).unwrap(),
            Value::string("second, longer version!")
        );
        assert_eq!(store.stats().invalidations, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explicit_invalidate_forces_a_reload() {
        let dir = setup("explicit");
        let path = save(&dir, "a.bin", &Value::scalar(1.0));
        let store = CachingStore::over_dir(1 << 20);
        store.fetch(&path).unwrap();
        store.invalidate(&path);
        assert_eq!(store.fetch(&path).unwrap().cached, Some(false));
        let s = store.stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.misses, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lru_eviction_respects_budget_and_order() {
        let dir = setup("lru");
        let paths: Vec<PathBuf> = (0..3)
            .map(|i| save(&dir, &format!("p{i}.bin"), &Value::scalar(i as f64)))
            .collect();
        let one = file_size(&paths[0]);
        // Budget fits exactly two entries.
        let store = CachingStore::over_dir(2 * one);
        store.fetch(&paths[0]).unwrap();
        store.fetch(&paths[1]).unwrap();
        store.fetch(&paths[0]).unwrap(); // touch p0: p1 becomes LRU
        let third = store.fetch(&paths[2]).unwrap();
        assert_eq!(third.evicted_bytes, one, "one entry evicted to fit");
        let s = store.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.resident_entries, 2);
        assert!(s.resident_bytes <= store.budget());
        // p1 (least recently used) was the victim; p0 is still warm.
        assert_eq!(store.fetch(&paths[0]).unwrap().cached, Some(true));
        assert_eq!(store.fetch(&paths[1]).unwrap().cached, Some(false));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_entry_served_but_not_cached() {
        let dir = setup("oversize");
        let path = save(&dir, "big.bin", &Value::string("x".repeat(512)));
        let store = CachingStore::over_dir(16); // tiny budget
        let f = store.fetch(&path).unwrap();
        assert_eq!(f.cached, Some(false));
        let s = store.stats();
        assert_eq!(s.resident_entries, 0);
        assert_eq!(s.resident_bytes, 0);
        // Still a miss next time — but correct bytes both times.
        assert_eq!(store.fetch(&path).unwrap().serial.bytes(), f.serial.bytes());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_does_not_poison_the_cache() {
        let dir = setup("missing");
        let store = CachingStore::over_dir(1 << 20);
        assert!(store.fetch(&dir.join("nope.bin")).is_err());
        let path = save(&dir, "a.bin", &Value::scalar(3.0));
        assert_eq!(store.fetch(&path).unwrap().cached, Some(false));
        assert_eq!(store.fetch(&path).unwrap().cached, Some(true));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Size of the serialized file at `path`.
    fn file_size(path: &Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
    }

    #[test]
    fn concurrent_fetches_agree_and_account_sanely() {
        let dir = setup("concurrent");
        let path = save(&dir, "a.bin", &Value::scalar(9.0));
        let store = Arc::new(CachingStore::over_dir(1 << 20));
        let expect = std::fs::read(&path).unwrap();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let store = store.clone();
            let path = path.clone();
            let expect = expect.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    let f = store.fetch(&path).unwrap();
                    assert_eq!(f.serial.bytes(), expect.as_slice());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = store.stats();
        assert_eq!(s.fetches, 400);
        assert_eq!(s.hits + s.misses, 400);
        assert!(s.hits >= 392, "at most one miss per thread: {s:?}");
        assert_eq!(s.resident_entries, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A directory backend that holds every read until the cache in
    /// front of it has counted `fetchers` fetches, so no read can finish
    /// before every fetcher has looked at the cache.
    #[derive(Debug)]
    struct HeldUntilAllArrive {
        cache: std::sync::OnceLock<std::sync::Weak<CachingStore>>,
        fetchers: u64,
        reads: std::sync::atomic::AtomicU64,
    }

    impl ProblemStore for HeldUntilAllArrive {
        fn fetch(&self, path: &Path) -> Result<Fetched, XdrError> {
            use std::time::{Duration, Instant};
            self.reads.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let cache = self.cache.get().and_then(|c| c.upgrade()).expect("cache");
            let t0 = Instant::now();
            while cache.stats().fetches < self.fetchers {
                assert!(
                    t0.elapsed() < Duration::from_secs(10),
                    "a fetcher never came"
                );
                std::thread::yield_now();
            }
            crate::DirStore::new().fetch(path)
        }
    }

    #[test]
    fn concurrent_misses_of_one_path_read_the_backend_once() {
        let dir = setup("single_flight");
        let path = save(&dir, "a.bin", &Value::scalar(5.0));
        let backend = Arc::new(HeldUntilAllArrive {
            cache: Default::default(),
            fetchers: 2,
            reads: Default::default(),
        });
        let store = Arc::new(CachingStore::new(backend.clone(), 1 << 20));
        backend.cache.set(Arc::downgrade(&store)).unwrap();
        let start = std::sync::Barrier::new(2);
        let cached: Vec<Option<bool>> = std::thread::scope(|s| {
            let fetcher = || {
                start.wait();
                store.fetch(&path).unwrap().cached
            };
            let (a, b) = (s.spawn(fetcher), s.spawn(fetcher));
            vec![a.join().unwrap(), b.join().unwrap()]
        });
        // The second fetcher waited for the first one's read.
        assert_eq!(backend.reads.load(std::sync::atomic::Ordering::SeqCst), 1);
        let s = store.stats();
        assert_eq!((s.fetches, s.hits, s.misses), (2, 1, 1), "{s:?}");
        assert!(cached.contains(&Some(true)) && cached.contains(&Some(false)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
