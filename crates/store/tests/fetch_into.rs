//! `ProblemStore::fetch_into` and the per-frame readers against `fetch`:
//! the same bytes, the same disposition, the same error — and on an
//! error the caller's buffer exactly as it was.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use store::{CachingStore, DirStore, Disposition, Fetched, ProblemStore, StoreStats};
use xdrser::XdrError;

/// What a frame holds before the member is appended.
const HEAD: &[u8] = b"frame head";

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("store_fetch_into_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A file of `n` bytes that starts like a serialized value whenever it
/// is long enough to.
fn problem_bytes(n: usize, seed: u8) -> Vec<u8> {
    let mut bytes = b"NSPS\0\0\0\x01".to_vec();
    bytes.extend((0..n).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)));
    bytes.truncate(n);
    bytes
}

/// Every path the sweep reads: files too short to be a serial, of sizes
/// that fill the reads exactly (1 and 1 + 2 KiB) and of sizes around
/// them, in two directories taken in turn, and the ways a path can fail.
fn corpus(tag: &str) -> (Vec<PathBuf>, PathBuf) {
    let root = fresh_dir(tag);
    let (a, b) = (root.join("a"), root.join("b"));
    std::fs::create_dir_all(&a).unwrap();
    std::fs::create_dir_all(&b).unwrap();
    let mut paths = Vec::new();
    let sizes = [0, 7, 8, 1_024, 3_072, 8_191, 8_192, 8_193, 1 << 20];
    for (k, n) in sizes.into_iter().enumerate() {
        let path = [&a, &b][k % 2].join(format!("pb-{n}.bin"));
        std::fs::write(&path, problem_bytes(n, k as u8)).unwrap();
        paths.push(path);
    }
    #[cfg(unix)]
    {
        use std::os::unix::ffi::OsStrExt;
        let name = std::ffi::OsStr::from_bytes(b"pb-\xff\xfe.bin");
        let path = a.join(name);
        std::fs::write(&path, problem_bytes(493, 9)).unwrap();
        paths.push(path);
    }
    paths.push(a.join("missing.bin"));
    paths.push(root.join("no-such-dir").join("pb.bin"));
    paths.push(b.clone());
    paths.push(PathBuf::from("pb.bin"));
    paths.push(paths[2].join("pb.bin"));
    (paths, root)
}

/// `fetch`'s answer and `fetch_into`'s agree: on success the appended
/// bytes are the fetched ones and the disposition is the same, on error
/// the error is (same variant, same OS error) and `out` is untouched.
fn agree(
    path: &Path,
    case: &str,
    fetched: Result<Fetched, XdrError>,
    into: impl FnOnce(&mut Vec<u8>) -> Result<Disposition, XdrError>,
) {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(HEAD);
    let got = into(&mut out);
    match (fetched, got) {
        (Ok(f), Ok(how)) => {
            assert_eq!(&out[..HEAD.len()], HEAD, "{case} {path:?}");
            assert!(out[HEAD.len()..] == *f.serial.bytes(), "{case} {path:?}");
            assert_eq!(how, f.disposition(), "{case} {path:?}");
        }
        (Err(want), Err(got)) => {
            assert_eq!(out, HEAD, "{case} {path:?}: the buffer moved");
            assert_eq!(
                std::mem::discriminant(&want),
                std::mem::discriminant(&got),
                "{case} {path:?}"
            );
            assert_eq!(want.to_string(), got.to_string(), "{case} {path:?}");
        }
        (want, got) => panic!(
            "{case} {path:?}: fetch {:?} but fetch_into {got:?}",
            want.map(|f| f.serial.len())
        ),
    }
}

/// A store that implements only `fetch`: the trait's defaults read it.
#[derive(Debug, Default)]
struct FetchOnly(DirStore);

impl ProblemStore for FetchOnly {
    fn fetch(&self, path: &Path) -> Result<Fetched, XdrError> {
        self.0.fetch(path)
    }
}

#[test]
fn fetch_into_appends_what_fetch_returns_or_fails_as_it_does() {
    let (paths, root) = corpus("equivalence");
    // One reader per store across the whole sweep, as a frame build
    // holds one: its directory handle moves between `a` and `b`.
    let dir = DirStore::new();
    let mut dir_frame = dir.reader();
    let custom = FetchOnly::default();
    let mut custom_frame = custom.reader();
    for path in &paths {
        let p = path.as_path();
        let fetched = || DirStore::new().fetch(p);
        agree(p, "DirStore", fetched(), |out| dir.fetch_into(p, out));
        agree(p, "DirStore reader", fetched(), |out| {
            dir_frame.fetch_into(p, out)
        });
        agree(p, "default", fetched(), |out| custom.fetch_into(p, out));
        agree(p, "default reader", fetched(), |out| {
            custom_frame.fetch_into(p, out)
        });

        // A miss: each side against a cold cache of its own.
        let cold = || CachingStore::over_dir(1 << 30);
        agree(p, "cache miss", cold().fetch(p), |out| {
            cold().fetch_into(p, out)
        });
        // A hit: both served from the entry the first fetch left.
        let warm = CachingStore::over_dir(1 << 30);
        let _ = warm.fetch(p);
        let hit = warm.fetch(p);
        agree(p, "cache hit", hit, |out| warm.reader().fetch_into(p, out));
        // An entry larger than the budget is served but never kept.
        let tiny = CachingStore::over_dir(1);
        agree(p, "oversize entry", tiny.fetch(p), |out| {
            tiny.fetch_into(p, out)
        });
        assert_eq!(tiny.stats().resident_entries, 0);
    }
    // Cache-less stores keep no counters, whichever way they read.
    assert_eq!(dir.stats(), StoreStats::default());
    assert_eq!(custom.stats(), StoreStats::default());
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_directory_replaced_between_frames_is_read_anew() {
    let root = fresh_dir("stale");
    let portfolio = root.join("portfolio");
    let path = portfolio.join("pb-00001.bin");
    let (old, new) = (problem_bytes(493, 1), problem_bytes(501, 2));
    std::fs::create_dir_all(&portfolio).unwrap();
    std::fs::write(&path, &old).unwrap();

    // Two runs share one directory store, one directly and one through
    // a cache; each frame takes its own reader.
    let dir = Arc::new(DirStore::new());
    let cache = CachingStore::new(dir.clone(), 1 << 20);
    let frame = |store: &dyn ProblemStore| {
        let mut reader = store.reader();
        let mut out = Vec::new();
        reader.fetch_into(&path, &mut out).unwrap();
        out
    };
    assert_eq!(frame(dir.as_ref()), old);
    assert_eq!(frame(&cache), old);

    // Between two frames the directory is renamed away and a new one
    // takes its path.
    std::fs::rename(&portfolio, root.join("portfolio.old")).unwrap();
    std::fs::create_dir_all(&portfolio).unwrap();
    std::fs::write(&path, &new).unwrap();
    assert_eq!(frame(dir.as_ref()), new);
    assert_eq!(frame(&cache), new);
    assert_eq!(cache.stats().invalidations, 1);
    std::fs::remove_dir_all(&root).ok();
}
