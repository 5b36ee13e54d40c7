//! Transmission strategies — how a pricing problem travels from the
//! master to a slave (§3.3/§4, the column families of Tables II and III).
//!
//! Since the store subsystem landed, every byte of problem data flows
//! through a [`store::ProblemStore`]: the master's full-load and
//! serialized-load prepares *and* the NFS slave-side read all call
//! [`ProblemStore::fetch`] — or, for a serialized load on a raw wire,
//! the store's per-frame [`store::FrameReader`] (`sload_member`) —
//! instead of touching the filesystem directly.
//! That makes the §4 storage effects first-class: put a
//! [`store::CachingStore`] in the [`crate::FarmConfig`] and warm reads
//! skip disk; turn on the [`WirePolicy`] and loaded payloads travel
//! compressed.

use crate::instrument;
use crate::wire::{Body, JobFrame};
use minimpi::Comm;
use nspval::{Serial, Value};
use obs::EventKind;
use pricing::PremiaProblem;
use std::fmt;
use std::path::Path;
use std::sync::Arc;
use store::{Disposition, Fetched, FrameReader, ProblemStore};

/// The three ways of shipping a problem, labelled exactly as in the
/// tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transmission {
    /// "full load": the master reads the file, **materialises** the
    /// `PremiaModel` object, serializes it, packs it and sends it; the
    /// slave unpacks and unserializes.
    FullLoad,
    /// "NFS": the master sends only the file *name*; the slave reads the
    /// file itself from the shared filesystem.
    Nfs,
    /// "serialized load": the master `sload`s the file — raw bytes
    /// straight into a `Serial` object, no materialisation — and sends
    /// that. Always the fastest master-side path (§4.2: "it is always
    /// better to use the sload method").
    SerializedLoad,
}

impl Transmission {
    /// Every variant, in canonical order.
    pub const ALL: [Transmission; 3] = [
        Transmission::FullLoad,
        Transmission::Nfs,
        Transmission::SerializedLoad,
    ];

    /// Table column label.
    pub fn label(&self) -> &'static str {
        match self {
            Transmission::FullLoad => "full load",
            Transmission::Nfs => "NFS",
            Transmission::SerializedLoad => "serialized load",
        }
    }
}

impl fmt::Display for Transmission {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How loaded payloads are encoded on the wire.
///
/// §3.2 of the paper introduces compressed serialized buffers and leaves
/// their effect on transmission as future work; this knob turns them on
/// for the FullLoad/SerializedLoad payload messages. The threshold gates
/// out small payloads where the LZSS header + incompressibility would
/// cost more than the wire saves: a payload is sent compressed only when
/// it is at least `threshold` bytes long *and* actually shrank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WirePolicy {
    /// Compress payloads of at least this many bytes; `None` = never.
    pub(crate) compress_threshold: Option<usize>,
}

impl WirePolicy {
    /// Send every payload raw (the paper's measured configuration).
    pub const RAW: WirePolicy = WirePolicy {
        compress_threshold: None,
    };

    /// Compress payloads of at least `threshold` bytes.
    pub(crate) fn compressed(threshold: usize) -> Self {
        WirePolicy {
            compress_threshold: Some(threshold),
        }
    }
}

impl Default for WirePolicy {
    fn default() -> Self {
        WirePolicy::RAW
    }
}

/// Apply `wire` to a prepared serial: returns the serial to actually
/// send — the same one, uncopied, when sent raw (below threshold,
/// incompressible, or compression disabled) — plus the bytes *saved*.
fn compress_for_wire(serial: Arc<Serial>, wire: &WirePolicy) -> (Arc<Serial>, u64) {
    let Some(threshold) = wire.compress_threshold else {
        return (serial, 0);
    };
    if serial.is_compressed() || serial.len() < threshold {
        return (serial, 0);
    }
    match xdrser::compress_serial(&serial) {
        Ok(compressed) if compressed.len() < serial.len() => {
            let saved = (serial.len() - compressed.len()) as u64;
            (Arc::new(compressed), saved)
        }
        _ => (serial, 0),
    }
}

/// Master-side problem acquisition: fetch through the store and produce
/// the serial the strategy ships — `None` for NFS, where the name alone
/// suffices. Returns the store's fetch disposition alongside so callers
/// can account cache behaviour.
fn prepare_serial(
    store: &dyn ProblemStore,
    strategy: Transmission,
    path: &Path,
) -> Result<Option<(Fetched, Arc<Serial>)>, xdrser::XdrError> {
    match strategy {
        Transmission::FullLoad => {
            // fetch → materialise → re-serialize (the deliberately
            // wasteful baseline of §4.2: "the object created by the
            // master would actually be useless...").
            let fetched = store.fetch(path)?;
            let value = xdrser::unserialize(&fetched.serial)?;
            let problem = PremiaProblem::from_value(&value)
                .map_err(|e| xdrser::XdrError::Corrupt(e.to_string()))?;
            let serial = Arc::new(xdrser::serialize(&problem.to_value()));
            Ok(Some((fetched, serial)))
        }
        Transmission::Nfs => Ok(None),
        Transmission::SerializedLoad => {
            // sload semantics: the store hands back the raw file image
            // as an unmaterialised Serial; ship it as-is.
            let fetched = store.fetch(path)?;
            let serial = fetched.serial.clone();
            Ok(Some((fetched, serial)))
        }
    }
}

/// Master-side preparation of one problem as the serial value a loaded
/// strategy ships — `None` for NFS, where the name alone suffices.
pub fn prepare_payload(
    store: &dyn ProblemStore,
    strategy: Transmission,
    path: &Path,
    wire: &WirePolicy,
) -> Result<Option<Value>, xdrser::XdrError> {
    let prepared = prepare_serial(store, strategy, path)?;
    Ok(prepared
        .map(|(_, serial)| Value::Serial(Arc::unwrap_or_clone(compress_for_wire(serial, wire).0))))
}

/// Emit the store-cache marks for one fetch of `bytes` bytes (hit/miss
/// disposition and any eviction it forced). No-op for cache-less stores
/// (`cached == None`) and without a recorder.
fn mark_cache(comm: &Comm, how: Disposition, bytes: u64) {
    let job = comm.current_job();
    match how.cached {
        Some(true) => instrument::mark(comm, EventKind::CacheHit, job, bytes),
        Some(false) => instrument::mark(comm, EventKind::CacheMiss, job, bytes),
        None => {}
    }
    if how.evicted_bytes > 0 {
        instrument::mark(comm, EventKind::Evict, job, how.evicted_bytes);
    }
}

/// [`prepare_payload`] with phase attribution, as a shared serial (a job
/// frame copies it once): the store fetch + materialisation is timed as
/// [`EventKind::Serialize`] (full load) or [`EventKind::Sload`]
/// (serialized load), the store's disposition lands as `CacheHit` /
/// `CacheMiss` / `Evict` marks, and a beneficial wire compression is timed
/// as [`EventKind::Compress`] with `bytes` = bytes saved. NFS prepares and
/// records nothing. Byte volume of the prepare span is the *uncompressed*
/// serial size, so phase totals stay comparable across wire policies.
pub(crate) fn prepare_serial_recorded(
    comm: &Comm,
    ctx: &crate::config::RunCtx,
    strategy: Transmission,
    path: &Path,
) -> Result<Option<Arc<Serial>>, xdrser::XdrError> {
    let Some(rec) = comm.recorder() else {
        let prepared = prepare_serial(ctx.store.as_ref(), strategy, path)?;
        return Ok(prepared.map(|(_, serial)| compress_for_wire(serial, &ctx.wire).0));
    };
    let kind = match strategy {
        Transmission::FullLoad => EventKind::Serialize,
        Transmission::SerializedLoad => EventKind::Sload,
        Transmission::Nfs => return Ok(None),
    };
    let rec = rec.clone();
    let t0 = rec.now_ns();
    let prepared = prepare_serial(ctx.store.as_ref(), strategy, path)?;
    let Some((fetched, serial)) = prepared else {
        return Ok(None);
    };
    rec.record_span(
        comm.rank(),
        kind,
        comm.current_job(),
        t0,
        serial.len() as u64,
    );
    mark_cache(comm, fetched.disposition(), serial.len() as u64);

    let tc = rec.now_ns();
    let (serial, saved) = compress_for_wire(serial, &ctx.wire);
    if saved > 0 {
        rec.record_span(
            comm.rank(),
            EventKind::Compress,
            comm.current_job(),
            tc,
            saved,
        );
    }
    Ok(Some(serial))
}

/// Serialized load of the problem at `path` as member `id` of `frame`:
/// `reader` appends the file's bytes at their final offset, so the read
/// is the copy. Timed as [`EventKind::Sload`] with the store's
/// disposition marked, as [`prepare_serial_recorded`] does; the
/// [`EventKind::Pack`] that follows is free, the bytes being in place
/// already. Only for an uncompressed wire.
pub(crate) fn sload_member(
    comm: &Comm,
    reader: &mut dyn FrameReader,
    frame: &mut JobFrame,
    id: usize,
    path: &Path,
) -> Result<(), xdrser::XdrError> {
    let t0 = instrument::t0(comm);
    let (how, len) = frame.push_filled(id, |out| reader.fetch_into(path, out))?;
    let bytes = len as u64;
    instrument::span(comm, EventKind::Sload, t0, bytes);
    mark_cache(comm, how, bytes);
    instrument::mark(comm, EventKind::Pack, comm.current_job(), bytes);
    Ok(())
}

/// Slave-side decode of a serialized problem, straight from its bytes —
/// no value tree in between. The one place a shipped or fetched problem
/// becomes a [`PremiaProblem`]: the farm slaves and `serve`'s resident
/// slaves call it on each member of a job frame, borrowed. A compressed serial is inflated first —
/// timed as [`EventKind::Decompress`] when `comm` carries a recorder.
pub fn decode_problem(
    comm: Option<&Comm>,
    bytes: &[u8],
    compressed: bool,
) -> Result<PremiaProblem, xdrser::XdrError> {
    if !compressed {
        return PremiaProblem::from_xdr_bytes(bytes);
    }
    let t0 = comm.and_then(instrument::t0);
    let plain = xdrser::compress::decompress_bytes(bytes)?;
    if let Some(comm) = comm {
        instrument::span(comm, EventKind::Decompress, t0, plain.len() as u64);
    }
    PremiaProblem::from_xdr_bytes(&plain)
}

/// Slave-side recovery of the problem from what arrived; all filesystem
/// access (the NFS read) goes through `store`. With a recording `comm`,
/// the NFS fetch — the dominant slave-side acquisition cost — is timed as
/// [`EventKind::NfsRead`] with the cache disposition marked alongside.
/// The uncompressed loaded path records nothing here: its slave-side
/// receive is already captured by the `Recv`/`Unpack` comm events.
fn recover(
    comm: Option<&Comm>,
    store: &dyn ProblemStore,
    strategy: Transmission,
    name: &str,
    payload: Option<&Value>,
) -> Result<PremiaProblem, xdrser::XdrError> {
    let fetched;
    let serial: &Serial = match strategy {
        Transmission::Nfs => {
            // The slave reads the shared filesystem itself — through the
            // store, so a warm cache serves repeated reads.
            let t0 = comm.and_then(instrument::t0);
            fetched = store.fetch(Path::new(name))?;
            if let Some(comm) = comm {
                let bytes = fetched.serial.len() as u64;
                instrument::span(comm, EventKind::NfsRead, t0, bytes);
                mark_cache(comm, fetched.disposition(), bytes);
            }
            &fetched.serial
        }
        Transmission::FullLoad | Transmission::SerializedLoad => payload
            .ok_or_else(|| {
                xdrser::XdrError::Corrupt("missing payload for loaded transmission".into())
            })?
            .as_serial()
            .ok_or_else(|| xdrser::XdrError::Corrupt("payload is not a Serial".into()))?,
    };
    decode_problem(comm, serial.bytes(), serial.is_compressed())
}

/// Slave-side recovery of one job-frame member: a serial is decoded in
/// place, from the frame's own bytes, timed as [`EventKind::Unpack`]; a
/// name is fetched as NFS does.
pub(crate) fn recover_member(
    comm: &Comm,
    store: &dyn ProblemStore,
    body: Body<'_>,
) -> Result<PremiaProblem, xdrser::XdrError> {
    match body {
        Body::Name(name) => recover(Some(comm), store, Transmission::Nfs, name, None),
        Body::Serial { compressed, bytes } => {
            let t0 = instrument::t0(comm);
            let problem = decode_problem(Some(comm), bytes, compressed);
            instrument::span(comm, EventKind::Unpack, t0, bytes.len() as u64);
            problem
        }
    }
}

/// Slave-side recovery of the problem from what arrived. All filesystem
/// access (the NFS read) goes through `store`.
pub fn recover_problem(
    store: &dyn ProblemStore,
    strategy: Transmission,
    name: &str,
    payload: Option<&Value>,
) -> Result<PremiaProblem, xdrser::XdrError> {
    recover(None, store, strategy, name, payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pricing::PremiaProblem;
    use store::{CachingStore, DirStore};

    fn save_problem(dir: &str) -> (std::path::PathBuf, PremiaProblem) {
        let dir = std::env::temp_dir().join(dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pb.bin");
        let p = PremiaProblem::create("BlackScholes1dim", "CallEuro", "CF").unwrap();
        xdrser::save(&path, &p.to_value()).unwrap();
        (path, p)
    }

    #[test]
    fn full_load_round_trip() {
        let (path, p) = save_problem("strategy_full_load");
        let st = DirStore::new();
        let payload = prepare_payload(&st, Transmission::FullLoad, &path, &WirePolicy::RAW)
            .unwrap()
            .unwrap();
        let back = recover_problem(
            &st,
            Transmission::FullLoad,
            path.to_str().unwrap(),
            Some(&payload),
        )
        .unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn serialized_load_round_trip_and_matches_file_bytes() {
        let (path, p) = save_problem("strategy_sload");
        let st = DirStore::new();
        let payload = prepare_payload(&st, Transmission::SerializedLoad, &path, &WirePolicy::RAW)
            .unwrap()
            .unwrap();
        // sload payload is the raw file content.
        let serial = payload.as_serial().unwrap();
        assert_eq!(serial.bytes(), std::fs::read(&path).unwrap().as_slice());
        let back = recover_problem(
            &st,
            Transmission::SerializedLoad,
            path.to_str().unwrap(),
            Some(&payload),
        )
        .unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn nfs_round_trip_needs_no_payload() {
        let (path, p) = save_problem("strategy_nfs");
        let st = DirStore::new();
        assert!(
            prepare_payload(&st, Transmission::Nfs, &path, &WirePolicy::RAW)
                .unwrap()
                .is_none()
        );
        let back = recover_problem(&st, Transmission::Nfs, path.to_str().unwrap(), None).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn missing_payload_is_error() {
        let (path, _) = save_problem("strategy_missing");
        let st = DirStore::new();
        assert!(
            recover_problem(&st, Transmission::FullLoad, path.to_str().unwrap(), None).is_err()
        );
    }

    #[test]
    fn compressed_wire_round_trips_for_both_loaded_strategies() {
        let (path, p) = save_problem("strategy_wire");
        let st = DirStore::new();
        let wire = WirePolicy::compressed(1); // compress everything
        for strategy in [Transmission::FullLoad, Transmission::SerializedLoad] {
            let payload = prepare_payload(&st, strategy, &path, &wire)
                .unwrap()
                .unwrap();
            let back =
                recover_problem(&st, strategy, path.to_str().unwrap(), Some(&payload)).unwrap();
            assert_eq!(back, p, "{strategy}");
        }
    }

    #[test]
    fn wire_threshold_gates_small_payloads() {
        let small = xdrser::serialize(&Value::scalar(1.0));
        let small = Arc::new(small);
        let (kept, saved) = compress_for_wire(small.clone(), &WirePolicy::compressed(1 << 20));
        assert!(!kept.is_compressed());
        assert_eq!(saved, 0);
        assert!(Arc::ptr_eq(&kept, &small), "sent raw is sent uncopied");
        // RAW never compresses regardless of size.
        let big = xdrser::serialize(&Value::string("a".repeat(4096)));
        let (kept, saved) = compress_for_wire(Arc::new(big.clone()), &WirePolicy::RAW);
        assert!(!kept.is_compressed());
        assert_eq!(saved, 0);
        assert_eq!(*kept, big);
    }

    #[test]
    fn wire_compression_saves_what_it_claims() {
        let big = xdrser::serialize(&Value::string("ab".repeat(4096)));
        let (sent, saved) = compress_for_wire(Arc::new(big.clone()), &WirePolicy::compressed(64));
        assert!(sent.is_compressed());
        assert!(saved > 0);
        assert_eq!(sent.len() as u64 + saved, big.len() as u64);
        assert_eq!(xdrser::decompress_serial(&sent).unwrap(), big);
    }

    #[test]
    fn warm_store_serves_identical_payloads() {
        let (path, _) = save_problem("strategy_warm");
        let st = CachingStore::over_dir(1 << 20);
        for strategy in Transmission::ALL {
            let cold = prepare_payload(&st, strategy, &path, &WirePolicy::RAW).unwrap();
            let warm = prepare_payload(&st, strategy, &path, &WirePolicy::RAW).unwrap();
            assert_eq!(cold, warm, "{strategy}");
        }
        assert!(st.stats().hits > 0);
    }

    #[test]
    fn labels_match_tables() {
        assert_eq!(Transmission::FullLoad.label(), "full load");
        assert_eq!(Transmission::Nfs.label(), "NFS");
        assert_eq!(Transmission::SerializedLoad.label(), "serialized load");
        assert_eq!(format!("{}", Transmission::Nfs), "NFS");
    }
}
