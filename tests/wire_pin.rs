//! The farm's wire, pinned without a clock.
//!
//! Every front-end moves a fixed set of messages for a fixed portfolio:
//! which slave gets which job varies from run to run, but how many
//! messages are sent and how many bytes they carry does not. This test
//! records both with a [`Recorder`] attached — the `Send` event count
//! and their byte total — and compares them with constants taken on the
//! commit *before* the farm's slave loops and master drivers were
//! collapsed into one of each. They are exact, like the allocation
//! counts of `tests/nsp_linear.rs`: any drift in the protocol (an extra
//! message, a wider answer, a lost stop sentinel) is a failure, not a
//! band.

use riskbench::farm::hierarchy::run_hierarchical_farm;
use riskbench::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const JOBS: usize = 60;
const SLAVES: usize = 3;

/// Every problem path is padded to exactly this many bytes: the name
/// message carries the path, so its size would otherwise follow the
/// host's temporary directory.
const PATH_LEN: usize = 96;

/// `(Send events, bytes they carried)`.
type Wire = (usize, u64);

// Recorded on the parent commit (9a27656), 60 toy jobs.
const PLAIN_FULL_LOAD: Wire = (183, 40_860);
const PLAIN_NFS: Wire = (123, 13_500);
const PLAIN_SERIALIZED_LOAD: Wire = (183, 40_860);
const SUPERVISED_INERT_SLOAD: Wire = (183, 40_860);
const BATCHED_4_SLOAD: Wire = (33, 39_840);
const HIERARCHICAL_2X2_SLOAD: Wire = (188, 56_304);

/// The toy portfolio saved under a directory whose name pads every
/// file's path to [`PATH_LEN`] bytes.
fn setup() -> (Vec<PathBuf>, PathBuf) {
    let tmp = std::env::temp_dir();
    let file = "pb-00000.bin".len();
    let fixed = tmp.to_string_lossy().len() + 1 + "wire_pin_".len() + 1 + file;
    assert!(
        fixed < PATH_LEN,
        "temporary directory too long to pad paths to {PATH_LEN} bytes: {}",
        tmp.display()
    );
    let dir = tmp.join(format!("wire_pin_{}", "x".repeat(PATH_LEN - fixed)));
    let _ = std::fs::remove_dir_all(&dir);
    let files = save_portfolio(&toy_portfolio(JOBS), &dir).unwrap();
    for f in &files {
        assert_eq!(f.to_string_lossy().len(), PATH_LEN);
    }
    (files, dir)
}

/// Run `farm` with a recorder covering `ranks` ranks; return what it sent.
fn wire_of(
    ranks: usize,
    farm: impl FnOnce(Arc<Recorder>) -> Result<FarmReport, FarmError>,
) -> Wire {
    let rec = Arc::new(Recorder::with_capacity(ranks, 1 << 14));
    let report = farm(rec.clone()).unwrap();
    assert_eq!(report.completed(), JOBS);
    assert!(report.failed_jobs.is_empty());
    assert_eq!(report.retries, 0);
    assert_eq!(rec.dropped(), 0);
    let sends: Vec<Event> = rec
        .events()
        .into_iter()
        .filter(|e| e.kind == EventKind::Send)
        .collect();
    (sends.len(), sends.iter().map(|e| e.bytes).sum())
}

#[test]
fn every_front_end_sends_the_same_messages_and_bytes_as_before_the_collapse() {
    let (files, dir) = setup();
    let flat = |cfg: FarmConfig| wire_of(SLAVES + 1, |rec| run(&files, &cfg.recorder(rec)));

    assert_eq!(
        flat(FarmConfig::new(SLAVES, Transmission::FullLoad)),
        PLAIN_FULL_LOAD,
        "plain, full load"
    );
    assert_eq!(
        flat(FarmConfig::new(SLAVES, Transmission::Nfs)),
        PLAIN_NFS,
        "plain, NFS"
    );
    assert_eq!(
        flat(FarmConfig::new(SLAVES, Transmission::SerializedLoad)),
        PLAIN_SERIALIZED_LOAD,
        "plain, serialized load"
    );
    // Deadlines far beyond anything a loaded host can take: a spurious
    // retry would be a message this pin does not expect.
    let patient = SupervisorConfig {
        job_deadline: Duration::from_secs(60),
        ..SupervisorConfig::default()
    };
    assert_eq!(
        flat(FarmConfig::new(SLAVES, Transmission::SerializedLoad).supervisor(patient)),
        SUPERVISED_INERT_SLOAD,
        "supervised, no faults, serialized load"
    );
    assert_eq!(
        flat(FarmConfig::new(SLAVES, Transmission::SerializedLoad).batch_size(4)),
        BATCHED_4_SLOAD,
        "batches of four, serialized load"
    );
    assert_eq!(
        wire_of(7, |rec| run_hierarchical_farm(
            &files,
            2,
            2,
            Transmission::SerializedLoad,
            Some(rec)
        )),
        HIERARCHICAL_2X2_SLOAD,
        "hierarchical 2x2, serialized load"
    );
    std::fs::remove_dir_all(&dir).ok();
}
