//! The farm's wire, pinned without a clock.
//!
//! Every front-end moves a fixed set of messages for a fixed portfolio:
//! which slave gets which job varies from run to run, but how many
//! messages are sent and how many bytes they carry does not. This test
//! records both with a [`Recorder`] attached — the `Send` event count
//! and their byte total — and compares them with constants. Every live
//! link speaks one wire — a job frame out, a columnar reply back, the
//! empty message to stop — so each cell is frames, replies and stops.
//! The plain cells were taken when the flat farm's unit of dispatch
//! became the job frame (PR 24); the supervised cell when Fig. 4's
//! per-job protocol left the live farm (PR 25), each once and on
//! purpose. They are exact, like the allocation counts of
//! `tests/nsp_linear.rs`: any drift in the protocol (an extra message, a
//! wider answer, a lost stop sentinel) is a failure, not a band.

use riskbench::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const JOBS: usize = 60;
const SLAVES: usize = 3;

/// Every problem path is padded to exactly this many bytes: NFS frames
/// carry the path, so their size would otherwise follow the host's
/// temporary directory.
const PATH_LEN: usize = 96;

/// `(Send events, bytes they carried)`.
type Wire = (usize, u64);

// 60 toy jobs as job frames (of 10, 9, 7, 6, 5, 4, 4, 3, 2, 2, 2 and
// 6 × 1 jobs): 17 frames, 17 replies, 3 stop sentinels.
const PLAIN_FULL_LOAD: Wire = (37, 31_180);
const PLAIN_NFS: Wire = (37, 11_020);
const PLAIN_SERIALIZED_LOAD: Wire = (37, 31_180);
// 60 frames of one, 60 replies, 3 stops. Fig. 4's per-job protocol (a
// name message, a payload and an answer a job) sent (183, 40_860).
const SUPERVISED_INERT_SLOAD: Wire = (123, 35_280);

/// [`JOBS`] toy problems saved under a directory whose name pads every
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

/// Run `farm` over `jobs` jobs with a recorder covering `ranks` ranks;
/// return what it sent.
fn wire_of(
    ranks: usize,
    jobs: usize,
    farm: impl FnOnce(Arc<Recorder>) -> Result<FarmReport, FarmError>,
) -> (Wire, FarmReport) {
    let rec = Arc::new(Recorder::with_capacity(ranks, 1 << 14));
    let report = farm(rec.clone()).unwrap();
    assert_eq!(report.completed(), jobs);
    assert!(report.failed_jobs.is_empty());
    assert_eq!(report.retries, 0);
    assert_eq!(rec.dropped(), 0);
    let sends: Vec<Event> = rec
        .events()
        .into_iter()
        .filter(|e| e.kind == EventKind::Send)
        .collect();
    let wire = (sends.len(), sends.iter().map(|e| e.bytes).sum());
    (wire, report)
}

#[test]
fn every_front_end_sends_the_same_messages_and_bytes_as_before_the_collapse() {
    let (files, dir) = setup();
    let flat = |cfg: FarmConfig| wire_of(SLAVES + 1, JOBS, |rec| run(&files, &cfg.recorder(rec))).0;

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
    std::fs::remove_dir_all(&dir).ok();
}

/// The message count of a framed run is its frame count, whatever the
/// portfolio's size: each frame is one message out and one reply back,
/// and each slave gets one stop sentinel.
#[test]
fn a_framed_run_sends_two_messages_a_frame_and_a_stop_a_slave() {
    const TOY_JOBS: usize = 2_000;
    let dir = std::env::temp_dir().join("wire_pin_frames");
    let _ = std::fs::remove_dir_all(&dir);
    let files = save_portfolio(&toy_portfolio(TOY_JOBS), &dir).unwrap();
    for strategy in Transmission::ALL {
        let cfg = FarmConfig::new(SLAVES, strategy).record_trace(true);
        let ((sends, _), report) =
            wire_of(SLAVES + 1, TOY_JOBS, |rec| run(&files, &cfg.recorder(rec)));
        let trace = report.trace.expect("record_trace was set");
        let frames: Vec<usize> = trace
            .entries
            .iter()
            .flat_map(|e| &e.actions)
            .filter_map(|a| match a {
                riskbench::sched::Action::Dispatch { batch, .. } => Some(*batch),
                _ => None,
            })
            .collect();
        assert_eq!(frames.iter().sum::<usize>(), TOY_JOBS, "{strategy}");
        assert_eq!(frames[0], riskbench::sched::MAX_FRAME, "{strategy}");
        assert_eq!(sends, 2 * frames.len() + SLAVES, "{strategy}");
        // Per job this was 3 messages a job (2 for NFS) and the stops.
        assert!(sends < TOY_JOBS / 20, "{strategy}: {sends} sends");
    }
    std::fs::remove_dir_all(&dir).ok();
}
