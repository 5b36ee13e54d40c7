//! The typed event schema shared by the live farm and the simulator.

/// Sentinel job id meaning "no job attributable" (e.g. shutdown
/// sentinels, barrier traffic, the master's anonymous result probe).
pub const NO_JOB: i64 = -1;

/// What kind of work an [`Event`] measures.
///
/// The first block mirrors the wire primitives of `minimpi::Comm`; the
/// second block mirrors the farm-level phases of the paper's cost model
/// (§4.2); the third block covers the fault/supervision paths added in
/// PR 1. Live runs and simulated runs emit the same kinds so breakdowns
/// are diffable across the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// Packing an already-serialized buffer into an MPI send buffer
    /// (master side, loaded strategies).
    Pack,
    /// A point-to-point send (payload handed to the transport).
    Send,
    /// A blocking probe (time spent waiting for a matching message).
    Probe,
    /// A blocking receive (time from call to payload in hand).
    Recv,
    /// Unpacking a received buffer back into a serial form (slave side).
    Unpack,
    /// Full serialization of a materialised object (`full load` prepare,
    /// plus every `send_obj` envelope).
    Serialize,
    /// Serialized-load: reading an on-disk XDR image without
    /// materialising it (`sload` prepare).
    Sload,
    /// A slave-side NFS read of the problem file (NFS strategy).
    NfsRead,
    /// Slave compute: pricing the problem.
    Compute,
    /// Supervisor re-queued a job (bounded-retry path).
    Retry,
    /// Supervisor declared a job past its deadline.
    Deadline,
    /// Supervisor buried a dead slave.
    SlaveDeath,
    /// Problem store served a fetch from its client-side cache
    /// (zero-duration mark; `bytes` = serial size served).
    CacheHit,
    /// Problem store had to go to the backend for a fetch
    /// (zero-duration mark; `bytes` = serial size loaded).
    CacheMiss,
    /// Problem store evicted entries to respect its byte budget
    /// (zero-duration mark; `bytes` = bytes reclaimed).
    Evict,
    /// Wire compression of an outbound payload (master side; `bytes` =
    /// bytes *saved*, i.e. raw − compressed).
    Compress,
    /// Wire decompression of an inbound payload (slave side; `bytes` =
    /// decompressed size).
    Decompress,
    /// A scheduler dispatch decision: the master handed a job (or batch
    /// head) to a slave (zero-duration mark; `bytes` = batch size).
    /// Emitted by the live drivers only; the wire cost of the dispatch is
    /// already measured by the [`Send`] spans it triggers. Diagnostic.
    ///
    /// [`Send`]: EventKind::Send
    Dispatch,
    /// A serving-session request left the submission queue and entered
    /// the front loop (`job` = request id, `dur_ns` = queue residency,
    /// `bytes` = serialized problem bytes the request carries).
    /// Diagnostic: queue time is wall time spent waiting, not cpu work.
    Enqueue,
    /// A serving-session request was admitted and fully answered
    /// (`job` = request id, `dur_ns` = end-to-end latency from submit to
    /// response, `bytes` = problems in the request). The request
    /// p50/p99 SLO columns are percentiles over these durations.
    /// Diagnostic: the latency overlaps the phase spans it contains.
    Admit,
    /// Admission control rejected or shed a request (zero-duration mark;
    /// `job` = request id, `bytes` = problems turned away). Diagnostic.
    Shed,
    /// A problem was answered from the result memo instead of being
    /// dispatched (zero-duration mark; `job` = request id, `bytes` = 1
    /// per memoised problem). Diagnostic.
    MemoHit,
}

impl EventKind {
    /// Every kind, in declaration (and render) order.
    pub(crate) const ALL: [EventKind; 22] = [
        EventKind::Pack,
        EventKind::Send,
        EventKind::Probe,
        EventKind::Recv,
        EventKind::Unpack,
        EventKind::Serialize,
        EventKind::Sload,
        EventKind::NfsRead,
        EventKind::Compute,
        EventKind::Retry,
        EventKind::Deadline,
        EventKind::SlaveDeath,
        EventKind::CacheHit,
        EventKind::CacheMiss,
        EventKind::Evict,
        EventKind::Compress,
        EventKind::Decompress,
        EventKind::Dispatch,
        EventKind::Enqueue,
        EventKind::Admit,
        EventKind::Shed,
        EventKind::MemoHit,
    ];

    /// Diagnostic kinds: double-counted or purely informational marks
    /// whose seconds/bytes are already represented by a primary phase
    /// (or, for the serving-session kinds, measure wall latency rather
    /// than cpu work). Excluded from [`crate::Breakdown::total_s`]'s
    /// cpu-seconds budget.
    pub const DIAGNOSTIC: [EventKind; 5] = [
        EventKind::Dispatch,
        EventKind::Enqueue,
        EventKind::Admit,
        EventKind::Shed,
        EventKind::MemoHit,
    ];

    /// Stable lowercase label used in rendered tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Pack => "pack",
            EventKind::Send => "send",
            EventKind::Probe => "probe",
            EventKind::Recv => "recv",
            EventKind::Unpack => "unpack",
            EventKind::Serialize => "serialize",
            EventKind::Sload => "sload",
            EventKind::NfsRead => "nfs_read",
            EventKind::Compute => "compute",
            EventKind::Retry => "retry",
            EventKind::Deadline => "deadline",
            EventKind::SlaveDeath => "slave_death",
            EventKind::CacheHit => "cache_hit",
            EventKind::CacheMiss => "cache_miss",
            EventKind::Evict => "evict",
            EventKind::Compress => "compress",
            EventKind::Decompress => "decompress",
            EventKind::Dispatch => "dispatch",
            EventKind::Enqueue => "enqueue",
            EventKind::Admit => "admit",
            EventKind::Shed => "shed",
            EventKind::MemoHit => "memo_hit",
        }
    }
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One measured operation. Fixed-size and `Copy` so the recorder's ring
/// buffer never allocates on the hot path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Phase kind.
    pub kind: EventKind,
    /// Emitting rank (master is rank 0 in the farm stack).
    pub rank: u16,
    /// Job index this operation serves, or [`NO_JOB`].
    pub job: i64,
    /// Monotonic start timestamp in nanoseconds (recorder epoch for live
    /// runs; simulated-seconds × 1e9 for the simulator).
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Payload bytes moved or produced, where meaningful (0 otherwise).
    pub bytes: u64,
}

impl Event {
    /// Duration in seconds.
    pub fn dur_s(&self) -> f64 {
        self.dur_ns as f64 * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique_and_cover_all() {
        let mut labels: Vec<&str> = EventKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), EventKind::ALL.len());
    }

    #[test]
    fn display_matches_label() {
        for k in EventKind::ALL {
            assert_eq!(format!("{k}"), k.label());
        }
    }
}
