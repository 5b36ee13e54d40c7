//! Post-run aggregation: events → per-phase statistics.

use std::collections::BTreeMap;

use crate::event::{Event, EventKind};

/// Nearest-rank percentile of a **sorted** slice: the smallest element
/// such that at least `q`·n of the sample is ≤ it. `q` in `[0, 1]`.
/// Returns 0.0 for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Aggregate statistics for one phase ([`EventKind`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStats {
    /// The phase.
    pub(crate) kind: EventKind,
    /// Number of events.
    pub count: u64,
    /// Sum of durations, seconds.
    pub(crate) total_s: f64,
    /// Sum of byte volumes.
    pub bytes: u64,
    /// Mean duration, seconds.
    pub(crate) mean_s: f64,
    /// Median (nearest-rank p50), seconds.
    pub(crate) p50_s: f64,
    /// Nearest-rank p90, seconds.
    pub(crate) p90_s: f64,
    /// Nearest-rank p99, seconds.
    pub(crate) p99_s: f64,
    /// Maximum duration, seconds.
    pub(crate) max_s: f64,
}

impl PhaseStats {
    fn from_durations(kind: EventKind, mut durs: Vec<f64>, bytes: u64) -> Self {
        durs.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        let count = durs.len() as u64;
        let total: f64 = durs.iter().sum();
        PhaseStats {
            kind,
            count,
            total_s: total,
            bytes,
            mean_s: if count > 0 { total / count as f64 } else { 0.0 },
            p50_s: percentile(&durs, 0.50),
            p90_s: percentile(&durs, 0.90),
            p99_s: percentile(&durs, 0.99),
            max_s: durs.last().copied().unwrap_or(0.0),
        }
    }
}

/// A full per-phase cost decomposition of one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Breakdown {
    /// Stats per phase, only for phases that occurred, in
    /// [`EventKind::ALL`] order.
    pub(crate) phases: Vec<PhaseStats>,
    /// Total event count.
    pub(crate) events: u64,
    /// Per-job-class compute totals (class → (count, seconds)). The job
    /// class is `job % classes` when built via
    /// `Breakdown::from_events_classed`, else a single class 0.
    pub by_class: BTreeMap<u64, (u64, f64)>,
}

impl Breakdown {
    /// Aggregate `events` with all compute attributed to class 0.
    pub fn from_events(events: &[Event]) -> Self {
        Self::from_events_classed(events, 1)
    }

    /// Aggregate `events`; [`EventKind::Compute`] events with a job id
    /// are bucketed into `job % classes` job classes.
    fn from_events_classed(events: &[Event], classes: u64) -> Self {
        let classes = classes.max(1);
        Self::from_events_with(events, |job| job as u64 % classes)
    }

    /// Aggregate `events`; [`EventKind::Compute`] events are bucketed by
    /// `class_of[job]` — the typed-workload path, where the caller maps
    /// job ids to real [`crate::Event::job`]-indexed job classes (jobs
    /// outside the table land in class 0). This is how a mixed-class
    /// farm run reports per-class compute seconds.
    pub fn from_events_by_class(events: &[Event], class_of: &[u64]) -> Self {
        Self::from_events_with(events, |job| {
            class_of.get(job as usize).copied().unwrap_or(0)
        })
    }

    fn from_events_with(events: &[Event], class_of: impl Fn(i64) -> u64) -> Self {
        let mut durs: BTreeMap<EventKind, Vec<f64>> = BTreeMap::new();
        let mut bytes: BTreeMap<EventKind, u64> = BTreeMap::new();
        let mut by_class: BTreeMap<u64, (u64, f64)> = BTreeMap::new();
        for ev in events {
            durs.entry(ev.kind).or_default().push(ev.dur_s());
            *bytes.entry(ev.kind).or_insert(0) += ev.bytes;
            if ev.kind == EventKind::Compute {
                let class = if ev.job >= 0 { class_of(ev.job) } else { 0 };
                let slot = by_class.entry(class).or_insert((0, 0.0));
                slot.0 += 1;
                slot.1 += ev.dur_s();
            }
        }
        let mut phases = Vec::new();
        for kind in EventKind::ALL {
            if let Some(d) = durs.remove(&kind) {
                let b = bytes.get(&kind).copied().unwrap_or(0);
                phases.push(PhaseStats::from_durations(kind, d, b));
            }
        }
        Breakdown {
            phases,
            events: events.len() as u64,
            by_class,
        }
    }

    /// Stats for one phase, if it occurred.
    pub fn phase(&self, kind: EventKind) -> Option<&PhaseStats> {
        self.phases.iter().find(|p| p.kind == kind)
    }

    /// Summed from +0.0: an empty `Iterator::sum` of `f64` is -0.0.
    fn total_of(&self, kinds: &[EventKind]) -> f64 {
        kinds
            .iter()
            .filter_map(|k| self.phase(*k))
            .fold(0.0, |sum, p| sum + p.total_s)
    }

    /// Problem-acquisition ("prepare") seconds, wherever they run:
    /// `Serialize + Sload + Pack + NfsRead`. This is the column §4.2
    /// argues about — for `sload` it is strictly the cheapest of the
    /// three strategies because the master skips materialisation *and*
    /// the slaves skip NFS.
    pub fn prepare_s(&self) -> f64 {
        self.total_of(&[
            EventKind::Serialize,
            EventKind::Sload,
            EventKind::Pack,
            EventKind::NfsRead,
        ])
    }

    /// Wire seconds (`Send`).
    pub fn wire_s(&self) -> f64 {
        self.total_of(&[EventKind::Send])
    }

    /// Wait seconds (`Probe + Recv + Unpack`): time ranks spend blocked
    /// on or handling inbound messages.
    pub fn wait_s(&self) -> f64 {
        self.total_of(&[EventKind::Probe, EventKind::Recv, EventKind::Unpack])
    }

    /// Compute seconds (`Compute`).
    pub fn compute_s(&self) -> f64 {
        self.total_of(&[EventKind::Compute])
    }

    /// Problem-store seconds (`CacheHit + CacheMiss + Evict + Compress +
    /// Decompress`): time spent in the tiered store and the wire codec.
    /// Cache hit/miss/evict marks are zero-duration counters (their
    /// *count* and *bytes* carry the signal); compress and decompress
    /// are real timed spans. Zero for runs without a
    /// caching/compressing store.
    pub fn store_s(&self) -> f64 {
        self.total_of(&[
            EventKind::CacheHit,
            EventKind::CacheMiss,
            EventKind::Evict,
            EventKind::Compress,
            EventKind::Decompress,
        ])
    }

    /// Number of served requests: [`EventKind::Admit`] marks, each of
    /// which carries one request's end-to-end latency. 0 for non-serving
    /// runs.
    pub fn request_count(&self) -> u64 {
        self.count_of(EventKind::Admit)
    }

    /// Median request latency, seconds (the serving p50 SLO column):
    /// nearest-rank p50 over the per-request submit-to-response wall
    /// durations the `Admit` marks carry.
    pub fn request_p50_s(&self) -> f64 {
        self.phase(EventKind::Admit).map_or(0.0, |p| p.p50_s)
    }

    /// Tail request latency, seconds (the serving p99 SLO column).
    pub fn request_p99_s(&self) -> f64 {
        self.phase(EventKind::Admit).map_or(0.0, |p| p.p99_s)
    }

    /// Problems answered from the result memo ([`EventKind::MemoHit`]
    /// marks). 0 for non-serving runs.
    pub fn memo_hits(&self) -> u64 {
        self.count_of(EventKind::MemoHit)
    }

    /// Requests turned away by admission control ([`EventKind::Shed`]
    /// marks). 0 for non-serving runs.
    pub(crate) fn shed_count(&self) -> u64 {
        self.count_of(EventKind::Shed)
    }

    /// Memo hit fraction over `MemoHit` marks + fresh computes (0 when
    /// the run recorded neither).
    pub fn memo_hit_rate(&self) -> f64 {
        let hits = self.memo_hits() as f64;
        let fresh = self.count_of(EventKind::Compute) as f64;
        if hits + fresh == 0.0 {
            0.0
        } else {
            hits / (hits + fresh)
        }
    }

    /// Count of events of one kind (0 if the phase never occurred).
    pub fn count_of(&self, kind: EventKind) -> u64 {
        self.phase(kind).map_or(0, |p| p.count)
    }

    /// Summed byte volume of one kind (0 if the phase never occurred).
    pub fn bytes_of(&self, kind: EventKind) -> u64 {
        self.phase(kind).map_or(0, |p| p.bytes)
    }

    /// Cache hit fraction over `CacheHit + CacheMiss` marks (0 when the
    /// run recorded no cache traffic).
    pub fn cache_hit_rate(&self) -> f64 {
        let hits = self.count_of(EventKind::CacheHit) as f64;
        let misses = self.count_of(EventKind::CacheMiss) as f64;
        if hits + misses == 0.0 {
            0.0
        } else {
            hits / (hits + misses)
        }
    }

    /// Sum of all *primary* phase seconds. Bounded above by makespan ×
    /// ranks (each rank is busy at most the whole run). Diagnostic
    /// kinds ([`EventKind::DIAGNOSTIC`] — dispatch marks and the serving
    /// session's queue and latency spans) are excluded: their seconds
    /// are wall time that overlaps the phases they contain, not work.
    pub fn total_s(&self) -> f64 {
        self.phases
            .iter()
            .filter(|p| !EventKind::DIAGNOSTIC.contains(&p.kind))
            .fold(0.0, |sum, p| sum + p.total_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NO_JOB;

    fn ev(kind: EventKind, job: i64, dur_ns: u64, bytes: u64) -> Event {
        Event {
            kind,
            rank: 0,
            job,
            start_ns: 0,
            dur_ns,
            bytes,
        }
    }

    #[test]
    fn percentile_nearest_rank_exact() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.50), 2.0);
        assert_eq!(percentile(&v, 0.90), 4.0);
        assert_eq!(percentile(&v, 0.25), 1.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn synthetic_stream_exact_numbers() {
        // 3 sends of 100/200/300 µs carrying 10/20/30 bytes,
        // 2 computes of 1 ms / 3 ms on jobs 0 and 1.
        let events = vec![
            ev(EventKind::Send, 0, 100_000, 10),
            ev(EventKind::Send, 1, 200_000, 20),
            ev(EventKind::Send, 2, 300_000, 30),
            ev(EventKind::Compute, 0, 1_000_000, 0),
            ev(EventKind::Compute, 1, 3_000_000, 0),
        ];
        let b = Breakdown::from_events(&events);
        assert_eq!(b.events, 5);

        let send = b.phase(EventKind::Send).unwrap();
        assert_eq!(send.count, 3);
        assert_eq!(send.bytes, 60);
        assert!((send.total_s - 600e-6).abs() < 1e-12);
        assert!((send.mean_s - 200e-6).abs() < 1e-12);
        assert!((send.p50_s - 200e-6).abs() < 1e-12);
        assert!((send.p90_s - 300e-6).abs() < 1e-12);
        assert!((send.max_s - 300e-6).abs() < 1e-12);

        let comp = b.phase(EventKind::Compute).unwrap();
        assert_eq!(comp.count, 2);
        assert!((comp.total_s - 4e-3).abs() < 1e-12);
        assert!((comp.p50_s - 1e-3).abs() < 1e-12);
        assert!((comp.p99_s - 3e-3).abs() < 1e-12);

        assert!((b.wire_s() - 600e-6).abs() < 1e-12);
        assert!((b.compute_s() - 4e-3).abs() < 1e-12);
        assert_eq!(b.prepare_s(), 0.0);
        assert!((b.total_s() - (600e-6 + 4e-3)).abs() < 1e-12);
    }

    #[test]
    fn prepare_groups_acquisition_kinds() {
        let events = vec![
            ev(EventKind::Serialize, 0, 380_000, 0),
            ev(EventKind::Sload, 1, 100_000, 0),
            ev(EventKind::Pack, 1, 5_000, 0),
            ev(EventKind::NfsRead, 2, 1_200_000, 0),
            ev(EventKind::Send, 0, 50_000, 0),
        ];
        let b = Breakdown::from_events(&events);
        assert!((b.prepare_s() - 1_685_000e-9).abs() < 1e-12);
        assert!((b.wire_s() - 50_000e-9).abs() < 1e-12);
    }

    #[test]
    fn job_classes_bucket_compute() {
        let events = vec![
            ev(EventKind::Compute, 0, 1_000_000, 0),
            ev(EventKind::Compute, 1, 2_000_000, 0),
            ev(EventKind::Compute, 2, 4_000_000, 0),
            ev(EventKind::Compute, 3, 8_000_000, 0),
            ev(EventKind::Compute, NO_JOB, 16_000_000, 0),
        ];
        let b = Breakdown::from_events_classed(&events, 2);
        // class 0: jobs 0, 2 and the NO_JOB event; class 1: jobs 1, 3.
        let c0 = b.by_class.get(&0).unwrap();
        let c1 = b.by_class.get(&1).unwrap();
        assert_eq!(c0.0, 3);
        assert!((c0.1 - 21e-3).abs() < 1e-12);
        assert_eq!(c1.0, 2);
        assert!((c1.1 - 10e-3).abs() < 1e-12);
    }

    #[test]
    fn store_bucket_groups_cache_and_codec_kinds() {
        let events = vec![
            ev(EventKind::CacheHit, 0, 0, 96),
            ev(EventKind::CacheHit, 1, 0, 96),
            ev(EventKind::CacheMiss, 2, 0, 96),
            ev(EventKind::Evict, 2, 0, 96),
            ev(EventKind::Compress, 0, 40_000, 30),
            ev(EventKind::Decompress, 0, 20_000, 96),
            ev(EventKind::Sload, 0, 500_000, 96),
        ];
        let b = Breakdown::from_events(&events);
        // Only the timed spans contribute seconds...
        assert!((b.store_s() - 60_000e-9).abs() < 1e-15);
        // ...and sload stays in prepare, not store.
        assert!((b.prepare_s() - 500_000e-9).abs() < 1e-15);
        // Hit-rate over the zero-duration marks.
        assert!((b.cache_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(b.count_of(EventKind::Evict), 1);
        assert_eq!(b.count_of(EventKind::Recv), 0);
    }

    #[test]
    fn request_slo_from_admit_marks() {
        // Non-serving run: every serving accessor reads as "off".
        let b = Breakdown::from_events(&[ev(EventKind::Compute, 0, 1_000, 0)]);
        assert_eq!(b.request_count(), 0);
        assert_eq!(b.request_p50_s(), 0.0);
        assert_eq!(b.request_p99_s(), 0.0);
        assert_eq!(b.memo_hits(), 0);
        assert_eq!(b.shed_count(), 0);
        assert_eq!(b.memo_hit_rate(), 0.0);

        // Four requests at 1/2/3/10 ms; one shed; two memo hits next to
        // two fresh computes.
        let events = vec![
            ev(EventKind::Admit, 0, 1_000_000, 2),
            ev(EventKind::Admit, 1, 2_000_000, 2),
            ev(EventKind::Admit, 2, 3_000_000, 2),
            ev(EventKind::Admit, 3, 10_000_000, 2),
            ev(EventKind::Shed, 4, 0, 2),
            ev(EventKind::MemoHit, 1, 0, 1),
            ev(EventKind::MemoHit, 2, 0, 1),
            ev(EventKind::Compute, 0, 500_000, 0),
            ev(EventKind::Compute, 3, 500_000, 0),
            ev(EventKind::Enqueue, 0, 20_000, 64),
        ];
        let b = Breakdown::from_events(&events);
        assert_eq!(b.request_count(), 4);
        assert!((b.request_p50_s() - 2e-3).abs() < 1e-12);
        assert!((b.request_p99_s() - 10e-3).abs() < 1e-12);
        assert_eq!(b.memo_hits(), 2);
        assert_eq!(b.shed_count(), 1);
        assert!((b.memo_hit_rate() - 0.5).abs() < 1e-12);
        // All four serving kinds are diagnostic: the latency marks never
        // count toward the cpu-seconds budget.
        assert!((b.total_s() - 1e-3).abs() < 1e-12, "{}", b.total_s());
    }

    #[test]
    fn cache_hit_rate_zero_without_cache_traffic() {
        let b = Breakdown::from_events(&[ev(EventKind::Compute, 0, 1_000, 0)]);
        assert_eq!(b.cache_hit_rate(), 0.0);
        assert_eq!(b.store_s(), 0.0);
    }

    #[test]
    fn phases_render_in_all_order() {
        let events = vec![
            ev(EventKind::Compute, 0, 1, 0),
            ev(EventKind::Pack, 0, 1, 0),
            ev(EventKind::Recv, 0, 1, 0),
        ];
        let b = Breakdown::from_events(&events);
        let kinds: Vec<EventKind> = b.phases.iter().map(|p| p.kind).collect();
        assert_eq!(
            kinds,
            vec![EventKind::Pack, EventKind::Recv, EventKind::Compute]
        );
    }

    #[test]
    fn empty_stream_is_empty_breakdown() {
        let b = Breakdown::from_events(&[]);
        assert_eq!(b.events, 0);
        assert!(b.phases.is_empty());
        assert_eq!(b.total_s(), 0.0);
    }
}
