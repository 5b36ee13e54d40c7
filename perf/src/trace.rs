//! The harness-side tracer: a span around every call the benchmark
//! makes into a crate, kept in memory and written out as Chrome
//! trace-event JSON when the run ends. With tracing off every method is
//! a branch on a bool and reads no clock.

use crate::json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One recorded call: `[start_ns, end_ns)` on the tracer's clock, the
/// span that was open when it began, and the pass or request it serves.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub group: u64,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Per-name totals over a finished trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part covered by child spans.
    pub self_ns: u64,
}

/// A span recorded by the program's own `obs::Recorder`, shown on the
/// timeline beside the harness's spans (one track per rank).
#[derive(Debug, Clone, PartialEq)]
pub struct RankSpan {
    pub name: String,
    pub rank: u16,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub job: i64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
    rank_spans: Vec<RankSpan>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
            rank_spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` for pass / request `group`; its parent
    /// is the innermost span still open.
    pub fn begin(&mut self, name: &'static str, group: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let idx = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            group,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Close a span. Spans close innermost-first; closing an outer span
    /// also closes anything left open inside it.
    pub fn end(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    /// Time `f` under a span.
    pub fn span<R>(&mut self, name: &'static str, group: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, group);
        let r = f();
        self.end(id);
        r
    }

    /// Add `n` to the counter `name` (counts sit at the same boundaries
    /// as the spans, so ratios are measured where the work happens).
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.on {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    #[cfg(test)]
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Attach the program-side events of one recorder. `offset_ns` maps
    /// the recorder's clock onto the tracer's.
    pub fn add_rank_spans(&mut self, events: &[obs::Event], offset_ns: u64) {
        if !self.on {
            return;
        }
        self.rank_spans.extend(events.iter().map(|e| RankSpan {
            name: e.kind.label().to_string(),
            rank: e.rank,
            start_ns: e.start_ns + offset_ns,
            dur_ns: e.dur_ns,
            job: e.job,
        }));
    }

    /// Count, total and self time per span name. A span's self time is
    /// its duration minus the durations of its direct children.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// The trace as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto): harness spans on process 0, recorder events on
    /// process 1 with one thread per rank. Timestamps are microseconds.
    pub fn chrome_json(&self) -> Json {
        let us = |ns: u64| Json::Num(ns as f64 / 1e3);
        let mut events = Vec::with_capacity(self.spans.len() + self.rank_spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(Json::Null, |p| Json::Num(p as f64));
            events.push(Json::obj([
                ("name", Json::str(s.name)),
                ("ph", Json::str("X")),
                ("pid", Json::Num(0.0)),
                ("tid", Json::Num(0.0)),
                ("ts", us(s.start_ns)),
                ("dur", us(s.end_ns - s.start_ns)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(i as f64)),
                        ("parent", parent),
                        ("group", Json::Num(s.group as f64)),
                    ]),
                ),
            ]));
        }
        for r in &self.rank_spans {
            events.push(Json::obj([
                ("name", Json::str(r.name.clone())),
                ("ph", Json::str("X")),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(f64::from(r.rank))),
                ("ts", us(r.start_ns)),
                ("dur", us(r.dur_ns)),
                ("args", Json::obj([("job", Json::Num(r.job as f64))])),
            ]));
        }
        let counts = self
            .counts
            .iter()
            .map(|(k, v)| (k.to_string(), Json::Num(*v as f64)));
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ns")),
            ("counts", Json::obj(counts)),
        ])
    }

    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.chrome_json().render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("a", 0);
        t.count("c", 3);
        t.end(id);
        assert!(t.spans().is_empty() && t.counts().is_empty());
    }

    #[test]
    fn parents_groups_and_self_time() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 7);
        let inner = t.begin("inner", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.span("inner", 7, || ());
        t.end(outer);
        t.count("jobs", 2);
        t.count("jobs", 3);

        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(s.iter().all(|x| x.group == 7));
        assert!(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns);

        let tot = t.totals();
        assert_eq!(tot["inner"].count, 2);
        assert_eq!(tot["inner"].self_ns, tot["inner"].total_ns);
        assert_eq!(
            tot["outer"].self_ns,
            tot["outer"].total_ns - tot["inner"].total_ns,
            "self time is the span minus its children"
        );
        assert!(tot["inner"].total_ns >= 2_000_000);
        assert_eq!(t.counts()["jobs"], 5);
    }

    #[test]
    fn closing_an_outer_span_closes_what_it_contains() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 0);
        let _leaked = t.begin("inner", 0);
        t.end(outer);
        let next = t.begin("next", 0);
        t.end(next);
        assert_eq!(t.spans()[2].parent, None);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let mut t = Tracer::new(true);
        t.span("call", 1, || ());
        let ev = obs::Event {
            kind: obs::EventKind::Compute,
            rank: 1,
            job: 4,
            start_ns: 10,
            dur_ns: 5,
            bytes: 0,
        };
        t.add_rank_spans(&[ev], 100);
        let parsed = Json::parse(&t.chrome_json().render()).unwrap();
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ts").and_then(Json::as_f64), Some(0.11));
        assert_eq!(
            events[1].get("name").and_then(Json::as_str),
            Some("compute")
        );
    }
}
