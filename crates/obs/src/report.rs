//! Table-shaped cost-decomposition reports with a hand-rolled JSON
//! writer (no serde, per DESIGN §6).

use std::fmt::Write as _;

use crate::aggregate::Breakdown;
#[cfg(test)]
use crate::event::EventKind;

/// One strategy's measured decomposition at one cluster size.
#[derive(Debug, Clone)]
pub struct StrategyBreakdown {
    /// Strategy label (e.g. "serialized load").
    pub strategy: String,
    /// Number of CPUs (ranks) in the run.
    pub cpus: usize,
    /// End-to-end wall time, seconds.
    pub wall_s: f64,
    /// The per-phase decomposition.
    pub breakdown: Breakdown,
    /// Events lost to recorder ring wrap (0 in healthy runs).
    pub dropped: u64,
}

impl StrategyBreakdown {
    /// Sanity check: phase seconds cannot exceed the total CPU-seconds
    /// available (`wall_s × cpus`), every duration is finite and
    /// non-negative, and no events were dropped.
    fn check(&self) -> Result<(), String> {
        let total = self.breakdown.total_s();
        if !total.is_finite() || total < 0.0 {
            return Err(format!("{}: non-finite phase total {total}", self.strategy));
        }
        let budget = self.wall_s * self.cpus as f64;
        // Small relative slack for timer granularity on very short runs.
        if total > budget * 1.001 + 1e-6 {
            return Err(format!(
                "{}: phase seconds {:.6} exceed cpu-seconds budget {:.6} ({} cpus × {:.6}s wall)",
                self.strategy, total, budget, self.cpus, self.wall_s
            ));
        }
        if self.dropped > 0 {
            return Err(format!(
                "{}: recorder dropped {} events (increase capacity)",
                self.strategy, self.dropped
            ));
        }
        Ok(())
    }
}

/// A full Table-I/II/III-shaped decomposition report: one
/// [`StrategyBreakdown`] per (strategy, cpus) run.
#[derive(Debug, Clone, Default)]
pub struct BreakdownReport {
    /// Report title (e.g. "table 2 — per-phase decomposition").
    title: String,
    /// The runs, in presentation order.
    pub runs: Vec<StrategyBreakdown>,
}

impl BreakdownReport {
    /// New empty report.
    pub fn new(title: impl Into<String>) -> Self {
        BreakdownReport {
            title: title.into(),
            runs: Vec::new(),
        }
    }

    /// Run `StrategyBreakdown::check` on every run.
    pub fn check(&self) -> Result<(), String> {
        if self.runs.is_empty() {
            return Err("empty breakdown report".to_string());
        }
        for run in &self.runs {
            run.check()?;
        }
        Ok(())
    }

    /// The run for a given strategy label, if present.
    pub fn run(&self, strategy: &str) -> Option<&StrategyBreakdown> {
        self.runs.iter().find(|r| r.strategy == strategy)
    }

    /// Render the report as a fixed-width text table: one phase block
    /// per run, plus the §4.2 summary rows (prepare / wire / wait /
    /// compute).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let _ = writeln!(out, "{}", "=".repeat(self.title.len().max(8)));
        for run in &self.runs {
            let _ = writeln!(
                out,
                "\n[{}] cpus={} wall={:.6}s events={} dropped={}",
                run.strategy, run.cpus, run.wall_s, run.breakdown.events, run.dropped
            );
            let _ = writeln!(
                out,
                "  {:<12} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12}",
                "phase", "count", "total(s)", "mean(s)", "p50(s)", "p99(s)", "bytes"
            );
            for p in &run.breakdown.phases {
                let _ = writeln!(
                    out,
                    "  {:<12} {:>8} {:>12.6} {:>12.3e} {:>12.3e} {:>12.3e} {:>12}",
                    p.kind.label(),
                    p.count,
                    p.total_s,
                    p.mean_s,
                    p.p50_s,
                    p.p99_s,
                    p.bytes
                );
            }
            let b = &run.breakdown;
            let _ = writeln!(
                out,
                "  -- prepare={:.6}s wire={:.6}s wait={:.6}s compute={:.6}s store={:.6}s (sum {:.6}s <= {:.6} cpu-s)",
                b.prepare_s(),
                b.wire_s(),
                b.wait_s(),
                b.compute_s(),
                b.store_s(),
                b.total_s(),
                run.wall_s * run.cpus as f64
            );
            if b.parallel_s() > 0.0 {
                let _ = writeln!(
                    out,
                    "  -- intra-slave parallelism x{:.2} ({:.6} chunk-s over {:.6} compute-s, {} chunks, {} steals)",
                    b.parallelism(),
                    b.parallel_s(),
                    b.compute_s(),
                    b.count_of(crate::event::EventKind::ComputeChunk),
                    b.bytes_of(crate::event::EventKind::Steal),
                );
            }
            if b.count_of(crate::event::EventKind::LaneBatch) > 0 {
                let _ = writeln!(
                    out,
                    "  -- simd lanes x{:.0} alloc-free ({} lane-batched computes)",
                    b.lane_width(),
                    b.count_of(crate::event::EventKind::LaneBatch),
                );
            }
            if b.cache_hit_rate() > 0.0 {
                let _ = writeln!(
                    out,
                    "  -- cache hit-rate {:.1}% (hits {} / misses {} / evictions {})",
                    b.cache_hit_rate() * 100.0,
                    b.count_of(crate::event::EventKind::CacheHit),
                    b.count_of(crate::event::EventKind::CacheMiss),
                    b.count_of(crate::event::EventKind::Evict),
                );
            }
            if b.request_count() > 0 {
                let _ = writeln!(
                    out,
                    "  -- request slo p50={:.6}s p99={:.6}s ({} served, {} memo hits, {} shed, hit-rate {:.1}%)",
                    b.request_p50_s(),
                    b.request_p99_s(),
                    b.request_count(),
                    b.memo_hits(),
                    b.shed_count(),
                    b.memo_hit_rate() * 100.0,
                );
            }
        }
        out
    }

    /// Serialize the whole report to JSON. Hand-rolled writer — the
    /// workspace intentionally carries no serde (DESIGN §6).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push('{');
        json_str(&mut s, "title", &self.title);
        s.push(',');
        s.push_str("\"runs\":[");
        for (i, run) in self.runs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('{');
            json_str(&mut s, "strategy", &run.strategy);
            let _ = write!(
                s,
                ",\"cpus\":{},\"wall_s\":{},\"events\":{},\"dropped\":{}",
                run.cpus,
                json_f64(run.wall_s),
                run.breakdown.events,
                run.dropped
            );
            let b = &run.breakdown;
            let _ = write!(
                s,
                ",\"prepare_s\":{},\"wire_s\":{},\"wait_s\":{},\"compute_s\":{},\"store_s\":{},\"cache_hit_rate\":{}",
                json_f64(b.prepare_s()),
                json_f64(b.wire_s()),
                json_f64(b.wait_s()),
                json_f64(b.compute_s()),
                json_f64(b.store_s()),
                json_f64(b.cache_hit_rate())
            );
            let _ = write!(
                s,
                ",\"parallel_s\":{},\"parallelism\":{},\"lanes\":{}",
                json_f64(b.parallel_s()),
                json_f64(b.parallelism()),
                json_f64(b.lane_width())
            );
            // Serving SLO columns, ahead of "phases". The key order is
            // part of the output: crates/bench's breakdown goldens pin
            // these bytes.
            let _ = write!(
                s,
                ",\"requests\":{},\"req_p50_s\":{},\"req_p99_s\":{},\"memo_hits\":{},\"memo_hit_rate\":{},\"shed\":{}",
                b.request_count(),
                json_f64(b.request_p50_s()),
                json_f64(b.request_p99_s()),
                b.memo_hits(),
                json_f64(b.memo_hit_rate()),
                b.shed_count()
            );
            s.push_str(",\"phases\":[");
            for (j, p) in b.phases.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push('{');
                json_str(&mut s, "phase", p.kind.label());
                let _ = write!(
                    s,
                    ",\"count\":{},\"total_s\":{},\"mean_s\":{},\"p50_s\":{},\"p90_s\":{},\"p99_s\":{},\"max_s\":{},\"bytes\":{}",
                    p.count,
                    json_f64(p.total_s),
                    json_f64(p.mean_s),
                    json_f64(p.p50_s),
                    json_f64(p.p90_s),
                    json_f64(p.p99_s),
                    json_f64(p.max_s),
                    p.bytes
                );
                s.push('}');
            }
            s.push(']');
            s.push_str(",\"by_class\":[");
            for (j, (class, (count, secs))) in b.by_class.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(
                    s,
                    "{{\"class\":{class},\"count\":{count},\"total_s\":{}}}",
                    json_f64(*secs)
                );
            }
            s.push(']');
            s.push('}');
        }
        s.push_str("]}");
        s
    }
}

/// Append `"key":"value"` with minimal JSON string escaping.
fn json_str(out: &mut String, key: &str, value: &str) {
    let esc = |s: &str, out: &mut String| {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    };
    esc(key, out);
    out.push(':');
    esc(value, out);
}

/// Render an `f64` as valid JSON (JSON has no NaN/Infinity).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // Shortest round-trippable form.
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn sample_report() -> BreakdownReport {
        let events = vec![
            Event {
                kind: EventKind::Sload,
                rank: 0,
                job: 0,
                start_ns: 0,
                dur_ns: 100_000,
                bytes: 96,
            },
            Event {
                kind: EventKind::Send,
                rank: 0,
                job: 0,
                start_ns: 100_000,
                dur_ns: 60_000,
                bytes: 96,
            },
            Event {
                kind: EventKind::Compute,
                rank: 1,
                job: 0,
                start_ns: 200_000,
                dur_ns: 2_000_000,
                bytes: 0,
            },
        ];
        let mut report = BreakdownReport::new("test report");
        report.runs.push(StrategyBreakdown {
            strategy: "serialized load".to_string(),
            cpus: 2,
            wall_s: 0.01,
            breakdown: Breakdown::from_events(&events),
            dropped: 0,
        });
        report
    }

    #[test]
    fn check_passes_for_consistent_run() {
        sample_report().check().unwrap();
    }

    #[test]
    fn check_rejects_phase_overflow() {
        let mut r = sample_report();
        r.runs[0].wall_s = 1e-9; // cpu budget far below phase seconds
        assert!(r.check().is_err());
    }

    #[test]
    fn check_rejects_dropped_events() {
        let mut r = sample_report();
        r.runs[0].dropped = 3;
        assert!(r.check().is_err());
    }

    #[test]
    fn check_rejects_empty_report() {
        assert!(BreakdownReport::new("x").check().is_err());
    }

    #[test]
    fn render_contains_phases_and_summary() {
        let text = sample_report().render();
        assert!(text.contains("serialized load"));
        assert!(text.contains("sload"));
        assert!(text.contains("compute"));
        assert!(text.contains("prepare="));
    }

    #[test]
    fn json_is_well_formed_and_exact() {
        let json = sample_report().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"title\":\"test report\""));
        assert!(json.contains("\"strategy\":\"serialized load\""));
        assert!(json.contains("\"phase\":\"sload\""));
        assert!(json.contains("\"cpus\":2"));
        // prepare = sload 100µs → 0.0001
        assert!(json.contains("\"prepare_s\":0.0001"), "{json}");
        // Balanced braces/brackets (cheap well-formedness proxy).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn lane_line_rendered_only_when_lane_batches_present() {
        let plain = sample_report();
        assert!(!plain.render().contains("simd lanes"));
        assert!(plain.to_json().contains("\"lanes\":0.0"));

        let mut r = sample_report();
        let mut events = vec![Event {
            kind: EventKind::LaneBatch,
            rank: 1,
            job: 0,
            start_ns: 200_000,
            dur_ns: 0,
            bytes: 8,
        }];
        events.push(Event {
            kind: EventKind::Compute,
            rank: 1,
            job: 0,
            start_ns: 200_000,
            dur_ns: 2_000_000,
            bytes: 0,
        });
        r.runs[0].breakdown = Breakdown::from_events(&events);
        let text = r.render();
        assert!(text.contains("simd lanes x8 alloc-free"), "{text}");
        assert!(r.to_json().contains("\"lanes\":8.0"));
    }

    #[test]
    fn request_slo_line_rendered_only_for_serving_runs() {
        let plain = sample_report();
        assert!(!plain.render().contains("request slo"));
        assert!(
            plain.to_json().contains("\"requests\":0"),
            "{}",
            plain.to_json()
        );

        let mut r = sample_report();
        let mk = |kind, job, dur_ns, bytes| Event {
            kind,
            rank: 0,
            job,
            start_ns: 0,
            dur_ns,
            bytes,
        };
        let events = vec![
            mk(EventKind::Admit, 0, 1_000_000, 2),
            mk(EventKind::Admit, 1, 3_000_000, 2),
            mk(EventKind::MemoHit, 1, 0, 1),
            mk(EventKind::Shed, 2, 0, 2),
            mk(EventKind::Compute, 0, 500_000, 0),
        ];
        r.runs[0].breakdown = Breakdown::from_events(&events);
        let text = r.render();
        assert!(text.contains("request slo"), "{text}");
        assert!(text.contains("2 served, 1 memo hits, 1 shed"), "{text}");
        let json = r.to_json();
        assert!(json.contains("\"requests\":2"), "{json}");
        assert!(json.contains("\"req_p50_s\":0.001"), "{json}");
        assert!(json.contains("\"req_p99_s\":0.003"), "{json}");
        assert!(json.contains("\"memo_hits\":1"), "{json}");
        assert!(json.contains("\"shed\":1"), "{json}");
        // SLO columns precede the phases array (the goldens pin the order).
        assert!(json.find("\"req_p99_s\"").unwrap() < json.find("\"phases\"").unwrap());
    }

    #[test]
    fn json_escapes_strings() {
        let mut r = BreakdownReport::new("line\n\"quoted\"\\slash");
        r.runs.push(StrategyBreakdown {
            strategy: "s".into(),
            cpus: 1,
            wall_s: 1.0,
            breakdown: Breakdown::default(),
            dropped: 0,
        });
        let json = r.to_json();
        assert!(json.contains("line\\n\\\"quoted\\\"\\\\slash"));
    }

    #[test]
    fn json_f64_integral_gets_decimal_point() {
        assert_eq!(json_f64(1.0), "1.0");
        assert_eq!(json_f64(0.25), "0.25");
        assert_eq!(json_f64(f64::NAN), "null");
    }
}
