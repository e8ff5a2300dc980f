//! Pluggable output sinks over a finished [`RunData`].
//!
//! A sink is a pure function from run data to bytes — rendering never
//! mutates the recorder, so several sinks can consume the same run (the CLI
//! writes a JSON report *and* a JSON-lines stream *and* a stderr summary
//! from one recorder).

use std::io::{self, Write};

use crate::json::Json;
use crate::recorder::RunData;
use crate::report::{event_json, span_json};

/// Render run data to a writer.
pub trait Sink {
    /// Write the rendering of `run` to `out`.
    fn emit(&self, run: &RunData, out: &mut dyn Write) -> io::Result<()>;
}

/// Human-readable one-screen summary: span tree with durations, then
/// counters/gauges/histograms.
///
/// # Examples
///
/// ```
/// use obs::{FakeClock, Recorder, Sink, SummarySink};
///
/// let rec = Recorder::with_clock(Box::new(FakeClock::new(1_000_000)));
/// let s = rec.span("explore");
/// s.set("states", 42);
/// s.end();
/// rec.counter("explore.dedup_hits").add(7);
/// let mut out = Vec::new();
/// SummarySink.emit(&rec.finish(), &mut out).unwrap();
/// let text = String::from_utf8(out).unwrap();
/// assert!(text.contains("explore"));
/// assert!(text.contains("explore.dedup_hits"));
/// ```
pub struct SummarySink;

impl Sink for SummarySink {
    fn emit(&self, run: &RunData, out: &mut dyn Write) -> io::Result<()> {
        writeln!(
            out,
            "run: {} ns recorded",
            run.end_ns.saturating_sub(run.start_ns)
        )?;
        if !run.spans.is_empty() {
            writeln!(out, "spans:")?;
            // Children directly follow their parent in open order only for
            // sequential instrumentation, so render by explicit depth.
            for s in &run.spans {
                let depth = {
                    let mut d = 0;
                    let mut cur = s.parent;
                    while let Some(p) = cur {
                        d += 1;
                        cur = run.spans[p as usize].parent;
                    }
                    d
                };
                let dur = s
                    .end_ns
                    .map(|e| format!("{} ns", e.saturating_sub(s.start_ns)))
                    .unwrap_or_else(|| "open".to_string());
                let fields = if s.fields.is_empty() {
                    String::new()
                } else {
                    let parts: Vec<String> = s
                        .fields
                        .iter()
                        .map(|(k, v)| format!("{k}={v}"))
                        .collect();
                    format!("  [{}]", parts.join(", "))
                };
                writeln!(
                    out,
                    "  {:indent$}{:<24} {:>14}{}",
                    "",
                    s.name,
                    dur,
                    fields,
                    indent = depth * 2
                )?;
            }
        }
        if !run.counters.is_empty() {
            writeln!(out, "counters:")?;
            for (k, v) in &run.counters {
                writeln!(out, "  {k:<32} {v}")?;
            }
        }
        if !run.gauges.is_empty() {
            writeln!(out, "gauges:")?;
            for (k, value, peak) in &run.gauges {
                writeln!(out, "  {k:<32} {value} (peak {peak})")?;
            }
        }
        if !run.histograms.is_empty() {
            writeln!(out, "histograms:")?;
            for (k, snap) in &run.histograms {
                let mean = if snap.count == 0 {
                    0
                } else {
                    snap.sum / snap.count
                };
                writeln!(
                    out,
                    "  {k:<32} n={} sum={} max={} mean={}",
                    snap.count, snap.sum, snap.max, mean
                )?;
            }
        }
        Ok(())
    }
}

/// Machine-readable event stream: one compact JSON object per line, in
/// timestamp order — spans (with durations) interleaved with events.
///
/// # Examples
///
/// ```
/// use obs::{FakeClock, Json, Recorder, JsonLinesSink, Sink};
///
/// let rec = Recorder::with_clock(Box::new(FakeClock::new(1)));
/// let s = rec.span("translate");
/// s.end();
/// rec.event("verdict", [("schedulable", Json::Bool(true))]);
/// let mut out = Vec::new();
/// JsonLinesSink.emit(&rec.finish(), &mut out).unwrap();
/// let text = String::from_utf8(out).unwrap();
/// assert_eq!(text.lines().count(), 2);
/// assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
/// ```
pub struct JsonLinesSink;

impl Sink for JsonLinesSink {
    fn emit(&self, run: &RunData, out: &mut dyn Write) -> io::Result<()> {
        // Merge spans and events, keyed by (timestamp, kind, log index) for a
        // deterministic total order.
        let typed = |kind: &str, json: Json| match json {
            Json::Obj(mut pairs) => {
                pairs.insert(0, ("type".to_string(), Json::from(kind)));
                Json::Obj(pairs)
            }
            _ => unreachable!("spans and events render as objects"),
        };
        let mut lines: Vec<(u64, u8, u64, Json)> = Vec::new();
        for s in &run.spans {
            lines.push((s.start_ns, 0, s.id, typed("span", span_json(s))));
        }
        for (i, e) in run.events.iter().enumerate() {
            lines.push((e.ts_ns, 1, i as u64, typed("event", event_json(e))));
        }
        lines.sort_by_key(|(ts, kind, idx, _)| (*ts, *kind, *idx));
        for (_, _, _, json) in &lines {
            writeln!(out, "{}", json.to_compact())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::FakeClock;
    use crate::recorder::Recorder;

    fn sample_run() -> RunData {
        let rec = Recorder::with_clock(Box::new(FakeClock::new(10)));
        let root = rec.span("served.exec");
        let explore = root.child("explore");
        explore.set("states", 2);
        explore.end();
        root.end();
        rec.event("verdict", [("schedulable", Json::Bool(false))]);
        rec.counter("explore.dedup_hits").add(5);
        rec.gauge("explore.states").set(12);
        rec.histogram("translate.skeleton_size").observe(8);
        rec.finish()
    }

    #[test]
    fn summary_renders_nested_spans() {
        let mut out = Vec::new();
        SummarySink.emit(&sample_run(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("  served.exec"));
        assert!(text.contains("    explore "), "{text}");
        assert!(text.contains("states=2"));
        assert!(text.contains("explore.states"));
    }

    #[test]
    fn jsonl_is_one_object_per_line_in_time_order() {
        let mut out = Vec::new();
        JsonLinesSink.emit(&sample_run(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"name\":\"served.exec\""));
        assert!(lines[1].contains("\"name\":\"explore\""));
        assert!(lines[2].contains("\"type\":\"event\""));
        // Deterministic: emitting twice gives identical bytes.
        let mut out2 = Vec::new();
        JsonLinesSink.emit(&sample_run(), &mut out2).unwrap();
        assert_eq!(text.as_bytes(), &out2[..]);
    }
}
