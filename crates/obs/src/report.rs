//! The end-of-run JSON report (the `BENCH_exploration.json` schema).
//!
//! A [`Report`] is an ordered set of top-level JSON fields seeded with the
//! schema identity (`schema`, `version`, `run_id`); the caller adds
//! tool-specific sections (`model`, `translation`, `exploration`,
//! `verdict`, …) and finally attaches the recorder's [`RunData`] (spans,
//! counters, gauges, histograms, events). Reports are reproducible and
//! diffable by construction: the run id hashes the *inputs* (model source +
//! options), never the wall clock, and rendering is insertion-ordered with
//! no floats.

use crate::json::Json;
use crate::metrics::HistogramSnapshot;
use crate::recorder::{EventRecord, RunData, SpanRecord};

/// The schema family name every report carries.
pub const SCHEMA: &str = "aadlsched-metrics";

/// Version of the report schema. Bump when a field changes meaning or moves;
/// consumers reject reports whose version they do not know.
///
/// * v2 — the `exploration` section gained the hash-consing fields
///   (`memo_hits`, `memo_misses`, `memo_evictions`, `unique_subterms`) and
///   `BENCH_exploration.json` gained the `interning` A/B section.
/// * v3 — every histogram gained `p50`/`p90`/`p99` quantile estimates
///   (bucket-midpoint estimation over the power-of-two buckets, see
///   [`HistogramSnapshot::quantile`]); reports may carry a top-level
///   `spans_dropped` count when the span log was capped, and the daemon's
///   fleet report gained a `flight` section (the drained flight-recorder
///   window).
/// * v4 — the cross-run artifact store: runs configured with `--store`
///   record `cas.hits` / `cas.misses` / `cas.writes` / `cas.invalidations`
///   counters, the daemon's fleet-report `config` section gained `store`
///   and `store_readonly`, and `BENCH_exploration.json` gained the `cas`
///   warm-vs-cold section. Store-less runs emit none of these, so their
///   reports are shaped exactly as in v3.
/// * v5 — delay-zone exploration: zone-mode runs record `zone.delay_steps`
///   / `zone.quanta_collapsed` / `zone.singleton_steps` counters, the
///   `explore` span gained a `zones` field, the daemon's fleet-report
///   `config` section gained `zones`, and `BENCH_exploration.json` gained
///   the `zones` A/B section. Concrete-mode runs emit none of these, so
///   their reports are shaped exactly as in v4.
/// * v6 — closed-form delay advance: zone-mode runs under the default
///   `closed` strategy record `zone.closed_form_advances` /
///   `zone.replay_fallbacks` / `zone.shapes_derived` counters and a
///   `zone.shape_cache` gauge, the CLI's canonical option string (hashed
///   into the run id) gained `zone_cap` and `zone_advance`, the daemon's
///   fleet-report `config` section gained the same two fields, and
///   `BENCH_exploration.json` gained the `zone_advance` closed-vs-replay
///   section. Replay-mode and concrete-mode runs emit none of the new
///   instruments.
/// * v7 — one reference explorer instead of three baselines:
///   - `memo`, `shards` and `zone_advance` left the CLI's canonical option
///     string (hashed into the run id): the memo is always on, the shard
///     count always follows the worker count, and zone mode always
///     advances in closed form;
///   - `zone_advance` left the daemon's fleet-report `config` section;
///   - the `interning` and `zone_advance` A/B sections left
///     `BENCH_exploration.json` (their engines are deleted; the numbers stay
///     in git history and EXPERIMENTS.md).
/// * v8 — delay zones are the only verdict engine:
///   - every verdict run (no LTS export) records the `zone.*` counters and
///     the `zone.shape_cache` gauge, plus the new `zone.learned_runs`
///     counter (forced runs handed to the closed-form runner after the
///     fixed walk-first length); `--dot` runs explore per quantum and emit
///     none of them;
///   - the `explore` span lost its `zones` field;
///   - `zones` and `zone_cap` left the CLI's canonical option string
///     (hashed into the run id) and the daemon's fleet-report `config`
///     section;
///   - the `zones` section of `BENCH_exploration.json` lost its `concrete`
///     row and gained `learned_runs` and `closed_form_advances`.
/// * v9 — one exploration engine (LTS runs are the zone search at unit
///   edges):
///   - `--dot` runs now emit the `zone.*` counters and the
///     `zone.shape_cache` gauge too, like every other run;
///   - the parallel-only `explore.*` instruments are gone: the per-worker
///     `expanded` counters, the lock and shard contention counters, the
///     chunk-size and shard-occupancy histograms, and the `explore` span's
///     `shards` field; `explore.level` spans no longer carry `deduped`;
///   - the rows of the `scaling` section of `BENCH_exploration.json` keep
///     only `threads`, `states` and `wall_ns` (they lost `shards` and the
///     two contention counts), and sweep the default engine.
/// * v10 — the span-log cap also caps the event log: reports may carry a
///   top-level `events_dropped` count, next to `spans_dropped` and, like
///   it, only when non-zero. The daemon's `term.unique_subterms` gauge now
///   reports the last request's own store rather than one store shared by
///   every request.
/// * v11 — one sequential engine (no exploration workers):
///   - `threads` left the CLI's canonical option string (hashed into the
///     run id) and the daemon's job digest, so run ids and job digests of
///     otherwise identical runs change;
///   - the `scaling` section left `BENCH_exploration.json`;
///   - a run that stops at its first deadlock no longer expands the rest of
///     that bucket, so its `step.memo_*` counters and `term.unique_subterms`
///     gauge can be lower than before; every other instrument is unchanged.
/// * v12 — a state's successors are built only when the search keeps them:
///   - `step.memo_misses` no longer counts the `Par` body of a root state
///     (a `Par`, or a `Restrict` over one): the root's prioritized list is
///     one memo entry, computed without the body's raw list;
///   - `step.memo_hits` is unchanged;
///   - `term.unique_subterms` no longer counts successors that restriction
///     or preemption discard.
/// * v13 — a root state's prioritized list is kept only while the search
///   may re-read it (a window of the most recent root lists):
///   - new counter `step.root_rederivations`: misses on a root whose list
///     the window had evicted, so the list was derived again;
///   - `step.memo_misses` rises by exactly `step.root_rederivations`, and
///     `step.memo_hits` by the component-list lookups of those
///     re-derivations;
///   - `step.memo_evictions` counts the component-list table only; root
///     lists leaving the window are not evictions.
/// * v14 — one measurement pipeline:
///   - `BENCH_exploration.json` gained the `obs_overhead` section: the
///     cruise-control pipeline's minimum wall time, states and transitions
///     under each recorder mode (`disabled`, `no_spans`, `enabled`);
///   - the daemon's fleet-report `config` section lost `result_cache`: the
///     `--no-result-cache` flag is gone, and `cache_capacity` 0 is the one
///     way to turn the result cache off.
/// * v15 — a run records a fixed number of spans, whatever its size:
///   - the per-bucket `explore.level` spans are gone; the `explore` span
///     keeps its `levels` and `peak_frontier` fields;
///   - two new histograms take over the per-bucket detail, one observation
///     per bucket: `explore.bucket_frontier` (states expanded in the
///     bucket) and `explore.bucket_discovered` (new states it interned);
///   - with two fewer clock reads per bucket, fake-clock stamps after the
///     search move earlier.
pub const SCHEMA_VERSION: u64 = 15;

/// Deterministic run identifier: FNV-1a (64-bit) over the given byte slices,
/// rendered as 16 lowercase hex digits. Feed it the model source and the
/// canonical option string — *not* timestamps — so the same inputs always
/// produce the same id and two reports are diffable.
///
/// # Examples
///
/// ```
/// let a = obs::run_id(&[b"model source", b"--exhaustive"]);
/// let b = obs::run_id(&[b"model source", b"--exhaustive"]);
/// assert_eq!(a, b);
/// assert_eq!(a.len(), 16);
/// assert_ne!(a, obs::run_id(&[b"model source", b"--max-states 4"]));
/// ```
pub fn run_id(parts: &[&[u8]]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        // Hash each part's length too, so ["ab","c"] != ["a","bc"].
        for b in (part.len() as u64).to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        for &b in *part {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// A schema-versioned, machine-readable run report.
///
/// # Examples
///
/// ```
/// use obs::{Json, Report};
///
/// let mut r = Report::new("deadbeefdeadbeef", "aadlsched");
/// r.set("model", Json::obj([("file", Json::from("m.aadl"))]));
/// let text = r.to_json();
/// assert!(text.starts_with("{\n  \"schema\": \"aadlsched-metrics\""));
/// assert!(text.contains("\"version\": 15"));
/// ```
#[derive(Clone, Debug)]
pub struct Report {
    fields: Vec<(String, Json)>,
}

impl Report {
    /// A report seeded with the schema identity and the producing tool.
    pub fn new(run_id: &str, tool: &str) -> Report {
        Report {
            fields: vec![
                ("schema".into(), Json::from(SCHEMA)),
                ("version".into(), Json::UInt(SCHEMA_VERSION)),
                ("run_id".into(), Json::from(run_id)),
                ("tool".into(), Json::from(tool)),
            ],
        }
    }

    /// Set a top-level field (replacing an earlier value for the same key in
    /// place, preserving its position).
    pub fn set(&mut self, key: &str, value: Json) {
        if let Some(slot) = self.fields.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.fields.push((key.to_string(), value));
        }
    }

    /// Attach a recorder's run data as the `spans`, `events`, `counters`,
    /// `gauges` and `histograms` sections.
    pub fn attach_run(&mut self, run: &RunData) {
        self.set("duration_ns", Json::UInt(run.end_ns.saturating_sub(run.start_ns)));
        if run.spans_dropped > 0 {
            self.set("spans_dropped", Json::UInt(run.spans_dropped));
        }
        if run.events_dropped > 0 {
            self.set("events_dropped", Json::UInt(run.events_dropped));
        }
        self.set(
            "spans",
            Json::Arr(run.spans.iter().map(span_json).collect()),
        );
        self.set(
            "events",
            Json::Arr(run.events.iter().map(event_json).collect()),
        );
        self.set(
            "counters",
            Json::Obj(
                run.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                    .collect(),
            ),
        );
        self.set(
            "gauges",
            Json::Obj(
                run.gauges
                    .iter()
                    .map(|(k, value, peak)| {
                        (
                            k.clone(),
                            Json::obj([
                                ("value", Json::Int(*value)),
                                ("peak", Json::Int(*peak)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        );
        self.set(
            "histograms",
            Json::Obj(
                run.histograms
                    .iter()
                    .map(|(k, snap)| (k.clone(), histogram_json(snap)))
                    .collect(),
            ),
        );
    }

    /// Render the report as pretty-printed JSON (two-space indent, trailing
    /// newline) — the on-disk `BENCH_exploration.json` format.
    pub fn to_json(&self) -> String {
        Json::Obj(self.fields.clone()).to_pretty()
    }
}

/// Render one span (shared by the report and the JSON-lines sink).
pub(crate) fn span_json(s: &SpanRecord) -> Json {
    let mut pairs = vec![
        ("id".to_string(), Json::UInt(s.id)),
        (
            "parent".to_string(),
            s.parent.map_or(Json::Null, Json::UInt),
        ),
        ("name".to_string(), Json::from(s.name)),
        ("start_ns".to_string(), Json::UInt(s.start_ns)),
        (
            "duration_ns".to_string(),
            s.end_ns
                .map_or(Json::Null, |e| Json::UInt(e.saturating_sub(s.start_ns))),
        ),
    ];
    if !s.fields.is_empty() {
        pairs.push((
            "fields".to_string(),
            Json::Obj(
                s.fields
                    .iter()
                    .map(|&(k, v)| (k.to_string(), Json::Int(v)))
                    .collect(),
            ),
        ));
    }
    Json::Obj(pairs)
}

/// Render one event (shared by the report and the JSON-lines sink).
pub(crate) fn event_json(e: &EventRecord) -> Json {
    let mut pairs = vec![
        ("ts_ns".to_string(), Json::UInt(e.ts_ns)),
        ("name".to_string(), Json::from(e.name)),
    ];
    pairs.extend(e.fields.iter().map(|(k, v)| (k.to_string(), v.clone())));
    Json::Obj(pairs)
}

/// Render one histogram with its quantile estimates — the shared shape of
/// the report's `histograms` section and the daemon's `stats` response.
/// Quantiles are integers (bucket-midpoint estimates clamped to the
/// observed maximum; see [`HistogramSnapshot::quantile`]) because the JSON
/// dialect has no floats.
pub fn histogram_json(snap: &HistogramSnapshot) -> Json {
    Json::obj([
        ("count", Json::UInt(snap.count)),
        ("sum", Json::UInt(snap.sum)),
        ("max", Json::UInt(snap.max)),
        ("p50", Json::UInt(snap.quantile(0.5))),
        ("p90", Json::UInt(snap.quantile(0.9))),
        ("p99", Json::UInt(snap.quantile(0.99))),
        (
            "buckets",
            Json::Arr(
                snap.buckets
                    .iter()
                    .map(|(i, n)| Json::Arr(vec![Json::UInt(*i as u64), Json::UInt(*n)]))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::FakeClock;
    use crate::recorder::Recorder;

    #[test]
    fn run_id_is_input_determined() {
        assert_eq!(run_id(&[b"x"]), run_id(&[b"x"]));
        assert_ne!(run_id(&[b"x"]), run_id(&[b"y"]));
        assert_ne!(run_id(&[b"ab", b"c"]), run_id(&[b"a", b"bc"]));
    }

    #[test]
    fn report_carries_schema_identity_first() {
        let r = Report::new("0000000000000000", "test");
        let text = r.to_json();
        let schema_pos = text.find("\"schema\"").unwrap();
        let version_pos = text.find("\"version\"").unwrap();
        assert!(schema_pos < version_pos);
    }

    #[test]
    fn set_replaces_in_place() {
        let mut r = Report::new("0", "t");
        r.set("a", Json::UInt(1));
        r.set("b", Json::UInt(2));
        r.set("a", Json::UInt(3));
        let text = r.to_json();
        assert!(text.find("\"a\": 3").unwrap() < text.find("\"b\": 2").unwrap());
        assert!(!text.contains("\"a\": 1"));
    }

    #[test]
    fn attach_run_renders_all_sections() {
        let rec = Recorder::with_clock(Box::new(FakeClock::new(1)));
        rec.counter("c").add(4);
        rec.gauge("g").set(-2);
        rec.histogram("h").observe(10);
        let s = rec.span("stage");
        s.set("f", 1);
        s.end();
        rec.event("done", [("ok", Json::Bool(true))]);
        let mut r = Report::new("id", "t");
        r.attach_run(&rec.finish());
        let text = r.to_json();
        for key in [
            "\"spans\"",
            "\"events\"",
            "\"counters\"",
            "\"gauges\"",
            "\"histograms\"",
            "\"duration_ns\"",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
        assert!(text.contains("\"c\": 4"));
        assert!(text.contains("\"value\": -2"));
    }
}
