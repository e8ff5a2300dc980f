//! The central recorder: span/metric/event registry behind a cheap handle.
//!
//! A [`Recorder`] is either *disabled* (the default — every operation is a
//! branch on `None`, no allocation, nothing observable in benchmarks) or
//! *enabled* (an `Arc`-shared store: atomic instruments, `Mutex`-guarded
//! span and event logs, and an optional rate-limited progress emitter).
//!
//! ## Naming conventions (see DESIGN.md, "Observability")
//!
//! Span and metric names are lowercase, dot-separated, rooted at the
//! pipeline stage. The engine opens the spans `translate`, `explore` and
//! `diagnose.raise`; the daemon opens `served.request` and one child per
//! serving stage (`served.parse`, `served.exec`, …). Instruments extend the
//! stage name (`explore.dedup_hits`, `explore.bucket_frontier`,
//! `zone.quanta_collapsed`, `translate.skeleton_size`).
//!
//! A stage records a fixed number of spans however large its input: detail
//! per item (a Dijkstra bucket, a forced run, a quantum) goes into a
//! histogram, never into a span per item. Span names, event names and field
//! keys are `&'static str` literals, so a span costs its record plus at most
//! one fields vector.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use crate::clock::{Clock, MonotonicClock};
use crate::json::Json;
use crate::metrics::{Counter, Gauge, GaugeCell, Histogram, HistogramCell, HistogramSnapshot};

/// One recorded (possibly still open) span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Dense span id (index into the span log; root spans first-come).
    pub id: u64,
    /// Parent span id, if this span was opened via [`Span::child`].
    pub parent: Option<u64>,
    /// Dot-separated span name.
    pub name: &'static str,
    /// Clock reading at open.
    pub start_ns: u64,
    /// Clock reading at close (`None` while open).
    pub end_ns: Option<u64>,
    /// Integer fields attached with [`Span::set`], in attachment order.
    pub fields: Vec<(&'static str, i64)>,
}

/// One instantaneous event with structured fields.
#[derive(Clone, Debug)]
pub struct EventRecord {
    /// Clock reading at emission.
    pub ts_ns: u64,
    /// Dot-separated event name.
    pub name: &'static str,
    /// Structured payload, in attachment order.
    pub fields: Vec<(&'static str, Json)>,
}

/// Everything one run recorded, in deterministic order: metrics sorted by
/// name (the registry is a `BTreeMap`), spans and events in creation order.
#[derive(Clone, Debug, Default)]
pub struct RunData {
    /// Clock reading when the recorder was created.
    pub start_ns: u64,
    /// Clock reading when [`Recorder::finish`] was called.
    pub end_ns: u64,
    /// Spans discarded because the span log hit its cap (see
    /// [`Recorder::with_span_cap`]); `0` when uncapped.
    pub spans_dropped: u64,
    /// Events discarded because the event log hit the same cap.
    pub events_dropped: u64,
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, current, peak)` for every gauge, sorted by name.
    pub gauges: Vec<(String, i64, i64)>,
    /// `(name, snapshot)` for every histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// All spans, in open order.
    pub spans: Vec<SpanRecord>,
    /// All events, in emission order.
    pub events: Vec<EventRecord>,
}

struct ProgressState {
    /// Emit the next line when the state count reaches this threshold; the
    /// threshold doubles after each line, so output volume is logarithmic in
    /// the state count and — because it depends only on the count, never on
    /// wall-clock — deterministic.
    next: u64,
}

struct Inner {
    clock: Box<dyn Clock>,
    start_ns: u64,
    counters: Mutex<std::collections::BTreeMap<String, Arc<std::sync::atomic::AtomicU64>>>,
    gauges: Mutex<std::collections::BTreeMap<String, Arc<GaugeCell>>>,
    histograms: Mutex<std::collections::BTreeMap<String, Arc<HistogramCell>>>,
    spans: Mutex<Vec<SpanRecord>>,
    events: Mutex<Vec<EventRecord>>,
    progress: Option<Mutex<ProgressState>>,
    /// Hard cap on the span log and, separately, on the event log; entries
    /// past it are silently dropped (counted in `spans_dropped` and
    /// `events_dropped`) so a long-lived process cannot grow either log
    /// without bound. Metrics are fixed-size and keep recording.
    span_cap: usize,
    spans_dropped: std::sync::atomic::AtomicU64,
    events_dropped: std::sync::atomic::AtomicU64,
}

/// A request scope a recorder handle can carry (see [`Recorder::scoped`]):
/// spans opened through the scoped handle default-parent under the scope's
/// anchor span and are tagged with the request sequence number.
#[derive(Clone)]
struct Scope {
    parent: u64,
    req: i64,
}

/// Handle to the observability store; clone freely (it is an `Arc` or
/// nothing). The [`Default`] handle is disabled.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
    scope: Option<Scope>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.inner.is_some() {
            "Recorder(enabled)"
        } else {
            "Recorder(disabled)"
        })
    }
}

/// First progress line fires when the exploration reaches this many states;
/// subsequent lines at each doubling.
pub const PROGRESS_FIRST_THRESHOLD: u64 = 64;

impl Recorder {
    /// The no-op recorder: every instrument it hands out is inert.
    pub fn disabled() -> Recorder {
        Recorder {
            inner: None,
            scope: None,
        }
    }

    /// An enabled recorder on the production monotonic clock.
    pub fn enabled() -> Recorder {
        Recorder::with_clock(Box::new(MonotonicClock::new()))
    }

    /// An enabled recorder on an explicit clock (use
    /// [`FakeClock`](crate::FakeClock) for byte-stable reports).
    pub fn with_clock(clock: Box<dyn Clock>) -> Recorder {
        let start_ns = clock.now_ns();
        Recorder {
            inner: Some(Arc::new(Inner {
                clock,
                start_ns,
                counters: Mutex::new(Default::default()),
                gauges: Mutex::new(Default::default()),
                histograms: Mutex::new(Default::default()),
                spans: Mutex::new(Vec::new()),
                events: Mutex::new(Vec::new()),
                progress: None,
                span_cap: usize::MAX,
                spans_dropped: std::sync::atomic::AtomicU64::new(0),
                events_dropped: std::sync::atomic::AtomicU64::new(0),
            })),
            scope: None,
        }
    }

    /// Cap the span log and the event log at `cap` entries each. Spans
    /// opened past the cap are dropped (their handles are inert) and
    /// counted in [`RunData::spans_dropped`]; events emitted past it are
    /// dropped and counted in [`RunData::events_dropped`]. Counters, gauges
    /// and histograms — all fixed-size — keep recording. Long-lived
    /// processes (the serving daemon) use this so tracing cannot grow
    /// memory without bound; the cap counts every entry of the recorder's
    /// life, not per request.
    ///
    /// # Panics
    ///
    /// If the handle has been cloned: configure a recorder before handing
    /// it out, like [`Recorder::with_progress`].
    pub fn with_span_cap(mut self, cap: usize) -> Recorder {
        if let Some(inner) = &mut self.inner {
            sole_owner(inner).span_cap = cap;
        }
        self
    }

    /// Turn on rate-limited progress reporting (stderr lines emitted by
    /// [`Recorder::progress`], doubling thresholds from
    /// [`PROGRESS_FIRST_THRESHOLD`]).
    ///
    /// # Panics
    ///
    /// If the handle has been cloned: call it before handing the recorder
    /// to the exploration.
    pub fn with_progress(mut self) -> Recorder {
        if let Some(inner) = &mut self.inner {
            sole_owner(inner).progress = Some(Mutex::new(ProgressState {
                next: PROGRESS_FIRST_THRESHOLD,
            }));
        }
        self
    }

    /// Whether instruments handed out by this recorder actually record.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Get-or-create the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            None => Counter(None),
            Some(inner) => {
                let mut reg = inner.counters.lock().expect("counter registry");
                Counter(Some(Arc::clone(
                    reg.entry(name.to_string()).or_default(),
                )))
            }
        }
    }

    /// Get-or-create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            None => Gauge(None),
            Some(inner) => {
                let mut reg = inner.gauges.lock().expect("gauge registry");
                Gauge(Some(Arc::clone(reg.entry(name.to_string()).or_default())))
            }
        }
    }

    /// Get-or-create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.inner {
            None => Histogram(None),
            Some(inner) => {
                let mut reg = inner.histograms.lock().expect("histogram registry");
                Histogram(Some(Arc::clone(
                    reg.entry(name.to_string()).or_default(),
                )))
            }
        }
    }

    /// Open a root span. Close it with [`Span::end`]; fields with
    /// [`Span::set`]. Under a scoped handle (see [`Recorder::scoped`]) the
    /// span parents under the scope's anchor instead of being a root.
    pub fn span(&self, name: &'static str) -> Span {
        self.open_span(name, None, None)
    }

    /// Open a span with an explicit start timestamp instead of reading the
    /// clock — for callers that already stamped the moment of interest
    /// (e.g. the serving layer stamps request receipt once and builds the
    /// whole stage tree from stored stamps, keeping the number of clock
    /// reads per request fixed and fake-clock runs byte-stable).
    pub fn span_at(&self, name: &'static str, start_ns: u64) -> Span {
        self.open_span(name, None, Some(start_ns))
    }

    /// Read the recorder's clock (`0` when disabled). This is the clock the
    /// span log is stamped with; pair with [`Recorder::span_at`] /
    /// [`Span::end_at`].
    pub fn now_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.clock.now_ns())
    }

    /// The clock reading when the recorder was created (`0` when disabled).
    pub fn start_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.start_ns)
    }

    /// A clone of this handle whose root spans parent under `anchor` and
    /// carry a `req` field — the request-scoping hook of the serving layer:
    /// hand the engine a scoped clone and every span the engine opens
    /// (`translate`, `explore`, `diagnose.raise`) lands
    /// in that request's span tree, tagged with its request sequence
    /// number, without the engine knowing anything about requests. Returns
    /// an unscoped clone when the anchor span is inert (disabled recorder
    /// or a span dropped by the cap).
    pub fn scoped(&self, anchor: &Span, req: i64) -> Recorder {
        let mut rec = self.clone();
        rec.scope = anchor.id.map(|parent| Scope { parent, req });
        rec
    }

    /// Rebuild a [`Span`] handle from a span id previously obtained with
    /// [`Span::id`]. The id must come from this recorder; handing back an
    /// id from another recorder attaches children to an unrelated span.
    pub fn span_handle(&self, id: u64) -> Span {
        Span {
            rec: self.clone(),
            id: self.inner.is_some().then_some(id),
        }
    }

    fn open_span(&self, name: &'static str, parent: Option<u64>, start: Option<u64>) -> Span {
        match &self.inner {
            None => Span {
                rec: Recorder::disabled(),
                id: None,
            },
            Some(inner) => {
                let parent = parent.or(self.scope.as_ref().map(|s| s.parent));
                let start_ns = start.unwrap_or_else(|| inner.clock.now_ns());
                let mut spans = inner.spans.lock().expect("span log");
                if spans.len() >= inner.span_cap {
                    drop(spans);
                    inner.spans_dropped.fetch_add(1, Ordering::Relaxed);
                    return Span {
                        rec: Recorder::disabled(),
                        id: None,
                    };
                }
                let id = spans.len() as u64;
                let fields = match &self.scope {
                    Some(s) => vec![("req", s.req)],
                    None => Vec::new(),
                };
                spans.push(SpanRecord {
                    id,
                    parent,
                    name,
                    start_ns,
                    end_ns: None,
                    fields,
                });
                Span {
                    rec: self.clone(),
                    id: Some(id),
                }
            }
        }
    }

    /// Emit an instantaneous structured event. Past the log cap (see
    /// [`Recorder::with_span_cap`]) the event is dropped and counted.
    pub fn event(
        &self,
        name: &'static str,
        fields: impl IntoIterator<Item = (&'static str, Json)>,
    ) {
        if let Some(inner) = &self.inner {
            let ts_ns = inner.clock.now_ns();
            let mut events = inner.events.lock().expect("event log");
            if events.len() >= inner.span_cap {
                drop(events);
                inner.events_dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            events.push(EventRecord {
                ts_ns,
                name,
                fields: fields.into_iter().collect(),
            });
        }
    }

    /// Progress hook for long explorations: when progress reporting is armed
    /// (see [`Recorder::with_progress`]) and `states` has crossed the next
    /// doubling threshold, emit one stderr line. Rate limiting is purely by
    /// state count, so the set of lines a given exploration produces is
    /// deterministic.
    pub fn progress(&self, states: u64, level: u64, frontier: u64) {
        if let Some(inner) = &self.inner {
            if let Some(progress) = &inner.progress {
                let mut p = progress.lock().expect("progress state");
                if states >= p.next {
                    while p.next <= states {
                        p.next *= 2;
                    }
                    eprintln!(
                        "progress: {states} states, level {level}, frontier {frontier}"
                    );
                }
            }
        }
    }

    /// Snapshot the metric registries only — counters, gauges and
    /// histograms in name order — without reading the clock or touching the
    /// span/event logs. This is what the daemon's `stats` wire command
    /// renders: because no clock is read and nothing is mutated, two
    /// consecutive snapshots with no traffic in between are byte-identical
    /// even under the real clock.
    pub fn metrics_data(&self) -> RunData {
        match &self.inner {
            None => RunData::default(),
            Some(inner) => RunData {
                start_ns: inner.start_ns,
                end_ns: inner.start_ns,
                spans_dropped: inner.spans_dropped.load(Ordering::Relaxed),
                events_dropped: inner.events_dropped.load(Ordering::Relaxed),
                counters: inner
                    .counters
                    .lock()
                    .expect("counter registry")
                    .iter()
                    .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                    .collect(),
                gauges: inner
                    .gauges
                    .lock()
                    .expect("gauge registry")
                    .iter()
                    .map(|(k, g)| {
                        (
                            k.clone(),
                            g.value.load(Ordering::Relaxed),
                            g.peak.load(Ordering::Relaxed),
                        )
                    })
                    .collect(),
                histograms: inner
                    .histograms
                    .lock()
                    .expect("histogram registry")
                    .iter()
                    .map(|(k, h)| (k.clone(), Histogram(Some(Arc::clone(h))).snapshot()))
                    .collect(),
                spans: Vec::new(),
                events: Vec::new(),
            },
        }
    }

    /// Close out the run: read the final clock and snapshot everything in
    /// deterministic order.
    pub fn finish(&self) -> RunData {
        match &self.inner {
            None => RunData::default(),
            Some(inner) => RunData {
                start_ns: inner.start_ns,
                end_ns: inner.clock.now_ns(),
                spans_dropped: inner.spans_dropped.load(Ordering::Relaxed),
                events_dropped: inner.events_dropped.load(Ordering::Relaxed),
                counters: inner
                    .counters
                    .lock()
                    .expect("counter registry")
                    .iter()
                    .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                    .collect(),
                gauges: inner
                    .gauges
                    .lock()
                    .expect("gauge registry")
                    .iter()
                    .map(|(k, g)| {
                        (
                            k.clone(),
                            g.value.load(Ordering::Relaxed),
                            g.peak.load(Ordering::Relaxed),
                        )
                    })
                    .collect(),
                histograms: inner
                    .histograms
                    .lock()
                    .expect("histogram registry")
                    .iter()
                    .map(|(k, h)| (k.clone(), Histogram(Some(Arc::clone(h))).snapshot()))
                    .collect(),
                spans: inner.spans.lock().expect("span log").clone(),
                events: inner.events.lock().expect("event log").clone(),
            },
        }
    }
}

/// The store behind a handle that has no clones yet — the only state in
/// which the `with_*` builders may change its configuration.
fn sole_owner(inner: &mut Arc<Inner>) -> &mut Inner {
    Arc::get_mut(inner)
        .expect("configure a Recorder (with_span_cap, with_progress) before cloning it")
}

/// An open span; hierarchical via [`Span::child`]. Spans are closed
/// explicitly with [`Span::end`] (dropping an open span leaves `end_ns`
/// empty, which the sinks render as an unclosed span rather than guessing a
/// duration).
#[derive(Debug)]
pub struct Span {
    rec: Recorder,
    id: Option<u64>,
}

impl Span {
    /// Open a child span.
    pub fn child(&self, name: &'static str) -> Span {
        match self.id {
            None => Span {
                rec: Recorder::disabled(),
                id: None,
            },
            Some(id) => self.rec.open_span(name, Some(id), None),
        }
    }

    /// Open a child span with an explicit start timestamp (no clock read);
    /// see [`Recorder::span_at`].
    pub fn child_at(&self, name: &'static str, start_ns: u64) -> Span {
        match self.id {
            None => Span {
                rec: Recorder::disabled(),
                id: None,
            },
            Some(id) => self.rec.open_span(name, Some(id), Some(start_ns)),
        }
    }

    /// This span's id in the recorder's span log (`None` for an inert
    /// handle). Feed it to [`Recorder::span_handle`] to rebuild a handle in
    /// another thread.
    pub fn id(&self) -> Option<u64> {
        self.id
    }

    /// Attach an integer field (last write wins per key at render time; keys
    /// are kept in attachment order).
    pub fn set(&self, key: &'static str, value: i64) {
        if let (Some(id), Some(inner)) = (self.id, &self.rec.inner) {
            let mut spans = inner.spans.lock().expect("span log");
            let rec = &mut spans[id as usize];
            if let Some(slot) = rec.fields.iter_mut().find(|(k, _)| *k == key) {
                slot.1 = value;
            } else {
                rec.fields.push((key, value));
            }
        }
    }

    /// Close the span, stamping its end time.
    pub fn end(self) {
        if let (Some(id), Some(inner)) = (self.id, &self.rec.inner) {
            let end = inner.clock.now_ns();
            let mut spans = inner.spans.lock().expect("span log");
            spans[id as usize].end_ns = Some(end);
        }
    }

    /// Close the span at an explicit end timestamp (no clock read); see
    /// [`Recorder::span_at`].
    pub fn end_at(self, end_ns: u64) {
        if let (Some(id), Some(inner)) = (self.id, &self.rec.inner) {
            let mut spans = inner.spans.lock().expect("span log");
            spans[id as usize].end_ns = Some(end_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::FakeClock;

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        let span = rec.span("served.exec");
        let child = span.child("explore");
        child.set("states", 3);
        child.end();
        span.end();
        rec.event("verdict", [("schedulable", Json::Bool(true))]);
        rec.counter("c").inc();
        let run = rec.finish();
        assert!(run.spans.is_empty());
        assert!(run.events.is_empty());
        assert!(run.counters.is_empty());
    }

    #[test]
    fn spans_nest_and_time_deterministically() {
        let rec = Recorder::with_clock(Box::new(FakeClock::new(10)));
        // Clock reads: start=0, span open=10, child open=20, child end=30,
        // span end=40, finish=50.
        let span = rec.span("served.exec");
        let child = span.child("explore");
        child.set("states", 5);
        child.set("states", 7); // overwrite, not duplicate
        child.end();
        span.end();
        let run = rec.finish();
        assert_eq!(run.start_ns, 0);
        assert_eq!(run.end_ns, 50);
        assert_eq!(run.spans.len(), 2);
        assert_eq!(run.spans[0].name, "served.exec");
        assert_eq!(run.spans[0].start_ns, 10);
        assert_eq!(run.spans[0].end_ns, Some(40));
        assert_eq!(run.spans[1].parent, Some(0));
        assert_eq!(run.spans[1].fields, vec![("states", 7)]);
    }

    #[test]
    fn metrics_snapshot_in_name_order() {
        let rec = Recorder::with_clock(Box::new(FakeClock::new(1)));
        rec.counter("z").add(1);
        rec.counter("a").add(2);
        rec.gauge("g").set(9);
        rec.histogram("h").observe(3);
        let run = rec.finish();
        assert_eq!(
            run.counters,
            vec![("a".to_string(), 2), ("z".to_string(), 1)]
        );
        assert_eq!(run.gauges, vec![("g".to_string(), 9, 9)]);
        assert_eq!(run.histograms[0].0, "h");
        assert_eq!(run.histograms[0].1.count, 1);
    }

    #[test]
    fn counter_handles_alias_by_name() {
        let rec = Recorder::enabled();
        let a = rec.counter("same");
        let b = rec.counter("same");
        a.add(2);
        b.add(3);
        assert_eq!(a.get(), 5);
    }

    #[test]
    fn progress_thresholds_double() {
        // No assertion on stderr contents (captured by the harness); this
        // exercises the threshold arithmetic for panics / infinite loops.
        let rec = Recorder::enabled().with_progress();
        for states in [1u64, 63, 64, 65, 127, 128, 1024, 1_000_000] {
            rec.progress(states, 1, 1);
        }
    }

    #[test]
    fn scoped_recorder_parents_and_tags_root_spans() {
        let rec = Recorder::with_clock(Box::new(FakeClock::new(10)));
        let anchor = rec.span("served.exec");
        let scoped = rec.scoped(&anchor, 7);
        // A "root" span opened through the scoped handle parents under the
        // anchor and carries the request tag — and so do its children,
        // because `child` goes through the same scoped handle.
        let engine = scoped.span("explore");
        let part = engine.child("stage");
        part.end();
        engine.end();
        anchor.end();
        let run = rec.finish();
        assert_eq!(run.spans[1].name, "explore");
        assert_eq!(run.spans[1].parent, Some(0));
        assert_eq!(run.spans[1].fields, vec![("req", 7)]);
        assert_eq!(run.spans[2].parent, Some(1));
        assert_eq!(run.spans[2].fields, vec![("req", 7)]);
        // Scoping an inert anchor yields an unscoped handle.
        let unscoped = Recorder::disabled();
        let inert = unscoped.span("x");
        let s = rec.scoped(&inert, 1);
        let root = s.span("y");
        assert_eq!(run.spans.len(), 3); // snapshot above unaffected
        root.end();
        let run2 = rec.finish();
        assert_eq!(run2.spans[3].parent, None);
        assert!(run2.spans[3].fields.is_empty());
    }

    #[test]
    fn explicit_timestamps_skip_the_clock() {
        let rec = Recorder::with_clock(Box::new(FakeClock::new(1_000)));
        // Clock reads: creation only (start=0) — every stamp is explicit.
        let root = rec.span_at("served.request", 42);
        let root_id = root.id().unwrap();
        let child = root.child_at("served.parse", 43);
        child.end_at(44);
        root.end_at(50);
        let handle = rec.span_handle(root_id);
        let late = handle.child_at("served.serialize", 45);
        late.end_at(49);
        let run = rec.finish();
        assert_eq!(run.spans[0].start_ns, 42);
        assert_eq!(run.spans[0].end_ns, Some(50));
        assert_eq!(run.spans[1].start_ns, 43);
        assert_eq!(run.spans[2].parent, Some(0));
        // finish() was the first clock read after creation.
        assert_eq!(run.end_ns, 1_000);
    }

    #[test]
    fn span_cap_drops_spans_but_keeps_metrics() {
        let rec = Recorder::with_clock(Box::new(FakeClock::new(1))).with_span_cap(2);
        let a = rec.span("a");
        let b = rec.span("b");
        let c = rec.span("c"); // dropped
        c.set("ignored", 1);
        c.end();
        rec.counter("still.counting").inc();
        a.end();
        b.end();
        let run = rec.finish();
        assert_eq!(run.spans.len(), 2);
        assert_eq!(run.spans_dropped, 1);
        assert_eq!(run.counters[0], ("still.counting".to_string(), 1));
    }

    #[test]
    #[should_panic(expected = "before cloning it")]
    fn configuring_a_cloned_recorder_panics() {
        // A clone shares the store, so changing its configuration now would
        // either reach the other handle's spans or need a second store.
        let rec = Recorder::with_clock(Box::new(FakeClock::new(1)));
        let _engine = rec.clone();
        let _ = rec.with_span_cap(8);
    }

    #[test]
    fn event_cap_drops_events_but_keeps_metrics() {
        let rec = Recorder::with_clock(Box::new(FakeClock::new(1))).with_span_cap(2);
        for depth in 0..3 {
            rec.event("verdict", [("deadlock_depth", Json::Int(depth))]);
        }
        rec.counter("still.counting").inc();
        let run = rec.finish();
        assert_eq!(run.events.len(), 2);
        assert_eq!(run.events[1].fields[0].1, Json::Int(1));
        assert_eq!(run.events_dropped, 1);
        assert_eq!(run.spans_dropped, 0);
        assert_eq!(run.counters[0], ("still.counting".to_string(), 1));
    }

    #[test]
    fn metrics_data_reads_no_clock() {
        let rec = Recorder::with_clock(Box::new(FakeClock::new(1_000)));
        rec.counter("c").add(2);
        rec.histogram("h").observe(9);
        let a = rec.metrics_data();
        let b = rec.metrics_data();
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.histograms, b.histograms);
        assert!(a.spans.is_empty() && a.events.is_empty());
        // The next real clock read proves metrics_data consumed none.
        assert_eq!(rec.now_ns(), 1_000);
    }

    #[test]
    fn events_carry_fields_in_order() {
        let rec = Recorder::with_clock(Box::new(FakeClock::new(5)));
        rec.event(
            "verdict",
            [
                ("schedulable", Json::Bool(false)),
                ("deadlock_depth", Json::UInt(9)),
            ],
        );
        let run = rec.finish();
        assert_eq!(run.events.len(), 1);
        assert_eq!(run.events[0].ts_ns, 5);
        assert_eq!(run.events[0].fields[0].0, "schedulable");
        assert_eq!(run.events[0].fields[1].1, Json::UInt(9));
    }
}
