//! # obs — vendored tracing + metrics for the exploration pipeline
//!
//! The paper's value proposition is state-space exploration at scale (§7
//! reports state counts and blow-up as the model grows), so this workspace
//! treats run observability as first-class tool output, like the AADL
//! verification tools around it. `obs` is the std-only (hermetic — no
//! external dependencies, enforced by `tools/check_hermetic.sh`)
//! observability layer the rest of the workspace instruments against:
//!
//! * **[`Recorder`]** — the central handle. Disabled by default: every
//!   instrument it hands out is a no-op behind an `Option` branch, so
//!   instrumented hot paths cost nothing observable when observability is
//!   off (the bench harness times the three recorder modes into the
//!   `obs_overhead` section of `BENCH_exploration.json`; see EXPERIMENTS.md
//!   Q11).
//! * **Spans** ([`Span`]) — hierarchical, monotonically timed regions
//!   (`translate`, `explore`, `diagnose.raise`, and the daemon's
//!   `served.*` stages), a fixed handful per run: detail per item, such as
//!   the frontier of each Dijkstra bucket, goes into a histogram
//!   (`explore.bucket_frontier`), never into a span per item.
//! * **Metrics** ([`Counter`], [`Gauge`], [`Histogram`]) — lock-free atomic
//!   instruments: an analysis runs on one thread, but the daemon's worker
//!   and connection threads update its fleet-wide instruments concurrently.
//! * **Sinks** ([`SummarySink`], [`JsonLinesSink`], and the [`Report`]) —
//!   pure renderings of a finished run: human summary, JSON-lines event
//!   stream, and the schema-versioned end-of-run JSON report
//!   (`BENCH_exploration.json`).
//! * **Clocks** ([`MonotonicClock`], [`FakeClock`]) — production `Instant`
//!   timing vs. a deterministic tick-per-read clock that makes snapshot
//!   tests of the JSON report byte-stable.
//!
//! ## End-to-end
//!
//! ```
//! use obs::{FakeClock, Json, Recorder, Report};
//!
//! let rec = Recorder::with_clock(Box::new(FakeClock::new(1_000)));
//! let explore = rec.span("explore");
//! explore.set("states", 3);
//! rec.histogram("explore.bucket_frontier").observe(1);
//! rec.counter("explore.dedup_hits").add(3);
//! explore.end();
//!
//! let mut report = Report::new(&obs::run_id(&[b"model", b"opts"]), "doctest");
//! report.set("verdict", Json::obj([("schedulable", Json::Bool(true))]));
//! report.attach_run(&rec.finish());
//! let a = report.to_json();
//! assert!(a.contains("\"name\": \"explore\""));
//! assert!(a.contains("\"explore.bucket_frontier\""));
//! assert!(a.contains("\"explore.dedup_hits\": 3"));
//! ```

pub mod clock;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod report;
pub mod sink;

pub use clock::{Clock, FakeClock, MonotonicClock};
pub use flight::{FlightEvent, FlightRecorder};
pub use json::{Json, JsonParseError};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use recorder::{
    EventRecord, Recorder, RunData, Span, SpanRecord, PROGRESS_FIRST_THRESHOLD,
};
pub use report::{histogram_json, run_id, Report, SCHEMA, SCHEMA_VERSION};
pub use sink::{JsonLinesSink, Sink, SummarySink};
