//! Byte-for-byte snapshot of the JSON report under the fake clock.
//!
//! The report format is a contract with external consumers (the benchmark
//! trajectory collects `BENCH_*.json`); any change to field order, casing,
//! indentation or numeric rendering must show up here as a deliberate diff.

use obs::{FakeClock, Json, JsonLinesSink, Recorder, Report, Sink};

/// A fixed instrumentation sequence, as the pipeline would produce it
/// inside one daemon request: the engine's spans nest under the request's
/// `served.exec` anchor, and the per-bucket detail is a histogram.
fn record() -> Recorder {
    let rec = Recorder::with_clock(Box::new(FakeClock::new(1_000)));
    let exec = rec.span("served.exec");
    let engine = rec.scoped(&exec, 1);
    let translate = engine.span("translate");
    translate.set("threads", 2);
    translate.end();
    let explore = engine.span("explore");
    let bucket_frontier = engine.histogram("explore.bucket_frontier");
    for frontier in [1, 2] {
        bucket_frontier.observe(frontier);
    }
    explore.set("states", 3);
    explore.set("levels", 2);
    explore.end();
    exec.end();
    rec.counter("explore.dedup_hits").add(1);
    rec.gauge("explore.states").set(3);
    rec.histogram("translate.skeleton_size").observe(40);
    rec.event(
        "verdict",
        [
            ("schedulable", Json::Bool(true)),
            ("truncated", Json::Bool(false)),
        ],
    );
    rec
}

const EXPECTED_REPORT: &str = r#"{
  "schema": "aadlsched-metrics",
  "version": 15,
  "run_id": "e0721772aeb595b6",
  "tool": "snapshot-test",
  "duration_ns": 8000,
  "spans": [
    {
      "id": 0,
      "parent": null,
      "name": "served.exec",
      "start_ns": 1000,
      "duration_ns": 5000
    },
    {
      "id": 1,
      "parent": 0,
      "name": "translate",
      "start_ns": 2000,
      "duration_ns": 1000,
      "fields": {
        "req": 1,
        "threads": 2
      }
    },
    {
      "id": 2,
      "parent": 0,
      "name": "explore",
      "start_ns": 4000,
      "duration_ns": 1000,
      "fields": {
        "req": 1,
        "states": 3,
        "levels": 2
      }
    }
  ],
  "events": [
    {
      "ts_ns": 7000,
      "name": "verdict",
      "schedulable": true,
      "truncated": false
    }
  ],
  "counters": {
    "explore.dedup_hits": 1
  },
  "gauges": {
    "explore.states": {
      "value": 3,
      "peak": 3
    }
  },
  "histograms": {
    "explore.bucket_frontier": {
      "count": 2,
      "sum": 3,
      "max": 2,
      "p50": 1,
      "p90": 2,
      "p99": 2,
      "buckets": [
        [
          1,
          1
        ],
        [
          2,
          1
        ]
      ]
    },
    "translate.skeleton_size": {
      "count": 1,
      "sum": 40,
      "max": 40,
      "p50": 40,
      "p90": 40,
      "p99": 40,
      "buckets": [
        [
          6,
          1
        ]
      ]
    }
  }
}
"#;

#[test]
fn report_is_byte_stable_under_the_fake_clock() {
    let rec = record();
    let mut report = Report::new(&obs::run_id(&[b"snapshot", b"inputs"]), "snapshot-test");
    report.attach_run(&rec.finish());
    assert_eq!(report.to_json(), EXPECTED_REPORT);
}

#[test]
fn two_identical_runs_render_identically() {
    let render = |rec: Recorder| {
        let mut report = Report::new("fixed", "snapshot-test");
        report.attach_run(&rec.finish());
        report.to_json()
    };
    assert_eq!(render(record()), render(record()));

    // The JSON-lines stream is deterministic too.
    let jsonl = |rec: Recorder| {
        let mut out = Vec::new();
        JsonLinesSink.emit(&rec.finish(), &mut out).unwrap();
        out
    };
    assert_eq!(jsonl(record()), jsonl(record()));
}

#[test]
fn drop_counts_follow_the_duration_and_only_when_non_zero() {
    let render = |cap: usize| {
        let rec = Recorder::with_clock(Box::new(FakeClock::new(1_000))).with_span_cap(cap);
        for _ in 0..2 {
            rec.span("served.request").end();
            rec.event("verdict", [("schedulable", Json::Bool(true))]);
        }
        let mut report = Report::new("fixed", "snapshot-test");
        report.attach_run(&rec.finish());
        report.to_json()
    };
    assert!(
        render(1).contains(
            "  \"duration_ns\": 6000,\n  \"spans_dropped\": 1,\n  \"events_dropped\": 1,\n  \"spans\": ["
        ),
        "{}",
        render(1)
    );
    assert!(!render(2).contains("_dropped"), "{}", render(2));
}
