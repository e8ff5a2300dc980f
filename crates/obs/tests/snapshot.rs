//! Byte-for-byte snapshot of the JSON report under the fake clock.
//!
//! The report format is a contract with external consumers (the benchmark
//! trajectory collects `BENCH_*.json`); any change to field order, casing,
//! indentation or numeric rendering must show up here as a deliberate diff.

use obs::{FakeClock, Json, JsonLinesSink, Recorder, Report, Sink};

/// A fixed instrumentation sequence, as the pipeline would produce it.
fn record() -> Recorder {
    let rec = Recorder::with_clock(Box::new(FakeClock::new(1_000)));
    let translate = rec.span("translate");
    translate.set("threads", 2);
    translate.end();
    let explore = rec.span("explore");
    for (level, frontier) in [(1i64, 1i64), (2, 2)] {
        let lvl = explore.child("explore.level");
        lvl.set("level", level);
        lvl.set("frontier", frontier);
        lvl.end();
    }
    explore.set("states", 3);
    explore.end();
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
  "version": 12,
  "run_id": "e0721772aeb595b6",
  "tool": "snapshot-test",
  "duration_ns": 10000,
  "spans": [
    {
      "id": 0,
      "parent": null,
      "name": "translate",
      "start_ns": 1000,
      "duration_ns": 1000,
      "fields": {
        "threads": 2
      }
    },
    {
      "id": 1,
      "parent": null,
      "name": "explore",
      "start_ns": 3000,
      "duration_ns": 5000,
      "fields": {
        "states": 3
      }
    },
    {
      "id": 2,
      "parent": 1,
      "name": "explore.level",
      "start_ns": 4000,
      "duration_ns": 1000,
      "fields": {
        "level": 1,
        "frontier": 1
      }
    },
    {
      "id": 3,
      "parent": 1,
      "name": "explore.level",
      "start_ns": 6000,
      "duration_ns": 1000,
      "fields": {
        "level": 2,
        "frontier": 2
      }
    }
  ],
  "events": [
    {
      "ts_ns": 9000,
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
