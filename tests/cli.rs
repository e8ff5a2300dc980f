//! Integration tests of the `aadlsched` command-line tool — the OSATE-plugin
//! equivalent (§5): exit codes, verdicts, the instance tree and the raised
//! scenario on stdout.

use std::process::Command;

fn aadlsched(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_aadlsched"))
        .args(args)
        .output()
        .expect("aadlsched runs")
}

fn write_model(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("aadlsched_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

const OK_MODEL: &str = r#"
package Ok
public
  processor cpu_t
    properties
      Scheduling_Protocol => RMS;
  end cpu_t;
  thread T
    properties
      Dispatch_Protocol => Periodic;
      Period => 10 ms;
      Compute_Execution_Time => 2 ms .. 2 ms;
      Compute_Deadline => 10 ms;
  end T;
  system Top
  end Top;
  system implementation Top.impl
    subcomponents
      cpu: processor cpu_t;
      t: thread T;
    properties
      Actual_Processor_Binding => reference (cpu) applies to t;
  end Top.impl;
end Ok;
"#;

const BAD_MODEL: &str = r#"
package Bad
public
  processor cpu_t
    properties
      Scheduling_Protocol => RMS;
  end cpu_t;
  thread T
    properties
      Dispatch_Protocol => Periodic;
      Period => 10 ms;
      Compute_Execution_Time => 8 ms .. 8 ms;
      Compute_Deadline => 10 ms;
  end T;
  system Top
  end Top;
  system implementation Top.impl
    subcomponents
      cpu: processor cpu_t;
      t1: thread T;
      t2: thread T;
    properties
      Actual_Processor_Binding => reference (cpu) applies to t1, t2;
  end Top.impl;
end Bad;
"#;

/// A critical section longer than the thread's best-case execution time —
/// the well-formedness check rejects the `Critical_Section_Execution_Time`
/// association on the connection (line 29 of this source).
const BAD_CS_MODEL: &str = r#"package BadCs
public
  processor cpu_t
    properties
      Scheduling_Protocol => HPF;
  end cpu_t;
  data store
    properties
      Concurrency_Control_Protocol => Priority_Ceiling;
  end store;
  thread T
    features
      d: requires data access;
    properties
      Dispatch_Protocol => Periodic;
      Period => 10 ms;
      Compute_Execution_Time => 2 ms .. 2 ms;
      Compute_Deadline => 10 ms;
      Priority => 1;
  end T;
  system Top
  end Top;
  system implementation Top.impl
    subcomponents
      cpu: processor cpu_t;
      s: data store;
      t: thread T;
    connections
      a1: data access s -> t.d { Critical_Section_Execution_Time => 5 ms; };
    properties
      Actual_Processor_Binding => reference (cpu) applies to t;
  end Top.impl;
end BadCs;
"#;

#[test]
fn schedulable_model_exits_zero() {
    let path = write_model("ok.aadl", OK_MODEL);
    let out = aadlsched(&[path.to_str().unwrap(), "Top.impl", "--exhaustive"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("VERDICT: schedulable"), "{stdout}");
}

#[test]
fn unschedulable_model_exits_one_with_scenario() {
    let path = write_model("bad.aadl", BAD_MODEL);
    let out = aadlsched(&[path.to_str().unwrap(), "Top.impl"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("VERDICT: NOT schedulable"), "{stdout}");
    assert!(stdout.contains("VIOLATION"), "{stdout}");
    assert!(stdout.contains("DEADLOCK"), "{stdout}");
}

#[test]
fn omitted_root_auto_selects_the_top_level_system() {
    // Works both with a trailing flag and with no extra arguments at all.
    let path = write_model("ok_default_root.aadl", OK_MODEL);
    let out = aadlsched(&[path.to_str().unwrap(), "--exhaustive"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("root system: Top.impl (auto-selected)"),
        "{stdout}"
    );
    assert!(stdout.contains("VERDICT: schedulable"), "{stdout}");

    let out = aadlsched(&[path.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn omitted_root_picks_the_unreferenced_impl_among_several() {
    // The bundled cruise-control model declares three system implementations;
    // only CruiseControl.impl is not instantiated by another one.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/models/cruise_control.aadl"
    );
    let out = aadlsched(&[path]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("root system: CruiseControl.impl (auto-selected)"),
        "{stdout}"
    );
}

#[test]
fn tree_flag_prints_the_instance_tree() {
    let path = write_model("ok_tree.aadl", OK_MODEL);
    let out = aadlsched(&[path.to_str().unwrap(), "Top.impl", "--tree"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("t : thread (T)"), "{stdout}");
    assert!(stdout.contains("-> cpu"), "{stdout}");
}

#[test]
fn acsr_flag_prints_definitions() {
    let path = write_model("ok_acsr.aadl", OK_MODEL);
    let out = aadlsched(&[path.to_str().unwrap(), "Top.impl", "--acsr"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("AwaitDispatch_t"), "{stdout}");
    assert!(stdout.contains("Dispatcher_t"), "{stdout}");
    assert!(stdout.contains("Compute_t"), "{stdout}");
}

#[test]
fn parse_errors_exit_two() {
    let path = write_model("broken.aadl", "package Broken public gadget X end");
    let out = aadlsched(&[path.to_str().unwrap(), "Top.impl"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("parse error"), "{stderr}");
}

#[test]
fn missing_file_exits_two() {
    let out = aadlsched(&["/nonexistent/nope.aadl", "Top.impl"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unknown_flag_exits_two_with_usage() {
    let path = write_model("ok_flag.aadl", OK_MODEL);
    let out = aadlsched(&[path.to_str().unwrap(), "Top.impl", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn quantum_override_is_applied() {
    let path = write_model("ok_q.aadl", OK_MODEL);
    let out = aadlsched(&[path.to_str().unwrap(), "Top.impl", "--quantum", "1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("quantum = 1000 µs"), "{stdout}");
}

#[test]
fn exit_codes_cover_all_outcomes() {
    // 0 = schedulable, 1 = deadline miss, 2 = usage/input error,
    // 3 = unknown (state budget exhausted).
    let ok = write_model("codes_ok.aadl", OK_MODEL);
    assert_eq!(
        aadlsched(&[ok.to_str().unwrap(), "Top.impl"]).status.code(),
        Some(0)
    );
    let bad = write_model("codes_bad.aadl", BAD_MODEL);
    assert_eq!(
        aadlsched(&[bad.to_str().unwrap(), "Top.impl"]).status.code(),
        Some(1)
    );
    assert_eq!(aadlsched(&["/nonexistent/nope.aadl"]).status.code(), Some(2));
    // The model's zone graph has two states, so a one-state budget runs out.
    let out = aadlsched(&[ok.to_str().unwrap(), "Top.impl", "--max-states", "1"]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("VERDICT: unknown"));
}

#[test]
fn metrics_flag_writes_a_schema_versioned_report() {
    let path = write_model("metrics.aadl", OK_MODEL);
    let report_path = std::env::temp_dir().join("aadlsched_cli_tests/metrics.json");
    let _ = std::fs::remove_file(&report_path);
    let out = aadlsched(&[
        path.to_str().unwrap(),
        "Top.impl",
        "--exhaustive",
        "--metrics",
        report_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let report = std::fs::read_to_string(&report_path).unwrap();
    for key in [
        "\"schema\": \"aadlsched-metrics\"",
        "\"version\": 12",
        "\"run_id\"",
        "\"tool\": \"aadlsched\"",
        "\"model\"",
        "\"translation\"",
        "\"exploration\"",
        "\"verdict\"",
        "\"spans\"",
        "\"name\": \"translate\"",
        "\"name\": \"explore\"",
        "\"name\": \"explore.level\"",
        "\"counters\"",
        "\"histograms\"",
        "\"translate.skeleton_size\"",
        "\"peak_frontier\"",
    ] {
        assert!(report.contains(key), "missing {key} in {report}");
    }
}

#[test]
fn metrics_report_is_reproducible_under_the_fake_clock() {
    let path = write_model("metrics_det.aadl", OK_MODEL);
    let run = |name: &str| {
        let report_path = std::env::temp_dir().join(format!("aadlsched_cli_tests/{name}"));
        let out = Command::new(env!("CARGO_BIN_EXE_aadlsched"))
            .args([
                path.to_str().unwrap(),
                "Top.impl",
                "--exhaustive",
                "--metrics",
                report_path.to_str().unwrap(),
            ])
            .env("AADLSCHED_FAKE_CLOCK", "1000")
            .output()
            .expect("aadlsched runs");
        assert!(out.status.success(), "{out:?}");
        std::fs::read_to_string(&report_path).unwrap()
    };
    let first = run("det1.json");
    let second = run("det2.json");
    assert_eq!(first, second, "fake-clock reports must be byte-identical");
    // The run id hashes the inputs, not the clock — stable across runs.
    assert!(first.contains("\"run_id\""));
}

#[test]
fn trace_events_flag_writes_json_lines() {
    let path = write_model("trace.aadl", OK_MODEL);
    let trace_path = std::env::temp_dir().join("aadlsched_cli_tests/trace.jsonl");
    let _ = std::fs::remove_file(&trace_path);
    let out = aadlsched(&[
        path.to_str().unwrap(),
        "Top.impl",
        "--exhaustive",
        "--trace-events",
        trace_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let stream = std::fs::read_to_string(&trace_path).unwrap();
    assert!(stream.lines().count() > 2, "{stream}");
    for line in stream.lines() {
        assert!(line.starts_with("{\"type\":\"span\"") || line.starts_with("{\"type\":\"event\""));
    }
    assert!(stream.contains("\"name\":\"verdict\""), "{stream}");
}

#[test]
fn progress_flag_emits_deterministic_stderr_lines() {
    // The cruise-control exhaustive exploration reaches 224 zone-graph
    // states; with doubling thresholds from 64 that is exactly the 64 and
    // 128 crossings (the second report lands at 130 states, where the
    // bucket that crossed 128 ends).
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/models/cruise_control.aadl"
    );
    let out = aadlsched(&[path, "--exhaustive", "--progress"]);
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let lines: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("progress: "))
        .collect();
    assert_eq!(lines.len(), 2, "{stderr}");
    assert!(lines[0].starts_with("progress: 64 states"), "{stderr}");
    assert!(lines[1].starts_with("progress: 130 states"), "{stderr}");
}

#[test]
fn protocol_flag_switches_the_inversion_verdict() {
    // The bundled inversion model misses under its declared None_Specified
    // protocol; --protocol swaps in PCP or PIP without editing the model.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/models/inversion.aadl");
    let none = aadlsched(&[path]);
    assert_eq!(none.status.code(), Some(1), "{none:?}");
    let stdout = String::from_utf8_lossy(&none.stdout);
    assert!(stdout.contains("blocked on `shared`"), "{stdout}");

    for flag in ["pcp", "pip", "Priority_Ceiling"] {
        let out = aadlsched(&[path, "--protocol", flag]);
        assert!(out.status.success(), "--protocol {flag}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("forced by --protocol"), "{stdout}");
        assert!(stdout.contains("VERDICT: schedulable"), "{stdout}");
    }
}

#[test]
fn bad_protocol_value_exits_two_with_usage() {
    let path = write_model("ok_proto.aadl", OK_MODEL);
    let out = aadlsched(&[path.to_str().unwrap(), "Top.impl", "--protocol", "fifo"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown protocol `fifo`"), "{stderr}");
}

#[test]
fn validation_failure_names_the_property_and_its_source_span() {
    let path = write_model("bad_cs.aadl", BAD_CS_MODEL);
    let out = aadlsched(&[path.to_str().unwrap(), "Top.impl"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("translation error"), "{stderr}");
    // The offending property is named, and the message points into the
    // source text: `<file>:29:<col>` — the connection property association.
    assert!(stderr.contains("Critical_Section_Execution_Time"), "{stderr}");
    assert!(stderr.contains("bad_cs.aadl:29:"), "{stderr}");
}

#[test]
fn default_engine_explores_the_longperiod_zone_graph() {
    // The bundled long-hyperperiod model (co-prime periods 17/19/23/29 ms,
    // hyperperiod 215441 quanta) is the delay-zone showcase: forced runs of
    // quanta collapse into delay edges, and the pinned zone-graph counts
    // document the 12.2× compression over the 306015-state per-quantum
    // search that EXPERIMENTS.md Q13 measures. The counts are exact — the
    // engine is deterministic, and where a forced run switches to the
    // closed form must not move them — so any drift in the engine (or in
    // the translation) shows up here.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/models/longperiod.aadl"
    );
    let report = std::env::temp_dir().join("aadlsched_cli_tests/longperiod.json");
    let out = aadlsched(&[path, "--exhaustive", "--metrics", report.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("VERDICT: schedulable"), "{stdout}");
    assert!(
        stdout.contains("exploration: 25094 states, 34416 transitions"),
        "{stdout}"
    );
    // Its long idle stretches outgrow the handoff length and are served in
    // closed form.
    let (counters, _) = zone_instruments(&report);
    assert!(counters("zone.learned_runs") >= 1);
    assert!(counters("zone.closed_form_advances") >= 1);
    assert_eq!(counters("zone.quanta_collapsed"), 577_426);
}

/// The `zone.*` counters and the `zone.shape_cache` gauge of a `--metrics`
/// report, as lookup closures (absent instruments read as 0).
fn zone_instruments(report: &std::path::Path) -> (impl Fn(&str) -> u64, impl Fn(&str) -> u64) {
    let text = std::fs::read_to_string(report).unwrap();
    let json = obs::Json::parse(&text).unwrap();
    let counters = json.get("counters").cloned();
    let gauges = json.get("gauges").cloned();
    (
        move |name: &str| {
            counters
                .as_ref()
                .and_then(|c| c.get(name))
                .and_then(obs::Json::as_u64)
                .unwrap_or(0)
        },
        move |name: &str| {
            gauges
                .as_ref()
                .and_then(|g| g.get(name))
                .and_then(|g| g.get("peak"))
                .and_then(obs::Json::as_u64)
                .unwrap_or(0)
        },
    )
}

#[test]
fn small_bundled_models_never_learn_a_shape() {
    // Learning is lazy: a forced run reaches the closed-form runner only
    // once the exploration has walked `versa::LEARN_AFTER_VOLUME` steps of
    // long runs and the run itself is longer than `versa::LEARN_AFTER`.
    // None of the small models walks that much, so none hands a run off
    // and the shape cache stays empty.
    for model in [
        "cruise_control",
        "flight_control",
        "inversion",
        "overloaded",
        "producer_handler",
    ] {
        let path = format!(
            "{}/examples/models/{model}.aadl",
            env!("CARGO_MANIFEST_DIR")
        );
        let report = std::env::temp_dir().join(format!("aadlsched_cli_tests/lazy_{model}.json"));
        let out = aadlsched(&[&path, "--exhaustive", "--metrics", report.to_str().unwrap()]);
        assert!(matches!(out.status.code(), Some(0 | 1)), "{model}: {out:?}");
        let (counters, gauges) = zone_instruments(&report);
        assert!(counters("zone.delay_steps") >= 1, "{model}: no delay edge");
        assert_eq!(counters("zone.learned_runs"), 0, "{model}");
        assert_eq!(gauges("zone.shape_cache"), 0, "{model}");
    }
}

#[test]
fn zone_cap_never_changes_the_verdict_and_removed_engine_flags_are_unknown() {
    let path = write_model("ok_zoneflags.aadl", OK_MODEL);
    let base = aadlsched(&[path.to_str().unwrap(), "Top.impl"]);
    assert!(base.status.success(), "{base:?}");
    // The unit-edge search behind `--dot` reaches the same verdict as the
    // zone graph, whatever granularity the zone graph's edges have.
    let dot = std::env::temp_dir().join("aadlsched_cli_tests/ok_zoneflags.dot");
    let per_quantum = aadlsched(&[
        path.to_str().unwrap(),
        "Top.impl",
        "--dot",
        dot.to_str().unwrap(),
    ]);
    assert!(per_quantum.status.success(), "{per_quantum:?}");
    let verdict = |out: &std::process::Output| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .find(|l| l.contains("VERDICT"))
            .unwrap()
            .to_string()
    };
    assert_eq!(verdict(&base), verdict(&per_quantum));
    // The memo is always on, the visited set is one map, the zone engine
    // always runs on one thread and always advances in closed form with one
    // edge cap: the old knobs are gone.
    for removed in [
        &["--no-memo"][..],
        &["--shards", "4"][..],
        &["--zone-advance", "closed"][..],
        &["--zones"][..],
        &["--zone-cap", "3"][..],
        &["--threads", "2"][..],
    ] {
        let mut args = vec![path.to_str().unwrap(), "Top.impl"];
        args.extend_from_slice(removed);
        let out = aadlsched(&args);
        assert_eq!(out.status.code(), Some(2), "{removed:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag `{}`", removed[0])),
            "{removed:?}: {stderr}"
        );
    }
}

#[test]
fn dot_export_writes_a_file() {
    let path = write_model("ok_dot.aadl", OK_MODEL);
    let dot = std::env::temp_dir().join("aadlsched_cli_tests/ok.dot");
    let _ = std::fs::remove_file(&dot);
    let out = aadlsched(&[
        path.to_str().unwrap(),
        "Top.impl",
        "--dot",
        dot.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let contents = std::fs::read_to_string(&dot).unwrap();
    assert!(contents.starts_with("digraph lts {"), "{contents}");
}
