//! End-to-end tests of `aadlschedd`: a real daemon process on an ephemeral
//! port, driven by raw line-protocol clients — concurrent connections,
//! duplicate coalescing, cancellation, deterministic timeouts, cache hits,
//! fleet metrics, byte-stable responses under the fake clock, and flat
//! memory over a thousand distinct models.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

/// A model whose exhaustive state space takes seconds to explore (three
/// rate-monotonic threads with wide execution-time ranges → heavy
/// branching): the deterministic "slow job" that keeps the single worker
/// busy while coalescing and cancellation are exercised. It is always
/// cancelled, so the tests never pay the full exploration.
const SLOW_MODEL: &str = r#"package Slow
public
  processor cpu
    properties
      Scheduling_Protocol => RMS;
  end cpu;
  thread A
    properties
      Dispatch_Protocol => Periodic;
      Period => 200 ms;
      Compute_Execution_Time => 1 ms .. 60 ms;
      Compute_Deadline => 200 ms;
  end A;
  thread B
    properties
      Dispatch_Protocol => Periodic;
      Period => 100 ms;
      Compute_Execution_Time => 1 ms .. 30 ms;
      Compute_Deadline => 100 ms;
  end B;
  thread C
    properties
      Dispatch_Protocol => Periodic;
      Period => 50 ms;
      Compute_Execution_Time => 1 ms .. 20 ms;
      Compute_Deadline => 50 ms;
  end C;
  process proc
  end proc;
  process implementation proc.impl
    subcomponents
      a: thread A;
      b: thread B;
      c: thread C;
  end proc.impl;
  system top
  end top;
  system implementation top.impl
    subcomponents
      p: process proc.impl;
      cpu0: processor cpu;
    properties
      Actual_Processor_Binding => reference (cpu0) applies to p.a;
      Actual_Processor_Binding => reference (cpu0) applies to p.b;
      Actual_Processor_Binding => reference (cpu0) applies to p.c;
  end top.impl;
end Slow;
"#;

fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

fn model_path(name: &str) -> String {
    repo_root()
        .join("examples/models")
        .join(name)
        .to_str()
        .unwrap()
        .to_string()
}

struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(args: &[&str], fake_clock: Option<&str>) -> Daemon {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_aadlschedd"));
        cmd.args(args)
            .current_dir(repo_root())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        match fake_clock {
            Some(tick) => cmd.env("AADLSCHED_FAKE_CLOCK", tick),
            None => cmd.env_remove("AADLSCHED_FAKE_CLOCK"),
        };
        let mut child = cmd.spawn().expect("spawn aadlschedd");
        let stdout = child.stdout.take().expect("daemon stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("readiness line");
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .expect("address in readiness line")
            .to_string();
        assert!(
            line.starts_with("aadlschedd listening on "),
            "unexpected readiness line: {line:?}"
        );
        Daemon { child, addr }
    }

    fn connect(&self) -> Conn {
        let stream = TcpStream::connect(&self.addr).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Conn {
            writer: stream,
            reader,
        }
    }

    /// Graceful shutdown; asserts the daemon process exits 0.
    fn shutdown(mut self) {
        let mut conn = self.connect();
        conn.send(r#"{"type":"shutdown","id":"bye"}"#);
        assert_eq!(
            conn.recv(),
            r#"{"type":"shutting-down","id":"bye"}"#,
            "shutdown acknowledgement"
        );
        let status = self.child.wait().expect("wait for daemon");
        assert!(status.success(), "daemon exit status: {status:?}");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn send(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        assert!(!line.is_empty(), "connection closed while expecting a line");
        line.trim_end().to_string()
    }
}

fn field<'a>(line: &'a str, key: &str) -> String {
    // Tiny field extractor for test assertions; the values we need are
    // strings/bools/ints without nested quotes.
    let needle = format!("\"{key}\":");
    let at = line.find(&needle).unwrap_or_else(|| {
        panic!("no field `{key}` in {line}");
    }) + needle.len();
    let rest = &line[at..];
    if let Some(s) = rest.strip_prefix('"') {
        s[..s.find('"').unwrap()].to_string()
    } else {
        rest[..rest.find([',', '}']).unwrap()].to_string()
    }
}

fn analyze_file(id: &str, name: &str) -> String {
    format!(
        r#"{{"type":"analyze","id":"{id}","file":"{}"}}"#,
        model_path(name)
    )
}

#[test]
fn verdicts_match_the_cli_contract_and_duplicates_hit_the_cache() {
    let daemon = Daemon::start(&["--workers", "2"], None);
    let mut conn = daemon.connect();
    // The four bundled models and their CLI exit codes.
    let expected = [
        ("cruise_control.aadl", "schedulable", "0"),
        ("flight_control.aadl", "schedulable", "0"),
        ("inversion.aadl", "unschedulable", "1"),
        ("overloaded.aadl", "unschedulable", "1"),
    ];
    let mut first_result = String::new();
    for (i, (model, verdict, code)) in expected.iter().enumerate() {
        let id = format!("m{i}");
        conn.send(&analyze_file(&id, model));
        let accepted = conn.recv();
        assert_eq!(field(&accepted, "type"), "accepted");
        assert_eq!(field(&accepted, "coalesced"), "false");
        let result = conn.recv();
        assert_eq!(field(&result, "id"), id);
        assert_eq!(field(&result, "verdict"), *verdict, "{model}: {result}");
        assert_eq!(field(&result, "code"), *code, "{model}: {result}");
        assert_eq!(field(&result, "cached"), "false");
        if i == 0 {
            first_result = result;
        }
    }
    // The identical request again: a result-cache hit, byte-identical to
    // the first result apart from the cached flag.
    conn.send(&analyze_file("m0", "cruise_control.aadl"));
    let accepted = conn.recv();
    assert_eq!(field(&accepted, "coalesced"), "false");
    let cached = conn.recv();
    assert_eq!(field(&cached, "cached"), "true");
    assert_eq!(
        cached.replace("\"cached\":true", "\"cached\":false"),
        first_result,
        "cached result must be byte-identical apart from the cached flag"
    );
    // The warm-store/dedup hit is visible in the fleet metrics.
    conn.send(r#"{"type":"metrics","id":"m"}"#);
    let metrics = conn.recv();
    assert_eq!(field(&metrics, "served.cache_hits"), "1", "{metrics}");
    assert_eq!(field(&metrics, "served.results"), "4", "{metrics}");
    daemon.shutdown();
}

#[test]
fn concurrent_clients_coalesce_cancel_and_time_out() {
    // One worker, so job order is deterministic: the slow job occupies the
    // worker while everything else queues behind it.
    let daemon = Daemon::start(&["--workers", "1"], None);
    let mut a = daemon.connect();
    let mut b = daemon.connect();

    // Client A: the slow job (inline), then a fast one queued behind it.
    let slow_req = obs::Json::obj([
        ("type", obs::Json::from("analyze")),
        ("id", obs::Json::from("a-slow")),
        ("model", obs::Json::from(SLOW_MODEL)),
        (
            "options",
            obs::Json::obj([("exhaustive", obs::Json::Bool(true))]),
        ),
    ])
    .to_compact();
    a.send(&slow_req);
    let slow_acc = a.recv();
    assert_eq!(field(&slow_acc, "coalesced"), "false");
    let slow_job = field(&slow_acc, "job");

    a.send(&analyze_file("a-inv", "inversion.aadl"));
    let inv_acc = a.recv();
    assert_eq!(field(&inv_acc, "coalesced"), "false");
    let inv_job = field(&inv_acc, "job");

    // Client B: the identical inversion request must coalesce — the worker
    // is pinned on the slow job, so the duplicate finds the queued entry.
    b.send(&analyze_file("b-inv", "inversion.aadl"));
    let dup_acc = b.recv();
    assert_eq!(field(&dup_acc, "coalesced"), "true", "{dup_acc}");
    assert_eq!(field(&dup_acc, "job"), inv_job);

    // Client B cancels the slow job (observed queued or running, depending
    // on whether the worker has popped it yet).
    b.send(&format!(
        r#"{{"type":"cancel","id":"b-cancel","job":"{slow_job}"}}"#
    ));
    let cancelled = b.recv();
    assert_eq!(field(&cancelled, "type"), "cancelled");
    let was = field(&cancelled, "was");
    assert!(was == "running" || was == "queued", "was: {was}");

    // Client A now receives the slow job's cancelled result, then the
    // inversion verdict; client B receives the same verdict under its id.
    let slow_res = a.recv();
    assert_eq!(field(&slow_res, "id"), "a-slow");
    assert_eq!(field(&slow_res, "verdict"), "unknown");
    assert_eq!(field(&slow_res, "reason"), "cancelled");
    assert_eq!(field(&slow_res, "code"), "3");
    let a_inv = a.recv();
    assert_eq!(field(&a_inv, "id"), "a-inv");
    assert_eq!(field(&a_inv, "verdict"), "unschedulable");
    let b_inv = b.recv();
    assert_eq!(field(&b_inv, "id"), "b-inv");
    assert_eq!(field(&b_inv, "verdict"), "unschedulable");
    assert_eq!(field(&b_inv, "job"), inv_job);

    // Deterministic timeout: `timeout_ms: 0` expires before the worker
    // starts, so the result is a typed unknown without any clock races.
    b.send(
        r#"{"type":"analyze","id":"b-slow2","model":"package P end P;","options":{"timeout_ms":0}}"#,
    );
    let t_acc = b.recv();
    assert_eq!(field(&t_acc, "type"), "accepted");
    let t_res = b.recv();
    assert_eq!(field(&t_res, "verdict"), "unknown");
    assert_eq!(field(&t_res, "reason"), "timeout");
    assert_eq!(field(&t_res, "code"), "3");

    // Malformed requests are protocol errors; the id is echoed when one
    // can still be extracted.
    b.send("this is not json");
    let err = b.recv();
    assert_eq!(field(&err, "type"), "error");
    assert_eq!(field(&err, "code"), "2");
    b.send(r#"{"type":"explode","id":"b-bad"}"#);
    let err = b.recv();
    assert_eq!(field(&err, "id"), "b-bad");

    // Fleet metrics saw all of it.
    b.send(r#"{"type":"metrics","id":"b-m"}"#);
    let metrics = b.recv();
    assert_eq!(field(&metrics, "served.coalesced"), "1", "{metrics}");
    assert_eq!(field(&metrics, "served.cancelled"), "1", "{metrics}");
    assert_eq!(field(&metrics, "served.timeouts"), "1", "{metrics}");
    assert_eq!(field(&metrics, "served.errors"), "2", "{metrics}");
    daemon.shutdown();
}

#[test]
fn hostile_input_is_rejected_not_fatal() {
    let daemon = Daemon::start(&["--workers", "1"], None);

    // Deeply nested JSON: the recursive-descent parser must answer with a
    // protocol error instead of blowing the connection thread's stack — a
    // stack overflow aborts the whole daemon process.
    let mut a = daemon.connect();
    a.send(&"[".repeat(100_000));
    let err = a.recv();
    assert_eq!(field(&err, "type"), "error");
    assert_eq!(field(&err, "code"), "2");

    // A giant line with no newline: rejected at the framing cap with a
    // protocol error, then the daemon hangs up — it must not buffer an
    // endless stream into memory. (Exactly cap+1 bytes, so the daemon's
    // close is a clean FIN and the error response is reliably readable.)
    let mut b = daemon.connect();
    b.writer
        .write_all(&vec![b'x'; 4 * 1024 * 1024 + 1])
        .expect("send oversized blob");
    let err = b.recv();
    assert_eq!(field(&err, "type"), "error");
    assert!(err.contains("request line too long"), "{err}");
    let mut end = String::new();
    b.reader.read_line(&mut end).expect("read after error");
    assert!(end.is_empty(), "daemon must close the oversized connection");

    // The daemon is still fully alive for well-behaved clients.
    let mut c = daemon.connect();
    c.send(&analyze_file("ok", "cruise_control.aadl"));
    assert_eq!(field(&c.recv(), "type"), "accepted");
    assert_eq!(field(&c.recv(), "verdict"), "schedulable");
    daemon.shutdown();
}

#[test]
fn responses_are_byte_stable_under_the_fake_clock() {
    let transcript = |run: usize| {
        let daemon = Daemon::start(&["--workers", "1"], Some("1000"));
        let mut conn = daemon.connect();
        let mut lines = Vec::new();
        conn.send(&analyze_file("r1", "overloaded.aadl"));
        lines.push(conn.recv());
        lines.push(conn.recv());
        conn.send(
            r#"{"type":"analyze","id":"r2","model":"package P end P;","options":{"timeout_ms":0}}"#,
        );
        lines.push(conn.recv());
        lines.push(conn.recv());
        daemon.shutdown();
        (run, lines)
    };
    let (_, first) = transcript(1);
    let (_, second) = transcript(2);
    assert_eq!(first, second, "two fake-clock runs must render the same bytes");
    assert_eq!(field(&first[1], "verdict"), "unschedulable");
    assert_eq!(field(&first[1], "at_quantum"), "5");
    assert_eq!(field(&first[3], "reason"), "timeout");
}

/// Send one introspection request and return the response line.
fn introspect(conn: &mut Conn, kind: &str, id: &str) -> String {
    conn.send(&format!(r#"{{"type":"{kind}","id":"{id}"}}"#));
    conn.recv()
}

fn parse_json(line: &str) -> obs::Json {
    obs::Json::parse(line).unwrap_or_else(|e| panic!("bad JSON `{line}`: {e}"))
}

fn uint_at<'a>(v: &obs::Json, path: &[&str]) -> u64 {
    let mut cur = v;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("no `{key}` in {}", v.to_compact()));
    }
    cur.as_u64()
        .unwrap_or_else(|| panic!("`{path:?}` is not a uint in {}", v.to_compact()))
}

#[test]
fn introspection_is_live_and_stats_snapshots_are_byte_identical() {
    let daemon = Daemon::start(&["--workers", "1"], Some("1000"));
    let mut conn = daemon.connect();

    // Health before any traffic.
    let health = parse_json(&introspect(&mut conn, "health", "h0"));
    assert_eq!(uint_at(&health, &["queue_depth"]), 0);
    assert_eq!(uint_at(&health, &["workers"]), 1);
    assert_eq!(uint_at(&health, &["jobs_running"]), 0);
    assert_eq!(uint_at(&health, &["cache_entries"]), 0);
    assert_eq!(health.get("draining"), Some(&obs::Json::Bool(false)));

    // Two consecutive snapshots with no traffic in between: byte-identical.
    // Introspection is excluded from `served.requests`, reads no clock and
    // mutates nothing, so polling the instruments never perturbs them.
    let quiet_a = introspect(&mut conn, "stats", "s");
    let quiet_b = introspect(&mut conn, "stats", "s");
    assert_eq!(quiet_a, quiet_b, "stats must not perturb itself");
    assert_eq!(
        uint_at(&parse_json(&quiet_a), &["counters", "served.requests"]),
        0,
        "introspection must not count as a request"
    );

    // Four real analyses through the single worker.
    for (i, model) in [
        "cruise_control.aadl",
        "flight_control.aadl",
        "inversion.aadl",
        "overloaded.aadl",
    ]
    .iter()
    .enumerate()
    {
        conn.send(&analyze_file(&format!("m{i}"), model));
        assert_eq!(field(&conn.recv(), "type"), "accepted");
        assert_eq!(field(&conn.recv(), "type"), "result");
    }
    // The worker observes the serialize stage just *after* writing the
    // result line, so poll until its bookkeeping for the 4th request has
    // landed before asserting on the snapshot.
    let mut snap = String::new();
    for _ in 0..200 {
        snap = introspect(&mut conn, "stats", "s");
        if uint_at(&parse_json(&snap), &["histograms", "served.serialize", "count"]) >= 4 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let stats = parse_json(&snap);
    assert_eq!(uint_at(&stats, &["counters", "served.requests"]), 4);
    assert_eq!(uint_at(&stats, &["counters", "served.results"]), 4);
    // Per-stage histograms are present and non-empty after the smoke run.
    for stage in [
        "served.queue_wait",
        "served.exec",
        "served.serialize",
        "served.request_wall",
    ] {
        assert_eq!(
            uint_at(&stats, &["histograms", stage, "count"]),
            4,
            "{stage} in {snap}"
        );
    }
    // Quantile estimates are monotone on every histogram in the snapshot.
    match stats.get("histograms") {
        Some(obs::Json::Obj(hists)) => {
            assert!(!hists.is_empty());
            for (name, h) in hists {
                let (p50, p90, p99, max) = (
                    uint_at(h, &["p50"]),
                    uint_at(h, &["p90"]),
                    uint_at(h, &["p99"]),
                    uint_at(h, &["max"]),
                );
                assert!(
                    p50 <= p90 && p90 <= p99 && p99 <= max,
                    "{name}: p50={p50} p90={p90} p99={p99} max={max}"
                );
            }
        }
        other => panic!("histograms section missing: {other:?}"),
    }
    // Byte-identity again, now with warm instruments.
    assert_eq!(snap, introspect(&mut conn, "stats", "s"));

    // Health reflects the populated result cache.
    let health = parse_json(&introspect(&mut conn, "health", "h1"));
    assert_eq!(uint_at(&health, &["cache_entries"]), 4);
    daemon.shutdown();
}

#[test]
fn timed_out_requests_land_in_the_flight_recorder() {
    let daemon = Daemon::start(&["--workers", "1"], Some("1000"));
    let mut conn = daemon.connect();
    conn.send(
        r#"{"type":"analyze","id":"t1","model":"package P end P;","options":{"timeout_ms":0}}"#,
    );
    assert_eq!(field(&conn.recv(), "type"), "accepted");
    let res = conn.recv();
    assert_eq!(field(&res, "reason"), "timeout");
    // The flight event is recorded just after the result line is written;
    // poll until it lands.
    let mut line = String::new();
    for _ in 0..200 {
        line = introspect(&mut conn, "flight", "f");
        if uint_at(&parse_json(&line), &["recorded"]) >= 1 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let flight = parse_json(&line);
    assert_eq!(field(&line, "type"), "flight");
    assert!(uint_at(&flight, &["capacity"]) >= 1);
    let events = match flight.get("events") {
        Some(obs::Json::Arr(events)) => events,
        other => panic!("no events array: {other:?}"),
    };
    assert_eq!(events.len(), 1, "{line}");
    let ev = &events[0];
    assert_eq!(ev.get("id"), Some(&obs::Json::from("t1")));
    assert_eq!(ev.get("outcome"), Some(&obs::Json::from("timeout")));
    assert_eq!(uint_at(ev, &["code"]), 3);
    assert_eq!(uint_at(ev, &["req"]), 1);
    // The job timed out before execution: stage timings cover the queue
    // wait and the serialize window but there is no exec stage.
    for stage in ["parse", "dispatch", "queue_wait", "serialize"] {
        assert!(
            ev.get("stages").and_then(|s| s.get(stage)).is_some(),
            "missing stage `{stage}` in {line}"
        );
    }
    assert!(ev.get("stages").and_then(|s| s.get("exec")).is_none());
    daemon.shutdown();
}

#[test]
fn span_tree_stages_account_for_the_root_duration_exactly() {
    let metrics = std::env::temp_dir().join(format!("aadlschedd-trace-{}.json", std::process::id()));
    let metrics_str = metrics.to_str().unwrap().to_string();
    let daemon = Daemon::start(&["--workers", "1", "--metrics", &metrics_str], Some("1000"));
    let mut conn = daemon.connect();
    conn.send(&analyze_file("r1", "cruise_control.aadl"));
    assert_eq!(field(&conn.recv(), "type"), "accepted");
    assert_eq!(field(&conn.recv(), "verdict"), "schedulable");
    daemon.shutdown(); // joins the workers, then writes the report
    let report = parse_json(&std::fs::read_to_string(&metrics).expect("fleet report"));
    std::fs::remove_file(&metrics).ok();

    let spans = match report.get("spans") {
        Some(obs::Json::Arr(spans)) => spans,
        other => panic!("no spans in report: {other:?}"),
    };
    let by_name = |name: &str| {
        spans
            .iter()
            .find(|s| s.get("name") == Some(&obs::Json::from(name)))
            .unwrap_or_else(|| panic!("no span `{name}`"))
    };
    // One request → one `served.request` root whose per-stage children plus
    // the recorded slack account for its duration *exactly* (the stamps all
    // come from one clock and the slack is derived, not measured).
    let root = by_name("served.request");
    assert!(root.get("parent") == Some(&obs::Json::Null));
    assert_eq!(uint_at(root, &["fields", "req"]), 1);
    assert_eq!(uint_at(root, &["fields", "code"]), 0);
    let root_id = uint_at(root, &["id"]);
    let stage_sum: u64 = spans
        .iter()
        .filter(|s| {
            s.get("parent") == Some(&obs::Json::UInt(root_id))
                && matches!(
                    s.get("name").and_then(obs::Json::as_str),
                    Some(
                        "served.parse"
                            | "served.dispatch"
                            | "served.queue_wait"
                            | "served.exec"
                            | "served.serialize"
                    )
                )
        })
        .map(|s| uint_at(s, &["duration_ns"]))
        .sum();
    assert!(stage_sum > 0);
    assert_eq!(
        stage_sum + uint_at(root, &["fields", "slack_ns"]),
        uint_at(root, &["duration_ns"]),
        "stages + slack must equal the root duration: {}",
        report.to_compact()
    );
    // The engine's own spans nest under `served.exec` and carry the tag.
    let exec_id = uint_at(by_name("served.exec"), &["id"]);
    for engine in ["translate", "explore"] {
        let s = by_name(engine);
        assert_eq!(uint_at(s, &["parent"]), exec_id, "{engine}");
        assert_eq!(uint_at(s, &["fields", "req"]), 1, "{engine}");
    }
    // The flight window drained into the shutdown report.
    assert_eq!(uint_at(&report, &["flight", "recorded"]), 1);
    let ev = match report.get("flight").and_then(|f| f.get("events")) {
        Some(obs::Json::Arr(events)) => &events[0],
        other => panic!("no flight events: {other:?}"),
    };
    assert_eq!(ev.get("outcome"), Some(&obs::Json::from("schedulable")));
}

#[test]
fn run_ids_replay_under_the_fake_clock_and_differ_under_the_real_clock() {
    let run_id = |fake: Option<&str>| {
        let daemon = Daemon::start(&["--workers", "1"], fake);
        let mut conn = daemon.connect();
        let id = field(&introspect(&mut conn, "stats", "s"), "run_id");
        daemon.shutdown();
        id
    };
    // Fixed salt under the fake clock: replays yield the same run id.
    assert_eq!(run_id(Some("1000")), run_id(Some("1000")));
    // Under the real clock the daemon start time is folded in, so two
    // daemon processes are distinguishable in archived reports.
    assert_ne!(run_id(None), run_id(None));
}

#[test]
fn aadlschedc_covers_the_introspection_commands() {
    let daemon = Daemon::start(&["--workers", "1"], Some("1000"));
    let client = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_aadlschedc"))
            .arg("--addr")
            .arg(&daemon.addr)
            .args(args)
            .output()
            .expect("run aadlschedc");
        (
            out.status.code().expect("exit code"),
            String::from_utf8(out.stdout).expect("utf8 stdout"),
        )
    };
    let (code, out) = client(&["stats"]);
    assert_eq!(code, 0);
    assert_eq!(field(out.trim(), "type"), "stats");
    let (code, out) = client(&["health"]);
    assert_eq!(code, 0);
    assert_eq!(field(out.trim(), "type"), "health");
    let (code, out) = client(&["flight"]);
    assert_eq!(code, 0);
    assert_eq!(field(out.trim(), "type"), "flight");
    // `--summary` renders one human-readable line instead of raw JSON.
    let (code, out) = client(&["health", "--summary"]);
    assert_eq!(code, 0);
    assert!(out.starts_with("health: up "), "{out}");
    assert_eq!(out.lines().count(), 1);
    let (code, out) = client(&["stats", "--summary"]);
    assert_eq!(code, 0);
    assert!(out.starts_with("stats: "), "{out}");
    // Usage errors keep the protocol-error exit code.
    let (code, _) = client(&["stats", "--bogus"]);
    assert_eq!(code, 2);
    daemon.shutdown();
}

#[test]
fn artifact_store_boot_warms_the_cache_across_restarts() {
    let dir = std::env::temp_dir().join(format!("aadlschedd-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.to_str().unwrap().to_string();

    // First life: one verdict computed cold, then a graceful drain
    // persists the result cache into the store.
    let d1 = Daemon::start(&["--workers", "1", "--store", &store], None);
    let mut c = d1.connect();
    c.send(&analyze_file("a", "cruise_control.aadl"));
    c.recv();
    let cold = c.recv();
    assert_eq!(field(&cold, "verdict"), "schedulable");
    assert_eq!(field(&cold, "cached"), "false");
    d1.shutdown();
    assert!(
        std::fs::read_dir(&dir).unwrap().count() >= 2,
        "drain must leave the exploration artifact and the cache snapshot"
    );

    // Second life: the boot-warm makes the identical request a cache hit
    // before any analysis has run in this process.
    let d2 = Daemon::start(&["--workers", "1", "--store", &store], None);
    let mut c = d2.connect();
    c.send(&analyze_file("a", "cruise_control.aadl"));
    c.recv();
    let warm = c.recv();
    assert_eq!(field(&warm, "verdict"), "schedulable");
    assert_eq!(field(&warm, "cached"), "true");
    // With a store configured, `metrics` grows the cas section.
    c.send(r#"{"type":"metrics","id":"m"}"#);
    let metrics = c.recv();
    assert!(metrics.contains("\"cas.hits\":"), "{metrics}");
    d2.shutdown();

    // Third life, read-only: hits are still served but the store gains
    // nothing — not even the drain-time snapshot.
    let entries_before = std::fs::read_dir(&dir).unwrap().count();
    let ro = format!("readonly:{store}");
    let d3 = Daemon::start(&["--workers", "1", "--store", &ro], None);
    let mut c = d3.connect();
    c.send(&analyze_file("a", "cruise_control.aadl"));
    c.recv();
    let ro_hit = c.recv();
    assert_eq!(field(&ro_hit, "cached"), "true");
    d3.shutdown();
    let entries_after = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(
        entries_before, entries_after,
        "a read-only store must not gain entries"
    );

    // A corrupt snapshot degrades to a cold boot, never a crash: garbage
    // every entry, then boot again and expect a fresh (uncached) verdict.
    for e in std::fs::read_dir(&dir).unwrap().flatten() {
        std::fs::write(e.path(), b"garbage, not a cas entry").unwrap();
    }
    let d4 = Daemon::start(&["--workers", "1", "--store", &store], None);
    let mut c = d4.connect();
    c.send(&analyze_file("a", "cruise_control.aadl"));
    c.recv();
    let fresh = c.recv();
    assert_eq!(field(&fresh, "verdict"), "schedulable");
    assert_eq!(field(&fresh, "cached"), "false");
    d4.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The soak corpus: every set of 2–3 periodic threads on one RMS processor
/// with distinct periods from {4, 5, 6, 8, 10, 12, 15, 20} ms, fixed
/// execution times of 1..=period/2 ms enumerated in order, and utilization
/// at most 1 — 4 523 distinct sets, about 15 % of them unschedulable. No
/// PRNG: the enumeration order is the corpus.
#[cfg(target_os = "linux")]
fn soak_task_sets() -> Vec<Vec<(u64, u64)>> {
    const PERIODS: [u64; 8] = [4, 5, 6, 8, 10, 12, 15, 20];
    // 120 ms is the least common multiple of every period above, so the
    // utilization test is exact in integers.
    const HYPER: u64 = 120;
    fn extend(sets: &mut Vec<Vec<(u64, u64)>>, set: &mut Vec<(u64, u64)>, from: usize, n: usize) {
        if set.len() == n {
            if set.iter().map(|&(p, c)| c * (HYPER / p)).sum::<u64>() <= HYPER {
                sets.push(set.clone());
            }
            return;
        }
        for (i, &period) in PERIODS.iter().enumerate().skip(from) {
            for exec in 1..=period / 2 {
                set.push((period, exec));
                extend(sets, set, i + 1, n);
                set.pop();
            }
        }
    }
    let mut sets = Vec::new();
    for n in [2, 3] {
        extend(&mut sets, &mut Vec::new(), 0, n);
    }
    sets
}

/// One task set as an AADL package: threads `t<i>` bound to one RMS
/// processor, each with its period as its deadline.
#[cfg(target_os = "linux")]
fn task_set_source(set: &[(u64, u64)]) -> String {
    let mut threads = String::new();
    let mut subcomponents = String::new();
    let mut bindings = String::new();
    for (i, (period, exec)) in set.iter().enumerate() {
        threads.push_str(&format!(
            "  thread T{i}\n    properties\n      Dispatch_Protocol => Periodic;\n      \
             Period => {period} ms;\n      Compute_Execution_Time => {exec} ms .. {exec} ms;\n      \
             Compute_Deadline => {period} ms;\n  end T{i};\n"
        ));
        subcomponents.push_str(&format!("      t{i}: thread T{i};\n"));
        bindings.push_str(&format!(
            "      Actual_Processor_Binding => reference (cpu0) applies to p.t{i};\n"
        ));
    }
    format!(
        "package Soak\npublic\n  processor cpu\n    properties\n      Scheduling_Protocol => RMS;\n  \
         end cpu;\n{threads}  process proc\n  end proc;\n  process implementation proc.impl\n    \
         subcomponents\n{subcomponents}  end proc.impl;\n  system top\n  end top;\n  \
         system implementation top.impl\n    subcomponents\n      p: process proc.impl;\n      \
         cpu0: processor cpu;\n    properties\n{bindings}  end top.impl;\nend Soak;\n"
    )
}

/// The verdict and `stats` the in-process `aadl2acsr` pipeline gives for
/// `source` under the daemon's default options.
#[cfg(target_os = "linux")]
fn in_process(source: &str) -> (String, Vec<(&'static str, u64)>) {
    let pkg = aadl::parser::parse_package(source).expect("parse");
    let root = pkg.default_root().expect("root");
    let model = aadl::instance::instantiate(&pkg, &root).expect("instantiate");
    let tm = aadl2acsr::translate(&model, &aadl2acsr::TranslateOptions::default())
        .expect("translate");
    let outcome =
        aadl2acsr::analyze_translated(&model, &tm, &aadl2acsr::AnalysisOptions::default());
    let s = outcome.stats();
    let stats = [
        ("states", s.states),
        ("transitions", s.transitions),
        ("levels", s.levels),
        ("peak_frontier", s.peak_frontier),
        ("dedup_hits", s.dedup_hits),
        ("deadlocks", s.deadlocks),
    ];
    (
        outcome.verdict_str().to_string(),
        stats.iter().map(|&(k, v)| (k, v as u64)).collect(),
    )
}

/// Resident set size of a process in KiB, from `/proc/<pid>/status`.
#[cfg(target_os = "linux")]
fn vm_rss_kib(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("proc status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS line");
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

/// A long-lived daemon must hand each request's memory back: after a
/// warm-up of 200 requests, 800 more distinct models may not grow its
/// resident set by more than 4 MiB. Every verdict and its stats must match
/// the in-process pipeline run on the same text.
#[cfg(target_os = "linux")]
#[test]
fn a_thousand_distinct_models_keep_daemon_memory_flat() {
    const REQUESTS: usize = 1_000;
    const WARM_UP: usize = 200;
    let corpus = soak_task_sets();
    let sources: Vec<String> = (0..REQUESTS)
        .map(|i| task_set_source(&corpus[i * corpus.len() / REQUESTS]))
        .collect();
    let daemon = Daemon::start(&["--span-cap", "256"], None);
    let mut conns = [daemon.connect(), daemon.connect()];
    let mut unschedulable = 0;
    let mut rss_after_warm_up = 0;
    for (pair, chunk) in sources.chunks(2).enumerate() {
        for (k, source) in chunk.iter().enumerate() {
            let req = obs::Json::obj([
                ("type", obs::Json::from("analyze")),
                ("id", obs::Json::from(format!("s{}", 2 * pair + k))),
                ("model", obs::Json::from(source.as_str())),
            ]);
            conns[k].send(&req.to_compact());
        }
        // The daemon's two workers run the pair while this thread derives
        // the expected answers.
        let expected: Vec<_> = chunk.iter().map(|s| in_process(s)).collect();
        for (k, (verdict, stats)) in expected.iter().enumerate() {
            let id = format!("s{}", 2 * pair + k);
            assert_eq!(field(&conns[k].recv(), "type"), "accepted", "{id}");
            let line = conns[k].recv();
            let result = parse_json(&line);
            assert_eq!(field(&line, "id"), id);
            assert_eq!(field(&line, "verdict"), *verdict, "{id}: {line}");
            for (key, want) in stats {
                assert_eq!(uint_at(&result, &["stats", key]), *want, "{id} {key}: {line}");
            }
            unschedulable += usize::from(verdict == "unschedulable");
        }
        if 2 * (pair + 1) == WARM_UP {
            rss_after_warm_up = vm_rss_kib(daemon.child.id());
        }
    }
    let rss_at_end = vm_rss_kib(daemon.child.id());
    assert!(
        (100..300).contains(&unschedulable),
        "the corpus should mix verdicts: {unschedulable} unschedulable"
    );
    assert!(
        rss_at_end <= rss_after_warm_up + 4 * 1024,
        "daemon VmRSS grew from {rss_after_warm_up} KiB after request {WARM_UP} \
         to {rss_at_end} KiB after request {REQUESTS}"
    );
    daemon.shutdown();
}
