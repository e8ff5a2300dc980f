//! `aadlschedc` — a thin line-protocol client for `aadlschedd`.
//!
//! ```text
//! aadlschedc --addr <host:port> <command>
//!
//! commands:
//!   analyze <model.aadl> [--root <r>] [--quantum <ms>] [--protocol <p>]
//!           [--compact] [--exhaustive] [--max-states <n>] [--timeout-ms <n>]
//!       read the model, send it inline, wait for the result; the process
//!       exit code mirrors the wire `code` (0 schedulable, 1 not, 2 input
//!       error, 3 unknown)
//!   raw <json>     send one raw request line, print responses until the
//!                  terminal one (result / error / status / ...)
//!   status [job]   daemon summary, or one job's state
//!   cancel <job>   cancel a queued or running job
//!   metrics        fetch the fleet counters and gauges
//!   stats [--summary]
//!                  live snapshot of every counter, gauge and histogram
//!                  (with p50/p90/p99 quantile estimates)
//!   health [--summary]
//!                  uptime, queue depth, worker and cache occupancy
//!   flight [--summary]
//!                  dump the flight recorder (last N request events)
//!   shutdown       ask the daemon to drain and exit
//! ```
//!
//! Every response line is printed verbatim — the client never re-renders
//! JSON, so transcripts stay byte-identical to what the daemon sent. The
//! exception is `--summary`, which renders the parsed response as one
//! human-readable line instead. The exit code mirrors the wire `code` in
//! all modes: 0 for a successful introspection response, 2 on protocol
//! errors.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;

use obs::Json;

fn usage() -> ExitCode {
    eprintln!(
        "usage: aadlschedc --addr <host:port> \
         (analyze <model.aadl> [opts] | raw <json> | status [job] | \
         cancel <job> | metrics | stats [--summary] | health [--summary] | \
         flight [--summary] | shutdown)"
    );
    ExitCode::from(2)
}

/// Every response terminates the exchange except `accepted`, which is
/// always followed by a `result` for the same request.
fn is_terminal(v: &Json) -> bool {
    !matches!(v.get("type").and_then(Json::as_str), Some("accepted"))
}

/// Run one request/response exchange. Responses stream to stdout as they
/// arrive unless `print` is false (`--summary` renders the terminal
/// response itself). Returns the wire code and the terminal response line.
fn exchange(addr: &str, line: &str, print: bool) -> Result<(u8, String), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    writer
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let reader = BufReader::new(stream);
    let mut code: u8 = 0;
    for resp in reader.lines() {
        let resp = resp.map_err(|e| format!("recv: {e}"))?;
        if print {
            println!("{resp}");
        }
        let v = Json::parse(&resp).map_err(|e| format!("bad response JSON: {e}"))?;
        if let Some(c) = v.get("code").and_then(Json::as_u64) {
            code = c as u8;
        }
        if is_terminal(&v) {
            return Ok((code, resp));
        }
    }
    Err("connection closed before a terminal response".into())
}

/// One-line human rendering of an introspection response (`--summary`).
/// `None` for anything else (e.g. an `error` response), which is then
/// printed verbatim.
fn summarize(v: &Json) -> Option<String> {
    let uint = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
    match v.get("type").and_then(Json::as_str)? {
        "stats" => {
            let section = |k: &str| match v.get(k) {
                Some(Json::Obj(pairs)) => pairs.len(),
                _ => 0,
            };
            let requests = v
                .get("counters")
                .and_then(|c| c.get("served.requests"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            let wall = v.get("histograms").and_then(|h| h.get("served.request_wall"));
            let q = |name: &str| {
                wall.and_then(|w| w.get(name))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            };
            Some(format!(
                "stats: {} counters, {} gauges, {} histograms; requests={requests}; \
                 request_wall p50={} p90={} p99={} ns",
                section("counters"),
                section("gauges"),
                section("histograms"),
                q("p50"),
                q("p90"),
                q("p99"),
            ))
        }
        "health" => Some(format!(
            "health: up {} ms, queue {}, running {}/{} workers, {} connections, \
             cache {}/{}, draining={}",
            uint("uptime_ns") / 1_000_000,
            uint("queue_depth"),
            uint("jobs_running"),
            uint("workers"),
            uint("connections"),
            uint("cache_entries"),
            uint("cache_capacity"),
            v.get("draining").and_then(Json::as_bool).unwrap_or(false),
        )),
        "flight" => {
            let events = match v.get("events") {
                Some(Json::Arr(items)) => items.len(),
                _ => 0,
            };
            Some(format!(
                "flight: {events} events in window (capacity {}, {} recorded)",
                uint("capacity"),
                uint("recorded"),
            ))
        }
        _ => None,
    }
}

fn analyze_request(mut raw: std::env::Args) -> Result<String, String> {
    let file = raw.next().ok_or("analyze needs <model.aadl>")?;
    let model = std::fs::read_to_string(&file).map_err(|e| format!("cannot read `{file}`: {e}"))?;
    let mut opts: Vec<(String, Json)> = Vec::new();
    while let Some(flag) = raw.next() {
        let mut val = |what: &str| raw.next().ok_or(format!("{what} needs a value"));
        match flag.as_str() {
            "--root" => opts.push(("root".into(), Json::from(val("--root")?))),
            "--quantum" => opts.push((
                "quantum_ms".into(),
                Json::Int(
                    val("--quantum")?
                        .parse()
                        .map_err(|e| format!("--quantum: {e}"))?,
                ),
            )),
            "--protocol" => opts.push(("protocol".into(), Json::from(val("--protocol")?))),
            "--compact" => opts.push(("compact".into(), Json::Bool(true))),
            "--exhaustive" => opts.push(("exhaustive".into(), Json::Bool(true))),
            "--max-states" => opts.push((
                "max_states".into(),
                Json::UInt(
                    val("--max-states")?
                        .parse()
                        .map_err(|e| format!("--max-states: {e}"))?,
                ),
            )),
            "--timeout-ms" => opts.push((
                "timeout_ms".into(),
                Json::UInt(
                    val("--timeout-ms")?
                        .parse()
                        .map_err(|e| format!("--timeout-ms: {e}"))?,
                ),
            )),
            other => return Err(format!("unknown analyze flag `{other}`")),
        }
    }
    let mut pairs = vec![
        ("type", Json::from("analyze")),
        ("id", Json::from("c1")),
        ("model", Json::from(model)),
    ];
    if !opts.is_empty() {
        pairs.push(("options", Json::Obj(opts)));
    }
    Ok(Json::obj(pairs).to_compact())
}

fn main() -> ExitCode {
    let mut raw = std::env::args();
    raw.next();
    let addr = match (raw.next().as_deref(), raw.next()) {
        (Some("--addr"), Some(addr)) => addr,
        _ => return usage(),
    };
    let Some(cmd) = raw.next() else {
        return usage();
    };
    let mut summary = false;
    let built = match cmd.as_str() {
        "analyze" => analyze_request(raw),
        "raw" => match raw.next() {
            Some(line) => Ok(line),
            None => Err("raw needs a JSON line".into()),
        },
        "status" => {
            let mut pairs = vec![("type", Json::from("status")), ("id", Json::from("c1"))];
            if let Some(job) = raw.next() {
                pairs.push(("job", Json::from(job)));
            }
            Ok(Json::obj(pairs).to_compact())
        }
        "cancel" => match raw.next() {
            Some(job) => Ok(Json::obj([
                ("type", Json::from("cancel")),
                ("id", Json::from("c1")),
                ("job", Json::from(job)),
            ])
            .to_compact()),
            None => Err("cancel needs a job digest".into()),
        },
        "metrics" => Ok(
            Json::obj([("type", Json::from("metrics")), ("id", Json::from("c1"))]).to_compact(),
        ),
        "stats" | "health" | "flight" => loop {
            match raw.next().as_deref() {
                None => {
                    break Ok(Json::obj([
                        ("type", Json::from(cmd.as_str())),
                        ("id", Json::from("c1")),
                    ])
                    .to_compact())
                }
                Some("--summary") => summary = true,
                Some(other) => break Err(format!("unknown {cmd} flag `{other}`")),
            }
        },
        "shutdown" => Ok(
            Json::obj([("type", Json::from("shutdown")), ("id", Json::from("c1"))]).to_compact(),
        ),
        other => Err(format!("unknown command `{other}`")),
    };
    let line = match built {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    match exchange(&addr, &line, !summary) {
        Ok((code, last)) => {
            if summary {
                match Json::parse(&last).ok().as_ref().and_then(summarize) {
                    Some(one_liner) => println!("{one_liner}"),
                    // e.g. an `error` response — fall back to the raw line.
                    None => println!("{last}"),
                }
            }
            ExitCode::from(code)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
