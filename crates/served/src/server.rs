//! The daemon itself: listener → bounded queue → worker pool, plus the
//! deadline reaper and the graceful-drain shutdown path.
//!
//! Layering (see DESIGN.md §14):
//!
//! * **Connection threads** (one per client) parse requests, apply the
//!   per-peer rate limit, and submit jobs. They never analyze anything.
//! * **The bounded queue** carries job *digests* only; the payload lives in
//!   the job table. A full queue rejects instead of blocking.
//! * **Workers** pop digests, run the translate→explore→diagnose pipeline
//!   with the job's cancellation token, fan the result out to every waiter,
//!   and only then free the term store the request interned into.
//! * **The reaper** fires cancellation tokens of jobs past their wall-clock
//!   deadline.
//!
//! Response ordering: a connection thread holds its write lock across a
//! whole request dispatch, so the `accepted` acknowledgement always reaches
//! the client before the worker's `result` for the same request — the
//! fan-out blocks on the same lock. The lock order is write-mutex then
//! job-table on the connection side, and job-table alone followed by
//! write-mutex on the fan-out side, so the two never deadlock.
//!
//! Observability (DESIGN.md §15): every parsed work request gets a request
//! sequence number and — unless `--no-trace` — a [`crate::trace::ReqTrace`]
//! that becomes one `served.request` span tree (stage children `parse`,
//! `dispatch`, `queue_wait`/`coalesce_wait`, `exec`, `serialize`; engine
//! spans nest under `exec` via a scoped recorder) plus one entry in the
//! [`obs::FlightRecorder`]. All trace stamps read the *recorder* clock;
//! the deadline/limiter clock is a separate instance, so reaper polling
//! never perturbs trace timestamps. The `stats`/`health`/`flight` wire
//! commands serve live introspection without counting as requests.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use aadl::instance::instantiate;
use aadl::parser::parse_package;
use aadl::properties::{ConcurrencyControlProtocol, TimeVal};
use aadl2acsr::{
    analyze_translated, translate, AnalysisOptions, TranslateError, TranslateOptions,
    TranslatedModel,
};
use obs::Json;

use crate::jobs::{JobPayload, JobTable, Submit};
use crate::limiter::RateLimiter;
use crate::persist;
use crate::queue::BoundedQueue;
use crate::trace::{outcome_str, JobMeta, ReqTrace};
use crate::wire::{self, AnalyzeOptions, JobResult, ModelSource, Request};

/// Daemon configuration (the `aadlschedd` flags).
#[derive(Clone, Debug)]
pub struct Config {
    /// Listen address; port `0` binds an ephemeral port (announced on
    /// stdout as `aadlschedd listening on <addr>`).
    pub addr: String,
    /// Worker threads running analyses (minimum 1).
    pub workers: usize,
    /// Bounded request-queue capacity; a full queue rejects new jobs.
    pub queue_capacity: usize,
    /// Per-peer rate limit in requests per second (`0` = unlimited; also
    /// the byte-deterministic mode — no clock reads on the request path).
    pub rate_limit: u64,
    /// Rate-limit burst capacity.
    pub burst: u64,
    /// Default per-request wall-clock timeout in ms (`None` = no timeout).
    pub default_timeout_ms: Option<u64>,
    /// Daemon-wide state budget every request is clamped to.
    pub max_states: usize,
    /// Completed results kept for cache hits (FIFO eviction); `0` always
    /// recomputes, and a daemon with a store then neither boot-warms the
    /// cache from it nor persists the cache on drain.
    pub cache_capacity: usize,
    /// Bounded retries when the analysis pipeline fails transiently.
    pub retries: u32,
    /// Write the end-of-life fleet metrics report to this path on shutdown.
    pub metrics_path: Option<String>,
    /// Request-scoped tracing: span trees, stage histograms and the flight
    /// recorder (`false` = `--no-trace`, the zero-overhead A/B lever of
    /// EXPERIMENTS.md Q11 — the engine then runs on a disabled recorder).
    pub trace: bool,
    /// Flight-recorder window: the last N request events kept in memory.
    pub flight_capacity: usize,
    /// Cap on the span log and on the event log; entries past it are dropped
    /// (counted in the report's `spans_dropped`/`events_dropped`) so a
    /// long-lived daemon cannot grow memory without bound. The cap is
    /// daemon-wide, not per request: the fleet report's spans are the first
    /// `span_cap` records of the daemon's life. A traced request records 8
    /// spans (9 when unschedulable, 4 on a result-cache hit) and one
    /// `verdict` event when it is analyzed.
    pub span_cap: usize,
    /// Cross-run artifact store directory (`--store`). When set, every
    /// exploration consults/deposits artifacts there, the result cache is
    /// boot-warmed from the store, and a graceful drain persists it back.
    pub store: Option<String>,
    /// Open the artifact store read-only (`--store readonly:<dir>`): hits
    /// are served but nothing is ever written, including the drain-time
    /// result-cache snapshot.
    pub store_readonly: bool,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 64,
            rate_limit: 0,
            burst: 8,
            default_timeout_ms: None,
            max_states: usize::MAX,
            cache_capacity: 128,
            retries: 1,
            metrics_path: None,
            trace: true,
            flight_capacity: 64,
            span_cap: 65_536,
            store: None,
            store_readonly: false,
        }
    }
}

impl Config {
    /// The configuration as JSON, embedded in the shutdown metrics report.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("addr", Json::from(self.addr.as_str())),
            ("workers", Json::from(self.workers)),
            ("queue_capacity", Json::from(self.queue_capacity)),
            ("rate_limit", Json::from(self.rate_limit)),
            ("burst", Json::from(self.burst)),
            (
                "default_timeout_ms",
                self.default_timeout_ms.map(Json::from).unwrap_or(Json::Null),
            ),
            (
                "max_states",
                if self.max_states == usize::MAX {
                    Json::Null
                } else {
                    Json::from(self.max_states)
                },
            ),
            ("cache_capacity", Json::from(self.cache_capacity)),
            ("retries", Json::from(u64::from(self.retries))),
            ("trace", Json::Bool(self.trace)),
            ("flight_capacity", Json::from(self.flight_capacity)),
            ("span_cap", Json::from(self.span_cap)),
            (
                "store",
                self.store
                    .as_deref()
                    .map(Json::from)
                    .unwrap_or(Json::Null),
            ),
            ("store_readonly", Json::Bool(self.store_readonly)),
        ])
    }
}

/// A waiter: the connection's serialized writer, the request id the result
/// must echo, and the request's trace state (`None` with `--no-trace`).
type Waiter = (Arc<Mutex<TcpStream>>, String, Option<ReqTrace>);

/// Fleet-level instruments, registered once so the `metrics` response can
/// render them in a fixed order.
struct Instruments {
    requests: obs::Counter,
    analyze: obs::Counter,
    results: obs::Counter,
    coalesced: obs::Counter,
    cache_hits: obs::Counter,
    rejected_rate_limit: obs::Counter,
    rejected_queue_full: obs::Counter,
    timeouts: obs::Counter,
    cancelled: obs::Counter,
    retries: obs::Counter,
    errors: obs::Counter,
    queue_depth: obs::Gauge,
    jobs_running: obs::Gauge,
    connections: obs::Gauge,
    request_wall: obs::Histogram,
    // Per-stage latency distributions (recorder clock, trace mode only).
    queue_wait: obs::Histogram,
    exec: obs::Histogram,
    serialize: obs::Histogram,
    coalesce_wait: obs::Histogram,
    cache_hit_wall: obs::Histogram,
}

impl Instruments {
    fn new(rec: &obs::Recorder) -> Instruments {
        Instruments {
            requests: rec.counter("served.requests"),
            analyze: rec.counter("served.analyze"),
            results: rec.counter("served.results"),
            coalesced: rec.counter("served.coalesced"),
            cache_hits: rec.counter("served.cache_hits"),
            rejected_rate_limit: rec.counter("served.rejected_rate_limit"),
            rejected_queue_full: rec.counter("served.rejected_queue_full"),
            timeouts: rec.counter("served.timeouts"),
            cancelled: rec.counter("served.cancelled"),
            retries: rec.counter("served.retries"),
            errors: rec.counter("served.errors"),
            queue_depth: rec.gauge("served.queue_depth"),
            jobs_running: rec.gauge("served.jobs_running"),
            connections: rec.gauge("served.connections"),
            request_wall: rec.histogram("served.request_wall"),
            queue_wait: rec.histogram("served.queue_wait"),
            exec: rec.histogram("served.exec"),
            serialize: rec.histogram("served.serialize"),
            coalesce_wait: rec.histogram("served.coalesce_wait"),
            cache_hit_wall: rec.histogram("served.cache_hit_wall"),
        }
    }
}

/// Shared daemon state: the job table, the request queue, the limiter, and
/// the fleet instruments. No term store: each request brings its own.
pub struct Daemon {
    cfg: Config,
    jobs: JobTable<Waiter>,
    queue: BoundedQueue<String>,
    limiter: RateLimiter,
    rec: obs::Recorder,
    clock: Arc<dyn obs::Clock>,
    /// The cross-run artifact store (`--store`), consulted and fed by every
    /// exploration and by the boot-warm/drain-persist of the result cache.
    /// `None` = caching stays in-process only.
    cas: Option<Arc<cas::CasStore>>,
    draining: AtomicBool,
    m: Instruments,
    /// The flight recorder: last N request events, dumped on trouble and
    /// drained into the fleet report (DESIGN.md §15).
    flight: obs::FlightRecorder,
    /// Request sequence numbers (the `req` span field), starting at 1.
    req_seq: AtomicU64,
    /// The daemon's run id: hashes the configured address plus — under the
    /// real clock only — the daemon start time, so two daemon *processes*
    /// are distinguishable in collected reports while fake-clock replays
    /// stay byte-stable.
    run_id: String,
}

impl Daemon {
    fn update_gauges(&self) {
        self.m.queue_depth.set(self.queue.len() as i64);
        self.m.jobs_running.set(self.jobs.running_count() as i64);
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Dump the flight window to stderr — called on panic-retry, timeout
    /// and queue-full, so the evidence survives even if the daemon dies
    /// before a `flight` command or the shutdown report. A no-op with
    /// `--no-trace`, whose flight window stays empty.
    fn dump_flight(&self, why: &str) {
        if !self.cfg.trace {
            return;
        }
        eprintln!(
            "aadlschedd flight recorder ({why}): {}",
            self.flight.to_json().to_compact()
        );
    }
}

/// Build the daemon clock honoring `AADLSCHED_FAKE_CLOCK` (a tick in ns per
/// reading — the same contract as the CLI). Two independent instances:
/// one `Arc` for deadlines/limiter, one boxed for the recorder.
fn build_clock() -> Result<(Arc<dyn obs::Clock>, Box<dyn obs::Clock>), String> {
    match std::env::var("AADLSCHED_FAKE_CLOCK") {
        Ok(tick) => {
            let tick: u64 = tick
                .parse()
                .map_err(|e| format!("AADLSCHED_FAKE_CLOCK must be a tick in ns: {e}"))?;
            Ok((
                Arc::new(obs::FakeClock::new(tick)),
                Box::new(obs::FakeClock::new(tick)),
            ))
        }
        Err(_) => Ok((
            Arc::new(obs::MonotonicClock::new()),
            Box::new(obs::MonotonicClock::new()),
        )),
    }
}

/// Run the daemon until a `shutdown` request drains it. Prints
/// `aadlschedd listening on <addr>` once the socket is bound — the line
/// clients and the smoke test parse for the ephemeral port.
pub fn run(cfg: Config) -> Result<(), String> {
    let (clock, rec_clock) = build_clock()?;
    let rec = obs::Recorder::with_clock(rec_clock).with_span_cap(cfg.span_cap);
    // Fold the daemon start time into the run id under the real clock so
    // two runs of the same configuration yield distinguishable reports;
    // under AADLSCHED_FAKE_CLOCK the salt is fixed so replays stay
    // byte-identical.
    let start_salt: u64 = if std::env::var("AADLSCHED_FAKE_CLOCK").is_ok() {
        0
    } else {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0)
    };
    let run_id = obs::run_id(&[
        b"aadlschedd",
        cfg.addr.as_bytes(),
        &start_salt.to_le_bytes(),
    ]);
    let listener = TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    println!("aadlschedd listening on {local}");
    // The line above is the readiness signal; make sure it leaves the
    // process even when stdout is a pipe.
    std::io::stdout().flush().ok();

    let artifacts = match &cfg.store {
        None => None,
        Some(dir) => {
            let mode = if cfg.store_readonly {
                cas::Mode::ReadOnly
            } else {
                cas::Mode::ReadWrite
            };
            let store = cas::CasStore::open(dir, mode)
                .map_err(|e| format!("cannot open artifact store {dir}: {e}"))?;
            // Register the cas counters up front so `stats`/`metrics`
            // responses are shaped the same before and after the first
            // store-touching request.
            for name in ["cas.hits", "cas.misses", "cas.writes", "cas.invalidations"] {
                rec.counter(name);
            }
            Some(Arc::new(store))
        }
    };

    let daemon = Arc::new(Daemon {
        limiter: RateLimiter::new(cfg.rate_limit, cfg.burst, clock.clone()),
        jobs: JobTable::new(cfg.cache_capacity),
        queue: BoundedQueue::new(cfg.queue_capacity),
        m: Instruments::new(&rec),
        rec,
        clock,
        cas: artifacts,
        draining: AtomicBool::new(false),
        flight: obs::FlightRecorder::new(cfg.flight_capacity),
        req_seq: AtomicU64::new(0),
        run_id,
        cfg,
    });

    // Boot-warm: re-seed the in-process result cache from the snapshot a
    // previous daemon persisted on drain. A missing snapshot is the normal
    // first boot; a corrupt or alien-version one counts an invalidation and
    // the daemon starts cold — never a wrong verdict. A daemon at cache
    // capacity 0 keeps no results, so it skips this.
    if let Some(store) = &daemon.cas {
        if daemon.cfg.cache_capacity > 0 {
            match store.get(&persist::snapshot_key(daemon.cfg.max_states)) {
                cas::Lookup::Hit(bytes) => match persist::decode_snapshot(&bytes) {
                    Some(entries) => {
                        let mut warmed = 0usize;
                        for (digest, result) in entries {
                            if daemon.jobs.warm(digest, result) {
                                warmed += 1;
                            }
                        }
                        daemon.rec.counter("cas.hits").inc();
                        // Informational only, and the readiness line may be
                        // the last one a supervisor reads — never panic on a
                        // closed stdout pipe.
                        let _ = writeln!(
                            std::io::stdout(),
                            "aadlschedd store: warmed {warmed} cached verdict(s)"
                        );
                    }
                    None => daemon.rec.counter("cas.invalidations").inc(),
                },
                cas::Lookup::Miss => daemon.rec.counter("cas.misses").inc(),
                cas::Lookup::Invalid => daemon.rec.counter("cas.invalidations").inc(),
            }
        }
    }

    let workers: Vec<_> = (0..daemon.cfg.workers.max(1))
        .map(|wi| {
            let d = daemon.clone();
            std::thread::Builder::new()
                .name(format!("aadlschedd-worker-{wi}"))
                .spawn(move || {
                    while let Some(digest) = d.queue.pop() {
                        d.update_gauges();
                        run_job(&d, &digest);
                    }
                })
                .expect("spawn worker")
        })
        .collect();

    let reaper = {
        let d = daemon.clone();
        std::thread::Builder::new()
            .name("aadlschedd-reaper".into())
            .spawn(move || loop {
                if d.draining() && d.queue.is_empty() && d.jobs.running_count() == 0 {
                    break;
                }
                // The worker that observes the fired token counts the
                // timeout; the reaper only fires it.
                d.jobs.reap(|| d.clock.now_ns());
                std::thread::sleep(std::time::Duration::from_millis(20));
            })
            .expect("spawn reaper")
    };

    // Track live client sockets so drain can unblock their readers. Keyed
    // by a connection id so each handler thread can drop its own entry on
    // exit — retaining every clone for the daemon's lifetime would keep one
    // fd per past connection alive (CLOSE_WAIT) until the fd limit kills
    // `accept`.
    let conns: Arc<Mutex<std::collections::HashMap<u64, TcpStream>>> =
        Arc::new(Mutex::new(std::collections::HashMap::new()));
    let mut next_conn_id: u64 = 0;
    for stream in listener.incoming() {
        if daemon.draining() {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Responses are small back-to-back lines (`accepted` then `result`);
        // without nodelay, Nagle + delayed ACK adds ~40 ms per exchange.
        stream.set_nodelay(true).ok();
        let conn_id = next_conn_id;
        next_conn_id += 1;
        if let Ok(clone) = stream.try_clone() {
            conns.lock().expect("conns poisoned").insert(conn_id, clone);
        }
        let d = daemon.clone();
        let local = local.to_string();
        let conns_for_thread = conns.clone();
        std::thread::Builder::new()
            .name("aadlschedd-conn".into())
            .spawn(move || {
                handle_conn(d, stream, &local);
                conns_for_thread
                    .lock()
                    .expect("conns poisoned")
                    .remove(&conn_id);
            })
            .expect("spawn conn");
    }

    // Drain: workers finish what was queued, every result is fanned out,
    // then readers are unblocked and the metrics report is written.
    for w in workers {
        w.join().expect("worker panicked");
    }
    reaper.join().expect("reaper panicked");
    // Drain-persist: snapshot the result cache into the artifact store so
    // the next daemon boots warm. A daemon at cache capacity 0 skips it,
    // leaving the snapshot it found for the next daemon; read-only stores
    // skip it too (and the store itself refuses writes anyway).
    if let Some(store) = &daemon.cas {
        if daemon.cfg.cache_capacity > 0 && !store.read_only() {
            let entries = daemon.jobs.cached_entries();
            let payload = persist::encode_snapshot(&entries);
            if let Ok(true) = store.put(&persist::snapshot_key(daemon.cfg.max_states), &payload)
            {
                daemon.rec.counter("cas.writes").inc();
            }
        }
    }
    for c in conns.lock().expect("conns poisoned").values() {
        c.shutdown(std::net::Shutdown::Both).ok();
    }
    if let Some(path) = &daemon.cfg.metrics_path {
        let report = metrics_report(&daemon);
        std::fs::write(path, report).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

/// The end-of-life fleet report through the schema-versioned report sink,
/// with the drained flight-recorder window as its `flight` section.
fn metrics_report(d: &Daemon) -> String {
    let mut report = obs::Report::new(&d.run_id, "aadlschedd");
    report.set("config", d.cfg.to_json());
    report.set("flight", d.flight.to_json());
    report.attach_run(&d.rec.finish());
    report.to_json()
}

/// Largest request line the daemon will buffer, excluding the newline.
/// Inline model sources fit comfortably; anything bigger is a hostile or
/// broken client streaming bytes without a newline, which must not be able
/// to grow daemon memory without bound.
const MAX_REQUEST_LINE_BYTES: usize = 4 * 1024 * 1024;

/// Read one newline-terminated request line, buffering at most
/// [`MAX_REQUEST_LINE_BYTES`]. `Ok(None)` ends the connection (EOF, an I/O
/// error, or invalid UTF-8 — the same cases `BufRead::lines` treated as
/// terminal); `Err(())` means the cap was hit before a newline arrived.
fn read_request_line(reader: &mut BufReader<TcpStream>) -> Result<Option<String>, ()> {
    let mut buf = Vec::new();
    let mut limited = reader.by_ref().take(MAX_REQUEST_LINE_BYTES as u64 + 1);
    match limited.read_until(b'\n', &mut buf) {
        Ok(0) | Err(_) => Ok(None),
        Ok(_) => {
            if buf.last() == Some(&b'\n') {
                buf.pop();
                if buf.last() == Some(&b'\r') {
                    buf.pop();
                }
            } else if buf.len() > MAX_REQUEST_LINE_BYTES {
                return Err(());
            }
            Ok(String::from_utf8(buf).ok())
        }
    }
}

fn write_line(writer: &Arc<Mutex<TcpStream>>, v: Json) {
    write_raw(writer, v.to_compact());
}

fn write_raw(writer: &Arc<Mutex<TcpStream>>, mut line: String) {
    line.push('\n');
    writer
        .lock()
        .expect("writer poisoned")
        .write_all(line.as_bytes())
        .ok();
}

fn handle_conn(d: Arc<Daemon>, stream: TcpStream, local_addr: &str) {
    let peer = stream
        .peer_addr()
        .map(|a| a.ip().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(write_half));
    d.m.connections.add(1);
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_request_line(&mut reader) {
            Ok(Some(line)) => line,
            Ok(None) => break,
            Err(()) => {
                // Oversized line: tell the client why, then hang up — the
                // rest of its stream is the tail of the same giant line.
                d.m.errors.inc();
                write_line(&writer, wire::error_response(None, "request line too long"));
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        // The `parse` stage starts here: receipt stamp on the recorder
        // clock, covering the rate-limit check and request parsing.
        let recv_ns = if d.cfg.trace { d.rec.now_ns() } else { 0 };
        if !d.limiter.allow(&peer) {
            // Rate-limited lines count only in `served.rejected_rate_limit`;
            // they never became requests.
            d.m.rejected_rate_limit.inc();
            write_line(&writer, wire::error_response(None, "rate limit exceeded"));
            continue;
        }
        let req = match wire::parse_request(&line) {
            Ok(req) => req,
            Err(message) => {
                // Malformed lines still count as requests — the client paid
                // a round-trip and got an `error` response.
                d.m.requests.inc();
                d.m.errors.inc();
                // Echo the id when the malformed request still carried one.
                let id = Json::parse(&line)
                    .ok()
                    .and_then(|v| v.get("id").and_then(Json::as_str).map(String::from));
                write_line(&writer, wire::error_response(id.as_deref(), &message));
                continue;
            }
        };
        // Introspection (`stats`/`health`/`flight`) is excluded from
        // `served.requests`, so polling the instruments never perturbs
        // them — the byte-identity guarantee of consecutive `stats`.
        if !req.is_introspection() {
            d.m.requests.inc();
        }
        match req {
            Request::Analyze {
                id,
                source,
                options,
            } => {
                let ctx = d.cfg.trace.then(|| {
                    let parsed_ns = d.rec.now_ns();
                    let req_no = d.req_seq.fetch_add(1, Ordering::Relaxed) + 1;
                    (req_no, recv_ns, parsed_ns)
                });
                handle_analyze(&d, &writer, &id, source, options, ctx)
            }
            Request::Status { id, job } => {
                let resp = match job {
                    Some(job) => match d.jobs.status(&job) {
                        Some((state, result)) => {
                            wire::status_job(&id, &job, state, result.as_deref())
                        }
                        None => wire::status_job(&id, &job, "unknown", None),
                    },
                    None => wire::status_summary(
                        &id,
                        d.queue.len(),
                        d.jobs.running_count(),
                        d.draining(),
                    ),
                };
                write_line(&writer, resp);
            }
            Request::Cancel { id, job } => {
                let was = d.jobs.cancel(&job);
                if was == "queued" || was == "running" {
                    d.m.cancelled.inc();
                }
                write_line(&writer, wire::cancelled_response(&id, &job, was));
            }
            Request::Metrics { id } => write_line(&writer, metrics_response(&d, &id)),
            Request::Stats { id } => write_line(&writer, stats_response(&d, &id)),
            Request::Health { id } => write_line(&writer, health_response(&d, &id)),
            Request::Flight { id } => write_line(&writer, flight_response(&d, &id)),
            Request::Shutdown { id } => {
                write_line(&writer, wire::shutting_down(&id));
                d.draining.store(true, Ordering::Release);
                d.queue.close();
                // Wake the accept loop so it observes the drain flag.
                TcpStream::connect(local_addr).ok();
                break;
            }
        }
    }
    d.m.connections.add(-1);
}

/// Retroactively record one stage as a child span of the root (explicit
/// timestamps, no clock reads — see `obs::Span::child_at`).
fn stage_span(d: &Daemon, root: Option<u64>, name: &'static str, start_ns: u64, end_ns: u64) {
    if let Some(rid) = root {
        d.rec.span_handle(rid).child_at(name, start_ns).end_at(end_ns);
    }
}

/// Finish one request's trace: close the root span (with `code` and
/// `slack_ns` fields) and record the flight event. `Σ stages + slack_ns`
/// equals the root span's duration exactly, by construction.
fn finish_trace(
    d: &Daemon,
    wt: &ReqTrace,
    id: &str,
    job: &str,
    outcome: &str,
    code: u8,
    end_ns: u64,
) {
    if let Some(rid) = wt.root {
        let root = d.rec.span_handle(rid);
        root.set("code", i64::from(code));
        root.set("slack_ns", wt.slack_ns(end_ns) as i64);
        root.end_at(end_ns);
    }
    d.flight.record(obs::FlightEvent {
        seq: 0,
        req: wt.req,
        id: id.to_string(),
        job: job.to_string(),
        outcome: outcome.to_string(),
        code,
        stages: wt.stages.clone(),
    });
}

fn handle_analyze(
    d: &Arc<Daemon>,
    writer: &Arc<Mutex<TcpStream>>,
    id: &str,
    source: ModelSource,
    options: AnalyzeOptions,
    ctx: Option<(u64, u64, u64)>,
) {
    d.m.analyze.inc();
    // Open the root span first, so even rejected requests leave a tree.
    let mut trace = ctx.map(|(req, recv_ns, parsed_ns)| {
        let root = d.rec.span_at("served.request", recv_ns);
        root.set("req", req as i64);
        let root_id = root.id();
        stage_span(d, root_id, "served.parse", recv_ns, parsed_ns);
        let mut t = ReqTrace {
            req,
            root: root_id,
            recv_ns,
            dispatched_ns: parsed_ns,
            stages: Vec::new(),
        };
        t.stage("parse", parsed_ns.saturating_sub(recv_ns));
        t
    });
    if d.draining() {
        d.m.errors.inc();
        write_line(writer, wire::error_response(Some(id), "shutting down"));
        if let Some(wt) = &trace {
            finish_trace(d, wt, id, "", "rejected", 2, d.rec.now_ns());
        }
        return;
    }
    let source = match source {
        ModelSource::Inline(text) => text,
        ModelSource::File(path) => match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                d.m.errors.inc();
                write_line(
                    writer,
                    wire::error_response(Some(id), &format!("cannot read `{path}`: {e}")),
                );
                if let Some(wt) = &trace {
                    finish_trace(d, wt, id, "", "rejected", 2, d.rec.now_ns());
                }
                return;
            }
        },
    };
    let digest = wire::job_digest(&source, &options);
    let timeout_ms = options.timeout_ms.or(d.cfg.default_timeout_ms);
    let deadline_ns = timeout_ms.map(|ms| d.clock.now_ns().saturating_add(ms * 1_000_000));
    // The `dispatch` stage ends here: the job is about to be submitted.
    // The few instructions between this stamp and the queue push land in
    // `queue_wait`, which keeps the trace fully built before the waiter —
    // and its clone of the trace — enters the job table.
    if let Some(wt) = &mut trace {
        let dispatched_ns = d.rec.now_ns();
        stage_span(d, wt.root, "served.dispatch", wt.dispatched_ns, dispatched_ns);
        wt.stage("dispatch", dispatched_ns.saturating_sub(wt.dispatched_ns));
        wt.dispatched_ns = dispatched_ns;
    }
    // Hold the write lock across the whole dispatch: the fan-out cannot
    // deliver our own result before we have written `accepted`.
    let mut guard = writer.lock().expect("writer poisoned");
    let payload = JobPayload {
        source,
        options,
        trace: trace.as_ref().map(|t| JobMeta {
            req: t.req,
            root: t.root,
        }),
    };
    let waiter = (writer.clone(), id.to_string(), trace.clone());
    let mut lines: Vec<Json> = Vec::new();
    let mut cached: Option<Arc<JobResult>> = None;
    match d.jobs.submit(&digest, payload, waiter, deadline_ns) {
        Submit::Cached(result) => {
            d.m.cache_hits.inc();
            lines.push(wire::accepted(id, &digest, false));
            lines.push(wire::result_response(id, &digest, &result, true));
            // The waiter (and its trace clone) was dropped by `submit`; the
            // local trace finishes below, around the serialize stage.
            cached = Some(result);
        }
        Submit::Coalesced => {
            d.m.coalesced.inc();
            lines.push(wire::accepted(id, &digest, true));
            // The waiter's trace clone is now canonical; the fan-out
            // finishes it.
            trace = None;
        }
        Submit::New => match d.queue.try_push(digest.clone()) {
            Ok(()) => {
                d.update_gauges();
                lines.push(wire::accepted(id, &digest, false));
                trace = None;
            }
            Err(_) => {
                d.m.rejected_queue_full.inc();
                // A concurrent identical request may have coalesced onto the
                // entry between our `submit` and `try_push`; it was already
                // sent `accepted`, so every waiter abort() hands back must
                // be told the job died or its client hangs forever.
                for (w, wid, wtrace) in d.jobs.abort(&digest) {
                    if let Some(wt) = &wtrace {
                        finish_trace(d, wt, &wid, &digest, "queue-full", 2, d.rec.now_ns());
                    }
                    if Arc::ptr_eq(&w, writer) {
                        // Same connection as ours: its writer lock is the
                        // one we already hold, so queue the line instead of
                        // deadlocking in `write_line`.
                        if wid != id {
                            lines.push(wire::error_response(
                                Some(&wid),
                                "queue full, retry later",
                            ));
                        }
                    } else {
                        write_line(&w, wire::error_response(Some(&wid), "queue full, retry later"));
                    }
                }
                lines.push(wire::error_response(Some(id), "queue full, retry later"));
                // Our own trace came back through `abort` and is finished;
                // drop the local copy.
                trace = None;
                d.dump_flight("queue full");
            }
        },
    }
    // Cache hits are terminal here: time the serialize stage around the
    // writes and finish the trace on this thread.
    let serialize_start = trace.as_ref().map(|_| d.rec.now_ns());
    for v in lines {
        let mut line = v.to_compact();
        line.push('\n');
        guard.write_all(line.as_bytes()).ok();
    }
    if let (Some(mut wt), Some(result), Some(t0)) = (trace, cached, serialize_start) {
        let t1 = d.rec.now_ns();
        stage_span(d, wt.root, "served.serialize", t0, t1);
        wt.stage("serialize", t1.saturating_sub(t0));
        d.m.serialize.observe(t1.saturating_sub(t0));
        d.m.cache_hit_wall.observe(t1.saturating_sub(wt.recv_ns));
        finish_trace(d, &wt, id, &digest, "cache-hit", result.code, t1);
    }
}

/// Run `attempt` under `catch_unwind`, retrying a panic up to `retries`
/// times (each counted in `served.retries`, then `on_retry` runs), then
/// give up with the error result, counted in `served.errors`. Sound because
/// each attempt translates into its own term store: a panicked attempt's
/// half-updated interner dies in the unwind.
fn retry_panics<T>(
    retries: u32,
    m: &Instruments,
    on_retry: impl Fn(),
    mut attempt: impl FnMut() -> T,
) -> Result<T, JobResult> {
    let mut attempts = 0;
    loop {
        attempts += 1;
        match std::panic::catch_unwind(AssertUnwindSafe(&mut attempt)) {
            Ok(out) => return Ok(out),
            Err(_) if attempts <= retries => {
                m.retries.inc();
                on_retry();
            }
            Err(_) => {
                m.errors.inc();
                return Err(JobResult::input_error(
                    "analysis panicked; giving up after retries",
                ));
            }
        }
    }
}

/// Execute one job end to end: deadline and cancellation checks, the
/// translate→explore→diagnose pipeline with bounded retries on panics, and
/// the fan-out of the result to every waiter.
fn run_job(d: &Arc<Daemon>, digest: &str) {
    let Some((payload, cancel, deadline_ns)) = d.jobs.take_running(digest) else {
        return;
    };
    d.update_gauges();
    let meta = payload.trace;
    // Recorder-clock claim stamp: the end of the owner's `queue_wait`.
    let claim_ns = meta.map(|_| d.rec.now_ns());
    let started = d.clock.now_ns();
    let mut exec_span: Option<u64> = None;
    let mut executed = false;
    let mut panicked = false;
    // `translated` owns the request's term store. Freeing a large one is
    // slow, so it is dropped only after the result has reached every waiter.
    let (result, translated) = if cancel.is_cancelled() {
        // Cancelled (or reaped) while still queued.
        if d.jobs.timed_out(digest) {
            d.m.timeouts.inc();
            (JobResult::unknown("timeout"), None)
        } else {
            (JobResult::unknown("cancelled"), None)
        }
    } else if deadline_ns.is_some_and(|dl| started >= dl) {
        // Deterministic immediate timeout (`timeout_ms: 0`), or a job that
        // sat in the queue past its whole deadline.
        d.jobs.mark_timed_out(digest);
        d.m.timeouts.inc();
        (JobResult::unknown("timeout"), None)
    } else {
        executed = true;
        // The `served.exec` span anchors the engine's own spans: a scoped
        // recorder parents everything the pipeline opens (`translate`,
        // `explore`, …) under it and tags it with the owner's `req`. With
        // `--no-trace` the engine runs on a disabled recorder — the
        // allocation-free zero-sink path measured by EXPERIMENTS.md Q11.
        let engine_rec = match (meta, claim_ns) {
            (Some(m), Some(tc)) => match m.root {
                Some(rid) => {
                    let exec = d.rec.span_handle(rid).child_at("served.exec", tc);
                    exec_span = exec.id();
                    exec.set("req", m.req as i64);
                    d.rec.scoped(&exec, m.req as i64)
                }
                // Root dropped by the span cap: engine metrics still record.
                None => d.rec.clone(),
            },
            _ => obs::Recorder::disabled(),
        };
        // A pipeline panic is transient. The flight window at that moment
        // is the evidence trail: dump it before each retry.
        let dump = || d.dump_flight("panic retry");
        match retry_panics(d.cfg.retries, &d.m, dump, || {
            analyze_source(d, &payload, &cancel, &engine_rec)
        }) {
            Ok(Ok((mut result, tm))) => {
                // The explorer reports `cancelled`; the daemon knows
                // whether the token was fired by a deadline.
                if result.reason.as_deref() == Some("cancelled") && d.jobs.timed_out(digest) {
                    result.reason = Some("timeout".into());
                    d.m.timeouts.inc();
                }
                (result, Some(tm))
            }
            Ok(Err(input_error)) => (input_error, None),
            Err(gave_up) => {
                panicked = true;
                (gave_up, None)
            }
        }
    };
    let done_ns = claim_ns.map(|_| d.rec.now_ns());
    if let (Some(eid), Some(td)) = (exec_span, done_ns) {
        d.rec.span_handle(eid).end_at(td);
    }
    if let (true, Some(tc), Some(td)) = (executed, claim_ns, done_ns) {
        d.m.exec.observe(td.saturating_sub(tc));
    }
    d.m.request_wall
        .observe(d.clock.now_ns().saturating_sub(started));
    d.m.results.inc();
    // Verdicts cache; input errors and interruptions do not (a retry might
    // succeed under a fresh deadline or budget).
    let cacheable = matches!(result.code, 0 | 1);
    let waiters = d.jobs.complete(digest, result.clone(), cacheable);
    d.update_gauges();
    let outcome = outcome_str(&result);
    for (writer, id, wtrace) in waiters {
        let Some(mut wt) = wtrace else {
            write_line(&writer, wire::result_response(&id, digest, &result, false));
            continue;
        };
        let (tc, td) = (claim_ns.unwrap_or(0), done_ns.unwrap_or(0));
        if meta.is_some_and(|m| m.req == wt.req) {
            // The owner waited for a worker, then for the analysis.
            stage_span(d, wt.root, "served.queue_wait", wt.dispatched_ns, tc);
            wt.stage("queue_wait", tc.saturating_sub(wt.dispatched_ns));
            d.m.queue_wait.observe(tc.saturating_sub(wt.dispatched_ns));
            if executed {
                // The exec span is already in the tree (opened live above).
                wt.stage("exec", td.saturating_sub(tc));
            }
        } else {
            // A coalesced waiter waited for someone else's execution.
            stage_span(d, wt.root, "served.coalesce_wait", wt.dispatched_ns, td);
            wt.stage("coalesce_wait", td.saturating_sub(wt.dispatched_ns));
            d.m.coalesce_wait
                .observe(td.saturating_sub(wt.dispatched_ns));
        }
        // The serialize stage times the response *rendering*; the socket
        // write happens after the trace is fully committed (span ended,
        // histograms observed, flight event recorded), so a client that
        // reacts to the result line — e.g. with an immediate `stats` or
        // `flight` — is guaranteed to observe the completed trace. That
        // ordering is what keeps the PROTOCOL.md transcripts replayable.
        let t0 = d.rec.now_ns();
        let line = wire::result_response(&id, digest, &result, false).to_compact();
        let t1 = d.rec.now_ns();
        stage_span(d, wt.root, "served.serialize", t0, t1);
        wt.stage("serialize", t1.saturating_sub(t0));
        d.m.serialize.observe(t1.saturating_sub(t0));
        finish_trace(d, &wt, &id, digest, &outcome, result.code, t1);
        write_raw(&writer, line);
    }
    if outcome == "timeout" || panicked {
        d.dump_flight(if panicked { "analysis panicked" } else { "timeout" });
    }
    drop(translated);
}

/// The translate→explore→diagnose pipeline for one request — the same
/// stages as the `aadlsched` CLI — returning the wire-level result with the
/// translated model that owns the request's term store, or the input error.
/// `rec` is the request-scoped recorder (engine spans parent under the
/// request's `served.exec`), or a disabled one with `--no-trace`.
fn analyze_source(
    d: &Daemon,
    payload: &JobPayload,
    cancel: &versa::CancelToken,
    rec: &obs::Recorder,
) -> Result<(JobResult, TranslatedModel), JobResult> {
    let o = &payload.options;
    let pkg = parse_package(&payload.source)
        .map_err(|e| JobResult::input_error(format!("parse error: {e}")))?;
    let root = match &o.root {
        Some(root) => root.clone(),
        None => pkg.default_root().map_err(JobResult::input_error)?,
    };
    let model = instantiate(&pkg, &root)
        .map_err(|e| JobResult::input_error(format!("instantiation error: {e}")))?;
    let protocol = match &o.protocol {
        None => None,
        Some(p) => Some(ConcurrencyControlProtocol::parse(p).ok_or_else(|| {
            JobResult::input_error(format!("unknown protocol `{p}` (none | pip | pcp)"))
        })?),
    };
    let topts = TranslateOptions {
        compact: o.compact,
        quantum: o.quantum_ms.map(TimeVal::ms),
        protocol_override: protocol,
        obs: rec.clone(),
        ..Default::default()
    };
    let tm = translate(&model, &topts).map_err(|e| match e {
        TranslateError::Validation(errs) => {
            let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
            JobResult::input_error(format!("translation error: {}", msgs.join("; ")))
        }
        e => JobResult::input_error(format!("translation error: {e}")),
    })?;
    let mut aopts = if o.exhaustive {
        AnalysisOptions::exhaustive()
    } else {
        AnalysisOptions::default()
    };
    aopts.explore.max_states = o.max_states.unwrap_or(usize::MAX).min(d.cfg.max_states);
    aopts.explore.cancel = cancel.clone();
    aopts.explore.obs = rec.clone();
    aopts.explore.cas = d.cas.clone();
    let outcome = analyze_translated(&model, &tm, &aopts);
    Ok((JobResult::from_outcome(&outcome), tm))
}

/// The `metrics` response: every fleet counter and gauge in a fixed order.
/// The `cas.*` counters appear only when an artifact store is configured,
/// so store-less daemons keep their historical response shape.
fn metrics_response(d: &Daemon, id: &str) -> Json {
    let m = &d.m;
    let mut counters = vec![
        ("served.requests".to_string(), Json::from(m.requests.get())),
        ("served.analyze".to_string(), Json::from(m.analyze.get())),
        ("served.results".to_string(), Json::from(m.results.get())),
        (
            "served.coalesced".to_string(),
            Json::from(m.coalesced.get()),
        ),
        (
            "served.cache_hits".to_string(),
            Json::from(m.cache_hits.get()),
        ),
        (
            "served.rejected_rate_limit".to_string(),
            Json::from(m.rejected_rate_limit.get()),
        ),
        (
            "served.rejected_queue_full".to_string(),
            Json::from(m.rejected_queue_full.get()),
        ),
        ("served.timeouts".to_string(), Json::from(m.timeouts.get())),
        (
            "served.cancelled".to_string(),
            Json::from(m.cancelled.get()),
        ),
        ("served.retries".to_string(), Json::from(m.retries.get())),
        ("served.errors".to_string(), Json::from(m.errors.get())),
    ];
    if d.cas.is_some() {
        for name in ["cas.hits", "cas.misses", "cas.writes", "cas.invalidations"] {
            counters.push((name.to_string(), Json::from(d.rec.counter(name).get())));
        }
    }
    Json::obj([
        ("type", Json::from("metrics")),
        ("id", Json::from(id)),
        ("counters", Json::Obj(counters)),
        (
            "gauges",
            Json::obj([
                ("served.queue_depth", Json::Int(m.queue_depth.get())),
                ("served.jobs_running", Json::Int(m.jobs_running.get())),
                ("served.connections", Json::Int(m.connections.get())),
            ]),
        ),
    ])
}

/// The `stats` response: every counter, gauge and histogram the recorder
/// knows (fleet *and* engine instruments), in name order, with p50/p90/p99
/// quantile estimates per histogram. Reads no clock and mutates nothing, so
/// two consecutive snapshots with no traffic in between are byte-identical
/// — even under the real clock.
fn stats_response(d: &Daemon, id: &str) -> Json {
    let run = d.rec.metrics_data();
    Json::obj([
        ("type", Json::from("stats")),
        ("id", Json::from(id)),
        ("schema", Json::from(obs::SCHEMA)),
        ("version", Json::UInt(obs::SCHEMA_VERSION)),
        ("run_id", Json::from(d.run_id.as_str())),
        (
            "counters",
            Json::Obj(
                run.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                    .collect(),
            ),
        ),
        (
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
        ),
        (
            "histograms",
            Json::Obj(
                run.histograms
                    .iter()
                    .map(|(k, snap)| (k.clone(), obs::histogram_json(snap)))
                    .collect(),
            ),
        ),
    ])
}

/// The `health` response: liveness at a glance. The single clock read (for
/// `uptime_ns`) is on the recorder clock.
fn health_response(d: &Daemon, id: &str) -> Json {
    Json::obj([
        ("type", Json::from("health")),
        ("id", Json::from(id)),
        (
            "uptime_ns",
            Json::UInt(d.rec.now_ns().saturating_sub(d.rec.start_ns())),
        ),
        ("queue_depth", Json::from(d.queue.len())),
        ("workers", Json::from(d.cfg.workers.max(1))),
        ("jobs_running", Json::from(d.jobs.running_count())),
        ("connections", Json::Int(d.m.connections.get())),
        ("cache_entries", Json::from(d.jobs.cached_count())),
        ("cache_capacity", Json::from(d.cfg.cache_capacity)),
        ("draining", Json::Bool(d.draining())),
    ])
}

/// The `flight` response: the ring-buffer window, oldest event first.
fn flight_response(d: &Daemon, id: &str) -> Json {
    let mut pairs = vec![
        ("type".to_string(), Json::from("flight")),
        ("id".to_string(), Json::from(id)),
    ];
    if let Json::Obj(fields) = d.flight.to_json() {
        pairs.extend(fields);
    }
    Json::Obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn a_panicked_attempt_is_retried_and_the_retry_answers() {
        let m = Instruments::new(&obs::Recorder::enabled());
        let (calls, dumps) = (Cell::new(0), Cell::new(0));
        let out = retry_panics(
            1,
            &m,
            || dumps.set(dumps.get() + 1),
            || {
                calls.set(calls.get() + 1);
                if calls.get() == 1 {
                    panic!("transient failure");
                }
                calls.get()
            },
        );
        assert_eq!(out.ok(), Some(2), "the second attempt's result is returned");
        assert_eq!((m.retries.get(), m.errors.get(), dumps.get()), (1, 0, 1));
    }

    #[test]
    fn an_attempt_that_always_panics_gives_up_after_the_retries() {
        let m = Instruments::new(&obs::Recorder::enabled());
        let calls = Cell::new(0);
        let out = retry_panics(2, &m, || {}, || {
            calls.set(calls.get() + 1);
            panic!("persistent failure")
        });
        let gave_up: JobResult = out.err().expect("every attempt panicked");
        assert_eq!(gave_up.code, 2);
        assert_eq!(
            gave_up.reason.as_deref(),
            Some("analysis panicked; giving up after retries")
        );
        assert_eq!(calls.get(), 3, "retries + 1 attempts");
        assert_eq!((m.retries.get(), m.errors.get()), (2, 1));
    }
}
