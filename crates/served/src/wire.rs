//! The `aadlschedd` wire protocol: line-delimited JSON requests and
//! responses (see `PROTOCOL.md` for the normative specification).
//!
//! Every message is one [`obs::Json`] value rendered compactly on a single
//! line. The parser is strict — unknown request types, missing fields and
//! floats are protocol errors, mapped to the old CLI exit-code contract as
//! `code: 2` (usage/input error) — and the renderers emit fields in a fixed
//! order so responses are byte-stable (the protocol transcripts in
//! `PROTOCOL.md` are replayed verbatim by an integration test).

use obs::Json;

/// Where the model text of an `analyze` request comes from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelSource {
    /// The AADL source inline in the request (`"model"`).
    Inline(String),
    /// A daemon-side path to read (`"file"`), for clients that share a
    /// filesystem with the daemon.
    File(String),
}

/// Options of an `analyze` request — the wire twin of the `aadlsched` CLI
/// flags, with a per-request wall-clock timeout on top.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnalyzeOptions {
    /// Root system implementation (`None` = auto-select the top of the
    /// instantiation hierarchy, exactly like the CLI).
    pub root: Option<String>,
    /// Scheduling-quantum override in milliseconds.
    pub quantum_ms: Option<i64>,
    /// Concurrency-control protocol override (`none` | `pip` | `pcp`).
    pub protocol: Option<String>,
    /// Compact translation.
    pub compact: bool,
    /// Explore the full state space instead of stopping at the first
    /// deadlock.
    pub exhaustive: bool,
    /// Per-request state budget (always clamped to the daemon's own budget).
    pub max_states: Option<usize>,
    /// Per-request wall-clock timeout in milliseconds (`None` = the daemon's
    /// default). `0` times out immediately — useful for testing the timeout
    /// path deterministically.
    pub timeout_ms: Option<u64>,
}

impl Default for AnalyzeOptions {
    fn default() -> AnalyzeOptions {
        AnalyzeOptions {
            root: None,
            quantum_ms: None,
            protocol: None,
            compact: false,
            exhaustive: false,
            max_states: None,
            timeout_ms: None,
        }
    }
}

impl AnalyzeOptions {
    /// The canonical option string hashed into the job digest. Every field —
    /// including the timeout — participates, so two requests coalesce only
    /// when they would run the identical analysis under the identical
    /// deadline policy.
    pub fn canonical(&self) -> String {
        format!(
            "root={:?};quantum_ms={:?};protocol={:?};compact={};exhaustive={};\
             max_states={:?};timeout_ms={:?}",
            self.root,
            self.quantum_ms,
            self.protocol,
            self.compact,
            self.exhaustive,
            self.max_states,
            self.timeout_ms,
        )
    }
}

/// A parsed client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Run (or join) a schedulability analysis.
    Analyze {
        /// Client-chosen correlation id, echoed on every response.
        id: String,
        /// Model text, inline or by daemon-side path.
        source: ModelSource,
        /// Analysis options.
        options: AnalyzeOptions,
    },
    /// Query one job (by digest) or the daemon summary.
    Status {
        /// Correlation id.
        id: String,
        /// Job digest; `None` asks for the daemon summary.
        job: Option<String>,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// Correlation id.
        id: String,
        /// Job digest.
        job: String,
    },
    /// Fetch the fleet metrics counters and gauges.
    Metrics {
        /// Correlation id.
        id: String,
    },
    /// Live introspection: every counter, gauge and histogram (with
    /// p50/p90/p99 quantile estimates) as one JSON snapshot. Reads no clock
    /// and counts in no counter, so two consecutive `stats` with no traffic
    /// in between are byte-identical.
    Stats {
        /// Correlation id.
        id: String,
    },
    /// Live introspection: uptime, queue depth, worker occupancy, cache
    /// occupancy, drain state.
    Health {
        /// Correlation id.
        id: String,
    },
    /// Dump the flight recorder: the last N structured request events.
    Flight {
        /// Correlation id.
        id: String,
    },
    /// Graceful drain: finish queued work, then exit.
    Shutdown {
        /// Correlation id.
        id: String,
    },
}

impl Request {
    /// The correlation id of any request.
    pub fn id(&self) -> &str {
        match self {
            Request::Analyze { id, .. }
            | Request::Status { id, .. }
            | Request::Cancel { id, .. }
            | Request::Metrics { id }
            | Request::Stats { id }
            | Request::Health { id }
            | Request::Flight { id }
            | Request::Shutdown { id } => id,
        }
    }

    /// Whether this is a read-only introspection request (`stats`, `health`,
    /// `flight`). Introspection is excluded from `served.requests` so
    /// polling the daemon's own instruments never perturbs them.
    pub fn is_introspection(&self) -> bool {
        matches!(
            self,
            Request::Stats { .. } | Request::Health { .. } | Request::Flight { .. }
        )
    }
}

/// The job digest: a 16-hex-digit FNV-1a hash over the model source and the
/// canonical option string — the daemon's coalescing and result-cache key.
/// Identical model + identical options ⇒ identical digest, so a duplicate
/// request joins the in-flight job (or hits the result cache) instead of
/// exploring the same state space twice.
pub fn job_digest(source: &str, options: &AnalyzeOptions) -> String {
    obs::run_id(&[source.as_bytes(), options.canonical().as_bytes()])
}

/// Parse one request line. Errors are human-readable fragments for the
/// `error` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = Json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let id = v
        .get("id")
        .and_then(Json::as_str)
        .ok_or("missing string field `id`")?
        .to_string();
    let ty = v
        .get("type")
        .and_then(Json::as_str)
        .ok_or("missing string field `type`")?;
    match ty {
        "analyze" => {
            let source = match (
                v.get("model").and_then(Json::as_str),
                v.get("file").and_then(Json::as_str),
            ) {
                (Some(m), None) => ModelSource::Inline(m.to_string()),
                (None, Some(f)) => ModelSource::File(f.to_string()),
                (Some(_), Some(_)) => return Err("give `model` or `file`, not both".into()),
                (None, None) => return Err("analyze needs `model` (inline) or `file`".into()),
            };
            let options = parse_options(v.get("options"))?;
            Ok(Request::Analyze {
                id,
                source,
                options,
            })
        }
        "status" => Ok(Request::Status {
            id,
            job: v.get("job").and_then(Json::as_str).map(String::from),
        }),
        "cancel" => Ok(Request::Cancel {
            id,
            job: v
                .get("job")
                .and_then(Json::as_str)
                .ok_or("cancel needs a `job` digest")?
                .to_string(),
        }),
        "metrics" => Ok(Request::Metrics { id }),
        "stats" => Ok(Request::Stats { id }),
        "health" => Ok(Request::Health { id }),
        "flight" => Ok(Request::Flight { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        other => Err(format!("unknown request type `{other}`")),
    }
}

fn parse_options(v: Option<&Json>) -> Result<AnalyzeOptions, String> {
    let mut o = AnalyzeOptions::default();
    let Some(v) = v else { return Ok(o) };
    let Json::Obj(pairs) = v else {
        return Err("`options` must be an object".into());
    };
    for (k, val) in pairs {
        match k.as_str() {
            "root" => o.root = Some(str_field(val, "options.root")?),
            "quantum_ms" => {
                o.quantum_ms = Some(val.as_i64().ok_or("options.quantum_ms must be an integer")?)
            }
            "protocol" => o.protocol = Some(str_field(val, "options.protocol")?),
            "compact" => o.compact = bool_field(val, "options.compact")?,
            "exhaustive" => o.exhaustive = bool_field(val, "options.exhaustive")?,
            "max_states" => {
                o.max_states =
                    Some(val.as_u64().ok_or("options.max_states must be an integer")? as usize)
            }
            "timeout_ms" => {
                o.timeout_ms = Some(val.as_u64().ok_or("options.timeout_ms must be an integer")?)
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(o)
}

fn str_field(v: &Json, what: &str) -> Result<String, String> {
    v.as_str()
        .map(String::from)
        .ok_or_else(|| format!("{what} must be a string"))
}

fn bool_field(v: &Json, what: &str) -> Result<bool, String> {
    v.as_bool().ok_or_else(|| format!("{what} must be a boolean"))
}

/// A finished job, as delivered on the wire and kept in the result cache.
/// Deliberately free of wall-clock durations and store-occupancy numbers so
/// the same analysis renders the same bytes on every run.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The exit code of the typed outcome (0 | 1 | 3), or 2 for input
    /// errors (parse/instantiate/translate failures, unreadable files).
    pub code: u8,
    /// `"schedulable"` | `"unschedulable"` | `"unknown"` | `"error"`.
    pub verdict: String,
    /// For `unknown`: `"state-budget"` | `"cancelled"` | `"timeout"`. For
    /// `error`: the message.
    pub reason: Option<String>,
    /// Exploration statistics (absent for input errors).
    pub stats: Option<versa::Stats>,
    /// Rendered violations of the failing scenario, when one exists.
    pub violations: Vec<String>,
    /// Quantum at which the failing scenario deadlocks.
    pub at_quantum: Option<u64>,
}

impl JobResult {
    /// An input-error result (`code` 2) — never cached, never a verdict.
    pub fn input_error(message: impl Into<String>) -> JobResult {
        JobResult {
            code: aadl2acsr::EXIT_INPUT_ERROR,
            verdict: "error".into(),
            reason: Some(message.into()),
            stats: None,
            violations: Vec::new(),
            at_quantum: None,
        }
    }

    /// An `unknown` result with an explicit reason (timeout, cancelled).
    pub fn unknown(reason: &str) -> JobResult {
        JobResult {
            code: 3,
            verdict: "unknown".into(),
            reason: Some(reason.into()),
            stats: None,
            violations: Vec::new(),
            at_quantum: None,
        }
    }

    /// Lower a typed [`aadl2acsr::AnalysisOutcome`] to its wire form.
    pub fn from_outcome(outcome: &aadl2acsr::AnalysisOutcome) -> JobResult {
        JobResult {
            code: outcome.exit_code(),
            verdict: outcome.verdict_str().into(),
            reason: outcome.reason_str().map(String::from),
            stats: Some(outcome.stats().clone()),
            violations: outcome
                .scenario()
                .map(|sc| sc.violations.iter().map(|v| v.to_string()).collect())
                .unwrap_or_default(),
            at_quantum: outcome.scenario().map(|sc| sc.at_quantum as u64),
        }
    }
}

/// `accepted` — the immediate acknowledgement of an `analyze` request.
pub fn accepted(id: &str, job: &str, coalesced: bool) -> Json {
    Json::obj([
        ("type", Json::from("accepted")),
        ("id", Json::from(id)),
        ("job", Json::from(job)),
        ("coalesced", Json::Bool(coalesced)),
    ])
}

/// `result` — the terminal response of an `analyze` request.
pub fn result_response(id: &str, job: &str, r: &JobResult, cached: bool) -> Json {
    let mut pairs = vec![
        ("type", Json::from("result")),
        ("id", Json::from(id)),
        ("job", Json::from(job)),
        ("verdict", Json::from(r.verdict.as_str())),
        ("code", Json::from(u64::from(r.code))),
    ];
    if let Some(reason) = &r.reason {
        pairs.push(("reason", Json::from(reason.as_str())));
    }
    if let Some(s) = &r.stats {
        pairs.push((
            "stats",
            Json::obj([
                ("states", Json::from(s.states)),
                ("transitions", Json::from(s.transitions)),
                ("levels", Json::from(s.levels)),
                ("peak_frontier", Json::from(s.peak_frontier)),
                ("dedup_hits", Json::from(s.dedup_hits)),
                ("deadlocks", Json::from(s.deadlocks)),
            ]),
        ));
    }
    if !r.violations.is_empty() {
        pairs.push((
            "violations",
            Json::Arr(r.violations.iter().map(|v| Json::from(v.as_str())).collect()),
        ));
    }
    if let Some(q) = r.at_quantum {
        pairs.push(("at_quantum", Json::from(q)));
    }
    pairs.push(("cached", Json::Bool(cached)));
    Json::obj(pairs)
}

/// `error` — a protocol-level rejection (bad request, rate limit, full
/// queue, shutting down). `code` is always 2, the usage-error exit.
pub fn error_response(id: Option<&str>, message: &str) -> Json {
    Json::obj([
        ("type", Json::from("error")),
        (
            "id",
            id.map(Json::from).unwrap_or(Json::Null),
        ),
        ("code", Json::from(u64::from(aadl2acsr::EXIT_INPUT_ERROR))),
        ("error", Json::from(message)),
    ])
}

/// `status` for one job.
pub fn status_job(id: &str, job: &str, state: &str, result: Option<&JobResult>) -> Json {
    let mut pairs = vec![
        ("type", Json::from("status")),
        ("id", Json::from(id)),
        ("job", Json::from(job)),
        ("state", Json::from(state)),
    ];
    if let Some(r) = result {
        pairs.push(("verdict", Json::from(r.verdict.as_str())));
        pairs.push(("code", Json::from(u64::from(r.code))));
    }
    Json::obj(pairs)
}

/// `status` summary of the whole daemon.
pub fn status_summary(id: &str, queue_depth: usize, jobs_running: usize, draining: bool) -> Json {
    Json::obj([
        ("type", Json::from("status")),
        ("id", Json::from(id)),
        ("queue_depth", Json::from(queue_depth)),
        ("jobs_running", Json::from(jobs_running)),
        ("shutting_down", Json::Bool(draining)),
    ])
}

/// `cancelled` — acknowledgement of a `cancel`, with the state the job was
/// observed in (`"queued"` | `"running"` | `"done"` | `"unknown"`).
pub fn cancelled_response(id: &str, job: &str, was: &str) -> Json {
    Json::obj([
        ("type", Json::from("cancelled")),
        ("id", Json::from(id)),
        ("job", Json::from(job)),
        ("was", Json::from(was)),
    ])
}

/// `shutting-down` — acknowledgement of a `shutdown`.
pub fn shutting_down(id: &str) -> Json {
    Json::obj([
        ("type", Json::from("shutting-down")),
        ("id", Json::from(id)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_request_round_trips() {
        let line = r#"{"type":"analyze","id":"r1","model":"package P end P;","options":{"exhaustive":true,"max_states":2,"timeout_ms":5000}}"#;
        let req = parse_request(line).unwrap();
        match req {
            Request::Analyze {
                id,
                source,
                options,
            } => {
                assert_eq!(id, "r1");
                assert_eq!(source, ModelSource::Inline("package P end P;".into()));
                assert!(options.exhaustive);
                assert_eq!(options.max_states, Some(2));
                assert_eq!(options.timeout_ms, Some(5000));
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn digest_is_stable_and_option_sensitive() {
        let a = AnalyzeOptions::default();
        let mut b = AnalyzeOptions::default();
        assert_eq!(job_digest("src", &a), job_digest("src", &a));
        assert_eq!(job_digest("src", &a).len(), 16);
        b.exhaustive = true;
        assert_ne!(job_digest("src", &a), job_digest("src", &b));
        // The timeout participates in the digest: different deadline policy,
        // different job.
        let mut c = AnalyzeOptions::default();
        c.timeout_ms = Some(1);
        assert_ne!(job_digest("src", &a), job_digest("src", &c));
        assert_ne!(job_digest("src", &a), job_digest("other", &a));
    }

    #[test]
    fn introspection_requests_parse_and_classify() {
        for (line, intro) in [
            (r#"{"type":"stats","id":"s1"}"#, true),
            (r#"{"type":"health","id":"h1"}"#, true),
            (r#"{"type":"flight","id":"f1"}"#, true),
            (r#"{"type":"metrics","id":"m1"}"#, false),
            (r#"{"type":"status","id":"q1"}"#, false),
        ] {
            let req = parse_request(line).unwrap();
            assert_eq!(req.is_introspection(), intro, "{line}");
        }
        // Introspection still requires an id, like every request.
        assert!(parse_request(r#"{"type":"stats"}"#).is_err());
    }

    #[test]
    fn malformed_requests_are_protocol_errors() {
        for bad in [
            "not json",
            r#"{"type":"analyze"}"#,                          // no id
            r#"{"type":"explode","id":"x"}"#,                 // unknown type
            r#"{"type":"analyze","id":"x"}"#,                 // no model/file
            r#"{"type":"cancel","id":"x"}"#,                  // no job
            r#"{"type":"analyze","id":"x","model":"m","options":{"bogus":1}}"#,
            r#"{"type":"analyze","id":"x","model":"m","file":"f"}"#,
        ] {
            assert!(parse_request(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn removed_engine_options_are_unknown() {
        // The memo is always on and every verdict comes from one sequential
        // delay-zone search with one edge cap, advancing in closed form, so
        // none of these knobs exists on the wire any more.
        for (opt, val) in [
            ("memo", "false"),
            ("zone_advance", r#""replay""#),
            ("zones", "true"),
            ("zone_cap", "64"),
            ("threads", "2"),
        ] {
            let line = format!(
                r#"{{"type":"analyze","id":"x","model":"m","options":{{"{opt}":{val}}}}}"#
            );
            let err = parse_request(&line).unwrap_err();
            assert_eq!(err, format!("unknown option `{opt}`"), "{line}");
        }
    }

    #[test]
    fn responses_render_fixed_field_order() {
        assert_eq!(
            accepted("r1", "aabbccdd00112233", false).to_compact(),
            r#"{"type":"accepted","id":"r1","job":"aabbccdd00112233","coalesced":false}"#
        );
        assert_eq!(
            error_response(None, "bad JSON").to_compact(),
            r#"{"type":"error","id":null,"code":2,"error":"bad JSON"}"#
        );
        let r = JobResult::unknown("timeout");
        assert_eq!(
            result_response("r2", "ffff000011112222", &r, false).to_compact(),
            r#"{"type":"result","id":"r2","job":"ffff000011112222","verdict":"unknown","code":3,"reason":"timeout","cached":false}"#
        );
    }
}
