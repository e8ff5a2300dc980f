//! `aadlschedd` — the AADL schedulability analysis daemon.
//!
//! ```text
//! aadlschedd [options]
//!
//! options:
//!   --addr <host:port>        listen address (default 127.0.0.1:0 = ephemeral)
//!   --workers <n>             analysis worker threads (default 2)
//!   --queue-capacity <n>      bounded request queue (default 64)
//!   --rate-limit <n>          per-client requests/second, 0 = unlimited
//!   --burst <n>               rate-limit burst capacity (default 8)
//!   --default-timeout-ms <n>  default per-request wall-clock timeout
//!   --max-states <n>          daemon-wide state budget clamp (zone-graph
//!                             states: branch points, deadlocks, run
//!                             endpoints — not quanta)
//!   --cache-capacity <n>      completed results kept for cache hits
//!                             (default 128; 0 = always recompute, and a
//!                             --store daemon neither boot-warms nor
//!                             persists the cache)
//!   --retries <n>             retries on transient analysis failures
//!   --metrics <file>          write the fleet metrics report on shutdown
//!   --no-trace                disable request-scoped tracing, the flight
//!                             recorder and per-stage histograms (the
//!                             engine then runs on a disabled recorder)
//!   --flight-capacity <n>     flight-recorder window size (default 64)
//!   --span-cap <n>            span- and event-log cap for the daemon's
//!                             whole life, not per request (a traced
//!                             request records 4-9 spans); excess entries
//!                             are dropped and counted (default 65536)
//!   --store <dir>             cross-run artifact store: explorations
//!                             consult/deposit verdict artifacts there, the
//!                             result cache is boot-warmed from it, and a
//!                             graceful drain persists the cache back
//!                             (both skipped at --cache-capacity 0);
//!                             readonly:<dir> serves hits without writing
//! ```
//!
//! On startup the daemon prints `aadlschedd listening on <addr>` — parse
//! that line to discover the ephemeral port. It exits 0 after a graceful
//! `shutdown` request, 2 on usage errors.
//!
//! Set `AADLSCHED_FAKE_CLOCK=<ns>` for byte-deterministic runs (pair it
//! with `--rate-limit 0`, the default, so the request path reads no clock).

use std::process::ExitCode;

use served::Config;

fn usage() -> ExitCode {
    eprintln!(
        "usage: aadlschedd [--addr <host:port>] [--workers <n>] \
         [--queue-capacity <n>] [--rate-limit <n>] [--burst <n>] \
         [--default-timeout-ms <n>] [--max-states <n>] [--cache-capacity <n>] \
         [--retries <n>] [--metrics <file>] \
         [--no-trace] [--flight-capacity <n>] [--span-cap <n>] \
         [--store <dir|readonly:dir>]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config::default();
    let mut raw = std::env::args().skip(1);
    while let Some(flag) = raw.next() {
        let mut val = |what: &str| raw.next().ok_or(format!("{what} needs a value"));
        match flag.as_str() {
            "--addr" => cfg.addr = val("--addr")?,
            "--workers" => {
                cfg.workers = val("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--queue-capacity" => {
                cfg.queue_capacity = val("--queue-capacity")?
                    .parse()
                    .map_err(|e| format!("--queue-capacity: {e}"))?
            }
            "--rate-limit" => {
                cfg.rate_limit = val("--rate-limit")?
                    .parse()
                    .map_err(|e| format!("--rate-limit: {e}"))?
            }
            "--burst" => {
                cfg.burst = val("--burst")?
                    .parse()
                    .map_err(|e| format!("--burst: {e}"))?
            }
            "--default-timeout-ms" => {
                cfg.default_timeout_ms = Some(
                    val("--default-timeout-ms")?
                        .parse()
                        .map_err(|e| format!("--default-timeout-ms: {e}"))?,
                )
            }
            "--max-states" => {
                cfg.max_states = val("--max-states")?
                    .parse()
                    .map_err(|e| format!("--max-states: {e}"))?
            }
            "--cache-capacity" => {
                cfg.cache_capacity = val("--cache-capacity")?
                    .parse()
                    .map_err(|e| format!("--cache-capacity: {e}"))?
            }
            "--retries" => {
                cfg.retries = val("--retries")?
                    .parse()
                    .map_err(|e| format!("--retries: {e}"))?
            }
            "--metrics" => cfg.metrics_path = Some(val("--metrics")?),
            "--no-trace" => cfg.trace = false,
            "--flight-capacity" => {
                cfg.flight_capacity = val("--flight-capacity")?
                    .parse()
                    .map_err(|e| format!("--flight-capacity: {e}"))?
            }
            "--span-cap" => {
                cfg.span_cap = val("--span-cap")?
                    .parse()
                    .map_err(|e| format!("--span-cap: {e}"))?
            }
            "--store" => {
                let spec = val("--store")?;
                match spec.strip_prefix("readonly:") {
                    Some(dir) if !dir.is_empty() => {
                        cfg.store = Some(dir.to_string());
                        cfg.store_readonly = true;
                    }
                    Some(_) => return Err("--store readonly: needs a directory".into()),
                    None => cfg.store = Some(spec),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    match served::run(cfg) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
