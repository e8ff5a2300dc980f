//! `served` — analysis-as-a-service for AADL schedulability.
//!
//! The paper's workflow (§5) is interactive: a designer iterates on a model
//! and re-checks schedulability after every edit. A cold `aadlsched` process
//! pays process start-up on each run; this crate keeps the analysis engine
//! resident instead. `aadlschedd` is a long-running TCP daemon speaking a
//! line-delimited JSON protocol (`PROTOCOL.md`), with:
//!
//! * **request-owned memory**: each request interns into the term store its
//!   own translation creates, and that store is freed once the reply has
//!   gone out, so memory does not grow with the number of models served;
//! * **duplicate coalescing** — identical (model, options) requests join the
//!   in-flight exploration instead of duplicating it — and a bounded
//!   **result cache** behind the same digest;
//! * an optional **cross-run artifact store** (`--store`, the [`cas`]
//!   crate): explorations consult and deposit verdict artifacts on disk,
//!   and the result cache survives restarts — persisted on graceful drain
//!   ([`persist`]), boot-warmed before the first connection;
//! * per-request **state budgets**, **wall-clock timeouts** (via the
//!   cooperative [`versa::CancelToken`]) and bounded retries;
//! * per-client **rate limiting** and a bounded request queue that rejects
//!   under overload instead of buffering without bound;
//! * **request-scoped tracing** ([`trace`], DESIGN.md §15): every request
//!   becomes one `served.request` span tree with per-stage durations, and
//!   the engine's own spans nest under its `served.exec` via a scoped
//!   recorder;
//! * **live introspection** (`stats`, `health`) and a bounded **flight
//!   recorder** (`flight`) holding the last N request events, dumped on
//!   panic-retry / timeout / queue-full and drained into the fleet report;
//! * **graceful drain** on shutdown and fleet metrics through the
//!   schema-versioned `obs` report sink.
//!
//! The layering is listener → [`queue::BoundedQueue`] → [`jobs::JobTable`]
//! → worker pool; see `DESIGN.md` §14. The wire protocol lives in [`wire`],
//! the daemon loop in [`server`]; `aadlschedc` is a thin stdin-free client
//! used by the CI smoke stage and the experiments.

pub mod jobs;
pub mod limiter;
pub mod persist;
pub mod queue;
pub mod server;
pub mod trace;
pub mod wire;

pub use server::{run, Config, Daemon};
