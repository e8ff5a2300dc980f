//! # ACSR — the Algebra of Communicating Shared Resources
//!
//! A from-scratch Rust implementation of the real-time process algebra ACSR
//! (Lee, Brémond-Grégoire, Gerber, *Proceedings of the IEEE*, 1994), as used by
//! Sokolsky, Lee & Clarke, *Schedulability Analysis of AADL Models* (IPDPS 2006)
//! for the formal analysis of AADL architectural models.
//!
//! ACSR is a discrete-time process algebra in which **resources** are a
//! first-class semantic notion. Processes take two kinds of steps:
//!
//! * **Timed actions** — sets of `(resource, priority)` pairs. An action takes
//!   exactly one time quantum and requires exclusive access to every resource it
//!   names. Time is global: in a parallel composition every component must
//!   contribute a timed action for time to advance (rule *Par3* requires the
//!   resource sets to be disjoint). The empty action `{}` is *idling*.
//! * **Instantaneous events** — CCS-style send/receive communication `(e!, p)` /
//!   `(e?, p)` with priorities, synchronising into an internal step `τ@e`.
//!
//! A **preemption relation** over labels (see [`prio`]) removes lower-priority
//! alternatives from the transition relation; this is the mechanism by which
//! scheduling disciplines are encoded (the priority of the access to the
//! processor resource *is* the scheduling priority).
//!
//! ## Crate layout
//!
//! | module | contents |
//! |--------|----------|
//! | [`symbol`] | interned names for events, resources, processes |
//! | [`expr`]   | integer/boolean expressions over process parameters |
//! | [`term`]   | the process term language (prefix, choice, parallel, scope, restriction, closure, recursion) |
//! | [`mod@env`] | process definitions, parameterized recursion, provenance tags |
//! | [`hashed`] | the deterministic FNV-1a hasher behind structural digests |
//! | [`store`]  | the hash-consed term store ([`TermStore`]): one canonical `Arc` and one [`TermId`] per structure |
//! | [`label`]  | ground transition labels |
//! | [`step`]   | the unprioritized operational semantics, plain ([`steps`]) and interned + memoized ([`StepSession`]) |
//! | [`prio`]   | the preemption relation and the prioritized transition relation |
//! | [`zone`]   | delay zones: forced-run detection and bulk time advance over interned terms |
//! | [`pretty`] | display of terms and labels in VERSA-like notation |
//!
//! ## Example — the first steps of the `Simple` process of Fig. 2 of the paper
//!
//! ```
//! use acsr::prelude::*;
//!
//! let mut env = Env::new();
//! let cpu = Res::new("cpu");
//! let bus = Res::new("bus");
//! let done = Symbol::new("done");
//!
//! // Simple = {(cpu,1)} : {(cpu,1),(bus,1)} : (done!,1) . Simple
//! let simple = env.declare("Simple", 0);
//! env.set_body(
//!     simple,
//!     act(
//!         [(cpu, 1)],
//!         act([(cpu, 1), (bus, 1)], evt_send(done, 1, invoke(simple, []))),
//!     ),
//! );
//! let p = invoke(simple, []);
//! let steps = prioritized_steps(&env, &p);
//! assert_eq!(steps.len(), 1); // only the first computation step is offered
//! ```

pub mod advance;
pub mod env;
pub mod expr;
pub mod hashed;
pub mod skeleton;
pub mod label;
pub mod pretty;
pub mod prio;
pub mod runner;
pub mod stable;
pub mod step;
pub mod store;
pub mod symbol;
pub mod term;
pub mod zone;

pub use advance::{Advance, AdvanceCache, AdvanceStats};
pub use env::{DefId, Env, ProcDef, TagId};
pub use expr::{BExpr, EvalError, Expr};
pub use label::{Dir, GAction, Label};
pub use prio::{preempts, prioritize, prioritized_steps};
pub use runner::{forced_run_closed, RunOutcome};
pub use stable::{env_fingerprint, stable_digest};
pub use step::{steps, MemoConfig, MemoStats, StepSession};
pub use store::{Interned, TermId, TermStore};
pub use symbol::{Res, Symbol};
pub use term::{
    act, act_tagged, choice, close, evt_recv, evt_send, guard, invoke, nil, par, restrict, scope,
    tau, ActionT, EvKind, EventT, Proc, TimeBound, P,
};
pub use zone::{delay_bound, forced_run, step_delay, ForcedRun};

/// Commonly used items, for glob import in tests and downstream crates.
pub mod prelude {
    pub use crate::env::{DefId, Env, TagId};
    pub use crate::expr::{BExpr, Expr};
    pub use crate::label::{Dir, GAction, Label};
    pub use crate::prio::{preempts, prioritized_steps};
    pub use crate::step::steps;
    pub use crate::symbol::{Res, Symbol};
    pub use crate::term::{
        act, act_tagged, choice, close, evt_recv, evt_send, guard, invoke, nil, par, restrict,
        scope, tau, ActionT, EvKind, EventT, Proc, TimeBound, P,
    };
}
