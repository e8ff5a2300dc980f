//! # versa — state-space exploration for ACSR models
//!
//! A from-scratch reimplementation of the role the VERSA tool (Clarke, Lee,
//! Xie 1995) plays in the paper *Schedulability Analysis of AADL Models*
//! (Sokolsky, Lee, Clarke; IPDPS 2006, §5):
//!
//! > Since the schedulability problem is reduced in ACSR to the problem of
//! > deadlock detection, VERSA can be used to perform schedulability analysis.
//! > If VERSA finds a deadlock in the model, it reports a trace leading from
//! > the start state to the deadlocked state.
//!
//! The explorer builds the *prioritized* transition system of a ground ACSR
//! term (see [`acsr::prio`]), interning states so each is expanded exactly
//! once, and records a parent pointer per state so that any deadlock can be
//! turned into a shortest counterexample [`Trace`]. States are hash-consed
//! through an [`acsr::TermStore`] and successors are memoized per subterm
//! (see [`acsr::StepSession`]). One engine does every search, over a *zone
//! graph*: forced runs of quanta collapse into weighted delay edges, walked
//! in closed form once they grow long, so a long hyperperiod costs little
//! more than its branch points (this addresses the paper's future-work note
//! on "improving the state-space exploration efficiency of VERSA", §7). An
//! LTS export ([`Options::collect_lts`]) runs the same search with every
//! edge one quantum long, which makes it a per-quantum breadth-first search
//! that records each edge. The search is sequential: each frontier state is
//! expanded and merged in frontier order, so results are reproducible bit
//! for bit. A deliberately plain explorer over the bare step relation,
//! [`reference::explore_reference`], is the executable specification the
//! differential test suites hold the engine to.
//!
//! ```
//! use acsr::prelude::*;
//! use versa::{explore, Options};
//!
//! // A one-shot process deadlocks after its only step.
//! let env = Env::new();
//! let p = act([(Res::new("cpu"), 1)], nil());
//! let ex = explore(&env, &p, &Options::default());
//! assert_eq!(ex.num_states(), 2);
//! assert_eq!(ex.deadlocks.len(), 1);
//! let trace = ex.first_deadlock_trace().unwrap();
//! assert_eq!(trace.steps.len(), 1);
//! ```

mod cache;
pub mod explore;
pub mod lts;
pub mod reference;
pub mod trace;
pub mod walk;
mod zones;

pub use explore::{explore, CancelToken, Exploration, Options, Stats, StateId};
pub use lts::Lts;
pub use trace::Trace;
pub use walk::{random_walk, Walk};
pub use zones::{LEARN_AFTER, LEARN_AFTER_VOLUME};
