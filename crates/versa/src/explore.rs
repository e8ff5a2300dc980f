//! Exploration of the prioritized transition system.
//!
//! States are ground ACSR terms, interned into dense [`StateId`]s. Every
//! search finds the first deadlock along a *shortest* trace — the most
//! readable failing scenario to raise back to the AADL level. [`explore`]
//! runs one engine, the zone search of the `zones` module, at one of two
//! edge granularities:
//!
//! * verdict runs (no [`Options::collect_lts`]) collapse forced runs of
//!   quanta into weighted delay edges of up to [`Options::zone_cap`] steps
//!   and search the resulting zone graph in shortest-depth order;
//! * LTS runs ([`Options::collect_lts`], the `--dot` export) fix the edge
//!   cap at 1, so every per-quantum step is its own unit edge: the search
//!   is then a plain breadth-first search that materializes one state per
//!   quantum and records every edge into the [`Lts`].
//!
//! Verdicts, deadlock counts and counterexample timelines agree between the
//! two; only [`Stats`] differ (the zone graph is far smaller).
//!
//! States live in a hash-consed [`TermStore`]: every term is interned to a
//! [`TermId`](acsr::TermId) whose equality *is* structural equality, and
//! successor lists are memoized per subterm by an
//! [`StepSession`](acsr::StepSession) (see [`acsr::store`] and
//! [`acsr::step`]) — revisiting the skeleton states of a periodic task model
//! costs a cache hit instead of a re-derivation.
//!
//! The search runs on the calling thread: each frontier state is expanded
//! and merged into the visited set before the next, in frontier order, so
//! state ids, deadlock sets, statistics and shortest-counterexample traces
//! come out in one order. ([`TermId`](acsr::TermId) values are reproducible
//! run to run too, but they never appear in results.)

use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use acsr::{Env, Label, TermStore, P};

use crate::lts::Lts;
use crate::trace::Trace;

/// Dense identifier of an interned state.
///
/// Ids are assigned in discovery order, so `StateId(0)` is always the
/// initial state.
///
/// # Examples
///
/// ```
/// use acsr::prelude::*;
/// use versa::{explore, Options, StateId};
///
/// let env = Env::new();
/// let ex = explore(&env, &act([(Res::new("cpu"), 1)], nil()), &Options::default());
/// assert_eq!(ex.initial(), StateId(0));
/// assert_eq!(StateId(1).index(), 1);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StateId(pub u32);

impl StateId {
    /// The raw index into the exploration's state table.
    ///
    /// # Examples
    ///
    /// ```
    /// assert_eq!(versa::StateId(7).index(), 7);
    /// ```
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A cooperative cancellation token for in-flight explorations.
///
/// Cloning shares the token: hand one clone to [`Options::cancel`] and keep
/// another on the controlling thread (a request handler, a deadline watchdog,
/// a signal handler). [`CancelToken::cancel`] is sticky — there is no reset —
/// and the explorer polls it at every frontier state, so even a single
/// enormous frontier reacts promptly. A cancelled run comes back with
/// [`Exploration::cancelled`] set and is never reported schedulable.
///
/// # Examples
///
/// ```
/// use acsr::prelude::*;
/// use versa::{explore, CancelToken, Options};
///
/// let token = CancelToken::new();
/// token.cancel();
/// let env = Env::new();
/// let p = act([(Res::new("cpu"), 1)], nil());
/// let ex = explore(&env, &p, &Options::default().with_cancel(token.clone()));
/// assert!(ex.cancelled);
/// assert!(!ex.deadlock_free()); // cancelled ⇒ no verdict, never "free"
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    ///
    /// # Examples
    ///
    /// ```
    /// let t = versa::CancelToken::new();
    /// assert!(!t.is_cancelled());
    /// ```
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent and irreversible; all clones of the
    /// token observe it.
    ///
    /// # Examples
    ///
    /// ```
    /// let t = versa::CancelToken::new();
    /// let watcher = t.clone();
    /// t.cancel();
    /// assert!(watcher.is_cancelled());
    /// ```
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Exploration options.
///
/// # Examples
///
/// ```
/// use versa::Options;
///
/// let opts = Options::default().with_max_states(10_000);
/// assert_eq!(opts.max_states, 10_000);
/// assert!(!opts.stop_at_first_deadlock);
/// ```
#[derive(Clone, Debug)]
pub struct Options {
    /// State budget: intern at most this many states. A run that needs one
    /// more stops and is marked [`Exploration::truncated`] (verdict
    /// "unknown"); a run that completes within the budget is not, even when
    /// it interns exactly `max_states` states. Verdict runs count zone-graph
    /// states, LTS runs count every per-quantum state.
    pub max_states: usize,
    /// Stop as soon as the first deadlock is found (its trace is still
    /// shortest: the search order guarantees no shorter deadlock exists).
    pub stop_at_first_deadlock: bool,
    /// Record the full labelled transition relation (needed for [`Lts`]
    /// export; costs memory proportional to the number of transitions).
    /// The search then runs with an edge cap of 1 instead of
    /// [`Options::zone_cap`]: a delay edge is not a step of the concrete
    /// transition relation, so every per-quantum step becomes its own unit
    /// edge and state. Such runs never touch [`Options::cas`].
    pub collect_lts: bool,
    /// Share a pre-populated term store (e.g. the one the AADL translation
    /// interned the model through) instead of starting empty. `None` gives
    /// the run a fresh private store.
    pub store: Option<Rc<TermStore>>,
    /// Cooperative cancellation token, polled at every frontier state. The
    /// default token is private to this `Options` value and never cancelled;
    /// install a shared clone (see [`Options::with_cancel`]) to stop the run
    /// from another thread.
    pub cancel: CancelToken,
    /// Observability recorder. Disabled by default — every instrument the
    /// exploration touches is then an inert handle, so the instrumented hot
    /// path costs nothing observable (see `crates/obs`). Enable it (and
    /// optionally arm progress reporting) to get one `explore` span, the
    /// per-bucket frontier and discovery histograms, the dedup, zone and
    /// memo counters, and the peak state-store gauge.
    pub obs: obs::Recorder,
    /// Persistent cross-run artifact store (see `crates/cas` and the
    /// `cache` module). `None` (the default) disables consulting and
    /// depositing entirely — the engine then behaves byte-identically to
    /// pre-store builds. With a store, a run whose
    /// `(model, environment, context, options)` key was deposited by an
    /// earlier run replays the recorded verdict instead of exploring.
    pub cas: Option<Arc<cas::CasStore>>,
    /// Caller context mixed into the store key — the canonical fingerprint
    /// of whatever produced `initial` (for the AADL pipeline, the canonical
    /// translation options). Two calls that differ only in this string
    /// never share artifacts.
    pub cas_context: String,
    /// Per-quantum steps a single delay edge of the zone graph may span.
    /// Longer forced runs become several chained edges — the cap bounds the
    /// work between two cancellation polls and doubles as the cycle horizon
    /// for closed idle loops. Any value changes only edge granularity, never
    /// verdicts, deadlock sets or trace timelines. `0` is treated as `1`.
    /// LTS runs ([`Options::collect_lts`]) always use `1`.
    pub zone_cap: usize,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            max_states: usize::MAX,
            stop_at_first_deadlock: false,
            collect_lts: false,
            store: None,
            cancel: CancelToken::new(),
            obs: obs::Recorder::disabled(),
            cas: None,
            cas_context: String::new(),
            zone_cap: 4096,
        }
    }
}

impl Options {
    /// Preset for schedulability verdicts: stop at the first deadlock.
    ///
    /// # Examples
    ///
    /// ```
    /// assert!(versa::Options::verdict().stop_at_first_deadlock);
    /// ```
    pub fn verdict() -> Options {
        Options {
            stop_at_first_deadlock: true,
            ..Options::default()
        }
    }

    /// Record the labelled transition relation ([`Options::collect_lts`]),
    /// which explores one state per quantum.
    ///
    /// # Examples
    ///
    /// ```
    /// assert!(versa::Options::verdict().with_lts().collect_lts);
    /// ```
    pub fn with_lts(mut self) -> Options {
        self.collect_lts = true;
        self
    }

    /// Set the state budget.
    ///
    /// # Examples
    ///
    /// ```
    /// assert_eq!(versa::Options::default().with_max_states(100).max_states, 100);
    /// ```
    pub fn with_max_states(mut self, max: usize) -> Options {
        self.max_states = max;
        self
    }

    /// Share an existing term store with the run.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::rc::Rc;
    ///
    /// let store = Rc::new(acsr::TermStore::new());
    /// let opts = versa::Options::default().with_store(store.clone());
    /// assert!(opts.store.is_some());
    /// ```
    pub fn with_store(mut self, store: Rc<TermStore>) -> Options {
        self.store = Some(store);
        self
    }

    /// Install a shared cancellation token (see [`CancelToken`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use versa::{CancelToken, Options};
    ///
    /// let token = CancelToken::new();
    /// let opts = Options::default().with_cancel(token.clone());
    /// token.cancel();
    /// assert!(opts.cancel.is_cancelled());
    /// ```
    pub fn with_cancel(mut self, cancel: CancelToken) -> Options {
        self.cancel = cancel;
        self
    }

    /// Attach an observability recorder (see `crates/obs`). The serving
    /// layer passes a request-scoped clone ([`obs::Recorder::scoped`]) so
    /// the `explore` span tree lands under that request's anchor span,
    /// tagged with its request sequence number.
    ///
    /// # Examples
    ///
    /// ```
    /// let opts = versa::Options::default().with_obs(obs::Recorder::enabled());
    /// assert!(opts.obs.is_enabled());
    /// ```
    pub fn with_obs(mut self, obs: obs::Recorder) -> Options {
        self.obs = obs;
        self
    }

    /// Attach a persistent cross-run artifact store (see `crates/cas`).
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    ///
    /// let dir = std::env::temp_dir().join("versa-doc-cas");
    /// let store = Arc::new(cas::CasStore::open(&dir, cas::Mode::ReadWrite).unwrap());
    /// let opts = versa::Options::default().with_cas(store);
    /// assert!(opts.cas.is_some());
    /// ```
    pub fn with_cas(mut self, store: Arc<cas::CasStore>) -> Options {
        self.cas = Some(store);
        self
    }

    /// Set the caller-context string mixed into store keys (see
    /// [`Options::cas_context`]).
    ///
    /// # Examples
    ///
    /// ```
    /// let opts = versa::Options::default().with_cas_context("protocol=pcp");
    /// assert_eq!(opts.cas_context, "protocol=pcp");
    /// ```
    pub fn with_cas_context(mut self, context: impl Into<String>) -> Options {
        self.cas_context = context.into();
        self
    }

    /// Set the zone-graph edge cap (see [`Options::zone_cap`]).
    ///
    /// # Examples
    ///
    /// ```
    /// assert_eq!(versa::Options::default().with_zone_cap(64).zone_cap, 64);
    /// ```
    pub fn with_zone_cap(mut self, cap: usize) -> Options {
        self.zone_cap = cap;
        self
    }
}

/// Aggregate statistics of one exploration run.
///
/// # Examples
///
/// ```
/// use acsr::prelude::*;
/// use versa::{explore, Options};
///
/// // Two forced timed steps to NIL collapse into one delay edge: 2 states,
/// // 1 transition, 2 levels (the root and the deadlock two quanta later).
/// let env = Env::new();
/// let p = act([(Res::new("cpu"), 1)], act([(Res::new("cpu"), 1)], nil()));
/// let stats = explore(&env, &p, &Options::default()).stats;
/// assert_eq!((stats.states, stats.transitions, stats.levels), (2, 1, 2));
/// // An LTS run (edge cap 1) materializes the middle state too.
/// let lts = Options { collect_lts: true, ..Options::default() };
/// let stats = explore(&env, &p, &lts).stats;
/// assert_eq!((stats.states, stats.transitions, stats.levels), (3, 2, 3));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Number of interned states.
    pub states: usize,
    /// Number of transitions traversed (post-prioritization).
    pub transitions: usize,
    /// Number of deadlocked states found.
    pub deadlocks: usize,
    /// Largest frontier (one depth's worth of unexpanded states) encountered.
    pub peak_frontier: usize,
    /// Number of frontiers expanded (distinct depths, in per-quantum steps,
    /// at which states were settled).
    pub levels: usize,
    /// Transitions whose target state was already interned — cross- and
    /// back-edges merged by the visited set. `transitions - dedup_hits` is
    /// the number of *fresh* discoveries (≈ `states - 1`).
    pub dedup_hits: usize,
    /// Successor lists served from the step memo.
    pub memo_hits: u64,
    /// Successor lists derived fresh by the step memo.
    pub memo_misses: u64,
    /// Memo entries dropped by the FIFO capacity bound.
    pub memo_evictions: u64,
    /// Structurally-unique subterms interned into the run's term store by the
    /// end of the exploration.
    pub unique_subterms: usize,
    /// Wall-clock duration of the exploration.
    pub duration: Duration,
}

impl fmt::Display for Stats {
    /// One-line summary of the run, suitable for tool output.
    ///
    /// # Examples
    ///
    /// ```
    /// use acsr::prelude::*;
    /// use versa::{explore, Options};
    ///
    /// let env = Env::new();
    /// let p = act([(Res::new("cpu"), 1)], act([(Res::new("cpu"), 1)], nil()));
    /// let line = explore(&env, &p, &Options::default()).stats.to_string();
    /// assert!(line.starts_with("2 states, 1 transitions"));
    /// assert!(line.contains("2 levels"));
    /// assert!(line.contains("0 dedup hits"));
    /// ```
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} states, {} transitions, {} levels, peak frontier {}, \
             {} dedup hits, {} deadlock(s) in {:?}",
            self.states,
            self.transitions,
            self.levels,
            self.peak_frontier,
            self.dedup_hits,
            self.deadlocks,
            self.duration
        )
    }
}

impl Stats {
    /// Serialize as 11 little-endian `u64`s (the ten counts in declaration
    /// order, then the duration in nanoseconds) — the fixed-width form the
    /// `cas` artifact payload and the daemon's drain-persist snapshot embed.
    ///
    /// # Examples
    ///
    /// ```
    /// let stats = versa::Stats { states: 7, ..Default::default() };
    /// let bytes = stats.to_bytes();
    /// assert_eq!(versa::Stats::from_bytes(&bytes).unwrap().states, 7);
    /// ```
    pub fn to_bytes(&self) -> [u8; 88] {
        let words: [u64; 11] = [
            self.states as u64,
            self.transitions as u64,
            self.deadlocks as u64,
            self.peak_frontier as u64,
            self.levels as u64,
            self.dedup_hits as u64,
            self.memo_hits,
            self.memo_misses,
            self.memo_evictions,
            self.unique_subterms as u64,
            u64::try_from(self.duration.as_nanos()).unwrap_or(u64::MAX),
        ];
        let mut out = [0u8; 88];
        for (chunk, w) in out.chunks_exact_mut(8).zip(words) {
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Inverse of [`Stats::to_bytes`]. `None` unless `bytes` is exactly 88
    /// bytes (or a count overflows `usize` on this platform).
    ///
    /// # Examples
    ///
    /// ```
    /// assert!(versa::Stats::from_bytes(&[0u8; 17]).is_none());
    /// assert!(versa::Stats::from_bytes(&[0u8; 88]).is_some());
    /// ```
    pub fn from_bytes(bytes: &[u8]) -> Option<Stats> {
        if bytes.len() != 88 {
            return None;
        }
        let mut words = [0u64; 11];
        for (chunk, w) in bytes.chunks_exact(8).zip(words.iter_mut()) {
            *w = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        }
        Some(Stats {
            states: usize::try_from(words[0]).ok()?,
            transitions: usize::try_from(words[1]).ok()?,
            deadlocks: usize::try_from(words[2]).ok()?,
            peak_frontier: usize::try_from(words[3]).ok()?,
            levels: usize::try_from(words[4]).ok()?,
            dedup_hits: usize::try_from(words[5]).ok()?,
            memo_hits: words[6],
            memo_misses: words[7],
            memo_evictions: words[8],
            unique_subterms: usize::try_from(words[9]).ok()?,
            duration: Duration::from_nanos(words[10]),
        })
    }
}

/// The result of exploring a model.
///
/// A verdict run keeps its zone graph's states, parent pointers and
/// concrete depths, and nothing of a delay edge but its weight (the target's
/// depth minus its parent's). The interior quanta of the delay edges on the
/// paths to the deadlocks are re-derived through the step relation after
/// the search, which is what [`Exploration::trace_to`] reads.
///
/// # Examples
///
/// ```
/// use acsr::prelude::*;
/// use versa::{explore, Options};
///
/// let env = Env::new();
/// let ex = explore(&env, &act([(Res::new("cpu"), 1)], nil()), &Options::default());
/// assert_eq!(ex.num_states(), 2);
/// assert!(!ex.deadlock_free()); // NIL has no steps
/// assert!(!ex.truncated);
/// ```
#[derive(Clone, Debug)]
pub struct Exploration {
    pub(crate) states: Vec<P>,
    /// Predecessor of each state on its shortest trace (`None` for the
    /// initial state).
    pub(crate) parents: Vec<Option<(StateId, Label)>>,
    /// Concrete depth of each state, parallel to `parents`: per-quantum
    /// steps on its shortest trace. A state's depth minus its parent's is
    /// the weight of the edge between them (1 for a unit edge).
    pub(crate) depths: Vec<u64>,
    /// The `w − 1` interior `(label, state)` steps of each delay edge of
    /// weight `w ≥ 2` on a path to a deadlock, keyed by the edge's target
    /// and re-derived from the step relation after the search. Empty for
    /// runs without deadlocks, and for LTS runs (unit edges only); a
    /// cancelled run may hold only the first deadlock's path.
    pub(crate) replayed: HashMap<StateId, Vec<(Label, P)>>,
    /// Deadlocked states (no outgoing prioritized transitions), in discovery
    /// order.
    pub deadlocks: Vec<StateId>,
    /// The labelled transition relation, when requested.
    pub lts: Option<Lts>,
    /// Run statistics.
    pub stats: Stats,
    /// True when `max_states` stopped the search before exhausting the space.
    pub truncated: bool,
    /// True when the run was stopped by its [`CancelToken`] before
    /// exhausting the space. A cancelled exploration is partial: whatever
    /// states were interned before the token fired are present, but no
    /// verdict can be drawn from their absence of deadlocks.
    pub cancelled: bool,
}

impl Exploration {
    /// The initial state (always id 0).
    ///
    /// # Examples
    ///
    /// ```
    /// use acsr::prelude::*;
    /// use versa::{explore, Options, StateId};
    ///
    /// let ex = explore(&Env::new(), &nil(), &Options::default());
    /// assert_eq!(ex.initial(), StateId(0));
    /// ```
    pub fn initial(&self) -> StateId {
        StateId(0)
    }

    /// Number of interned states.
    ///
    /// # Examples
    ///
    /// ```
    /// use acsr::prelude::*;
    /// use versa::{explore, Options};
    ///
    /// let ex = explore(&Env::new(), &nil(), &Options::default());
    /// assert_eq!(ex.num_states(), 1);
    /// ```
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// The term of a state.
    ///
    /// # Examples
    ///
    /// ```
    /// use acsr::prelude::*;
    /// use versa::{explore, Options};
    ///
    /// let ex = explore(&Env::new(), &nil(), &Options::default());
    /// assert!(matches!(&**ex.state(ex.initial()), acsr::Proc::Nil));
    /// ```
    pub fn state(&self, id: StateId) -> &P {
        &self.states[id.index()]
    }

    /// True iff no deadlock was found (and the exploration completed).
    ///
    /// # Examples
    ///
    /// ```
    /// use acsr::prelude::*;
    /// use versa::{explore, Options};
    ///
    /// // NIL deadlocks immediately; an idling loop never does.
    /// assert!(!explore(&Env::new(), &nil(), &Options::default()).deadlock_free());
    /// let mut env = Env::new();
    /// let d = env.declare("Idle", 0);
    /// env.set_body(d, act([] as [(Res, i32); 0], invoke(d, [])));
    /// assert!(explore(&env, &invoke(d, []), &Options::default()).deadlock_free());
    /// ```
    pub fn deadlock_free(&self) -> bool {
        self.deadlocks.is_empty() && !self.truncated && !self.cancelled
    }

    /// Reconstruct the (shortest) trace from the initial state to `target`,
    /// one step per quantum: the interior quanta of each delay edge on the
    /// path are spliced in from the steps replayed after the search.
    ///
    /// Those steps are kept only on the paths to the deadlocks, so this is
    /// `Some` for every deadlock (for a cancelled run, only the first is
    /// certain to have been replayed) and for every state whose path is
    /// all unit edges, which in an LTS run is every state. Any other state
    /// behind a delay edge gives `None`.
    ///
    /// # Examples
    ///
    /// ```
    /// use acsr::prelude::*;
    /// use versa::{explore, Options};
    ///
    /// let env = Env::new();
    /// let p = act([(Res::new("cpu"), 1)], nil());
    /// let ex = explore(&env, &p, &Options::default());
    /// let dead = ex.deadlocks[0];
    /// assert_eq!(ex.trace_to(dead).unwrap().len(), 1);
    /// ```
    pub fn trace_to(&self, target: StateId) -> Option<Trace> {
        let mut path: Vec<StateId> = Vec::new();
        let mut cur = target;
        while self.parents[cur.index()].is_some() {
            path.push(cur);
            let (parent, _) = self.parents[cur.index()].as_ref().expect("just checked");
            cur = *parent;
        }
        path.reverse();
        // Delay edges splice in their replayed interior quanta, appended to
        // the trace's own state table (they were deliberately never
        // materialized in `self.states`). Unit edges, and every edge of an
        // LTS run, are the plain parent walk.
        let mut states = self.states.clone();
        let mut steps: Vec<(Label, StateId)> = Vec::with_capacity(path.len());
        for to in path {
            let (parent, label) = self.parents[to.index()].as_ref().expect("on path");
            if self.depths[to.index()] - self.depths[parent.index()] >= 2 {
                for (label, p) in self.replayed.get(&to)? {
                    states.push(p.clone());
                    steps.push((label.clone(), StateId((states.len() - 1) as u32)));
                }
            }
            steps.push((label.clone(), to));
        }
        Some(Trace {
            initial: StateId(0),
            steps,
            states,
        })
    }

    /// The trace to the first deadlock found, if any.
    ///
    /// # Examples
    ///
    /// ```
    /// use acsr::prelude::*;
    /// use versa::{explore, Options};
    ///
    /// let env = Env::new();
    /// let ex = explore(&env, &act([(Res::new("cpu"), 1)], nil()), &Options::default());
    /// assert_eq!(ex.first_deadlock_trace().unwrap().elapsed_quanta(), 1);
    /// ```
    pub fn first_deadlock_trace(&self) -> Option<Trace> {
        self.deadlocks.first().map(|&d| {
            self.trace_to(d)
                .expect("the first deadlock's path is always replayed")
        })
    }

    /// Depth of a state: the number of per-quantum steps on its shortest
    /// trace, as the search settled it (a lookup; delay edges count their
    /// full per-quantum length).
    ///
    /// # Examples
    ///
    /// ```
    /// use acsr::prelude::*;
    /// use versa::{explore, Options};
    ///
    /// let env = Env::new();
    /// let ex = explore(&env, &act([(Res::new("cpu"), 1)], nil()), &Options::default());
    /// assert_eq!(ex.depth_of(ex.initial()), 0);
    /// assert_eq!(ex.depth_of(ex.deadlocks[0]), 1);
    /// ```
    pub fn depth_of(&self, id: StateId) -> usize {
        self.depths[id.index()] as usize
    }
}

/// Explore the prioritized transition system of `initial` under `env`.
///
/// # Examples
///
/// ```
/// use acsr::prelude::*;
/// use versa::{explore, Options};
///
/// // A choice between a 1-step and a 2-step path to NIL: the search finds
/// // the shortest deadlock first.
/// let env = Env::new();
/// let p = choice([
///     act([(Res::new("cpu"), 1)], nil()),
///     act([(Res::new("bus"), 1)], act([(Res::new("cpu"), 1)], nil())),
/// ]);
/// let ex = explore(&env, &p, &Options::default());
/// assert_eq!(ex.first_deadlock_trace().unwrap().len(), 1);
/// ```
pub fn explore(env: &Env, initial: &P, opts: &Options) -> Exploration {
    crate::zones::explore_zones(env, initial, opts, ID_LIMIT)
}

/// State ids are dense `u32`s; a run that would intern more states than this
/// is truncated gracefully (never a panic — [`Exploration::truncated`] is
/// set, which the CLI reports as verdict "unknown", exit code 3).
const ID_LIMIT: usize = u32::MAX as usize;

#[cfg(test)]
mod tests {
    use super::*;
    use acsr::prelude::*;

    fn cpu() -> Res {
        Res::new("cpu")
    }

    /// P = {(cpu,1)} : P — a one-state loop.
    fn looping(env: &mut Env) -> P {
        let d = env.declare("Looper", 0);
        env.set_body(d, act([(cpu(), 1)], invoke(d, [])));
        invoke(d, [])
    }

    #[test]
    fn loop_explores_to_fixpoint() {
        let mut env = Env::new();
        let p = looping(&mut env);
        let ex = explore(&env, &p, &Options::default());
        // Invoke state + its unfolding successor (the invocation again) — the
        // residual of the prefix is the invocation, so there is exactly 1 state.
        assert_eq!(ex.num_states(), 1);
        assert!(ex.deadlock_free());
        assert_eq!(ex.stats.transitions, 1);
    }

    #[test]
    fn finite_process_deadlocks_at_the_end() {
        let env = Env::new();
        let p = act([(cpu(), 1)], act([(cpu(), 1)], nil()));
        let ex = explore(&env, &p, &Options::default().with_lts());
        assert_eq!(ex.num_states(), 3);
        assert_eq!(ex.deadlocks.len(), 1);
        let t = ex.first_deadlock_trace().unwrap();
        assert_eq!(t.steps.len(), 2);
        assert!(t.steps.iter().all(|(l, _)| l.is_timed()));
    }

    #[test]
    fn bfs_finds_shortest_deadlock() {
        let env = Env::new();
        // Choice between a 1-step path to NIL and a 3-step path to NIL.
        let long = act([(cpu(), 1)], act([(cpu(), 2)], act([(cpu(), 3)], nil())));
        let short = act([(Res::new("bus"), 1)], nil());
        let p = choice([long, short]);
        let ex = explore(&env, &p, &Options::default());
        let t = ex.first_deadlock_trace().unwrap();
        assert_eq!(t.steps.len(), 1);
    }

    #[test]
    fn stop_at_first_deadlock_stops_early() {
        let env = Env::new();
        let p = choice([
            act([(cpu(), 1)], nil()),
            act([(Res::new("bus"), 1)], act([(cpu(), 1)], nil())),
        ]);
        let ex = explore(&env, &p, &Options::verdict());
        assert_eq!(ex.deadlocks.len(), 1);
    }

    #[test]
    fn max_states_truncates() {
        let mut env = Env::new();
        // Counter that never repeats a state: C(n) = {(cpu,1)}:C(n+1).
        let d = env.declare("Counter", 1);
        env.set_body(
            d,
            act([(cpu(), 1)], invoke(d, [Expr::p(0).add(Expr::c(1))])),
        );
        let p = invoke(d, [Expr::c(0)]);
        let ex = explore(
            &env,
            &p,
            &Options::default().with_lts().with_max_states(100),
        );
        assert!(ex.truncated);
        assert_eq!(ex.num_states(), 100);
        assert!(!ex.deadlock_free());
    }

    #[test]
    fn product_of_two_counters_has_lcm_states() {
        let mut env = Env::new();
        // Two counters modulo different bases in parallel: product space.
        let c1 = env.declare("C1", 1);
        env.set_body(
            c1,
            choice([
                guard(
                    BExpr::lt(Expr::p(0), Expr::c(6)),
                    act([(cpu(), 1)], invoke(c1, [Expr::p(0).add(Expr::c(1))])),
                ),
                guard(
                    BExpr::eq(Expr::p(0), Expr::c(6)),
                    act([(cpu(), 1)], invoke(c1, [Expr::c(0)])),
                ),
            ]),
        );
        let c2 = env.declare("C2", 1);
        env.set_body(
            c2,
            choice([
                guard(
                    BExpr::lt(Expr::p(0), Expr::c(4)),
                    act([(Res::new("bus"), 1)], invoke(c2, [Expr::p(0).add(Expr::c(1))])),
                ),
                guard(
                    BExpr::eq(Expr::p(0), Expr::c(4)),
                    act([(Res::new("bus"), 1)], invoke(c2, [Expr::c(0)])),
                ),
            ]),
        );
        let p = par([invoke(c1, [Expr::c(0)]), invoke(c2, [Expr::c(0)])]);
        let ex = explore(&env, &p, &Options::default().with_lts());
        // lcm(7, 5) = 35 product states.
        assert_eq!(ex.num_states(), 35);
        assert!(ex.deadlock_free());
    }

    #[test]
    fn lts_collection_matches_transition_count() {
        let env = Env::new();
        let p = choice([
            act([(cpu(), 1)], nil()),
            evt_send(Symbol::new("go"), 1, nil()),
        ]);
        let ex = explore(&env, &p, &Options::default().with_lts());
        let lts = ex.lts.as_ref().unwrap();
        let total: usize = lts.transitions.iter().map(Vec::len).sum();
        assert_eq!(total, ex.stats.transitions);
        assert_eq!(lts.transitions.len(), ex.num_states());
    }

    #[test]
    fn depth_of_equals_shortest_trace_length_for_every_state() {
        let mut env = Env::new();
        let c1 = env.declare("D", 1);
        env.set_body(
            c1,
            choice([
                guard(
                    BExpr::lt(Expr::p(0), Expr::c(5)),
                    choice([
                        act([(cpu(), 1)], invoke(c1, [Expr::p(0).add(Expr::c(1))])),
                        act([(Res::new("bus"), 1)], invoke(c1, [Expr::p(0).add(Expr::c(2))])),
                    ]),
                ),
                guard(BExpr::eq(Expr::p(0), Expr::c(5)), nil()),
                guard(BExpr::eq(Expr::p(0), Expr::c(6)), nil()),
            ]),
        );
        let p = invoke(c1, [Expr::c(0)]);
        let ex = explore(&env, &p, &Options::default().with_lts());
        assert_eq!(ex.depth_of(ex.initial()), 0);
        for i in 0..ex.num_states() {
            let id = StateId(i as u32);
            // depth_of must agree with the reconstructed shortest trace.
            assert_eq!(ex.depth_of(id), ex.trace_to(id).unwrap().len());
        }
        // BFS invariant: ids are assigned in nondecreasing depth order.
        let depths: Vec<usize> = (0..ex.num_states())
            .map(|i| ex.depth_of(StateId(i as u32)))
            .collect();
        assert!(depths.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn shared_store_is_reused_across_runs() {
        let env = Env::new();
        let p = act([(cpu(), 1)], act([(cpu(), 2)], nil()));
        let store = Rc::new(acsr::TermStore::new());
        let first = explore(&env, &p, &Options::default().with_store(store.clone()));
        let after_first = store.len();
        assert_eq!(first.stats.unique_subterms, after_first);
        // A second run over the same model adds nothing new to the store.
        let second = explore(&env, &p, &Options::default().with_store(store.clone()));
        assert_eq!(store.len(), after_first);
        assert_eq!(second.stats.unique_subterms, after_first);
        assert_eq!(first.num_states(), second.num_states());
    }

    #[test]
    fn stats_track_levels_and_frontier() {
        let env = Env::new();
        let p = act([(cpu(), 1)], act([(cpu(), 1)], nil()));
        let ex = explore(&env, &p, &Options::default().with_lts());
        assert_eq!(ex.stats.levels, 3); // two expansions + the deadlocked leaf
        assert!(ex.stats.peak_frontier >= 1);
        assert_eq!(ex.stats.states, 3);
    }

    #[test]
    fn recorder_summarizes_buckets_in_two_histograms() {
        let env = Env::new();
        let p = act([(cpu(), 1)], act([(cpu(), 1)], nil()));
        let rec = obs::Recorder::with_clock(Box::new(obs::FakeClock::new(1)));
        let ex = explore(
            &env,
            &p,
            &Options::default().with_lts().with_obs(rec.clone()),
        );
        let run = rec.finish();
        // One span for the whole search, whatever its number of buckets.
        assert_eq!(run.spans.len(), 1);
        assert_eq!(run.spans[0].name, "explore");
        for field in [
            ("states", 3),
            ("levels", ex.stats.levels as i64),
            ("peak_frontier", ex.stats.peak_frontier as i64),
        ] {
            assert!(run.spans[0].fields.contains(&field), "{field:?}");
        }
        // One observation per bucket. An exhaustive run expands every state
        // in exactly one bucket, and every state but the root is discovered
        // in one.
        let histogram = |name: &str| {
            run.histograms
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, snap)| snap.clone())
                .unwrap_or_else(|| panic!("no histogram `{name}`"))
        };
        let frontier = histogram("explore.bucket_frontier");
        let discovered = histogram("explore.bucket_discovered");
        assert_eq!(frontier.count, ex.stats.levels as u64);
        assert_eq!(discovered.count, ex.stats.levels as u64);
        assert_eq!(frontier.sum, ex.stats.states as u64);
        assert_eq!(discovered.sum, ex.stats.states as u64 - 1);
        // Straight-line process: no state is ever rediscovered, and at unit
        // edges each of its two forced steps is a singleton step. Counters
        // come back sorted by name.
        assert_eq!(
            run.counters,
            vec![
                ("explore.dedup_hits".to_string(), 0),
                ("step.memo_evictions".to_string(), 0),
                ("step.memo_hits".to_string(), ex.stats.memo_hits),
                ("step.memo_misses".to_string(), ex.stats.memo_misses),
                ("step.root_rederivations".to_string(), 0),
                ("zone.closed_form_advances".to_string(), 0),
                ("zone.delay_steps".to_string(), 0),
                ("zone.learned_runs".to_string(), 0),
                ("zone.quanta_collapsed".to_string(), 0),
                ("zone.replay_fallbacks".to_string(), 0),
                ("zone.shapes_derived".to_string(), 0),
                ("zone.singleton_steps".to_string(), 2),
            ]
        );
        assert_eq!(ex.stats.dedup_hits, 0);
        assert!(run
            .gauges
            .iter()
            .any(|(k, value, _)| k == "term.unique_subterms"
                && *value == ex.stats.unique_subterms as i64));
        assert!(ex.stats.unique_subterms > 0);
    }

    #[test]
    fn scoped_recorder_nests_engine_spans_under_the_request_anchor() {
        // The serving layer hands `explore` a scoped recorder clone
        // (`obs::Recorder::scoped`): every engine span must then parent
        // under the request's `served.exec` anchor and carry the `req`
        // tag, without the engine knowing anything about requests.
        let env = Env::new();
        let p = act([(cpu(), 1)], act([(cpu(), 1)], nil()));
        let rec = obs::Recorder::with_clock(Box::new(obs::FakeClock::new(1)));
        let anchor = rec.span("served.exec");
        let scoped = rec.scoped(&anchor, 42);
        explore(&env, &p, &Options::default().with_obs(scoped));
        anchor.end();
        let run = rec.finish();
        // The anchor and the engine's one span: per-bucket detail goes to
        // histograms, not to child spans.
        let names: Vec<&str> = run.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["served.exec", "explore"]);
        let root = &run.spans[1];
        assert_eq!(root.parent, Some(run.spans[0].id));
        assert!(root.fields.contains(&("req", 42)));
    }

    #[test]
    fn recorder_counts_dedup_hits() {
        let mut env = Env::new();
        let p = looping(&mut env);
        let rec = obs::Recorder::enabled();
        let ex = explore(&env, &p, &Options::default().with_obs(rec.clone()));
        // The single transition loops back to the interned initial state.
        assert_eq!(ex.stats.dedup_hits, 1);
        let run = rec.finish();
        assert!(run
            .counters
            .iter()
            .any(|(k, v)| k == "explore.dedup_hits" && *v == 1));
        assert!(run
            .gauges
            .iter()
            .any(|(k, value, peak)| k == "explore.states" && *value == 1 && *peak == 1));
    }

    #[test]
    fn id_space_exhaustion_truncates_instead_of_panicking() {
        let mut env = Env::new();
        // Counter that never repeats a state: C(n) = {(cpu,1)}:C(n+1).
        let d = env.declare("Counter", 1);
        env.set_body(
            d,
            act([(cpu(), 1)], invoke(d, [Expr::p(0).add(Expr::c(1))])),
        );
        let p = invoke(d, [Expr::c(0)]);
        // Shrink the id space to 3 (instead of u32::MAX) so the overflow
        // path runs in a test-sized exploration.
        let ex = crate::zones::explore_zones(&env, &p, &Options::default().with_lts(), 3);
        assert!(ex.truncated);
        assert_eq!(ex.num_states(), 3);
        assert!(!ex.deadlock_free()); // truncated ⇒ unknown, never "free"
        assert!(ex.deadlocks.is_empty());
        // The interned prefix is still a valid BFS prefix.
        assert_eq!(ex.depth_of(StateId(2)), 2);
    }

    #[test]
    fn pre_cancelled_token_stops_before_expanding_anything() {
        let mut env = Env::new();
        let c1 = env.declare("Spin", 0);
        env.set_body(c1, act([(cpu(), 1)], invoke(c1, [])));
        let token = CancelToken::new();
        token.cancel();
        let ex = explore(
            &env,
            &invoke(c1, []),
            &Options::default().with_cancel(token),
        );
        assert!(ex.cancelled);
        assert!(!ex.truncated);
        // Only the initial state was interned; no level ever ran.
        assert_eq!(ex.num_states(), 1);
        assert_eq!(ex.stats.levels, 0);
        assert!(!ex.deadlock_free());
    }

    #[test]
    fn cancelled_runs_are_never_deadlock_free_even_without_deadlocks() {
        // The same deadlock-free idler that deadlock_free()'s doctest uses:
        // uncancelled it is "free", cancelled it must not be.
        let mut env = Env::new();
        let d = env.declare("Idle", 0);
        env.set_body(d, act([] as [(Res, i32); 0], invoke(d, [])));
        let p = invoke(d, []);
        assert!(explore(&env, &p, &Options::default()).deadlock_free());
        let token = CancelToken::new();
        token.cancel();
        let ex = explore(&env, &p, &Options::default().with_cancel(token));
        assert!(ex.deadlocks.is_empty());
        assert!(!ex.deadlock_free());
    }
}
