//! Exploration of the prioritized transition system.
//!
//! States are ground ACSR terms, interned into dense [`StateId`]s. Every
//! search finds the first deadlock along a *shortest* trace — the most
//! readable failing scenario to raise back to the AADL level. [`explore`]
//! has two engines behind one entry point:
//!
//! * verdict runs (no [`Options::collect_lts`]) go to the delay-zone engine
//!   in the `zones` module, which collapses forced runs of quanta into
//!   weighted delay edges and searches the resulting zone graph in
//!   shortest-depth order;
//! * LTS runs ([`Options::collect_lts`], the `--dot` export) need every
//!   per-quantum transition, so they take the breadth-first engine in this
//!   module, which materializes one state per quantum.
//!
//! Verdicts, deadlock counts and counterexample timelines agree between the
//! two; only [`Stats`] differ (the zone graph is far smaller).
//!
//! States live in a hash-consed [`TermStore`]: every term is interned to a
//! [`TermId`] whose equality *is* structural equality, and successor lists
//! are memoized per subterm by an [`StepSession`] (see [`acsr::store`] and
//! [`acsr::step`]) — revisiting the skeleton states of a periodic task model
//! costs a cache hit instead of a re-derivation.
//!
//! In the breadth-first engine, with [`Options::threads`] > 1 each level
//! runs an *expand-and-intern
//! pipeline*: worker threads compute prioritized successors **and** probe the
//! visited set concurrently — the set is distributed over
//! `threads.next_power_of_two()` [`Mutex`] shards keyed by bits of each
//! term's deterministic structural
//! digest, so workers dedup their own discoveries instead of funnelling
//! every raw term through a single-threaded interner.
//! Only the *id assignment* of genuinely new states happens on the
//! coordinating thread, at a deterministic merge that walks the per-worker
//! output buffers in frontier order. Ids therefore come out in exactly the
//! order the sequential engine would produce, making parallel and sequential
//! exploration results identical — state tables, deadlock sets, statistics
//! and shortest-counterexample traces. ([`TermId`] *values* may differ
//! between racing runs; they never appear in results.)

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, TryLockError};
use std::time::{Duration, Instant};

use acsr::{Env, Interned, Label, MemoConfig, StepSession, TermId, TermStore, P};

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
/// enormous BFS level reacts promptly. A cancelled run comes back with
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
/// let opts = Options::default().with_threads(4).with_max_states(10_000);
/// assert_eq!(opts.threads, 4);
/// assert_eq!(opts.max_states, 10_000);
/// assert!(!opts.stop_at_first_deadlock);
/// ```
#[derive(Clone, Debug)]
pub struct Options {
    /// Abort after interning this many states (the exploration is then marked
    /// [`Exploration::truncated`]).
    pub max_states: usize,
    /// Stop as soon as the first deadlock is found (its trace is still
    /// shortest: the search order guarantees no shorter deadlock exists).
    pub stop_at_first_deadlock: bool,
    /// Record the full labelled transition relation (needed for [`Lts`]
    /// export; costs memory proportional to the number of transitions).
    /// Selects the per-quantum breadth-first engine: the zone graph's delay
    /// edges are not the concrete transition relation. Such runs never
    /// touch [`Options::cas`].
    pub collect_lts: bool,
    /// Worker threads for frontier expansion; `0` or `1` means sequential.
    /// The visited set is split into `threads.next_power_of_two()` shards.
    pub threads: usize,
    /// Entry cap of the successor memo (see [`acsr::step::StepSession`];
    /// FIFO eviction past it). The memo is a pure cache — verdicts, state
    /// tables and traces never depend on it. The default is
    /// [`MemoConfig::default`]'s capacity.
    pub memo_capacity: usize,
    /// Share a pre-populated term store (e.g. the one the AADL translation
    /// interned the model through) instead of starting empty. `None` gives
    /// the run a fresh private store.
    pub store: Option<Arc<TermStore>>,
    /// Cooperative cancellation token, polled at every frontier state. The
    /// default token is private to this `Options` value and never cancelled;
    /// install a shared clone (see [`Options::with_cancel`]) to stop the run
    /// from another thread.
    pub cancel: CancelToken,
    /// Observability recorder. Disabled by default — every instrument the
    /// exploration touches is then an inert handle, so the instrumented hot
    /// path costs nothing observable (see `crates/obs`). Enable it (and
    /// optionally arm progress reporting) to get per-level spans, dedup and
    /// lock-contention counters, and the peak state-store gauge.
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
    /// work between two cancellation polls and the size of any one edge's
    /// stored timeline, and doubles as the cycle horizon for closed idle
    /// loops. Any value changes only edge granularity, never verdicts,
    /// deadlock sets or trace timelines. `0` is treated as `1`. Ignored by
    /// LTS runs.
    pub zone_cap: usize,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            max_states: usize::MAX,
            stop_at_first_deadlock: false,
            collect_lts: false,
            threads: 1,
            memo_capacity: MemoConfig::default().capacity,
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
    /// which selects the per-quantum engine.
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

    /// Set the worker-thread count (`0` or `1` means sequential).
    ///
    /// # Examples
    ///
    /// ```
    /// assert_eq!(versa::Options::default().with_threads(8).threads, 8);
    /// ```
    pub fn with_threads(mut self, threads: usize) -> Options {
        self.threads = threads;
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

    /// Set the successor-memo entry cap.
    ///
    /// # Examples
    ///
    /// ```
    /// assert_eq!(versa::Options::default().with_memo_capacity(64).memo_capacity, 64);
    /// ```
    pub fn with_memo_capacity(mut self, capacity: usize) -> Options {
        self.memo_capacity = capacity;
        self
    }

    /// Share an existing term store with the run.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    ///
    /// let store = Arc::new(acsr::TermStore::new());
    /// let opts = versa::Options::default().with_store(store.clone());
    /// assert!(opts.store.is_some());
    /// ```
    pub fn with_store(mut self, store: Arc<TermStore>) -> Options {
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
/// // The per-quantum LTS engine materializes the middle state too.
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
    /// Largest BFS frontier encountered.
    pub peak_frontier: usize,
    /// Number of BFS levels expanded (the depth reached).
    pub levels: usize,
    /// Transitions whose target state was already interned — cross- and
    /// back-edges merged by the visited set. `transitions - dedup_hits` is
    /// the number of *fresh* discoveries (≈ `states - 1`).
    pub dedup_hits: usize,
    /// Successor lists served from the step memo (in parallel runs the split
    /// between hits and misses can vary run to run — the *results* never
    /// do).
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

/// The endpoint of a [`ZoneSeg`]: a materialized term, or a virtual
/// `(template, vector)` pair rebuilt syntactically on demand (interior
/// segment ends of closed-form runs are never interned by the engine).
#[derive(Clone, Debug)]
pub(crate) enum ZoneEnd {
    Real(P),
    Virt { template: P, values: Arc<Vec<i64>> },
}

impl ZoneEnd {
    /// The endpoint as a term, rebuilding if virtual. Virtual ends were
    /// produced by the closed-form engine inside a verified run, so the
    /// rebuild is exactly the state a unit replay would have reached.
    pub(crate) fn materialize(&self) -> P {
        match self {
            ZoneEnd::Real(p) => p.clone(),
            ZoneEnd::Virt { template, values } => acsr::skeleton::rebuild(template, values)
                .expect("virtual zone state must rebuild within its shape"),
        }
    }
}

/// One segment of a zone-graph delay edge (see [`Exploration::zone_edges`]).
#[derive(Clone, Debug)]
pub(crate) enum ZoneSeg {
    /// A concretely replayed step.
    Unit(Label, P),
    /// A verified closed-form span: `len` forced timed steps, all labelled
    /// `label`; the `k`-th interior state is the segment's source state
    /// rebuilt at `vector + k·delta` (see [`acsr::skeleton`]).
    Span {
        label: Label,
        delta: Arc<Vec<i64>>,
        len: u64,
        end: ZoneEnd,
    },
    /// A macro-served forced step (a release-boundary exit or cascade step
    /// advanced in the vector domain; see [`acsr::runner`]).
    Jump { label: Label, end: ZoneEnd },
}

impl ZoneSeg {
    /// Concrete steps this segment stands for.
    pub(crate) fn weight(&self) -> u64 {
        match self {
            ZoneSeg::Unit(..) | ZoneSeg::Jump { .. } => 1,
            ZoneSeg::Span { len, .. } => *len,
        }
    }
}

/// The result of exploring a model.
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
    /// Zone graphs only: the segments of the delay edge into each state,
    /// parallel to `parents` (`None` for unit edges; the last segment's
    /// target equals the materialized target). Replayed quanta are stored as
    /// [`ZoneSeg::Unit`] steps; closed-form spans keep only their derivative
    /// and length ([`ZoneSeg::Span`]) and re-materialize interior states
    /// syntactically on demand. The LTS engine leaves this empty,
    /// making every trace query below behave exactly as before.
    pub(crate) zone_edges: Vec<Option<Vec<ZoneSeg>>>,
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

    /// Reconstruct the (shortest) trace from the initial state to `target`.
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
    /// assert_eq!(ex.trace_to(dead).len(), 1);
    /// ```
    pub fn trace_to(&self, target: StateId) -> Trace {
        let mut path: Vec<StateId> = Vec::new();
        let mut cur = target;
        while self.parents[cur.index()].is_some() {
            path.push(cur);
            let (parent, _) = self.parents[cur.index()].as_ref().expect("just checked");
            cur = *parent;
        }
        path.reverse();
        // Delay edges re-expand to their per-quantum timelines, with interior
        // states appended to the trace's own state table (they were
        // deliberately never materialized in `self.states`). Unit edges, and
        // every edge of an LTS run, are the plain parent walk.
        let mut states = self.states.clone();
        let mut steps: Vec<(Label, StateId)> = Vec::with_capacity(path.len());
        for to in path {
            match self.zone_edges.get(to.index()).and_then(|e| e.as_ref()) {
                Some(edge) => {
                    let (parent, _) = self.parents[to.index()].as_ref().expect("on path");
                    let mut cur: P = states[parent.index()].clone();
                    let n = edge.len();
                    for (i, seg) in edge.iter().enumerate() {
                        let seg_last = i + 1 == n;
                        match seg {
                            ZoneSeg::Unit(label, p) => {
                                if seg_last {
                                    steps.push((label.clone(), to));
                                } else {
                                    states.push(p.clone());
                                    steps.push((label.clone(), StateId((states.len() - 1) as u32)));
                                    cur = p.clone();
                                }
                            }
                            ZoneSeg::Span {
                                label,
                                delta,
                                len,
                                end,
                            } => {
                                // Interior states of a closed-form span are
                                // rebuilt syntactically from the segment's
                                // source: the span was verified against the
                                // step relation when it was recorded, so the
                                // rebuilds are exactly the states a unit
                                // replay would have produced.
                                let f = acsr::skeleton::factor(&cur);
                                for k in 1..*len {
                                    let v: Vec<i64> = f
                                        .values
                                        .iter()
                                        .zip(delta.iter())
                                        .map(|(a, d)| a + d * k as i64)
                                        .collect();
                                    let p = acsr::skeleton::rebuild(&cur, &v)
                                        .expect("span vectors stay within the shape");
                                    states.push(p.clone());
                                    steps.push((label.clone(), StateId((states.len() - 1) as u32)));
                                }
                                if seg_last {
                                    steps.push((label.clone(), to));
                                } else {
                                    let t = end.materialize();
                                    states.push(t.clone());
                                    steps.push((label.clone(), StateId((states.len() - 1) as u32)));
                                    cur = t;
                                }
                            }
                            ZoneSeg::Jump { label, end } => {
                                if seg_last {
                                    steps.push((label.clone(), to));
                                } else {
                                    let t = end.materialize();
                                    states.push(t.clone());
                                    steps.push((label.clone(), StateId((states.len() - 1) as u32)));
                                    cur = t;
                                }
                            }
                        }
                    }
                }
                None => {
                    let (_, label) = self.parents[to.index()].as_ref().expect("on path");
                    steps.push((label.clone(), to));
                }
            }
        }
        Trace {
            initial: StateId(0),
            steps,
            states,
        }
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
        self.deadlocks.first().map(|&d| self.trace_to(d))
    }

    /// All states whose term satisfies `pred`, in id (discovery) order.
    /// Useful for reachability queries beyond deadlock detection — e.g. "is
    /// any state with the queue at capacity reachable?". A zone graph holds
    /// only branch points, deadlocks and run endpoints, so states strictly
    /// inside a forced run are not searched: a query over every reachable
    /// state needs an exploration run with [`Options::collect_lts`].
    ///
    /// # Examples
    ///
    /// ```
    /// use acsr::prelude::*;
    /// use versa::{explore, Options};
    ///
    /// let env = Env::new();
    /// let ex = explore(&env, &act([(Res::new("cpu"), 1)], nil()), &Options::default());
    /// let nils = ex.find_states(|p| matches!(&**p, acsr::Proc::Nil));
    /// assert_eq!(nils.len(), 1);
    /// ```
    pub fn find_states(&self, mut pred: impl FnMut(&P) -> bool) -> Vec<StateId> {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, p)| pred(p))
            .map(|(i, _)| StateId(i as u32))
            .collect()
    }

    /// Depth of a state: the number of per-quantum steps on its shortest
    /// trace.
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
        let mut depth = 0;
        let mut cur = id;
        while let Some((parent, _)) = &self.parents[cur.index()] {
            // A delay edge counts its full per-quantum length, so depths
            // agree with the per-quantum step counts.
            depth += self
                .zone_edges
                .get(cur.index())
                .and_then(|e| e.as_ref())
                .map_or(1, |segs| {
                    segs.iter().map(|s| s.weight() as usize).sum()
                });
            cur = *parent;
        }
        depth
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
/// // A choice between a 1-step and a 2-step path to NIL: BFS finds the
/// // shortest deadlock first.
/// let env = Env::new();
/// let p = choice([
///     act([(Res::new("cpu"), 1)], nil()),
///     act([(Res::new("bus"), 1)], act([(Res::new("cpu"), 1)], nil())),
/// ]);
/// let ex = explore(&env, &p, &Options::default());
/// assert_eq!(ex.first_deadlock_trace().unwrap().len(), 1);
/// ```
pub fn explore(env: &Env, initial: &P, opts: &Options) -> Exploration {
    explore_with_id_limit(env, initial, opts, ID_LIMIT)
}

/// State ids are dense `u32`s; a run that would intern more states than this
/// is truncated gracefully (never a panic — [`Exploration::truncated`] is
/// set, which the CLI reports as verdict "unknown", exit code 3).
const ID_LIMIT: usize = u32::MAX as usize;

/// A visited-set entry.
#[derive(Copy, Clone, Debug)]
enum Slot {
    /// Interned with its final id (a previous level, or already merged).
    Final(StateId),
    /// Claimed during the current level's expansion by `(worker, slot)`;
    /// the id is assigned at the deterministic merge.
    Pending { worker: u32, slot: u32 },
}

/// The concurrent visited set: `TermId → Slot` distributed over power-of-two
/// `Mutex` shards selected by the low bits of each term's *deterministic
/// structural digest* (never the id — ids depend on interning races, the
/// digest does not, so the shard a state lands in is reproducible run to
/// run). Keys are plain `u32` ids: probing is an integer hash, with no deep
/// comparison anywhere — structural equality was already decided by the term
/// store.
struct Visited {
    shards: Vec<Mutex<HashMap<TermId, Slot>>>,
    mask: u64,
}

impl Visited {
    fn new(shards: usize) -> Visited {
        let n = shards.max(1).next_power_of_two();
        Visited {
            shards: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            mask: (n - 1) as u64,
        }
    }

    fn shard(&self, digest: u64) -> &Mutex<HashMap<TermId, Slot>> {
        &self.shards[(digest & self.mask) as usize]
    }

    /// The worker-side intern probe: an existing entry is returned; a vacant
    /// one is claimed as [`Slot::Pending`] for `(worker, slot)` and `None`
    /// comes back. `contended` is a lock-wait proxy: one tick per `try_lock`
    /// that would have blocked.
    fn probe_or_pend(
        &self,
        t: &Interned,
        worker: u32,
        slot: u32,
        contended: &obs::Counter,
    ) -> Option<Slot> {
        let shard = self.shard(t.digest());
        let mut guard = match shard.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                contended.inc();
                shard.lock().expect("visited shard poisoned")
            }
            Err(TryLockError::Poisoned(_)) => panic!("visited shard poisoned"),
        };
        match guard.entry(t.id()) {
            Entry::Occupied(e) => Some(*e.get()),
            Entry::Vacant(v) => {
                v.insert(Slot::Pending { worker, slot });
                None
            }
        }
    }

    /// The merge-side finalization: overwrite a [`Slot::Pending`] claim with
    /// its deterministically assigned id. O(1): an integer-keyed map probe.
    fn finalize(&self, t: &Interned, id: StateId) {
        let mut guard = self
            .shard(t.digest())
            .lock()
            .expect("visited shard poisoned");
        *guard.get_mut(&t.id()).expect("pending entry present") = Slot::Final(id);
    }

    /// Per-shard entry counts (for the occupancy histogram).
    fn occupancy(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.lock().expect("visited shard poisoned").len())
            .collect()
    }
}

/// A probed successor, as recorded by an expansion worker.
#[derive(Copy, Clone, Debug)]
enum Target {
    /// Already interned before this level started.
    Known(StateId),
    /// First discovered during this level; the term lives in the claiming
    /// worker's `fresh` buffer and gets its id at the merge.
    New { worker: u32, slot: u32 },
}

/// One worker's share of an expand-and-intern level: successor lists aligned
/// with its chunk of the frontier, every target already probed against the
/// visited set, plus the terms this worker claimed first.
struct WorkerOut {
    succs: Vec<Vec<(Label, Target)>>,
    fresh: Vec<Interned>,
}

/// Expand `ids` (a frontier chunk, in frontier order) and intern every
/// successor against the sharded visited set. Successors come back from the
/// [`StepSession`] already interned (and, on a memo hit, without any
/// derivation at all). Runs on worker threads in parallel mode and inline
/// (as worker 0) in sequential mode — one code path, so the engines cannot
/// drift apart.
fn expand_chunk(
    session: &StepSession<'_>,
    states: &[Interned],
    ids: &[StateId],
    visited: &Visited,
    worker: u32,
    shard_contended: &obs::Counter,
    cancel: &CancelToken,
) -> WorkerOut {
    let mut fresh: Vec<Interned> = Vec::new();
    let mut succs = Vec::with_capacity(ids.len());
    for id in ids {
        // Cooperative cancellation point: a fired token abandons the rest of
        // the chunk. The partial output is safe because the caller discards
        // the whole level (no merge) when the token is observed set.
        if cancel.is_cancelled() {
            break;
        }
        succs.push(
            session
                .prioritized_steps(&states[id.index()])
                .into_iter()
                .map(|(label, t)| {
                    let slot = fresh.len() as u32;
                    let target = match visited.probe_or_pend(&t, worker, slot, shard_contended) {
                        Some(Slot::Final(sid)) => Target::Known(sid),
                        Some(Slot::Pending { worker, slot }) => Target::New { worker, slot },
                        None => {
                            fresh.push(t);
                            Target::New { worker, slot }
                        }
                    };
                    (label, target)
                })
                .collect(),
        );
    }
    WorkerOut { succs, fresh }
}

/// The engine behind [`explore`], with the id-space ceiling as a parameter
/// so tests can exercise the graceful-truncation path without interning
/// four billion states.
fn explore_with_id_limit(env: &Env, initial: &P, opts: &Options, id_limit: usize) -> Exploration {
    let id_limit = id_limit.clamp(1, ID_LIMIT);
    if !opts.collect_lts {
        return crate::zones::explore_zones(env, initial, opts, id_limit);
    }
    // The LTS path: one state per quantum, breadth-first. Its runs are never
    // cached (an artifact carries no transition relation).
    let start = Instant::now();

    let run_span = opts.obs.span("explore");
    let dedup_counter = opts.obs.counter("explore.dedup_hits");
    let states_gauge = opts.obs.gauge("explore.states");
    let threads = opts.threads.max(1);
    let visited = Visited::new(threads);
    let store = opts
        .store
        .clone()
        .unwrap_or_else(|| Arc::new(TermStore::new()));
    let memo_config = MemoConfig::with_capacity(opts.memo_capacity);
    let session = StepSession::new(env, store.clone(), memo_config);

    // Parallel-only instruments, registered once per run (not once per
    // level): the contention counters are inherently racy, so sequential
    // runs never carry them and stay byte-deterministic.
    let inert = obs::Counter::default();
    let (worker_expanded, out_contended, shard_contended, chunk_hist) = if threads > 1 {
        (
            (0..threads)
                .map(|ci| opts.obs.counter(&format!("explore.worker.{ci}.expanded")))
                .collect::<Vec<_>>(),
            opts.obs.counter("explore.lock_contention"),
            opts.obs.counter("explore.shard_contention"),
            opts.obs.histogram("explore.worker_chunk"),
        )
    } else {
        (
            Vec::new(),
            obs::Counter::default(),
            obs::Counter::default(),
            obs::Histogram::default(),
        )
    };

    let mut states: Vec<Interned> = Vec::new();
    let mut parents: Vec<Option<(StateId, Label)>> = Vec::new();
    let mut deadlocks: Vec<StateId> = Vec::new();
    let mut lts_transitions: Vec<Vec<(Label, StateId)>> = Vec::new();
    let mut stats = Stats::default();
    let mut truncated = false;
    let mut cancelled = false;

    let root = StateId(0);
    let root_t = session.intern(initial);
    visited
        .shard(root_t.digest())
        .lock()
        .expect("visited shard poisoned")
        .insert(root_t.id(), Slot::Final(root));
    states.push(root_t);
    parents.push(None);

    let mut frontier: Vec<StateId> = vec![root];
    while !frontier.is_empty() {
        if opts.cancel.is_cancelled() {
            cancelled = true;
            break;
        }
        stats.levels += 1;
        stats.peak_frontier = stats.peak_frontier.max(frontier.len());
        let level_span = run_span.child("explore.level");
        let mut level_discovered = 0usize;
        let mut level_deduped = 0usize;
        let mut level_transitions = 0usize;
        let mut stop = false;

        // Phase 1 — expand-and-intern. Workers compute prioritized
        // successors and probe/claim the sharded visited set concurrently;
        // only wide frontiers pay for spawning (narrow levels, including the
        // startup ramp, run inline through the same chunk code).
        let outs: Vec<WorkerOut> = if threads > 1 && frontier.len() >= 4 * threads {
            let chunk = frontier.len().div_ceil(threads);
            let collected: Mutex<Vec<(usize, WorkerOut)>> = Mutex::new(Vec::with_capacity(threads));
            std::thread::scope(|s| {
                for (ci, ids) in frontier.chunks(chunk).enumerate() {
                    let collected = &collected;
                    let visited = &visited;
                    let states = &states[..];
                    let session = &session;
                    let out_contended = &out_contended;
                    let shard_contended = &shard_contended;
                    let expanded = worker_expanded[ci].clone();
                    chunk_hist.observe(ids.len() as u64);
                    let cancel = &opts.cancel;
                    s.spawn(move || {
                        let out = expand_chunk(
                            session,
                            states,
                            ids,
                            visited,
                            ci as u32,
                            shard_contended,
                            cancel,
                        );
                        expanded.add(out.succs.len() as u64);
                        let mut guard = match collected.try_lock() {
                            Ok(guard) => guard,
                            Err(TryLockError::WouldBlock) => {
                                out_contended.inc();
                                collected.lock().expect("expansion lock poisoned")
                            }
                            Err(TryLockError::Poisoned(_)) => panic!("expansion lock poisoned"),
                        };
                        guard.push((ci, out));
                    });
                }
            });
            let mut chunks = collected.into_inner().expect("expansion lock poisoned");
            chunks.sort_unstable_by_key(|(ci, _)| *ci);
            chunks.into_iter().map(|(_, out)| out).collect()
        } else {
            vec![expand_chunk(
                &session,
                &states,
                &frontier,
                &visited,
                0,
                &inert,
                &opts.cancel,
            )]
        };

        // A token that fired mid-expansion leaves partial worker output
        // (chunks cut short, pending visited-set claims never finalized);
        // discard the level wholesale rather than merge an inconsistent view.
        if opts.cancel.is_cancelled() {
            cancelled = true;
            level_span.end();
            break;
        }

        // Phase 2 — deterministic merge, in frontier order across the chunk
        // boundaries. Fresh states get their ids *here*, in exactly the
        // order the sequential engine would assign them; which worker won
        // the concurrent claim is invisible in the result.
        let mut remap: Vec<Vec<Option<StateId>>> =
            outs.iter().map(|out| vec![None; out.fresh.len()]).collect();
        let mut next: Vec<StateId> = Vec::new();
        let mut fi = 0usize;
        'level: for out in &outs {
            for succs in &out.succs {
                let id = frontier[fi];
                fi += 1;
                if succs.is_empty() {
                    deadlocks.push(id);
                    stats.deadlocks += 1;
                    if opts.stop_at_first_deadlock {
                        stop = true;
                        break 'level;
                    }
                }
                if lts_transitions.len() <= id.index() {
                    lts_transitions.resize(id.index() + 1, Vec::new());
                }
                for (label, target) in succs {
                    stats.transitions += 1;
                    level_transitions += 1;
                    let (sid, fresh) = match *target {
                        Target::Known(sid) => (sid, false),
                        Target::New { worker, slot } => {
                            let (w, sl) = (worker as usize, slot as usize);
                            match remap[w][sl] {
                                Some(sid) => (sid, false),
                                None => {
                                    if states.len() >= id_limit {
                                        // Id space exhausted: stop interning
                                        // and report a truncated (verdict
                                        // "unknown") run instead of dying.
                                        truncated = true;
                                        stop = true;
                                        break 'level;
                                    }
                                    let sid = StateId(states.len() as u32);
                                    remap[w][sl] = Some(sid);
                                    let t = &outs[w].fresh[sl];
                                    visited.finalize(t, sid);
                                    states.push(t.clone());
                                    parents.push(Some((id, label.clone())));
                                    next.push(sid);
                                    (sid, true)
                                }
                            }
                        }
                    };
                    lts_transitions[id.index()].push((label.clone(), sid));
                    if fresh {
                        level_discovered += 1;
                    } else {
                        stats.dedup_hits += 1;
                        level_deduped += 1;
                    }
                }
                if states.len() >= opts.max_states {
                    truncated = true;
                    stop = true;
                    break 'level;
                }
            }
        }

        level_span.set("level", stats.levels as i64);
        level_span.set("frontier", frontier.len() as i64);
        level_span.set("discovered", level_discovered as i64);
        level_span.set("deduped", level_deduped as i64);
        level_span.set("transitions", level_transitions as i64);
        level_span.set("states_total", states.len() as i64);
        level_span.end();
        dedup_counter.add(level_deduped as u64);
        states_gauge.set(states.len() as i64);
        opts.obs.progress(
            states.len() as u64,
            stats.levels as u64,
            frontier.len() as u64,
        );
        if stop {
            break;
        }
        frontier = next;
    }

    stats.states = states.len();
    let memo = session.memo_stats();
    stats.memo_hits = memo.hits;
    stats.memo_misses = memo.misses;
    stats.memo_evictions = memo.evictions;
    stats.unique_subterms = store.len();
    stats.duration = start.elapsed();
    run_span.set("states", stats.states as i64);
    run_span.set("transitions", stats.transitions as i64);
    run_span.set("levels", stats.levels as i64);
    run_span.set("peak_frontier", stats.peak_frontier as i64);
    run_span.set("deadlocks", stats.deadlocks as i64);
    run_span.set("truncated", i64::from(truncated));
    if cancelled {
        // Only stamped when set, so uncancelled runs (the entire pre-daemon
        // corpus, including the golden timelines) keep their byte-identical
        // reports.
        run_span.set("cancelled", 1);
    }
    run_span.set("shards", visited.shards.len() as i64);
    opts.obs.counter("step.memo_hits").add(stats.memo_hits);
    opts.obs.counter("step.memo_misses").add(stats.memo_misses);
    opts.obs
        .counter("step.memo_evictions")
        .add(stats.memo_evictions);
    opts.obs
        .gauge("term.unique_subterms")
        .set(stats.unique_subterms as i64);
    if opts.obs.is_enabled() {
        let occupancy = opts.obs.histogram("explore.shard_occupancy");
        for entries in visited.occupancy() {
            occupancy.observe(entries as u64);
        }
    }
    run_span.end();

    lts_transitions.resize(states.len(), Vec::new());
    let lts = Some(Lts {
        initial: root,
        transitions: lts_transitions,
    });
    Exploration {
        states: states.into_iter().map(Interned::into_term).collect(),
        parents,
        zone_edges: Vec::new(),
        deadlocks,
        lts,
        stats,
        truncated,
        cancelled,
    }
}

/// Convenience: explore and return whether the model is deadlock-free
/// together with the exploration (used by the schedulability front end).
///
/// # Examples
///
/// ```
/// use acsr::prelude::*;
/// use versa::{explore, Options};
///
/// let env = Env::new();
/// let (free, ex) = versa::explore::deadlock_free(&env, &nil(), &Options::default());
/// assert!(!free);
/// assert_eq!(ex.deadlocks.len(), 1);
/// ```
pub fn deadlock_free(env: &Env, initial: &P, opts: &Options) -> (bool, Exploration) {
    let ex = explore(env, initial, opts);
    (ex.deadlock_free(), ex)
}

/// Keep `Arc` in the public signature out of rustdoc's way.
#[doc(hidden)]
pub type State = Arc<acsr::Proc>;

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
    fn parallel_matches_sequential() {
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
        let seq = explore(&env, &p, &Options::default().with_lts());
        let par4 = explore(&env, &p, &Options::default().with_lts().with_threads(4));
        assert_eq!(seq.num_states(), par4.num_states());
        assert_eq!(seq.stats.transitions, par4.stats.transitions);
        assert_eq!(seq.deadlocks, par4.deadlocks);
        // State tables must be identical (determinism).
        for i in 0..seq.num_states() {
            assert_eq!(
                seq.state(StateId(i as u32)),
                par4.state(StateId(i as u32))
            );
        }
        // lcm(7, 5) = 35 product states.
        assert_eq!(seq.num_states(), 35);
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
    fn find_states_and_depth() {
        let env = Env::new();
        let p = act(
            [(cpu(), 1)],
            act([(cpu(), 2)], act([(cpu(), 3)], nil())),
        );
        let ex = explore(&env, &p, &Options::default());
        let nils = ex.find_states(|st| matches!(&**st, acsr::Proc::Nil));
        assert_eq!(nils.len(), 1);
        assert_eq!(ex.depth_of(nils[0]), 3);
        assert_eq!(ex.depth_of(ex.initial()), 0);
        let all = ex.find_states(|_| true);
        assert_eq!(all.len(), ex.num_states());
    }

    #[test]
    fn find_states_matches_manual_scan_and_preserves_bfs_order() {
        let env = Env::new();
        // A diamond: the initial choice reaches NIL via a 1-step and a 2-step
        // path, so several states satisfy non-trivial predicates.
        let p = choice([
            act([(cpu(), 1)], nil()),
            act([(Res::new("bus"), 1)], act([(cpu(), 2)], nil())),
        ]);
        let ex = explore(&env, &p, &Options::default());
        // Ids come back sorted (BFS order) and match a manual filter.
        let timed_roots = ex.find_states(|st| !matches!(&**st, acsr::Proc::Nil));
        assert!(timed_roots.windows(2).all(|w| w[0] < w[1]));
        for id in &timed_roots {
            assert!(!matches!(&**ex.state(*id), acsr::Proc::Nil));
        }
        // The two partitions cover the state table exactly.
        let nils = ex.find_states(|st| matches!(&**st, acsr::Proc::Nil));
        assert_eq!(nils.len() + timed_roots.len(), ex.num_states());
        // An unsatisfiable predicate finds nothing.
        assert!(ex.find_states(|_| false).is_empty());
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
            assert_eq!(ex.depth_of(id), ex.trace_to(id).len());
        }
        // BFS invariant: ids are assigned in nondecreasing depth order.
        let depths: Vec<usize> = (0..ex.num_states())
            .map(|i| ex.depth_of(StateId(i as u32)))
            .collect();
        assert!(depths.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn tiny_memo_capacity_evicts_without_changing_the_verdict() {
        let mut env = Env::new();
        let c1 = env.declare("C1", 1);
        env.set_body(
            c1,
            choice([
                guard(
                    BExpr::lt(Expr::p(0), Expr::c(40)),
                    act([(cpu(), 1)], invoke(c1, [Expr::p(0).add(Expr::c(1))])),
                ),
                guard(BExpr::eq(Expr::p(0), Expr::c(40)), nil()),
            ]),
        );
        let p = invoke(c1, [Expr::c(0)]);
        let base = explore(&env, &p, &Options::default());
        let tiny = explore(&env, &p, &Options::default().with_memo_capacity(16));
        assert!(tiny.stats.memo_evictions > 0, "41 states must overflow 16 slots");
        assert_eq!(base.stats.memo_evictions, 0);
        assert_eq!(base.num_states(), tiny.num_states());
        assert_eq!(base.deadlocks, tiny.deadlocks);
        assert_eq!(base.stats.transitions, tiny.stats.transitions);
        assert_eq!(
            base.first_deadlock_trace().map(|t| t.len()),
            tiny.first_deadlock_trace().map(|t| t.len())
        );
        for i in 0..base.num_states() {
            assert_eq!(base.state(StateId(i as u32)), tiny.state(StateId(i as u32)));
        }
    }

    #[test]
    fn shared_store_is_reused_across_runs() {
        let env = Env::new();
        let p = act([(cpu(), 1)], act([(cpu(), 2)], nil()));
        let store = Arc::new(acsr::TermStore::new());
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
    fn recorder_captures_per_level_spans() {
        let env = Env::new();
        let p = act([(cpu(), 1)], act([(cpu(), 1)], nil()));
        let rec = obs::Recorder::with_clock(Box::new(obs::FakeClock::new(1)));
        let ex = explore(
            &env,
            &p,
            &Options::default().with_lts().with_obs(rec.clone()),
        );
        let run = rec.finish();
        let roots: Vec<_> = run.spans.iter().filter(|s| s.name == "explore").collect();
        assert_eq!(roots.len(), 1);
        assert!(roots[0].fields.contains(&("states".to_string(), 3)));
        let levels: Vec<_> = run
            .spans
            .iter()
            .filter(|s| s.name == "explore.level")
            .collect();
        assert_eq!(levels.len(), ex.stats.levels);
        for (i, lvl) in levels.iter().enumerate() {
            assert_eq!(lvl.parent, Some(roots[0].id));
            assert!(lvl.fields.contains(&("level".to_string(), i as i64 + 1)));
        }
        // Straight-line process: no state is ever rediscovered. Counters
        // come back sorted by name.
        assert_eq!(
            run.counters,
            vec![
                ("explore.dedup_hits".to_string(), 0),
                ("step.memo_evictions".to_string(), 0),
                ("step.memo_hits".to_string(), ex.stats.memo_hits),
                ("step.memo_misses".to_string(), ex.stats.memo_misses),
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
        let anchor_id = run.spans.iter().find(|s| s.name == "served.exec").unwrap().id;
        let root = run.spans.iter().find(|s| s.name == "explore").unwrap();
        assert_eq!(root.parent, Some(anchor_id));
        assert!(root.fields.contains(&("req".to_string(), 42)));
        // Engine children keep nesting under the engine root (not the
        // anchor) and inherit the request tag.
        let levels: Vec<_> = run
            .spans
            .iter()
            .filter(|s| s.name == "explore.level")
            .collect();
        assert!(!levels.is_empty());
        for lvl in levels {
            assert_eq!(lvl.parent, Some(root.id));
            assert!(lvl.fields.contains(&("req".to_string(), 42)));
        }
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
        let ex = explore_with_id_limit(&env, &p, &Options::default().with_lts(), 3);
        assert!(ex.truncated);
        assert_eq!(ex.num_states(), 3);
        assert!(!ex.deadlock_free()); // truncated ⇒ unknown, never "free"
        assert!(ex.deadlocks.is_empty());
        // The interned prefix is still a valid BFS prefix.
        assert_eq!(ex.depth_of(StateId(2)), 2);
    }

    #[test]
    fn thread_count_never_affects_results() {
        let mut env = Env::new();
        let c1 = env.declare("W", 1);
        env.set_body(
            c1,
            choice([
                guard(
                    BExpr::lt(Expr::p(0), Expr::c(20)),
                    choice([
                        act([(cpu(), 1)], invoke(c1, [Expr::p(0).add(Expr::c(1))])),
                        act([(Res::new("bus"), 1)], invoke(c1, [Expr::p(0).add(Expr::c(2))])),
                    ]),
                ),
                guard(BExpr::eq(Expr::p(0), Expr::c(20)), nil()),
                guard(BExpr::eq(Expr::p(0), Expr::c(21)), nil()),
            ]),
        );
        let p = invoke(c1, [Expr::c(0)]);
        let base = explore(&env, &p, &Options::default());
        for threads in [2, 3, 4, 8] {
            let ex = explore(&env, &p, &Options::default().with_threads(threads));
            assert_eq!(ex.num_states(), base.num_states());
            assert_eq!(ex.deadlocks, base.deadlocks);
            assert_eq!(ex.stats.dedup_hits, base.stats.dedup_hits);
            assert_eq!(ex.stats.transitions, base.stats.transitions);
            for i in 0..base.num_states() {
                assert_eq!(ex.state(StateId(i as u32)), base.state(StateId(i as u32)));
            }
            assert_eq!(
                ex.first_deadlock_trace().map(|t| t.len()),
                base.first_deadlock_trace().map(|t| t.len())
            );
        }
    }

    #[test]
    fn parallel_with_obs_matches_sequential() {
        let mut env = Env::new();
        let c1 = env.declare("Cnt", 1);
        env.set_body(
            c1,
            choice([
                guard(
                    BExpr::lt(Expr::p(0), Expr::c(30)),
                    act([(cpu(), 1)], invoke(c1, [Expr::p(0).add(Expr::c(1))])),
                ),
                guard(
                    BExpr::eq(Expr::p(0), Expr::c(30)),
                    act([(cpu(), 1)], invoke(c1, [Expr::c(0)])),
                ),
            ]),
        );
        let p = invoke(c1, [Expr::c(0)]);
        let seq = explore(&env, &p, &Options::default().with_lts());
        let rec = obs::Recorder::enabled();
        let par4 = explore(
            &env,
            &p,
            &Options::default()
                .with_lts()
                .with_threads(4)
                .with_obs(rec.clone()),
        );
        assert_eq!(seq.num_states(), par4.num_states());
        assert_eq!(seq.stats.transitions, par4.stats.transitions);
        assert_eq!(seq.stats.dedup_hits, par4.stats.dedup_hits);
        for i in 0..seq.num_states() {
            assert_eq!(seq.state(StateId(i as u32)), par4.state(StateId(i as u32)));
        }
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
