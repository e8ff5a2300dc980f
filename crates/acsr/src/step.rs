//! The unprioritized operational semantics of ACSR.
//!
//! [`steps`] computes the outgoing transitions of a ground process term,
//! following the structural operational semantics of §3 of the paper:
//!
//! * **Prefixes** offer exactly their action/event.
//! * **Choice** offers the union of its alternatives' steps (resolved by any
//!   step, timed or instantaneous).
//! * **Parallel** interleaves instantaneous events, synchronises matching
//!   send/receive pairs into `τ@e` (with summed priority), and — because time
//!   progress is global — takes timed actions only *jointly*: one action from
//!   every component, with pairwise disjoint resource sets, merged by rule
//!   *Par3*. A component with no timed step (e.g. `NIL`) blocks time for the
//!   whole composition; this is the deadlock mechanism the AADL translation
//!   relies on.
//! * **Temporal scope** `P Δᵗ_a (Q, R, S)`: while `t > 0`, `P`'s steps are
//!   offered (timed steps decrement `t`), `P` emitting the exception event `a`
//!   exits to `Q`, and the interrupt handler `S` may take over through any of
//!   its initial steps. When `t` reaches 0 the scope has timed out: `P` may
//!   still perform *instantaneous* steps at the boundary instant (so a thread
//!   may signal completion at exactly its deadline), but no further timed
//!   steps; the timeout continuation `R`'s steps are offered alongside.
//! * **Restriction** blocks visible events with restricted labels (forcing
//!   internal synchronisation); **closure** extends every timed action with
//!   the owned-but-unused resources at priority 0.
//! * **Invocation** unfolds the definition with its arguments substituted.
//!
//! Two engines compute this relation. The plain functions ([`steps`] and
//! `raw_steps` internally) work on bare [`P`] terms and re-derive
//! successors on every call. A [`StepSession`] computes the *same* relation
//! over hash-consed terms from a [`TermStore`] and memoizes each subterm's
//! successor list in a bounded cache keyed on `(TermId, env epoch)` —
//! revisits of the same subprocess (every hyperperiod of a periodic task
//! model) are cache hits instead of fresh derivations. A root state's
//! prioritized list is kept only in a window of the last [`ROOT_WINDOW`]
//! roots, because the search re-reads it soon or never. The session
//! returns the plain engine's labels in the same order with structurally
//! equal successors, so the two are interchangeable; the exploration engine
//! uses the session, the plain functions remain the executable
//! specification. The session builds less: a `Restrict` over a `Par` never
//! builds the lone events it would drop, a root state's candidates are
//! filtered by preemption before any successor is interned, and equal timed
//! labels share one allocation.
//!
//! # Panics
//!
//! `steps` expects a *ground* term over a *complete* environment. It panics on
//! construction bugs: expressions referencing parameters outside any
//! definition, actions naming a resource twice, undefined bodies, arity
//! mismatches, and unguarded recursion (a definition that unfolds into itself
//! without an intervening prefix). The AADL translation upholds all of these
//! invariants; the panics exist to fail fast on hand-built models.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::sync::Arc;

use crate::env::{Env, TagId};
use crate::hashed::Fnv1a;
use crate::label::{Dir, GAction, Label};
use crate::store::{IdIndex, Interned, Restriction, TermId, TermStore};
use crate::symbol::{Res, Symbol};
use crate::term::{EvKind, Proc, TimeBound, P};

/// Maximum number of definition unfoldings along a single derivation before we
/// declare the recursion unguarded.
const MAX_UNFOLD_DEPTH: u32 = 128;

/// Compute the unprioritized outgoing transitions of `p`, deduplicated.
pub fn steps(env: &Env, p: &P) -> Vec<(Label, P)> {
    let mut out = raw_steps(env, p, 0);
    if out.len() > 1 {
        let mut seen: HashSet<(Label, P)> = HashSet::with_capacity(out.len());
        out.retain(|s| seen.insert(s.clone()));
    }
    out
}

fn ground_prio(e: &crate::expr::Expr) -> u32 {
    let v = e
        .eval_ground()
        .expect("non-ground priority expression in reachable state");
    u32::try_from(v.max(0)).unwrap_or(u32::MAX)
}

fn raw_steps(env: &Env, p: &P, depth: u32) -> Vec<(Label, P)> {
    match &**p {
        Proc::Nil => Vec::new(),

        Proc::Act { action, tag, next } => {
            let ga = GAction::from_template(action, *tag)
                .expect("ill-formed action in reachable state");
            vec![(Label::A(Arc::new(ga)), next.clone())]
        }

        Proc::Evt { event, next } => {
            let prio = ground_prio(&event.prio);
            let label = match &event.kind {
                EvKind::Send(l) => Label::E {
                    label: *l,
                    dir: Dir::Send,
                    prio,
                },
                EvKind::Recv(l) => Label::E {
                    label: *l,
                    dir: Dir::Recv,
                    prio,
                },
                EvKind::Tau(via) => Label::Tau { prio, via: *via },
            };
            vec![(label, next.clone())]
        }

        Proc::Choice(alts) => alts
            .iter()
            .flat_map(|a| raw_steps(env, a, depth))
            .collect(),

        Proc::Guard { cond, then } => {
            if cond
                .eval(&[])
                .expect("non-ground guard in reachable state")
            {
                raw_steps(env, then, depth)
            } else {
                Vec::new()
            }
        }

        Proc::Par(comps) => par_steps(env, comps, depth),

        Proc::Scope {
            body,
            limit,
            exception,
            timeout,
            interrupt,
        } => scope_steps(env, body, limit, exception, timeout, interrupt, depth),

        Proc::Restrict { body, labels } => raw_steps(env, body, depth)
            .into_iter()
            .filter(|(l, _)| match l {
                Label::E { label, .. } => !labels.contains(label),
                _ => true,
            })
            .map(|(l, b)| {
                (
                    l,
                    Arc::new(Proc::Restrict {
                        body: b,
                        labels: labels.clone(),
                    }),
                )
            })
            .collect(),

        Proc::Close { body, resources } => raw_steps(env, body, depth)
            .into_iter()
            .map(|(l, b)| {
                let l = match l {
                    Label::A(a) => {
                        let mut uses: Vec<(crate::symbol::Res, u32)> = a.uses.to_vec();
                        for r in resources.iter() {
                            if !a.uses_resource(*r) {
                                uses.push((*r, 0));
                            }
                        }
                        uses.sort_unstable_by_key(|(r, _)| *r);
                        Label::A(Arc::new(GAction {
                            uses: uses.into_boxed_slice(),
                            tags: a.tags.clone(),
                        }))
                    }
                    other => other,
                };
                (
                    l,
                    Arc::new(Proc::Close {
                        body: b,
                        resources: resources.clone(),
                    }),
                )
            })
            .collect(),

        Proc::Invoke { def, args } => {
            assert!(
                depth < MAX_UNFOLD_DEPTH,
                "unguarded recursion while unfolding {} (depth {})",
                env.def(*def).name,
                depth
            );
            let vals: Vec<i64> = args
                .iter()
                .map(|e| {
                    e.eval_ground()
                        .expect("non-ground invocation argument in reachable state")
                })
                .collect();
            let body = env
                .instantiate(*def, &vals)
                .unwrap_or_else(|e| panic!("cannot unfold {}: {e}", env.def(*def).name));
            raw_steps(env, &body, depth + 1)
        }
    }
}

/// Replace component `i` of `comps` with `p`, re-wrapping in `Par`.
fn replace1(comps: &[P], i: usize, p: P) -> P {
    let mut new: Vec<P> = comps.to_vec();
    new[i] = p;
    Arc::new(Proc::Par(new))
}

fn replace2(comps: &[P], i: usize, pi: P, j: usize, pj: P) -> P {
    let mut new: Vec<P> = comps.to_vec();
    new[i] = pi;
    new[j] = pj;
    Arc::new(Proc::Par(new))
}

fn par_steps(env: &Env, comps: &[P], depth: u32) -> Vec<(Label, P)> {
    let per: Vec<Vec<(Label, P)>> = comps.iter().map(|c| raw_steps(env, c, depth)).collect();
    let mut out: Vec<(Label, P)> = Vec::new();

    // 1. A single component performs an instantaneous step on its own.
    for (i, steps_i) in per.iter().enumerate() {
        for (l, pi) in steps_i {
            if !l.is_timed() {
                out.push((l.clone(), replace1(comps, i, pi.clone())));
            }
        }
    }

    // 2. Two components synchronise a matching send/receive pair into τ@e.
    for i in 0..per.len() {
        for j in (i + 1)..per.len() {
            for (li, pi) in &per[i] {
                let (l1, d1, p1) = match li {
                    Label::E { label, dir, prio } => (*label, *dir, *prio),
                    _ => continue,
                };
                for (lj, pj) in &per[j] {
                    let (l2, d2, p2) = match lj {
                        Label::E { label, dir, prio } => (*label, *dir, *prio),
                        _ => continue,
                    };
                    if l1 == l2 && d1 != d2 {
                        out.push((
                            Label::Tau {
                                prio: p1.saturating_add(p2),
                                via: Some(l1),
                            },
                            replace2(comps, i, pi.clone(), j, pj.clone()),
                        ));
                    }
                }
            }
        }
    }

    // 3. Joint timed steps: one action per component, resources pairwise
    //    disjoint (Par3), merged left to right with early conflict pruning.
    let timed: Vec<Vec<(&GAction, &P)>> = per
        .iter()
        .map(|steps_i| {
            steps_i
                .iter()
                .filter_map(|(l, p)| match l {
                    Label::A(a) => Some((&**a, p)),
                    _ => None,
                })
                .collect::<Vec<_>>()
        })
        .collect();
    combine_timed(&timed, &mut |uses, tags, picked| {
        let action = GAction {
            uses: uses.into(),
            tags: tags.into(),
        };
        let new: Vec<P> = picked.iter().map(|p| (*p).clone()).collect();
        out.push((Label::A(Arc::new(action)), Arc::new(Proc::Par(new))));
    });

    out
}

/// Rule *Par3* over the components' timed steps `timed`: every pick of one
/// action per component with pairwise disjoint resources, in nested-loop
/// order (component 0 outermost). For each pick, `emit` receives the merged
/// action, as its `(resource, priority)` pairs sorted by resource and its
/// tags in component order (what folding [`GAction::merge`] left to right
/// from [`GAction::idle`] gives), and the picked successors. The walk keeps
/// the partial merge in scratch buffers, so only `emit` allocates. Both
/// engines use it: [`par_steps`] and the session's candidate generator.
fn combine_timed<'a, T>(timed: &[Vec<(&'a GAction, &'a T)>], emit: &mut Par3Emit<'_, 'a, T>) {
    if timed.iter().any(Vec::is_empty) {
        // A component without a timed step blocks time.
        return;
    }
    let mut walk = Par3 {
        uses: Vec::new(),
        tags: Vec::new(),
        sorted: Vec::new(),
        picked: Vec::with_capacity(timed.len()),
    };
    walk.pick(timed, emit);
}

/// The receiver of one complete pick of [`combine_timed`]: the merged
/// action's uses and tags, and the picked successors.
type Par3Emit<'e, 'a, T> = dyn FnMut(&[(Res, u32)], &[TagId], &[&'a T]) + 'e;

/// The scratch state of [`combine_timed`].
struct Par3<'a, T> {
    /// The picked actions' uses, concatenated in component order.
    uses: Vec<(Res, u32)>,
    /// The picked actions' tags, concatenated in component order.
    tags: Vec<TagId>,
    /// `uses` sorted by resource, filled at each complete pick.
    sorted: Vec<(Res, u32)>,
    picked: Vec<&'a T>,
}

impl<'a, T> Par3<'a, T> {
    fn pick(&mut self, timed: &[Vec<(&'a GAction, &'a T)>], emit: &mut Par3Emit<'_, 'a, T>) {
        let Some(steps) = timed.get(self.picked.len()) else {
            self.sorted.clear();
            self.sorted.extend_from_slice(&self.uses);
            self.sorted.sort_unstable_by_key(|(r, _)| *r);
            emit(&self.sorted, &self.tags, &self.picked);
            return;
        };
        let (n_uses, n_tags) = (self.uses.len(), self.tags.len());
        for (a, p) in steps {
            let conflict = a
                .uses
                .iter()
                .any(|(r, _)| self.uses.iter().any(|(held, _)| held == r));
            if conflict {
                continue;
            }
            self.uses.extend_from_slice(&a.uses);
            self.tags.extend_from_slice(&a.tags);
            self.picked.push(p);
            self.pick(timed, emit);
            self.picked.pop();
            self.uses.truncate(n_uses);
            self.tags.truncate(n_tags);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn scope_steps(
    env: &Env,
    body: &P,
    limit: &TimeBound,
    exception: &Option<(crate::symbol::Symbol, P)>,
    timeout: &Option<P>,
    interrupt: &Option<P>,
    depth: u32,
) -> Vec<(Label, P)> {
    let remaining: Option<i64> = match limit {
        TimeBound::Finite(e) => Some(
            e.eval_ground()
                .expect("non-ground scope bound in reachable state"),
        ),
        TimeBound::Infinite => None,
    };
    let mut out: Vec<(Label, P)> = Vec::new();
    let expired = remaining.is_some_and(|n| n <= 0);

    let rewrap = |b: P, new_limit: TimeBound| -> P {
        Arc::new(Proc::Scope {
            body: b,
            limit: new_limit,
            exception: exception.clone(),
            timeout: timeout.clone(),
            interrupt: interrupt.clone(),
        })
    };

    for (l, b) in raw_steps(env, body, depth) {
        // Exception exit: the body performs the scope's exception event, in
        // either direction — the thread skeleton of Fig. 4 exits its scope by
        // *sending* `done`, while the dispatchers of Fig. 6 exit theirs by
        // *receiving* it.
        if let (Label::E { label, .. }, Some((exc, handler))) = (&l, exception) {
            if label == exc {
                out.push((l.clone(), handler.clone()));
                continue;
            }
        }
        match &l {
            Label::A(_) if expired => {
                // No timed steps past the boundary instant.
            }
            Label::A(_) => {
                let new_limit = match remaining {
                    Some(n) => TimeBound::Finite(crate::expr::Expr::Const(n - 1)),
                    None => TimeBound::Infinite,
                };
                out.push((l, rewrap(b, new_limit)));
            }
            _ => {
                // Instantaneous steps never consume scope time; they remain
                // available at the boundary instant as well (a thread may
                // signal completion at exactly its deadline).
                out.push((l, rewrap(b, limit.clone())));
            }
        }
    }

    if expired {
        // Timeout: the continuation's steps are offered at the boundary.
        if let Some(r) = timeout {
            out.extend(raw_steps(env, r, depth));
        }
    } else if let Some(s) = interrupt {
        // The interrupt handler may take over at any moment while active.
        out.extend(raw_steps(env, s, depth));
    }

    out
}

// ---------------------------------------------------------------------------
// Interned, memoized successor generation
// ---------------------------------------------------------------------------

/// Which components of a `Par` one parallel-rule candidate changes, and to
/// what: enough to intern its successor later, or never.
enum Recipe<'a> {
    /// Phase 1: component `i` steps alone.
    One(usize, &'a Interned),
    /// Phase 2: components `i < j` synchronise.
    Two(usize, &'a Interned, usize, &'a Interned),
    /// Phase 3: every component takes a timed step; the successors picked
    /// start at this offset of the candidates' pick list.
    All(usize),
}

impl Recipe<'_> {
    /// Write the successor's components into `buf`, given the `Par`'s
    /// `kids` and the phase-3 `picks`.
    fn fill(&self, kids: &[Interned], picks: &[&Interned], buf: &mut Vec<Interned>) {
        buf.clear();
        match *self {
            Recipe::One(i, pi) => {
                buf.extend_from_slice(kids);
                buf[i] = pi.clone();
            }
            Recipe::Two(i, pi, j, pj) => {
                buf.extend_from_slice(kids);
                buf[i] = pi.clone();
                buf[j] = pj.clone();
            }
            Recipe::All(at) => buf.extend(picks[at..at + kids.len()].iter().map(|&p| p.clone())),
        }
    }
}

/// Drop repeated `(label, successor)` pairs, keeping first occurrences.
fn dedup(out: &mut Vec<(Label, Interned)>) {
    if out.len() > 1 {
        let mut seen: HashSet<(Label, TermId)> = HashSet::with_capacity(out.len());
        out.retain(|(l, s)| seen.insert((l.clone(), s.id())));
    }
}

/// Configuration of the successor memo of a [`StepSession`].
///
/// # Examples
///
/// ```
/// use acsr::step::MemoConfig;
///
/// let on = MemoConfig::default();
/// assert!(on.enabled);
/// let off = MemoConfig::disabled();
/// assert!(!off.enabled);
/// ```
#[derive(Copy, Clone, Debug)]
pub struct MemoConfig {
    /// Memoize successor lists at all. Disabling reduces a session to
    /// interning only (the memo-free baseline the acsr-level tests compare
    /// the memoized relation against).
    pub enabled: bool,
    /// Maximum number of cached raw successor lists, the lists of the
    /// components below a root state. Bounded so arbitrarily long runs
    /// cannot grow memory without limit; the table evicts in FIFO order past
    /// the cap. A root state's prioritized list lives in a second FIFO table
    /// of `min(`[`ROOT_WINDOW`]`, capacity)` entries (see [`StepSession`]).
    pub capacity: usize,
}

impl Default for MemoConfig {
    fn default() -> MemoConfig {
        MemoConfig {
            enabled: true,
            capacity: 1 << 18,
        }
    }
}

impl MemoConfig {
    /// Memoization switched off (interning only).
    pub fn disabled() -> MemoConfig {
        MemoConfig {
            enabled: false,
            capacity: 0,
        }
    }

    /// Memoization on with an explicit entry cap.
    pub fn with_capacity(capacity: usize) -> MemoConfig {
        MemoConfig {
            enabled: true,
            capacity,
        }
    }
}

/// Entries of the root window: the most recent root states whose
/// prioritized lists a [`StepSession`] keeps. The search re-reads a root's
/// list, if at all, soon after computing it: on the largest `branching`
/// benchmark model all but 6 of 37 225 re-reads come within 2 048 further
/// root derivations, and on `longperiod` all but 60 of 74 886 within 256
/// (EXPERIMENTS.md Q19). A list read again after leaving the window is
/// derived again, which `MemoStats::root_rederivations` counts.
pub const ROOT_WINDOW: usize = 4096;

/// A memo key: the term and the env epoch.
type MemoKey = (TermId, u64);

/// A memoized successor list. Values carry the successors' canonical `Arc`s
/// alongside their ids, so a hit requires no store lookup.
type List = Arc<Vec<(Label, Interned)>>;

/// A bounded table of successor lists that evicts in FIFO order.
struct Fifo {
    map: HashMap<MemoKey, List>,
    order: VecDeque<MemoKey>,
    /// Entry cap (at least 1).
    capacity: usize,
}

impl Fifo {
    fn new(capacity: usize) -> Fifo {
        Fifo {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Insert `key`, which the table lacks, returning the key evicted to
    /// make room, if any.
    fn insert(&mut self, key: MemoKey, value: List) -> Option<MemoKey> {
        let evicted = if self.map.len() >= self.capacity {
            self.order.pop_front().inspect(|old| {
                self.map.remove(old);
            })
        } else {
            None
        };
        self.map.insert(key, value);
        self.order.push_back(key);
        evicted
    }
}

/// The successor memo: raw lists of the terms below a root state, and the
/// window of root states' prioritized lists (see [`StepSession`]).
struct Memo {
    raw: Fifo,
    roots: Fifo,
    /// Bit `TermId::raw` is set once the window has evicted that root's list.
    evicted_roots: Vec<u64>,
    stats: MemoStats,
}

impl Memo {
    fn new(capacity: usize) -> Memo {
        Memo {
            raw: Fifo::new(capacity),
            roots: Fifo::new(ROOT_WINDOW.min(capacity)),
            evicted_roots: Vec::new(),
            stats: MemoStats::default(),
        }
    }

    fn table(&self, root: bool) -> &Fifo {
        if root {
            &self.roots
        } else {
            &self.raw
        }
    }

    fn was_evicted(&self, root: TermId) -> bool {
        let i = root.raw() as usize;
        self.evicted_roots
            .get(i / 64)
            .is_some_and(|word| word & (1 << (i % 64)) != 0)
    }

    fn insert(&mut self, key: MemoKey, root: bool, value: List) {
        if !root {
            if self.raw.insert(key, value).is_some() {
                self.stats.evictions += 1;
            }
        } else if let Some((old, _)) = self.roots.insert(key, value) {
            let i = old.raw() as usize;
            if self.evicted_roots.len() <= i / 64 {
                self.evicted_roots.resize(i / 64 + 1, 0);
            }
            self.evicted_roots[i / 64] |= 1 << (i % 64);
        }
    }
}

/// Statistics of one [`StepSession`]'s memo, taken with
/// [`StepSession::memo_stats`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Successor lists served from the cache.
    pub hits: u64,
    /// Successor lists computed (and, capacity permitting, cached).
    pub misses: u64,
    /// Raw lists dropped by the FIFO bound of [`MemoConfig::capacity`].
    /// Root lists leaving the window are not counted here.
    pub evictions: u64,
    /// Misses on a root state whose prioritized list the window had
    /// evicted: lists derived a second time (or more). Counted in `misses`
    /// too.
    pub root_rederivations: u64,
}

/// The session's timed labels, hash-consed: one `Arc<GAction>` per distinct
/// action, shared by every list that carries it.
#[derive(Default)]
struct LabelTable {
    /// Each distinct action with the digest of its `(uses, tags)`, in
    /// first-seen order: a label's id is its position.
    labels: Vec<(Arc<GAction>, u64)>,
    /// Digest → id, the store's open-addressing index.
    by_digest: IdIndex,
}

impl LabelTable {
    /// The action with these uses (sorted by resource) and tags, allocated
    /// only if the session has not seen it.
    fn intern(&mut self, uses: &[(Res, u32)], tags: &[TagId]) -> Arc<GAction> {
        let mut h = Fnv1a::new();
        uses.hash(&mut h);
        tags.hash(&mut h);
        let digest = h.finish();
        let labels = &self.labels;
        let hit = self.by_digest.find(digest, |id| {
            let (a, d) = &labels[id as usize];
            *d == digest && *a.uses == *uses && *a.tags == *tags
        });
        if let Some(id) = hit {
            return labels[id as usize].0.clone();
        }
        let id = IdIndex::id_for(labels.len()).expect("label table overflow");
        let a = Arc::new(GAction {
            uses: uses.into(),
            tags: tags.into(),
        });
        self.labels.push((a.clone(), digest));
        let labels = &self.labels;
        self.by_digest.push(id, |i| labels[i as usize].1);
        a
    }
}

/// An interned, memoized stepping context: the operational semantics of
/// [`steps`]/[`prioritized_steps`](crate::prio::prioritized_steps) computed
/// over hash-consed terms, with per-subterm successor caching.
///
/// A session borrows its [`Env`] (so the environment cannot change under the
/// cache — the borrow checker enforces what the epoch in the cache key
/// documents) and holds its [`TermStore`] by `Rc`. It produces, for every
/// term, the **same labels in the same order with structurally identical
/// successors** as the plain [`steps`] path; the property suite pins this
/// equivalence.
/// At a root state — a `Par`, or a `Restrict` over one — it interns only
/// the successors it returns: the parallel-rule candidates are restricted
/// and prioritized before any successor is built (see
/// [`StepSession::prioritized_steps`]), and each successor node is looked
/// up before it is allocated, at exactly its number of components.
///
/// The memo has two FIFO tables. The raw lists of the terms below a root
/// (components, their bodies and unfoldings) are re-read for the whole run
/// and keep up to [`MemoConfig::capacity`] entries. A root's prioritized
/// list is re-read, if at all, soon after it is computed, so only the last
/// `min(`[`ROOT_WINDOW`]`, capacity)` of them are kept; a root read again
/// later is derived again from the cached component lists. Timed labels are
/// hash-consed per session: equal actions share one `Arc<GAction>`.
/// The memo is a pure cache: hits, misses and evictions never change the
/// transition relation, only how often it is re-derived.
///
/// A session has one owner: the memo and the label table sit in
/// [`RefCell`]s, and a session is not `Sync`:
///
/// ```compile_fail
/// fn shared<T: Sync>() {}
/// shared::<acsr::StepSession<'static>>();
/// ```
///
/// # Examples
///
/// ```
/// use acsr::prelude::*;
/// use acsr::step::{MemoConfig, StepSession};
/// use acsr::store::TermStore;
/// use std::rc::Rc;
///
/// let mut env = Env::new();
/// let cpu = Res::new("cpu");
/// let d = env.declare("Tick", 0);
/// env.set_body(d, act([(cpu, 1)], invoke(d, [])));
///
/// let session = StepSession::new(&env, Rc::new(TermStore::new()), MemoConfig::default());
/// let p = session.intern(&invoke(d, []));
/// let s1 = session.prioritized_steps(&p);
/// assert_eq!(s1.len(), 1);
/// // The successor re-enters the same state: O(1) id equality…
/// assert_eq!(s1[0].1.id(), p.id());
/// // …and stepping it again is a memo hit.
/// let _ = session.prioritized_steps(&s1[0].1);
/// assert!(session.memo_stats().hits > 0);
/// ```
pub struct StepSession<'e> {
    env: &'e Env,
    store: Rc<TermStore>,
    epoch: u64,
    memo: Option<RefCell<Memo>>,
    labels: RefCell<LabelTable>,
}

impl<'e> StepSession<'e> {
    /// A session over `env` interning into `store`, with the given memo
    /// configuration.
    pub fn new(env: &'e Env, store: Rc<TermStore>, config: MemoConfig) -> StepSession<'e> {
        StepSession {
            env,
            store,
            epoch: env.epoch(),
            memo: config
                .enabled
                .then(|| RefCell::new(Memo::new(config.capacity))),
            labels: RefCell::default(),
        }
    }

    /// The session's term store.
    pub fn store(&self) -> &Rc<TermStore> {
        &self.store
    }

    /// Intern a term into the session's store.
    pub fn intern(&self, p: &P) -> Interned {
        self.store.intern(p)
    }

    /// Hit / miss / eviction / re-derivation counts so far.
    pub fn memo_stats(&self) -> MemoStats {
        self.memo
            .as_ref()
            .map_or(MemoStats::default(), |m| m.borrow().stats)
    }

    /// The session's one `Arc` for the timed action with these uses and tags.
    fn action(&self, uses: &[(Res, u32)], tags: &[TagId]) -> Label {
        Label::A(self.labels.borrow_mut().intern(uses, tags))
    }

    /// The unprioritized outgoing transitions of `t`, deduplicated — the
    /// interned counterpart of [`steps`].
    pub fn steps(&self, t: &Interned) -> Vec<(Label, Interned)> {
        let mut out = self.raw(t, 0).as_ref().clone();
        dedup(&mut out);
        out
    }

    /// The prioritized outgoing transitions of `t` — the interned counterpart
    /// of [`prioritized_steps`](crate::prio::prioritized_steps).
    ///
    /// A root that is a `Par`, or a `Restrict` directly over one (every
    /// state the AADL translation produces), interns only the successors
    /// the prioritized relation keeps: the parallel rule's candidates pass
    /// the restriction and [`prioritize`](crate::prio::prioritize) while
    /// they are still `(label, recipe)` pairs, and only the survivors are
    /// built, each at exact size and only if the store lacks it. The list
    /// is memoized in the root window (the last [`ROOT_WINDOW`] roots, see
    /// [`StepSession`]); neither the root's raw list nor its `Par` body's
    /// is computed. A root read again after leaving the window is derived
    /// again, to the same list, and counted in
    /// [`MemoStats::root_rederivations`].
    /// Preemption reads labels only and deduplication drops only exact
    /// `(label, successor)` repeats, so filtering before building yields
    /// the list that building, deduplicating and then filtering would.
    /// Every other root is `prioritize(self.steps(t))`.
    pub fn prioritized_steps(&self, t: &Interned) -> Vec<(Label, Interned)> {
        let root_par = match &**t.term() {
            Proc::Par(comps) => Some((comps, None)),
            Proc::Restrict { body, labels } => match &**body {
                Proc::Par(comps) => Some((comps, Some(labels))),
                _ => None,
            },
            _ => None,
        };
        let Some((comps, hidden)) = root_par else {
            return crate::prio::prioritize(self.steps(t));
        };
        let kept = self.memoized(t.id(), true, || {
            let mut out = self.par(comps, hidden, true, 0);
            dedup(&mut out);
            out
        });
        kept.as_ref().clone()
    }

    /// The memoized raw-successor relation. Mirrors [`raw_steps`] case by
    /// case — same labels, same iteration order, same panics — except that
    /// successors come back interned, that the whole list may be served
    /// from the cache, and that a `Restrict` over a `Par` never builds the
    /// lone events it would drop.
    fn raw(&self, t: &Interned, depth: u32) -> List {
        self.memoized(t.id(), false, || self.compute(t, depth))
    }

    /// Serve `t`'s list from the memo — the root window when `root`, else
    /// the raw table — or compute it and cache it. The insert happens
    /// strictly *after* the compute, so unguarded recursion still runs into
    /// the [`MAX_UNFOLD_DEPTH`] assertion instead of hitting a half-built
    /// cache entry. For the same reason the compute never inserts `t`
    /// itself: a derivation that reaches `t` again recurses until that
    /// assertion fires.
    fn memoized(
        &self,
        t: TermId,
        root: bool,
        compute: impl FnOnce() -> Vec<(Label, Interned)>,
    ) -> List {
        let key = (t, self.epoch);
        if let Some(memo) = &self.memo {
            let mut memo = memo.borrow_mut();
            if let Some(hit) = memo.table(root).map.get(&key).cloned() {
                memo.stats.hits += 1;
                return hit;
            }
            memo.stats.misses += 1;
            if root && memo.was_evicted(t) {
                memo.stats.root_rederivations += 1;
            }
        }
        let computed = Arc::new(compute());
        if let Some(memo) = &self.memo {
            memo.borrow_mut().insert(key, root, computed.clone());
        }
        computed
    }

    fn compute(&self, t: &Interned, depth: u32) -> Vec<(Label, Interned)> {
        match &**t.term() {
            Proc::Nil => Vec::new(),

            Proc::Act { action, tag, next } => {
                let ga = GAction::from_template(action, *tag)
                    .expect("ill-formed action in reachable state");
                vec![(self.action(&ga.uses, &ga.tags), self.store.intern(next))]
            }

            Proc::Evt { event, next } => {
                let prio = ground_prio(&event.prio);
                let label = match &event.kind {
                    EvKind::Send(l) => Label::E {
                        label: *l,
                        dir: Dir::Send,
                        prio,
                    },
                    EvKind::Recv(l) => Label::E {
                        label: *l,
                        dir: Dir::Recv,
                        prio,
                    },
                    EvKind::Tau(via) => Label::Tau { prio, via: *via },
                };
                vec![(label, self.store.intern(next))]
            }

            Proc::Choice(alts) => alts
                .iter()
                .flat_map(|a| self.raw(&self.store.intern(a), depth).as_ref().clone())
                .collect(),

            Proc::Guard { cond, then } => {
                if cond
                    .eval(&[])
                    .expect("non-ground guard in reachable state")
                {
                    self.raw(&self.store.intern(then), depth).as_ref().clone()
                } else {
                    Vec::new()
                }
            }

            Proc::Par(comps) => self.par(comps, None, false, depth),

            Proc::Scope {
                body,
                limit,
                exception,
                timeout,
                interrupt,
            } => self.scope(body, limit, exception, timeout, interrupt, depth),

            Proc::Restrict { body, labels } => match &**body {
                Proc::Par(comps) => self.par(comps, Some(labels), false, depth),
                _ => {
                    let restriction = Restriction::new(labels);
                    self.raw(&self.store.intern(body), depth)
                        .iter()
                        .filter(|(l, _)| match l {
                            Label::E { label, .. } => !labels.contains(label),
                            _ => true,
                        })
                        .map(|(l, b)| (l.clone(), self.store.mk_restrict(b, &restriction)))
                        .collect()
                }
            },

            Proc::Close { body, resources } => self
                .raw(&self.store.intern(body), depth)
                .iter()
                .map(|(l, b)| {
                    let l = match l {
                        Label::A(a) => {
                            let mut uses: Vec<(Res, u32)> = a.uses.to_vec();
                            for r in resources.iter() {
                                if !a.uses_resource(*r) {
                                    uses.push((*r, 0));
                                }
                            }
                            uses.sort_unstable_by_key(|(r, _)| *r);
                            self.action(&uses, &a.tags)
                        }
                        other => other.clone(),
                    };
                    (l, self.store.mk_close(b, resources))
                })
                .collect(),

            Proc::Invoke { def, args } => {
                assert!(
                    depth < MAX_UNFOLD_DEPTH,
                    "unguarded recursion while unfolding {} (depth {})",
                    self.env.def(*def).name,
                    depth
                );
                let vals: Vec<i64> = args
                    .iter()
                    .map(|e| {
                        e.eval_ground()
                            .expect("non-ground invocation argument in reachable state")
                    })
                    .collect();
                let body = self
                    .env
                    .instantiate(*def, &vals)
                    .unwrap_or_else(|e| panic!("cannot unfold {}: {e}", self.env.def(*def).name));
                self.raw(&self.store.intern(&body), depth + 1).as_ref().clone()
            }
        }
    }

    /// The interned counterpart of [`par_steps`], for a `Par` that sits
    /// directly under `Restrict(_, hidden)` when `hidden` is given: each
    /// successor is wrapped in that restriction, and lone events on a
    /// hidden label are never generated. With `preempt`, the candidates go
    /// through [`prioritize`](crate::prio::prioritize) first. Only the
    /// candidates left are interned.
    fn par(
        &self,
        comps: &[P],
        hidden: Option<&Arc<BTreeSet<Symbol>>>,
        preempt: bool,
        depth: u32,
    ) -> Vec<(Label, Interned)> {
        // One pointer-index hit per component here; every successor below is
        // then assembled from these `Interned` values without touching the
        // pointer index again (`mk_par` digests from the children's digests).
        let kids: Vec<Interned> = comps.iter().map(|c| self.store.intern(c)).collect();
        let per: Vec<List> = kids.iter().map(|k| self.raw(k, depth)).collect();
        let (mut candidates, picks) = self.par_candidates(&per, hidden.map(|h| &**h));
        if preempt {
            candidates = crate::prio::prioritize(candidates);
        }
        let restriction = hidden.map(Restriction::new);
        let mut buf: Vec<Interned> = Vec::with_capacity(kids.len());
        candidates
            .into_iter()
            .map(|(l, recipe)| {
                recipe.fill(&kids, &picks, &mut buf);
                let succ = self.store.mk_par(&buf);
                match &restriction {
                    Some(r) => (l, self.store.mk_restrict(&succ, r)),
                    None => (l, succ),
                }
            })
            .collect()
    }

    /// The parallel rule's candidates over the components' raw successor lists
    /// `per`: the labels of [`par_steps`] in its order, each with the recipe of
    /// its successor, plus the successors the phase-3 recipes picked, one
    /// run of `per.len()` per recipe. A lone event on a `hidden` label is
    /// not generated — the `Restrict` around the `Par` would drop it; phases
    /// 2 and 3 yield `τ` and timed labels, which no restriction blocks.
    fn par_candidates<'a>(
        &self,
        per: &'a [List],
        hidden: Option<&BTreeSet<Symbol>>,
    ) -> (Vec<(Label, Recipe<'a>)>, Vec<&'a Interned>) {
        let mut out: Vec<(Label, Recipe<'a>)> = Vec::new();

        // 1. A single component performs an instantaneous step on its own.
        for (i, steps_i) in per.iter().enumerate() {
            for (l, pi) in steps_i.iter() {
                let restricted = match l {
                    Label::E { label, .. } => hidden.is_some_and(|h| h.contains(label)),
                    _ => false,
                };
                if !l.is_timed() && !restricted {
                    out.push((l.clone(), Recipe::One(i, pi)));
                }
            }
        }

        // 2. Two components synchronise a matching send/receive pair into τ@e.
        for i in 0..per.len() {
            for j in (i + 1)..per.len() {
                for (li, pi) in per[i].iter() {
                    let (l1, d1, p1) = match li {
                        Label::E { label, dir, prio } => (*label, *dir, *prio),
                        _ => continue,
                    };
                    for (lj, pj) in per[j].iter() {
                        let (l2, d2, p2) = match lj {
                            Label::E { label, dir, prio } => (*label, *dir, *prio),
                            _ => continue,
                        };
                        if l1 == l2 && d1 != d2 {
                            out.push((
                                Label::Tau {
                                    prio: p1.saturating_add(p2),
                                    via: Some(l1),
                                },
                                Recipe::Two(i, pi, j, pj),
                            ));
                        }
                    }
                }
            }
        }

        // 3. Joint timed steps (Par3), through the same walk as `par_steps`.
        let timed: Vec<Vec<(&GAction, &Interned)>> = per
            .iter()
            .map(|steps_i| {
                steps_i
                    .iter()
                    .filter_map(|(l, p)| match l {
                        Label::A(a) => Some((&**a, p)),
                        _ => None,
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        let mut picks: Vec<&'a Interned> = Vec::new();
        combine_timed(&timed, &mut |uses, tags, picked| {
            out.push((self.action(uses, tags), Recipe::All(picks.len())));
            picks.extend_from_slice(picked);
        });

        (out, picks)
    }

    /// Interned counterpart of [`scope_steps`], case for case.
    #[allow(clippy::too_many_arguments)]
    fn scope(
        &self,
        body: &P,
        limit: &TimeBound,
        exception: &Option<(crate::symbol::Symbol, P)>,
        timeout: &Option<P>,
        interrupt: &Option<P>,
        depth: u32,
    ) -> Vec<(Label, Interned)> {
        let remaining: Option<i64> = match limit {
            TimeBound::Finite(e) => Some(
                e.eval_ground()
                    .expect("non-ground scope bound in reachable state"),
            ),
            TimeBound::Infinite => None,
        };
        let mut out: Vec<(Label, Interned)> = Vec::new();
        let expired = remaining.is_some_and(|n| n <= 0);

        // The scope node is canonical, so its fixed children resolve through
        // the pointer index once here; `mk_scope` then rebuilds each successor
        // from their digests without re-walking them.
        let exc_i = exception.as_ref().map(|(s, h)| (*s, self.store.intern(h)));
        let to_i = timeout.as_ref().map(|t| self.store.intern(t));
        let ir_i = interrupt.as_ref().map(|i| self.store.intern(i));

        let rewrap = |b: &Interned, new_limit: TimeBound| -> Interned {
            self.store.mk_scope(b, new_limit, &exc_i, &to_i, &ir_i)
        };

        for (l, b) in self.raw(&self.store.intern(body), depth).iter() {
            if let (Label::E { label, .. }, Some((exc, handler))) = (l, &exc_i) {
                if label == exc {
                    out.push((l.clone(), handler.clone()));
                    continue;
                }
            }
            match l {
                Label::A(_) if expired => {}
                Label::A(_) => {
                    let new_limit = match remaining {
                        Some(n) => TimeBound::Finite(crate::expr::Expr::Const(n - 1)),
                        None => TimeBound::Infinite,
                    };
                    out.push((l.clone(), rewrap(b, new_limit)));
                }
                _ => {
                    out.push((l.clone(), rewrap(b, limit.clone())));
                }
            }
        }

        if expired {
            if let Some(r) = &to_i {
                out.extend(self.raw(r, depth).iter().cloned());
            }
        } else if let Some(s) = &ir_i {
            out.extend(self.raw(s, depth).iter().cloned());
        }

        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BExpr, Expr};
    use crate::symbol::{Res, Symbol};
    use crate::term::{
        act, choice, close, evt_recv, evt_send, guard, invoke, nil, par, restrict, scope, tau,
    };

    fn cpu() -> Res {
        Res::new("cpu")
    }
    fn bus() -> Res {
        Res::new("bus")
    }

    fn count_timed(steps: &[(Label, P)]) -> usize {
        steps.iter().filter(|(l, _)| l.is_timed()).count()
    }

    #[test]
    fn nil_has_no_steps() {
        let env = Env::new();
        assert!(steps(&env, &nil()).is_empty());
    }

    #[test]
    fn action_prefix_offers_one_step() {
        let env = Env::new();
        let p = act([(cpu(), 1)], nil());
        let s = steps(&env, &p);
        assert_eq!(s.len(), 1);
        match &s[0].0 {
            Label::A(a) => {
                assert_eq!(a.prio_of(cpu()), 1);
                assert_eq!(a.len(), 1);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn event_prefixes_offer_their_event() {
        let env = Env::new();
        let e = Symbol::new("go");
        let s = steps(&env, &evt_send(e, 3, nil()));
        assert_eq!(
            s[0].0,
            Label::E {
                label: e,
                dir: Dir::Send,
                prio: 3
            }
        );
        let s = steps(&env, &evt_recv(e, 2, nil()));
        assert_eq!(
            s[0].0,
            Label::E {
                label: e,
                dir: Dir::Recv,
                prio: 2
            }
        );
        let s = steps(&env, &tau(1, Some(e), nil()));
        assert_eq!(
            s[0].0,
            Label::Tau {
                prio: 1,
                via: Some(e)
            }
        );
    }

    #[test]
    fn choice_unions_steps() {
        let env = Env::new();
        let p = choice([
            act([(cpu(), 1)], nil()),
            evt_send(Symbol::new("go"), 1, nil()),
        ]);
        let s = steps(&env, &p);
        assert_eq!(s.len(), 2);
        assert_eq!(count_timed(&s), 1);
    }

    #[test]
    fn guards_gate_steps() {
        let env = Env::new();
        let p = guard(BExpr::lt(Expr::c(1), Expr::c(2)), act([(cpu(), 1)], nil()));
        assert_eq!(steps(&env, &p).len(), 1);
        let p = guard(BExpr::lt(Expr::c(2), Expr::c(1)), act([(cpu(), 1)], nil()));
        assert!(steps(&env, &p).is_empty());
    }

    #[test]
    fn par_advances_time_jointly_with_disjoint_resources() {
        let env = Env::new();
        // {(cpu,1)}:NIL ∥ {(bus,1)}:NIL — one joint step using both resources.
        let p = par([act([(cpu(), 1)], nil()), act([(bus(), 1)], nil())]);
        let s = steps(&env, &p);
        assert_eq!(s.len(), 1);
        let a = s[0].0.action().unwrap();
        assert!(a.uses_resource(cpu()) && a.uses_resource(bus()));
    }

    #[test]
    fn par_blocks_conflicting_actions() {
        let env = Env::new();
        // Both need cpu ⇒ no joint timed step; no events either ⇒ deadlock.
        let p = par([act([(cpu(), 1)], nil()), act([(cpu(), 2)], nil())]);
        assert!(steps(&env, &p).is_empty());
    }

    #[test]
    fn par_with_nil_component_blocks_time() {
        let env = Env::new();
        let p = par([act([(cpu(), 1)], nil()), nil()]);
        assert!(steps(&env, &p).is_empty());
    }

    #[test]
    fn par_synchronises_events_into_tau() {
        let env = Env::new();
        let e = Symbol::new("sync");
        let p = par([evt_send(e, 2, nil()), evt_recv(e, 3, nil())]);
        let s = steps(&env, &p);
        // Individual send, individual recv, and the τ@sync.
        assert_eq!(s.len(), 3);
        let taus: Vec<_> = s.iter().filter(|(l, _)| l.is_tau()).collect();
        assert_eq!(taus.len(), 1);
        assert_eq!(
            taus[0].0,
            Label::Tau {
                prio: 5,
                via: Some(e)
            }
        );
    }

    #[test]
    fn restriction_forces_synchronisation() {
        let env = Env::new();
        let e = Symbol::new("locked");
        let p = restrict(
            par([evt_send(e, 1, nil()), evt_recv(e, 1, nil())]),
            [e],
        );
        let s = steps(&env, &p);
        assert_eq!(s.len(), 1);
        assert!(s[0].0.is_tau());
    }

    #[test]
    fn restriction_can_deadlock_unmatched_events() {
        let env = Env::new();
        let e = Symbol::new("nobody_listens");
        let p = restrict(evt_send(e, 1, nil()), [e]);
        assert!(steps(&env, &p).is_empty());
    }

    #[test]
    fn closure_pads_actions_with_owned_resources() {
        let env = Env::new();
        let p = close(act([(cpu(), 1)], nil()), [cpu(), bus()]);
        let s = steps(&env, &p);
        let a = s[0].0.action().unwrap();
        assert_eq!(a.prio_of(cpu()), 1);
        assert_eq!(a.prio_of(bus()), 0);
        assert!(a.uses_resource(bus()));
    }

    #[test]
    fn recursion_unfolds_through_invoke() {
        let mut env = Env::new();
        let d = env.declare("Loop", 1);
        env.set_body(
            d,
            act(
                [(cpu(), Expr::p(0))],
                invoke(d, [Expr::p(0).add(Expr::c(1))]),
            ),
        );
        let p = invoke(d, [Expr::c(5)]);
        let s = steps(&env, &p);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].0.action().unwrap().prio_of(cpu()), 5);
        // The residual is the invocation with incremented argument.
        let s2 = steps(&env, &s[0].1);
        assert_eq!(s2[0].0.action().unwrap().prio_of(cpu()), 6);
    }

    #[test]
    #[should_panic(expected = "unguarded recursion")]
    fn unguarded_recursion_panics() {
        let mut env = Env::new();
        let d = env.declare("Omega", 0);
        env.set_body(d, invoke(d, []));
        steps(&env, &invoke(d, []));
    }

    #[test]
    fn scope_times_out_to_continuation() {
        let env = Env::new();
        // scope(idle-loop, 2) with timeout → (done!,1).NIL
        let mut env2 = Env::new();
        let idler = env2.declare("Idler", 0);
        env2.set_body(idler, act([] as [(Res, i32); 0], invoke(idler, [])));
        let done = Symbol::new("done");
        let p = scope(
            invoke(idler, []),
            crate::term::TimeBound::Finite(Expr::c(2)),
            None,
            Some(evt_send(done, 1, nil())),
            None,
        );
        let _ = env;
        // Step 1: idle (limit 2 → 1).
        let s = steps(&env2, &p);
        assert_eq!(s.len(), 1);
        assert!(s[0].0.is_timed());
        // Step 2: idle (limit 1 → 0).
        let s = steps(&env2, &s[0].1);
        assert_eq!(s.len(), 1);
        // At the boundary: no more timed steps; the timeout continuation's
        // event is offered.
        let s = steps(&env2, &s[0].1);
        assert_eq!(s.len(), 1);
        assert!(matches!(s[0].0, Label::E { dir: Dir::Send, .. }));
    }

    #[test]
    fn scope_exception_exits_to_handler() {
        let env = Env::new();
        let exc = Symbol::new("complete");
        let after = Symbol::new("after");
        let body = act([(cpu(), 1)], evt_send(exc, 1, nil()));
        let p = scope(
            body,
            crate::term::TimeBound::Infinite,
            Some((exc, evt_send(after, 1, nil()))),
            None,
            None,
        );
        let s = steps(&env, &p);
        assert_eq!(s.len(), 1); // the timed step
        let s = steps(&env, &s[0].1);
        assert_eq!(s.len(), 1);
        // The exception event itself is visible...
        assert!(matches!(&s[0].0, Label::E { label, dir: Dir::Send, .. } if *label == exc));
        // ...and control transferred to the handler, not the body residual.
        let s = steps(&env, &s[0].1);
        assert!(matches!(&s[0].0, Label::E { label, .. } if *label == after));
    }

    #[test]
    fn scope_interrupt_handler_can_take_over() {
        let env = Env::new();
        let irq = Symbol::new("interrupt");
        let body = act([(cpu(), 1)], nil());
        let handler = evt_recv(irq, 1, act([(bus(), 1)], nil()));
        let p = scope(
            body,
            crate::term::TimeBound::Infinite,
            None,
            None,
            Some(handler),
        );
        let s = steps(&env, &p);
        // Body's timed step + handler's receive.
        assert_eq!(s.len(), 2);
        let recv = s
            .iter()
            .find(|(l, _)| matches!(l, Label::E { dir: Dir::Recv, .. }))
            .expect("interrupt receive offered");
        // After the interrupt fires, the scope is dissolved.
        let s2 = steps(&env, &recv.1);
        assert_eq!(s2.len(), 1);
        assert!(s2[0].0.action().unwrap().uses_resource(bus()));
    }

    #[test]
    fn scope_exception_triggers_on_receive_too() {
        // Fig. 6 dispatchers: the scope around the wait-for-done loop is
        // exited by *receiving* the done event.
        let env = Env::new();
        let done = Symbol::new("done");
        let idle_wait = choice([
            act([] as [(Res, i32); 0], nil()),
            evt_recv(done, 1, nil()),
        ]);
        let p = scope(
            idle_wait,
            crate::term::TimeBound::Finite(Expr::c(5)),
            Some((done, act([(cpu(), 9)], nil()))),
            Some(nil()),
            None,
        );
        let s = steps(&env, &p);
        let recv = s
            .iter()
            .find(|(l, _)| matches!(l, Label::E { dir: Dir::Recv, .. }))
            .expect("done? offered");
        // Receiving done exits to the handler, not the body continuation.
        let s2 = steps(&env, &recv.1);
        assert_eq!(s2.len(), 1);
        assert_eq!(s2[0].0.action().unwrap().prio_of(cpu()), 9);
    }

    #[test]
    fn boundary_events_allowed_at_deadline() {
        // A scope that expires immediately still lets the body perform
        // instantaneous steps — completion at exactly the deadline.
        let env = Env::new();
        let done = Symbol::new("done");
        let p = scope(
            evt_send(done, 1, nil()),
            crate::term::TimeBound::Finite(Expr::c(0)),
            None,
            Some(nil()),
            None,
        );
        let s = steps(&env, &p);
        assert_eq!(s.len(), 1);
        assert!(matches!(&s[0].0, Label::E { label, .. } if *label == done));
    }

    #[test]
    fn expired_scope_with_nil_timeout_blocks() {
        let env = Env::new();
        let p = scope(
            act([(cpu(), 1)], nil()),
            crate::term::TimeBound::Finite(Expr::c(0)),
            None,
            Some(nil()),
            None,
        );
        assert!(steps(&env, &p).is_empty());
    }

    #[test]
    fn duplicate_steps_are_deduplicated() {
        let env = Env::new();
        let a = act([(cpu(), 1)], nil());
        let p = choice([a.clone(), a]);
        assert_eq!(steps(&env, &p).len(), 1);
    }

    #[test]
    fn three_way_par_merges_all_actions() {
        let env = Env::new();
        let r1 = Res::new("r1");
        let r2 = Res::new("r2");
        let r3 = Res::new("r3");
        let p = par([
            act([(r1, 1)], nil()),
            act([(r2, 2)], nil()),
            act([(r3, 3)], nil()),
        ]);
        let s = steps(&env, &p);
        assert_eq!(s.len(), 1);
        let a = s[0].0.action().unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.prio_of(r2), 2);
    }

    #[test]
    fn par_explores_all_disjoint_combinations() {
        let env = Env::new();
        // Each component can compute (cpu) or idle: valid joint steps are
        // (compute, idle), (idle, compute), (idle, idle) — not (compute, compute).
        let worker = |prio: i64| {
            choice([
                act([(cpu(), prio)], nil()),
                act([] as [(Res, i32); 0], nil()),
            ])
        };
        let p = par([worker(1), worker(2)]);
        let s = steps(&env, &p);
        assert_eq!(count_timed(&s), 3);
    }

    /// Rule *Par3* as a left-to-right fold of [`GAction::merge`] from
    /// [`GAction::idle`], in nested-loop order: what [`combine_timed`]
    /// computes without the intermediate actions.
    fn merge_fold(timed: &[Vec<GAction>]) -> Vec<(GAction, Vec<usize>)> {
        fn go(
            timed: &[Vec<GAction>],
            acc: &GAction,
            picked: &mut Vec<usize>,
            out: &mut Vec<(GAction, Vec<usize>)>,
        ) {
            let Some(steps) = timed.get(picked.len()) else {
                out.push((acc.clone(), picked.clone()));
                return;
            };
            for (k, a) in steps.iter().enumerate() {
                if let Some(merged) = acc.merge(a) {
                    picked.push(k);
                    go(timed, &merged, picked, out);
                    picked.pop();
                }
            }
        }
        let mut out = Vec::new();
        go(timed, &GAction::idle(), &mut Vec::new(), &mut out);
        out
    }

    #[test]
    fn par3_walk_matches_folding_merge() {
        let mut env = Env::new();
        let tags = [env.tag("t0"), env.tag("t1")];
        let pool = [cpu(), bus(), Res::new("mem"), Res::new("lock")];
        let mut rng = det::DetRng::new(7);
        for _ in 0..500 {
            let timed: Vec<Vec<GAction>> = (0..rng.range_usize(1..5))
                .map(|_| {
                    (0..rng.range_usize(0..4))
                        .map(|_| {
                            let mut uses: Vec<(Res, u32)> = Vec::new();
                            for &r in &pool {
                                if rng.range_usize(0..3) == 0 {
                                    uses.push((r, rng.range_u64(0..3) as u32));
                                }
                            }
                            uses.sort_unstable_by_key(|(r, _)| *r);
                            let tags: Vec<TagId> = match rng.range_usize(0..3) {
                                0 => vec![],
                                1 => vec![*rng.pick(&tags)],
                                _ => tags.to_vec(),
                            };
                            GAction {
                                uses: uses.into(),
                                tags: tags.into(),
                            }
                        })
                        .collect()
                })
                .collect();
            let indices: Vec<Vec<usize>> = timed.iter().map(|t| (0..t.len()).collect()).collect();
            let refs: Vec<Vec<(&GAction, &usize)>> = timed
                .iter()
                .zip(&indices)
                .map(|(t, ix)| t.iter().zip(ix).collect())
                .collect();
            let mut walked = Vec::new();
            combine_timed(&refs, &mut |uses, tags, picked| {
                let action = GAction {
                    uses: uses.into(),
                    tags: tags.into(),
                };
                walked.push((action, picked.iter().map(|&&k| k).collect::<Vec<_>>()));
            });
            assert_eq!(walked, merge_fold(&timed), "timed steps {timed:?}");
        }
    }

    // -- StepSession: interned + memoized stepping ---------------------------

    fn session_over(env: &Env, config: MemoConfig) -> StepSession<'_> {
        StepSession::new(env, Rc::new(TermStore::new()), config)
    }

    /// Walk `p` breadth-first a few levels through both engines and insist on
    /// the same labels, in the same order, with structurally equal residues.
    fn assert_engines_agree(env: &Env, p: &P, config: MemoConfig) {
        let session = session_over(env, config);
        let mut legacy_frontier = vec![p.clone()];
        let mut interned_frontier = vec![session.intern(p)];
        for _ in 0..4 {
            let mut next_legacy = Vec::new();
            let mut next_interned = Vec::new();
            for (lp, ip) in legacy_frontier.iter().zip(&interned_frontier) {
                let ls = crate::prio::prioritized_steps(env, lp);
                let is = session.prioritized_steps(ip);
                assert_eq!(ls.len(), is.len(), "step counts diverged");
                for ((ll, lnext), (il, inext)) in ls.iter().zip(&is) {
                    assert_eq!(ll, il, "labels diverged");
                    assert_eq!(lnext, inext.term(), "residues diverged");
                    next_legacy.push(lnext.clone());
                    next_interned.push(inext.clone());
                }
            }
            legacy_frontier = next_legacy;
            interned_frontier = next_interned;
        }
    }

    #[test]
    fn session_matches_legacy_on_all_operators() {
        let mut env = Env::new();
        let e = Symbol::new("sync");
        let done = Symbol::new("done");
        let d = env.declare("Task", 1);
        env.set_body(
            d,
            act([(cpu(), Expr::p(0))], evt_send(done, 1, invoke(d, [Expr::p(0)]))),
        );
        let cases: Vec<P> = vec![
            par([invoke(d, [Expr::c(2)]), act([(bus(), 1)], nil())]),
            restrict(par([evt_send(e, 2, nil()), evt_recv(e, 3, nil())]), [e]),
            close(
                choice([act([(cpu(), 1)], nil()), act([] as [(Res, i32); 0], nil())]),
                [cpu(), bus()],
            ),
            scope(
                invoke(d, [Expr::c(1)]),
                TimeBound::Finite(Expr::c(2)),
                Some((done, act([(bus(), 4)], nil()))),
                Some(nil()),
                Some(evt_recv(e, 1, nil())),
            ),
            guard(BExpr::lt(Expr::c(1), Expr::c(2)), tau(1, None, nil())),
        ];
        for p in &cases {
            assert_engines_agree(&env, p, MemoConfig::default());
            assert_engines_agree(&env, p, MemoConfig::disabled());
        }
    }

    #[test]
    fn session_revisits_hit_the_memo() {
        let mut env = Env::new();
        let d = env.declare("Spin", 0);
        env.set_body(d, act([(cpu(), 1)], invoke(d, [])));
        let session = session_over(&env, MemoConfig::default());
        let p = session.intern(&invoke(d, []));
        let first = session.steps(&p);
        assert_eq!(first.len(), 1);
        // Spin loops back to itself: stepping the successor is a pure hit.
        let hits_before = session.memo_stats().hits;
        let again = session.steps(&first[0].1);
        assert_eq!(again.len(), 1);
        assert!(session.memo_stats().hits > hits_before);
        assert_eq!(session.memo_stats().evictions, 0);
    }

    #[test]
    fn disabled_memo_counts_nothing() {
        let env = Env::new();
        let session = session_over(&env, MemoConfig::disabled());
        let p = session.intern(&act([(cpu(), 1)], act([(cpu(), 2)], nil())));
        let _ = session.steps(&p);
        let _ = session.steps(&p);
        assert_eq!(session.memo_stats(), MemoStats::default());
    }

    #[test]
    fn tiny_memo_evicts_but_keeps_answers_identical() {
        let mut env = Env::new();
        let d = env.declare("Count", 1);
        env.set_body(
            d,
            act([(cpu(), 1)], invoke(d, [Expr::p(0).add(Expr::c(1))])),
        );
        // A chain of distinct states overflows a capacity-16 cache many times
        // over.
        let tiny = session_over(&env, MemoConfig::with_capacity(16));
        let full = session_over(&env, MemoConfig::default());
        let mut t = tiny.intern(&invoke(d, [Expr::c(0)]));
        let mut f = full.intern(&invoke(d, [Expr::c(0)]));
        for _ in 0..64 {
            let ts = tiny.prioritized_steps(&t);
            let fs = full.prioritized_steps(&f);
            assert_eq!(ts.len(), fs.len());
            for ((tl, tn), (fl, fn_)) in ts.iter().zip(&fs) {
                assert_eq!(tl, fl);
                assert_eq!(tn.term(), fn_.term());
            }
            t = ts[0].1.clone();
            f = fs[0].1.clone();
        }
        assert!(
            tiny.memo_stats().evictions > 0,
            "64 distinct states must overflow 16 slots"
        );
        assert_eq!(full.memo_stats().evictions, 0);
    }

    #[test]
    fn memo_entries_can_be_reinserted_after_eviction() {
        let mut env = Env::new();
        let d = env.declare("Mod", 1);
        // Mod(k): an 8-cycle — advance to Mod(k+1) while k < 7, wrap to
        // Mod(0) from k = 7. Each step claims the cpu at priority k+1.
        env.set_body(
            d,
            choice([
                guard(
                    BExpr::lt(Expr::p(0), Expr::c(7)),
                    act(
                        [(cpu(), Expr::p(0).add(Expr::c(1)))],
                        invoke(d, [Expr::p(0).add(Expr::c(1))]),
                    ),
                ),
                guard(
                    BExpr::lt(Expr::c(6), Expr::p(0)),
                    act([(cpu(), Expr::p(0).add(Expr::c(1)))], invoke(d, [Expr::c(0)])),
                ),
            ]),
        );
        let session = session_over(&env, MemoConfig::with_capacity(16));
        let mut t = session.intern(&invoke(d, [Expr::c(0)]));
        // Three laps around the cycle: entries are evicted and recomputed,
        // and the walk keeps producing the same action priorities.
        for lap in 0..3 {
            for k in 0..8 {
                let s = session.prioritized_steps(&t);
                assert_eq!(s.len(), 1, "lap {lap} state {k}");
                assert_eq!(s[0].0.action().unwrap().prio_of(cpu()), k + 1);
                t = s[0].1.clone();
            }
        }
        let stats = session.memo_stats();
        assert!(stats.misses > 0 && stats.evictions > 0);
    }

    #[test]
    fn restricted_lone_events_are_never_interned() {
        let env = Env::new();
        let a = Symbol::new("a");
        let session = session_over(&env, MemoConfig::default());
        let root = session.intern(&restrict(
            par([evt_send(a, 1, nil()), act([(cpu(), 1)], nil())]),
            [a],
        ));
        // Nobody receives `a` and the send blocks time: a deadlock.
        assert!(session.prioritized_steps(&root).is_empty());
        // A revisit is one memo hit and builds nothing.
        let (stats, len) = (session.memo_stats(), session.store().len());
        assert!(session.prioritized_steps(&root).is_empty());
        assert_eq!(session.memo_stats().hits, stats.hits + 1);
        assert_eq!(session.memo_stats().misses, stats.misses);
        assert_eq!(session.store().len(), len);
        // The lone send's successor, which the restriction drops, was
        // never interned: interning it now adds its `Par` node.
        session.intern(&par([nil(), act([(cpu(), 1)], nil())]));
        assert_eq!(session.store().len(), len + 1);
    }

    #[test]
    fn preempted_timed_combinations_are_never_interned() {
        let env = Env::new();
        let (low_ran, high_ran) = (Symbol::new("low_ran"), Symbol::new("high_ran"));
        let worker = |prio: i64, ran: Symbol| {
            choice([
                act([(cpu(), prio)], evt_send(ran, 1, nil())),
                act([] as [(Res, i32); 0], nil()),
            ])
        };
        let session = session_over(&env, MemoConfig::default());
        let root = session.intern(&par([worker(1, low_ran), worker(2, high_ran)]));
        let kept = session.prioritized_steps(&root);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].1.term(), &par([nil(), evt_send(high_ran, 1, nil())]));
        // "Low runs, high idles" and "both idle" are preempted by "high
        // runs"; neither successor was interned.
        let len = session.store().len();
        session.intern(&par([evt_send(low_ran, 1, nil()), nil()]));
        session.intern(&par([nil(), nil()]));
        assert_eq!(session.store().len(), len + 2);
    }

    /// The `Par` node of a root successor: the successor itself, or the
    /// body of its `Restrict`.
    fn par_kids(t: &Interned) -> &Vec<P> {
        match &**t.term() {
            Proc::Par(kids) => kids,
            Proc::Restrict { body, .. } => match &**body {
                Proc::Par(kids) => kids,
                other => panic!("not a Par: {other:?}"),
            },
            other => panic!("not a root successor: {other:?}"),
        }
    }

    #[test]
    fn root_successors_are_built_at_exact_size() {
        let env = Env::new();
        let go = Symbol::new("go");
        let worker = |r: Res| choice([act([(r, 1)], nil()), act([] as [(Res, i32); 0], nil())]);
        let roots = [
            par([worker(cpu()), worker(bus()), worker(Res::new("mem"))]),
            restrict(
                par([
                    evt_send(go, 1, worker(cpu())),
                    evt_recv(go, 1, nil()),
                    worker(bus()),
                ]),
                [go],
            ),
        ];
        let session = session_over(&env, MemoConfig::default());
        for root in &roots {
            let kept = session.prioritized_steps(&session.intern(root));
            assert!(!kept.is_empty());
            for (l, succ) in &kept {
                let kids = par_kids(succ);
                assert_eq!(kids.capacity(), kids.len(), "{l:?} successor is oversized");
            }
        }
    }

    #[test]
    fn equal_timed_labels_share_one_arc() {
        let env = Env::new();
        let done = Symbol::new("done");
        let session = session_over(&env, MemoConfig::default());
        // Both roots keep one timed step, {bus:1, cpu:1}, towards different
        // successors.
        let a = session.intern(&par([act([(cpu(), 1)], nil()), act([(bus(), 1)], nil())]));
        let b = session.intern(&par([
            act([(cpu(), 1)], evt_send(done, 1, nil())),
            act([(bus(), 1)], nil()),
        ]));
        let (sa, sb) = (session.prioritized_steps(&a), session.prioritized_steps(&b));
        assert_ne!(sa[0].1.id(), sb[0].1.id());
        match (&sa[0].0, &sb[0].0) {
            (Label::A(x), Label::A(y)) => {
                assert_eq!(x, y);
                assert!(Arc::ptr_eq(x, y), "equal actions are two allocations");
            }
            other => panic!("expected two timed labels, got {other:?}"),
        }
    }

    #[test]
    fn root_window_rederives_evicted_roots_from_cached_components() {
        let env = Env::new();
        // Three roots over the same two components: their two raw lists fit
        // the capacity-2 component table, but the window (min(4096, 2) = 2
        // entries) cannot hold all three prioritized lists.
        let root = |hidden: &str| {
            restrict(
                par([act([(cpu(), 1)], nil()), act([(bus(), 1)], nil())]),
                [Symbol::new(hidden)],
            )
        };
        let session = session_over(&env, MemoConfig::with_capacity(2));
        let roots: Vec<Interned> = ["a", "b", "c"]
            .iter()
            .map(|h| session.intern(&root(h)))
            .collect();
        let first = session.prioritized_steps(&roots[0]);
        assert_eq!(first.len(), 1);
        session.prioritized_steps(&roots[1]);
        session.prioritized_steps(&roots[2]);
        let before = session.memo_stats();
        assert_eq!(before.root_rederivations, 0);
        // The third root pushed the first out of the window: revisiting it
        // derives its list again, to the same list, from two component hits.
        let again = session.prioritized_steps(&roots[0]);
        assert_eq!(again.len(), first.len());
        for ((l1, s1), (l2, s2)) in first.iter().zip(&again) {
            assert_eq!(l1, l2);
            assert_eq!(s1.id(), s2.id());
        }
        let after = session.memo_stats();
        assert_eq!(after.root_rederivations, 1);
        assert_eq!(after.misses, before.misses + 1);
        assert_eq!(after.hits, before.hits + 2);
        assert_eq!(after.evictions, 0, "the component lists stayed cached");
    }

    #[test]
    #[should_panic(expected = "unguarded recursion")]
    fn session_still_detects_unguarded_recursion() {
        let mut env = Env::new();
        let d = env.declare("Omega", 0);
        env.set_body(d, invoke(d, []));
        let session = session_over(&env, MemoConfig::default());
        let p = session.intern(&invoke(d, []));
        let _ = session.steps(&p);
    }
}
