//! Delay-abstracted (zone-based) exploration: the one exploration engine.
//!
//! A per-quantum explorer materializes one state per scheduling quantum, so
//! the explored-state count of a periodic task model scales with the
//! hyperperiod — the source paper's own scalability wall (§7). This module
//! is the search behind every [`crate::explore::explore`] call: whenever a
//! state has exactly one prioritized successor, the whole *forced* chain —
//! up to the next branch, deadlock, cycle or the edge cap — becomes a
//! single weighted *delay edge* of the zone graph. Only branch points,
//! deadlocks and run endpoints are materialized as states; everything
//! strictly inside a run has out-degree exactly one, so it can neither
//! deadlock nor offer behaviour the endpoint doesn't already dominate
//! (DESIGN.md §17 spells the argument out).
//!
//! # Learning lazily
//!
//! Each frontier state is first classified with the plain memoized
//! successor list: deadlocks and branch points never touch the shape
//! machinery. A forced run is walked with plain unique steps. Once the
//! exploration has walked [`LEARN_AFTER_VOLUME`] steps of runs longer than
//! [`LEARN_AFTER`], a run still forced after [`LEARN_AFTER`] steps is
//! handed to the closed-form runner ([`acsr::forced_run_closed`]), which
//! factors each state into a structural *shape* plus a numeric *time
//! vector*, learns (and verifies) how the vector moves per quantum, and
//! jumps to the end of each interval in O(#parameters) (DESIGN.md §18).
//! Small models and branching-heavy models therefore pay nothing for the
//! closed form; long hyperperiods pay for it once per shape. Both walks end
//! a run at the same place, so the zone graph does not depend on where the
//! handoff happens.
//!
//! A delay edge keeps only its weight, and not even that explicitly: it is
//! the target's concrete depth minus its settled parent's, which the search
//! stores anyway. Nothing of a run's interior is kept. After the search,
//! [`replay_deadlock_paths`] walks the paths to the deadlocks once more
//! through the step relation and re-derives the interior quanta of their
//! delay edges, the only ones a counterexample trace reads.
//!
//! # LTS runs: the same search at unit edges
//!
//! An LTS export ([`Options::collect_lts`]) needs the concrete transition
//! relation, which delay edges are not. Such runs fix the edge cap at 1:
//! every forced step is then its own unit edge, every reachable state is
//! materialized, and the weighted search degenerates to a plain
//! breadth-first search (no relaxation can fire when every edge weighs 1).
//! The merge records each edge's `(label, target)` into the [`Lts`].
//!
//! # Shortest traces under weighted edges
//!
//! With unit edges BFS order *is* shortest-path order; delay edges have
//! weight = their per-quantum length, so the search here is a small
//! deterministic Dijkstra over a bucket queue keyed by concrete depth. A
//! state can be discovered at a long depth first and improved later; the
//! parent pointer, edge and depth are updated while the state is still
//! unexpanded, and stale queue entries are skipped on pop. Buckets are
//! processed in depth order, so the first deadlock expanded has minimal
//! concrete depth — exactly the per-quantum explorer's
//! shortest-counterexample guarantee, which `tests/prop_zones.rs` and
//! `tests/prop_advance.rs` pin against [`crate::reference`] over random task
//! fleets.
//!
//! # Identical results, fewer states, less work
//!
//! Verdicts, shortest-trace lengths and (for exhaustive runs) deadlock
//! counts are identical to a per-quantum search: every zone edge *is* a
//! concrete step sequence (closed-form spans are verified against the step
//! relation when their derivative is learned, and re-checked at the span
//! ends on every use), and every deadlock state is necessarily materialized
//! (a deadlock has out-degree 0, an interior state out-degree 1).
//! [`Exploration::trace_to`] splices the replayed interior quanta into the
//! delay edges of a deadlock's path, giving the concrete timeline
//! `diagnose` needs. The replay takes every one of those steps through the
//! step relation and panics where a step the runner served disagrees, so a
//! reported counterexample is a sequence of prioritized steps in release
//! builds too, not only where a debug build re-verifies every serve.
//! [`Stats`] describes the zone graph
//! (materialized states, delay edges, buckets); the compression is reported
//! through the `zone.delay_steps` / `zone.quanta_collapsed` /
//! `zone.singleton_steps` counters, the handoffs through
//! `zone.learned_runs`, and the closed-form cache through
//! `zone.closed_form_advances` / `zone.replay_fallbacks` /
//! `zone.shapes_derived` and the `zone.shape_cache` gauge.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;
use std::time::Instant;

use acsr::{
    forced_run, forced_run_closed, AdvanceCache, Env, Interned, Label, MemoConfig, RunOutcome,
    StepSession, TermId, TermStore, P,
};

use crate::explore::{CancelToken, Exploration, Options, StateId, Stats};
use crate::lts::Lts;

/// Forced steps walked concretely before a run is handed to the closed-form
/// runner. Shorter runs never factor a state into its shape; longer runs
/// intern only this prefix (EXPERIMENTS.md Q15 measures 2, 4 and 8).
pub const LEARN_AFTER: u64 = 4;

/// Steps of runs longer than [`LEARN_AFTER`] that an exploration walks
/// before any run is handed to the closed-form runner. Learning a shape
/// costs several times a concrete step and pays off only over many
/// revisits of long runs, which an exploration made of branch points and
/// short runs never makes: below this volume every run is walked
/// concretely. Counted as each run is merged and fixed for a whole bucket,
/// so the handoff never depends on where in a bucket a long run falls.
/// Measured in EXPERIMENTS.md Q15.
pub const LEARN_AFTER_VOLUME: u64 = 4096;

/// The per-state result of expanding one frontier state: a pure function of
/// the state (and of `learn`), merged into the zone graph before the next
/// state is expanded.
enum Expansion {
    /// No prioritized successors.
    Deadlock,
    /// Exactly one prioritized successor: the maximal forced chain,
    /// `steps` concrete steps into the materialized `target`, the last one
    /// labelled `label`. `learned` says the run outgrew [`LEARN_AFTER`] and
    /// its tail came from the closed-form runner.
    Forced {
        label: Label,
        target: Interned,
        steps: u64,
        learned: bool,
    },
    /// Two or more prioritized successors: ordinary weight-1 edges.
    Branch(Vec<(Label, Interned)>),
}

/// Classify `t` and, when it is forced, walk its run: [`acsr::forced_run`]
/// first and, when `learn` is set, the closed-form runner for whatever
/// remains past [`LEARN_AFTER`] steps.
fn expand_state(
    session: &StepSession<'_>,
    cache: &AdvanceCache,
    t: &Interned,
    cap: u64,
    learn: bool,
) -> Expansion {
    let succs = session.prioritized_steps(t);
    if succs.len() != 1 {
        return if succs.is_empty() {
            Expansion::Deadlock
        } else {
            Expansion::Branch(succs)
        };
    }
    let prefix_cap = if learn { cap.min(LEARN_AFTER) } else { cap };
    let mut run = forced_run(session, t, prefix_cap as usize).expect("t has exactly one successor");
    let mut steps = run.len() as u64;
    // The states the prefix left, which seed the closed-form runner's cycle
    // guard so that it ends the run where a concrete walk would.
    let walked: Vec<TermId> = std::iter::once(t.id())
        .chain(run.steps[..run.len() - 1].iter().map(|(_, s)| s.id()))
        .collect();
    let (mut label, mut target) = run.steps.pop().expect("forced runs are never empty");
    let mut learned = false;
    if steps == prefix_cap
        && steps < cap
        && !walked.contains(&target.id())
        && session.prioritized_steps(&target).len() == 1
    {
        if let RunOutcome::Run {
            label: last,
            end,
            steps: n,
        } = forced_run_closed(session, cache, &target, &walked, cap - steps)
        {
            learned = true;
            label = last;
            target = end;
            steps += n;
        }
    }
    Expansion::Forced {
        label,
        target,
        steps,
        learned,
    }
}

/// The growing zone graph plus the Dijkstra bookkeeping.
struct ZoneGraph {
    states: Vec<Interned>,
    /// Best known concrete depth per state.
    depths: Vec<u64>,
    /// Expanded states are settled: their depth is final.
    expanded: Vec<bool>,
    parents: Vec<Option<(StateId, Label)>>,
    visited: HashMap<TermId, StateId>,
    /// Unexpanded states by concrete depth (stale entries are skipped).
    queue: BTreeMap<u64, Vec<StateId>>,
    /// State budget: the id ceiling or `max_states`, whichever is lower.
    limit: usize,
    /// LTS runs only: every recorded edge, by source state.
    lts: Option<Vec<Vec<(Label, StateId)>>>,
}

enum EdgeOutcome {
    Recorded,
    Truncated,
}

impl ZoneGraph {
    fn new(root: Interned, limit: usize, collect_lts: bool) -> ZoneGraph {
        let mut visited = HashMap::new();
        visited.insert(root.id(), StateId(0));
        ZoneGraph {
            states: vec![root],
            depths: vec![0],
            expanded: vec![false],
            parents: vec![None],
            visited,
            queue: BTreeMap::from([(0, vec![StateId(0)])]),
            limit,
            lts: collect_lts.then(|| vec![Vec::new()]),
        }
    }

    /// Record one edge of `weight` concrete steps (a delay edge when it is
    /// 2 or more) into `target` out of `from`, relaxing the target's depth
    /// Dijkstra-style, and into the LTS when one is collected. A fresh
    /// target past the state budget is not interned. The parent pointer and
    /// depth change together and `from` is settled, so the target's depth
    /// minus its parent's is always its parent edge's weight.
    fn record_edge(
        &mut self,
        from: StateId,
        label: Label,
        target: Interned,
        weight: u64,
        stats: &mut Stats,
    ) -> EdgeOutcome {
        let depth = self.depths[from.index()] + weight;
        stats.transitions += 1;
        let lts_label = self.lts.is_some().then(|| label.clone());
        let sid = match self.visited.entry(target.id()) {
            Entry::Occupied(e) => {
                let sid = *e.get();
                stats.dedup_hits += 1;
                // Relax: a shorter concrete route to a still-unexpanded
                // state replaces its parent edge. Expanded states are
                // settled — edge weights are ≥ 1, so nothing popped from an
                // earlier bucket can ever improve.
                if !self.expanded[sid.index()] && depth < self.depths[sid.index()] {
                    self.depths[sid.index()] = depth;
                    self.parents[sid.index()] = Some((from, label));
                    self.queue.entry(depth).or_default().push(sid);
                }
                sid
            }
            Entry::Vacant(v) => {
                if self.states.len() >= self.limit {
                    return EdgeOutcome::Truncated;
                }
                let sid = StateId(self.states.len() as u32);
                v.insert(sid);
                self.states.push(target);
                self.depths.push(depth);
                self.expanded.push(false);
                self.parents.push(Some((from, label)));
                self.queue.entry(depth).or_default().push(sid);
                if let Some(lts) = &mut self.lts {
                    lts.push(Vec::new());
                }
                sid
            }
        };
        if let (Some(lts), Some(label)) = (&mut self.lts, lts_label) {
            lts[from.index()].push((label, sid));
        }
        EdgeOutcome::Recorded
    }
}

/// The engine behind [`crate::explore::explore`], for an id ceiling of
/// `id_limit` (≥ 1) states; tests pass a small ceiling to exercise the
/// graceful-truncation path without interning four billion states.
pub(crate) fn explore_zones(
    env: &Env,
    initial: &P,
    opts: &Options,
    id_limit: usize,
) -> Exploration {
    let start = Instant::now();
    // Per-edge step cap: bounds the work between two cancellation polls and
    // doubles as the cycle horizon for closed idle loops. Longer forced runs
    // simply become several chained edges, so the value never changes
    // verdicts. LTS runs need every quantum as its own state, hence unit
    // edges.
    let cap = if opts.collect_lts {
        1
    } else {
        opts.zone_cap.max(1) as u64
    };

    // Cross-run artifact store: consult before exploring. A hit replays the
    // recorded verdict (and trace skeleton) instead of searching; anything
    // short of a byte-perfect, semantics-matching artifact counts an
    // invalidation and falls through to the full exploration below, which
    // then overwrites the entry.
    let cas_key = crate::cache::key_for(env, initial, opts, id_limit);
    if let (Some(key), Some(artifacts)) = (&cas_key, &opts.cas) {
        match artifacts.get(key) {
            cas::Lookup::Hit(payload) => {
                let replayed = crate::cache::decode(&payload)
                    .and_then(|a| crate::cache::replay(env, initial, &a, opts, start));
                match replayed {
                    Some(ex) => {
                        opts.obs.counter("cas.hits").inc();
                        return ex;
                    }
                    None => opts.obs.counter("cas.invalidations").inc(),
                }
            }
            cas::Lookup::Miss => opts.obs.counter("cas.misses").inc(),
            cas::Lookup::Invalid => opts.obs.counter("cas.invalidations").inc(),
        }
    }

    let run_span = opts.obs.span("explore");
    let dedup_counter = opts.obs.counter("explore.dedup_hits");
    // Per-bucket detail at a fixed size: one observation per bucket, at
    // every exit of the bucket loop, so the search records one span
    // however many buckets it settles (`longperiod` settles 16 140).
    let bucket_frontier = opts.obs.histogram("explore.bucket_frontier");
    let bucket_discovered = opts.obs.histogram("explore.bucket_discovered");
    let states_gauge = opts.obs.gauge("explore.states");
    let store = opts
        .store
        .clone()
        .unwrap_or_else(|| Rc::new(TermStore::new()));
    let session = StepSession::new(env, store.clone(), MemoConfig::default());
    let advance_cache = AdvanceCache::new();

    let mut stats = Stats::default();
    let mut deadlocks: Vec<StateId> = Vec::new();
    let mut truncated = false;
    let mut cancelled = false;
    let mut delay_steps = 0u64;
    let mut quanta_collapsed = 0u64;
    let mut singleton_steps = 0u64;
    let mut learned_runs = 0u64;
    // Steps of long runs merged so far: the volume that switches learning on.
    let mut long_run_steps = 0u64;

    let root = session.intern(initial);
    let mut g = ZoneGraph::new(
        root.clone(),
        id_limit.min(opts.max_states),
        opts.collect_lts,
    );

    'search: while let Some((depth, bucket)) = g.queue.pop_first() {
        if opts.cancel.is_cancelled() {
            cancelled = true;
            break;
        }
        // Settle the bucket: drop entries that were improved to a shallower
        // depth (re-queued there) or already expanded (duplicate pushes).
        let mut frontier: Vec<StateId> = Vec::with_capacity(bucket.len());
        for id in bucket {
            if !g.expanded[id.index()] && g.depths[id.index()] == depth {
                g.expanded[id.index()] = true;
                frontier.push(id);
            }
        }
        if frontier.is_empty() {
            continue;
        }
        stats.levels += 1;
        stats.peak_frontier = stats.peak_frontier.max(frontier.len());
        let learn = long_run_steps >= LEARN_AFTER_VOLUME;

        // Expand and merge each state in frontier order: ids, depths and
        // parents come out in one order, the order of this loop.
        let before_states = g.states.len();
        let observe_bucket = |states: usize| {
            bucket_frontier.observe(frontier.len() as u64);
            bucket_discovered.observe((states - before_states) as u64);
        };
        for &id in &frontier {
            if opts.cancel.is_cancelled() {
                cancelled = true;
                observe_bucket(g.states.len());
                break 'search;
            }
            let state = &g.states[id.index()];
            match expand_state(&session, &advance_cache, state, cap, learn) {
                Expansion::Deadlock => {
                    deadlocks.push(id);
                    stats.deadlocks += 1;
                    if opts.stop_at_first_deadlock {
                        observe_bucket(g.states.len());
                        break 'search;
                    }
                }
                Expansion::Forced {
                    label,
                    target,
                    steps,
                    learned,
                } => {
                    if steps >= 2 {
                        delay_steps += 1;
                        quanta_collapsed += steps - 1;
                    } else {
                        singleton_steps += 1;
                    }
                    learned_runs += u64::from(learned);
                    if steps > LEARN_AFTER {
                        long_run_steps += steps;
                    }
                    if let EdgeOutcome::Truncated =
                        g.record_edge(id, label, target, steps, &mut stats)
                    {
                        truncated = true;
                        observe_bucket(g.states.len());
                        break 'search;
                    }
                }
                Expansion::Branch(succs) => {
                    singleton_steps += 1;
                    for (label, target) in succs {
                        if let EdgeOutcome::Truncated =
                            g.record_edge(id, label, target, 1, &mut stats)
                        {
                            truncated = true;
                            observe_bucket(g.states.len());
                            break 'search;
                        }
                    }
                }
            }
        }
        observe_bucket(g.states.len());
        states_gauge.set(g.states.len() as i64);
        opts.obs.progress(
            g.states.len() as u64,
            stats.levels as u64,
            g.queue.values().map(Vec::len).sum::<usize>() as u64,
        );
    }

    stats.states = g.states.len();
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
        run_span.set("cancelled", 1);
    }
    dedup_counter.add(stats.dedup_hits as u64);
    opts.obs.counter("zone.delay_steps").add(delay_steps);
    opts.obs
        .counter("zone.quanta_collapsed")
        .add(quanta_collapsed);
    opts.obs
        .counter("zone.singleton_steps")
        .add(singleton_steps);
    opts.obs.counter("zone.learned_runs").add(learned_runs);
    let a = advance_cache.stats();
    opts.obs
        .counter("zone.closed_form_advances")
        .add(a.closed_form_advances);
    opts.obs
        .counter("zone.replay_fallbacks")
        .add(a.replay_fallbacks);
    opts.obs
        .counter("zone.shapes_derived")
        .add(a.shapes_derived);
    opts.obs.gauge("zone.shape_cache").set(a.shape_cache as i64);
    opts.obs.counter("step.memo_hits").add(stats.memo_hits);
    opts.obs.counter("step.memo_misses").add(stats.memo_misses);
    opts.obs
        .counter("step.memo_evictions")
        .add(stats.memo_evictions);
    opts.obs
        .counter("step.root_rederivations")
        .add(memo.root_rederivations);
    opts.obs
        .gauge("term.unique_subterms")
        .set(stats.unique_subterms as i64);
    run_span.end();

    // Outside the `explore` span and after every counter: the replay's
    // memo reads and interned states belong to no reported figure.
    let replayed = replay_deadlock_paths(
        &session,
        &g.states,
        &g.parents,
        &g.depths,
        &deadlocks,
        &opts.cancel,
    );
    let ex = Exploration {
        // Collected from the slice, the vector holds exactly the states; an
        // in-place collect of `g.states` would keep three slots per state.
        states: g.states.iter().map(|s| s.term().clone()).collect(),
        parents: g.parents,
        depths: g.depths,
        replayed,
        deadlocks,
        lts: g.lts.map(|transitions| Lts {
            initial: StateId(0),
            transitions,
        }),
        stats,
        truncated,
        cancelled,
    };

    // Deposit for the next process. Cancelled runs are partial (no verdict)
    // and deposit nothing; a failed encode or write degrades to "no cache",
    // never to an error. The artifact records the first deadlock's
    // per-quantum chain, which `trace_to` splices from the replayed path.
    if let (Some(key), Some(artifacts)) = (&cas_key, &opts.cas) {
        if !cancelled {
            let trace = ex.first_deadlock_trace();
            let payload =
                crate::cache::encode(env, &session, &root, trace.as_ref(), &ex.stats, truncated);
            if let Some(payload) = payload {
                if matches!(artifacts.put(key, &payload), Ok(true)) {
                    opts.obs.counter("cas.writes").inc();
                }
            }
        }
    }
    ex
}

/// Re-derive, through the step relation, the interior quanta of every delay
/// edge on the paths from the root to `deadlocks`, keyed by the edge's
/// target state: the steps [`Exploration::trace_to`] splices into a
/// counterexample.
///
/// Each deadlock's path is walked up its parent pointers, stopping at a
/// state an earlier path already walked. An edge of weight `w ≥ 2` (the
/// target's depth minus its parent's) is replayed as exactly `w` calls of
/// [`StepSession::prioritized_steps`] from the parent: no cycle guard is
/// needed, since the weight says where the run ended. Every step must be
/// the state's only successor and the last must reach the recorded target
/// under the recorded label; the `w − 1` interior steps are kept.
///
/// The first deadlock's path is always replayed: its trace is the
/// verdict's counterexample, which a cancelled run that found a deadlock
/// still reports. The other deadlocks' paths are read only through
/// [`Exploration::trace_to`], which in this workspace only the equivalence
/// suites' `tests/support/reference_checks.rs` calls, so their replay
/// stops, edge by edge, once `cancel` fires, and `trace_to` then answers
/// `None` for the deadlocks left unreplayed.
///
/// # Panics
///
/// On any divergence, naming the edge's target state: a run that the
/// closed-form runner served wrongly is never printed as a counterexample.
fn replay_deadlock_paths(
    session: &StepSession<'_>,
    states: &[Interned],
    parents: &[Option<(StateId, Label)>],
    depths: &[u64],
    deadlocks: &[StateId],
    cancel: &CancelToken,
) -> HashMap<StateId, Vec<(Label, P)>> {
    let mut replayed = HashMap::new();
    let mut walked: HashSet<StateId> = HashSet::new();
    for (i, &dead) in deadlocks.iter().enumerate() {
        let mut to = dead;
        while walked.insert(to) {
            let Some((from, label)) = &parents[to.index()] else {
                break;
            };
            if i > 0 && cancel.is_cancelled() {
                return replayed;
            }
            let weight = depths[to.index()]
                .checked_sub(depths[from.index()])
                .unwrap_or_else(|| diverged(to, "the target is shallower than its parent"));
            if weight >= 2 {
                let mut interior = Vec::with_capacity((weight - 1) as usize);
                let mut cur = states[from.index()].clone();
                for k in 1..=weight {
                    let mut succs = session.prioritized_steps(&cur);
                    if succs.len() != 1 {
                        diverged(to, &format!("step {k} of {weight} is not forced"));
                    }
                    let (l, t) = succs.pop().expect("exactly one successor");
                    if k == weight {
                        if l != *label || t.id() != states[to.index()].id() {
                            diverged(to, "the last step is not the recorded label and target");
                        }
                    } else {
                        interior.push((l, t.term().clone()));
                        cur = t;
                    }
                }
                replayed.insert(to, interior);
            }
            to = *from;
        }
    }
    replayed
}

/// The replay's one panic, for the edge into `to`.
fn diverged(to: StateId, why: &str) -> ! {
    panic!(
        "deadlock-path replay diverged from the step relation on the edge into state {} ({why})",
        to.0
    )
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use super::{expand_state, replay_deadlock_paths, Expansion, LEARN_AFTER};
    use crate::explore::{explore, CancelToken, Options, StateId};
    use acsr::prelude::*;
    use acsr::{AdvanceCache, Interned, MemoConfig, StepSession, TermStore};

    fn cpu() -> Res {
        Res::new("cpu")
    }

    /// A straight forced chain of `n` quanta ending in NIL.
    fn chain(n: usize) -> P {
        let mut p = nil();
        for _ in 0..n {
            p = act([(cpu(), 1)], p);
        }
        p
    }

    #[test]
    fn long_forced_chain_collapses_to_two_states() {
        let env = Env::new();
        let p = chain(100);
        let concrete = explore(&env, &p, &Options::default().with_lts());
        let zoned = explore(&env, &p, &Options::default());
        assert_eq!(concrete.num_states(), 101);
        assert_eq!(zoned.num_states(), 2); // entry + the deadlocked endpoint
        assert_eq!(zoned.deadlocks.len(), 1);
        // The replayed trace is the full 100-quantum concrete timeline.
        let t = zoned.first_deadlock_trace().unwrap();
        assert_eq!(t.len(), 100);
        assert_eq!(t.elapsed_quanta(), 100);
        assert_eq!(zoned.depth_of(zoned.deadlocks[0]), 100);
        // The one delay edge's 99 interior quanta were replayed, keyed by
        // its target, the deadlock.
        assert_eq!(zoned.replayed.len(), 1);
        assert_eq!(zoned.replayed[&zoned.deadlocks[0]].len(), 99);
        // Every expanded trace state is a real concrete state: replaying the
        // labels through the step relation reproduces it.
        let concrete_trace = concrete.first_deadlock_trace().unwrap();
        for i in 0..t.len() {
            assert_eq!(t.state_after(i), concrete_trace.state_after(i));
        }
    }

    #[test]
    fn runs_past_learn_after_are_handed_off_only_when_learning_is_on() {
        let env = Env::new();
        let session = StepSession::new(&env, Rc::new(TermStore::new()), MemoConfig::default());
        let t = LEARN_AFTER as usize;
        for n in [t - 1, t, t + 1, 50 * t] {
            for learn in [false, true] {
                let entry = session.intern(&chain(n));
                let cache = AdvanceCache::new();
                let Expansion::Forced {
                    label,
                    target,
                    steps,
                    learned,
                } = expand_state(&session, &cache, &entry, 4096, learn)
                else {
                    panic!("a chain is forced");
                };
                assert_eq!(steps, n as u64, "n={n} learn={learn}");
                assert_eq!(learned, learn && n > t, "n={n} learn={learn}");
                assert!(label.is_timed(), "n={n} learn={learn}");
                assert!(matches!(&**target.term(), Proc::Nil), "n={n} learn={learn}");
            }
        }
    }

    #[test]
    fn zone_cap_changes_never_change_verdicts() {
        let env = Env::new();
        let p = choice([chain(3), act([(Res::new("bus"), 1)], chain(7))]);
        let baseline = explore(&env, &p, &Options::default());
        for cap in [1usize, 2, 3, 7] {
            let capped = explore(&env, &p, &Options::default().with_zone_cap(cap));
            assert_eq!(capped.deadlock_free(), baseline.deadlock_free());
            assert_eq!(capped.deadlocks.len(), baseline.deadlocks.len());
            assert_eq!(
                capped.first_deadlock_trace().map(|t| t.len()),
                baseline.first_deadlock_trace().map(|t| t.len())
            );
        }
    }

    #[test]
    fn relaxation_finds_the_shorter_route_through_a_shared_state() {
        let env = Env::new();
        // Two routes to the same 5-quantum tail: a 1-step hop and a forced
        // 9-quantum detour. The detour's endpoint is discovered first in
        // bucket order only if pushed at its long depth — the relaxation
        // must settle it at depth 1 before expansion.
        let tail = chain(5);
        let p = choice([
            act([(Res::new("bus"), 1)], tail.clone()),
            act([(cpu(), 1)], {
                let mut detour = tail;
                for _ in 0..8 {
                    detour = act([(cpu(), 1)], detour);
                }
                detour
            }),
        ]);
        let zoned = explore(&env, &p, &Options::default());
        assert_eq!(zoned.first_deadlock_trace().unwrap().len(), 6);
    }

    #[test]
    fn zone_counters_report_the_compression() {
        let env = Env::new();
        let p = chain(50);
        let rec = obs::Recorder::enabled();
        let ex = explore(&env, &p, &Options::default().with_obs(rec.clone()));
        assert_eq!(ex.num_states(), 2);
        let run = rec.finish();
        let counter = |name: &str| {
            run.counters
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(counter("zone.delay_steps"), 1);
        assert_eq!(counter("zone.quanta_collapsed"), 49);
        assert_eq!(counter("zone.singleton_steps"), 0);
    }

    #[test]
    fn max_states_still_truncates_in_zone_mode() {
        let mut env = Env::new();
        // A fresh state per step via a parameterized counter — but branch at
        // every state so nothing is forced and the zone graph is as large as
        // the concrete one.
        let d = env.declare("Counter", 1);
        env.set_body(
            d,
            choice([
                act([(cpu(), 1)], invoke(d, [Expr::p(0).add(Expr::c(1))])),
                act(
                    [(Res::new("bus"), 1)],
                    invoke(d, [Expr::p(0).add(Expr::c(2))]),
                ),
            ]),
        );
        let p = invoke(d, [Expr::c(0)]);
        let ex = explore(&env, &p, &Options::default().with_max_states(40));
        assert!(ex.truncated);
        assert!(!ex.deadlock_free());
    }

    #[test]
    fn cancelled_zone_runs_are_partial_and_never_free() {
        let mut env = Env::new();
        let d = env.declare("Idle", 0);
        env.set_body(d, act([] as [(Res, i32); 0], invoke(d, [])));
        let token = crate::explore::CancelToken::new();
        token.cancel();
        let ex = explore(&env, &invoke(d, []), &Options::default().with_cancel(token));
        assert!(ex.cancelled);
        assert!(!ex.deadlock_free());
    }

    #[test]
    fn collect_lts_runs_the_search_at_unit_edges() {
        let env = Env::new();
        let p = chain(10);
        // Whatever the configured cap, an LTS run takes every quantum as its
        // own edge: all 11 states materialized, one LTS edge each but the
        // deadlock, and no delay edge to replay.
        let ex = explore(&env, &p, &Options::default().with_zone_cap(7).with_lts());
        assert_eq!(ex.num_states(), 11);
        let lts = ex.lts.as_ref().unwrap();
        assert_eq!(lts.transitions.len(), 11);
        assert_eq!(lts.num_transitions(), 10);
        assert!(ex.replayed.is_empty());
        for i in 1..ex.num_states() {
            let (parent, _) = ex.parents[i].as_ref().unwrap();
            assert_eq!(ex.depths[i], ex.depths[parent.index()] + 1);
        }
        assert_eq!(ex.depth_of(ex.deadlocks[0]), 10);
    }

    /// Replay the one delay edge of `chain(10)` (root → deadlock, weight
    /// 10) with the deadlock's depth moved by `shift` and, when `relabel`,
    /// a `τ` label recorded on the edge instead of its timed one.
    fn replay_planted_chain_edge(shift: i64, relabel: bool) -> usize {
        let env = Env::new();
        let ex = explore(&env, &chain(10), &Options::default());
        let dead = ex.deadlocks[0];
        assert_eq!((ex.num_states(), ex.depth_of(dead)), (2, 10));
        let session = StepSession::new(&env, Rc::new(TermStore::new()), MemoConfig::default());
        let states: Vec<Interned> = ex.states.iter().map(|p| session.intern(p)).collect();
        let mut parents = ex.parents.clone();
        let mut depths = ex.depths.clone();
        depths[dead.index()] = depths[dead.index()].checked_add_signed(shift).unwrap();
        if relabel {
            parents[dead.index()] = Some((StateId(0), Label::Tau { prio: 0, via: None }));
        }
        let replayed = replay_deadlock_paths(
            &session,
            &states,
            &parents,
            &depths,
            &ex.deadlocks,
            &CancelToken::new(),
        );
        replayed[&dead].len()
    }

    #[test]
    fn the_recorded_delay_edge_replays_to_its_interior_quanta() {
        assert_eq!(replay_planted_chain_edge(0, false), 9);
    }

    #[test]
    #[should_panic(expected = "deadlock-path replay diverged from the step relation")]
    fn a_delay_edge_one_quantum_longer_than_its_run_is_caught() {
        replay_planted_chain_edge(1, false);
    }

    #[test]
    #[should_panic(expected = "deadlock-path replay diverged from the step relation")]
    fn a_delay_edge_one_quantum_shorter_than_its_run_is_caught() {
        replay_planted_chain_edge(-1, false);
    }

    #[test]
    #[should_panic(expected = "deadlock-path replay diverged from the step relation")]
    fn a_delay_edge_under_another_label_is_caught() {
        replay_planted_chain_edge(0, true);
    }

    #[test]
    fn deadlock_free_explorations_replay_nothing() {
        let mut env = Env::new();
        // A forced 12-quantum cycle: one delay edge back to the root.
        let d = env.declare("Cycle", 0);
        let mut body = invoke(d, []);
        for _ in 0..12 {
            body = act([(cpu(), 1)], body);
        }
        env.set_body(d, body);
        let ex = explore(&env, &invoke(d, []), &Options::default());
        assert!(ex.deadlock_free());
        assert!(ex.stats.transitions >= 1);
        assert!(ex.replayed.is_empty());
    }

    #[test]
    fn a_non_deadlock_state_behind_a_delay_edge_has_no_trace() {
        let mut env = Env::new();
        // Three forced quanta into a branch point whose two branches both
        // idle forever: no deadlock, so nothing is replayed.
        let idle = env.declare("Idle", 0);
        env.set_body(idle, act([] as [(Res, i32); 0], invoke(idle, [])));
        let mut p = choice([
            act([(cpu(), 1)], invoke(idle, [])),
            act([(Res::new("bus"), 1)], invoke(idle, [])),
        ]);
        for _ in 0..3 {
            p = act([(cpu(), 1)], p);
        }
        let ex = explore(&env, &p, &Options::default());
        assert!(ex.deadlock_free());
        assert_eq!(ex.depth_of(StateId(1)), 3);
        assert!(ex.trace_to(StateId(1)).is_none());
        // The root is behind no edge at all.
        assert_eq!(ex.trace_to(StateId(0)).unwrap().len(), 0);
    }

    #[test]
    fn a_cancelled_replay_still_replays_the_first_deadlock() {
        let env = Env::new();
        // Two forced chains of 6 and 9 quanta into two distinct deadlocks
        // (NIL and NIL ∥ NIL), behind a one-step choice: one delay edge
        // into each deadlock.
        let mut second = par([nil(), nil()]);
        for _ in 0..9 {
            second = act([(cpu(), 1)], second);
        }
        let p = choice([
            act([(cpu(), 1)], chain(6)),
            act([(Res::new("bus"), 1)], second),
        ]);
        let ex = explore(&env, &p, &Options::default());
        assert_eq!(ex.deadlocks.len(), 2);
        let (first, second) = (ex.deadlocks[0], ex.deadlocks[1]);
        assert_eq!((ex.depth_of(first), ex.depth_of(second)), (7, 10));
        assert_eq!(ex.trace_to(second).unwrap().len(), 10);
        let session = StepSession::new(&env, Rc::new(TermStore::new()), MemoConfig::default());
        let states: Vec<Interned> = ex.states.iter().map(|p| session.intern(p)).collect();
        let token = CancelToken::new();
        token.cancel();
        let replayed = replay_deadlock_paths(
            &session,
            &states,
            &ex.parents,
            &ex.depths,
            &ex.deadlocks,
            &token,
        );
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[&first].len(), 5);
    }

    #[test]
    fn zone_artifacts_round_trip_through_the_store_and_never_cross_caps() {
        let env = Env::new();
        let p = chain(20);
        let dir = std::env::temp_dir().join(format!(
            "versa-zones-cas-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = std::sync::Arc::new(cas::CasStore::open(&dir, cas::Mode::ReadWrite).unwrap());
        let zopts = Options::default().with_cas(store.clone());
        let rec1 = obs::Recorder::enabled();
        let cold = explore(&env, &p, &zopts.clone().with_obs(rec1.clone()));
        let cold_counters = rec1.finish().counters;
        assert!(cold_counters
            .iter()
            .any(|(k, v)| k == "cas.writes" && *v == 1));
        let rec2 = obs::Recorder::enabled();
        let warm = explore(&env, &p, &zopts.clone().with_obs(rec2.clone()));
        let warm_counters = rec2.finish().counters;
        assert!(warm_counters
            .iter()
            .any(|(k, v)| k == "cas.hits" && *v == 1));
        assert_eq!(cold.deadlock_free(), warm.deadlock_free());
        assert_eq!(
            cold.first_deadlock_trace().map(|t| t.len()),
            warm.first_deadlock_trace().map(|t| t.len())
        );
        assert_eq!(cold.stats.states, warm.stats.states);
        // Another edge cap must MISS: the key commits to the cap (an
        // artifact's stats describe its own zone graph).
        let rec3 = obs::Recorder::enabled();
        let capped = explore(&env, &p, &zopts.with_zone_cap(7).with_obs(rec3.clone()));
        let c = rec3.finish().counters;
        assert!(c.iter().any(|(k, v)| k == "cas.misses" && *v == 1));
        assert_eq!(capped.num_states(), 4);
        // An LTS run never consults the store.
        let rec4 = obs::Recorder::enabled();
        let per_quantum = explore(
            &env,
            &p,
            &Options::default()
                .with_lts()
                .with_cas(store)
                .with_obs(rec4.clone()),
        );
        assert!(rec4
            .finish()
            .counters
            .iter()
            .all(|(k, _)| !k.starts_with("cas.")));
        assert_eq!(per_quantum.num_states(), 21);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
