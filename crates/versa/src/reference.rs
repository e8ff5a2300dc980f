//! The reference explorer: the executable specification of [`explore`].
//!
//! [`explore_reference`] is the smallest explorer that still answers the
//! paper's question (§5: schedulability is deadlock freedom of the
//! prioritized transition system): a sequential breadth-first search over
//! the plain [`acsr::prioritized_steps`] relation with a `HashMap<P,
//! StateId>` visited set. It has no term store, no successor memo, no
//! delay edges, no artifact store and no observability, and it honours
//! only [`Options::max_states`] (intern at most that many states; truncated
//! only when one more was needed) and [`Options::stop_at_first_deadlock`].
//!
//! It assigns ids exactly as [`explore`] does at unit edges — frontier
//! order, then successor order — so the differential suites hold both
//! granularities of the one engine to it:
//!
//! * LTS runs ([`Options::collect_lts`], every edge one quantum) under any
//!   state budget must reproduce its state table, deadlock set, transition
//!   and dedup counts, `truncated` flag and shortest trace byte for byte
//!   (`tests/prop_interning.rs`);
//! * verdict runs, which collapse forced runs into delay edges, must agree
//!   with it on the verdict, the deadlocked terms, the shortest
//!   counterexample length, and must only ever take steps of the relation
//!   they walk (`tests/prop_zones.rs`, `tests/prop_advance.rs`).
//!
//! [`explore`]: crate::explore::explore

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::Instant;

use acsr::{prioritized_steps, Env, P};

use crate::explore::{Exploration, Options, StateId, Stats};

/// Explore `initial` breadth-first over [`acsr::prioritized_steps`].
///
/// Only `max_states` and `stop_at_first_deadlock` are read from `opts`; the
/// memo, store, zone, cancellation and observability settings are
/// ignored, and no LTS is collected. The memo and term-store counters of
/// the returned [`Stats`] stay zero.
///
/// # Examples
///
/// ```
/// use acsr::prelude::*;
/// use versa::reference::explore_reference;
/// use versa::{explore, Options};
///
/// // A 1-step and a 2-step path to NIL: the shortest deadlock comes first.
/// let env = Env::new();
/// let p = choice([
///     act([(Res::new("cpu"), 1)], nil()),
///     act([(Res::new("bus"), 1)], act([(Res::new("cpu"), 1)], nil())),
/// ]);
/// let spec = explore_reference(&env, &p, &Options::default());
/// let fast = explore(&env, &p, &Options::default());
/// assert_eq!(spec.num_states(), fast.num_states());
/// assert_eq!(spec.deadlocks, fast.deadlocks);
/// assert_eq!(
///     spec.first_deadlock_trace().unwrap().steps,
///     fast.first_deadlock_trace().unwrap().steps,
/// );
/// ```
pub fn explore_reference(env: &Env, initial: &P, opts: &Options) -> Exploration {
    let start = Instant::now();
    let mut visited: HashMap<P, StateId> = HashMap::new();
    visited.insert(initial.clone(), StateId(0));
    let mut states = vec![initial.clone()];
    let mut parents = vec![None];
    let mut depths = vec![0u64];
    let mut deadlocks = Vec::new();
    let mut stats = Stats::default();
    let mut truncated = false;

    let mut frontier = vec![StateId(0)];
    'search: while !frontier.is_empty() {
        stats.levels += 1;
        stats.peak_frontier = stats.peak_frontier.max(frontier.len());
        let mut next = Vec::new();
        for &id in &frontier {
            let succs = prioritized_steps(env, &states[id.index()]);
            if succs.is_empty() {
                deadlocks.push(id);
                stats.deadlocks += 1;
                if opts.stop_at_first_deadlock {
                    break 'search;
                }
            }
            for (label, p) in succs {
                stats.transitions += 1;
                match visited.entry(p) {
                    Entry::Occupied(_) => stats.dedup_hits += 1,
                    Entry::Vacant(v) => {
                        if states.len() >= opts.max_states {
                            truncated = true;
                            break 'search;
                        }
                        let sid = StateId(states.len() as u32);
                        states.push(v.key().clone());
                        v.insert(sid);
                        parents.push(Some((id, label)));
                        depths.push(depths[id.index()] + 1);
                        next.push(sid);
                    }
                }
            }
        }
        frontier = next;
    }

    stats.states = states.len();
    stats.duration = start.elapsed();
    Exploration {
        states,
        parents,
        depths,
        replayed: HashMap::new(),
        deadlocks,
        lts: None,
        stats,
        truncated,
        cancelled: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;
    use acsr::prelude::*;

    #[test]
    fn matches_the_production_engine_on_a_branching_counter() {
        let mut env = Env::new();
        let c = env.declare("C", 1);
        env.set_body(
            c,
            choice([
                guard(
                    BExpr::lt(Expr::p(0), Expr::c(12)),
                    choice([
                        act(
                            [(Res::new("cpu"), 1)],
                            invoke(c, [Expr::p(0).add(Expr::c(1))]),
                        ),
                        act(
                            [(Res::new("bus"), 1)],
                            invoke(c, [Expr::p(0).add(Expr::c(2))]),
                        ),
                    ]),
                ),
                guard(BExpr::eq(Expr::p(0), Expr::c(12)), nil()),
                guard(BExpr::eq(Expr::p(0), Expr::c(13)), nil()),
            ]),
        );
        let p = invoke(c, [Expr::c(0)]);
        let spec = explore_reference(&env, &p, &Options::default());
        let fast = explore(&env, &p, &Options::default());
        assert_eq!(spec.num_states(), fast.num_states());
        assert_eq!(spec.deadlocks, fast.deadlocks);
        assert_eq!(spec.stats.transitions, fast.stats.transitions);
        assert_eq!(spec.stats.dedup_hits, fast.stats.dedup_hits);
        assert_eq!(spec.stats.levels, fast.stats.levels);
        for i in 0..spec.num_states() {
            let id = StateId(i as u32);
            assert_eq!(spec.state(id), fast.state(id));
        }
    }

    #[test]
    fn max_states_truncates_like_the_production_engine() {
        let mut env = Env::new();
        let d = env.declare("Counter", 1);
        env.set_body(
            d,
            act(
                [(Res::new("cpu"), 1)],
                invoke(d, [Expr::p(0).add(Expr::c(1))]),
            ),
        );
        let p = invoke(d, [Expr::c(0)]);
        let opts = Options::default().with_max_states(100);
        let spec = explore_reference(&env, &p, &opts);
        assert!(spec.truncated);
        assert!(!spec.deadlock_free());
        assert_eq!(spec.num_states(), explore(&env, &p, &opts).num_states());
    }

    #[test]
    fn a_budget_of_exactly_the_state_count_completes() {
        // Four states: three forced quanta, then the NIL deadlock.
        let cpu = || Res::new("cpu");
        let p = act([(cpu(), 1)], act([(cpu(), 1)], act([(cpu(), 1)], nil())));
        let env = Env::new();
        for (budget, states, truncated) in [(4, 4, false), (3, 3, true), (1, 1, true)] {
            let opts = Options::default().with_max_states(budget);
            for ex in [
                explore_reference(&env, &p, &opts),
                explore(&env, &p, &opts.clone().with_lts()),
            ] {
                assert_eq!(ex.num_states(), states, "budget {budget}");
                assert_eq!(ex.truncated, truncated, "budget {budget}");
                assert_eq!(
                    ex.deadlocks.len(),
                    usize::from(!truncated),
                    "budget {budget}"
                );
            }
        }
    }
}
