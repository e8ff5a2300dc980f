//! Checks that hold an exploration to the reference explorer
//! ([`versa::reference::explore_reference`]), shared by the property suites
//! through `#[path]` includes.

#![allow(dead_code)] // each suite uses its own subset

use acsr::prelude::{act, choice, guard, invoke, BExpr, Expr, Res, P};
use acsr::{prioritized_steps, stable_digest, Env};
use versa::{Exploration, StateId, Trace};

/// `p` behind a forced warm-up run of `versa::LEARN_AFTER_VOLUME` quanta
/// and a branch, so the runs out of `p` are expanded with learning on.
/// `name` keeps the warm-up definitions of several cases in one `env` apart.
pub fn warmed(env: &mut Env, name: &str, p: P) -> P {
    let idle = env.declare(&format!("{name}Idle"), 0);
    env.set_body(idle, act([] as [(Res, i32); 0], invoke(idle, [])));
    let warm = env.declare(name, 1);
    let w = versa::LEARN_AFTER_VOLUME as i64;
    env.set_body(
        warm,
        choice([
            guard(
                BExpr::lt(Expr::p(0), Expr::c(w)),
                act(
                    [(Res::new("warm"), 1)],
                    invoke(warm, [Expr::p(0).add(Expr::c(1))]),
                ),
            ),
            guard(
                BExpr::eq(Expr::p(0), Expr::c(w)),
                choice([
                    act([(Res::new("go"), 1)], p),
                    act([(Res::new("wait"), 1)], invoke(idle, [])),
                ]),
            ),
        ]),
    );
    invoke(warm, [Expr::c(0)])
}

/// Byte-level identity of two explorations of the same model: the state
/// table, the deadlock set, the transition and dedup counts, the
/// `truncated` flag and the full shortest-deadlock trace.
pub fn assert_identical(reference: &Exploration, ex: &Exploration, ctx: &str) {
    assert_eq!(reference.num_states(), ex.num_states(), "num_states: {ctx}");
    assert_eq!(reference.truncated, ex.truncated, "truncated: {ctx}");
    assert_eq!(reference.deadlocks, ex.deadlocks, "deadlocks: {ctx}");
    assert_eq!(
        reference.stats.transitions, ex.stats.transitions,
        "transitions: {ctx}"
    );
    assert_eq!(
        reference.stats.dedup_hits, ex.stats.dedup_hits,
        "dedup_hits: {ctx}"
    );
    for i in 0..reference.num_states() {
        let id = StateId(i as u32);
        assert_eq!(
            reference.state(id),
            ex.state(id),
            "state table at {i}: {ctx}"
        );
    }
    match (reference.first_deadlock_trace(), ex.first_deadlock_trace()) {
        (None, None) => {}
        (Some(a), Some(b)) => assert_eq!(a.steps, b.steps, "shortest-deadlock trace: {ctx}"),
        (a, b) => panic!(
            "trace presence differs (reference: {}, engine: {}): {ctx}",
            a.is_some(),
            b.is_some()
        ),
    }
}

/// Sorted stable digests of the deadlocked terms of an exploration.
pub fn deadlock_digests(env: &Env, ex: &Exploration) -> Vec<u64> {
    let mut d: Vec<u64> = ex
        .deadlocks
        .iter()
        .map(|&id| stable_digest(env, ex.state(id)))
        .collect();
    d.sort_unstable();
    d
}

/// The step-relation check: every `(label, next)` of `trace` is one of the
/// plain prioritized steps of its predecessor, and the last state has none.
pub fn assert_steps_in_relation(env: &Env, trace: &Trace, ctx: &str) {
    let mut prev = trace.initial_state().clone();
    for (i, (label, next)) in trace.iter().enumerate() {
        let succs = prioritized_steps(env, &prev);
        assert!(
            succs.iter().any(|(l, q)| l == label && q == next),
            "step {i} of a counterexample is not a prioritized step: {ctx}"
        );
        prev = next.clone();
    }
    assert!(
        prioritized_steps(env, &prev).is_empty(),
        "a counterexample ends in a state with successors: {ctx}"
    );
}

/// The checks a zone exploration must pass against the reference: the
/// verdict, the deadlocked terms (when both runs were exhaustive), the
/// shortest counterexample length, and, for every deadlock, a replayed
/// trace as long as the deadlock's settled depth whose every step is in
/// the step relation.
pub fn assert_matches_reference(
    env: &Env,
    reference: &Exploration,
    zoned: &Exploration,
    exhaustive: bool,
    ctx: &str,
) {
    assert_eq!(
        reference.deadlocks.is_empty(),
        zoned.deadlocks.is_empty(),
        "verdict: {ctx}"
    );
    if exhaustive {
        // Deadlocked states have out-degree zero, so they are always zone
        // endpoints: both runs hold exactly the same deadlocked terms.
        assert_eq!(
            deadlock_digests(env, reference),
            deadlock_digests(env, zoned),
            "deadlock term digests: {ctx}"
        );
    }
    assert!(
        zoned.num_states() <= reference.num_states(),
        "zone mode materialized more states ({} > {}): {ctx}",
        zoned.num_states(),
        reference.num_states()
    );
    assert_eq!(
        reference.first_deadlock_trace().map(|t| t.len()),
        zoned.first_deadlock_trace().map(|t| t.len()),
        "shortest-counterexample length: {ctx}"
    );
    for &dead in &zoned.deadlocks {
        let trace = zoned
            .trace_to(dead)
            .expect("an uncancelled run replays every deadlock's path");
        // The settled depth is a lookup; the trace is replayed through the
        // step relation. Both count the same quanta.
        assert_eq!(
            zoned.depth_of(dead),
            trace.len(),
            "depth vs replayed trace of deadlock {}: {ctx}",
            dead.0
        );
        assert_steps_in_relation(env, &trace, ctx);
    }
}
