//! Property-based equivalence of the closed-form delay advance
//! ([`acsr::advance`]) and the per-quantum replay primitives
//! ([`acsr::zone`]): factoring states into shape + time vector and jumping
//! through cached derivatives is a *computation* change and must be
//! invisible in every result. Over random task sets × locking protocols
//! × random delay amounts, `advance::step_delay` must land on the **same
//! interned term** (id equality, not just digest) as `zone::step_delay`,
//! and `advance::delay_bound` must agree with `zone::delay_bound` —
//! including the saturate-at-cap behaviour on forced timed cycles.
//!
//! The exploration-level counterpart: closed-form zone exploration must be
//! indistinguishable from the reference explorer
//! ([`versa::reference::explore_reference`]) in verdict, deadlocked terms,
//! shortest-counterexample length, and every replayed per-quantum
//! counterexample timeline must be a path of the plain prioritized step
//! relation. The per-edge cap is a granularity knob only: any cap produces
//! the same verdicts.
//!
//! `det_prop!` runs 64 seeded cases per property; failures print a
//! `DET_PROP_SEED` that reproduces the exact case.

use std::rc::Rc;

use aadl::instance::instantiate;
use aadl::properties::ConcurrencyControlProtocol;
use aadl2acsr::{translate, TranslateOptions};
use acsr::advance::{
    delay_bound as closed_delay_bound, step_delay as closed_step_delay,
};
use acsr::zone::{delay_bound as replay_delay_bound, step_delay as replay_step_delay};
use acsr::{AdvanceCache, MemoConfig, StepSession, TermStore};
use det::det_prop;
use det::DetRng;
use sched_baselines::taskset::{
    taskset_to_package, taskset_to_package_locking, uunifast, TaskSetSpec,
};
use sched_baselines::types::{Task, TaskSet};
use versa::reference::explore_reference;
use versa::{explore, Options};

#[path = "support/reference_checks.rs"]
mod reference_checks;
use reference_checks::assert_matches_reference;

/// Bounded random specs: 2–4 tasks over a small period pool so the
/// exhaustive exploration stays test-sized, utilizations spanning clearly
/// schedulable to clearly overloaded.
fn arb_spec(rng: &mut DetRng) -> TaskSetSpec {
    TaskSetSpec {
        n: rng.range_usize(2..5),
        target_utilization: *rng.pick(&[0.4, 0.6, 0.8, 1.0]),
        periods: vec![4, 5, 8, 10],
        seed: rng.next_u64(),
    }
}

/// Three HPF tasks with distinct priorities and one shared resource (as in
/// `prop_zones.rs`) — lock traffic puts instantaneous steps and protocol
/// bookkeeping inside and around the forced timed intervals the advance
/// cache learns.
fn arb_locking_taskset(rng: &mut DetRng) -> TaskSet {
    let orders: [[u32; 3]; 6] = [
        [9, 5, 3],
        [9, 3, 5],
        [5, 9, 3],
        [5, 3, 9],
        [3, 9, 5],
        [3, 5, 9],
    ];
    let prios = *rng.pick(&orders);
    let pairs: [[usize; 2]; 3] = [[0, 1], [0, 2], [1, 2]];
    let sharing = *rng.pick(&pairs);
    let mut tasks: Vec<Task> = (0..3)
        .map(|i| {
            let period = *rng.pick(&[4u64, 5, 8, 10]);
            let c = rng.range_u64(1..4).min(period);
            let mut t = Task::new(0, period, c);
            t.priority = Some(prios[i]);
            t
        })
        .collect();
    for &i in &sharing {
        let len = rng.range_u64(1..=tasks[i].wcet);
        tasks[i] = tasks[i].clone().with_cs(0, len);
    }
    TaskSet::new(tasks)
}

/// Walk a model's deterministic prioritized-step sequence and, at every
/// state, pin the closed-form primitives against the replay primitives:
/// equal `delay_bound`, and for a random `d ≤ bound` an *interned-id equal*
/// `step_delay` target. The cache persists across the walk, so later visits
/// to a learned shape actually take the closed path, and full per-quantum
/// verification (on in debug builds, which is how tests run) replays every
/// closed span against the step relation.
fn pin_primitives(env: &acsr::Env, initial: &acsr::P, rng: &mut DetRng, ctx: &str) {
    const CAP: u64 = 32;
    let session = StepSession::new(env, Rc::new(TermStore::new()), MemoConfig::default());
    let cache = AdvanceCache::new();
    let mut p = initial.clone();
    let mut bounds_checked = 0u32;
    for _ in 0..400 {
        let t = session.intern(&p);
        let b_replay = replay_delay_bound(&session, &t, CAP);
        let b_closed = closed_delay_bound(&session, &cache, &t, CAP);
        assert_eq!(b_closed, b_replay, "delay_bound diverged: {ctx}");
        if b_replay > 0 {
            let d = rng.range_u64(0..=b_replay);
            let via_replay = replay_step_delay(&session, &t, d);
            let via_closed = closed_step_delay(&session, &cache, &t, d);
            match (&via_replay, &via_closed) {
                (Some(a), Some(b)) => assert_eq!(
                    a.id(),
                    b.id(),
                    "step_delay({d}) interned different terms: {ctx}"
                ),
                (None, None) => {}
                _ => panic!(
                    "step_delay({d}) presence differs (replay: {}, closed: {}): {ctx}",
                    via_replay.is_some(),
                    via_closed.is_some()
                ),
            }
            if b_replay < CAP {
                // Maximality transfers: one quantum past the bound is
                // refused by both implementations.
                assert!(
                    closed_step_delay(&session, &cache, &t, b_replay + 1).is_none(),
                    "closed step_delay({}) exceeded the bound: {ctx}",
                    b_replay + 1
                );
            }
            bounds_checked += 1;
        }
        let mut succs = acsr::prioritized_steps(env, &p);
        if succs.is_empty() {
            break;
        }
        p = succs.swap_remove(0).1;
    }
    assert!(bounds_checked > 0, "walk never entered a delay zone: {ctx}");
}

det_prop! {
    fn closed_form_step_delay_matches_replay_on_random_task_sets(spec in arb_spec) {
        let ts = uunifast(&spec);
        let pkg = taskset_to_package(&ts, "RMS");
        let m = instantiate(&pkg, "Top.impl").unwrap();
        let tm = translate(&m, &TranslateOptions::default()).unwrap();
        let mut rng = DetRng::new(spec.seed ^ 0xadfa);
        pin_primitives(&tm.env, &tm.initial, &mut rng, &format!("{ts:?}"));
    }

    fn closed_form_step_delay_matches_replay_under_locking(ts in arb_locking_taskset) {
        for ccp in [
            ConcurrencyControlProtocol::NoneSpecified,
            ConcurrencyControlProtocol::PriorityInheritance,
            ConcurrencyControlProtocol::PriorityCeiling,
        ] {
            let pkg = taskset_to_package_locking(&ts, "HPF", ccp);
            let m = instantiate(&pkg, "Top.impl").unwrap();
            let tm = translate(&m, &TranslateOptions::default()).unwrap();
            let mut rng = DetRng::new(0xcc ^ ts.tasks.len() as u64);
            pin_primitives(&tm.env, &tm.initial, &mut rng, &format!("ccp={ccp:?} {ts:?}"));
        }
    }

    fn closed_form_zones_and_the_reference_tell_one_story(spec in arb_spec) {
        // The closed-form zone engine must agree with the reference explorer
        // on the verdict, the deadlocked terms and the shortest
        // counterexample, and every replayed timeline must be made of
        // prioritized steps — spans and macros included.
        let ts = uunifast(&spec);
        let pkg = taskset_to_package(&ts, "RMS");
        let m = instantiate(&pkg, "Top.impl").unwrap();
        let tm = translate(&m, &TranslateOptions::default()).unwrap();
        let reference = explore_reference(&tm.env, &tm.initial, &Options::default());
        let closed = explore(&tm.env, &tm.initial, &Options::default());
        assert_matches_reference(&tm.env, &reference, &closed, true, &format!("{ts:?}"));
    }

    fn zone_cap_is_granularity_only(spec in arb_spec) {
        let ts = uunifast(&spec);
        let pkg = taskset_to_package(&ts, "RMS");
        let m = instantiate(&pkg, "Top.impl").unwrap();
        let tm = translate(&m, &TranslateOptions::default()).unwrap();
        let base = explore(&tm.env, &tm.initial, &Options::default());
        for cap in [1usize, 5, 33] {
            let capped = explore(
                &tm.env,
                &tm.initial,
                &Options::default().with_zone_cap(cap),
            );
            let ctx = format!("cap={cap} {ts:?}");
            assert_eq!(capped.deadlocks.len(), base.deadlocks.len(), "{ctx}");
            assert_eq!(
                capped.first_deadlock_trace().map(|t| t.len()),
                base.first_deadlock_trace().map(|t| t.len()),
                "{ctx}"
            );
        }
    }
}

/// The closed advance stops exactly at a release instant, never past it:
/// one task with period 5 and wcet 1 alternates a 1-quantum compute zone
/// and a 4-quantum idle zone whose end *is* the release boundary, and the
/// closed-form bound reproduces both widths along the whole periodic orbit.
#[test]
fn closed_advance_stops_exactly_at_the_release_instant() {
    let ts = TaskSet::new(vec![Task::new(0, 5, 1)]);
    let pkg = taskset_to_package(&ts, "RMS");
    let m = instantiate(&pkg, "Top.impl").unwrap();
    let tm = translate(&m, &TranslateOptions::default()).unwrap();
    let session = StepSession::new(&tm.env, Rc::new(TermStore::new()), MemoConfig::default());
    let cache = AdvanceCache::new();
    let mut t = session.intern(&tm.initial);
    let mut seen = std::collections::HashSet::new();
    let mut widths = Vec::new();
    while seen.insert(t.id()) {
        let d = closed_delay_bound(&session, &cache, &t, u64::MAX);
        assert_eq!(
            d,
            replay_delay_bound(&session, &t, u64::MAX),
            "bound diverged at zone {}",
            widths.len()
        );
        if d > 0 {
            widths.push(d);
            t = closed_step_delay(&session, &cache, &t, d).unwrap();
            continue;
        }
        let mut succs = acsr::prioritized_steps(&tm.env, t.term());
        if succs.is_empty() {
            break;
        }
        t = session.intern(&succs.swap_remove(0).1);
    }
    assert!(!widths.is_empty(), "single-task model produced no zones");
    // Periodic timeline: dispatch-τ, 1 compute quantum, completion-τ, 4 idle
    // quanta ending exactly at the release. Any other width would either
    // swallow the release or strand a forced quantum.
    for (i, d) in widths.iter().enumerate() {
        assert!(
            *d == 1 || *d == 4,
            "zone {i} has width {d}, expected the 1/4 alternation"
        );
    }
    assert!(widths.contains(&4), "idle zone never reached the release");
}

/// `d = 0` is the identity — same interned term back, no cache mutation
/// beyond what the bound probe itself learns.
#[test]
fn zero_delay_is_the_identity() {
    let ts = TaskSet::new(vec![Task::new(0, 4, 2)]);
    let pkg = taskset_to_package(&ts, "RMS");
    let m = instantiate(&pkg, "Top.impl").unwrap();
    let tm = translate(&m, &TranslateOptions::default()).unwrap();
    let session = StepSession::new(&tm.env, Rc::new(TermStore::new()), MemoConfig::default());
    let cache = AdvanceCache::new();
    let t = session.intern(&tm.initial);
    let back = closed_step_delay(&session, &cache, &t, 0).expect("d=0 always succeeds");
    assert_eq!(back.id(), t.id());
}

/// A timed self-loop has no linear derivative (the vector does not move):
/// the shape is poisoned to non-linear, every later advance is a counted
/// replay fallback, and the bound still saturates at the cap exactly like
/// the replay implementation.
#[test]
fn non_linear_shapes_fall_back_to_replay_and_are_counted() {
    use acsr::prelude::*;
    let mut env = Env::new();
    let d = env.declare("Idle", 0);
    env.set_body(d, act([] as [(Res, i32); 0], invoke(d, [])));
    let p = invoke(d, []);
    let session = StepSession::new(&env, Rc::new(TermStore::new()), MemoConfig::default());
    let cache = AdvanceCache::new();
    let t = session.intern(&p);
    const CAP: u64 = 19;
    let closed = closed_delay_bound(&session, &cache, &t, CAP);
    let replay = replay_delay_bound(&session, &t, CAP);
    assert_eq!(closed, replay, "cycle saturation diverged");
    assert_eq!(closed, CAP, "forced timed cycle must saturate the cap");
    // Drive it again so the poisoned entry is actually consulted.
    let _ = closed_delay_bound(&session, &cache, &t, CAP);
    let stats = cache.stats();
    assert_eq!(stats.closed_form_advances, 0, "a self-loop must never go closed");
    assert!(stats.replay_fallbacks >= 1, "fallbacks must be counted");
    assert!(stats.shapes_derived >= 1, "the poisoned shape counts as derived");
    assert!(stats.shape_cache >= 1);
}
