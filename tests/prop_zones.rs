//! Property-based equivalence of delay-zone exploration and the per-quantum
//! reference explorer: collapsing forced runs is a *traversal* change and
//! must be invisible in every analysis result. For every generated task set
//! the zone explorer (every [`versa::explore`] run without an LTS) must
//! agree with [`versa::reference::explore_reference`] on the verdict, the
//! set of deadlocked terms (exhaustive mode, by stable digest) and the
//! length of the shortest counterexample trace — zone traces replay their
//! delay edges through the step relation into the per-quantum timeline, so
//! their step counts are directly comparable — and every replayed
//! counterexample must be a path of the plain prioritized step relation
//! ending in a deadlock, as long as the deadlock's settled depth. The *state table* is
//! deliberately not compared: zone exploration materializes only zone
//! endpoints, so a smaller table is the whole point (asserted as
//! `zoned ≤ reference`).
//!
//! The same checks run on hand-built terms for the zone engine's corner
//! cases (branches, idle loops, events inside forced runs, relaxation, wide
//! fans) and on forced runs either side of [`versa::LEARN_AFTER`], where a
//! run stops being walked step by step and is handed to the closed-form
//! runner. Also here, because they share the generators:
//!
//! * the `acsr::stable` digest property for the zone primitives —
//!   [`acsr::step_delay`]`(d)` must reach exactly the term that `d` unit
//!   steps of the *bare* (un-interned, un-memoized) step relation reach;
//! * forced-boundary unit tests — a delay zone ends exactly at the next
//!   release instant, and no release (hence no preemption) can occur
//!   strictly inside one.
//!
//! `det_prop!` runs 64 seeded cases per property; failures print a
//! `DET_PROP_SEED` that reproduces the exact case.

use std::rc::Rc;

use aadl::instance::instantiate;
use aadl::properties::ConcurrencyControlProtocol;
use aadl2acsr::{translate, TranslateOptions};
use acsr::prelude::{
    act, choice, evt_send, guard, invoke, nil, BExpr, Env, Expr, Proc, Res, Symbol, P,
};
use acsr::{delay_bound, stable_digest, step_delay, MemoConfig, StepSession, TermStore};
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
use reference_checks::{assert_matches_reference, warmed};

/// Bounded random specs: 2–4 tasks over a small period pool so the
/// exhaustive exploration stays test-sized, utilizations spanning clearly
/// schedulable to clearly overloaded (the overloaded ones deadlock,
/// exercising the counterexample-length comparison).
fn arb_spec(rng: &mut DetRng) -> TaskSetSpec {
    TaskSetSpec {
        n: rng.range_usize(2..5),
        target_utilization: *rng.pick(&[0.4, 0.6, 0.8, 1.0]),
        periods: vec![4, 5, 8, 10],
        seed: rng.next_u64(),
    }
}

/// Three HPF tasks with distinct priorities and one shared resource, as in
/// `prop_locking.rs` — lock acquire/release steps are instantaneous, so
/// these models exercise the zone boundary against the concurrency-control
/// subsystem, not just dispatches.
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

det_prop! {
    fn zones_match_concrete_on_random_task_sets(spec in arb_spec) {
        let ts = uunifast(&spec);
        let pkg = taskset_to_package(&ts, "RMS");
        let m = instantiate(&pkg, "Top.impl").unwrap();
        let tm = translate(&m, &TranslateOptions::default()).unwrap();
        check_zones(&tm.env, &tm.initial, &Options::default(), &format!("{ts:?}"));
    }

    fn zones_match_concrete_in_verdict_mode(spec in arb_spec) {
        // stop_at_first_deadlock: the zone explorer must surface a first
        // counterexample as short as the reference's.
        let ts = uunifast(&spec);
        let pkg = taskset_to_package(&ts, "RMS");
        let m = instantiate(&pkg, "Top.impl").unwrap();
        let tm = translate(&m, &TranslateOptions::default()).unwrap();
        check_zones(&tm.env, &tm.initial, &Options::verdict(), &format!("verdict {ts:?}"));
    }

    fn zones_match_concrete_under_locking_protocols(ts in arb_locking_taskset) {
        // Lock acquires, releases and priority adjustments are forced
        // instantaneous steps inside forced runs — the protocols must not
        // perturb any verdict, deadlock or counterexample length.
        for ccp in [
            ConcurrencyControlProtocol::NoneSpecified,
            ConcurrencyControlProtocol::PriorityInheritance,
            ConcurrencyControlProtocol::PriorityCeiling,
        ] {
            let pkg = taskset_to_package_locking(&ts, "HPF", ccp);
            let m = instantiate(&pkg, "Top.impl").unwrap();
            let tm = translate(&m, &TranslateOptions::default()).unwrap();
            let ctx = format!("ccp={ccp:?} {ts:?}");
            check_zones(&tm.env, &tm.initial, &Options::default(), &ctx);
        }
    }

    fn bulk_delay_is_d_unit_steps(spec in arb_spec) {
        // The `acsr::stable` digest property: wherever `delay_bound` finds a
        // zone of width d along a concrete walk, `step_delay(d)` must land
        // on exactly the term that d unit steps of the *bare* step relation
        // (no interner, no memo) reach — same stable digest, same interned
        // identity — and d must be maximal: one more quantum is refused.
        let ts = uunifast(&spec);
        let pkg = taskset_to_package(&ts, "RMS");
        let m = instantiate(&pkg, "Top.impl").unwrap();
        let tm = translate(&m, &TranslateOptions::default()).unwrap();
        let session = StepSession::new(
            &tm.env,
            Rc::new(TermStore::new()),
            MemoConfig::default(),
        );
        const CAP: u64 = 32;
        let mut p = tm.initial.clone();
        let mut zones_checked = 0u32;
        for _ in 0..400 {
            let t = session.intern(&p);
            let d = delay_bound(&session, &t, CAP);
            if d > 0 {
                let mut q = p.clone();
                for k in 0..d {
                    let succs = acsr::prioritized_steps(&tm.env, &q);
                    assert_eq!(
                        succs.len(),
                        1,
                        "state {k} quanta into a width-{d} zone is not forced: {ts:?}"
                    );
                    assert!(
                        succs[0].0.is_timed(),
                        "non-timed step {k} quanta into a width-{d} zone: {ts:?}"
                    );
                    q = succs[0].1.clone();
                }
                let bulk = step_delay(&session, &t, d)
                    .expect("delay_bound promised d forced timed quanta");
                assert_eq!(
                    stable_digest(&tm.env, &q),
                    stable_digest(&tm.env, bulk.term()),
                    "step_delay({d}) digest differs from {d} unit steps: {ts:?}"
                );
                assert_eq!(
                    bulk.id(),
                    session.intern(&q).id(),
                    "step_delay({d}) interned a different term: {ts:?}"
                );
                if d < CAP {
                    assert!(
                        step_delay(&session, &t, d + 1).is_none(),
                        "delay_bound said {d} but step_delay({}) succeeded: {ts:?}",
                        d + 1
                    );
                }
                zones_checked += 1;
            }
            let mut succs = acsr::prioritized_steps(&tm.env, &p);
            if succs.is_empty() {
                break;
            }
            p = succs.swap_remove(0).1;
        }
        assert!(zones_checked > 0, "walk never entered a delay zone: {ts:?}");
    }
}

/// Zone exploration against the reference explorer.
fn check_zones(env: &acsr::Env, initial: &acsr::P, opts: &Options, ctx: &str) {
    let reference = explore_reference(env, initial, opts);
    let zoned = explore(env, initial, opts);
    let exhaustive = !opts.stop_at_first_deadlock;
    assert_matches_reference(env, &reference, &zoned, exhaustive, ctx);
}

/// A straight forced chain of `n` quanta ending in NIL.
fn chain(n: usize) -> P {
    let mut p = nil();
    for _ in 0..n {
        p = act([(Res::new("cpu"), 1)], p);
    }
    p
}

/// Hand-built terms for the zone engine's corner cases, against the
/// reference in exhaustive and verdict mode.
#[test]
fn zones_match_the_reference_on_hand_built_terms() {
    let mut env = Env::new();
    let cpu = || Res::new("cpu");
    let idle = env.declare("Idle", 0);
    env.set_body(idle, act([] as [(Res, i32); 0], invoke(idle, [])));
    // A fan of 16 sibling chains of different lengths: one wide bucket.
    let fan = env.declare("Fan", 0);
    env.set_body(
        fan,
        choice((0..16).map(|i| act([(Res::new(&format!("r{i}")), 1)], chain(i + 1)))),
    );
    // Two routes to the same 5-quantum tail: a 1-step hop and a forced
    // 9-quantum detour, which relaxation must settle at the shorter depth.
    let mut detour = chain(5);
    for _ in 0..9 {
        detour = act([(cpu(), 1)], detour);
    }
    let cases = [
        (
            "two paths of different length",
            choice([chain(3), act([(Res::new("bus"), 1)], chain(7))]),
        ),
        ("deadlock-free idle loop", invoke(idle, [])),
        ("initially deadlocked", nil()),
        (
            "event mid-chain",
            act([(cpu(), 1)], evt_send(Symbol::new("done"), 1, chain(4))),
        ),
        (
            "shared tail",
            choice([act([(Res::new("bus"), 1)], chain(5)), detour]),
        ),
        ("wide fan", invoke(fan, [])),
    ];
    for (name, p) in &cases {
        for opts in [Options::default(), Options::verdict()] {
            let ctx = format!("{name}, stop_at_first={}", opts.stop_at_first_deadlock);
            check_zones(&env, p, &opts, &ctx);
            let elapsed =
                |ex: &versa::Exploration| ex.first_deadlock_trace().map(|t| t.elapsed_quanta());
            assert_eq!(
                elapsed(&explore_reference(&env, p, &opts)),
                elapsed(&explore(&env, p, &opts)),
                "shortest-counterexample elapsed quanta: {ctx}"
            );
        }
    }
}

/// `Count(k)`: one forced quantum per step while `k < n`, then NIL — a forced
/// run of `n` steps whose states all share one shape (only `k` moves), so a
/// run long enough to be handed off is served in closed form.
fn counter(env: &mut Env, n: i64) -> P {
    let d = env.declare(&format!("Count{n}"), 1);
    env.set_body(
        d,
        choice([
            guard(
                BExpr::lt(Expr::p(0), Expr::c(n)),
                act(
                    [(Res::new("cpu"), 1)],
                    invoke(d, [Expr::p(0).add(Expr::c(1))]),
                ),
            ),
            guard(BExpr::eq(Expr::p(0), Expr::c(n)), nil()),
        ]),
    );
    invoke(d, [Expr::c(0)])
}

/// `Cycle(k)`: a forced idle loop of `n` quanta that returns to its entry.
fn cycle(env: &mut Env, n: i64) -> P {
    let d = env.declare(&format!("Cycle{n}"), 1);
    env.set_body(
        d,
        choice([
            guard(
                BExpr::lt(Expr::p(0), Expr::c(n - 1)),
                act(
                    [(Res::new("cpu"), 1)],
                    invoke(d, [Expr::p(0).add(Expr::c(1))]),
                ),
            ),
            guard(
                BExpr::eq(Expr::p(0), Expr::c(n - 1)),
                act([(Res::new("cpu"), 1)], invoke(d, [Expr::c(0)])),
            ),
        ]),
    );
    invoke(d, [Expr::c(0)])
}

/// Forced runs one step short of, at, one step past and far past the
/// handoff length, after a warm-up that switches learning on: the
/// concretely walked prefix and the closed-form tail must join into
/// timelines that pass the four reference checks, and only runs longer
/// than [`versa::LEARN_AFTER`] may reach the closed-form runner
/// (`zone.learned_runs`). A cycle that closes just after the handoff checks
/// that the runner's cycle guard covers the walked prefix. Without the
/// warm-up nothing is handed off, however long the run.
#[test]
fn forced_runs_either_side_of_the_handoff_match_the_reference() {
    let t = versa::LEARN_AFTER as usize;
    let mut env = Env::new();
    // (name, term, runs handed off, whether a span must be served closed-form)
    let mut cases: Vec<(String, P, u64, bool)> = Vec::new();
    for n in [t - 1, t, t + 1, 50 * t] {
        let learned = u64::from(n > t);
        cases.push((format!("chain of {n}"), chain(n), learned, false));
        let count = counter(&mut env, n as i64);
        cases.push((format!("counter to {n}"), count, learned, false));
        // Behind a branch: the run starts at a materialized branch target.
        let branched = choice([act([(Res::new("bus"), 1)], chain(n)), chain(1)]);
        cases.push((
            format!("branch into a chain of {n}"),
            branched,
            learned,
            false,
        ));
    }
    // Two runs through one shape: the second is served in closed form off
    // what the first one learned.
    let long = counter(&mut env, 50 * t as i64);
    let Proc::Invoke { def, .. } = &*long else {
        unreachable!("counter() builds an invocation")
    };
    let twice = choice([
        act([(Res::new("bus"), 1)], long.clone()),
        act([(Res::new("cpu"), 1)], invoke(*def, [Expr::c(3)])),
    ]);
    cases.push(("two counters".into(), twice, 2, true));
    let n = t as i64 + 3;
    cases.push((format!("cycle of {n}"), cycle(&mut env, n), 1, false));
    let mut cases: Vec<(String, P, u64, bool)> = cases
        .into_iter()
        .enumerate()
        .map(|(i, (name, p, learned, closed))| {
            let p = warmed(&mut env, &format!("Warm{i}"), p);
            (format!("warmed {name}"), p, learned, closed)
        })
        .collect();
    cases.push(("cold chain".into(), chain(50 * t), 0, false));
    for (name, p, learned, closed) in &cases {
        for opts in [Options::default(), Options::verdict()] {
            let ctx = format!("{name}, stop_at_first={}", opts.stop_at_first_deadlock);
            check_zones(&env, p, &opts, &ctx);
            let rec = obs::Recorder::enabled();
            explore(&env, p, &opts.clone().with_obs(rec.clone()));
            let run = rec.finish();
            let counter = |key: &str| {
                run.counters
                    .iter()
                    .find(|(k, _)| k == key)
                    .map_or(0, |(_, v)| *v)
            };
            assert_eq!(counter("zone.learned_runs"), *learned, "{ctx}");
            if *learned == 0 {
                // Nothing was handed off, so nothing was learned either.
                assert_eq!(counter("zone.shapes_derived"), 0, "{ctx}");
            }
            if *closed {
                assert!(counter("zone.closed_form_advances") >= 1, "{ctx}");
            }
        }
    }
}

/// A branch into two instances of the *same* shape at different time
/// vectors, behind a warm-up: the second chain is advanced closed-form off
/// the first chain's learned derivative, so this exercises the span path
/// end to end — a delay edge that keeps only its weight, whose interior
/// quanta the deadlock-path replay re-derives from the step relation — and
/// the replayed timeline must be the reference's, state for state.
/// The run reports the closed-form cache: one derivation, a closed-form
/// advance, and a replay fallback at each chain end.
#[test]
fn closed_form_spans_replay_the_reference_timeline_step_for_step() {
    let mut env = Env::new();
    let p = choice([
        act([(Res::new("bus"), 1)], chain(30)),
        act([(Res::new("cpu"), 1)], chain(20)),
    ]);
    let p = warmed(&mut env, "Warm", p);
    let reference = explore_reference(&env, &p, &Options::default());
    let rec = obs::Recorder::enabled();
    let zoned = explore(&env, &p, &Options::default().with_obs(rec.clone()));
    let run = rec.finish();
    let counter = |key: &str| {
        run.counters
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0, |(_, v)| *v)
    };
    assert!(counter("zone.closed_form_advances") >= 1);
    assert!(counter("zone.replay_fallbacks") >= 1);
    assert!(counter("zone.shapes_derived") >= 1);
    let shape_cache = run
        .gauges
        .iter()
        .find(|(k, _, _)| k == "zone.shape_cache")
        .map_or(0, |(_, v, _)| *v);
    assert!(shape_cache >= 1);
    let (tz, tr) = (
        zoned.first_deadlock_trace().unwrap(),
        reference.first_deadlock_trace().unwrap(),
    );
    assert_eq!(tz.len(), tr.len());
    for i in 0..tz.len() {
        assert_eq!(tz.state_after(i), tr.state_after(i));
    }
    check_zones(&env, &p, &Options::default(), "same shape at two vectors");
}

/// Walk a model's deterministic prioritized-step sequence, jumping through
/// delay zones via [`step_delay`], until a term repeats (the model is
/// periodic). Returns `(zones, singleton_timed)` where `zones` is each
/// zone's `(entry_time, width)` in quanta since the walk began.
fn walk_zones(ts: &TaskSet) -> (Vec<(u64, u64)>, u64) {
    let pkg = taskset_to_package(ts, "RMS");
    let m = instantiate(&pkg, "Top.impl").unwrap();
    let tm = translate(&m, &TranslateOptions::default()).unwrap();
    let session = StepSession::new(&tm.env, Rc::new(TermStore::new()), MemoConfig::default());
    let mut t = session.intern(&tm.initial);
    let mut seen = std::collections::HashSet::new();
    let mut now = 0u64;
    let mut zones = Vec::new();
    let mut singleton_timed = 0u64;
    while seen.insert(t.id()) {
        let d = delay_bound(&session, &t, u64::MAX);
        if d > 0 {
            assert!(
                step_delay(&session, &t, d + 1).is_none(),
                "zone at t={now} is not maximal"
            );
            zones.push((now, d));
            now += d;
            t = step_delay(&session, &t, d).unwrap();
            continue;
        }
        let mut succs = acsr::prioritized_steps(&tm.env, t.term());
        if succs.is_empty() {
            break;
        }
        // At a simultaneous-release instant the dispatch τs interleave;
        // any one path through the diamond serves the boundary check.
        let (label, target) = succs.swap_remove(0);
        if label.is_timed() {
            singleton_timed += 1;
            now += 1;
        }
        t = session.intern(&target);
    }
    (zones, singleton_timed)
}

/// A zone ends exactly at the release boundary: one task with period 5 and
/// wcet 1 spends all five timed quanta of its period in forced runs, so the
/// zone widths collected over a cycle sum to a whole number of periods —
/// nothing is lost at the boundary, nothing leaks past it.
#[test]
fn delay_zones_cover_whole_periods_of_an_idle_task() {
    let ts = TaskSet::new(vec![Task::new(0, 5, 1)]);
    let (zones, singleton_timed) = walk_zones(&ts);
    assert!(!zones.is_empty(), "single-task model produced no zones");
    assert_eq!(singleton_timed, 0, "every timed quantum should be forced");
    let total: u64 = zones.iter().map(|&(_, d)| d).sum();
    assert!(total > 0 && total % 5 == 0, "zones cover {total} quanta");
    // The period's timeline is dispatch-τ, one compute quantum, completion-τ,
    // four idle quanta, release-τ — so the zones alternate between the lone
    // compute quantum (ended by the instantaneous completion) and the idle
    // stretch, which runs up to *exactly* the release boundary: a width of 5
    // would swallow the dispatch, a width of 3 would leave a forced quantum
    // on the floor.
    for &(entry, d) in &zones {
        match entry % 5 {
            0 => assert_eq!(d, 1, "compute zone at t={entry} has width {d}"),
            1 => {
                assert_eq!(d, 4, "idle zone at t={entry} has width {d}");
                assert_eq!((entry + d) % 5, 0, "idle zone misses the release");
            }
            _ => panic!("unexpected zone entry at t={entry} (width {d})"),
        }
    }
}

/// Preemption mid-zone is impossible by construction: with T1 = (period 4,
/// wcet 2) and T2 = (period 8, wcet 3), T1's release at t = 4 preempts T2
/// mid-job. No release instant (multiple of 4 or 8) may fall strictly
/// inside any zone — a release is an instantaneous prioritized alternative,
/// which ends the forced run *at* that instant, never past it.
#[test]
fn releases_never_fall_strictly_inside_a_zone() {
    let ts = TaskSet::new(vec![Task::new(0, 4, 2), Task::new(0, 8, 3)]);
    let (zones, _) = walk_zones(&ts);
    assert!(!zones.is_empty(), "preemption model produced no zones");
    for &(entry, d) in &zones {
        for period in [4u64, 8] {
            let r = (entry / period + 1) * period;
            assert!(
                r >= entry + d,
                "release at t={r} falls strictly inside zone [{entry}, {})",
                entry + d
            );
        }
    }
}
