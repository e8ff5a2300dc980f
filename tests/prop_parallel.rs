//! Property-based determinism of parallel exploration: the expand-and-intern
//! pipeline (sharded visited set, per-worker buffers, deterministic merge)
//! must be *invisible* in the results. For every generated task set the
//! sequential engine (`threads = 1`) and the parallel engine
//! (`threads ∈ {2, 8}`) must agree exactly with the reference explorer
//! ([`versa::reference::explore_reference`]) on the state table, the
//! deadlock set, the dedup-hit count, and the full shortest-deadlock trace —
//! label by label, state by state.
//!
//! Randomized task sets come from the workspace's vendored [`det`] harness
//! (`det_prop!` runs 64 seeded cases per property by default; failures print
//! a `DET_PROP_SEED` that reproduces the exact case).

use aadl::instance::instantiate;
use aadl2acsr::{translate, TranslateOptions};
use det::det_prop;
use det::DetRng;
use sched_baselines::taskset::{taskset_to_package, uunifast, TaskSetSpec};
use versa::reference::explore_reference;
use versa::{explore, Options};

#[path = "support/reference_checks.rs"]
mod reference_checks;
use reference_checks::assert_identical;

/// Bounded random specs: 2–4 tasks over a small period pool so the
/// exhaustive exploration stays test-sized, utilizations spanning clearly
/// schedulable to clearly overloaded (the overloaded ones are the valuable
/// cases — they deadlock, exercising the shortest-trace comparison).
fn arb_spec(rng: &mut DetRng) -> TaskSetSpec {
    TaskSetSpec {
        n: rng.range_usize(2..5),
        target_utilization: *rng.pick(&[0.4, 0.6, 0.8, 1.0]),
        periods: vec![4, 5, 8, 10],
        seed: rng.next_u64(),
    }
}

det_prop! {
    fn parallel_exploration_matches_sequential(spec in arb_spec) {
        let ts = uunifast(&spec);
        let pkg = taskset_to_package(&ts, "RMS");
        let m = instantiate(&pkg, "Top.impl").unwrap();
        let tm = translate(&m, &TranslateOptions::default()).unwrap();
        let reference = explore_reference(&tm.env, &tm.initial, &Options::default());
        for threads in [1usize, 2, 8] {
            let ex = explore(
                &tm.env,
                &tm.initial,
                &Options::default().with_lts().with_threads(threads),
            );
            assert_identical(&reference, &ex, &format!("threads={threads} {ts:?}"));
        }
    }

    fn verdict_mode_is_deterministic_in_parallel_too(spec in arb_spec) {
        // stop_at_first_deadlock takes the early-exit path through the merge;
        // the first (shortest) counterexample must not depend on threads.
        let ts = uunifast(&spec);
        let pkg = taskset_to_package(&ts, "RMS");
        let m = instantiate(&pkg, "Top.impl").unwrap();
        let tm = translate(&m, &TranslateOptions::default()).unwrap();
        let reference = explore_reference(&tm.env, &tm.initial, &Options::verdict());
        for threads in [1usize, 2, 8] {
            let ex = explore(
                &tm.env,
                &tm.initial,
                &Options::verdict().with_lts().with_threads(threads),
            );
            assert_identical(&reference, &ex, &format!("verdict threads={threads} {ts:?}"));
        }
    }
}
