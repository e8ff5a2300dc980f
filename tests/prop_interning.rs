//! Property-based equivalence of the exploration engine and the reference
//! explorer. Hash-consing, successor memoization and the weighted zone
//! search are *representation* changes and must be invisible in results.
//! For every generated task set, an LTS run of the shipped engine
//! ([`versa::explore`] with `collect_lts`, so every edge is one quantum:
//! TermId-keyed visited set, memoized [`acsr::StepSession`], each frontier
//! state expanded and merged in order) must agree **byte for byte** with
//! [`versa::reference::explore_reference`] (a plain BFS over
//! [`acsr::prioritized_steps`]) on the state table, the deadlock set, the
//! transition/dedup counts, the `truncated` flag and the full
//! shortest-deadlock trace — in exhaustive mode, in verdict mode, and under
//! state budgets on either side of the exhaustive state count.
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
    fn interned_engine_matches_the_reference(spec in arb_spec) {
        let ts = uunifast(&spec);
        let pkg = taskset_to_package(&ts, "RMS");
        let m = instantiate(&pkg, "Top.impl").unwrap();
        let tm = translate(&m, &TranslateOptions::default()).unwrap();
        let base = explore_reference(&tm.env, &tm.initial, &Options::default());
        let new = explore(&tm.env, &tm.initial, &Options::default().with_lts());
        let ctx = format!("{ts:?}");
        assert_identical(&base, &new, &ctx);
        assert!(new.stats.memo_hits > 0, "no memo hits: {ctx}");
        assert!(new.stats.unique_subterms > 0, "empty store: {ctx}");
    }

    fn interned_verdict_mode_matches_the_reference(spec in arb_spec) {
        // stop_at_first_deadlock takes the early-exit path out of the search;
        // the first (shortest) counterexample must not depend on the state
        // representation either.
        let ts = uunifast(&spec);
        let pkg = taskset_to_package(&ts, "RMS");
        let m = instantiate(&pkg, "Top.impl").unwrap();
        let tm = translate(&m, &TranslateOptions::default()).unwrap();
        let base = explore_reference(&tm.env, &tm.initial, &Options::verdict());
        let new = explore(&tm.env, &tm.initial, &Options::verdict().with_lts());
        assert_identical(&base, &new, &format!("verdict {ts:?}"));
    }

    fn state_budgets_truncate_like_the_reference(spec in arb_spec) {
        // One budget rule for engine and spec: intern at most `max_states`
        // states, truncated only when one more was needed. Budgets on
        // either side of the exhaustive count n pin both halves of it.
        let ts = uunifast(&spec);
        let pkg = taskset_to_package(&ts, "RMS");
        let m = instantiate(&pkg, "Top.impl").unwrap();
        let tm = translate(&m, &TranslateOptions::default()).unwrap();
        let n = explore_reference(&tm.env, &tm.initial, &Options::default()).num_states();
        for budget in [1, n / 2, n - 1, n, n + 1] {
            let opts = Options::default().with_max_states(budget);
            let base = explore_reference(&tm.env, &tm.initial, &opts);
            assert_eq!(base.truncated, n > budget.max(1), "budget={budget} n={n} {ts:?}");
            let new = explore(&tm.env, &tm.initial, &opts.clone().with_lts());
            let ctx = format!("budget={budget} n={n} {ts:?}");
            assert_identical(&base, &new, &ctx);
        }
    }
}
