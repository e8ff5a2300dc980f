//! Property-based regression guard for the O(1)-equality claim of the term
//! store: interning must distinguish structurally-distinct terms even when
//! every digest collides. The store's [`TermStore::with_digest_mask`] hook
//! forces collisions deliberately; under any mask, id equality must coincide exactly with deep structural equality,
//! and the memoized step relation, prioritized at a root `Par` before its
//! successors are built, must be unchanged.
//!
//! Randomized terms come from the workspace's vendored [`det`] harness
//! (`det_prop!` runs 64 seeded cases per property by default; failures print
//! a `DET_PROP_SEED` that reproduces the exact case).

use std::rc::Rc;

use acsr::prelude::*;
use acsr::{MemoConfig, StepSession, TermStore};
use det::det_prop;
use det::DetRng;

const RES_POOL: [&str; 3] = ["ic_cpu", "ic_bus", "ic_data"];

fn arb_leaf(rng: &mut DetRng) -> P {
    match rng.range_u64(0..3) {
        0 => nil(),
        1 => {
            let r = Res::new(*rng.pick(&RES_POOL));
            act([(r, rng.range_i64(0..4))], nil())
        }
        _ => {
            let sym = Symbol::new(*rng.pick(&["ie_x", "ie_y", "ie_z"]));
            let prio = rng.range_u64(0..4) as u32;
            if rng.next_bool() {
                evt_send(sym, prio, nil())
            } else {
                evt_recv(sym, prio, nil())
            }
        }
    }
}

fn arb_proc_depth(rng: &mut DetRng, depth: usize) -> P {
    if depth == 0 {
        return arb_leaf(rng);
    }
    match rng.range_u64(0..6) {
        0 => arb_leaf(rng),
        1 => {
            let n = rng.range_usize(1..4);
            choice((0..n).map(|_| arb_proc_depth(rng, depth - 1)).collect::<Vec<_>>())
        }
        2 => {
            let n = rng.range_usize(1..3);
            par((0..n).map(|_| arb_proc_depth(rng, depth - 1)).collect::<Vec<_>>())
        }
        3 => {
            let p = arb_proc_depth(rng, depth - 1);
            let t = rng.range_i64(0..4);
            scope(p, TimeBound::Finite(Expr::c(t)), None, Some(nil()), None)
        }
        4 => restrict(arb_proc_depth(rng, depth - 1), [Symbol::new("ie_x")]),
        _ => close(arb_proc_depth(rng, depth - 1), [Res::new("ic_data")]),
    }
}

/// A small ground process over the resource pool, with bounded depth.
fn arb_proc(rng: &mut DetRng) -> P {
    arb_proc_depth(rng, 3)
}

/// A root shaped like a translated state: a `Par` of two to four small
/// components, bare or under `Restrict(_, {ie_x})`.
fn arb_root(rng: &mut DetRng) -> P {
    let n = rng.range_usize(2..5);
    let comps = (0..n).map(|_| arb_proc_depth(rng, 2)).collect::<Vec<_>>();
    restrict_maybe(rng, par(comps))
}

/// A root of three to five components that all offer timed steps over
/// overlapping resource sets, some tagged, so the joint timed steps depend
/// on which picks of the *Par3* walk conflict.
fn arb_timed_root(rng: &mut DetRng) -> P {
    let mut env = Env::new();
    let tags = [env.tag("t0"), env.tag("t1"), env.tag("t2")];
    let n = rng.range_usize(3..6);
    let comps = (0..n)
        .map(|_| {
            let alts = rng.range_usize(1..4);
            choice(
                (0..alts)
                    .map(|_| {
                        let mut uses: Vec<(Res, i64)> = Vec::new();
                        for r in RES_POOL {
                            if rng.next_bool() {
                                uses.push((Res::new(r), rng.range_i64(0..4)));
                            }
                        }
                        let next = arb_leaf(rng);
                        if rng.next_bool() {
                            act_tagged(uses, *rng.pick(&tags), next)
                        } else {
                            act(uses, next)
                        }
                    })
                    .collect::<Vec<_>>(),
            )
        })
        .collect::<Vec<_>>();
    restrict_maybe(rng, par(comps))
}

fn restrict_maybe(rng: &mut DetRng, p: P) -> P {
    if rng.next_bool() {
        restrict(p, [Symbol::new("ie_x")])
    } else {
        p
    }
}

det_prop! {
    fn forced_digest_collisions_never_merge_distinct_structures(
        a in arb_proc, b in arb_proc
    ) {
        // Under every mask — including mask 0, which collapses *all* digests
        // into one bucket — two terms share an id iff they are structurally
        // equal, exactly as in the unmasked store.
        let structurally_equal = a == b;
        for mask in [0u64, 1, 0xFF, u64::MAX] {
            let store = TermStore::with_digest_mask(mask);
            let ia = store.intern(&a);
            let ib = store.intern(&b);
            assert_eq!(
                ia.id() == ib.id(),
                structurally_equal,
                "mask={mask:#x}: id equality diverged from structural equality\n a={a:?}\n b={b:?}"
            );
            assert_eq!(ia.digest(), ia.digest() & mask, "digest escaped the mask");
        }
    }

    fn collision_heavy_store_preserves_the_step_relation(p in arb_proc) {
        // A mask-0 store drives every insert through the bucket-scan slow
        // path; the memoized session over it must still reproduce the legacy
        // step relation label for label, successor for successor.
        let env = Env::new();
        let legacy = steps(&env, &p);
        let store = Rc::new(TermStore::with_digest_mask(0));
        let session = StepSession::new(&env, store, MemoConfig::default());
        let interned = session.steps(&session.intern(&p));
        assert_eq!(legacy.len(), interned.len(), "step count for {p:?}");
        for ((ll, lp), (il, ip)) in legacy.iter().zip(&interned) {
            assert_eq!(ll, il, "label for {p:?}");
            assert_eq!(lp, ip.term(), "successor for {p:?}");
        }
    }

    fn root_prioritized_steps_match_the_plain_relation(
        root in arb_root, timed in arb_timed_root
    ) {
        // A root `Par` is restricted and prioritized before its successors
        // are interned; the result must still be the plain prioritized
        // relation, on the first call and on the second, whether the second
        // is served from the root window (default capacity) or derived again
        // because the other root pushed it out (a window of 1).
        let env = Env::new();
        let roots = [&root, &timed];
        let plain = roots.map(|r| prioritized_steps(&env, r));
        let configs = [
            (MemoConfig::default(), "default window"),
            (MemoConfig::with_capacity(1), "window 1"),
        ];
        for (config, window) in configs {
            for mask in [0u64, u64::MAX] {
                let store = Rc::new(TermStore::with_digest_mask(mask));
                let session = StepSession::new(&env, store, config);
                let ts = roots.map(|r| session.intern(r));
                let distinct = ts[0].id() != ts[1].id();
                for call in ["first call", "second call"] {
                    for (k, t) in ts.iter().enumerate() {
                        let before = session.memo_stats();
                        let interned = session.prioritized_steps(t);
                        let after = session.memo_stats();
                        let case = format!("{window}, mask={mask:#x}, {call}, root {:?}", roots[k]);
                        if call == "second call" && window == "default window" {
                            assert_eq!(after.hits, before.hits + 1, "no hit, {case}");
                        }
                        if call == "second call" && window == "window 1" && distinct {
                            assert_eq!(
                                after.root_rederivations,
                                before.root_rederivations + 1,
                                "not derived again, {case}"
                            );
                        }
                        assert_eq!(plain[k].len(), interned.len(), "step count, {case}");
                        for ((pl, pp), (il, ip)) in plain[k].iter().zip(&interned) {
                            assert_eq!(pl, il, "label, {case}");
                            assert_eq!(pp, ip.term(), "successor, {case}");
                        }
                    }
                }
            }
        }
    }
}
