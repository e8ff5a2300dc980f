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

use std::sync::Arc;

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
    if rng.next_bool() {
        restrict(par(comps), [Symbol::new("ie_x")])
    } else {
        par(comps)
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
        let store = Arc::new(TermStore::with_digest_mask(0));
        let session = StepSession::new(&env, store, MemoConfig::default());
        let interned = session.steps(&session.intern(&p));
        assert_eq!(legacy.len(), interned.len(), "step count for {p:?}");
        for ((ll, lp), (il, ip)) in legacy.iter().zip(&interned) {
            assert_eq!(ll, il, "label for {p:?}");
            assert_eq!(lp, ip.term(), "successor for {p:?}");
        }
    }

    fn root_prioritized_steps_match_the_plain_relation(root in arb_root) {
        // A root `Par` is restricted and prioritized before its successors
        // are interned; the result must still be the plain prioritized
        // relation, on the first call and when served from the memo.
        let env = Env::new();
        let plain = prioritized_steps(&env, &root);
        for mask in [0u64, u64::MAX] {
            let store = Arc::new(TermStore::with_digest_mask(mask));
            let session = StepSession::new(&env, store, MemoConfig::default());
            let t = session.intern(&root);
            for call in ["first call", "memo hit"] {
                let hits = session.memo_stats().hits;
                let interned = session.prioritized_steps(&t);
                if call == "memo hit" {
                    assert_eq!(session.memo_stats().hits, hits + 1, "mask={mask:#x}: no hit");
                }
                let case = format!("mask={mask:#x}, {call}, root {root:?}");
                assert_eq!(plain.len(), interned.len(), "step count, {case}");
                for ((pl, pp), (il, ip)) in plain.iter().zip(&interned) {
                    assert_eq!(pl, il, "label, {case}");
                    assert_eq!(pp, ip.term(), "successor, {case}");
                }
            }
        }
    }
}
