//! Property-based tests of the ACSR semantic core.
//!
//! Randomized terms, labels, and actions come from the workspace's vendored
//! [`det`] harness (`det_prop!` runs 64 seeded cases per property by default;
//! failures print a `DET_PROP_SEED` that reproduces the exact case).

use std::collections::BTreeMap;
use std::sync::Arc;

use acsr::prelude::*;
use acsr::GAction;
use det::det_prop;
use det::prop::uints;
use det::DetRng;

const RES_POOL: [&str; 4] = ["pr_cpu1", "pr_cpu2", "pr_bus", "pr_data"];

fn arb_gaction(rng: &mut DetRng) -> GAction {
    let size = rng.range_usize(0..RES_POOL.len());
    let mut m = BTreeMap::new();
    for _ in 0..size {
        let i = rng.range_usize(0..RES_POOL.len());
        let p = rng.range_u64(0..5) as u32;
        m.insert(i, p);
    }
    let mut uses: Vec<(Res, u32)> = m
        .into_iter()
        .map(|(i, p)| (Res::new(RES_POOL[i]), p))
        .collect();
    uses.sort_unstable_by_key(|(r, _)| *r);
    GAction {
        uses: uses.into_boxed_slice(),
        tags: Box::new([]),
    }
}

fn arb_label(rng: &mut DetRng) -> Label {
    match rng.range_u64(0..3) {
        0 => Label::A(Arc::new(arb_gaction(rng))),
        1 => Label::E {
            label: Symbol::new(*rng.pick(&["pe_a", "pe_b", "pe_c"])),
            dir: if rng.next_bool() { Dir::Send } else { Dir::Recv },
            prio: rng.range_u64(0..5) as u32,
        },
        _ => Label::Tau {
            prio: rng.range_u64(0..5) as u32,
            via: None,
        },
    }
}

fn arb_leaf(rng: &mut DetRng) -> P {
    match rng.range_u64(0..3) {
        0 => nil(),
        1 => {
            let a = arb_gaction(rng);
            let uses: Vec<(Res, Expr)> = a
                .uses
                .iter()
                .map(|(r, p)| (*r, Expr::c(*p as i64)))
                .collect();
            act(uses, nil())
        }
        _ => {
            let sym = Symbol::new(*rng.pick(&["pp_x", "pp_y", "pp_z"]));
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
        4 => restrict(arb_proc_depth(rng, depth - 1), [Symbol::new("pp_x")]),
        _ => close(arb_proc_depth(rng, depth - 1), [Res::new("pr_data")]),
    }
}

/// A small ground process over the resource pool, with bounded depth.
fn arb_proc(rng: &mut DetRng) -> P {
    arb_proc_depth(rng, 3)
}

det_prop! {
    fn preemption_is_irreflexive(l in arb_label) {
        assert!(!preempts(&l, &l));
    }

    fn preemption_is_antisymmetric(a in arb_label, b in arb_label) {
        assert!(!(preempts(&a, &b) && preempts(&b, &a)));
    }

    fn preemption_is_transitive(a in arb_label, b in arb_label, c in arb_label) {
        if preempts(&a, &b) && preempts(&b, &c) {
            assert!(preempts(&a, &c), "{a:?} ≺ {b:?} ≺ {c:?} but not {a:?} ≺ {c:?}");
        }
    }

    fn idling_is_preempted_by_any_positive_action(a in arb_gaction) {
        let idle = Label::A(Arc::new(GAction::idle()));
        let la = Label::A(Arc::new(a.clone()));
        let has_positive = a.uses.iter().any(|(_, p)| *p > 0);
        assert_eq!(preempts(&idle, &la), has_positive);
    }

    fn merge_is_commutative(a in arb_gaction, b in arb_gaction) {
        let ab = a.merge(&b);
        let ba = b.merge(&a);
        match (ab, ba) {
            (Some(x), Some(y)) => assert_eq!(x.uses, y.uses),
            (None, None) => {}
            other => panic!("asymmetric merge: {other:?}"),
        }
    }

    fn merge_is_associative_when_defined(
        a in arb_gaction, b in arb_gaction, c in arb_gaction
    ) {
        let left = a.merge(&b).and_then(|ab| ab.merge(&c));
        let right = b.merge(&c).and_then(|bc| a.merge(&bc));
        match (left, right) {
            (Some(x), Some(y)) => assert_eq!(x.uses, y.uses),
            (None, None) => {}
            other => panic!("non-associative merge: {other:?}"),
        }
    }

    fn prioritize_is_idempotent_and_contractive(p in arb_proc) {
        let env = Env::new();
        let all = steps(&env, &p);
        let pri = prioritized_steps(&env, &p);
        assert!(pri.len() <= all.len());
        // Every prioritized step is an unprioritized step.
        for s in &pri {
            assert!(all.contains(s));
        }
        // Idempotence: filtering again changes nothing.
        let again = acsr::prio::prioritize(pri.clone());
        assert_eq!(again, pri);
    }

    fn urgent_tau_excludes_timed_steps(p in arb_proc) {
        let env = Env::new();
        let pri = prioritized_steps(&env, &p);
        let has_urgent_tau = pri.iter().any(|(l, _)| matches!(l, Label::Tau { prio, .. } if *prio > 0));
        if has_urgent_tau {
            assert!(pri.iter().all(|(l, _)| !l.is_timed()));
        }
    }

    fn steps_are_deterministic(p in arb_proc) {
        let env = Env::new();
        assert_eq!(steps(&env, &p), steps(&env, &p));
    }

    fn par_timed_steps_use_disjointly_merged_resources(p in arb_proc, q in arb_proc) {
        let env = Env::new();
        let composed = par([p.clone(), q.clone()]);
        for (l, _) in steps(&env, &composed) {
            if let Some(a) = l.action() {
                // Sorted and duplicate-free by construction.
                for w in a.uses.windows(2) {
                    assert!(w[0].0 < w[1].0);
                }
            }
        }
    }

    fn walk_states_are_reachable_by_exploration(p in arb_proc, seed in uints(0..1000)) {
        let env = Env::new();
        let walk = versa::random_walk(&env, &p, 16, seed);
        let ex = versa::explore(&env, &p, &versa::Options::default().with_lts());
        for st in &walk.states {
            let found = (0..ex.num_states())
                .any(|i| ex.state(versa::StateId(i as u32)) == st);
            assert!(found, "walk visited a state exploration missed");
        }
    }

    fn subst_is_idempotent_on_ground_terms(p in arb_proc) {
        // arb_proc generates ground terms; substituting with no arguments
        // must be the identity up to structural equality.
        let once = acsr::term::subst(&p, &[]).unwrap();
        let twice = acsr::term::subst(&once, &[]).unwrap();
        assert_eq!(&once, &twice);
        assert_eq!(steps(&Env::new(), &p), steps(&Env::new(), &once));
    }
}

#[test]
fn independent_processes_multiply_states() {
    // Two independent cyclic processes with coprime cycle lengths: the
    // product exploration has exactly len1 × len2 states.
    let mut env = Env::new();
    let mk = |env: &mut Env, name: &str, res: &str, len: i64| -> P {
        let d = env.declare(name, 1);
        env.set_body(
            d,
            choice([
                guard(
                    BExpr::lt(Expr::p(0), Expr::c(len - 1)),
                    act([(Res::new(res), 1)], invoke(d, [Expr::p(0).add(Expr::c(1))])),
                ),
                guard(
                    BExpr::eq(Expr::p(0), Expr::c(len - 1)),
                    act([(Res::new(res), 1)], invoke(d, [Expr::c(0)])),
                ),
            ]),
        );
        invoke(d, [Expr::c(0)])
    };
    let a = mk(&mut env, "IndA", "pr_cpu1", 3);
    let b = mk(&mut env, "IndB", "pr_cpu2", 5);
    // The per-quantum LTS holds every product state (the zone graph of a
    // verdict run collapses this fully forced cycle).
    let ex = versa::explore(&env, &par([a, b]), &versa::Options::default().with_lts());
    assert_eq!(ex.num_states(), 15);
}
