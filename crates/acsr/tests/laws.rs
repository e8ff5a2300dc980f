//! Algebraic laws of the ACSR operators, checked at the level of one-step
//! derivations and of explored state spaces. These are the standard process-
//! algebraic sanity laws; a translation bug that broke one of them would
//! invalidate the §5 reduction of schedulability to deadlock detection.

use std::collections::HashMap;

use acsr::prelude::*;

fn cpu() -> Res {
    Res::new("law_cpu")
}
fn bus() -> Res {
    Res::new("law_bus")
}

/// Multiset of labels offered by a term.
fn label_bag(env: &Env, p: &P) -> HashMap<Label, usize> {
    let mut bag = HashMap::new();
    for (l, _) in steps(env, p) {
        *bag.entry(l).or_insert(0) += 1;
    }
    bag
}

/// A small zoo of distinct ground processes.
fn zoo() -> Vec<P> {
    let e = Symbol::new("law_e");
    vec![
        nil(),
        act([(cpu(), 1)], nil()),
        act([(bus(), 2)], act([(cpu(), 1)], nil())),
        evt_send(e, 1, nil()),
        evt_recv(e, 2, act([(cpu(), 1)], nil())),
        choice([
            act([(cpu(), 3)], nil()),
            act([] as [(Res, i32); 0], nil()),
        ]),
        tau(1, None, nil()),
    ]
}

#[test]
fn choice_is_commutative_on_labels() {
    let env = Env::new();
    for a in zoo() {
        for b in zoo() {
            let ab = label_bag(&env, &choice([a.clone(), b.clone()]));
            let ba = label_bag(&env, &choice([b.clone(), a.clone()]));
            assert_eq!(ab, ba, "{a:?} + {b:?}");
        }
    }
}

#[test]
fn choice_is_associative_on_labels() {
    let env = Env::new();
    let z = zoo();
    for a in &z[..4] {
        for b in &z[..4] {
            for c in &z[..4] {
                let left = label_bag(
                    &env,
                    &choice([choice([a.clone(), b.clone()]), c.clone()]),
                );
                let right = label_bag(
                    &env,
                    &choice([a.clone(), choice([b.clone(), c.clone()])]),
                );
                assert_eq!(left, right);
            }
        }
    }
}

#[test]
fn choice_with_nil_is_identity_on_labels() {
    let env = Env::new();
    for a in zoo() {
        assert_eq!(
            label_bag(&env, &a),
            label_bag(&env, &choice([a.clone(), nil()]))
        );
    }
}

#[test]
fn par_is_commutative_on_labels() {
    let env = Env::new();
    for a in zoo() {
        for b in zoo() {
            let ab = label_bag(&env, &par([a.clone(), b.clone()]));
            let ba = label_bag(&env, &par([b.clone(), a.clone()]));
            assert_eq!(ab, ba, "{a:?} ∥ {b:?}");
        }
    }
}

#[test]
fn par_is_commutative_on_state_counts() {
    // Stronger than labels: the explored spaces are isomorphic, so state and
    // transition counts coincide.
    let env = Env::new();
    for a in zoo() {
        for b in zoo() {
            let ab = versa::explore(&env, &par([a.clone(), b.clone()]), &versa::Options::default());
            let ba = versa::explore(&env, &par([b.clone(), a.clone()]), &versa::Options::default());
            assert_eq!(ab.num_states(), ba.num_states());
            assert_eq!(ab.stats.transitions, ba.stats.transitions);
            assert_eq!(ab.deadlocks.len(), ba.deadlocks.len());
        }
    }
}

#[test]
fn par_nesting_does_not_change_timed_behaviour() {
    // ((a ∥ b) ∥ c) and (a ∥ b ∥ c) offer the same timed labels (event
    // interleavings coincide too for these event-free components).
    let env = Env::new();
    let a = act([(cpu(), 1)], nil());
    let b = act([(bus(), 1)], nil());
    let c = act([(Res::new("law_r3"), 1)], nil());
    let nested = par([par([a.clone(), b.clone()]), c.clone()]);
    let flat = par([a, b, c]);
    assert_eq!(label_bag(&env, &nested), label_bag(&env, &flat));
}

#[test]
fn restriction_distributes_over_non_restricted_labels() {
    let env = Env::new();
    let e = Symbol::new("law_hidden");
    let f = Symbol::new("law_visible");
    let p = choice([
        evt_send(e, 1, nil()),
        evt_send(f, 1, nil()),
        act([(cpu(), 1)], nil()),
    ]);
    let restricted = restrict(p.clone(), [e]);
    let bag = label_bag(&env, &restricted);
    assert_eq!(bag.len(), 2);
    assert!(bag
        .keys()
        .all(|l| !matches!(l, Label::E { label, .. } if *label == e)));
}

#[test]
fn restriction_is_idempotent() {
    let env = Env::new();
    let e = Symbol::new("law_hidden2");
    let p = choice([evt_send(e, 1, nil()), act([(cpu(), 1)], nil())]);
    let once = restrict(p.clone(), [e]);
    let twice = restrict(once.clone(), [e]);
    assert_eq!(label_bag(&env, &once), label_bag(&env, &twice));
}

#[test]
fn closure_is_idempotent_on_labels() {
    let env = Env::new();
    let p = choice([
        act([(cpu(), 1)], nil()),
        act([] as [(Res, i32); 0], nil()),
    ]);
    let once = close(p.clone(), [cpu(), bus()]);
    let twice = close(once.clone(), [cpu(), bus()]);
    assert_eq!(label_bag(&env, &once), label_bag(&env, &twice));
}

#[test]
fn closure_makes_idling_claim_owned_resources() {
    let env = Env::new();
    let p = act([] as [(Res, i32); 0], nil());
    let closed = close(p, [cpu()]);
    let s = steps(&env, &closed);
    assert_eq!(s.len(), 1);
    let a = s[0].0.action().unwrap();
    assert!(a.uses_resource(cpu()));
    assert_eq!(a.prio_of(cpu()), 0);
}

#[test]
fn closure_prevents_contention_on_owned_resources() {
    // A closed idler occupies its resource at priority 0: another process
    // needing that resource cannot take a joint step with it.
    let env = Env::new();
    let idler = {
        let mut env2 = Env::new();
        let _ = &mut env2;
        // inline loop via a fresh env is awkward; a 2-step idler suffices.
        act([] as [(Res, i32); 0], act([] as [(Res, i32); 0], nil()))
    };
    let closed = close(idler, [cpu()]);
    let worker = act([(cpu(), 5)], nil());
    let sys = par([closed, worker]);
    // No joint timed step exists (cpu used by both sides).
    assert!(steps(&env, &sys).is_empty());
}

#[test]
fn scope_with_infinite_bound_is_transparent_for_actions() {
    let env = Env::new();
    let p = act([(cpu(), 1)], act([(bus(), 1)], nil()));
    let scoped = scope(p.clone(), TimeBound::Infinite, None, None, None);
    // Same labels step by step.
    let s1 = steps(&env, &p);
    let s2 = steps(&env, &scoped);
    assert_eq!(s1.len(), s2.len());
    assert_eq!(s1[0].0, s2[0].0);
    let s1 = steps(&env, &s1[0].1);
    let s2 = steps(&env, &s2[0].1);
    assert_eq!(s1[0].0, s2[0].0);
}

#[test]
fn nested_scopes_decrement_independently() {
    let env = Env::new();
    // Outer times out after 3, inner after 1; inner's timeout continuation
    // idles, so after 1 quantum the inner is gone and after 3 the outer fires.
    let marker = Res::new("law_marker");
    let inner = scope(
        act([] as [(Res, i32); 0], act([] as [(Res, i32); 0], nil())),
        TimeBound::Finite(Expr::c(1)),
        None,
        Some(act([] as [(Res, i32); 0], act([] as [(Res, i32); 0], nil()))),
        None,
    );
    let outer = scope(
        inner,
        TimeBound::Finite(Expr::c(3)),
        None,
        Some(act([(marker, 1)], nil())),
        None,
    );
    // 1 quantum: inner expires; 2 more: outer expires; then the marker fires.
    let mut cur = outer;
    for _ in 0..3 {
        let s = steps(&env, &cur);
        assert_eq!(s.len(), 1, "{cur:?}");
        assert!(s[0].0.is_timed());
        cur = s[0].1.clone();
    }
    let s = steps(&env, &cur);
    assert!(s[0].0.action().unwrap().uses_resource(marker));
}

#[test]
fn prioritized_is_a_subrelation_of_unprioritized_everywhere() {
    // Over a whole explored space, every prioritized transition is an
    // unprioritized one (spot-checked per state).
    let mut env = Env::new();
    let d = env.declare("LawLoop", 1);
    env.set_body(
        d,
        choice([
            guard(
                BExpr::lt(Expr::p(0), Expr::c(4)),
                act([(cpu(), 1)], invoke(d, [Expr::p(0).add(Expr::c(1))])),
            ),
            guard(
                BExpr::eq(Expr::p(0), Expr::c(4)),
                act([(bus(), 1)], invoke(d, [Expr::c(0)])),
            ),
            act([] as [(Res, i32); 0], invoke(d, [Expr::p(0)])),
        ]),
    );
    let p = invoke(d, [Expr::c(0)]);
    let ex = versa::explore(&env, &p, &versa::Options::default().with_lts());
    for i in 0..ex.num_states() {
        let st = ex.state(versa::StateId(i as u32));
        let all = steps(&env, st);
        for s in prioritized_steps(&env, st) {
            assert!(all.contains(&s));
        }
    }
}
