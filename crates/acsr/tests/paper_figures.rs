//! Reproduction of Figures 2 and 3 of *Schedulability Analysis of AADL
//! Models* (Sokolsky, Lee, Clarke; IPDPS 2006) — the running ACSR example.
//!
//! Fig. 2: the `Simple` process, (a) without and (b) with idling steps:
//!
//! ```text
//! Simple = {(cpu,1)} : {(cpu,1),(bus,1)} : (done!,1) . Simple
//! ```
//!
//! Fig. 3: `Simple` running inside a temporal scope (exception handler,
//! timeout handler, interrupt handler) in parallel with a `SimpleDriver` that
//! (i) shares the first quantum, (ii) preempts `Simple` on the bus for one
//! quantum, then (iii) either forces the interrupt via an event or keeps
//! preempting until `Simple` gives up through its exception exit.

use acsr::prelude::*;

fn cpu() -> Res {
    Res::new("fig_cpu")
}
fn bus() -> Res {
    Res::new("fig_bus")
}

/// Fig. 2a: `Simple` without idling steps.
fn simple_a(env: &mut Env) -> P {
    let done = Symbol::new("fig_done");
    let simple = env.declare("Fig2_Simple", 0);
    env.set_body(
        simple,
        act(
            [(cpu(), 1)],
            act([(cpu(), 1), (bus(), 1)], evt_send(done, 1, invoke(simple, []))),
        ),
    );
    invoke(simple, [])
}

/// Fig. 2b: `Simple` with idling steps before each computation.
fn simple_b(env: &mut Env) -> P {
    let done = Symbol::new("fig_done");
    let s0 = env.declare("Fig2b_S0", 0);
    let s1 = env.declare("Fig2b_S1", 0);
    env.set_body(
        s0,
        choice([
            act([(cpu(), 1)], invoke(s1, [])),
            act([] as [(Res, i32); 0], invoke(s0, [])),
        ]),
    );
    env.set_body(
        s1,
        choice([
            act([(cpu(), 1), (bus(), 1)], evt_send(done, 1, invoke(s0, []))),
            act([] as [(Res, i32); 0], invoke(s1, [])),
        ]),
    );
    invoke(s0, [])
}

/// A process that holds the bus forever at priority 2.
fn bus_hog(env: &mut Env) -> P {
    let hog = env.declare("BusHog", 0);
    env.set_body(hog, act([(bus(), 2)], invoke(hog, [])));
    invoke(hog, [])
}

#[test]
fn fig2a_deadlocks_when_the_bus_is_never_free() {
    // "a timed action cannot be performed if the necessary resources are not
    // available. The process that tries to execute the step will be
    // deadlocked, unless other steps are available in the same state."
    let mut env = Env::new();
    let simple = simple_a(&mut env);
    let hog = bus_hog(&mut env);
    let sys = par([simple, hog]);
    let ex = versa::explore(&env, &sys, &versa::Options::default());
    assert_eq!(ex.deadlocks.len(), 1);
    let t = ex.first_deadlock_trace().unwrap();
    // One joint quantum (cpu ∥ bus), then stuck on the bus conflict.
    assert_eq!(t.elapsed_quanta(), 1);
}

#[test]
fn fig2b_idling_steps_let_the_process_wait() {
    // "To allow processes to wait for resource access, ACSR models introduce
    // idling steps, which do not consume resources but let the time
    // progress."
    let mut env = Env::new();
    let simple = simple_b(&mut env);
    let hog = bus_hog(&mut env);
    let sys = par([simple, hog]);
    let ex = versa::explore(&env, &sys, &versa::Options::default());
    assert!(ex.deadlock_free());
    // Simple makes its first step but then waits forever at S1 — only two
    // product states recur.
    assert!(ex.num_states() <= 3);
}

#[test]
fn fig2_simple_runs_alone_without_contention() {
    let mut env = Env::new();
    let simple = simple_a(&mut env);
    let ex = versa::explore(&env, &simple, &versa::Options::default().with_lts());
    // 3 states of the per-quantum LTS: initial, after first step, after
    // second step (then done! loops).
    assert!(ex.deadlock_free());
    assert_eq!(ex.num_states(), 3);
}

/// Build the Fig. 3 composition. Returns `(system, done, interrupt,
/// exception)`. The temporal line-up is adapted from the figure: the driver
/// shares the first quantum, preempts the bus for one quantum, and then
/// either (a) holds the bus once more and forces the interrupt, or (b)
/// claims the processor, starving `Simple` until it gives up through its
/// exception exit.
fn fig3(env: &mut Env) -> (P, Symbol, Symbol, Symbol) {
    let done = Symbol::new("fig3_done");
    let interrupt = Symbol::new("fig3_interrupt");
    let exception = Symbol::new("fig3_exception");

    // Simple with idling alternatives; after being denied a resource for a
    // quantum it may voluntarily release control through the exception exit.
    let s0 = env.declare("Fig3_S0", 0);
    let s0w = env.declare("Fig3_S0w", 0);
    let s1 = env.declare("Fig3_S1", 0);
    let s1w = env.declare("Fig3_S1w", 0);
    let step0 = |target: acsr::DefId| act([(cpu(), 1)], invoke(target, []));
    env.set_body(
        s0,
        choice([step0(s1), act([] as [(Res, i32); 0], invoke(s0w, []))]),
    );
    env.set_body(
        s0w,
        choice([
            step0(s1),
            act([] as [(Res, i32); 0], invoke(s0w, [])),
            evt_send(exception, 1, nil()),
        ]),
    );
    let step1 = || act([(cpu(), 1), (bus(), 1)], evt_send(done, 1, invoke(s0, [])));
    env.set_body(
        s1,
        choice([step1(), act([] as [(Res, i32); 0], invoke(s1w, []))]),
    );
    env.set_body(
        s1w,
        choice([
            step1(),
            act([] as [(Res, i32); 0], invoke(s1w, [])),
            evt_send(exception, 1, nil()),
        ]),
    );

    // Handlers: each announces itself with a distinct resource usage.
    let exc_handler = act([(Res::new("fig_exc"), 2)], nil());
    let timeout_handler = act([(Res::new("fig_to"), 2)], nil());
    let int_handler = evt_recv(interrupt, 1, act([(Res::new("fig_int"), 2)], nil()));

    let scoped = scope(
        invoke(s0, []),
        TimeBound::Finite(Expr::c(10)),
        Some((exception, exc_handler)),
        Some(timeout_handler),
        Some(int_handler),
    );

    // SimpleDriver.
    let idle = env.declare("Fig3_Idle", 0);
    env.set_body(idle, act([] as [(Res, i32); 0], invoke(idle, [])));
    let cpu_hog = env.declare("Fig3_CpuHog", 0);
    env.set_body(cpu_hog, act([(cpu(), 2)], invoke(cpu_hog, [])));
    let driver = act(
        [(bus(), 2)],
        act(
            [(bus(), 2)],
            choice([
                act([(bus(), 2)], evt_send(interrupt, 1, invoke(idle, []))),
                act([(cpu(), 2)], invoke(cpu_hog, [])),
            ]),
        ),
    );

    // Only the interrupt is a private channel between driver and scope; the
    // exception is the scope's own (visible) exit event.
    let sys = restrict(par([scoped, driver]), [interrupt]);
    (sys, done, interrupt, exception)
}

#[test]
fn fig3_first_quantum_is_shared() {
    // "The first action of the driver uses disjoint resources with the first
    // action of Simple and thus they can proceed together."
    let mut env = Env::new();
    let (sys, _, _, _) = fig3(&mut env);
    let s = prioritized_steps(&env, &sys);
    assert_eq!(s.len(), 1);
    let a = s[0].0.action().unwrap();
    assert_eq!(a.prio_of(cpu()), 1);
    assert_eq!(a.prio_of(bus()), 2);
}

#[test]
fn fig3_driver_preempts_simple_on_the_bus() {
    // "However, the second action uses the same resource bus with a higher
    // priority of access and preempts the execution of Simple for one time
    // step."
    let mut env = Env::new();
    let (sys, _, _, _) = fig3(&mut env);
    let s1 = prioritized_steps(&env, &sys);
    let s2 = prioritized_steps(&env, &s1[0].1);
    // Simple cannot take its {(cpu,1),(bus,1)} step: the only surviving
    // quantum is Simple idling while the driver holds the bus.
    assert_eq!(s2.len(), 1);
    let a = s2[0].0.action().unwrap();
    assert!(a.uses_resource(bus()));
    assert_eq!(a.prio_of(bus()), 2);
    assert!(!a.uses_resource(cpu()));
}

#[test]
fn fig3_all_three_scope_exits_are_reachable() {
    // Exception, timeout and interrupt handler each announce themselves with
    // a dedicated resource; all three must appear somewhere in the reachable
    // prioritized transition system.
    let mut env = Env::new();
    let (sys, _, _, _) = fig3(&mut env);
    let ex = versa::explore(&env, &sys, &versa::Options::default().with_lts());
    let mut found = [false; 3]; // int, exc, to
    for id in 0..ex.num_states() {
        let st = ex.state(versa::StateId(id as u32));
        for (l, _) in prioritized_steps(&env, st) {
            if let Some(a) = l.action() {
                found[0] |= a.uses_resource(Res::new("fig_int"));
                found[1] |= a.uses_resource(Res::new("fig_exc"));
                found[2] |= a.uses_resource(Res::new("fig_to"));
            }
        }
    }
    assert!(found[0], "interrupt handler reachable");
    assert!(found[1], "exception handler reachable");
    assert!(found[2], "timeout handler reachable");
}

#[test]
fn fig3_driver_alternatives_shape_simples_fate() {
    // At the driver's branch point (after two quanta), three futures coexist:
    // the driver holding the bus again (→ interrupt next), the driver
    // claiming the cpu (→ starvation → exception), and Simple giving up
    // right away through the exception event.
    let mut env = Env::new();
    let (sys, _, _, exception) = fig3(&mut env);
    let s = prioritized_steps(&env, &sys);
    let s = prioritized_steps(&env, &s[0].1);
    let s3 = prioritized_steps(&env, &s[0].1);
    let timed: Vec<_> = s3.iter().filter(|(l, _)| l.is_timed()).collect();
    assert_eq!(timed.len(), 2, "both driver branches available: {s3:?}");
    assert!(timed
        .iter()
        .any(|(l, _)| l.action().unwrap().prio_of(bus()) == 2));
    assert!(timed
        .iter()
        .any(|(l, _)| l.action().unwrap().prio_of(cpu()) == 2));
    assert!(
        s3.iter()
            .any(|(l, _)| matches!(l, Label::E { label, .. } if *label == exception)),
        "voluntary exception exit offered"
    );
}

#[test]
fn fig3_whole_composition_has_finite_state_space() {
    let mut env = Env::new();
    let (sys, _, _, _) = fig3(&mut env);
    let ex = versa::explore(&env, &sys, &versa::Options::default());
    assert!(ex.num_states() < 64);
    assert!(ex.stats.transitions >= ex.num_states() - 1);
}
