//! State-space exploration throughput (the VERSA-equivalent engine): states
//! per second of the per-quantum search on product spaces, and trace
//! reconstruction cost. The product spaces are fully forced cycles, which
//! the zone graph of a verdict run collapses to a handful of states, so the
//! throughput benches take the per-quantum (LTS) path.

use acsr::prelude::*;
use bench::timing::Runner;
use versa::{explore, Options};

/// Independent modulo-counters: a pure product space of `lens.product()`
/// states with no communication — a clean throughput measure.
fn counters(env: &mut Env, lens: &[i64]) -> P {
    let comps: Vec<P> = lens
        .iter()
        .enumerate()
        .map(|(i, &len)| {
            let d = env.declare(&format!("Ctr{i}_{len}"), 1);
            env.set_body(
                d,
                choice([
                    guard(
                        BExpr::lt(Expr::p(0), Expr::c(len - 1)),
                        act(
                            [(Res::new(&format!("ctr_r{i}")), 1)],
                            invoke(d, [Expr::p(0).add(Expr::c(1))]),
                        ),
                    ),
                    guard(
                        BExpr::eq(Expr::p(0), Expr::c(len - 1)),
                        act([(Res::new(&format!("ctr_r{i}")), 1)], invoke(d, [Expr::c(0)])),
                    ),
                ]),
            );
            invoke(d, [Expr::c(0)])
        })
        .collect();
    par(comps)
}

fn bench_product_spaces(r: &mut Runner) {
    for (label, lens) in [
        ("7x5", vec![7i64, 5]),
        ("7x5x3", vec![7, 5, 3]),
        ("11x7x5", vec![11, 7, 5]),
    ] {
        let mut env = Env::new();
        let p = counters(&mut env, &lens);
        r.bench_with_param("explore_product_space", label, || {
            explore(&env, &p, &Options::default().with_lts())
        });
    }
}

fn bench_deadlock_trace(r: &mut Runner) {
    // A long corridor to a deadlock: measures parent-pointer reconstruction.
    let mut env = Env::new();
    let d = env.declare("Corridor", 1);
    env.set_body(
        d,
        choice([
            guard(
                BExpr::lt(Expr::p(0), Expr::c(500)),
                act(
                    [(Res::new("corridor_r"), 1)],
                    invoke(d, [Expr::p(0).add(Expr::c(1))]),
                ),
            ),
            // p0 == 500: no steps ⇒ deadlock.
        ]),
    );
    let p = invoke(d, [Expr::c(0)]);
    let ex = explore(&env, &p, &Options::default());
    assert_eq!(ex.deadlocks.len(), 1);
    r.bench("deadlock_trace_500", || ex.first_deadlock_trace().unwrap());
}

fn main() {
    let mut r = Runner::from_args();
    bench_product_spaces(&mut r);
    bench_deadlock_trace(&mut r);
}
