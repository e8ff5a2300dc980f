//! Delay zones: collapsing *forced* runs of the prioritized step relation.
//!
//! The quantum engine pays one transition per time quantum, so the explored
//! state count of a periodic task model scales with the hyperperiod — the
//! source paper's own scalability wall (§7). Most of those states are
//! *forced*: after prioritization exactly one step remains (an idling system
//! waiting for the next dispatch, the sole runnable task computing with every
//! competitor preempted away), so the state contributes nothing to the
//! branching structure that deadlock detection actually searches.
//!
//! This module detects such runs and lets an explorer traverse them as a
//! single *delay step* of multiplicity `d`:
//!
//! * [`delay_bound`] — the largest `d ≥ 1` such that the next `d` quanta are
//!   forced *timed* steps: at every state strictly inside the interval the
//!   prioritized step relation offers exactly one successor and that
//!   successor is a timed action. No task release, deadline expiry,
//!   preemption boundary, or lock acquire/release can occur strictly inside
//!   the interval — any of those would either add a second prioritized
//!   alternative or replace the timed step with an instantaneous one, ending
//!   the bound *at* that instant (never past it).
//! * [`step_delay`] — the bulk advance: `step_delay(d)` produces exactly the
//!   interned term that `d` unit steps produce, because it *is* `d` unit
//!   steps — each quantum of the run is re-derived and verified to still be
//!   forced. Zone soundness is therefore by construction, not by a separate
//!   side-condition analysis that could drift from the step relation.
//! * [`forced_run`] — the generalization the zone explorer uses at frontier
//!   expansion: a maximal chain of *singleton* prioritized successors of any
//!   label kind (timed or instantaneous). A state strictly inside such a
//!   chain has out-degree exactly one, so it can neither deadlock nor branch;
//!   every behaviour of the system flows through the chain's endpoint, and
//!   the full per-quantum step sequence is returned.
//!
//! Runs are bounded by a caller-supplied `cap` (a cancellation/ memory
//! granularity knob — a longer forced run simply becomes several chained
//! delay steps) and by a cycle guard: a run that returns to a state it
//! already visited stops there, leaving the cycle to the explorer's visited
//! set.

use std::collections::HashSet;

use crate::advance::unique_step;
use crate::label::Label;
use crate::step::StepSession;
use crate::store::{Interned, TermId};

/// A maximal forced run: the per-quantum steps from some entry state to the
/// first state that is *not* forced (branches, deadlocks, or closes a cycle).
///
/// Produced by [`forced_run`]; `steps` is never empty and the final step's
/// target is the run's endpoint.
#[derive(Clone, Debug)]
pub struct ForcedRun {
    /// The per-quantum `(label, target)` steps, in order. Interior states —
    /// every target but the last — have exactly one prioritized successor.
    pub steps: Vec<(Label, Interned)>,
    /// How many of the steps are timed actions (quanta of real time); the
    /// rest are forced instantaneous synchronisations.
    pub quanta: u64,
}

impl ForcedRun {
    /// The state the run ends in (the first non-forced state reached).
    ///
    /// # Examples
    ///
    /// ```
    /// use std::rc::Rc;
    /// use acsr::prelude::*;
    /// use acsr::{MemoConfig, StepSession, TermStore, zone};
    ///
    /// let env = Env::new();
    /// let session = StepSession::new(&env, Rc::new(TermStore::new()), MemoConfig::default());
    /// let p = session.intern(&act([(Res::new("cpu"), 1)], nil()));
    /// let run = zone::forced_run(&session, &p, 16).unwrap();
    /// assert!(matches!(&**run.endpoint().term(), acsr::Proc::Nil));
    /// ```
    pub fn endpoint(&self) -> &Interned {
        &self.steps.last().expect("forced runs are never empty").1
    }

    /// Number of steps in the run (its length as a concrete trace fragment).
    ///
    /// # Examples
    ///
    /// ```
    /// use std::rc::Rc;
    /// use acsr::prelude::*;
    /// use acsr::{MemoConfig, StepSession, TermStore, zone};
    ///
    /// let env = Env::new();
    /// let session = StepSession::new(&env, Rc::new(TermStore::new()), MemoConfig::default());
    /// let p = session.intern(&act([(Res::new("cpu"), 1)], act([(Res::new("cpu"), 1)], nil())));
    /// assert_eq!(zone::forced_run(&session, &p, 16).unwrap().len(), 2);
    /// ```
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Always false — a forced run has at least one step by construction.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::rc::Rc;
    /// use acsr::prelude::*;
    /// use acsr::{MemoConfig, StepSession, TermStore, zone};
    ///
    /// let env = Env::new();
    /// let session = StepSession::new(&env, Rc::new(TermStore::new()), MemoConfig::default());
    /// let p = session.intern(&act([(Res::new("cpu"), 1)], nil()));
    /// assert!(!zone::forced_run(&session, &p, 16).unwrap().is_empty());
    /// ```
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// The maximal forced run out of `entry`, or `None` when `entry` itself is
/// not forced (zero or several prioritized successors).
///
/// The run extends while every reached state has exactly one prioritized
/// successor, up to `cap` steps; it also stops when the next state would
/// revisit a state already on the run (including `entry`) — the cycle is
/// left to the caller's visited set. Because forcedness is re-verified at
/// every state, nothing can fire strictly inside the run: interior states
/// have out-degree exactly one, so they can neither deadlock nor offer an
/// alternative behaviour. `cap` values below 1 are treated as 1.
///
/// # Examples
///
/// ```
/// use std::rc::Rc;
/// use acsr::prelude::*;
/// use acsr::{MemoConfig, StepSession, TermStore, zone};
///
/// let env = Env::new();
/// let session = StepSession::new(&env, Rc::new(TermStore::new()), MemoConfig::default());
/// let cpu = Res::new("cpu");
/// // Three forced quanta to NIL collapse into one run…
/// let p = session.intern(&act([(cpu, 1)], act([(cpu, 1)], act([(cpu, 1)], nil()))));
/// let run = zone::forced_run(&session, &p, 1024).unwrap();
/// assert_eq!((run.len(), run.quanta), (3, 3));
/// // …while a genuine choice is not forced at all.
/// let branch = session.intern(&choice([
///     act([(cpu, 1)], nil()),
///     act([(Res::new("bus"), 1)], nil()),
/// ]));
/// assert!(zone::forced_run(&session, &branch, 1024).is_none());
/// ```
pub fn forced_run(session: &StepSession<'_>, entry: &Interned, cap: usize) -> Option<ForcedRun> {
    let cap = cap.max(1);
    let (label, target) = unique_step(session, entry)?;
    let mut seen: HashSet<TermId> = HashSet::new();
    seen.insert(entry.id());
    let mut quanta = u64::from(label.is_timed());
    let mut steps = vec![(label, target)];
    loop {
        let cur = &steps.last().expect("non-empty").1;
        if steps.len() >= cap || !seen.insert(cur.id()) {
            break;
        }
        match unique_step(session, cur) {
            Some((label, target)) => {
                quanta += u64::from(label.is_timed());
                steps.push((label, target));
            }
            None => break,
        }
    }
    Some(ForcedRun { steps, quanta })
}

/// The largest `d ≥ 1` (up to `cap`) such that the next `d` quanta of `t`
/// are forced *timed* steps, or `0` when `t` is not at the start of such an
/// interval (its prioritized successors are not exactly one timed action).
///
/// No task release, deadline expiry, preemption boundary, or lock
/// acquire/release can occur strictly inside the returned interval: each
/// would either introduce a second prioritized alternative or replace the
/// timed step with an instantaneous synchronisation, and either way the
/// bound ends *at* that state. A run that cycles back onto itself (a closed
/// idle loop) is forced forever; the bound is then `cap`.
///
/// # Examples
///
/// ```
/// use std::rc::Rc;
/// use acsr::prelude::*;
/// use acsr::{MemoConfig, StepSession, TermStore, zone};
///
/// let env = Env::new();
/// let session = StepSession::new(&env, Rc::new(TermStore::new()), MemoConfig::default());
/// let cpu = Res::new("cpu");
/// let done = Symbol::new("done");
/// // Two forced quanta, then an instantaneous event ends the delay interval.
/// let p = session.intern(&act(
///     [(cpu, 1)],
///     act([(cpu, 1)], evt_send(done, 1, nil())),
/// ));
/// assert_eq!(zone::delay_bound(&session, &p, 1024), 2);
/// // NIL has no successors at all: no delay interval.
/// let dead = session.intern(&nil());
/// assert_eq!(zone::delay_bound(&session, &dead, 1024), 0);
/// ```
pub fn delay_bound(session: &StepSession<'_>, t: &Interned, cap: u64) -> u64 {
    let mut seen: HashSet<TermId> = HashSet::new();
    let mut cur = t.clone();
    let mut d = 0u64;
    while d < cap && seen.insert(cur.id()) {
        match unique_step(session, &cur) {
            Some((label, target)) if label.is_timed() => {
                d += 1;
                cur = target;
            }
            _ => return d,
        }
    }
    // Either the cap was reached or the run closed a cycle of forced timed
    // steps — in the latter case it is forced for every horizon, so the
    // cap is the honest answer to "how far may I advance".
    cap
}

/// Advance `t` by `d` forced timed quanta — the bulk form of `d` unit steps.
///
/// Returns the interned term that `d` applications of the (unique,
/// prioritized, timed) unit step produce, or `None` if forcedness breaks
/// before `d` quanta have elapsed, i.e. when `d > delay_bound(t)` for every
/// cap ≥ `d`. The result is *the same interned term* (`TermId` and all) a
/// quantum-by-quantum walk reaches, because each quantum is re-derived
/// through the same memoized step relation — the delay abstraction cannot
/// diverge from a per-quantum walk by construction.
///
/// # Examples
///
/// ```
/// use std::rc::Rc;
/// use acsr::prelude::*;
/// use acsr::{MemoConfig, StepSession, TermStore, zone};
///
/// let env = Env::new();
/// let session = StepSession::new(&env, Rc::new(TermStore::new()), MemoConfig::default());
/// let cpu = Res::new("cpu");
/// let p = session.intern(&act([(cpu, 1)], act([(cpu, 1)], act([(cpu, 1)], nil()))));
/// // Bulk-advance two quanta, then compare against two unit steps.
/// let bulk = zone::step_delay(&session, &p, 2).unwrap();
/// let unit = {
///     let s1 = session.prioritized_steps(&p).pop().unwrap().1;
///     session.prioritized_steps(&s1).pop().unwrap().1
/// };
/// assert_eq!(bulk.id(), unit.id());
/// // Past the end of the forced interval the bulk advance refuses.
/// assert!(zone::step_delay(&session, &p, 4).is_none());
/// ```
pub fn step_delay(session: &StepSession<'_>, t: &Interned, d: u64) -> Option<Interned> {
    let mut cur = t.clone();
    for _ in 0..d {
        match unique_step(session, &cur) {
            Some((label, target)) if label.is_timed() => cur = target,
            _ => return None,
        }
    }
    Some(cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Env;
    use crate::expr::Expr;
    use crate::step::MemoConfig;
    use crate::store::TermStore;
    use crate::symbol::{Res, Symbol};
    use crate::term::{act, choice, evt_send, invoke, nil, scope, TimeBound};
    use std::rc::Rc;

    fn cpu() -> Res {
        Res::new("cpu")
    }

    fn session(env: &Env) -> StepSession<'_> {
        StepSession::new(env, Rc::new(TermStore::new()), MemoConfig::default())
    }

    #[test]
    fn forced_chain_collapses_and_matches_unit_steps() {
        let env = Env::new();
        let s = session(&env);
        let p = s.intern(&act([(cpu(), 1)], act([(cpu(), 1)], act([(cpu(), 1)], nil()))));
        let run = forced_run(&s, &p, 1024).expect("forced");
        assert_eq!(run.len(), 3);
        assert_eq!(run.quanta, 3);
        assert!(matches!(&**run.endpoint().term(), crate::term::Proc::Nil));
        // Every prefix of the run agrees with the concrete unit walk.
        let mut cur = p.clone();
        for (i, (label, target)) in run.steps.iter().enumerate() {
            let mut steps = s.prioritized_steps(&cur);
            assert_eq!(steps.len(), 1, "interior state {i} must stay forced");
            let (l, t) = steps.pop().unwrap();
            assert_eq!(&l, label);
            assert_eq!(t.id(), target.id());
            cur = t;
        }
    }

    #[test]
    fn branching_states_are_not_forced() {
        let env = Env::new();
        let s = session(&env);
        // Two incomparable timed actions (disjoint resources, equal
        // priorities): prioritization keeps both, so nothing is forced.
        let p = s.intern(&choice([
            act([(cpu(), 1)], nil()),
            act([(Res::new("bus"), 1)], nil()),
        ]));
        assert!(forced_run(&s, &p, 1024).is_none());
        assert_eq!(delay_bound(&s, &p, 1024), 0);
        assert!(step_delay(&s, &p, 1).is_none());
        // A deadlocked state has no steps at all.
        let dead = s.intern(&nil());
        assert!(forced_run(&s, &dead, 1024).is_none());
        assert_eq!(delay_bound(&s, &dead, 1024), 0);
        // …but advancing by zero quanta is the identity everywhere.
        assert_eq!(step_delay(&s, &dead, 0).unwrap().id(), dead.id());
    }

    #[test]
    fn events_end_the_delay_bound_but_extend_the_forced_run() {
        let env = Env::new();
        let s = session(&env);
        let done = Symbol::new("done");
        // cpu-quantum, cpu-quantum, done!, cpu-quantum, NIL. The naked send
        // is forced (its continuation is the only option) but instantaneous.
        let p = s.intern(&act(
            [(cpu(), 1)],
            act([(cpu(), 1)], evt_send(done, 1, act([(cpu(), 1)], nil()))),
        ));
        assert_eq!(delay_bound(&s, &p, 1024), 2);
        let run = forced_run(&s, &p, 1024).expect("forced");
        assert_eq!(run.len(), 4);
        assert_eq!(run.quanta, 3);
        assert!(run.steps[2].0.is_tau() || matches!(run.steps[2].0, Label::E { .. }));
    }

    #[test]
    fn scope_expiry_is_a_hard_boundary() {
        // An unbounded idle loop clipped by a 3-quantum scope whose timeout
        // continuation deadlocks: exactly 3 forced quanta, never 4 — the
        // "release exactly at the bound" shape (the scope stands in for a
        // period/deadline watchdog).
        let mut env = Env::new();
        let idle = env.declare("Idle", 0);
        env.set_body(idle, act([] as [(Res, i32); 0], invoke(idle, [])));
        let s = session(&env);
        let p = s.intern(&scope(
            invoke(idle, []),
            TimeBound::Finite(Expr::c(3)),
            None,
            Some(nil()),
            None,
        ));
        assert_eq!(delay_bound(&s, &p, 1024), 3);
        let run = forced_run(&s, &p, 1024).expect("forced");
        assert_eq!(run.quanta, 3);
        assert_eq!(run.len(), 3);
        // The expired scope offers its timeout continuation's steps, and
        // NIL has none: the boundary state is a deadlock, materialized as
        // the run's endpoint — never skipped over.
        assert!(s.prioritized_steps(run.endpoint()).is_empty());
        // The bulk advance agrees step for step and refuses to cross.
        let at3 = step_delay(&s, &p, 3).expect("within the bound");
        assert_eq!(at3.id(), run.endpoint().id());
        assert!(step_delay(&s, &p, 4).is_none());
    }

    #[test]
    fn preemption_mid_zone_is_impossible_by_construction() {
        let env = Env::new();
        let s = session(&env);
        // A high-priority cpu step alongside an idle alternative: the idle
        // branch is preempted away, so the state is forced — until the cpu
        // branch ends and the alternatives become incomparable.
        let contested = choice([
            act([(cpu(), 3)], act([(cpu(), 3)], nil())),
            act([] as [(Res, i32); 0], act([] as [(Res, i32); 0], nil())),
        ]);
        let p = s.intern(&contested);
        let run = forced_run(&s, &p, 1024).expect("preemption forces the cpu branch");
        // First step must be the cpu action (the idle alternative never
        // fires inside the run).
        match &run.steps[0].0 {
            Label::A(a) => assert!(a.uses_resource(cpu())),
            other => panic!("expected a timed cpu step, got {other:?}"),
        }
    }

    #[test]
    fn cycles_stop_the_run_and_saturate_the_bound() {
        let mut env = Env::new();
        let idle = env.declare("Idle", 0);
        env.set_body(idle, act([] as [(Res, i32); 0], invoke(idle, [])));
        let s = session(&env);
        let p = s.intern(&invoke(idle, []));
        // The self-loop is forced for every horizon: the bound saturates at
        // the cap, and the run stops as soon as it would revisit a state.
        assert_eq!(delay_bound(&s, &p, 77), 77);
        let run = forced_run(&s, &p, 1024).expect("forced");
        assert!(run.len() <= 2, "cycle guard must stop the run, got {}", run.len());
        assert_eq!(step_delay(&s, &p, 500).unwrap().id(), run.endpoint().id());
    }

    #[test]
    fn cap_splits_long_runs_without_losing_states() {
        let env = Env::new();
        let s = session(&env);
        let mut p = nil();
        for _ in 0..10 {
            p = act([(cpu(), 1)], p);
        }
        let entry = s.intern(&p);
        let capped = forced_run(&s, &entry, 4).expect("forced");
        assert_eq!(capped.len(), 4);
        // Chaining capped runs reaches the same endpoint as one long run.
        let rest = forced_run(&s, capped.endpoint(), 1024).expect("forced");
        assert_eq!(capped.len() + rest.len(), 10);
        assert!(matches!(&**rest.endpoint().term(), crate::term::Proc::Nil));
    }
}
