//! Random walks through the prioritized transition system.
//!
//! Exhaustive exploration is the point of the paper ("exploring the state
//! space of a formal executable model offers exhaustive analysis of all
//! possible behaviors", §6) — but a *random walk* is the formal-model
//! equivalent of one simulation run, which makes it the perfect foil: the
//! experiment `exhaustive_vs_simulation` uses walks to show that sampled runs
//! can miss the interleaving that violates a deadline. Walks are also used by
//! property tests (every state on a walk must be reachable by `explore`).
//!
//! Steps are drawn from the workspace's vendored deterministic PRNG
//! ([`det::DetRng`]), so walks are reproducible from a seed on every
//! platform and in every PR. Internally a walk steps through an interned,
//! memoized [`StepSession`] — long walks that revisit states reuse cached
//! successors — while the recorded [`Walk`] still carries plain terms, so
//! callers and the property suite see exactly the pre-interning API.

use std::rc::Rc;

use acsr::{Env, Label, MemoConfig, StepSession, TermStore, P};
use det::DetRng;

/// A recorded random walk.
///
/// # Examples
///
/// ```
/// use acsr::prelude::*;
/// use versa::random_walk;
///
/// let env = Env::new();
/// let p = act([(Res::new("cpu"), 1)], nil());
/// let walk = random_walk(&env, &p, 10, 7);
/// assert!(walk.deadlocked);
/// assert_eq!(walk.states.len(), walk.labels.len() + 1);
/// ```
#[derive(Clone, Debug)]
pub struct Walk {
    /// The labels taken, in order.
    pub labels: Vec<Label>,
    /// The states visited, including the initial state (so
    /// `states.len() == labels.len() + 1`).
    pub states: Vec<P>,
    /// True when the walk ended in a deadlocked state before taking
    /// `max_steps` steps.
    pub deadlocked: bool,
}

impl Walk {
    /// Number of steps taken.
    ///
    /// # Examples
    ///
    /// ```
    /// use acsr::prelude::*;
    /// use versa::random_walk;
    ///
    /// let env = Env::new();
    /// let w = random_walk(&env, &act([(Res::new("cpu"), 1)], nil()), 10, 1);
    /// assert_eq!(w.len(), 1);
    /// ```
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when no step was taken.
    ///
    /// # Examples
    ///
    /// ```
    /// use acsr::prelude::*;
    /// use versa::random_walk;
    ///
    /// // NIL has no steps: the walk is empty and immediately deadlocked.
    /// let w = random_walk(&Env::new(), &nil(), 10, 1);
    /// assert!(w.is_empty() && w.deadlocked);
    /// ```
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The final state.
    ///
    /// # Examples
    ///
    /// ```
    /// use acsr::prelude::*;
    /// use versa::random_walk;
    ///
    /// let w = random_walk(&Env::new(), &act([(Res::new("cpu"), 1)], nil()), 10, 1);
    /// assert!(matches!(&**w.final_state(), acsr::Proc::Nil));
    /// ```
    pub fn final_state(&self) -> &P {
        self.states.last().expect("walk always has initial state")
    }

    /// Number of elapsed quanta.
    ///
    /// # Examples
    ///
    /// ```
    /// use acsr::prelude::*;
    /// use versa::random_walk;
    ///
    /// let env = Env::new();
    /// let p = act([(Res::new("cpu"), 1)], act([(Res::new("cpu"), 1)], nil()));
    /// assert_eq!(random_walk(&env, &p, 10, 1).elapsed_quanta(), 2);
    /// ```
    pub fn elapsed_quanta(&self) -> usize {
        self.labels.iter().filter(|l| l.is_timed()).count()
    }
}

/// Take up to `max_steps` uniformly random prioritized steps from `initial`.
///
/// # Examples
///
/// ```
/// use acsr::prelude::*;
/// use versa::random_walk;
///
/// let mut env = Env::new();
/// let d = env.declare("Coin", 0);
/// env.set_body(d, choice([
///     act([(Res::new("cpu"), 1)], invoke(d, [])),
///     act([(Res::new("bus"), 1)], invoke(d, [])),
/// ]));
/// let p = invoke(d, []);
/// // Same seed, same walk — the generator is deterministic.
/// let a = random_walk(&env, &p, 32, 42);
/// let b = random_walk(&env, &p, 32, 42);
/// assert_eq!(a.labels, b.labels);
/// ```
pub fn random_walk(env: &Env, initial: &P, max_steps: usize, seed: u64) -> Walk {
    let session = StepSession::new(env, Rc::new(TermStore::new()), MemoConfig::default());
    let mut rng = DetRng::new(seed);
    let mut labels = Vec::new();
    let mut states = vec![initial.clone()];
    let mut cur = session.intern(initial);
    let mut deadlocked = false;
    for _ in 0..max_steps {
        let succs = session.prioritized_steps(&cur);
        if succs.is_empty() {
            deadlocked = true;
            break;
        }
        let (label, next) = succs[rng.range_usize(0..succs.len())].clone();
        labels.push(label);
        states.push(next.term().clone());
        cur = next;
    }
    Walk {
        labels,
        states,
        deadlocked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acsr::prelude::*;

    #[test]
    fn walk_is_reproducible_from_seed() {
        let mut env = Env::new();
        let cpu = Res::new("cpu");
        let d = env.declare("Coin", 0);
        env.set_body(
            d,
            choice([
                act([(cpu, 1)], invoke(d, [])),
                act([(Res::new("bus"), 1)], invoke(d, [])),
            ]),
        );
        let p = invoke(d, []);
        let w1 = random_walk(&env, &p, 50, 42);
        let w2 = random_walk(&env, &p, 50, 42);
        assert_eq!(w1.labels, w2.labels);
        let w3 = random_walk(&env, &p, 50, 43);
        // Overwhelmingly likely to differ (2^50 paths).
        assert_ne!(w1.labels, w3.labels);
    }

    #[test]
    fn walk_stops_at_deadlock() {
        let env = Env::new();
        let p = act([(Res::new("cpu"), 1)], nil());
        let w = random_walk(&env, &p, 100, 7);
        assert!(w.deadlocked);
        assert_eq!(w.len(), 1);
        assert_eq!(w.elapsed_quanta(), 1);
        assert_eq!(w.states.len(), 2);
    }

    #[test]
    fn walk_respects_prioritization() {
        let cpu = Res::new("cpu");
        // High-priority step always beats the idle alternative, so the walk
        // can only ever take the cpu step.
        let mut env = Env::new();
        let d = env.declare("W", 0);
        env.set_body(
            d,
            choice([
                act([(cpu, 5)], invoke(d, [])),
                act([] as [(Res, i32); 0], invoke(d, [])),
            ]),
        );
        let w = random_walk(&env, &invoke(d, []), 30, 99);
        assert_eq!(w.len(), 30);
        assert!(w
            .labels
            .iter()
            .all(|l| l.action().is_some_and(|a| a.prio_of(cpu) == 5)));
    }
}
