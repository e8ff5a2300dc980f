//! Closed-form delay advance: per-shape delay derivatives over time vectors.
//!
//! [`crate::zone`] collapses forced runs into single delay steps, but its
//! bulk advance still *re-derives every quantum* through the step relation —
//! the state win without the wall-clock win. This module removes the
//! per-quantum work. The key observation (see [`crate::skeleton`]): while a
//! state is forced and timed, its *shape* is invariant and only its *time
//! vector* moves — and it moves linearly, by a constant per-quantum **delay
//! derivative** `δ` (scope limits tick down, budgets shorten, counters
//! count). The forced interval ends exactly when some vector component hits
//! a boundary value (a release instant, a timeout, an exhausted budget), so:
//!
//! * the delay bound is a **min over component slacks**
//!   `d = min_i (θ_i − v_i) / δ_i` over the moving components `i`, where
//!   `θ_i` is component `i`'s learned boundary, and
//! * the bulk advance is `intern(rebuild(shape, v + d·δ))` — O(#params),
//!   zero per-quantum re-derivation.
//!
//! # Soundness: derived from, and re-anchored to, the step relation
//!
//! Nothing here is trusted analysis of the process syntax. The first visit
//! to a shape *derives* `(δ, label)` by replaying real prioritized steps and
//! factoring the successors (`pattern_replay` — a *learning replay*); the
//! boundaries `θ_i` are learned where a replay actually observes the
//! interval end, and each is confirmed *binding* by a single-backoff probe
//! (backing that one component off one step must restore forcedness).
//! Every later closed-form advance still re-verifies against the step
//! relation at both ends of the span: the entry step and the final
//! (pre-exit → exit) step are derived concretely and compared against the
//! rebuilt terms by interned id. Any mismatch — a wrong boundary, a
//! non-linear shape, a vector off the learned lattice — falls back to the
//! learning replay, which is exactly the PR 9 semantics. Shapes that
//! *cannot* evolve linearly (a timed self-loop, conflicting derivatives,
//! conflicting boundaries) are poisoned to `ShapeEntry::NonLinear` and
//! always replay.
//!
//! Debug builds (hence every test run) additionally replay **all** of a
//! closed-form span's unit steps and assert interned-id equality quantum by
//! quantum — the property-mode anchor the zone design demands.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::label::Label;
use crate::skeleton::{self, Factored};
use crate::step::StepSession;
use crate::store::{Interned, TermId};

/// The outcome of one [`advance`] call.
#[derive(Clone, Debug)]
pub enum Advance {
    /// A verified closed-form span: `len ≥ 2` forced timed steps, every one
    /// labelled `label`, ending in `target`. Interior states are *not*
    /// materialized and not kept: a caller that needs them takes the
    /// span's `len` steps through the step relation again.
    Closed {
        /// The (constant) label of every step in the span.
        label: Label,
        /// Number of quanta advanced.
        len: u64,
        /// The interned state at the end of the span.
        target: Interned,
    },
    /// Concretely replayed forced *timed* steps (≥ 1), in order. Returned on
    /// first visits to a shape (while the derivative is being learned), for
    /// non-linear shapes, and whenever a closed-form prediction fails its
    /// end checks.
    Replayed(Vec<(Label, Interned)>),
    /// The state is not at the start of a forced timed interval (it
    /// branches, deadlocks, or its single step is instantaneous).
    NotTimed,
}

/// A snapshot of the cache's counters, read by the zone explorer's
/// observability hooks.
#[derive(Clone, Copy, Debug, Default)]
pub struct AdvanceStats {
    /// Steps served closed-form with no per-quantum derivation: delay
    /// spans advanced by their learned derivative, plus learned unit
    /// macros (boundary exits and cascade steps) applied in the vector
    /// domain by the runner.
    pub closed_form_advances: u64,
    /// Advances that had a cached shape but had to replay concretely
    /// (non-linear shape, unlearned boundary, or a failed end check).
    pub replay_fallbacks: u64,
    /// Shapes whose derivative was derived (first insert into the cache).
    pub shapes_derived: u64,
    /// Shape entries currently cached.
    pub shape_cache: u64,
}

/// A per-frozen-region variant of a linear shape: the span label plus the
/// learned boundary value of each moving component (`None` until a replay
/// has observed — and probe-confirmed — that component binding).
#[derive(Clone, Debug)]
pub(crate) struct Variant {
    pub(crate) label: Label,
    pub(crate) thresholds: Vec<Option<i64>>,
    /// Spans the vector-domain runner has served from this variant without
    /// materializing, and the serve count at which the next release-mode
    /// spot verification fires (exponential backoff; see [`crate::runner`]).
    pub(crate) serves: u64,
    pub(crate) next_verify: u64,
}

/// A shape with a consistent linear derivative.
#[derive(Debug)]
pub(crate) struct LinearShape {
    pub(crate) delta: Arc<Vec<i64>>,
    /// Keyed by the *frozen* sub-vector (values at `δ_i == 0` positions):
    /// a generic definition instantiated per task carries its constants
    /// (period, deadline) in the vector, and the boundaries depend on them.
    pub(crate) variants: HashMap<Vec<i64>, Variant>,
}

#[derive(Debug)]
pub(crate) enum ShapeEntry {
    /// The shape does not evolve linearly (timed self-loop, conflicting
    /// derivatives or boundaries): always replay.
    NonLinear,
    Linear(LinearShape),
}

/// Shapes are keyed by digest *and* hole count, so a digest collision
/// between shapes of different arity cannot mix their vectors.
pub(crate) type ShapeKey = (u64, u32);

/// The cross-state cache of per-shape delay derivatives, owned by one
/// exploration alongside its [`StepSession`]. It is not `Sync`:
///
/// ```compile_fail
/// fn shared<T: Sync>() {}
/// shared::<acsr::AdvanceCache>();
/// ```
#[derive(Debug, Default)]
pub struct AdvanceCache {
    pub(crate) shapes: RefCell<HashMap<ShapeKey, ShapeEntry>>,
    /// Learned single-step transition maps for the vector-domain forced-run
    /// engine ([`crate::runner`]).
    pub(crate) units: RefCell<HashMap<crate::runner::UnitKey, crate::runner::UnitEntry>>,
    pub(crate) closed: Cell<u64>,
    pub(crate) fallbacks: Cell<u64>,
    pub(crate) derived: Cell<u64>,
}

impl AdvanceCache {
    /// An empty cache. Debug builds (so the entire test suite) replay every
    /// closed-form span unit step by unit step and panic on the first
    /// divergence from the step relation; release builds keep the
    /// entry/pre-exit checks.
    pub fn new() -> AdvanceCache {
        AdvanceCache::default()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> AdvanceStats {
        AdvanceStats {
            closed_form_advances: self.closed.get(),
            replay_fallbacks: self.fallbacks.get(),
            shapes_derived: self.derived.get(),
            shape_cache: self.shapes.borrow().len() as u64,
        }
    }

    pub(crate) fn poison(&self, key: ShapeKey) {
        let previous = self.shapes.borrow_mut().insert(key, ShapeEntry::NonLinear);
        if previous.is_none() {
            self.derived.update(|n| n + 1);
        }
    }
}

/// The single prioritized successor of `t`, when there is exactly one.
pub(crate) fn unique_step(session: &StepSession<'_>, t: &Interned) -> Option<(Label, Interned)> {
    let mut steps = session.prioritized_steps(t);
    if steps.len() == 1 {
        steps.pop()
    } else {
        None
    }
}

/// `v + k·δ` componentwise, refusing on overflow.
pub(crate) fn offset(v: &[i64], delta: &[i64], k: i64) -> Option<Vec<i64>> {
    v.iter()
        .zip(delta)
        .map(|(a, d)| d.checked_mul(k).and_then(|kd| a.checked_add(kd)))
        .collect()
}

/// The frozen sub-vector of `v`: its values at the `δ_i == 0` positions.
pub(crate) fn frozen_key(delta: &[i64], v: &[i64]) -> Vec<i64> {
    delta
        .iter()
        .zip(v)
        .filter(|(d, _)| **d == 0)
        .map(|(_, x)| *x)
        .collect()
}

/// Advance `entry` along its forced timed interval, closed-form when the
/// shape's derivative is cached and verified, by learning replay otherwise.
/// Never advances more than `cap` quanta. The returned steps (closed or
/// replayed) are all forced *timed* steps; instantaneous forced steps end
/// the interval ([`Advance::NotTimed`]), exactly like [`crate::zone::delay_bound`].
pub fn advance(
    session: &StepSession<'_>,
    cache: &AdvanceCache,
    entry: &Interned,
    cap: u64,
) -> Advance {
    if cap == 0 {
        return Advance::NotTimed;
    }
    let f = session.store().shape_of(entry);
    let key = (f.digest, f.values.len() as u32);
    enum Plan {
        Derive,
        NonLinear,
        Linear {
            delta: Arc<Vec<i64>>,
            variant: Option<Variant>,
        },
    }
    let plan = {
        let shapes = cache.shapes.borrow();
        match shapes.get(&key) {
            None => Plan::Derive,
            Some(ShapeEntry::NonLinear) => Plan::NonLinear,
            Some(ShapeEntry::Linear(ls)) => Plan::Linear {
                delta: ls.delta.clone(),
                variant: ls.variants.get(&frozen_key(&ls.delta, &f.values)).cloned(),
            },
        }
    };
    match plan {
        Plan::Derive => pattern_replay(session, cache, entry, &f, key, cap, None),
        Plan::NonLinear => {
            let out = timed_walk(session, entry, cap);
            if matches!(out, Advance::Replayed(_)) {
                cache.fallbacks.update(|n| n + 1);
            }
            out
        }
        Plan::Linear { delta, variant } => {
            match try_closed(session, cache, entry, &f, cap, &delta, variant.as_ref()) {
                Some(adv) => adv,
                None => {
                    cache.fallbacks.update(|n| n + 1);
                    pattern_replay(session, cache, entry, &f, key, cap, Some(&delta))
                }
            }
        }
    }
}

/// Attempt the closed-form span. `None` means "fall back to replay";
/// `Some(NotTimed)` means the entry is not forced-timed at all.
fn try_closed(
    session: &StepSession<'_>,
    cache: &AdvanceCache,
    entry: &Interned,
    f: &Factored,
    cap: u64,
    delta: &Arc<Vec<i64>>,
    variant: Option<&Variant>,
) -> Option<Advance> {
    let var = variant?;
    // d = min over moving components of the exact slack to their boundary.
    let mut d: u64 = cap;
    let mut any_moving = false;
    for i in 0..delta.len() {
        let di = delta[i];
        if di == 0 {
            continue;
        }
        any_moving = true;
        let th = var.thresholds[i]?;
        let diff = th.checked_sub(f.values[i])?;
        if diff == 0 || (diff < 0) != (di < 0) {
            // Already at (or somehow past) the boundary: not a span start.
            return None;
        }
        if diff % di != 0 {
            // Off the learned lattice; replay and re-learn.
            return None;
        }
        d = d.min((diff / di) as u64);
    }
    if !any_moving || d < 2 {
        // A degenerate derivative never caches as Linear; spans of 0 or 1
        // quanta are cheaper replayed than end-checked.
        return None;
    }

    let store = session.store();

    // Entry check: the real first step must match the rebuilt prediction.
    let (l1, t1) = match unique_step(session, entry) {
        Some(s) => s,
        None => return Some(Advance::NotTimed),
    };
    if !l1.is_timed() {
        return Some(Advance::NotTimed);
    }
    if l1 != var.label {
        return None;
    }
    let v1 = offset(&f.values, delta, 1)?;
    let p1 = skeleton::rebuild(entry.term(), &v1)?;
    let t1r = session.intern(&p1);
    if t1r.id() != t1.id() {
        return None;
    }
    store.note_shape(
        &t1,
        Arc::new(Factored {
            digest: f.digest,
            values: v1,
        }),
    );

    // Pre-exit check: the real step out of the second-to-last span state
    // must land exactly on the rebuilt exit. This is what catches a learned
    // boundary that is wrong for this entry region — an overshot span would
    // have to pass a concrete derivation at its far end.
    let v_pre = offset(&f.values, delta, (d - 1) as i64)?;
    let v_end = offset(&f.values, delta, d as i64)?;
    let s_pre = if d == 2 {
        t1
    } else {
        let p_pre = skeleton::rebuild(entry.term(), &v_pre)?;
        let s = session.intern(&p_pre);
        store.note_shape(
            &s,
            Arc::new(Factored {
                digest: f.digest,
                values: v_pre,
            }),
        );
        s
    };
    let p_end = skeleton::rebuild(entry.term(), &v_end)?;
    let s_end = session.intern(&p_end);
    store.note_shape(
        &s_end,
        Arc::new(Factored {
            digest: f.digest,
            values: v_end,
        }),
    );
    let (l_pre, t_pre) = unique_step(session, &s_pre)?;
    if !l_pre.is_timed() || l_pre != var.label || t_pre.id() != s_end.id() {
        return None;
    }

    if cfg!(debug_assertions) {
        // Property mode: the span *is* its unit steps, quantum by quantum.
        let mut cur = entry.clone();
        for k in 1..=d {
            let (l, t) = unique_step(session, &cur)
                .unwrap_or_else(|| panic!("closed-form span diverged: state at quantum {k} of {d} is not forced"));
            assert!(
                l.is_timed() && l == var.label,
                "closed-form span diverged: label mismatch at quantum {k} of {d}"
            );
            let vk = offset(&f.values, delta, k as i64).expect("verified span overflowed");
            let pk = skeleton::rebuild(entry.term(), &vk).expect("verified span must rebuild");
            assert_eq!(
                t.id(),
                session.intern(&pk).id(),
                "closed-form span diverged from the step relation at quantum {k} of {d}"
            );
            cur = t;
        }
        assert_eq!(cur.id(), s_end.id(), "closed-form span endpoint diverged");
    }

    cache.closed.update(|n| n + 1);
    Some(Advance::Closed {
        label: var.label.clone(),
        len: d,
        target: s_end,
    })
}

/// Learning replay: concrete forced timed steps that simultaneously derive
/// (or re-check) the shape's derivative and, when the interval's end is
/// observed, learn the binding components' boundary values.
fn pattern_replay(
    session: &StepSession<'_>,
    cache: &AdvanceCache,
    entry: &Interned,
    f: &Factored,
    key: ShapeKey,
    cap: u64,
    cached_delta: Option<&Arc<Vec<i64>>>,
) -> Advance {
    let store = session.store();
    let (l1, t1) = match unique_step(session, entry) {
        Some(s) => s,
        None => return Advance::NotTimed,
    };
    if !l1.is_timed() {
        return Advance::NotTimed;
    }
    let f1 = store.shape_of(&t1);
    if f1.digest != f.digest || f1.values.len() != f.values.len() {
        // The very first step leaves the shape: `entry` is itself a
        // boundary state. With a cached derivative we can still learn which
        // components bind here.
        if let Some(delta) = cached_delta {
            learn_thresholds(session, cache, key, entry, &f.values, delta);
        }
        return Advance::Replayed(vec![(l1, t1)]);
    }
    let delta: Vec<i64> = f1
        .values
        .iter()
        .zip(&f.values)
        .map(|(a, b)| a.wrapping_sub(*b))
        .collect();
    if delta.iter().all(|&d| d == 0) {
        // A timed self-transition within one shape (an idle cycle): no
        // linear progress to extrapolate.
        cache.poison(key);
        return Advance::Replayed(vec![(l1, t1)]);
    }
    if let Some(dc) = cached_delta {
        if **dc != delta {
            // The same shape stepped with a different derivative than the
            // cached one: genuinely non-linear.
            cache.poison(key);
            return Advance::Replayed(vec![(l1, t1)]);
        }
    }
    // Install the Linear entry, or find the one `cached_delta` was read
    // from, and check this frozen region's label. A found entry is that
    // Linear one with the delta just compared: this search alone writes
    // the cache, and nothing since the read has poisoned the shape.
    {
        let mut shapes = cache.shapes.borrow_mut();
        let slot = shapes.entry(key).or_insert_with(|| {
            cache.derived.update(|n| n + 1);
            ShapeEntry::Linear(LinearShape {
                delta: Arc::new(delta.clone()),
                variants: HashMap::new(),
            })
        });
        if let ShapeEntry::Linear(ls) = slot {
            let var = ls
                .variants
                .entry(frozen_key(&delta, &f.values))
                .or_insert_with(|| Variant {
                    label: l1.clone(),
                    thresholds: vec![None; f.values.len()],
                    serves: 0,
                    next_verify: 1,
                });
            if var.label != l1 {
                *slot = ShapeEntry::NonLinear;
                return Advance::Replayed(vec![(l1, t1)]);
            }
        }
    }
    // Walk the interval concretely, verifying the linear pattern at every
    // quantum. In-pattern states are pairwise distinct (the vector strictly
    // moves), so no cycle guard is needed here.
    let mut steps = vec![(l1.clone(), t1.clone())];
    let mut cur = t1;
    let mut v_cur = f1.values.clone();
    let mut boundary = None;
    while (steps.len() as u64) < cap {
        let Some((l, t)) = unique_step(session, &cur) else {
            boundary = Some((cur.clone(), v_cur.clone()));
            break;
        };
        let Some(v_next) = offset(&v_cur, &delta, 1) else {
            break;
        };
        let in_pattern = l.is_timed() && l == l1 && {
            let ft = store.shape_of(&t);
            ft.digest == f.digest && ft.values == v_next
        };
        if !in_pattern {
            boundary = Some((cur.clone(), v_cur.clone()));
            break;
        }
        steps.push((l, t.clone()));
        cur = t;
        v_cur = v_next;
    }
    if let Some((state, w)) = boundary {
        learn_thresholds(session, cache, key, &state, &w, &Arc::new(delta));
    }
    Advance::Replayed(steps)
}

/// At an observed interval end `w`, identify which moving components are
/// *binding* — backing just that component off one quantum restores
/// forcedness — and record their boundary values for the frozen region.
/// Conflicting observations poison the shape.
fn learn_thresholds(
    session: &StepSession<'_>,
    cache: &AdvanceCache,
    key: ShapeKey,
    state: &Interned,
    w: &[i64],
    delta: &Arc<Vec<i64>>,
) {
    // Fetch the variant's label (the span label the probe must reproduce).
    // If some already-learned boundary explains this interval end — a moving
    // component sitting exactly at its recorded θ — there is nothing new to
    // learn and the (step-relation) probes below are skipped. Boundary
    // states recur once per span, so without this check a hot shape would
    // re-probe every moving component at every single span end.
    let label = {
        let shapes = cache.shapes.borrow();
        match shapes.get(&key) {
            Some(ShapeEntry::Linear(ls)) if *ls.delta == **delta => {
                match ls.variants.get(&frozen_key(delta, w)) {
                    Some(v) => {
                        let explained = v
                            .thresholds
                            .iter()
                            .zip(&**delta)
                            .zip(w)
                            .any(|((th, d), x)| *d != 0 && *th == Some(*x));
                        if explained {
                            return;
                        }
                        v.label.clone()
                    }
                    None => return,
                }
            }
            _ => return,
        }
    };
    let mut learned: Vec<(usize, i64)> = Vec::new();
    for i in 0..delta.len() {
        if delta[i] == 0 {
            continue;
        }
        let Some(v_back) = back_off(w, delta, i) else {
            continue;
        };
        if conforms(session, state, &v_back, delta, &label) {
            learned.push((i, w[i]));
        }
    }
    if learned.is_empty() {
        return;
    }
    if let Some(slot) = cache.shapes.borrow_mut().get_mut(&key) {
        let poison = match slot {
            ShapeEntry::Linear(ls) if *ls.delta == **delta => {
                match ls.variants.get_mut(&frozen_key(delta, w)) {
                    Some(var) => {
                        let mut conflict = false;
                        for (i, th) in learned {
                            match var.thresholds[i] {
                                Some(existing) if existing != th => conflict = true,
                                _ => var.thresholds[i] = Some(th),
                            }
                        }
                        conflict
                    }
                    None => false,
                }
            }
            _ => false,
        };
        if poison {
            *slot = ShapeEntry::NonLinear;
        }
    }
}

/// `w` with component `i` backed off one quantum.
fn back_off(w: &[i64], delta: &[i64], i: usize) -> Option<Vec<i64>> {
    let mut v = w.to_vec();
    v[i] = v[i].checked_sub(delta[i])?;
    Some(v)
}

/// Does the state at vector `v` (rebuilt on `template`) make exactly one
/// prioritized step, timed, labelled `label`, to the state at `v + δ`?
fn conforms(
    session: &StepSession<'_>,
    template: &Interned,
    v: &[i64],
    delta: &[i64],
    label: &Label,
) -> bool {
    let Some(p) = skeleton::rebuild(template.term(), v) else {
        return false;
    };
    let probe = session.intern(&p);
    let Some((l, t)) = unique_step(session, &probe) else {
        return false;
    };
    if !l.is_timed() || l != *label {
        return false;
    }
    let Some(v_next) = offset(v, delta, 1) else {
        return false;
    };
    let Some(p_next) = skeleton::rebuild(template.term(), &v_next) else {
        return false;
    };
    t.id() == session.intern(&p_next).id()
}

/// Plain forced-timed walk (no factoring): the path for poisoned shapes.
/// Takes up to `cap` forced timed steps, stopping (like
/// [`crate::zone::forced_run`]) before extending from a state already
/// visited.
fn timed_walk(session: &StepSession<'_>, entry: &Interned, cap: u64) -> Advance {
    let (l1, t1) = match unique_step(session, entry) {
        Some(s) => s,
        None => return Advance::NotTimed,
    };
    if !l1.is_timed() {
        return Advance::NotTimed;
    }
    let mut steps = vec![(l1, t1)];
    let mut seen: HashSet<TermId> = HashSet::from([entry.id()]);
    loop {
        let cur = steps.last().expect("non-empty").1.clone();
        if steps.len() as u64 >= cap || !seen.insert(cur.id()) {
            break;
        }
        match unique_step(session, &cur) {
            Some((l, t)) if l.is_timed() => steps.push((l, t)),
            _ => break,
        }
    }
    Advance::Replayed(steps)
}

/// Closed-form counterpart of [`crate::zone::delay_bound`]: the largest
/// `d ≥ 1` (up to `cap`) such that the next `d` quanta of `t` are forced
/// timed steps, computed through the derivative cache. Agrees with the
/// replay bound exactly, including the saturate-at-`cap` behaviour of
/// forced idle cycles.
pub fn delay_bound(
    session: &StepSession<'_>,
    cache: &AdvanceCache,
    t: &Interned,
    cap: u64,
) -> u64 {
    let mut total = 0u64;
    let mut cur = t.clone();
    while total < cap {
        match advance(session, cache, &cur, cap - total) {
            Advance::Closed { len, target, .. } => {
                total += len;
                cur = target;
            }
            Advance::Replayed(steps) => {
                total += steps.len() as u64;
                cur = steps.into_iter().last().expect("non-empty").1;
            }
            Advance::NotTimed => return total,
        }
    }
    cap
}

/// Closed-form counterpart of [`crate::zone::step_delay`]: advance `t` by
/// exactly `d` forced timed quanta, or `None` when forcedness breaks first.
/// Produces the same interned term (`TermId` and all) the unit walk reaches.
pub fn step_delay(
    session: &StepSession<'_>,
    cache: &AdvanceCache,
    t: &Interned,
    d: u64,
) -> Option<Interned> {
    let mut remaining = d;
    let mut cur = t.clone();
    while remaining > 0 {
        match advance(session, cache, &cur, remaining) {
            Advance::Closed { len, target, .. } => {
                remaining -= len;
                cur = target;
            }
            Advance::Replayed(steps) => {
                remaining -= steps.len() as u64;
                cur = steps.into_iter().last().expect("non-empty").1;
            }
            Advance::NotTimed => return None,
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
    use crate::term::{act, evt_send, invoke, nil, scope, TimeBound};
    use crate::zone;
    use std::rc::Rc;

    fn cpu() -> Res {
        Res::new("cpu")
    }

    fn session(env: &Env) -> StepSession<'_> {
        StepSession::new(env, Rc::new(TermStore::new()), MemoConfig::default())
    }

    /// An idle loop clipped by an n-quantum scope: the canonical
    /// "watchdog counting to a release instant" shape.
    fn watchdog(env: &mut Env, n: i64) -> crate::term::P {
        let idle = env.declare("Idle", 0);
        env.set_body(idle, act([] as [(Res, i32); 0], invoke(idle, [])));
        scope(
            invoke(idle, []),
            TimeBound::Finite(Expr::c(n)),
            None,
            Some(nil()),
            None,
        )
    }

    #[test]
    fn derivative_is_learned_then_advances_closed_form() {
        let mut env = Env::new();
        let p = watchdog(&mut env, 40);
        let s = session(&env);
        let cache = AdvanceCache::new();
        let t = s.intern(&p);
        // First visit: learning replay, full length.
        match advance(&s, &cache, &t, 1024) {
            Advance::Replayed(steps) => assert_eq!(steps.len(), 40),
            other => panic!("first visit must replay, got {other:?}"),
        }
        let st = cache.stats();
        assert_eq!(st.shapes_derived, 1);
        assert_eq!(st.closed_form_advances, 0);
        // Second visit (same shape, different vector): closed form.
        let f = s.store().shape_of(&t);
        let p9 = skeleton::rebuild(t.term(), &{
            let mut v = f.values.clone();
            v[0] = 9; // 9 quanta left on the watchdog
            v
        })
        .unwrap();
        let t9 = s.intern(&p9);
        match advance(&s, &cache, &t9, 1024) {
            Advance::Closed { len, target, .. } => {
                assert_eq!(len, 9);
                assert_eq!(
                    target.id(),
                    zone::step_delay(&s, &t9, 9).expect("replay agrees").id()
                );
            }
            other => panic!("second visit must go closed-form, got {other:?}"),
        }
        assert_eq!(cache.stats().closed_form_advances, 1);
    }

    #[test]
    fn closed_bound_and_step_agree_with_replay_on_the_watchdog() {
        let mut env = Env::new();
        let p = watchdog(&mut env, 17);
        let s = session(&env);
        let cache = AdvanceCache::new();
        let t = s.intern(&p);
        assert_eq!(delay_bound(&s, &cache, &t, 1024), zone::delay_bound(&s, &t, 1024));
        for d in [0u64, 1, 2, 16, 17] {
            assert_eq!(
                step_delay(&s, &cache, &t, d).map(|x| x.id()),
                zone::step_delay(&s, &t, d).map(|x| x.id()),
                "d = {d}"
            );
        }
        assert!(step_delay(&s, &cache, &t, 18).is_none());
    }

    #[test]
    fn advance_stops_exactly_at_the_release_instant() {
        // Boundary satellite case: the span must end *at* the scope expiry,
        // never one quantum past it, from every entry offset.
        let mut env = Env::new();
        let p = watchdog(&mut env, 30);
        let s = session(&env);
        let cache = AdvanceCache::new();
        let t = s.intern(&p);
        // Learn the shape.
        let _ = advance(&s, &cache, &t, 1024);
        let f = s.store().shape_of(&t);
        for left in [2i64, 3, 11, 29] {
            let mut v = f.values.clone();
            v[0] = left;
            let entry = s.intern(&skeleton::rebuild(t.term(), &v).unwrap());
            assert_eq!(
                delay_bound(&s, &cache, &entry, 1024),
                left as u64,
                "watchdog with {left} quanta left"
            );
            assert!(step_delay(&s, &cache, &entry, left as u64 + 1).is_none());
        }
    }

    #[test]
    fn zero_delay_is_the_identity() {
        let env = Env::new();
        let s = session(&env);
        let cache = AdvanceCache::new();
        let dead = s.intern(&nil());
        assert_eq!(step_delay(&s, &cache, &dead, 0).unwrap().id(), dead.id());
        assert_eq!(delay_bound(&s, &cache, &dead, 1024), 0);
    }

    #[test]
    fn nonlinear_self_loop_is_poisoned_and_counted() {
        // An idle cycle: timed, forced, but the vector does not move.
        let mut env = Env::new();
        let idle = env.declare("Idle", 0);
        env.set_body(idle, act([] as [(Res, i32); 0], invoke(idle, [])));
        let s = session(&env);
        let cache = AdvanceCache::new();
        let t = s.intern(&invoke(idle, []));
        // First visit derives… and immediately poisons.
        let first = advance(&s, &cache, &t, 64);
        assert!(matches!(first, Advance::Replayed(_)));
        // Second visit must take the replay-fallback path and count it.
        let second = advance(&s, &cache, &t, 64);
        assert!(matches!(second, Advance::Replayed(_)));
        let st = cache.stats();
        assert!(st.replay_fallbacks >= 1, "fallback not counted: {st:?}");
        assert_eq!(st.closed_form_advances, 0);
        // And the bound still saturates like the replay engine's.
        assert_eq!(delay_bound(&s, &cache, &t, 77), zone::delay_bound(&s, &t, 77));
    }

    #[test]
    fn instantaneous_steps_end_the_interval() {
        let env = Env::new();
        let s = session(&env);
        let cache = AdvanceCache::new();
        let done = Symbol::new("done");
        let p = s.intern(&act(
            [(cpu(), 1)],
            act([(cpu(), 1)], evt_send(done, 1, act([(cpu(), 1)], nil()))),
        ));
        assert_eq!(delay_bound(&s, &cache, &p, 1024), 2);
        assert_eq!(zone::delay_bound(&s, &p, 1024), 2);
    }

    #[test]
    fn spans_are_capped() {
        let mut env = Env::new();
        let p = watchdog(&mut env, 100);
        let s = session(&env);
        let cache = AdvanceCache::new();
        let t = s.intern(&p);
        let _ = advance(&s, &cache, &t, 1024); // learn
        let f = s.store().shape_of(&t);
        let mut v = f.values.clone();
        v[0] = 90;
        let entry = s.intern(&skeleton::rebuild(t.term(), &v).unwrap());
        match advance(&s, &cache, &entry, 10) {
            Advance::Closed { len, .. } => assert_eq!(len, 10),
            other => panic!("expected a capped closed span, got {other:?}"),
        }
    }
}
