//! Vector-domain forced runs: the closed-form engine behind delay zones.
//!
//! [`crate::advance`] removes the per-quantum work *inside* a forced timed
//! interval, but a periodic model's forced runs are not one interval: every
//! release instant splits them with a short cascade of boundary steps — the
//! dispatch `τ`, a preemption shuffle, a one-quantum compute step, the
//! completion `τ` — and every one of those used to be a fresh concrete
//! derivation through the step relation. On a model like
//! `longperiod.aadl` (four tasks, co-prime periods) the spans average a
//! handful of quanta, so those per-release derivations dominated wall time
//! and the zone *state* win never became a wall-clock win.
//!
//! This module walks the whole forced run in the **vector domain**. The
//! current state is a shape (an interned structural template) plus a numeric
//! time vector, and each kind of forced step is served arithmetically:
//!
//! * **Spans** — when every moving component's boundary `θ_i` is learned
//!   (see [`crate::advance`]), the interval length is `min_i (θ_i − v_i)/δ_i`
//!   and the advance is `v += d·δ`. No rebuild, no interning, no step
//!   derivation.
//! * **Unit macros** — single forced steps that *leave* the shape (the
//!   boundary exit, the cascade `τ`s, a one-quantum compute step) are
//!   learned as per-shape transition maps: an input guard plus, per output
//!   component, either a constant or `v[src] + k`. A macro is inferred from
//!   three consistent concrete observations and thereafter serves the step
//!   as `O(#params)` arithmetic.
//!
//! Only a run's endpoint is materialized back into an interned term. The
//! runner returns the run's length, last label and endpoint and keeps no
//! interior state: a caller that needs the interior quanta (a
//! counterexample trace) re-derives them through the step relation, and
//! the length says exactly how many steps to take.
//!
//! # When is a macro allowed to serve?
//!
//! A macro is a *deterministic* map, but a state's successor set is only
//! deterministic when no second event is pending at the same instant (a
//! simultaneous release makes a branch — a "diamond" — which learning mode
//! surfaces as a run end, never as an observation). Serving is therefore
//! gated on an **instant certificate**:
//!
//! * At a span shape with complete boundaries, the components sitting
//!   exactly at their `θ_i` are counted. Zero criticals certify a span;
//!   exactly one critical certifies the (keyed-by-binding) exit macro and
//!   validates the instant it opens; two or more force a concrete
//!   derivation — which is exactly where diamonds live.
//! * Inside a validated instant, instantaneous cascade macros keep the
//!   certificate and a timed macro ends it.
//! * At an *unvalidated* instant (right after a served timed step), an
//!   instantaneous macro may serve only if a bounded **lookahead** through
//!   the learned maps reaches a span shape whose predicted vector has zero
//!   criticals — i.e. the theory itself proves no other event shares the
//!   instant. Otherwise the step is derived concretely.
//!
//! # Verification
//!
//! Like the span cache, nothing here is trusted analysis: debug builds
//! (hence every test run) replay *every* served span and macro step
//! against the step relation, and any divergence panics. Release builds
//! spot-check each shape variant and each macro on an exponential-backoff
//! schedule (serves 1, 2, 4, 8, …); a failed spot check poisons the entry
//! and falls back to concrete replay. `tools/ci.sh` additionally diffs closed-form zone
//! verdicts against the per-quantum search (the `--dot` path) on every small
//! bundled model in release mode.

use std::collections::HashSet;
use std::sync::Arc;

use crate::advance::{
    advance, frozen_key, offset, unique_step, Advance, AdvanceCache, ShapeEntry, ShapeKey,
};
use crate::label::Label;
use crate::skeleton::{self, Factored};
use crate::step::StepSession;
use crate::store::{Interned, TermId};

/// Maximum instantaneous-macro hops a lookahead certificate may cross.
const MAX_LOOKAHEAD: usize = 4;
/// Observations required before a unit macro is inferred.
const INFER_AT: usize = 3;
/// Observation cap during refinement; a macro that cannot settle within
/// this many observations is poisoned.
const REFINE_CAP: usize = 10;

/// The outcome of [`forced_run_closed`].
pub enum RunOutcome {
    /// The entry state has no prioritized successors.
    Deadlock,
    /// The entry state has two or more prioritized successors.
    Branch(Vec<(Label, Interned)>),
    /// The maximal forced chain out of the entry: `steps ≥ 1` concrete
    /// steps, the last one labelled `label`, ending in the materialized
    /// `end`.
    Run {
        label: Label,
        end: Interned,
        steps: u64,
    },
}

/// Per-output-component source of a unit macro's transition map.
#[derive(Clone, Copy, Debug)]
pub(crate) enum OutSrc {
    /// `w[j] = v[src] + k`.
    Affine { src: usize, k: i64 },
    /// `w[j] = c`.
    Const(i64),
}

/// One concrete observation of a forced step out of a shape.
#[derive(Clone, Debug)]
pub(crate) struct Obs {
    v: Vec<i64>,
    label: Label,
    w: Vec<i64>,
    target: Interned,
    target_key: ShapeKey,
}

/// A learned single-step transition map.
#[derive(Debug)]
pub(crate) struct UnitMacro {
    label: Label,
    timed: bool,
    /// Exact-match guard: components that never varied across the macro's
    /// observations must hold their observed value (relaxed by refinement
    /// when a mismatching state is later observed concretely).
    in_req: Vec<Option<i64>>,
    out: Arc<Vec<OutSrc>>,
    target_tpl: Interned,
    target_key: ShapeKey,
    /// Observations the map was inferred from, kept for refinement.
    obs: Vec<Obs>,
    serves: u64,
    next_verify: u64,
}

/// Unit macros are keyed by source shape plus, for span-shape boundary
/// exits, the binding component (distinct releases out of the same shape
/// are distinct macros).
pub(crate) type UnitKey = (ShapeKey, Option<u32>);

#[derive(Debug)]
pub(crate) enum UnitEntry {
    /// Collecting observations (fewer than [`INFER_AT`], or inference has
    /// not been attempted yet).
    Learning(Vec<Obs>),
    Ready(UnitMacro),
    /// Conflicting observations or a failed spot check: always derive
    /// concretely.
    Poisoned,
}

/// Infer a transition map explaining every observation, or `None` when the
/// observations are inconsistent with any guarded affine map (the caller
/// poisons the entry — more observations can only shrink the candidate
/// space, never recover it).
fn infer(obs: &[Obs]) -> Option<UnitMacro> {
    let first = &obs[0];
    let n = first.v.len();
    let m = first.w.len();
    if obs.iter().any(|o| {
        o.label != first.label
            || o.target_key != first.target_key
            || o.v.len() != n
            || o.w.len() != m
    }) {
        return None;
    }
    let in_req: Vec<Option<i64>> = (0..n)
        .map(|i| {
            let x = first.v[i];
            obs.iter().all(|o| o.v[i] == x).then_some(x)
        })
        .collect();
    let mut out = Vec::with_capacity(m);
    'component: for j in 0..m {
        let wj = first.w[j];
        if obs.iter().all(|o| o.w[j] == wj) {
            out.push(OutSrc::Const(wj));
            continue;
        }
        // The output varies, so it must track some (necessarily varying)
        // input at a constant drift; take the first input that explains
        // every observation.
        for i in 0..n {
            let k = (first.w[j] as i128) - (first.v[i] as i128);
            if obs
                .iter()
                .all(|o| (o.w[j] as i128) - (o.v[i] as i128) == k)
            {
                let Ok(k) = i64::try_from(k) else {
                    return None;
                };
                out.push(OutSrc::Affine { src: i, k });
                continue 'component;
            }
        }
        return None;
    }
    Some(UnitMacro {
        label: first.label.clone(),
        timed: first.label.is_timed(),
        in_req,
        out: Arc::new(out),
        target_tpl: first.target.clone(),
        target_key: first.target_key,
        obs: obs.to_vec(),
        serves: 0,
        next_verify: 1,
    })
}

fn in_req_ok(in_req: &[Option<i64>], v: &[i64]) -> bool {
    in_req.len() == v.len()
        && in_req
            .iter()
            .zip(v)
            .all(|(r, x)| r.map_or(true, |c| c == *x))
}

fn apply_out(out: &[OutSrc], v: &[i64]) -> Option<Vec<i64>> {
    out.iter()
        .map(|o| match o {
            OutSrc::Const(c) => Some(*c),
            OutSrc::Affine { src, k } => v.get(*src).and_then(|x| x.checked_add(*k)),
        })
        .collect()
}

/// Record a concrete observation of a forced step, inferring or refining
/// the keyed macro.
fn record_obs(
    session: &StepSession<'_>,
    cache: &AdvanceCache,
    ukey: UnitKey,
    v: &[i64],
    label: &Label,
    target: &Interned,
) {
    let ft = session.store().shape_of(target);
    let ob = Obs {
        v: v.to_vec(),
        label: label.clone(),
        w: ft.values.clone(),
        target: target.clone(),
        target_key: (ft.digest, ft.values.len() as u32),
    };
    match cache.units.borrow_mut().entry(ukey) {
        std::collections::hash_map::Entry::Vacant(slot) => {
            slot.insert(UnitEntry::Learning(vec![ob]));
        }
        std::collections::hash_map::Entry::Occupied(mut slot) => match slot.get_mut() {
            UnitEntry::Poisoned => {}
            UnitEntry::Learning(obs) => {
                if obs[0].label != ob.label || obs[0].target_key != ob.target_key {
                    *slot.get_mut() = UnitEntry::Poisoned;
                    return;
                }
                if !obs.iter().any(|o| o.v == ob.v) {
                    obs.push(ob);
                }
                if obs.len() >= INFER_AT {
                    *slot.get_mut() = match infer(obs) {
                        Some(m) => UnitEntry::Ready(m),
                        None => UnitEntry::Poisoned,
                    };
                }
            }
            UnitEntry::Ready(m) => {
                // The macro refused this state (an in_req mismatch): relax
                // the guard by re-inferring over the extended observations.
                if m.label != ob.label || m.target_key != ob.target_key {
                    *slot.get_mut() = UnitEntry::Poisoned;
                    return;
                }
                if in_req_ok(&m.in_req, v) {
                    // Refused for validation reasons only; nothing to learn.
                    return;
                }
                if m.obs.len() >= REFINE_CAP {
                    *slot.get_mut() = UnitEntry::Poisoned;
                    return;
                }
                m.obs.push(ob);
                let obs = std::mem::take(&mut m.obs);
                *slot.get_mut() = match infer(&obs) {
                    Some(m) => UnitEntry::Ready(m),
                    None => UnitEntry::Poisoned,
                };
            }
        },
    }
}

/// A macro read out of the table, pending eligibility and verification.
struct Peeked {
    label: Label,
    timed: bool,
    target_tpl: Interned,
    target_key: ShapeKey,
    w: Vec<i64>,
}

/// Phase 1 of a macro serve: read the map and compute the predicted target
/// vector, without committing.
fn peek_unit(cache: &AdvanceCache, ukey: UnitKey, v: &[i64]) -> Option<Peeked> {
    match cache.units.borrow().get(&ukey) {
        Some(UnitEntry::Ready(m)) if in_req_ok(&m.in_req, v) => {
            let w = apply_out(&m.out, v)?;
            Some(Peeked {
                label: m.label.clone(),
                timed: m.timed,
                target_tpl: m.target_tpl.clone(),
                target_key: m.target_key,
                w,
            })
        }
        _ => None,
    }
}

/// Phase 2 of a macro serve: bump the serve counter of the macro that
/// [`peek_unit`] just read and decide whether this serve is spot-verified.
fn commit_unit(cache: &AdvanceCache, ukey: UnitKey) -> bool {
    let mut units = cache.units.borrow_mut();
    let Some(UnitEntry::Ready(m)) = units.get_mut(&ukey) else {
        unreachable!("a unit macro is committed right after it was peeked");
    };
    m.serves += 1;
    let verify = cfg!(debug_assertions) || m.serves >= m.next_verify;
    if m.serves >= m.next_verify {
        m.next_verify = m.next_verify.saturating_mul(2);
    }
    verify
}

fn poison_unit(cache: &AdvanceCache, ukey: UnitKey) {
    cache.units.borrow_mut().insert(ukey, UnitEntry::Poisoned);
}

/// What the span theory says about the instant at `(key, vals)`:
/// `Some(true)` — complete boundaries, at least one moving component, zero
/// criticals: nothing is pending at this instant. `Some(false)` — theory
/// present but it cannot rule a pending event out. `None` — shape unknown,
/// no verdict either way.
fn span_clear(cache: &AdvanceCache, key: ShapeKey, vals: &[i64]) -> Option<bool> {
    match cache.shapes.borrow().get(&key) {
        Some(ShapeEntry::Linear(ls)) if ls.delta.len() == vals.len() => {
            if let Some(var) = ls.variants.get(&frozen_key(&ls.delta, vals)) {
                let mut moving = false;
                let mut crit = 0u32;
                let mut complete = true;
                for i in 0..vals.len() {
                    if ls.delta[i] == 0 {
                        continue;
                    }
                    moving = true;
                    match var.thresholds[i] {
                        Some(th) => {
                            if th == vals[i] {
                                crit += 1;
                            }
                        }
                        None => {
                            complete = false;
                            break;
                        }
                    }
                }
                if moving && complete {
                    return Some(crit == 0);
                }
            }
            Some(false)
        }
        Some(_) => Some(false),
        None => None,
    }
}

/// Does the learned theory prove that no event other than the predicted
/// chain shares the current instant? Follows instantaneous Ready macros
/// from `(key, w)` for at most [`MAX_LOOKAHEAD`] hops; certifies iff a span
/// shape with complete boundaries and zero critical components is reached.
fn lookahead_certifies(cache: &AdvanceCache, mut key: ShapeKey, w: &[i64]) -> bool {
    let mut vals = w.to_vec();
    for _ in 0..MAX_LOOKAHEAD {
        match span_clear(cache, key, &vals) {
            Some(verdict) => return verdict,
            None => {}
        }
        let hop = match cache.units.borrow().get(&(key, None)) {
            Some(UnitEntry::Ready(m)) if !m.timed && in_req_ok(&m.in_req, &vals) => {
                apply_out(&m.out, &vals).map(|w| (w, m.target_key))
            }
            _ => None,
        };
        match hop {
            Some((w, tkey)) => {
                vals = w;
                key = tkey;
            }
            None => return false,
        }
    }
    false
}

/// What the boundary theory says about the current state.
enum SpanPlan {
    /// Zero criticals: a certified span of `d` quanta ending at `end`.
    Span {
        label: Label,
        delta: Arc<Vec<i64>>,
        d: u64,
        end: Vec<i64>,
        verify: bool,
    },
    /// Exactly one component at its boundary: the keyed exit macro applies.
    /// `next_clear` certifies the instant *one quantum later* as well: no
    /// other moving component reaches its boundary after a single timed
    /// step (`diff_j != δ_j` for every other `j`), so even a timed exit
    /// opens a validated instant.
    Exit { binding: u32, next_clear: bool },
    /// Two or more criticals (a possible diamond): derive concretely.
    Multi,
    /// No usable theory (no entry, poisoned, unlearned region or boundary,
    /// off-lattice vector): fall through to the generic path.
    NoTheory,
}

fn span_plan(cache: &AdvanceCache, key: ShapeKey, values: &[i64], cap_left: u64) -> SpanPlan {
    let mut shapes = cache.shapes.borrow_mut();
    let Some(ShapeEntry::Linear(ls)) = shapes.get_mut(&key) else {
        return SpanPlan::NoTheory;
    };
    if ls.delta.len() != values.len() {
        return SpanPlan::NoTheory;
    }
    let delta = ls.delta.clone();
    let frozen = frozen_key(&delta, values);
    let Some(var) = ls.variants.get_mut(&frozen) else {
        return SpanPlan::NoTheory;
    };
    let mut moving = false;
    let mut crit: Option<u32> = None;
    let mut multi = false;
    let mut next_clear = true;
    let mut d = cap_left;
    for i in 0..values.len() {
        let di = delta[i];
        if di == 0 {
            continue;
        }
        moving = true;
        let Some(th) = var.thresholds[i] else {
            return SpanPlan::NoTheory;
        };
        let Some(diff) = th.checked_sub(values[i]) else {
            return SpanPlan::NoTheory;
        };
        if diff == 0 {
            if crit.replace(i as u32).is_some() {
                multi = true;
            }
            continue;
        }
        if (diff < 0) != (di < 0) || diff % di != 0 {
            return SpanPlan::NoTheory;
        }
        if diff == di {
            // This component reaches its boundary one quantum from now.
            next_clear = false;
        }
        d = d.min((diff / di) as u64);
    }
    if !moving {
        return SpanPlan::NoTheory;
    }
    if multi {
        return SpanPlan::Multi;
    }
    if let Some(binding) = crit {
        return SpanPlan::Exit {
            binding,
            next_clear,
        };
    }
    let Some(end) = offset(values, &delta, d as i64) else {
        return SpanPlan::NoTheory;
    };
    var.serves += 1;
    let verify = cfg!(debug_assertions) || var.serves >= var.next_verify;
    if var.serves >= var.next_verify {
        var.next_verify = var.next_verify.saturating_mul(2);
    }
    SpanPlan::Span {
        label: var.label.clone(),
        delta,
        d,
        end,
        verify,
    }
}

/// The walk state: interned, or a shape template plus the current vector.
enum Cur {
    Real(Interned),
    Virt {
        template: Interned,
        key: ShapeKey,
        values: Vec<i64>,
    },
}

struct Runner<'a, 'e> {
    session: &'a StepSession<'e>,
    cache: &'a AdvanceCache,
    /// The label of the last step taken (`None` until the first).
    last: Option<Label>,
    steps: u64,
    cap: u64,
    cur: Cur,
    /// Set when the theory certified that the only events pending at the
    /// current instant are the ones the served chain itself performs.
    instant_valid: bool,
    /// Cycle guard at segment granularity, over deterministic 64-bit state
    /// hashes. A (vanishingly unlikely) collision merely ends the edge
    /// early — the cap-invariance argument makes edge granularity
    /// verdict-neutral, so no exactness is needed here.
    seen: HashSet<u64>,
}

fn mix(mut h: u64, x: u64) -> u64 {
    h ^= x;
    h = h.wrapping_mul(0x0000_0100_0000_01b3);
    h ^ (h >> 29)
}

fn virt_hash(key: ShapeKey, values: &[i64]) -> u64 {
    let mut h = mix(mix(0xcbf2_9ce4_8422_2325, key.0), key.1 as u64);
    for v in values {
        h = mix(h, *v as u64);
    }
    h
}

fn real_hash(id: TermId) -> u64 {
    mix(0x9e37_79b9_7f4a_7c15, id.raw() as u64)
}

/// How one loop iteration left the runner.
enum Flow {
    Continue,
    EndRun,
    Deadlock,
    Branch(Vec<(Label, Interned)>),
}

impl<'a, 'e> Runner<'a, 'e> {
    fn cur_hash(&self) -> u64 {
        match &self.cur {
            Cur::Real(t) => real_hash(t.id()),
            Cur::Virt { key, values, .. } => virt_hash(*key, values),
        }
    }

    /// Insert the current state into the cycle guard; `false` ends the run.
    fn note_seen(&mut self) -> bool {
        let h = self.cur_hash();
        self.seen.insert(h)
    }

    /// The current state as an interned term (rebuilding when virtual).
    fn materialize(&mut self) -> Interned {
        match &self.cur {
            Cur::Real(t) => t.clone(),
            Cur::Virt {
                template,
                key,
                values,
            } => {
                let p = skeleton::rebuild(template.term(), values).expect(
                    "closed-form advance produced a vector outside its shape \
                     (a learned span or macro is wrong; `--dot` explores per \
                     quantum instead)",
                );
                let t = self.session.intern(&p);
                self.session.store().note_shape(
                    &t,
                    Arc::new(Factored {
                        digest: key.0,
                        values: values.clone(),
                    }),
                );
                self.cur = Cur::Real(t.clone());
                t
            }
        }
    }

    /// Serve one macro step that has already passed its eligibility gate.
    /// Returns `false` when a release-mode spot check failed and poisoned
    /// the macro — the caller falls back to the concrete path.
    fn serve_jump(&mut self, ukey: UnitKey, p: Peeked, instant_after: bool) -> bool {
        if commit_unit(self.cache, ukey) && !self.verify_jump(&p) {
            assert!(
                !cfg!(debug_assertions),
                "macro-served step diverged from the step relation (shape {:?})",
                ukey
            );
            poison_unit(self.cache, ukey);
            return false;
        }
        self.cache.closed.update(|n| n + 1);
        self.last = Some(p.label);
        self.steps += 1;
        self.instant_valid = instant_after;
        self.cur = Cur::Virt {
            template: p.target_tpl,
            key: p.target_key,
            values: p.w,
        };
        true
    }

    /// Replay a macro serve against the step relation.
    fn verify_jump(&mut self, p: &Peeked) -> bool {
        let src = self.materialize();
        let Some((l, t)) = unique_step(self.session, &src) else {
            return false;
        };
        if l != p.label {
            return false;
        }
        let Some(rebuilt) = skeleton::rebuild(p.target_tpl.term(), &p.w) else {
            return false;
        };
        t.id() == self.session.intern(&rebuilt).id()
    }

    /// Replay a span serve quantum by quantum against the step relation.
    fn verify_span(&mut self, label: &Label, delta: &[i64], d: u64) -> bool {
        let src = self.materialize();
        let f = self.session.store().shape_of(&src);
        let mut cur = src.clone();
        for k in 1..=d {
            let Some((l, t)) = unique_step(self.session, &cur) else {
                return false;
            };
            if !l.is_timed() || l != *label {
                return false;
            }
            let Some(vk) = offset(&f.values, delta, k as i64) else {
                return false;
            };
            let Some(pk) = skeleton::rebuild(src.term(), &vk) else {
                return false;
            };
            if t.id() != self.session.intern(&pk).id() {
                return false;
            }
            cur = t;
        }
        true
    }

    /// Certify the instant shared by `t` by walking the *concrete* forced
    /// chain: while the shape has no span theory and the next step is
    /// instantaneous, follow it; certify iff a span shape with complete
    /// boundaries and zero criticals is reached within
    /// [`MAX_LOOKAHEAD`] hops. `unique_step` is memoized, so the walk is
    /// reused verbatim by the steps that follow — this is how the unit
    /// map bootstraps before any macros exist to hop through.
    fn chain_certifies(&self, t: &Interned) -> bool {
        let mut cur = t.clone();
        for _ in 0..MAX_LOOKAHEAD {
            let f = self.session.store().shape_of(&cur);
            let key = (f.digest, f.values.len() as u32);
            if let Some(verdict) = span_clear(self.cache, key, &f.values) {
                return verdict;
            }
            match unique_step(self.session, &cur) {
                Some((l, nt)) if !l.is_timed() => cur = nt,
                Some(_) => {
                    return false;
                }
                None => {
                    return false;
                }
            }
        }
        false
    }

    /// Take one concrete forced step (the learning path), recording the
    /// observation under `ukey` when one is given. `certified` says the
    /// *current* instant is known clear of foreign events (θ-certification
    /// from an exit, or carried instant validity). Observations are only recorded
    /// at certified instants — a diamond-instant cascade behaves
    /// differently from the common case at the *same* shape, and letting
    /// its steps into the observation set would poison the macro for
    /// everyone. An instantaneous step can also certify retroactively:
    /// its target shares the instant, so if the target's span theory shows
    /// zero critical components, no foreign event was pending.
    fn concrete_step(&mut self, ukey: Option<UnitKey>, values: &[i64], certified: bool) -> Flow {
        let src = self.materialize();
        match unique_step(self.session, &src) {
            Some((l, t)) => {
                let mut certified = certified;
                if !certified && !l.is_timed() {
                    certified = self.chain_certifies(&t);
                }
                if certified {
                    if let Some(ukey) = ukey {
                        record_obs(self.session, self.cache, ukey, values, &l, &t);
                    }
                }
                // A timed step opens a new instant; the concrete chain
                // ahead can certify it just like the current one.
                self.instant_valid = if l.is_timed() {
                    self.chain_certifies(&t)
                } else {
                    certified
                };
                self.last = Some(l);
                self.steps += 1;
                self.cur = Cur::Real(t);
                if self.note_seen() {
                    Flow::Continue
                } else {
                    Flow::EndRun
                }
            }
            None => self.blocked(&src),
        }
    }

    /// The current state is not forced: classify it (ending the run).
    fn blocked(&mut self, src: &Interned) -> Flow {
        if self.steps > 0 {
            return Flow::EndRun;
        }
        let succs = self.session.prioritized_steps(src);
        if succs.is_empty() {
            Flow::Deadlock
        } else {
            Flow::Branch(succs)
        }
    }

    /// One iteration of the walk.
    fn step(&mut self) -> Flow {
        // A factored view of the current state. Values are cloned (the
        // vectors are small) so the walk state can be replaced freely.
        let (key, template, values): (ShapeKey, Interned, Vec<i64>) = match &self.cur {
            Cur::Real(t) => {
                let f = self.session.store().shape_of(t);
                (
                    (f.digest, f.values.len() as u32),
                    t.clone(),
                    f.values.clone(),
                )
            }
            Cur::Virt {
                template,
                key,
                values,
            } => (*key, template.clone(), values.clone()),
        };

        match span_plan(self.cache, key, &values, self.cap - self.steps) {
            SpanPlan::Span {
                label,
                delta,
                d,
                end,
                verify,
            } => {
                if verify && !self.verify_span(&label, &delta, d) {
                    assert!(
                        !cfg!(debug_assertions),
                        "closed-form span diverged from the step relation (shape {key:?})"
                    );
                    self.cache.poison(key);
                    return Flow::Continue;
                }
                self.cache.closed.update(|n| n + 1);
                self.last = Some(label);
                self.steps += d;
                self.instant_valid = false;
                self.cur = Cur::Virt {
                    template,
                    key,
                    values: end,
                };
                if self.note_seen() {
                    Flow::Continue
                } else {
                    Flow::EndRun
                }
            }
            SpanPlan::Exit {
                binding,
                next_clear,
            } => {
                // Exactly one pending event: the exit macro is certified by
                // the boundary theory itself, and serving it validates the
                // instant it opens.
                let ukey = (key, Some(binding));
                if let Some(p) = peek_unit(self.cache, ukey, &values) {
                    // An instantaneous exit keeps the instant; a timed one
                    // opens the next instant, which `next_clear` certifies.
                    let after = !p.timed || next_clear;
                    if self.serve_jump(ukey, p, after) {
                        return if self.note_seen() {
                            Flow::Continue
                        } else {
                            Flow::EndRun
                        };
                    }
                }
                self.cache.fallbacks.update(|n| n + 1);
                let flow = self.concrete_step(Some(ukey), &values, true);
                // A concrete singleton step at a one-critical boundary
                // consumed that one event: the instant it opened (if it
                // was instantaneous, or `next_clear` held) is validated by
                // the same argument as the macro serve.
                if let (Flow::Continue, Some(l)) = (&flow, &self.last) {
                    self.instant_valid = self.instant_valid || !l.is_timed() || next_clear;
                }
                flow
            }
            SpanPlan::Multi => {
                // Two or more simultaneous events: this is where diamonds
                // live, so always look at the real successor set.
                self.cache.fallbacks.update(|n| n + 1);
                let flow = self.concrete_step(None, &values, false);
                self.instant_valid = false;
                flow
            }
            SpanPlan::NoTheory => {
                // Cascade shapes (and span shapes still learning their
                // boundaries). Try the learned transition map first.
                let ukey = (key, None);
                if let Some(p) = peek_unit(self.cache, ukey, &values) {
                    let eligible = self.instant_valid
                        || (!p.timed && lookahead_certifies(self.cache, p.target_key, &p.w));
                    // An instantaneous serve keeps the (certified) instant.
                    // A timed serve opens a new one, which the theory can
                    // certify in the vector domain: hop instantaneous
                    // macros from the target until a span shape with zero
                    // criticals proves nothing foreign is pending.
                    let after = !p.timed
                        || lookahead_certifies(self.cache, p.target_key, &p.w);
                    if eligible && self.serve_jump(ukey, p, after) {
                        return if self.note_seen() {
                            Flow::Continue
                        } else {
                            Flow::EndRun
                        };
                    }
                }
                // Concrete: let the span machinery learn derivatives and
                // boundaries, and record unit observations on the way.
                let real = self.materialize();
                match advance(self.session, self.cache, &real, self.cap - self.steps) {
                    Advance::Closed { label, len, target } => {
                        self.steps += len;
                        self.instant_valid = false;
                        self.last = Some(label);
                        self.cur = Cur::Real(target);
                        if self.note_seen() {
                            Flow::Continue
                        } else {
                            Flow::EndRun
                        }
                    }
                    Advance::Replayed(steps) => {
                        // Every replayed step is an observation opportunity:
                        // the first leaves *this* shape under `ukey`, each
                        // later one leaves the shape of the intermediate
                        // state it departs from. Certification chains
                        // through the cascade — an instantaneous step keeps
                        // the instant (and can retro-certify through its
                        // target's span theory), a timed step opens a new,
                        // uncertified one. Timed cascade steps only ever
                        // surface through this arm.
                        let mut src_key = ukey;
                        let mut src_vals = values.clone();
                        let mut certified = self.instant_valid;
                        for (i, (l, t)) in steps.iter().enumerate() {
                            if !certified && !l.is_timed() {
                                // We hold the concrete chain: the instant
                                // persists across instantaneous steps, so if
                                // any state within reach (walking only
                                // instantaneous steps) has a span theory
                                // showing zero criticals, this instant is
                                // provably clear of foreign events.
                                let mut j = i;
                                loop {
                                    let f = self.session.store().shape_of(&steps[j].1);
                                    let kj = (f.digest, f.values.len() as u32);
                                    if let Some(verdict) = span_clear(self.cache, kj, &f.values)
                                    {
                                        certified = verdict;
                                        break;
                                    }
                                    let next = j + 1;
                                    if next >= steps.len()
                                        || next - i >= MAX_LOOKAHEAD
                                        || steps[next].0.is_timed()
                                    {
                                        break;
                                    }
                                    j = next;
                                }
                            }
                            if certified {
                                record_obs(self.session, self.cache, src_key, &src_vals, l, t);
                            }
                            certified = certified && !l.is_timed();
                            self.steps += 1;
                            self.last = Some(l.clone());
                            self.cur = Cur::Real(t.clone());
                            if !self.note_seen() {
                                self.instant_valid = certified;
                                return Flow::EndRun;
                            }
                            // The next step departs from `t`.
                            let ft = self.session.store().shape_of(t);
                            let tkey = (ft.digest, ft.values.len() as u32);
                            src_key = (tkey, None);
                            src_vals = ft.values.clone();
                        }
                        self.instant_valid = certified;
                        Flow::Continue
                    }
                    Advance::NotTimed => {
                        let certified = self.instant_valid;
                        self.concrete_step(Some(ukey), &values, certified)
                    }
                }
            }
        }
    }
}

/// Follow the maximal forced chain out of `entry` in the vector domain,
/// serving spans and learned unit macros arithmetically and deriving
/// concretely everywhere the theory cannot certify the step. Semantics
/// (cap bound, cycle guard at segment granularity, blocked-state
/// classification) mirror [`crate::zone::forced_run`]; results are
/// intern-identical to a concrete replay of the same chain.
///
/// `walked` lists the states a caller already stepped through concretely on
/// the same run before reaching `entry` (empty for a fresh run): the cycle
/// guard starts out holding them, so a run resumed mid-way ends exactly
/// where a walk from its true start would. `cap` counts steps from `entry`.
pub fn forced_run_closed(
    session: &StepSession<'_>,
    cache: &AdvanceCache,
    entry: &Interned,
    walked: &[TermId],
    cap: u64,
) -> RunOutcome {
    let mut r = Runner {
        session,
        cache,
        last: None,
        steps: 0,
        cap,
        cur: Cur::Real(entry.clone()),
        instant_valid: false,
        seen: walked.iter().copied().map(real_hash).collect(),
    };
    r.note_seen();
    while r.steps < r.cap {
        match r.step() {
            Flow::Continue => {}
            Flow::EndRun => break,
            Flow::Deadlock => return RunOutcome::Deadlock,
            Flow::Branch(succs) => return RunOutcome::Branch(succs),
        }
    }
    // Materialize the endpoint: it is the edge target.
    let end = r.materialize();
    RunOutcome::Run {
        label: r.last.expect("a run takes at least one step (cap ≥ 1)"),
        end,
        steps: r.steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Env;
    use crate::expr::Expr;
    use crate::step::MemoConfig;
    use crate::store::TermStore;
    use crate::symbol::Res;
    use crate::term::{act, invoke, nil, par, scope, TimeBound, P};
    use crate::zone;
    use std::rc::Rc;

    fn session(env: &Env) -> StepSession<'_> {
        StepSession::new(env, Rc::new(TermStore::new()), MemoConfig::default())
    }

    /// A periodic task on its own resource: idle for `period − 1` quanta
    /// (an idle loop clipped by a scope), one quantum of work, repeat.
    fn periodic(env: &mut Env, name: &str, res: &str, period: i64) -> P {
        let idle = env.declare(&format!("{name}Idle"), 0);
        env.set_body(idle, act([] as [(Res, i32); 0], invoke(idle, [])));
        let d = env.declare(name, 0);
        env.set_body(
            d,
            scope(
                invoke(idle, []),
                TimeBound::Finite(Expr::c(period - 1)),
                None,
                Some(act([(Res::new(res), 1)], invoke(d, []))),
                None,
            ),
        );
        invoke(d, [])
    }

    /// Two periodic tasks with co-prime periods on disjoint resources:
    /// fully deterministic (every state is forced), and every release of
    /// one task sees a different phase of the other, so the unit-macro
    /// observations vary and inference has something to chew on.
    fn two_tasks(env: &mut Env) -> P {
        let a = periodic(env, "A", "cpuA", 3);
        let b = periodic(env, "B", "cpuB", 5);
        par([a, b])
    }

    /// Drive a closed run from `cur` and check its `(steps, label, end)`
    /// against a `steps`-long walk of the concrete unique-step chain out of
    /// `cur`: every step forced, the last one labelled `label`, ending in
    /// `end` by interned id. Returns the run's endpoint (or `None` at a
    /// deadlock/branch, which must agree with the concrete successor set).
    fn check_run(s: &StepSession<'_>, cache: &AdvanceCache, cur: &Interned) -> Option<Interned> {
        match forced_run_closed(s, cache, cur, &[], 64) {
            RunOutcome::Run { label, end, steps } => {
                assert!((1..=64).contains(&steps), "{steps} steps under cap 64");
                let mut c = cur.clone();
                let mut last = None;
                for i in 0..steps {
                    let (cl, ct) =
                        unique_step(s, &c).unwrap_or_else(|| panic!("step {i} is not forced"));
                    last = Some(cl);
                    c = ct;
                }
                assert_eq!(last.as_ref(), Some(&label), "label of the last step");
                assert_eq!(c.id(), end.id(), "endpoint");
                Some(end)
            }
            RunOutcome::Deadlock => {
                assert!(s.prioritized_steps(cur).is_empty());
                None
            }
            RunOutcome::Branch(succs) => {
                assert!(succs.len() >= 2);
                assert_eq!(succs.len(), s.prioritized_steps(cur).len());
                None
            }
        }
    }

    /// Every step the closed engine emits — learning, warming, or fully
    /// macro-served — must be intern-identical to the concrete unique-step
    /// chain. Repeated passes over the same states hit progressively more
    /// served paths (debug builds also verify every serve internally).
    #[test]
    fn closed_runs_expand_to_the_concrete_forced_run() {
        let mut env = Env::new();
        let p = two_tasks(&mut env);
        let s = session(&env);
        let cache = AdvanceCache::new();
        let t0 = s.intern(&p);
        for _ in 0..6 {
            let mut cur = t0.clone();
            for _ in 0..12 {
                match check_run(&s, &cache, &cur) {
                    // A pure cycle ends back where it started (the cycle
                    // guard fires on the revisit, like the concrete walker).
                    Some(end) if end.id() == cur.id() => break,
                    Some(end) => cur = end,
                    None => break,
                }
            }
        }
        // The model is a forced 15-quantum cycle: something must have
        // served closed-form by now.
        assert!(cache.stats().closed_form_advances >= 1);
    }

    /// After enough observations the boundary-exit steps are served by
    /// learned unit macros instead of concrete derivation.
    #[test]
    fn unit_macros_warm_up_and_serve() {
        let mut env = Env::new();
        let p = two_tasks(&mut env);
        let s = session(&env);
        let cache = AdvanceCache::new();
        let t0 = s.intern(&p);
        let mut cur = t0.clone();
        for _ in 0..64 {
            match forced_run_closed(&s, &cache, &cur, &[], 64) {
                RunOutcome::Run { end, .. } => cur = end,
                _ => break,
            }
        }
        let ready = cache
            .units
            .borrow()
            .values()
            .filter(|e| matches!(e, UnitEntry::Ready(_)))
            .count();
        assert!(ready >= 1, "no unit macro became ready");
        let before = cache.stats().closed_form_advances;
        let out = forced_run_closed(&s, &cache, &t0, &[], 64);
        assert!(matches!(out, RunOutcome::Run { .. }));
        assert!(
            cache.stats().closed_form_advances > before,
            "warmed run served nothing closed-form"
        );
    }

    /// Branch and deadlock classification matches the concrete engine, and
    /// the cap bounds the run exactly like the concrete walker.
    #[test]
    fn caps_deadlocks_and_branches_mirror_the_concrete_walker() {
        let mut env = Env::new();
        let p = two_tasks(&mut env);
        let s = session(&env);
        let cache = AdvanceCache::new();
        let t0 = s.intern(&p);
        for cap in [1u64, 2, 3, 7] {
            match forced_run_closed(&s, &cache, &t0, &[], cap) {
                RunOutcome::Run { steps, .. } => assert!(steps <= cap),
                other => panic!(
                    "forced entry must yield a run at cap {cap}, got {}",
                    match other {
                        RunOutcome::Deadlock => "deadlock",
                        RunOutcome::Branch(_) => "branch",
                        RunOutcome::Run { .. } => unreachable!(),
                    }
                ),
            }
        }
        let dead = s.intern(&nil());
        assert!(matches!(
            forced_run_closed(&s, &cache, &dead, &[], 64),
            RunOutcome::Deadlock
        ));
        // Two incomparable timed actions: a branch, reported with the full
        // prioritized successor set.
        let br = s.intern(&crate::term::choice([
            act([(Res::new("x"), 1)], nil()),
            act([(Res::new("y"), 1)], nil()),
        ]));
        match forced_run_closed(&s, &cache, &br, &[], 64) {
            RunOutcome::Branch(succs) => assert_eq!(succs.len(), 2),
            _ => panic!("incomparable choice must branch"),
        }
    }

    /// The map inference: affine tracking and constant outputs, with the
    /// guard keeping never-varied components exact.
    #[test]
    fn inference_learns_guarded_affine_maps() {
        let env = Env::new();
        let s = session(&env);
        let tgt = s.intern(&nil());
        let f = s.store().shape_of(&tgt);
        let tkey = (f.digest, f.values.len() as u32);
        let lbl = Label::A(Arc::new(crate::label::GAction::idle()));
        let mk = |v: Vec<i64>, w: Vec<i64>| Obs {
            v,
            label: lbl.clone(),
            w,
            target: tgt.clone(),
            target_key: tkey,
        };
        let obs = vec![
            mk(vec![10, 3, 7], vec![9, 7]),
            mk(vec![20, 3, 7], vec![19, 7]),
            mk(vec![15, 3, 7], vec![14, 7]),
        ];
        let m = infer(&obs).expect("consistent observations must infer");
        assert!(matches!(m.out[0], OutSrc::Affine { src: 0, k: -1 }));
        assert!(matches!(m.out[1], OutSrc::Const(7)));
        assert_eq!(m.in_req, vec![None, Some(3), Some(7)]);
        // A conflicting observation set refuses.
        let bad = vec![
            mk(vec![10], vec![1]),
            mk(vec![20], vec![2]),
            mk(vec![30], vec![23]),
        ];
        assert!(infer(&bad).is_none());
    }

    /// The closed walker agrees with `zone::forced_run` on what is and is
    /// not a forced entry across every state of the cycle.
    #[test]
    fn forcedness_classification_matches_zone_forced_run() {
        let mut env = Env::new();
        let p = two_tasks(&mut env);
        let s = session(&env);
        let cache = AdvanceCache::new();
        let mut cur = s.intern(&p);
        for _ in 0..40 {
            let concrete_forced = zone::forced_run(&s, &cur, 1024).is_some();
            let closed = forced_run_closed(&s, &cache, &cur, &[], 1024);
            match (&closed, concrete_forced) {
                (RunOutcome::Run { .. }, true) => {}
                (RunOutcome::Deadlock | RunOutcome::Branch(_), false) => {}
                _ => panic!("forcedness classification diverges"),
            }
            match unique_step(&s, &cur) {
                Some((_, t)) => cur = t,
                None => break,
            }
        }
    }
}
