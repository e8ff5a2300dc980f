//! Parametric skeletons: factoring a term into *shape* × *time vector*.
//!
//! A ground ACSR state of a periodic task system is almost entirely static
//! structure. What changes from quantum to quantum while the system idles or
//! computes undisturbed is a handful of integers: the remaining `Scope`
//! limits (deadline/period watchdogs counting down), the `Invoke` arguments
//! of parameterized recursions (dispatch counters), and the position inside
//! chains of identical timed-action prefixes (execution budgets unrolled by
//! the translation). This module makes that observation operational:
//!
//! * [`factor`] splits a term into a **shape digest** — an FNV-1a hash of the
//!   structure with every such time parameter replaced by a typed hole — and
//!   the **time vector**, the hole values in deterministic traversal order.
//! * [`rebuild`] is the inverse: given any term of a shape (the *template*)
//!   and a new time vector, it reconstructs the concrete term, path-copying
//!   only the spine that actually changed. `rebuild(t, factor(t).values)`
//!   returns `t`'s structure unchanged (and shares its `Arc`s).
//!
//! Two terms with the same shape digest and vector length are *shape-equal*:
//! they differ at most in their time parameters. The closed-form delay
//! advance ([`crate::advance`]) exploits this — while a state is forced, its
//! vector evolves linearly per quantum, so bulk time advance is vector
//! arithmetic plus one `rebuild` instead of per-quantum step derivation.
//!
//! The three hole kinds:
//!
//! | hole | matched structure | value |
//! |------|-------------------|-------|
//! | scope limit | `Scope { limit: Finite(Const(n)), .. }` | `n` |
//! | invoke argument | each `Const(n)` in `Invoke { args, .. }` | `n` |
//! | action chain | maximal run of `Act` nodes with identical `(action, tag)` | run length |
//!
//! Everything else — resource sets, priorities, event names, restriction and
//! closure sets, non-constant expressions, `Infinite` bounds — is *frozen*
//! into the digest via the term types' `Hash` impls, so terms differing in
//! any frozen part land in different shapes.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::expr::Expr;
use crate::hashed::Fnv1a;
use crate::term::{Proc, TimeBound, P};

/// Upper bound on a collapsed action-chain length (and thus on any rebuilt
/// chain). Purely a sanity guard: real translated budgets are tiny, and a
/// corrupt vector must not be able to demand a gigabyte of `Act` nodes.
pub const MAX_CHAIN: i64 = 1 << 24;

// Marker bytes mixed into the shape digest. Node-kind tags reuse the store's
// 0..=9 numbering; hole markers and option tags live above 0x40 so they can
// never collide with a node tag.
const H_CHAIN: u8 = 0x41;
const H_LIMIT: u8 = 0x42;
const H_ARG: u8 = 0x43;
const FROZEN_EXPR: u8 = 0x50;
const BOUND_INFINITE: u8 = 0x51;
const OPT_SOME: u8 = 0x52;
const OPT_NONE: u8 = 0x53;

/// A factored term: shape digest plus time vector. See the [module
/// documentation](self).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Factored {
    /// FNV-1a digest of the structure with holes abstracted.
    pub digest: u64,
    /// Hole values in deterministic pre-order traversal order.
    pub values: Vec<i64>,
}

/// Factor `p` into its shape and time vector.
///
/// # Examples
///
/// ```
/// use acsr::prelude::*;
/// use acsr::skeleton::{factor, rebuild};
///
/// let cpu = Res::new("cpu");
/// // Three identical quanta followed by NIL: one chain hole of value 3.
/// let p = act([(cpu, 1)], act([(cpu, 1)], act([(cpu, 1)], nil())));
/// let f = factor(&p);
/// assert_eq!(f.values, vec![3]);
/// // Same shape one quantum later.
/// let q = act([(cpu, 1)], act([(cpu, 1)], nil()));
/// assert_eq!(factor(&q).digest, f.digest);
/// // rebuild is the inverse of factor.
/// let r = rebuild(&p, &[2]).unwrap();
/// assert_eq!(r, q);
/// ```
pub fn factor(p: &P) -> Factored {
    let mut h = Fnv1a::new();
    let mut values = Vec::new();
    walk(p, &mut h, &mut values);
    Factored {
        digest: h.finish(),
        values,
    }
}

fn walk(p: &P, h: &mut Fnv1a, out: &mut Vec<i64>) {
    match &**p {
        Proc::Nil => h.write_u8(0),
        Proc::Act { action, tag, next } => {
            h.write_u8(1);
            action.hash(h);
            tag.hash(h);
            h.write_u8(H_CHAIN);
            // Collapse the maximal run of identical (action, tag) prefixes
            // into one count hole.
            let mut count: i64 = 1;
            let mut tail = next;
            while let Proc::Act {
                action: a,
                tag: t,
                next: n,
            } = &**tail
            {
                if a == action && t == tag && count < MAX_CHAIN {
                    count += 1;
                    tail = n;
                } else {
                    break;
                }
            }
            out.push(count);
            walk(tail, h, out);
        }
        Proc::Evt { event, next } => {
            h.write_u8(2);
            event.hash(h);
            walk(next, h, out);
        }
        Proc::Choice(alts) => {
            h.write_u8(3);
            h.write_usize(alts.len());
            for a in alts {
                walk(a, h, out);
            }
        }
        Proc::Par(comps) => {
            h.write_u8(4);
            h.write_usize(comps.len());
            for c in comps {
                walk(c, h, out);
            }
        }
        Proc::Guard { cond, then } => {
            h.write_u8(5);
            cond.hash(h);
            walk(then, h, out);
        }
        Proc::Scope {
            body,
            limit,
            exception,
            timeout,
            interrupt,
        } => {
            h.write_u8(6);
            match limit {
                TimeBound::Finite(Expr::Const(n)) => {
                    h.write_u8(H_LIMIT);
                    out.push(*n);
                }
                TimeBound::Finite(e) => {
                    h.write_u8(FROZEN_EXPR);
                    e.hash(h);
                }
                TimeBound::Infinite => h.write_u8(BOUND_INFINITE),
            }
            walk(body, h, out);
            match exception {
                Some((label, handler)) => {
                    h.write_u8(OPT_SOME);
                    label.hash(h);
                    walk(handler, h, out);
                }
                None => h.write_u8(OPT_NONE),
            }
            match timeout {
                Some(t) => {
                    h.write_u8(OPT_SOME);
                    walk(t, h, out);
                }
                None => h.write_u8(OPT_NONE),
            }
            match interrupt {
                Some(i) => {
                    h.write_u8(OPT_SOME);
                    walk(i, h, out);
                }
                None => h.write_u8(OPT_NONE),
            }
        }
        Proc::Restrict { body, labels } => {
            h.write_u8(7);
            labels.hash(h);
            walk(body, h, out);
        }
        Proc::Close { body, resources } => {
            h.write_u8(8);
            resources.hash(h);
            walk(body, h, out);
        }
        Proc::Invoke { def, args } => {
            h.write_u8(9);
            def.hash(h);
            h.write_usize(args.len());
            for a in args {
                match a {
                    Expr::Const(n) => {
                        h.write_u8(H_ARG);
                        out.push(*n);
                    }
                    e => {
                        h.write_u8(FROZEN_EXPR);
                        e.hash(h);
                    }
                }
            }
        }
    }
}

/// Reconstruct the term of `template`'s shape with time vector `values`.
///
/// `template` may be *any* term of the shape — the traversal consumes one
/// value per hole in the same order [`factor`] emitted them. Returns `None`
/// when the vector does not fit the shape (wrong length, a chain count
/// outside `1..=MAX_CHAIN`). Unchanged subtrees share the template's `Arc`s;
/// in particular a shrunk action chain reuses the template's own suffix, so
/// re-interning the result is mostly pointer-index hits.
pub fn rebuild(template: &P, values: &[i64]) -> Option<P> {
    let mut idx = 0usize;
    let built = rb(template, values, &mut idx)?;
    if idx == values.len() {
        Some(built)
    } else {
        None
    }
}

fn take(values: &[i64], idx: &mut usize) -> Option<i64> {
    let v = *values.get(*idx)?;
    *idx += 1;
    Some(v)
}

fn rb(p: &P, values: &[i64], idx: &mut usize) -> Option<P> {
    match &**p {
        Proc::Nil => Some(p.clone()),
        Proc::Act { action, tag, next } => {
            // Measure the template's chain, mirroring `walk`.
            let mut len: i64 = 1;
            let mut tail = next;
            while let Proc::Act {
                action: a,
                tag: t,
                next: n,
            } = &**tail
            {
                if a == action && t == tag && len < MAX_CHAIN {
                    len += 1;
                    tail = n;
                } else {
                    break;
                }
            }
            let count = take(values, idx)?;
            if !(1..=MAX_CHAIN).contains(&count) {
                return None;
            }
            let new_tail = rb(tail, values, idx)?;
            if Arc::ptr_eq(&new_tail, tail) {
                if count == len {
                    return Some(p.clone());
                }
                if count < len {
                    // The template's own suffix *is* the shorter chain.
                    let mut cur = p;
                    for _ in 0..(len - count) {
                        match &**cur {
                            Proc::Act { next, .. } => cur = next,
                            _ => unreachable!("chain shorter than measured"),
                        }
                    }
                    return Some(cur.clone());
                }
                // Longer chain: extend the template in place.
                let mut built = p.clone();
                for _ in 0..(count - len) {
                    built = Arc::new(Proc::Act {
                        action: action.clone(),
                        tag: *tag,
                        next: built,
                    });
                }
                return Some(built);
            }
            let mut built = new_tail;
            for _ in 0..count {
                built = Arc::new(Proc::Act {
                    action: action.clone(),
                    tag: *tag,
                    next: built,
                });
            }
            Some(built)
        }
        Proc::Evt { event, next } => {
            let n2 = rb(next, values, idx)?;
            Some(if Arc::ptr_eq(&n2, next) {
                p.clone()
            } else {
                Arc::new(Proc::Evt {
                    event: event.clone(),
                    next: n2,
                })
            })
        }
        Proc::Choice(alts) => {
            let mut kids = Vec::with_capacity(alts.len());
            let mut same = true;
            for a in alts {
                let k = rb(a, values, idx)?;
                same &= Arc::ptr_eq(&k, a);
                kids.push(k);
            }
            Some(if same { p.clone() } else { Arc::new(Proc::Choice(kids)) })
        }
        Proc::Par(comps) => {
            let mut kids = Vec::with_capacity(comps.len());
            let mut same = true;
            for c in comps {
                let k = rb(c, values, idx)?;
                same &= Arc::ptr_eq(&k, c);
                kids.push(k);
            }
            Some(if same { p.clone() } else { Arc::new(Proc::Par(kids)) })
        }
        Proc::Guard { cond, then } => {
            let t2 = rb(then, values, idx)?;
            Some(if Arc::ptr_eq(&t2, then) {
                p.clone()
            } else {
                Arc::new(Proc::Guard {
                    cond: cond.clone(),
                    then: t2,
                })
            })
        }
        Proc::Scope {
            body,
            limit,
            exception,
            timeout,
            interrupt,
        } => {
            let (new_limit, limit_same) = match limit {
                TimeBound::Finite(Expr::Const(n)) => {
                    let v = take(values, idx)?;
                    (TimeBound::Finite(Expr::Const(v)), v == *n)
                }
                other => (other.clone(), true),
            };
            let b2 = rb(body, values, idx)?;
            let e2 = match exception {
                Some((label, handler)) => Some((*label, rb(handler, values, idx)?)),
                None => None,
            };
            let t2 = match timeout {
                Some(t) => Some(rb(t, values, idx)?),
                None => None,
            };
            let i2 = match interrupt {
                Some(i) => Some(rb(i, values, idx)?),
                None => None,
            };
            let same = limit_same
                && Arc::ptr_eq(&b2, body)
                && exception
                    .as_ref()
                    .zip(e2.as_ref())
                    .is_none_or(|((_, a), (_, b))| Arc::ptr_eq(a, b))
                && timeout
                    .as_ref()
                    .zip(t2.as_ref())
                    .is_none_or(|(a, b)| Arc::ptr_eq(a, b))
                && interrupt
                    .as_ref()
                    .zip(i2.as_ref())
                    .is_none_or(|(a, b)| Arc::ptr_eq(a, b));
            Some(if same {
                p.clone()
            } else {
                Arc::new(Proc::Scope {
                    body: b2,
                    limit: new_limit,
                    exception: e2,
                    timeout: t2,
                    interrupt: i2,
                })
            })
        }
        Proc::Restrict { body, labels } => {
            let b2 = rb(body, values, idx)?;
            Some(if Arc::ptr_eq(&b2, body) {
                p.clone()
            } else {
                Arc::new(Proc::Restrict {
                    body: b2,
                    labels: labels.clone(),
                })
            })
        }
        Proc::Close { body, resources } => {
            let b2 = rb(body, values, idx)?;
            Some(if Arc::ptr_eq(&b2, body) {
                p.clone()
            } else {
                Arc::new(Proc::Close {
                    body: b2,
                    resources: resources.clone(),
                })
            })
        }
        Proc::Invoke { def, args } => {
            let mut new_args = Vec::with_capacity(args.len());
            let mut same = true;
            for a in args {
                match a {
                    Expr::Const(n) => {
                        let v = take(values, idx)?;
                        same &= v == *n;
                        new_args.push(Expr::Const(v));
                    }
                    other => new_args.push(other.clone()),
                }
            }
            Some(if same {
                p.clone()
            } else {
                Arc::new(Proc::Invoke {
                    def: *def,
                    args: new_args,
                })
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Env;
    use crate::symbol::{Res, Symbol};
    use crate::term::{act, choice, evt_send, invoke, nil, par, restrict, scope};

    fn cpu() -> Res {
        Res::new("cpu")
    }

    fn chain(n: usize) -> P {
        let mut p = evt_send(Symbol::new("done"), 1, nil());
        for _ in 0..n {
            p = act([(cpu(), 1)], p);
        }
        p
    }

    #[test]
    fn roundtrip_is_identity_and_shares_the_arc_spine() {
        let mut env = Env::new();
        let idle = env.declare("Idle", 1);
        let p = par([
            scope(
                chain(5),
                TimeBound::Finite(Expr::c(9)),
                Some((Symbol::new("done"), nil())),
                Some(nil()),
                None,
            ),
            restrict(invoke(idle, [Expr::c(4)]), [Symbol::new("done")]),
        ]);
        let f = factor(&p);
        assert_eq!(f.values, vec![9, 5, 4]);
        let r = rebuild(&p, &f.values).expect("roundtrip");
        assert!(Arc::ptr_eq(&r, &p), "identity rebuild must share the root Arc");
    }

    #[test]
    fn shape_digest_ignores_time_parameters_only() {
        let a = scope(chain(7), TimeBound::Finite(Expr::c(20)), None, Some(nil()), None);
        let b = scope(chain(2), TimeBound::Finite(Expr::c(13)), None, Some(nil()), None);
        assert_eq!(factor(&a).digest, factor(&b).digest);
        // A frozen difference (another resource) is another shape.
        let c = scope(
            act([(Res::new("bus"), 1)], nil()),
            TimeBound::Finite(Expr::c(20)),
            None,
            Some(nil()),
            None,
        );
        assert_ne!(factor(&a).digest, factor(&c).digest);
    }

    #[test]
    fn rebuild_moves_between_vectors() {
        let p = scope(chain(7), TimeBound::Finite(Expr::c(20)), None, Some(nil()), None);
        let q = rebuild(&p, &[13, 2]).expect("rebuild");
        let expected = scope(chain(2), TimeBound::Finite(Expr::c(13)), None, Some(nil()), None);
        assert_eq!(q, expected);
        // And back again, from the rebuilt template.
        let back = rebuild(&q, &[20, 7]).expect("rebuild back");
        assert_eq!(back, p);
    }

    #[test]
    fn shrunk_chains_reuse_the_template_suffix() {
        let p = chain(10);
        let q = rebuild(&p, &[4]).expect("rebuild");
        // The 4-chain is a physical subterm of the 10-chain.
        let mut cur = &p;
        for _ in 0..6 {
            match &**cur {
                Proc::Act { next, .. } => cur = next,
                _ => panic!("chain shorter than built"),
            }
        }
        assert!(Arc::ptr_eq(&q, cur));
    }

    #[test]
    fn invalid_vectors_are_refused() {
        let p = chain(3);
        assert!(rebuild(&p, &[]).is_none(), "missing hole value");
        assert!(rebuild(&p, &[2, 9]).is_none(), "excess hole value");
        assert!(rebuild(&p, &[0]).is_none(), "empty chain");
        assert!(rebuild(&p, &[-3]).is_none(), "negative chain");
        assert!(rebuild(&p, &[MAX_CHAIN + 1]).is_none(), "absurd chain");
    }

    #[test]
    fn mixed_action_chains_split_at_the_frozen_boundary() {
        // cpu,cpu,bus,cpu → holes [2,1,1]: the bus action breaks the chain.
        let bus = Res::new("bus");
        let p = act(
            [(cpu(), 1)],
            act([(cpu(), 1)], act([(bus, 1)], act([(cpu(), 1)], nil()))),
        );
        let f = factor(&p);
        assert_eq!(f.values, vec![2, 1, 1]);
        assert_eq!(rebuild(&p, &f.values).unwrap(), p);
    }

    #[test]
    fn choice_arity_is_frozen() {
        let a = choice([chain(2), nil()]);
        let b = choice([chain(2), nil(), nil()]);
        assert_ne!(factor(&a).digest, factor(&b).digest);
    }
}
