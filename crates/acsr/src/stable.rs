//! Process-independent digests of terms and environments.
//!
//! The in-memory [`TermStore`](crate::TermStore) digests subterms through the
//! derived `Hash` of [`Symbol`] — i.e. through the symbol's
//! *interner index*, which depends on the order strings were interned in this
//! process. That is exactly right for an in-process hash-cons table and
//! exactly wrong for an on-disk key: a warm daemon that interned other
//! models' names first would derive different digests for the same model.
//!
//! This module provides the on-disk variant: a structural FNV-1a walk in
//! which every symbol contributes its *string bytes* (length-prefixed),
//! definition references contribute the definition's *name*, and the
//! index-ordered `Restrict`/`Close` sets are re-sorted lexicographically
//! before hashing. The result is stable across processes, interning
//! histories, and runs — the property `cas` store keys need.
//!
//! Two runs computing the same digest therefore agree on the term *up to
//! renaming-invariant structure and names*; any change to structure, names,
//! priorities, bounds, or referenced definition names changes the digest.

use std::hash::Hasher;

use crate::env::Env;
use crate::expr::{BExpr, Expr};
use crate::hashed::Fnv1a;
use crate::term::{ActionT, EvKind, EventT, Proc, TimeBound};
use crate::symbol::Symbol;

/// A structural walk feeding an [`Fnv1a`] hasher, with length-prefixed
/// variable-width writes.
struct Walk {
    h: Fnv1a,
}

impl Walk {
    fn new() -> Walk {
        Walk { h: Fnv1a::new() }
    }

    fn byte(&mut self, b: u8) {
        self.h.write(&[b]);
    }

    fn u64(&mut self, v: u64) {
        self.h.write(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    /// Length-prefixed string bytes, so `("ab","c")` ≠ `("a","bc")`.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.h.write(s.as_bytes());
    }

    fn sym(&mut self, s: Symbol) {
        self.str(s.as_str());
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Const(v) => {
                self.byte(0);
                self.i64(*v);
            }
            Expr::Param(i) => {
                self.byte(1);
                self.byte(*i);
            }
            Expr::Add(a, b) => self.expr2(2, a, b),
            Expr::Sub(a, b) => self.expr2(3, a, b),
            Expr::Mul(a, b) => self.expr2(4, a, b),
            Expr::Min(a, b) => self.expr2(5, a, b),
            Expr::Max(a, b) => self.expr2(6, a, b),
        }
    }

    fn expr2(&mut self, tag: u8, a: &Expr, b: &Expr) {
        self.byte(tag);
        self.expr(a);
        self.expr(b);
    }

    fn bexpr(&mut self, e: &BExpr) {
        match e {
            BExpr::Const(v) => {
                self.byte(0);
                self.byte(*v as u8);
            }
            BExpr::Lt(a, b) => self.cmp(1, a, b),
            BExpr::Le(a, b) => self.cmp(2, a, b),
            BExpr::Eq(a, b) => self.cmp(3, a, b),
            BExpr::Ne(a, b) => self.cmp(4, a, b),
            BExpr::And(a, b) => {
                self.byte(5);
                self.bexpr(a);
                self.bexpr(b);
            }
            BExpr::Or(a, b) => {
                self.byte(6);
                self.bexpr(a);
                self.bexpr(b);
            }
            BExpr::Not(a) => {
                self.byte(7);
                self.bexpr(a);
            }
        }
    }

    fn cmp(&mut self, tag: u8, a: &Expr, b: &Expr) {
        self.byte(tag);
        self.expr(a);
        self.expr(b);
    }

    fn action(&mut self, a: &ActionT) {
        self.u64(a.uses.len() as u64);
        for (res, prio) in &a.uses {
            self.sym(res.0);
            self.expr(prio);
        }
    }

    fn event(&mut self, e: &EventT) {
        match &e.kind {
            EvKind::Send(s) => {
                self.byte(0);
                self.sym(*s);
            }
            EvKind::Recv(s) => {
                self.byte(1);
                self.sym(*s);
            }
            EvKind::Tau(s) => {
                self.byte(2);
                match s {
                    None => self.byte(0),
                    Some(s) => {
                        self.byte(1);
                        self.sym(*s);
                    }
                }
            }
        }
        self.expr(&e.prio);
    }

    fn bound(&mut self, b: &TimeBound) {
        match b {
            TimeBound::Finite(e) => {
                self.byte(0);
                self.expr(e);
            }
            TimeBound::Infinite => self.byte(1),
        }
    }

    fn proc(&mut self, env: &Env, p: &Proc) {
        match p {
            Proc::Nil => self.byte(0),
            Proc::Act { action, tag, next } => {
                self.byte(1);
                self.action(action);
                match tag {
                    None => self.byte(0),
                    Some(t) => {
                        self.byte(1);
                        self.str(env.tag_text(*t));
                    }
                }
                self.proc(env, next);
            }
            Proc::Evt { event, next } => {
                self.byte(2);
                self.event(event);
                self.proc(env, next);
            }
            Proc::Choice(alts) => {
                self.byte(3);
                self.u64(alts.len() as u64);
                for alt in alts {
                    self.proc(env, alt);
                }
            }
            Proc::Par(parts) => {
                self.byte(4);
                self.u64(parts.len() as u64);
                for part in parts {
                    self.proc(env, part);
                }
            }
            Proc::Guard { cond, then } => {
                self.byte(5);
                self.bexpr(cond);
                self.proc(env, then);
            }
            Proc::Scope {
                body,
                limit,
                exception,
                timeout,
                interrupt,
            } => {
                self.byte(6);
                self.proc(env, body);
                self.bound(limit);
                match exception {
                    None => self.byte(0),
                    Some((label, handler)) => {
                        self.byte(1);
                        self.sym(*label);
                        self.proc(env, handler);
                    }
                }
                for opt in [timeout, interrupt] {
                    match opt {
                        None => self.byte(0),
                        Some(q) => {
                            self.byte(1);
                            self.proc(env, q);
                        }
                    }
                }
            }
            Proc::Restrict { body, labels } => {
                self.byte(7);
                self.proc(env, body);
                // The set is ordered by interner index — a process-local
                // order. Re-sort by string so the walk is reproducible.
                let mut names: Vec<&str> = labels.iter().map(|s| s.as_str()).collect();
                names.sort_unstable();
                self.u64(names.len() as u64);
                for name in names {
                    self.str(name);
                }
            }
            Proc::Close { body, resources } => {
                self.byte(8);
                self.proc(env, body);
                let mut names: Vec<&str> = resources.iter().map(|r| r.0.as_str()).collect();
                names.sort_unstable();
                self.u64(names.len() as u64);
                for name in names {
                    self.str(name);
                }
            }
            Proc::Invoke { def, args } => {
                self.byte(9);
                // By *name*, not by DefId: ids number declarations in
                // declaration order, which is as process-local as interner
                // indices.
                self.str(env.def(*def).name.as_str());
                self.u64(args.len() as u64);
                for arg in args {
                    self.expr(arg);
                }
            }
        }
    }
}

/// Digest a term, resolving every symbol, tag, and definition reference to
/// its string form. Stable across processes and interning histories.
pub fn stable_digest(env: &Env, p: &Proc) -> u64 {
    let mut w = Walk::new();
    w.proc(env, p);
    w.h.finish()
}

/// Fingerprint an environment: every definition in declaration order, as
/// `(name, arity, body digest)`. Two environments with the same fingerprint
/// unfold invocations identically (up to 64-bit collision), so a term digest
/// paired with an environment fingerprint identifies the transition system.
pub fn env_fingerprint(env: &Env) -> u64 {
    let mut w = Walk::new();
    w.u64(env.num_defs() as u64);
    for (_, def) in env.defs() {
        w.sym(def.name);
        w.byte(def.arity);
        match &def.body {
            None => w.byte(0),
            Some(body) => {
                w.byte(1);
                w.proc(env, body);
            }
        }
    }
    w.h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Res;
    use crate::term::{act, close, evt_send, invoke, nil, par, restrict};
    use crate::Expr;

    fn small_env() -> (Env, crate::term::P) {
        let mut env = Env::new();
        // Intern names in an order that disagrees with lexicographic order,
        // so an index-ordered walk of the restrict/close sets would differ
        // from the sorted-by-string walk.
        let zz = Symbol::new("zz_label");
        let aa = Symbol::new("aa_label");
        let cpu = Res::new("cpu");
        let body = act([(cpu, Expr::c(1))], evt_send(zz, 2, nil()));
        let id = env.define("Task", 1, body);
        let t = close(
            restrict(par([invoke(id, [Expr::c(3)])]), [zz, aa]),
            [cpu],
        );
        (env, t)
    }

    #[test]
    fn digests_keep_their_values_across_builds() {
        // Every artifact-store key is built from these two digests, so a
        // change to the walk's byte stream orphans every stored artifact.
        let (env, t) = small_env();
        assert_eq!(stable_digest(&env, &t), 0x0298_97c7_3151_0e3e);
        assert_eq!(env_fingerprint(&env), 0xf702_59a2_8449_c218);
    }

    #[test]
    fn digest_deterministic_and_discriminating() {
        let (env, t) = small_env();
        assert_eq!(stable_digest(&env, &t), stable_digest(&env, &t));
        let (env2, _) = small_env();
        let other = nil();
        assert_ne!(stable_digest(&env2, &other), stable_digest(&env, &t));
    }

    #[test]
    fn digest_ignores_interning_history() {
        // Digest the term, then intern a pile of unrelated symbols (as a
        // warm daemon that served other models would have), rebuild the
        // same term, and digest again. Index-based hashing would drift;
        // the stable walk must not.
        let (env, t) = small_env();
        let before = stable_digest(&env, &t);
        let fp_before = env_fingerprint(&env);
        for i in 0..64 {
            Symbol::new(&format!("noise_{i}"));
        }
        let (env2, t2) = small_env();
        assert_eq!(stable_digest(&env2, &t2), before);
        assert_eq!(env_fingerprint(&env2), fp_before);
    }

    #[test]
    fn fingerprint_tracks_definition_bodies() {
        let (env, _) = small_env();
        let mut changed = env.clone();
        let id = changed.lookup("Task").unwrap();
        changed.set_body(id, nil());
        assert_ne!(env_fingerprint(&env), env_fingerprint(&changed));
    }

    #[test]
    fn digest_sees_priorities_and_names() {
        let (env, _) = small_env();
        let cpu = Res::new("cpu");
        let a = act([(cpu, Expr::c(1))], nil());
        let b = act([(cpu, Expr::c(2))], nil());
        assert_ne!(stable_digest(&env, &a), stable_digest(&env, &b));
        let c = act([(Res::new("bus"), Expr::c(1))], nil());
        assert_ne!(stable_digest(&env, &a), stable_digest(&env, &c));
    }
}
