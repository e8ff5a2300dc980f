//! Cross-run exploration artifacts: the bridge between [`explore`] and a
//! persistent [`cas::CasStore`].
//!
//! The step memo ([`acsr::StepSession`]) dies with the process; the dominant
//! real workload is *sweeps* that re-analyze near-identical models run after
//! run. This module lets the explorer consult a content-addressed store
//! before exploring and deposit a summary artifact after, so a repeated
//! point costs a key derivation plus (for unschedulable models) a
//! trace-skeleton replay instead of a full state-space search.
//!
//! # Key derivation
//!
//! The store key commits to everything the artifact depends on:
//!
//! * a schema tag (`versa.exploration.v2`) so other layouts and engines can't
//!   collide (v1 keys came from builds whose default engine was the
//!   per-quantum search, whose stats describe a different graph),
//! * [`acsr::stable_digest`] of the initial term — the *string-stable* walk,
//!   not the in-memory [`acsr::TermId`] digest, which depends on this
//!   process's interning history,
//! * [`acsr::env_fingerprint`] of the definition environment,
//! * the caller's context string ([`Options::cas_context`] — the canonical
//!   translation-options fingerprint, so a `--protocol pcp` artifact can
//!   never answer a `--protocol none` query),
//! * the exploration options that change results: `max_states`,
//!   `stop_at_first_deadlock`, the id ceiling, and the zone-graph edge cap
//!   (the stats describe the zone graph, whose edges the cap splits).
//!
//! Only zone-graph runs are cached: an LTS run ([`Options::collect_lts`])
//! has no key.
//!
//! Changing any input changes the key; invalidation is purely structural
//! (stale artifacts are simply never addressed again).
//!
//! # Artifact payload
//!
//! ```text
//! u32  payload version (PAYLOAD_VERSION)
//! u8   flags: bit0 = deadlock skeleton present, bit1 = truncated
//! 88B  Stats (11 × u64 little-endian, duration as nanoseconds)
//! -- when bit0 is set --
//! u32  skeleton length n
//! n ×  (u32 successor index, u64 stable digest of the successor term)
//! ```
//!
//! The skeleton is the shortest deadlock trace recorded as *successor
//! indices* into [`acsr::StepSession::prioritized_steps`] order, which is
//! structural and therefore reproducible. Replay re-derives each step in
//! this process and checks the stable digest of every target, so a payload
//! that doesn't match the current semantics (however it got there) fails
//! closed into a recompute — a corrupt store can cost time, never a wrong
//! verdict. Labels are re-derived too, so diagnosis output is identical to
//! a cold run's.
//!
//! Replay rebuilds only the on-trace states: a cache-hit
//! [`Exploration`] carries verbatim cold-run [`Stats`] (except `duration`,
//! which is the replay's own wall time) but materializes just the trace, so
//! `num_states()` ≤ `stats.states` on a hit.

use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use acsr::{Env, Interned, MemoConfig, StepSession, TermStore, P};

use crate::explore::{Exploration, Options, StateId, Stats};
use crate::trace::Trace;

/// Version of the artifact payload layout. Bump on any change; older (and
/// newer) payloads are treated as invalid, i.e. recomputed and overwritten.
pub(crate) const PAYLOAD_VERSION: u32 = 1;

/// Derive the store key for this exploration, or `None` when the run is not
/// cacheable (no store configured, LTS collection requested — the artifact
/// carries no transition relation — or the token already fired).
pub(crate) fn key_for(env: &Env, initial: &P, opts: &Options, id_limit: usize) -> Option<String> {
    opts.cas.as_ref()?;
    if opts.collect_lts || opts.cancel.is_cancelled() {
        return None;
    }
    let term = acsr::stable_digest(env, initial);
    let fp = acsr::env_fingerprint(env);
    let term_bytes = term.to_le_bytes();
    let fp_bytes = fp.to_le_bytes();
    let max_states = (opts.max_states.min(u64::MAX as usize) as u64).to_le_bytes();
    let first = [opts.stop_at_first_deadlock as u8];
    let ids = (id_limit.min(u64::MAX as usize) as u64).to_le_bytes();
    let zone_cap = (opts.zone_cap.min(u64::MAX as usize) as u64).to_le_bytes();
    Some(cas::key(&[
        b"versa.exploration.v2",
        &term_bytes,
        &fp_bytes,
        opts.cas_context.as_bytes(),
        &max_states,
        &first,
        &ids,
        &zone_cap,
    ]))
}

/// A decoded artifact.
pub(crate) struct Artifact {
    stats: Stats,
    truncated: bool,
    /// `(successor index, stable digest of the target)` per trace step.
    skeleton: Option<Vec<(u32, u64)>>,
}

/// Encode the finished exploration as an artifact payload: its stats, and
/// the first deadlock's `(label, state)` chain out of `root` (`None` when
/// the run found no deadlock). Returns `None` when a chain step can't be
/// found in the memoized successor order (which would mean the engine and
/// the session disagree — then nothing is deposited rather than depositing
/// something unreplayable).
pub(crate) fn encode(
    env: &Env,
    session: &StepSession<'_>,
    root: &Interned,
    deadlock: Option<&Trace>,
    stats: &Stats,
    truncated: bool,
) -> Option<Vec<u8>> {
    let skeleton = match deadlock {
        None => None,
        Some(trace) => {
            let mut skel = Vec::with_capacity(trace.len());
            let mut cur = root.clone();
            for (label, p) in trace.iter() {
                let next = session.intern(p);
                let idx = session
                    .prioritized_steps(&cur)
                    .iter()
                    .position(|(l, t)| t.id() == next.id() && l == label)?;
                skel.push((idx as u32, acsr::stable_digest(env, p)));
                cur = next;
            }
            Some(skel)
        }
    };

    let mut out = Vec::with_capacity(4 + 1 + 88 + skeleton.as_ref().map_or(0, |s| 4 + 12 * s.len()));
    out.extend_from_slice(&PAYLOAD_VERSION.to_le_bytes());
    let mut flags = 0u8;
    if skeleton.is_some() {
        flags |= 1;
    }
    if truncated {
        flags |= 2;
    }
    out.push(flags);
    out.extend_from_slice(&stats.to_bytes());
    if let Some(skel) = &skeleton {
        out.extend_from_slice(&(skel.len() as u32).to_le_bytes());
        for (idx, digest) in skel {
            out.extend_from_slice(&idx.to_le_bytes());
            out.extend_from_slice(&digest.to_le_bytes());
        }
    }
    Some(out)
}

/// Bounds-checked little-endian reader over a payload.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.bytes.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Decode an artifact payload. `None` on any framing problem — wrong
/// version, short read, trailing bytes.
pub(crate) fn decode(bytes: &[u8]) -> Option<Artifact> {
    let mut r = Reader { bytes, pos: 0 };
    if r.u32()? != PAYLOAD_VERSION {
        return None;
    }
    let flags = r.u8()?;
    if flags & !3 != 0 {
        return None;
    }
    let stats = Stats::from_bytes(r.take(88)?)?;
    let skeleton = if flags & 1 != 0 {
        let n = r.u32()? as usize;
        // A skeleton can't be longer than the states it visited; reject
        // absurd lengths before allocating.
        if n > bytes.len() / 12 + 1 {
            return None;
        }
        let mut skel = Vec::with_capacity(n);
        for _ in 0..n {
            let idx = r.u32()?;
            let digest = r.u64()?;
            skel.push((idx, digest));
        }
        Some(skel)
    } else {
        None
    };
    if !r.done() {
        return None;
    }
    Some(Artifact {
        stats,
        truncated: flags & 2 != 0,
        skeleton,
    })
}

/// Replay a decoded artifact into an [`Exploration`]. `None` when any step
/// of the skeleton fails to re-derive (index out of range, stable digest
/// mismatch, final state not actually deadlocked) — callers then count an
/// invalidation and fall through to a full exploration.
pub(crate) fn replay(
    env: &Env,
    initial: &P,
    artifact: &Artifact,
    opts: &Options,
    start: Instant,
) -> Option<Exploration> {
    let store = opts
        .store
        .clone()
        .unwrap_or_else(|| Rc::new(TermStore::new()));
    let session = StepSession::new(env, store, MemoConfig::default());
    let root = session.intern(initial);

    let mut states = vec![root.clone()];
    let mut parents: Vec<Option<(StateId, acsr::Label)>> = vec![None];
    let mut deadlocks = Vec::new();

    if let Some(skeleton) = &artifact.skeleton {
        let mut cur = root;
        for &(idx, expected) in skeleton {
            let (label, target) = session
                .prioritized_steps(&cur)
                .into_iter()
                .nth(idx as usize)?;
            if acsr::stable_digest(env, target.term()) != expected {
                return None;
            }
            let prev = StateId((states.len() - 1) as u32);
            parents.push(Some((prev, label)));
            states.push(target.clone());
            cur = target;
        }
        if !session.prioritized_steps(&cur).is_empty() {
            return None;
        }
        deadlocks.push(StateId((states.len() - 1) as u32));
    }

    let mut stats = artifact.stats.clone();
    stats.duration = start.elapsed();
    Some(Exploration {
        states: states.iter().map(|s| s.term().clone()).collect(),
        parents,
        // A chain of unit edges: each state's depth is its index.
        depths: (0..states.len() as u64).collect(),
        replayed: HashMap::new(),
        deadlocks,
        lts: None,
        stats,
        truncated: artifact.truncated,
        cancelled: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Key-context completeness audit: every `Options` field that can change
    /// the explored state space (or how its artifact must be interpreted)
    /// must be serialized into the store key, or a stale artifact would
    /// silently answer a query it doesn't match. Flipping each such field —
    /// and the term, environment and id ceiling — must produce a distinct
    /// key; fields that are pure performance knobs (a shared store, the
    /// recorder) must NOT change the key, so warm sweeps still hit across
    /// them.
    #[test]
    fn key_commits_to_every_space_changing_option_and_nothing_else() {
        use acsr::prelude::*;

        let dir = std::env::temp_dir().join(format!("versa-key-audit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store =
            std::sync::Arc::new(cas::CasStore::open(&dir, cas::Mode::ReadWrite).unwrap());
        let env = Env::new();
        let p = act([(Res::new("cpu"), 1)], nil());
        let base = Options::default().with_cas(store.clone());
        let key = |opts: &Options, id_limit: usize| key_for(&env, &p, opts, id_limit);
        let base_key = key(&base, 1000).expect("cacheable");

        // Space-changing inputs: each flip must move the key.
        let mut distinct = vec![base_key.clone()];
        distinct.push(key(&base.clone().with_max_states(7), 1000).unwrap());
        distinct.push({
            let mut o = base.clone();
            o.stop_at_first_deadlock = true;
            key(&o, 1000).unwrap()
        });
        distinct.push(key(&base.clone().with_zone_cap(7), 1000).unwrap());
        distinct.push(key(&base.clone().with_cas_context("protocol=pcp"), 1000).unwrap());
        distinct.push(key(&base, 999).unwrap()); // id ceiling
        distinct.push(key_for(&env, &nil(), &base, 1000).unwrap()); // the term
        let mut env2 = Env::new();
        env2.declare("Extra", 0);
        distinct.push(key_for(&env2, &p, &base, 1000).unwrap()); // the environment
        // The same query as keyed by builds whose default was the per-quantum
        // search (domain v1, zones byte 0): its stats describe another graph.
        distinct.push(cas::key(&[
            b"versa.exploration.v1",
            &acsr::stable_digest(&env, &p).to_le_bytes(),
            &acsr::env_fingerprint(&env).to_le_bytes(),
            b"",
            &(usize::MAX as u64).to_le_bytes(),
            &[0],
            &1000u64.to_le_bytes(),
            &[0],
        ]));
        for i in 0..distinct.len() {
            for j in i + 1..distinct.len() {
                assert_ne!(distinct[i], distinct[j], "inputs {i} and {j} collided");
            }
        }

        // Performance knobs: none may move the key.
        assert_eq!(
            key(
                &base
                    .clone()
                    .with_store(std::rc::Rc::new(acsr::TermStore::new())),
                1000
            )
            .unwrap(),
            base_key
        );
        assert_eq!(
            key(&base.clone().with_obs(obs::Recorder::enabled()), 1000).unwrap(),
            base_key
        );

        // Non-cacheable configurations yield no key at all.
        assert!(key(&Options::default(), 1000).is_none()); // no store
        let mut lts = base.clone();
        lts.collect_lts = true;
        assert!(key(&lts, 1000).is_none());
        let cancelled = crate::explore::CancelToken::new();
        cancelled.cancel();
        assert!(key(&base.clone().with_cancel(cancelled), 1000).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn decode_rejects_framing_problems() {
        // Too short for the version field.
        assert!(decode(&[1, 0]).is_none());
        // Wrong version.
        let mut bad = Vec::new();
        bad.extend_from_slice(&(PAYLOAD_VERSION + 1).to_le_bytes());
        bad.push(0);
        bad.extend_from_slice(&[0u8; 88]);
        assert!(decode(&bad).is_none());
        // Unknown flag bits.
        let mut bad = Vec::new();
        bad.extend_from_slice(&PAYLOAD_VERSION.to_le_bytes());
        bad.push(0x80);
        bad.extend_from_slice(&[0u8; 88]);
        assert!(decode(&bad).is_none());
        // Trailing garbage.
        let mut bad = Vec::new();
        bad.extend_from_slice(&PAYLOAD_VERSION.to_le_bytes());
        bad.push(0);
        bad.extend_from_slice(&[0u8; 88]);
        bad.push(9);
        assert!(decode(&bad).is_none());
        // Skeleton flag set but skeleton missing.
        let mut bad = Vec::new();
        bad.extend_from_slice(&PAYLOAD_VERSION.to_le_bytes());
        bad.push(1);
        bad.extend_from_slice(&[0u8; 88]);
        assert!(decode(&bad).is_none());
        // Minimal valid payload round-trips.
        let mut ok = Vec::new();
        ok.extend_from_slice(&PAYLOAD_VERSION.to_le_bytes());
        ok.push(0);
        ok.extend_from_slice(&Stats::default().to_bytes());
        assert!(decode(&ok).is_some());
    }
}
