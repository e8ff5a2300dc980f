//! Hash-consed process terms: the [`TermStore`] interner.
//!
//! Exploration revisits the same subprocess terms relentlessly — every
//! periodic task re-enters the same skeleton states once per hyperperiod, and
//! every composed state shares almost all of its subterms with its
//! predecessor. A [`TermStore`] exploits that: it assigns each
//! *structurally unique* [`Proc`] subterm a stable [`TermId`] and keeps one
//! canonical [`P`] per structure, so
//!
//! * equality and hashing of interned terms are O(1) id comparisons, with
//!   no deep structural comparison anywhere;
//! * re-interning a term whose `Arc` is already canonical is a
//!   pointer-index hit, no tree walk at all;
//! * interning a freshly built successor walks only its *new spine*: shared
//!   children are canonical `Arc`s and resolve through the pointer fast path.
//!
//! The store keeps two tables, each in a [`RefCell`]: the entries together
//! with the two indexes that find them, and the memoized shapes. One
//! analysis owns a store and uses it from one thread, so interning takes
//! no lock, and the store is not `Sync`. The entries are a vector of
//! `(canonical term, digest)` addressed by [`TermId`]; one index finds an id
//! by structural digest, the other by canonical `Arc` address. Each index
//! is an open-addressing vector of `u32` ids that keeps no keys: a probe
//! reads a candidate's key back from its entry, so an interned term costs
//! its entry, two 4-byte slots in vectors kept at most 3/4 full, and no
//! allocation of its own. Structural digests are deterministic (FNV-1a
//! over node kind, local fields and child digests — no pointers, no random
//! keys). A [`TermId`] is the term's interning index: the exploration
//! interns in one order, so ids are reproducible run to run, but they are
//! only meaningful within the store that produced them and never appear in
//! results.
//!
//! # The canonical-children invariant
//!
//! Every term held by the store is *canonical*: its own `Arc` is the one the
//! store returns for its structure, and — recursively — so are all of its
//! children. [`TermStore::intern`] establishes this bottom-up, which is what
//! makes the shallow structural comparison sound: two canonical nodes are
//! structurally equal iff their variants and local fields match and their
//! children are pointer-equal.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::env::TagId;
use crate::expr::BExpr;
use crate::hashed::Fnv1a;
use crate::skeleton::{self, Factored};
use crate::symbol::{Res, Symbol};
use crate::term::{ActionT, EventT, Proc, TimeBound, P};

/// Identifier of a structurally-unique term within one [`TermStore`].
///
/// Two interned terms are structurally equal **iff** their ids are equal —
/// that is the whole point of hash-consing. Ids are only meaningful within
/// the store that produced them.
///
/// # Examples
///
/// ```
/// use acsr::prelude::*;
/// use acsr::store::TermStore;
///
/// let store = TermStore::new();
/// let a = store.intern(&act([(Res::new("cpu"), 1)], nil()));
/// let b = store.intern(&act([(Res::new("cpu"), 1)], nil())); // fresh Arc, same structure
/// assert_eq!(a.id(), b.id());
/// assert_ne!(a.id(), store.intern(&nil()).id());
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TermId(u32);

impl TermId {
    /// The raw 32-bit value: the term's index in interning order.
    pub fn raw(self) -> u32 {
        self.0
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interned term: its [`TermId`], its structural digest, and the canonical
/// `Arc` for its structure.
///
/// # Examples
///
/// ```
/// use acsr::prelude::*;
/// use acsr::store::TermStore;
///
/// let store = TermStore::new();
/// let i = store.intern(&act([(Res::new("cpu"), 1)], nil()));
/// // Interning the *canonical* Arc again is a pointer-index hit with the same id.
/// let again = store.intern(&i.term().clone());
/// assert_eq!(i.id(), again.id());
/// assert_eq!(i.digest(), again.digest());
/// ```
#[derive(Clone, Debug)]
pub struct Interned {
    id: TermId,
    digest: u64,
    term: P,
}

impl Interned {
    /// The term's id: O(1) equality and hashing.
    pub fn id(&self) -> TermId {
        self.id
    }

    /// The deterministic structural digest (after the store's digest mask).
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The canonical term.
    pub fn term(&self) -> &P {
        &self.term
    }

    /// Unwrap into the canonical term.
    pub fn into_term(self) -> P {
        self.term
    }
}

/// The store's entry table: id-addressed canonical entries and the two
/// indexes that find an entry's id from its keys.
#[derive(Default, Debug)]
struct EntryTable {
    /// `(canonical term, digest)`, indexed by [`TermId`].
    entries: Vec<(P, u64)>,
    /// Structural digest → id. Ids sharing a digest lie on one probe
    /// sequence and are told apart by shallow comparison.
    by_digest: IdIndex,
    /// Canonical `Arc` address → id. Only canonical pointers are ever
    /// indexed, and `entries` keeps every canonical `Arc` alive, so an
    /// address can never be recycled while it is a key.
    by_ptr: IdIndex,
}

impl EntryTable {
    /// The id of the entry whose canonical `Arc` is `p`.
    fn find_ptr(&self, p: &P) -> Option<TermId> {
        self.by_ptr
            .find(ptr_key(p), |id| {
                Arc::ptr_eq(&self.entries[id as usize].0, p)
            })
            .map(TermId)
    }

    /// The id of the entry with `digest` whose node `is_node` accepts.
    fn find_digest(&self, digest: u64, is_node: impl Fn(&Proc) -> bool) -> Option<TermId> {
        self.by_digest
            .find(digest, |id| {
                let (term, d) = &self.entries[id as usize];
                *d == digest && is_node(term)
            })
            .map(TermId)
    }

    /// Append a new canonical entry and index it under both keys.
    fn push(&mut self, canon: P, digest: u64) -> TermId {
        let id = IdIndex::id_for(self.entries.len())
            .map(TermId)
            .expect("term store overflow");
        self.entries.push((canon, digest));
        let entries = &self.entries;
        self.by_digest.push(id.0, |i| entries[i as usize].1);
        self.by_ptr.push(id.0, |i| ptr_key(&entries[i as usize].0));
        id
    }
}

/// The pointer index's key: the canonical `Arc`'s address.
fn ptr_key(p: &P) -> u64 {
    Arc::as_ptr(p) as usize as u64
}

/// An open-addressing index of dense `u32` ids: a power-of-two vector of
/// slots, each holding `id + 1` (0 is empty), probed linearly from a key's
/// home slot and doubled when more than 3/4 full. It keeps no keys: its
/// owner reads a candidate's key back from the entry the id names. The
/// store indexes its entries with it (a [`TermId`] wraps the id) and each
/// step session its timed labels; ids are positions in the owner's entry
/// vector, each taken from [`IdIndex::id_for`].
#[derive(Default, Debug)]
pub(crate) struct IdIndex {
    slots: Vec<u32>,
}

impl IdIndex {
    /// Slots of the first allocation.
    const MIN_SLOTS: usize = 16;

    /// The id of the entry at position `len`, the next one an owner
    /// appends: `None` past the largest id, `u32::MAX - 1`, since a slot
    /// holds `id + 1`.
    pub(crate) fn id_for(len: usize) -> Option<u32> {
        u32::try_from(len).ok().filter(|&id| id < u32::MAX)
    }

    /// The first id on `key`'s probe sequence that `is_hit` accepts.
    pub(crate) fn find(&self, key: u64, is_hit: impl Fn(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            match self.slots[i] {
                0 => return None,
                slot if is_hit(slot - 1) => return Some(slot - 1),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Index `id`, the newest id; `key` gives the key of every id up to it.
    /// Past 3/4 full the index doubles and re-places every id from its key.
    pub(crate) fn push(&mut self, id: u32, key: impl Fn(u32) -> u64) {
        let len = id as usize + 1;
        if 4 * len > 3 * self.slots.len() {
            self.slots = vec![0; (2 * self.slots.len()).max(Self::MIN_SLOTS)];
            for raw in 0..=id {
                self.place(key(raw), raw);
            }
        } else {
            self.place(key(id), id);
        }
    }

    fn place(&mut self, key: u64, id: u32) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        while self.slots[i] != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = id + 1;
    }

    /// `key`'s home slot: the top bits of its Fibonacci hash, so aligned
    /// addresses (low bits always zero) spread as well as digests do.
    fn home(&self, key: u64) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }
}

/// A hash-consing interner for [`Proc`] terms.
///
/// See the [module documentation](self) for the design; see
/// [`TermStore::with_digest_mask`] for the collision-injection hook used by
/// the property tests. A store has one owner and is not `Sync`:
///
/// ```compile_fail
/// fn shared<T: Sync>() {}
/// shared::<acsr::TermStore>();
/// ```
///
/// # Examples
///
/// ```
/// use acsr::prelude::*;
/// use acsr::store::TermStore;
///
/// let store = TermStore::new();
/// let cpu = Res::new("cpu");
/// // Two structurally equal trees built independently...
/// let a = store.intern(&act([(cpu, 1)], act([(cpu, 2)], nil())));
/// let b = store.intern(&act([(cpu, 1)], act([(cpu, 2)], nil())));
/// // ...collapse to one id and one canonical Arc.
/// assert_eq!(a.id(), b.id());
/// assert!(std::sync::Arc::ptr_eq(a.term(), b.term()));
/// // Subterms are interned too: the tree above has 3 unique nodes.
/// assert_eq!(store.len(), 3);
/// ```
#[derive(Debug)]
pub struct TermStore {
    /// The entries and both indexes.
    entries: RefCell<EntryTable>,
    /// [`TermId`] → factored shape, memoized on first demand. Shapes live
    /// with the store so their lifetime matches the ids that key them.
    shapes: RefCell<HashMap<TermId, Arc<Factored>>>,
    digest_mask: u64,
}

impl Default for TermStore {
    fn default() -> TermStore {
        TermStore::new()
    }
}

impl TermStore {
    /// An empty store.
    pub fn new() -> TermStore {
        TermStore::with_digest_mask(u64::MAX)
    }

    /// An empty store whose structural digests are AND-ed with `mask` —
    /// a *testing* hook that forces digest collisions (`mask = 0` collapses
    /// every digest to zero). Interning stays correct under any mask: a
    /// digest probe tells the entries sharing a digest apart by shallow
    /// structural comparison, so structurally distinct terms always receive
    /// distinct ids.
    ///
    /// # Examples
    ///
    /// ```
    /// use acsr::prelude::*;
    /// use acsr::store::TermStore;
    ///
    /// let store = TermStore::with_digest_mask(0);
    /// let a = store.intern(&act([(Res::new("cpu"), 1)], nil()));
    /// let b = store.intern(&act([(Res::new("cpu"), 2)], nil()));
    /// assert_eq!(a.digest(), b.digest()); // digests forced to collide...
    /// assert_ne!(a.id(), b.id()); // ...but distinct structures stay distinct
    /// ```
    pub fn with_digest_mask(mask: u64) -> TermStore {
        TermStore {
            entries: RefCell::default(),
            shapes: RefCell::default(),
            digest_mask: mask,
        }
    }

    /// The factored shape of `t` ([`skeleton::factor`]), memoized per
    /// [`TermId`]. The closed-form delay advance factors every state it
    /// touches; states revisited across zone edges hit the memo.
    ///
    /// # Examples
    ///
    /// ```
    /// use acsr::prelude::*;
    /// use acsr::store::TermStore;
    ///
    /// let store = TermStore::new();
    /// let t = store.intern(&act([(Res::new("cpu"), 1)], nil()));
    /// let f = store.shape_of(&t);
    /// assert_eq!(f.values, vec![1]); // one chain hole of length 1
    /// assert!(std::sync::Arc::ptr_eq(&f, &store.shape_of(&t))); // memoized
    /// ```
    pub fn shape_of(&self, t: &Interned) -> Arc<Factored> {
        if let Some(f) = self.shapes.borrow().get(&t.id()) {
            return f.clone();
        }
        let f = Arc::new(skeleton::factor(t.term()));
        self.note_shape(t, f.clone());
        f
    }

    /// Record a shape already known for `t` (because `t` was produced by
    /// [`skeleton::rebuild`] from a factored template), sparing the factor
    /// walk on the next [`TermStore::shape_of`]. A shape already recorded
    /// for `t` is kept: both are the same factorization.
    pub fn note_shape(&self, t: &Interned, f: Arc<Factored>) {
        self.shapes.borrow_mut().entry(t.id()).or_insert(f);
    }

    /// Number of structurally-unique subterms interned so far.
    pub fn len(&self) -> usize {
        self.entries.borrow().entries.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Intern `p` (and, recursively, every subterm), returning its id,
    /// digest and canonical `Arc`.
    ///
    /// Cost: O(1) when `p` is already canonical (pointer-index hit); otherwise
    /// linear in the *non-canonical spine* of `p` — children that are already
    /// canonical stop the recursion at a pointer hit each.
    pub fn intern(&self, p: &P) -> Interned {
        if let Some(hit) = self.ptr_lookup(p) {
            return hit;
        }
        self.intern_slow(p)
    }

    /// Look up the entry for `id`.
    ///
    /// # Panics
    ///
    /// Panics when `id` did not come from this store.
    pub fn resolve(&self, id: TermId) -> Interned {
        let table = self.entries.borrow();
        let (term, digest) = &table.entries[id.index()];
        Interned {
            id,
            digest: *digest,
            term: term.clone(),
        }
    }

    fn ptr_lookup(&self, p: &P) -> Option<Interned> {
        let table = self.entries.borrow();
        let id = table.find_ptr(p)?;
        Some(Interned {
            id,
            digest: table.entries[id.index()].1,
            term: p.clone(),
        })
    }

    /// Canonicalize `p`'s children, digest the node, and insert (or find) it.
    fn intern_slow(&self, p: &P) -> Interned {
        let (digest, canon): (u64, P) = match &**p {
            Proc::Nil => (digest_nil(), p.clone()),
            Proc::Act { action, tag, next } => {
                let next_i = self.intern(next);
                let digest = digest_act(action, tag, next_i.digest);
                let canon = if Arc::ptr_eq(next, &next_i.term) {
                    p.clone()
                } else {
                    Arc::new(Proc::Act {
                        action: action.clone(),
                        tag: *tag,
                        next: next_i.term,
                    })
                };
                (digest, canon)
            }
            Proc::Evt { event, next } => {
                let next_i = self.intern(next);
                let digest = digest_evt(event, next_i.digest);
                let canon = if Arc::ptr_eq(next, &next_i.term) {
                    p.clone()
                } else {
                    Arc::new(Proc::Evt {
                        event: event.clone(),
                        next: next_i.term,
                    })
                };
                (digest, canon)
            }
            Proc::Choice(alts) => {
                let kids: Vec<Interned> = alts.iter().map(|a| self.intern(a)).collect();
                let digest = digest_list(3, &kids);
                let canon = if alts
                    .iter()
                    .zip(&kids)
                    .all(|(a, k)| Arc::ptr_eq(a, &k.term))
                {
                    p.clone()
                } else {
                    Arc::new(Proc::Choice(terms(&kids)))
                };
                (digest, canon)
            }
            Proc::Par(comps) => {
                let kids: Vec<Interned> = comps.iter().map(|c| self.intern(c)).collect();
                let digest = digest_list(4, &kids);
                let canon = if comps
                    .iter()
                    .zip(&kids)
                    .all(|(c, k)| Arc::ptr_eq(c, &k.term))
                {
                    p.clone()
                } else {
                    Arc::new(Proc::Par(terms(&kids)))
                };
                (digest, canon)
            }
            Proc::Guard { cond, then } => {
                let then_i = self.intern(then);
                let digest = digest_guard(cond, then_i.digest);
                let canon = if Arc::ptr_eq(then, &then_i.term) {
                    p.clone()
                } else {
                    Arc::new(Proc::Guard {
                        cond: cond.clone(),
                        then: then_i.term,
                    })
                };
                (digest, canon)
            }
            Proc::Scope {
                body,
                limit,
                exception,
                timeout,
                interrupt,
            } => {
                let body_i = self.intern(body);
                let exc_i = exception.as_ref().map(|(l, hd)| (*l, self.intern(hd)));
                let to_i = timeout.as_ref().map(|t| self.intern(t));
                let ir_i = interrupt.as_ref().map(|i| self.intern(i));
                let digest = digest_scope(limit, &body_i, &exc_i, &to_i, &ir_i);
                let unchanged = Arc::ptr_eq(body, &body_i.term)
                    && exception
                        .as_ref()
                        .zip(exc_i.as_ref())
                        .is_none_or(|((_, a), (_, b))| Arc::ptr_eq(a, &b.term))
                    && timeout
                        .as_ref()
                        .zip(to_i.as_ref())
                        .is_none_or(|(a, b)| Arc::ptr_eq(a, &b.term))
                    && interrupt
                        .as_ref()
                        .zip(ir_i.as_ref())
                        .is_none_or(|(a, b)| Arc::ptr_eq(a, &b.term));
                let canon = if unchanged {
                    p.clone()
                } else {
                    Arc::new(Proc::Scope {
                        body: body_i.term,
                        limit: limit.clone(),
                        exception: exc_i.map(|(l, hd)| (l, hd.term)),
                        timeout: to_i.map(Interned::into_term),
                        interrupt: ir_i.map(Interned::into_term),
                    })
                };
                (digest, canon)
            }
            Proc::Restrict { body, labels } => {
                let body_i = self.intern(body);
                let digest = digest_restrict(labels, body_i.digest);
                let canon = if Arc::ptr_eq(body, &body_i.term) {
                    p.clone()
                } else {
                    Arc::new(Proc::Restrict {
                        body: body_i.term,
                        labels: labels.clone(),
                    })
                };
                (digest, canon)
            }
            Proc::Close { body, resources } => {
                let body_i = self.intern(body);
                let digest = digest_close(resources, body_i.digest);
                let canon = if Arc::ptr_eq(body, &body_i.term) {
                    p.clone()
                } else {
                    Arc::new(Proc::Close {
                        body: body_i.term,
                        resources: resources.clone(),
                    })
                };
                (digest, canon)
            }
            Proc::Invoke { def, args } => {
                let mut h = Fnv1a::new();
                h.write_u8(9);
                def.hash(&mut h);
                args.hash(&mut h);
                (h.finish(), p.clone())
            }
        };
        self.insert(canon, digest & self.digest_mask)
    }

    // -- Fast-path node constructors -----------------------------------------
    //
    // The step session builds successor terms whose children it already holds
    // as [`Interned`] values. These constructors digest the node directly
    // from the children's digests and go straight to the entry table
    // ([`TermStore::find_or_insert`]) — no recursive walk, no per-child
    // pointer-index lookup. They MUST produce
    // the exact digest [`TermStore::intern_slow`] would (both paths share the
    // `digest_*` helpers), or structurally equal terms would be looked up
    // under different digests and be assigned two ids.

    /// Intern `Par(kids)` from already-interned components. The node is
    /// looked up first and allocated, at exactly `kids.len()` slots, only
    /// when the store does not hold it yet.
    pub(crate) fn mk_par(&self, kids: &[Interned]) -> Interned {
        let digest = digest_list(4, kids) & self.digest_mask;
        self.find_or_insert(
            digest,
            |e| match e {
                Proc::Par(comps) => {
                    comps.len() == kids.len()
                        && comps.iter().zip(kids).all(|(c, k)| Arc::ptr_eq(c, &k.term))
                }
                _ => false,
            },
            || Arc::new(Proc::Par(terms(kids))),
        )
    }

    /// Intern `Restrict { body, labels }` from an already-interned body,
    /// with the label set hashed once in `r`. Looked up before allocating,
    /// like [`TermStore::mk_par`].
    pub(crate) fn mk_restrict(&self, body: &Interned, r: &Restriction<'_>) -> Interned {
        let digest = finish_restrict(r.prefix.clone(), body.digest) & self.digest_mask;
        self.find_or_insert(
            digest,
            |e| match e {
                Proc::Restrict { body: b, labels } => {
                    Arc::ptr_eq(b, &body.term)
                        && (Arc::ptr_eq(labels, r.labels) || labels == r.labels)
                }
                _ => false,
            },
            || {
                Arc::new(Proc::Restrict {
                    body: body.term.clone(),
                    labels: r.labels.clone(),
                })
            },
        )
    }

    /// Intern `Close { body, resources }` from an already-interned body.
    pub(crate) fn mk_close(&self, body: &Interned, resources: &Arc<BTreeSet<Res>>) -> Interned {
        let digest = digest_close(resources, body.digest) & self.digest_mask;
        let canon = Arc::new(Proc::Close {
            body: body.term.clone(),
            resources: resources.clone(),
        });
        self.insert(canon, digest)
    }

    /// Intern a `Scope` node from already-interned children.
    pub(crate) fn mk_scope(
        &self,
        body: &Interned,
        limit: TimeBound,
        exception: &Option<(Symbol, Interned)>,
        timeout: &Option<Interned>,
        interrupt: &Option<Interned>,
    ) -> Interned {
        let digest = digest_scope(&limit, body, exception, timeout, interrupt) & self.digest_mask;
        let canon = Arc::new(Proc::Scope {
            body: body.term.clone(),
            limit,
            exception: exception.as_ref().map(|(l, hd)| (*l, hd.term.clone())),
            timeout: timeout.as_ref().map(|t| t.term.clone()),
            interrupt: interrupt.as_ref().map(|i| i.term.clone()),
        });
        self.insert(canon, digest)
    }

    /// Insert a node whose children are canonical, or find its existing
    /// entry. Entries sharing a digest are told apart by shallow structural
    /// comparison (children by pointer — sound because both sides are
    /// canonical).
    fn insert(&self, canon: P, digest: u64) -> Interned {
        self.find_or_insert(digest, |e| shallow_eq(e, &canon), || canon.clone())
    }

    /// The entry with `digest` that `is_node` accepts, or a new one holding
    /// `build()`. `is_node` must be the shallow comparison against the node
    /// `build` makes, so a node is only allocated when it is new.
    fn find_or_insert(
        &self,
        digest: u64,
        is_node: impl Fn(&Proc) -> bool,
        build: impl FnOnce() -> P,
    ) -> Interned {
        let mut table = self.entries.borrow_mut();
        if let Some(id) = table.find_digest(digest, is_node) {
            return Interned {
                id,
                digest,
                term: table.entries[id.index()].0.clone(),
            };
        }
        let canon = build();
        let id = table.push(canon.clone(), digest);
        Interned {
            id,
            digest,
            term: canon,
        }
    }
}

/// The terms of `kids`, in a vector of exactly their length. Collecting
/// `kids.into_iter().map(Interned::into_term)` would reuse `kids`'
/// allocation in place: three `P` slots per child.
fn terms(kids: &[Interned]) -> Vec<P> {
    kids.iter().map(|k| k.term.clone()).collect()
}

/// A restriction's label set with its digest prefix hashed once, for
/// wrapping every successor of one state in the same `Restrict`
/// ([`TermStore::mk_restrict`]). The prefix is the one
/// [`digest_restrict`] starts from, so both paths give one digest.
pub(crate) struct Restriction<'a> {
    labels: &'a Arc<BTreeSet<Symbol>>,
    prefix: Fnv1a,
}

impl<'a> Restriction<'a> {
    /// Hash `labels` into the prefix of every `Restrict` digest over them.
    pub(crate) fn new(labels: &'a Arc<BTreeSet<Symbol>>) -> Restriction<'a> {
        Restriction {
            labels,
            prefix: restrict_prefix(labels),
        }
    }
}

// ---------------------------------------------------------------------------
// Structural digests. One helper per node kind, shared by the recursive
// `intern_slow` walk and the `mk_*` fast-path constructors so the two paths
// cannot drift apart. Each digest covers the variant tag (a distinct byte per
// kind), the node's local fields via their `Hash` impls, and the children's
// *masked* digests — never pointers, never `TermId`s, so digests are
// deterministic across runs and interning orders.

fn digest_nil() -> u64 {
    let mut h = Fnv1a::new();
    h.write_u8(0);
    h.finish()
}

fn digest_act(action: &ActionT, tag: &Option<TagId>, next: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u8(1);
    action.hash(&mut h);
    tag.hash(&mut h);
    h.write_u64(next);
    h.finish()
}

fn digest_evt(event: &EventT, next: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u8(2);
    event.hash(&mut h);
    h.write_u64(next);
    h.finish()
}

/// Choice (`tag = 3`) and Par (`tag = 4`) digests: length-prefixed child list.
fn digest_list(tag: u8, kids: &[Interned]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u8(tag);
    h.write_usize(kids.len());
    for k in kids {
        h.write_u64(k.digest);
    }
    h.finish()
}

fn digest_guard(cond: &BExpr, then: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u8(5);
    cond.hash(&mut h);
    h.write_u64(then);
    h.finish()
}

fn digest_scope(
    limit: &TimeBound,
    body: &Interned,
    exception: &Option<(Symbol, Interned)>,
    timeout: &Option<Interned>,
    interrupt: &Option<Interned>,
) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u8(6);
    limit.hash(&mut h);
    h.write_u64(body.digest);
    match exception {
        Some((l, hd)) => {
            h.write_u8(1);
            l.hash(&mut h);
            h.write_u64(hd.digest);
        }
        None => h.write_u8(0),
    }
    match timeout {
        Some(t) => {
            h.write_u8(1);
            h.write_u64(t.digest);
        }
        None => h.write_u8(0),
    }
    match interrupt {
        Some(i) => {
            h.write_u8(1);
            h.write_u64(i.digest);
        }
        None => h.write_u8(0),
    }
    h.finish()
}

fn digest_restrict(labels: &Arc<BTreeSet<Symbol>>, body: u64) -> u64 {
    finish_restrict(restrict_prefix(labels), body)
}

/// The part of a `Restrict` digest that does not depend on the body.
fn restrict_prefix(labels: &Arc<BTreeSet<Symbol>>) -> Fnv1a {
    let mut h = Fnv1a::new();
    h.write_u8(7);
    labels.hash(&mut h);
    h
}

fn finish_restrict(mut prefix: Fnv1a, body: u64) -> u64 {
    prefix.write_u64(body);
    prefix.finish()
}

fn digest_close(resources: &Arc<BTreeSet<Res>>, body: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u8(8);
    resources.hash(&mut h);
    h.write_u64(body);
    h.finish()
}

/// Structural equality of two nodes *whose children are canonical in the same
/// store*: variant and local fields compare by value, children by `Arc`
/// pointer identity.
fn shallow_eq(a: &Proc, b: &Proc) -> bool {
    match (a, b) {
        (Proc::Nil, Proc::Nil) => true,
        (
            Proc::Act {
                action: a1,
                tag: t1,
                next: n1,
            },
            Proc::Act {
                action: a2,
                tag: t2,
                next: n2,
            },
        ) => a1 == a2 && t1 == t2 && Arc::ptr_eq(n1, n2),
        (
            Proc::Evt {
                event: e1,
                next: n1,
            },
            Proc::Evt {
                event: e2,
                next: n2,
            },
        ) => e1 == e2 && Arc::ptr_eq(n1, n2),
        (Proc::Choice(x), Proc::Choice(y)) | (Proc::Par(x), Proc::Par(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| Arc::ptr_eq(p, q))
        }
        (
            Proc::Guard {
                cond: c1,
                then: p1,
            },
            Proc::Guard {
                cond: c2,
                then: p2,
            },
        ) => c1 == c2 && Arc::ptr_eq(p1, p2),
        (
            Proc::Scope {
                body: b1,
                limit: l1,
                exception: e1,
                timeout: t1,
                interrupt: i1,
            },
            Proc::Scope {
                body: b2,
                limit: l2,
                exception: e2,
                timeout: t2,
                interrupt: i2,
            },
        ) => {
            Arc::ptr_eq(b1, b2)
                && l1 == l2
                && match (e1, e2) {
                    (None, None) => true,
                    (Some((s1, h1)), Some((s2, h2))) => s1 == s2 && Arc::ptr_eq(h1, h2),
                    _ => false,
                }
                && opt_ptr_eq(t1, t2)
                && opt_ptr_eq(i1, i2)
        }
        (
            Proc::Restrict {
                body: b1,
                labels: l1,
            },
            Proc::Restrict {
                body: b2,
                labels: l2,
            },
        ) => Arc::ptr_eq(b1, b2) && (Arc::ptr_eq(l1, l2) || l1 == l2),
        (
            Proc::Close {
                body: b1,
                resources: r1,
            },
            Proc::Close {
                body: b2,
                resources: r2,
            },
        ) => Arc::ptr_eq(b1, b2) && (Arc::ptr_eq(r1, r2) || r1 == r2),
        (
            Proc::Invoke { def: d1, args: a1 },
            Proc::Invoke { def: d2, args: a2 },
        ) => d1 == d2 && a1 == a2,
        _ => false,
    }
}

fn opt_ptr_eq(a: &Option<P>, b: &Option<P>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => Arc::ptr_eq(x, y),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    fn cpu() -> Res {
        Res::new("cpu")
    }

    #[test]
    fn structurally_equal_terms_share_one_id() {
        let store = TermStore::new();
        let a = store.intern(&act([(cpu(), 1)], evt_send(Symbol::new("done"), 1, nil())));
        let b = store.intern(&act([(cpu(), 1)], evt_send(Symbol::new("done"), 1, nil())));
        assert_eq!(a.id(), b.id());
        assert_eq!(a.digest(), b.digest());
        assert!(Arc::ptr_eq(a.term(), b.term()));
        // nil, evt, act — three unique nodes despite six interned.
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn distinct_structures_get_distinct_ids() {
        let store = TermStore::new();
        let mut ids = std::collections::HashSet::new();
        for i in 0..50 {
            let t = store.intern(&act([(cpu(), i)], nil()));
            assert!(ids.insert(t.id()), "id reused for distinct term");
        }
        assert_eq!(store.len(), 51); // 50 act nodes + nil
    }

    #[test]
    fn canonical_terms_have_canonical_children() {
        let store = TermStore::new();
        let inner = act([(cpu(), 2)], nil());
        let outer = store.intern(&act([(cpu(), 1)], inner));
        match &**outer.term() {
            Proc::Act { next, .. } => {
                let child = store.intern(next);
                assert!(Arc::ptr_eq(next, child.term()), "child not canonical");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn interning_canonical_arc_is_a_pointer_hit() {
        let store = TermStore::new();
        let first = store.intern(&par([act([(cpu(), 1)], nil()), nil()]));
        let before = store.len();
        let again = store.intern(first.term());
        assert_eq!(first.id(), again.id());
        assert_eq!(store.len(), before);
    }

    #[test]
    fn rebuilt_lists_hold_exactly_their_children() {
        let store = TermStore::new();
        let leaf = || act([(cpu(), 1)], nil());
        store.intern(&leaf());
        // The fresh `leaf()` resolves to the canonical one, so each node is
        // rebuilt around canonical children.
        for t in [choice([leaf(), nil()]), par([leaf(), nil(), nil()])] {
            let i = store.intern(&t);
            assert!(!Arc::ptr_eq(i.term(), &t), "node was not rebuilt");
            match &**i.term() {
                Proc::Choice(kids) | Proc::Par(kids) => assert_eq!(kids.capacity(), kids.len()),
                other => panic!("unexpected: {other:?}"),
            }
        }
    }

    #[test]
    fn resolve_round_trips() {
        let store = TermStore::new();
        let t = store.intern(&choice([act([(cpu(), 1)], nil()), nil()]));
        let r = store.resolve(t.id());
        assert_eq!(r.id(), t.id());
        assert_eq!(r.digest(), t.digest());
        assert!(Arc::ptr_eq(r.term(), t.term()));
    }

    #[test]
    fn all_variants_intern_and_distinguish() {
        let store = TermStore::new();
        let e = Symbol::new("e");
        let mut env = Env::new();
        let d = env.declare("D", 1);
        let terms: Vec<P> = vec![
            nil(),
            act([(cpu(), 1)], nil()),
            act_tagged([(cpu(), 1)], env.tag("t"), nil()),
            evt_send(e, 1, nil()),
            evt_recv(e, 1, nil()),
            tau(1, Some(e), nil()),
            tau(1, None, nil()),
            choice([act([(cpu(), 1)], nil()), nil()]),
            par([act([(cpu(), 1)], nil()), nil()]),
            guard(BExpr::lt(Expr::c(1), Expr::c(2)), nil()),
            scope(nil(), TimeBound::Finite(Expr::c(3)), None, None, None),
            scope(nil(), TimeBound::Infinite, Some((e, nil())), Some(nil()), Some(nil())),
            restrict(evt_send(e, 1, nil()), [e]),
            close(act([(cpu(), 1)], nil()), [cpu()]),
            invoke(d, [Expr::c(4)]),
            invoke(d, [Expr::c(5)]),
        ];
        let ids: Vec<TermId> = terms.iter().map(|t| store.intern(t).id()).collect();
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                assert_ne!(ids[i], ids[j], "terms {i} and {j} wrongly shared an id");
            }
        }
        // Re-interning structural copies reproduces every id.
        let again: Vec<TermId> = terms.iter().map(|t| store.intern(t).id()).collect();
        assert_eq!(ids, again);
    }

    #[test]
    fn digest_mask_collisions_never_merge_distinct_terms() {
        // 1 000 terms take both indexes from 16 to 2 048 slots, seven
        // doublings. Under mask 0 every digest probe starts at one home slot;
        // under 0xF sixteen clusters grow into each other.
        for mask in [0, 0xF, u64::MAX] {
            let store = TermStore::with_digest_mask(mask);
            let end = store.intern(&nil());
            let terms: Vec<Interned> = (0..1000)
                .map(|i| store.intern(&act([(cpu(), i)], end.term().clone())))
                .collect();
            let ids: std::collections::HashSet<TermId> = terms.iter().map(Interned::id).collect();
            assert_eq!(ids.len(), 1000, "mask {mask:#x} merged distinct terms");
            assert!(terms.iter().all(|t| t.digest() & !mask == 0));
            for (i, t) in (0..1000).zip(&terms) {
                let hit = store.ptr_lookup(t.term()).expect("canonical Arc not indexed");
                assert_eq!(hit.id(), t.id(), "mask {mask:#x}, term {i}");
                assert_eq!(store.intern(t.term()).id(), t.id());
                assert_eq!(store.len(), 1001, "re-interning a canonical Arc added an entry");
                // A structural copy finds its entry along the digest probe.
                let copy = store.intern(&act([(cpu(), i)], nil()));
                assert_eq!(copy.id(), t.id(), "mask {mask:#x}, structural copy of term {i}");
            }
            assert_eq!(store.len(), 1001);
            for raw in 0..1001 {
                let r = store.resolve(TermId(raw));
                assert_eq!(r.id().raw(), raw);
                assert_eq!(store.intern(r.term()).id(), r.id());
            }
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn resolve_foreign_id_panics() {
        let store = TermStore::new();
        let other = TermStore::new();
        // Intern enough terms that the foreign id's slot is out of range.
        let id = other.intern(&act([(cpu(), 1)], act([(cpu(), 2)], nil()))).id();
        let _ = store.resolve(id);
    }
}
