//! Whole-model translation — Algorithm 1 of the paper.
//!
//! Orchestrates the per-thread generators ([`skeleton`](crate::skeleton),
//! [`dispatcher`](crate::dispatcher)), the per-connection queue processes
//! ([`queue`](crate::queue)) and the optional latency observers
//! ([`observer`](crate::observer)) into one parallel composition, with every
//! internal event restricted so that communication can only happen as
//! synchronisation:
//!
//! ```text
//! ( S_t1 ∥ D_t1 ∥ S_t2 ∥ D_t2 ∥ … ∥ Q_e1 ∥ … ∥ Gen_dev ∥ … ∥ Obs ) \ {dispatch_*, done_*, q_*, deq_*, obs_*}
//! ```
//!
//! Decisions the paper leaves to the tool, made explicit here:
//!
//! * **Queues** are generated for semantic event / event-data connections
//!   whose destination thread is dispatched by events (aperiodic, sporadic).
//!   Periodic threads "are dispatched by a timer and therefore ignore
//!   external events" (§2) — no process consumes their queues, so none are
//!   generated (and no `e_q!` is added to the source, avoiding an artificial
//!   block on the restricted send).
//! * **Devices** that are ultimate sources of queued connections get a
//!   stimulus generator: periodic if the device declares a `Period`,
//!   otherwise a *free* generator that may raise the event at any instant —
//!   which makes the exploration exhaustive over arrival patterns.
//! * **Event sends** default to completion time (§4.4: "a common behavior of
//!   a periodic thread is to send data at the end of its computation
//!   period"); [`SendPattern::Anytime`] switches to the conservative
//!   raise-at-any-time self-loop.
//! * **Compact mode** (`TranslateOptions::compact`) drops the redundant
//!   skeleton deadline scope and the elapsed-time parameter where no dynamic
//!   priority needs them — the state-space reduction the paper lists as
//!   future work (§7). Defaults to the faithful Fig. 4/5 structure.

use aadl::check::{validate, ValidationError};
use aadl::instance::{CompId, InstanceModel};
use aadl::model::Category;
use aadl::properties::{DispatchProtocol, TimeVal};
use acsr::{
    act, choice, evt_send, invoke, par, restrict, scope, Env, Expr, Res, Symbol, TermStore,
    TimeBound, P,
};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use crate::compute::ComputeSpec;
use crate::dispatcher::{build_dispatcher, DispatcherKind};
use crate::modes::build_mode_manager;
use crate::names::{ComponentRole, EventMeaning, NameMap, ThreadNames};
use crate::observer::{build_observer, LatencyObserver};
use crate::policy::assign_priorities;
use crate::quantum::{derive_quantum, thread_timing};
use crate::queue::{build_queue, initial_queue};
use crate::skeleton::{build_skeleton, SkeletonSpec};

/// Errors from the translation.
#[derive(Debug)]
pub enum TranslateError {
    /// The instance model violates the §4.1 assumptions.
    Validation(Vec<ValidationError>),
    /// A construct outside the supported fragment.
    Unsupported(String),
    /// Quantum derivation failed.
    Quantum(String),
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::Validation(errs) => {
                writeln!(f, "the model violates the translation's assumptions (§4.1):")?;
                for e in errs {
                    writeln!(f, "  - {e}")?;
                }
                Ok(())
            }
            TranslateError::Unsupported(s) => write!(f, "unsupported: {s}"),
            TranslateError::Quantum(s) => write!(f, "quantum: {s}"),
        }
    }
}

impl std::error::Error for TranslateError {}

/// When does a thread raise its output events? (§4.4)
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum SendPattern {
    /// At the end of the computation (the paper's default for data event
    /// connections of periodic threads).
    #[default]
    AtCompletion,
    /// At any time while computing (the conservative default the paper
    /// describes for unrefined threads — "analysis results can be very
    /// conservative").
    Anytime,
}

/// Translation options.
#[derive(Clone, Debug, Default)]
pub struct TranslateOptions {
    /// Drop the redundant skeleton deadline scope and the elapsed-time
    /// parameter where possible (the "more compact state spaces" direction of
    /// §7). For purely periodic models the dispatcher already tracks elapsed
    /// time, so this shrinks each state's *term* (cheaper hashing, smaller
    /// memory) rather than the reachable state count; verdicts are identical.
    pub compact: bool,
    /// Override the scheduling quantum (defaults to `Scheduling_Quantum` or
    /// the GCD of all timing properties, §4.1).
    pub quantum: Option<TimeVal>,
    /// Output-event timing.
    pub send_pattern: SendPattern,
    /// End-to-end latency observers to weave into the model (§5).
    pub observers: Vec<LatencyObserver>,
    /// Accept root-level modes and generate the mode manager (extension; the
    /// paper's translation is single-mode, §4). When false, moded models are
    /// rejected by validation.
    pub enable_modes: bool,
    /// Replace the declared `Concurrency_Control_Protocol` of every
    /// critical-section-managed data component (§7 extension) — the
    /// `aadlsched --protocol` experiment hook for comparing verdicts under
    /// `None_Specified` / `Priority_Inheritance` / `Priority_Ceiling` without
    /// editing the model. Protocol-specific requirements (static priorities)
    /// are then checked against the override and surface as
    /// [`TranslateError::Unsupported`].
    pub protocol_override: Option<aadl::ConcurrencyControlProtocol>,
    /// Observability recorder; defaults to disabled (no-op). May be a
    /// request-scoped clone ([`obs::Recorder::scoped`]) — the `translate`
    /// span then parents under the caller's anchor span and carries the
    /// request tag.
    pub obs: obs::Recorder,
}

impl TranslateOptions {
    /// Canonical fingerprint of every option that changes the *generated
    /// model* (the term and environment), in a fixed field order. Two option
    /// values with equal fingerprints translate any given instance model to
    /// semantically identical ACSR; anything that could change a verdict
    /// changes the string. The `obs` handle is deliberately excluded — it
    /// changes what gets recorded, never what is generated.
    ///
    /// The analysis layer mixes this string into `cas` store keys (see
    /// `versa::Options::cas_context`), which is why stability of the format
    /// matters: reordering or renaming fields orphans every artifact
    /// deposited under the old rendering.
    pub fn canonical(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "compact={};quantum_ps={};send={:?};modes={};protocol={:?};observers=[",
            self.compact,
            self.quantum.map_or(-1, |q| q.as_ps()),
            self.send_pattern,
            self.enable_modes,
            self.protocol_override,
        );
        for (i, o) in self.observers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}->{}@{}", o.from.index(), o.to.index(), o.bound.as_ps());
        }
        s.push(']');
        s
    }
}

/// Counts of the generated processes — §4.1 reports this inventory for the
/// cruise-control example (6 threads, 6 dispatchers, no queues).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Inventory {
    /// Thread skeleton processes.
    pub threads: usize,
    /// Dispatcher processes.
    pub dispatchers: usize,
    /// Queue processes.
    pub queues: usize,
    /// Device stimulus generators.
    pub device_gens: usize,
    /// Latency observers.
    pub observers: usize,
    /// Mode managers (0 or 1; modes extension).
    pub mode_managers: usize,
}

/// The result of translating an AADL instance model.
pub struct TranslatedModel {
    /// The ACSR definition environment.
    pub env: Env,
    /// The composed, restricted initial term, canonicalized through `store`.
    pub initial: P,
    /// The hash-consed term store seeded with the initial term, fresh for
    /// every translation. Analysis passes it to the explorer so subterms
    /// shared between the initial term and reachable states intern to the
    /// same [`acsr::TermId`]s.
    pub store: Rc<TermStore>,
    /// The AADL ↔ ACSR name map for diagnostics.
    pub names: NameMap,
    /// The scheduling quantum in picoseconds.
    pub quantum_ps: i64,
    /// Process inventory.
    pub inventory: Inventory,
    /// [`TranslateOptions::canonical`] of the options this model was
    /// generated under — the context string the analysis layer mixes into
    /// persistent `cas` store keys.
    pub options_canon: String,
}

/// Translate a validated, fully bound instance model into ACSR.
pub fn translate(
    model: &InstanceModel,
    opts: &TranslateOptions,
) -> Result<TranslatedModel, TranslateError> {
    let mut errs = validate(model);
    if opts.enable_modes {
        // The modes extension lifts the single-mode restriction for the root.
        let root = model.root();
        errs.retain(|e| {
            !matches!(e, ValidationError::MultiMode { component }
                if *component == model.component(root).display_path())
        });
    }
    if !errs.is_empty() {
        return Err(TranslateError::Validation(errs));
    }

    let quantum_ps = match opts.quantum {
        Some(q) if q.as_ps() > 0 => q.as_ps(),
        Some(q) => return Err(TranslateError::Quantum(format!("quantum {q} must be positive"))),
        None => derive_quantum(model)?,
    };

    // Opened only after the fallible validation/quantum phase, so rejected
    // models never leave a half-recorded span behind.
    let span = opts.obs.span("translate");

    let mut env = Env::new();
    let mut nm = NameMap::default();
    let mut inventory = Inventory::default();

    // Shared idle process.
    let idle_def = env.declare("Idle", 0);
    env.set_body(idle_def, act([] as [(Res, Expr); 0], invoke(idle_def, [])));

    // ------------------------------------------------------------------
    // Queued connections (§4.4) and the event plumbing they induce.
    // ------------------------------------------------------------------
    let mut queue_names = Vec::new();
    // thread → events to send at completion, in connection order.
    let mut sends_of: HashMap<CompId, Vec<(Symbol, i64)>> = HashMap::new();
    // event-driven thread → dispatch triggers (deq, urgency).
    let mut triggers_of: HashMap<CompId, Vec<(Symbol, i64)>> = HashMap::new();
    // device → events its generator raises.
    let mut device_sends: HashMap<CompId, Vec<(Symbol, i64)>> = HashMap::new();

    for (ci, conn) in model.connections.iter().enumerate() {
        if !conn.kind.is_queued() {
            continue;
        }
        let dst = model.component(conn.dst.0);
        if dst.category != Category::Thread
            || !dst
                .properties
                .dispatch_protocol()
                .is_some_and(DispatchProtocol::is_event_driven)
        {
            // Periodic destinations ignore events (§2); nothing consumes the
            // queue, so none is generated.
            continue;
        }
        let stem = format!("c{ci}_{}", conn.name.replace(['/', '.'], "_"));
        let size = conn.properties.queue_size();
        let overflow = conn.properties.overflow_handling();
        let urgency = conn.properties.urgency().max(1);
        let names = build_queue(&mut env, &mut nm, ci, &stem, size, overflow, urgency);
        triggers_of
            .entry(conn.dst.0)
            .or_default()
            .push((names.dequeue, urgency));
        let src = model.component(conn.src.0);
        match src.category {
            Category::Thread => sends_of
                .entry(conn.src.0)
                .or_default()
                .push((names.enqueue, 1)),
            Category::Device => device_sends
                .entry(conn.src.0)
                .or_default()
                .push((names.enqueue, 1)),
            _ => {}
        }
        queue_names.push(names);
        inventory.queues += 1;
    }

    // ------------------------------------------------------------------
    // Latency observers: register probe events and attach them to the
    // completion chains of the observed threads (§5).
    // ------------------------------------------------------------------
    let mut observer_defs = Vec::new();
    for (oi, obs) in opts.observers.iter().enumerate() {
        let start = Symbol::new(&format!("obs{oi}_start"));
        let end = Symbol::new(&format!("obs{oi}_end"));
        nm.add_event(start, EventMeaning::ObserverStart(oi));
        nm.add_event(end, EventMeaning::ObserverEnd(oi));
        let bound_q = (obs.bound.as_ps() / quantum_ps).max(1);
        let def = build_observer(&mut env, &mut nm, oi, start, end, bound_q);
        sends_of.entry(obs.from).or_default().push((start, 1));
        sends_of.entry(obs.to).or_default().push((end, 1));
        observer_defs.push(def);
        inventory.observers += 1;
    }

    // ------------------------------------------------------------------
    // Modes extension: the mode manager and per-thread gates.
    // ------------------------------------------------------------------
    let mode_setup = if opts.enable_modes {
        build_mode_manager(&mut env, &mut nm, model)?
    } else {
        None
    };
    if let Some(setup) = &mode_setup {
        for (tid, sends) in &setup.trigger_sends {
            sends_of.entry(*tid).or_default().extend(sends.iter().copied());
        }
    }

    // ------------------------------------------------------------------
    // Per processor, per thread: skeleton + dispatcher (Algorithm 1).
    // ------------------------------------------------------------------
    let mut components: Vec<P> = Vec::new();

    // First pass: per-processor scheduling plans (thread sets, timings,
    // priorities). Computed up front because concurrency-control resolution
    // needs the priorities of *all* accessors of a shared data component —
    // ceilings cross processor boundaries.
    struct ProcPlan {
        threads: Vec<CompId>,
        timings: Vec<crate::quantum::ThreadTiming>,
        prios: Vec<crate::policy::PrioSpec>,
        cpu: Res,
    }
    let mut plans: Vec<ProcPlan> = Vec::new();
    let processors: Vec<CompId> = model.processors().map(|p| p.id).collect();
    for &proc in &processors {
        let threads = model.threads_on(proc);
        if threads.is_empty() {
            continue;
        }
        let protocol = model
            .component(proc)
            .properties
            .scheduling_protocol()
            .ok_or_else(|| {
                TranslateError::Unsupported(format!(
                    "processor `{}` has no recognizable Scheduling_Protocol",
                    model.component(proc).display_path()
                ))
            })?;
        let timings = threads
            .iter()
            .map(|&t| thread_timing(model, t, quantum_ps))
            .collect::<Result<Vec<_>, _>>()?;
        let prios = assign_priorities(model, protocol, &threads, &timings)?;
        let cpu = Res::new(&format!("cpu_{}", crate::names::stem_of(model, proc)));
        plans.push(ProcPlan {
            threads,
            timings,
            prios,
            cpu,
        });
    }

    // Concurrency-control resolution (§7 extension): one CsSpec per thread
    // with a critical section on a shared data component.
    let mut prio_of = HashMap::new();
    let mut cmin_of = HashMap::new();
    for plan in &plans {
        for ((&tid, timing), prio) in plan.threads.iter().zip(&plan.timings).zip(&plan.prios) {
            prio_of.insert(tid, prio.clone());
            cmin_of.insert(tid, timing.cmin_q);
        }
    }
    let mut cs_of = crate::protocol::resolve_protocols(
        model,
        &mut nm,
        opts.protocol_override,
        quantum_ps,
        &prio_of,
        &cmin_of,
    )?;
    let cs_threads = cs_of.len();
    if opts.obs.is_enabled() {
        let cs_quanta = opts.obs.histogram("protocol.cs_quanta");
        for cs in cs_of.values() {
            cs_quanta.observe(cs.cs_q as u64);
        }
    }

    // Second pass: generate skeleton + dispatcher per thread (Algorithm 1).
    for plan in &plans {
        let cpu = plan.cpu;
        for ((&tid, timing), prio) in plan.threads.iter().zip(&plan.timings).zip(&plan.prios) {
            let stem = crate::names::stem_of(model, tid);
            let dispatch = Symbol::new(&format!("dispatch_{stem}"));
            let done = Symbol::new(&format!("done_{stem}"));
            nm.add_event(dispatch, EventMeaning::Dispatch(tid));
            nm.add_event(done, EventMeaning::Done(tid));

            // Bus resources of bus-bound outgoing semantic connections (§4.2).
            let mut final_resources: Vec<Res> = Vec::new();
            for conn in model.connections_from(tid) {
                for &b in &conn.buses {
                    let r = Res::new(&format!("bus_{}", crate::names::stem_of(model, b)));
                    if !final_resources.contains(&r) {
                        final_resources.push(r);
                    }
                }
            }

            // Shared data resources of the thread's access connections — the
            // `R` set of Fig. 5. Data managed by this thread's critical
            // section is excluded: the CS states claim its lock themselves.
            let cs_spec = cs_of.remove(&tid);
            let mut shared_resources: Vec<Res> = Vec::new();
            for acc in model.accesses_of(tid) {
                if cs_spec.as_ref().is_some_and(|c| c.data == acc.data) {
                    continue;
                }
                let r = Res::new(&format!("data_{}", crate::names::stem_of(model, acc.data)));
                if !shared_resources.contains(&r) {
                    shared_resources.push(r);
                }
            }

            let thread_sends = sends_of.get(&tid).cloned().unwrap_or_default();
            let (sends, anytime_sends) = match opts.send_pattern {
                SendPattern::AtCompletion => (thread_sends, Vec::new()),
                // Observer probes must stay deterministic at completion;
                // only connection events move to the self-loop.
                SendPattern::Anytime => {
                    let (probes, conns): (Vec<_>, Vec<_>) =
                        thread_sends.into_iter().partition(|(s, _)| {
                            matches!(
                                nm.event(*s),
                                Some(EventMeaning::ObserverStart(_))
                                    | Some(EventMeaning::ObserverEnd(_))
                            )
                        });
                    // Anytime raises are nondeterministic, not urgent:
                    // priority 0 so the τ never preempts time (an urgent τ
                    // self-loop on a saturated dropping queue would stop the
                    // clock).
                    (probes, conns.into_iter().map(|(s, _)| (s, 0)).collect())
                }
            };

            let needs_elapsed = prio.needs_elapsed();
            let faithful = !opts.compact || needs_elapsed;
            let track_elapsed = needs_elapsed || faithful;

            let skel = build_skeleton(
                &mut env,
                &mut nm,
                tid,
                &stem,
                SkeletonSpec {
                    compute: ComputeSpec {
                        cpu,
                        prio,
                        cmin_q: timing.cmin_q,
                        cmax_q: timing.cmax_q,
                        final_resources,
                        shared_resources,
                        sends,
                        anytime_sends,
                        done,
                        after_done: acsr::nil(), // overwritten by build_skeleton
                        track_elapsed,
                        critical_section: cs_spec,
                    },
                    dispatch_protocol: timing.dispatch,
                    dispatch,
                    deadline_q: timing.deadline_q,
                    faithful_scope: faithful,
                    idle_def,
                },
            );

            let kind = match timing.dispatch {
                DispatchProtocol::Periodic => DispatcherKind::Periodic {
                    period_q: timing.period_q.expect("validated"),
                    deadline_q: timing.deadline_q.expect("validated"),
                },
                DispatchProtocol::Aperiodic => DispatcherKind::Aperiodic {
                    deadline_q: timing.deadline_q.expect("validated"),
                    triggers: triggers_of.get(&tid).cloned().unwrap_or_default(),
                },
                DispatchProtocol::Sporadic => DispatcherKind::Sporadic {
                    separation_q: timing.period_q.expect("validated"),
                    deadline_q: timing.deadline_q.expect("validated"),
                    triggers: triggers_of.get(&tid).cloned().unwrap_or_default(),
                },
                DispatchProtocol::Background => DispatcherKind::Background,
            };
            let gate = mode_setup.as_ref().and_then(|ms| ms.gates.get(&tid));
            let disp = build_dispatcher(
                &mut env, &mut nm, tid, &stem, dispatch, done, idle_def, &kind, gate,
            );

            nm.threads.push(ThreadNames {
                thread: tid,
                stem: stem.clone(),
                dispatch,
                done,
                skel_def: skel.skel_def,
                compute_def: skel.compute_def,
                preempted_def: skel.preempted_def,
                violation_def: skel.violation_def,
                disp_def: disp.disp_def,
                miss_def: disp.miss_def,
            });

            components.push(invoke(skel.skel_def, []));
            nm.roles.push(ComponentRole::Skeleton(tid));
            components.push(disp.initial.clone());
            nm.roles.push(ComponentRole::Dispatcher(tid));
            inventory.threads += 1;
            inventory.dispatchers += 1;
        }
    }

    // ------------------------------------------------------------------
    // Queues, device generators, observers.
    // ------------------------------------------------------------------
    for names in &queue_names {
        components.push(initial_queue(names));
        nm.roles.push(ComponentRole::Queue(names.conn));
    }
    nm.conns = queue_names;

    for (dev, sends) in {
        let mut v: Vec<_> = device_sends.into_iter().collect();
        v.sort_by_key(|(d, _)| *d);
        v
    } {
        let stem = crate::names::stem_of(model, dev);
        let gen_def = env.declare(&format!("DevGen_{stem}"), 0);
        let period_q = model
            .component(dev)
            .properties
            .period()
            .map(|p| (p.as_ps() / quantum_ps).max(1));
        let body = match period_q {
            Some(p) => {
                // Emit all events now, then idle out the period and repeat.
                let wait_def = env.declare(&format!("DevWait_{stem}"), 0);
                env.set_body(
                    wait_def,
                    act([] as [(Res, Expr); 0], invoke(wait_def, [])),
                );
                let mut chain = scope(
                    invoke(wait_def, []),
                    TimeBound::Finite(Expr::c(p)),
                    None,
                    Some(invoke(gen_def, [])),
                    None,
                );
                for (sym, prio) in sends.iter().rev() {
                    chain = evt_send(*sym, *prio, chain);
                }
                chain
            }
            None => {
                // Free generator: raise any of the events at any instant —
                // exhaustive over arrival patterns. Priority 0: the arrival
                // is nondeterministic, never urgent (see the queue comment).
                let mut alts = vec![act([] as [(Res, Expr); 0], invoke(gen_def, []))];
                for (sym, _) in &sends {
                    alts.push(evt_send(*sym, 0, invoke(gen_def, [])));
                }
                choice(alts)
            }
        };
        env.set_body(gen_def, body);
        components.push(invoke(gen_def, []));
        nm.roles.push(ComponentRole::DeviceGen(dev));
        inventory.device_gens += 1;
    }

    for (oi, def) in observer_defs.iter().enumerate() {
        components.push(invoke(*def, []));
        nm.roles.push(ComponentRole::Observer(oi));
    }

    if let Some(setup) = &mode_setup {
        components.push(setup.manager_initial.clone());
        nm.roles.push(ComponentRole::ModeManager);
        inventory.mode_managers += 1;
    }

    let restricted = nm.restricted();
    let initial = restrict(par(components), restricted);
    debug_assert!(env.check_complete().is_ok());

    // Canonicalize the composed term so the explorer starts from a store
    // already holding every subterm of the initial state.
    let store = Rc::new(TermStore::new());
    let initial = store.intern(&initial).into_term();

    if opts.obs.is_enabled() {
        let skel_sizes = opts.obs.histogram("translate.skeleton_size");
        let disp_sizes = opts.obs.histogram("translate.dispatcher_size");
        for t in &nm.threads {
            skel_sizes.observe(def_size(&env, t.skel_def));
            disp_sizes.observe(def_size(&env, t.disp_def));
        }
        let queue_sizes = opts.obs.histogram("translate.queue_size");
        for q in &nm.conns {
            queue_sizes.observe(def_size(&env, q.queue_def));
        }
        opts.obs
            .histogram("translate.initial_term_size")
            .observe(term_size(&initial));
    }
    span.set("threads", inventory.threads as i64);
    span.set("dispatchers", inventory.dispatchers as i64);
    span.set("queues", inventory.queues as i64);
    span.set("device_gens", inventory.device_gens as i64);
    span.set("observers", inventory.observers as i64);
    span.set("mode_managers", inventory.mode_managers as i64);
    span.set("cs_threads", cs_threads as i64);
    span.set("defs", env.num_defs() as i64);
    span.set("quantum_ps", quantum_ps);
    span.end();

    Ok(TranslatedModel {
        env,
        initial,
        store,
        names: nm,
        quantum_ps,
        inventory,
        options_canon: opts.canonical(),
    })
}

/// Structural size (node count) of an ACSR term — the proxy for per-state
/// memory and hashing cost that the observability report tracks per
/// generated process.
pub fn term_size(p: &acsr::Proc) -> u64 {
    match p {
        acsr::Proc::Nil | acsr::Proc::Invoke { .. } => 1,
        acsr::Proc::Act { next, .. } | acsr::Proc::Evt { next, .. } => 1 + term_size(next),
        acsr::Proc::Choice(v) | acsr::Proc::Par(v) => {
            1 + v.iter().map(|c| term_size(c)).sum::<u64>()
        }
        acsr::Proc::Guard { then, .. } => 1 + term_size(then),
        acsr::Proc::Scope {
            body,
            exception,
            timeout,
            interrupt,
            ..
        } => {
            1 + term_size(body)
                + exception.as_ref().map_or(0, |(_, h)| term_size(h))
                + timeout.as_ref().map_or(0, |t| term_size(t))
                + interrupt.as_ref().map_or(0, |i| term_size(i))
        }
        acsr::Proc::Restrict { body, .. } | acsr::Proc::Close { body, .. } => 1 + term_size(body),
    }
}

fn def_size(env: &Env, def: acsr::DefId) -> u64 {
    env.def(def).body.as_ref().map_or(0, |b| term_size(b))
}

impl fmt::Debug for TranslatedModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TranslatedModel")
            .field("quantum_ps", &self.quantum_ps)
            .field("inventory", &self.inventory)
            .field("defs", &self.env.num_defs())
            .field("unique_subterms", &self.store.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use acsr::DefId;
    use super::*;
    use aadl::examples::{cruise_control_model, producer_handler};
    use aadl::instance::instantiate;

    #[test]
    fn cruise_control_inventory_matches_the_paper() {
        // §4.1: "the translation produces six ACSR processes that represent
        // threads and six ACSR processes that represent dispatchers for each
        // thread. All connections in the example are data connections, thus
        // no queue processes are introduced."
        let m = cruise_control_model();
        let tm = translate(&m, &TranslateOptions::default()).unwrap();
        assert_eq!(tm.inventory.threads, 6);
        assert_eq!(tm.inventory.dispatchers, 6);
        assert_eq!(tm.inventory.queues, 0);
        assert_eq!(tm.inventory.device_gens, 0);
        assert_eq!(tm.names.roles.len(), 12);
    }

    #[test]
    fn cruise_control_quantum_is_5ms() {
        let m = cruise_control_model();
        let tm = translate(&m, &TranslateOptions::default()).unwrap();
        assert_eq!(tm.quantum_ps, TimeVal::ms(5).as_ps());
    }

    #[test]
    fn bus_bound_threads_get_bus_resources_in_final_step() {
        let m = cruise_control_model();
        let tm = translate(&m, &TranslateOptions::default()).unwrap();
        // Inspect the compute defs of ref_speed (bus-bound) and cruise2 (not).
        let rs = tm
            .names
            .threads
            .iter()
            .find(|t| t.stem == "hci_ref_speed")
            .unwrap();
        let c2 = tm
            .names
            .threads
            .iter()
            .find(|t| t.stem == "ccl_cruise2")
            .unwrap();
        let bus = Res::new("bus_bus0");
        let uses_bus = |def: DefId| -> bool {
            let body = tm.env.def(def).body.as_ref().unwrap();
            fn walk(p: &acsr::Proc, bus: Res) -> bool {
                match p {
                    acsr::Proc::Act { action, next, .. } => {
                        action.uses.iter().any(|(r, _)| *r == bus) || walk(next, bus)
                    }
                    acsr::Proc::Evt { next, .. } => walk(next, bus),
                    acsr::Proc::Choice(v) | acsr::Proc::Par(v) => {
                        v.iter().any(|c| walk(c, bus))
                    }
                    acsr::Proc::Guard { then, .. } => walk(then, bus),
                    acsr::Proc::Scope { body, .. } => walk(body, bus),
                    acsr::Proc::Restrict { body, .. } | acsr::Proc::Close { body, .. } => {
                        walk(body, bus)
                    }
                    _ => false,
                }
            }
            walk(body, bus)
        };
        assert!(uses_bus(rs.compute_def), "ref_speed's final step uses the bus");
        assert!(!uses_bus(c2.compute_def), "cruise2 never touches the bus");
    }

    #[test]
    fn producer_handler_generates_a_queue() {
        let pkg = producer_handler(2, "Error");
        let m = instantiate(&pkg, "Top.impl").unwrap();
        let tm = translate(&m, &TranslateOptions::default()).unwrap();
        assert_eq!(tm.inventory.queues, 1);
        assert_eq!(tm.names.conns.len(), 1);
        assert!(tm.names.conns[0].error_def.is_some());
        // 2 threads + 2 dispatchers + 1 queue.
        assert_eq!(tm.names.roles.len(), 5);
    }

    #[test]
    fn invalid_model_is_rejected_with_validation_errors() {
        let pkg = aadl::builder::PackageBuilder::new("Bad")
            .system("Top", |s| s)
            .implementation("Top.impl", Category::System, |i| i)
            .build();
        let m = instantiate(&pkg, "Top.impl").unwrap();
        match translate(&m, &TranslateOptions::default()) {
            Err(TranslateError::Validation(errs)) => assert!(!errs.is_empty()),
            other => panic!("expected validation failure, got {other:?}"),
        }
    }

    #[test]
    fn compact_mode_drops_violation_defs_for_static_policies() {
        let m = cruise_control_model();
        let faithful = translate(&m, &TranslateOptions::default()).unwrap();
        assert!(faithful
            .names
            .threads
            .iter()
            .all(|t| t.violation_def.is_some()));
        let compact = translate(
            &m,
            &TranslateOptions {
                compact: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(compact
            .names
            .threads
            .iter()
            .all(|t| t.violation_def.is_none()));
    }

    #[test]
    fn scoped_recorder_tags_the_translate_span() {
        // Under a request-scoped recorder (`obs::Recorder::scoped`) the
        // `translate` span parents under the serving layer's anchor and
        // carries the request tag alongside its inventory fields.
        let m = cruise_control_model();
        let rec = obs::Recorder::with_clock(Box::new(obs::FakeClock::new(1)));
        let anchor = rec.span("served.exec");
        let scoped = rec.scoped(&anchor, 9);
        translate(
            &m,
            &TranslateOptions {
                obs: scoped,
                ..Default::default()
            },
        )
        .unwrap();
        anchor.end();
        let run = rec.finish();
        let anchor_id = run.spans.iter().find(|s| s.name == "served.exec").unwrap().id;
        let span = run.spans.iter().find(|s| s.name == "translate").unwrap();
        assert_eq!(span.parent, Some(anchor_id));
        assert!(span.fields.contains(&("req", 9)));
        assert!(span.fields.contains(&("threads", 6)));
    }

    #[test]
    fn quantum_override_applies() {
        let m = cruise_control_model();
        let tm = translate(
            &m,
            &TranslateOptions {
                quantum: Some(TimeVal::ms(10)),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(tm.quantum_ps, TimeVal::ms(10).as_ps());
    }
}

