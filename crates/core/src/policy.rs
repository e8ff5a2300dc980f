//! Scheduling protocols as ACSR priority assignments (§5 of the paper).
//!
//! > Any fixed-priority scheduling algorithm, such as rate-monotonic or
//! > deadline-monotonic scheduling, can be implemented by […] assigning a
//! > priority to each thread Ti based on the appropriate properties of the
//! > thread. Then, this priority is assigned to every use of the resource
//! > that corresponds to P in any timed action of the ACSR thread process.
//! >
//! > Dynamic-priority scheduling can be implemented by using parametric
//! > expressions for priorities. For example, in order to reflect the EDF
//! > scheduling, we use the following expression as the priority in each
//! > access to the processor resource: πi = dmax − (di − t).
//!
//! Our priorities are shifted by +1 so that a ready thread's processor access
//! always has priority ≥ 1 and therefore preempts idling (a priority-0 access
//! does not, per the preemption relation of §3); background threads sit at
//! priority 1, below every deadline-constrained thread.

use aadl::instance::{CompId, InstanceModel};
use aadl::properties::{DispatchProtocol, SchedulingProtocol};
use acsr::Expr;

use crate::quantum::ThreadTiming;
use crate::translate::TranslateError;

/// Parameter index of `e` (accumulated execution) in the compute process.
pub const PARAM_E: u8 = 0;
/// Parameter index of `t` (time since dispatch) in the compute process.
pub const PARAM_T: u8 = 1;

/// The priority of one thread's processor accesses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PrioSpec {
    /// A fixed priority (RMS / DMS / HPF / background).
    Static(u32),
    /// EDF: `π = dmax − (d − t) + 1` over the compute parameter `t`.
    Edf {
        /// Largest deadline among threads on this processor (quanta).
        dmax: i64,
        /// This thread's deadline (quanta).
        d: i64,
    },
    /// LLF: laxity `ℓ = (d − t) − (cmax − e)`, priority `π = lmax − ℓ + 1`.
    Llf {
        /// Largest deadline among threads on this processor (quanta).
        lmax: i64,
        /// This thread's deadline (quanta).
        d: i64,
        /// This thread's worst-case execution time (quanta).
        cmax: i64,
    },
}

impl PrioSpec {
    /// Does this specification reference the elapsed-time parameter `t`?
    pub fn needs_elapsed(&self) -> bool {
        matches!(self, PrioSpec::Edf { .. } | PrioSpec::Llf { .. })
    }

    /// The priority expression over the compute process's parameters
    /// `(e, t)`.
    pub fn expr(&self) -> Expr {
        match self {
            PrioSpec::Static(p) => Expr::c(*p as i64),
            // π = dmax − (d − t) + 1
            PrioSpec::Edf { dmax, d } => Expr::c(*dmax)
                .sub(Expr::c(*d).sub(Expr::p(PARAM_T)))
                .add(Expr::c(1)),
            // π = lmax − ((d − t) − (cmax − e)) + 1
            PrioSpec::Llf { lmax, d, cmax } => Expr::c(*lmax)
                .sub(
                    Expr::c(*d)
                        .sub(Expr::p(PARAM_T))
                        .sub(Expr::c(*cmax).sub(Expr::p(PARAM_E))),
                )
                .add(Expr::c(1)),
        }
    }
}

/// Assign a priority specification to every thread in `timings` (parallel to
/// `threads`), following `protocol`.
///
/// * Background threads always get the lowest priority, 1.
/// * RMS ranks deadline-constrained threads by ascending period (ties share a
///   priority, leaving the arbitration nondeterministic — explored
///   exhaustively); DMS by ascending deadline; HPF by descending `Priority`
///   property: 2 + the number of threads with a strictly lower Priority, so
///   equal values share a level. HPF counts the threads of the whole
///   `model`, not just `threads`, so its levels compare across processors
///   (priority ceilings and inheritance do).
/// * EDF/LLF produce parametric specifications; they reject background
///   threads (no deadline to compare) as unsupported.
pub fn assign_priorities(
    model: &InstanceModel,
    protocol: SchedulingProtocol,
    threads: &[CompId],
    timings: &[ThreadTiming],
) -> Result<Vec<PrioSpec>, TranslateError> {
    debug_assert_eq!(threads.len(), timings.len());
    let path = |i: usize| model.component(threads[i]).display_path().to_owned();

    match protocol {
        SchedulingProtocol::Rms | SchedulingProtocol::Dms | SchedulingProtocol::Hpf => {
            // Key: period for RMS, deadline for DMS, the negated `Priority`
            // property for HPF (a larger Priority is a smaller key). Only the
            // order of the keys matters, so any Priority value — 1, 0 or
            // beyond `u32::MAX` — keeps its place. Background threads have no
            // key and sit at priority 1.
            let key = |tt: &ThreadTiming| -> Option<i64> {
                match protocol {
                    // Aperiodic threads have no period; rank them by deadline
                    // (the standard practical convention).
                    SchedulingProtocol::Rms => tt.period_q.or(tt.deadline_q),
                    SchedulingProtocol::Dms => tt.deadline_q,
                    _ if tt.dispatch == DispatchProtocol::Background => None,
                    _ => tt.priority.map(i64::saturating_neg),
                }
            };
            // The keys a thread is ranked against: this processor's for
            // RMS/DMS, every thread's `Priority` in the model for HPF.
            let peers: Vec<i64> = match protocol {
                SchedulingProtocol::Hpf => model
                    .threads()
                    .filter_map(|t| t.properties.priority())
                    .map(i64::saturating_neg)
                    .collect(),
                _ => timings.iter().filter_map(key).collect(),
            };
            let mut out = Vec::with_capacity(timings.len());
            for (i, tt) in timings.iter().enumerate() {
                let Some(k) = key(tt) else {
                    if tt.dispatch == DispatchProtocol::Background {
                        out.push(PrioSpec::Static(1));
                        continue;
                    }
                    return Err(TranslateError::Unsupported(format!(
                        "thread `{}` lacks the property {protocol} ranks by",
                        path(i)
                    )));
                };
                // Priority = 2 + number of threads with strictly greater key:
                // smallest period/deadline (largest HPF Priority) ⇒ highest
                // priority; equal keys share a priority.
                let greater = peers.iter().filter(|&&ko| ko > k).count() as u32;
                out.push(PrioSpec::Static(2 + greater));
            }
            Ok(out)
        }
        SchedulingProtocol::Edf | SchedulingProtocol::Llf => {
            let dmax = timings
                .iter()
                .filter_map(|tt| tt.deadline_q)
                .max()
                .unwrap_or(1);
            timings
                .iter()
                .enumerate()
                .map(|(i, tt)| {
                    let Some(d) = tt.deadline_q else {
                        return Err(TranslateError::Unsupported(format!(
                            "{protocol}: thread `{}` has no deadline (background threads \
                             are not supported under dynamic priorities)",
                            path(i)
                        )));
                    };
                    Ok(match protocol {
                        SchedulingProtocol::Edf => PrioSpec::Edf { dmax, d },
                        _ => PrioSpec::Llf {
                            lmax: dmax,
                            d,
                            cmax: tt.cmax_q,
                        },
                    })
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aadl::properties::DispatchProtocol;

    fn tt(period: Option<i64>, deadline: Option<i64>, cmax: i64, prio: Option<i64>) -> ThreadTiming {
        ThreadTiming {
            dispatch: if deadline.is_some() {
                DispatchProtocol::Periodic
            } else {
                DispatchProtocol::Background
            },
            period_q: period,
            cmin_q: 1,
            cmax_q: cmax,
            deadline_q: deadline,
            priority: prio,
        }
    }

    fn fake_model() -> InstanceModel {
        aadl::examples::cruise_control_model()
    }

    fn fake_threads(n: usize) -> Vec<CompId> {
        let m = fake_model();
        m.threads().take(n).map(|t| t.id).collect()
    }

    #[test]
    fn rms_ranks_by_period() {
        let m = fake_model();
        let threads = fake_threads(3);
        let timings = vec![
            tt(Some(10), Some(10), 2, None),
            tt(Some(5), Some(5), 1, None),
            tt(Some(20), Some(20), 4, None),
        ];
        let prios =
            assign_priorities(&m, SchedulingProtocol::Rms, &threads, &timings).unwrap();
        assert_eq!(
            prios,
            vec![
                PrioSpec::Static(3), // period 10: one greater (20)
                PrioSpec::Static(4), // period 5: two greater
                PrioSpec::Static(2), // period 20: none greater
            ]
        );
    }

    #[test]
    fn rms_ties_share_priority() {
        let m = fake_model();
        let threads = fake_threads(2);
        let timings = vec![tt(Some(10), Some(10), 1, None), tt(Some(10), Some(8), 1, None)];
        let prios =
            assign_priorities(&m, SchedulingProtocol::Rms, &threads, &timings).unwrap();
        assert_eq!(prios[0], prios[1]);
    }

    #[test]
    fn dms_ranks_by_deadline() {
        let m = fake_model();
        let threads = fake_threads(2);
        let timings = vec![tt(Some(10), Some(9), 1, None), tt(Some(10), Some(4), 1, None)];
        let prios =
            assign_priorities(&m, SchedulingProtocol::Dms, &threads, &timings).unwrap();
        assert!(matches!((&prios[0], &prios[1]),
            (PrioSpec::Static(a), PrioSpec::Static(b)) if b > a));
    }

    #[test]
    fn background_sits_below_everyone() {
        let m = fake_model();
        let threads = fake_threads(2);
        let timings = vec![tt(Some(10), Some(10), 1, None), tt(None, None, 3, None)];
        let prios =
            assign_priorities(&m, SchedulingProtocol::Rms, &threads, &timings).unwrap();
        assert_eq!(prios[1], PrioSpec::Static(1));
        assert!(matches!(prios[0], PrioSpec::Static(p) if p >= 2));
    }

    /// An HPF model with thread `t{i}` of Priority `prios[i].0` bound to
    /// processor `cpu{prios[i].1}` (two processors).
    fn hpf_model(prios: &[(i64, usize)]) -> InstanceModel {
        use aadl::builder::PackageBuilder;
        use aadl::model::Category;
        use aadl::properties::{names, PropertyValue, TimeVal};
        let mut b = PackageBuilder::new("Hpf")
            .processor("cpu_t", |p| p.prop_enum(names::SCHEDULING_PROTOCOL, "HPF"));
        for (i, &(prio, _)) in prios.iter().enumerate() {
            b = b.thread(&format!("T{i}"), |t| {
                t.prop_enum(names::DISPATCH_PROTOCOL, "Periodic")
                    .prop_int(names::PRIORITY, prio)
            });
        }
        let pkg = b
            .system("Top", |s| s)
            .implementation("Top.impl", Category::System, |mut i| {
                i = i
                    .sub("cpu0", Category::Processor, "cpu_t")
                    .sub("cpu1", Category::Processor, "cpu_t")
                    .prop(names::SCHEDULING_QUANTUM, PropertyValue::Time(TimeVal::ms(1)));
                for (k, &(_, cpu)) in prios.iter().enumerate() {
                    let sub = format!("t{k}");
                    i = i
                        .sub(&sub, Category::Thread, &format!("T{k}"))
                        .bind_processor(&sub, &format!("cpu{cpu}"));
                }
                i
            })
            .build();
        aadl::instance::instantiate(&pkg, "Top.impl").unwrap()
    }

    /// The HPF levels of the threads on `cpu`, in `threads_on` order.
    fn hpf_levels(m: &InstanceModel, cpu: &str) -> Vec<PrioSpec> {
        let threads = m.threads_on(m.find(cpu).unwrap());
        let timings: Vec<_> = threads
            .iter()
            .map(|&t| tt(Some(10), Some(10), 1, m.component(t).properties.priority()))
            .collect();
        assign_priorities(m, SchedulingProtocol::Hpf, &threads, &timings).unwrap()
    }

    #[test]
    fn hpf_uses_the_priority_property() {
        let m = hpf_model(&[(7, 0), (3, 0)]);
        // Ranked like RMS: 2 + #threads with a strictly lower Priority.
        assert_eq!(hpf_levels(&m, "cpu0"), vec![PrioSpec::Static(3), PrioSpec::Static(2)]);
    }

    #[test]
    fn hpf_keeps_low_and_huge_priorities_apart() {
        let m = hpf_model(&[(2, 0), (1, 0), (i64::from(u32::MAX) + 1, 0)]);
        assert_eq!(
            hpf_levels(&m, "cpu0"),
            vec![PrioSpec::Static(3), PrioSpec::Static(2), PrioSpec::Static(4)]
        );
        // Equal Priority values still share a level.
        let levels = hpf_levels(&hpf_model(&[(5, 0), (5, 0)]), "cpu0");
        assert_eq!(levels[0], levels[1]);
    }

    #[test]
    fn hpf_levels_compare_across_processors() {
        // cpu0: Priority 10 and 20; cpu1: Priority 30. Ranking each processor
        // on its own would give 10 and 30 the same level.
        let m = hpf_model(&[(10, 0), (20, 0), (30, 1)]);
        assert_eq!(hpf_levels(&m, "cpu0"), vec![PrioSpec::Static(2), PrioSpec::Static(3)]);
        assert_eq!(hpf_levels(&m, "cpu1"), vec![PrioSpec::Static(4)]);
    }

    #[test]
    fn hpf_missing_priority_is_an_error() {
        let m = fake_model();
        let threads = fake_threads(1);
        let timings = vec![tt(Some(10), Some(10), 1, None)];
        assert!(assign_priorities(&m, SchedulingProtocol::Hpf, &threads, &timings).is_err());
    }

    #[test]
    fn edf_priority_grows_toward_the_deadline() {
        // Paper §5: "the earlier the absolute deadline of the current dispatch
        // of Ti, the larger its value."
        let spec = PrioSpec::Edf { dmax: 50, d: 20 };
        assert!(spec.needs_elapsed());
        let e = spec.expr();
        // At t = 0: 50 - 20 + 1 = 31; at t = 15: 50 - 5 + 1 = 46.
        assert_eq!(e.eval(&[0, 0]).unwrap(), 31);
        assert_eq!(e.eval(&[0, 15]).unwrap(), 46);
        // A thread with a later deadline has lower priority at the same t.
        let later = PrioSpec::Edf { dmax: 50, d: 50 }.expr();
        assert!(later.eval(&[0, 0]).unwrap() < e.eval(&[0, 0]).unwrap());
    }

    #[test]
    fn llf_priority_tracks_laxity() {
        let spec = PrioSpec::Llf {
            lmax: 20,
            d: 20,
            cmax: 5,
        };
        let e = spec.expr();
        // e=0, t=0: laxity = 20 - 5 = 15 → π = 20 - 15 + 1 = 6.
        assert_eq!(e.eval(&[0, 0]).unwrap(), 6);
        // Executing reduces remaining work: e=3, t=3: laxity = 17 - 2 = 15 → 6.
        assert_eq!(e.eval(&[3, 3]).unwrap(), 6);
        // Being preempted shrinks laxity: e=0, t=10: laxity = 10 - 5 = 5 → 16.
        assert_eq!(e.eval(&[0, 10]).unwrap(), 16);
    }

    #[test]
    fn edf_rejects_background_threads() {
        let m = fake_model();
        let threads = fake_threads(1);
        let timings = vec![tt(None, None, 3, None)];
        assert!(assign_priorities(&m, SchedulingProtocol::Edf, &threads, &timings).is_err());
    }

    #[test]
    fn static_spec_has_constant_expr() {
        let s = PrioSpec::Static(4);
        assert!(!s.needs_elapsed());
        assert_eq!(s.expr().eval(&[9, 9]).unwrap(), 4);
    }
}
