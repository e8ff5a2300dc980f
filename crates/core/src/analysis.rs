//! Schedulability analysis: translation + exploration + diagnosis (§5).
//!
//! > It can be shown that the resulting ACSR model is deadlock-free if and
//! > only if every task meets its deadline. […] With this, analysis can be
//! > performed by state-space exploration of the ACSR process. A deadlock
//! > found in the state space of the process indicates a violation of the
//! > timing constraints.
//!
//! [`analyze`] runs the full pipeline of the paper's OSATE plugin: translate
//! the model into ACSR, explore the prioritized transition system with the
//! VERSA-equivalent engine, and — when a deadlock is found — raise the trace
//! into an AADL-level [`FailingScenario`].

use aadl::instance::InstanceModel;

use crate::diagnose::{raise, FailingScenario};
use crate::translate::{translate, TranslateError, TranslateOptions, TranslatedModel};

/// Options for the exploration phase.
#[derive(Clone, Debug)]
pub struct AnalysisOptions {
    /// Exploration options; defaults to stopping at the first deadlock
    /// (sufficient for a verdict + shortest counterexample).
    pub explore: versa::Options,
}

impl Default for AnalysisOptions {
    fn default() -> AnalysisOptions {
        AnalysisOptions {
            explore: versa::Options::verdict(),
        }
    }
}

impl AnalysisOptions {
    /// Exhaustive exploration (do not stop at the first deadlock).
    pub fn exhaustive() -> AnalysisOptions {
        AnalysisOptions {
            explore: versa::Options::default(),
        }
    }

    /// Install a shared cancellation token (see [`versa::CancelToken`]); the
    /// explorer polls it at every frontier state, so a long analysis can be
    /// stopped from another thread (a request handler, a deadline watchdog).
    pub fn with_cancel(mut self, cancel: versa::CancelToken) -> AnalysisOptions {
        self.explore.cancel = cancel;
        self
    }
}

/// Exit code for usage/input errors (bad flags, parse errors, missing
/// files) — the one exit the analysis itself never produces, kept alongside
/// [`AnalysisOutcome::exit_code`] so the whole 0/1/2/3 contract lives in
/// this module.
pub const EXIT_INPUT_ERROR: u8 = 2;

/// Why an analysis ended without a verdict.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Interrupt {
    /// The exploration hit its `max_states` budget (or exhausted the id
    /// space) before completing.
    StateBudget,
    /// The run's [`versa::CancelToken`] fired mid-exploration.
    Cancelled,
}

/// The outcome of a schedulability analysis — the typed form of the tools'
/// 0/1/2/3 exit-code contract.
///
/// Every process-level consumer (the `aadlsched` CLI, the `aadlschedd`
/// daemon) derives its exit code from [`AnalysisOutcome::exit_code`] rather
/// than re-implementing the mapping:
///
/// | variant | meaning | exit code |
/// |---|---|---|
/// | [`Schedulable`](AnalysisOutcome::Schedulable) | state space explored exhaustively, deadlock-free (§5) | 0 |
/// | [`Unschedulable`](AnalysisOutcome::Unschedulable) | a deadlock was found and raised to an AADL-level scenario | 1 |
/// | [`Unknown`](AnalysisOutcome::Unknown) | stopped early (budget or cancellation) with no deadlock found | 3 |
///
/// Exit 2 (usage/input error) has no variant — those failures happen before
/// an analysis exists; see [`EXIT_INPUT_ERROR`].
///
/// A found deadlock is a *proof* of unschedulability even when the run was
/// also truncated, so `Unschedulable` wins over `Unknown`.
///
/// # Examples
///
/// ```
/// use aadl2acsr::{AnalysisOutcome, Interrupt};
///
/// let unknown = AnalysisOutcome::Unknown {
///     reason: Interrupt::StateBudget,
///     stats: versa::Stats::default(),
/// };
/// assert_eq!(unknown.exit_code(), 3);
/// assert_eq!(unknown.verdict_str(), "unknown");
/// assert_eq!(unknown.reason_str(), Some("state-budget"));
/// assert!(!unknown.schedulable());
/// assert!(unknown.truncated());
///
/// let ok = AnalysisOutcome::Schedulable { stats: versa::Stats::default() };
/// assert_eq!(ok.exit_code(), 0);
/// assert_eq!(ok.reason_str(), None);
/// ```
#[derive(Clone, Debug)]
pub enum AnalysisOutcome {
    /// The state space is deadlock-free — every thread meets its deadline in
    /// *every* behaviour (§5).
    Schedulable {
        /// Exploration statistics.
        stats: versa::Stats,
    },
    /// A deadlock was found; `scenario` is the counterexample raised to the
    /// AADL level (timeline, violated constraints).
    Unschedulable {
        /// The failing scenario, raised to the AADL level.
        scenario: FailingScenario,
        /// Exploration statistics.
        stats: versa::Stats,
    },
    /// The exploration stopped before a verdict: no deadlock found so far,
    /// but the space was not exhausted.
    Unknown {
        /// Why the run stopped early.
        reason: Interrupt,
        /// Exploration statistics.
        stats: versa::Stats,
    },
}

impl AnalysisOutcome {
    /// True iff the model was *proven* schedulable (exhaustive, deadlock-free).
    pub fn schedulable(&self) -> bool {
        matches!(self, AnalysisOutcome::Schedulable { .. })
    }

    /// True when the exploration hit its state budget before completing.
    pub fn truncated(&self) -> bool {
        matches!(
            self,
            AnalysisOutcome::Unknown {
                reason: Interrupt::StateBudget,
                ..
            }
        )
    }

    /// True when the run was stopped by its cancellation token.
    pub fn cancelled(&self) -> bool {
        matches!(
            self,
            AnalysisOutcome::Unknown {
                reason: Interrupt::Cancelled,
                ..
            }
        )
    }

    /// The failing scenario, when one was found.
    pub fn scenario(&self) -> Option<&FailingScenario> {
        match self {
            AnalysisOutcome::Unschedulable { scenario, .. } => Some(scenario),
            _ => None,
        }
    }

    /// Exploration statistics, whatever the outcome.
    pub fn stats(&self) -> &versa::Stats {
        match self {
            AnalysisOutcome::Schedulable { stats }
            | AnalysisOutcome::Unschedulable { stats, .. }
            | AnalysisOutcome::Unknown { stats, .. } => stats,
        }
    }

    /// The process exit code for this outcome: 0 schedulable, 1 not
    /// schedulable, 3 unknown. (2 is reserved for input errors, which
    /// never produce an outcome; see [`EXIT_INPUT_ERROR`].)
    pub fn exit_code(&self) -> u8 {
        match self {
            AnalysisOutcome::Schedulable { .. } => 0,
            AnalysisOutcome::Unschedulable { .. } => 1,
            AnalysisOutcome::Unknown { .. } => 3,
        }
    }

    /// The verdict as the stable lowercase word used in reports and on the
    /// wire: `"schedulable"`, `"unschedulable"` or `"unknown"`.
    pub fn verdict_str(&self) -> &'static str {
        match self {
            AnalysisOutcome::Schedulable { .. } => "schedulable",
            AnalysisOutcome::Unschedulable { .. } => "unschedulable",
            AnalysisOutcome::Unknown { .. } => "unknown",
        }
    }

    /// For [`Unknown`](AnalysisOutcome::Unknown) outcomes, the stable reason
    /// string (`"state-budget"` or `"cancelled"`); `None` otherwise.
    pub fn reason_str(&self) -> Option<&'static str> {
        match self {
            AnalysisOutcome::Unknown {
                reason: Interrupt::StateBudget,
                ..
            } => Some("state-budget"),
            AnalysisOutcome::Unknown {
                reason: Interrupt::Cancelled,
                ..
            } => Some("cancelled"),
            _ => None,
        }
    }
}

/// Analyze an already-translated model.
///
/// The recorder carried by [`versa::Options::obs`] instruments the whole
/// phase: the exploration records its own spans, the trace raising gets a
/// `diagnose.raise` span, and the outcome is emitted as a `verdict` event
/// (`schedulable`, `truncated`, and — when a counterexample exists — the
/// `deadlock_depth` in quanta).
pub fn analyze_translated(
    model: &InstanceModel,
    tm: &TranslatedModel,
    opts: &AnalysisOptions,
) -> AnalysisOutcome {
    let rec = &opts.explore.obs;
    // Share the translator's term store with the explorer: the initial term's
    // subterms are already canonical, so re-interning them is pure reuse.
    let mut eopts = opts.explore.clone();
    eopts.store = Some(tm.store.clone());
    // Persistent-store keys must commit to the translation options, not just
    // the exploration options: `--protocol pcp` and `--protocol none` can
    // generate different terms from the same source, and even option sets
    // that happen to collide structurally are kept apart by this context.
    eopts.cas_context = tm.options_canon.clone();
    let ex = versa::explore(&tm.env, &tm.initial, &eopts);
    let scenario = ex.first_deadlock_trace().map(|trace| {
        let raise_span = rec.span("diagnose.raise");
        let sc = raise(model, tm, &trace);
        raise_span.set("trace_len", trace.len() as i64);
        raise_span.set("at_quantum", sc.at_quantum as i64);
        raise_span.end();
        let blocked = sc
            .timeline
            .iter()
            .flat_map(|row| &row.activities)
            .filter(|(_, a)| matches!(a, crate::diagnose::Activity::Blocked { .. }))
            .count();
        if blocked > 0 {
            rec.counter("protocol.blocking_events").add(blocked as u64);
        }
        sc
    });
    // A found deadlock is a proof of unschedulability even when the run was
    // also truncated or cancelled; interruption only matters when no
    // counterexample exists.
    let outcome = match scenario {
        Some(scenario) => AnalysisOutcome::Unschedulable {
            scenario,
            stats: ex.stats,
        },
        None if ex.cancelled => AnalysisOutcome::Unknown {
            reason: Interrupt::Cancelled,
            stats: ex.stats,
        },
        None if ex.truncated => AnalysisOutcome::Unknown {
            reason: Interrupt::StateBudget,
            stats: ex.stats,
        },
        None => AnalysisOutcome::Schedulable { stats: ex.stats },
    };
    let mut fields = vec![
        ("schedulable", obs::Json::Bool(outcome.schedulable())),
        ("truncated", obs::Json::Bool(ex.truncated)),
    ];
    if let Some(sc) = outcome.scenario() {
        fields.push(("deadlock_depth", obs::Json::Int(sc.at_quantum as i64)));
    }
    rec.event("verdict", fields);
    outcome
}

/// Translate and analyze an instance model.
pub fn analyze(
    model: &InstanceModel,
    topts: &TranslateOptions,
    aopts: &AnalysisOptions,
) -> Result<AnalysisOutcome, TranslateError> {
    let tm = translate(model, topts)?;
    Ok(analyze_translated(model, &tm, aopts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aadl::builder::PackageBuilder;
    use aadl::examples::{cruise_control_model, cruise_control_overloaded, producer_handler};
    use aadl::instance::instantiate;
    use aadl::model::Category;
    use aadl::properties::{names, PropertyValue, TimeVal};

    /// A one-processor, two-thread RMS system; schedulable iff the response
    /// times work out — here trivially yes (U = 2/10 + 3/15 = 0.4).
    fn small_ok() -> InstanceModel {
        let pkg = PackageBuilder::new("OK")
            .processor("cpu_t", |p| p.prop_enum(names::SCHEDULING_PROTOCOL, "RMS"))
            .periodic_thread(
                "T1",
                TimeVal::ms(10),
                (TimeVal::ms(2), TimeVal::ms(2)),
                TimeVal::ms(10),
            )
            .periodic_thread(
                "T2",
                TimeVal::ms(15),
                (TimeVal::ms(3), TimeVal::ms(3)),
                TimeVal::ms(15),
            )
            .system("Top", |s| s)
            .implementation("Top.impl", Category::System, |i| {
                i.sub("cpu", Category::Processor, "cpu_t")
                    .sub("t1", Category::Thread, "T1")
                    .sub("t2", Category::Thread, "T2")
                    .bind_processor("t1", "cpu")
                    .bind_processor("t2", "cpu")
            })
            .build();
        instantiate(&pkg, "Top.impl").unwrap()
    }

    /// Same structure, overloaded: U = 6/10 + 8/15 > 1.
    fn small_overloaded() -> InstanceModel {
        let pkg = PackageBuilder::new("Bad")
            .processor("cpu_t", |p| p.prop_enum(names::SCHEDULING_PROTOCOL, "RMS"))
            .periodic_thread(
                "T1",
                TimeVal::ms(10),
                (TimeVal::ms(6), TimeVal::ms(6)),
                TimeVal::ms(10),
            )
            .periodic_thread(
                "T2",
                TimeVal::ms(15),
                (TimeVal::ms(8), TimeVal::ms(8)),
                TimeVal::ms(15),
            )
            .system("Top", |s| s)
            .implementation("Top.impl", Category::System, |i| {
                i.sub("cpu", Category::Processor, "cpu_t")
                    .sub("t1", Category::Thread, "T1")
                    .sub("t2", Category::Thread, "T2")
                    .bind_processor("t1", "cpu")
                    .bind_processor("t2", "cpu")
            })
            .build();
        instantiate(&pkg, "Top.impl").unwrap()
    }

    #[test]
    fn schedulable_system_is_deadlock_free() {
        let m = small_ok();
        let v = analyze(
            &m,
            &TranslateOptions::default(),
            &AnalysisOptions::exhaustive(),
        )
        .unwrap();
        assert!(v.schedulable(), "stats: {:?}", v.stats());
        assert!(v.scenario().is_none());
        assert!(!v.truncated());
        assert!(v.stats().states > 1);
    }

    #[test]
    fn overloaded_system_misses_a_deadline() {
        let m = small_overloaded();
        let v = analyze(
            &m,
            &TranslateOptions::default(),
            &AnalysisOptions::default(),
        )
        .unwrap();
        assert!(!v.schedulable());
        let sc = v.scenario().expect("scenario");
        // T2 (period 15) is the RMS victim.
        assert!(sc
            .violations
            .iter()
            .any(|vk| matches!(vk, crate::ViolationKind::DeadlineMiss { thread } if thread == "t2")));
    }

    #[test]
    fn compact_and_faithful_agree_on_verdicts() {
        for m in [small_ok(), small_overloaded()] {
            let faithful = analyze(
                &m,
                &TranslateOptions::default(),
                &AnalysisOptions::default(),
            )
            .unwrap();
            let compact = analyze(
                &m,
                &TranslateOptions {
                    compact: true,
                    ..Default::default()
                },
                &AnalysisOptions::default(),
            )
            .unwrap();
            assert_eq!(faithful.schedulable(), compact.schedulable());
        }
    }

    #[test]
    fn compact_mode_never_grows_the_state_space() {
        // For purely periodic models the dispatcher's period/deadline scopes
        // already track elapsed time, so the skeleton's redundant bookkeeping
        // does not multiply *states* — compact mode shrinks each state's term
        // (fewer scopes, one parameter instead of two) without changing the
        // reachable count. The assertion is `<=`: compact must never be worse.
        let m = small_ok();
        let faithful = analyze(
            &m,
            &TranslateOptions::default(),
            &AnalysisOptions::exhaustive(),
        )
        .unwrap();
        let compact = analyze(
            &m,
            &TranslateOptions {
                compact: true,
                ..Default::default()
            },
            &AnalysisOptions::exhaustive(),
        )
        .unwrap();
        assert!(
            compact.stats().states <= faithful.stats().states,
            "compact {} vs faithful {}",
            compact.stats().states,
            faithful.stats().states
        );
        assert_eq!(compact.stats().deadlocks, faithful.stats().deadlocks);
    }

    #[test]
    fn recorder_captures_the_whole_pipeline() {
        let m = small_overloaded();
        let rec = obs::Recorder::enabled();
        let topts = TranslateOptions {
            obs: rec.clone(),
            ..Default::default()
        };
        let mut aopts = AnalysisOptions::default();
        aopts.explore.obs = rec.clone();
        let v = analyze(&m, &topts, &aopts).unwrap();
        assert!(!v.schedulable());

        let run = rec.finish();
        // One span per stage, whatever the size of the search: the
        // per-bucket detail is in the `explore.bucket_*` histograms.
        let names: Vec<&str> = run.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["translate", "explore", "diagnose.raise"]);
        let verdicts: Vec<_> = run.events.iter().filter(|e| e.name == "verdict").collect();
        assert_eq!(verdicts.len(), 1);
        assert!(verdicts[0]
            .fields
            .iter()
            .any(|(k, val)| *k == "schedulable" && *val == obs::Json::Bool(false)));
        assert!(verdicts[0]
            .fields
            .iter()
            .any(|(k, _)| *k == "deadlock_depth"));
        // Two threads → two skeleton-size observations.
        assert!(run
            .histograms
            .iter()
            .any(|(k, s)| k == "translate.skeleton_size" && s.count == 2));
        // One observation per bucket, the one the first deadlock stops in
        // included.
        let levels = v.stats().levels as u64;
        for name in ["explore.bucket_frontier", "explore.bucket_discovered"] {
            assert!(
                run.histograms
                    .iter()
                    .any(|(k, s)| k == name && s.count == levels),
                "{name}"
            );
        }
    }

    #[test]
    fn state_budget_exhaustion_is_a_typed_unknown_with_exit_3() {
        // The exhaustive space of the OK model is far larger than 3 states,
        // so the budget trips and the outcome must be Unknown(StateBudget) —
        // the typed form of the CLI's old exit-3 path.
        let m = small_ok();
        let mut aopts = AnalysisOptions::exhaustive();
        aopts.explore.max_states = 3;
        let v = analyze(&m, &TranslateOptions::default(), &aopts).unwrap();
        assert!(matches!(
            v,
            AnalysisOutcome::Unknown {
                reason: Interrupt::StateBudget,
                ..
            }
        ));
        assert!(!v.schedulable());
        assert!(v.truncated());
        assert!(!v.cancelled());
        assert_eq!(v.exit_code(), 3);
        assert_eq!(v.verdict_str(), "unknown");
        assert_eq!(v.reason_str(), Some("state-budget"));
        assert!(v.scenario().is_none());
    }

    #[test]
    fn cancelled_analysis_is_a_typed_unknown() {
        let m = small_ok();
        let token = versa::CancelToken::new();
        token.cancel();
        let aopts = AnalysisOptions::exhaustive().with_cancel(token);
        let v = analyze(&m, &TranslateOptions::default(), &aopts).unwrap();
        assert!(matches!(
            v,
            AnalysisOutcome::Unknown {
                reason: Interrupt::Cancelled,
                ..
            }
        ));
        assert!(v.cancelled());
        assert!(!v.truncated());
        assert_eq!(v.exit_code(), 3);
        assert_eq!(v.reason_str(), Some("cancelled"));
    }

    #[test]
    fn cruise_control_nominal_is_schedulable() {
        let m = cruise_control_model();
        let v = analyze(
            &m,
            &TranslateOptions::default(),
            &AnalysisOptions::default(),
        )
        .unwrap();
        assert!(v.schedulable(), "stats: {:?}", v.stats());
    }

    #[test]
    fn cruise_control_overloaded_is_not() {
        let pkg = cruise_control_overloaded();
        let m = instantiate(&pkg, "CruiseControl.impl").unwrap();
        let v = analyze(
            &m,
            &TranslateOptions::default(),
            &AnalysisOptions::default(),
        )
        .unwrap();
        assert!(!v.schedulable());
    }

    #[test]
    fn producer_handler_round_trip() {
        let pkg = producer_handler(1, "DropNewest");
        let m = instantiate(&pkg, "Top.impl").unwrap();
        let v = analyze(
            &m,
            &TranslateOptions::default(),
            &AnalysisOptions::exhaustive(),
        )
        .unwrap();
        // Producer (5/20) + handler (5/20, dispatched at most once per 20 ms):
        // comfortably schedulable.
        assert!(v.schedulable(), "stats: {:?}", v.stats());
    }

    #[test]
    fn edf_schedules_what_rms_cannot() {
        // Classic: two tasks with U = 1.0 — EDF schedulable, RMS not.
        // T1 = (P=4, C=2), T2 = (P=8, C=4); RM response of T2: 2+2+4 = 8…
        // that one is schedulable under both; use U > ln2 pattern instead:
        // T1 = (P=10, C=5), T2 = (P=14, C=7): U = 1.0; RMS misses T2
        // (response 5+5+7 > 14), EDF meets everything at U = 1.
        let build = |protocol: &str| {
            let pkg = PackageBuilder::new("EdfVsRms")
                .processor("cpu_t", |p| {
                    p.prop_enum(names::SCHEDULING_PROTOCOL, protocol)
                })
                .periodic_thread(
                    "T1",
                    TimeVal::ms(10),
                    (TimeVal::ms(5), TimeVal::ms(5)),
                    TimeVal::ms(10),
                )
                .periodic_thread(
                    "T2",
                    TimeVal::ms(14),
                    (TimeVal::ms(7), TimeVal::ms(7)),
                    TimeVal::ms(14),
                )
                .system("Top", |s| s)
                .implementation("Top.impl", Category::System, |i| {
                    i.sub("cpu", Category::Processor, "cpu_t")
                        .sub("t1", Category::Thread, "T1")
                        .sub("t2", Category::Thread, "T2")
                        .bind_processor("t1", "cpu")
                        .bind_processor("t2", "cpu")
                        .prop(
                            names::SCHEDULING_QUANTUM,
                            PropertyValue::Time(TimeVal::ms(1)),
                        )
                })
                .build();
            instantiate(&pkg, "Top.impl").unwrap()
        };
        let rms = analyze(
            &build("RMS"),
            &TranslateOptions::default(),
            &AnalysisOptions::default(),
        )
        .unwrap();
        assert!(!rms.schedulable(), "RMS cannot schedule U = 1.0 here");
        let edf = analyze(
            &build("EDF"),
            &TranslateOptions::default(),
            &AnalysisOptions::default(),
        )
        .unwrap();
        assert!(edf.schedulable(), "EDF schedules U = 1.0; stats: {:?}", edf.stats());
    }
}
