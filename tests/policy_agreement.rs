//! Experiment Q2 — verdict agreement between the paper's exhaustive ACSR
//! analysis and the classical baselines, over randomized task sets.
//!
//! For synchronous periodic task sets with fixed execution times and
//! constrained deadlines, the exhaustive exploration must agree *exactly*
//! with exact response-time analysis (fixed priorities) and with the
//! processor-demand criterion (EDF) — the translation is semantics-
//! preserving, and one quantum in the model is one time unit in the
//! analyses. The Cheddar-style WCET simulation over one hyperperiod must
//! agree as well for this deterministic fragment.

use aadl::instance::instantiate;
use aadl2acsr::{analyze, AnalysisOptions, TranslateOptions};
use sched_baselines::edf_demand::edf_schedulable;
use sched_baselines::rta::{dm_schedulable, rm_schedulable};
use sched_baselines::simulator::{simulate, ExecModel, Policy};
use sched_baselines::taskset::{taskset_to_package, uunifast, TaskSetSpec};
use sched_baselines::types::TaskSet;

fn acsr_verdict(ts: &TaskSet, protocol: &str) -> bool {
    let pkg = taskset_to_package(ts, protocol);
    let m = instantiate(&pkg, "Top.impl").unwrap();
    analyze(
        &m,
        &TranslateOptions::default(),
        &AnalysisOptions::default(),
    )
    .unwrap()
    .schedulable()
}

fn random_sets(count: u64, target_u: f64) -> Vec<TaskSet> {
    (0..count)
        .map(|seed| {
            uunifast(&TaskSetSpec {
                n: 3,
                target_utilization: target_u,
                periods: vec![4, 5, 8, 10],
                seed,
            })
        })
        .collect()
}

#[test]
fn acsr_agrees_with_rta_under_rms() {
    let mut disagreements = Vec::new();
    for (i, ts) in random_sets(12, 0.85).into_iter().enumerate() {
        let exact = rm_schedulable(&ts);
        let acsr = acsr_verdict(&ts, "RMS");
        if exact != acsr {
            disagreements.push((i, ts, exact, acsr));
        }
    }
    assert!(disagreements.is_empty(), "{disagreements:?}");
}

#[test]
fn acsr_agrees_with_rta_under_dms() {
    for (i, mut ts) in random_sets(8, 0.8).into_iter().enumerate() {
        // Constrain deadlines below periods to make DM interesting.
        for t in &mut ts.tasks {
            t.deadline = (t.period * 3 / 4).max(t.wcet);
        }
        let exact = dm_schedulable(&ts);
        let acsr = acsr_verdict(&ts, "DMS");
        assert_eq!(exact, acsr, "set #{i}: {ts:?}");
    }
}

#[test]
fn acsr_agrees_with_processor_demand_under_edf() {
    for (i, ts) in random_sets(8, 0.95).into_iter().enumerate() {
        let exact = edf_schedulable(&ts);
        let acsr = acsr_verdict(&ts, "EDF");
        assert_eq!(exact, acsr, "set #{i}: {ts:?}");
    }
}

#[test]
fn acsr_agrees_with_wcet_simulation() {
    for (i, ts) in random_sets(10, 0.9).into_iter().enumerate() {
        let sim = simulate(&ts, Policy::Rm, ExecModel::Wcet, ts.hyperperiod()).ok();
        let acsr = acsr_verdict(&ts, "RMS");
        assert_eq!(sim, acsr, "set #{i}: {ts:?}");
    }
}

#[test]
fn rm_vs_edf_crossover_set() {
    // The classic separation witness: U = 1.0, non-harmonic — RM misses,
    // EDF meets. Both engines (analytical and exhaustive) agree on both.
    let ts = TaskSet::new(vec![
        sched_baselines::types::Task::new(0, 10, 5),
        sched_baselines::types::Task::new(0, 14, 7),
    ]);
    assert!(!rm_schedulable(&ts));
    assert!(edf_schedulable(&ts));
    assert!(!acsr_verdict(&ts, "RMS"));
    assert!(acsr_verdict(&ts, "EDF"));
}

#[test]
fn llf_schedules_the_crossover_set_too() {
    // LLF is also optimal on one processor.
    let ts = TaskSet::new(vec![
        sched_baselines::types::Task::new(0, 10, 5),
        sched_baselines::types::Task::new(0, 14, 7),
    ]);
    let sim = simulate(&ts, Policy::Llf, ExecModel::Wcet, ts.hyperperiod());
    assert!(sim.ok());
    assert!(acsr_verdict(&ts, "LLF"));
}

#[test]
fn hpf_misassignment_is_caught_by_both() {
    // Give the urgent task the *lower* explicit priority: both the simulator
    // and the exhaustive analysis must flag it; swapping priorities fixes it.
    let mut urgent = sched_baselines::types::Task::new(0, 10, 4).with_deadline(4);
    let mut relaxed = sched_baselines::types::Task::new(0, 10, 4);
    urgent.priority = Some(2);
    relaxed.priority = Some(9);
    let bad = TaskSet::new(vec![urgent.clone(), relaxed.clone()]);
    assert!(!simulate(&bad, Policy::Hpf, ExecModel::Wcet, bad.hyperperiod()).ok());
    assert!(!acsr_verdict(&bad, "HPF"));

    urgent.priority = Some(9);
    relaxed.priority = Some(2);
    let good = TaskSet::new(vec![urgent, relaxed]);
    assert!(simulate(&good, Policy::Hpf, ExecModel::Wcet, good.hyperperiod()).ok());
    assert!(acsr_verdict(&good, "HPF"));
}

#[test]
fn hpf_priorities_one_and_two_stay_distinct_levels() {
    // Priority 2 outranks Priority 1, so the long task is preempted by the
    // short one: RTA gives R = 14 + ⌈17/6⌉·1 = 17 ≤ 20. Clamping Priority
    // to ≥ 2 once merged the two into one level and reported a miss.
    let mut short = sched_baselines::types::Task::new(0, 6, 1);
    let mut long = sched_baselines::types::Task::new(0, 20, 14);
    short.priority = Some(2);
    long.priority = Some(1);
    let ts = TaskSet::new(vec![short, long]);
    assert_eq!(
        sched_baselines::rta::response_times(&ts, &[0, 1]),
        vec![Some(1), Some(17)]
    );
    assert!(simulate(&ts, Policy::Hpf, ExecModel::Wcet, ts.hyperperiod()).ok());
    assert!(acsr_verdict(&ts, "HPF"));
}
