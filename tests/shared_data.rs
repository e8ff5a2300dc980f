//! Extension experiment — shared data via access connections: the `R` set of
//! Fig. 5 of the paper, under the §4.1 quantum-exclusive semantics ("access
//! to shared data is modeled as taking the whole quantum, since only one
//! thread can gain access to it during the quantum").
//!
//! The paper's translation omits access connections (§4: they require
//! "encoding of concurrency control protocols"); this is the implementation
//! of the hook its Fig. 5 leaves open. The headline effect is **remote
//! blocking**: a thread on its own processor can miss a deadline because a
//! thread on *another* processor holds the shared data during some quanta.

use aadl::builder::PackageBuilder;
use aadl::instance::{instantiate, InstanceModel};
use aadl::model::Category;
use aadl::properties::{names, PropertyValue, TimeVal};
use aadl2acsr::{analyze, AnalysisOptions, TranslateOptions, ViolationKind};

/// Two threads on different processors sharing a data component.
/// `T_high` (cpu1): period 12, exec 2, deadline 12 — enough headroom to
/// absorb any blocking (worst response 2 + 5 = 7). `T_low` (cpu2): period
/// 10, exec 5, deadline `low_deadline_ms`. Without sharing, `T_low` alone
/// responds in 5 ms; with sharing it can lose up to 2 quanta per `T_high`
/// activation, for a worst response of 7 ms.
fn shared_model(low_deadline_ms: i64, share: bool) -> InstanceModel {
    let pkg = PackageBuilder::new("Shared")
        .processor("cpu_t", |p| p.prop_enum(names::SCHEDULING_PROTOCOL, "RMS"))
        .component("store", Category::Data, |d| d)
        .thread("THigh", |t| {
            t.prop_enum(names::DISPATCH_PROTOCOL, "Periodic")
                .prop(names::PERIOD, PropertyValue::Time(TimeVal::ms(12)))
                .prop(
                    names::COMPUTE_EXECUTION_TIME,
                    PropertyValue::TimeRange(TimeVal::ms(2), TimeVal::ms(2)),
                )
                .prop(names::COMPUTE_DEADLINE, PropertyValue::Time(TimeVal::ms(12)))
        })
        .thread("TLow", |t| {
            t.prop_enum(names::DISPATCH_PROTOCOL, "Periodic")
                .prop(names::PERIOD, PropertyValue::Time(TimeVal::ms(10)))
                .prop(
                    names::COMPUTE_EXECUTION_TIME,
                    PropertyValue::TimeRange(TimeVal::ms(5), TimeVal::ms(5)),
                )
                .prop(
                    names::COMPUTE_DEADLINE,
                    PropertyValue::Time(TimeVal::ms(low_deadline_ms)),
                )
        })
        .system("Top", |s| s)
        .implementation("Top.impl", Category::System, |i| {
            let mut i = i
                .sub("cpu1", Category::Processor, "cpu_t")
                .sub("cpu2", Category::Processor, "cpu_t")
                .sub("shared", Category::Data, "store")
                .sub("t_high", Category::Thread, "THigh")
                .sub("t_low", Category::Thread, "TLow")
                .bind_processor("t_high", "cpu1")
                .bind_processor("t_low", "cpu2")
                .prop(
                    names::SCHEDULING_QUANTUM,
                    PropertyValue::Time(TimeVal::ms(1)),
                );
            if share {
                i = i
                    .connect_data_access("a1", "shared", "t_high")
                    .connect_data_access("a2", "shared", "t_low");
            }
            i
        })
        .build();
    instantiate(&pkg, "Top.impl").unwrap()
}

#[test]
fn access_connections_resolve() {
    let m = shared_model(6, true);
    assert_eq!(m.accesses.len(), 2);
    let low = m.find("t_low").unwrap();
    let accs = m.accesses_of(low);
    assert_eq!(accs.len(), 1);
    assert_eq!(m.component(accs[0].data).name, "shared");
}

#[test]
fn without_sharing_the_tight_deadline_holds() {
    let m = shared_model(6, false);
    let v = analyze(
        &m,
        &TranslateOptions::default(),
        &AnalysisOptions::exhaustive(),
    )
    .unwrap();
    assert!(v.schedulable(), "each thread alone on its processor");
}

#[test]
fn remote_blocking_breaks_the_tight_deadline() {
    // With the shared store, T_low can lose the 2 quanta in which T_high
    // computes: worst response 5 + 2 = 7 > 6.
    let m = shared_model(6, true);
    let v = analyze(
        &m,
        &TranslateOptions::default(),
        &AnalysisOptions::default(),
    )
    .unwrap();
    assert!(!v.schedulable());
    let sc = v.scenario().unwrap();
    assert!(sc.violations.iter().any(|vk| matches!(
        vk,
        ViolationKind::DeadlineMiss { thread } if thread == "t_low"
    )));
    // The raised timeline shows T_low preempted while T_high runs — the
    // remote-blocking quantum made visible.
    assert!(sc.timeline.iter().any(|row| {
        row.activities
            .iter()
            .any(|(p, a)| p == "t_low" && *a == aadl2acsr::diagnose::Activity::Preempted)
            && row
                .activities
                .iter()
                .any(|(p, _)| p == "t_high")
    }));
}

#[test]
fn a_relaxed_deadline_absorbs_the_blocking() {
    // Worst-case response 5 + 2 = 7 ≤ 8: schedulable even with sharing.
    let m = shared_model(8, true);
    let v = analyze(
        &m,
        &TranslateOptions::default(),
        &AnalysisOptions::exhaustive(),
    )
    .unwrap();
    assert!(v.schedulable(), "stats: {:?}", v.stats());
}

#[test]
fn same_processor_sharers_do_not_deadlock() {
    // On one processor the cpu already serializes the sharers; claiming R
    // only while computing keeps the composition live.
    let pkg = PackageBuilder::new("SameCpu")
        .processor("cpu_t", |p| p.prop_enum(names::SCHEDULING_PROTOCOL, "RMS"))
        .component("store", Category::Data, |d| d)
        .periodic_thread(
            "T1",
            TimeVal::ms(10),
            (TimeVal::ms(2), TimeVal::ms(2)),
            TimeVal::ms(10),
        )
        .periodic_thread(
            "T2",
            TimeVal::ms(20),
            (TimeVal::ms(4), TimeVal::ms(4)),
            TimeVal::ms(20),
        )
        .system("Top", |s| s)
        .implementation("Top.impl", Category::System, |i| {
            i.sub("cpu", Category::Processor, "cpu_t")
                .sub("shared", Category::Data, "store")
                .sub("t1", Category::Thread, "T1")
                .sub("t2", Category::Thread, "T2")
                .bind_processor("t1", "cpu")
                .bind_processor("t2", "cpu")
                .connect_data_access("a1", "shared", "t1")
                .connect_data_access("a2", "shared", "t2")
                .prop(
                    names::SCHEDULING_QUANTUM,
                    PropertyValue::Time(TimeVal::ms(2)),
                )
        })
        .build();
    let m = instantiate(&pkg, "Top.impl").unwrap();
    let v = analyze(
        &m,
        &TranslateOptions::default(),
        &AnalysisOptions::exhaustive(),
    )
    .unwrap();
    assert!(v.schedulable(), "stats: {:?}", v.stats());
}

#[test]
fn access_connections_parse_and_round_trip() {
    let src = r#"
package Acc
public
  processor cpu_t
    properties
      Scheduling_Protocol => RMS;
  end cpu_t;
  data store
  end store;
  thread T
    features
      d: requires data access;
    properties
      Dispatch_Protocol => Periodic;
      Period => 10 ms;
      Compute_Execution_Time => 2 ms .. 2 ms;
      Compute_Deadline => 10 ms;
  end T;
  system Top
  end Top;
  system implementation Top.impl
    subcomponents
      cpu: processor cpu_t;
      shared: data store;
      t1: thread T;
    connections
      a1: data access shared -> t1.d;
    properties
      Actual_Processor_Binding => reference (cpu) applies to t1;
  end Top.impl;
end Acc;
"#;
    let pkg = aadl::parser::parse_package(src).unwrap();
    let text = aadl::pretty::render_package(&pkg);
    let reparsed = aadl::parser::parse_package(&text).unwrap();
    assert_eq!(pkg, reparsed);
    let m = instantiate(&pkg, "Top.impl").unwrap();
    assert_eq!(m.accesses.len(), 1);
    let v = analyze(
        &m,
        &TranslateOptions::default(),
        &AnalysisOptions::exhaustive(),
    )
    .unwrap();
    assert!(v.schedulable());
}

/// HPF on two processors with a `Priority_Ceiling` store. On `cpu1`, `T_a`
/// (Priority 10; period 4, exec 3, one 3 ms critical section) and `T_b`
/// (Priority 20; period 6, exec 1, deadline 1). On `cpu2`, `T_c` (Priority 30;
/// period 12, exec 1, one 1 ms critical section) when `remote_sharer` is set.
fn ceiling_model(remote_sharer: bool) -> InstanceModel {
    let thread = |period: i64, exec: i64, deadline: i64, prio: i64| {
        move |t: aadl::builder::TypeBuilder| {
            t.prop_enum(names::DISPATCH_PROTOCOL, "Periodic")
                .prop(names::PERIOD, PropertyValue::Time(TimeVal::ms(period)))
                .prop(
                    names::COMPUTE_EXECUTION_TIME,
                    PropertyValue::TimeRange(TimeVal::ms(exec), TimeVal::ms(exec)),
                )
                .prop(names::COMPUTE_DEADLINE, PropertyValue::Time(TimeVal::ms(deadline)))
                .prop_int(names::PRIORITY, prio)
        }
    };
    let cs = |ms: i64| PropertyValue::Time(TimeVal::ms(ms));
    let pkg = PackageBuilder::new("Ceiling")
        .processor("cpu_t", |p| p.prop_enum(names::SCHEDULING_PROTOCOL, "HPF"))
        .component("store", Category::Data, |d| {
            d.prop_enum(names::CONCURRENCY_CONTROL_PROTOCOL, "Priority_Ceiling")
        })
        .thread("TA", thread(4, 3, 4, 10))
        .thread("TB", thread(6, 1, 1, 20))
        .thread("TC", thread(12, 1, 12, 30))
        .system("Top", |s| s)
        .implementation("Top.impl", Category::System, |i| {
            let mut i = i
                .sub("cpu1", Category::Processor, "cpu_t")
                .sub("cpu2", Category::Processor, "cpu_t")
                .sub("shared", Category::Data, "store")
                .sub("t_a", Category::Thread, "TA")
                .sub("t_b", Category::Thread, "TB")
                .sub("t_c", Category::Thread, "TC")
                .bind_processor("t_a", "cpu1")
                .bind_processor("t_b", "cpu1")
                .bind_processor("t_c", "cpu2")
                .connect_data_access("a_a", "shared", "t_a")
                .conn_prop(names::CRITICAL_SECTION_EXECUTION_TIME, cs(3))
                .prop(
                    names::SCHEDULING_QUANTUM,
                    PropertyValue::Time(TimeVal::ms(1)),
                );
            if remote_sharer {
                i = i
                    .connect_data_access("a_c", "shared", "t_c")
                    .conn_prop(names::CRITICAL_SECTION_EXECUTION_TIME, cs(1));
            }
            i
        })
        .build();
    instantiate(&pkg, "Top.impl").unwrap()
}

#[test]
fn a_remote_sharer_raises_the_hpf_ceiling_on_the_holders_processor() {
    // With `T_a` the only sharer, the ceiling is `T_a`'s own priority: `T_b`
    // preempts the critical section at t = 6 and both deadlines hold.
    let v = analyze(
        &ceiling_model(false),
        &TranslateOptions::default(),
        &AnalysisOptions::exhaustive(),
    )
    .unwrap();
    assert!(v.schedulable(), "stats: {:?}", v.stats());

    // `T_c` (Priority 30, on cpu2) also locks the store, so the ceiling is
    // above `T_b` (Priority 20): `T_a`'s section started at t = 4 blocks the
    // job `T_b` releases at t = 6 until t = 7, and it misses its deadline.
    // The levels must compare across processors for this to hold.
    let v = analyze(
        &ceiling_model(true),
        &TranslateOptions::default(),
        &AnalysisOptions::default(),
    )
    .unwrap();
    assert!(!v.schedulable());
    let sc = v.scenario().unwrap();
    assert!(
        sc.violations.iter().any(|vk| matches!(
            vk,
            ViolationKind::DeadlineMiss { thread } if thread == "t_b"
        )),
        "{:?}",
        sc.violations
    );
}
