//! End-to-end regression on the flight-control model — the "everything at
//! once" system: device stimulus, sporadic and aperiodic dispatch, queues,
//! a bus-bound data path, cross-processor shared data, three processors.

use aadl::examples::flight_control_model;
use aadl2acsr::{analyze, translate, AnalysisOptions, ComponentRole, TranslateOptions};

#[test]
fn inventory_covers_every_process_kind() {
    let m = flight_control_model();
    let tm = translate(&m, &TranslateOptions::default()).unwrap();
    assert_eq!(tm.inventory.threads, 6);
    assert_eq!(tm.inventory.dispatchers, 6);
    // Two queued connections: gps → nav_filter, autopilot → alert_mgr.
    assert_eq!(tm.inventory.queues, 2);
    assert_eq!(tm.inventory.device_gens, 1);
    assert!(tm
        .names
        .roles
        .iter()
        .any(|r| matches!(r, ComponentRole::DeviceGen(_))));
}

#[test]
fn the_system_is_schedulable_end_to_end() {
    let m = flight_control_model();
    let v = analyze(
        &m,
        &TranslateOptions::default(),
        &AnalysisOptions::default(),
    )
    .unwrap();
    assert!(v.schedulable(), "stats: {:?}", v.stats());
    assert!(!v.truncated());
}

#[test]
fn exhaustive_sweep_is_finite_and_clean() {
    let m = flight_control_model();
    let v = analyze(
        &m,
        &TranslateOptions::default(),
        &AnalysisOptions::exhaustive(),
    )
    .unwrap();
    assert!(v.schedulable(), "stats: {:?}", v.stats());
    // A real product space, but bounded.
    assert!(v.stats().states > 50, "states: {}", v.stats().states);
    assert!(v.stats().states < 2_000_000, "states: {}", v.stats().states);
}

#[test]
fn compact_mode_agrees() {
    let m = flight_control_model();
    let compact = analyze(
        &m,
        &TranslateOptions {
            compact: true,
            ..Default::default()
        },
        &AnalysisOptions::default(),
    )
    .unwrap();
    assert!(compact.schedulable());
}

#[test]
fn overloading_the_control_processor_is_caught() {
    // Stress variant: slow the autopilot down so control_cpu exceeds 1.
    let mut pkg = aadl::examples::flight_control();
    let ap = pkg
        .types
        .iter_mut()
        .find(|t| t.name == "Autopilot")
        .unwrap();
    for prop in &mut ap.properties {
        if prop.name == aadl::properties::names::COMPUTE_EXECUTION_TIME {
            prop.value = aadl::properties::PropertyValue::TimeRange(
                aadl::properties::TimeVal::ms(20),
                aadl::properties::TimeVal::ms(20),
            );
        }
    }
    let m = aadl::instance::instantiate(&pkg, "Top.impl").unwrap();
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
        aadl2acsr::ViolationKind::DeadlineMiss { thread }
            if thread == "autopilot" || thread == "servo_driver"
    )));
}
