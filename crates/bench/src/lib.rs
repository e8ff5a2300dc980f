//! # bench — the experiment harness and its workload generators
//!
//! The `harness` binary regenerates every quantitative table of
//! `EXPERIMENTS.md` in one run and writes `BENCH_exploration.json`
//! (`cargo run --release -p bench --bin harness`); this library holds the
//! model builders its sweeps share.

use aadl::builder::PackageBuilder;
use aadl::instance::{instantiate, InstanceModel};
use aadl::model::Category;
use aadl::properties::{names, PropertyValue, TimeVal};

/// A single-processor RMS system of `n` periodic threads with harmonic
/// periods `base · 2^min(i,3)` quanta (1 quantum = 1 ms) and per-thread
/// utilization ≈ `u_each` (WCET rounded to whole quanta, at least 1).
/// Schedulable whenever the rounded utilizations sum below 1 (harmonic
/// periods); used by the scaling experiments (Q3).
pub fn harmonic_system(n: usize, base_q: i64, u_each: f64) -> InstanceModel {
    let mut b = PackageBuilder::new("Harmonic")
        .processor("cpu_t", |p| p.prop_enum(names::SCHEDULING_PROTOCOL, "RMS"));
    for i in 0..n {
        let period = base_q << i.min(3); // cap the hyperperiod growth
        let wcet = (((period as f64) * u_each).round() as i64).clamp(1, period);
        let name = format!("T{i}");
        b = b.thread(&name, move |t| {
            t.prop_enum(names::DISPATCH_PROTOCOL, "Periodic")
                .prop(names::PERIOD, PropertyValue::Time(TimeVal::ms(period)))
                .prop(
                    names::COMPUTE_EXECUTION_TIME,
                    PropertyValue::TimeRange(TimeVal::ms(wcet), TimeVal::ms(wcet)),
                )
                .prop(
                    names::COMPUTE_DEADLINE,
                    PropertyValue::Time(TimeVal::ms(period)),
                )
        });
    }
    b = b.system("Top", |s| s);
    let pkg = b
        .implementation("Top.impl", Category::System, |mut i| {
            i = i.sub("cpu", Category::Processor, "cpu_t");
            for t in 0..n {
                let sub = format!("t{t}");
                let ty = format!("T{t}");
                i = i
                    .sub(&sub, Category::Thread, &ty)
                    .bind_processor(&sub, "cpu");
            }
            i.prop(
                names::SCHEDULING_QUANTUM,
                PropertyValue::Time(TimeVal::ms(1)),
            )
        })
        .build();
    instantiate(&pkg, "Top.impl").unwrap()
}

/// The overrun producer/handler model of experiment Q5, parameterized by
/// queue size and overflow protocol.
pub fn overrun_system(queue_size: i64, overflow: &str) -> InstanceModel {
    let overflow = overflow.to_owned();
    let pkg = PackageBuilder::new("Overrun")
        .processor("cpu_t", |p| p.prop_enum(names::SCHEDULING_PROTOCOL, "RMS"))
        .thread("Producer", |t| {
            t.out_event_port("evt")
                .prop_enum(names::DISPATCH_PROTOCOL, "Periodic")
                .prop(names::PERIOD, PropertyValue::Time(TimeVal::ms(4)))
                .prop(
                    names::COMPUTE_EXECUTION_TIME,
                    PropertyValue::TimeRange(TimeVal::ms(1), TimeVal::ms(1)),
                )
                .prop(names::COMPUTE_DEADLINE, PropertyValue::Time(TimeVal::ms(4)))
        })
        .thread("Handler", move |t| {
            t.in_event_port("trigger")
                .feature_prop(names::QUEUE_SIZE, PropertyValue::Int(queue_size))
                .feature_prop(
                    names::OVERFLOW_HANDLING_PROTOCOL,
                    PropertyValue::Enum(overflow.clone()),
                )
                .prop_enum(names::DISPATCH_PROTOCOL, "Sporadic")
                .prop(names::PERIOD, PropertyValue::Time(TimeVal::ms(9)))
                .prop(
                    names::COMPUTE_EXECUTION_TIME,
                    PropertyValue::TimeRange(TimeVal::ms(1), TimeVal::ms(1)),
                )
                .prop(names::COMPUTE_DEADLINE, PropertyValue::Time(TimeVal::ms(3)))
        })
        .system("Top", |s| s)
        .implementation("Top.impl", Category::System, |i| {
            i.sub("cpu1", Category::Processor, "cpu_t")
                .sub("cpu2", Category::Processor, "cpu_t")
                .sub("producer", Category::Thread, "Producer")
                .sub("handler", Category::Thread, "Handler")
                .connect("evt_conn", "producer.evt", "handler.trigger")
                .bind_processor("producer", "cpu1")
                .bind_processor("handler", "cpu2")
                .prop(
                    names::SCHEDULING_QUANTUM,
                    PropertyValue::Time(TimeVal::ms(1)),
                )
        })
        .build();
    instantiate(&pkg, "Top.impl").unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aadl2acsr::{analyze, AnalysisOptions, TranslateOptions};

    #[test]
    fn harmonic_systems_scale_and_stay_schedulable() {
        for n in 1..=4 {
            let m = harmonic_system(n, 4, 0.2);
            let v = analyze(
                &m,
                &TranslateOptions::default(),
                &AnalysisOptions::default(),
            )
            .unwrap();
            assert!(v.schedulable(), "n = {n}");
        }
    }

    #[test]
    fn overrun_system_matches_q5() {
        let m = overrun_system(1, "Error");
        let v = analyze(
            &m,
            &TranslateOptions::default(),
            &AnalysisOptions::default(),
        )
        .unwrap();
        assert!(!v.schedulable());
        let m = overrun_system(1, "DropNewest");
        let v = analyze(
            &m,
            &TranslateOptions::default(),
            &AnalysisOptions::default(),
        )
        .unwrap();
        assert!(v.schedulable());
    }
}
