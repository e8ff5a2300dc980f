//! Long-horizon regression: the translated model must cycle cleanly across
//! many hyperperiods — dispatch counters, scope countdowns and queue levels
//! all return to their initial configuration, so the reachable state space is
//! a lasso whose loop re-enters previously seen states rather than growing.

use aadl::builder::PackageBuilder;
use aadl::instance::instantiate;
use aadl::model::Category;
use aadl::properties::{names, PropertyValue, TimeVal};
use aadl2acsr::{translate, TranslateOptions};
use versa::{explore, random_walk, Options};

fn three_thread_model() -> aadl::instance::InstanceModel {
    let pkg = PackageBuilder::new("Cycle")
        .processor("cpu_t", |p| p.prop_enum(names::SCHEDULING_PROTOCOL, "RMS"))
        .periodic_thread(
            "T1",
            TimeVal::ms(4),
            (TimeVal::ms(1), TimeVal::ms(1)),
            TimeVal::ms(4),
        )
        .periodic_thread(
            "T2",
            TimeVal::ms(6),
            (TimeVal::ms(2), TimeVal::ms(2)),
            TimeVal::ms(6),
        )
        .periodic_thread(
            "T3",
            TimeVal::ms(12),
            (TimeVal::ms(3), TimeVal::ms(3)),
            TimeVal::ms(12),
        )
        .system("Top", |s| s)
        .implementation("Top.impl", Category::System, |i| {
            i.sub("cpu", Category::Processor, "cpu_t")
                .sub("t1", Category::Thread, "T1")
                .sub("t2", Category::Thread, "T2")
                .sub("t3", Category::Thread, "T3")
                .bind_processor("t1", "cpu")
                .bind_processor("t2", "cpu")
                .bind_processor("t3", "cpu")
                .prop(
                    names::SCHEDULING_QUANTUM,
                    PropertyValue::Time(TimeVal::ms(1)),
                )
        })
        .build();
    instantiate(&pkg, "Top.impl").unwrap()
}

#[test]
fn the_state_space_is_a_closed_lasso() {
    // U = 0.25 + 0.333 + 0.25 ≈ 0.83, harmonic-ish (hyperperiod 12):
    // schedulable, and the full exploration terminates on a finite loop.
    let m = three_thread_model();
    let tm = translate(&m, &TranslateOptions::default()).unwrap();
    let ex = explore(&tm.env, &tm.initial, &Options::default());
    assert!(ex.deadlock_free(), "stats: {:?}", ex.stats);
    // More transitions than states ⇒ at least one back-edge (the lasso loop).
    assert!(ex.stats.transitions >= ex.num_states());
}

#[test]
fn very_long_walks_stay_within_the_explored_space() {
    // A 600-quantum walk (50 hyperperiods) never deadlocks and never leaves
    // the set of states the per-quantum exploration found (the zone graph
    // of a verdict run keeps only branch points and run endpoints).
    let m = three_thread_model();
    let tm = translate(&m, &TranslateOptions::default()).unwrap();
    let ex = explore(&tm.env, &tm.initial, &Options::default().with_lts());
    for seed in [1u64, 17, 99] {
        let w = random_walk(&tm.env, &tm.initial, 2000, seed);
        assert!(!w.deadlocked, "seed {seed}");
        assert!(w.elapsed_quanta() >= 600, "seed {seed}: walk too short");
        // Spot-check membership of the final state.
        let last = w.final_state();
        let found = (0..ex.num_states())
            .any(|i| ex.state(versa::StateId(i as u32)) == last);
        assert!(found, "seed {seed}: walk escaped the explored space");
    }
}

#[test]
fn hyperperiod_structure_shows_in_the_level_count() {
    // BFS levels of the per-quantum search ≈ instantaneous layers + one per
    // quantum of the transient + loop; it must comfortably exceed the
    // hyperperiod (12 quanta) and stay finite.
    let m = three_thread_model();
    let tm = translate(&m, &TranslateOptions::default()).unwrap();
    let ex = explore(&tm.env, &tm.initial, &Options::default().with_lts());
    assert!(ex.stats.levels > 12);
    assert!(ex.stats.levels < 200);
}
