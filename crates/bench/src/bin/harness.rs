//! Regenerate every quantitative table of `EXPERIMENTS.md` in one run:
//!
//! ```sh
//! cargo run --release -p bench --bin harness [-- --store <dir>]
//! ```
//!
//! Every run prints every table and rewrites `BENCH_exploration.json` in
//! the working directory; its `cas`, `zones` and `obs_overhead` sections
//! come from the store A/B (Q12), the long-hyperperiod zone run (Q13) and
//! the recorder A/B (Q11). Q13 dominates the wall clock (best-of-3
//! exhaustive explorations of the long-hyperperiod model).
//!
//! `--store <dir>` points the Q12 warm-vs-cold sweep at a persistent
//! artifact-store directory instead of the default `target/bench-cas`
//! (which is wiped per run so the cold pass is honestly cold). With an
//! explicit directory nothing is wiped — a second harness run then serves
//! its "cold" pass from the store, which is exactly what the CI cas stage
//! asserts. Any other argument prints the usage line and exits 2.

use std::time::{Duration, Instant};

use aadl::examples::{cruise_control_model, cruise_control_overloaded};
use aadl::instance::instantiate;
use aadl::parser::parse_package;
use aadl::properties::{ConcurrencyControlProtocol, TimeVal};
use aadl2acsr::{analyze, translate, AnalysisOptions, TranslateOptions};
use bench::{harmonic_system, overrun_system};
use sched_baselines::edf_demand::edf_schedulable;
use sched_baselines::rta::rm_schedulable;
use sched_baselines::taskset::{taskset_to_package, uunifast, TaskSetSpec};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let store_dir = match args.as_slice() {
        [] => None,
        [flag, dir] if flag == "--store" => Some(dir.as_str()),
        _ => {
            eprintln!("usage: harness [--store <dir>]");
            std::process::exit(2);
        }
    };
    f1_cruise_control();
    q1_quantum_tradeoff();
    q2_verdict_agreement();
    q2b_acceptance_by_utilization();
    q3_scaling();
    q5_queue_overflow();
    let cas_section = q12_store_warm_sweep(store_dir);
    let zones_section = q13_zones();
    let overhead_section = q11_recorder_overhead();
    q6_exploration_report(cas_section, zones_section, overhead_section);
    q7_locking_protocols();
}

fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

fn f1_cruise_control() {
    header("F1 — cruise control (Fig. 1): inventory and verdicts");
    let m = cruise_control_model();
    let tm = translate(&m, &TranslateOptions::default()).unwrap();
    println!(
        "inventory: {} thread processes, {} dispatchers, {} queues (paper §4.1: 6/6/0)",
        tm.inventory.threads, tm.inventory.dispatchers, tm.inventory.queues
    );
    let v = analyze(&m, &TranslateOptions::default(), &AnalysisOptions::exhaustive()).unwrap();
    println!(
        "nominal:    schedulable={} states={} transitions={} time={:?}",
        v.schedulable(), v.stats().states, v.stats().transitions, v.stats().duration
    );
    let m = instantiate(&cruise_control_overloaded(), "CruiseControl.impl").unwrap();
    let v = analyze(&m, &TranslateOptions::default(), &AnalysisOptions::default()).unwrap();
    println!(
        "overloaded: schedulable={} first deadlock at quantum {} ({} states)",
        v.schedulable(),
        v.scenario().as_ref().map(|s| s.at_quantum).unwrap_or(0),
        v.stats().states
    );
}

/// Path to a bundled `.aadl` model, robust to the harness cwd.
fn model_file(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/models")
        .join(name)
}

/// Parse and instantiate a bundled model once — sweeps hoist this out of
/// their loops so per-point cost is translation + exploration, never
/// re-parsing.
fn parsed_cruise_control() -> aadl::instance::InstanceModel {
    let path = model_file("cruise_control.aadl");
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let pkg = parse_package(&source).expect("parse cruise_control.aadl");
    instantiate(&pkg, "CruiseControl.impl").expect("cruise control instantiates")
}

fn q1_quantum_tradeoff() {
    header("Q1 — quantum sweep on the cruise-control model (§4.1 trade-off)");
    // The `.aadl` source is parsed once, outside the sweep loop; each point
    // re-translates the same instance at its own quantum.
    let m = parsed_cruise_control();
    println!("{:>10} {:>13} {:>10} {:>13} {:>12}", "quantum", "schedulable", "states", "transitions", "time");
    for q in [10i64, 5, 1] {
        let v = analyze(
            &m,
            &TranslateOptions {
                quantum: Some(TimeVal::ms(q)),
                ..Default::default()
            },
            &AnalysisOptions::default(),
        )
        .unwrap();
        println!(
            "{:>8}ms {:>13} {:>10} {:>13} {:>12?}",
            q, v.schedulable(), v.stats().states, v.stats().transitions, v.stats().duration
        );
    }
}

fn q2_verdict_agreement() {
    header("Q2 — verdict agreement: exhaustive ACSR vs exact baselines");
    let mut rm_agree = 0;
    let mut edf_agree = 0;
    let n = 20u64;
    for seed in 0..n {
        let ts = uunifast(&TaskSetSpec {
            n: 3,
            target_utilization: 0.85,
            periods: vec![4, 5, 8, 10],
            seed,
        });
        let rm_exact = rm_schedulable(&ts);
        let rm_acsr = {
            let pkg = taskset_to_package(&ts, "RMS");
            let m = instantiate(&pkg, "Top.impl").unwrap();
            analyze(&m, &TranslateOptions::default(), &AnalysisOptions::default())
                .unwrap()
                .schedulable()
        };
        if rm_exact == rm_acsr {
            rm_agree += 1;
        }
        let edf_exact = edf_schedulable(&ts);
        let edf_acsr = {
            let pkg = taskset_to_package(&ts, "EDF");
            let m = instantiate(&pkg, "Top.impl").unwrap();
            analyze(&m, &TranslateOptions::default(), &AnalysisOptions::default())
                .unwrap()
                .schedulable()
        };
        if edf_exact == edf_acsr {
            edf_agree += 1;
        }
    }
    println!("random task sets (n=3, U*=0.85): {n} sets");
    println!("RMS:  ACSR vs exact RTA agreement        {rm_agree}/{n}");
    println!("EDF:  ACSR vs processor-demand agreement {edf_agree}/{n}");
}

fn q2b_acceptance_by_utilization() {
    header("Q2b — acceptance ratio by utilization: RMS vs EDF (exhaustive ACSR)");
    println!("{:>6} {:>12} {:>12}", "U", "RMS accept", "EDF accept");
    for u10 in [7u64, 8, 9, 10] {
        let target = u10 as f64 / 10.0;
        let n = 10u64;
        let mut rm_ok = 0;
        let mut edf_ok = 0;
        for seed in 0..n {
            let ts = uunifast(&TaskSetSpec {
                n: 3,
                target_utilization: target,
                periods: vec![4, 5, 8, 10],
                seed: 1000 * u10 + seed,
            });
            for (protocol, counter) in [("RMS", &mut rm_ok), ("EDF", &mut edf_ok)] {
                let pkg = taskset_to_package(&ts, protocol);
                let m = instantiate(&pkg, "Top.impl").unwrap();
                if analyze(&m, &TranslateOptions::default(), &AnalysisOptions::default())
                    .unwrap()
                    .schedulable()
                {
                    *counter += 1;
                }
            }
        }
        println!(
            "{:>6.2} {:>9}/{n} {:>9}/{n}",
            target, rm_ok, edf_ok
        );
    }
    println!("(EDF dominates RMS; the gap widens toward U = 1 — the classic curve.)");
}

fn q3_scaling() {
    header("Q3 — exploration scaling: model size");
    println!("{:>8} {:>10} {:>13} {:>12}", "threads", "states", "transitions", "time");
    for n in [2usize, 3, 4, 5, 6] {
        let m = harmonic_system(n, 4, 0.12);
        let t0 = Instant::now();
        let v = analyze(&m, &TranslateOptions::default(), &AnalysisOptions::default()).unwrap();
        println!(
            "{:>8} {:>10} {:>13} {:>12?}",
            n,
            v.stats().states,
            v.stats().transitions,
            t0.elapsed()
        );
        assert!(v.schedulable());
    }
}

fn q5_queue_overflow() {
    header("Q5 — queue overflow (§4.4): size sweep under the Error protocol");
    println!("{:>6} {:>12} {:>18}", "size", "verdict", "overflow quantum");
    for size in [1i64, 2, 3, 4] {
        let m = overrun_system(size, "Error");
        let v = analyze(&m, &TranslateOptions::default(), &AnalysisOptions::default()).unwrap();
        println!(
            "{:>6} {:>12} {:>18}",
            size,
            if v.schedulable() { "clean" } else { "overflow" },
            v.scenario().map(|s| s.at_quantum.to_string()).unwrap_or_else(|| "-".into())
        );
    }
    let m = overrun_system(1, "DropNewest");
    let v = analyze(&m, &TranslateOptions::default(), &AnalysisOptions::exhaustive()).unwrap();
    println!("DropNewest, size 1: schedulable={} ({} states)", v.schedulable(), v.stats().states);
}

/// Read back a counter from a finished run (0 when it was never registered).
fn run_counter(run: &obs::RunData, name: &str) -> u64 {
    run.counters
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

/// Q12 — the cross-run artifact store: the identical 10-point quantum sweep
/// twice, cold then warm (EXPERIMENTS.md Q12). The `.aadl` source is parsed
/// once; every point re-translates at its own quantum, so each point keys a
/// distinct artifact. The warm pass must reproduce every verdict row
/// byte-for-byte from replayed artifacts — the harness aborts otherwise.
fn q12_store_warm_sweep(store_dir: Option<&str>) -> obs::Json {
    header("Q12 — warm vs cold quantum sweep (cross-run artifact store)");
    let m = parsed_cruise_control();
    let dir = match store_dir {
        Some(d) => std::path::PathBuf::from(d),
        None => {
            // A fresh store per run keeps the cold pass honestly cold.
            let d = std::path::PathBuf::from("target/bench-cas");
            let _ = std::fs::remove_dir_all(&d);
            d
        }
    };
    let store = std::sync::Arc::new(
        cas::CasStore::open(&dir, cas::Mode::ReadWrite).expect("open artifact store"),
    );
    let quanta: Vec<i64> = (1..=10).collect();
    let sweep = |rec: &obs::Recorder| -> (Vec<String>, u64) {
        let t0 = Instant::now();
        let rows: Vec<String> = quanta
            .iter()
            .map(|&q| {
                let topts = TranslateOptions {
                    quantum: Some(TimeVal::ms(q)),
                    ..Default::default()
                };
                let mut aopts = AnalysisOptions::default();
                aopts.explore.cas = Some(store.clone());
                aopts.explore.obs = rec.clone();
                let v = analyze(&m, &topts, &aopts).unwrap();
                format!(
                    "quantum={q}ms schedulable={} states={} transitions={}",
                    v.schedulable(),
                    v.stats().states,
                    v.stats().transitions
                )
            })
            .collect();
        (rows, t0.elapsed().as_nanos() as u64)
    };
    let cold_rec = obs::Recorder::enabled();
    let (cold_rows, cold_ns) = sweep(&cold_rec);
    let warm_rec = obs::Recorder::enabled();
    let (warm_rows, warm_ns) = sweep(&warm_rec);
    assert_eq!(cold_rows, warm_rows, "warm sweep changed a verdict row");
    for row in &cold_rows {
        println!("{row}");
    }
    let counts = |rec: &obs::Recorder| {
        [
            rec.counter("cas.hits").get(),
            rec.counter("cas.misses").get(),
            rec.counter("cas.writes").get(),
            rec.counter("cas.invalidations").get(),
        ]
    };
    let [ch, cm, cw, ci] = counts(&cold_rec);
    let [wh, wm, ww, wi] = counts(&warm_rec);
    println!(
        "cold pass: hits={ch} misses={cm} writes={cw} invalidations={ci} wall={:?}",
        Duration::from_nanos(cold_ns)
    );
    println!(
        "warm pass: hits={wh} misses={wm} writes={ww} invalidations={wi} wall={:?}",
        Duration::from_nanos(warm_ns)
    );
    let pass = |hits, misses, writes, invalidations, wall_ns| {
        obs::Json::obj([
            ("hits", obs::Json::from(hits)),
            ("misses", obs::Json::from(misses)),
            ("writes", obs::Json::from(writes)),
            ("invalidations", obs::Json::from(invalidations)),
            ("wall_ns", obs::Json::from(wall_ns)),
        ])
    };
    obs::Json::obj([
        ("model", obs::Json::from("cruise_control")),
        ("points", obs::Json::from(quanta.len())),
        ("cold", pass(ch, cm, cw, ci, cold_ns)),
        ("warm", pass(wh, wm, ww, wi, warm_ns)),
        ("verdicts_identical", obs::Json::Bool(true)),
    ])
}

/// States of the per-quantum search of `longperiod.aadl`, measured when
/// that search was still the default engine (EXPERIMENTS.md Q13). The zone
/// graph must stay at least 10× smaller.
const LONGPERIOD_PER_QUANTUM_STATES: usize = 306_015;

/// The long-hyperperiod run behind `EXPERIMENTS.md` Q13 and the `zones`
/// section of `BENCH_exploration.json`: the bundled co-prime model
/// (`longperiod.aadl`, hyperperiod 17·19·23·29 = 215441 quanta) explored
/// exhaustively by the verdict engine, best-of-3 wall clocks. The zone
/// graph must be schedulable, at least 10× smaller than the per-quantum
/// state space, and served in closed form — the harness aborts otherwise,
/// so the committed report can never carry a regressed ratio. The state
/// counts are deterministic; only the wall clocks are subject to noise
/// (hence min-of-reps).
fn q13_zones() -> obs::Json {
    header("Q13 — delay zones on the long-hyperperiod model");
    let path = model_file("longperiod.aadl");
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let pkg = parse_package(&source).expect("parse longperiod.aadl");
    let m = instantiate(&pkg, "Top.impl").expect("longperiod instantiates");
    let tm = translate(&m, &TranslateOptions::default()).unwrap();
    let reps = 3u32;

    const COUNTERS: [&str; 5] = [
        "zone.delay_steps",
        "zone.quanta_collapsed",
        "zone.singleton_steps",
        "zone.learned_runs",
        "zone.closed_form_advances",
    ];
    type Best = (Duration, versa::Exploration, [u64; 5]);
    let mut best: Option<Best> = None;
    for _ in 0..reps {
        let rec = obs::Recorder::enabled();
        let opts = versa::Options::default().with_obs(rec.clone());
        let t0 = Instant::now();
        let ex = versa::explore(&tm.env, &tm.initial, &opts);
        let wall = t0.elapsed();
        let run = rec.finish();
        if best.as_ref().is_none_or(|(w, ..)| wall < *w) {
            best = Some((wall, ex, COUNTERS.map(|c| run_counter(&run, c))));
        }
    }
    let (wall, ex, counters) = best.unwrap();
    println!(
        "zones: schedulable={} states={} transitions={} time={wall:?}",
        ex.deadlocks.is_empty(),
        ex.num_states(),
        ex.stats.transitions
    );
    for (name, value) in COUNTERS.iter().zip(counters) {
        println!("  {name} = {value}");
    }
    println!(
        "({:.1}x fewer states than the {LONGPERIOD_PER_QUANTUM_STATES}-state per-quantum search)",
        LONGPERIOD_PER_QUANTUM_STATES as f64 / ex.num_states() as f64
    );
    assert!(ex.deadlocks.is_empty(), "the longperiod model must stay schedulable");
    assert!(
        ex.num_states() * 10 <= LONGPERIOD_PER_QUANTUM_STATES,
        "zone graph below the 10x state bar: {} states",
        ex.num_states()
    );
    assert!(counters[4] >= 1, "no step was served in closed form");
    let mut fields = vec![
        ("schedulable", obs::Json::Bool(ex.deadlocks.is_empty())),
        ("states", obs::Json::from(ex.num_states())),
        ("transitions", obs::Json::from(ex.stats.transitions)),
        ("wall_ns", obs::Json::from(wall.as_nanos() as u64)),
    ];
    for (name, value) in COUNTERS.iter().zip(counters) {
        fields.push((name.trim_start_matches("zone."), obs::Json::from(value)));
    }
    obs::Json::obj([
        ("model", obs::Json::from("longperiod")),
        ("hyperperiod_quanta", obs::Json::from(215441u64)),
        ("reps", obs::Json::from(reps as u64)),
        ("policy", obs::Json::from("min_wall_of_reps")),
        ("zones", obs::Json::obj(fields)),
    ])
}

/// The recorder A/B behind `EXPERIMENTS.md` Q11 and the `obs_overhead`
/// section of `BENCH_exploration.json`: the cruise-control model (parsed
/// once) translated and explored exhaustively under the three recorder
/// modes, alternating mode by mode within each rep so machine drift spreads
/// evenly, keeping each mode's minimum wall clock. `disabled` is
/// `Recorder::disabled()` (every instrument an inert branch, the CLI's
/// default), `no_spans` is `Recorder::enabled().with_span_cap(0)` (spans
/// dropped at the door, counters and histograms live) and `enabled` is
/// `Recorder::enabled()`. A recorder only watches the search, so the
/// harness aborts if any run disagrees with the first on states or
/// transitions.
fn q11_recorder_overhead() -> obs::Json {
    header("Q11 — recorder overhead on the cruise-control pipeline");
    let m = parsed_cruise_control();
    let reps = 20u32;
    type Mode = (&'static str, fn() -> obs::Recorder);
    let modes: [Mode; 3] = [
        ("disabled", obs::Recorder::disabled),
        ("no_spans", || obs::Recorder::enabled().with_span_cap(0)),
        ("enabled", obs::Recorder::enabled),
    ];
    let mut best = [Duration::MAX; 3];
    let mut counts = None;
    for _ in 0..reps {
        for ((name, recorder), best) in modes.iter().zip(&mut best) {
            let rec = recorder();
            let t0 = Instant::now();
            let topts = TranslateOptions {
                obs: rec.clone(),
                ..Default::default()
            };
            let tm = translate(&m, &topts).unwrap();
            let mut aopts = AnalysisOptions::exhaustive();
            aopts.explore.obs = rec;
            let v = aadl2acsr::analyze_translated(&m, &tm, &aopts);
            *best = (*best).min(t0.elapsed());
            let seen = (v.stats().states, v.stats().transitions);
            assert_eq!(
                *counts.get_or_insert(seen),
                seen,
                "the {name} recorder changed the search"
            );
        }
    }
    let (states, transitions) = counts.unwrap();
    let rows: Vec<_> = modes
        .iter()
        .zip(best)
        .map(|((name, _), wall)| {
            println!("{name:>9}: states={states} transitions={transitions} min={wall:?}");
            let row = [
                ("wall_ns", obs::Json::from(wall.as_nanos() as u64)),
                ("states", obs::Json::from(states)),
                ("transitions", obs::Json::from(transitions)),
            ];
            (*name, obs::Json::obj(row))
        })
        .collect();
    obs::Json::obj([
        ("model", obs::Json::from("cruise_control")),
        ("reps", obs::Json::from(reps as u64)),
        ("policy", obs::Json::from("min_wall_of_reps")),
        ("modes", obs::Json::obj(rows)),
    ])
}

/// Instrumented exhaustive run of the cruise-control model, written as
/// `BENCH_exploration.json` — the same `aadlsched-metrics` schema the CLI
/// emits with `--metrics`, so the two are diffable with the same tooling.
fn q6_exploration_report(
    cas_section: obs::Json,
    zones_section: obs::Json,
    overhead_section: obs::Json,
) {
    header("Q6 — instrumented exploration report (BENCH_exploration.json)");
    let rec = obs::Recorder::enabled();
    let m = cruise_control_model();
    let topts = TranslateOptions {
        obs: rec.clone(),
        ..Default::default()
    };
    let mut aopts = AnalysisOptions::exhaustive();
    aopts.explore.obs = rec.clone();
    let tm = translate(&m, &topts).unwrap();
    let v = aadl2acsr::analyze_translated(&m, &tm, &aopts);

    let run_id = obs::run_id(&[b"cruise_control".as_slice(), b"exhaustive"]);
    let mut report = obs::Report::new(&run_id, "bench-harness");
    report.set(
        "model",
        obs::Json::obj([
            ("name", obs::Json::from("cruise_control")),
            ("threads", obs::Json::from(m.threads().count())),
            ("processors", obs::Json::from(m.processors().count())),
        ]),
    );
    report.set(
        "translation",
        obs::Json::obj([
            ("threads", obs::Json::from(tm.inventory.threads)),
            ("dispatchers", obs::Json::from(tm.inventory.dispatchers)),
            ("queues", obs::Json::from(tm.inventory.queues)),
            ("defs", obs::Json::from(tm.env.num_defs())),
            ("quantum_ps", obs::Json::Int(tm.quantum_ps)),
        ]),
    );
    report.set(
        "exploration",
        obs::Json::obj([
            ("states", obs::Json::from(v.stats().states)),
            ("transitions", obs::Json::from(v.stats().transitions)),
            ("levels", obs::Json::from(v.stats().levels)),
            ("peak_frontier", obs::Json::from(v.stats().peak_frontier)),
            ("dedup_hits", obs::Json::from(v.stats().dedup_hits)),
            ("deadlocks", obs::Json::from(v.stats().deadlocks)),
            ("memo_hits", obs::Json::from(v.stats().memo_hits)),
            ("memo_misses", obs::Json::from(v.stats().memo_misses)),
            ("memo_evictions", obs::Json::from(v.stats().memo_evictions)),
            ("unique_subterms", obs::Json::from(v.stats().unique_subterms)),
        ]),
    );
    report.set(
        "verdict",
        obs::Json::obj([
            ("schedulable", obs::Json::Bool(v.schedulable())),
            ("truncated", obs::Json::Bool(v.truncated())),
        ]),
    );
    report.set("cas", cas_section);
    report.set("zones", zones_section);
    report.set("obs_overhead", overhead_section);
    report.attach_run(&rec.finish());
    match std::fs::write("BENCH_exploration.json", report.to_json()) {
        Ok(()) => println!("report written to BENCH_exploration.json (run_id {run_id})"),
        Err(e) => println!("cannot write BENCH_exploration.json: {e}"),
    }
    println!("exploration: {}", v.stats());
}

/// The three concurrency-control protocols on the bundled priority-inversion
/// model (§7 extension): verdict, miss quantum and state count per protocol.
fn q7_locking_protocols() {
    header("Q7 — concurrency control on the inversion model (§7 ext.)");
    let source = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/models/inversion.aadl"
    ))
    .expect("bundled inversion model");
    let pkg = parse_package(&source).unwrap();
    let m = instantiate(&pkg, "Top.impl").unwrap();
    println!("{:>22} {:>13} {:>14} {:>8}", "protocol", "schedulable", "miss quantum", "states");
    for (name, protocol) in [
        ("None_Specified", None),
        ("Priority_Ceiling", Some(ConcurrencyControlProtocol::PriorityCeiling)),
        ("Priority_Inheritance", Some(ConcurrencyControlProtocol::PriorityInheritance)),
    ] {
        let v = analyze(
            &m,
            &TranslateOptions {
                protocol_override: protocol,
                ..Default::default()
            },
            &AnalysisOptions::exhaustive(),
        )
        .unwrap();
        println!(
            "{:>22} {:>13} {:>14} {:>8}",
            name,
            v.schedulable(),
            v.scenario()
                .map(|s| s.at_quantum.to_string())
                .unwrap_or_else(|| "-".into()),
            v.stats().states
        );
    }
    println!("(m preempts the lock-holding l while h blocks — unless the holder is elevated.)");
}
