//! Seeded model generators, each paired with an independent reference
//! verdict (exact response-time analysis, processor demand, or the locking
//! simulator) that the analyzer's answer is checked against.

use aadl::builder::PackageBuilder;
use aadl::model::{Category, Package};
use aadl::pretty::render_package;
use aadl::properties::{names, ConcurrencyControlProtocol, PropertyValue, TimeVal};
use det::DetRng;
use sched_baselines::rta::{dm_schedulable, rm_schedulable};
use sched_baselines::simulator::{simulate_locking, ExecModel, Policy};
use sched_baselines::{
    edf_schedulable, taskset_to_package_locking, uunifast, LockProtocol, Task, TaskSet, TaskSetSpec,
};

/// One generated input: AADL source text and the verdict its reference
/// analysis gives.
#[derive(Clone, Debug, PartialEq)]
pub struct Model {
    /// Short name, used for file names and trace request labels.
    pub name: String,
    /// The AADL package text the program is given.
    pub source: String,
    /// The reference verdict: `true` when every deadline is met.
    pub schedulable: bool,
}

impl Model {
    /// The `aadlsched` exit code (and daemon `code`) the reference expects.
    pub fn expected_code(&self) -> i32 {
        if self.schedulable {
            0
        } else {
            1
        }
    }
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(rng: &mut DetRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.range_usize(0..i + 1));
    }
}

/// Period menus of the three `branching` processors. Each menu is harmonic,
/// so one processor's hyperperiod is its largest period, while the three
/// menus together give hyperperiods up to lcm(16, 20, 12) = 240 quanta.
const BRANCHING_MENUS: [&[u64]; 3] = [&[4, 8, 16], &[5, 10, 20], &[6, 12]];

/// Seed of the fixed `branching` bank. The per-run seed relabels the bank
/// (see [`branching`]), so every run explores the same state spaces.
pub const BRANCHING_BANK_SEED: u64 = 0x5EED_B4A1;

/// One processor of a `branching` model: its policy and its two tasks.
#[derive(Clone, Debug)]
struct Cpu {
    policy: &'static str,
    tasks: Vec<Task>,
}

fn branching_cpu(rng: &mut DetRng, menu: &[u64]) -> Cpu {
    let target = 0.5 + 0.35 * rng.next_f64();
    let ts = uunifast(&TaskSetSpec {
        n: 2,
        target_utilization: target,
        periods: menu.to_vec(),
        seed: rng.next_u64(),
    });
    let tasks = ts
        .tasks
        .into_iter()
        .map(|t| {
            let wcet = t.wcet;
            t.with_exec_range(wcet.div_ceil(2), wcet)
        })
        .collect();
    Cpu {
        policy: if rng.next_bool() { "RMS" } else { "EDF" },
        tasks,
    }
}

/// Exact per-processor verdict: the processors share nothing, so the system
/// is schedulable iff each processor is, and both RTA and processor demand
/// are exact for synchronous periodic tasks whose execution times range up
/// to their WCET.
fn cpu_schedulable(cpu: &Cpu) -> bool {
    let ts = TaskSet::new(cpu.tasks.clone());
    match cpu.policy {
        "RMS" => rm_schedulable(&ts),
        _ => edf_schedulable(&ts),
    }
}

fn multi_cpu_package(cpus: &[Cpu]) -> Package {
    let mut b = PackageBuilder::new("Branching");
    for (c, cpu) in cpus.iter().enumerate() {
        let policy = cpu.policy;
        b = b.processor(&format!("Cpu{c}"), |p| {
            p.prop_enum(names::SCHEDULING_PROTOCOL, policy)
        });
    }
    let threads: Vec<(usize, &Task)> = cpus
        .iter()
        .enumerate()
        .flat_map(|(c, cpu)| cpu.tasks.iter().map(move |t| (c, t)))
        .collect();
    for (k, (_, t)) in threads.iter().enumerate() {
        b = b.periodic_thread(
            &format!("T{k}"),
            TimeVal::ms(t.period as i64),
            (TimeVal::ms(t.bcet as i64), TimeVal::ms(t.wcet as i64)),
            TimeVal::ms(t.deadline as i64),
        );
    }
    b.system("Top", |s| s)
        .implementation("Top.impl", Category::System, |mut i| {
            for c in 0..cpus.len() {
                i = i.sub(&format!("cpu{c}"), Category::Processor, &format!("Cpu{c}"));
            }
            for (k, (c, _)) in threads.iter().enumerate() {
                i = i
                    .sub(&format!("t{k}"), Category::Thread, &format!("T{k}"))
                    .bind_processor(&format!("t{k}"), &format!("cpu{c}"));
            }
            i.prop(
                names::SCHEDULING_QUANTUM,
                PropertyValue::Time(TimeVal::ms(1)),
            )
        })
        .build()
}

/// The `branching` inputs: `n` three-processor models with two periodic
/// threads per processor, execution times over `[⌈wcet/2⌉, wcet]`, and RMS
/// or EDF per processor.
///
/// The models come from a fixed bank drawn with [`BRANCHING_BANK_SEED`];
/// `seed` reorders the processors and the threads within each processor and
/// shuffles the model order. That relabelling changes the text, the
/// declaration order and the interning order the program sees but not the
/// size of any state space, so runs with different seeds do the same
/// amount of work and their medians can be compared.
pub fn branching(seed: u64, n: usize) -> Vec<Model> {
    let mut bank_rng = DetRng::new(BRANCHING_BANK_SEED);
    let mut rng = DetRng::new(seed);
    let mut models: Vec<Model> = (0..n)
        .map(|m| {
            let mut cpus: Vec<Cpu> = BRANCHING_MENUS
                .iter()
                .map(|menu| branching_cpu(&mut bank_rng, menu))
                .collect();
            shuffle(&mut rng, &mut cpus);
            for cpu in &mut cpus {
                shuffle(&mut rng, &mut cpu.tasks);
            }
            Model {
                name: format!("branching{m:02}"),
                source: render_package(&multi_cpu_package(&cpus)),
                schedulable: cpus.iter().all(cpu_schedulable),
            }
        })
        .collect();
    shuffle(&mut rng, &mut models);
    models
}

/// Period pool of the `daemon` task sets: lcm 120 keeps every hyperperiod
/// short enough for a millisecond-scale exploration.
const DAEMON_PERIODS: [u64; 8] = [4, 5, 6, 8, 10, 12, 15, 20];

/// Seed of the fixed `daemon` bank. The per-run seed relabels it (see
/// [`daemon`]).
pub const DAEMON_BANK_SEED: u64 = 0x5EED_DAE0;

/// A single-processor task set under one policy; `lock` is the protocol
/// guarding the shared resource of an HPF set.
struct TaskSetDraw {
    policy: &'static str,
    ts: TaskSet,
    lock: Option<(ConcurrencyControlProtocol, LockProtocol)>,
}

/// Draw one `daemon` task set: 2–5 tasks with fixed execution times under
/// RMS, DMS (constrained deadlines) or EDF, or under HPF with two tasks
/// sharing one resource guarded by PIP or PCP.
///
/// HPF priorities are distinct and at least 3: the translation clamps a
/// `Priority` below 2 up to 2, so priorities 1 and 2 would share one level
/// and the analysis would answer for a different priority order than the
/// simulator.
fn draw_task_set(rng: &mut DetRng) -> TaskSetDraw {
    let policy = *rng.pick(&["RMS", "DMS", "EDF", "HPF"]);
    let n = rng.range_usize(2..6);
    let mut ts = uunifast(&TaskSetSpec {
        n,
        target_utilization: 0.5 + 0.5 * rng.next_f64(),
        periods: DAEMON_PERIODS.to_vec(),
        seed: rng.next_u64(),
    });
    let mut lock = None;
    match policy {
        "DMS" => {
            for t in &mut ts.tasks {
                let slack = t.period - t.wcet;
                t.deadline = t.period - rng.range_u64(0..=slack / 2);
            }
        }
        "HPF" => {
            let mut prios: Vec<u32> = (3..3 + 2 * n as u32).collect();
            shuffle(rng, &mut prios);
            for (t, p) in ts.tasks.iter_mut().zip(prios) {
                t.priority = Some(p);
            }
            let mut users: Vec<usize> = (0..n).collect();
            shuffle(rng, &mut users);
            for &i in &users[..2] {
                let len = rng.range_u64(1..=ts.tasks[i].wcet);
                ts.tasks[i] = ts.tasks[i].clone().with_cs(0, len);
            }
            lock = Some(*rng.pick(&[
                (
                    ConcurrencyControlProtocol::PriorityInheritance,
                    LockProtocol::Inheritance,
                ),
                (
                    ConcurrencyControlProtocol::PriorityCeiling,
                    LockProtocol::Ceiling,
                ),
            ]));
        }
        _ => {}
    }
    TaskSetDraw { policy, ts, lock }
}

/// The exact reference verdict of one task set: response-time analysis
/// (RMS, DMS), processor demand (EDF), or one simulated hyperperiod, which
/// is exact for synchronous release, fixed execution times and distinct
/// priorities (HPF with locks).
fn reference(d: &TaskSetDraw) -> bool {
    match (d.lock, d.policy) {
        (Some((_, protocol)), _) => simulate_locking(
            &d.ts,
            Policy::Hpf,
            ExecModel::Wcet,
            d.ts.hyperperiod(),
            protocol,
        )
        .ok(),
        (None, "RMS") => rm_schedulable(&d.ts),
        (None, "DMS") => dm_schedulable(&d.ts),
        (None, _) => edf_schedulable(&d.ts),
    }
}

/// The `daemon` inputs: the first `n` task sets of a fixed bank drawn with
/// [`DAEMON_BANK_SEED`], each with its tasks put in an order drawn from
/// `rng`. The order decides which thread name carries which parameters, so
/// the text differs from seed to seed while the work per set does not.
pub fn daemon(rng: &mut DetRng, n: usize) -> Vec<Model> {
    let mut bank = DetRng::new(DAEMON_BANK_SEED);
    (0..n)
        .map(|i| {
            let mut d = draw_task_set(&mut bank);
            shuffle(rng, &mut d.ts.tasks);
            d.ts = TaskSet::new(d.ts.tasks);
            let ccp = d
                .lock
                .map_or(ConcurrencyControlProtocol::NoneSpecified, |(c, _)| c);
            Model {
                name: format!("set{i:05}"),
                source: render_package(&taskset_to_package_locking(&d.ts, d.policy, ccp)),
                schedulable: reference(&d),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn daemon_sets(seed: u64, n: usize) -> Vec<Model> {
        daemon(&mut DetRng::new(seed), n)
    }

    /// The analyzer's verdict with default options and a state budget, in
    /// process; `None` when the budget ran out first.
    fn analyzer_says_schedulable(source: &str, max_states: usize) -> Option<bool> {
        let pkg = aadl::parser::parse_package(source).expect("generated text parses");
        let root = pkg.default_root().expect("one top-level system");
        let model = aadl::instance::instantiate(&pkg, &root).expect("instantiates");
        let mut opts = aadl2acsr::AnalysisOptions::default();
        opts.explore.max_states = max_states;
        let outcome = aadl2acsr::analyze(&model, &Default::default(), &opts).expect("translates");
        (!outcome.truncated()).then(|| outcome.schedulable())
    }

    #[test]
    fn generators_are_byte_identical_for_a_seed() {
        assert_eq!(branching(7, 3), branching(7, 3));
        assert_eq!(daemon_sets(7, 40), daemon_sets(7, 40));
        assert_ne!(branching(7, 3), branching(8, 3));
        assert_ne!(daemon_sets(7, 40), daemon_sets(8, 40));
    }

    #[test]
    fn relabelling_keeps_the_bank_and_its_verdicts() {
        let profile = |models: Vec<Model>| {
            let mut v: Vec<(usize, bool)> = models
                .iter()
                .map(|m| (m.source.len(), m.schedulable))
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(profile(branching(1, 24)), profile(branching(2, 24)));
        assert_eq!(profile(daemon_sets(1, 40)), profile(daemon_sets(2, 40)));
    }

    #[test]
    fn generated_models_agree_with_their_reference() {
        for seed in [1, 2, 3] {
            for m in daemon_sets(seed, 16) {
                let got = analyzer_says_schedulable(&m.source, usize::MAX);
                assert_eq!(got, Some(m.schedulable), "{}", m.source);
            }
            // Only the bank's smaller state spaces, to stay fast in debug
            // builds; every seed still decides some of them.
            let decided: Vec<bool> = branching(seed, 24)
                .iter()
                .filter_map(|m| {
                    let got = analyzer_says_schedulable(&m.source, 3_000)?;
                    Some(got == m.schedulable)
                })
                .collect();
            assert!(!decided.is_empty());
            assert!(
                decided.iter().all(|&agrees| agrees),
                "seed {seed}: {decided:?}"
            );
        }
    }
}
