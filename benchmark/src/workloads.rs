//! The four workloads: what each runs, what it checks and what it reports.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use det::DetRng;

use crate::cli::{self, Job};
use crate::daemon::{self, Conn, Daemon};
use crate::gen::{self, Model};
use crate::json::Json;
use crate::stats::{median, tail};

/// Workload names, in the order the one-command run executes them.
pub const WORKLOADS: [&str; 4] = ["longperiod", "bundled", "branching", "daemon"];

/// End-to-end metrics: every workload reports each of them, untraced.
pub const END_TO_END: [(&str, &str); 4] = [
    ("latency_p50_ms", "ms"),
    ("verdicts_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, from the traced run.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("proc.overhead_ms", "ms"),
    ("aadl.parse_us", "us"),
    ("aadl.instantiate_us", "us"),
    ("aadl2acsr.translate_us", "us"),
    ("aadl2acsr.defs", "count"),
    ("aadl2acsr.analyze_ms", "ms"),
    ("aadl2acsr.render_us", "us"),
    ("teardown_ms", "ms"),
    ("versa.states", "count"),
    ("versa.transitions", "count"),
    ("versa.states_per_s", "1/s"),
    ("versa.dedup_ratio", "ratio"),
    ("versa.memo_hit_ratio", "ratio"),
    ("versa.memo_evictions", "count"),
    ("versa.peak_frontier", "count"),
    ("acsr.unique_subterms", "count"),
    ("served.request_wall_ms", "ms"),
    ("served.exec_ms", "ms"),
    ("served.queue_wait_ms", "ms"),
    ("served.serialize_us", "us"),
    ("served.cache_hit_ratio", "ratio"),
    ("served.coalesced", "count"),
    ("served.errors", "count"),
    ("served.retries", "count"),
    ("served.timeouts", "count"),
    ("served.rss_kb_per_request", "KB"),
    ("client.wire_ms", "ms"),
    ("bench.trace_overhead_share", "ratio"),
];

/// The five bundled models and the exit codes the tests pin for them.
const BUNDLED: [(&str, bool); 5] = [
    ("cruise_control", true),
    ("flight_control", true),
    ("inversion", false),
    ("overloaded", false),
    ("producer_handler", true),
];

/// The daemon's open-loop rate in phase 1, requests per second.
const DAEMON_RATE: f64 = 100.0;

/// Shares of the run time for the daemon's phase 1 (open loop) and phase 2
/// (closed loop).
const PHASE1_SHARE: f64 = 0.5;
const PHASE2_SHARE: f64 = 0.4;

/// Everything a workload run needs to know about its environment.
pub struct Env {
    pub aadlsched: PathBuf,
    pub aadlschedd: PathBuf,
    /// This executable, started again as the traced child.
    pub exe: PathBuf,
    /// Where run files, traces and scratch inputs go.
    pub out: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    /// Scale inputs down for `--smoke`.
    pub smoke: bool,
}

impl Env {
    fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    fn work_dir(&self, workload: &str) -> io::Result<PathBuf> {
        let dir = self.out.join(format!("work-{workload}-{}", self.seed));
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

/// One metric as measured, with the number of samples behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub samples: usize,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    /// False when a verdict disagreed with the reference; the run stops there.
    pub correct: bool,
    pub attempted: usize,
    /// Exit or `code` 2/3, a crash, an error reply or a missing reply.
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Lines printed with the report but not gated (tails, ledger, notes).
    pub notes: Vec<String>,
}

impl Run {
    fn new(workload: &str, env: &Env, trace: bool) -> Run {
        Run {
            workload: workload.to_string(),
            seed: env.seed,
            trace,
            correct: true,
            ..Run::default()
        }
    }

    fn put(&mut self, name: &str, unit: &str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            samples,
        });
    }

    fn wrong(&mut self, what: String) {
        self.correct = false;
        self.notes.push(format!("WRONG VERDICT: {what}"));
    }

    /// Note the tail percentile of `samples` when one can be reported.
    fn note_tail(&mut self, name: &str, samples: &[f64]) {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        match tail(&sorted) {
            Some((p, v)) => self.notes.push(format!(
                "{name} p{p} = {v:.4} ms (n={}, {} beyond)",
                sorted.len(),
                sorted.len() - (p / 100.0 * sorted.len() as f64).ceil() as usize
            )),
            None => self.notes.push(format!(
                "{name}: no tail percentile (n={}, fewer than 10 samples beyond p90)",
                sorted.len()
            )),
        }
    }
}

/// Run one workload, untraced (end-to-end metrics) or traced (per-layer).
pub fn run(workload: &str, env: &Env, trace: bool) -> Result<Run, String> {
    let work = env
        .work_dir(workload)
        .map_err(|e| format!("work dir: {e}"))?;
    let run = match workload {
        "daemon" => daemon_workload(env, &work, trace),
        _ => cli_workload(workload, env, &work, trace),
    }
    .map_err(|e| format!("{workload}: {e}"));
    let _ = std::fs::remove_dir_all(&work);
    run
}

/// The inputs of a CLI workload, in run order.
fn cli_models(workload: &str, env: &Env) -> io::Result<Vec<Model>> {
    let bundled = |name: &str, schedulable| -> io::Result<Model> {
        Ok(Model {
            name: name.to_string(),
            source: std::fs::read_to_string(format!("examples/models/{name}.aadl"))?,
            schedulable,
        })
    };
    match workload {
        "longperiod" => Ok(vec![bundled("longperiod", true)?]),
        "bundled" => {
            let mut models = BUNDLED
                .iter()
                .map(|&(name, ok)| bundled(name, ok))
                .collect::<io::Result<Vec<_>>>()?;
            gen::shuffle(&mut DetRng::new(env.seed), &mut models);
            Ok(models)
        }
        "branching" => Ok(gen::branching(env.seed, if env.smoke { 2 } else { 24 })),
        other => Err(io::Error::other(format!("unknown workload `{other}`"))),
    }
}

fn write_models(models: &[Model], work: &Path) -> io::Result<Vec<Job>> {
    models
        .iter()
        .map(|m| {
            let path = work.join(format!("{}.aadl", m.name));
            std::fs::write(&path, &m.source)?;
            Ok(Job {
                path,
                expected: m.expected_code(),
            })
        })
        .collect()
}

/// Set-up of a CLI workload: materialize the inputs and start one warm-up
/// process on the smallest bundled model. Repeated and timed; returns the
/// models, their files and the set-up times in seconds.
fn cli_setup(
    workload: &str,
    env: &Env,
    work: &Path,
) -> io::Result<(Vec<Model>, Vec<Job>, Vec<f64>)> {
    let reps = if env.smoke { 1 } else { 5 };
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let models = cli_models(workload, env)?;
        let jobs = write_models(&models, work)?;
        let warmup = work.join("warmup.aadl");
        std::fs::copy("examples/models/producer_handler.aadl", &warmup)?;
        let p = cli::run(&env.aadlsched, &warmup)?;
        if p.code != Some(0) {
            return Err(io::Error::other(format!("warm-up run exited {:?}", p.code)));
        }
        times.push(t0.elapsed().as_secs_f64());
        if times.len() == reps {
            return Ok((models, jobs, times));
        }
    }
}

fn cli_workload(workload: &str, env: &Env, work: &Path, trace: bool) -> io::Result<Run> {
    let mut run = Run::new(workload, env, trace);
    let (models, jobs, setup) = cli_setup(workload, env, work)?;
    let budget = env.budget(if trace { 1.0 / 3.0 } else { 1.0 });
    let l = cli::closed_loop(&env.aadlsched, &jobs, budget)?;
    run.attempted += l.attempted;
    run.failed += l.failed;
    if let Some(w) = l.wrong {
        run.wrong(w);
        return Ok(run);
    }
    let cli_p50 = median(&l.latencies_ms);
    if !trace {
        let verdicts = (l.attempted - l.failed) as f64;
        run.put("latency_p50_ms", "ms", cli_p50, l.latencies_ms.len());
        run.put("verdicts_per_s", "1/s", verdicts / l.wall_s, l.attempted);
        run.put(
            "peak_rss_mb",
            "MB",
            l.max_rss_kb as f64 / 1024.0,
            l.attempted,
        );
        run.put("setup_s", "s", median(&setup), setup.len());
        run.note_tail("latency", &l.latencies_ms);
        return Ok(run);
    }

    let reps = match workload {
        "bundled" if env.smoke => 10,
        "bundled" => 200,
        _ => 1,
    };
    let child = traced_child(workload, env, work, &jobs, reps, &mut run)?;
    run.put(
        "proc.overhead_ms",
        "ms",
        cli_p50 - num(&child, "pipeline_p50_ms"),
        l.latencies_ms.len(),
    );
    replay_through_daemon(env, &models, &mut run)?;
    Ok(run)
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// Start this executable as `--child` on `jobs` and fold its per-layer
/// numbers into `run`. The child writes `trace-<workload>.jsonl`.
fn traced_child(
    workload: &str,
    env: &Env,
    work: &Path,
    jobs: &[Job],
    reps: usize,
    run: &mut Run,
) -> io::Result<Json> {
    let manifest = work.join("child.tsv");
    let lines: String = jobs
        .iter()
        .map(|j| format!("{}\t{}\n", j.path.display(), j.expected))
        .collect();
    std::fs::write(&manifest, lines)?;
    let trace_out = env.out.join(format!("trace-{workload}.jsonl"));
    let out = Command::new(&env.exe)
        .arg("--child")
        .arg(&manifest)
        .args(["--reps", &reps.to_string()])
        .arg("--trace-out")
        .arg(&trace_out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let child = text
        .lines()
        .last()
        .and_then(|l| Json::parse(l).ok())
        .filter(|_| out.status.success())
        .ok_or_else(|| io::Error::other(format!("traced child failed: {}", out.status)))?;
    run.attempted += num(&child, "attempted") as usize;
    run.failed += num(&child, "failed") as usize;
    if num(&child, "wrong") > 0.0 {
        run.wrong("the in-process pipeline disagreed with the reference".into());
    }
    let samples = jobs.len() * reps;
    for (name, unit) in PER_LAYER {
        if let Some(v) = child.get(name).and_then(Json::as_f64) {
            run.put(name, unit, v, samples);
        }
    }
    if let Some(Json::Obj(ledger)) = child.get("ledger") {
        let total: f64 = ledger.iter().filter_map(|(_, v)| v.as_f64()).sum();
        run.notes.push(format!(
            "self-time ledger of the traced pipeline ({total:.1} ms over {samples} runs): {}",
            ledger
                .iter()
                .map(|(k, v)| format!("{k} {:.1}%", 100.0 * v.as_f64().unwrap_or(0.0) / total))
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    Ok(child)
}

/// The `served` and `client` layers of a CLI workload: its models sent to a
/// fresh daemon by one closed-loop client, in whole passes over a sixth of
/// the run time (at least one pass).
fn replay_through_daemon(env: &Env, models: &[Model], run: &mut Run) -> io::Result<()> {
    let lines: Vec<String> = models
        .iter()
        .enumerate()
        .map(|(i, m)| daemon::analyze_line(i, &m.source))
        .collect();
    let d = Daemon::boot(&env.aadlschedd)?;
    let mut conn = d.connect()?;
    let rss_before = d.status_kb("VmRSS")?;
    let budget = env.budget(1.0 / 6.0);
    let start = Instant::now();
    let mut wire = Vec::new();
    loop {
        let pass = Instant::now();
        for (line, m) in lines.iter().zip(models) {
            let want = m.expected_code();
            let sent = Instant::now();
            run.attempted += 1;
            match conn.call(line) {
                Ok(r) if r.code == want => wire.push(ms(r.at - sent)),
                Ok(r) if r.code == 0 || r.code == 1 => {
                    run.wrong(format!(
                        "daemon answered {} where the reference says {want}",
                        r.code
                    ));
                    return d.shutdown(&mut conn);
                }
                _ => run.failed += 1,
            }
        }
        if start.elapsed() + pass.elapsed() > budget {
            break;
        }
    }
    let stats = conn.stats()?;
    let rss_after = d.status_kb("VmRSS")?;
    d.shutdown(&mut conn)?;
    served_metrics(run, &stats, &wire, rss_after as f64 - rss_before as f64);
    Ok(())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Per-layer metrics from a daemon `stats` snapshot, plus `client.wire_ms`
/// from the client's round trips `wire_ms`. Stage times are means
/// (histogram sum / count): the snapshot's quantiles are power-of-two bucket
/// midpoints, too coarse to show a change.
fn served_metrics(run: &mut Run, stats: &Json, wire_ms: &[f64], rss_growth_kb: f64) {
    let requests = wire_ms.len();
    let mean_of = |name| {
        let (count, sum) = daemon::histogram(stats, name);
        (sum / count.max(1.0), count as usize)
    };
    // Time inside the daemon per request: computed jobs count from accept
    // to result (`request_wall`), cache hits from receipt to reply.
    let (jobs, jobs_ns) = daemon::histogram(stats, "served.request_wall");
    let (hits, hits_ns) = daemon::histogram(stats, "served.cache_hit_wall");
    let inside_ms = (jobs_ns + hits_ns) / (jobs + hits).max(1.0) / 1e6;
    run.put("client.wire_ms", "ms", mean(wire_ms) - inside_ms, requests);
    for (metric, hist, unit, per_ns) in [
        ("served.request_wall_ms", "served.request_wall", "ms", 1e-6),
        ("served.exec_ms", "served.exec", "ms", 1e-6),
        ("served.queue_wait_ms", "served.queue_wait", "ms", 1e-6),
        ("served.serialize_us", "served.serialize", "us", 1e-3),
    ] {
        let (v, n) = mean_of(hist);
        run.put(metric, unit, v * per_ns, n);
    }
    let analyze = daemon::counter(stats, "served.analyze");
    run.put(
        "served.cache_hit_ratio",
        "ratio",
        daemon::counter(stats, "served.cache_hits") / analyze.max(1.0),
        analyze as usize,
    );
    for name in [
        "served.coalesced",
        "served.errors",
        "served.retries",
        "served.timeouts",
    ] {
        run.put(
            name,
            "count",
            daemon::counter(stats, name),
            analyze as usize,
        );
    }
    run.put(
        "served.rss_kb_per_request",
        "KB",
        rss_growth_kb / requests.max(1) as f64,
        requests,
    );
}

/// The daemon workload's inputs: phase 1's request sequence, the distinct
/// models again for phase 2, and one warm-up model.
struct DaemonPlan {
    /// Distinct phase-1 models, in first-use order.
    distinct: Vec<Model>,
    phase1: Vec<String>,
    phase1_expected: Vec<i32>,
    /// Request lines of `distinct`, in the same order.
    replay: Vec<String>,
    warmup: Model,
}

/// Phase 1 sends `n` requests: four in five carry a new task set, the rest
/// (at seed-drawn positions, never the first) repeat one of the last 32
/// distinct sets, which the result cache or coalescing answers. Every seed
/// sends the same task sets in a different order and labelling.
fn daemon_plan(env: &Env) -> DaemonPlan {
    let n = (DAEMON_RATE * PHASE1_SHARE * env.seconds).round().max(1.0) as usize;
    let fresh = (4 * n).div_ceil(5);
    let mut rng = DetRng::new(env.seed);
    let mut distinct = gen::daemon(&mut rng, fresh + 1);
    let warmup = distinct.pop().expect("at least one model");
    gen::shuffle(&mut rng, &mut distinct);
    let mut repeats: Vec<bool> = (0..n).map(|i| i >= fresh).collect();
    gen::shuffle(&mut rng, &mut repeats[1..]);
    let mut used = 0;
    let order: Vec<usize> = repeats
        .into_iter()
        .map(|repeat| {
            if repeat {
                used - 1 - rng.range_usize(0..used.min(32))
            } else {
                used += 1;
                used - 1
            }
        })
        .collect();
    DaemonPlan {
        phase1: order
            .iter()
            .enumerate()
            .map(|(i, &k)| daemon::analyze_line(i, &distinct[k].source))
            .collect(),
        phase1_expected: order.iter().map(|&k| distinct[k].expected_code()).collect(),
        replay: distinct
            .iter()
            .enumerate()
            .map(|(i, m)| daemon::analyze_line(i, &m.source))
            .collect(),
        warmup,
        distinct,
    }
}

/// Set-up of the daemon workload, timed: generate and render the inputs,
/// boot the daemon until its readiness line, and answer one warm-up
/// request. Every repetition but the last shuts its daemon down again.
fn daemon_setup(env: &Env, reps: usize) -> io::Result<(DaemonPlan, Daemon, Conn, Vec<f64>)> {
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let plan = daemon_plan(env);
        let d = Daemon::boot(&env.aadlschedd)?;
        let mut conn = d.connect()?;
        let r = conn.call(&daemon::analyze_line(0, &plan.warmup.source))?;
        if r.code != plan.warmup.expected_code() {
            return Err(io::Error::other(format!(
                "warm-up request answered code {}, the reference says {}",
                r.code,
                plan.warmup.expected_code()
            )));
        }
        times.push(t0.elapsed().as_secs_f64());
        if times.len() == reps {
            return Ok((plan, d, conn, times));
        }
        d.shutdown(&mut conn)?;
    }
}

/// Check daemon replies against the reference.
fn check_replies(run: &mut Run, replies: impl Iterator<Item = (Option<daemon::Reply>, i32)>) {
    for (reply, want) in replies {
        run.attempted += 1;
        match reply {
            Some(r) if r.code == want => {}
            Some(r) if r.code == 0 || r.code == 1 => {
                if run.correct {
                    run.wrong(format!(
                        "daemon answered {} where the reference says {want}",
                        r.code
                    ));
                }
            }
            _ => run.failed += 1,
        }
    }
}

/// Completions per one-second window, for every full window before the
/// last completion (at least one window).
fn per_second(done_at: impl Iterator<Item = Duration>) -> Vec<f64> {
    let secs: Vec<usize> = done_at.map(|d| d.as_secs() as usize).collect();
    let full = secs.iter().max().copied().unwrap_or(0).max(1);
    let mut counts = vec![0.0; full];
    for s in secs.into_iter().filter(|&s| s < full) {
        counts[s] += 1.0;
    }
    counts
}

fn daemon_workload(env: &Env, work: &Path, trace: bool) -> io::Result<Run> {
    let mut run = Run::new("daemon", env, trace);
    let reps = if trace || env.smoke { 1 } else { 3 };
    let (plan, d, mut conn, setup) = daemon_setup(env, reps)?;

    // Phase 1: open loop at a fixed rate on one connection.
    let rss_before = d.status_kb("VmRSS")?;
    let ol = daemon::open_loop(&mut conn, &plan.phase1, DAEMON_RATE)?;
    let hwm = d.status_kb("VmHWM")?;
    let rss_after = d.status_kb("VmRSS")?;
    check_replies(
        &mut run,
        ol.replies
            .iter()
            .copied()
            .zip(plan.phase1_expected.iter().copied()),
    );
    let latency: Vec<f64> = ol
        .replies
        .iter()
        .zip(&ol.due)
        .filter_map(|(r, &due)| r.map(|r| ms(r.at - due)))
        .collect();
    // The median of the medians of consecutive groups of one second's worth
    // of requests, so a few seconds of interference shift a few groups, not
    // the whole run.
    let per_second_p50: Vec<f64> = latency.chunks(DAEMON_RATE as usize).map(median).collect();
    let wire: Vec<f64> = ol
        .replies
        .iter()
        .zip(&ol.sent)
        .filter_map(|(r, &sent)| r.map(|r| ms(r.at - sent)))
        .collect();
    let mut lateness: Vec<f64> = ol
        .sent
        .iter()
        .zip(&ol.due)
        .map(|(&s, &d)| ms(s - d))
        .collect();
    lateness.sort_by(f64::total_cmp);
    run.notes
        .push(match crate::stats::percentile(&lateness, 90.0) {
            Some(late) => format!(
                "client.lateness_p90_ms = {late:.4} ms (n={}){}",
                lateness.len(),
                if late > 1.0 {
                    " -- INVALID: the sender ran late, so arrivals did not follow the schedule"
                } else {
                    ""
                }
            ),
            None => format!(
                "client.lateness_p90_ms: too few requests (n={})",
                lateness.len()
            ),
        });
    if !run.correct {
        d.shutdown(&mut conn)?;
        return Ok(run);
    }

    if !trace {
        // Phase 2: closed loops on two connections, the saturation rate.
        // They replay phase 1's distinct models, oldest first, so the result
        // cache (the last 128 results) misses while the term store, already
        // holding every model, stops growing: memory stays at phase 1's peak.
        let mut conns = vec![conn, d.connect()?];
        let start = Instant::now();
        let done = daemon::closed_loop(&mut conns, &plan.replay, env.budget(PHASE2_SHARE));
        let expected = |i: usize| plan.distinct[i % plan.distinct.len()].expected_code();
        check_replies(&mut run, done.iter().map(|&(i, r)| (r, expected(i))));
        d.shutdown(&mut conns[0])?;
        // The median over one-second windows, so a short stall of the
        // machine moves one window rather than the whole rate.
        let per_window = per_second(done.iter().filter_map(|&(_, r)| r.map(|r| r.at - start)));
        run.put(
            "latency_p50_ms",
            "ms",
            median(&per_second_p50),
            latency.len(),
        );
        run.put("verdicts_per_s", "1/s", median(&per_window), done.len());
        run.put("peak_rss_mb", "MB", hwm as f64 / 1024.0, plan.phase1.len());
        run.put("setup_s", "s", median(&setup), setup.len());
        run.note_tail("latency", &latency);
        return Ok(run);
    }

    let stats = conn.stats()?;
    d.shutdown(&mut conn)?;
    served_metrics(
        &mut run,
        &stats,
        &wire,
        rss_after as f64 - rss_before as f64,
    );

    let k = plan.distinct.len().min(if env.smoke { 20 } else { 200 });
    let jobs = write_models(&plan.distinct[..k], work)?;
    let child = traced_child(
        "daemon",
        env,
        work,
        &jobs,
        if env.smoke { 1 } else { 5 },
        &mut run,
    )?;
    run.put(
        "proc.overhead_ms",
        "ms",
        median(&per_second_p50) - num(&child, "pipeline_p50_ms"),
        latency.len(),
    );
    Ok(run)
}
