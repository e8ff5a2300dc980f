//! `benchmark` — end-to-end and per-layer benchmark of the `aadlsched` CLI
//! and the `aadlschedd` daemon. Run it from the repository root through
//! `benchmark/run.sh`, which builds the programs first; see README.md.
//!
//! ```text
//! benchmark [--seed <n>] [--seconds <s>]     all workloads, untraced then traced
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark --smoke [--seed <n>]            every workload scaled down
//! benchmark --compare <A> <B>               A, B: run files or directories of them
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is 0 when every
//! verdict matched its reference, 1 on a wrong verdict (or, for
//! `--compare`, a regression), 2 on a usage or environment error.

mod cli;
mod daemon;
mod gen;
mod json;
mod pipeline;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use stats::{classify, median, spread, Change};
use workloads::{Env, Run, END_TO_END, PER_LAYER, WORKLOADS};

fn usage() -> String {
    "usage: benchmark [--seed <n>] [--seconds <s>]\n\
     \x20      benchmark --workload <longperiod|bundled|branching|daemon> --seed <n> --seconds <s> --trace <0|1>\n\
     \x20      benchmark --smoke [--seed <n>]\n\
     \x20      benchmark --compare <A> <B>"
        .to_string()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Flag values by name; flags without a value map to an empty string.
fn flags(args: &[String]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument `{a}`\n{}", usage()));
        };
        let value = match name {
            "smoke" => String::new(),
            "compare" => {
                let a = it.next().ok_or("--compare needs two paths")?;
                let b = it.next().ok_or("--compare needs two paths")?;
                format!("{a}\n{b}")
            }
            _ => it.next().ok_or(format!("--{name} needs a value"))?.clone(),
        };
        out.push((name.to_string(), value));
    }
    Ok(out)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let flags = flags(args)?;
    let get = |k: &str| flags.iter().find(|(n, _)| n == k).map(|(_, v)| v.as_str());
    for (name, _) in &flags {
        let known = [
            "workload",
            "seed",
            "seconds",
            "trace",
            "smoke",
            "compare",
            "child",
            "reps",
            "trace-out",
        ];
        if !known.contains(&name.as_str()) {
            return Err(format!("unknown flag `--{name}`\n{}", usage()));
        }
    }
    if let Some(manifest) = get("child") {
        let inputs = pipeline::read_manifest(Path::new(manifest))?;
        let reps = get("reps")
            .unwrap_or("1")
            .parse()
            .map_err(|e| format!("--reps: {e}"))?;
        let out = get("trace-out").ok_or("--child needs --trace-out")?;
        println!("{}", pipeline::child(&inputs, reps, Path::new(out))?);
        return Ok(true);
    }
    if let Some(pair) = get("compare") {
        let (a, b) = pair.split_once('\n').expect("two paths");
        return compare(a, b);
    }

    let seed = get("seed")
        .unwrap_or("1")
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let smoke = get("smoke").is_some();
    let seconds = match get("seconds") {
        Some(s) => s.parse().map_err(|e| format!("--seconds: {e}"))?,
        None if smoke => 1.0,
        None => bench_config()?
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json has no run_seconds")?,
    };
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let env = environment(seed, seconds, smoke)?;

    if let Some(workload) = get("workload") {
        if !WORKLOADS.contains(&workload) {
            return Err(format!("unknown workload `{workload}`\n{}", usage()));
        }
        let trace = match get("trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        };
        let run = workloads::run(workload, &env, trace)?;
        print_run(&run, seconds);
        let t = u8::from(trace);
        write_runs(
            &env.out.join(format!("run-{workload}-{seed}-t{t}.json")),
            &[&run],
            seconds,
        )?;
        let keys: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        println!("{}", result_line(&[&run], keys, false)?);
        return Ok(run.correct);
    }

    // The one-command run: every workload untraced, then traced (smoke:
    // longperiod untraced only, since its one model cannot shrink).
    let mut runs = Vec::new();
    for workload in WORKLOADS {
        for trace in [false, true] {
            if smoke && trace && workload == "longperiod" {
                continue;
            }
            let run = workloads::run(workload, &env, trace)?;
            print_run(&run, seconds);
            let correct = run.correct;
            runs.push(run);
            if !correct {
                break;
            }
        }
    }
    let refs: Vec<&Run> = runs.iter().collect();
    let file = env.out.join(format!(
        "run-{seed}{}.json",
        if smoke { "-smoke" } else { "" }
    ));
    write_runs(&file, &refs, seconds)?;
    println!("run file: {}", file.display());
    let line = result_line(&refs, &[], true)?;
    println!("{line}");
    Ok(refs.iter().all(|r| r.correct))
}

/// `BENCHMARK.json` of the repository root (the working directory).
fn bench_config() -> Result<Json, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))
}

/// Locate the programs built next to this executable and the output
/// directory `<target>/benchmark`.
fn environment(seed: u64, seconds: f64, smoke: bool) -> Result<Env, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let bin_dir = exe
        .parent()
        .ok_or("executable has no directory")?
        .to_path_buf();
    let find = |name: &str| -> Result<PathBuf, String> {
        let p = bin_dir.join(name);
        p.is_file().then_some(p).ok_or(format!(
            "`{name}` is not in {}; build with `bash benchmark/run.sh`",
            bin_dir.display()
        ))
    };
    if !Path::new("examples/models").is_dir() {
        return Err("run from the repository root (examples/models not found)".into());
    }
    let out = bin_dir
        .parent()
        .ok_or("executable is not in a target directory")?
        .join("benchmark");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    Ok(Env {
        aadlsched: find("aadlsched")?,
        aadlschedd: find("aadlschedd")?,
        exe,
        out,
        seed,
        seconds,
        smoke,
    })
}

fn print_run(run: &Run, seconds: f64) {
    println!(
        "== {} (seed {}, {seconds} s, {}): {}, {} attempted, {} failed",
        run.workload,
        run.seed,
        if run.trace { "traced" } else { "untraced" },
        if run.correct {
            "all verdicts match the reference"
        } else {
            "WRONG VERDICT"
        },
        run.attempted,
        run.failed
    );
    for m in &run.metrics {
        println!(
            "   {:<28} {:>14.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for note in &run.notes {
        println!("   note: {note}");
    }
}

fn run_json(run: &Run, seconds: f64) -> Json {
    Json::obj([
        ("workload", Json::from(run.workload.as_str())),
        ("seed", Json::from(run.seed)),
        ("trace", Json::from(run.trace)),
        ("seconds", Json::from(seconds)),
        ("correct", Json::from(run.correct)),
        ("attempted", Json::from(run.attempted)),
        ("failed", Json::from(run.failed)),
        (
            "metrics",
            Json::obj(run.metrics.iter().map(|m| {
                (
                    m.name.as_str(),
                    Json::obj([
                        ("value", Json::from(m.value)),
                        ("unit", Json::from(m.unit.as_str())),
                        ("samples", Json::from(m.samples)),
                    ]),
                )
            })),
        ),
        (
            "notes",
            Json::Arr(run.notes.iter().map(|n| Json::from(n.as_str())).collect()),
        ),
    ])
}

fn write_runs(path: &Path, runs: &[&Run], seconds: f64) -> Result<(), String> {
    let doc = Json::obj([(
        "runs",
        Json::Arr(runs.iter().map(|r| run_json(r, seconds)).collect()),
    )]);
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

/// The result line. With `keys`, exactly those metrics, in that order (a
/// missing one is an error); with `prefixed`, every metric of every run as
/// `<workload>/<name>`.
fn result_line(runs: &[&Run], keys: &[(&str, &str)], prefixed: bool) -> Result<Json, String> {
    let mut metrics = Vec::new();
    if prefixed {
        for r in runs {
            for m in &r.metrics {
                metrics.push((
                    format!("{}/{}", r.workload, m.name),
                    m.value,
                    m.unit.clone(),
                ));
            }
        }
    } else {
        for &(name, unit) in keys {
            let found = runs
                .iter()
                .flat_map(|r| &r.metrics)
                .find(|m| m.name == name);
            match found {
                Some(m) if m.value.is_finite() => {
                    metrics.push((name.to_string(), m.value, unit.to_string()))
                }
                _ if runs.iter().any(|r| !r.correct) => {}
                _ => return Err(format!("metric `{name}` was not measured")),
            }
        }
    }
    Ok(Json::obj([
        ("correct", Json::from(runs.iter().all(|r| r.correct))),
        (
            "attempted",
            Json::from(runs.iter().map(|r| r.attempted).sum::<usize>()),
        ),
        (
            "failed",
            Json::from(runs.iter().map(|r| r.failed).sum::<usize>()),
        ),
        (
            "metrics",
            Json::obj(metrics.into_iter().map(|(name, value, unit)| {
                (
                    name,
                    Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
                )
            })),
        ),
    ]))
}

/// Untraced runs from a run file, or from every `*.json` file of a
/// directory.
fn load_runs(path: &str) -> Result<Vec<Json>, String> {
    let p = Path::new(path);
    let files: Vec<PathBuf> = if p.is_dir() {
        let mut v: Vec<PathBuf> = std::fs::read_dir(p)
            .map_err(|e| format!("{path}: {e}"))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|f| f.extension().is_some_and(|x| x == "json"))
            .collect();
        v.sort();
        v
    } else {
        vec![p.to_path_buf()]
    };
    let mut runs = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", f.display()))?;
        let list = doc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or(format!("{}: not a run file", f.display()))?;
        runs.extend(
            list.iter()
                .filter(|r| r.get("trace").and_then(Json::as_bool) == Some(false))
                .cloned(),
        );
    }
    Ok(runs)
}

/// `--compare A B`: one row per workload and end-to-end metric, classified
/// against the bounds in `BENCHMARK.json`. False on any "worse" row or a
/// higher error share.
fn compare(a: &str, b: &str) -> Result<bool, String> {
    let config = bench_config()?;
    let metrics = config
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let (runs_a, runs_b) = (load_runs(a)?, load_runs(b)?);
    let of = |runs: &[Json], workload: &str| -> Vec<Json> {
        runs.iter()
            .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
            .cloned()
            .collect()
    };
    let values = |runs: &[Json], metric: &str| -> Vec<f64> {
        runs.iter()
            .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
            .collect()
    };
    let error_share = |runs: &[Json]| {
        let sum = |k| runs.iter().filter_map(|r| r.get(k)?.as_f64()).sum::<f64>();
        sum("failed") / sum("attempted").max(1.0)
    };
    println!(
        "{:<11} {:<15} {:>12} {:>12} {:>8} {:>7} {:>7} {:>6}  result",
        "workload", "metric", "median A", "median B", "change", "sprd A", "sprd B", "bound"
    );
    let mut ok = true;
    for workload in WORKLOADS {
        let (wa, wb) = (of(&runs_a, workload), of(&runs_b, workload));
        if wa.is_empty() || wb.is_empty() {
            continue;
        }
        for m in metrics {
            let name = m.get("name").and_then(Json::as_str).unwrap_or("?");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            let (va, vb) = (values(&wa, name), values(&wb, name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (class, worse_by) = classify(&va, &vb, bound, higher);
            ok &= class != Change::Worse;
            println!(
                "{workload:<11} {name:<15} {:>12.4} {:>12.4} {:>+7.1}% {:>6.1}% {:>6.1}% {:>5.0}%  {} (n={}/{})",
                median(&va),
                median(&vb),
                100.0 * worse_by,
                100.0 * spread(&va),
                100.0 * spread(&vb),
                100.0 * bound,
                class.label(),
                va.len(),
                vb.len()
            );
        }
        let (ea, eb) = (error_share(&wa), error_share(&wb));
        if eb > ea {
            ok = false;
            println!("{workload:<11} error_share     {ea:>12.6} {eb:>12.6}  worse: more failed operations");
        }
    }
    println!("(change: positive = worse; sprd: quartile distance / median)");
    Ok(ok)
}
