//! The in-process pipeline of the traced run (`benchmark --child`).
//!
//! It calls the same public functions as `src/bin/aadlsched.rs`, in the same
//! order and with default options, and wraps each call in a span recorded by
//! the benchmark. No span is added inside the program.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use aadl::instance::instantiate;
use aadl::parser::parse_package;
use aadl2acsr::{analyze_translated, translate, AnalysisOptions, TranslateOptions};

use crate::json::Json;
use crate::stats::{median, self_times, Span};

/// Spans kept in memory until the run ends. When off, [`Tracer::span`] only
/// calls its closure, so the traced and untraced pipelines run the same code.
struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its index (ignored when tracing is off).
    fn open(&mut self, name: &'static str, parent: Option<usize>, req: usize) -> usize {
        if self.on {
            let start_ns = self.now();
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                req,
            });
        }
        self.spans.len().wrapping_sub(1)
    }

    fn close(&mut self, idx: usize) {
        if self.on {
            self.spans[idx].end_ns = self.now();
        }
    }

    /// Run `f` inside a span named `name`.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let idx = self.open(name, parent, req);
        let out = f();
        self.close(idx);
        out
    }
}

/// What one pipeline run returns besides its spans.
struct Outcome {
    /// The exit code `aadlsched` would return.
    code: i32,
    stats: versa::Stats,
    defs: usize,
}

/// Run the `aadlsched` pipeline on one file: read, parse, root selection and
/// instantiation, translation, analysis, report rendering, then the drops
/// `main` pays on return.
fn run(path: &Path, tracer: &mut Tracer, req: usize) -> Result<Outcome, String> {
    let root = tracer.open("pipeline", None, req);
    let r = Some(root);
    let source = tracer
        .span("read", r, req, || std::fs::read_to_string(path))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let pkg = tracer
        .span("aadl.parse", r, req, || parse_package(&source))
        .map_err(|e| format!("{}: parse error: {e}", path.display()))?;
    let model = tracer
        .span("aadl.instantiate", r, req, || {
            let root = pkg.default_root()?;
            instantiate(&pkg, &root).map_err(|e| e.to_string())
        })
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let tm = tracer
        .span("aadl2acsr.translate", r, req, || {
            translate(&model, &TranslateOptions::default())
        })
        .map_err(|e| format!("{}: translation error: {e}", path.display()))?;
    let outcome = tracer.span("aadl2acsr.analyze", r, req, || {
        analyze_translated(&model, &tm, &AnalysisOptions::default())
    });
    let report = tracer.span("aadl2acsr.render", r, req, || {
        let mut text = format!("exploration: {}", outcome.stats());
        if let Some(scenario) = outcome.scenario() {
            text.push_str(&scenario.render());
        }
        text
    });
    black_box(report);
    let result = Outcome {
        code: i32::from(outcome.exit_code()),
        stats: outcome.stats().clone(),
        defs: tm.env.num_defs(),
    };
    let teardown = tracer.open("teardown", r, req);
    let t = Some(teardown);
    tracer.span("drop.outcome", t, req, || drop(outcome));
    tracer.span("drop.translated", t, req, || drop(tm));
    tracer.span("drop.instance", t, req, || drop(model));
    tracer.span("drop.package", t, req, || drop(pkg));
    tracer.span("drop.source", t, req, || drop(source));
    tracer.close(teardown);
    tracer.close(root);
    Ok(result)
}

/// One line of the child's manifest: an input file and its reference code.
pub struct Input {
    path: String,
    expected: i32,
}

pub fn read_manifest(path: &Path) -> Result<Vec<Input>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            let (file, code) = line
                .split_once('\t')
                .ok_or_else(|| format!("bad manifest line `{line}`"))?;
            Ok(Input {
                path: file.to_string(),
                expected: code
                    .parse()
                    .map_err(|e| format!("bad code in `{line}`: {e}"))?,
            })
        })
        .collect()
}

/// The traced run: every input `reps` times, each time once traced and once
/// untraced, in alternating order so neither side always runs on the
/// other's warm caches. Writes the spans as JSON lines to `trace_out` and
/// returns the per-layer numbers.
pub fn child(inputs: &[Input], reps: usize, trace_out: &Path) -> Result<Json, String> {
    let mut traced = Tracer::new(true);
    let mut untraced = Tracer::new(false);
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut first: Vec<Option<Outcome>> = inputs.iter().map(|_| None).collect();
    let (mut attempted, mut failed, mut wrong) = (0usize, 0usize, 0usize);
    for rep in 0..reps {
        for (req, input) in inputs.iter().enumerate() {
            let mut sides = [
                (&mut traced, &mut traced_ms),
                (&mut untraced, &mut untraced_ms),
            ];
            if (rep + req) % 2 == 1 {
                sides.reverse();
            }
            for (tracer, times) in sides {
                attempted += 1;
                let t0 = Instant::now();
                let out = run(Path::new(&input.path), tracer, req);
                times.push(t0.elapsed().as_secs_f64() * 1e3);
                match out {
                    Ok(o) if o.code != 0 && o.code != 1 => failed += 1,
                    Ok(o) => {
                        wrong += usize::from(o.code != input.expected);
                        first[req].get_or_insert(o);
                    }
                    Err(e) => {
                        eprintln!("benchmark: {e}");
                        failed += 1;
                    }
                }
            }
        }
    }
    write_trace(&traced.spans, trace_out)?;

    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in &traced.spans {
        by_name
            .entry(s.name)
            .or_default()
            .push((s.end_ns - s.start_ns) as f64);
    }
    let med_ns = |name: &str| by_name.get(name).map_or(f64::NAN, |v| median(v));
    let outcomes: Vec<&Outcome> = first.iter().flatten().collect();
    let sum = |f: &dyn Fn(&Outcome) -> f64| outcomes.iter().map(|o| f(o)).sum::<f64>();
    let n = outcomes.len().max(1) as f64;
    let analyzed_s = outcomes
        .iter()
        .map(|o| o.stats.duration.as_secs_f64())
        .sum::<f64>();
    let memo_lookups = sum(&|o| (o.stats.memo_hits + o.stats.memo_misses) as f64);
    let (total_traced, total_untraced) = (
        traced_ms.iter().sum::<f64>(),
        untraced_ms.iter().sum::<f64>(),
    );
    Ok(Json::obj([
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("wrong", Json::from(wrong)),
        ("pipeline_p50_ms", Json::from(median(&untraced_ms))),
        ("aadl.parse_us", Json::from(med_ns("aadl.parse") / 1e3)),
        (
            "aadl.instantiate_us",
            Json::from(med_ns("aadl.instantiate") / 1e3),
        ),
        (
            "aadl2acsr.translate_us",
            Json::from(med_ns("aadl2acsr.translate") / 1e3),
        ),
        ("aadl2acsr.defs", Json::from(sum(&|o| o.defs as f64) / n)),
        (
            "aadl2acsr.analyze_ms",
            Json::from(med_ns("aadl2acsr.analyze") / 1e6),
        ),
        (
            "aadl2acsr.render_us",
            Json::from(med_ns("aadl2acsr.render") / 1e3),
        ),
        ("teardown_ms", Json::from(med_ns("teardown") / 1e6)),
        (
            "versa.states",
            Json::from(sum(&|o| o.stats.states as f64) / n),
        ),
        (
            "versa.transitions",
            Json::from(sum(&|o| o.stats.transitions as f64) / n),
        ),
        (
            "versa.states_per_s",
            Json::from(sum(&|o| o.stats.states as f64) / analyzed_s),
        ),
        (
            "versa.dedup_ratio",
            Json::from(sum(&|o| o.stats.dedup_hits as f64) / sum(&|o| o.stats.transitions as f64)),
        ),
        (
            "versa.memo_hit_ratio",
            Json::from(sum(&|o| o.stats.memo_hits as f64) / memo_lookups),
        ),
        (
            "versa.memo_evictions",
            Json::from(sum(&|o| o.stats.memo_evictions as f64)),
        ),
        (
            "versa.peak_frontier",
            Json::from(
                outcomes
                    .iter()
                    .map(|o| o.stats.peak_frontier)
                    .max()
                    .unwrap_or(0),
            ),
        ),
        (
            "acsr.unique_subterms",
            Json::from(
                outcomes
                    .iter()
                    .map(|o| o.stats.unique_subterms)
                    .max()
                    .unwrap_or(0),
            ),
        ),
        (
            "bench.trace_overhead_share",
            Json::from((total_traced - total_untraced) / total_untraced),
        ),
        ("ledger", ledger(&traced.spans)),
    ]))
}

/// Self time per span name over the whole traced run, in ms. The entries sum
/// to the total time of the `pipeline` roots, so every millisecond of the
/// traced run is assigned to exactly one layer.
fn ledger(spans: &[Span]) -> Json {
    let mut by_name: BTreeMap<&str, f64> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(s.name).or_default() += self_ns as f64 / 1e6;
    }
    Json::obj(by_name.into_iter().map(|(k, v)| (k, Json::from(v))))
}

fn write_trace(spans: &[Span], path: &Path) -> Result<(), String> {
    let mut out = String::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let line = Json::obj([
            ("name", Json::from(s.name)),
            ("start_ns", Json::from(s.start_ns)),
            ("end_ns", Json::from(s.end_ns)),
            ("parent", s.parent.map_or(Json::Null, Json::from)),
            ("req", Json::from(s.req)),
            ("self_ns", Json::from(self_ns)),
        ]);
        out.push_str(&line.to_string());
        out.push('\n');
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}
