//! `comic-perfbench` — the repository's end-to-end and per-layer
//! benchmark. See `perfbench/README.md` for the workloads, the metrics and
//! how to run it.
//!
//! ```text
//! comic-perfbench --workload <serve-read|serve-churn|batch-solve> --seed <n>
//!                 --seconds <s> --trace <0|1> --serve-bin <path> [--repeat <runs>]
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; every line before it is
//! report: provenance, per-op sample counts and, when traced, span records.

mod batch;
mod inputs;
mod serve;
mod stats;
mod traced;

use comic_graph::DiGraph;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, reported by every untraced run. Each workload maps
/// its own ops onto the shared names (see the README's metric table).
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("select_ic_or_sim_solve_ms", "ms"),
    ("select_comic_or_cim_solve_ms", "ms"),
    ("estimate_or_delta_or_mc_eval_ms", "ms"),
    ("spread_ic_or_sim_sigma_a", "nodes"),
    ("spread_comic_or_cim_boost", "nodes"),
];

/// Per-layer metrics, reported by every traced run. A layer the workload
/// never reaches reports 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("serve.ping_rtt_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.handle_select_ic_ms", "ms"),
    ("serve.handle_select_comic_ms", "ms"),
    ("serve.handle_estimate_ms", "ms"),
    ("serve.handle_delta_ms", "ms"),
    ("serve.handle_self_ms", "ms"),
    ("serve.pool_builds", "count"),
    ("serve.full_rebuilds", "count"),
    ("serve.sets_regenerated", "count"),
    ("ris.select_ic_ms", "ms"),
    ("ris.select_comic_ms", "ms"),
    ("ris.select_prefix_ms", "ms"),
    ("ris.estimate_ms", "ms"),
    ("ris.kpt_ms", "ms"),
    ("ris.generate_ms", "ms"),
    ("ris.rr_sets", "count"),
    ("ris.rr_members", "count"),
    ("ris.index_entries", "count"),
    ("ris.invalidate_ms", "ms"),
    ("ris.marked_frac", "ratio"),
    ("ris.refresh_marked_ms", "ms"),
    ("algos.rr_sim.sets_per_s", "1/s"),
    ("algos.rr_sim_plus.sets_per_s", "1/s"),
    ("algos.rr_cim.sets_per_s", "1/s"),
    ("algos.sim_solve_ms", "ms"),
    ("algos.cim_solve_ms", "ms"),
    ("core.mc_eval_ms", "ms"),
    ("core.cascades_per_s", "1/s"),
    ("graph.load_ms", "ms"),
    ("graph.apply_deltas_ms", "ms"),
    ("graph.digest_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
];

/// Worker threads for both the service defaults and the solvers.
pub const THREADS: usize = 2;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Warm reads over the shipped four-pool service.
    ServeRead,
    /// Reads plus remove/re-add edge deltas over two pools.
    ServeChurn,
    /// The offline SelfInfMax / CompInfMax pipeline, in process.
    BatchSolve,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ServeRead,
        Workload::ServeChurn,
        Workload::BatchSolve,
    ];

    /// The `--workload` spelling.
    fn name(self) -> &'static str {
        match self {
            Workload::ServeRead => "serve-read",
            Workload::ServeChurn => "serve-churn",
            Workload::BatchSolve => "batch-solve",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Pool keys the service is started with.
    pub fn pools(self) -> Vec<&'static str> {
        match self {
            Workload::ServeChurn => inputs::CHURN_POOLS.to_vec(),
            _ => inputs::READ_POOLS.to_vec(),
        }
    }

    /// The edges deltas may remove and re-add (none on read-only runs).
    pub fn churn_edges(self, g: &DiGraph) -> Vec<(u32, u32, f64)> {
        match self {
            Workload::ServeChurn => g
                .edges()
                .map(|(_, e)| (e.source.0, e.target.0, e.p))
                .collect(),
            _ => Vec::new(),
        }
    }
}

/// What one run measured and checked.
pub struct Outcome {
    /// Ops issued in the measured phase(s).
    pub attempted: u64,
    /// Ops whose answer failed a check.
    pub failed: u64,
    /// False when an end-of-run check failed.
    pub correct: bool,
    metrics: BTreeMap<String, f64>,
    provenance: BTreeMap<String, String>,
    counts: BTreeMap<String, u64>,
    notes: Vec<String>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            correct: true,
            metrics: BTreeMap::new(),
            provenance: BTreeMap::new(),
            counts: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    fn provenance(&mut self, key: &str, value: &str) {
        self.provenance.insert(key.to_string(), value.to_string());
    }

    fn count(&mut self, key: &str, n: u64) {
        self.counts.insert(key.to_string(), n);
    }

    fn note(&mut self, line: &str) {
        self.notes.push(line.to_string());
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut serve_bin, mut repeat) = (None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(&value)),
            "--repeat" => repeat = Some(value.parse::<usize>().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        repeat,
    })
}

/// Directory for files a run writes (dataset text, span records), inside
/// the checkout the benchmark runs from.
pub fn work_dir() -> Result<PathBuf, String> {
    let dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".bench_work");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// The result object over `names`. A traced run reports 0 for layers its
/// workload never calls; an untraced run must have measured every metric.
fn result_line(out: &Outcome, traced: bool) -> Result<String, String> {
    let names: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            None if traced => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        metrics.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct && out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(",")
    ))
}

fn run_once(args: &Args) -> Result<(), String> {
    let mut out = match (args.workload, args.trace) {
        (Workload::BatchSolve, false) => batch::run(args.seed, args.seconds)?,
        (Workload::BatchSolve, true) => batch::run_traced(args.seed, args.seconds)?,
        (w, false) => serve::run(w, args.seed, args.seconds, &args.serve_bin)?,
        (w, true) => traced::run(w, args.seed, args.seconds)?,
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let defaults = comic_serve::ServeConfig::new(serve::DATASET);
    out.provenance("workload", args.workload.name());
    out.provenance("seed", &args.seed.to_string());
    out.provenance("seconds", &args.seconds.to_string());
    out.provenance("nproc", &nproc.to_string());
    out.provenance("gen_threads", &defaults.gen_threads.to_string());
    out.provenance("threads", &defaults.threads.to_string());
    out.provenance("solver_threads", &THREADS.to_string());
    out.provenance("simd", comic_ris::simd::active().name());
    out.provenance("store_mode", comic_graph::store::active().name());
    let prov: Vec<String> = out
        .provenance
        .iter()
        .map(|(k, v)| format!("\"{k}\":\"{v}\""))
        .collect();
    println!("provenance {{{}}}", prov.join(","));
    let counts: Vec<String> = [("attempted", out.attempted), ("failed", out.failed)]
        .into_iter()
        .chain(out.counts.iter().map(|(k, v)| (k.as_str(), *v)))
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!("counts {{{}}}", counts.join(","));
    for note in &out.notes {
        println!("{note}");
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for &(name, unit) in names {
        if let Some(v) = out.metrics.get(name) {
            println!("metric {name} = {v} {unit}");
        }
    }
    println!("{}", result_line(&out, args.trace)?);
    Ok(())
}

/// Bounds from `BENCHMARK.json` in the working directory, if present.
fn bounds() -> BTreeMap<String, f64> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return BTreeMap::new();
    };
    let Ok(doc) = comic_serve::json::parse(&text) else {
        return BTreeMap::new();
    };
    doc.get("end_to_end")
        .and_then(|v| v.as_arr())
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// Repeat mode: run the workload `runs` times with seeds `seed..seed+runs`
/// as child processes, then print each metric's median and interquartile
/// spread (as a share of the median) next to its bound.
fn repeat(args: &Args, runs: usize) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for i in 0..runs as u64 {
        let seed = args.seed + i;
        let output = std::process::Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args([
                "--seed",
                &seed.to_string(),
                "--seconds",
                &args.seconds.to_string(),
            ])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--serve-bin")
            .arg(&args.serve_bin)
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let doc = comic_serve::json::parse(last)
            .map_err(|e| format!("run with seed {seed} printed no result ({e}): {last}"))?;
        println!("run seed={seed} {last}");
        for (name, m) in doc.get("metrics").and_then(|m| m.as_obj()).unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(|v| v.as_f64()) {
                values.entry(name.clone()).or_default().push(v);
            }
        }
    }
    let bounds = bounds();
    for (name, xs) in &values {
        let Some((q1, q2, q3)) = stats::quartiles(xs) else {
            continue;
        };
        let spread = if q2 != 0.0 { (q3 - q1) / q2.abs() } else { 0.0 };
        let verdict = match bounds.get(name) {
            Some(b) => format!(
                "bound {b} {}",
                if spread < b / 3.0 {
                    "steady"
                } else {
                    "NOT steady"
                }
            ),
            None => String::new(),
        };
        println!("summary {name}: median {q2} q1 {q1} q3 {q3} spread {spread:.4} {verdict}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.repeat {
        Some(runs) => repeat(&args, runs),
        None => run_once(&args),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("comic-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = comic_serve::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
            xs.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        for w in doc.get("workloads").and_then(|v| v.as_arr()).unwrap() {
            let name = w.get("name").and_then(|v| v.as_str()).unwrap();
            assert!(Workload::parse(name).is_some(), "{name}");
        }
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let mut out = Outcome::new();
        for (name, _) in END_TO_END {
            out.metric(name, 1.0 / 3.0);
        }
        out.attempted = 3;
        let line = result_line(&out, false).unwrap();
        let doc = comic_serve::json::parse(&line).unwrap();
        let v = doc
            .get("metrics")
            .unwrap()
            .get("setup_s")
            .unwrap()
            .get("value")
            .unwrap();
        assert_eq!(v.as_f64(), Some(1.0 / 3.0));
        out.metrics.remove("setup_s");
        assert!(result_line(&out, false).is_err());
    }
}
