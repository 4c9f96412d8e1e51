//! batch-solve: the offline paper pipeline, in process, with no service.

use crate::inputs::{solve_list, Solve, SolveKind};
use crate::stats::{mean, median};
use crate::traced::{build_observed, report_rates, sets_per_s_metric, span_metric, Rates, Tracer};
use crate::{Outcome, THREADS};
use comic_algos::sandwich::{SandwichCandidate, SandwichReport};
use comic_algos::{CompInfMax, SelfInfMax};
use comic_bench::datasets::{self, CacheMode, Dataset};
use comic_core::seeds::SeedPair;
use comic_core::spread::SpreadEstimator;
use comic_core::Gap;
use comic_graph::io::graph_digest;
use comic_graph::{DiGraph, NodeId};
use comic_ris::tim::TimConfig;
use comic_ris::RisPipeline;
use comic_serve::protocol::SamplerKind;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// Scale of the Flixster stand-in (1548 nodes, 23040 edges).
const SIZE_FACTOR: f64 = 0.12;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;
const K: usize = 50;
const EPSILON: f64 = 0.5;
const MC_ITERATIONS: usize = 10_000;
const THETA_CAP: u64 = 100_000;
/// Fixed seed of the benchmark's own quality evaluation, so quality
/// repeats exactly for fixed code and workload seed.
const QUALITY_SEED: u64 = 0x9a11_7e57;

/// The ingested graph and the fixed opposite seed set.
struct Input {
    graph: DiGraph,
    opposite: Vec<NodeId>,
    setup_s: f64,
    load_ms: Vec<f64>,
}

/// Generate the Flixster stand-in, write it as SNAP text and ingest it
/// through `comic_bench::datasets`; timed as a whole `SETUP_REPS` times.
fn set_up(out: &mut Outcome) -> Result<Input, String> {
    let path = crate::work_dir()?.join(format!("flixster-{SIZE_FACTOR}.txt"));
    let arg = format!("{}:wc", path.display());
    let (mut setup_s, mut load_ms) = (Vec::new(), Vec::new());
    let mut graph = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let generated = Dataset::Flixster.instantiate(SIZE_FACTOR);
        let mut text = format!(
            "# Nodes: {} Edges: {}\n",
            generated.num_nodes(),
            generated.num_edges()
        );
        for (_, e) in generated.edges() {
            text.push_str(&format!("{}\t{}\n", e.source.0, e.target.0));
        }
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        let l = Instant::now();
        let loaded = datasets::load_with(&arg, CacheMode::Off).map_err(|e| e.to_string())?;
        load_ms.push(l.elapsed().as_secs_f64() * 1e3);
        setup_s.push(t.elapsed().as_secs_f64());
        if loaded.digest != graph_digest(&generated) {
            return Err("ingested graph differs from the generated stand-in".to_string());
        }
        graph = Some(loaded);
    }
    let loaded = graph.expect("set up at least once");
    out.provenance("dataset", &format!("flixster@{SIZE_FACTOR}"));
    out.provenance("dataset_digest", &format!("{:#018x}", loaded.digest));
    out.note(&format!(
        "setup_s runs: {setup_s:?} of which ingestion ms: {load_ms:?}"
    ));
    let graph = std::sync::Arc::unwrap_or_clone(loaded.graph);
    // The opposite item's seeds: out-degree ranks 101-200, ties toward
    // smaller ids — fixed by the input, not by any solver.
    let mut by_degree: Vec<NodeId> = graph.nodes().collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(graph.out_degree(v)), v.0));
    let opposite = by_degree[100..200].to_vec();
    Ok(Input {
        graph,
        opposite,
        setup_s: median(&setup_s).expect("set up at least once"),
        load_ms,
    })
}

/// Run one solve; returns the seeds, the sandwich ratio, the seconds the
/// `solve` call took and the winning run's θ.
fn solve(input: &Input, s: &Solve) -> Result<(Vec<NodeId>, f64, f64, u64), String> {
    let mut rng = SmallRng::seed_from_u64(s.rng_seed);
    let t = Instant::now();
    let sol = match s.kind {
        SolveKind::Sim => SelfInfMax::new(&input.graph, s.gap, input.opposite.clone())
            .epsilon(EPSILON)
            .eval_iterations(MC_ITERATIONS)
            .threads(THREADS)
            .max_rr_sets(THETA_CAP)
            .solve(K, &mut rng),
        SolveKind::Cim => CompInfMax::new(&input.graph, s.gap, input.opposite.clone())
            .epsilon(EPSILON)
            .eval_iterations(MC_ITERATIONS)
            .threads(THREADS)
            .max_rr_sets(THETA_CAP)
            .solve(K, &mut rng),
    }
    .map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    let ratio = sol
        .sandwich
        .as_ref()
        .map_or(f64::NAN, |r| r.upper_bound_ratio);
    Ok((sol.seeds, ratio, secs, sol.tim.theta))
}

/// Check a solution: k distinct in-range seeds and a sandwich ratio in
/// (0, 1.05].
fn check_solution(seeds: &[NodeId], ratio: f64, n: usize) -> Result<(), String> {
    let mut ids: Vec<u32> = seeds.iter().map(|v| v.0).collect();
    ids.sort_unstable();
    ids.dedup();
    if ids.len() != K || ids.iter().any(|&v| v as usize >= n) {
        return Err(format!(
            "solution has {} distinct in-range seeds, want {K}",
            ids.len()
        ));
    }
    if !(ratio > 0.0 && ratio <= 1.05) {
        return Err(format!("sandwich ratio {ratio} outside (0, 1.05]"));
    }
    Ok(())
}

fn mc(g: &DiGraph, gap: Gap, a: &[NodeId], b: &[NodeId], seed: u64) -> f64 {
    SpreadEstimator::new(g, gap)
        .estimate_parallel(
            &SeedPair::new(a.to_vec(), b.to_vec()),
            MC_ITERATIONS,
            seed,
            THREADS,
        )
        .sigma_a
}

/// Run the untraced batch workload.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let input = set_up(&mut out)?;
    let n = input.graph.num_nodes();
    let list = solve_list(seed);
    let (mut sim_s, mut cim_s, mut mc_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut sigma_a, mut boost, mut thetas) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        for s in &list {
            out.attempted += 1;
            let (seeds, ratio, secs, theta) = solve(&input, s)?;
            thetas.push(theta);
            if let Err(e) = check_solution(&seeds, ratio, n) {
                out.failed += 1;
                out.note(&format!("error: {e}"));
                continue;
            }
            let mut timed = |a: &[NodeId], b: &[NodeId]| {
                let t = Instant::now();
                let v = mc(&input.graph, s.gap, a, b, QUALITY_SEED);
                mc_ms.push(t.elapsed().as_secs_f64() * 1e3);
                v
            };
            match s.kind {
                SolveKind::Sim => {
                    sim_s.push(secs);
                    sigma_a.push(timed(&seeds, &input.opposite));
                }
                SolveKind::Cim => {
                    cim_s.push(secs);
                    boost.push(timed(&input.opposite, &seeds) - timed(&input.opposite, &[]));
                }
            }
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let need = |xs: &[f64], what: &str| mean(xs).ok_or_else(|| format!("no successful {what}"));
    out.count("sim_solve_samples", sim_s.len() as u64);
    out.count("cim_solve_samples", cim_s.len() as u64);
    out.count("mc_eval_samples", mc_ms.len() as u64);
    out.metric("setup_s", input.setup_s);
    out.metric("peak_rss_mb", crate::serve::vm_hwm_mb("/proc/self/status")?);
    out.metric("ops_per_s", (sim_s.len() + cim_s.len()) as f64 / wall);
    out.metric(
        "select_ic_or_sim_solve_ms",
        need(&sim_s, "SelfInfMax solve")? * 1e3,
    );
    out.metric(
        "select_comic_or_cim_solve_ms",
        need(&cim_s, "CompInfMax solve")? * 1e3,
    );
    out.metric(
        "estimate_or_delta_or_mc_eval_ms",
        need(&mc_ms, "evaluation")?,
    );
    out.metric(
        "spread_ic_or_sim_sigma_a",
        need(&sigma_a, "SelfInfMax solve")?,
    );
    out.metric(
        "spread_comic_or_cim_boost",
        need(&boost, "CompInfMax solve")?,
    );
    out.note(&format!(
        "solves: sim_solve_s={:?} cim_solve_s={:?} sim_sigma_a={sigma_a:?} cim_boost={boost:?} theta={thetas:?}",
        sim_s, cim_s
    ));
    Ok(out)
}

/// The traced batch run: the solve list once under an `algos.*_solve`
/// span per solve, with the solver's stage calls — pool generation with the
/// stage observer, `run_on_pool` and `estimate_parallel` — replayed beneath
/// it. The replayed winner must equal the solver's answer. The first solve
/// of each kind also runs untraced, for the tracing overhead.
pub fn run_traced(seed: u64, _seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let mut tr = Tracer::new();
    let mut rates = Rates::new();
    let setup = tr.begin(None, 0, "batch.setup");
    let input = set_up(&mut out)?;
    tr.end(setup);
    if let Some(m) = median(&input.load_ms) {
        out.metric("graph.load_ms", m);
    }
    let d = tr.begin(Some(setup), 0, "graph.digest");
    std::hint::black_box(graph_digest(&input.graph));
    tr.end(d);
    let n = input.graph.num_nodes();
    let list = solve_list(seed);

    // The list interleaves the kinds, so its first two solves are one of each.
    let overhead_sample = 2;
    let mut untraced = 0.0;
    for s in &list[..overhead_sample] {
        untraced += solve(&input, s)?.2;
    }
    let mut traced = 0.0;
    for (i, s) in list.iter().enumerate() {
        let req = i as u64 + 1;
        out.attempted += 1;
        let name = match s.kind {
            SolveKind::Sim => "algos.sim_solve",
            SolveKind::Cim => "algos.cim_solve",
        };
        let span = tr.begin(None, req, name);
        let (seeds, ratio, _, _) = solve(&input, s)?;
        let secs = tr.end(span) / 1e3;
        if i < overhead_sample {
            traced += secs;
        }
        let checked = check_solution(&seeds, ratio, n)
            .and_then(|()| replay_stages(&mut tr, span, req, &input, s, &mut rates))
            .and_then(|winner| {
                (winner == seeds)
                    .then_some(())
                    .ok_or_else(|| "replayed stages picked other seeds than the solver".to_string())
            });
        if let Err(e) = checked {
            out.failed += 1;
            out.note(&format!("error: {e}"));
        }
    }
    out.attempted += overhead_sample as u64;
    out.metric("trace.overhead_ratio", traced / untraced);
    out.note(&format!(
        "trace overhead: solve calls {traced:.3} s traced vs {untraced:.3} s untraced"
    ));
    for (span, count) in [
        ("algos.sim_solve", "sim_solve_samples"),
        ("algos.cim_solve", "cim_solve_samples"),
        ("core.mc_eval", "mc_eval_samples"),
    ] {
        out.count(count, tr.durations(span).len() as u64);
    }
    span_metric(&mut out, &tr, "algos.sim_solve", "algos.sim_solve_ms", 1.0);
    span_metric(&mut out, &tr, "algos.cim_solve", "algos.cim_solve_ms", 1.0);
    span_metric(&mut out, &tr, "core.mc_eval", "core.mc_eval_ms", 1.0);
    span_metric(&mut out, &tr, "ris.kpt", "ris.kpt_ms", 1.0);
    span_metric(&mut out, &tr, "ris.generate", "ris.generate_ms", 1.0);
    span_metric(
        &mut out,
        &tr,
        "ris.select_comic",
        "ris.select_comic_ms",
        1.0,
    );
    span_metric(&mut out, &tr, "graph.digest", "graph.digest_ms", 1.0);
    if let Some(m) = median(&tr.durations("core.mc_eval")) {
        out.metric("core.cascades_per_s", MC_ITERATIONS as f64 / (m / 1e3));
    }
    report_rates(&mut out, &rates);
    tr.write_out(&mut out);
    Ok(out)
}

/// Replay one solve's stages under `parent`, exactly as the solver runs
/// them (same per-solve seed chain); returns the sandwich winner's seeds.
fn replay_stages(
    tr: &mut Tracer,
    parent: usize,
    req: u64,
    input: &Input,
    s: &Solve,
    rates: &mut Rates,
) -> Result<Vec<NodeId>, String> {
    let g = &input.graph;
    let opp = &input.opposite;
    let seed: u64 = SmallRng::seed_from_u64(s.rng_seed).random();
    let config = |seed| {
        let mut tc = TimConfig::new(K)
            .epsilon(EPSILON)
            .seed(seed)
            .threads(THREADS);
        tc.max_rr_sets = Some(THETA_CAP);
        tc
    };
    let mut stage = |tr: &mut Tracer, sampler, gap, seed| -> Result<Vec<NodeId>, String> {
        let (pool, rate) =
            build_observed(tr, Some(parent), req, g, sampler, gap, opp, config(seed))?;
        if let Some(m) = sets_per_s_metric(sampler) {
            rates.entry(m).or_default().push(rate);
        }
        let sel = tr.begin(Some(parent), req, "ris.select_comic");
        let r = RisPipeline::new(config(seed))
            .run_on_pool(&pool)
            .map_err(|e| e.to_string())?;
        tr.end(sel);
        Ok(r.seeds)
    };
    let eval = |tr: &mut Tracer, gap: Gap, a: &[NodeId], b: &[NodeId], seed| {
        let span = tr.begin(Some(parent), req, "core.mc_eval");
        let v = mc(g, gap, a, b, seed);
        tr.end(span);
        v
    };
    let gap = s.gap;
    let err = |e: comic_core::error::ModelError| e.to_string();
    match s.kind {
        SolveKind::Sim => {
            let nu = gap.with_q_b0(gap.q_ba).map_err(err)?;
            let mu = gap.with_q_ba(gap.q_b0).map_err(err)?;
            let seeds_nu = stage(tr, SamplerKind::RrSimPlus, nu, seed)?;
            let seeds_mu = stage(tr, SamplerKind::RrSimPlus, mu, seed ^ 2)?;
            let cand = |name, seeds: Vec<NodeId>, objective| SandwichCandidate {
                name,
                seeds,
                objective,
            };
            let obj_nu = eval(tr, gap, &seeds_nu, opp, seed ^ 3);
            let obj_mu = eval(tr, gap, &seeds_mu, opp, seed ^ 3);
            let nu_value = eval(tr, nu, &seeds_nu, opp, seed ^ 4);
            let ratio = if nu_value > 0.0 {
                obj_nu / nu_value
            } else {
                1.0
            };
            let report = SandwichReport::assemble(
                vec![cand("nu", seeds_nu, obj_nu), cand("mu", seeds_mu, obj_mu)],
                ratio,
            );
            Ok(report.winner().seeds.clone())
        }
        SolveKind::Cim => {
            let nu = gap.with_q_ba(1.0).map_err(err)?;
            let seeds_nu = stage(tr, SamplerKind::RrCim, nu, seed)?;
            for (g2, salt) in [(gap, 3), (nu, 4)] {
                eval(tr, g2, opp, &seeds_nu, seed ^ salt);
                eval(tr, g2, opp, &[], seed ^ salt);
            }
            Ok(seeds_nu)
        }
    }
}
