//! The traced runs: span recording around calls into each layer, and the
//! in-process replay of the serve workloads.
//!
//! A span has a name, a start, an end, a parent and a request id. Where a
//! layer's internals cannot be observed from outside — a
//! `ComicService::handle` or a `SelfInfMax::solve` — the traced run calls
//! the inner layer again on the same input right after the outer call and
//! records it as a *replay* child of the outer span. A span's self time is
//! its duration minus its children's, so the outer layer's self time is
//! what remains once the replayed inner calls are taken out.

use crate::inputs::{Op, OpClass, OpStream, DELTA_EVERY};
use crate::serve::{warmup_ops, DATASET};
use crate::stats::{median, percentile};
use crate::{Outcome, Workload};
use comic_algos::rr_cim::RrCimSampler;
use comic_algos::rr_sim::RrSimSampler;
use comic_algos::rr_sim_plus::RrSimPlusSampler;
use comic_bench::datasets;
use comic_core::Gap;
use comic_graph::{io::graph_digest, DiGraph, NodeId};
use comic_ris::ic_sampler::IcRrSampler;
use comic_ris::pipeline::refresh_pool_marked;
use comic_ris::select::SelectorKind;
use comic_ris::tim::TimConfig;
use comic_ris::{PoolStage, RisPipeline, SketchPool};
use comic_serve::protocol::{parse_request, PoolKey, Request, Response, SamplerKind};
use comic_serve::{ComicService, ServeConfig, TcpServer};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;
use std::time::Instant;

/// One recorded span.
pub struct Span {
    id: usize,
    parent: Option<usize>,
    req: u64,
    name: String,
    start: Instant,
    end: Option<Instant>,
}

/// In-memory span recorder; spans are written out when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Open a span now.
    pub fn begin(&mut self, parent: Option<usize>, req: u64, name: &str) -> usize {
        self.record(parent, req, name, Instant::now(), None)
    }

    /// Close a span now; returns its duration in milliseconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let now = Instant::now();
        let span = &mut self.spans[id];
        span.end = Some(now);
        (now - span.start).as_secs_f64() * 1e3
    }

    /// Record a span whose bounds were taken elsewhere.
    pub fn record(
        &mut self,
        parent: Option<usize>,
        req: u64,
        name: &str,
        start: Instant,
        end: Option<Instant>,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            req,
            name: name.to_string(),
            start,
            end,
        });
        id
    }

    fn duration_ms(s: &Span) -> f64 {
        s.end.map_or(0.0, |e| (e - s.start).as_secs_f64() * 1e3)
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Tracer::duration_ms)
            .collect()
    }

    /// Self time (ms) of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Tracer::duration_ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= Tracer::duration_ms(s);
            }
        }
        own
    }

    /// Median self time (ms) of spans whose name starts with `prefix`.
    pub fn median_self(&self, prefix: &str) -> Option<f64> {
        let own = self.self_times();
        let xs: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| own[s.id])
            .collect();
        median(&xs)
    }

    /// Print every span record, then the self-time table per span name.
    pub fn write_out(&self, out: &mut Outcome) {
        for s in &self.spans {
            let at = |t: Instant| (t - self.origin).as_secs_f64() * 1e6;
            println!(
                "span {{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.req,
                s.name,
                at(s.start),
                s.end.map_or(f64::NAN, at),
            );
        }
        let own = self.self_times();
        let mut by_name: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
        for s in &self.spans {
            let e = by_name.entry(&s.name).or_default();
            e.0 += 1;
            e.1 += own[s.id];
        }
        for (name, (calls, total)) in by_name {
            out.note(&format!(
                "self_time {name}: calls={calls} total_ms={total:.3}"
            ));
        }
        out.metric("trace.spans", self.spans.len() as f64);
    }
}

/// Generate a pool with the stage observer, recording `ris.kpt` and
/// `ris.generate` spans under `parent`; returns the pool and its
/// generation throughput in sets per second.
#[allow(clippy::too_many_arguments)]
pub fn build_observed(
    tr: &mut Tracer,
    parent: Option<usize>,
    req: u64,
    g: &DiGraph,
    sampler: SamplerKind,
    gap: Gap,
    other: &[NodeId],
    tc: TimConfig,
) -> Result<(SketchPool, f64), String> {
    let marks: RefCell<Vec<(PoolStage, Instant)>> = RefCell::new(Vec::new());
    let observe = |stage| marks.borrow_mut().push((stage, Instant::now()));
    let pipe = RisPipeline::new(tc);
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", sampler.name());
    let pool = match sampler {
        SamplerKind::VanillaIc => pipe.generate_pool_observed(|| IcRrSampler::new(g), observe),
        SamplerKind::RrSim => {
            let f = RrSimSampler::factory(g, gap, other).map_err(|e| err(&e))?;
            pipe.generate_pool_observed(f, observe)
        }
        SamplerKind::RrSimPlus => {
            let f = RrSimPlusSampler::factory(g, gap, other).map_err(|e| err(&e))?;
            pipe.generate_pool_observed(f, observe)
        }
        SamplerKind::RrCim => {
            let f = RrCimSampler::factory(g, gap, other).map_err(|e| err(&e))?;
            pipe.generate_pool_observed(f, observe)
        }
    }
    .map_err(|e| err(&e))?;
    let end = Instant::now();
    let marks = marks.into_inner();
    let at = |stage| marks.iter().find(|(s, _)| *s == stage).map(|&(_, t)| t);
    let (kpt, theta, gen) = match (
        at(PoolStage::Kpt),
        at(PoolStage::Theta),
        at(PoolStage::Generate),
    ) {
        (Some(a), Some(b), Some(c)) => (a, b, c),
        _ => return Err(format!("{}: stage observer missed a stage", sampler.name())),
    };
    tr.record(parent, req, "ris.kpt", kpt, Some(theta));
    tr.record(parent, req, "ris.generate", gen, Some(end));
    let rate = pool.len() as f64 / (end - gen).as_secs_f64();
    Ok((pool, rate))
}

/// Metric name of a sampler's generation throughput.
pub fn sets_per_s_metric(sampler: SamplerKind) -> Option<&'static str> {
    match sampler {
        SamplerKind::VanillaIc => None,
        SamplerKind::RrSim => Some("algos.rr_sim.sets_per_s"),
        SamplerKind::RrSimPlus => Some("algos.rr_sim_plus.sets_per_s"),
        SamplerKind::RrCim => Some("algos.rr_cim.sets_per_s"),
    }
}

/// Generation throughput samples per metric name.
pub type Rates = BTreeMap<&'static str, Vec<f64>>;

/// Put the median of each throughput list into `out`.
pub fn report_rates(out: &mut Outcome, rates: &Rates) {
    for (name, xs) in rates {
        if let Some(m) = median(xs) {
            out.metric(name, m);
        }
    }
}

/// Median duration (ms) of spans named `name`, into metric `metric`
/// scaled by `scale`.
pub fn span_metric(out: &mut Outcome, tr: &Tracer, name: &str, metric: &str, scale: f64) {
    if let Some(m) = median(&tr.durations(name)) {
        out.metric(metric, m * scale);
    }
}

/// The service's pool config for `key`, rebuilt from the outside so the
/// replayed build generates the same sets as the resident pool.
fn pool_config(cfg: &ServeConfig, key: &PoolKey, seed: u64) -> TimConfig {
    let tc = TimConfig::new(cfg.design_k)
        .epsilon(key.tier.epsilon())
        .seed(seed)
        .threads(cfg.gen_threads);
    match cfg.max_rr_sets {
        Some(cap) => tc.max_rr_sets(cap),
        None => tc,
    }
}

fn same_sets(a: &SketchPool, b: &SketchPool) -> bool {
    a.len() == b.len() && a.store().total_members() == b.store().total_members()
}

/// The traced, in-process replay of a serve workload.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let mut tr = Tracer::new();
    let mut rates = Rates::new();
    let mut errors: Vec<String> = Vec::new();
    let keys: Vec<PoolKey> = w
        .pools()
        .iter()
        .map(|k| PoolKey::parse(k).expect("static key"))
        .collect();
    let mut cfg = ServeConfig::new(DATASET);
    cfg.pools = keys.clone();

    // Set-up: the service start, then its load and pool builds replayed
    // under it with the stage observer.
    let start = tr.begin(None, 0, "serve.start");
    let svc = Arc::new(ComicService::start(cfg.clone()).map_err(|e| e.to_string())?);
    tr.end(start);
    let load = tr.begin(Some(start), 0, "graph.load");
    let loaded = datasets::load(DATASET).map_err(|e| e.to_string())?;
    tr.end(load);
    let digest = tr.begin(Some(start), 0, "graph.digest");
    let d = graph_digest(&loaded.graph);
    tr.end(digest);
    if d != loaded.digest {
        errors.push("graph_digest disagrees with the ingested digest".to_string());
    }
    out.provenance("dataset", DATASET);
    out.provenance("dataset_digest", &format!("{d:#018x}"));
    let g = svc.graph();
    let nodes = g.num_nodes();
    let edge_count = g.num_edges() as u64;
    let presets: BTreeMap<String, Gap> = svc.presets().into_iter().collect();
    let other = svc.other_seeds().to_vec();
    let (mut sets, mut members, mut entries) = (0u64, 0u64, 0u64);
    for key in &keys {
        let resident = svc.pool(key).ok_or("missing resident pool")?;
        let tc = pool_config(&cfg, key, resident.seed());
        let (pool, rate) = build_observed(
            &mut tr,
            Some(start),
            0,
            &g,
            key.sampler,
            presets[&key.preset],
            &other,
            tc,
        )?;
        if !same_sets(&pool, &resident) {
            errors.push(format!(
                "replayed build of {key} differs from the resident pool"
            ));
        }
        if let Some(m) = sets_per_s_metric(key.sampler) {
            rates.entry(m).or_default().push(rate);
        }
        sets += resident.len() as u64;
        members += resident.store().total_members();
        entries += resident.coverage_index().map_or(0, |i| i.total_entries());
    }
    out.metric("ris.rr_sets", sets as f64);
    out.metric("ris.rr_members", members as f64);
    out.metric("ris.index_entries", entries as f64);

    let sketches: Vec<u64> = keys
        .iter()
        .map(|k| svc.pool(k).map_or(0, |p| p.len() as u64))
        .collect();
    let churn_edges = w.churn_edges(&g);
    for op in warmup_ops(&sketches, &churn_edges) {
        let resp = svc.handle(&op.request(&keys));
        check_typed(&op, &resp, nodes).map_err(|e| format!("warm-up: {e}"))?;
    }

    // Untraced pass over the first half of the time, ending on a complete
    // remove/re-add pair; the traced pass replays exactly the same ops.
    let mut stream = OpStream::new(seed, sketches, nodes as u32, churn_edges);
    let mut ops: Vec<Op> = Vec::new();
    let mut untraced_ms: Vec<f64> = Vec::new();
    let begun = Instant::now();
    while begun.elapsed().as_secs_f64() < seconds / 2.0
        || !(ops.len() as u64).is_multiple_of(2 * DELTA_EVERY)
    {
        let op = stream.next().expect("endless stream");
        let line = op.request(&keys).to_line();
        let t = Instant::now();
        let resp = svc.handle_line(&line);
        let encoded = resp.to_line();
        untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(encoded);
        if let Err(e) = check_typed(&op, &resp, nodes) {
            out.failed += 1;
            errors.push(e);
        }
        ops.push(op);
    }

    let mut traced_ms: Vec<f64> = Vec::new();
    let mut marked_frac: Vec<f64> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let req_id = i as u64 + 1;
        let class = op.class();
        let line = op.request(&keys).to_line();
        let before = (class == OpClass::Delta).then(|| {
            let pools: Vec<Option<SketchPool>> = keys.iter().map(|k| svc.pool(k)).collect();
            (svc.graph(), pools)
        });
        let root = tr.begin(None, req_id, "serve.request");
        let p = tr.begin(Some(root), req_id, "serve.parse");
        let req =
            parse_request(&line).map_err(|e| format!("generated request does not parse: {e}"))?;
        tr.end(p);
        let h = tr.begin(
            Some(root),
            req_id,
            &format!("serve.handle_{}", class.name()),
        );
        let resp = svc.handle(&req);
        tr.end(h);
        let e = tr.begin(Some(root), req_id, "serve.encode");
        std::hint::black_box(resp.to_line());
        tr.end(e);
        traced_ms.push(tr.end(root));
        if let Err(e) = check_typed(op, &resp, nodes) {
            out.failed += 1;
            errors.push(e);
        }
        let replayed = replay(
            &mut tr,
            h,
            req_id,
            op,
            &resp,
            &svc,
            &keys,
            before,
            &mut rates,
            &mut marked_frac,
        );
        if let Err(e) = replayed {
            out.failed += 1;
            errors.push(e);
        }
    }
    out.attempted = 2 * ops.len() as u64;
    for class in OpClass::ALL {
        let n = ops.iter().filter(|op| op.class() == class).count();
        out.count(&format!("{}_samples", class.name()), n as u64);
    }

    if let Response::Stats {
        edges,
        pool_builds,
        full_rebuilds,
        sets_regenerated,
        ..
    } = svc.handle(&Request::Stats)
    {
        out.metric("serve.pool_builds", pool_builds as f64);
        out.metric("serve.full_rebuilds", full_rebuilds as f64);
        out.metric("serve.sets_regenerated", sets_regenerated as f64);
        if edges != edge_count {
            errors.push(format!("graph ended with {edges} edges, want {edge_count}"));
            out.correct = false;
        }
        if w == Workload::ServeRead && pool_builds != keys.len() as u64 {
            errors.push(format!(
                "pool_builds is {pool_builds} after a read-only run"
            ));
            out.correct = false;
        }
    }
    out.metric("serve.ping_rtt_us", ping_rtt_us(&svc)?);

    let overhead = traced_ms.iter().sum::<f64>() / untraced_ms.iter().sum::<f64>();
    out.metric("trace.overhead_ratio", overhead);
    for class in OpClass::ALL {
        span_metric(
            &mut out,
            &tr,
            &format!("serve.handle_{}", class.name()),
            &format!("serve.handle_{}_ms", class.name()),
            1.0,
        );
    }
    for (span, metric, scale) in [
        ("serve.parse", "serve.parse_us", 1e3),
        ("serve.encode", "serve.encode_us", 1e3),
        ("ris.select_ic", "ris.select_ic_ms", 1.0),
        ("ris.select_comic", "ris.select_comic_ms", 1.0),
        ("ris.select_prefix", "ris.select_prefix_ms", 1.0),
        ("ris.estimate", "ris.estimate_ms", 1.0),
        ("ris.kpt", "ris.kpt_ms", 1.0),
        ("ris.generate", "ris.generate_ms", 1.0),
        ("ris.invalidate", "ris.invalidate_ms", 1.0),
        ("ris.refresh_marked", "ris.refresh_marked_ms", 1.0),
        ("graph.load", "graph.load_ms", 1.0),
        ("graph.apply_deltas", "graph.apply_deltas_ms", 1.0),
        ("graph.digest", "graph.digest_ms", 1.0),
    ] {
        span_metric(&mut out, &tr, span, metric, scale);
    }
    if let Some(m) = tr.median_self("serve.handle_") {
        out.metric("serve.handle_self_ms", m);
    }
    if let Some(m) = crate::stats::mean(&marked_frac) {
        out.metric("ris.marked_frac", m);
    }
    report_rates(&mut out, &rates);
    out.note(&format!(
        "trace overhead: request path {:.3} ms traced vs {:.3} ms untraced (median), {} ops each",
        median(&traced_ms).unwrap_or(0.0),
        median(&untraced_ms).unwrap_or(0.0),
        ops.len()
    ));
    for e in errors.iter().take(5) {
        out.note(&format!("error: {e}"));
    }
    if !errors.is_empty() {
        out.correct = false;
    }
    tr.write_out(&mut out);
    Ok(out)
}

/// Re-issue the layer call(s) behind one handled request as replay
/// children of its `serve.handle_*` span, and check the answer against
/// them (a warm select must equal `run_on_pool` on the same pool).
#[allow(clippy::too_many_arguments)]
fn replay(
    tr: &mut Tracer,
    handle: usize,
    req: u64,
    op: &Op,
    resp: &Response,
    svc: &ComicService,
    keys: &[PoolKey],
    before: Option<(Arc<DiGraph>, Vec<Option<SketchPool>>)>,
    rates: &mut Rates,
    marked_frac: &mut Vec<f64>,
) -> Result<(), String> {
    match (op, resp) {
        (Op::Select { pool, k, budget }, Response::Selected { seeds, .. }) => {
            let resident = svc.pool(&keys[*pool]).ok_or("missing pool")?;
            let (target, name) = match budget {
                Some(b) => (resident.prefix(*b as usize), "ris.select_prefix"),
                None if *pool == 0 => (resident, "ris.select_ic"),
                None => (resident, "ris.select_comic"),
            };
            let tc = TimConfig::new(*k)
                .selector(SelectorKind::Celf)
                .threads(svc.config().threads);
            let s = tr.begin(Some(handle), req, name);
            let cold = RisPipeline::new(tc)
                .run_on_pool(&target)
                .map_err(|e| e.to_string())?;
            tr.end(s);
            let cold: Vec<u32> = cold.seeds.iter().map(|v| v.0).collect();
            if &cold != seeds {
                return Err(format!(
                    "warm select {seeds:?} differs from run_on_pool {cold:?}"
                ));
            }
        }
        (Op::Estimate { pool, seeds }, Response::Estimated { est_spread, .. }) => {
            let resident = svc.pool(&keys[*pool]).ok_or("missing pool")?;
            let nodes: Vec<NodeId> = seeds.iter().map(|&v| NodeId(v)).collect();
            let s = tr.begin(Some(handle), req, "ris.estimate");
            let cold = resident.estimate_spread(&nodes);
            tr.end(s);
            if cold.to_bits() != est_spread.to_bits() {
                return Err(format!(
                    "estimate {est_spread} differs from estimate_spread {cold}"
                ));
            }
        }
        (Op::Remove(_) | Op::Add(_), Response::Deltas { .. }) => {
            let (g_old, pools_old) = before.ok_or("delta without pre-state")?;
            let deltas = op.deltas();
            let s = tr.begin(Some(handle), req, "graph.apply_deltas");
            let g_new = g_old.apply_deltas(&deltas).map_err(|e| e.to_string())?;
            tr.end(s);
            let s = tr.begin(Some(handle), req, "graph.digest");
            let d = graph_digest(&g_new);
            tr.end(s);
            if d != graph_digest(&svc.graph()) {
                return Err("replayed delta apply differs from the served graph".to_string());
            }
            let cfg = svc.config();
            let presets: BTreeMap<String, Gap> = svc.presets().into_iter().collect();
            for (key, old) in keys.iter().zip(pools_old) {
                let old = old.ok_or("missing pool")?;
                let now = svc.pool(key).ok_or("missing pool")?;
                // The service refits touch-tracked IC pools incrementally
                // and rebuilds every other pool.
                let refit = if key.sampler == SamplerKind::VanillaIc && old.touch_map().is_some() {
                    let s = tr.begin(Some(handle), req, "ris.invalidate");
                    let marks = old
                        .invalidate(&deltas)
                        .ok_or("touch-tracked pool gave no marks")?;
                    tr.end(s);
                    marked_frac.push(
                        marks.iter().filter(|&&m| m).count() as f64 / marks.len().max(1) as f64,
                    );
                    let s = tr.begin(Some(handle), req, "ris.refresh_marked");
                    let p = refresh_pool_marked(
                        &old,
                        &marks,
                        || IcRrSampler::new(&g_new),
                        cfg.gen_threads,
                    );
                    tr.end(s);
                    p
                } else {
                    let tc = pool_config(cfg, key, now.seed());
                    let other = svc.other_seeds();
                    let (p, rate) = build_observed(
                        tr,
                        Some(handle),
                        req,
                        &g_new,
                        key.sampler,
                        presets[&key.preset],
                        other,
                        tc,
                    )?;
                    if let Some(m) = sets_per_s_metric(key.sampler) {
                        rates.entry(m).or_default().push(rate);
                    }
                    p
                };
                if !same_sets(&refit, &now) {
                    return Err(format!(
                        "replayed refit of {key} differs from the served pool"
                    ));
                }
            }
        }
        _ => return Err(format!("unexpected reply to {:?}", op.class())),
    }
    Ok(())
}

/// Check a typed in-process response the same way the TCP client checks
/// wire replies.
fn check_typed(op: &Op, resp: &Response, nodes: usize) -> Result<(), String> {
    let parsed = comic_serve::json::parse(&resp.to_line()).map_err(|e| e.to_string())?;
    crate::serve::check_response(op, &parsed, nodes).map(|_| ())
}

/// Median `ping` round trip over one TCP loopback connection to an
/// in-process listener — the transport floor of every serve op.
fn ping_rtt_us(svc: &Arc<ComicService>) -> Result<f64, String> {
    const PINGS: usize = 500;
    let server = TcpServer::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(svc));
        let measured = (|| -> std::io::Result<Vec<f64>> {
            let mut writer = std::net::TcpStream::connect(addr)?;
            writer.set_nodelay(true)?;
            let mut reader = BufReader::new(writer.try_clone()?);
            let mut line = String::new();
            let mut rtts = Vec::with_capacity(PINGS);
            for _ in 0..PINGS + 50 {
                line.clear();
                let t = Instant::now();
                writer.write_all(b"{\"op\":\"ping\"}\n")?;
                reader.read_line(&mut line)?;
                rtts.push(t.elapsed().as_secs_f64() * 1e6);
            }
            writer.write_all(b"{\"op\":\"shutdown\"}\n")?;
            line.clear();
            reader.read_line(&mut line)?;
            Ok(rtts.split_off(50))
        })();
        if measured.is_err() {
            svc.begin_shutdown();
        }
        let served = serving
            .join()
            .map_err(|_| "tcp server panicked".to_string())?;
        served.map_err(|e| e.to_string())?;
        let rtts = measured.map_err(|e| e.to_string())?;
        percentile(&rtts, 50.0).ok_or_else(|| "too few pings".to_string())
    })
}
