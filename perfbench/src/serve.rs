//! The untraced serve workloads: the release `comic-serve` binary as a
//! child process, driven by one closed-loop client over one TCP loopback
//! connection.

use crate::inputs::{Op, OpClass, OpStream};
use crate::stats::{mean, median, percentile};
use crate::{Outcome, Workload};
use comic_bench::datasets;
use comic_serve::json::{self, Json};
use comic_serve::protocol::PoolKey;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The dataset both serve workloads run on.
pub const DATASET: &str = "fixture-small";
/// Service instances per run, each driven for an equal share of the run
/// time; `setup_s` is the median of their start-ups.
const SEGMENTS: usize = 3;
/// The `k` the service's pools are derived for; quality is measured there.
const DESIGN_K: usize = 50;

/// A running `comic-serve --tcp` child and the client's connection to it.
struct Server {
    child: Child,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    stderr_drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawn the service on an ephemeral loopback port and wait for its
    /// first `ping`; returns the server and the seconds that took.
    fn spawn(bin: &Path, pools: &[&str]) -> Result<(Server, f64), String> {
        let started = Instant::now();
        let mut cmd = Command::new(bin);
        cmd.args(["--tcp", "127.0.0.1:0"]);
        for p in pools {
            cmd.args(["--pool", p]);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("piped stderr")).lines();
        let addr: Option<SocketAddr> = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(a) = line.split("listening on ").nth(1) {
                        break a.trim().parse().ok();
                    }
                }
                _ => break None,
            }
        };
        // Keep draining stderr so the child can never block on a full pipe.
        let stderr_drain = Some(std::thread::spawn(move || lines.for_each(drop)));
        let connect = |addr: SocketAddr| -> std::io::Result<(BufReader<TcpStream>, TcpStream)> {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(120)))?;
            Ok((BufReader::new(stream.try_clone()?), stream))
        };
        let conn = addr
            .ok_or_else(|| "comic-serve exited before listening".to_string())
            .and_then(|a| connect(a).map_err(|e| format!("connect to {a}: {e}")));
        let (reader, writer) = match conn {
            Ok(c) => c,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let mut server = Server {
            child,
            reader,
            writer,
            stderr_drain,
        };
        let pong = server.call("{\"op\":\"ping\"}")?;
        if !pong.contains("\"pong\"") {
            return Err(format!("unexpected ping reply {pong}"));
        }
        Ok((server, started.elapsed().as_secs_f64()))
    }

    /// One request line out, one response line back.
    fn call(&mut self, line: &str) -> Result<String, String> {
        let io = |e: std::io::Error| format!("service connection: {e}");
        self.writer.write_all(line.as_bytes()).map_err(io)?;
        self.writer.write_all(b"\n").map_err(io)?;
        let mut resp = String::new();
        if self.reader.read_line(&mut resp).map_err(io)? == 0 {
            return Err("service closed the connection".to_string());
        }
        Ok(resp)
    }

    fn stats(&mut self) -> Result<Json, String> {
        let line = self.call("{\"op\":\"stats\"}")?;
        json::parse(&line).map_err(|e| format!("stats reply: {e}"))
    }

    /// `VmHWM` of the service process, in MB.
    fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Graceful shutdown: request it, then wait for the process to exit.
    fn shutdown(mut self) -> Result<(), String> {
        self.call("{\"op\":\"shutdown\"}")?;
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err("comic-serve did not exit after shutdown".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stderr_drain.take() {
            let _ = h.join();
        }
    }
}

/// Peak resident set (`VmHWM`) in MB from a `/proc/<pid>/status` file.
pub fn vm_hwm_mb(status_path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {status_path}"))
}

/// Check one response against its op; returns the answer's `est_spread`
/// for selects, or why the answer is wrong.
pub fn check_response(op: &Op, resp: &Json, nodes: usize) -> Result<Option<f64>, String> {
    if resp.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("not ok: {}", resp.serialize()));
    }
    let num = |key: &str| resp.get(key).and_then(Json::as_f64);
    let spread_ok = |x: f64| x.is_finite() && (0.0..=nodes as f64).contains(&x);
    match op {
        Op::Select { k, .. } => {
            let mut seeds: Vec<u64> = resp
                .get("seeds")
                .and_then(Json::as_arr)
                .ok_or("select reply without seeds")?
                .iter()
                .filter_map(Json::as_u64)
                .collect();
            seeds.sort_unstable();
            seeds.dedup();
            if seeds.len() != *k || seeds.iter().any(|&s| s as usize >= nodes) {
                return Err(format!("select k={k} returned {:?}", resp.get("seeds")));
            }
            match num("est_spread") {
                Some(x) if spread_ok(x) => Ok(Some(x)),
                other => Err(format!("select est_spread {other:?}")),
            }
        }
        Op::Estimate { .. } => match num("est_spread") {
            Some(x) if spread_ok(x) => Ok(None),
            other => Err(format!("estimate est_spread {other:?}")),
        },
        Op::Remove(edges) => check_delta(resp, edges.len()),
        Op::Add(edges) => check_delta(resp, edges.len()),
    }
}

fn check_delta(resp: &Json, batch: usize) -> Result<Option<f64>, String> {
    let pending = resp.get("pending").and_then(Json::as_u64);
    let applied = resp.get("applied").and_then(Json::as_u64);
    if pending == Some(0) && applied == Some(batch as u64) {
        Ok(None)
    } else {
        Err(format!(
            "delta pending {pending:?} applied {applied:?}, want 0 and {batch}"
        ))
    }
}

/// Warm-up ops: each pool once with each read kind, and for churn one
/// remove/re-add pair. They run before the timed phase and are discarded.
pub fn warmup_ops(sketches: &[u64], edges: &[(u32, u32, f64)]) -> Vec<Op> {
    let mut ops = Vec::new();
    for (pool, &n) in sketches.iter().enumerate() {
        ops.push(Op::Select {
            pool,
            k: 10,
            budget: None,
        });
        ops.push(Op::Select {
            pool,
            k: 10,
            budget: Some((n / 2).max(1)),
        });
        ops.push(Op::Estimate {
            pool,
            seeds: vec![0, 1, 2, 3, 4],
        });
    }
    if !edges.is_empty() {
        let pair: Vec<(u32, u32, f64)> = edges
            .iter()
            .take(crate::inputs::DELTA_EDGES)
            .copied()
            .collect();
        ops.push(Op::Remove(pair.iter().map(|&(s, t, _)| (s, t)).collect()));
        ops.push(Op::Add(pair));
    }
    ops
}

/// Round-trip milliseconds of ok ops, per op class.
pub type Samples = BTreeMap<OpClass, Vec<f64>>;

/// Run an untraced serve workload: `SEGMENTS` service instances in turn,
/// each started (timed as set-up), warmed up, driven for its share of the
/// run time and shut down. Spreading the timed phase over several
/// instances and a longer stretch of wall time evens out both per-process
/// effects and slow spells of the host.
pub fn run(w: Workload, seed: u64, seconds: f64, serve_bin: &Path) -> Result<Outcome, String> {
    let loaded = datasets::load(DATASET).map_err(|e| e.to_string())?;
    let nodes = loaded.graph.num_nodes();
    let edge_count = loaded.graph.num_edges() as u64;
    let pools = w.pools();
    let keys: Vec<PoolKey> = pools
        .iter()
        .map(|k| PoolKey::parse(k).expect("static key"))
        .collect();
    let churn_edges = w.churn_edges(&loaded.graph);
    let mut out = Outcome::new();
    out.provenance("dataset", DATASET);
    out.provenance("dataset_digest", &format!("{:#018x}", loaded.digest));

    let mut samples = Samples::default();
    let mut errors: Vec<String> = Vec::new();
    let (mut setups, mut rss) = (Vec::new(), Vec::new());
    let mut stream: Option<OpStream> = None;
    let (mut wall, mut ok_ops) = (0.0, 0u64);
    let mut quality: BTreeMap<OpClass, Vec<f64>> = BTreeMap::new();
    for segment in 0..SEGMENTS {
        let (mut srv, secs) = Server::spawn(serve_bin, &pools)?;
        setups.push(secs);
        let st = srv.stats()?;
        let builds_at_start = st
            .get("pool_builds")
            .and_then(Json::as_u64)
            .ok_or("stats: pool_builds")?;
        let sketches = pool_sizes(&st, &pools)?;
        for op in warmup_ops(&sketches, &churn_edges) {
            let resp = srv.call(&op.request(&keys).to_line())?;
            let parsed = json::parse(&resp).map_err(|e| format!("warm-up reply: {e}"))?;
            check_response(&op, &parsed, nodes).map_err(|e| format!("warm-up: {e}"))?;
        }
        // One stream across all instances: the run's inputs depend on the
        // seed alone, not on how they are split.
        let stream = stream.get_or_insert_with(|| {
            OpStream::new(seed, sketches, nodes as u32, churn_edges.clone())
        });
        let mut readd_pending = false;
        let start = Instant::now();
        // A segment always ends on a completed remove/re-add pair, so the
        // served graph is the original one when it stops.
        while start.elapsed().as_secs_f64() < seconds / SEGMENTS as f64 || readd_pending {
            let op = stream.next().expect("endless stream");
            let line = op.request(&keys).to_line();
            let t = Instant::now();
            let resp = srv.call(&line)?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            out.attempted += 1;
            let checked = json::parse(&resp)
                .map_err(|e| e.to_string())
                .and_then(|r| check_response(&op, &r, nodes));
            match checked {
                Ok(_) => {
                    ok_ops += 1;
                    samples.entry(op.class()).or_default().push(ms);
                }
                Err(e) => {
                    out.failed += 1;
                    errors.push(e);
                }
            }
            match op {
                Op::Remove(_) => readd_pending = true,
                Op::Add(_) => {
                    readd_pending = false;
                    let edges = srv.stats()?.get("edges").and_then(Json::as_u64);
                    if edges != Some(edge_count) {
                        out.failed += 1;
                        errors.push(format!(
                            "graph has {edges:?} edges after a re-add, want {edge_count}"
                        ));
                    }
                }
                _ => {}
            }
        }
        wall += start.elapsed().as_secs_f64();

        let st = srv.stats()?;
        let counter = |k: &str| st.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
        if w == Workload::ServeRead && counter("pool_builds") != builds_at_start {
            errors.push(format!(
                "pool_builds moved from {builds_at_start} to {} on a read-only run",
                counter("pool_builds")
            ));
            out.correct = false;
        }
        if counter("edges") != edge_count {
            errors.push(format!(
                "graph ended with {} edges, want {edge_count}",
                counter("edges")
            ));
            out.correct = false;
        }
        if segment + 1 == SEGMENTS {
            // Answer quality: a select at the design k on every pool.
            for pool in 0..keys.len() {
                let op = Op::Select {
                    pool,
                    k: DESIGN_K,
                    budget: None,
                };
                let resp = srv.call(&op.request(&keys).to_line())?;
                out.attempted += 1;
                let checked = json::parse(&resp)
                    .map_err(|e| e.to_string())
                    .and_then(|r| check_response(&op, &r, nodes));
                match checked {
                    Ok(Some(x)) => quality.entry(op.class()).or_default().push(x),
                    Ok(None) => unreachable!("a select reply carries est_spread"),
                    Err(e) => {
                        out.failed += 1;
                        errors.push(e);
                    }
                }
            }
        }
        rss.push(srv.peak_rss_mb()?);
        srv.shutdown()?;
    }

    for e in errors.iter().take(5) {
        out.note(&format!("error: {e}"));
    }
    report_ops(&mut out, &samples);

    let p50 = |c: OpClass| {
        percentile(samples.get(&c).map_or(&[], Vec::as_slice), 50.0)
            .ok_or_else(|| format!("too few {} samples for a median", c.name()))
    };
    let third = match w {
        Workload::ServeChurn => p50(OpClass::Delta)?,
        _ => p50(OpClass::Estimate)?,
    };
    let spread = |c: OpClass| {
        quality
            .get(&c)
            .and_then(|v| mean(v))
            .ok_or_else(|| format!("no {} answer at k={DESIGN_K}", c.name()))
    };
    out.metric("setup_s", median(&setups).expect("instances ran"));
    out.metric("peak_rss_mb", median(&rss).expect("instances ran"));
    out.metric("ops_per_s", ok_ops as f64 / wall);
    out.metric("select_ic_or_sim_solve_ms", p50(OpClass::SelectIc)?);
    out.metric("select_comic_or_cim_solve_ms", p50(OpClass::SelectComic)?);
    out.metric("estimate_or_delta_or_mc_eval_ms", third);
    out.metric("spread_ic_or_sim_sigma_a", spread(OpClass::SelectIc)?);
    out.metric("spread_comic_or_cim_boost", spread(OpClass::SelectComic)?);
    out.note(&format!("setup_s per instance: {setups:?}"));
    out.note(&format!("peak_rss_mb per instance: {rss:?}"));
    Ok(out)
}

/// Sketch count of each pool, in `pools` order, from a `stats` reply.
fn pool_sizes(st: &Json, pools: &[&str]) -> Result<Vec<u64>, String> {
    let rows = st
        .get("pools")
        .and_then(Json::as_arr)
        .ok_or("stats: pools")?;
    pools
        .iter()
        .map(|key| {
            rows.iter()
                .find(|r| {
                    r.get("pool")
                        .and_then(|p| p.get("key"))
                        .and_then(Json::as_str)
                        == Some(key)
                })
                .and_then(|r| r.get("pool")?.get("sketches")?.as_u64())
                .ok_or_else(|| format!("stats: no pool {key}"))
        })
        .collect()
}

/// Per-op sample counts and the named latency percentiles, as report
/// lines. A percentile with fewer than ten samples beyond it is reported
/// as missing, never as the maximum.
pub fn report_ops(out: &mut Outcome, samples: &Samples) {
    for (class, xs) in samples {
        let tail = if *class == OpClass::Delta { 90.0 } else { 99.0 };
        let fmt = |p: Option<f64>| p.map_or("n/a".to_string(), |v| format!("{v:.3} ms"));
        out.note(&format!(
            "op {}: n={} {}_p50_ms={} {}_p{tail}_ms={}",
            class.name(),
            xs.len(),
            class.name(),
            fmt(percentile(xs, 50.0)),
            class.name(),
            fmt(percentile(xs, tail)),
        ));
        out.count(&format!("{}_samples", class.name()), xs.len() as u64);
    }
}
