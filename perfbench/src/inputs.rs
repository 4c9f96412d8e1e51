//! Seeded workload inputs. Every request line the service receives and
//! every solve the batch workload runs is generated here from `--seed`;
//! the program under test only ever sees the generated inputs.

use comic_core::Gap;
use comic_graph::fasthash::splitmix64;
use comic_graph::{EdgeDelta, NodeId};
use comic_serve::protocol::{PoolKey, Request};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// The shipped default pool set: one coarse pool per sampler.
pub const READ_POOLS: [&str; 4] = [
    "vanilla-ic/default/coarse",
    "rr-sim/one-way/coarse",
    "rr-sim-plus/one-way/coarse",
    "rr-cim/cim/coarse",
];

/// The churn pool set: the touch-tracked IC pool, which deltas refit
/// incrementally, and one touch-opaque Com-IC pool, which they rebuild.
pub const CHURN_POOLS: [&str; 2] = ["vanilla-ic/default/coarse", "rr-sim-plus/one-way/coarse"];

/// Every `DELTA_EVERY`-th op of serve-churn is a delta.
pub const DELTA_EVERY: u64 = 20;
/// Edges per delta batch.
pub const DELTA_EDGES: usize = 10;
/// Largest `k` of a select and largest seed set of an estimate.
const MAX_K: usize = 50;

/// How an op is accounted for in the metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpClass {
    /// `select` on the vanilla-IC pool.
    SelectIc,
    /// `select` on a Com-IC pool (RR-SIM, RR-SIM+, RR-CIM).
    SelectComic,
    /// `estimate` on any pool.
    Estimate,
    /// `delta` with `apply: true`.
    Delta,
}

impl OpClass {
    /// Every class, in report order.
    pub const ALL: [OpClass; 4] = [
        OpClass::SelectIc,
        OpClass::SelectComic,
        OpClass::Estimate,
        OpClass::Delta,
    ];

    /// Name used in reports and metric names.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::SelectIc => "select_ic",
            OpClass::SelectComic => "select_comic",
            OpClass::Estimate => "estimate",
            OpClass::Delta => "delta",
        }
    }
}

/// One generated serve op.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Seed selection; `budget` (half the pool) takes the prefix path.
    Select {
        /// Index into the workload's pool list.
        pool: usize,
        /// Seed budget.
        k: usize,
        /// Sketch budget, when set.
        budget: Option<u64>,
    },
    /// Spread estimate of distinct random nodes.
    Estimate {
        /// Index into the workload's pool list.
        pool: usize,
        /// The seed set.
        seeds: Vec<u32>,
    },
    /// Remove existing edges `(source, target)`.
    Remove(Vec<(u32, u32)>),
    /// Re-add removed edges with their original probabilities.
    Add(Vec<(u32, u32, f64)>),
}

impl Op {
    /// The op's metric class, given which pool index is the IC pool (0 in
    /// both pool lists).
    pub fn class(&self) -> OpClass {
        match self {
            Op::Select { pool: 0, .. } => OpClass::SelectIc,
            Op::Select { .. } => OpClass::SelectComic,
            Op::Estimate { .. } => OpClass::Estimate,
            Op::Remove(_) | Op::Add(_) => OpClass::Delta,
        }
    }

    /// The graph edits of a delta op (empty for reads).
    pub fn deltas(&self) -> Vec<EdgeDelta> {
        match self {
            Op::Remove(edges) => edges
                .iter()
                .map(|&(s, t)| EdgeDelta::Remove {
                    source: NodeId(s),
                    target: NodeId(t),
                })
                .collect(),
            Op::Add(edges) => edges
                .iter()
                .map(|&(s, t, p)| EdgeDelta::Add {
                    source: NodeId(s),
                    target: NodeId(t),
                    p,
                })
                .collect(),
            _ => Vec::new(),
        }
    }

    /// The typed request for this op over `pools`.
    pub fn request(&self, pools: &[PoolKey]) -> Request {
        match self {
            Op::Select { pool, k, budget } => Request::Select {
                pool: pools[*pool].clone(),
                k: *k,
                selector: None,
                budget: *budget,
                deadline_ms: None,
            },
            Op::Estimate { pool, seeds } => Request::Estimate {
                pool: pools[*pool].clone(),
                seeds: seeds.clone(),
                budget: None,
                deadline_ms: None,
            },
            Op::Remove(edges) => Request::Delta {
                add: Vec::new(),
                remove: edges.clone(),
                reweight: Vec::new(),
                apply: true,
            },
            Op::Add(edges) => Request::Delta {
                add: edges.clone(),
                remove: Vec::new(),
                reweight: Vec::new(),
                apply: true,
            },
        }
    }
}

/// The closed-loop op stream of a serve workload.
///
/// Each read picks a pool uniformly; 2/3 are `select` with `k` uniform in
/// `1..=50` (10% of them with a budget of half the pool), 1/3 `estimate`
/// of 1..=50 distinct random nodes. With churn edges, every 20th op is a
/// delta: one removes 10 random edges of the original graph, the next
/// re-adds exactly those, so the graph is back to its original state after
/// every pair and the work per op does not drift over a run.
pub struct OpStream {
    rng: SmallRng,
    sketches: Vec<u64>,
    nodes: u32,
    churn_edges: Vec<(u32, u32, f64)>,
    readd: Option<Vec<(u32, u32, f64)>>,
    issued: u64,
}

impl OpStream {
    /// A stream over pools holding `sketches` sets each, on an `nodes`-node
    /// graph; `churn_edges` empty means a read-only stream.
    pub fn new(
        seed: u64,
        sketches: Vec<u64>,
        nodes: u32,
        churn_edges: Vec<(u32, u32, f64)>,
    ) -> OpStream {
        OpStream {
            rng: SmallRng::seed_from_u64(splitmix64(seed ^ 0x5e7e_0b5e)),
            sketches,
            nodes,
            churn_edges,
            readd: None,
            issued: 0,
        }
    }

    fn distinct_nodes(&mut self, count: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let v = self.rng.random_range(0..self.nodes);
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        self.issued += 1;
        if !self.churn_edges.is_empty() && self.issued.is_multiple_of(DELTA_EVERY) {
            if let Some(edges) = self.readd.take() {
                return Some(Op::Add(edges));
            }
            let mut picked: Vec<usize> = Vec::with_capacity(DELTA_EDGES);
            while picked.len() < DELTA_EDGES {
                let e = self.rng.random_range(0..self.churn_edges.len());
                if !picked.contains(&e) {
                    picked.push(e);
                }
            }
            let edges: Vec<(u32, u32, f64)> = picked.iter().map(|&e| self.churn_edges[e]).collect();
            let remove = edges.iter().map(|&(s, t, _)| (s, t)).collect();
            self.readd = Some(edges);
            return Some(Op::Remove(remove));
        }
        let pool = self.rng.random_range(0..self.sketches.len());
        if self.rng.random_range(0..3u32) < 2 {
            let k = self.rng.random_range(1..=MAX_K);
            let budget = self
                .rng
                .random_bool(0.1)
                .then(|| (self.sketches[pool] / 2).max(1));
            Some(Op::Select { pool, k, budget })
        } else {
            let count = self.rng.random_range(1..=MAX_K);
            let seeds = self.distinct_nodes(count);
            Some(Op::Estimate { pool, seeds })
        }
    }
}

/// Which solver a batch solve runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveKind {
    /// `SelfInfMax` (RR-SIM+, sandwich route).
    Sim,
    /// `CompInfMax` (RR-CIM, sandwich route).
    Cim,
}

/// One solve of the batch workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Solve {
    /// Solver.
    pub kind: SolveKind,
    /// The GAP vector.
    pub gap: Gap,
    /// Seed of the `SmallRng` handed to `solve`.
    pub rng_seed: u64,
}

/// The §7.1 / Table 2 solve list: SelfInfMax with `q_A|∅ ∈ {0.1, 0.3,
/// 0.5}` and CompInfMax with `q_B|∅ ∈ {0.1, 0.5, 0.8}`, interleaved, each
/// with a solver RNG seeded from the workload seed.
pub fn solve_list(seed: u64) -> Vec<Solve> {
    let sim = |q_a0| Gap::new(q_a0, 0.75, 0.5, 0.75).expect("valid SelfInfMax GAP");
    let cim = |q_b0| Gap::new(0.1, 0.9, q_b0, 0.9).expect("valid CompInfMax GAP");
    let plan = [
        (SolveKind::Sim, sim(0.1)),
        (SolveKind::Cim, cim(0.1)),
        (SolveKind::Sim, sim(0.3)),
        (SolveKind::Cim, cim(0.5)),
        (SolveKind::Sim, sim(0.5)),
        (SolveKind::Cim, cim(0.8)),
    ];
    plan.iter()
        .enumerate()
        .map(|(i, &(kind, gap))| Solve {
            kind,
            gap,
            rng_seed: splitmix64(seed ^ splitmix64(0xba7c_0000 + i as u64)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(names: &[&str]) -> Vec<PoolKey> {
        names.iter().map(|k| PoolKey::parse(k).unwrap()).collect()
    }

    fn lines(seed: u64, churn: bool, count: usize) -> String {
        let (pools, edges) = if churn {
            (
                keys(&CHURN_POOLS),
                [(0, 1, 0.5), (1, 2, 0.25), (2, 0, 1.0)].repeat(5),
            )
        } else {
            (keys(&READ_POOLS), Vec::new())
        };
        let sketches = vec![1000; pools.len()];
        OpStream::new(seed, sketches, 1200, edges)
            .take(count)
            .map(|op| op.request(&pools).to_line() + "\n")
            .collect()
    }

    #[test]
    fn same_seed_same_request_bytes() {
        for churn in [false, true] {
            assert_eq!(lines(7, churn, 500), lines(7, churn, 500));
            assert_ne!(lines(7, churn, 500), lines(8, churn, 500));
        }
    }

    #[test]
    fn same_seed_same_solve_list() {
        assert_eq!(
            format!("{:?}", solve_list(3)),
            format!("{:?}", solve_list(3))
        );
        assert_ne!(solve_list(3), solve_list(4));
    }

    #[test]
    fn churn_pairs_restore_the_graph_digest() {
        use comic_graph::io::graph_digest;
        let loaded = comic_bench::datasets::load("fixture-small").unwrap();
        let original = graph_digest(&loaded.graph);
        let edges = crate::Workload::ServeChurn.churn_edges(&loaded.graph);
        let nodes = loaded.graph.num_nodes() as u32;
        let deltas: Vec<Op> = OpStream::new(11, vec![1000, 1000], nodes, edges)
            .filter(|op| op.class() == OpClass::Delta)
            .take(40)
            .collect();
        let mut g = (*loaded.graph).clone();
        for pair in deltas.chunks(2) {
            assert!(matches!(pair, [Op::Remove(_), Op::Add(_)]));
            g = g.apply_deltas(&pair[0].deltas()).unwrap();
            assert_ne!(graph_digest(&g), original);
            g = g.apply_deltas(&pair[1].deltas()).unwrap();
            assert_eq!(graph_digest(&g), original);
        }
    }

    #[test]
    fn stream_mix_matches_its_description() {
        let edges = vec![(0, 1, 0.5); 40];
        let ops: Vec<Op> = OpStream::new(1, vec![100, 200], 50, edges)
            .take(4000)
            .collect();
        let deltas = ops.iter().filter(|o| o.class() == OpClass::Delta).count();
        assert_eq!(deltas, 200);
        let selects = ops
            .iter()
            .filter(|o| matches!(o, Op::Select { .. }))
            .count();
        let frac = selects as f64 / (4000 - deltas) as f64;
        assert!((frac - 2.0 / 3.0).abs() < 0.03, "select share {frac}");
        for op in &ops {
            match op {
                Op::Select { k, budget, pool } => {
                    assert!((1..=50).contains(k));
                    assert!(budget.is_none_or(|b| b == [50, 100][*pool]));
                }
                Op::Estimate { seeds, .. } => {
                    let mut s = seeds.clone();
                    s.sort_unstable();
                    s.dedup();
                    assert_eq!(s.len(), seeds.len());
                }
                _ => {}
            }
        }
    }
}
