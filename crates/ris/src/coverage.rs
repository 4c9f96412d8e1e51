//! Greedy maximum coverage over an [`RrStore`](crate::rr::RrStore) — the
//! result type of GeneralTIM lines 4–8.
//!
//! The index construction and the selection strategies live in
//! [`crate::select`]; this module re-exports [`CoverageResult`] where
//! callers have always imported it from, and keeps the end-to-end
//! max-coverage tests over the index + CELF path.

pub use crate::select::CoverageResult;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rr::RrStore;
    use crate::select::{CoverageIndex, SelectorKind};
    use comic_graph::{gen, NodeId};

    /// Index build on `threads` workers plus CELF selection.
    fn max_coverage(store: &RrStore, n: usize, k: usize, threads: usize) -> CoverageResult {
        let index = CoverageIndex::build(store, n, threads);
        SelectorKind::Celf.select(&index, store, k)
    }

    fn store_from(sets: &[&[u32]]) -> (RrStore, usize) {
        let n = 1 + sets
            .iter()
            .flat_map(|s| s.iter())
            .copied()
            .max()
            .unwrap_or(0) as usize;
        let g = gen::complete(n.max(2), 1.0);
        let mut store = RrStore::new();
        for s in sets {
            let members: Vec<NodeId> = s.iter().copied().map(NodeId).collect();
            store.push(&members, &g);
        }
        (store, n.max(2))
    }

    #[test]
    fn picks_the_dominant_node_first() {
        let (store, n) = store_from(&[&[0, 1], &[0, 2], &[0, 3], &[4]]);
        let r = max_coverage(&store, n, 1, 1);
        assert_eq!(r.seeds, vec![NodeId(0)]);
        assert_eq!(r.covered, 3);
        assert_eq!(r.marginals, vec![3]);
    }

    #[test]
    fn second_pick_maximizes_marginal_not_raw_count() {
        // Node 1 appears in 2 sets but both covered by node 0's pick;
        // node 4 appears in 1 uncovered set.
        let (store, n) = store_from(&[&[0, 1], &[0, 1], &[0], &[4]]);
        let r = max_coverage(&store, n, 2, 1);
        assert_eq!(r.seeds, vec![NodeId(0), NodeId(4)]);
        assert_eq!(r.covered, 4);
        assert_eq!(r.marginals, vec![3, 1]);
    }

    #[test]
    fn covers_everything_with_enough_budget() {
        let (store, n) = store_from(&[&[0], &[1], &[2], &[3]]);
        let r = max_coverage(&store, n, 4, 1);
        assert_eq!(r.covered, 4);
        assert_eq!(r.seeds.len(), 4);
    }

    #[test]
    fn greedy_matches_bruteforce_on_random_instances() {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(42);
        for trial in 0..20 {
            let n = 8;
            let g = gen::complete(n, 1.0);
            let mut store = RrStore::new();
            for _ in 0..30 {
                let size = rng.random_range(1..4usize);
                let mut members = Vec::new();
                while members.len() < size {
                    let v = NodeId(rng.random_range(0..n as u32));
                    if !members.contains(&v) {
                        members.push(v);
                    }
                }
                store.push(&members, &g);
            }
            let k = 2;
            let greedy = max_coverage(&store, n, k, 2);
            // Brute force best pair.
            let mut best = 0u64;
            for a in 0..n as u32 {
                for b in (a + 1)..n as u32 {
                    let mut mark = vec![false; n];
                    mark[a as usize] = true;
                    mark[b as usize] = true;
                    let c = (store.coverage_fraction(&mark) * store.len() as f64).round() as u64;
                    best = best.max(c);
                }
            }
            // Greedy max coverage is a (1 - 1/e) approximation; on these tiny
            // instances it is nearly always optimal, and must never exceed it.
            assert!(greedy.covered <= best);
            assert!(
                greedy.covered as f64 >= 0.63 * best as f64,
                "trial {trial}: greedy {} vs best {best}",
                greedy.covered
            );
        }
    }

    #[test]
    fn handles_k_larger_than_useful_nodes() {
        let (store, n) = store_from(&[&[0], &[0]]);
        let r = max_coverage(&store, n, n + 5, 4);
        assert_eq!(r.covered, 2);
        // Still returns at most n seeds.
        assert!(r.seeds.len() <= n);
    }
}
