//! Compact storage for large collections of RR-sets.

use comic_graph::store::Section;
use comic_graph::{DiGraph, NodeId};

/// Cap on set-count preallocation for RR arenas (θ-loop and per-thread
/// shards), so a degenerate θ cannot ask for a terabyte up front; the
/// arenas still grow on demand beyond it.
pub(crate) const MAX_PREALLOC_SETS: u64 = 1 << 24;

/// A flat arena of RR-sets.
///
/// θ routinely reaches millions, with small average set size; storing each
/// set as its own `Vec` would pay an allocation and pointer chase per set.
/// `RrStore` keeps all members in one flat array with an offsets table
/// (exactly the CSR idea applied to set storage) and tracks the aggregate
/// *width* `ω(R)` (number of in-edges pointing into each set) that the KPT
/// estimator and the EPT accounting of Lemmas 6/8 need.
///
/// The arrays are [`Section`]s, so a store reloaded from a spilled segment
/// file ([`crate::spill`]) can borrow the mapped file bytes directly —
/// mutation ([`RrStore::push`], [`RrStore::absorb`]) transparently
/// materializes an owned copy first (copy-on-write).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RrStore {
    offsets: Section<u64>,
    nodes: Section<NodeId>,
    widths: Section<u64>,
}

impl Default for RrStore {
    /// Same as [`RrStore::new`] — a derived `Default` would leave out the
    /// leading `0` offset every accessor relies on.
    fn default() -> Self {
        RrStore::new()
    }
}

impl RrStore {
    /// Empty store.
    pub fn new() -> Self {
        RrStore {
            offsets: vec![0].into(),
            nodes: Section::default(),
            widths: Section::default(),
        }
    }

    /// Empty store pre-allocated for `sets` sets of ~`avg` members.
    pub fn with_capacity(sets: usize, avg: usize) -> Self {
        let mut offsets = Vec::with_capacity(sets + 1);
        offsets.push(0);
        RrStore {
            offsets: offsets.into(),
            nodes: Vec::with_capacity(sets * avg).into(),
            widths: Vec::with_capacity(sets).into(),
        }
    }

    /// Reassemble a store from its raw arrays — the spill reader's
    /// constructor ([`crate::spill::read_pool_file`]). The caller has
    /// already validated the CSR invariants (leading 0, monotone offsets,
    /// final offset = member count, `widths.len() + 1 == offsets.len()`);
    /// debug builds re-assert the cheap ones.
    pub(crate) fn from_raw_parts(
        offsets: Section<u64>,
        nodes: Section<NodeId>,
        widths: Section<u64>,
    ) -> Self {
        debug_assert_eq!(offsets.first(), Some(&0));
        debug_assert_eq!(offsets.len(), widths.len() + 1);
        debug_assert_eq!(offsets.last().copied(), Some(nodes.len() as u64));
        RrStore {
            offsets,
            nodes,
            widths,
        }
    }

    /// The raw offsets table (leading 0, one entry per set after it).
    pub(crate) fn offsets_raw(&self) -> &[u64] {
        &self.offsets
    }

    /// The flat member array.
    pub(crate) fn nodes_raw(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The per-set width array.
    pub(crate) fn widths_raw(&self) -> &[u64] {
        &self.widths
    }

    /// Whether any backing array is a borrowed view of a mapped segment
    /// file rather than owned memory.
    pub fn is_mapped(&self) -> bool {
        self.offsets.is_mapped() || self.nodes.is_mapped() || self.widths.is_mapped()
    }

    /// Append one RR-set, computing its width from `g`.
    pub fn push(&mut self, members: &[NodeId], g: &DiGraph) {
        let width: u64 = members.iter().map(|&v| g.in_degree(v) as u64).sum();
        self.push_with_width(members, width);
    }

    /// Append one RR-set whose width `ω(R)` the sampler already computed
    /// during its reverse BFS (see [`crate::sampler::RrSampler::sample_with_width`]),
    /// skipping the second `in_degree` pass over the members.
    ///
    /// Members must be distinct (samplers guarantee this via visited marks);
    /// debug builds assert it.
    pub fn push_with_width(&mut self, members: &[NodeId], width: u64) {
        debug_assert!(
            {
                let mut m: Vec<NodeId> = members.to_vec();
                m.sort_unstable();
                m.windows(2).all(|w| w[0] != w[1])
            },
            "RR-set contains duplicate members"
        );
        self.nodes.to_mut().extend_from_slice(members);
        let total = self.nodes.len() as u64;
        self.offsets.to_mut().push(total);
        self.widths.to_mut().push(width);
    }

    /// Append every set of `other`, rebasing its offsets — an O(members)
    /// memcpy-style concat with no per-set work, which is what makes merging
    /// per-thread shards from parallel generation cheap.
    pub fn absorb(&mut self, other: RrStore) {
        let base = self.nodes.len() as u64;
        self.nodes.to_mut().extend_from_slice(&other.nodes);
        self.offsets
            .to_mut()
            .extend(other.offsets[1..].iter().map(|&o| o + base));
        self.widths.to_mut().extend_from_slice(&other.widths);
    }

    /// A store holding only the first `sets` sets — the flat-arena dual of
    /// [`RrStore::absorb`], an O(members-copied) truncation with no per-set
    /// work. Clamped to [`RrStore::len`]. Backs the per-query *budget* knob
    /// of pooled selection (`comic_ris::pool::SketchPool::prefix`).
    pub fn prefix(&self, sets: usize) -> RrStore {
        let sets = sets.min(self.len());
        let end = self.offsets[sets] as usize;
        RrStore {
            offsets: self.offsets[..=sets].to_vec().into(),
            nodes: self.nodes[..end].to_vec().into(),
            widths: self.widths[..sets].to_vec().into(),
        }
    }

    /// Number of stored sets.
    pub fn len(&self) -> usize {
        self.widths.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.widths.is_empty()
    }

    /// Members of set `i`.
    pub fn set(&self, i: usize) -> &[NodeId] {
        &self.nodes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Width `ω(R_i)` — number of edges pointing into set `i`.
    pub fn width(&self, i: usize) -> u64 {
        self.widths[i]
    }

    /// Total number of stored members across all sets.
    pub fn total_members(&self) -> u64 {
        self.nodes.len() as u64
    }

    /// Iterator over the sets.
    pub fn iter(&self) -> impl Iterator<Item = &[NodeId]> + '_ {
        (0..self.len()).map(move |i| self.set(i))
    }

    /// Fraction of sets intersecting `seed_mark` (a dense membership mask);
    /// this is the unbiased estimator of `spread / n` by the activation
    /// equivalence property.
    pub fn coverage_fraction(&self, seed_mark: &[bool]) -> f64 {
        self.prefix_coverage_fraction(seed_mark, self.len())
    }

    /// [`RrStore::coverage_fraction`] over the first `sets` sets only —
    /// equal to `self.prefix(sets).coverage_fraction(seed_mark)`, without
    /// the copy.
    pub(crate) fn prefix_coverage_fraction(&self, seed_mark: &[bool], sets: usize) -> f64 {
        let sets = sets.min(self.len());
        if sets == 0 {
            return 0.0;
        }
        let covered = (0..sets)
            .filter(|&i| self.set(i).iter().any(|v| seed_mark[v.index()]))
            .count();
        covered as f64 / sets as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comic_graph::gen;

    #[test]
    fn push_and_read_back() {
        let g = gen::path(5, 1.0);
        let mut store = RrStore::new();
        store.push(&[NodeId(0)], &g);
        store.push(&[NodeId(1), NodeId(2)], &g);
        store.push(&[], &g);
        assert_eq!(store.len(), 3);
        assert_eq!(store.set(0), &[NodeId(0)]);
        assert_eq!(store.set(1), &[NodeId(1), NodeId(2)]);
        assert!(store.set(2).is_empty());
        assert_eq!(store.total_members(), 3);
    }

    #[test]
    fn widths_are_indegree_sums() {
        // Path 0 -> 1 -> 2: in-degrees 0, 1, 1.
        let g = gen::path(3, 1.0);
        let mut store = RrStore::new();
        store.push(&[NodeId(0), NodeId(1), NodeId(2)], &g);
        assert_eq!(store.width(0), 2);
        store.push(&[NodeId(0)], &g);
        assert_eq!(store.width(1), 0);
    }

    #[test]
    fn coverage_fraction_counts_intersections() {
        let g = gen::path(4, 1.0);
        let mut store = RrStore::new();
        store.push(&[NodeId(0), NodeId(1)], &g);
        store.push(&[NodeId(2)], &g);
        store.push(&[NodeId(3)], &g);
        let mut mark = vec![false; 4];
        mark[1] = true;
        mark[3] = true;
        assert!((store.coverage_fraction(&mark) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn absorb_rebases_offsets_and_matches_sequential_pushes() {
        let g = gen::path(6, 1.0);
        let sets: [&[NodeId]; 5] = [
            &[NodeId(0)],
            &[NodeId(1), NodeId(2)],
            &[],
            &[NodeId(3), NodeId(4), NodeId(5)],
            &[NodeId(2)],
        ];
        // Reference: everything pushed into one store.
        let mut whole = RrStore::new();
        for s in sets {
            whole.push(s, &g);
        }
        // Shards merged via absorb, including an empty middle shard.
        let mut a = RrStore::new();
        a.push(sets[0], &g);
        a.push(sets[1], &g);
        let b = RrStore::new();
        let mut c = RrStore::with_capacity(3, 2);
        c.push(sets[2], &g);
        c.push(sets[3], &g);
        c.push(sets[4], &g);
        let mut merged = RrStore::new();
        merged.absorb(a);
        merged.absorb(b);
        merged.absorb(c);
        assert_eq!(merged, whole);
        assert_eq!(merged.len(), 5);
        assert_eq!(merged.set(3), sets[3]);
        assert_eq!(merged.width(3), whole.width(3));
    }

    #[test]
    fn prefix_matches_a_fresh_store_of_the_leading_sets() {
        let g = gen::path(6, 1.0);
        let sets: [&[NodeId]; 4] = [
            &[NodeId(0)],
            &[NodeId(1), NodeId(2)],
            &[],
            &[NodeId(3), NodeId(4)],
        ];
        let mut whole = RrStore::new();
        for s in sets {
            whole.push(s, &g);
        }
        for cut in 0..=sets.len() {
            let mut expect = RrStore::new();
            for s in &sets[..cut] {
                expect.push(s, &g);
            }
            assert_eq!(whole.prefix(cut), expect, "cut {cut}");
        }
        // Oversized prefix clamps to the whole store.
        assert_eq!(whole.prefix(99), whole);
        assert_eq!(RrStore::new().prefix(5), RrStore::new());
    }

    #[test]
    fn default_is_a_usable_empty_store() {
        let mut d = RrStore::default();
        assert_eq!(d, RrStore::new());
        d.absorb(RrStore::default());
        d.push(&[NodeId(0)], &gen::path(2, 1.0));
        assert_eq!(d.set(0), &[NodeId(0)]);
    }

    #[test]
    fn push_with_width_trusts_the_caller() {
        let mut store = RrStore::new();
        store.push_with_width(&[NodeId(0), NodeId(7)], 42);
        assert_eq!(store.width(0), 42);
        assert_eq!(store.set(0), &[NodeId(0), NodeId(7)]);
    }

    #[test]
    fn empty_store_coverage_is_zero() {
        let store = RrStore::new();
        assert_eq!(store.coverage_fraction(&[]), 0.0);
        assert!(store.is_empty());
    }
}
