//! Section 5 of the paper: the **subset-query skyline index**
//! (Figure 3, Algorithms 2–4).
//!
//! Skyline points are stored under their *reversed* maximum dominating
//! subspace `D_p^¬ = D \ D_{p≺S}` in a map-based prefix trie: each trie
//! path is the ascending dimension sequence of one reversed subspace, and
//! each node holds the ids of the points stored at exactly that path plus
//! a copy of their rows.
//!
//! Lemma 5.1 reduces "which skyline points can possibly dominate a testing
//! point `q`" to the reversed subset query: return every stored point whose
//! reversed subspace is a **subset** of the query's reversed subspace
//! `D_q^¬` — equivalently, whose maximum dominating subspace is a
//! **superset** of `D_{q≺S}`. The query walks only trie children whose
//! dimension index belongs to `D_q^¬` (Algorithms 3 and 4), which visits at
//! most `2^{|D_q^¬|}` nodes and runs in `O((d/2)²)` on average (Lemma 5.3).
//!
//! A scan does not need the candidates, only whether one of them dominates
//! the testing point. [`GenericSubsetIndex::find_dominator`] answers that
//! on the same walk: it tests each matching node's rows in place, where
//! they sit contiguously, and stops testing at the first dominator. The
//! walk order and the break point are those of [`GenericSubsetIndex::query_into`]
//! followed by a scan over the ids, so every counter stays the same.
//!
//! The paper's data structure is "any map"; hash maps give `O(1)` node
//! access and sorted maps `O(log d)` (discussed under Lemma 5.2). Both are
//! provided here: [`SubsetIndex`] (hash) and [`SortedSubsetIndex`]
//! (B-tree), sharing one generic implementation.

use std::collections::{BTreeMap, HashMap};

use crate::dominance::first_dominator;
use crate::metrics::Metrics;
use crate::point::PointId;
use crate::subspace::Subspace;

/// Storage of a trie node's children, keyed by dimension index.
///
/// Implementations must iterate children in a deterministic order is *not*
/// required for correctness — query results are order-insensitive sets —
/// but [`SortedChildren`] does iterate in ascending dimension order.
pub trait Children: Default {
    /// Get the child for `dim`, inserting an empty node if absent.
    fn get_or_insert(&mut self, dim: u8) -> &mut TrieNode<Self>;
    /// Get the child for `dim`, if present.
    fn get_mut(&mut self, dim: u8) -> Option<&mut TrieNode<Self>>;
    /// Remove the child for `dim` (no-op if absent).
    fn remove_child(&mut self, dim: u8);
    /// Visit every `(dim, child)` pair.
    fn visit<'a>(&'a self, f: &mut dyn FnMut(u8, &'a TrieNode<Self>));
    /// Number of children.
    fn len(&self) -> usize;
    /// Whether there are no children.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A fixed-seed `u8` hasher (splitmix64 finaliser). Dimension keys never
/// exceed `d ≤ 255`, so `RandomState`'s DoS hardening buys nothing here —
/// while its per-map random seed makes trie iteration order, and with it
/// the exact dominance-test count, vary between runs. A fixed seed keeps
/// `O(1)` access and makes every run (and every trace) reproducible.
#[derive(Debug, Default, Clone)]
pub struct DimHasher(u64);

impl std::hash::Hasher for DimHasher {
    fn finish(&self) -> u64 {
        let mut z = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.wrapping_mul(0x100).wrapping_add(b as u64);
        }
    }

    fn write_u8(&mut self, b: u8) {
        self.0 = self.0.wrapping_mul(0x100).wrapping_add(b as u64);
    }
}

/// [`std::hash::BuildHasher`] for [`DimHasher`].
#[derive(Debug, Default, Clone)]
pub struct DimHasherBuilder;

impl std::hash::BuildHasher for DimHasherBuilder {
    type Hasher = DimHasher;

    fn build_hasher(&self) -> DimHasher {
        DimHasher::default()
    }
}

/// Hash-map children: `O(1)` expected node access (the paper's
/// recommendation), with a deterministic fixed-seed hasher so runs are
/// reproducible.
#[derive(Debug, Default, Clone)]
pub struct HashChildren(HashMap<u8, TrieNode<HashChildren>, DimHasherBuilder>);

impl Children for HashChildren {
    fn get_or_insert(&mut self, dim: u8) -> &mut TrieNode<HashChildren> {
        self.0.entry(dim).or_default()
    }

    fn get_mut(&mut self, dim: u8) -> Option<&mut TrieNode<HashChildren>> {
        self.0.get_mut(&dim)
    }

    fn remove_child(&mut self, dim: u8) {
        self.0.remove(&dim);
    }

    fn visit<'a>(&'a self, f: &mut dyn FnMut(u8, &'a TrieNode<HashChildren>)) {
        for (&dim, child) in &self.0 {
            f(dim, child);
        }
    }

    fn len(&self) -> usize {
        self.0.len()
    }
}

/// Sorted-map children: `O(log d)` node access, deterministic ascending
/// iteration (the paper's "sorted map" alternative).
#[derive(Debug, Default, Clone)]
pub struct SortedChildren(BTreeMap<u8, TrieNode<SortedChildren>>);

impl Children for SortedChildren {
    fn get_or_insert(&mut self, dim: u8) -> &mut TrieNode<SortedChildren> {
        self.0.entry(dim).or_default()
    }

    fn get_mut(&mut self, dim: u8) -> Option<&mut TrieNode<SortedChildren>> {
        self.0.get_mut(&dim)
    }

    fn remove_child(&mut self, dim: u8) {
        self.0.remove(&dim);
    }

    fn visit<'a>(&'a self, f: &mut dyn FnMut(u8, &'a TrieNode<SortedChildren>)) {
        for (&dim, child) in &self.0 {
            f(dim, child);
        }
    }

    fn len(&self) -> usize {
        self.0.len()
    }
}

/// Rows per arena chunk. A node's rows occupy whole chunks, so testing
/// one node reads up to `CHUNK_ROWS` contiguous rows between jumps.
const CHUNK_ROWS: usize = 16;

/// Chunks per arena page (one allocation each).
const PAGE_CHUNKS: usize = 64;

/// One node of the prefix trie: the points stored at this exact path, a
/// copy of their rows, and the sub-maps (Figure 3's key-value pairs).
#[derive(Debug, Clone)]
pub struct TrieNode<C: Children> {
    points: Vec<PointId>,
    /// Arena chunks holding the rows of `points`, in order: the row of
    /// `points[i]` is slot `i % CHUNK_ROWS` of chunk `chunks[i / CHUNK_ROWS]`.
    chunks: Vec<u32>,
    children: C,
}

impl<C: Children> Default for TrieNode<C> {
    fn default() -> Self {
        TrieNode {
            points: Vec::new(),
            chunks: Vec::new(),
            children: C::default(),
        }
    }
}

/// Row storage shared by every node of one index: fixed-size chunks of
/// `CHUNK_ROWS` rows, cut in order from fixed-size pages and recycled
/// through a free list when removals empty them.
///
/// Pages never move or grow, so storing rows costs no reallocation copies
/// and no doubling slack, and a page's unused tail is never touched. One
/// page per `CHUNK_ROWS * PAGE_CHUNKS` rows instead of one vector per node
/// keeps the allocation count, and with it the heap fragmentation of
/// repeated runs, flat; each node still reads its rows chunk by chunk.
///
/// An arena that does not `keep` rows stores nothing and hands out no
/// chunks: its index answers id queries only.
#[derive(Debug, Clone)]
struct RowArena {
    dims: usize,
    keep: bool,
    pages: Vec<Vec<f64>>,
    chunks: usize,
    free: Vec<u32>,
}

impl RowArena {
    fn new(dims: usize, keep: bool) -> Self {
        RowArena {
            dims,
            keep,
            pages: Vec::new(),
            chunks: 0,
            free: Vec::new(),
        }
    }

    /// The rows of `chunk`, `CHUNK_ROWS` slots wide.
    fn chunk_rows(&self, chunk: u32) -> &[f64] {
        let len = CHUNK_ROWS * self.dims;
        let (page, at) = (chunk as usize / PAGE_CHUNKS, chunk as usize % PAGE_CHUNKS);
        &self.pages[page][at * len..(at + 1) * len]
    }

    /// Slot `i` of a node whose rows live in `chunks`.
    fn row_mut(&mut self, chunks: &[u32], i: usize) -> &mut [f64] {
        let chunk = chunks[i / CHUNK_ROWS] as usize;
        let (page, at) = (chunk / PAGE_CHUNKS, chunk % PAGE_CHUNKS);
        let start = (at * CHUNK_ROWS + i % CHUNK_ROWS) * self.dims;
        &mut self.pages[page][start..start + self.dims]
    }

    fn alloc(&mut self) -> u32 {
        if let Some(chunk) = self.free.pop() {
            return chunk;
        }
        let len = CHUNK_ROWS * self.dims;
        if self.chunks % PAGE_CHUNKS == 0 {
            self.pages.push(Vec::with_capacity(PAGE_CHUNKS * len));
        }
        let page = self.pages.last_mut().expect("a page was just ensured");
        page.resize(page.len() + len, 0.0);
        self.chunks += 1;
        (self.chunks - 1) as u32
    }

    /// Append `row` as the `len`-th row of a node with `chunks`.
    fn push(&mut self, chunks: &mut Vec<u32>, len: usize, row: &[f64]) {
        if !self.keep {
            return;
        }
        if len % CHUNK_ROWS == 0 {
            chunks.push(self.alloc());
        }
        self.row_mut(chunks, len).copy_from_slice(row);
    }

    /// Mirror `points.swap_remove(at)` for a node that held `len` rows.
    fn swap_remove(&mut self, chunks: &mut Vec<u32>, len: usize, at: usize) {
        if !self.keep {
            return;
        }
        let last = len - 1;
        if at != last {
            let mut row = [0.0; crate::subspace::MAX_DIMS];
            let row = &mut row[..self.dims];
            row.copy_from_slice(self.row_mut(chunks, last));
            self.row_mut(chunks, at).copy_from_slice(row);
        }
        if last % CHUNK_ROWS == 0 {
            self.free
                .push(chunks.pop().expect("a stored row has a chunk"));
        }
    }

    /// The rows of a node holding `len` points, one slice per chunk.
    fn node_rows<'a>(&'a self, chunks: &'a [u32], len: usize) -> impl Iterator<Item = &'a [f64]> {
        chunks.iter().enumerate().map(move |(k, &c)| {
            let rows = (len - k * CHUNK_ROWS).min(CHUNK_ROWS);
            &self.chunk_rows(c)[..rows * self.dims]
        })
    }
}

/// Per-query walk counters, folded into [`Metrics`] once per query.
#[derive(Default)]
struct WalkStats {
    visited: u64,
    max_depth: u64,
    returned: u64,
}

/// The subset-query skyline index, generic over the node map.
///
/// Every stored point carries a copy of its row, so
/// [`GenericSubsetIndex::find_dominator`] tests candidates in place
/// (except in an [`GenericSubsetIndex::ids_only`] index).
/// Use the [`SubsetIndex`] alias (hash-map nodes) unless you are running
/// the sorted-map ablation.
#[derive(Debug, Clone)]
pub struct GenericSubsetIndex<C: Children> {
    root: TrieNode<C>,
    len: usize,
    dims: usize,
    arena: RowArena,
}

/// Hash-map-backed subset index (the paper's default).
pub type SubsetIndex = GenericSubsetIndex<HashChildren>;

/// Sorted-map-backed subset index (the paper's `O(log d)` alternative).
pub type SortedSubsetIndex = GenericSubsetIndex<SortedChildren>;

impl<C: Children> GenericSubsetIndex<C> {
    /// An empty index over a `dims`-dimensional space.
    pub fn new(dims: usize) -> Self {
        Self::with_rows(dims, true)
    }

    /// An empty index that stores ids without their rows, for an index
    /// that is only ever read through [`Self::query_into`]: `put` still
    /// checks the row's width but does not copy it, and
    /// [`Self::find_dominator`] panics.
    pub fn ids_only(dims: usize) -> Self {
        Self::with_rows(dims, false)
    }

    fn with_rows(dims: usize, keep: bool) -> Self {
        assert!(
            dims <= crate::subspace::MAX_DIMS,
            "dimensionality {dims} exceeds {}",
            crate::subspace::MAX_DIMS
        );
        GenericSubsetIndex {
            root: TrieNode::default(),
            len: 0,
            dims,
            arena: RowArena::new(dims, keep),
        }
    }

    /// Dimensionality of the indexed space.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index stores no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Algorithm 2 (**Add**): store `point`, whose coordinates are `row`,
    /// under its *maximum dominating subspace* `subspace`. Internally the
    /// trie is keyed by the reversed subspace `subspace^¬`, walked in
    /// ascending dimension order.
    ///
    /// # Panics
    ///
    /// If `row` is not [`Self::dims`] wide.
    pub fn put(&mut self, point: PointId, row: &[f64], subspace: Subspace) {
        assert_eq!(row.len(), self.dims, "row width must match the index");
        let reversed = subspace.complement(self.dims);
        let mut node = &mut self.root;
        for dim in reversed.dims() {
            node = node.children.get_or_insert(dim as u8);
        }
        self.arena.push(&mut node.chunks, node.points.len(), row);
        node.points.push(point);
        self.len += 1;
    }

    /// Algorithms 3 + 4 (**Query**): append to `out` every stored point
    /// whose maximum dominating subspace is a superset of `subspace`
    /// (equivalently: reversed subspace ⊆ `subspace^¬`). These are exactly
    /// the stored points a testing point with this subspace must be
    /// dominance-tested against (Lemma 5.1).
    ///
    /// `metrics` records the trie nodes visited, candidates returned, and
    /// the depth/candidate-count distributions.
    pub fn query_into(&self, subspace: Subspace, out: &mut Vec<PointId>, metrics: &mut Metrics) {
        self.walk(subspace, metrics, |node| {
            out.extend_from_slice(&node.points)
        });
    }

    /// Convenience wrapper over [`Self::query_into`] that allocates.
    pub fn query(&self, subspace: Subspace, metrics: &mut Metrics) -> Vec<PointId> {
        let mut out = Vec::new();
        self.query_into(subspace, &mut out, metrics);
        out
    }

    /// The first candidate of [`Self::query_into`] that dominates `row`,
    /// tested in place against the stored rows.
    ///
    /// Equivalent to running `query_into` and then testing the returned
    /// ids in order until the first dominator: the walk is the same
    /// preorder, one dominance test is counted per candidate up to and
    /// including the hit, and after a hit the walk continues without
    /// testing so the node, candidate and histogram counters match the
    /// full query exactly.
    pub fn find_dominator(
        &self,
        subspace: Subspace,
        row: &[f64],
        metrics: &mut Metrics,
    ) -> Option<PointId> {
        assert_eq!(row.len(), self.dims, "row width must match the index");
        assert!(
            self.arena.keep,
            "find_dominator needs an index that keeps rows"
        );
        let mut hit = None;
        let mut tests = 0u64;
        self.walk(subspace, metrics, |node| {
            if hit.is_some() {
                return;
            }
            let rows = self.arena.node_rows(&node.chunks, node.points.len());
            for (ids, rows) in node.points.chunks(CHUNK_ROWS).zip(rows) {
                match first_dominator(rows, row) {
                    Some(i) => {
                        tests += i as u64 + 1;
                        hit = Some(ids[i]);
                        return;
                    }
                    None => tests += ids.len() as u64,
                }
            }
        });
        metrics.count_dts(tests);
        hit
    }

    /// The subset-query walk shared by every query: visit, in preorder,
    /// each node whose path is a subset of `subspace^¬`, then record one
    /// container get with its node, candidate and depth counts.
    fn walk<F: FnMut(&TrieNode<C>)>(
        &self,
        subspace: Subspace,
        metrics: &mut Metrics,
        mut visit: F,
    ) {
        let mut stats = WalkStats::default();
        let reversed = subspace.complement(self.dims);
        Self::walk_node(&self.root, reversed, 0, &mut stats, &mut visit);
        metrics.index_nodes_visited += stats.visited;
        metrics.candidates_returned += stats.returned;
        metrics.container_gets += 1;
        metrics.trie_depth.record(stats.max_depth);
        metrics.trie_candidates.record(stats.returned);
    }

    fn walk_node<F: FnMut(&TrieNode<C>)>(
        node: &TrieNode<C>,
        reversed_query: Subspace,
        depth: u64,
        stats: &mut WalkStats,
        visit: &mut F,
    ) {
        stats.visited += 1;
        stats.max_depth = stats.max_depth.max(depth);
        stats.returned += node.points.len() as u64;
        visit(node);
        node.children.visit(&mut |dim, child| {
            if reversed_query.contains(dim as usize) {
                Self::walk_node(child, reversed_query, depth + 1, stats, visit);
            }
        });
    }

    /// Remove one occurrence of `point` stored under `subspace`, with its
    /// row. Returns `false` when the point was not stored there. Emptied
    /// trie branches are pruned.
    ///
    /// Removal is not part of the paper's algorithms (its scans only ever
    /// add skyline points) but is required by the streaming extension
    /// ([`crate::streaming`]) where skyline points can be evicted.
    pub fn remove(&mut self, point: PointId, subspace: Subspace) -> bool {
        if self.len == 0 {
            // Nothing is stored, so nothing can be removed: skip the
            // path materialisation and trie walk entirely. Mutation-
            // heavy streaming workloads hit this constantly (every
            // remove against an empty or drained structure).
            return false;
        }
        let reversed = subspace.complement(self.dims);
        let dims: Vec<u8> = reversed.dims().map(|d| d as u8).collect();
        let removed = Self::remove_rec(&mut self.root, &mut self.arena, &dims, point);
        if removed {
            self.len -= 1;
        }
        removed
    }

    /// Returns whether the point was removed; prunes empty children on
    /// the way back up.
    fn remove_rec(
        node: &mut TrieNode<C>,
        arena: &mut RowArena,
        path: &[u8],
        point: PointId,
    ) -> bool {
        match path.split_first() {
            None => match node.points.iter().position(|&p| p == point) {
                Some(at) => {
                    arena.swap_remove(&mut node.chunks, node.points.len(), at);
                    node.points.swap_remove(at);
                    true
                }
                None => false,
            },
            Some((&dim, rest)) => {
                let Some(child) = node.children.get_mut(dim) else {
                    return false;
                };
                let removed = Self::remove_rec(child, arena, rest, point);
                if removed && child.points.is_empty() && child.children.is_empty() {
                    node.children.remove_child(dim);
                }
                removed
            }
        }
    }

    /// Total number of trie nodes, including the root — the index-size
    /// component the paper discusses at the end of Section 5.
    pub fn node_count(&self) -> usize {
        fn count<C: Children>(node: &TrieNode<C>) -> usize {
            let mut n = 1;
            node.children.visit(&mut |_, child| n += count(child));
            n
        }
        count(&self.root)
    }

    /// Iterate over every stored `(point, maximum dominating subspace)`
    /// pair. Ordering is unspecified.
    pub fn entries(&self) -> Vec<(PointId, Subspace)> {
        fn walk<C: Children>(
            node: &TrieNode<C>,
            path: Subspace,
            dims: usize,
            out: &mut Vec<(PointId, Subspace)>,
        ) {
            let subspace = path.complement(dims);
            for &p in &node.points {
                out.push((p, subspace));
            }
            node.children.visit(&mut |dim, child| {
                let mut next = path;
                next.insert(dim as usize);
                walk(child, next, dims, out);
            });
        }
        let mut out = Vec::with_capacity(self.len);
        walk(&self.root, Subspace::EMPTY, self.dims, &mut out);
        out
    }

    /// Drop all stored points and rows, keeping the dimensionality.
    pub fn clear(&mut self) {
        self.root = TrieNode::default();
        self.len = 0;
        self.arena = RowArena::new(self.dims, self.arena.keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sub(dims: &[usize]) -> Subspace {
        Subspace::from_dims(dims.iter().copied())
    }

    /// Store `point` with an all-zero row: these tests are about the
    /// subset-query semantics, which never read the rows.
    fn put<C: Children>(index: &mut GenericSubsetIndex<C>, point: PointId, subspace: Subspace) {
        let row = vec![0.0; index.dims()];
        index.put(point, &row, subspace);
    }

    /// Brute-force oracle for the subset query semantics.
    fn oracle(entries: &[(PointId, Subspace)], query: Subspace) -> Vec<PointId> {
        let mut v: Vec<PointId> = entries
            .iter()
            .filter(|(_, s)| s.is_superset_of(query))
            .map(|(p, _)| *p)
            .collect();
        v.sort_unstable();
        v
    }

    fn check_against_oracle<C: Children>(
        index: &GenericSubsetIndex<C>,
        entries: &[(PointId, Subspace)],
        query: Subspace,
    ) {
        let mut m = Metrics::new();
        let mut got = index.query(query, &mut m);
        got.sort_unstable();
        assert_eq!(got, oracle(entries, query), "query {query:?}");
    }

    #[test]
    fn paper_figure_3_example() {
        // The subspaces of Figure 3 (dimensions renumbered to 0-based:
        // paper {1,2} -> {0,1}, etc.) are *reversed* subspaces; `put`
        // expects the forward subspace, so complement them for an 8-D
        // space (the figure's universe includes dimension 7 = paper's 8).
        let dims = 8;
        let reversed: Vec<Subspace> = vec![
            sub(&[0, 1]),
            sub(&[0, 2, 4, 6]),
            sub(&[0, 4]),
            sub(&[0, 6]),
            sub(&[2, 4]),
            sub(&[2, 6]),
            sub(&[4, 6]),
        ];
        let mut index = SubsetIndex::new(dims);
        let mut entries = Vec::new();
        for (i, r) in reversed.iter().enumerate() {
            let forward = r.complement(dims);
            put(&mut index, i as PointId, forward);
            entries.push((i as PointId, forward));
        }
        assert_eq!(index.len(), 7);

        // Query set {1,3,5} of the paper = reversed {0,2,4} here. Stored
        // reversed subsets of {0,2,4}: {0,4} and {2,4} -> points 2 and 4.
        let query = sub(&[0, 2, 4]).complement(dims);
        let mut m = Metrics::new();
        let mut got = index.query(query, &mut m);
        got.sort_unstable();
        assert_eq!(got, vec![2, 4]);
        check_against_oracle(&index, &entries, query);
    }

    #[test]
    fn empty_index_returns_nothing() {
        let index = SubsetIndex::new(4);
        let mut m = Metrics::new();
        assert!(index.query(sub(&[1]), &mut m).is_empty());
        assert_eq!(index.len(), 0);
        assert!(index.is_empty());
        assert_eq!(index.node_count(), 1); // just the root
    }

    #[test]
    fn full_subspace_point_matches_every_query() {
        // D_p = full space => reversed empty => stored at the root =>
        // returned for every query.
        let mut index = SubsetIndex::new(4);
        put(&mut index, 7, Subspace::full(4));
        for query_bits in 0..16u64 {
            let mut m = Metrics::new();
            let got = index.query(Subspace::from_bits(query_bits), &mut m);
            assert_eq!(got, vec![7]);
        }
    }

    #[test]
    fn disjoint_subspaces_do_not_match() {
        let mut index = SubsetIndex::new(4);
        put(&mut index, 1, sub(&[0, 1])); // reversed {2,3}
        let mut m = Metrics::new();
        // Query subspace {2}: D_p = {0,1} is not a superset of {2}.
        assert!(index.query(sub(&[2]), &mut m).is_empty());
        // Query subspace {0}: {0,1} ⊇ {0}.
        assert_eq!(index.query(sub(&[0]), &mut m), vec![1]);
    }

    #[test]
    fn multiple_points_same_subspace_share_a_node() {
        let mut index = SubsetIndex::new(5);
        put(&mut index, 1, sub(&[0, 2]));
        put(&mut index, 2, sub(&[0, 2]));
        put(&mut index, 3, sub(&[0, 2]));
        let nodes = index.node_count();
        let mut m = Metrics::new();
        let mut got = index.query(sub(&[0, 2]), &mut m);
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3]);
        put(&mut index, 4, sub(&[0, 2]));
        assert_eq!(
            index.node_count(),
            nodes,
            "no new node for a shared subspace"
        );
    }

    #[test]
    fn exhaustive_small_universe_hash() {
        exhaustive_small_universe::<HashChildren>();
    }

    #[test]
    fn exhaustive_small_universe_sorted() {
        exhaustive_small_universe::<SortedChildren>();
    }

    /// Store every subspace of a 5-D universe, then check every possible
    /// query against the brute-force oracle.
    fn exhaustive_small_universe<C: Children>() {
        let dims = 5;
        let mut index = GenericSubsetIndex::<C>::new(dims);
        let mut entries = Vec::new();
        for bits in 0..(1u64 << dims) {
            let s = Subspace::from_bits(bits);
            put(&mut index, bits as PointId, s);
            entries.push((bits as PointId, s));
        }
        assert_eq!(index.len(), 1 << dims);
        for qbits in 0..(1u64 << dims) {
            check_against_oracle(&index, &entries, Subspace::from_bits(qbits));
        }
    }

    #[test]
    fn empty_query_fast_path_returns_every_entry() {
        // The empty subspace mask reverses to the full dimension set:
        // every stored subspace is a superset of ∅, so the fast path must
        // return every stored point — with candidate counts pinned to the
        // exact index size for both backends.
        fn check<C: Children>() {
            let dims = 6;
            let mut index = GenericSubsetIndex::<C>::new(dims);
            let mut entries = Vec::new();
            for bits in [0u64, 0b1, 0b101, 0b11010, 0b111111, 0b100100] {
                let s = Subspace::from_bits(bits);
                put(&mut index, bits as PointId, s);
                entries.push((bits as PointId, s));
            }
            let mut m = Metrics::new();
            let mut got = index.query(Subspace::EMPTY, &mut m);
            got.sort_unstable();
            assert_eq!(got, oracle(&entries, Subspace::EMPTY));
            assert_eq!(got.len(), index.len(), "every stored point matches");
            assert_eq!(m.candidates_returned, index.len() as u64);
            assert_eq!(m.container_gets, 1);
            assert_eq!(
                m.index_nodes_visited,
                index.node_count() as u64,
                "the collect-all walk visits each node exactly once"
            );
        }
        check::<HashChildren>();
        check::<SortedChildren>();
    }

    #[test]
    fn metrics_accounting() {
        let mut index = SubsetIndex::new(4);
        put(&mut index, 0, sub(&[0, 1, 2, 3]));
        put(&mut index, 1, sub(&[1, 2, 3]));
        let mut m = Metrics::new();
        let got = index.query(sub(&[1]), &mut m);
        assert_eq!(got.len(), 2);
        assert_eq!(m.container_gets, 1);
        assert_eq!(m.candidates_returned, 2);
        assert!(m.index_nodes_visited >= 2);
    }

    #[test]
    fn entries_roundtrip() {
        let mut index = SortedSubsetIndex::new(6);
        let items = [
            (10, sub(&[0, 1])),
            (11, sub(&[2, 3, 4])),
            (12, Subspace::full(6)),
            (13, sub(&[5])),
        ];
        for (p, s) in items {
            put(&mut index, p, s);
        }
        let mut got = index.entries();
        got.sort_unstable();
        let mut expected = items.to_vec();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn clear_resets() {
        let mut index = SubsetIndex::new(3);
        put(&mut index, 0, sub(&[0]));
        index.clear();
        assert!(index.is_empty());
        assert_eq!(index.node_count(), 1);
        assert_eq!(index.dims(), 3);
    }

    #[test]
    fn remove_deletes_exactly_one_occurrence() {
        let mut index = SubsetIndex::new(4);
        put(&mut index, 1, sub(&[0, 1]));
        put(&mut index, 2, sub(&[0, 1]));
        put(&mut index, 1, sub(&[2]));
        assert_eq!(index.len(), 3);
        assert!(index.remove(1, sub(&[0, 1])));
        assert_eq!(index.len(), 2);
        // Same point under another subspace survives.
        let mut m = Metrics::new();
        assert_eq!(index.query(sub(&[2]), &mut m), vec![1]);
        // Removing again fails.
        assert!(!index.remove(1, sub(&[0, 1])));
        assert!(index.remove(2, sub(&[0, 1])));
        assert!(index.remove(1, sub(&[2])));
        assert!(index.is_empty());
        assert_eq!(index.node_count(), 1, "emptied branches must be pruned");
    }

    #[test]
    fn remove_missing_subspace_is_noop() {
        let mut index = SubsetIndex::new(4);
        put(&mut index, 1, sub(&[0]));
        assert!(!index.remove(1, sub(&[1])));
        assert_eq!(index.len(), 1);
    }

    #[test]
    fn remove_then_query_consistency() {
        let dims = 5;
        let mut index = SubsetIndex::new(dims);
        let mut entries: Vec<(PointId, Subspace)> = Vec::new();
        for bits in 0..(1u64 << dims) {
            let s = Subspace::from_bits(bits);
            put(&mut index, bits as PointId, s);
            entries.push((bits as PointId, s));
        }
        // Remove every third entry and re-verify all queries.
        entries.retain(|&(p, s)| {
            if p % 3 == 0 {
                assert!(index.remove(p, s));
                false
            } else {
                true
            }
        });
        for qbits in 0..(1u64 << dims) {
            check_against_oracle(&index, &entries, Subspace::from_bits(qbits));
        }
    }

    #[test]
    fn query_into_appends() {
        let mut index = SubsetIndex::new(3);
        put(&mut index, 5, sub(&[0, 1, 2]));
        let mut out = vec![99];
        let mut m = Metrics::new();
        index.query_into(sub(&[1]), &mut out, &mut m);
        assert_eq!(out, vec![99, 5]);
    }

    /// The old scan loop: every candidate of `query_into`, in order,
    /// tested with [`crate::dominance::dominates`] until the first hit.
    fn query_then_scan<C: Children>(
        index: &GenericSubsetIndex<C>,
        rows: &[Vec<f64>],
        subspace: Subspace,
        q: &[f64],
        metrics: &mut Metrics,
    ) -> Option<PointId> {
        let mut candidates = Vec::new();
        index.query_into(subspace, &mut candidates, metrics);
        for &c in &candidates {
            metrics.count_dt();
            if crate::dominance::dominates(&rows[c as usize], q) {
                return Some(c);
            }
        }
        None
    }

    /// On random tries (with removals and chunk reuse) and random query
    /// rows, the in-place query reports the same first dominator, the same
    /// dominance-test count and identical `Metrics` as `query_into`
    /// followed by the old loop.
    fn find_dominator_matches_query_then_scan<C: Children>(seed: u64) {
        let mut state = seed;
        let mut next = move |bound: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        for _ in 0..60 {
            let dims = 1 + next(10) as usize;
            let mask = Subspace::full(dims).bits();
            let mut index = GenericSubsetIndex::<C>::new(dims);
            let mut rows: Vec<Vec<f64>> = Vec::new();
            let mut stored: Vec<(PointId, Subspace)> = Vec::new();
            let add = |index: &mut GenericSubsetIndex<C>,
                       rows: &mut Vec<Vec<f64>>,
                       stored: &mut Vec<(PointId, Subspace)>,
                       next: &mut dyn FnMut(u64) -> u64| {
                let id = rows.len() as PointId;
                let row: Vec<f64> = (0..dims).map(|_| next(5) as f64 / 4.0).collect();
                let s = Subspace::from_bits(next(1 << dims) & mask);
                index.put(id, &row, s);
                rows.push(row);
                stored.push((id, s));
            };
            for _ in 0..next(150) {
                add(&mut index, &mut rows, &mut stored, &mut next);
            }
            // Remove about a third, then refill: swap-removes move rows
            // inside their node and emptied chunks are recycled.
            stored.retain(|&(p, s)| {
                if next(3) == 0 {
                    assert!(index.remove(p, s));
                    false
                } else {
                    true
                }
            });
            for _ in 0..next(40) {
                add(&mut index, &mut rows, &mut stored, &mut next);
            }
            assert_eq!(index.len(), stored.len());
            for _ in 0..40 {
                let q: Vec<f64> = (0..dims).map(|_| next(5) as f64 / 4.0).collect();
                let qs = Subspace::from_bits(next(1 << dims) & mask);
                let mut old = Metrics::new();
                let want = query_then_scan(&index, &rows, qs, &q, &mut old);
                let mut new = Metrics::new();
                let got = index.find_dominator(qs, &q, &mut new);
                assert_eq!(got, want, "dims={dims} query {qs:?} row {q:?}");
                assert_eq!(new, old, "dims={dims} query {qs:?} row {q:?}");
            }
        }
    }

    #[test]
    fn find_dominator_matches_query_then_scan_hash() {
        find_dominator_matches_query_then_scan::<HashChildren>(7);
    }

    #[test]
    fn find_dominator_matches_query_then_scan_sorted() {
        find_dominator_matches_query_then_scan::<SortedChildren>(11);
    }

    #[test]
    fn ids_only_index_answers_queries_without_rows() {
        let mut index = SubsetIndex::ids_only(3);
        let mut full = SubsetIndex::new(3);
        for (id, bits) in [(0, 0b011), (1, 0b111), (2, 0b001), (3, 0b011)] {
            let row = [id as f64; 3];
            index.put(id, &row, Subspace::from_bits(bits));
            full.put(id, &row, Subspace::from_bits(bits));
        }
        assert!(index.remove(0, Subspace::from_bits(0b011)));
        assert!(full.remove(0, Subspace::from_bits(0b011)));
        assert!(index.arena.pages.is_empty());
        for q in 0..8 {
            let (mut a, mut b) = (Metrics::new(), Metrics::new());
            assert_eq!(
                index.query(Subspace::from_bits(q), &mut a),
                full.query(Subspace::from_bits(q), &mut b)
            );
            assert_eq!(a, b);
        }
        index.clear();
        index.put(4, &[0.0; 3], Subspace::from_bits(0b111));
        assert!(index.arena.pages.is_empty());
    }

    #[test]
    #[should_panic(expected = "keeps rows")]
    fn ids_only_index_refuses_find_dominator() {
        let index = SubsetIndex::ids_only(2);
        index.find_dominator(Subspace::EMPTY, &[0.0, 0.0], &mut Metrics::new());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn too_many_dims_panics() {
        let _ = SubsetIndex::new(65);
    }
}
