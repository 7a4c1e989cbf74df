//! The subset index must return *exactly* the stored points whose maximum
//! dominating subspace is a superset of the query subspace (Problem 1 /
//! Lemma 5.1) — checked against a brute-force oracle on randomised
//! workloads and on subspaces produced by a real Merge run.

use skyline_core::merge::{merge, MergeConfig};
use skyline_core::metrics::Metrics;
use skyline_core::point::PointId;
use skyline_core::subset_index::{SortedSubsetIndex, SubsetIndex};
use skyline_core::subspace::Subspace;
use skyline_data::rng::Rng64;
use skyline_integration_tests::workload_grid;

fn oracle(entries: &[(PointId, Subspace)], query: Subspace) -> Vec<PointId> {
    let mut v: Vec<PointId> = entries
        .iter()
        .filter(|(_, s)| s.is_superset_of(query))
        .map(|(p, _)| *p)
        .collect();
    v.sort_unstable();
    v
}

#[test]
fn randomised_queries_match_the_oracle() {
    let mut rng = Rng64::seed_from_u64(2023);
    for dims in [3usize, 5, 8, 12, 16, 24] {
        let mask = if dims == 64 {
            u64::MAX
        } else {
            (1u64 << dims) - 1
        };
        let mut hash_index = SubsetIndex::new(dims);
        let mut sorted_index = SortedSubsetIndex::new(dims);
        let mut entries = Vec::new();
        let row = vec![0.0; dims];
        for id in 0..300u32 {
            let s = Subspace::from_bits(rng.next_u64() & mask);
            hash_index.put(id, &row, s);
            sorted_index.put(id, &row, s);
            entries.push((id, s));
        }
        for _ in 0..200 {
            let q = Subspace::from_bits(rng.next_u64() & mask);
            let expected = oracle(&entries, q);
            let mut m = Metrics::new();
            let mut got_hash = hash_index.query(q, &mut m);
            got_hash.sort_unstable();
            assert_eq!(got_hash, expected, "hash, dims={dims}, q={q:?}");
            let mut got_sorted = sorted_index.query(q, &mut m);
            got_sorted.sort_unstable();
            assert_eq!(got_sorted, expected, "sorted, dims={dims}, q={q:?}");
        }
    }
}

#[test]
fn merge_produced_subspaces_roundtrip_through_the_index() {
    for (data, label) in workload_grid() {
        let mut m = Metrics::new();
        let out = merge(&data, &MergeConfig::recommended(data.dims()), &mut m);
        let mut index = SubsetIndex::new(data.dims());
        let entries: Vec<(PointId, Subspace)> = out
            .survivors
            .iter()
            .zip(&out.subspaces)
            .map(|(&q, &s)| (q, s))
            .collect();
        for &(q, s) in &entries {
            index.put(q, data.point(q), s);
        }
        assert_eq!(index.len(), entries.len(), "{label}");
        // Query with every stored subspace: the point itself must always
        // be among the results (reflexivity of ⊇).
        for &(q, s) in &entries {
            let mut got = index.query(s, &mut m);
            got.sort_unstable();
            assert_eq!(got, oracle(&entries, s), "{label}: query {s:?}");
            assert!(got.contains(&q), "{label}: {q} missing from its own query");
        }
    }
}

/// Regression: removing from an empty (or fully drained) index is a
/// no-op fast path — it must not materialise the reversed path, must
/// not touch metrics-visible state, and must keep answering queries
/// correctly afterwards. Mutation-heavy streaming workloads hit the
/// empty-remove case constantly.
#[test]
fn remove_on_empty_index_is_a_noop_fast_path() {
    let dims = 6;
    let mut index = SubsetIndex::new(dims);
    let mut m = Metrics::new();
    let row = vec![0.0; dims];

    // Fresh-empty: every remove misses, nothing panics, nothing counts.
    for id in 0..8u32 {
        assert!(!index.remove(id, Subspace::from_bits(id as u64 & 0x3F)));
        assert!(!index.remove(id, Subspace::full(dims)));
        assert!(!index.remove(id, Subspace::from_bits(0)));
    }
    assert!(index.is_empty());
    assert_eq!(index.len(), 0);
    assert_eq!(index.node_count(), 1, "no trie nodes may be materialised");

    // Drained-empty: fill, empty out, then remove again — the fast path
    // must also cover an index that *became* empty.
    for id in 0..16u32 {
        index.put(id, &row, Subspace::from_bits(id as u64 % 5));
    }
    for id in 0..16u32 {
        assert!(index.remove(id, Subspace::from_bits(id as u64 % 5)));
    }
    assert!(index.is_empty());
    for id in 0..16u32 {
        assert!(!index.remove(id, Subspace::from_bits(id as u64 % 5)));
    }

    // The structure stays fully usable after the no-op removes.
    index.put(42, &row, Subspace::from_bits(0b11));
    let got = index.query(Subspace::from_bits(0b01), &mut m);
    assert_eq!(got, vec![42]);
    assert!(index.remove(42, Subspace::from_bits(0b11)));
    assert!(index.is_empty());
}

#[test]
fn node_count_is_bounded_by_total_path_length() {
    let mut rng = Rng64::seed_from_u64(7);
    let dims = 10;
    let mut index = SubsetIndex::new(dims);
    let row = vec![0.0; dims];
    let mut total_path = 0usize;
    for id in 0..500u32 {
        let s = Subspace::from_bits(rng.next_u64() & 0x3FF);
        total_path += s.complement(dims).size();
        index.put(id, &row, s);
    }
    // Root + at most one node per path element.
    assert!(index.node_count() <= 1 + total_path);
    assert_eq!(index.len(), 500);
}

#[test]
fn query_visits_no_more_nodes_than_exist() {
    let mut rng = Rng64::seed_from_u64(11);
    let dims = 8;
    let mut index = SubsetIndex::new(dims);
    let row = vec![0.0; dims];
    for id in 0..200u32 {
        index.put(id, &row, Subspace::from_bits(rng.next_u64() & 0xFF));
    }
    let nodes = index.node_count() as u64;
    for _ in 0..50 {
        let q = Subspace::from_bits(rng.next_u64() & 0xFF);
        let mut m = Metrics::new();
        let _ = index.query(q, &mut m);
        assert!(m.index_nodes_visited <= nodes);
        assert!(m.index_nodes_visited >= 1, "the root is always visited");
    }
}
