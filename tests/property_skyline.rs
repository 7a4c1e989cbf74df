//! Property-based tests (proptest) over the whole stack: dominance
//! algebra, subspace algebra, subset-index semantics, and
//! algorithm-vs-oracle agreement on arbitrary point sets.

use proptest::collection::vec;
use proptest::prelude::*;
use skyline_algos::{all_algorithms, SkylineAlgorithm};
use skyline_core::dataset::Dataset;
use skyline_core::dominance::{dominance, dominating_subspace, DomRelation};
use skyline_core::metrics::Metrics;
use skyline_core::subset_index::SubsetIndex;
use skyline_core::subspace::Subspace;
use skyline_integration_tests::oracle_skyline;

/// Small-domain coordinates force plenty of ties and duplicates — the
/// hard cases for sort-based algorithms.
fn arb_dataset(max_n: usize, dims: usize) -> impl Strategy<Value = Dataset> {
    vec(vec(0..6i8, dims), 1..max_n).prop_map(move |rows| {
        let rows: Vec<Vec<f64>> = rows
            .into_iter()
            .map(|r| r.into_iter().map(|v| v as f64).collect())
            .collect();
        Dataset::from_rows(&rows).expect("valid rows")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dominance_is_asymmetric_and_flip_consistent(
        a in vec(-5.0f64..5.0, 4),
        b in vec(-5.0f64..5.0, 4),
    ) {
        let ab = dominance(&a, &b);
        let ba = dominance(&b, &a);
        prop_assert_eq!(ab.flip(), ba);
        if ab == DomRelation::Dominates {
            prop_assert_eq!(ba, DomRelation::DominatedBy);
        }
    }

    #[test]
    fn dominance_is_transitive(
        a in vec(0..5i8, 3),
        b in vec(0..5i8, 3),
        c in vec(0..5i8, 3),
    ) {
        let f = |v: &Vec<i8>| -> Vec<f64> { v.iter().map(|&x| x as f64).collect() };
        let (a, b, c) = (f(&a), f(&b), f(&c));
        if dominance(&a, &b) == DomRelation::Dominates
            && dominance(&b, &c) == DomRelation::Dominates
        {
            prop_assert_eq!(dominance(&a, &c), DomRelation::Dominates);
        }
    }

    #[test]
    fn dominating_subspace_characterises_dominance(
        q in vec(0..5i8, 5),
        p in vec(0..5i8, 5),
    ) {
        let f = |v: &Vec<i8>| -> Vec<f64> { v.iter().map(|&x| x as f64).collect() };
        let (q, p) = (f(&q), f(&p));
        let d = dominating_subspace(&q, &p);
        // D_{q≺p} = D  ⇒  q ≺ p (the paper's consequence of Def. 3.4; the
        // converse is false — dominance needs only one strict dimension).
        if d == Subspace::full(5) {
            prop_assert_eq!(dominance(&q, &p), DomRelation::Dominates);
        }
        // q ≺ p  ⇒  D_{q≺p} ≠ ∅.
        if dominance(&q, &p) == DomRelation::Dominates {
            prop_assert!(!d.is_empty());
        }
        // D_{q≺p} = ∅  ⇔  p ⪯ q.
        let rel = dominance(&q, &p);
        prop_assert_eq!(
            d.is_empty(),
            rel == DomRelation::DominatedBy || rel == DomRelation::Equal
        );
    }

    #[test]
    fn subspace_algebra(a in any::<u64>(), b in any::<u64>(), dims in 1usize..=64) {
        let mask = Subspace::full(dims).bits();
        let sa = Subspace::from_bits(a & mask);
        let sb = Subspace::from_bits(b & mask);
        // De Morgan over the bounded universe.
        prop_assert_eq!(
            sa.union(sb).complement(dims),
            sa.complement(dims).intersection(sb.complement(dims))
        );
        // Inclusion via union/intersection.
        prop_assert_eq!(sa.is_subset_of(sb), sa.union(sb) == sb);
        prop_assert_eq!(sa.is_subset_of(sb), sa.intersection(sb) == sa);
        // Size is additive over disjoint parts.
        prop_assert_eq!(
            sa.size() + sa.complement(dims).size(),
            dims
        );
    }

    #[test]
    fn subset_index_matches_brute_force(
        entries in vec((0u32..64, 0u64..256), 0..40),
        query in 0u64..256,
    ) {
        let dims = 8;
        let mut index = SubsetIndex::new(dims);
        for &(id, bits) in &entries {
            index.put(id, &[0.0; 8], Subspace::from_bits(bits));
        }
        let q = Subspace::from_bits(query);
        let mut m = Metrics::new();
        let mut got = index.query(q, &mut m);
        got.sort_unstable();
        let mut expected: Vec<u32> = entries
            .iter()
            .filter(|(_, bits)| Subspace::from_bits(*bits).is_superset_of(q))
            .map(|(id, _)| *id)
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn every_algorithm_matches_the_oracle_3d(data in arb_dataset(60, 3)) {
        let expected = oracle_skyline(&data);
        for algo in all_algorithms() {
            prop_assert_eq!(
                algo.compute(&data),
                expected.clone(),
                "{} disagrees",
                algo.name()
            );
        }
    }

    #[test]
    fn every_algorithm_matches_the_oracle_5d(data in arb_dataset(40, 5)) {
        let expected = oracle_skyline(&data);
        for algo in all_algorithms() {
            prop_assert_eq!(
                algo.compute(&data),
                expected.clone(),
                "{} disagrees",
                algo.name()
            );
        }
    }

    #[test]
    fn non_skyline_points_have_a_skyline_dominator(data in arb_dataset(50, 4)) {
        let skyline = oracle_skyline(&data);
        for (q, q_row) in data.iter() {
            if skyline.contains(&q) {
                continue;
            }
            let dominated_by_skyline = skyline.iter().any(|&s| {
                dominance(data.point(s), q_row) == DomRelation::Dominates
            });
            prop_assert!(dominated_by_skyline, "point {} has no skyline dominator", q);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random interleavings of inserts and removes leave the streaming
    /// structure in agreement with a brute-force skyline of the alive
    /// multiset.
    #[test]
    fn streaming_matches_oracle_under_random_ops(
        ops in vec((vec(0..5i8, 3), any::<bool>(), any::<u8>()), 1..120)
    ) {
        use skyline_core::streaming::StreamingSkyline;
        let mut sky = StreamingSkyline::with_reference_size(3, 4).unwrap();
        let mut metrics = Metrics::new();
        let mut alive: Vec<(u32, Vec<f64>)> = Vec::new();
        for (row, is_remove, pick) in ops {
            if is_remove && !alive.is_empty() {
                let at = pick as usize % alive.len();
                let (id, _) = alive.remove(at);
                prop_assert!(sky.remove(id, &mut metrics));
            } else {
                let row: Vec<f64> = row.into_iter().map(|v| v as f64).collect();
                let id = sky.insert(&row, &mut metrics).unwrap();
                alive.push((id, row));
            }
            // Oracle over the alive multiset.
            let mut expected: Vec<u32> = Vec::new();
            for (i, (id, p)) in alive.iter().enumerate() {
                let dominated = alive.iter().enumerate().any(|(j, (_, q))| {
                    i != j && dominance(q, p) == DomRelation::Dominates
                });
                if !dominated {
                    expected.push(*id);
                }
            }
            expected.sort_unstable();
            prop_assert_eq!(sky.skyline(), expected);
        }
        sky.check_invariants();
    }

    /// Parallel partition-merge engines agree with the sequential oracle
    /// on arbitrary tie-heavy point sets, at arbitrary worker counts —
    /// including counts far above the point count.
    #[test]
    fn parallel_engines_match_oracle_at_arbitrary_thread_counts(
        data in arb_dataset(50, 4),
        threads in 1usize..12,
    ) {
        use skyline_algos::parallel_suite;
        let expected = oracle_skyline(&data);
        for algo in parallel_suite(None, threads) {
            prop_assert_eq!(
                algo.compute(&data),
                expected.clone(),
                "{} (threads={}) disagrees",
                algo.name(),
                threads
            );
        }
    }

    /// Duplicate rows enter and leave the skyline as a block, no matter
    /// where shard boundaries fall between the copies.
    #[test]
    fn shard_boundaries_preserve_duplicate_blocks(
        base in vec(vec(0..4i8, 3), 2..20),
        copies in 2usize..5,
        threads in 2usize..8,
    ) {
        use skyline_algos::boosted::SalsaSubset;
        use skyline_algos::parallel::ParallelBoosted;
        // Interleave `copies` copies of each base row so duplicates are
        // guaranteed to straddle shard boundaries.
        let rows: Vec<Vec<f64>> = (0..copies)
            .flat_map(|_| base.iter())
            .map(|r| r.iter().map(|&v| v as f64).collect())
            .collect();
        let data = Dataset::from_rows(&rows).expect("valid rows");
        let expected = oracle_skyline(&data);
        let engine = ParallelBoosted::new(SalsaSubset::default(), threads);
        let got = engine.compute(&data);
        prop_assert_eq!(got.clone(), expected, "threads={}", threads);
        // Every skyline row's duplicates are all present: ids i and
        // i + k·base.len() reference identical rows.
        let n = base.len();
        for &id in &got {
            let canonical = id as usize % n;
            for c in 0..copies {
                let twin = (canonical + c * n) as u32;
                prop_assert!(
                    got.contains(&twin),
                    "duplicate {} of skyline point {} dropped",
                    twin,
                    id
                );
            }
        }
    }

    /// The merge never drops or duplicates a point: the detailed outcome's
    /// skyline is strictly sorted, every id appears in its own shard's
    /// local skyline, and equals the sequential skyline as a set.
    #[test]
    fn shard_merge_neither_drops_nor_duplicates(
        data in arb_dataset(60, 3),
        threads in 2usize..7,
    ) {
        use skyline_algos::boosted::SfsSubset;
        use skyline_algos::parallel::ParallelBoosted;
        use skyline_obs::NoopRecorder;
        let engine = ParallelBoosted::new(SfsSubset::default(), threads);
        let outcome = engine.compute_detailed(&data, &mut NoopRecorder);
        prop_assert!(outcome.skyline.windows(2).all(|w| w[0] < w[1]));
        for &id in &outcome.skyline {
            let shard = outcome
                .shards
                .iter()
                .find(|s| (s.lo..s.hi).contains(&(id as usize)))
                .expect("inside a shard");
            prop_assert!(shard.skyline.contains(&id));
        }
        prop_assert_eq!(outcome.skyline, oracle_skyline(&data));
    }

    /// The k-skyband agrees with a brute-force dominator count, for all k.
    #[test]
    fn k_skyband_matches_oracle(data in arb_dataset(40, 3), k in 0usize..6) {
        use skyline_algos::skyband::k_skyband;
        let mut m = Metrics::new();
        let band = k_skyband(&data, k, &mut m);
        for (i, p) in data.iter() {
            let dominators = data
                .iter()
                .filter(|(j, q)| *j != i && dominance(q, p) == DomRelation::Dominates)
                .count();
            let member = band.iter().find(|b| b.id == i);
            if dominators < k {
                let member = member.expect("band member missing");
                prop_assert_eq!(member.dominators as usize, dominators);
            } else {
                prop_assert!(member.is_none(), "point {} should be outside the band", i);
            }
        }
    }
}
