//! Ablation 4 (DESIGN.md): hash-map versus sorted-map trie nodes. The
//! paper notes hash maps give O(1) node access and sorted maps O(log d)
//! (Lemma 5.2 discussion).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use skyline_core::metrics::Metrics;
use skyline_core::subset_index::{SortedSubsetIndex, SubsetIndex};
use skyline_core::subspace::Subspace;
use skyline_data::rng::Rng64;

fn subspaces(dims: usize, count: usize, seed: u64) -> Vec<Subspace> {
    let mut rng = Rng64::seed_from_u64(seed);
    let mask = Subspace::full(dims).bits();
    (0..count)
        .map(|_| Subspace::from_bits(rng.next_u64() & mask))
        .collect()
}

fn bench_trie_node(c: &mut Criterion) {
    let mut group = c.benchmark_group("trie_node");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let dims = 16;
    let stored = subspaces(dims, 8192, 3);
    let queries = subspaces(dims, 512, 5);

    let row = vec![0.0; dims];
    let mut hash = SubsetIndex::new(dims);
    let mut sorted = SortedSubsetIndex::new(dims);
    for (i, &s) in stored.iter().enumerate() {
        hash.put(i as u32, &row, s);
        sorted.put(i as u32, &row, s);
    }

    group.bench_function(BenchmarkId::new("put", "hash"), |bencher| {
        bencher.iter(|| {
            let mut index = SubsetIndex::new(dims);
            for (i, &s) in stored.iter().enumerate() {
                index.put(i as u32, &row, s);
            }
            black_box(index.len())
        })
    });
    group.bench_function(BenchmarkId::new("put", "sorted"), |bencher| {
        bencher.iter(|| {
            let mut index = SortedSubsetIndex::new(dims);
            for (i, &s) in stored.iter().enumerate() {
                index.put(i as u32, &row, s);
            }
            black_box(index.len())
        })
    });
    group.bench_function(BenchmarkId::new("query", "hash"), |bencher| {
        let mut out = Vec::new();
        let mut m = Metrics::new();
        bencher.iter(|| {
            let mut total = 0;
            for &q in &queries {
                out.clear();
                hash.query_into(q, &mut out, &mut m);
                total += out.len();
            }
            black_box(total)
        })
    });
    group.bench_function(BenchmarkId::new("query", "sorted"), |bencher| {
        let mut out = Vec::new();
        let mut m = Metrics::new();
        bencher.iter(|| {
            let mut total = 0;
            for &q in &queries {
                out.clear();
                sorted.query_into(q, &mut out, &mut m);
                total += out.len();
            }
            black_box(total)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_trie_node);
criterion_main!(benches);
