//! Put/query cost of the subset index as a function of dimensionality and
//! stored cardinality — the paper's Lemma 5.2 (`O(d/2)` put) and
//! Lemma 5.3 (`O((d/2)²)` query) in practice — and the in-place
//! first-dominator query next to `query_into` plus a scan over the ids.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use skyline_core::dominance::dominates;
use skyline_core::metrics::Metrics;
use skyline_core::subset_index::SubsetIndex;
use skyline_core::subspace::Subspace;
use skyline_data::rng::Rng64;

fn random_subspaces(dims: usize, count: usize, seed: u64) -> Vec<Subspace> {
    let mut rng = Rng64::seed_from_u64(seed);
    let mask = Subspace::full(dims).bits();
    (0..count)
        .map(|_| Subspace::from_bits(rng.next_u64() & mask))
        .collect()
}

fn random_rows(dims: usize, count: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = Rng64::seed_from_u64(seed);
    (0..count)
        .map(|_| (0..dims).map(|_| rng.gen_f64()).collect())
        .collect()
}

fn bench_put(c: &mut Criterion) {
    let mut group = c.benchmark_group("subset_index_put");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for dims in [4usize, 8, 16, 24] {
        let subs = random_subspaces(dims, 4096, 11);
        let rows = random_rows(dims, 4096, 12);
        group.bench_with_input(BenchmarkId::from_parameter(dims), &dims, |bencher, _| {
            bencher.iter(|| {
                let mut index = SubsetIndex::new(dims);
                for (i, (&s, row)) in subs.iter().zip(&rows).enumerate() {
                    index.put(i as u32, row, s);
                }
                black_box(index.len())
            })
        });
    }
    group.finish();
}

fn bench_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("subset_index_query");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for dims in [4usize, 8, 16, 24] {
        let row = vec![0.0; dims];
        let mut index = SubsetIndex::new(dims);
        for (i, &s) in random_subspaces(dims, 4096, 13).iter().enumerate() {
            index.put(i as u32, &row, s);
        }
        let queries = random_subspaces(dims, 256, 17);
        group.bench_with_input(BenchmarkId::from_parameter(dims), &dims, |bencher, _| {
            let mut out = Vec::new();
            let mut m = Metrics::new();
            bencher.iter(|| {
                let mut total = 0usize;
                for &q in &queries {
                    out.clear();
                    index.query_into(q, &mut out, &mut m);
                    total += out.len();
                }
                black_box(total)
            })
        });
    }
    group.finish();
}

fn bench_query_vs_stored(c: &mut Criterion) {
    let mut group = c.benchmark_group("subset_index_query_vs_stored");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let dims = 8;
    for stored in [256usize, 1024, 4096, 16384] {
        let row = vec![0.0; dims];
        let mut index = SubsetIndex::new(dims);
        for (i, &s) in random_subspaces(dims, stored, 19).iter().enumerate() {
            index.put(i as u32, &row, s);
        }
        let queries = random_subspaces(dims, 64, 23);
        group.bench_with_input(
            BenchmarkId::from_parameter(stored),
            &stored,
            |bencher, _| {
                let mut out = Vec::new();
                let mut m = Metrics::new();
                bencher.iter(|| {
                    let mut total = 0usize;
                    for &q in &queries {
                        out.clear();
                        index.query_into(q, &mut out, &mut m);
                        total += out.len();
                    }
                    black_box(total)
                })
            },
        );
    }
    group.finish();
}

/// The first-dominator query against `query_into` followed by the scan
/// loop it replaces, on the same index and queries: the two report the
/// same hit and the same dominance-test count, so the difference is the
/// id copy and the scattered row reads.
fn bench_find_dominator(c: &mut Criterion) {
    let mut group = c.benchmark_group("subset_index_find_dominator");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for dims in [4usize, 8] {
        let stored = 4096;
        let rows = random_rows(dims, stored, 29);
        let mut index = SubsetIndex::new(dims);
        for (i, (&s, row)) in random_subspaces(dims, stored, 31)
            .iter()
            .zip(&rows)
            .enumerate()
        {
            index.put(i as u32, row, s);
        }
        let queries: Vec<(Subspace, Vec<f64>)> = random_subspaces(dims, 256, 37)
            .into_iter()
            .zip(random_rows(dims, 256, 41))
            .collect();
        group.bench_with_input(
            BenchmarkId::new("query_then_scan", dims),
            &dims,
            |bencher, _| {
                let mut out = Vec::new();
                let mut m = Metrics::new();
                bencher.iter(|| {
                    let mut hits = 0usize;
                    for (s, q) in &queries {
                        out.clear();
                        index.query_into(*s, &mut out, &mut m);
                        for &c in &out {
                            m.count_dt();
                            if dominates(&rows[c as usize], q) {
                                hits += 1;
                                break;
                            }
                        }
                    }
                    black_box(hits)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("find_dominator", dims),
            &dims,
            |bencher, _| {
                let mut m = Metrics::new();
                bencher.iter(|| {
                    let hits = queries
                        .iter()
                        .filter(|(s, q)| index.find_dominator(*s, q, &mut m).is_some())
                        .count();
                    black_box(hits)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_put,
    bench_query,
    bench_query_vs_stored,
    bench_find_dominator
);
criterion_main!(benches);
