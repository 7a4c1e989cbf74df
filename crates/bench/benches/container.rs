//! Ablation 1 (DESIGN.md): the paper's central claim — swapping the plain
//! skyline list for the subset-index container inside the same boosted
//! scan. Everything else (merge phase, sort order) is identical, so the
//! delta is the container. A second group compares the container's
//! in-place first-dominator query with the id query plus scan loop it
//! replaced, on the skyline of a real run.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use skyline_core::boost::{boosted_skyline, boosted_skyline_with, BoostConfig, SortStrategy};
use skyline_core::container::{ListContainer, SkylineContainer, SubsetContainer};
use skyline_core::dominance::dominates;
use skyline_core::merge::{merge, MergeConfig};
use skyline_core::metrics::Metrics;
use skyline_data::{anti_correlated, uniform_independent};

fn bench_container(c: &mut Criterion) {
    let mut group = c.benchmark_group("container");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    let workloads = [
        ("UI-8D", uniform_independent(20_000, 8, 3)),
        ("AC-8D", anti_correlated(20_000, 8, 3)),
        ("UI-12D", uniform_independent(10_000, 12, 3)),
    ];
    for (label, data) in &workloads {
        let config = BoostConfig {
            merge: MergeConfig::recommended(data.dims()),
            sort: SortStrategy::Sum,
            use_stop_point: false,
        };
        group.bench_with_input(BenchmarkId::new("list", label), data, |bencher, data| {
            bencher.iter(|| {
                let mut m = Metrics::new();
                let mut container = ListContainer::new();
                black_box(boosted_skyline_with(data, &config, &mut container, &mut m))
            })
        });
        group.bench_with_input(BenchmarkId::new("subset", label), data, |bencher, data| {
            bencher.iter(|| {
                let mut m = Metrics::new();
                let mut container: SubsetContainer = SubsetContainer::new(data.dims());
                black_box(boosted_skyline_with(data, &config, &mut container, &mut m))
            })
        });
    }
    group.finish();
}

fn bench_dominator_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("container_dominator_query");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    for (label, data) in [
        ("UI-8D", uniform_independent(20_000, 8, 3)),
        ("AC-8D", anti_correlated(20_000, 8, 3)),
    ] {
        // The container holds the skyline survivors of a real merge; every
        // survivor is a query.
        let mut m = Metrics::new();
        let outcome = merge(&data, &MergeConfig::recommended(data.dims()), &mut m);
        let config = BoostConfig {
            merge: MergeConfig::recommended(data.dims()),
            sort: SortStrategy::Sum,
            use_stop_point: false,
        };
        let skyline = boosted_skyline(&data, &config, &mut m).skyline;
        let mut container: SubsetContainer = SubsetContainer::new(data.dims());
        for (&q, &s) in outcome.survivors.iter().zip(&outcome.subspaces) {
            if skyline.binary_search(&q).is_ok() {
                container.put(q, data.point(q), s, &mut m);
            }
        }
        let queries: Vec<_> = outcome.survivors.iter().zip(&outcome.subspaces).collect();
        group.bench_function(BenchmarkId::new("query_then_scan", label), |bencher| {
            let mut out = Vec::new();
            bencher.iter(|| {
                let mut hits = 0usize;
                for (&q, &s) in &queries {
                    out.clear();
                    container.index().query_into(s, &mut out, &mut m);
                    for &c in &out {
                        m.count_dt();
                        if dominates(data.point(c), data.point(q)) {
                            hits += 1;
                            break;
                        }
                    }
                }
                black_box(hits)
            })
        });
        group.bench_function(BenchmarkId::new("find_dominator", label), |bencher| {
            bencher.iter(|| {
                let hits = queries
                    .iter()
                    .filter(|(&q, &s)| container.find_dominator(s, data.point(q), &mut m).is_some())
                    .count();
                black_box(hits)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_container, bench_dominator_query);
criterion_main!(benches);
