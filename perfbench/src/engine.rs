//! `engine_ui`, `engine_ac`, `engine_co`: SDI-Subset called in process
//! on one seeded input, no sockets. Each input puts the time in a
//! different engine phase (UI: sort and scan, AC: scan, CO: merge).

use std::time::Instant;

use skyline_algos::boosted::SdiSubset;
use skyline_algos::{algorithm_by_name, SkylineAlgorithm};
use skyline_core::dataset::Dataset;
use skyline_core::metrics::Metrics;
use skyline_data::synthetic::{anti_correlated, correlated, uniform_independent};

use crate::common::{
    ids_checksum, mean, median, ms_since, permuted_dataset, rows_checksum, sub_seed, LoopClock,
    Outcome, RunConfig, DATA_SEED, SETUP_REPS,
};
use crate::spans::{PhaseRecorder, Spans};

/// The independent algorithm whose answer every SDI-Subset call must
/// reproduce.
const REFERENCE: &str = "BSkyTree-P";

#[derive(Debug, Clone, Copy)]
pub enum Input {
    Ui,
    Ac,
    Co,
}

impl Input {
    fn tag(self) -> &'static str {
        match self {
            Input::Ui => "UI",
            Input::Ac => "AC",
            Input::Co => "CO",
        }
    }

    /// The fixed point set in the run seed's order.
    fn generate(self, cfg: &RunConfig) -> Dataset {
        let s = &cfg.scale;
        let points = match self {
            Input::Ui => uniform_independent(s.engine_ui.0, s.engine_ui.1, DATA_SEED),
            Input::Ac => anti_correlated(s.engine_ac.0, s.engine_ac.1, DATA_SEED),
            Input::Co => correlated(s.engine_co.0, s.engine_co.1, DATA_SEED),
        };
        permuted_dataset(&points, sub_seed(cfg.seed, 1))
    }
}

pub fn run(input: Input, cfg: &RunConfig, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();

    // Set-up: generate the input from the seed, several times.
    let mut setup_ms = Vec::new();
    let mut data = None;
    for _ in 0..SETUP_REPS {
        drop(data.take());
        let t = Instant::now();
        data = Some(spans.time("data.generate", || input.generate(cfg)));
        setup_ms.push(ms_since(t));
    }
    let data = data.expect("at least one set-up");
    out.set("setup_s", median(&setup_ms) / 1e3);
    out.set("data.generate_ms", median(&setup_ms));
    out.stamp(
        "input",
        format!("{} n={} d={}", input.tag(), data.len(), data.dims()),
    );
    out.stamp(
        "input_checksum",
        format!("{:016x}", rows_checksum(data.iter().map(|(_, r)| r))),
    );

    // Reference answer from an independent algorithm, outside all timing.
    let t = Instant::now();
    let reference = algorithm_by_name(REFERENCE)
        .expect("reference algorithm is registered")
        .compute(&data);
    let want = ids_checksum(reference.iter().map(|&i| i as u64));
    out.stamp(
        "reference",
        format!(
            "{REFERENCE}: {} skyline points in {:.0} ms, checksum {want:016x}",
            reference.len(),
            ms_since(t)
        ),
    );

    let algo = SdiSubset::new(None);
    // Warm-up call: fixes the dominance-test count every later call must
    // repeat exactly.
    let mut warm = Metrics::new();
    let warm_ids = algo.compute_with_metrics(&data, &mut warm);
    let dt = warm.dominance_tests;
    out.attempted += 1;
    if ids_checksum(warm_ids.iter().map(|&i| i as u64)) != want {
        out.fail(true, "warm-up skyline differs from the reference".into());
    }

    let mut call_ms = Vec::new();
    let mut merge_ms = Vec::new();
    let mut sort_ms = Vec::new();
    let mut scan_ms = Vec::new();
    let mut coverage = Vec::new();
    let mut pruned = 0;
    let mut last = Metrics::new();
    let clock = LoopClock::start();
    let mut op = 0u64;
    while op == 0 || clock.elapsed_s() < cfg.seconds {
        op += 1;
        spans.set_op(op);
        let mut metrics = Metrics::new();
        let first_span = spans.all().len();
        let t = Instant::now();
        spans.begin("engine.skyline");
        let ids = if spans.enabled() {
            let mut rec = PhaseRecorder {
                spans: &mut *spans,
                pruned: 0,
            };
            let ids = algo.compute_traced(&data, &mut metrics, &mut rec);
            pruned = rec.pruned;
            ids
        } else {
            algo.compute_with_metrics(&data, &mut metrics)
        };
        spans.end("engine.skyline");
        let ms = ms_since(t);
        call_ms.push(ms);
        if spans.enabled() {
            let phase = |name: &str| -> f64 {
                spans.all()[first_span..]
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| s.ms())
                    .sum()
            };
            let (m, so, sc) = (
                phase("core.merge"),
                phase("core.boost.sort"),
                phase("core.boost.scan"),
            );
            merge_ms.push(m);
            sort_ms.push(so);
            scan_ms.push(sc);
            coverage.push((m + so + sc) / phase("engine.skyline"));
        }
        out.attempted += 1;
        if ids_checksum(ids.iter().map(|&i| i as u64)) != want {
            out.fail(
                true,
                format!("call {op}: skyline differs from the reference"),
            );
        } else if metrics.dominance_tests != dt {
            out.fail(
                true,
                format!(
                    "call {op}: {} dominance tests, the warm-up made {dt}",
                    metrics.dominance_tests
                ),
            );
        }
        last = metrics;
    }
    clock.finish(&mut out, call_ms.len() as u64);

    out.extra("read_p50_ms", "ms", median(&call_ms), call_ms.len());
    out.extra("read_mean_ms", "ms", mean(&call_ms), call_ms.len());
    out.extra("skyline_s", "s", median(&call_ms) / 1e3, call_ms.len());
    out.extra("dominance_tests", "count", dt as f64, call_ms.len() + 1);
    out.stamp("skyline_size", warm_ids.len());

    if spans.enabled() {
        let per_get = |x: u64| x as f64 / last.container_gets.max(1) as f64;
        out.set("core.merge_ms", median(&merge_ms));
        out.set("core.boost.sort_ms", median(&sort_ms));
        out.set("core.boost.scan_ms", median(&scan_ms));
        out.set("core.phase_coverage", median(&coverage));
        out.set("core.merge.pruned_ratio", pruned as f64 / data.len() as f64);
        out.set(
            "core.subset_index.candidates_per_get",
            per_get(last.candidates_returned),
        );
        out.set(
            "core.subset_index.nodes_per_get",
            per_get(last.index_nodes_visited),
        );
        out.set("core.dominance.tests", last.dominance_tests as f64);
    }
    out
}
