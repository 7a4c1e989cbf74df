//! The boosted presorted-scan driver — Section 1's application sketch:
//!
//! 1. run [`crate::merge`] to pick pivot points and assign every surviving
//!    point its maximum dominating subspace;
//! 2. run a sorting-based skyline scan in which the skyline is kept in a
//!    [`SkylineContainer`]: confirmed points are `put` with their row and
//!    subspace, and each testing point is tested in place against only
//!    the container's candidates for its subspace, up to the first
//!    dominator;
//! 3. the skyline is the merge-phase skyline plus the scan-phase
//!    confirmations.
//!
//! With a [`crate::container::SubsetContainer`] this yields the paper's
//! SFS-Subset / SaLSa-Subset; with a [`crate::container::ListContainer`]
//! it degenerates to the plain algorithm run on the merge survivors.
//!
//! The driver is correct for any *monotone* sort strategy: if `p ≺ q` then
//! `key(p) < key(q)`, so every dominator of a testing point is already
//! confirmed when the point is tested (the presorting condition of
//! Lemma 5.1).

use std::cmp::Ordering;

use skyline_obs::{NoopRecorder, Recorder};

use crate::cancel::{CancelToken, Cancelled, CHECK_STRIDE};
use crate::container::{SkylineContainer, SubsetContainer};
use crate::dataset::Dataset;
use crate::dominance::lex_cmp;
use crate::merge::{merge_traced_cancel, MergeConfig, MergeOutcome};
use crate::metrics::Metrics;
use crate::point::{coordinate_sum, max_coordinate, min_coordinate, PointId};
use crate::subspace::Subspace;

/// Monotone presorting strategies for the scan phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SortStrategy {
    /// Sum of coordinates — SFS's classic scoring function.
    Sum,
    /// Minimum coordinate with sum tie-break — SaLSa's `minC` function.
    MinCoordinate,
    /// Squared Euclidean distance to the dataset's minimum corner — the
    /// scoring the paper uses for pivot selection; usable as a scan order
    /// too.
    Euclidean,
}

impl SortStrategy {
    /// Sorting key of one point: `(primary, secondary)` with
    /// lexicographic order. Monotone w.r.t. dominance for each strategy
    /// (for `Euclidean` this relies on the min-corner shift, see
    /// [`crate::merge`] module docs).
    fn key(self, point: &[f64], min_corner: &[f64]) -> (f64, f64) {
        match self {
            SortStrategy::Sum => (coordinate_sum(point), 0.0),
            SortStrategy::MinCoordinate => (min_coordinate(point), coordinate_sum(point)),
            SortStrategy::Euclidean => (
                point
                    .iter()
                    .zip(min_corner)
                    .map(|(v, m)| (v - m) * (v - m))
                    .sum(),
                0.0,
            ),
        }
    }
}

/// Sort `records`, `(key, position)` pairs, by key, then by
/// `secondary(position)`, then by `tie`, and return the positions in that
/// order.
///
/// The sort runs over the contiguous records, so a comparison reads both
/// keys in place instead of chasing two positions to their rows. Runs of
/// equal keys are then ordered by the rest of the chain: `secondary` is
/// computed once per position in such a run, written over the (equal)
/// key, and `tie` runs only when both keys are equal. So inputs with many
/// equal values cost one secondary key per tied position, and no side
/// vector is kept for the positions that do not tie. Callers end `tie`
/// with an id comparison, which makes the order strict and total, so the
/// result does not depend on the sort algorithm.
pub fn presort(
    records: &mut [(f64, u32)],
    secondary: impl Fn(usize) -> f64,
    tie: impl Fn(usize, usize) -> Ordering,
) -> Vec<u32> {
    records.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let mut start = 0;
    while start < records.len() {
        let key = records[start].0;
        let len = records[start..]
            .iter()
            .position(|r| r.0.total_cmp(&key).is_ne())
            .unwrap_or(records.len() - start);
        let run = &mut records[start..start + len];
        if len > 1 {
            for r in run.iter_mut() {
                r.0 = secondary(r.1 as usize);
            }
            run.sort_unstable_by(|a, b| {
                a.0.total_cmp(&b.0)
                    .then_with(|| tie(a.1 as usize, b.1 as usize))
            });
        }
        start += len;
    }
    records.iter().map(|r| r.1).collect()
}

/// Configuration of a boosted run.
#[derive(Debug, Clone)]
pub struct BoostConfig {
    /// Merge-phase configuration (stability threshold, pivot cap).
    pub merge: MergeConfig,
    /// Scan-phase presorting strategy.
    pub sort: SortStrategy,
    /// Enable SaLSa's stop-point rule: once the `minC` of the next testing
    /// point strictly exceeds the smallest `maxC` seen so far, every
    /// remaining point is provably dominated and the scan stops.
    pub use_stop_point: bool,
}

/// Detailed result of a boosted run.
#[derive(Debug, Clone)]
pub struct BoostOutcome {
    /// Ids of the skyline points, ascending.
    pub skyline: Vec<PointId>,
    /// Number of merge-phase pivots used.
    pub pivots: usize,
    /// Whether the merge phase alone finished the computation.
    pub merge_exhausted: bool,
}

/// Run the boosted skyline computation with the paper's subset container.
pub fn boosted_skyline(
    data: &Dataset,
    config: &BoostConfig,
    metrics: &mut Metrics,
) -> BoostOutcome {
    let mut container: SubsetContainer = SubsetContainer::new(data.dims());
    boosted_skyline_with(data, config, &mut container, metrics)
}

/// [`boosted_skyline`] with tracing (see [`boosted_skyline_traced_with`]).
pub fn boosted_skyline_traced(
    data: &Dataset,
    config: &BoostConfig,
    metrics: &mut Metrics,
    rec: &mut dyn Recorder,
) -> BoostOutcome {
    let mut container: SubsetContainer = SubsetContainer::new(data.dims());
    boosted_skyline_traced_with(data, config, &mut container, metrics, rec)
}

/// Run the boosted computation with an arbitrary container (used by the
/// container ablation and by the degenerate list variant).
pub fn boosted_skyline_with(
    data: &Dataset,
    config: &BoostConfig,
    container: &mut dyn SkylineContainer,
    metrics: &mut Metrics,
) -> BoostOutcome {
    boosted_skyline_traced_with(data, config, container, metrics, &mut NoopRecorder)
}

/// [`boosted_skyline_with`] with tracing: the merge phase runs under a
/// `"merge"` span with per-iteration events, the survivor presort under a
/// `"sort"` span, and the container-filtered scan under a `"scan"` span.
/// Recorder calls happen only at these phase boundaries, never inside the
/// per-point loop.
pub fn boosted_skyline_traced_with(
    data: &Dataset,
    config: &BoostConfig,
    container: &mut dyn SkylineContainer,
    metrics: &mut Metrics,
    rec: &mut dyn Recorder,
) -> BoostOutcome {
    boosted_skyline_cancellable_with(data, config, container, metrics, rec, &CancelToken::none())
        .expect("the none token never cancels")
}

/// Cancellable boosted run with the paper's subset container. The token
/// is checked once per merge pivot and every [`CHECK_STRIDE`] points of
/// the scan phase; on cancellation `Err(Cancelled)` is returned and the
/// partial state is discarded.
pub fn boosted_skyline_cancellable(
    data: &Dataset,
    config: &BoostConfig,
    metrics: &mut Metrics,
    cancel: &CancelToken,
) -> Result<BoostOutcome, Cancelled> {
    let mut container: SubsetContainer = SubsetContainer::new(data.dims());
    boosted_skyline_cancellable_with(
        data,
        config,
        &mut container,
        metrics,
        &mut NoopRecorder,
        cancel,
    )
}

/// [`boosted_skyline_traced_with`] with cooperative cancellation — the
/// full-generality entry point the serving layer's deadline support is
/// built on.
pub fn boosted_skyline_cancellable_with(
    data: &Dataset,
    config: &BoostConfig,
    container: &mut dyn SkylineContainer,
    metrics: &mut Metrics,
    rec: &mut dyn Recorder,
    cancel: &CancelToken,
) -> Result<BoostOutcome, Cancelled> {
    let outcome = merge_traced_cancel(data, &config.merge, metrics, rec, cancel)?;
    let mut skyline = outcome.confirmed_skyline();
    if outcome.exhausted {
        return Ok(BoostOutcome {
            skyline,
            pivots: outcome.pivots.len(),
            merge_exhausted: true,
        });
    }
    scan_survivors(
        data,
        config,
        &outcome,
        container,
        &mut skyline,
        metrics,
        rec,
        cancel,
    )?;
    skyline.sort_unstable();
    Ok(BoostOutcome {
        skyline,
        pivots: outcome.pivots.len(),
        merge_exhausted: false,
    })
}

/// The scan phase: presort the merge survivors and filter them through the
/// container.
#[allow(clippy::too_many_arguments)]
fn scan_survivors(
    data: &Dataset,
    config: &BoostConfig,
    outcome: &MergeOutcome,
    container: &mut dyn SkylineContainer,
    skyline: &mut Vec<PointId>,
    metrics: &mut Metrics,
    rec: &mut dyn Recorder,
    cancel: &CancelToken,
) -> Result<(), Cancelled> {
    rec.span_start("sort");
    let min_corner = if config.sort == SortStrategy::Euclidean {
        outcome.dataset_min_corner(data)
    } else {
        Vec::new()
    };

    // Presort survivor positions (into outcome.survivors, so the
    // parallel subspace vector stays addressable).
    let survivors = &outcome.survivors;
    let key = |pos: usize| config.sort.key(data.point(survivors[pos]), &min_corner);
    let mut records: Vec<(f64, u32)> = (0..survivors.len())
        .map(|pos| (key(pos).0, pos as u32))
        .collect();
    let order = presort(
        &mut records,
        |pos| key(pos).1,
        |a, b| {
            let (qa, qb) = (survivors[a], survivors[b]);
            // Rounding-equal keys: keep dominators first (see `lex_cmp`).
            lex_cmp(data.point(qa), data.point(qb)).then(qa.cmp(&qb))
        },
    );
    // The sort-only buffer goes before the scan fills the container.
    drop(records);
    rec.span_end("sort");
    rec.span_start("scan");

    // Stop-point state: smallest maxC over every point seen so far (the
    // merge-phase skyline counts as seen).
    let mut best_max = f64::INFINITY;
    if config.use_stop_point {
        for &p in skyline.iter() {
            best_max = best_max.min(max_coordinate(data.point(p)));
        }
    }

    for (scanned, &pos) in order.iter().enumerate() {
        if scanned % CHECK_STRIDE == 0 && cancel.check().is_err() {
            rec.span_end("scan");
            return Err(Cancelled);
        }
        let q = outcome.survivors[pos as usize];
        let q_row = data.point(q);
        if config.use_stop_point && min_coordinate(q_row) > best_max {
            // This point is strictly dominated by the stop point (every
            // coordinate of the stop point is below every coordinate of
            // q). Cutting the *rest* of the scan is additionally sound
            // only under minC ordering, where all remaining points have
            // an even larger minC; under other sort orders only the
            // current point may be skipped.
            if config.sort == SortStrategy::MinCoordinate {
                metrics.stop_pruned += (order.len() - scanned) as u64;
                break;
            }
            metrics.stop_pruned += 1;
            continue;
        }
        let q_sub: Subspace = outcome.subspaces[pos as usize];
        let dominated = container.find_dominator(q_sub, q_row, metrics).is_some();
        if config.use_stop_point {
            best_max = best_max.min(max_coordinate(q_row));
        }
        if !dominated {
            container.put(q, q_row, q_sub, metrics);
            skyline.push(q);
        }
    }
    rec.span_end("scan");
    Ok(())
}

/// Minimal deterministic PRNG for the fuzz tests below. `skyline-core`
/// sits at the bottom of the workspace, so it cannot dev-depend on
/// `skyline-data`'s generator without a cycle; splitmix64 is plenty for
/// shaking out scan-order edge cases.
#[cfg(test)]
mod test_rng {
    pub struct TestRng(u64);

    impl TestRng {
        pub fn seed_from_u64(seed: u64) -> Self {
            TestRng(seed)
        }

        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `0..bound` (modulo bias is irrelevant at these sizes).
        pub fn gen_below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound.max(1)
        }

        pub fn gen_bool(&mut self, p: f64) -> bool {
            ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::ListContainer;
    use crate::dominance::dominance;
    use crate::dominance::DomRelation;
    use crate::merge::PivotScore;

    #[test]
    fn presort_matches_the_full_comparator_chain_on_ties() {
        // Few distinct keys, so most comparisons tie on both keys; -0.0
        // and 0.0 are distinct under `total_cmp`.
        let keys = [0.0, -0.0, 1.0, 2.5];
        let mut state = 17u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        for len in [0usize, 1, 2, 7, 300] {
            let primary: Vec<f64> = (0..len).map(|_| keys[next(4) as usize]).collect();
            let secondary: Vec<f64> = (0..len).map(|_| keys[next(4) as usize]).collect();
            let third: Vec<u64> = (0..len).map(|_| next(3)).collect();
            let tie = |a: usize, b: usize| third[a].cmp(&third[b]).then(a.cmp(&b));
            let mut want: Vec<u32> = (0..len as u32).collect();
            want.sort_by(|&a, &b| {
                let (a, b) = (a as usize, b as usize);
                primary[a]
                    .total_cmp(&primary[b])
                    .then_with(|| secondary[a].total_cmp(&secondary[b]))
                    .then_with(|| tie(a, b))
            });
            let mut records: Vec<(f64, u32)> = (0..len).map(|i| (primary[i], i as u32)).collect();
            let got = presort(&mut records, |i| secondary[i], tie);
            assert_eq!(got, want, "len {len}");
        }
    }

    /// Quadratic reference skyline.
    fn naive_skyline(data: &Dataset) -> Vec<PointId> {
        let mut out = Vec::new();
        for (i, p) in data.iter() {
            let mut dominated = false;
            for (j, q) in data.iter() {
                if i != j && dominance(q, p) == DomRelation::Dominates {
                    dominated = true;
                    break;
                }
            }
            if !dominated {
                out.push(i);
            }
        }
        out
    }

    fn configs(dims: usize) -> Vec<BoostConfig> {
        let merge = MergeConfig::recommended(dims);
        vec![
            BoostConfig {
                merge: merge.clone(),
                sort: SortStrategy::Sum,
                use_stop_point: false,
            },
            BoostConfig {
                merge: merge.clone(),
                sort: SortStrategy::MinCoordinate,
                use_stop_point: true,
            },
            BoostConfig {
                merge,
                sort: SortStrategy::Euclidean,
                use_stop_point: false,
            },
        ]
    }

    fn grid_dataset() -> Dataset {
        // 4-D grid with plenty of duplicates and dominated points.
        let mut rows = Vec::new();
        for a in 0..3 {
            for b in 0..3 {
                for c in 0..3 {
                    for d in 0..3 {
                        rows.push([a as f64, b as f64, c as f64, d as f64]);
                    }
                }
            }
        }
        Dataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn matches_naive_on_grid_for_all_configs() {
        let data = grid_dataset();
        let expected = naive_skyline(&data);
        for config in configs(data.dims()) {
            let mut m = Metrics::new();
            let out = boosted_skyline(&data, &config, &mut m);
            assert_eq!(out.skyline, expected, "config {config:?}");
        }
    }

    #[test]
    fn list_container_variant_matches_subset_variant() {
        let data = grid_dataset();
        for config in configs(data.dims()) {
            let mut m1 = Metrics::new();
            let mut m2 = Metrics::new();
            let mut list = ListContainer::new();
            let with_list = boosted_skyline_with(&data, &config, &mut list, &mut m1);
            let with_subset = boosted_skyline(&data, &config, &mut m2);
            assert_eq!(with_list.skyline, with_subset.skyline);
            // The subset container can only reduce candidate volume.
            assert!(m2.candidates_returned <= m1.candidates_returned);
        }
    }

    #[test]
    fn anti_correlated_line_is_all_skyline() {
        let rows: Vec<[f64; 2]> = (0..40).map(|i| [i as f64, 39.0 - i as f64]).collect();
        let data = Dataset::from_rows(&rows).unwrap();
        for config in configs(2) {
            let mut m = Metrics::new();
            let out = boosted_skyline(&data, &config, &mut m);
            assert_eq!(out.skyline.len(), 40, "config {config:?}");
        }
    }

    #[test]
    fn stop_point_prunes_dominated_tail() {
        // Three skyline points plus a dominated cloud that survives the
        // single-pivot merge (it beats the pivot in dimension 1) but whose
        // minC exceeds the best maxC once [0.45, 0.45] is confirmed — so
        // the stop rule must cut it without dominance tests.
        let mut rows = vec![[0.05, 0.5], [0.5, 0.05], [0.45, 0.45]];
        for i in 0..50 {
            rows.push([2.0 + i as f64, 0.46]);
        }
        let data = Dataset::from_rows(&rows).unwrap();
        let config = BoostConfig {
            merge: MergeConfig {
                sigma: 2,
                max_pivots: 1,
                score: PivotScore::default(),
            },
            sort: SortStrategy::MinCoordinate,
            use_stop_point: true,
        };
        let mut m = Metrics::new();
        let out = boosted_skyline(&data, &config, &mut m);
        assert_eq!(out.skyline, vec![0, 1, 2]);
        assert!(m.stop_pruned > 0, "stop point should fire");
    }

    #[test]
    fn duplicates_are_all_reported() {
        let data =
            Dataset::from_rows(&[[0.5, 0.5], [0.5, 0.5], [0.1, 0.9], [0.1, 0.9], [0.9, 0.9]])
                .unwrap();
        let expected = naive_skyline(&data);
        assert_eq!(expected, vec![0, 1, 2, 3]);
        for config in configs(2) {
            let mut m = Metrics::new();
            let out = boosted_skyline(&data, &config, &mut m);
            assert_eq!(out.skyline, expected, "config {config:?}");
        }
    }

    #[test]
    fn merge_exhaustion_short_circuits() {
        let data = Dataset::from_rows(&[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]).unwrap();
        let config = BoostConfig {
            merge: MergeConfig {
                sigma: 2,
                max_pivots: 16,
                score: PivotScore::default(),
            },
            sort: SortStrategy::Sum,
            use_stop_point: false,
        };
        let mut m = Metrics::new();
        let out = boosted_skyline(&data, &config, &mut m);
        assert!(out.merge_exhausted);
        assert_eq!(out.skyline, vec![0]);
    }

    #[test]
    fn single_point_dataset() {
        let data = Dataset::from_rows(&[[3.0, 4.0, 5.0]]).unwrap();
        for config in configs(3) {
            let mut m = Metrics::new();
            let out = boosted_skyline(&data, &config, &mut m);
            assert_eq!(out.skyline, vec![0]);
        }
    }

    #[test]
    fn cancellable_run_matches_plain_and_honours_the_token() {
        let data = grid_dataset();
        for config in configs(data.dims()) {
            let mut m1 = Metrics::new();
            let mut m2 = Metrics::new();
            let plain = boosted_skyline(&data, &config, &mut m1);
            let free = boosted_skyline_cancellable(&data, &config, &mut m2, &CancelToken::none())
                .expect("none token never cancels");
            assert_eq!(plain.skyline, free.skyline);

            let token = CancelToken::manual();
            token.cancel();
            let mut m3 = Metrics::new();
            assert!(
                boosted_skyline_cancellable(&data, &config, &mut m3, &token).is_err(),
                "cancelled token must abort"
            );
        }
    }

    #[test]
    fn randomised_agreement_with_naive() {
        let mut rng = crate::boost::test_rng::TestRng::seed_from_u64(42);
        for &(n, d) in &[(60usize, 2usize), (80, 3), (120, 5), (64, 8)] {
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..d).map(|_| (rng.gen_below(12) as f64) / 4.0).collect())
                .collect();
            let data = Dataset::from_rows(&rows).unwrap();
            let expected = naive_skyline(&data);
            for config in configs(d) {
                let mut m = Metrics::new();
                let out = boosted_skyline(&data, &config, &mut m);
                assert_eq!(out.skyline, expected, "n={n} d={d} config={config:?}");
            }
        }
    }
}

#[cfg(test)]
mod audit_tests {
    use super::*;
    use crate::dominance::{dominance, DomRelation};
    use crate::merge::PivotScore;

    fn naive(data: &Dataset) -> Vec<PointId> {
        let mut out = Vec::new();
        for (i, p) in data.iter() {
            let mut dom = false;
            for (j, q) in data.iter() {
                if i != j && dominance(q, p) == DomRelation::Dominates {
                    dom = true;
                    break;
                }
            }
            if !dom {
                out.push(i);
            }
        }
        out
    }

    #[test]
    fn stop_point_with_sum_sort_fuzz() {
        for seed in 0..200u64 {
            let mut rng = crate::boost::test_rng::TestRng::seed_from_u64(seed);
            let n = 40;
            let d = 3;
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..d).map(|_| (rng.gen_below(20) as f64) / 4.0).collect())
                .collect();
            let data = Dataset::from_rows(&rows).unwrap();
            let expected = naive(&data);
            for sort in [SortStrategy::Sum, SortStrategy::Euclidean] {
                let config = BoostConfig {
                    merge: MergeConfig {
                        sigma: 2,
                        max_pivots: 2,
                        score: PivotScore::default(),
                    },
                    sort,
                    use_stop_point: true,
                };
                let mut m = Metrics::new();
                let out = boosted_skyline(&data, &config, &mut m);
                assert_eq!(
                    out.skyline, expected,
                    "seed {seed} sort {sort:?} rows {rows:?}"
                );
            }
        }
    }
}

#[cfg(test)]
mod audit_tests2 {
    use super::*;
    use crate::dominance::{dominance, DomRelation};
    use crate::merge::PivotScore;

    fn naive(data: &Dataset) -> Vec<PointId> {
        let mut out = Vec::new();
        for (i, p) in data.iter() {
            let mut dom = false;
            for (j, q) in data.iter() {
                if i != j && dominance(q, p) == DomRelation::Dominates {
                    dom = true;
                    break;
                }
            }
            if !dom {
                out.push(i);
            }
        }
        out
    }

    #[test]
    fn stop_point_sum_sort_heavy_tail() {
        let mut failures = 0;
        for seed in 0..2000u64 {
            let mut rng = crate::boost::test_rng::TestRng::seed_from_u64(seed);
            let n = 30;
            let d = 2 + rng.gen_below(3) as usize;
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| {
                    (0..d)
                        .map(|_| {
                            if rng.gen_bool(0.3) {
                                rng.gen_below(5) as f64 * 10.0
                            } else {
                                rng.gen_below(10) as f64 / 10.0
                            }
                        })
                        .collect()
                })
                .collect();
            let data = Dataset::from_rows(&rows).unwrap();
            let expected = naive(&data);
            for sort in [SortStrategy::Sum, SortStrategy::Euclidean] {
                let config = BoostConfig {
                    merge: MergeConfig {
                        sigma: 2,
                        max_pivots: 1 + rng.gen_below(3) as usize,
                        score: PivotScore::default(),
                    },
                    sort,
                    use_stop_point: true,
                };
                let mut m = Metrics::new();
                let out = boosted_skyline(&data, &config, &mut m);
                if out.skyline != expected {
                    failures += 1;
                    if failures < 3 {
                        eprintln!("MISMATCH seed {seed} d {d} sort {sort:?}\nrows {rows:?}\ngot {:?}\nexp {:?}", out.skyline, expected);
                    }
                }
            }
        }
        assert_eq!(failures, 0, "{failures} mismatches");
    }
}

#[cfg(test)]
mod audit_tests3 {
    use super::*;
    use crate::merge::PivotScore;

    #[test]
    fn infinite_coordinates() {
        // point 1 dominates point 0; both have NaN Euclidean scores.
        let data = Dataset::from_rows(&[[f64::INFINITY, 5.0], [f64::INFINITY, 1.0]]).unwrap();
        let config = BoostConfig {
            merge: MergeConfig {
                sigma: 2,
                max_pivots: 16,
                score: PivotScore::Euclidean,
            },
            sort: SortStrategy::Sum,
            use_stop_point: false,
        };
        let mut m = Metrics::new();
        let out = boosted_skyline(&data, &config, &mut m);
        assert_eq!(out.skyline, vec![1], "got {:?}", out.skyline);
    }

    #[test]
    fn sum_absorption() {
        // q=[1e200,0.5] dominates p=[1e200,1.0] but sum keys are equal.
        let data = Dataset::from_rows(&[[1e200, 1.0], [1e200, 0.5], [0.0, 3.0]]).unwrap();
        let config = BoostConfig {
            merge: MergeConfig {
                sigma: 2,
                max_pivots: 1,
                score: PivotScore::Euclidean,
            },
            sort: SortStrategy::Sum,
            use_stop_point: false,
        };
        let mut m = Metrics::new();
        let out = boosted_skyline(&data, &config, &mut m);
        assert_eq!(out.skyline, vec![1, 2], "got {:?}", out.skyline);
    }
}
