//! The paper's boosted algorithms: SFS-Subset, SaLSa-Subset, SDI-Subset.
//!
//! Each keeps its base algorithm's design untouched (sort order, stop
//! rule, dimension traversal) and swaps the skyline store for the
//! subset-query index: the merge phase (Algorithm 1) assigns every
//! surviving point a maximum dominating subspace, confirmed skyline points
//! are `put` into the index under their subspace, and every test retrieves
//! only the comparable candidates (Lemma 5.1).
//!
//! `sigma = None` selects the paper's recommended stability threshold
//! `σ = round(d/3)` at run time.

use skyline_core::boost::{
    boosted_skyline, boosted_skyline_cancellable, boosted_skyline_traced, presort, BoostConfig,
    SortStrategy,
};
use skyline_core::cancel::{CancelToken, Cancelled, CHECK_STRIDE};
use skyline_core::container::{SkylineContainer, SubsetContainer};
use skyline_core::dataset::Dataset;
use skyline_core::dominance::{lex_cmp, points_equal};
use skyline_core::merge::{merge_traced_cancel, MergeConfig};
use skyline_core::metrics::Metrics;
use skyline_core::point::{coordinate_sum, PointId};
use skyline_obs::{NoopRecorder, Recorder};

use crate::SkylineAlgorithm;

fn merge_config(sigma: Option<usize>, dims: usize) -> MergeConfig {
    match sigma {
        None => MergeConfig::recommended(dims),
        Some(s) => {
            let mut config = MergeConfig::recommended(dims);
            config.sigma = s.clamp(2, dims.max(2));
            config
        }
    }
}

/// SFS boosted by the subset index (sum presorting, no stop rule).
#[derive(Debug, Clone, Copy, Default)]
pub struct SfsSubset {
    /// Stability threshold override; `None` = `round(d/3)`.
    pub sigma: Option<usize>,
}

impl SfsSubset {
    /// Create with an optional stability-threshold override.
    pub fn new(sigma: Option<usize>) -> Self {
        SfsSubset { sigma }
    }
}

impl SkylineAlgorithm for SfsSubset {
    fn name(&self) -> &str {
        "SFS-Subset"
    }

    fn compute_with_metrics(&self, data: &Dataset, metrics: &mut Metrics) -> Vec<PointId> {
        let config = BoostConfig {
            merge: merge_config(self.sigma, data.dims()),
            sort: SortStrategy::Sum,
            use_stop_point: false,
        };
        boosted_skyline(data, &config, metrics).skyline
    }

    fn compute_cancellable(
        &self,
        data: &Dataset,
        metrics: &mut Metrics,
        cancel: &CancelToken,
    ) -> Result<Vec<PointId>, Cancelled> {
        let config = BoostConfig {
            merge: merge_config(self.sigma, data.dims()),
            sort: SortStrategy::Sum,
            use_stop_point: false,
        };
        boosted_skyline_cancellable(data, &config, metrics, cancel).map(|o| o.skyline)
    }

    fn compute_traced(
        &self,
        data: &Dataset,
        metrics: &mut Metrics,
        rec: &mut dyn Recorder,
    ) -> Vec<PointId> {
        let config = BoostConfig {
            merge: merge_config(self.sigma, data.dims()),
            sort: SortStrategy::Sum,
            use_stop_point: false,
        };
        boosted_skyline_traced(data, &config, metrics, rec).skyline
    }
}

/// SaLSa boosted by the subset index (minC presorting + stop point).
#[derive(Debug, Clone, Copy, Default)]
pub struct SalsaSubset {
    /// Stability threshold override; `None` = `round(d/3)`.
    pub sigma: Option<usize>,
}

impl SalsaSubset {
    /// Create with an optional stability-threshold override.
    pub fn new(sigma: Option<usize>) -> Self {
        SalsaSubset { sigma }
    }
}

impl SkylineAlgorithm for SalsaSubset {
    fn name(&self) -> &str {
        "SaLSa-Subset"
    }

    fn compute_with_metrics(&self, data: &Dataset, metrics: &mut Metrics) -> Vec<PointId> {
        let config = BoostConfig {
            merge: merge_config(self.sigma, data.dims()),
            sort: SortStrategy::MinCoordinate,
            use_stop_point: true,
        };
        boosted_skyline(data, &config, metrics).skyline
    }

    fn compute_cancellable(
        &self,
        data: &Dataset,
        metrics: &mut Metrics,
        cancel: &CancelToken,
    ) -> Result<Vec<PointId>, Cancelled> {
        let config = BoostConfig {
            merge: merge_config(self.sigma, data.dims()),
            sort: SortStrategy::MinCoordinate,
            use_stop_point: true,
        };
        boosted_skyline_cancellable(data, &config, metrics, cancel).map(|o| o.skyline)
    }

    fn compute_traced(
        &self,
        data: &Dataset,
        metrics: &mut Metrics,
        rec: &mut dyn Recorder,
    ) -> Vec<PointId> {
        let config = BoostConfig {
            merge: merge_config(self.sigma, data.dims()),
            sort: SortStrategy::MinCoordinate,
            use_stop_point: true,
        };
        boosted_skyline_traced(data, &config, metrics, rec).skyline
    }
}

/// SDI boosted by the subset index.
///
/// The merge phase runs first; the SDI dimension-index machinery then
/// scans only the merge survivors, and every dominance test goes through
/// the subset index instead of the per-dimension skylines (which remain
/// only as counts for the dimension-switch heuristic).
#[derive(Debug, Clone, Copy, Default)]
pub struct SdiSubset {
    /// Stability threshold override; `None` = `round(d/3)`.
    pub sigma: Option<usize>,
}

impl SdiSubset {
    /// Create with an optional stability-threshold override.
    pub fn new(sigma: Option<usize>) -> Self {
        SdiSubset { sigma }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    Unknown,
    Skyline,
    Dominated,
}

impl SkylineAlgorithm for SdiSubset {
    fn name(&self) -> &str {
        "SDI-Subset"
    }

    fn compute_with_metrics(&self, data: &Dataset, metrics: &mut Metrics) -> Vec<PointId> {
        self.compute_traced(data, metrics, &mut NoopRecorder)
    }

    fn compute_cancellable(
        &self,
        data: &Dataset,
        metrics: &mut Metrics,
        cancel: &CancelToken,
    ) -> Result<Vec<PointId>, Cancelled> {
        self.compute_traced_cancel(data, metrics, &mut NoopRecorder, cancel)
    }

    fn compute_traced(
        &self,
        data: &Dataset,
        metrics: &mut Metrics,
        rec: &mut dyn Recorder,
    ) -> Vec<PointId> {
        self.compute_traced_cancel(data, metrics, rec, &CancelToken::none())
            .expect("the none token never cancels")
    }
}

impl SdiSubset {
    /// The full SDI-Subset machinery with tracing and cancellation. The
    /// token is checked once per merge pivot and every [`CHECK_STRIDE`]
    /// steps of the dimension traversal.
    fn compute_traced_cancel(
        &self,
        data: &Dataset,
        metrics: &mut Metrics,
        rec: &mut dyn Recorder,
        cancel: &CancelToken,
    ) -> Result<Vec<PointId>, Cancelled> {
        let dims = data.dims();
        let outcome =
            merge_traced_cancel(data, &merge_config(self.sigma, dims), metrics, rec, cancel)?;
        let mut skyline = outcome.confirmed_skyline();
        if outcome.exhausted {
            return Ok(skyline);
        }
        rec.span_start("sort");

        let survivors = &outcome.survivors;
        let m = survivors.len();
        // Per-dimension sorted indexes over survivor *positions*, each
        // presorted as contiguous (value, position) records in one reused
        // buffer; coordinate sums are computed only for tied values.
        let mut records: Vec<(f64, u32)> = Vec::with_capacity(m);
        let orders: Vec<Vec<u32>> = (0..dims)
            .map(|dim| {
                records.clear();
                records.extend((0..m).map(|pos| (data.value(survivors[pos], dim), pos as u32)));
                presort(
                    &mut records,
                    |pos| coordinate_sum(data.point(survivors[pos])),
                    |a, b| {
                        let (qa, qb) = (survivors[a], survivors[b]);
                        lex_cmp(data.point(qa), data.point(qb)).then(qa.cmp(&qb))
                    },
                )
            })
            .collect();
        // The sort-only buffer goes before the scan allocates its index.
        drop(records);

        // Stop point among the survivors: argmin squared distance to the
        // dataset min corner.
        let min_corner = outcome.dataset_min_corner(data);
        let stop_pos = (0..m)
            .min_by(|&a, &b| {
                let score = |i: usize| -> f64 {
                    data.point(survivors[i])
                        .iter()
                        .zip(&min_corner)
                        .map(|(v, mc)| (v - mc) * (v - mc))
                        .sum()
                };
                score(a).total_cmp(&score(b)).then(a.cmp(&b))
            })
            .expect("survivors is non-empty");
        let stop_row = data.point(survivors[stop_pos]).to_vec();
        rec.span_end("sort");
        rec.span_start("scan");

        let mut container: SubsetContainer = SubsetContainer::new(dims);
        let mut status = vec![Status::Unknown; m];
        let mut dim_sky_count = vec![0usize; dims];
        let mut pos = vec![0usize; dims];
        let mut stop_dims_remaining = dims;
        let mut current = 0usize;

        // Breadth-first traversal among dimensions, as in plain SDI.
        let mut steps = 0usize;
        loop {
            if steps % CHECK_STRIDE == 0 && cancel.check().is_err() {
                rec.span_end("scan");
                return Err(Cancelled);
            }
            steps += 1;
            if pos[current] >= m {
                match (0..dims)
                    .filter(|&d| pos[d] < m)
                    .min_by_key(|&d| (dim_sky_count[d], d))
                {
                    Some(d) => {
                        current = d;
                        continue;
                    }
                    None => break,
                }
            }
            let spos = orders[current][pos[current]] as usize;
            pos[current] += 1;
            if spos == stop_pos {
                stop_dims_remaining -= 1;
            }
            let mut confirmed_new = false;
            match status[spos] {
                Status::Skyline => {
                    dim_sky_count[current] += 1;
                }
                Status::Dominated => {}
                Status::Unknown => {
                    let q = survivors[spos];
                    let q_row = data.point(q);
                    let q_sub = outcome.subspaces[spos];
                    let dominated = container.find_dominator(q_sub, q_row, metrics).is_some();
                    if dominated {
                        status[spos] = Status::Dominated;
                    } else {
                        status[spos] = Status::Skyline;
                        container.put(q, q_row, q_sub, metrics);
                        dim_sky_count[current] += 1;
                        confirmed_new = true;
                    }
                }
            }
            if stop_dims_remaining == 0 {
                break;
            }
            current = if confirmed_new {
                (0..dims)
                    .filter(|&d| pos[d] < m)
                    .min_by_key(|&d| (dim_sky_count[d], d))
                    .unwrap_or(current)
            } else {
                (current + 1) % dims
            };
        }

        // Positional finalisation against the stop point.
        for spos in 0..m {
            if status[spos] == Status::Unknown {
                if points_equal(data.point(survivors[spos]), &stop_row) {
                    status[spos] = Status::Skyline;
                } else {
                    status[spos] = Status::Dominated;
                    metrics.stop_pruned += 1;
                }
            }
        }

        skyline.extend(
            (0..m)
                .filter(|&i| status[i] == Status::Skyline)
                .map(|i| survivors[i]),
        );
        skyline.sort_unstable();
        rec.span_end("scan");
        Ok(skyline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnl::Bnl;
    use crate::salsa::SaLSa;
    use crate::sdi::Sdi;
    use crate::sfs::Sfs;

    fn pseudo_random_dataset(n: usize, d: usize) -> Dataset {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..d)
                    .map(|k| (((i * 41 + k * 19) * 2654435761usize) % 777) as f64 / 777.0)
                    .collect()
            })
            .collect();
        Dataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn boosted_variants_match_their_bases() {
        for &(n, d) in &[(80usize, 2usize), (150, 4), (200, 6), (120, 8)] {
            let data = pseudo_random_dataset(n, d);
            let oracle = Bnl.compute(&data);
            assert_eq!(Sfs.compute(&data), oracle, "SFS n={n} d={d}");
            assert_eq!(
                SfsSubset::default().compute(&data),
                oracle,
                "SFS-Subset n={n} d={d}"
            );
            assert_eq!(SaLSa.compute(&data), oracle, "SaLSa n={n} d={d}");
            assert_eq!(
                SalsaSubset::default().compute(&data),
                oracle,
                "SaLSa-Subset n={n} d={d}"
            );
            assert_eq!(Sdi.compute(&data), oracle, "SDI n={n} d={d}");
            assert_eq!(
                SdiSubset::default().compute(&data),
                oracle,
                "SDI-Subset n={n} d={d}"
            );
        }
    }

    #[test]
    fn explicit_sigma_is_respected_and_clamped() {
        let data = pseudo_random_dataset(100, 6);
        let oracle = Bnl.compute(&data);
        for sigma in [0usize, 2, 3, 6, 99] {
            assert_eq!(
                SfsSubset::new(Some(sigma)).compute(&data),
                oracle,
                "sigma={sigma}"
            );
            assert_eq!(
                SdiSubset::new(Some(sigma)).compute(&data),
                oracle,
                "sigma={sigma}"
            );
        }
    }

    #[test]
    fn merge_exhaustion_path() {
        // A totally ordered chain: the merge phase consumes everything.
        let rows: Vec<[f64; 3]> = (0..40).map(|i| [i as f64, i as f64, i as f64]).collect();
        let data = Dataset::from_rows(&rows).unwrap();
        assert_eq!(SdiSubset::default().compute(&data), vec![0]);
        assert_eq!(SfsSubset::default().compute(&data), vec![0]);
        assert_eq!(SalsaSubset::default().compute(&data), vec![0]);
    }

    #[test]
    fn duplicates_everywhere() {
        let mut rows = vec![[0.2, 0.8], [0.2, 0.8], [0.8, 0.2], [0.8, 0.2]];
        rows.push([0.9, 0.9]);
        let data = Dataset::from_rows(&rows).unwrap();
        let oracle = Bnl.compute(&data);
        assert_eq!(oracle, vec![0, 1, 2, 3]);
        assert_eq!(SfsSubset::default().compute(&data), oracle);
        assert_eq!(SalsaSubset::default().compute(&data), oracle);
        assert_eq!(SdiSubset::default().compute(&data), oracle);
    }

    #[test]
    fn sdi_subset_stop_point_fires() {
        // Survivors dominated by a near-origin survivor that every
        // dimension passes early.
        let mut rows = vec![[0.5, 0.01], [0.01, 0.5], [0.05, 0.05]];
        for i in 0..200 {
            let v = 0.2 + i as f64 / 300.0;
            rows.push([v, v]);
        }
        let data = Dataset::from_rows(&rows).unwrap();
        let mut m = Metrics::new();
        let sky = SdiSubset::new(Some(2)).compute_with_metrics(&data, &mut m);
        assert_eq!(sky, Bnl.compute(&data));
    }

    #[test]
    fn high_dimensional_agreement() {
        let data = pseudo_random_dataset(80, 12);
        let oracle = Bnl.compute(&data);
        assert_eq!(SfsSubset::default().compute(&data), oracle);
        assert_eq!(SalsaSubset::default().compute(&data), oracle);
        assert_eq!(SdiSubset::default().compute(&data), oracle);
    }
}
