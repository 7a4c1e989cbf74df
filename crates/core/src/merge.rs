//! Algorithm 1 of the paper: **Merge** — the subspace-union phase.
//!
//! The goal is to distribute the points of a dataset over as many
//! incomparable subspaces as possible. A sequence of *pivot points* is
//! drawn from the dataset in ascending order of a monotone score (the paper
//! scores by Euclidean distance to the zero point); each pivot is provably a
//! skyline point. Every pivot is compared against all remaining points:
//! points it (weakly) dominates are pruned, duplicates of it join the
//! skyline, and every survivor `q` merges the *dominating subspace*
//! `D_{q≺p}` (Definition 3.4) into its running *maximum dominating
//! subspace* `D_{q≺S}` (Definition 4.1).
//!
//! Iteration stops when the *stability threshold* `σ` is reached: `σ'`, the
//! number of subspace-size buckets whose population did not change between
//! consecutive iterations, satisfies `σ' ≥ σ`. Small `σ` stops early (few
//! pivots); `σ = d` demands a fully stable distribution.
//!
//! ## Scoring note
//!
//! The paper scores by Euclidean distance to the origin, which is monotone
//! w.r.t. dominance only for non-negative data (true for the paper's
//! `[0,1]^d` benchmarks). To stay correct for arbitrary real data — e.g.
//! after folding `Max` preferences by negation — we score by squared
//! Euclidean distance to the dataset's *minimum corner*, which coincides
//! with the paper's score on `[0,1]^d`-style data and is monotone for any
//! input: if `p ≺ q` then `p - m ≤ q - m` componentwise with all entries
//! non-negative, hence `‖p - m‖ < ‖q - m‖`.

use skyline_obs::{Event, NoopRecorder, Recorder};

use crate::cancel::{CancelToken, Cancelled};
use crate::dataset::Dataset;
use crate::dominance::{dominating_subspace, lex_cmp, points_equal};
use crate::error::{Error, Result};
use crate::metrics::Metrics;
use crate::point::PointId;
use crate::subspace::Subspace;

/// Safety cap on the number of pivots: `Merge` costs `O(k·N)` dominance
/// tests for `k` pivots, so a run-away stability loop on adversarial data
/// must be bounded. The paper assumes `k ≪ N`.
pub const DEFAULT_MAX_PIVOTS: usize = 256;

/// Monotone scoring function used to select pivot points.
///
/// Any monotone measure yields correct pivots (the argmin is always a
/// skyline point); the paper uses the Euclidean distance and notes that
/// "any measure can be applied". The alternatives exist for the
/// pivot-score ablation bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PivotScore {
    /// Squared Euclidean distance to the dataset's minimum corner (the
    /// paper's choice, made negative-safe; see module docs).
    #[default]
    Euclidean,
    /// Sum of coordinates (SFS's scoring function).
    Sum,
    /// Minimum coordinate with sum tie-break (SaLSa's `minC`).
    MinCoordinate,
}

/// Configuration of the Merge phase.
#[derive(Debug, Clone)]
pub struct MergeConfig {
    /// Stability threshold `σ`. Meaningful range `1 < σ ≤ d`
    /// (Section 6.1). The paper's default is `round(d/3)`, clamped to 2.
    pub sigma: usize,
    /// Upper bound on the number of pivots (engineering guard; the paper
    /// leaves the loop unbounded).
    pub max_pivots: usize,
    /// Pivot scoring function (the paper's default is Euclidean).
    pub score: PivotScore,
}

impl MergeConfig {
    /// The paper's recommended configuration: `σ = round(d/3)`, clamped to
    /// the meaningful range `[2, d]` (Section 6.1: "the fastest σ … is
    /// around d/3").
    pub fn recommended(dims: usize) -> Self {
        let sigma = ((dims as f64) / 3.0).round() as usize;
        MergeConfig {
            sigma: sigma.clamp(2, dims.max(2)),
            max_pivots: DEFAULT_MAX_PIVOTS,
            score: PivotScore::Euclidean,
        }
    }

    /// Explicit stability threshold, validated against the dimensionality.
    pub fn with_sigma(sigma: usize, dims: usize) -> Result<Self> {
        if sigma <= 1 || sigma > dims {
            return Err(Error::InvalidStability { sigma, dims });
        }
        Ok(MergeConfig {
            sigma,
            max_pivots: DEFAULT_MAX_PIVOTS,
            score: PivotScore::Euclidean,
        })
    }
}

/// Output of the Merge phase.
#[derive(Debug, Clone)]
pub struct MergeOutcome {
    /// The pivot points, in selection order. Every pivot is a skyline point.
    pub pivots: Vec<PointId>,
    /// Non-pivot points that joined the skyline during the phase because
    /// they are exact duplicates of a pivot.
    pub duplicate_skyline: Vec<PointId>,
    /// Points neither pruned nor confirmed: each is incomparable with every
    /// pivot. Order is unspecified.
    pub survivors: Vec<PointId>,
    /// Maximum dominating subspace `D_{q≺S}` of each survivor, parallel to
    /// `survivors`. Always non-empty.
    pub subspaces: Vec<Subspace>,
    /// `true` when the loop consumed the whole dataset — the skyline is
    /// then exactly `pivots ∪ duplicate_skyline` and no scan phase is
    /// needed.
    pub exhausted: bool,
    /// Number of iterations (pivots drawn).
    pub iterations: usize,
    /// The dataset's minimum corner, when the pivot score computed it
    /// (the Euclidean score does), so later phases need not scan the
    /// whole dataset again. See [`MergeOutcome::dataset_min_corner`].
    pub min_corner: Option<Vec<f64>>,
}

impl MergeOutcome {
    /// All skyline points confirmed so far (pivots plus duplicates),
    /// ascending.
    pub fn confirmed_skyline(&self) -> Vec<PointId> {
        let mut all: Vec<PointId> = self
            .pivots
            .iter()
            .chain(&self.duplicate_skyline)
            .copied()
            .collect();
        all.sort_unstable();
        all
    }

    /// The dataset's minimum corner: the one the pivot score computed, or
    /// a fresh pass over `data` when the score did not need it.
    pub fn dataset_min_corner(&self, data: &Dataset) -> Vec<f64> {
        self.min_corner.clone().unwrap_or_else(|| data.min_corner())
    }

    /// Histogram of survivor counts per subspace size `1..=dims`
    /// (index 0 of the returned vector is size 1). This is the quantity
    /// plotted in Figures 2 and 6 of the paper.
    pub fn size_histogram(&self, dims: usize) -> Vec<usize> {
        let mut hist = vec![0usize; dims];
        for s in &self.subspaces {
            let size = s.size();
            debug_assert!(size >= 1 && size <= dims);
            hist[size - 1] += 1;
        }
        hist
    }
}

/// Run Algorithm 1 on `data`.
///
/// Every pivot-vs-point comparison is one dominance test and is counted in
/// `metrics` (the subspace computation *is* the dominance test: an empty
/// dominating subspace means the pivot weakly dominates the point).
pub fn merge(data: &Dataset, config: &MergeConfig, metrics: &mut Metrics) -> MergeOutcome {
    merge_traced(data, config, metrics, &mut NoopRecorder)
}

/// [`merge`] with tracing: wraps the phase in a `"merge"` span and emits
/// one [`Event::MergeIteration`] per pivot (pivot id, points pruned,
/// survivor count, the σ stability count, and the subspace-size buckets
/// the stability rule compares). Event payloads are only built when
/// `rec.enabled()`, so the no-op recorder adds one branch per *pivot*.
pub fn merge_traced(
    data: &Dataset,
    config: &MergeConfig,
    metrics: &mut Metrics,
    rec: &mut dyn Recorder,
) -> MergeOutcome {
    merge_traced_cancel(data, config, metrics, rec, &CancelToken::none())
        .expect("the none token never cancels")
}

/// [`merge_traced`] with cooperative cancellation: the token is checked
/// once per pivot iteration (each iteration is a full pass over the
/// survivors, so per-iteration granularity bounds cancellation latency to
/// `O(N)` dominance tests).
pub fn merge_traced_cancel(
    data: &Dataset,
    config: &MergeConfig,
    metrics: &mut Metrics,
    rec: &mut dyn Recorder,
    cancel: &CancelToken,
) -> std::result::Result<MergeOutcome, Cancelled> {
    rec.span_start("merge");
    let out = merge_inner(data, config, metrics, rec, cancel);
    rec.span_end("merge");
    out
}

fn merge_inner(
    data: &Dataset,
    config: &MergeConfig,
    metrics: &mut Metrics,
    rec: &mut dyn Recorder,
    cancel: &CancelToken,
) -> std::result::Result<MergeOutcome, Cancelled> {
    let dims = data.dims();
    let n = data.len();

    // Score every point with the configured monotone measure. For the
    // Euclidean default the distance is taken to the dataset's min corner
    // (see module docs for why not the raw origin). `minC` alone is not
    // strictly monotone, so its tie-break adds the sum scaled into the
    // comparison via a lexicographic pair packed as (primary, sum).
    let mut min_corner = None;
    let scores: Vec<(f64, f64)> = match config.score {
        PivotScore::Euclidean => {
            let corner = data.min_corner();
            let scores = data
                .iter()
                .map(|(_, p)| {
                    (
                        p.iter().zip(&corner).map(|(v, m)| (v - m) * (v - m)).sum(),
                        0.0,
                    )
                })
                .collect();
            min_corner = Some(corner);
            scores
        }
        PivotScore::Sum => data.iter().map(|(_, p)| (p.iter().sum(), 0.0)).collect(),
        PivotScore::MinCoordinate => data
            .iter()
            .map(|(_, p)| {
                (
                    p.iter().copied().fold(f64::INFINITY, f64::min),
                    p.iter().sum(),
                )
            })
            .collect(),
    };

    let mut survivors: Vec<PointId> = (0..n as PointId).collect();
    let mut subspaces: Vec<Subspace> = vec![Subspace::EMPTY; n];
    let mut pivots = Vec::new();
    let mut duplicate_skyline = Vec::new();

    // Histogram of survivor subspace sizes from the previous iteration;
    // index s-1 holds the population of size s.
    let mut prev_hist = vec![0usize; dims];
    let mut iterations = 0usize;

    loop {
        cancel.check()?;
        if survivors.is_empty() || pivots.len() >= config.max_pivots {
            break;
        }

        // The surviving point with the minimal score is a skyline point.
        let (pivot_pos, &pivot) = survivors
            .iter()
            .enumerate()
            .min_by(|(_, &a), (_, &b)| {
                let (ka, kb) = (&scores[a as usize], &scores[b as usize]);
                ka.0.total_cmp(&kb.0)
                    .then_with(|| ka.1.total_cmp(&kb.1))
                    // Rounding-equal scores: the lexicographic tie-break
                    // guarantees the argmin is a skyline point even when a
                    // dominated point's score rounds equal to its
                    // dominator's.
                    .then_with(|| lex_cmp(data.point(a), data.point(b)))
                    .then(a.cmp(&b))
            })
            .expect("survivors is non-empty");
        survivors.swap_remove(pivot_pos);
        pivots.push(pivot);
        iterations += 1;
        let pivot_row = data.point(pivot);

        // Compare the pivot with every remaining point.
        let before_len = survivors.len();
        let mut hist = vec![0usize; dims];
        let mut kept = 0usize;
        for i in 0..survivors.len() {
            let q = survivors[i];
            let q_row = data.point(q);
            metrics.count_dt();
            let dsub = dominating_subspace(q_row, pivot_row);
            if dsub.is_empty() {
                // The pivot weakly dominates q: prune, but duplicates of
                // the pivot are themselves skyline points.
                if points_equal(q_row, pivot_row) {
                    duplicate_skyline.push(q);
                }
                continue;
            }
            let merged = subspaces[q as usize].union(dsub);
            subspaces[q as usize] = merged;
            hist[merged.size() - 1] += 1;
            survivors[kept] = q;
            kept += 1;
        }
        survivors.truncate(kept);

        // Stability: number of size buckets whose population is unchanged
        // since the previous iteration. Buckets empty in both iterations do
        // not count — otherwise never-populated high sizes would satisfy
        // any σ at high dimensionality after a single pivot.
        let stable = hist
            .iter()
            .zip(&prev_hist)
            .filter(|(now, before)| now == before && (**now > 0 || **before > 0))
            .count();
        // Secondary stop: the whole distribution is frozen. Without this, a
        // dataset whose survivors occupy fewer than σ distinct sizes (e.g.
        // any 2-D dataset, which has a single meaningful size) would burn
        // pivots until `max_pivots`.
        let frozen = hist == prev_hist;
        if rec.enabled() {
            rec.event(Event::MergeIteration {
                iteration: (iterations - 1) as u64,
                pivot: pivot as u64,
                pruned: (before_len - kept) as u64,
                survivors: kept as u64,
                stable: stable as u64,
                subspace_hist: hist.iter().map(|&c| c as u64).collect(),
            });
        }
        prev_hist = hist;
        if stable >= config.sigma || frozen {
            break;
        }
    }

    let out_subspaces: Vec<Subspace> = survivors.iter().map(|&q| subspaces[q as usize]).collect();
    debug_assert!(out_subspaces.iter().all(|s| !s.is_empty()));
    let exhausted = survivors.is_empty();
    Ok(MergeOutcome {
        pivots,
        duplicate_skyline,
        survivors,
        subspaces: out_subspaces,
        exhausted,
        iterations,
        min_corner,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::dominates;

    fn small_dataset() -> Dataset {
        // 2-D hotels: (price, distance).
        Dataset::from_rows(&[
            [1.0, 9.0], // 0: skyline
            [2.0, 7.0], // 1: skyline
            [3.0, 8.0], // 2: dominated by 1
            [4.0, 4.0], // 3: skyline
            [5.0, 5.0], // 4: dominated by 3
            [9.0, 1.0], // 5: skyline
        ])
        .unwrap()
    }

    #[test]
    fn recommended_config_tracks_d_over_3() {
        assert_eq!(MergeConfig::recommended(8).sigma, 3);
        assert_eq!(MergeConfig::recommended(12).sigma, 4);
        assert_eq!(MergeConfig::recommended(24).sigma, 8);
        // Clamped to at least 2 for tiny d.
        assert_eq!(MergeConfig::recommended(2).sigma, 2);
        assert_eq!(MergeConfig::recommended(4).sigma, 2);
    }

    #[test]
    fn with_sigma_validates_range() {
        assert!(MergeConfig::with_sigma(1, 8).is_err());
        assert!(MergeConfig::with_sigma(9, 8).is_err());
        assert!(MergeConfig::with_sigma(3, 8).is_ok());
    }

    #[test]
    fn pivots_are_skyline_points() {
        let data = small_dataset();
        let mut m = Metrics::new();
        let out = merge(
            &data,
            &MergeConfig {
                sigma: 2,
                max_pivots: 16,
                score: PivotScore::default(),
            },
            &mut m,
        );
        for &p in &out.pivots {
            for (q, row) in data.iter() {
                if q != p {
                    assert!(
                        !dominates(row, data.point(p)),
                        "pivot {p} is dominated by {q}"
                    );
                }
            }
        }
        assert!(!out.pivots.is_empty());
        assert!(m.dominance_tests > 0);
    }

    #[test]
    fn survivors_are_incomparable_with_pivots() {
        let data = small_dataset();
        let mut m = Metrics::new();
        let out = merge(
            &data,
            &MergeConfig {
                sigma: 2,
                max_pivots: 2,
                score: PivotScore::default(),
            },
            &mut m,
        );
        for &q in &out.survivors {
            for &p in &out.pivots {
                assert!(!dominates(data.point(p), data.point(q)));
            }
        }
    }

    #[test]
    fn survivor_subspaces_match_definition() {
        let data = small_dataset();
        let mut m = Metrics::new();
        let out = merge(
            &data,
            &MergeConfig {
                sigma: 2,
                max_pivots: 3,
                score: PivotScore::default(),
            },
            &mut m,
        );
        for (&q, &sub) in out.survivors.iter().zip(&out.subspaces) {
            let mut expected = Subspace::EMPTY;
            for &p in &out.pivots {
                expected = expected.union(dominating_subspace(data.point(q), data.point(p)));
            }
            assert_eq!(sub, expected, "survivor {q}");
            assert!(!sub.is_empty());
        }
    }

    #[test]
    fn exhausted_when_everything_pruned() {
        // One dominating point plus its dominated shadow copies.
        let data = Dataset::from_rows(&[[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]).unwrap();
        let mut m = Metrics::new();
        let out = merge(
            &data,
            &MergeConfig {
                sigma: 2,
                max_pivots: 16,
                score: PivotScore::default(),
            },
            &mut m,
        );
        assert!(out.exhausted);
        assert_eq!(out.confirmed_skyline(), vec![0]);
        assert!(out.survivors.is_empty());
    }

    #[test]
    fn duplicates_of_pivot_join_the_skyline() {
        let data = Dataset::from_rows(&[[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]).unwrap();
        let mut m = Metrics::new();
        let out = merge(
            &data,
            &MergeConfig {
                sigma: 2,
                max_pivots: 16,
                score: PivotScore::default(),
            },
            &mut m,
        );
        assert!(out.exhausted);
        assert_eq!(out.confirmed_skyline(), vec![0, 1]);
    }

    #[test]
    fn max_pivots_bounds_the_loop() {
        // Anti-correlated line: every point is a skyline point, so without
        // the cap the stability loop could draw many pivots.
        let rows: Vec<[f64; 2]> = (0..50).map(|i| [i as f64, 50.0 - i as f64]).collect();
        let data = Dataset::from_rows(&rows).unwrap();
        let mut m = Metrics::new();
        let out = merge(
            &data,
            &MergeConfig {
                sigma: 2,
                max_pivots: 3,
                score: PivotScore::default(),
            },
            &mut m,
        );
        assert!(out.pivots.len() <= 3);
        assert_eq!(out.iterations, out.pivots.len());
    }

    #[test]
    fn size_histogram_counts_survivors() {
        let data = small_dataset();
        let mut m = Metrics::new();
        let out = merge(
            &data,
            &MergeConfig {
                sigma: 2,
                max_pivots: 1,
                score: PivotScore::default(),
            },
            &mut m,
        );
        let hist = out.size_histogram(data.dims());
        assert_eq!(hist.iter().sum::<usize>(), out.survivors.len());
    }

    #[test]
    fn scoring_handles_negative_values() {
        // Negated (Max-preference) columns: min-corner shift keeps the
        // pivot selection monotone.
        let data = Dataset::from_rows(&[
            [-5.0, -1.0], // best in dim 0
            [-1.0, -5.0], // best in dim 1
            [-1.0, -1.0], // dominated by both
        ])
        .unwrap();
        let mut m = Metrics::new();
        let out = merge(
            &data,
            &MergeConfig {
                sigma: 2,
                max_pivots: 16,
                score: PivotScore::default(),
            },
            &mut m,
        );
        assert!(out.exhausted);
        assert_eq!(out.confirmed_skyline(), vec![0, 1]);
    }

    #[test]
    fn cancelled_token_aborts_the_merge() {
        let data = small_dataset();
        let mut m = Metrics::new();
        let token = CancelToken::manual();
        token.cancel();
        let out = merge_traced_cancel(
            &data,
            &MergeConfig::recommended(2),
            &mut m,
            &mut NoopRecorder,
            &token,
        );
        assert!(matches!(out, Err(Cancelled)));
    }

    #[test]
    fn dominance_test_count_is_pivots_times_survivors() {
        // With max_pivots = 1 the count is exactly n - 1.
        let data = small_dataset();
        let mut m = Metrics::new();
        let _ = merge(
            &data,
            &MergeConfig {
                sigma: 2,
                max_pivots: 1,
                score: PivotScore::default(),
            },
            &mut m,
        );
        assert_eq!(m.dominance_tests, (data.len() - 1) as u64);
    }
}
