//! SDI — *sort-based dimension indexing* (Liu & Li, EDBT 2020),
//! re-implemented from the description in Section 2 of the subset paper.
//!
//! **Sort phase.** For every dimension, point ids are sorted ascending by
//! `(value in that dimension, coordinate sum, id)`. The sum tie-break is
//! the "SFS-like local dominance" device for duplicate dimension values:
//! it guarantees that every dominator of a point precedes it in *every*
//! dimension index (`p ≺ q ⇒ p[i] ≤ q[i]` and `Σp < Σq`).
//!
//! **Scan phase.** Dimensions are traversed breadth-first, each holding a
//! cursor into its sorted index. Visiting a point for the first time
//! classifies it: it is tested against the *dimension skyline* — the
//! skyline points already passed by this dimension's cursor, which by the
//! sort-phase invariant contains every potential dominator. A point
//! already classified elsewhere is skipped (known skyline points join the
//! dimension skyline without any test). When a new skyline point is
//! confirmed, the scan switches to the dimension with the fewest skyline
//! points.
//!
//! **Stop point.** The point with the minimum Euclidean norm serves as the
//! stop point: once every dimension's cursor has passed it, every
//! still-unclassified point is componentwise ≥ the stop point and hence
//! dominated (exact duplicates of the stop point excepted) — no dominance
//! tests needed. This is how SDI reaches mean-DT values far below 1 on
//! correlated data.

use skyline_core::dataset::Dataset;
use skyline_core::dominance::{dominates, lex_cmp, points_equal};
use skyline_core::metrics::Metrics;
use skyline_core::point::{coordinate_sum, PointId};

use crate::SkylineAlgorithm;

/// Point classification during the scan phase.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    Unknown,
    Skyline,
    Dominated,
}

/// Sort-based dimension indexing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sdi;

/// Build the per-dimension sorted indexes (the sort phase). Public within
/// the crate: the boosted SDI variant reuses it.
pub(crate) fn dimension_orders(data: &Dataset, sums: &[f64]) -> Vec<Vec<PointId>> {
    let dims = data.dims();
    let mut orders = Vec::with_capacity(dims);
    for dim in 0..dims {
        let mut order: Vec<PointId> = (0..data.len() as PointId).collect();
        order.sort_unstable_by(|&a, &b| {
            data.value(a, dim)
                .total_cmp(&data.value(b, dim))
                .then_with(|| sums[a as usize].total_cmp(&sums[b as usize]))
                // Rounding-equal sums: keep dominators first in every
                // dimension index (see `lex_cmp`).
                .then_with(|| lex_cmp(data.point(a), data.point(b)))
                .then(a.cmp(&b))
        });
        orders.push(order);
    }
    orders
}

/// The stop point: argmin of the squared distance to the dataset's min
/// corner (ties by id). Always a skyline point.
pub(crate) fn stop_point(data: &Dataset) -> PointId {
    let min_corner = data.min_corner();
    let mut best = (f64::INFINITY, 0 as PointId);
    for (id, p) in data.iter() {
        let score: f64 = p
            .iter()
            .zip(&min_corner)
            .map(|(v, m)| (v - m) * (v - m))
            .sum();
        if score < best.0 {
            best = (score, id);
        }
    }
    best.1
}

impl SkylineAlgorithm for Sdi {
    fn name(&self) -> &str {
        "SDI"
    }

    fn compute_with_metrics(&self, data: &Dataset, metrics: &mut Metrics) -> Vec<PointId> {
        let n = data.len();
        if n == 0 {
            return Vec::new();
        }
        let dims = data.dims();
        let sums: Vec<f64> = data.iter().map(|(_, p)| coordinate_sum(p)).collect();
        let orders = dimension_orders(data, &sums);
        let stop = stop_point(data);
        let stop_row = data.point(stop).to_vec();

        let mut status = vec![Status::Unknown; n];
        let mut dim_skyline: Vec<Vec<PointId>> = vec![Vec::new(); dims];
        let mut pos = vec![0usize; dims];
        let mut stop_dims_remaining = dims;
        let mut current = 0usize;

        // Breadth-first traversal among dimensions: one point per step,
        // advancing round-robin, except that confirming a new skyline
        // point redirects the scan to the dimension with the fewest
        // skyline points. This interleaving is what lets the stop point
        // be passed in *every* dimension early on easy data.
        loop {
            if pos[current] >= n {
                // Dimension exhausted: hop to the next live one.
                match (0..dims)
                    .filter(|&d| pos[d] < n)
                    .min_by_key(|&d| (dim_skyline[d].len(), d))
                {
                    Some(d) => {
                        current = d;
                        continue;
                    }
                    None => break,
                }
            }
            let id = orders[current][pos[current]];
            pos[current] += 1;
            if id == stop {
                stop_dims_remaining -= 1;
            }
            let mut confirmed_new = false;
            match status[id as usize] {
                Status::Skyline => {
                    // Known skyline point: joins this dimension's skyline
                    // without a test.
                    dim_skyline[current].push(id);
                }
                Status::Dominated => {}
                Status::Unknown => {
                    let q_row = data.point(id);
                    let mut dominated = false;
                    for &s in &dim_skyline[current] {
                        metrics.count_dt();
                        if dominates(data.point(s), q_row) {
                            dominated = true;
                            break;
                        }
                    }
                    if dominated {
                        status[id as usize] = Status::Dominated;
                    } else {
                        status[id as usize] = Status::Skyline;
                        dim_skyline[current].push(id);
                        confirmed_new = true;
                    }
                }
            }
            if stop_dims_remaining == 0 {
                break;
            }
            current = if confirmed_new {
                (0..dims)
                    .filter(|&d| pos[d] < n)
                    .min_by_key(|&d| (dim_skyline[d].len(), d))
                    .unwrap_or(current)
            } else {
                (current + 1) % dims
            };
        }

        // Positional finalisation: the stop point has been passed in every
        // dimension, so every unclassified point is weakly dominated by it
        // — strictly, unless it is an exact duplicate.
        for id in 0..n as PointId {
            if status[id as usize] == Status::Unknown {
                if points_equal(data.point(id), &stop_row) {
                    status[id as usize] = Status::Skyline;
                } else {
                    status[id as usize] = Status::Dominated;
                    metrics.stop_pruned += 1;
                }
            }
        }

        (0..n as PointId)
            .filter(|&id| status[id as usize] == Status::Skyline)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnl::Bnl;

    fn pseudo_random_dataset(n: usize, d: usize) -> Dataset {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..d)
                    .map(|k| (((i * 29 + k * 13) * 2246822519usize) % 500) as f64 / 500.0)
                    .collect()
            })
            .collect();
        Dataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn matches_bnl_across_shapes() {
        for &(n, d) in &[(30usize, 2usize), (100, 3), (150, 5), (120, 8), (40, 1)] {
            let data = pseudo_random_dataset(n, d);
            assert_eq!(Sdi.compute(&data), Bnl.compute(&data), "n={n} d={d}");
        }
    }

    #[test]
    fn duplicate_dimension_values() {
        // Heavy ties in every dimension: the sum tie-break must keep
        // dominators ahead.
        let rows: Vec<[f64; 3]> = (0..120)
            .map(|i| {
                [
                    ((i * 7) % 4) as f64,
                    ((i * 11) % 3) as f64,
                    ((i * 5) % 2) as f64,
                ]
            })
            .collect();
        let data = Dataset::from_rows(&rows).unwrap();
        assert_eq!(Sdi.compute(&data), Bnl.compute(&data));
    }

    #[test]
    fn stop_point_is_in_skyline() {
        let data = pseudo_random_dataset(100, 4);
        let stop = stop_point(&data);
        assert!(Bnl.compute(&data).contains(&stop));
    }

    #[test]
    fn stop_prunes_on_correlated_data() {
        // A strongly dominating point near the origin plus a dominated
        // diagonal tail: SDI should classify the tail positionally.
        let mut rows = vec![[0.01, 0.01, 0.01]];
        for i in 0..200 {
            let v = 0.1 + i as f64 / 100.0;
            rows.push([v, v + 0.01, v + 0.02]);
        }
        let data = Dataset::from_rows(&rows).unwrap();
        let mut m = Metrics::new();
        let sky = Sdi.compute_with_metrics(&data, &mut m);
        assert_eq!(sky, vec![0]);
        assert!(
            m.stop_pruned > 150,
            "expected positional pruning, got {}",
            m.stop_pruned
        );
        assert!(m.mean_dominance_tests(data.len()) < 1.0);
    }

    #[test]
    fn duplicates_of_the_stop_point_survive() {
        let data = Dataset::from_rows(&[[0.1, 0.1], [0.1, 0.1], [0.5, 0.6], [0.7, 0.8]]).unwrap();
        assert_eq!(Sdi.compute(&data), vec![0, 1]);
    }

    #[test]
    fn empty_and_singleton() {
        let empty = Dataset::from_flat(vec![], 2).unwrap();
        assert!(Sdi.compute(&empty).is_empty());
        let one = Dataset::from_rows(&[[1.0, 2.0]]).unwrap();
        assert_eq!(Sdi.compute(&one), vec![0]);
    }

    #[test]
    fn all_identical_points() {
        let data = Dataset::from_rows(&[[2.0, 3.0]; 10]).unwrap();
        let sky = Sdi.compute(&data);
        assert_eq!(sky.len(), 10);
    }

    #[test]
    fn anti_correlated_line() {
        let rows: Vec<[f64; 2]> = (0..30).map(|i| [i as f64, 29.0 - i as f64]).collect();
        let data = Dataset::from_rows(&rows).unwrap();
        assert_eq!(Sdi.compute(&data).len(), 30);
    }
}
