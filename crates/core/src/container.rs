//! The generic skyline-container abstraction.
//!
//! The paper presents its method "as a component like a container that
//! allows to store (as put function) the skyline points and to retrieve (as
//! a get function) a minimum number of skyline points to compare with a
//! testing point" (Section 1). Sorting-based algorithms are boosted by
//! swapping their plain skyline list for the subset index behind this
//! trait; nothing else in the algorithm changes.

use crate::dominance::first_dominator;
use crate::metrics::Metrics;
use crate::point::PointId;
use crate::subset_index::{Children, GenericSubsetIndex, HashChildren};
use crate::subspace::Subspace;

/// A container of confirmed skyline points that can tell whether a
/// testing point is dominated by one of them.
pub trait SkylineContainer {
    /// Store a newly confirmed skyline point, whose coordinates are `row`,
    /// together with its maximum dominating subspace.
    fn put(&mut self, point: PointId, row: &[f64], subspace: Subspace, metrics: &mut Metrics);

    /// The first stored point, in the container's candidate order, that
    /// dominates `row`, a testing point with maximum dominating subspace
    /// `subspace`.
    ///
    /// Completeness contract: the candidates tested must include every
    /// stored point that dominates the testing point. Testing extra points
    /// only costs dominance tests, never correctness. One dominance test
    /// is counted per candidate tested, up to and including the hit, and
    /// one container get with the full candidate count.
    fn find_dominator(
        &self,
        subspace: Subspace,
        row: &[f64],
        metrics: &mut Metrics,
    ) -> Option<PointId>;

    /// Number of stored points.
    fn len(&self) -> usize;

    /// Whether the container is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The trivial container: a plain list, every stored point is a candidate
/// for every test. This is what un-boosted SFS/SaLSa effectively use.
#[derive(Debug, Default, Clone)]
pub struct ListContainer {
    points: Vec<PointId>,
    rows: Vec<f64>,
}

impl ListContainer {
    /// An empty list container.
    pub fn new() -> Self {
        ListContainer::default()
    }
}

impl SkylineContainer for ListContainer {
    fn put(&mut self, point: PointId, row: &[f64], _subspace: Subspace, metrics: &mut Metrics) {
        self.points.push(point);
        self.rows.extend_from_slice(row);
        metrics.container_puts += 1;
    }

    fn find_dominator(
        &self,
        _subspace: Subspace,
        row: &[f64],
        metrics: &mut Metrics,
    ) -> Option<PointId> {
        metrics.container_gets += 1;
        metrics.candidates_returned += self.points.len() as u64;
        match first_dominator(&self.rows, row) {
            Some(i) => {
                metrics.count_dts(i as u64 + 1);
                Some(self.points[i])
            }
            None => {
                metrics.count_dts(self.points.len() as u64);
                None
            }
        }
    }

    fn len(&self) -> usize {
        self.points.len()
    }
}

/// The paper's container: skyline points partitioned by maximum dominating
/// subspace in the subset-query trie. Candidates for a testing point are
/// exactly the stored points whose subspace is a superset of the testing
/// point's (Lemma 5.1), tested in place on the rows the trie nodes carry.
#[derive(Debug, Clone)]
pub struct SubsetContainer<C: Children = HashChildren> {
    index: GenericSubsetIndex<C>,
}

impl<C: Children> SubsetContainer<C> {
    /// An empty subset container over a `dims`-dimensional space.
    pub fn new(dims: usize) -> Self {
        SubsetContainer {
            index: GenericSubsetIndex::new(dims),
        }
    }

    /// Access the underlying index (e.g. for size statistics).
    pub fn index(&self) -> &GenericSubsetIndex<C> {
        &self.index
    }
}

impl<C: Children> SkylineContainer for SubsetContainer<C> {
    fn put(&mut self, point: PointId, row: &[f64], subspace: Subspace, metrics: &mut Metrics) {
        self.index.put(point, row, subspace);
        metrics.container_puts += 1;
    }

    fn find_dominator(
        &self,
        subspace: Subspace,
        row: &[f64],
        metrics: &mut Metrics,
    ) -> Option<PointId> {
        self.index.find_dominator(subspace, row, metrics)
    }

    fn len(&self) -> usize {
        self.index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sub(dims: &[usize]) -> Subspace {
        Subspace::from_dims(dims.iter().copied())
    }

    #[test]
    fn list_container_returns_everything() {
        let mut c = ListContainer::new();
        let mut m = Metrics::new();
        c.put(1, &[0.5, 0.5], sub(&[0]), &mut m);
        c.put(2, &[0.1, 0.1], sub(&[1]), &mut m);
        c.put(3, &[0.0, 0.0], sub(&[1]), &mut m);
        assert_eq!(c.find_dominator(sub(&[0, 1]), &[0.2, 0.2], &mut m), Some(2));
        assert_eq!(c.len(), 3);
        assert_eq!(m.container_puts, 3);
        assert_eq!(m.container_gets, 1);
        assert_eq!(m.candidates_returned, 3);
        assert_eq!(m.dominance_tests, 2, "stops at the first dominator");
        assert_eq!(c.find_dominator(sub(&[0]), &[0.0, 0.0], &mut m), None);
        assert_eq!(m.dominance_tests, 5, "a miss tests every candidate");
    }

    #[test]
    fn subset_container_filters_by_superset() {
        let mut c = SubsetContainer::<HashChildren>::new(4);
        let mut m = Metrics::new();
        c.put(1, &[0.0; 4], sub(&[0, 1, 2]), &mut m);
        c.put(2, &[0.0; 4], sub(&[3]), &mut m);
        // Point 2 dominates the query row too, but its subspace {3} is no
        // superset of {0, 1}: it is never a candidate.
        assert_eq!(c.find_dominator(sub(&[0, 1]), &[1.0; 4], &mut m), Some(1));
        assert_eq!(m.candidates_returned, 1);
        assert_eq!(m.dominance_tests, 1);
        assert!(!c.is_empty());
        assert_eq!(c.index().len(), 2);
    }

    #[test]
    fn subset_container_is_conservative_superset_of_dominators() {
        // The subset container may test fewer points than the list, but
        // never misses a potential dominator: a point with subspace S can
        // only be dominated by points with subspace ⊇ S (Lemma 4.3).
        let mut list = ListContainer::new();
        let mut subset = SubsetContainer::<HashChildren>::new(3);
        let mut m = Metrics::new();
        let entries = [
            (0, sub(&[0])),
            (1, sub(&[0, 1])),
            (2, sub(&[0, 1, 2])),
            (3, sub(&[2])),
        ];
        for (p, s) in entries {
            list.put(p, &[0.0; 3], s, &mut m);
            subset.put(p, &[0.0; 3], s, &mut m);
        }
        for (_, q) in entries {
            let mut from_subset = Vec::new();
            subset.index().query_into(q, &mut from_subset, &mut m);
            for (p, s) in entries {
                if s.is_superset_of(q) {
                    assert!(from_subset.contains(&p), "missing {p} for query {q:?}");
                }
            }
            // Every stored row dominates the query row, so both
            // containers report their first candidate.
            let hit = subset.find_dominator(q, &[1.0; 3], &mut m);
            assert_eq!(hit, from_subset.first().copied());
            assert_eq!(list.find_dominator(q, &[1.0; 3], &mut m), Some(0));
        }
    }

    #[test]
    fn trait_object_usability() {
        let mut m = Metrics::new();
        let mut containers: Vec<Box<dyn SkylineContainer>> = vec![
            Box::new(ListContainer::new()),
            Box::new(SubsetContainer::<HashChildren>::new(2)),
        ];
        for c in &mut containers {
            c.put(9, &[0.0, 0.0], sub(&[0]), &mut m);
            assert_eq!(c.len(), 1);
        }
    }
}
