//! Instrumentation counters for skyline runs.
//!
//! The paper's primary evaluation metric is the *mean dominance test
//! number*: total dominance tests divided by the dataset cardinality
//! (Section 6). Every algorithm in this workspace threads a [`Metrics`]
//! value through its hot loops and bumps [`Metrics::count_dt`] once per
//! pairwise dominance test, exactly as the reference implementations count.

use std::time::Duration;

use skyline_obs::Histogram;

/// Counters collected during one skyline computation.
///
/// Besides the plain `u64` counters, two [`Histogram`]s capture the shape
/// of subset-index behaviour (query recursion depth, candidates returned
/// per query). Recording into them is one array-index increment per
/// *container query*, not per dominance test, so the struct stays cheap
/// enough to thread through every hot loop unconditionally.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Total number of pairwise dominance tests (any direction / arity).
    pub dominance_tests: u64,
    /// Number of `put` operations on a skyline container.
    pub container_puts: u64,
    /// Number of candidate queries on a skyline container
    /// (`find_dominator` or `query_into`).
    pub container_gets: u64,
    /// Total candidates returned across all container queries.
    pub candidates_returned: u64,
    /// Number of trie nodes visited by subset-index queries.
    pub index_nodes_visited: u64,
    /// Points pruned positionally (stop point / early termination), i.e.
    /// discarded without any dominance test.
    pub stop_pruned: u64,
    /// Distribution of subset-index query recursion depth.
    pub trie_depth: Histogram,
    /// Distribution of candidates returned per subset-index query.
    pub trie_candidates: Histogram,
}

impl Metrics {
    /// Fresh, zeroed counters.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Record one pairwise dominance test.
    #[inline]
    pub fn count_dt(&mut self) {
        self.dominance_tests += 1;
    }

    /// Record `n` pairwise dominance tests at once.
    #[inline]
    pub fn count_dts(&mut self, n: u64) {
        self.dominance_tests += n;
    }

    /// The paper's *mean dominance test number* for a dataset of `n` points.
    ///
    /// Returns 0.0 for an empty dataset.
    pub fn mean_dominance_tests(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.dominance_tests as f64 / n as f64
        }
    }

    /// Fold another metrics snapshot into this one (e.g. merge-phase plus
    /// scan-phase counters of a boosted run).
    pub fn absorb(&mut self, other: &Metrics) {
        self.dominance_tests += other.dominance_tests;
        self.container_puts += other.container_puts;
        self.container_gets += other.container_gets;
        self.candidates_returned += other.candidates_returned;
        self.index_nodes_visited += other.index_nodes_visited;
        self.stop_pruned += other.stop_pruned;
        self.trie_depth.merge(&other.trie_depth);
        self.trie_candidates.merge(&other.trie_candidates);
    }
}

/// Result of one measured skyline run: the skyline, the counters, and the
/// elapsed wall-clock time.
#[derive(Debug, Clone)]
pub struct RunMeasurement {
    /// Ids of the skyline points, ascending.
    pub skyline: Vec<crate::point::PointId>,
    /// Counters collected during the run.
    pub metrics: Metrics,
    /// Elapsed wall-clock time of the computation (excluding data loading).
    pub elapsed: Duration,
    /// Cardinality of the input dataset.
    pub cardinality: usize,
}

impl RunMeasurement {
    /// The paper's DT metric for this run.
    pub fn mean_dominance_tests(&self) -> f64 {
        self.metrics.mean_dominance_tests(self.cardinality)
    }

    /// Elapsed time in fractional milliseconds (the paper's RT metric).
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed.as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting() {
        let mut m = Metrics::new();
        m.count_dt();
        m.count_dts(4);
        assert_eq!(m.dominance_tests, 5);
    }

    #[test]
    fn mean_dt() {
        let mut m = Metrics::new();
        m.count_dts(100);
        assert_eq!(m.mean_dominance_tests(50), 2.0);
        assert_eq!(m.mean_dominance_tests(0), 0.0);
    }

    #[test]
    fn absorb_sums_all_fields() {
        let mut a = Metrics {
            dominance_tests: 1,
            container_puts: 2,
            container_gets: 3,
            candidates_returned: 4,
            index_nodes_visited: 5,
            stop_pruned: 6,
            ..Metrics::default()
        };
        a.trie_depth.record(2);
        a.trie_candidates.record(7);
        let b = a.clone();
        a.absorb(&b);
        let mut expected = Metrics {
            dominance_tests: 2,
            container_puts: 4,
            container_gets: 6,
            candidates_returned: 8,
            index_nodes_visited: 10,
            stop_pruned: 12,
            ..Metrics::default()
        };
        expected.trie_depth.record(2);
        expected.trie_depth.record(2);
        expected.trie_candidates.record(7);
        expected.trie_candidates.record(7);
        assert_eq!(a, expected);
    }

    #[test]
    fn run_measurement_metrics() {
        let mut metrics = Metrics::new();
        metrics.count_dts(30);
        let run = RunMeasurement {
            skyline: vec![0, 1],
            metrics,
            elapsed: Duration::from_millis(250),
            cardinality: 10,
        };
        assert_eq!(run.mean_dominance_tests(), 3.0);
        assert!((run.elapsed_ms() - 250.0).abs() < 1e-9);
    }
}
