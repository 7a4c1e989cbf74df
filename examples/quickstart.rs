//! Quickstart: compute a skyline three ways — with a classic algorithm,
//! with the paper's boosted driver, and with the low-level merge + subset
//! index API.
//!
//! Run with: `cargo run -p skyline-examples --example quickstart`

use skyline_algos::{boosted::SdiSubset, sfs::Sfs, SkylineAlgorithm};
use skyline_core::prelude::*;

fn main() {
    // A tiny dataset of laptops: (price in $100s, weight in kg, boot
    // seconds). All three criteria are minimised.
    let data = Dataset::from_rows(&[
        [12.0, 1.1, 8.0], // 0: light ultrabook
        [7.0, 2.3, 14.0], // 1: budget workhorse
        [13.0, 1.2, 9.0], // 2: dominated by 0
        [9.0, 1.8, 11.0], // 3: balanced midrange
        [7.0, 2.3, 16.0], // 4: dominated by 1
        [20.0, 0.9, 7.0], // 5: premium featherweight
    ])
    .expect("valid rows");

    // 1. Any algorithm from the suite.
    let skyline = Sfs.compute(&data);
    println!("SFS skyline: {skyline:?}");

    // 2. The paper's boosted SDI with default sigma = round(d/3).
    let result = SdiSubset::default().run(&data);
    println!(
        "SDI-Subset skyline: {:?} ({} dominance tests, {:.3} ms)",
        result.skyline,
        result.metrics.dominance_tests,
        result.elapsed_ms()
    );
    assert_eq!(skyline, result.skyline);

    // 3. The low-level building blocks: merge phase + subset index.
    let mut metrics = Metrics::new();
    let outcome = merge(&data, &MergeConfig::recommended(data.dims()), &mut metrics);
    println!(
        "merge: {} pivot(s), {} survivor(s), exhausted = {}",
        outcome.pivots.len(),
        outcome.survivors.len(),
        outcome.exhausted
    );
    let mut index = SubsetIndex::new(data.dims());
    for (&q, &sub) in outcome.survivors.iter().zip(&outcome.subspaces) {
        index.put(q, data.point(q), sub);
        println!("  survivor {q} has maximum dominating subspace {sub}");
    }
    // Which stored points could dominate a point that beats the pivots
    // only in dimension 0?
    let candidates = index.query(Subspace::singleton(0), &mut metrics);
    println!("candidates for subspace {{0}}: {candidates:?}");
}
