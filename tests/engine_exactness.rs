//! Exactness gate for engine layout changes: every boosted engine's full
//! [`Metrics`] struct and skyline checksum, pinned on seeded inputs.
//!
//! A change to how the subset index stores or tests its candidates (node
//! layout, dominance kernel, presort records) must not move a single
//! counter: the dominance-test count, the container puts and gets, the
//! candidates returned, the trie nodes visited, the stop-point prunes and
//! both trie histograms stay byte-identical, and so does the skyline.
//!
//! Regenerate the table (only for a change that is *meant* to move a
//! counter, with the reason stated) by running
//! `ENGINE_EXACTNESS_PRINT=1 cargo test --release -p skyline-integration-tests
//! --test engine_exactness -- --nocapture` and pasting the printed rows.

use skyline_algos::boosted::{SalsaSubset, SdiSubset, SfsSubset};
use skyline_algos::parallel::ParallelBoosted;
use skyline_algos::SkylineAlgorithm;
use skyline_core::cancel::CancelToken;
use skyline_core::dataset::Dataset;
use skyline_core::metrics::Metrics;
use skyline_core::point::PointId;
use skyline_core::shard_merge::{
    merge_shard_skylines, reference_masks, select_reference_elites, EliteRef, MergeEntry,
};
use skyline_data::{Distribution, SyntheticSpec};
use skyline_obs::{Histogram, NoopRecorder};

const N: usize = 20_000;
const SHARDS: usize = 4;

/// One pinned run: every `Metrics` field, histograms as fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    engine: &'static str,
    dist: &'static str,
    dims: usize,
    dominance_tests: u64,
    container_puts: u64,
    container_gets: u64,
    candidates_returned: u64,
    index_nodes_visited: u64,
    stop_pruned: u64,
    trie_depth: u64,
    trie_candidates: u64,
    skyline_len: usize,
    skyline_checksum: u64,
}

/// FNV-1a over a stream of `u64`s.
fn fnv(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Fingerprint of every field of a histogram.
fn histogram_fingerprint(h: &Histogram) -> u64 {
    fnv(h
        .buckets()
        .iter()
        .copied()
        .chain([h.count(), h.sum(), h.min(), h.max()]))
}

fn pin(engine: &'static str, dist: &'static str, dims: usize, m: &Metrics, skyline: &[u64]) -> Pin {
    Pin {
        engine,
        dist,
        dims,
        dominance_tests: m.dominance_tests,
        container_puts: m.container_puts,
        container_gets: m.container_gets,
        candidates_returned: m.candidates_returned,
        index_nodes_visited: m.index_nodes_visited,
        stop_pruned: m.stop_pruned,
        trie_depth: histogram_fingerprint(&m.trie_depth),
        trie_candidates: histogram_fingerprint(&m.trie_candidates),
        skyline_len: skyline.len(),
        skyline_checksum: fnv(skyline.iter().copied()),
    }
}

fn input(dist: Distribution, dims: usize) -> Dataset {
    SyntheticSpec {
        distribution: dist,
        cardinality: N,
        dims,
        seed: 0xE8AC_7000 + dims as u64,
    }
    .generate()
}

/// The cluster coordinator's path through `merge_shard_skylines`: four
/// contiguous shards, each reporting its local skyline with shard-local
/// elites and premasks, merged centrally. Only the merge is counted.
fn four_shard_merge(data: &Dataset) -> (Metrics, Vec<u64>) {
    let dims = data.dims();
    let n = data.len();
    let mut entries = Vec::new();
    let mut elite_rows: Vec<(u32, PointId)> = Vec::new();
    for s in 0..SHARDS {
        let (lo, hi) = (s * n / SHARDS, (s + 1) * n / SHARDS);
        let flat: Vec<f64> = (lo..hi)
            .flat_map(|id| data.point(id as PointId).iter().copied())
            .collect();
        let shard = Dataset::from_flat(flat, dims).expect("shard dataset");
        let local: Vec<PointId> = SdiSubset::default()
            .compute(&shard)
            .into_iter()
            .map(|id| id + lo as PointId)
            .collect();
        let elites = select_reference_elites(data, &local);
        let masks = reference_masks(data, &local, &elites);
        for (&q, &premask) in local.iter().zip(&masks) {
            entries.push(MergeEntry {
                key: q as u64,
                shard: s as u32,
                premask,
            });
        }
        elite_rows.extend(elites.iter().map(|&e| (s as u32, e)));
    }
    let elites: Vec<EliteRef> = elite_rows
        .iter()
        .map(|&(shard, e)| EliteRef {
            shard,
            row: data.point(e),
        })
        .collect();
    let mut metrics = Metrics::new();
    let merged = merge_shard_skylines(
        dims,
        SHARDS,
        &entries,
        &elites,
        |k| data.point(k as PointId),
        &mut metrics,
        &mut NoopRecorder,
        &CancelToken::none(),
    )
    .expect("never cancelled");
    (metrics, merged)
}

/// Every engine on one distribution at d = 4 and d = 8.
fn run(dist: Distribution, tag: &'static str) -> Vec<Pin> {
    let mut out = Vec::new();
    for dims in [4, 8] {
        let data = input(dist, dims);
        let engines: Vec<(&'static str, Box<dyn SkylineAlgorithm>)> = vec![
            ("SFS-Subset", Box::new(SfsSubset::default())),
            ("SaLSa-Subset", Box::new(SalsaSubset::default())),
            ("SDI-Subset", Box::new(SdiSubset::default())),
            (
                "P-SDI-Subset/3",
                Box::new(ParallelBoosted::new(SdiSubset::default(), 3)),
            ),
        ];
        let mut reference: Option<Vec<u64>> = None;
        for (name, engine) in engines {
            let mut m = Metrics::new();
            let ids: Vec<u64> = engine
                .compute_with_metrics(&data, &mut m)
                .into_iter()
                .map(u64::from)
                .collect();
            match &reference {
                Some(want) => assert_eq!(&ids, want, "{name} on {tag} d={dims}"),
                None => reference = Some(ids.clone()),
            }
            out.push(pin(name, tag, dims, &m, &ids));
        }
        let (m, ids) = four_shard_merge(&data);
        assert_eq!(
            Some(&ids),
            reference.as_ref(),
            "4-shard merge on {tag} d={dims}"
        );
        out.push(pin("merge_shard_skylines/4", tag, dims, &m, &ids));
    }
    out
}

macro_rules! pins {
    ($(($e:expr, $t:expr, $d:expr, $dt:expr, $pu:expr, $ge:expr, $ca:expr, $no:expr,
        $st:expr, $hd:expr, $hc:expr, $sl:expr, $sc:expr)),* $(,)?) => {
        &[$(Pin {
            engine: $e,
            dist: $t,
            dims: $d,
            dominance_tests: $dt,
            container_puts: $pu,
            container_gets: $ge,
            candidates_returned: $ca,
            index_nodes_visited: $no,
            stop_pruned: $st,
            trie_depth: $hd,
            trie_candidates: $hc,
            skyline_len: $sl,
            skyline_checksum: $sc,
        }),*]
    };
}

/// Captured on the engine before subset-index nodes carried rows.
#[rustfmt::skip]
const EXPECTED: &[Pin] = pins![
    ("SFS-Subset", "AC", 4, 3193009, 2132, 14717, 9659069, 53671, 0, 0x6325c1bc6524ef0f, 0x011ac3a1815940f9, 2150, 0xd42afde0d0923b6d),
    ("SaLSa-Subset", "AC", 4, 1903006, 2132, 14717, 5279162, 53666, 0, 0xe5d4ba04973da6ef, 0xe86cc4c53ac55192, 2150, 0xd42afde0d0923b6d),
    ("SDI-Subset", "AC", 4, 1907316, 2132, 14717, 5285154, 53668, 0, 0xe8ad49b1b238e6ed, 0x83ffe81639675927, 2150, 0xd42afde0d0923b6d),
    ("P-SDI-Subset/3", "AC", 4, 1852030, 5989, 21982, 3380600, 83047, 0, 0xeae25fef508d7536, 0xbd5a915bf7249c37, 2150, 0xd42afde0d0923b6d),
    ("merge_shard_skylines/4", "AC", 4, 660417, 2150, 9952, 504906, 32163, 0, 0xf707e4cbee5142ea, 0x60124e919e2ebc34, 2150, 0xd42afde0d0923b6d),
    ("SFS-Subset", "AC", 8, 15762955, 14712, 18989, 20614244, 174894, 0, 0xc57b63a1bf78774c, 0x3580b68c056673c4, 14723, 0x2b3c3bec81707b13),
    ("SaLSa-Subset", "AC", 8, 7930989, 14712, 18989, 10948413, 174299, 0, 0x1611e8ee4fd99add, 0xdbbfcc0110414374, 14723, 0x2b3c3bec81707b13),
    ("SDI-Subset", "AC", 8, 7932652, 14712, 18989, 10949016, 174265, 0, 0x84341e082f0c9ef4, 0xb7c17ab95c72e503, 14723, 0x2b3c3bec81707b13),
    ("P-SDI-Subset/3", "AC", 8, 6910220, 31481, 51798, 7633999, 688809, 0, 0x21806eb1a81beff1, 0x3f66fcf7b2c46aa7, 14723, 0x2b3c3bec81707b13),
    ("merge_shard_skylines/4", "AC", 8, 5724713, 14723, 48442, 5172375, 416547, 0, 0x98ab1835f1b16561, 0xa845be2e1a3f1dcb, 14723, 0x2b3c3bec81707b13),
    ("SFS-Subset", "UI", 4, 61198, 217, 763, 48700, 3792, 0, 0xfe8a18409ffd7a19, 0xb6feee9a109c58f6, 230, 0xe866f23bcc4dbeb4),
    ("SaLSa-Subset", "UI", 4, 51594, 217, 763, 29891, 3624, 0, 0x080ba9a76d581796, 0xf2262ca425656dc0, 230, 0xe866f23bcc4dbeb4),
    ("SDI-Subset", "UI", 4, 52637, 217, 763, 32624, 3611, 0, 0xe0e29f120930f93f, 0x212d67c838056923, 230, 0xe866f23bcc4dbeb4),
    ("P-SDI-Subset/3", "UI", 4, 62720, 598, 1428, 20836, 5779, 0, 0xc6fe9bcf1a04074d, 0x437df4dbcebac06a, 230, 0xe866f23bcc4dbeb4),
    ("merge_shard_skylines/4", "UI", 4, 26404, 230, 863, 6520, 2238, 0, 0x45c631b3d9d9c67d, 0x3228f5b1a58ce32f, 230, 0xe866f23bcc4dbeb4),
    ("SFS-Subset", "UI", 8, 2487793, 4289, 7630, 4134788, 93579, 0, 0x1cb29b34f9c75348, 0x2561e4380299bb8b, 4313, 0x034fa6563a6b8843),
    ("SaLSa-Subset", "UI", 8, 1255613, 4289, 7630, 2120378, 92015, 0, 0xa415f4eee1bd3bd7, 0x7d9f23e06608d95b, 4313, 0x034fa6563a6b8843),
    ("SDI-Subset", "UI", 8, 1257460, 4289, 7630, 2135651, 92010, 0, 0x3fbe646e515d06fa, 0xdaa277bc4620d675, 4313, 0x034fa6563a6b8843),
    ("P-SDI-Subset/3", "UI", 8, 1182171, 10281, 20284, 1530151, 343637, 0, 0x25e69e16ed70307b, 0x1157b415a76b9874, 4313, 0x034fa6563a6b8843),
    ("merge_shard_skylines/4", "UI", 8, 909516, 4313, 15624, 673604, 152318, 0, 0x46129a3e3037f806, 0x5fb3a45f5eeb5ea1, 4313, 0x034fa6563a6b8843),
    ("SFS-Subset", "CO", 4, 19999, 0, 0, 0, 0, 0, 0x81b169c331cabfa5, 0x81b169c331cabfa5, 1, 0x0b62c09d49bfdc76),
    ("SaLSa-Subset", "CO", 4, 19999, 0, 0, 0, 0, 0, 0x81b169c331cabfa5, 0x81b169c331cabfa5, 1, 0x0b62c09d49bfdc76),
    ("SDI-Subset", "CO", 4, 19999, 0, 0, 0, 0, 0, 0x81b169c331cabfa5, 0x81b169c331cabfa5, 1, 0x0b62c09d49bfdc76),
    ("P-SDI-Subset/3", "CO", 4, 20061, 1, 0, 0, 0, 0, 0x81b169c331cabfa5, 0x81b169c331cabfa5, 1, 0x0b62c09d49bfdc76),
    ("merge_shard_skylines/4", "CO", 4, 13, 1, 0, 0, 0, 24, 0x81b169c331cabfa5, 0x81b169c331cabfa5, 1, 0x0b62c09d49bfdc76),
    ("SFS-Subset", "CO", 8, 25604, 132, 222, 5443, 7020, 0, 0xe5a973d39901cf62, 0x547d65b58937ddb7, 141, 0x229a7d39b9fa8821),
    ("SaLSa-Subset", "CO", 8, 23726, 132, 222, 2575, 5015, 0, 0x940f39e4f5d98fd9, 0xea9f4f9679e9e71a, 141, 0x229a7d39b9fa8821),
    ("SDI-Subset", "CO", 8, 23997, 132, 222, 3034, 5500, 0, 0xe28b668c5f3cb528, 0xc0b269c0c8e25079, 141, 0x229a7d39b9fa8821),
    ("P-SDI-Subset/3", "CO", 8, 26964, 318, 584, 2732, 7895, 0, 0xa03aac25f838f99d, 0x5dcbc2867d039b7e, 141, 0x229a7d39b9fa8821),
    ("merge_shard_skylines/4", "CO", 8, 8470, 141, 440, 1507, 2411, 0, 0x8d3a1a737015c4cf, 0x26b9e3140643d2af, 141, 0x229a7d39b9fa8821),
];

fn check(dist: Distribution, tag: &'static str) {
    let got = run(dist, tag);
    if std::env::var_os("ENGINE_EXACTNESS_PRINT").is_some() {
        for p in &got {
            println!(
                "    ({:?}, {:?}, {}, {}, {}, {}, {}, {}, {}, {:#018x}, {:#018x}, {}, {:#018x}),",
                p.engine,
                p.dist,
                p.dims,
                p.dominance_tests,
                p.container_puts,
                p.container_gets,
                p.candidates_returned,
                p.index_nodes_visited,
                p.stop_pruned,
                p.trie_depth,
                p.trie_candidates,
                p.skyline_len,
                p.skyline_checksum
            );
        }
    }
    let want: Vec<&Pin> = EXPECTED.iter().filter(|p| p.dist == tag).collect();
    assert_eq!(got.len(), want.len(), "one pin per engine and input");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g, w, "{} on {} d={}", w.engine, w.dist, w.dims);
    }
}

#[test]
fn anti_correlated_counters_and_skylines_are_pinned() {
    check(Distribution::AntiCorrelated, "AC");
}

#[test]
fn independent_counters_and_skylines_are_pinned() {
    check(Distribution::Independent, "UI");
}

#[test]
fn correlated_counters_and_skylines_are_pinned() {
    check(Distribution::Correlated, "CO");
}
