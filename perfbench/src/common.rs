//! Shared pieces: the metric catalogue, run outcomes, statistics, and
//! the small helpers every workload uses.

use std::collections::BTreeMap;
use std::time::Instant;

use skyline_core::dataset::Dataset;
use skyline_core::point::PointId;

/// How many times a run sets its workload up; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// End-to-end metrics: every workload reports every one of them, from
/// an untraced run. Each is defined for all workloads (see README.md).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics, reported by a traced run. A workload that never
/// enters a layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.generate_ms", "ms"),
    ("core.merge_ms", "ms"),
    ("core.merge.pruned_ratio", "ratio"),
    ("core.boost.sort_ms", "ms"),
    ("core.boost.scan_ms", "ms"),
    ("core.phase_coverage", "ratio"),
    ("core.subset_index.candidates_per_get", "count"),
    ("core.subset_index.nodes_per_get", "count"),
    ("core.dominance.tests", "count"),
    ("server.read_hit_ms", "ms"),
    ("server.read_miss_ms", "ms"),
    ("server.cache.hit_ratio", "ratio"),
    ("server.cache.patched", "count"),
    ("server.cache.evictions", "count"),
    ("server.cache.invalidations", "count"),
    ("server.compute_ms", "ms"),
    ("http.overhead_us", "us"),
    ("registry.insert_us", "us"),
    ("registry.remove_us", "us"),
    ("wal.append_us", "us"),
    ("core.streaming.delta_us", "us"),
    ("server.cache.patch_us", "us"),
    ("registry.changes_since_us", "us"),
    ("registry.apply_replicated_us", "us"),
    ("replica.redirects", "count"),
    ("cluster.connect_us", "us"),
    ("cluster.shard_rpc_ms", "ms"),
    ("cluster.fanout_skew", "ratio"),
    ("cluster.gather_parse_ms", "ms"),
    ("cluster.merge_ms", "ms"),
    ("cluster.merge.candidates", "count"),
    ("cluster.merge.dominance_tests", "count"),
    ("cluster.shard_write_ms", "ms"),
    ("traced.read_p50_ms", "ms"),
    ("traced.ops_per_s", "1/s"),
];

/// Look a metric's unit up in either catalogue.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"))
}

/// Input sizes. `full()` is what the benchmark measures; `toy()` is the
/// same shape at sizes the self-test finishes in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Engine inputs: (n, d) for UI, AC, CO.
    pub engine_ui: (usize, usize),
    pub engine_ac: (usize, usize),
    pub engine_co: (usize, usize),
    /// Serving datasets: the written AC dataset and the read-only UI one.
    pub serve_ac: (usize, usize),
    pub serve_ui: (usize, usize),
    /// The clustered UI dataset and its shard count.
    pub cluster_ui: (usize, usize),
    pub shards: usize,
    /// Sampled projected / k=2 reads re-checked after a serving run.
    pub sample_checks: usize,
    /// Replayed read rounds in a traced cluster run.
    pub replay_rounds: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            engine_ui: (1_000_000, 8),
            engine_ac: (100_000, 6),
            engine_co: (1_000_000, 8),
            serve_ac: (5_000, 6),
            serve_ui: (20_000, 6),
            cluster_ui: (100_000, 6),
            shards: 4,
            sample_checks: 24,
            replay_rounds: 20,
        }
    }

    pub fn toy() -> Scale {
        Scale {
            engine_ui: (3_000, 5),
            engine_ac: (1_000, 4),
            engine_co: (3_000, 5),
            serve_ac: (400, 6),
            serve_ui: (800, 6),
            cluster_ui: (2_000, 6),
            shards: 4,
            sample_checks: 8,
            replay_rounds: 3,
        }
    }
}

/// Everything a workload needs to know about the run it is part of.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Directory for span files and scratch state (inside the checkout).
    pub out_dir: std::path::PathBuf,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Transport errors, timeouts, non-2xx answers, follower redirects
    /// and wrong answers.
    pub failed: u64,
    /// Wrong answers alone; any of them fails the run.
    pub wrong: u64,
    /// Catalogued metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Further figures printed in the report (name, unit, value, samples).
    pub extra: Vec<(String, &'static str, f64, usize)>,
    /// Provenance lines: input checksums and sizes.
    pub stamp: Vec<(String, String)>,
    /// First few failure descriptions, for the report.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        unit_of(name); // catalogued names only
        self.metrics.insert(name, value);
    }

    pub fn extra(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.extra.push((name.to_string(), unit, value, samples));
    }

    /// A report-only figure by name.
    pub fn extra_value(&self, name: &str) -> Option<f64> {
        self.extra.iter().find(|e| e.0 == name).map(|e| e.2)
    }

    pub fn stamp(&mut self, key: &str, value: impl ToString) {
        self.stamp.push((key.to_string(), value.to_string()));
    }

    /// Count one failed operation; `wrong` marks a wrong answer.
    pub fn fail(&mut self, wrong: bool, what: String) {
        self.failed += 1;
        if wrong {
            self.wrong += 1;
        }
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Record a latency percentile in the report only when at least ten
/// samples lie beyond it; otherwise say how many more are needed.
pub fn report_percentile(out: &mut Outcome, name: &str, samples: &[f64], p: f64) {
    let beyond = samples.len() as f64 * (1.0 - p / 100.0);
    if beyond >= 10.0 {
        out.extra(name, "ms", percentile(samples, p), samples.len());
    } else {
        out.stamp(
            name,
            format!(
                "not reported: {} samples leave {beyond:.1} beyond p{p} (10 needed)",
                samples.len()
            ),
        );
    }
}

/// Wall and process CPU time of a measured loop.
pub struct LoopClock {
    start: Instant,
    cpu_s: f64,
}

impl LoopClock {
    pub fn start() -> LoopClock {
        LoopClock {
            start: Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }

    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Record `ops_per_s` for `completed` ops, and the process CPU time
    /// per op (every thread: client, nodes, follower) in the report.
    pub fn finish(&self, out: &mut Outcome, completed: u64) {
        let wall = self.elapsed_s();
        let cpu = process_cpu_s() - self.cpu_s;
        out.set("ops_per_s", completed as f64 / wall);
        out.extra(
            "cpu_ms_per_op",
            "ms",
            cpu * 1e3 / completed.max(1) as f64,
            completed as usize,
        );
    }
}

/// CPU time (user + system) this process has used so far, seconds.
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, in clock ticks.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / CLOCK_TICKS
}

/// `sysconf(_SC_CLK_TCK)` on Linux.
const CLOCK_TICKS: f64 = 100.0;

/// VmHWM of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over a stream of `u64`s.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Checksum of an id list (order-sensitive; callers pass ascending ids).
pub fn ids_checksum<I: IntoIterator<Item = u64>>(ids: I) -> u64 {
    let mut h = Fnv::default();
    let mut n = 0u64;
    for id in ids {
        h.add(id);
        n += 1;
    }
    h.add(n);
    h.finish()
}

/// Checksum of a maintained skyline's ids, ascending.
pub fn skyline_checksum(stream: &skyline_core::streaming::StreamingSkyline) -> u64 {
    let mut ids: Vec<u64> = stream.skyline().iter().map(|&i| i as u64).collect();
    ids.sort_unstable();
    ids_checksum(ids)
}

/// Checksum of a dataset's exact coordinates, in row order.
pub fn rows_checksum<'a, I: IntoIterator<Item = &'a [f64]>>(rows: I) -> u64 {
    let mut h = Fnv::default();
    for row in rows {
        for v in row {
            h.add(v.to_bits());
        }
    }
    h.finish()
}

/// Seed of the point sets themselves, the same for every run.
///
/// SDI-Subset's work depends strongly on the sample: on UI/10^6/d8 its
/// dominance tests range over 33M-52M across sample seeds, which no run
/// length averages out. So each workload draws its points once from this
/// fixed seed. The run seed permutes the engine inputs (and so every id
/// in every answer), picks the rows the serving workloads insert, and
/// drives their op streams.
pub const DATA_SEED: u64 = 2023;

/// Every this-many-th op of a serving loop is a write. Writes sit at
/// fixed positions, so every run does the same number of each kind.
pub const WRITE_EVERY: u64 = 10;

/// What op number `op` (from 1) of a serving loop does: `None` for a
/// read, `Some(true)` for an insert, `Some(false)` for a remove. Inserts
/// and removes alternate 3:1.
pub fn op_kind(op: u64) -> Option<bool> {
    op.is_multiple_of(WRITE_EVERY)
        .then_some(!(op / WRITE_EVERY).is_multiple_of(4))
}

/// A seeded permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = skyline_data::rng::Rng64::seed_from_u64(seed);
    for i in (1..n).rev() {
        let j = rng.gen_below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

/// The rows of `data` as vectors.
pub fn rows_of(data: &Dataset) -> Vec<Vec<f64>> {
    data.iter().map(|(_, r)| r.to_vec()).collect()
}

/// The rows of `data` in a seeded order.
pub fn permuted_rows(data: &Dataset, seed: u64) -> Vec<Vec<f64>> {
    permutation(data.len(), seed)
        .into_iter()
        .map(|i| data.point(i as PointId).to_vec())
        .collect()
}

/// `data` with its rows in a seeded order.
pub fn permuted_dataset(data: &Dataset, seed: u64) -> Dataset {
    let mut flat = Vec::with_capacity(data.len() * data.dims());
    for i in permutation(data.len(), seed) {
        flat.extend_from_slice(data.point(i as PointId));
    }
    Dataset::from_flat(flat, data.dims()).expect("a permutation of valid rows is valid")
}

/// Derive an independent sub-seed for one purpose of a run.
pub fn sub_seed(seed: u64, purpose: u64) -> u64 {
    let mut z = seed ^ purpose.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
