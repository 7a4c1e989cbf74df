//! `serve_mixed`: one durable primary and one in-process follower, a
//! closed loop of one generator thread on two keep-alive sessions.
//!
//! Dataset `ac` (AC/5000/d6) takes every write; dataset `ui`
//! (UI/20000/d6) is read-only. Nine ops in ten are primary reads drawn
//! Zipf over a population of query shapes larger than the result cache;
//! every tenth is an insert or a remove on `ac` (3:1), followed by a
//! follower read that carries the ack version as its session token.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use skyline_algos::algorithm_by_name;
use skyline_algos::skyband::k_skyband_ids;
use skyline_core::dataset::Dataset;
use skyline_core::metrics::Metrics;
use skyline_core::streaming::StreamingSkyline;
use skyline_core::subspace::Subspace;
use skyline_data::rng::Rng64;
use skyline_data::synthetic::{anti_correlated, uniform_independent};
use skyline_obs::trace::STAGE_TIMES_HEADER;
use skyline_serve::cache::{CacheKey, CachedResult, ResultCache};
use skyline_serve::registry::Registry;
use skyline_serve::wal::{self, DatasetWal, FsyncPolicy, StorageConfig};
use skyline_serve::{Server, ServerConfig, ServerHandle, MIN_VERSION_HEADER};

use crate::check::{check_ids, check_version, parse_answer, reference_skyband, u64_field};
use crate::common::{
    ids_checksum, mean, median, ms_since, op_kind, percentile, permuted_rows, report_percentile,
    rows_checksum, rows_of, skyline_checksum, sub_seed, LoopClock, Outcome, RunConfig, DATA_SEED,
    SETUP_REPS,
};
use crate::net::{create_dataset, rows_json, wait_until, Client, Zipf};
use crate::spans::Spans;

/// Result cache entries on both nodes.
const CACHE: usize = 256;
/// Server worker threads: the follower's two feed long-polls and the
/// generator's keep-alive session each hold one on the primary.
const THREADS: usize = 4;
const ALGOS: [&str; 2] = ["SDI-Subset", "SaLSa-Subset"];
const NAMES: [&str; 2] = ["ac", "ui"];
const ZIPF_S: f64 = 2.0;

/// One query shape: dataset, projection, skyband depth, algorithm.
#[derive(Debug, Clone, Copy)]
struct Shape {
    ds: usize,
    mask: u64,
    k: u64,
    algo: usize,
}

impl Shape {
    fn path(&self, dims: usize) -> String {
        let mut p = format!(
            "/skyline?dataset={}&algo={}",
            NAMES[self.ds], ALGOS[self.algo]
        );
        if self.mask != Subspace::full(dims).bits() {
            let picked: Vec<String> = (0..dims)
                .filter(|d| self.mask >> d & 1 == 1)
                .map(|d| d.to_string())
                .collect();
            p.push_str(&format!("&dims={}", picked.join(",")));
        }
        if self.k > 1 {
            p.push_str(&format!("&k={}", self.k));
        }
        p
    }

    fn dims(&self, dims: usize) -> Vec<usize> {
        (0..dims).filter(|d| self.mask >> d & 1 == 1).collect()
    }
}

/// Every (dataset, projection of two or more dims, k in {1,2},
/// algorithm): 456 shapes at d=6, against 256 cache entries. Rank 0 is
/// full-space k=1 SDI-Subset on `ac`; the rest are in seeded order.
fn population(dims: usize, rng: &mut Rng64) -> Vec<Shape> {
    let full = Subspace::full(dims).bits();
    let mut rest = Vec::new();
    for ds in 0..2 {
        for mask in 1..=full {
            if mask.count_ones() < 2 {
                continue;
            }
            for k in [1, 2] {
                for algo in 0..2 {
                    let s = Shape { ds, mask, k, algo };
                    if !(ds == 0 && mask == full && k == 1 && algo == 0) {
                        rest.push(s);
                    }
                }
            }
        }
    }
    for i in (1..rest.len()).rev() {
        let j = rng.gen_below(i as u64 + 1) as usize;
        rest.swap(i, j);
    }
    let mut all = vec![Shape {
        ds: 0,
        mask: full,
        k: 1,
        algo: 0,
    }];
    all.extend(rest);
    all
}

struct Nodes {
    primary: ServerHandle,
    follower: ServerHandle,
    dir: PathBuf,
}

fn start_nodes(cfg: &RunConfig, rows: &[Vec<Vec<f64>>; 2], rep: usize) -> Result<Nodes, String> {
    let dir = cfg
        .out_dir
        .join(format!("serve-data-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let primary = Server::start(ServerConfig {
        threads: THREADS,
        cache_capacity: CACHE,
        data_dir: Some(dir.clone()),
        fsync: FsyncPolicy::default(),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("start primary: {e}"))?;
    let mut p = Client::new(primary.local_addr());
    for (name, rows) in NAMES.iter().zip(rows) {
        create_dataset(&mut p, name, rows)?;
    }
    p.expect("GET", "/skyline?dataset=ac", b"", 200)?;
    // The follower starts on loaded datasets, so it syncs each from one
    // snapshot; then it must serve both at their loaded versions.
    let follower = Server::start(ServerConfig {
        threads: THREADS,
        cache_capacity: CACHE,
        follow: Some(primary.local_addr()),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("start follower: {e}"))?;
    let mut f = Client::new(follower.local_addr());
    for (name, rows) in NAMES.iter().zip(rows) {
        let token = vec![(MIN_VERSION_HEADER.to_string(), rows.len().to_string())];
        let path = format!("/skyline?dataset={name}");
        wait_until(Duration::from_secs(20), || {
            let resp = f.request("GET", &path, b"", &token)?;
            (resp.status == 200)
                .then_some(())
                .ok_or_else(|| format!("follower {path}: status {}", resp.status))
        })?;
    }
    Ok(Nodes {
        primary,
        follower,
        dir,
    })
}

/// Stop the follower before the primary: its feed long-polls hold
/// primary workers. Sessions must already be closed.
fn stop_nodes(mut nodes: Nodes) -> f64 {
    let t = Instant::now();
    nodes.follower.shutdown();
    nodes.primary.shutdown();
    let ms = ms_since(t);
    let _ = std::fs::remove_dir_all(&nodes.dir);
    ms
}

enum WriteOp {
    Insert(usize),
    Remove(u64),
}

struct WriteRec {
    op: WriteOp,
    /// Inserted id (inserts); the removed id otherwise.
    id: u64,
    ack: u64,
}

struct ReadRec {
    shape: usize,
    version: u64,
    cached: bool,
    sum: u64,
    ms: f64,
    /// Follower reads carry the ack version they must reach.
    min_version: Option<u64>,
}

/// A read whose ids are kept for a post-run reference check.
struct Sampled {
    shape: usize,
    version: u64,
    ids: Vec<u64>,
}

pub fn run(cfg: &RunConfig, spans: &mut Spans) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (n_ac, dims) = cfg.scale.serve_ac;
    let n_ui = cfg.scale.serve_ui.0;
    let mut gen_ms = Vec::new();
    let mut setup_ms = Vec::new();
    let mut teardown_ms = Vec::new();
    let mut nodes = None;
    let mut rows: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
    let mut fresh: Vec<Vec<f64>> = Vec::new();
    for rep in 0..SETUP_REPS {
        if let Some(old) = nodes.take() {
            teardown_ms.push(stop_nodes(old));
        }
        let t = Instant::now();
        spans.begin("data.generate");
        // Fixed point sets; inserts draw from a pool in seeded order.
        rows = [
            rows_of(&anti_correlated(n_ac, dims, DATA_SEED)),
            rows_of(&uniform_independent(n_ui, dims, DATA_SEED)),
        ];
        let pool = anti_correlated(4 * n_ac, dims, DATA_SEED + 1);
        fresh = permuted_rows(&pool, sub_seed(cfg.seed, 2));
        spans.end("data.generate");
        gen_ms.push(ms_since(t));
        spans.begin("setup.nodes");
        let started = start_nodes(cfg, &rows, rep);
        spans.end("setup.nodes");
        nodes = Some(started?);
        setup_ms.push(ms_since(t));
    }
    let nodes = nodes.expect("at least one set-up");
    out.set("setup_s", median(&setup_ms) / 1e3);
    out.set("data.generate_ms", median(&gen_ms));
    for (name, r) in NAMES.iter().zip(&rows) {
        out.stamp(
            &format!("input_checksum.{name}"),
            format!("{:016x}", rows_checksum(r.iter().map(|v| v.as_slice()))),
        );
    }
    out.stamp(
        "nodes",
        format!("primary data_dir, fsync interval=100ms, cache {CACHE}; one follower; {THREADS} workers each"),
    );

    // The shape ranking is part of the workload; the seed drives the draws.
    let shapes = population(dims, &mut Rng64::seed_from_u64(DATA_SEED));
    let mut rng = Rng64::seed_from_u64(sub_seed(cfg.seed, 5));
    let paths: Vec<String> = shapes.iter().map(|s| s.path(dims)).collect();
    let hot_path = paths[0].clone();
    let zipf = Zipf::new(shapes.len(), ZIPF_S);
    let full = Subspace::full(dims).bits();

    let mut primary = Client::new(nodes.primary.local_addr());
    let mut follower = Client::new(nodes.follower.local_addr());
    let mut live: Vec<u64> = (0..n_ac as u64).collect();
    let mut next_fresh = 0usize;
    let mut writes: Vec<WriteRec> = Vec::new();
    let mut reads: Vec<ReadRec> = Vec::new();
    let mut sampled: Vec<Sampled> = Vec::new();
    let mut write_ms = Vec::new();
    let mut visible_ms = Vec::new();
    let mut stage_compute_ms = Vec::new();
    let mut miss_shapes: Vec<usize> = Vec::new();
    let mut redirects = 0u64;
    let stats_before = nodes.primary.cache_stats();

    let clock = LoopClock::start();
    let mut op = 0u64;
    while clock.elapsed_s() < cfg.seconds || op == 0 {
        op += 1;
        spans.set_op(op);
        out.attempted += 1;
        let Some(insert) = op_kind(op) else {
            // A primary read of one Zipf-drawn shape.
            let shape = zipf.rank(rng.gen_f64());
            let t = Instant::now();
            spans.begin("client.read");
            let resp = primary.request("GET", &paths[shape], b"", &[]);
            spans.end("client.read");
            let ms = ms_since(t);
            let resp = match resp {
                Ok(r) if r.status == 200 => r,
                Ok(r) => {
                    out.fail(false, format!("read {}: status {}", paths[shape], r.status));
                    continue;
                }
                Err(e) => {
                    out.fail(false, e);
                    continue;
                }
            };
            let Some(ans) = parse_answer(&resp.body) else {
                out.fail(true, format!("read {}: unparseable answer", paths[shape]));
                continue;
            };
            if !ans.cached && !miss_shapes.contains(&shape) {
                miss_shapes.push(shape);
            }
            if spans.enabled() && !ans.cached {
                if let Some(us) = resp
                    .header(STAGE_TIMES_HEADER)
                    .and_then(|h| h.split(',').find_map(|kv| kv.strip_prefix("compute=")))
                    .and_then(|v| v.parse::<f64>().ok())
                {
                    stage_compute_ms.push(us / 1e3);
                }
            }
            let s = &shapes[shape];
            if (s.mask != full || s.k > 1)
                && sampled.len() < cfg.scale.sample_checks
                && rng.gen_f64() < 0.05
            {
                sampled.push(Sampled {
                    shape,
                    version: ans.version,
                    ids: ans.ids.clone(),
                });
            }
            reads.push(ReadRec {
                shape,
                version: ans.version,
                cached: ans.cached,
                sum: ids_checksum(ans.ids.iter().copied()),
                ms,
                min_version: None,
            });
            continue;
        };

        // A write on `ac`, then a follower read at its ack version.
        let (wop, method, body) = if insert || live.is_empty() {
            let i = next_fresh % fresh.len();
            next_fresh += 1;
            (
                WriteOp::Insert(i),
                "POST",
                format!("{{\"rows\":{}}}", rows_json(&fresh[i..=i])),
            )
        } else {
            let at = rng.gen_below(live.len() as u64) as usize;
            let id = live.swap_remove(at);
            (WriteOp::Remove(id), "DELETE", format!("{{\"ids\":[{id}]}}"))
        };
        let t = Instant::now();
        spans.begin("client.visible");
        spans.begin("client.write");
        let ack = primary.request(method, "/datasets/ac/points", body.as_bytes(), &[]);
        spans.end("client.write");
        let wms = ms_since(t);
        let ack = match ack {
            Ok(r) if r.status == 200 => r,
            Ok(r) => {
                spans.end("client.visible");
                out.fail(
                    false,
                    format!("write: status {} ({})", r.status, r.body_str()),
                );
                continue;
            }
            Err(e) => {
                spans.end("client.visible");
                out.fail(false, e);
                continue;
            }
        };
        let ack_body = ack.body_str();
        let Some(version) = u64_field(&ack_body, "version") else {
            spans.end("client.visible");
            out.fail(true, format!("write ack without a version: {ack_body}"));
            continue;
        };
        let id = match wop {
            WriteOp::Insert(_) => {
                match crate::check::ids_field(&ack_body).and_then(|v| v.first().copied()) {
                    Some(id) => {
                        live.push(id);
                        id
                    }
                    None => {
                        spans.end("client.visible");
                        out.fail(true, format!("insert ack without an id: {ack_body}"));
                        continue;
                    }
                }
            }
            WriteOp::Remove(id) => id,
        };
        writes.push(WriteRec {
            op: wop,
            id,
            ack: version,
        });
        write_ms.push(wms);
        let token = [(MIN_VERSION_HEADER.to_string(), version.to_string())];
        spans.begin("client.follower_read");
        let fresp = follower.request("GET", &hot_path, b"", &token);
        spans.end("client.follower_read");
        spans.end("client.visible");
        let vms = ms_since(t);
        match fresp {
            Ok(r) if r.status == 200 => match parse_answer(&r.body) {
                Some(ans) => {
                    visible_ms.push(vms);
                    reads.push(ReadRec {
                        shape: 0,
                        version: ans.version,
                        cached: ans.cached,
                        sum: ids_checksum(ans.ids.iter().copied()),
                        ms: vms - wms,
                        min_version: Some(version),
                    });
                }
                None => out.fail(true, "follower read: unparseable answer".into()),
            },
            Ok(r) => {
                if r.status == 307 {
                    redirects += 1;
                }
                out.fail(false, format!("follower read: status {}", r.status));
            }
            Err(e) => out.fail(false, e),
        }
    }
    let completed = out.attempted - out.failed;
    clock.finish(&mut out, completed);
    let stats_after = nodes.primary.cache_stats();

    // Teardown: close every session, stop the follower, then the primary.
    primary.close();
    follower.close();
    teardown_ms.push(stop_nodes(nodes));

    // ---- end-to-end numbers --------------------------------------------
    let primary_reads: Vec<&ReadRec> = reads.iter().filter(|r| r.min_version.is_none()).collect();
    let read_ms: Vec<f64> = primary_reads.iter().map(|r| r.ms).collect();
    out.extra("read_p50_ms", "ms", median(&read_ms), read_ms.len());
    out.extra("read_mean_ms", "ms", mean(&read_ms), read_ms.len());
    report_percentile(&mut out, "read_p99_ms", &read_ms, 99.0);
    out.extra(
        "write_p50_ms",
        "ms",
        percentile(&write_ms, 50.0),
        write_ms.len(),
    );
    report_percentile(&mut out, "write_p90_ms", &write_ms, 90.0);
    out.extra(
        "visible_p50_ms",
        "ms",
        percentile(&visible_ms, 50.0),
        visible_ms.len(),
    );
    report_percentile(&mut out, "visible_p90_ms", &visible_ms, 90.0);
    out.extra(
        "teardown_s",
        "s",
        teardown_ms.last().copied().unwrap_or(0.0) / 1e3,
        teardown_ms.len(),
    );
    out.stamp("reads", read_ms.len());
    out.stamp("writes", writes.len());

    // ---- answer checks against an in-process mirror ---------------------
    let t = Instant::now();
    let mut replay = Replay::new(cfg, &rows, &fresh)?;
    replay.check(&mut out, &shapes, &reads, &sampled, &writes);
    out.stamp("check_s", format!("{:.2}", t.elapsed().as_secs_f64()));

    if spans.enabled() {
        let hit: Vec<f64> = primary_reads
            .iter()
            .filter(|r| r.cached)
            .map(|r| r.ms)
            .collect();
        let miss: Vec<f64> = primary_reads
            .iter()
            .filter(|r| !r.cached)
            .map(|r| r.ms)
            .collect();
        out.set("server.read_hit_ms", median(&hit));
        out.set("server.read_miss_ms", median(&miss));
        let hits = (stats_after.hits - stats_before.hits) as f64;
        let misses = (stats_after.misses - stats_before.misses) as f64;
        out.set("server.cache.hit_ratio", hits / (hits + misses).max(1.0));
        out.set(
            "server.cache.patched",
            (stats_after.patched - stats_before.patched) as f64,
        );
        out.set(
            "server.cache.evictions",
            (stats_after.evictions - stats_before.evictions) as f64,
        );
        out.set(
            "server.cache.invalidations",
            (stats_after.invalidations - stats_before.invalidations) as f64,
        );
        out.set("replica.redirects", redirects as f64);
        out.extra(
            "stage_header.compute_ms",
            "ms",
            median(&stage_compute_ms),
            stage_compute_ms.len(),
        );
        replay.write_path(&mut out, &writes, spans)?;
        // The first-missed shapes, on the final snapshots.
        let (_, ac_rows) = replay.mirror.snapshot_rows();
        let compute: Vec<f64> = miss_shapes
            .iter()
            .take(cfg.scale.sample_checks)
            .map(|&i| {
                let shape = &shapes[i];
                replay.compute_ms(shape, if shape.ds == 0 { &ac_rows } else { &rows[1] })
            })
            .collect();
        out.set("server.compute_ms", median(&compute));
        let get_us = replay.cache_get_us();
        out.set("http.overhead_us", (median(&hit) * 1e3 - get_us).max(0.0));
        out.set("core.streaming.delta_us", median(&replay.delta_us));
    }
    Ok(out)
}

/// Post-run replay of the op stream through the public library
/// functions: the answer checks, and in traced runs the write-path and
/// compute timings.
struct Replay<'a> {
    cfg: &'a RunConfig,
    rows: &'a [Vec<Vec<f64>>; 2],
    fresh: &'a [Vec<f64>],
    dims: usize,
    mirror: StreamingSkyline,
    delta_us: Vec<f64>,
}

impl<'a> Replay<'a> {
    fn new(
        cfg: &'a RunConfig,
        rows: &'a [Vec<Vec<f64>>; 2],
        fresh: &'a [Vec<f64>],
    ) -> Result<Replay<'a>, String> {
        let dims = cfg.scale.serve_ac.1;
        let mut mirror = StreamingSkyline::new(dims).map_err(|e| e.to_string())?;
        let mut m = Metrics::new();
        for r in &rows[0] {
            mirror.insert(r, &mut m).map_err(|e| e.to_string())?;
        }
        Ok(Replay {
            cfg,
            rows,
            fresh,
            dims,
            mirror,
            delta_us: Vec::new(),
        })
    }

    /// Milliseconds to compute `shape` over `rows` the way the server
    /// computes a miss; the answer is discarded.
    fn compute_ms(&self, shape: &Shape, rows: &[Vec<f64>]) -> f64 {
        let data = Dataset::from_rows(rows).expect("mirror rows are valid");
        let target = if shape.mask == Subspace::full(self.dims).bits() {
            data
        } else {
            data.project_dims(Subspace::from_bits(shape.mask))
        };
        let t = Instant::now();
        let ids = if shape.k > 1 {
            k_skyband_ids(&target, shape.k as usize, &mut Metrics::new())
        } else {
            algorithm_by_name(ALGOS[shape.algo])
                .expect("registered algorithm")
                .compute(&target)
        };
        std::hint::black_box(ids);
        ms_since(t)
    }

    /// Reference-check the sampled reads taken at the mirror's current
    /// version.
    fn check_at_version(
        &mut self,
        out: &mut Outcome,
        shapes: &[Shape],
        sampled: &[Sampled],
        next: &mut usize,
    ) {
        let v = self.mirror.version();
        // `ui` never changes, so its samples are due whenever they come up.
        while *next < sampled.len()
            && (shapes[sampled[*next].shape].ds == 1 || sampled[*next].version <= v)
        {
            let s = &sampled[*next];
            *next += 1;
            let shape = shapes[s.shape];
            let (ids, rows): (Vec<u64>, Vec<Vec<f64>>) = if shape.ds == 0 {
                if s.version != v {
                    out.fail(
                        true,
                        format!("sampled read at unknown version {}", s.version),
                    );
                    continue;
                }
                let (ids, rows) = self.mirror.snapshot_rows();
                (ids.into_iter().map(|i| i as u64).collect(), rows)
            } else {
                (
                    (0..self.rows[1].len() as u64).collect(),
                    self.rows[1].clone(),
                )
            };
            let want = reference_skyband(&ids, &rows, &shape.dims(self.dims), shape.k as usize);
            if let Err(e) = check_ids(&want, &s.ids) {
                out.fail(true, format!("{}: {e}", shape.path(self.dims)));
            }
        }
    }

    fn check(
        &mut self,
        out: &mut Outcome,
        shapes: &[Shape],
        reads: &[ReadRec],
        sampled: &[Sampled],
        writes: &[WriteRec],
    ) {
        let full = Subspace::full(self.dims).bits();
        // Expected full-space `ac` skyline checksum at every version.
        let mut expected: HashMap<u64, u64> = HashMap::new();
        expected.insert(self.mirror.version(), skyline_checksum(&self.mirror));
        let ui_ids: Vec<u64> = (0..self.rows[1].len() as u64).collect();
        let all_dims: Vec<usize> = (0..self.dims).collect();
        let ui_sum = ids_checksum(reference_skyband(&ui_ids, &self.rows[1], &all_dims, 1));
        let mut next = 0;
        self.check_at_version(out, shapes, sampled, &mut next);
        let mut m = Metrics::new();
        for w in writes {
            let t = Instant::now();
            let ok = match w.op {
                WriteOp::Insert(i) => {
                    let fresh = self.fresh;
                    matches!(self.mirror.insert_delta(&fresh[i], &mut m), Ok((id, _)) if id as u64 == w.id)
                }
                WriteOp::Remove(id) => self.mirror.remove_delta(id as u32, &mut m).is_some(),
            };
            self.delta_us.push(t.elapsed().as_secs_f64() * 1e6);
            if !ok || self.mirror.version() != w.ack {
                out.fail(
                    true,
                    format!(
                        "write acked at version {} with id {} does not replay (mirror at {})",
                        w.ack,
                        w.id,
                        self.mirror.version()
                    ),
                );
                return;
            }
            expected.insert(w.ack, skyline_checksum(&self.mirror));
            self.check_at_version(out, shapes, sampled, &mut next);
        }
        for r in reads {
            let shape = shapes[r.shape];
            if let Some(min) = r.min_version {
                if let Err(e) = check_version(min, r.version) {
                    out.fail(true, format!("follower read: {e}"));
                    continue;
                }
            }
            if shape.mask != full || shape.k != 1 {
                continue; // sampled reads were checked above
            }
            let want = if shape.ds == 0 {
                expected.get(&r.version).copied()
            } else {
                Some(ui_sum)
            };
            if want != Some(r.sum) {
                out.fail(
                    true,
                    format!(
                        "{} at version {}: wrong ids",
                        shape.path(self.dims),
                        r.version
                    ),
                );
            }
        }
    }

    /// Replay the writes through a second durable `Registry` (same
    /// storage config as the primary), a bare WAL, the change feed, a
    /// follower-side `Registry`, and a result cache being patched.
    fn write_path(
        &mut self,
        out: &mut Outcome,
        writes: &[WriteRec],
        spans: &mut Spans,
    ) -> Result<(), String> {
        let fresh = self.fresh;
        let base = self
            .cfg
            .out_dir
            .join(format!("serve-replay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let storage = |sub: &str| StorageConfig {
            dir: base.join(sub),
            fsync: FsyncPolicy::default(),
            compact_bytes: 1 << 20,
        };
        let io = |e: std::io::Error| e.to_string();
        let reg = |e: skyline_serve::registry::RegistryError| e.to_string();
        let primary = Registry::open(storage("registry")).map_err(io)?;
        let entry = primary
            .create("ac", self.dims, &self.rows[0])
            .map_err(reg)?;
        let replica = Registry::new();
        let r_entry = replica
            .create("ac", self.dims, &self.rows[0])
            .map_err(reg)?;
        std::fs::create_dir_all(base.join("wal")).map_err(io)?;
        let mut wal_probe = DatasetWal::create(&storage("wal"), "ac").map_err(io)?;
        let cache = ResultCache::new(CACHE);
        let full = Subspace::full(self.dims).bits();
        let key = |mask: u64, version: u64| CacheKey {
            dataset: "ac".to_string(),
            version,
            algorithm: ALGOS[0].to_string(),
            mask_bits: mask,
            k: 1,
            threads: 0,
        };
        let (v0, sky0) = entry.streaming_skyline();
        cache.insert(
            key(full, v0),
            CachedResult {
                ids: sky0,
                elapsed_us: 0,
            },
        );
        let (mut ins, mut rem, mut walus, mut chg, mut apply, mut patch) =
            (vec![], vec![], vec![], vec![], vec![], vec![]);
        let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
        for (i, w) in writes.iter().enumerate() {
            spans.set_op(i as u64);
            // Projected entries that the patch has to drop, as on the primary.
            for mask in [full >> 1, full >> 2, full ^ 1] {
                cache.insert(
                    key(mask, entry.info().version),
                    CachedResult {
                        ids: Vec::new(),
                        elapsed_us: 0,
                    },
                );
            }
            let t = Instant::now();
            spans.begin("replay.registry.write");
            let mutation = match w.op {
                WriteOp::Insert(r) => {
                    let res = entry.insert_rows(&fresh[r..=r]).map_err(reg)?;
                    ins.push(us(t));
                    res.1
                }
                WriteOp::Remove(id) => {
                    let res = entry.remove_ids(&[id as u32]).map_err(reg)?;
                    rem.push(us(t));
                    res.1
                }
            };
            spans.end("replay.registry.write");
            let record = match w.op {
                WriteOp::Insert(r) => wal::insert_record(&fresh[r], mutation.version),
                WriteOp::Remove(id) => wal::remove_record(id as u32, mutation.version),
            };
            let t = Instant::now();
            spans
                .time("replay.wal.append", || wal_probe.append_batch(&[record]))
                .map_err(io)?;
            walus.push(us(t));
            let t = Instant::now();
            spans.begin("replay.cache.patch");
            cache.patch_dataset("ac", full, mutation.base_version, &mutation.delta);
            spans.end("replay.cache.patch");
            patch.push(us(t));
            let t = Instant::now();
            let batch = spans
                .time("replay.registry.changes_since", || {
                    entry.changes_since(mutation.base_version, 64)
                })
                .map_err(|_| "change feed gone during replay".to_string())?;
            chg.push(us(t));
            for record in &batch.records {
                let t = Instant::now();
                spans.begin("replay.registry.apply_replicated");
                let res = r_entry.apply_replicated(record).map_err(reg)?;
                spans.end("replay.registry.apply_replicated");
                apply.push(us(t));
                if res != skyline_serve::registry::ReplicaApply::Applied {
                    out.fail(
                        true,
                        format!(
                            "replayed record {} did not apply: {res:?}",
                            record.version()
                        ),
                    );
                }
            }
            if mutation.version != w.ack {
                out.fail(
                    true,
                    format!(
                        "replayed write reached version {}, the server acked {}",
                        mutation.version, w.ack
                    ),
                );
            }
        }
        drop(wal_probe);
        drop(primary);
        let _ = std::fs::remove_dir_all(&base);
        out.set("registry.insert_us", median(&ins));
        out.set("registry.remove_us", median(&rem));
        out.set("wal.append_us", median(&walus));
        out.set("server.cache.patch_us", median(&patch));
        out.set("registry.changes_since_us", median(&chg));
        out.set("registry.apply_replicated_us", median(&apply));
        Ok(())
    }

    /// Median cost of one `ResultCache::get` hit on a full cache, µs.
    fn cache_get_us(&self) -> f64 {
        let cache = ResultCache::new(CACHE);
        let sky: Vec<u32> = self.mirror.skyline();
        for i in 0..CACHE as u64 {
            cache.insert(
                CacheKey {
                    dataset: "ac".to_string(),
                    version: i,
                    algorithm: ALGOS[0].to_string(),
                    mask_bits: Subspace::full(self.dims).bits(),
                    k: 1,
                    threads: 0,
                },
                CachedResult {
                    ids: sky.clone(),
                    elapsed_us: 0,
                },
            );
        }
        let hot = CacheKey {
            dataset: "ac".to_string(),
            version: CACHE as u64 - 1,
            algorithm: ALGOS[0].to_string(),
            mask_bits: Subspace::full(self.dims).bits(),
            k: 1,
            threads: 0,
        };
        let mut samples = Vec::with_capacity(2000);
        for _ in 0..2000 {
            let t = Instant::now();
            let hit = cache.get(&hot);
            samples.push(t.elapsed().as_secs_f64() * 1e6);
            assert!(hit.is_some());
        }
        median(&samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{rows_of, Scale};

    /// The post-run checker must flag a read with a wrong id list and a
    /// follower read older than its session token, and pass a good one.
    #[test]
    fn checker_rejects_wrong_ids_and_stale_follower_reads() {
        let dims = 6;
        let cfg = RunConfig {
            seed: 1,
            seconds: 0.0,
            trace: false,
            scale: Scale::toy(),
            out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/selftest"),
        };
        let rows = [
            rows_of(&anti_correlated(50, dims, 1)),
            rows_of(&uniform_independent(60, dims, 2)),
        ];
        let fresh = rows_of(&anti_correlated(5, dims, 3));
        let shapes = population(dims, &mut Rng64::seed_from_u64(1));
        // One insert, acknowledged at version 51 with id 50.
        let writes = vec![WriteRec {
            op: WriteOp::Insert(0),
            id: 50,
            ack: 51,
        }];
        let mut mirror = StreamingSkyline::new(dims).unwrap();
        let mut m = Metrics::new();
        for r in rows[0].iter().chain(&fresh[..1]) {
            mirror.insert(r, &mut m).unwrap();
        }
        let mut sky: Vec<u64> = mirror.skyline().iter().map(|&i| i as u64).collect();
        sky.sort_unstable();
        let good = ids_checksum(sky);
        let read = |sum: u64, min_version: Option<u64>| ReadRec {
            shape: 0,
            version: 51,
            cached: false,
            sum,
            ms: 0.0,
            min_version,
        };
        for (reads, wrong) in [
            (vec![read(good, None), read(good, Some(51))], 0),
            (vec![read(good ^ 1, None)], 1),
            (vec![read(good, Some(52))], 1),
        ] {
            let mut out = Outcome::default();
            Replay::new(&cfg, &rows, &fresh).unwrap().check(
                &mut out,
                &shapes,
                &reads,
                &[],
                &writes,
            );
            assert_eq!(out.wrong, wrong, "{:?}", out.errors);
        }
    }
}
