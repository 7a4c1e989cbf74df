//! `cluster_mixed`: a coordinator over four in-process shards holding
//! UI/10^5/d6, and a closed loop of one generator thread on one
//! keep-alive session. Nine ops in ten are full-space SDI-Subset reads;
//! every tenth is an insert or a remove (3:1) that the coordinator
//! routes to the owning shard.

use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use skyline_cluster::{Cluster, ClusterConfig, ClusterHandle};
use skyline_core::cancel::CancelToken;
use skyline_core::metrics::Metrics;
use skyline_core::shard_merge::{merge_shard_skylines, EliteRef, MergeEntry};
use skyline_core::streaming::StreamingSkyline;
use skyline_core::subspace::Subspace;
use skyline_data::rng::Rng64;
use skyline_data::synthetic::uniform_independent;
use skyline_obs::json::Value;
use skyline_obs::NoopRecorder;
use skyline_serve::{Server, ServerConfig, ServerHandle};

use crate::check::{parse_answer, u64_field};
use crate::common::{
    ids_checksum, mean, median, ms_since, op_kind, percentile, permuted_rows, report_percentile,
    rows_checksum, rows_of, skyline_checksum, sub_seed, LoopClock, Outcome, RunConfig, DATA_SEED,
    SETUP_REPS,
};
use crate::net::{create_dataset, rows_json, Client};
use crate::spans::Spans;

const THREADS: usize = 4;
const READ: &str = "/skyline?dataset=ui&algo=SDI-Subset";
const SHARD_READ: &str = "/skyline?dataset=ui&algo=SDI-Subset&include_masks=1&include_rows=1";

struct Topology {
    shards: Vec<ServerHandle>,
    coordinator: ClusterHandle,
}

impl Topology {
    fn shard_addrs(&self) -> Vec<SocketAddr> {
        self.shards.iter().map(ServerHandle::local_addr).collect()
    }
}

fn start(cfg: &RunConfig, rows: &[Vec<f64>]) -> Result<Topology, String> {
    let mut shards = Vec::new();
    for _ in 0..cfg.scale.shards {
        shards.push(
            Server::start(ServerConfig {
                threads: THREADS,
                ..ServerConfig::default()
            })
            .map_err(|e| format!("start shard: {e}"))?,
        );
    }
    let addrs = shards.iter().map(ServerHandle::local_addr).collect();
    let coordinator = Cluster::start(ClusterConfig {
        threads: THREADS,
        ..ClusterConfig::new(addrs)
    })
    .map_err(|e| format!("start coordinator: {e}"))?;
    let topo = Topology {
        shards,
        coordinator,
    };
    let mut c = Client::new(topo.coordinator.local_addr());
    create_dataset(&mut c, "ui", rows)?;
    c.expect("GET", READ, b"", 200)?;
    Ok(topo)
}

/// Coordinator first, then the shards. Sessions must already be closed.
fn stop(mut topo: Topology) -> f64 {
    let t = Instant::now();
    topo.coordinator.shutdown();
    for s in &mut topo.shards {
        s.shutdown();
    }
    ms_since(t)
}

enum WriteOp {
    Insert(usize),
    Remove(u64),
}

struct ReadRec {
    /// Writes acknowledged before this read was sent.
    after_writes: usize,
    sum: u64,
}

pub fn run(cfg: &RunConfig, spans: &mut Spans) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (n, dims) = cfg.scale.cluster_ui;
    let mut gen_ms = Vec::new();
    let mut setup_ms = Vec::new();
    let mut teardown_ms = Vec::new();
    let mut topo = None;
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut fresh: Vec<Vec<f64>> = Vec::new();
    for _ in 0..SETUP_REPS {
        if let Some(old) = topo.take() {
            teardown_ms.push(stop(old));
        }
        let t = Instant::now();
        spans.begin("data.generate");
        // A fixed point set; inserts draw from a pool in seeded order.
        rows = rows_of(&uniform_independent(n, dims, DATA_SEED));
        let pool = uniform_independent(n / 5, dims, DATA_SEED + 1);
        fresh = permuted_rows(&pool, sub_seed(cfg.seed, 6));
        spans.end("data.generate");
        gen_ms.push(ms_since(t));
        spans.begin("setup.cluster");
        let started = start(cfg, &rows);
        spans.end("setup.cluster");
        topo = Some(started?);
        setup_ms.push(ms_since(t));
    }
    let topo = topo.expect("at least one set-up");
    out.set("setup_s", median(&setup_ms) / 1e3);
    out.set("data.generate_ms", median(&gen_ms));
    out.stamp(
        "input_checksum.ui",
        format!("{:016x}", rows_checksum(rows.iter().map(|r| r.as_slice()))),
    );
    out.stamp(
        "topology",
        format!(
            "coordinator over {} in-process shards, {THREADS} workers each",
            cfg.scale.shards
        ),
    );

    let mut rng = Rng64::seed_from_u64(sub_seed(cfg.seed, 8));
    let mut client = Client::new(topo.coordinator.local_addr());
    let mut live: Vec<u64> = (0..n as u64).collect();
    let mut next_fresh = 0usize;
    let mut writes: Vec<(WriteOp, u64)> = Vec::new();
    let mut reads: Vec<ReadRec> = Vec::new();
    let mut read_ms = Vec::new();
    let mut write_ms = Vec::new();

    let clock = LoopClock::start();
    let mut op = 0u64;
    while clock.elapsed_s() < cfg.seconds || op == 0 {
        op += 1;
        spans.set_op(op);
        out.attempted += 1;
        let Some(insert) = op_kind(op) else {
            let t = Instant::now();
            let resp = spans.time("client.read", || client.request("GET", READ, b"", &[]));
            let ms = ms_since(t);
            match resp {
                Ok(r) if r.status == 200 => match parse_answer(&r.body) {
                    Some(ans) if !r.body.windows(14).any(|w| w == b"\"partial\":true") => {
                        read_ms.push(ms);
                        reads.push(ReadRec {
                            after_writes: writes.len(),
                            sum: ids_checksum(ans.ids.iter().copied()),
                        });
                    }
                    _ => out.fail(true, "read: unparseable or partial answer".into()),
                },
                Ok(r) => out.fail(false, format!("read: status {}", r.status)),
                Err(e) => out.fail(false, e),
            }
            continue;
        };
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
        let resp = spans.time("client.write", || {
            client.request(method, "/datasets/ui/points", body.as_bytes(), &[])
        });
        let ms = ms_since(t);
        match resp {
            Ok(r) if r.status == 200 => {
                let text = r.body_str();
                let id = match wop {
                    WriteOp::Insert(_) => {
                        crate::check::ids_field(&text).and_then(|v| v.first().copied())
                    }
                    WriteOp::Remove(id) => (u64_field(&text, "removed") == Some(1)).then_some(id),
                };
                match id {
                    Some(id) => {
                        if matches!(wop, WriteOp::Insert(_)) {
                            live.push(id);
                        }
                        write_ms.push(ms);
                        writes.push((wop, id));
                    }
                    None => out.fail(
                        true,
                        format!("write ack does not match the request: {text}"),
                    ),
                }
            }
            Ok(r) => out.fail(
                false,
                format!("write: status {} ({})", r.status, r.body_str()),
            ),
            Err(e) => out.fail(false, e),
        }
    }
    let completed = out.attempted - out.failed;
    clock.finish(&mut out, completed);

    out.extra("read_p50_ms", "ms", median(&read_ms), read_ms.len());
    out.extra("read_mean_ms", "ms", mean(&read_ms), read_ms.len());
    report_percentile(&mut out, "read_p99_ms", &read_ms, 99.0);
    report_percentile(&mut out, "read_p90_ms", &read_ms, 90.0);
    out.extra(
        "write_p50_ms",
        "ms",
        percentile(&write_ms, 50.0),
        write_ms.len(),
    );
    report_percentile(&mut out, "write_p90_ms", &write_ms, 90.0);
    out.stamp("reads", read_ms.len());
    out.stamp("writes", writes.len());

    // ---- answer checks against a streaming mirror of the same rows ----
    let t = Instant::now();
    let mut mirror = StreamingSkyline::new(dims).map_err(|e| e.to_string())?;
    let mut m = Metrics::new();
    for r in &rows {
        mirror.insert(r, &mut m).map_err(|e| e.to_string())?;
    }
    let mut expected = vec![skyline_checksum(&mirror)];
    for (wop, id) in &writes {
        let ok = match wop {
            WriteOp::Insert(i) => mirror
                .insert(&fresh[*i], &mut m)
                .is_ok_and(|got| got as u64 == *id),
            WriteOp::Remove(id) => mirror.remove(*id as u32, &mut m),
        };
        if !ok {
            out.fail(
                true,
                format!("write of id {id} does not replay on the mirror"),
            );
        }
        expected.push(skyline_checksum(&mirror));
    }
    for (i, r) in reads.iter().enumerate() {
        if r.sum != expected[r.after_writes] {
            out.fail(
                true,
                format!("read {i} after {} writes: wrong ids", r.after_writes),
            );
        }
    }
    out.stamp("check_s", format!("{:.2}", t.elapsed().as_secs_f64()));

    if spans.enabled() {
        replay_reads(cfg, &topo, &mirror, &mut out, spans)?;
        shard_writes(cfg, &topo, &rows, &fresh, &mut out, spans)?;
    }

    client.close();
    teardown_ms.push(stop(topo));
    out.extra(
        "teardown_s",
        "s",
        teardown_ms.last().copied().unwrap_or(0.0) / 1e3,
        teardown_ms.len(),
    );
    Ok(out)
}

/// One shard's `include_masks=1&include_rows=1` answer.
struct ShardAnswer {
    masks: Vec<u64>,
    elites: Vec<usize>,
    rows: Vec<Vec<f64>>,
}

fn parse_shard(body: &str) -> Result<ShardAnswer, String> {
    let v = Value::parse(body)?;
    let nums = |key: &str| -> Result<Vec<u64>, String> {
        v.get(key)
            .and_then(Value::as_arr)
            .ok_or(format!("shard answer lacks {key:?}"))?
            .iter()
            .map(|x| x.as_u64().ok_or(format!("non-numeric {key}")))
            .collect()
    };
    let masks = nums("masks")?;
    let elites = nums("elites")?.into_iter().map(|e| e as usize).collect();
    let rows = v
        .get("rows")
        .and_then(Value::as_arr)
        .ok_or("shard answer lacks \"rows\"")?
        .iter()
        .map(|r| {
            r.as_arr()
                .ok_or("row is not an array".to_string())?
                .iter()
                .map(|x| x.as_f64().ok_or("non-numeric coordinate".to_string()))
                .collect()
        })
        .collect::<Result<Vec<Vec<f64>>, String>>()?;
    Ok(ShardAnswer {
        masks,
        elites,
        rows,
    })
}

/// Checksum of a set of rows, independent of order.
fn row_set_sum(mut rows: Vec<&[f64]>) -> u64 {
    rows.sort_by(|a, b| {
        a.iter()
            .zip(*b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows_checksum(rows)
}

/// The coordinator's read path, replayed by the benchmark: a fresh
/// connect, one keep-alive leg per shard, parsing the four bodies, and
/// the cross-shard merge — each timed on its own.
fn replay_reads(
    cfg: &RunConfig,
    topo: &Topology,
    mirror: &StreamingSkyline,
    out: &mut Outcome,
    spans: &mut Spans,
) -> Result<(), String> {
    let dims = mirror.dims();
    let want = row_set_sum(
        mirror
            .skyline()
            .iter()
            .map(|&id| mirror.get(id).expect("skyline ids are live"))
            .collect(),
    );
    let addrs = topo.shard_addrs();
    let mut legs: Vec<Client> = addrs.iter().map(|&a| Client::new(a)).collect();
    let (mut connect, mut rpc, mut skew, mut parse, mut merge, mut cands, mut dts) =
        (vec![], vec![], vec![], vec![], vec![], vec![], vec![]);
    for round in 0..cfg.scale.replay_rounds {
        spans.set_op(round as u64);
        spans.begin("replay.cluster.read");
        let t = Instant::now();
        let conn = spans.time("cluster.connect", || {
            TcpStream::connect(addrs[round % addrs.len()])
        });
        connect.push(t.elapsed().as_secs_f64() * 1e6);
        drop(conn.map_err(|e| format!("connect: {e}"))?);
        let mut bodies = Vec::new();
        let mut leg_ms = Vec::new();
        for leg in legs.iter_mut() {
            let t = Instant::now();
            let resp = spans.time("cluster.shard_rpc", || {
                leg.expect("GET", SHARD_READ, b"", 200)
            })?;
            leg_ms.push(ms_since(t));
            bodies.push(resp.body_str());
        }
        rpc.extend(&leg_ms);
        skew.push(leg_ms.iter().cloned().fold(0.0, f64::max) / median(&leg_ms).max(1e-9));
        let t = Instant::now();
        let answers = spans.time("cluster.gather_parse", || {
            bodies
                .iter()
                .map(|b| parse_shard(b))
                .collect::<Result<Vec<_>, _>>()
        })?;
        parse.push(ms_since(t));

        let mut entries = Vec::new();
        let mut row_refs: Vec<&[f64]> = Vec::new();
        let mut elites = Vec::new();
        for (s, a) in answers.iter().enumerate() {
            let base = row_refs.len();
            for (i, row) in a.rows.iter().enumerate() {
                entries.push(MergeEntry {
                    key: (base + i) as u64,
                    shard: s as u32,
                    premask: Subspace::from_bits(a.masks[i]),
                });
                row_refs.push(row.as_slice());
            }
            for &e in &a.elites {
                elites.push(EliteRef {
                    shard: s as u32,
                    row: &a.rows[e],
                });
            }
        }
        let mut metrics = Metrics::new();
        let t = Instant::now();
        let merged = spans
            .time("cluster.merge", || {
                merge_shard_skylines(
                    dims,
                    answers.len(),
                    &entries,
                    &elites,
                    |k| row_refs[k as usize],
                    &mut metrics,
                    &mut NoopRecorder,
                    &CancelToken::none(),
                )
            })
            .map_err(|_| "merge cancelled".to_string())?;
        merge.push(ms_since(t));
        spans.end("replay.cluster.read");
        cands.push(entries.len() as f64);
        dts.push(metrics.dominance_tests as f64);
        if row_set_sum(merged.iter().map(|&k| row_refs[k as usize]).collect()) != want {
            out.fail(
                true,
                format!("replayed merge round {round} differs from the mirror"),
            );
        }
    }
    for leg in &mut legs {
        leg.close();
    }
    out.set("cluster.connect_us", median(&connect));
    out.set("cluster.shard_rpc_ms", median(&rpc));
    out.set("cluster.fanout_skew", median(&skew));
    out.set("cluster.gather_parse_ms", median(&parse));
    out.set("cluster.merge_ms", median(&merge));
    out.set("cluster.merge.candidates", median(&cands));
    out.set("cluster.merge.dominance_tests", median(&dts));
    Ok(())
}

/// A shard's own write path: inserts and removes against a side
/// dataset on shard 0 holding every fourth row, so the cluster's data
/// is left untouched.
fn shard_writes(
    cfg: &RunConfig,
    topo: &Topology,
    rows: &[Vec<f64>],
    fresh: &[Vec<f64>],
    out: &mut Outcome,
    spans: &mut Spans,
) -> Result<(), String> {
    let side: Vec<&Vec<f64>> = rows.iter().step_by(cfg.scale.shards).collect();
    let mut c = Client::new(topo.shards[0].local_addr());
    create_dataset(&mut c, "probe", &side)?;
    let mut ms = Vec::new();
    for round in 0..cfg.scale.replay_rounds {
        spans.set_op(round as u64);
        let body = format!("{{\"rows\":{}}}", rows_json(&fresh[round..=round]));
        let t = Instant::now();
        let resp = spans.time("cluster.shard_write", || {
            c.expect("POST", "/datasets/probe/points", body.as_bytes(), 200)
        })?;
        ms.push(ms_since(t));
        let id = crate::check::ids_field(&resp.body_str())
            .and_then(|v| v.first().copied())
            .ok_or("shard insert ack without an id")?;
        let body = format!("{{\"ids\":[{id}]}}");
        let t = Instant::now();
        spans.time("cluster.shard_write", || {
            c.expect("DELETE", "/datasets/probe/points", body.as_bytes(), 200)
        })?;
        ms.push(ms_since(t));
    }
    c.close();
    out.set("cluster.shard_write_ms", median(&ms));
    Ok(())
}
