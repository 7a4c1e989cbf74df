//! Serving-mode benchmark: measure the HTTP query service end to end —
//! request throughput and latency percentiles across three phases:
//!
//! - **cold** — every request recomputes, measured on a server with the
//!   result cache disabled (mutations patch cached entries forward now,
//!   so a cache-enabled server cannot show the recompute path after a
//!   mutation any more);
//! - **patched** — a streaming insert before each request moves the
//!   content version, but the mutation's skyline delta patches the
//!   cached entry to the new version, so the query still answers warm;
//! - **cached** — the same query repeated verbatim, all plain hits.
//!
//! The patched-vs-cold gap is the headline of the incremental
//! maintenance engine: post-mutation queries at cache-hit latency.
//!
//! The client side uses the in-tree keep-alive [`Session`], so the
//! numbers measure the server, not TCP handshakes.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use skyline_data::SyntheticSpec;
use skyline_obs::json::{ObjectWriter, Value};
use skyline_serve::client::{request_with_retry, RetryPolicy, Session};
use skyline_serve::{Server, ServerConfig, ServerHandle};

/// One measured phase: sorted per-request latencies plus wall clock.
pub(crate) struct Phase {
    pub(crate) latencies_us: Vec<u64>,
    pub(crate) wall_secs: f64,
}

/// Nearest-rank percentile over an ascending latency list.
pub(crate) fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

pub(crate) fn phase_json(phase: &Phase) -> String {
    let n = phase.latencies_us.len();
    let sum: u64 = phase.latencies_us.iter().sum();
    let mut w = ObjectWriter::new();
    w.u64_field("requests", n as u64)
        .u64_field("p50_us", percentile(&phase.latencies_us, 50.0))
        .u64_field("p99_us", percentile(&phase.latencies_us, 99.0))
        .f64_field("mean_us", if n == 0 { 0.0 } else { sum as f64 / n as f64 })
        .f64_field(
            "req_per_sec",
            if phase.wall_secs > 0.0 {
                n as f64 / phase.wall_secs
            } else {
                0.0
            },
        );
    w.finish()
}

pub(crate) fn expect_field(body: &str, needle: &str) -> std::io::Result<()> {
    if body.contains(needle) {
        Ok(())
    } else {
        Err(std::io::Error::other(format!(
            "response missing {needle:?}: {body}"
        )))
    }
}

const QUERY: &str = "/skyline?dataset=bench&algo=SDI-Subset";

/// Start a server with `cache_capacity`, create the benchmark dataset
/// on it, and connect a keep-alive session.
fn bench_server(
    spec: &SyntheticSpec,
    threads: usize,
    cache_capacity: usize,
) -> std::io::Result<(ServerHandle, Session)> {
    let server = Server::start(ServerConfig {
        threads,
        cache_capacity,
        ..Default::default()
    })?;
    let addr = server.local_addr();
    let create_body = format!(
        "{{\"name\": \"bench\", \"synthetic\": {{\"distribution\": \"{}\", \"n\": {}, \"dims\": {}, \"seed\": {}}}}}",
        spec.distribution.tag(),
        spec.cardinality,
        spec.dims,
        spec.seed
    );
    // Setup goes through the retrying client: a freshly started server
    // under load may shed the first attempt, which must not fail the
    // whole benchmark run.
    let created = request_with_retry(
        addr,
        "POST",
        "/datasets",
        create_body.as_bytes(),
        &RetryPolicy::default(),
    )?;
    if created.status != 201 {
        return Err(std::io::Error::other(format!(
            "dataset creation failed: {}",
            created.body_str()
        )));
    }
    let session = Session::connect(addr)?;
    Ok((server, session))
}

/// One insert + timed query sample of a mutation-heavy phase. The
/// response must carry `want_cached` — `false` on the cache-disabled
/// cold server, `true` on the patch-forward server.
fn mutate_and_query(
    session: &mut Session,
    insert_body: &str,
    phase: &mut Phase,
    want_cached: bool,
) -> std::io::Result<()> {
    let resp = session.request("POST", "/datasets/bench/points", insert_body.as_bytes())?;
    if resp.status != 200 {
        return Err(std::io::Error::other(format!(
            "insert failed: {}",
            resp.body_str()
        )));
    }
    if want_cached {
        // The mutation's delta must have carried the entry forward.
        expect_field(&resp.body_str(), "\"cache_patched\":1")?;
    }
    let t = Instant::now();
    let resp = session.request("GET", QUERY, &[])?;
    phase.latencies_us.push(t.elapsed().as_micros() as u64);
    expect_field(
        &resp.body_str(),
        if want_cached {
            "\"cached\":true"
        } else {
            "\"cached\":false"
        },
    )
}

/// Run the serving benchmark and return the `BENCH_*.json` document.
///
/// Cold phase (cache-disabled server): before each query one dominated
/// point is streamed in and the query recomputes. Patched phase (cache
/// enabled, same mutation pattern): the insert's skyline delta patches
/// the cached entry forward, so the post-mutation query answers warm.
/// Cached phase: the same query repeated verbatim, all cache hits.
/// `threads` is the server's worker-pool size (0 = the artefact
/// default).
pub fn serve_bench_json(
    label: &str,
    spec: &SyntheticSpec,
    cold_requests: usize,
    cached_requests: usize,
    threads: usize,
) -> std::io::Result<String> {
    let threads = if threads == 0 {
        crate::artifact::default_bench_threads()
    } else {
        threads
    };
    // A point beaten by everything: the streaming insert is cheap and the
    // skyline itself never changes, so every mutation sample does equal
    // work (and its delta is empty, the cheapest possible patch).
    let dominated_row: Vec<String> = (0..spec.dims).map(|_| "1e9".to_string()).collect();
    let insert_body = format!("{{\"rows\": [[{}]]}}", dominated_row.join(","));

    // Cold: the recompute path, pinned by disabling the cache outright.
    let mut cold = Phase {
        latencies_us: Vec::with_capacity(cold_requests),
        wall_secs: 0.0,
    };
    {
        let (mut server, mut session) = bench_server(spec, threads, 0)?;
        // Warm-up (also verifies the query path before timing anything).
        expect_field(&session.request("GET", QUERY, &[])?.body_str(), "\"ids\"")?;
        let cold_start = Instant::now();
        for _ in 0..cold_requests {
            mutate_and_query(&mut session, &insert_body, &mut cold, false)?;
        }
        cold.wall_secs = cold_start.elapsed().as_secs_f64();
        server.shutdown();
    }

    // Patched + cached phases share one cache-enabled server.
    let (mut server, mut session) = bench_server(spec, threads, 256)?;
    // The warm-up query primes the cache entry the patched phase rides.
    expect_field(&session.request("GET", QUERY, &[])?.body_str(), "\"ids\"")?;

    let mut patched = Phase {
        latencies_us: Vec::with_capacity(cold_requests),
        wall_secs: 0.0,
    };
    let patched_start = Instant::now();
    for _ in 0..cold_requests {
        mutate_and_query(&mut session, &insert_body, &mut patched, true)?;
    }
    patched.wall_secs = patched_start.elapsed().as_secs_f64();

    let mut cached = Phase {
        latencies_us: Vec::with_capacity(cached_requests),
        wall_secs: 0.0,
    };
    let cached_start = Instant::now();
    for _ in 0..cached_requests {
        let t = Instant::now();
        let resp = session.request("GET", QUERY, &[])?;
        cached.latencies_us.push(t.elapsed().as_micros() as u64);
        expect_field(&resp.body_str(), "\"cached\":true")?;
    }
    cached.wall_secs = cached_start.elapsed().as_secs_f64();

    cold.latencies_us.sort_unstable();
    patched.latencies_us.sort_unstable();
    cached.latencies_us.sort_unstable();
    let stats = server.cache_stats();
    server.shutdown();

    let mut cache = ObjectWriter::new();
    cache
        .u64_field("hits", stats.hits)
        .u64_field("misses", stats.misses)
        .u64_field("invalidations", stats.invalidations)
        .u64_field("patched", stats.patched);

    let mut workload = ObjectWriter::new();
    workload
        .str_field("distribution", spec.distribution.tag())
        .u64_field("cardinality", spec.cardinality as u64)
        .u64_field("dims", spec.dims as u64)
        .u64_field("seed", spec.seed)
        .str_field("algorithm", "SDI-Subset")
        .u64_field("server_threads", threads as u64);

    let mut serve = ObjectWriter::new();
    serve
        .raw_field("cold", &phase_json(&cold))
        .raw_field("patched", &phase_json(&patched))
        .raw_field("cached", &phase_json(&cached))
        .raw_field("cache", &cache.finish());

    let mut doc = ObjectWriter::new();
    doc.str_field("artifact", label)
        .raw_field("workload", &workload.finish())
        .raw_field("serve", &serve.finish());
    let mut out = doc.finish();
    out.push('\n');
    Ok(out)
}

/// Poll `session` until the follower serves `dataset` at `version` or
/// beyond; returns the elapsed wait. Errors out after `deadline`.
fn wait_for_replica_version(
    session: &mut Session,
    query: &str,
    version: u64,
    deadline: std::time::Duration,
) -> std::io::Result<std::time::Duration> {
    let start = Instant::now();
    loop {
        if let Ok(resp) = session.request("GET", query, &[]) {
            if resp.status == 200 {
                let served = Value::parse(&resp.body_str())
                    .ok()
                    .and_then(|v| v.get("version").and_then(Value::as_u64));
                if served.is_some_and(|v| v >= version) {
                    return Ok(start.elapsed());
                }
            }
        }
        if start.elapsed() > deadline {
            return Err(std::io::Error::other(format!(
                "follower never reached version {version}"
            )));
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
}

/// Run the replication benchmark and return the `BENCH_*.json` document.
///
/// A follower tails the primary's change feed while the primary absorbs
/// `mutations` streaming inserts; each sample times how long the
/// mutation takes to become visible on the follower (replication lag,
/// ack on the primary to serving on the replica). Then `reads` queries
/// hammer the follower alone for read throughput off the primary's
/// critical path.
pub fn replication_bench_json(
    label: &str,
    spec: &SyntheticSpec,
    mutations: usize,
    reads: usize,
    threads: usize,
) -> std::io::Result<String> {
    let threads = if threads == 0 {
        crate::artifact::default_bench_threads()
    } else {
        threads
    };
    let (mut primary, mut session) = bench_server(spec, threads, 256)?;
    let follower = Server::start(ServerConfig {
        threads,
        follow: Some(primary.local_addr()),
        follow_wait_ms: 50,
        ..Default::default()
    })?;
    let mut replica_session = Session::connect(follower.local_addr())?;
    let sync_deadline = std::time::Duration::from_secs(30);

    // Creation inserted one row per point: the content version is the
    // cardinality. Wait out the follower's initial snapshot sync so the
    // lag samples measure the feed, not the bootstrap.
    let mut version = spec.cardinality as u64;
    wait_for_replica_version(&mut replica_session, QUERY, version, sync_deadline)?;

    let dominated_row: Vec<String> = (0..spec.dims).map(|_| "1e9".to_string()).collect();
    let insert_body = format!("{{\"rows\": [[{}]]}}", dominated_row.join(","));
    let mut lag = Phase {
        latencies_us: Vec::with_capacity(mutations),
        wall_secs: 0.0,
    };
    let lag_start = Instant::now();
    for _ in 0..mutations {
        let resp = session.request("POST", "/datasets/bench/points", insert_body.as_bytes())?;
        if resp.status != 200 {
            return Err(std::io::Error::other(format!(
                "insert failed: {}",
                resp.body_str()
            )));
        }
        version += 1;
        let waited = wait_for_replica_version(&mut replica_session, QUERY, version, sync_deadline)?;
        lag.latencies_us.push(waited.as_micros() as u64);
    }
    lag.wall_secs = lag_start.elapsed().as_secs_f64();

    // Pure follower reads: the primary is idle, every answer is local.
    let mut follower_reads = Phase {
        latencies_us: Vec::with_capacity(reads),
        wall_secs: 0.0,
    };
    let reads_start = Instant::now();
    for _ in 0..reads {
        let t = Instant::now();
        let resp = replica_session.request("GET", QUERY, &[])?;
        follower_reads
            .latencies_us
            .push(t.elapsed().as_micros() as u64);
        expect_field(&resp.body_str(), "\"ids\"")?;
    }
    follower_reads.wall_secs = reads_start.elapsed().as_secs_f64();

    // The follower's own accounting, straight from its /metrics.
    let metrics = replica_session.request("GET", "/metrics", &[])?;
    let counters = Value::parse(&metrics.body_str())
        .ok()
        .and_then(|v| {
            let rep = v.get("replication")?;
            Some((
                rep.get("applied_total").and_then(Value::as_u64)?,
                rep.get("duplicates_total").and_then(Value::as_u64)?,
                rep.get("resyncs_total").and_then(Value::as_u64)?,
            ))
        })
        .ok_or_else(|| std::io::Error::other("follower /metrics lacks replication counters"))?;
    // Close the primary session before the shutdown, or the shutdown
    // waits out its idle keep-alive read and the follower session goes
    // stale in the meantime.
    drop(session);
    primary.shutdown();

    // Failover: with the primary gone, time the promotion itself and
    // the gap until the ex-follower accepts its first write — the
    // node-side share of the detection-to-recovery budget (the
    // coordinator's probe cadence is configuration, not mechanism).
    let failover_start = Instant::now();
    let resp = replica_session.request("POST", "/promote", b"{\"epoch\":1}")?;
    if resp.status != 200 {
        return Err(std::io::Error::other(format!(
            "promotion failed: {}",
            resp.body_str()
        )));
    }
    let promote_us = failover_start.elapsed().as_micros() as u64;
    let resp = replica_session.request("POST", "/datasets/bench/points", insert_body.as_bytes())?;
    if resp.status != 200 {
        return Err(std::io::Error::other(format!(
            "promoted node refused a write: {}",
            resp.body_str()
        )));
    }
    expect_field(&resp.body_str(), "\"epoch\":1")?;
    let first_write_us = failover_start.elapsed().as_micros() as u64;

    lag.latencies_us.sort_unstable();
    follower_reads.latencies_us.sort_unstable();

    let mut workload = ObjectWriter::new();
    workload
        .str_field("distribution", spec.distribution.tag())
        .u64_field("cardinality", spec.cardinality as u64)
        .u64_field("dims", spec.dims as u64)
        .u64_field("seed", spec.seed)
        .str_field("algorithm", "SDI-Subset")
        .u64_field("server_threads", threads as u64);

    let mut feed = ObjectWriter::new();
    feed.u64_field("applied_total", counters.0)
        .u64_field("duplicates_total", counters.1)
        .u64_field("resyncs_total", counters.2);

    let mut failover = ObjectWriter::new();
    failover
        .u64_field("promote_us", promote_us)
        .u64_field("first_write_us", first_write_us);

    let mut replication = ObjectWriter::new();
    replication
        .raw_field("lag", &phase_json(&lag))
        .raw_field("follower_reads", &phase_json(&follower_reads))
        .raw_field("feed", &feed.finish())
        .raw_field("failover", &failover.finish());

    let mut doc = ObjectWriter::new();
    doc.str_field("artifact", label)
        .raw_field("workload", &workload.finish())
        .raw_field("replication", &replication.finish());
    let mut out = doc.finish();
    out.push('\n');
    Ok(out)
}

/// Write the replication benchmark artefact to `path`, echoing a short
/// summary to stderr.
pub fn write_replication_bench_artifact(
    path: &Path,
    label: &str,
    spec: &SyntheticSpec,
    mutations: usize,
    reads: usize,
    threads: usize,
) -> std::io::Result<()> {
    let doc = replication_bench_json(label, spec, mutations, reads, threads)?;
    let mut summary = String::new();
    let _ = write!(summary, "    replication: {} bytes", doc.len());
    eprintln!("{summary}");
    std::fs::write(path, doc)
}

/// Write the serving benchmark artefact to `path`, echoing a short
/// summary to stderr.
pub fn write_serve_bench_artifact(
    path: &Path,
    label: &str,
    spec: &SyntheticSpec,
    cold_requests: usize,
    cached_requests: usize,
    threads: usize,
) -> std::io::Result<()> {
    let doc = serve_bench_json(label, spec, cold_requests, cached_requests, threads)?;
    let mut summary = String::new();
    let _ = write!(summary, "    serve: {} bytes", doc.len());
    eprintln!("{summary}");
    std::fs::write(path, doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_data::Distribution;
    use skyline_obs::json::Value;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 51);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn replication_bench_produces_a_valid_artifact() {
        let spec = SyntheticSpec {
            distribution: Distribution::Independent,
            cardinality: 200,
            dims: 3,
            seed: 13,
        };
        let doc = replication_bench_json("BENCH_TEST_REPL", &spec, 5, 8, 2).expect("bench runs");
        let v = Value::parse(doc.trim()).expect("valid JSON");
        assert_eq!(v.get("artifact").unwrap().as_str(), Some("BENCH_TEST_REPL"));
        let rep = v.get("replication").unwrap();
        let lag = rep.get("lag").unwrap();
        assert_eq!(lag.get("requests").unwrap().as_u64(), Some(5));
        assert!(lag.get("p99_us").unwrap().as_u64().unwrap() >= 1);
        let reads = rep.get("follower_reads").unwrap();
        assert_eq!(reads.get("requests").unwrap().as_u64(), Some(8));
        assert!(reads.get("req_per_sec").unwrap().as_f64().unwrap() > 0.0);
        let feed = rep.get("feed").unwrap();
        // Every lag sample rode the feed; the initial sync is a resync.
        assert!(feed.get("applied_total").unwrap().as_u64().unwrap() >= 5);
        assert!(feed.get("resyncs_total").unwrap().as_u64().unwrap() >= 1);
        let failover = rep.get("failover").unwrap();
        let promote = failover.get("promote_us").unwrap().as_u64().unwrap();
        let first_write = failover.get("first_write_us").unwrap().as_u64().unwrap();
        assert!(promote >= 1);
        assert!(first_write >= promote, "write accepted before promotion?");
    }

    #[test]
    fn serve_bench_produces_a_valid_artifact() {
        let spec = SyntheticSpec {
            distribution: Distribution::Independent,
            cardinality: 300,
            dims: 4,
            seed: 11,
        };
        let doc = serve_bench_json("BENCH_TEST_SERVE", &spec, 5, 10, 2).expect("bench runs");
        let v = Value::parse(doc.trim()).expect("valid JSON");
        assert_eq!(
            v.get("artifact").unwrap().as_str(),
            Some("BENCH_TEST_SERVE")
        );
        let serve = v.get("serve").unwrap();
        let cold = serve.get("cold").unwrap();
        let patched = serve.get("patched").unwrap();
        let cached = serve.get("cached").unwrap();
        assert_eq!(cold.get("requests").unwrap().as_u64(), Some(5));
        assert_eq!(patched.get("requests").unwrap().as_u64(), Some(5));
        assert_eq!(cached.get("requests").unwrap().as_u64(), Some(10));
        assert!(cold.get("p99_us").unwrap().as_u64().unwrap() >= 1);
        assert!(cached.get("req_per_sec").unwrap().as_f64().unwrap() > 0.0);
        let cache = serve.get("cache").unwrap();
        // Warm-up miss, then 5 patched-phase hits + 10 cached-phase hits.
        assert_eq!(cache.get("hits").unwrap().as_u64(), Some(15));
        assert_eq!(cache.get("misses").unwrap().as_u64(), Some(1));
        assert_eq!(
            cache.get("patched").unwrap().as_u64(),
            Some(5),
            "every insert patched the entry forward"
        );
        assert_eq!(cache.get("invalidations").unwrap().as_u64(), Some(0));
    }
}
