//! The repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `engine_ui`, `engine_ac`, `engine_co` (SDI-Subset in
//! process), `serve_mixed` (primary + follower over HTTP) and
//! `cluster_mixed` (coordinator over four shards). Every answer is
//! checked. The last line of standard output is one JSON object with
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`); the lines before it are a readable report. Spans and
//! results land in `perfbench/out/`.

mod check;
mod cluster;
mod common;
mod engine;
mod net;
mod serve;
mod spans;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use common::{peak_rss_mb, Outcome, RunConfig, Scale, END_TO_END, PER_LAYER};
use spans::Spans;

pub const WORKLOADS: &[&str] = &[
    "engine_ui",
    "engine_ac",
    "engine_co",
    "serve_mixed",
    "cluster_mixed",
];

struct Args {
    workload: String,
    cfg: RunConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        cfg: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            scale: Scale::full(),
            out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        },
    })
}

/// Run one workload; fills in `peak_rss_mb` and the traced run's own
/// end-to-end numbers.
pub fn run_workload(workload: &str, cfg: &RunConfig, spans: &mut Spans) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;
    let mut out = match workload {
        "engine_ui" => engine::run(engine::Input::Ui, cfg, spans),
        "engine_ac" => engine::run(engine::Input::Ac, cfg, spans),
        "engine_co" => engine::run(engine::Input::Co, cfg, spans),
        "serve_mixed" => serve::run(cfg, spans)?,
        "cluster_mixed" => cluster::run(cfg, spans)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    out.set("peak_rss_mb", peak_rss_mb());
    if cfg.trace {
        out.set(
            "traced.read_p50_ms",
            out.extra_value("read_p50_ms").unwrap_or(0.0),
        );
        out.set("traced.ops_per_s", out.metrics["ops_per_s"]);
    }
    Ok(out)
}

/// The result object for the catalogue this run reports; metrics the
/// workload never produced read 0 (a layer it does not enter).
pub fn result_json(out: &Outcome, trace: bool) -> String {
    let catalogue = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = String::new();
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let v = out.metrics.get(name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            metrics,
            "{sep}\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        out.wrong == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed
    )
}

fn stamp_lines(workload: &str, cfg: &RunConfig) -> Vec<(String, String)> {
    vec![
        ("workload".into(), workload.into()),
        ("seed".into(), cfg.seed.to_string()),
        ("seconds".into(), cfg.seconds.to_string()),
        ("trace".into(), (cfg.trace as u8).to_string()),
        (
            "nproc".into(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("profile".into(), env!("PERFBENCH_PROFILE").into()),
        ("rustc".into(), env!("PERFBENCH_RUSTC").into()),
        ("git_rev".into(), env!("PERFBENCH_GIT_REV").into()),
    ]
}

/// The readable report: provenance, every metric with its unit, and
/// any failures.
fn report(workload: &str, cfg: &RunConfig, out: &Outcome) -> String {
    let mut r = String::new();
    for (k, v) in stamp_lines(workload, cfg).iter().chain(&out.stamp) {
        let _ = writeln!(r, "# {k}: {v}");
    }
    for (name, value) in &out.metrics {
        let _ = writeln!(r, "{name:<40} {value:>16.6} {}", common::unit_of(name));
    }
    for (name, unit, value, samples) in &out.extra {
        let _ = writeln!(r, "{name:<40} {value:>16.6} {unit} (n={samples})");
    }
    let _ = writeln!(
        r,
        "# attempted {} failed {} wrong {}",
        out.attempted, out.failed, out.wrong
    );
    for e in &out.errors {
        let _ = writeln!(r, "# error: {e}");
    }
    r
}

/// Traced runs print their own end-to-end numbers beside those of an
/// untraced run of the same workload and seed, when one was made.
fn overhead_lines(cfg: &RunConfig, workload: &str, out: &Outcome) -> String {
    let untraced = cfg
        .out_dir
        .join(format!("{workload}-seed{}-trace0.report", cfg.seed));
    let Ok(text) = std::fs::read_to_string(untraced) else {
        return "# tracing overhead: no untraced run of this seed to compare with\n".into();
    };
    let mut r = String::new();
    for name in ["read_p50_ms", "ops_per_s", "setup_s"] {
        let base = text.lines().find_map(|l| {
            let mut f = l.split_whitespace();
            (f.next() == Some(name)).then(|| f.next()?.parse::<f64>().ok())?
        });
        let traced = out.metrics.get(name).copied().or(out.extra_value(name));
        if let (Some(base), Some(traced)) = (base, traced) {
            let _ = writeln!(
                r,
                "# tracing overhead {name}: untraced {base:.6} traced {traced:.6} ({:+.1}%)",
                100.0 * (traced - base) / base
            );
        }
    }
    r
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = &args.cfg;
    let mut spans = Spans::new(cfg.trace);
    let out = match run_workload(&args.workload, cfg, &mut spans) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload, cfg.seed, cfg.trace as u8
    );
    let mut text = report(&args.workload, cfg, &out);
    if cfg.trace {
        text.push_str(&overhead_lines(cfg, &args.workload, &out));
        let path = cfg.out_dir.join(format!("{stem}.spans.jsonl"));
        if let Err(e) = spans.write_jsonl(&path) {
            eprintln!("perfbench: {}: {e}", path.display());
        }
        let table = spans.self_time_table();
        let _ = std::fs::write(cfg.out_dir.join(format!("{stem}.selftime.txt")), &table);
        text.push_str(&table);
    }
    let _ = std::fs::write(cfg.out_dir.join(format!("{stem}.report")), &text);
    print!("{text}");
    println!("{}", result_json(&out, cfg.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod selftest {
    //! Toy-size runs of every workload: each must emit every catalogued
    //! metric with its unit, the catalogue must match BENCHMARK.json,
    //! and every answer must check out.

    use super::*;
    use skyline_obs::json::Value;

    fn toy(trace: bool) -> RunConfig {
        RunConfig {
            seed: 7,
            seconds: 0.5,
            trace,
            scale: Scale::toy(),
            out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/selftest"),
        }
    }

    fn benchmark_json() -> Value {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside perfbench/");
        Value::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Value::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Value::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = benchmark_json();
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), own(PER_LAYER));
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn every_workload_emits_every_metric_and_checks_out() {
        for trace in [false, true] {
            for w in WORKLOADS {
                let cfg = toy(trace);
                let mut spans = Spans::new(trace);
                let out = run_workload(w, &cfg, &mut spans).unwrap_or_else(|e| panic!("{w}: {e}"));
                assert_eq!(out.wrong, 0, "{w} trace={trace}: {:?}", out.errors);
                assert_eq!(out.failed, 0, "{w} trace={trace}: {:?}", out.errors);
                let line = result_json(&out, trace);
                let v = Value::parse(&line).expect("result line is JSON");
                let metrics = v.get("metrics").unwrap();
                let catalogue = if trace { PER_LAYER } else { END_TO_END };
                for (name, unit) in catalogue {
                    let m = metrics
                        .get(name)
                        .unwrap_or_else(|| panic!("{w}: no {name}"));
                    assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit));
                    assert!(m.get("value").and_then(Value::as_f64).is_some());
                }
                if !trace {
                    for (name, _) in END_TO_END {
                        assert!(out.metrics[name] > 0.0, "{w}: {name} is zero");
                    }
                }
                if trace {
                    assert!(!spans.all().is_empty(), "{w}: traced run recorded no spans");
                }
            }
        }
    }
}
