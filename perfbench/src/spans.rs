//! The benchmark's own spans: name, start, end, parent and op id around
//! every call it makes into a layer. Spans stay in memory until the run
//! ends, then go out as JSONL plus a self-time table.
//!
//! [`PhaseRecorder`] feeds the engine's phase spans (merge, sort, scan)
//! into the same tree through the public `Recorder` hook.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use skyline_obs::{Event, Recorder};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An in-memory span tree. When disabled every call is a no-op, so
/// untraced runs pay nothing.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The op id later spans are tagged with.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span, which must be `name`.
    pub fn end(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("span end without a start");
        assert_eq!(self.spans[idx].name, name, "spans must nest");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end(name);
        out
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: (count, total ms, self ms). Self time is a span's
    /// duration minus the part its children cover; children never
    /// overlap because spans nest on one thread.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut table: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = table.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur as f64 / 1e6;
            e.2 += dur.saturating_sub(child_ns[i]) as f64 / 1e6;
        }
        table
    }

    /// The self-time table as text: per span, then per layer (the span
    /// name up to its last dot).
    pub fn self_time_table(&self) -> String {
        let table = self.self_times();
        let total_self: f64 = table.values().map(|v| v.2).sum();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<34} {:>8} {:>12} {:>12} {:>7}",
            "span", "count", "total_ms", "self_ms", "self%"
        );
        for (name, (count, total, selfms)) in &table {
            let _ = writeln!(
                out,
                "{name:<34} {count:>8} {total:>12.3} {selfms:>12.3} {:>6.1}%",
                100.0 * selfms / total_self.max(1e-9)
            );
        }
        let mut layers: BTreeMap<&str, f64> = BTreeMap::new();
        for (name, (_, _, selfms)) in &table {
            let layer = name.rsplit_once('.').map_or(*name, |(l, _)| l);
            *layers.entry(layer).or_default() += selfms;
        }
        let _ = writeln!(out, "{:<34} {:>12} {:>7}", "layer", "self_ms", "self%");
        for (layer, selfms) in layers {
            let _ = writeln!(
                out,
                "{layer:<34} {selfms:>12.3} {:>6.1}%",
                100.0 * selfms / total_self.max(1e-9)
            );
        }
        out
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        w.flush()
    }
}

/// Bridges the engine's `Recorder` hook into [`Spans`], and sums the
/// merge phase's pruned counts from its per-iteration events.
pub struct PhaseRecorder<'a> {
    pub spans: &'a mut Spans,
    pub pruned: u64,
}

fn layer_name(phase: &'static str) -> &'static str {
    match phase {
        "merge" => "core.merge",
        "sort" => "core.boost.sort",
        "scan" => "core.boost.scan",
        "run" => "core.run",
        _ => "core.other",
    }
}

impl Recorder for PhaseRecorder<'_> {
    fn enabled(&self) -> bool {
        true
    }

    fn span_start(&mut self, name: &'static str) {
        self.spans.begin(layer_name(name));
    }

    fn span_end(&mut self, name: &'static str) {
        self.spans.end(layer_name(name));
    }

    fn event(&mut self, event: Event) {
        if let Event::MergeIteration { pruned, .. } = event {
            self.pruned += pruned;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(true);
        s.begin("a.outer");
        s.time("b.inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        s.end("a.outer");
        let t = s.self_times();
        let (_, total, selfms) = t["a.outer"];
        let (_, inner, _) = t["b.inner"];
        assert!((total - selfms - inner).abs() < 1e-6);
        assert_eq!(s.all()[1].parent, Some(0));
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let mut s = Spans::new(false);
        s.time("a.x", || ());
        assert!(s.all().is_empty());
    }
}
