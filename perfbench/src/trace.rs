//! In-memory span recorder and the statistics the per-layer table is built
//! from.
//!
//! A span covers one call from the benchmark into a layer's public API. It
//! carries its name (`layer.operation`), start and end on a process-wide
//! monotonic clock, the span that caused it and the closed-loop run it
//! belongs to. Spans stay in memory while the workload runs and are written
//! out once, at exit ([`write_jsonl`]).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `session.advance`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created (0 while the call runs).
    pub end_ns: u64,
    /// The span this call was made from, if any.
    pub parent: Option<SpanId>,
    /// The closed-loop run (iteration) the span belongs to.
    pub run: u64,
    /// Work the call did, in the unit its caller chose (bytes for the
    /// codec and the store, messages for arrivals; 0 when not counted).
    pub count: u64,
}

impl Span {
    /// Wall time of the call in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. A disabled tracer records nothing and costs one branch
/// per call site, so workloads share one code path for traced and untraced
/// runs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    run: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that records every span.
    pub fn on() -> Self {
        Self::new(true)
    }

    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    // Span clocks are benchmark timing: reported, never fed back into results.
    #[allow(clippy::disallowed_methods)]
    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            run: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Tags every following span with closed-loop run `run`.
    pub fn set_run(&self, run: u64) {
        self.run.store(run, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, caused by `parent`. `f` receives
    /// the new span's id to pass on as the parent of nested calls (`None`
    /// when the tracer is off).
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        self.span_counted(name, parent, f, |_| 0)
    }

    /// [`Tracer::span`] that also records the work the call did, computed
    /// from its output after the clock stopped.
    pub fn span_counted<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> T,
        count: impl FnOnce(&T) -> u64,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let run = self.run.load(Ordering::Relaxed);
        let id = {
            let mut spans = self
                .spans
                .lock()
                .expect("span buffer lock is never poisoned");
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                run,
                count: 0,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.now_ns();
        let work = count(&out);
        let mut spans = self
            .spans
            .lock()
            .expect("span buffer lock is never poisoned");
        spans[id].end_ns = end;
        spans[id].count = work;
        drop(spans);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock is never poisoned")
            .clone()
    }
}

/// Writes `spans` as one JSON object per line.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 112);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"run\": {}, \"count\": {}}}",
            s.name, s.start_ns, s.end_ns, s.run, s.count
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may overlap each other (calls made
/// from several threads under one parent); the covered part is the length
/// of the union of their intervals, clipped to the parent's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| children.get_mut(p)) {
            p.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Recorded spans with their self times, and the sums the per-layer
/// metrics are made of.
pub struct SpanSet {
    spans: Vec<Span>,
    self_ns: Vec<u64>,
}

impl SpanSet {
    pub fn new(spans: Vec<Span>) -> Self {
        let self_ns = self_times_ns(&spans);
        Self { spans, self_ns }
    }

    fn named<'a>(&'a self, names: &'a [&str]) -> impl Iterator<Item = (usize, &'a Span)> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| names.contains(&s.name))
    }

    /// Durations of the named spans, in milliseconds.
    pub fn durations_ms(&self, names: &[&str]) -> Vec<f64> {
        self.named(names)
            .map(|(_, s)| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Counts of the named spans, one per span.
    pub fn counts(&self, names: &[&str]) -> Vec<f64> {
        self.named(names).map(|(_, s)| s.count as f64).collect()
    }

    /// Total duration and total count of the named spans.
    pub fn totals(&self, names: &[&str]) -> (u64, u64) {
        self.named(names).fold((0, 0), |(ns, n), (_, s)| {
            (ns + s.duration_ns(), n + s.count)
        })
    }

    /// Per run: the summed self time of the named spans, in seconds.
    pub fn self_s_per_run(&self, names: &[&str]) -> Vec<f64> {
        let mut per_run = std::collections::BTreeMap::<u64, u64>::new();
        for (i, s) in self.named(names) {
            *per_run.entry(s.run).or_default() += self.self_ns[i];
        }
        per_run.into_values().map(|ns| ns as f64 / 1e9).collect()
    }

    /// Per run: the largest duration among the named spans, in seconds.
    pub fn longest_s_per_run(&self, names: &[&str]) -> Vec<f64> {
        let mut per_run = std::collections::BTreeMap::<u64, u64>::new();
        for (_, s) in self.named(names) {
            let longest = per_run.entry(s.run).or_default();
            *longest = (*longest).max(s.duration_ns());
        }
        per_run.into_values().map(|ns| ns as f64 / 1e9).collect()
    }

    /// Per run: the summed count of the named spans.
    pub fn count_per_run(&self, names: &[&str]) -> Vec<f64> {
        let mut per_run = std::collections::BTreeMap::<u64, u64>::new();
        for (_, s) in self.named(names) {
            *per_run.entry(s.run).or_default() += s.count;
        }
        per_run.into_values().map(|n| n as f64).collect()
    }

    /// Human-readable table: calls, total and self time per span name.
    pub fn table(&self) -> String {
        let mut rows = std::collections::BTreeMap::<&str, (u64, u64, u64)>::new();
        for (s, self_ns) in self.spans.iter().zip(&self.self_ns) {
            let row = rows.entry(s.name).or_default();
            row.0 += 1;
            row.1 += s.duration_ns();
            row.2 += self_ns;
        }
        let mut out = format!(
            "{:<28} {:>8} {:>12} {:>12}\n",
            "span", "calls", "total_ms", "self_ms"
        );
        for (name, (calls, total, own)) in rows {
            let _ = writeln!(
                out,
                "{name:<28} {calls:>8} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        out
    }
}

/// The percentile ladder the ten-beyond rule walks down.
const LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// Samples strictly above the nearest-rank `q`-quantile of `n` samples.
fn beyond(n: usize, q: f64) -> usize {
    n - nearest_rank(n, q)
}

/// 1-based nearest rank of the `q`-quantile among `n` samples (the
/// epsilon keeps `0.95 · 200` from rounding up past 190).
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The percentile actually reported when `want` is asked of `n` samples:
/// the highest rung of the ladder, no higher than `want`, that leaves at
/// least ten samples beyond it. `None` when not even the median does
/// (fewer than 20 samples); callers then report the median.
pub fn ten_beyond(n: usize, want: f64) -> Option<f64> {
    LADDER
        .into_iter()
        .filter(|&q| q <= want)
        .find(|&q| beyond(n, q) >= 10)
}

/// Nearest-rank percentile under the ten-beyond rule. Returns the
/// percentile used with its value; 0 for no samples.
pub fn tail(samples: &[f64], want: f64) -> (f64, f64) {
    if samples.is_empty() {
        return (want, 0.0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = ten_beyond(sorted.len(), want).unwrap_or(0.5);
    (q, sorted[nearest_rank(sorted.len(), q) - 1])
}

/// Median (mean of the two middle values for an even count); 0 for no
/// samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "layer.op",
            start_ns,
            end_ns,
            parent,
            run: 0,
            count: 0,
        }
    }

    #[test]
    fn ten_beyond_walks_down_the_ladder_with_the_sample_count() {
        // p95 of 200 samples leaves exactly ten above it.
        assert_eq!(ten_beyond(200, 0.95), Some(0.95));
        // One sample fewer and p95 leaves nine: fall back to p90 (19 beyond).
        assert_eq!(ten_beyond(199, 0.95), Some(0.9));
        assert_eq!(ten_beyond(40, 0.95), Some(0.75));
        assert_eq!(ten_beyond(20, 0.95), Some(0.5));
        assert_eq!(ten_beyond(19, 0.95), None);
        // Never above the percentile asked for.
        assert_eq!(ten_beyond(100_000, 0.5), Some(0.5));
        assert_eq!(ten_beyond(100_000, 0.95), Some(0.95));
        assert_eq!(ten_beyond(10_000, 1.0), Some(0.999));
    }

    #[test]
    fn tail_reports_the_rung_it_used() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&samples, 0.95), (0.95, 190.0));
        assert_eq!(tail(&samples[..40], 0.95), (0.75, 30.0));
        // Too few samples for any rung: the median.
        assert_eq!(tail(&samples[..5], 0.95), (0.5, 3.0));
        assert_eq!(tail(&[], 0.95), (0.95, 0.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(0, 100, None),
            // Two children on parallel threads overlapping in 20..40, and a
            // third running past the parent's end.
            span(10, 40, Some(0)),
            span(20, 50, Some(0)),
            span(90, 130, Some(0)),
            // A grandchild: covered by its parent, not by the root.
            span(25, 35, Some(2)),
        ];
        let self_ns = self_times_ns(&spans);
        // Root: 100 minus the union [10, 50) ∪ [90, 100) = 50.
        assert_eq!(self_ns[0], 50);
        assert_eq!(self_ns[1], 30);
        assert_eq!(self_ns[2], 20);
        assert_eq!(self_ns[3], 40);
        assert_eq!(self_ns[4], 10);
    }

    #[test]
    fn self_time_of_nested_children_counts_once() {
        // A child inside another child's interval adds no extra cover.
        let spans = vec![
            span(0, 100, None),
            span(10, 90, Some(0)),
            span(20, 30, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn tracer_records_parents_and_runs_only_when_on() {
        let tracer = Tracer::on();
        tracer.set_run(7);
        tracer.span("outer.call", None, |parent| {
            tracer.span("inner.call", parent, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].name, "inner.call");
        assert!(spans.iter().all(|s| s.run == 7 && s.end_ns >= s.start_ns));

        let counted =
            tracer.span_counted("codec.encode", None, |_| vec![0u8; 24], |v| v.len() as u64);
        assert_eq!(counted.len(), 24);
        let set = SpanSet::new(tracer.spans());
        assert_eq!(set.totals(&["codec.encode"]).1, 24);
        assert_eq!(set.count_per_run(&["codec.encode"]), vec![24.0]);
        assert_eq!(set.self_s_per_run(&["outer.call", "inner.call"]).len(), 1);

        let off = Tracer::off();
        assert_eq!(off.span("outer.call", None, |parent| parent), None);
        assert!(off.spans().is_empty());
    }
}
