//! What every workload shares: the closed loop, set-up timing, the result
//! line and the process facts (peak RSS, machine).

use crate::catalogue::{self, END_TO_END, PER_LAYER};
use crate::trace::{median, Span, Tracer};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Worker threads of a run (`nproc` of the 2-core box the benchmark is
/// sized for).
pub const THREADS: usize = 2;

/// Command-line settings of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// One closed-loop run: the driver issues the next only after this one
/// returned.
#[derive(Debug, Clone, Copy)]
pub struct Iteration {
    /// Wall time of the measured work (set-up excluded).
    pub wall_s: f64,
    /// Messages delivered.
    pub deliveries: u64,
    /// `collisions + delivered + jammed_deliveries`: slots in which the
    /// channel was used, so fast-forwarded idle gaps never count.
    pub busy_slots: u64,
    /// Whether spans were recorded during this run.
    pub traced: bool,
}

/// Everything a workload reports back to the driver.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Every span a traced run recorded (empty when untraced).
    pub spans: Vec<Span>,
}

/// Output checks of one run; a run with any failed check counts as failed.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records `what` as failed unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records a typed error from the program as a failed check.
    pub fn ok<T, E: std::fmt::Display>(&mut self, result: Result<T, E>, what: &str) -> Option<T> {
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Takes over the failures another set of checks recorded.
    pub fn absorb(&mut self, other: Checks) {
        self.failures.extend(other.failures);
    }

    /// Prints the failures to stderr; returns whether there were none.
    pub fn report(self, run: u64) -> bool {
        for f in &self.failures {
            eprintln!("run {run}: check failed: {f}");
        }
        self.failures.is_empty()
    }
}

/// Times `f` with the monotonic clock.
// Benchmark wall-clock timing: reported, never fed back into results.
#[allow(clippy::disallowed_methods)]
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Runs `iterate` in a closed loop for `seconds` (and at least
/// `min_runs` times). Returns the runs and the number that failed a check.
// The deadline is wall-clock on purpose: it sets how long a run measures.
#[allow(clippy::disallowed_methods)]
pub fn closed_loop(
    seconds: u64,
    min_runs: u64,
    tracer: &Tracer,
    mut iterate: impl FnMut(u64) -> (Iteration, bool),
) -> (Vec<Iteration>, u64) {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut runs = Vec::new();
    let mut failed = 0;
    let mut run = 0u64;
    while run < min_runs || Instant::now() < deadline {
        tracer.set_run(run);
        let (iteration, ok) = iterate(run);
        if !ok {
            failed += 1;
        }
        runs.push(iteration);
        run += 1;
    }
    (runs, failed)
}

/// Runs `work` on every item on [`THREADS`] workers, each claiming the next
/// unclaimed item from a shared counter, and returns the outputs in item
/// order. Spreading one run over both cores keeps its wall time from
/// following the speed of whichever core a single thread landed on.
pub fn fan_out<T: Send, R: Send>(items: Vec<T>, work: impl Fn(T) -> R + Sync) -> Vec<R> {
    let items: Vec<Mutex<Option<T>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = items.get(index) else { break };
                        let item = slot
                            .lock()
                            .expect("an item lock is never poisoned")
                            .take()
                            .expect("each item is claimed once");
                        done.push((index, work(item)));
                    }
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("workers do not panic"))
            .collect()
    });
    done.sort_by_key(|(index, _)| *index);
    done.into_iter().map(|(_, out)| out).collect()
}

/// Builds a workload's inputs with `build` and times it: once, and again
/// while the builds took under 20 ms in total (at most 2000 times), so
/// microsecond set-ups still give a steady median. Returns the last build
/// and every timing.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut samples = Vec::new();
    loop {
        let (built, seconds) = timed(&mut build);
        samples.push(seconds);
        if samples.iter().sum::<f64>() >= 0.02 || samples.len() >= 2000 {
            return (built, samples);
        }
    }
}

/// The end-to-end metrics of the untraced runs among `runs`, with the
/// set-up timings of the whole run.
pub fn end_to_end(
    runs: &[Iteration],
    setups: &[f64],
    attempted: u64,
    failed: u64,
) -> BTreeMap<&'static str, f64> {
    let runs: Vec<Iteration> = runs.iter().filter(|r| !r.traced).copied().collect();
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    eprintln!(
        "{} untraced runs, wall_s min {:.4} median {:.4} max {:.4}",
        walls.len(),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        median(&walls),
        walls.iter().copied().fold(0.0, f64::max)
    );
    let rate = |count: fn(&Iteration) -> u64| -> f64 {
        median(
            &runs
                .iter()
                .map(|r| count(r) as f64 / r.wall_s.max(1e-12))
                .collect::<Vec<_>>(),
        )
    };
    let mut metrics = BTreeMap::new();
    metrics.insert("wall_s", median(&walls));
    metrics.insert("deliveries_per_s", rate(|r| r.deliveries));
    metrics.insert("busy_slots_per_s", rate(|r| r.busy_slots));
    metrics.insert("setup_s", median(setups));
    metrics.insert("peak_rss_mb", peak_rss_mb());
    metrics.insert(
        "success_ratio",
        (attempted - failed) as f64 / attempted.max(1) as f64,
    );
    metrics
}

/// Every per-layer metric at 0, to be overwritten by the layers a workload
/// reaches: a traced run reports the whole catalogue. `trace.overhead_s`
/// is filled in here: the median traced run's wall time minus the median
/// untraced one's. On `paper-sweep` traced runs go through the benchmark's
/// replica of the runner's dispatch, so there it also holds the difference
/// between the replica and `Experiment::run`.
pub fn layer_metrics(runs: &[Iteration]) -> BTreeMap<&'static str, f64> {
    let mut metrics: BTreeMap<&'static str, f64> =
        PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    let walls = |traced: bool| -> Vec<f64> {
        runs.iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.wall_s)
            .collect()
    };
    metrics.insert(
        "trace.overhead_s",
        median(&walls(true)) - median(&walls(false)),
    );
    metrics
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `nproc`, CPU model and last-level cache size of this machine.
pub fn machine_facts() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let llc = (0..8)
        .rev()
        .find_map(|i| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()
        })
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    format!("nproc {nproc}, CPU {model}, LLC {llc}")
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// every metric of the requested catalogue in catalogue order.
///
/// # Errors
/// A metric name outside `[A-Za-z0-9_.-]`, one missing from the outcome,
/// or a value that is not finite.
pub fn result_line(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let names: Vec<&str> = if traced {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let mut fields = Vec::with_capacity(names.len());
    for name in names {
        if !catalogue::valid_name(name) {
            return Err(format!("metric name {name:?} is outside [A-Za-z0-9_.-]"));
        }
        let value = *outcome
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        let unit = catalogue::unit_of(name).unwrap_or("count");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(metrics: &[(&'static str, f64)]) -> Outcome {
        Outcome {
            attempted: 3,
            failed: 0,
            metrics: metrics.iter().copied().collect(),
            spans: Vec::new(),
        }
    }

    #[test]
    fn result_line_carries_every_end_to_end_metric_with_its_unit() {
        let all: Vec<(&'static str, f64)> = END_TO_END.iter().map(|m| (m.name, 1.5)).collect();
        let line = result_line(&outcome(&all), false).expect("complete outcome");
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn result_line_refuses_missing_and_non_finite_metrics() {
        assert!(result_line(&outcome(&[("wall_s", 1.0)]), false).is_err());
        let mut all: Vec<(&'static str, f64)> = END_TO_END.iter().map(|m| (m.name, 1.0)).collect();
        all[0].1 = f64::NAN;
        assert!(result_line(&outcome(&all), false).is_err());
    }

    #[test]
    fn fan_out_keeps_item_order() {
        let out = fan_out((0..50u64).collect(), |i| i * i);
        assert_eq!(out, (0..50u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn end_to_end_takes_medians_over_runs() {
        let run = |wall_s: f64, traced: bool| Iteration {
            wall_s,
            deliveries: 10,
            busy_slots: 30,
            traced,
        };
        let runs = [
            run(1.0, false),
            run(2.0, false),
            run(4.0, false),
            run(100.0, true),
        ];
        let m = end_to_end(&runs, &[0.1, 0.3], 4, 1);
        assert_eq!(m["wall_s"], 2.0);
        assert_eq!(m["deliveries_per_s"], 5.0);
        assert_eq!(m["busy_slots_per_s"], 15.0);
        assert!((m["setup_s"] - 0.2).abs() < 1e-12);
        assert_eq!(m["success_ratio"], 0.75);
        let layers = layer_metrics(&runs);
        assert_eq!(layers["trace.overhead_s"], 98.0);
        assert_eq!(layers.len(), PER_LAYER.len());
    }
}
