//! `paper-sweep`: the Figure 1 / Table 1 grid — the paper's five-protocol
//! line-up, powers of ten in k, 10 replications — run through
//! `Experiment::run` on two threads.
//!
//! Untraced runs call `Experiment::run` itself. A traced run alternates
//! those with the benchmark's own replica of the runner's dispatch (workers
//! claim task indices from a shared counter and derive each task's seed
//! exactly as the runner does), which calls `FairSimulator::run` and
//! `WindowSimulator::run` directly so that every task gets a span. The
//! replica's makespans must equal the runner's cell by cell.

use crate::harness::{
    closed_loop, end_to_end, layer_metrics, timed, timed_setup, Checks, Config, Iteration, Outcome,
    THREADS,
};
use crate::trace::{median, tail, SpanId, SpanSet, Tracer};
use mac_prob::rng::derive_seed;
use mac_protocols::{analysis, ParameterError, ProtocolFamily, ProtocolKind};
use mac_sim::{Experiment, ExperimentResults, FairSimulator, RunResult, WindowSimulator};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The largest instance size is 10^MAX_EXP.
const MAX_EXP: u32 = 6;

const FAIR_SPAN: &str = "fair.run";
const WINDOW_SPAN: &str = "window.run";

fn grid(ks: Vec<u64>, seed: u64, threads: usize) -> Experiment {
    let mut experiment = Experiment::paper(ks, seed);
    experiment.threads = threads;
    experiment
}

fn paper_ks() -> Vec<u64> {
    (1..=MAX_EXP).map(|e| 10u64.pow(e)).collect()
}

fn busy(result: &RunResult) -> u64 {
    result.collisions + result.delivered + result.jammed_deliveries
}

/// One task of the grid, in the runner's order (protocol-major, then k,
/// then replication).
#[derive(Clone, Copy)]
struct Task {
    protocol: usize,
    k: usize,
    replication: u64,
}

fn tasks(experiment: &Experiment) -> Vec<Task> {
    let mut tasks = Vec::new();
    for protocol in 0..experiment.protocols.len() {
        for k in 0..experiment.ks.len() {
            for replication in 0..experiment.replications {
                tasks.push(Task {
                    protocol,
                    k,
                    replication,
                });
            }
        }
    }
    tasks
}

/// `Experiment::run`'s up-front configuration checks.
fn validate(experiment: &Experiment) -> Result<(), ParameterError> {
    for kind in &experiment.protocols {
        kind.build_node(1)?;
    }
    experiment.options.validate_adversary()
}

/// The runner's dispatch, replicated so each engine call gets a span:
/// configurations checked up front, workers claiming task indices from a
/// shared counter into private shards, a failure flag checked before each
/// claim, shards merged by task index at the end.
fn dispatch(
    experiment: &Experiment,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<Vec<RunResult>, ParameterError> {
    validate(experiment)?;
    let tasks = tasks(experiment);
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    type Shard = Vec<(usize, RunResult)>;
    let shards: Vec<Result<Shard, ParameterError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| -> Result<Shard, ParameterError> {
                    let mut shard = Vec::new();
                    while !failed.load(Ordering::Acquire) {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(task) = tasks.get(index) else { break };
                        let kind = &experiment.protocols[task.protocol];
                        let k = experiment.ks[task.k];
                        let seed = derive_seed(
                            experiment.master_seed,
                            &[task.protocol as u64, task.k as u64, task.replication],
                        );
                        let options = experiment.options.clone();
                        let outcome = match kind.family() {
                            ProtocolFamily::Fair => tracer.span(FAIR_SPAN, parent, |_| {
                                FairSimulator::new(kind.clone(), options).run(k, seed)
                            }),
                            ProtocolFamily::Window => tracer.span(WINDOW_SPAN, parent, |_| {
                                WindowSimulator::new(kind.clone(), options).run(k, seed)
                            }),
                        };
                        match outcome {
                            Ok(result) => shard.push((index, result)),
                            Err(error) => {
                                failed.store(true, Ordering::Release);
                                return Err(error);
                            }
                        }
                    }
                    Ok(shard)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker threads do not panic"))
            .collect()
    });
    let mut results: Vec<Option<RunResult>> = vec![None; tasks.len()];
    for shard in shards {
        for (index, result) in shard? {
            results[index] = Some(result);
        }
    }
    Ok(results.into_iter().flatten().collect())
}

/// Makespans per cell, in the runner's cell order.
fn cells_of(results: &ExperimentResults) -> Vec<Vec<u64>> {
    results.cells.iter().map(|c| c.makespans.clone()).collect()
}

/// Every cell completed and its slots/k lies inside the envelopes the
/// repository's tests assert: at least one slot per message; above the
/// fair optimum e (with 5% slack) from k = 5000; One-fail Adaptive's mean
/// under 2(δ+1)k + 40·log²k; Exp Back-on/Back-off under Theorem 2's
/// 4(1 + 1/δ)k from k = 1000.
fn check_cells(results: &ExperimentResults, checks: &mut Checks) {
    for cell in &results.cells {
        let at = || format!("{} k={}", cell.protocol, cell.k);
        checks.expect(cell.all_completed, || format!("{} did not complete", at()));
        checks.expect(cell.makespans.len() == 10, || {
            format!("{} has {} replications", at(), cell.makespans.len())
        });
        let k = cell.k as f64;
        let min = cell.makespans.iter().copied().min().unwrap_or(0);
        checks.expect(min >= cell.k, || {
            format!("{}: makespan {min} below k", at())
        });
        if cell.k >= 5_000 {
            let floor = 0.95 * analysis::fair_protocol_optimal_ratio();
            checks.expect(cell.ratio.mean > floor, || {
                format!(
                    "{}: ratio {:.3} beats the fair optimum",
                    at(),
                    cell.ratio.mean
                )
            });
        }
        match cell.kind {
            ProtocolKind::OneFailAdaptive { delta } => {
                let log2k = k.log2();
                let envelope = 2.0 * (delta + 1.0) * k + 40.0 * log2k * log2k;
                checks.expect(cell.makespan.mean < envelope, || {
                    format!(
                        "{}: mean makespan {:.0} over {envelope:.0}",
                        at(),
                        cell.makespan.mean
                    )
                });
            }
            ProtocolKind::ExpBackonBackoff { delta } if cell.k >= 1_000 => {
                let bound = analysis::ebb_makespan_bound(delta, cell.k).unwrap_or(0.0);
                let max = cell.makespans.iter().copied().max().unwrap_or(0);
                checks.expect((max as f64) < bound, || {
                    format!("{}: makespan {max} over Theorem 2's {bound:.0}", at())
                });
            }
            _ => {}
        }
    }
}

/// The replica's results regrouped into the runner's cells.
fn replica_cells(experiment: &Experiment, results: &[RunResult]) -> Vec<Vec<u64>> {
    let makespans: Vec<u64> = results.iter().map(|r| r.makespan).collect();
    makespans
        .chunks(experiment.replications as usize)
        .map(<[u64]>::to_vec)
        .collect()
}

pub fn run(config: &Config) -> Outcome {
    let off = Tracer::off();
    let tracer = if config.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };

    // Reference pass (untimed): direct engine calls give the busy-slot
    // counts the runner does not report, and the makespans every run must
    // reproduce.
    let experiment = grid(paper_ks(), config.seed, THREADS);
    let reference = dispatch(&experiment, &off, None);
    let reference_cells = reference
        .as_ref()
        .ok()
        .map(|results| replica_cells(&experiment, results));
    let (mut fair_busy, mut window_busy) = (0u64, 0u64);
    for (task, result) in tasks(&experiment).iter().zip(reference.iter().flatten()) {
        match experiment.protocols[task.protocol].family() {
            ProtocolFamily::Fair => fair_busy += busy(result),
            ProtocolFamily::Window => window_busy += busy(result),
        }
    }
    let deliveries: u64 = experiment.ks.iter().sum::<u64>()
        * experiment.replications
        * experiment.protocols.len() as u64;

    let mut setups = Vec::new();
    let (runs, failed) = closed_loop(
        config.seconds,
        if config.trace { 4 } else { 3 },
        &tracer,
        |run| {
            let mut checks = Checks::default();
            // Set-up: the grid built and its configurations checked.
            let ((experiment, valid), samples) = timed_setup(|| {
                let experiment = grid(paper_ks(), config.seed, THREADS);
                let valid = validate(&experiment);
                (experiment, valid)
            });
            setups.push(median(&samples));
            checks.ok(valid, "configuration check");
            checks.expect(reference_cells.is_some(), || {
                "reference pass failed".to_string()
            });
            let traced = config.trace && run % 2 == 1;
            let (cells, wall_s) = if traced {
                let (results, wall_s) = timed(|| {
                    tracer.span("runner.sweep", None, |parent| {
                        dispatch(&experiment, &tracer, parent)
                    })
                });
                let results = checks.ok(results, "replica dispatch");
                (results.map(|r| replica_cells(&experiment, &r)), wall_s)
            } else {
                let (results, wall_s) = timed(|| experiment.run());
                let results = checks.ok(results, "Experiment::run");
                if let Some(results) = &results {
                    check_cells(results, &mut checks);
                }
                (results.as_ref().map(cells_of), wall_s)
            };
            checks.expect(cells.is_some() && cells == reference_cells, || {
                "makespans differ from the reference pass".to_string()
            });
            let ok = checks.report(run);
            (
                Iteration {
                    wall_s,
                    deliveries,
                    busy_slots: fair_busy + window_busy,
                    traced,
                },
                ok,
            )
        },
    );
    let attempted = runs.len() as u64;
    if !config.trace {
        return Outcome {
            attempted,
            failed,
            metrics: end_to_end(&runs, &setups, attempted, failed),
            spans: Vec::new(),
        };
    }

    // Single-thread baseline: the same grid on one worker.
    let serial = grid(paper_ks(), config.seed, 1);
    let (serial_result, serial_s) = timed(|| serial.run());
    eprintln!("single-thread baseline: {serial_s:.3} s");
    let serial_ok = serial_result.is_ok_and(|r| Some(cells_of(&r)) == reference_cells);
    if !serial_ok {
        eprintln!("single-thread baseline differs from the reference pass");
    }

    let spans = SpanSet::new(tracer.spans());
    eprint!("{}", spans.table());
    let mut metrics = layer_metrics(&runs);
    let tasks = [FAIR_SPAN, WINDOW_SPAN];
    let fair_s = median(&spans.self_s_per_run(&[FAIR_SPAN]));
    let window_s = median(&spans.self_s_per_run(&[WINDOW_SPAN]));
    let durations = spans.durations_ms(&tasks);
    let untraced: Vec<f64> = runs
        .iter()
        .filter(|r| !r.traced)
        .map(|r| r.wall_s)
        .collect();
    metrics.insert("fair.self_s", fair_s);
    metrics.insert("fair.busy_slots", fair_busy as f64);
    metrics.insert(
        "fair.ns_per_busy_slot",
        fair_s * 1e9 / fair_busy.max(1) as f64,
    );
    metrics.insert("window.self_s", window_s);
    metrics.insert("window.busy_slots", window_busy as f64);
    metrics.insert(
        "window.ns_per_busy_slot",
        window_s * 1e9 / window_busy.max(1) as f64,
    );
    metrics.insert("runner.task_p50_ms", tail(&durations, 0.5).1);
    let (q, p95) = tail(&durations, 0.95);
    eprintln!(
        "runner.task_p95_ms is p{} of {} tasks",
        q * 100.0,
        durations.len()
    );
    metrics.insert("runner.task_p95_ms", p95);
    metrics.insert(
        "runner.longest_task_s",
        median(&spans.longest_s_per_run(&tasks)),
    );
    metrics.insert(
        "runner.parallel_efficiency",
        serial_s / (THREADS as f64 * median(&untraced)),
    );
    Outcome {
        attempted: attempted + 1,
        failed: failed + u64::from(!serial_ok),
        metrics,
        spans: tracer.spans(),
    }
}
