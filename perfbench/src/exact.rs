//! `exact-reference`: the per-station `ExactSimulator` on batched One-fail
//! Adaptive and on the known-k oracle's heavy Poisson schedule (rate 20
//! over a k/20-slot horizon). Every conformance gate compares the fast
//! engines against this engine and its protocol state machines. Each run
//! executes both on four instances, on two workers that claim the next
//! instance from a shared counter. Set-up samples the Poisson schedules and
//! builds both simulators.

use crate::harness::{
    closed_loop, end_to_end, fan_out, layer_metrics, timed, timed_setup, Checks, Config, Iteration,
    Outcome,
};
use crate::trace::{median, SpanSet, Tracer};
use mac_channel::ArrivalModel;
use mac_prob::rng::{derive_seed, Xoshiro256pp};
use mac_protocols::ProtocolKind;
use mac_sim::dynamic::{ARRIVAL_STREAM, RUN_STREAM};
use mac_sim::{ExactSimulator, RunOptions, RunResult};
use rand::SeedableRng;

/// Messages per instance: small enough that a run takes a fraction of a
/// second, so one process measures dozens of runs.
const K: u64 = 2_000;
/// Instances of each engine run per run, each on a seed of its own.
const INSTANCES: u64 = 4;

const BATCHED: &str = "exact.batched";
const SCHEDULE: &str = "exact.schedule";

fn busy(result: &RunResult) -> u64 {
    result.collisions + result.delivered + result.jammed_deliveries
}

pub fn run(config: &Config) -> Outcome {
    let tracer = if config.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let off = Tracer::off();
    let seeds: Vec<u64> = (0..INSTANCES)
        .map(|i| derive_seed(config.seed, &[i]))
        .collect();
    let poisson = ArrivalModel::Poisson {
        rate: 20.0,
        horizon: K / 20,
    };
    let mut setups = Vec::new();
    let mut first = None;
    let mut per_run = (0u64, 0u64);
    let (runs, failed) = closed_loop(
        config.seconds,
        if config.trace { 4 } else { 3 },
        &tracer,
        |run| {
            let traced = config.trace && run % 2 == 1;
            let tracer = if traced { &tracer } else { &off };
            let mut checks = Checks::default();
            let ((batched, oracle, schedules), samples) = timed_setup(|| {
                let schedules: Vec<_> = seeds
                    .iter()
                    .map(|&seed| {
                        tracer.span_counted(
                            "arrivals.sample",
                            None,
                            |_| {
                                let mut rng = Xoshiro256pp::seed_from_u64(derive_seed(
                                    seed,
                                    &[ARRIVAL_STREAM],
                                ));
                                poisson.sample(&mut rng)
                            },
                            |s| s.len() as u64,
                        )
                    })
                    .collect();
                let batched = ExactSimulator::new(
                    ProtocolKind::OneFailAdaptive { delta: 2.72 },
                    RunOptions::default(),
                );
                let oracle = ExactSimulator::new(ProtocolKind::KnownKOracle, RunOptions::default());
                (batched, oracle, schedules)
            });
            setups.push(median(&samples));
            // Batched instances first: they are the longer tasks, so the
            // workers finish close together.
            let tasks: Vec<usize> = (0..2 * seeds.len()).collect();
            let (outcomes, wall_s) = timed(|| {
                fan_out(tasks, |task| {
                    let (instance, batch) = (task % seeds.len(), task < seeds.len());
                    let run_seed = derive_seed(seeds[instance], &[RUN_STREAM]);
                    if batch {
                        let result = tracer.span(BATCHED, None, |_| batched.run(K, run_seed));
                        (result.map_err(|e| format!("batched run: {e}")), K)
                    } else {
                        let schedule = &schedules[instance];
                        let result = tracer
                            .span(SCHEDULE, None, |_| oracle.run_schedule(schedule, run_seed));
                        let result = result
                            .map(|run| run.result)
                            .map_err(|e| format!("schedule run: {e}"));
                        (result, schedule.len() as u64)
                    }
                })
            });
            let mut results = Vec::with_capacity(outcomes.len());
            for (result, want) in outcomes {
                if let Some(r) = checks.ok(result, "exact run") {
                    checks.expect(r.completed && r.delivered == want, || {
                        format!("{} delivered {} of {want}", r.protocol, r.delivered)
                    });
                    results.push(r);
                }
            }
            let fingerprint: Vec<(u64, u64)> =
                results.iter().map(|r| (r.makespan, r.collisions)).collect();
            let expected = first.get_or_insert_with(|| fingerprint.clone());
            checks.expect(*expected == fingerprint, || {
                "results differ between runs of one seed".to_string()
            });
            per_run = (
                results.iter().map(|r| r.makespan).sum(),
                results.iter().map(|r| r.delivered).sum(),
            );
            let ok = checks.report(run);
            (
                Iteration {
                    wall_s,
                    deliveries: per_run.1,
                    busy_slots: results.iter().map(busy).sum(),
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
    let spans = SpanSet::new(tracer.spans());
    eprint!("{}", spans.table());
    let mut metrics = layer_metrics(&runs);
    let exact_s = median(&spans.self_s_per_run(&[BATCHED, SCHEDULE]));
    let (slots, deliveries) = per_run;
    metrics.insert("exact.self_s", exact_s);
    metrics.insert("exact.ns_per_slot", exact_s * 1e9 / slots.max(1) as f64);
    metrics.insert(
        "exact.ns_per_delivery",
        exact_s * 1e9 / deliveries.max(1) as f64,
    );
    crate::arrival_metrics(&spans, &mut metrics);
    Outcome {
        attempted,
        failed,
        metrics,
        spans: tracer.spans(),
    }
}
