//! `checkpointed-fleet`: a 2-shard `ShardedSession` running One-fail
//! Adaptive on the ten-burst schedule (bursts of k/10 messages spaced
//! 0.8·k slots apart), advanced in short bursts with a checkpoint saved to
//! a `CheckpointStore` after every advance. At the end the newest
//! generation is loaded back and resumed. This is the write-heavy use of
//! the session layer: the sharded driver, the wire codec and the store
//! dominate, and the cohort work is light.

use crate::harness::{
    closed_loop, end_to_end, layer_metrics, timed, timed_setup, Checks, Config, Iteration, Outcome,
};
use crate::trace::{median, tail, SpanSet, Tracer};
use mac_channel::{ArrivalModel, ArrivalStream};
use mac_prob::rng::derive_seed;
use mac_protocols::ProtocolKind;
use mac_sim::dynamic::ARRIVAL_STREAM;
use mac_sim::{CheckpointKind, CheckpointStore, RunOptions, ShardedSession};
use std::path::{Path, PathBuf};

/// Messages over all ten bursts.
const MESSAGES: u64 = 1_000_000;
/// Shards of the measured fleet (`nproc` of the 2-core box).
const SHARDS: u32 = 2;
/// Slots per `advance` call; a checkpoint is saved after each. At 4096
/// slots the fsync in every save was two thirds of the run, and host disk
/// latency swung the run's wall time between 1.2 s and 3 s from one process
/// to the next; at 16384 the driver and codec carry most of the time and a
/// run still saves about 460 generations.
const ADVANCE_SLOTS: u64 = 16_384;
/// Generations the store keeps.
const KEEP: usize = 2;

const ADVANCE: &str = "sharded.advance";
const CHECKPOINT: &str = "sharded.checkpoint";
const RESUME: &str = "sharded.resume";
const SAVE: &str = "store.save";
const LOAD: &str = "store.load_latest";

fn ten_bursts() -> ArrivalModel {
    let burst = MESSAGES / 10;
    ArrivalModel::Bursts {
        bursts: (0..10).map(|i| (i * 8 * burst, burst)).collect(),
    }
}

/// Where this process keeps its store: inside the build directory of the
/// checkout, removed again after every run.
fn store_dir() -> PathBuf {
    Path::new(".bench_build").join(format!("perfbench-store-{}", std::process::id()))
}

/// One fleet run after set-up: what it delivered and used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Reached {
    delivered: u64,
    busy: u64,
    makespan: u64,
    generations: u64,
}

fn drive(
    mut driver: ShardedSession,
    mut store: CheckpointStore,
    messages: u64,
    tracer: &Tracer,
    checks: &mut Checks,
) -> Option<Reached> {
    tracer.span("sharded.drive", None, |parent| {
        let mut newest = None;
        let mut generations = 0;
        while !driver.is_finished() {
            let status = tracer.span(ADVANCE, parent, |_| driver.advance(ADVANCE_SLOTS));
            checks.ok(status, "advance")?;
            let checkpoint = tracer.span_counted(
                CHECKPOINT,
                parent,
                |_| driver.checkpoint(),
                |c| c.as_ref().map_or(0, |c| c.size_bytes() as u64),
            );
            let checkpoint = checks.ok(checkpoint, "checkpoint")?;
            let size = checkpoint.size_bytes() as u64;
            let kind = tracer.span_counted(
                "checkpoint.verify",
                parent,
                |_| checkpoint.verify(),
                |_| size,
            );
            checks.expect(kind == Ok(CheckpointKind::Sharded), || {
                format!("checkpoint verifies as {kind:?}")
            });
            let generation =
                tracer.span_counted(SAVE, parent, |_| store.save(&checkpoint), |_| size);
            newest = Some(checks.ok(generation, "save")?);
            generations += 1;
        }
        let loaded = tracer.span(LOAD, parent, |_| store.load_latest());
        let loaded = checks.ok(loaded, "load_latest")?;
        checks.expect(loaded.skipped.is_empty(), || {
            format!("load_latest skipped {:?}", loaded.skipped)
        });
        let (generation, checkpoint) = loaded.loaded?;
        checks.expect(Some(generation) == newest, || {
            format!("loaded generation {generation}, newest is {newest:?}")
        });
        let size = checkpoint.size_bytes() as u64;
        let resumed = tracer.span_counted(
            RESUME,
            parent,
            |_| ShardedSession::resume(&checkpoint),
            |_| size,
        );
        let resumed = checks.ok(resumed, "resume")?;
        checks.expect(resumed.delivered() == driver.delivered(), || {
            format!(
                "resumed driver delivered {}, live one {}",
                resumed.delivered(),
                driver.delivered()
            )
        });
        let (result, stats) = tracer.span("sharded.merge", parent, |_| {
            (driver.merged_result(), driver.merged_stats())
        });
        checks.expect(result.completed && result.delivered == messages, || {
            format!("fleet delivered {} of {messages}", result.delivered)
        });
        checks.expect(stats.count() == messages, || {
            format!("merged sketch holds {} latencies", stats.count())
        });
        Some(Reached {
            delivered: result.delivered,
            busy: result.collisions + result.delivered + result.jammed_deliveries,
            makespan: result.makespan,
            generations,
        })
    })
}

/// Sets up and drives one fleet of `shards` channels.
fn fleet_run(
    seed: u64,
    shards: u32,
    tracer: &Tracer,
    checks: &mut Checks,
) -> (Option<Reached>, f64, f64) {
    let kind = ProtocolKind::OneFailAdaptive { delta: 2.72 };
    let model = ten_bursts();
    let dir = store_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let ((messages, driver, store), samples) = timed_setup(|| {
        let messages = tracer
            .span_counted(
                "arrivals.summarise",
                None,
                |_| ArrivalStream::summarise(&model, derive_seed(seed, &[ARRIVAL_STREAM])),
                |s| s.messages,
            )
            .messages;
        let driver = tracer.span("sharded.new", None, |_| {
            ShardedSession::new(&kind, &model, seed, &RunOptions::default(), shards)
        });
        let store = tracer.span("store.open", None, |_| CheckpointStore::open(&dir, KEEP));
        (messages, driver, store)
    });
    let setup_s = median(&samples);
    let (Some(driver), Some(store)) = (
        checks.ok(driver, "ShardedSession::new"),
        checks.ok(store, "CheckpointStore::open"),
    ) else {
        return (None, 0.0, setup_s);
    };
    let (reached, wall_s) = timed(|| drive(driver, store, messages, tracer, checks));
    let _ = std::fs::remove_dir_all(&dir);
    (reached, wall_s, setup_s)
}

pub fn run(config: &Config) -> Outcome {
    let tracer = if config.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let off = Tracer::off();
    let mut setups = Vec::new();
    let mut first = None;
    let (runs, failed) = closed_loop(
        config.seconds,
        if config.trace { 4 } else { 3 },
        &tracer,
        |run| {
            let traced = config.trace && run % 2 == 1;
            let mut checks = Checks::default();
            let (reached, wall_s, setup_s) = fleet_run(
                config.seed,
                SHARDS,
                if traced { &tracer } else { &off },
                &mut checks,
            );
            setups.push(setup_s);
            checks.expect(reached.is_some(), || "the fleet did not finish".to_string());
            let expected = *first.get_or_insert(reached);
            checks.expect(expected == reached, || {
                "results differ between runs of one seed".to_string()
            });
            let ok = checks.report(run);
            let reached = reached.unwrap_or(Reached {
                delivered: 0,
                busy: 0,
                makespan: 0,
                generations: 0,
            });
            (
                Iteration {
                    wall_s,
                    deliveries: reached.delivered,
                    busy_slots: reached.busy,
                    traced,
                },
                ok,
            )
        },
    );
    if let Some(Some(r)) = first {
        eprintln!(
            "fleet of {SHARDS}: {} messages, fleet makespan {} slots, {} busy, {} checkpoints saved",
            r.delivered, r.makespan, r.busy, r.generations
        );
    }
    let attempted = runs.len() as u64;
    if !config.trace {
        return Outcome {
            attempted,
            failed,
            metrics: end_to_end(&runs, &setups, attempted, failed),
            spans: Vec::new(),
        };
    }

    // Single-shard baseline on the same arrival model, untraced.
    let mut checks = Checks::default();
    let (single, single_s, _) = fleet_run(config.seed, 1, &off, &mut checks);
    let baseline_ok = checks.report(attempted) && single.is_some();
    let single_rate = single.map_or(0.0, |r| r.delivered as f64 / single_s);
    let fleet_rate = median(
        &runs
            .iter()
            .filter(|r| !r.traced)
            .map(|r| r.deliveries as f64 / r.wall_s)
            .collect::<Vec<_>>(),
    );

    let spans = SpanSet::new(tracer.spans());
    eprint!("{}", spans.table());
    let mut metrics = layer_metrics(&runs);
    let advances = spans.durations_ms(&[ADVANCE]);
    metrics.insert("sharded.advance_p50_ms", tail(&advances, 0.5).1);
    let (q, p95) = tail(&advances, 0.95);
    eprintln!(
        "sharded.advance_p95_ms is p{} of {} advances",
        q * 100.0,
        advances.len()
    );
    metrics.insert("sharded.advance_p95_ms", p95);
    metrics.insert(
        "sharded.merge_s",
        median(&spans.durations_ms(&["sharded.merge"])) / 1e3,
    );
    metrics.insert(
        "sharded.scaling",
        if single_rate > 0.0 {
            fleet_rate / single_rate
        } else {
            0.0
        },
    );
    let saves = spans.durations_ms(&[SAVE]);
    metrics.insert("store.save_p50_ms", tail(&saves, 0.5).1);
    let (q, p95) = tail(&saves, 0.95);
    eprintln!(
        "store.save_p95_ms is p{} of {} saves",
        q * 100.0,
        saves.len()
    );
    metrics.insert("store.save_p95_ms", p95);
    metrics.insert("store.bytes_written", median(&spans.count_per_run(&[SAVE])));
    metrics.insert(
        "store.load_latest_s",
        median(&spans.durations_ms(&[LOAD])) / 1e3,
    );
    crate::codec_metrics(&spans, &mut metrics, &[CHECKPOINT], &[RESUME]);
    crate::arrival_metrics(&spans, &mut metrics);
    Outcome {
        attempted: attempted + 1,
        failed: failed + u64::from(!baseline_ok),
        metrics,
        spans: tracer.spans(),
    }
}
