//! `saturated-sessions`: `Session::dynamic` under sustained Poisson
//! arrivals, in the configuration of the saturation map — bounded-class
//! cap 64, watchdog armed with the Report policy, the latency sketch read
//! at every pause and one checkpoint → bytes → resume round trip — but
//! driven by the benchmark itself and always to completion, never parked at
//! a stall, so the amount of work does not depend on watchdog policy.
//!
//! Each run builds all its sessions, then drives them on two workers that
//! claim the next session from a shared counter. Each run drives sessions of two kinds: the known-k oracle at λ = 2 over
//! 10k slots (cap-bound, merge-heavy) and Log-fails Adaptive (ξt = ½) at
//! λ = 0.15 over 100k slots (stable, about ten live classes). At λ = 0.2, the boundary the saturation map
//! charts for it, Log-fails Adaptive livelocks on some seeds (4 of 30 over
//! a 200k-slot horizon), and a workload must not fail; at 0.15 none of 1500
//! seeds did.

use crate::harness::{
    closed_loop, end_to_end, fan_out, layer_metrics, timed, timed_setup, Checks, Config, Iteration,
    Outcome,
};
use crate::trace::{median, tail, SpanSet, Tracer};
use mac_channel::{ArrivalModel, ArrivalStream};
use mac_prob::rng::derive_seed;
use mac_protocols::ProtocolKind;
use mac_sim::dynamic::ARRIVAL_STREAM;
use mac_sim::{
    Checkpoint, CheckpointKind, RunOptions, Session, SessionStatus, StallConfig, StallPolicy,
};

/// Bounded-class cap (`RunOptions::max_live_cohorts`).
const CAP: u64 = 64;
/// Watchdog window in slots.
const WINDOW: u64 = 2_000;
/// Slots per `advance` call.
const BURST: u64 = 1 << 14;

/// Sessions per point in one run, each on its own seed: the cost of a
/// saturated trajectory varies from seed to seed by up to a fifth, and
/// averaging over independent sessions keeps that out of the run-to-run
/// spread.
const SESSIONS_PER_POINT: u64 = 4;

/// One kind of session: protocol, sustained rate and arrival horizon.
struct Point {
    kind: ProtocolKind,
    rate: f64,
    horizon: u64,
}

fn points() -> [Point; 2] {
    [
        Point {
            kind: ProtocolKind::KnownKOracle,
            rate: 2.0,
            horizon: 10_000,
        },
        Point {
            kind: ProtocolKind::LogFailsAdaptive {
                xi_delta: 0.1,
                xi_beta: 0.1,
                xi_t: 0.5,
            },
            rate: 0.15,
            horizon: 100_000,
        },
    ]
}

const ADVANCE: &str = "session.advance";
const LIVE_STATS: &str = "session.live_stats";
const CHECKPOINT: &str = "session.checkpoint";
const RESUME: &str = "session.resume";

/// What one session reached, for the checks and the per-layer counts.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Reached {
    makespan: u64,
    delivered: u64,
    busy: u64,
    peak_classes: u64,
    merges: u64,
}

/// Drives `session` to completion with the sketch read at every pause and
/// one checkpoint round trip at the first pause.
fn drive(
    mut session: Session,
    messages: u64,
    tracer: &Tracer,
    checks: &mut Checks,
) -> Option<Reached> {
    tracer.span("session.drive", None, |parent| {
        let mut round_trip_done = false;
        loop {
            let status = tracer.span(ADVANCE, parent, |_| session.advance(BURST));
            let status = checks.ok(status, "advance")?;
            tracer.span(LIVE_STATS, parent, |_| {
                std::hint::black_box(session.live_stats().map(|s| s.quantile(0.95)));
            });
            if !round_trip_done {
                round_trip_done = true;
                let checkpoint = tracer.span_counted(
                    CHECKPOINT,
                    parent,
                    |_| session.checkpoint(),
                    |c| c.as_ref().map_or(0, |c| c.size_bytes() as u64),
                );
                let checkpoint = checks.ok(checkpoint, "checkpoint")?;
                let size = checkpoint.size_bytes() as u64;
                let bytes = tracer.span_counted(
                    "checkpoint.to_bytes",
                    parent,
                    |_| checkpoint.to_bytes(),
                    |_| size,
                );
                let decoded = tracer.span_counted(
                    "checkpoint.from_bytes",
                    parent,
                    |_| Checkpoint::from_bytes(&bytes),
                    |_| size,
                );
                let decoded = checks.ok(decoded, "from_bytes")?;
                let kind = tracer.span_counted(
                    "checkpoint.verify",
                    parent,
                    |_| decoded.verify(),
                    |_| size,
                );
                checks.expect(kind == Ok(CheckpointKind::Session), || {
                    format!("checkpoint verifies as {kind:?}")
                });
                let delivered = session.delivered();
                let resumed =
                    tracer.span_counted(RESUME, parent, |_| Session::resume(&decoded), |_| size);
                session = checks.ok(resumed, "resume")?;
                checks.expect(session.delivered() == delivered, || {
                    "resume changed the delivered count".to_string()
                });
            }
            if status == SessionStatus::Finished {
                break;
            }
        }
        let run = session.cohort_run()?;
        let result = run.result;
        checks.expect(result.completed, || {
            format!("{} did not complete", session.label())
        });
        checks.expect(result.delivered == messages, || {
            format!(
                "{} delivered {} of {messages}",
                session.label(),
                result.delivered
            )
        });
        checks.expect(run.peak_cohorts as u64 <= CAP, || {
            format!("{} peaked at {} classes", session.label(), run.peak_cohorts)
        });
        Some(Reached {
            makespan: result.makespan,
            delivered: result.delivered,
            busy: result.collisions + result.delivered + result.jammed_deliveries,
            peak_classes: run.peak_cohorts as u64,
            merges: run.merges,
        })
    })
}

/// Samples the schedule's size and builds an armed session.
fn build(
    point: &Point,
    seed: u64,
    tracer: &Tracer,
) -> (u64, Result<Session, mac_sim::SessionError>) {
    let model = ArrivalModel::Poisson {
        rate: point.rate,
        horizon: point.horizon,
    };
    let messages = tracer
        .span_counted(
            "arrivals.summarise",
            None,
            |_| ArrivalStream::summarise(&model, derive_seed(seed, &[ARRIVAL_STREAM])),
            |s| s.messages,
        )
        .messages;
    let options = RunOptions {
        max_live_cohorts: CAP,
        ..RunOptions::default()
    };
    let session = tracer.span("session.dynamic", None, |_| {
        Session::dynamic(&point.kind, &model, seed, &options)
    });
    let session = session.map(|mut s| {
        s.set_watchdog(Some(StallConfig::new(WINDOW, StallPolicy::Report)));
        s
    });
    (messages, session)
}

pub fn run(config: &Config) -> Outcome {
    let tracer = if config.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let off = Tracer::off();
    let points = points();
    let sessions: Vec<(&Point, u64)> = points
        .iter()
        .enumerate()
        .flat_map(|(i, point)| {
            (0..SESSIONS_PER_POINT).map(move |j| (point, derive_seed(config.seed, &[i as u64, j])))
        })
        .collect();
    let mut setups = Vec::new();
    let mut first: Option<Vec<Reached>> = None;
    let mut counts = Vec::new();
    let (runs, failed) = closed_loop(
        config.seconds,
        if config.trace { 4 } else { 3 },
        &tracer,
        |run| {
            let traced = config.trace && run % 2 == 1;
            let tracer = if traced { &tracer } else { &off };
            let mut checks = Checks::default();
            let (built, samples) = timed_setup(|| {
                sessions
                    .iter()
                    .map(|&(point, seed)| build(point, seed, tracer))
                    .collect::<Vec<_>>()
            });
            setups.push(median(&samples));
            let mut ready = Vec::with_capacity(built.len());
            for (messages, session) in built {
                ready.extend(
                    checks
                        .ok(session, "Session::dynamic")
                        .map(|s| (messages, s)),
                );
            }
            let (driven, wall_s) = timed(|| {
                fan_out(ready, |(messages, session)| {
                    let mut checks = Checks::default();
                    (drive(session, messages, tracer, &mut checks), checks)
                })
            });
            let mut reached = Vec::with_capacity(sessions.len());
            for (outcome, session_checks) in driven {
                checks.absorb(session_checks);
                reached.extend(outcome);
            }
            checks.expect(reached.len() == sessions.len(), || {
                "a session did not finish".to_string()
            });
            let expected = first.get_or_insert_with(|| reached.clone());
            checks.expect(*expected == reached, || {
                "results differ between runs of one seed".to_string()
            });
            if traced {
                counts.push(reached.clone());
            }
            let ok = checks.report(run);
            (
                Iteration {
                    wall_s,
                    deliveries: reached.iter().map(|r| r.delivered).sum(),
                    busy_slots: reached.iter().map(|r| r.busy).sum(),
                    traced,
                },
                ok,
            )
        },
    );
    for ((point, _), r) in sessions.iter().zip(first.iter().flatten()) {
        eprintln!(
            "{} at λ = {}: {} messages in {} slots, {} busy, peak {} classes, {} merges",
            point.kind.label(),
            point.rate,
            r.delivered,
            r.makespan,
            r.busy,
            r.peak_classes,
            r.merges
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

    let spans = SpanSet::new(tracer.spans());
    eprint!("{}", spans.table());
    let mut metrics = layer_metrics(&runs);
    let busy: u64 = counts.iter().flatten().map(|r| r.busy).sum();
    let delivered: u64 = counts.iter().flatten().map(|r| r.delivered).sum();
    let merges: u64 = counts.iter().flatten().map(|r| r.merges).sum();
    let (advance_ns, _) = spans.totals(&[ADVANCE]);
    let advances = spans.durations_ms(&[ADVANCE]);
    metrics.insert(
        "cohort.ns_per_busy_slot",
        advance_ns as f64 / busy.max(1) as f64,
    );
    metrics.insert(
        "cohort.peak_classes",
        counts
            .iter()
            .flatten()
            .map(|r| r.peak_classes)
            .max()
            .unwrap_or(0) as f64,
    );
    metrics.insert("cohort.merges", merges as f64 / counts.len().max(1) as f64);
    metrics.insert(
        "cohort.merges_per_delivery",
        merges as f64 / delivered.max(1) as f64,
    );
    metrics.insert("session.advance_p50_ms", tail(&advances, 0.5).1);
    let (q, p95) = tail(&advances, 0.95);
    eprintln!(
        "session.advance_p95_ms is p{} of {} advances",
        q * 100.0,
        advances.len()
    );
    metrics.insert("session.advance_p95_ms", p95);
    metrics.insert(
        "session.live_stats_ns",
        median(&spans.durations_ms(&[LIVE_STATS])) * 1e6,
    );
    metrics.insert(
        "session.checkpoint_s",
        median(&spans.durations_ms(&[CHECKPOINT])) / 1e3,
    );
    metrics.insert(
        "session.resume_s",
        median(&spans.durations_ms(&[RESUME])) / 1e3,
    );
    crate::codec_metrics(
        &spans,
        &mut metrics,
        &[CHECKPOINT, "checkpoint.to_bytes"],
        &["checkpoint.from_bytes", RESUME],
    );
    crate::arrival_metrics(&spans, &mut metrics);
    Outcome {
        attempted,
        failed,
        metrics,
        spans: tracer.spans(),
    }
}
