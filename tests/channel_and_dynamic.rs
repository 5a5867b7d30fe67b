//! Integration tests for the channel's arrival models, traces and the
//! dynamic-arrival extension, exercised through the public API of the
//! facade crate.

use contention_resolution::prelude::*;

#[test]
fn dynamic_poisson_load_is_eventually_drained() {
    let report = simulate_dynamic(
        &ProtocolKind::OneFailAdaptive { delta: 2.72 },
        &ArrivalModel::Poisson {
            rate: 0.10,
            horizon: 2_000,
        },
        7,
        &RunOptions::default(),
    )
    .unwrap();
    assert_eq!(report.delivered, report.messages, "all messages drained");
    assert!(report.throughput > 0.0);
    assert!(report.mean_latency <= report.max_latency as f64);
}

#[test]
fn bursty_arrivals_behave_like_repeated_batches_when_spaced_out() {
    // Two bursts of 100 messages, 10,000 slots apart: each burst is an
    // independent static instance, so the worst latency should be in the same
    // ballpark as a single k=100 batch makespan (far below the 10,000-slot
    // spacing).
    let report = simulate_dynamic(
        &ProtocolKind::ExpBackonBackoff { delta: 0.366 },
        &ArrivalModel::Bursts {
            bursts: vec![(0, 100), (10_000, 100)],
        },
        13,
        &RunOptions::default(),
    )
    .unwrap();
    assert_eq!(report.delivered, 200);
    assert!(
        report.max_latency < 5_000,
        "each burst must drain well before the next one (max latency {})",
        report.max_latency
    );
    assert!(
        report.makespan > 10_000,
        "second burst starts at slot 10,000"
    );
}

#[test]
fn batched_arrival_model_equals_direct_batched_simulation() {
    // Running through the dynamic front-end with a batched model must measure
    // the same process as the static entry point.
    let kind = ProtocolKind::OneFailAdaptive { delta: 2.72 };
    let report = simulate_dynamic(
        &kind,
        &ArrivalModel::batched(128),
        21,
        &RunOptions::default(),
    )
    .unwrap();
    assert_eq!(report.messages, 128);
    assert_eq!(report.delivered, 128);
    assert_eq!(report.max_latency + 1, report.makespan);
    // Ratio in the same range as the static simulation at this size.
    let ratio = report.makespan as f64 / 128.0;
    assert!(ratio > 2.0 && ratio < 20.0, "ratio {ratio}");
}

#[test]
fn arrival_models_report_expected_message_counts() {
    assert_eq!(ArrivalModel::batched(42).expected_messages(), 42.0);
    assert_eq!(
        ArrivalModel::Poisson {
            rate: 0.5,
            horizon: 100
        }
        .expected_messages(),
        50.0
    );
    assert_eq!(
        ArrivalModel::Bursts {
            bursts: vec![(0, 10), (5, 20)]
        }
        .expected_messages(),
        30.0
    );
}

#[test]
fn channel_trace_shows_contention_then_resolution() {
    // Trace a whole exact run to confirm the public trace API works end to
    // end (the examples print these timelines): the three stations collide
    // once, then deliver one per slot.
    let run = ExactSimulator::new(
        ProtocolKind::KnownKOracle,
        RunOptions::recording_deliveries(),
    )
    .with_trace(16)
    .run_schedule(&ArrivalSchedule::new(vec![0; 3]), 10)
    .unwrap();
    let trace = run.trace.unwrap();
    assert_eq!(trace.ascii_timeline(), "x***");
    assert_eq!(trace.delivery_slots(), vec![1, 2, 3]);
    assert_eq!(Some(trace.delivery_slots()), run.result.delivery_slots);
}
