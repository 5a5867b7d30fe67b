//! Checkpoint/resume identity suite for the streaming session layer.
//!
//! The session contract (DESIGN.md §9) makes two *stream-level* promises,
//! both stronger than distributional agreement:
//!
//! 1. **Session = monolithic.** Driving an engine through [`Session`] in
//!    bounded bursts produces the bit-identical `RunResult` of the one-shot
//!    simulator call — same RNG streams, same counters.
//! 2. **Resume = uninterrupted.** Serialising a session mid-run
//!    ([`Session::checkpoint`]), round-tripping the buffer through bytes,
//!    and resuming ([`Session::resume`]) continues the exact run: the final
//!    result is bit-for-bit the one the unbroken session produces.
//!
//! Both identities are property-tested here for all three engines (fair
//! aggregate, window balls-in-bins, cohort dynamic-arrivals) under clean,
//! jamming and noise adversaries, with the pause point chosen by proptest
//! so compaction/cohort/window boundaries get hit at random.

use mac_channel::ArrivalModel;
use mac_protocols::ProtocolKind;
use mac_sim::{
    simulate_with_options, AdversaryModel, AdversaryScenario, Checkpoint, RunOptions, Session,
    SessionStatus, ShardedSession, StallConfig, StallPolicy,
};
use proptest::prelude::*;

fn any_paper_protocol() -> impl Strategy<Value = ProtocolKind> {
    (0usize..5).prop_map(|i| ProtocolKind::paper_lineup()[i].clone())
}

fn any_fair_protocol() -> impl Strategy<Value = ProtocolKind> {
    (0usize..4).prop_map(|i| match i {
        0 => ProtocolKind::OneFailAdaptive { delta: 2.72 },
        1 => ProtocolKind::LogFailsAdaptive {
            xi_delta: 1.0,
            xi_beta: 1.0,
            xi_t: 0.5,
        },
        2 => ProtocolKind::KnownKOracle,
        _ => ProtocolKind::RandomizedParityOneFail { delta: 2.72 },
    })
}

/// Clean channel, periodic jamming, and stochastic noise: one scenario per
/// adversarial regime the engines special-case.
fn any_scenario() -> impl Strategy<Value = AdversaryScenario> {
    (0usize..3).prop_map(|i| match i {
        0 => AdversaryScenario::default(),
        1 => AdversaryScenario::jamming(AdversaryModel::PeriodicJam {
            period: 7,
            burst: 2,
            phase: 3,
        }),
        _ => AdversaryScenario::jamming(AdversaryModel::StochasticNoise { p: 0.02 }),
    })
}

/// Runs `session` to completion, interrupting it every `burst` slots with a
/// full checkpoint → bytes → resume round trip.
fn run_with_interruptions(mut session: Session, burst: u64) -> Session {
    let mut rounds = 0u32;
    while session.advance(burst).unwrap() == SessionStatus::Paused {
        let checkpoint = session.checkpoint().unwrap();
        let bytes = checkpoint.to_bytes();
        let restored = Checkpoint::from_bytes(&bytes).unwrap();
        session = Session::resume(&restored).unwrap();
        rounds += 1;
        assert!(rounds < 100_000, "session failed to make progress");
    }
    session
}

proptest! {
    // Simulation is comparatively expensive; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batched_session_resume_is_bit_identical(
        kind in any_paper_protocol(),
        scenario in any_scenario(),
        k in 1u64..=300,
        seed in any::<u64>(),
        burst in 1u64..=512,
    ) {
        let options = RunOptions::adversarial(scenario);
        // Identity 1: an unbroken session reproduces the monolithic run.
        let monolithic = simulate_with_options(&kind, k, seed, &options).unwrap();
        let mut unbroken = Session::batched(&kind, k, seed, &options).unwrap();
        prop_assert_eq!(&unbroken.run_to_completion().unwrap(), &monolithic);

        // Identity 2: checkpoint/resume at every `burst` boundary changes
        // nothing — results and live statistics alike.
        let interrupted = Session::batched(&kind, k, seed, &options).unwrap();
        let interrupted = run_with_interruptions(interrupted, burst);
        prop_assert_eq!(&interrupted.result(), &monolithic);
        let a = unbroken.live_stats().unwrap();
        let b = interrupted.live_stats().unwrap();
        prop_assert_eq!(a.count(), b.count());
        prop_assert_eq!(a.max(), b.max());
        prop_assert_eq!(a.quantile(0.5), b.quantile(0.5));
        prop_assert_eq!(a.quantile(0.95), b.quantile(0.95));
        prop_assert_eq!(a.rank_error_bound(), b.rank_error_bound());
    }

    #[test]
    fn dynamic_session_resume_is_bit_identical(
        kind in any_fair_protocol(),
        scenario in any_scenario(),
        seed in any::<u64>(),
        burst in 1u64..=512,
        model_choice in 0usize..3,
    ) {
        let model = match model_choice {
            0 => ArrivalModel::batched(60),
            1 => ArrivalModel::Bursts { bursts: vec![(0, 25), (80, 25), (2_000, 5)] },
            _ => ArrivalModel::Poisson { rate: 0.04, horizon: 1_500 },
        };
        let options = RunOptions::adversarial(scenario);
        let mut unbroken = Session::dynamic(&kind, &model, seed, &options).unwrap();
        unbroken.run_to_completion().unwrap();

        let interrupted = Session::dynamic(&kind, &model, seed, &options).unwrap();
        let interrupted = run_with_interruptions(interrupted, burst);
        prop_assert_eq!(&interrupted.result(), &unbroken.result());
        let a = unbroken.live_stats().unwrap();
        let b = interrupted.live_stats().unwrap();
        prop_assert_eq!(a.count(), b.count());
        prop_assert_eq!(a.max(), b.max());
        prop_assert_eq!(a.quantile(0.5), b.quantile(0.5));
        prop_assert_eq!(a.rank_error_bound(), b.rank_error_bound());
    }

    #[test]
    fn sharded_driver_resume_is_bit_identical(
        scenario in any_scenario(),
        seed in any::<u64>(),
        shards in 1u32..=4,
    ) {
        let kind = ProtocolKind::OneFailAdaptive { delta: 2.72 };
        let model = ArrivalModel::Bursts { bursts: vec![(0, 20), (150, 20), (3_000, 8)] };
        let options = RunOptions::adversarial(scenario);
        let mut unbroken = ShardedSession::new(&kind, &model, seed, &options, shards).unwrap();
        unbroken.run_to_completion().unwrap();

        let mut interrupted = ShardedSession::new(&kind, &model, seed, &options, shards).unwrap();
        while interrupted.advance(400).unwrap() == SessionStatus::Paused {
            let bytes = interrupted.checkpoint().unwrap().to_bytes();
            interrupted = ShardedSession::resume(&Checkpoint::from_bytes(&bytes).unwrap()).unwrap();
        }
        prop_assert_eq!(&interrupted.merged_result(), &unbroken.merged_result());
        let a = unbroken.merged_stats();
        let b = interrupted.merged_stats();
        prop_assert_eq!(a.count(), b.count());
        prop_assert_eq!(a.max(), b.max());
        prop_assert_eq!(a.quantile(0.5), b.quantile(0.5));
        prop_assert_eq!(a.rank_error_bound(), b.rank_error_bound());
    }

    #[test]
    fn armed_watchdog_preserves_bit_identity(
        kind in any_fair_protocol(),
        seed in any::<u64>(),
        burst in 1u64..=512,
        window in 1u64..=256,
    ) {
        // The livelock watchdog forces chunked engine advances and rides
        // in every checkpoint; neither may perturb the run. Use the most
        // aggressive policy that still completes (Report) so the stall
        // path itself is exercised whenever `window` is small enough to
        // fire spuriously mid-run.
        let options = RunOptions::default();
        let monolithic = simulate_with_options(&kind, 200, seed, &options).unwrap();

        let mut watched = Session::batched(&kind, 200, seed, &options).unwrap();
        watched.set_watchdog(Some(StallConfig::new(window, StallPolicy::Report)));
        prop_assert_eq!(&watched.run_to_completion().unwrap(), &monolithic);

        let mut interrupted = Session::batched(&kind, 200, seed, &options).unwrap();
        interrupted.set_watchdog(Some(StallConfig::new(window, StallPolicy::Report)));
        let interrupted = run_with_interruptions(interrupted, burst);
        prop_assert_eq!(&interrupted.result(), &monolithic);
        let a = watched.live_stats().unwrap();
        let b = interrupted.live_stats().unwrap();
        prop_assert_eq!(a.count(), b.count());
        prop_assert_eq!(a.quantile(0.5), b.quantile(0.5));
        prop_assert_eq!(a.rank_error_bound(), b.rank_error_bound());
        // Note: the stall *ledger* may differ between the two drives — a
        // smaller burst samples the progress clock at more points — but
        // the simulation stream itself must not.
    }
}
