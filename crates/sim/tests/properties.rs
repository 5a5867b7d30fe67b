//! Property-based tests for the simulation engine.

use mac_channel::ArrivalModel;
use mac_prob::rng::Xoshiro256pp;
use mac_prob::wire::{Decoder, Encoder};
use mac_protocols::ProtocolKind;
use mac_sim::{
    simulate_with_options, AdversaryModel, AdversaryScenario, ExactSimulator, JamTrigger,
    RunOptions,
};
use proptest::prelude::*;
use rand::SeedableRng;
use std::collections::BTreeMap;

fn any_paper_protocol() -> impl Strategy<Value = ProtocolKind> {
    (0usize..5).prop_map(|i| ProtocolKind::paper_lineup()[i].clone())
}

/// Adversaries that are *configured* (so the simulators take their
/// adversarial code paths) but can never fire a jam. Runs under them must
/// be bit-identical to clean runs — results and RNG streams alike.
fn inert_adversaries() -> Vec<AdversaryModel> {
    vec![
        AdversaryModel::StochasticNoise { p: 0.0 },
        AdversaryModel::PeriodicJam {
            period: 5,
            burst: 0,
            phase: 2,
        },
        AdversaryModel::ScheduledJam { bursts: vec![] },
        AdversaryModel::BudgetedReactiveJam {
            budget: 0,
            trigger: JamTrigger::NearSuccess,
        },
    ]
}

/// Decodes a proptest-generated integer into an arbitrary adversary model.
fn decode_adversary_model(variant: usize, a: u64, b: u64, p: f64, raw: &[u64]) -> AdversaryModel {
    match variant {
        0 => AdversaryModel::None,
        1 => AdversaryModel::StochasticNoise { p },
        2 => AdversaryModel::PeriodicJam {
            period: 1 + a % 60,
            burst: b % (1 + a % 60 + 1),
            phase: b,
        },
        3 => AdversaryModel::ScheduledJam {
            bursts: raw.iter().map(|&e| (e % 500, e / 500 % 8)).collect(),
        },
        _ => AdversaryModel::BudgetedReactiveJam {
            budget: a,
            trigger: if b.is_multiple_of(2) {
                JamTrigger::NearSuccess
            } else {
                JamTrigger::Contended
            },
        },
    }
}

#[test]
fn invalid_adversary_configs_error_instead_of_panicking() {
    // A malformed scenario must surface as the same `ParameterError` path
    // every other invalid parameter takes, in every simulator and in the
    // sweep runner.
    let bad = RunOptions::adversarial(AdversaryScenario::jamming(
        AdversaryModel::StochasticNoise { p: 1.5 },
    ));
    let fair = ProtocolKind::OneFailAdaptive { delta: 2.72 };
    let window = ProtocolKind::ExpBackonBackoff { delta: 0.366 };
    assert!(simulate_with_options(&fair, 10, 0, &bad).is_err());
    assert!(simulate_with_options(&window, 10, 0, &bad).is_err());
    assert!(ExactSimulator::new(fair.clone(), bad.clone())
        .run(10, 0)
        .is_err());
    let mut experiment = mac_sim::Experiment::paper(vec![10], 1);
    experiment.options = bad;
    assert!(experiment.run().is_err());
}

proptest! {
    // Simulation is comparatively expensive; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fast_simulators_always_solve_small_instances(
        kind in any_paper_protocol(),
        k in 0u64..=300,
        seed in any::<u64>(),
    ) {
        let result = simulate_with_options(&kind, k, seed, &RunOptions::default()).unwrap();
        prop_assert!(result.completed);
        prop_assert_eq!(result.delivered, k);
        prop_assert_eq!(result.k, k);
        if k > 0 {
            prop_assert!(result.makespan >= k, "at least one slot per message");
        } else {
            prop_assert_eq!(result.makespan, 0);
        }
    }

    #[test]
    fn recorded_delivery_slots_are_consistent_with_makespan(
        kind in any_paper_protocol(),
        k in 1u64..=200,
        seed in any::<u64>(),
    ) {
        let result = simulate_with_options(&kind, k, seed, &RunOptions::recording_deliveries()).unwrap();
        let slots = result.delivery_slots.clone().unwrap();
        prop_assert_eq!(slots.len() as u64, k);
        prop_assert!(slots.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(slots.last().copied().unwrap() + 1, result.makespan);
    }

    #[test]
    fn simulation_is_a_pure_function_of_the_seed(
        kind in any_paper_protocol(),
        k in 1u64..=150,
        seed in any::<u64>(),
    ) {
        let a = simulate_with_options(&kind, k, seed, &RunOptions::default()).unwrap();
        let b = simulate_with_options(&kind, k, seed, &RunOptions::default()).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn exact_simulator_solves_everything_it_is_given(
        kind in any_paper_protocol(),
        k in 0u64..=40,
        seed in any::<u64>(),
    ) {
        let result = ExactSimulator::new(kind, RunOptions::default()).run(k, seed).unwrap();
        prop_assert!(result.completed);
        prop_assert_eq!(result.delivered, k);
        // The makespan decomposes into deliveries + collisions + silent slots.
        prop_assert_eq!(result.makespan, result.delivered + result.collisions + result.silent_slots);
    }

    // ------------------------------------------------------------------
    // Adversary subsystem
    // ------------------------------------------------------------------

    #[test]
    fn inert_adversaries_leave_fast_runs_bit_identical(
        kind in any_paper_protocol(),
        k in 0u64..=200,
        seed in any::<u64>(),
        record in any::<bool>(),
    ) {
        // A configured-but-harmless adversary routes the fast simulators
        // through their adversarial code paths (e.g. the window simulator's
        // detailed occupancy path); with `AdversaryModel::None` semantics the
        // result — and therefore the protocol RNG stream — must be exactly
        // the clean run's, delivery slots included.
        let clean = RunOptions {
            record_deliveries: record,
            ..RunOptions::default()
        };
        let baseline = simulate_with_options(&kind, k, seed, &clean).unwrap();
        for model in inert_adversaries() {
            let mut options = RunOptions::adversarial(AdversaryScenario::jamming(model.clone()));
            options.record_deliveries = record;
            let run = simulate_with_options(&kind, k, seed, &options).unwrap();
            prop_assert_eq!(&run, &baseline, "model {:?}", model);
        }
    }

    #[test]
    fn inert_adversaries_leave_exact_runs_bit_identical(
        kind in any_paper_protocol(),
        k in 0u64..=40,
        seed in any::<u64>(),
    ) {
        let baseline = ExactSimulator::new(kind.clone(), RunOptions::default())
            .run(k, seed)
            .unwrap();
        for model in inert_adversaries() {
            let options = RunOptions::adversarial(AdversaryScenario::jamming(model.clone()));
            let run = ExactSimulator::new(kind.clone(), options).run(k, seed).unwrap();
            prop_assert_eq!(&run, &baseline, "model {:?}", model);
        }
    }

    #[test]
    fn jammed_runs_keep_slot_accounting_balanced(
        kind_index in 0usize..4,
        k in 1u64..=120,
        seed in any::<u64>(),
        period in 2u64..8,
    ) {
        // Under jamming every resolved slot is still exactly one of
        // delivery / collision / silence, and destroyed deliveries are
        // counted as collisions. (The robust line-up spans both fast
        // simulators; Log-fails Adaptive's estimator is calibrated for the
        // ideal channel only.)
        let kind = ProtocolKind::robust_lineup()[kind_index].clone();
        let options = RunOptions::adversarial(AdversaryScenario::jamming(
            AdversaryModel::PeriodicJam { period, burst: 1, phase: 0 },
        ));
        let jammed = simulate_with_options(&kind, k, seed, &options).unwrap();
        prop_assert!(jammed.collisions >= jammed.jammed_deliveries);
        if jammed.completed {
            prop_assert_eq!(jammed.delivered, k);
            // Every slot of a completed run is exactly one of delivery /
            // collision / silence — in the fair simulator slot by slot, in
            // the window simulator because each window decomposes into
            // delivered, colliding and empty bins (jammed singletons
            // counting as collisions), with only the used prefix of the
            // final window billed.
            prop_assert_eq!(
                jammed.makespan,
                jammed.delivered + jammed.collisions + jammed.silent_slots
            );
        } else {
            // Jamming that resonates with a protocol's structure can stall
            // it outright — a period-2 jammer aligned with One-fail
            // Adaptive's AT/BT parity destroys every BT-step delivery — in
            // which case the run must be reported truthfully at the cap.
            prop_assert_eq!(jammed.makespan, options.max_slots(k));
            prop_assert!(jammed.delivered < k);
        }
    }

    #[test]
    fn adversary_models_round_trip_through_their_words(
        variant in 0usize..5,
        a in 0u64..500,
        b in 0u64..500,
        p in 0.0f64..=1.0,
        raw in prop::collection::vec(0u64..4_000, 0..7),
    ) {
        // The vendored serde is a no-op stub, so the honest round-trip goes
        // through the checkpoint words (`encode`/`decode`); the serde
        // derives are exercised by compilation against the markers.
        let model = decode_adversary_model(variant, a, b, p, &raw);
        let mut out = Encoder::new();
        model.encode(&mut out);
        let words = out.finish();
        let mut input = Decoder::new(&words);
        let decoded = AdversaryModel::decode(&mut input)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert!(input.finish().is_ok(), "{:?} left words behind", model);
        prop_assert_eq!(decoded, model);
    }

    // ------------------------------------------------------------------
    // Burst arrival schedules
    // ------------------------------------------------------------------

    #[test]
    fn burst_schedules_are_order_and_duplication_insensitive(
        raw in prop::collection::vec(0u64..4_000, 1..12),
        rotation in 0usize..12,
    ) {
        // Decode into (slot, count) pairs, then present the same bursts in
        // three shapes: as generated, rotated+reversed, and with duplicate
        // slots merged. All three must sample to the same ArrivalSchedule.
        let bursts: Vec<(u64, u64)> = raw.iter().map(|&e| (e % 400, e / 400 % 10)).collect();
        let mut shuffled = bursts.clone();
        let pivot = rotation % shuffled.len();
        shuffled.rotate_left(pivot);
        shuffled.reverse();
        let mut merged_map: BTreeMap<u64, u64> = BTreeMap::new();
        for &(slot, count) in &bursts {
            *merged_map.entry(slot).or_insert(0) += count;
        }
        let merged: Vec<(u64, u64)> = merged_map.into_iter().collect();

        let mut rng = Xoshiro256pp::seed_from_u64(0);
        let reference = ArrivalModel::Bursts { bursts }.sample(&mut rng);
        let from_shuffled = ArrivalModel::Bursts { bursts: shuffled }.sample(&mut rng);
        let from_merged = ArrivalModel::Bursts { bursts: merged }.sample(&mut rng);
        prop_assert_eq!(&from_shuffled, &reference);
        prop_assert_eq!(&from_merged, &reference);
        // Sampling bursts is deterministic: the RNG is never touched.
        let mut untouched = Xoshiro256pp::seed_from_u64(0);
        use rand::RngCore;
        prop_assert_eq!(rng.next_u64(), untouched.next_u64());
    }
}
