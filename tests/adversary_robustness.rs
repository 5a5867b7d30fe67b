//! Integration tests for the adversarial-channel subsystem: qualitative
//! robustness orderings of the robustness line-up under scripted
//! adversaries, and the one resonance that blocks a protocol outright.
//! `CERTIFICATES.md` holds the worst cases a search finds under a jam
//! budget.
//!
//! The comparisons are *paired*: every adversary faces the same seeds, so
//! the clean-channel runs are the exact baseline trajectories the jammed
//! runs diverge from, and the mean-makespan orderings asserted here are
//! deterministic properties of the fixed seed set, not statistical hopes.

use contention_resolution::adversary::{AdversaryState, SlotClass};
use contention_resolution::prelude::*;
use contention_resolution::prob::stats::two_sample_ks_test;

const SEEDS: [u64; 6] = [11, 22, 33, 44, 55, 66];
const K: u64 = 600;

fn mean_makespan(kind: &ProtocolKind, scenario: AdversaryScenario) -> f64 {
    let options = RunOptions::adversarial(scenario);
    SEEDS
        .iter()
        .map(|&seed| {
            simulate_with_options(kind, K, seed, &options)
                .expect("valid configuration")
                .makespan as f64
        })
        .sum::<f64>()
        / SEEDS.len() as f64
}

#[test]
fn jamming_never_decreases_mean_makespan() {
    let adversaries = [
        AdversaryModel::StochasticNoise { p: 0.1 },
        AdversaryModel::PeriodicJam {
            period: 4,
            burst: 1,
            phase: 0,
        },
        // A mid-run blackout (early slots are all collisions anyway, so a
        // prefix blackout would be free for the adaptive protocols).
        AdversaryModel::ScheduledJam {
            bursts: vec![(K / 2, K / 2), (2 * K, K / 2)],
        },
        AdversaryModel::BudgetedReactiveJam {
            budget: K / 4,
            trigger: JamTrigger::NearSuccess,
        },
        AdversaryModel::BudgetedReactiveJam {
            budget: K / 4,
            trigger: JamTrigger::Contended,
        },
    ];
    for kind in ProtocolKind::robust_lineup() {
        let clean = mean_makespan(&kind, AdversaryScenario::clean());
        for adversary in &adversaries {
            let jammed = mean_makespan(&kind, AdversaryScenario::jamming(adversary.clone()));
            assert!(
                jammed >= clean,
                "{} under `{}`: jammed mean {jammed} < clean mean {clean}",
                kind.label(),
                adversary.label()
            );
        }
    }
}

#[test]
fn near_success_jamming_hurts_more_than_contended_jamming() {
    // Same budget, different target: destroying would-be deliveries must
    // cost real slots, while jamming already-contended slots changes
    // nothing about the trajectory (it only drains the jammer's budget) —
    // the contended-trigger runs are bit-identical to clean ones.
    for kind in ProtocolKind::robust_lineup() {
        let near = mean_makespan(
            &kind,
            AdversaryScenario::jamming(AdversaryModel::BudgetedReactiveJam {
                budget: K / 4,
                trigger: JamTrigger::NearSuccess,
            }),
        );
        let contended = mean_makespan(
            &kind,
            AdversaryScenario::jamming(AdversaryModel::BudgetedReactiveJam {
                budget: K / 4,
                trigger: JamTrigger::Contended,
            }),
        );
        let clean = mean_makespan(&kind, AdversaryScenario::clean());
        assert_eq!(
            contended,
            clean,
            "{}: a contended-trigger jammer cannot change the trajectory",
            kind.label()
        );
        assert!(
            near > contended,
            "{}: near-success jamming ({near}) must beat contended jamming ({contended})",
            kind.label()
        );
    }
}

#[test]
fn period_two_jamming_blocks_one_fail_adaptive_at_its_step_parity() {
    // A period-2 jammer on phase 0 resonates with One-fail Adaptive's AT/BT
    // step parity: it destroys every delivery the protocol can make, so the
    // run stops at the slot cap with nothing delivered. The other protocols
    // only lose the jammed share of their slots, and on phase 1 the same
    // jammer lets One-fail Adaptive complete too.
    let jam = |phase| RunOptions {
        slot_cap_per_message: 100,
        min_slot_cap: 0,
        ..RunOptions::adversarial(AdversaryScenario::jamming(AdversaryModel::PeriodicJam {
            period: 2,
            burst: 1,
            phase,
        }))
    };
    let on_phase_zero = jam(0);
    for kind in ProtocolKind::robust_lineup() {
        let blocked = matches!(kind, ProtocolKind::OneFailAdaptive { .. });
        for &seed in &SEEDS {
            let result = simulate_with_options(&kind, K, seed, &on_phase_zero).unwrap();
            if blocked {
                assert!(!result.completed, "{} seed {seed} completed", kind.label());
                assert_eq!(result.delivered, 0, "{} seed {seed}", kind.label());
                assert_eq!(result.makespan, on_phase_zero.max_slots(K));
            } else {
                assert!(result.completed, "{} seed {seed} hit the cap", kind.label());
            }
        }
    }
    let ofa = ProtocolKind::OneFailAdaptive { delta: 2.72 };
    for &seed in &SEEDS {
        let result = simulate_with_options(&ofa, K, seed, &jam(1)).unwrap();
        assert!(result.completed, "seed {seed} hit the cap on phase 1");
    }
}

#[test]
fn jammed_deliveries_are_reported_and_bounded_by_budget() {
    let kind = ProtocolKind::OneFailAdaptive { delta: 2.72 };
    let budget = 40;
    let options = RunOptions::adversarial(AdversaryScenario::jamming(
        AdversaryModel::BudgetedReactiveJam {
            budget,
            trigger: JamTrigger::NearSuccess,
        },
    ));
    let result = simulate_with_options(&kind, 300, 5, &options).unwrap();
    assert!(result.completed);
    assert_eq!(
        result.jammed_deliveries, budget,
        "a near-success jammer at this scale spends its whole budget on deliveries"
    );
    assert!(result.collisions >= budget);
}

#[test]
fn feedback_faults_degrade_gracefully_for_the_papers_protocols() {
    // The paper's protocols only react to the delivered/not-delivered bit,
    // so missed deliveries merely slow the adaptive protocols down without
    // stalling them.
    let kind = ProtocolKind::OneFailAdaptive { delta: 2.72 };
    let missing = AdversaryScenario::faulty_feedback(0.3);
    let degraded = mean_makespan(&kind, missing);
    let clean = mean_makespan(&kind, AdversaryScenario::clean());
    assert!(
        degraded >= clean,
        "missed delivery feedback cannot speed One-fail Adaptive up ({degraded} < {clean})"
    );
    // Every run still completes.
    for &seed in &SEEDS {
        let result = simulate_with_options(
            &kind,
            K,
            seed,
            &RunOptions::adversarial(AdversaryScenario::faulty_feedback(0.3)),
        )
        .unwrap();
        assert!(result.completed);
    }
}

#[test]
fn ks_test_separates_jammed_from_clean_makespan_distributions() {
    // The two-sample KS helper (mac_prob::stats) must both *detect* a real
    // distributional shift — strong stochastic jamming stretches every
    // makespan — and report identity for identical runs. This is the same
    // instrument the aggregate-equivalence suite uses, exercised here on
    // the adversarial axis.
    let kind = ProtocolKind::OneFailAdaptive { delta: 2.72 };
    let makespans = |scenario: AdversaryScenario| -> Vec<f64> {
        let options = RunOptions::adversarial(scenario);
        (0..40u64)
            .map(|seed| {
                simulate_with_options(&kind, K, seed, &options)
                    .unwrap()
                    .makespan as f64
            })
            .collect()
    };
    let clean = makespans(AdversaryScenario::clean());
    let jammed = makespans(AdversaryScenario::jamming(
        AdversaryModel::StochasticNoise { p: 0.4 },
    ));
    let shifted = two_sample_ks_test(&clean, &jammed);
    assert!(
        shifted.p_value < 1e-3,
        "jamming 40% of busy slots must shift the makespan law (p = {:.2e})",
        shifted.p_value
    );
    let identical = two_sample_ks_test(&clean, &clean);
    assert_eq!(identical.statistic, 0.0);
}

#[test]
fn adversary_state_is_reusable_across_layers() {
    // The channel-level wiring (used by the exact simulator) and the
    // fast-simulator wiring agree on who the adversary is: an exhausted
    // reactive jammer behaves like a clean channel from then on.
    let scenario = AdversaryScenario::jamming(AdversaryModel::BudgetedReactiveJam {
        budget: 3,
        trigger: JamTrigger::NearSuccess,
    });
    let mut state = AdversaryState::new(scenario, 9);
    assert!(state.is_active());
    let mut jams = 0;
    for slot in 0..100 {
        if state.jams_slot(slot, SlotClass::Single) {
            jams += 1;
        }
    }
    assert_eq!(jams, 3);
    assert_eq!(state.budget_left(), 0);
}
