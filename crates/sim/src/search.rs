//! Simulator-backed entry points for the adversary strategy search.
//!
//! [`mac_adversary::search`] is deliberately engine-agnostic (the crate
//! dependency points the other way); this module supplies the two bindings
//! that turn it into a working tool:
//!
//! * [`worst_case_exhaustive`] — tier (a): drives the complete game-tree
//!   search over [`ExactSimulator::stepper`] and pairs the certified worst
//!   case with the clean-channel makespan of the same `(kind, k, seed)` run.
//! * [`worst_case_search`] — tier (b): runs the deterministic beam search
//!   with the fast engines as the evaluator (the cohort engine on one
//!   slot-0 cohort for a fair kind, the window engine for a window kind,
//!   picked by the kind's visit), then replays the incumbent with
//!   jam logging so the certificate carries the *effective* jam slots — an
//!   explicit [`mac_adversary::AdversaryModel::ScheduledJam`] that
//!   reproduces the searched makespan bit-identically on the same engine.
//!
//! Both return a [`Certificate`]: protocol, instance, seed, budget, tier,
//! jam slots, forced makespan and clean baseline. `certify` (mac-bench)
//! renders the committed certificate table from these; the integration
//! tests replay them.

use crate::result::RunOptions;
use crate::{run_fast, ExactSimulator};
use mac_adversary::{
    budgeted_search, exhaustive_worst_case, AdversaryModel, AdversaryScenario, Certificate,
    CertificateTier, SearchStats,
};
use mac_protocols::{ParameterError, ProtocolKind};

/// Search-cost counters of a tier-(b) run (mirrors the tier-(a)
/// [`SearchStats`] role: reported alongside the certificate so the cost is
/// visible).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetedSearchCost {
    /// Evaluator invocations (full simulated runs) performed.
    pub evaluations: u64,
    /// Beam rounds actually run before convergence or the round cap.
    pub rounds: usize,
}

/// Overlays a candidate jam model on otherwise-clean run options.
fn armed(options: &RunOptions, model: &AdversaryModel) -> RunOptions {
    RunOptions {
        adversary: AdversaryScenario::jamming(model.clone()),
        ..options.clone()
    }
}

/// Tier (a): certifies the worst makespan any budget-`budget` jammer can
/// force on the batched `(kind, k, seed)` instance, by complete game-tree
/// exploration over the exact simulator's true protocol state.
///
/// The returned certificate's `makespan` is a proof (see
/// [`CertificateTier::Exhaustive`]); `clean_makespan` is the same run on the
/// clean channel. Exhaustive search is exponential in `budget` — keep
/// `k ≤ 8`-ish and cap the slot budget via `options` (the certificate is
/// per-`options` too: a capped run certifies "worst within the cap").
///
/// # Errors
/// Returns a [`ParameterError`] for invalid protocol parameters or a
/// non-clean adversary in `options`.
pub fn worst_case_exhaustive(
    kind: &ProtocolKind,
    k: u64,
    budget: u64,
    seed: u64,
    options: &RunOptions,
) -> Result<(Certificate, SearchStats), ParameterError> {
    let sim = ExactSimulator::new(kind.clone(), options.clone());
    let outcome = exhaustive_worst_case(&*sim.stepper(k, seed)?, budget);
    let clean = sim.run(k, seed)?;
    debug_assert!(outcome.makespan >= clean.makespan, "jamming cannot help");
    Ok((
        Certificate {
            protocol: kind.label(),
            k,
            seed,
            budget,
            tier: CertificateTier::Exhaustive,
            jam_slots: outcome.jam_slots,
            makespan: outcome.makespan,
            completed: outcome.completed,
            clean_makespan: clean.makespan,
        },
        outcome.stats,
    ))
}

/// Tier (b): beam-searches parameterised jam schedules (and the reactive
/// triggers) against the fast engines and returns the best attack *found*
/// as a replayable certificate.
///
/// The incumbent is re-run with jam logging and the certificate records the
/// *effective* jam slots — the ones that destroyed a delivery — so
/// replaying [`Certificate::schedule`] on the same seed and engine
/// reproduces `makespan` bit-identically (scheduled jammers draw no
/// randomness, and the dropped non-effective jams were observably inert).
///
/// # Errors
/// Returns a [`ParameterError`] for invalid protocol parameters or a
/// non-clean adversary in `options` (the search supplies the adversary).
pub fn worst_case_search(
    kind: &ProtocolKind,
    k: u64,
    budget: u64,
    seed: u64,
    options: &RunOptions,
    beam_width: usize,
    max_rounds: usize,
) -> Result<(Certificate, BudgetedSearchCost), ParameterError> {
    if options.adversary != AdversaryScenario::default() {
        return Err(ParameterError::new(
            "adversary",
            f64::NAN,
            "worst_case_search requires a clean scenario: the search supplies the adversary",
        ));
    }
    // Validates parameters once (the evaluator closure cannot return
    // errors) and anchors the worst/clean ratio.
    let clean = run_fast(kind, k, seed, options, None)?;
    let horizon = options.max_slots(k);
    let outcome = budgeted_search(budget, horizon, beam_width, max_rounds, |model| {
        run_fast(kind, k, seed, &armed(options, model), None).map_or(0, |r| r.makespan)
    });

    // Replay the incumbent with jam logging: the certificate carries the
    // effective jams, not the candidate's full (partly inert) pattern.
    let mut jam_slots = Vec::new();
    let best = armed(options, &outcome.best.model);
    let worst = run_fast(kind, k, seed, &best, Some(&mut jam_slots))?;
    debug_assert_eq!(
        worst.makespan, outcome.best.makespan,
        "the logging replay must reproduce the searched makespan"
    );
    Ok((
        Certificate {
            protocol: kind.label(),
            k,
            seed,
            budget,
            tier: CertificateTier::BestFound,
            jam_slots,
            makespan: worst.makespan,
            completed: worst.completed,
            clean_makespan: clean.makespan,
        },
        BudgetedSearchCost {
            evaluations: outcome.evaluations,
            rounds: outcome.rounds,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_certificate_is_internally_consistent() {
        let kind = ProtocolKind::OneFailAdaptive { delta: 2.72 };
        let options = RunOptions::default();
        let (cert, stats) = worst_case_exhaustive(&kind, 5, 3, 11, &options).unwrap();
        assert_eq!(cert.tier, CertificateTier::Exhaustive);
        assert!(cert.jam_slots.len() <= 3);
        assert!(cert.makespan >= cert.clean_makespan);
        assert!(cert.ratio() >= 1.0);
        assert!(stats.leaves > 0);
        // Certified worst dominates any scripted attack at the same budget:
        // spot-check against an early-slot burst.
        let scripted = ExactSimulator::new(
            kind,
            armed(
                &options,
                &AdversaryModel::ScheduledJam {
                    bursts: vec![(0, 3)],
                },
            ),
        )
        .run(5, 11)
        .unwrap();
        assert!(cert.makespan >= scripted.makespan);
    }

    #[test]
    fn budgeted_certificate_replays_to_its_makespan() {
        for kind in [
            ProtocolKind::KnownKOracle,
            ProtocolKind::ExpBackonBackoff { delta: 0.366 },
        ] {
            let options = RunOptions::default();
            let (cert, cost) = worst_case_search(&kind, 300, 16, 5, &options, 4, 8).unwrap();
            assert_eq!(cert.tier, CertificateTier::BestFound);
            assert!(cert.jam_slots.len() <= 16, "{:?}", cert.jam_slots);
            assert!(cert.makespan >= cert.clean_makespan, "{}", cert.protocol);
            assert!(cost.evaluations > 0);
            // The certificate replays: scheduled effective jams reproduce
            // the searched makespan exactly on the same engine.
            let replay = run_fast(&kind, 300, 5, &armed(&options, &cert.schedule()), None).unwrap();
            assert_eq!(replay.makespan, cert.makespan, "{}", cert.protocol);
            assert_eq!(replay.jammed_deliveries, cert.jam_slots.len() as u64);
        }
    }

    #[test]
    fn search_rejects_a_configured_adversary() {
        let armed_options = armed(
            &RunOptions::default(),
            &AdversaryModel::PeriodicJam {
                period: 2,
                burst: 1,
                phase: 0,
            },
        );
        assert!(
            worst_case_search(&ProtocolKind::KnownKOracle, 100, 4, 1, &armed_options, 4, 4)
                .is_err()
        );
    }
}
