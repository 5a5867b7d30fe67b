//! Replay guarantees of the worst-case jamming certificates.
//!
//! The adversary strategy search (tier (a): exhaustive game tree over the
//! exact engine; tier (b): budgeted beam search over the fast engines) emits
//! its incumbents as explicit `ScheduledJam` certificates. This suite pins
//! the three properties that make those certificates *evidence* rather than
//! claims:
//!
//! 1. every cell of the committed `CERTIFICATES.md` table (regenerated here
//!    via `mac_bench::certify` at the default master seed) replays on its
//!    engine to exactly the certified makespan, with exactly the certified
//!    jams landing;
//! 2. record → replay is bit-identical on all three engines: arming any
//!    deterministic jam model, logging the effective jam slots, and
//!    re-running with those slots as a `ScheduledJam` reproduces the full
//!    `RunResult`, field for field;
//! 3. the tier-(a) search *rediscovers* One-fail Adaptive's period-2
//!    resonance mechanically: at budget 4 the certified optimum is a
//!    stride-2, single-parity comb, although no periodic structure is
//!    seeded into the game tree (it branches one Single slot at a time).

use contention_resolution::sim::adversary::CertificateTier;
use contention_resolution::sim::{
    AdversaryModel, AdversaryScenario, ExactSimulator, FairSimulator, RunOptions, WindowSimulator,
};
use mac_bench::certify;
use mac_protocols::{ProtocolFamily, ProtocolKind};

/// Overlays a jam model on otherwise-default options.
fn armed(options: &RunOptions, model: AdversaryModel) -> RunOptions {
    RunOptions {
        adversary: AdversaryScenario::jamming(model),
        ..options.clone()
    }
}

/// The replayable schedule of a list of effective jam slots.
fn schedule_of(slots: &[u64]) -> AdversaryModel {
    AdversaryModel::ScheduledJam {
        bursts: slots.iter().map(|&slot| (slot, 1)).collect(),
    }
    .normalised()
}

/// The tier-(a) search's cost per robustness line-up entry, in
/// [`certify::TIER_A_BUDGETS`] order: `(leaves, memo hits)` per budget and
/// whether the search deduplicated. `CERTIFICATES.md` pins what the search
/// finds; these pin how much of the game tree it had to walk to find it, so
/// a state key that splits equal states (or merges distinct ones) fails
/// here even when the worst cases survive.
const TIER_A_SEARCH_COST: [([(u64, u64); 2], bool); 4] = [
    ([(195, 7), (2647, 95)], true),  // One-fail Adaptive
    ([(210, 0), (3003, 0)], false),  // Exp Back-on/Back-off
    ([(210, 0), (3003, 0)], false),  // Loglog-iterated Back-off
    ([(182, 8), (1897, 208)], true), // Known-k oracle
];

#[test]
fn every_tier_a_certificate_replays_exactly_on_the_exact_engine() {
    let options = certify::tier_a_options();
    let tier_a = certify::tier_a_certificates(certify::DEFAULT_SEED);
    assert_eq!(tier_a.len(), ProtocolKind::robust_lineup().len() * 2);
    for (pi, kind) in ProtocolKind::robust_lineup().iter().enumerate() {
        let (costs, deduplicated) = TIER_A_SEARCH_COST[pi];
        for (budget, (leaves, memo_hits)) in certify::TIER_A_BUDGETS.into_iter().zip(costs) {
            let (certificate, stats) = tier_a
                .iter()
                .find(|(c, _)| c.protocol == kind.label() && c.budget == budget)
                .unwrap_or_else(|| panic!("missing cell {} B={budget}", kind.label()));
            assert_eq!(certificate.tier, CertificateTier::Exhaustive);
            assert_eq!(
                certificate.seed,
                certify::cell_seed(certify::DEFAULT_SEED, 0, pi, budget)
            );
            assert!(certificate.jam_slots.len() as u64 <= budget);
            assert!(certificate.makespan >= certificate.clean_makespan);
            assert_eq!(
                (stats.leaves, stats.memo_hits, stats.deduplicated),
                (leaves, memo_hits, deduplicated),
                "search cost of {} B={budget}",
                kind.label()
            );

            let replay = ExactSimulator::new(
                kind.clone(),
                armed(&options, schedule_of(&certificate.jam_slots)),
            )
            .run(certificate.k, certificate.seed)
            .expect("certificate replays are valid runs");
            assert_eq!(replay.makespan, certificate.makespan, "{}", kind.label());
            assert_eq!(replay.completed, certificate.completed, "{}", kind.label());
            assert_eq!(
                replay.jammed_deliveries,
                certificate.jam_slots.len() as u64,
                "every certified jam slot must land on a would-be delivery ({})",
                kind.label()
            );
        }
    }
}

#[test]
fn tier_b_certificates_replay_exactly_on_their_search_engine() {
    let options = certify::tier_b_options();
    for (certificate, _) in certify::tier_b_certificates(certify::DEFAULT_SEED) {
        assert_eq!(certificate.tier, CertificateTier::BestFound);
        let kind = ProtocolKind::robust_lineup()
            .into_iter()
            .find(|k| k.label() == certificate.protocol)
            .expect("certificates name line-up protocols");
        let armed_options = armed(&options, schedule_of(&certificate.jam_slots));
        let replay = match kind.family() {
            ProtocolFamily::Fair => {
                FairSimulator::new(kind.clone(), armed_options).run(certificate.k, certificate.seed)
            }
            ProtocolFamily::Window => WindowSimulator::new(kind.clone(), armed_options)
                .run(certificate.k, certificate.seed),
        }
        .expect("certificate replays are valid runs");
        assert_eq!(replay.makespan, certificate.makespan, "{}", kind.label());
        assert_eq!(
            replay.jammed_deliveries,
            certificate.jam_slots.len() as u64,
            "{}",
            kind.label()
        );
        assert!(certificate.makespan >= certificate.clean_makespan);
    }
}

/// Satellite 2: record → replay is bit-identical per engine. Arm a
/// deterministic jam model, log which jams landed, re-run with the logged
/// slots as an explicit schedule: the *entire* `RunResult` must match —
/// deterministic jammers draw no randomness, and the jams that were dropped
/// (empty or contended slots) were observably inert.
#[test]
fn recorded_jams_replay_bit_identically_on_all_three_engines() {
    let k = 500;
    let seed = 17;
    let model = AdversaryModel::PeriodicJam {
        period: 3,
        burst: 1,
        phase: 1,
    };
    let fair_kind = ProtocolKind::OneFailAdaptive { delta: 2.72 };
    let window_kind = ProtocolKind::ExpBackonBackoff { delta: 0.366 };
    let base = RunOptions::default();
    let recording = armed(&base, model);

    // Fair aggregate engine.
    let (recorded, jams) = FairSimulator::new(fair_kind.clone(), recording.clone())
        .run_logging_jams(k, seed)
        .expect("valid run");
    assert!(!jams.is_empty(), "the periodic jammer must land some jams");
    let replayed = FairSimulator::new(fair_kind.clone(), armed(&base, schedule_of(&jams)))
        .run(k, seed)
        .expect("valid run");
    assert_eq!(replayed, recorded, "fair engine");

    // Window aggregate engine.
    let (recorded, jams) = WindowSimulator::new(window_kind.clone(), recording.clone())
        .run_logging_jams(k, seed)
        .expect("valid run");
    assert!(!jams.is_empty());
    let replayed = WindowSimulator::new(window_kind.clone(), armed(&base, schedule_of(&jams)))
        .run(k, seed)
        .expect("valid run");
    assert_eq!(replayed, recorded, "window engine");

    // Exact per-station engine, both families.
    for kind in [fair_kind, window_kind] {
        let (recorded, jams) = ExactSimulator::new(kind.clone(), recording.clone())
            .run_logging_jams(k, seed)
            .expect("valid run");
        assert!(!jams.is_empty());
        let replayed = ExactSimulator::new(kind.clone(), armed(&base, schedule_of(&jams)))
            .run(k, seed)
            .expect("valid run");
        assert_eq!(replayed, recorded, "exact engine, {}", kind.label());
    }
}

/// The headline tentpole property: the exhaustive tier *rediscovers* the
/// One-fail Adaptive period-2 resonance. The game tree knows nothing about
/// periodicity — it branches slot by slot on Single outcomes — yet at
/// budget 4 the certified worst case is a stride-2 comb on a single parity,
/// exactly the AT/BT alternation the hand-written `PeriodicJam { period: 2 }`
/// script exploits. (At larger budgets the optimum starts spending jams on
/// end-game singles of either parity, so the pure comb is asserted at the
/// budget where it is the proven optimum.)
#[test]
fn exhaustive_search_rediscovers_the_one_fail_period_2_resonance() {
    let options = certify::tier_a_options();
    let kind = ProtocolKind::OneFailAdaptive { delta: 2.72 };
    let budget = 4;
    for master_seed in [certify::DEFAULT_SEED, 1, 7, 42] {
        let seed = certify::cell_seed(master_seed, 0, 0, budget);
        let (certificate, _) = contention_resolution::sim::worst_case_exhaustive(
            &kind,
            certify::TIER_A_K,
            budget,
            seed,
            &options,
        )
        .expect("valid configuration");
        assert_eq!(certificate.jam_slots.len() as u64, budget);
        assert_eq!(
            certificate.stride(),
            Some(2),
            "master seed {master_seed}: expected a stride-2 comb, got {:?}",
            certificate.jam_slots
        );
        let parity = certificate.jam_slots[0] % 2;
        assert!(
            certificate.jam_slots.iter().all(|slot| slot % 2 == parity),
            "master seed {master_seed}: expected a single-parity comb, got {:?}",
            certificate.jam_slots
        );
        assert!(certificate.makespan > certificate.clean_makespan);
    }
}
