//! Golden checkpoint frames: one checkpoint per engine tag (0–8) plus one
//! two-shard fleet frame, each built from fixed seeds and a fixed advance
//! budget, pinned by word count and trailing digest.
//!
//! The digest chains every word of the frame, so a pinned pair fails on any
//! change to a frame's layout *or* to the run state it captures: a refactor
//! of an engine loop that leaves these pins intact has kept both the wire
//! format and the seeded trajectory byte-identical. A deliberate layout
//! change bumps `CHECKPOINT_VERSION` and re-pins this table.

use mac_adversary::{AdversaryModel, AdversaryScenario};
use mac_channel::ArrivalModel;
use mac_protocols::ProtocolKind;
use mac_sim::{Checkpoint, RunOptions, Session, ShardedSession, StallConfig, StallPolicy};

fn ofa() -> ProtocolKind {
    ProtocolKind::OneFailAdaptive { delta: 2.72 }
}

fn lfa() -> ProtocolKind {
    ProtocolKind::LogFailsAdaptive {
        xi_delta: 0.1,
        xi_beta: 0.1,
        xi_t: 0.5,
    }
}

fn rp_ofa() -> ProtocolKind {
    ProtocolKind::RandomizedParityOneFail { delta: 2.72 }
}

/// A batched session advanced by `budget` slots.
fn batched(
    kind: &ProtocolKind,
    k: u64,
    seed: u64,
    options: &RunOptions,
    budget: u64,
) -> Checkpoint {
    let mut session = Session::batched(kind, k, seed, options).unwrap();
    session.advance(budget).unwrap();
    session.checkpoint().unwrap()
}

/// A dynamic (cohort-engine) session advanced by `budget` slots.
fn dynamic(
    kind: &ProtocolKind,
    model: &ArrivalModel,
    seed: u64,
    options: &RunOptions,
    budget: u64,
) -> Checkpoint {
    let mut session = Session::dynamic(kind, model, seed, options).unwrap();
    session.set_watchdog(Some(StallConfig::new(5_000, StallPolicy::Report)));
    session.advance(budget).unwrap();
    session.checkpoint().unwrap()
}

fn frames() -> Vec<(&'static str, Checkpoint)> {
    let clean = RunOptions::default();
    let jammed = RunOptions::adversarial(AdversaryScenario::jamming(AdversaryModel::PeriodicJam {
        period: 5,
        burst: 1,
        phase: 2,
    }));
    let recording = RunOptions::recording_deliveries();
    let capped = RunOptions {
        max_live_cohorts: 4,
        ..RunOptions::default()
    };
    let bursts = ArrivalModel::Bursts {
        bursts: vec![(0, 60), (150, 40), (900, 25)],
    };
    let poisson = ArrivalModel::Poisson {
        rate: 0.08,
        horizon: 3_000,
    };
    let mut fleet = ShardedSession::new(&ofa(), &poisson, 31, &clean, 2).unwrap();
    fleet.advance(700).unwrap();
    vec![
        ("tag 0: fair OFA", batched(&ofa(), 400, 11, &clean, 900)),
        (
            "tag 1: fair LFA, jammed",
            batched(&lfa(), 300, 12, &jammed, 700),
        ),
        (
            "tag 2: fair oracle, recording deliveries",
            batched(&ProtocolKind::KnownKOracle, 200, 13, &recording, 250),
        ),
        (
            "tag 3: window EBB",
            batched(
                &ProtocolKind::ExpBackonBackoff { delta: 0.366 },
                500,
                14,
                &clean,
                1_000,
            ),
        ),
        (
            "tag 4: cohort OFA",
            dynamic(&ofa(), &bursts, 15, &clean, 400),
        ),
        (
            "tag 5: cohort LFA",
            dynamic(&lfa(), &poisson, 16, &clean, 1_200),
        ),
        (
            "tag 6: cohort oracle, capped",
            dynamic(&ProtocolKind::KnownKOracle, &poisson, 17, &capped, 1_500),
        ),
        (
            "tag 7: cohort RP-OFA",
            dynamic(&rp_ofa(), &bursts, 18, &clean, 600),
        ),
        (
            "tag 8: fair RP-OFA",
            batched(&rp_ofa(), 350, 19, &clean, 800),
        ),
        ("sharded: 2-shard OFA fleet", fleet.checkpoint().unwrap()),
    ]
}

/// `(frame, word count, trailing digest)`.
const PINNED: [(&str, usize, u64); 10] = [
    ("tag 0: fair OFA", 144, 0x0b58_28cb_dc43_49a2),
    ("tag 1: fair LFA, jammed", 138, 0xe7ab_de46_6e3f_e97b),
    (
        "tag 2: fair oracle, recording deliveries",
        241,
        0x9de4_5b67_caeb_16fa,
    ),
    ("tag 3: window EBB", 174, 0x8cbd_a8b0_ec56_5f23),
    ("tag 4: cohort OFA", 185, 0xf3f3_c555_374f_7a75),
    ("tag 5: cohort LFA", 216, 0xab14_d6ec_b8f0_d87e),
    ("tag 6: cohort oracle, capped", 306, 0xa2ef_76db_7136_227a),
    ("tag 7: cohort RP-OFA", 193, 0x1120_5c1e_0151_1cd9),
    ("tag 8: fair RP-OFA", 156, 0xe7c4_9c5d_7c7c_af11),
    ("sharded: 2-shard OFA fleet", 240, 0xcb7e_4aa4_f60e_c0bf),
];

#[test]
fn checkpoint_frames_match_their_pins() {
    let found: Vec<(&str, usize, u64)> = frames()
        .into_iter()
        .map(|(name, checkpoint)| {
            let words = checkpoint.words();
            (name, words.len(), words.last().copied().unwrap_or(0))
        })
        .collect();
    assert_eq!(found, PINNED, "\nfound: {found:#x?}");
}
