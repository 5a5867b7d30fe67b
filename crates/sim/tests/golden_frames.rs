//! Golden checkpoint frames: one checkpoint per engine tag (0–8), a
//! dynamic session whose watchdog has recorded a stall, two two-shard
//! fleet frames (one plain, one supervised with a shard killed and
//! retried), two saturated bounded-class sessions whose class cap binds
//! on nearly every slot, two window runs that carry per-run lists (one
//! recording its delivery slots, one jammed) and a cohort run recording
//! its delivery slots — 17 frames, each built from fixed seeds and a fixed
//! advance budget, pinned by word count and trailing digest.
//!
//! The digest chains every word of the frame, so a pinned pair fails on any
//! change to a frame's layout *or* to the run state it captures: a refactor
//! of an engine loop that leaves these pins intact has kept both the wire
//! format and the seeded trajectory byte-identical. A deliberate layout
//! change bumps `CHECKPOINT_VERSION` and re-pins this table.

use mac_adversary::{AdversaryModel, AdversaryScenario};
use mac_channel::ArrivalModel;
use mac_protocols::ProtocolKind;
use mac_sim::{
    Checkpoint, RunOptions, Session, ShardSupervision, ShardedSession, StallConfig, StallPolicy,
};

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

/// The §6 two-cohort deadlock under a 200-slot Report watchdog, advanced
/// past the stall: the frame carries a recorded `StallReport`.
fn stalled() -> Checkpoint {
    let deadlock = ArrivalModel::Bursts {
        bursts: vec![(0, 40), (1, 40)],
    };
    let mut session = Session::dynamic(&ofa(), &deadlock, 1, &RunOptions::default()).unwrap();
    session.set_watchdog(Some(StallConfig::new(200, StallPolicy::Report)));
    session.advance(1_000).unwrap();
    let stall = session.stall().cloned().expect("the deadlock is flagged");
    assert_eq!(stall.detected_at_slot, 200);
    let checkpoint = session.checkpoint().unwrap();
    let resumed = Session::resume(&checkpoint).unwrap();
    assert_eq!(resumed.stall(), Some(&stall), "the stall survives a resume");
    checkpoint
}

/// A bounded-class session on rate-2 Poisson arrivals, which outrun every
/// fair protocol, advanced 2,500 slots: the live-class cap binds on nearly
/// every arrival slot, so the frame pins the outcome of class-cap
/// enforcement round after round, ties between bit-equal classes included.
fn saturated(kind: &ProtocolKind, max_live_cohorts: u64) -> Checkpoint {
    let model = ArrivalModel::Poisson {
        rate: 2.0,
        horizon: 2_000,
    };
    let options = RunOptions {
        max_live_cohorts,
        ..RunOptions::default()
    };
    let mut session = Session::dynamic(kind, &model, 21, &options).unwrap();
    session.advance(2_500).unwrap();
    session.checkpoint().unwrap()
}

/// A supervised two-shard fleet whose shard 1 is killed at slot 300 and
/// retried from its last good checkpoint: the frame carries the shard's
/// health ledger (one failure, the injected panic message).
fn supervised_fleet(model: &ArrivalModel) -> Checkpoint {
    let mut fleet = ShardedSession::new(&ofa(), model, 32, &RunOptions::default(), 2).unwrap();
    fleet.set_supervision(Some(ShardSupervision::new(1)));
    fleet.arm_shard_kill(1, Some(300));
    fleet.advance(700).unwrap();
    let health = &fleet.health()[1];
    assert_eq!(health.failures, 1);
    assert!(health
        .last_panic
        .as_deref()
        .is_some_and(|panic| panic.contains("injected fault")));
    fleet.checkpoint().unwrap()
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
        ("cohort OFA, watchdog stall recorded", stalled()),
        (
            "sharded: supervised fleet, shard 1 killed and retried",
            supervised_fleet(&poisson),
        ),
        (
            "cohort oracle, saturated at cap 16",
            saturated(&ProtocolKind::KnownKOracle, 16),
        ),
        ("cohort RP-OFA, saturated at cap 8", saturated(&rp_ofa(), 8)),
        (
            "window EBB, recording deliveries",
            batched(
                &ProtocolKind::ExpBackonBackoff { delta: 0.366 },
                300,
                22,
                &recording,
                600,
            ),
        ),
        (
            "window LLIB, jammed",
            batched(
                &ProtocolKind::LoglogIteratedBackoff { r: 2.0 },
                300,
                23,
                &jammed,
                900,
            ),
        ),
        (
            "cohort OFA, recording deliveries",
            dynamic(&ofa(), &bursts, 24, &recording, 500),
        ),
    ]
}

/// `(frame, word count, trailing digest)`.
const PINNED: [(&str, usize, u64); 17] = [
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
    (
        "cohort OFA, watchdog stall recorded",
        144,
        0x2598_37d4_f402_23f1,
    ),
    (
        "sharded: supervised fleet, shard 1 killed and retried",
        256,
        0x5404_1c22_5636_8b58,
    ),
    (
        "cohort oracle, saturated at cap 16",
        4479,
        0xf450_0891_4398_0815,
    ),
    (
        "cohort RP-OFA, saturated at cap 8",
        5270,
        0xa6ad_dde6_45cf_fa47,
    ),
    (
        "window EBB, recording deliveries",
        136,
        0xd142_c25d_1c62_14c9,
    ),
    ("window LLIB, jammed", 124, 0xf4ee_2cca_8b70_f560),
    (
        "cohort OFA, recording deliveries",
        256,
        0x454a_fa16_8891_9c5f,
    ),
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
