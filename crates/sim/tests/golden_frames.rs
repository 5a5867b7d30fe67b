//! Golden checkpoint frames: every fair kind on the cohort engine, batched
//! (one slot-0 cohort) and dynamic, a window schedule on the window engine,
//! a dynamic session whose watchdog has recorded a stall, two two-shard
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
//!
//! The trajectory pins stand apart from the layout: each frame is resumed
//! and driven to its end (a fleet through its merged result), and the
//! `RunResult` it reaches is pinned field by field. A layout change leaves
//! them as they are, so a re-pinned frame table cannot hide an engine change.
//! Each frame, resumed and checkpointed again at once, must also give back
//! its own words: decoding inverts encoding for every layout. And every
//! session of a resumed frame, each shard of a fleet, keeps the slot tally
//! right after the resume and at its end.

use mac_adversary::{AdversaryModel, AdversaryScenario};
use mac_channel::ArrivalModel;
use mac_prob::wire::digest_words;
use mac_protocols::ProtocolKind;
use mac_sim::{
    Checkpoint, CheckpointKind, RunOptions, RunResult, Session, ShardSupervision, ShardedSession,
    StallConfig, StallPolicy,
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
fn saturated(kind: &ProtocolKind, max_live_cohorts: u64, options: RunOptions) -> Checkpoint {
    let model = ArrivalModel::Poisson {
        rate: 2.0,
        horizon: 2_000,
    };
    let options = RunOptions {
        max_live_cohorts,
        ..options
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
    // The saturated RP-OFA run livelocks after two deliveries; a 20,000-slot
    // cap (21,999 with the last arrival) keeps that ending far past the
    // frame's slot 2,500 without driving it to the default 4.1M-slot cap.
    let short_cap = RunOptions {
        slot_cap_per_message: 0,
        min_slot_cap: 20_000,
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
        ("fair OFA", batched(&ofa(), 400, 11, &clean, 900)),
        ("fair LFA, jammed", batched(&lfa(), 300, 12, &jammed, 700)),
        (
            "fair oracle, recording deliveries",
            batched(&ProtocolKind::KnownKOracle, 200, 13, &recording, 250),
        ),
        (
            "window EBB",
            batched(
                &ProtocolKind::ExpBackonBackoff { delta: 0.366 },
                500,
                14,
                &clean,
                1_000,
            ),
        ),
        ("cohort OFA", dynamic(&ofa(), &bursts, 15, &clean, 400)),
        ("cohort LFA", dynamic(&lfa(), &poisson, 16, &clean, 1_200)),
        (
            "cohort oracle, capped",
            dynamic(&ProtocolKind::KnownKOracle, &poisson, 17, &capped, 1_500),
        ),
        (
            "cohort RP-OFA",
            dynamic(&rp_ofa(), &bursts, 18, &clean, 600),
        ),
        ("fair RP-OFA", batched(&rp_ofa(), 350, 19, &clean, 800)),
        ("sharded: 2-shard OFA fleet", fleet.checkpoint().unwrap()),
        ("cohort OFA, watchdog stall recorded", stalled()),
        (
            "sharded: supervised fleet, shard 1 killed and retried",
            supervised_fleet(&poisson),
        ),
        (
            "cohort oracle, saturated at cap 16",
            saturated(&ProtocolKind::KnownKOracle, 16, clean.clone()),
        ),
        (
            "cohort RP-OFA, saturated at cap 8",
            saturated(&rp_ofa(), 8, short_cap),
        ),
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
    ("fair OFA", 149, 0x1c16_b724_2f10_32d4),
    ("fair LFA, jammed", 144, 0xdb4f_a426_2a5b_ee6c),
    (
        "fair oracle, recording deliveries",
        246,
        0xf515_59de_d6b8_eba2,
    ),
    ("window EBB", 164, 0xf8cd_649c_d3a4_a5f2),
    ("cohort OFA", 163, 0x4b92_342d_2a8e_e309),
    ("cohort LFA", 194, 0xf6c4_7993_45cf_ada5),
    ("cohort oracle, capped", 279, 0xf92c_af13_6056_33f0),
    ("cohort RP-OFA", 170, 0xad91_d6cb_f93f_3694),
    ("fair RP-OFA", 160, 0xeb96_cfce_e8da_6c8a),
    ("sharded: 2-shard OFA fleet", 194, 0xf8a4_1d94_5c24_10df),
    (
        "cohort OFA, watchdog stall recorded",
        121,
        0xee87_2052_8cdd_bf82,
    ),
    (
        "sharded: supervised fleet, shard 1 killed and retried",
        210,
        0x3c93_32f9_6e21_0303,
    ),
    (
        "cohort oracle, saturated at cap 16",
        4429,
        0x3666_79d7_a34d_c8e4,
    ),
    (
        "cohort RP-OFA, saturated at cap 8",
        5186,
        0x34f4_cf0a_5564_2b19,
    ),
    (
        "window EBB, recording deliveries",
        126,
        0xd3a9_0d38_438d_31e0,
    ),
    ("window LLIB, jammed", 116, 0xd915_fd1d_a7d0_3140),
    (
        "cohort OFA, recording deliveries",
        234,
        0xd3ad_2dfa_ec59_417a,
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

/// The `RunResult` a resumed frame reaches at its end: its label, whether
/// it completed, and `k`, seed, makespan, delivered, collisions, silent
/// slots, jammed deliveries, never-activated messages and the digest of the
/// recorded delivery slots (0 when none are recorded).
type Trajectory = (&'static str, bool, [u64; 9]);

/// The end of every frame of [`frames`], in its order. These pin the
/// seeded trajectory apart from the layout: a layout change re-pins
/// [`PINNED`] and leaves this table as it is.
const TRAJECTORIES: [Trajectory; 17] = [
    (
        "One-fail Adaptive",
        true,
        [400, 11, 2909, 400, 2267, 242, 0, 0, 0],
    ),
    (
        "Log-fails Adaptive (xi_t=1/2)",
        true,
        [300, 12, 2570, 300, 1793, 477, 63, 0, 0],
    ),
    (
        "Known-k oracle",
        true,
        [200, 13, 534, 200, 145, 189, 0, 0, 0x29ba_5e97_0931_cf4a],
    ),
    (
        "Exp Back-on/Back-off",
        true,
        [500, 14, 2600, 500, 1310, 790, 0, 0, 0],
    ),
    (
        "One-fail Adaptive",
        true,
        [125, 0x1fc8_425e_8864_754e, 1029, 125, 604, 300, 0, 0, 0],
    ),
    (
        "Log-fails Adaptive (xi_t=1/2)",
        true,
        [282, 0xbc4d_9561_2b27_64fd, 3003, 282, 16, 2705, 0, 0, 0],
    ),
    (
        "Known-k oracle",
        true,
        [216, 0x54df_cf0a_b8af_0afc, 3386, 216, 6, 3164, 0, 0, 0],
    ),
    (
        "Randomised-parity One-fail",
        true,
        [125, 0x5e04_f473_0d60_d6ce, 1040, 125, 764, 151, 0, 0, 0],
    ),
    (
        "Randomised-parity One-fail",
        true,
        [350, 19, 2524, 350, 1982, 192, 0, 0, 0],
    ),
    (
        "One-fail Adaptive",
        true,
        [254, 0, 2984, 254, 18, 5679, 0, 0, 0],
    ),
    (
        "One-fail Adaptive",
        false,
        [80, 0xef00_bedd_1297_28d9, 1000001, 0, 1000001, 0, 0, 0, 0],
    ),
    (
        "One-fail Adaptive",
        true,
        [253, 0, 2978, 253, 36, 5656, 0, 0, 0],
    ),
    (
        "Known-k oracle",
        true,
        [
            4102,
            0x2b28_7c49_a975_d81d,
            15592,
            4102,
            2172,
            9318,
            0,
            0,
            0,
        ],
    ),
    (
        "Randomised-parity One-fail",
        false,
        [4102, 0x2b28_7c49_a975_d81d, 21999, 2, 21996, 1, 0, 0, 0],
    ),
    (
        "Exp Back-on/Back-off",
        true,
        [300, 22, 1352, 300, 789, 263, 0, 0, 0xe6d6_a712_c9a2_8e0a],
    ),
    (
        "Loglog-iterated Back-off",
        true,
        [300, 23, 2468, 300, 1125, 1043, 75, 0, 0],
    ),
    (
        "One-fail Adaptive",
        true,
        [
            125,
            0x2e23_f7ce_aa93_5e3f,
            1036,
            125,
            604,
            307,
            0,
            0,
            0xcce5_6f2b_0862_3191,
        ],
    ),
];

/// Resumes `frame` — a fleet through its merged result — and drives it to
/// its end.
fn run_to_end(frame: &Checkpoint) -> RunResult {
    if frame.verify() == Ok(CheckpointKind::Sharded) {
        let mut fleet = ShardedSession::resume(frame).unwrap();
        fleet.run_to_completion().unwrap();
        fleet.merged_result()
    } else {
        Session::resume(frame).unwrap().run_to_completion().unwrap()
    }
}

/// Resumes `frame` — a fleet through `ShardedSession::resume` — and
/// checkpoints it again at once.
fn re_encode(frame: &Checkpoint) -> Checkpoint {
    if frame.verify() == Ok(CheckpointKind::Sharded) {
        ShardedSession::resume(frame).unwrap().checkpoint().unwrap()
    } else {
        Session::resume(frame).unwrap().checkpoint().unwrap()
    }
}

#[test]
fn resumed_frames_re_encode_to_themselves() {
    // Decoding inverts encoding: every word a frame holds is read back
    // into the state that writes it, and no word is derived differently on
    // the way back.
    for (name, frame) in frames() {
        assert_eq!(re_encode(&frame).words(), frame.words(), "{name}");
    }
}

#[test]
fn resumed_frames_reach_their_pinned_ends() {
    let found: Vec<(String, bool, [u64; 9])> = frames()
        .iter()
        .map(|(_, frame)| {
            let r = run_to_end(frame);
            let slots = r.delivery_slots.as_deref().map_or(0, digest_words);
            let counts = [
                r.k,
                r.seed,
                r.makespan,
                r.delivered,
                r.collisions,
                r.silent_slots,
                r.jammed_deliveries,
                r.never_activated,
                slots,
            ];
            (r.protocol, r.completed, counts)
        })
        .collect();
    let pinned: Vec<(String, bool, [u64; 9])> = TRAJECTORIES
        .iter()
        .map(|&(label, completed, counts)| (label.to_string(), completed, counts))
        .collect();
    assert_eq!(found, pinned, "\nfound: {found:#x?}");
}

/// Every elapsed slot of each session in `sessions` is silent, a collision
/// or a delivery, and a completed run's makespan is its slot clock.
fn assert_slot_tally(sessions: &[Session], what: &str) {
    for (i, session) in sessions.iter().enumerate() {
        let r = session.result();
        let slot = session.slot();
        assert_eq!(
            r.silent_slots + r.collisions + r.delivered,
            slot,
            "{what}, session {i}"
        );
        if r.completed {
            assert_eq!(r.makespan, slot, "{what}, session {i}");
        }
    }
}

#[test]
fn paused_frames_keep_the_slot_tally() {
    for (name, frame) in frames() {
        if frame.verify() == Ok(CheckpointKind::Sharded) {
            let mut fleet = ShardedSession::resume(&frame).unwrap();
            assert_slot_tally(fleet.shards(), &format!("{name}, resumed"));
            fleet.run_to_completion().unwrap();
            assert_slot_tally(fleet.shards(), &format!("{name}, at its end"));
        } else {
            let mut session = Session::resume(&frame).unwrap();
            assert_slot_tally(std::slice::from_ref(&session), &format!("{name}, resumed"));
            session.run_to_completion().unwrap();
            assert_slot_tally(
                std::slice::from_ref(&session),
                &format!("{name}, at its end"),
            );
        }
    }
}
