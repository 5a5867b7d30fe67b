//! Chaos suite: deterministic fault injection against the session layer.
//!
//! Extends the PR 7 identity contract from "resume works" to "resume
//! works under fire" (DESIGN.md §10). Three fault families are exercised:
//!
//! * **Storage faults** — every single-byte corruption and every
//!   truncation of a valid checkpoint (session and sharded framings)
//!   must fail `resume` with a *typed* error before any state is
//!   reconstructed; a corrupted generation in a durable store must fall
//!   back to the previous good one. A frame re-sealed over a ±1 change to
//!   any payload word passes the digest, so it must fail typed or resume
//!   into a run that advances without a panic or a hang.
//! * **Process faults** — mid-run crashes (live state dropped, recovery
//!   through the store) and shard-thread kills (panic capture, retry,
//!   quarantine) must either recover **bit-identically** to the unbroken
//!   twin run or degrade to a partial result naming the quarantined
//!   shards. No panics, no silent divergence.
//! * **Livelock** — the OFA two-cohort parity deadlock (DESIGN.md §6)
//!   must surface as a detected stall within a bounded window instead of
//!   burning the slot cap.

use mac_adversary::{AdversaryModel, AdversaryScenario};
use mac_channel::ArrivalModel;
use mac_prob::wire::WireError;
use mac_protocols::ProtocolKind;
use mac_sim::faults::{run_batched_chaos, scratch_dir, CorruptionKind, CrashPoint, FaultPlan};
use mac_sim::{
    simulate, Checkpoint, CheckpointStore, IntegrityError, RunOptions, Session, SessionError,
    SessionStatus, ShardSupervision, ShardedSession, StallConfig, StallPolicy,
};

fn ofa() -> ProtocolKind {
    ProtocolKind::OneFailAdaptive { delta: 2.72 }
}

fn session_checkpoint() -> Checkpoint {
    let mut session = Session::batched(&ofa(), 60, 9, &RunOptions::default()).unwrap();
    session.advance(40).unwrap();
    session.checkpoint().unwrap()
}

fn sharded_checkpoint() -> Checkpoint {
    let model = ArrivalModel::Bursts {
        bursts: vec![(0, 20), (100, 20)],
    };
    let mut driver = ShardedSession::new(&ofa(), &model, 5, &RunOptions::default(), 2).unwrap();
    driver.advance(50).unwrap();
    driver.checkpoint().unwrap()
}

/// Resuming `bytes` under the right driver must fail with a typed error —
/// never a panic, never an `Ok`.
fn assert_typed_rejection(bytes: &[u8], sharded: bool, what: &str) {
    match Checkpoint::from_bytes(bytes) {
        Err(SessionError::Wire(_)) => {} // byte length not a word multiple: typed
        Err(other) => panic!("{what}: unexpected from_bytes error {other}"),
        Ok(checkpoint) => {
            let result = if sharded {
                ShardedSession::resume(&checkpoint).map(|_| ())
            } else {
                Session::resume(&checkpoint).map(|_| ())
            };
            match result {
                Err(SessionError::Integrity(_)) | Err(SessionError::Wire(_)) => {}
                Err(other) => panic!("{what}: unexpected resume error {other}"),
                Ok(()) => panic!("{what}: corrupted checkpoint resumed successfully"),
            }
        }
    }
}

#[test]
fn every_single_byte_corruption_is_rejected_with_a_typed_error() {
    for (checkpoint, sharded) in [(session_checkpoint(), false), (sharded_checkpoint(), true)] {
        let bytes = checkpoint.to_bytes();
        for offset in 0..bytes.len() {
            // One bit per byte keeps the sweep exhaustive over bytes yet
            // fast; the digest's per-word bijective mixing guarantees any
            // single-word change flips it (proved in mac_prob::wire), so
            // the bit choice is immaterial — vary it anyway.
            let bit = (offset % 8) as u8;
            let mut corrupted = bytes.clone();
            corrupted[offset] ^= 1 << bit;
            assert_typed_rejection(&corrupted, sharded, &format!("byte {offset} flipped"));
        }
    }
}

#[test]
fn every_truncation_is_rejected_with_a_typed_error() {
    for (checkpoint, sharded) in [(session_checkpoint(), false), (sharded_checkpoint(), true)] {
        let bytes = checkpoint.to_bytes();
        for len in 0..bytes.len() {
            assert_typed_rejection(&bytes[..len], sharded, &format!("truncated to {len} bytes"));
        }
    }
}

/// Every frame that changes one payload word of `checkpoint` by ±1 and
/// re-seals the digest, so that each one passes the integrity check and
/// reaches the payload decoder.
fn resealed_mutations(checkpoint: &Checkpoint) -> Vec<(String, Checkpoint)> {
    let words = checkpoint.words();
    let digest = words.len() - 1;
    // Words 0–2 are the frame header: magic, version and length.
    (3..digest)
        .flat_map(|i| [(i, 1u64, "+1"), (i, u64::MAX, "-1")])
        .map(|(i, delta, label)| {
            let mut mutated = words.to_vec();
            mutated[i] = mutated[i].wrapping_add(delta);
            mutated[digest] = mac_prob::wire::digest_words(&mutated[..digest]);
            let bytes = mac_prob::wire::words_to_bytes(&mutated);
            let frame = Checkpoint::from_bytes(&bytes).expect("whole words");
            (format!("word {i} {label}"), frame)
        })
        .collect()
}

/// Paused batched sessions whose zero tallies, delivery records and
/// arrival group sit where a ±1 change reaches a state no run has: One-fail
/// Adaptive and Loglog-iterated Back-off recording their delivery slots,
/// Log-fails Adaptive, Randomised-parity One-fail, and Exp Back-on/Back-off
/// under a periodic jammer.
fn batched_frames() -> Vec<Checkpoint> {
    let clean = RunOptions::default();
    let recording = RunOptions::recording_deliveries();
    let jammed = RunOptions::adversarial(AdversaryScenario::jamming(AdversaryModel::PeriodicJam {
        period: 5,
        burst: 1,
        phase: 2,
    }));
    let lfa = ProtocolKind::LogFailsAdaptive {
        xi_delta: 0.1,
        xi_beta: 0.1,
        xi_t: 0.5,
    };
    [
        (ofa(), &recording),
        (ProtocolKind::LoglogIteratedBackoff { r: 2.0 }, &recording),
        (lfa, &clean),
        (
            ProtocolKind::RandomizedParityOneFail { delta: 2.72 },
            &clean,
        ),
        (ProtocolKind::ExpBackonBackoff { delta: 0.366 }, &jammed),
    ]
    .into_iter()
    .map(|(kind, options)| {
        let mut session = Session::batched(&kind, 40, 9, options).unwrap();
        session.advance(30).unwrap();
        assert_eq!(session.status(), SessionStatus::Paused, "{}", kind.label());
        session.checkpoint().unwrap()
    })
    .collect()
}

/// Resumes `frame` as a session, or as a fleet if `sharded`, and advances
/// it 5,000 slots.
fn resume_and_advance(frame: &Checkpoint, sharded: bool) -> Result<(), SessionError> {
    if sharded {
        ShardedSession::resume(frame)?.advance(5_000)?;
    } else {
        Session::resume(frame)?.advance(5_000)?;
    }
    Ok(())
}

#[test]
fn digest_valid_mutations_fail_typed_or_run_without_panicking() {
    // The digest catches storage faults, not a frame sealed over a state
    // no run reaches. Such a frame must fail `resume` with a typed error,
    // or resume into a run that advances without a panic or a hang.
    let model = ArrivalModel::Poisson {
        rate: 0.5,
        horizon: 400,
    };
    let capped = RunOptions {
        max_live_cohorts: 4,
        ..RunOptions::default()
    };
    let mut session = Session::dynamic(&ProtocolKind::KnownKOracle, &model, 5, &capped).unwrap();
    session.advance(300).unwrap();
    let (mut rejected, mut ran, mut failures) = (0, 0, Vec::new());
    let mut frames = vec![
        (session.checkpoint().unwrap(), false),
        (sharded_checkpoint(), true),
    ];
    frames.extend(batched_frames().into_iter().map(|frame| (frame, false)));
    for (n, (frame, sharded)) in frames.into_iter().enumerate() {
        for (what, mutated) in resealed_mutations(&frame) {
            let what = format!("frame {n}, {what}");
            match std::panic::catch_unwind(|| resume_and_advance(&mutated, sharded)) {
                Ok(Ok(())) => ran += 1,
                // A fleet captures shard panics and reports them typed.
                Ok(Err(SessionError::ShardFailed { panic, .. })) => {
                    failures.push(format!("{what}: shard panicked: {panic}"));
                }
                Ok(Err(_)) => rejected += 1,
                Err(_) => failures.push(format!("{what}: panicked")),
            }
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
    assert!(rejected > 0 && ran > 0, "rejected {rejected}, ran {ran}");
}

/// Seals `words`, a frame whose payload was cut or spliced, again: the
/// length word and the trailing digest are recomputed, as
/// [`resealed_mutations`] recomputes the digest.
fn reseal(mut words: Vec<u64>) -> Checkpoint {
    words.pop();
    words[2] = words.len() as u64 + 1;
    words.push(mac_prob::wire::digest_words(&words));
    Checkpoint::from_bytes(&mac_prob::wire::words_to_bytes(&words)).expect("whole words")
}

#[test]
fn window_frames_with_unreachable_schedule_words_are_malformed() {
    // A batched window frame ends with its schedule's state words, just
    // before the digest. Re-sealed with a NaN, zero, negative or infinite
    // window size, it passes its digest but holds a schedule no run
    // reaches: a NaN size throws the window's balls into no bin, and a
    // size below one window slot spins the run to its slot cap.
    let window_sizes = [
        // Words [current, repeats left]: the size is the third word from
        // the end.
        (ProtocolKind::LoglogIteratedBackoff { r: 2.0 }, 3),
        // Words [current].
        (ProtocolKind::RExponentialBackoff { r: 2.0 }, 2),
        // Words [phase, w].
        (ProtocolKind::ExpBackonBackoff { delta: 0.366 }, 2),
    ];
    for (kind, from_end) in window_sizes {
        let mut session = Session::batched(&kind, 200, 3, &RunOptions::default()).unwrap();
        session.advance(100).unwrap();
        let words = session.checkpoint().unwrap().words().to_vec();
        let at = words.len() - from_end;
        let size = f64::from_bits(words[at]);
        assert!(size.is_finite() && size >= 1.0, "{}: {size}", kind.label());
        for bad in [f64::NAN, 0.0, -1.0, f64::INFINITY] {
            let mut frame = words.clone();
            frame[at] = bad.to_bits();
            match Session::resume(&reseal(frame)) {
                Err(SessionError::Wire(WireError::Malformed(_))) => {}
                Err(other) => panic!("{} at {bad}: unexpected error {other}", kind.label()),
                Ok(mut resumed) => {
                    panic!(
                        "{} at {bad}: resumed into {:?}",
                        kind.label(),
                        resumed.result()
                    )
                }
            }
        }
    }
}

#[test]
fn fleet_frames_that_new_cannot_write_are_malformed() {
    // A fleet frame carries its shard count, then each shard's session
    // frame behind its word count. Re-sealed with no shard at all, or with
    // shard 0's block in both places, the frame passes its digest but
    // describes a fleet `ShardedSession::new` never builds.
    let words = sharded_checkpoint().words().to_vec();
    let session_magic = session_checkpoint().words()[0];
    let blocks: Vec<usize> = (3..words.len())
        .filter(|&i| words[i] == session_magic)
        .map(|i| i - 1)
        .collect();
    let [first, second] = blocks[..] else {
        panic!("a two-shard frame embeds two session frames: {blocks:?}");
    };
    assert_eq!(words[first - 1], 2, "the shard count precedes shard 0");
    let mut empty = words[..first].to_vec();
    empty[first - 1] = 0;
    empty.push(0);
    let mut doubled = words[..second].to_vec();
    doubled.extend_from_slice(&words[first..second]);
    doubled.push(0);
    for (what, frame) in [
        ("no shard", reseal(empty)),
        ("shard 0 twice", reseal(doubled)),
    ] {
        match ShardedSession::resume(&frame) {
            Err(SessionError::Wire(WireError::Malformed(_))) => {}
            Err(other) => panic!("{what}: unexpected error {other}"),
            Ok(mut fleet) => panic!("{what}: resumed into {:?}", fleet.merged_result()),
        }
    }
}

#[test]
fn dynamic_frames_whose_feed_owes_another_count_are_malformed() {
    // A dynamic frame stores no count of the messages its feed still owes:
    // resume recounts them by walking the rest of the stream, and rejects
    // a frame whose count disagrees with the run state's. Re-sealed with
    // one more message in a burst the stream has not emitted yet, or in
    // the burst the feed holds as its lookahead, the frame passes its
    // digest but owes a message the run never had.
    let bursts = vec![(0, 20), (400, 23), (5_000, 29)];
    let model = ArrivalModel::Bursts {
        bursts: bursts.clone(),
    };
    let mut session = Session::dynamic(&ofa(), &model, 5, &RunOptions::default()).unwrap();
    session.advance(100).unwrap();
    let words = session.checkpoint().unwrap().words().to_vec();
    // The model's words: its tag, the burst count, then each burst's slot
    // and count in slot order.
    let mut listed = vec![2, bursts.len() as u64];
    listed.extend(bursts.iter().flat_map(|&(slot, count)| [slot, count]));
    let at = (3..words.len())
        .find(|&i| words[i..].starts_with(&listed))
        .expect("the frame carries the bursts model");
    let model_end = at + listed.len();
    // By slot 100 the feed has taken the first burst and holds the second
    // as its lookahead; the stream has not emitted the third.
    let unemitted = at + 2 + 2 * 2 + 1;
    let lookahead = (model_end..words.len())
        .find(|&i| words[i..].starts_with(&[400, 23]))
        .expect("the feed holds the second burst")
        + 1;
    assert_eq!((words[unemitted], words[lookahead]), (29, 23));
    assert!(Session::resume(&reseal(words.clone())).is_ok());
    for (what, index) in [
        ("an unemitted burst", unemitted),
        ("the feed's lookahead", lookahead),
    ] {
        let mut raised = words.clone();
        raised[index] += 1;
        match Session::resume(&reseal(raised)) {
            Err(SessionError::Wire(WireError::Malformed(_))) => {}
            Err(other) => panic!("{what}: unexpected error {other}"),
            Ok(mut resumed) => panic!("{what}: resumed into {:?}", resumed.result()),
        }
    }
}

#[test]
fn integrity_errors_carry_actionable_diagnostics() {
    let checkpoint = session_checkpoint();
    let words = checkpoint.words();

    // Version word (index 1) bumped: a {found, expected} version error,
    // reported before the digest gets a chance to call it "corrupt".
    let mut bumped = words.to_vec();
    bumped[1] += 1;
    let bumped = Checkpoint::from_bytes(&mac_prob::wire::words_to_bytes(&bumped)).unwrap();
    match Session::resume(&bumped).unwrap_err() {
        SessionError::Integrity(IntegrityError::VersionMismatch {
            found, expected, ..
        }) => {
            assert_eq!(found, expected + 1);
        }
        other => panic!("unexpected error: {other}"),
    }

    // A session frame fed to the sharded resume (and vice versa): a kind
    // mismatch naming both sides, not garbage decoding.
    match ShardedSession::resume(&checkpoint).unwrap_err() {
        SessionError::Integrity(IntegrityError::KindMismatch { .. }) => {}
        other => panic!("unexpected error: {other}"),
    }
    match Session::resume(&sharded_checkpoint()).unwrap_err() {
        SessionError::Integrity(IntegrityError::KindMismatch { .. }) => {}
        other => panic!("unexpected error: {other}"),
    }

    // Payload corruption: a digest mismatch carrying both digests.
    let mut corrupt = words.to_vec();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 1;
    let corrupt = Checkpoint::from_bytes(&mac_prob::wire::words_to_bytes(&corrupt)).unwrap();
    match Session::resume(&corrupt).unwrap_err() {
        SessionError::Integrity(IntegrityError::Corrupt {
            stored_digest,
            computed_digest,
        }) => assert_ne!(stored_digest, computed_digest),
        other => panic!("unexpected error: {other}"),
    }
}

#[test]
fn chaos_recovery_is_bit_identical_to_the_unbroken_twin() {
    let kind = ofa();
    let (k, seed) = (400, 23);
    let options = RunOptions::default();
    let twin = simulate(&kind, k, seed).unwrap();
    let mut twin_session = Session::batched(&kind, k, seed, &options).unwrap();
    twin_session.run_to_completion().unwrap();
    let twin_p50 = twin_session.live_stats().map(|s| s.quantile(0.5));

    // Clean crash, crash + bit rot, crash + torn write, and a pile-up of
    // all three: every plan must recover to the identical result + sketch.
    let plans = [
        FaultPlan {
            seed: 1,
            crashes: vec![CrashPoint {
                at_slot: 300,
                corrupt: None,
            }],
        },
        FaultPlan {
            seed: 2,
            crashes: vec![CrashPoint {
                at_slot: 250,
                corrupt: Some(CorruptionKind::FlipByte),
            }],
        },
        FaultPlan {
            seed: 3,
            crashes: vec![CrashPoint {
                at_slot: 500,
                corrupt: Some(CorruptionKind::Truncate),
            }],
        },
        FaultPlan {
            seed: 4,
            crashes: vec![
                CrashPoint {
                    at_slot: 150,
                    corrupt: None,
                },
                CrashPoint {
                    at_slot: 400,
                    corrupt: Some(CorruptionKind::FlipByte),
                },
                CrashPoint {
                    at_slot: 700,
                    corrupt: Some(CorruptionKind::Truncate),
                },
            ],
        },
    ];
    for plan in plans {
        let dir = scratch_dir("chaos-twin");
        let report = run_batched_chaos(&kind, k, seed, &options, &plan, &dir, 120, None).unwrap();
        assert_eq!(report.crashes_fired, plan.crashes.len() as u64);
        if plan.crashes.iter().any(|c| c.corrupt.is_some()) {
            assert!(
                report.corrupt_generations_skipped > 0,
                "plan {}: corruption must actually force a fallback",
                plan.seed
            );
        }
        assert_eq!(
            report.result, twin,
            "plan {}: recovery must be bit-identical",
            plan.seed
        );
        assert_eq!(
            report.p50_latency, twin_p50,
            "plan {}: sketch too",
            plan.seed
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn unsupervised_shard_panic_returns_a_typed_error() {
    let model = ArrivalModel::Bursts {
        bursts: vec![(0, 30), (50, 30)],
    };
    let mut driver = ShardedSession::new(&ofa(), &model, 7, &RunOptions::default(), 2).unwrap();
    driver.arm_shard_kill(1, Some(20));
    match driver.run_to_completion().unwrap_err() {
        SessionError::ShardFailed { shard, panic } => {
            assert_eq!(shard, 1);
            assert!(panic.contains("injected fault"), "payload: {panic}");
        }
        other => panic!("unexpected error: {other}"),
    }
}

#[test]
fn supervised_shard_kill_recovers_bit_identically() {
    let kind = ofa();
    let model = ArrivalModel::Bursts {
        bursts: vec![(0, 30), (50, 30), (500, 20)],
    };
    let options = RunOptions::default();
    let mut twin = ShardedSession::new(&kind, &model, 7, &options, 2).unwrap();
    twin.run_to_completion().unwrap();
    let twin_result = twin.merged_result();
    let twin_stats = twin.merged_stats();

    let mut driver = ShardedSession::new(&kind, &model, 7, &options, 2).unwrap();
    driver.set_supervision(Some(ShardSupervision::new(3)));
    driver.arm_shard_kill(1, Some(40));
    let status = driver.run_to_completion().unwrap();
    assert_eq!(status, SessionStatus::Finished);
    assert_eq!(driver.health()[1].failures, 1, "the kill fired once");
    assert!(driver.health()[1].last_panic.is_some());
    assert!(driver.quarantined_shards().is_empty());
    assert_eq!(
        driver.merged_result(),
        twin_result,
        "retry from the last good checkpoint must be bit-identical"
    );
    let merged = driver.merged_stats();
    assert_eq!(merged.count(), twin_stats.count());
    assert_eq!(merged.quantile(0.5), twin_stats.quantile(0.5));
    assert_eq!(merged.quantile(0.95), twin_stats.quantile(0.95));
}

#[test]
fn exhausted_retries_quarantine_the_shard_and_degrade_gracefully() {
    let kind = ofa();
    let model = ArrivalModel::Bursts {
        bursts: vec![(0, 30), (50, 30)],
    };
    let options = RunOptions::default();
    let mut driver = ShardedSession::new(&kind, &model, 7, &options, 2).unwrap();
    // Zero retries: the first failure quarantines the shard. (The armed
    // kill dies with the replaced session object, so any retry would
    // succeed — max_retries = 0 forces the quarantine path.)
    driver.set_supervision(Some(ShardSupervision::new(0)));
    driver.arm_shard_kill(0, Some(25));
    let status = driver.run_to_completion().unwrap();
    assert_eq!(status, SessionStatus::Finished, "survivors must finish");
    assert_eq!(driver.quarantined_shards(), vec![0]);
    assert!(driver.health()[0].quarantined);
    let result = driver.merged_result();
    assert!(
        !result.completed,
        "a quarantined shard must surface as a partial result"
    );
    assert!(
        result.delivered > 0,
        "the surviving shard's deliveries are still reported"
    );
    // The quarantined shard is frozen at its last good checkpoint, before
    // the kill slot.
    assert!(driver.shards()[0].slot() <= 25);
    assert!(driver.shards()[1].is_finished());
}

#[test]
fn sharded_checkpoint_preserves_supervision_and_health() {
    let model = ArrivalModel::Bursts {
        bursts: vec![(0, 30), (50, 30)],
    };
    let mut driver = ShardedSession::new(&ofa(), &model, 7, &RunOptions::default(), 2).unwrap();
    driver.set_supervision(Some(ShardSupervision::new(0)));
    driver.arm_shard_kill(0, Some(25));
    driver.run_to_completion().unwrap();
    assert_eq!(driver.quarantined_shards(), vec![0]);

    let resumed = ShardedSession::resume(&driver.checkpoint().unwrap()).unwrap();
    assert_eq!(resumed.supervision(), Some(ShardSupervision::new(0)));
    assert_eq!(resumed.health(), driver.health());
    assert_eq!(resumed.quarantined_shards(), vec![0]);
    assert!(resumed.is_finished(), "quarantine survives the round trip");
}

#[test]
fn watchdog_detects_the_ofa_parity_deadlock_within_a_bounded_window() {
    // DESIGN.md §6: two σ = 0 cohorts straddling both parities lock
    // One-fail Adaptive's BT phase at p = 1 — every slot collides, zero
    // deliveries, forever. Without a watchdog this burns the full slot
    // cap; the regression turns the documented anecdote into a check
    // that the stall is *detected* within a bounded window.
    let kind = ofa();
    let model = ArrivalModel::Bursts {
        bursts: vec![(0, 40), (1, 40)],
    };
    let options = RunOptions {
        slot_cap_per_message: 100,
        min_slot_cap: 50_000,
        ..RunOptions::default()
    };
    let window = 2_000u64;

    // Abort policy: the run stops with diagnostics instead of spinning.
    let mut session = Session::dynamic(&kind, &model, 3, &options).unwrap();
    session.set_watchdog(Some(StallConfig::new(window, StallPolicy::Abort)));
    match session.run_to_completion().unwrap_err() {
        SessionError::Stalled(report) => {
            assert!(
                report.detected_at_slot <= report.last_progress_slot + 2 * window,
                "detection within two windows of the last progress: {report}"
            );
            assert!(
                report.detected_at_slot < options.max_slots(80),
                "the watchdog must beat the slot-cap timeout"
            );
            assert!(report.backlog > 0, "a stall needs a backlog: {report}");
        }
        other => panic!("unexpected error: {other}"),
    }

    // Report policy: the run proceeds to its cap, the stall is recorded
    // and surfaced in the dynamic report; resuming carries the watchdog
    // state.
    let mut session = Session::dynamic(&kind, &model, 3, &options).unwrap();
    session.set_watchdog(Some(StallConfig::new(window, StallPolicy::Report)));
    session.run_to_completion().unwrap();
    let stall = session
        .stall()
        .expect("the deadlock must be flagged")
        .clone();
    assert!(stall.detected_at_slot <= stall.last_progress_slot + 2 * window);
    let report = session.live_report();
    assert_eq!(report.stall_detected_at, Some(stall.detected_at_slot));
    let resumed = Session::resume(&session.checkpoint().unwrap()).unwrap();
    assert_eq!(
        resumed.stall(),
        Some(&stall),
        "stall diagnostics survive resume"
    );
    assert_eq!(
        resumed.watchdog(),
        Some(StallConfig::new(window, StallPolicy::Report))
    );
}

#[test]
fn watchdog_never_perturbs_a_healthy_run() {
    // Bit-identity: an armed watchdog (chunked advances) must not change
    // the run — results and sketches match the unarmed twin exactly.
    let kind = ofa();
    let (k, seed) = (500, 31);
    let options = RunOptions::default();
    let mut plain = Session::batched(&kind, k, seed, &options).unwrap();
    plain.run_to_completion().unwrap();

    let mut watched = Session::batched(&kind, k, seed, &options).unwrap();
    watched.set_watchdog(Some(StallConfig::new(1_000, StallPolicy::Abort)));
    let result = watched.run_to_completion().unwrap();
    assert_eq!(result, plain.result());
    assert_eq!(
        watched.live_stats().map(|s| s.quantile(0.5)),
        plain.live_stats().map(|s| s.quantile(0.5))
    );
    assert!(watched.stall().is_none(), "healthy runs never stall");

    // Dynamic runs idle between bursts; an idle channel must not count
    // as a stall (the backlog, not `remaining`, gates the window).
    let model = ArrivalModel::Bursts {
        bursts: vec![(0, 20), (10_000, 20)],
    };
    let mut dynamic = Session::dynamic(&kind, &model, 5, &options).unwrap();
    dynamic.set_watchdog(Some(StallConfig::new(100, StallPolicy::Abort)));
    dynamic
        .run_to_completion()
        .expect("a 10k-slot arrival gap is idleness, not livelock");
    assert!(dynamic.stall().is_none());
}

#[test]
fn store_fallback_survives_a_corrupted_generation() {
    let dir = scratch_dir("chaos-store");
    let mut store = CheckpointStore::open(&dir, 3).unwrap();
    let mut session = Session::batched(&ofa(), 200, 13, &RunOptions::default()).unwrap();
    session.advance(100).unwrap();
    store.save(&session.checkpoint().unwrap()).unwrap();
    session.advance(100).unwrap();
    let bad = store.save(&session.checkpoint().unwrap()).unwrap();

    // Torn write: the newest generation loses its tail.
    let path = store.path_for(bad);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

    let outcome = store.load_latest().unwrap();
    let (generation, checkpoint) = outcome.loaded.expect("previous generation is good");
    assert_eq!(generation, bad - 1);
    assert_eq!(outcome.skipped.len(), 1);
    let mut recovered = Session::resume(&checkpoint).unwrap();
    recovered.run_to_completion().unwrap();
    assert_eq!(recovered.result(), simulate(&ofa(), 200, 13).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}
