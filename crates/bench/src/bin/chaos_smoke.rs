//! Chaos smoke gate: fixed-seed fault injection against the session
//! layer, run by the CI `release-gates` job.
//!
//! ```bash
//! cargo run -p mac-bench --release --bin chaos_smoke
//! # Options:
//! #   --seed S   master seed (default 2011)
//! #   --k N      batched message count (default 20_000)
//! ```
//!
//! Four assertions, all hard failures:
//!
//! 1. **Crash + corruption recovery is bit-identical.** A batched run is
//!    driven through a durable [`mac_sim::CheckpointStore`] and hit with a
//!    mid-run crash, a crash with the newest stored generation
//!    bit-flipped, and a crash with the newest generation truncated. The
//!    recovered `RunResult` and latency sketch must equal the unbroken
//!    twin's field-for-field and bit-for-bit; the corrupted generations
//!    must have been detected and skipped (last-good fallback), never
//!    decoded.
//! 2. **A shard kill is survived bit-identically.** A supervised sharded
//!    run has one shard's thread killed mid-flight; the retry from the
//!    shard's last good checkpoint must converge to the unbroken fleet's
//!    merged result and sketch.
//! 3. **Quarantine degrades gracefully.** With zero retries the killed
//!    shard is quarantined; the surviving shards must finish, and the
//!    partial result must name the quarantined shard.
//! 4. **The OFA parity livelock is detected, not timed out.** The
//!    DESIGN.md §6 two-cohort deadlock must be flagged by the watchdog
//!    within two windows instead of burning the slot cap.

use mac_channel::ArrivalModel;
use mac_protocols::ProtocolKind;
use mac_sim::faults::{run_batched_chaos, scratch_dir, CorruptionKind, CrashPoint, FaultPlan};
use mac_sim::{
    simulate, RunOptions, Session, SessionError, ShardSupervision, ShardedSession, StallConfig,
    StallPolicy,
};
use std::time::Instant;

fn main() {
    let [seed, k] = mac_bench::parse_u64_flags(
        std::env::args().skip(1),
        [("--seed", 2011), ("--k", 20_000)],
    );
    let kind = ProtocolKind::OneFailAdaptive { delta: 2.72 };
    let options = RunOptions::default();
    // Bench harness wall-clock timing: reported, never fed back into results.
    #[allow(clippy::disallowed_methods)]
    let started = Instant::now();

    // 1. Crash + corruption recovery against the durable store.
    let twin = simulate(&kind, k, seed).expect("twin run");
    let mut twin_session = Session::batched(&kind, k, seed, &options).expect("twin session");
    twin_session.run_to_completion().expect("twin completes");
    let twin_p50 = twin_session.live_stats().map(|s| s.quantile(0.5));
    let mid = twin.makespan / 2;
    let plan = FaultPlan {
        seed,
        crashes: vec![
            CrashPoint {
                at_slot: twin.makespan / 4,
                corrupt: None,
            },
            CrashPoint {
                at_slot: mid,
                corrupt: Some(CorruptionKind::FlipByte),
            },
            CrashPoint {
                at_slot: mid + twin.makespan / 4,
                corrupt: Some(CorruptionKind::Truncate),
            },
        ],
    };
    let dir = scratch_dir("chaos-smoke");
    let report = run_batched_chaos(
        &kind,
        k,
        seed,
        &options,
        &plan,
        &dir,
        (twin.makespan / 16).max(1),
        None,
    )
    .expect("chaos run recovers");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(report.crashes_fired, 3, "all three crashes must fire");
    assert!(
        report.corrupt_generations_skipped >= 2,
        "both corrupted generations must be detected and skipped, got {}",
        report.corrupt_generations_skipped
    );
    assert_eq!(
        report.result, twin,
        "recovered result must be bit-identical"
    );
    assert_eq!(report.p50_latency, twin_p50, "recovered sketch too");
    println!(
        "chaos-smoke[1] OK: 3 crashes, {} corrupt generations skipped, {} slots replayed, result bit-identical",
        report.corrupt_generations_skipped, report.slots_replayed
    );

    // 2. Supervised shard kill converges to the unbroken fleet.
    let model = ArrivalModel::Bursts {
        bursts: vec![(0, 200), (1_000, 200), (8_000, 100)],
    };
    let mut fleet_twin = ShardedSession::new(&kind, &model, seed, &options, 4).expect("fleet twin");
    fleet_twin
        .run_to_completion()
        .expect("fleet twin completes");
    let fleet_result = fleet_twin.merged_result();
    let fleet_stats = fleet_twin.merged_stats();

    let mut fleet = ShardedSession::new(&kind, &model, seed, &options, 4).expect("fleet");
    fleet.set_supervision(Some(ShardSupervision::default()));
    fleet.arm_shard_kill(2, Some(600));
    fleet
        .run_to_completion()
        .expect("supervised fleet completes");
    assert_eq!(fleet.health()[2].failures, 1, "the kill fired once");
    assert!(fleet.quarantined_shards().is_empty());
    assert_eq!(
        fleet.merged_result(),
        fleet_result,
        "supervised recovery must be bit-identical"
    );
    let merged = fleet.merged_stats();
    assert_eq!(merged.count(), fleet_stats.count());
    assert_eq!(merged.quantile(0.5), fleet_stats.quantile(0.5));
    println!("chaos-smoke[2] OK: shard 2 killed, retried from checkpoint, fleet bit-identical");

    // 3. Quarantine names the shard and degrades to a partial result.
    let mut fleet = ShardedSession::new(&kind, &model, seed, &options, 4).expect("fleet");
    fleet.set_supervision(Some(ShardSupervision::new(0)));
    fleet.arm_shard_kill(1, Some(600));
    fleet
        .run_to_completion()
        .expect("quarantine still finishes");
    assert_eq!(fleet.quarantined_shards(), vec![1]);
    let partial = fleet.merged_result();
    assert!(!partial.completed, "quarantine means a partial result");
    assert!(partial.delivered > 0, "survivors still deliver");
    println!(
        "chaos-smoke[3] OK: shard 1 quarantined, {} of {} messages still delivered",
        partial.delivered, partial.k
    );

    // 4. The OFA parity livelock is detected within a bounded window.
    let deadlock = ArrivalModel::Bursts {
        bursts: vec![(0, 40), (1, 40)],
    };
    let stall_options = RunOptions {
        slot_cap_per_message: 100,
        min_slot_cap: 50_000,
        ..RunOptions::default()
    };
    let window = 2_000u64;
    let mut session =
        Session::dynamic(&kind, &deadlock, seed, &stall_options).expect("deadlock session");
    session.set_watchdog(Some(StallConfig::new(window, StallPolicy::Abort)));
    match session.run_to_completion() {
        Err(SessionError::Stalled(stall)) => {
            assert!(
                stall.detected_at_slot <= stall.last_progress_slot + 2 * window,
                "detection must land within two windows: {stall}"
            );
            println!("chaos-smoke[4] OK: parity deadlock detected — {stall}");
        }
        other => panic!("the parity deadlock must be detected as a stall, got {other:?}"),
    }

    println!(
        "chaos-smoke PASS (seed {seed}, k {k}) in {:.2}s",
        started.elapsed().as_secs_f64()
    );
}
