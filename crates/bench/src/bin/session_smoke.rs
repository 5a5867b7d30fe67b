//! Session smoke gate: checkpoint/resume bit-identity and bounded memory at
//! reduced paper scale, run by the CI `release-gates` job.
//!
//! ```bash
//! cargo run -p mac-bench --release --bin session_smoke
//! # Options:
//! #   --slots N   target slot horizon (default 10_000_000)
//! #   --seed S    master seed (default 2011)
//! #   --rss-mb M  VmHWM ceiling in MiB (default 512)
//! ```
//!
//! Three assertions, all hard failures:
//!
//! 1. **Bit identity.** A 10⁷-slot dynamic session (One-fail Adaptive under
//!    sustained periodic-burst traffic) is paused mid-run, checkpointed
//!    through the byte codec, resumed in a fresh `Session`, and run to
//!    completion; its `RunResult` must equal the unbroken twin's
//!    field-for-field, and the streaming statistics must match to the bit
//!    (count, max, quantiles, rank-error ledger).
//! 2. **Bounded memory.** The latencies of ~5 × 10⁵ deliveries are held
//!    in the quantile sketch, not a vector; the process high-water mark
//!    (`VmHWM` from `/proc/self/status`) must stay under the ceiling.
//! 3. **Live statistics.** At every pause the sketch's proven rank-error
//!    ledger must stay under 2% of the observed count.

use mac_channel::ArrivalModel;
use mac_protocols::ProtocolKind;
use mac_sim::{Checkpoint, RunOptions, Session, SessionStatus};
use std::time::Instant;

/// Peak resident set size in KiB from `/proc/self/status`, if available
/// (Linux only; the gate is skipped elsewhere).
fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn main() {
    let [slots, seed, rss_mb] = mac_bench::parse_u64_flags(
        std::env::args().skip(1),
        [("--slots", 10_000_000), ("--seed", 2011), ("--rss-mb", 512)],
    );

    // Sustained traffic sized to the horizon: a burst of 100 messages every
    // 2000 slots. One-fail Adaptive clears each batch in ≈ 2(δ+1)·100 ≈ 750
    // slots (Theorem 1), comfortably before the next burst lands, so the
    // cohort engine stays O(1) active cohorts for the whole horizon while
    // the run accumulates ~slots/20 delivery latencies — far more than a
    // latency *vector* path could hold under the RSS ceiling once horizons
    // reach 10⁹. (Sustained Poisson traffic is deliberately avoided here:
    // over long horizons One-fail Adaptive eventually draws an arrival
    // overlap it cannot clear — the parity trap of DESIGN.md §6 — and the
    // run stalls against the slot cap.)
    let kind = ProtocolKind::OneFailAdaptive { delta: 2.72 };
    let burst_every = 2_000u64;
    let model = ArrivalModel::Bursts {
        bursts: (0..slots / burst_every)
            .map(|i| (i * burst_every, 100))
            .collect(),
    };
    let options = RunOptions::default();

    // Bench harness wall-clock timing: reported, never fed back into results.
    #[allow(clippy::disallowed_methods)]
    let started = Instant::now();
    let mut unbroken = Session::dynamic(&kind, &model, seed, &options).unwrap();
    unbroken.run_to_completion().unwrap();
    let reference = unbroken.result();
    println!(
        "unbroken run: k = {}, delivered = {}, makespan = {}, {:.1}s",
        reference.k,
        reference.delivered,
        reference.makespan,
        started.elapsed().as_secs_f64()
    );
    assert!(
        reference.makespan >= slots - slots / 10,
        "the run must actually span the requested horizon"
    );

    // Interrupted twin: pause every ~1/5 of the horizon, round-trip the
    // checkpoint through bytes, resume in a fresh session.
    let mut session = Session::dynamic(&kind, &model, seed, &options).unwrap();
    let mut pauses = 0u32;
    while session.advance(slots / 5).unwrap() == SessionStatus::Paused {
        let bytes = session.checkpoint().unwrap().to_bytes();
        session = Session::resume(&Checkpoint::from_bytes(&bytes).unwrap()).unwrap();
        pauses += 1;
        let stats = session.live_stats().unwrap();
        if stats.count() > 0 {
            // Live-statistics certificate: the proven worst-case rank
            // error stays a small fraction of the stream.
            assert!(
                stats.rank_error_bound() * 50 <= stats.count(),
                "rank-error ledger {} exceeds 2% of count {}",
                stats.rank_error_bound(),
                stats.count()
            );
            println!(
                "pause {pauses}: slot {} (checkpoint {} bytes, p50 {}, p95 {}, ±{})",
                session.slot(),
                bytes.len(),
                stats.quantile(0.50),
                stats.quantile(0.95),
                stats.rank_error_bound()
            );
        }
    }
    assert!(
        pauses >= 4,
        "the horizon must be split across several pauses"
    );

    // Bit-for-bit diff of the resumed run against the unbroken twin.
    let resumed = session.result();
    assert_eq!(
        resumed, reference,
        "resumed RunResult differs from the unbroken run"
    );
    let a = unbroken.live_stats().unwrap();
    let b = session.live_stats().unwrap();
    assert_eq!(a.count(), b.count(), "streaming count diverged");
    assert_eq!(a.max(), b.max(), "streaming max diverged");
    assert_eq!(a.quantile(0.5), b.quantile(0.5), "p50 diverged");
    assert_eq!(a.quantile(0.95), b.quantile(0.95), "p95 diverged");
    assert_eq!(
        a.rank_error_bound(),
        b.rank_error_bound(),
        "rank-error ledger diverged"
    );
    println!(
        "resumed run is bit-identical across {pauses} checkpoint/resume round trips \
         ({} deliveries, mean latency {:.2}, p95 {})",
        b.count(),
        b.mean(),
        b.quantile(0.95)
    );

    // Memory gate: all latencies went through the sketch, so the high-water
    // mark must stay far below what a per-delivery vector would need.
    match vm_hwm_kib() {
        Some(kib) => {
            println!(
                "VmHWM: {:.1} MiB (ceiling {} MiB)",
                kib as f64 / 1024.0,
                rss_mb
            );
            assert!(
                kib <= rss_mb * 1024,
                "peak RSS {kib} KiB exceeds the {rss_mb} MiB ceiling"
            );
        }
        None => println!("VmHWM unavailable on this platform; memory gate skipped"),
    }
    println!(
        "session smoke OK in {:.1}s",
        started.elapsed().as_secs_f64()
    );
}
