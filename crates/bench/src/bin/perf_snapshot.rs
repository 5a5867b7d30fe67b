//! Perf snapshot: slots/second of each simulation engine, written to the
//! next free `BENCH_NN.json` in the current directory (`BENCH_01.json` if
//! none exists — committed snapshots are never overwritten). See the
//! crate-level documentation of `mac-bench` for how `BENCH_*.json` files
//! accumulate.
//!
//! ```bash
//! # The committed snapshots were generated from the repository root with:
//! cargo run -p mac-bench --release --bin perf_snapshot -- --max-exp 6
//! # Options (via the shared HarnessOptions parser):
//! #   --seed S     master seed (default 2011)
//! #   --max-exp N  largest fast-simulator instance is 10^N (default 5)
//! #   --reps R     timed repetitions per point, best-of (default 10, min 3)
//! # Regression gate (used by CI against the committed baseline):
//! #   --check BENCH_NN.json   compare instead of writing a new snapshot;
//! #                           exit non-zero if any row regresses more than
//! #   --check-tolerance X     a factor of X (default 3) below the baseline
//! ```
//!
//! Engines measured on **batched** (static k-selection) instances:
//!
//! * **fair** — [`mac_sim::FairSimulator`] running One-fail Adaptive, at
//!   `k = 10⁴ … 10^max_exp`;
//! * **window** — [`mac_sim::WindowSimulator`] running Exp Back-on/Back-off,
//!   at the same sizes **plus paper scale** (`k = 10⁶, 10⁷`, measured
//!   regardless of `--max-exp`);
//! * **window-llbb** — the window simulator running Loglog-iterated
//!   Back-off at paper scale (`k = 10⁶, 10⁷`);
//! * **exact** — [`mac_sim::ExactSimulator`] (per-station reference) running
//!   One-fail Adaptive at `k = 10³, 10⁴`: it is O(active stations) per slot,
//!   so paper-scale sizes are not meaningful for it.
//!
//! **Dynamic-arrival** rows (the §6-style experiments) pair the cohort
//! aggregate engine with the exact per-station path on the *same* sampled
//! schedule, at `k = 10⁴ … 10^max_exp`:
//!
//! * **cohort-poisson / exact-poisson** — the known-k oracle under heavy
//!   Poisson traffic (rate 20 msgs/slot over a `k/20`-slot horizon; the
//!   oracle is the fair protocol that keeps delivering under heavily
//!   overlapping arrivals — One-fail Adaptive's BT track deadlocks there,
//!   see `crates/sim/DESIGN.md` §6);
//! * **cohort-bursts / exact-bursts** — One-fail Adaptive over ten
//!   adversarial bursts of `k/10` messages spaced `0.8·k` slots apart
//!   (even offsets, mostly-draining spacing);
//! * **cohort-poisson-capped** — the same heavy-Poisson oracle workload
//!   with **bounded-class mode** engaged (`max_live_cohorts = 64`): the
//!   live-class cap forces measured-divergence merges instead of letting
//!   one class per arrival burst accumulate. Its ratio to the paired
//!   **exact-poisson** row is the speed-up the saturation map relies on.
//!
//! A **session-saturated** row additionally drives `Session::dynamic` at
//! the saturation map's hottest corner (λ = 2 Poisson over a `k/2`-slot
//! horizon, bounded-class mode, livelock watchdog armed, live sketch read
//! at every pause) — the configuration of every `BENCH_06.json` phase-map
//! point, pinned here against throughput regressions.
//!
//! **Streaming-session** rows (the §9 session layer) drive the same engines
//! through `mac_sim::Session` in 2¹⁶-slot bursts, reading the live quantile
//! sketch at every pause, at `k = 10⁴ … 10^max_exp`:
//!
//! * **session-fair** — `Session::batched` running One-fail Adaptive; its
//!   ratio to the matching **fair** row is the streaming overhead (burst
//!   loop + live statistics instead of a latency vector);
//! * **session-cohort** — `Session::dynamic` running One-fail Adaptive on
//!   the ten-burst schedule shape of **cohort-bursts**;
//! * **sharded-2 / sharded-8** — `ShardedSession` on the same burst
//!   schedule hashed across 2 and 8 channels, scoped threads, merged
//!   sketches; throughput is per-channel slots (merged makespan) per second.
//!
//! The throughput figure is `makespan / wall_time` of a complete run — slots
//! simulated per second, best over the repetitions (the least-noise
//! estimator for a quantity bounded above by the hardware). The cohort
//! engine's speed-up over the exact path is the ratio of the paired rows.

use mac_bench::HarnessOptions;
use mac_channel::ArrivalModel;
use mac_prob::rng::Xoshiro256pp;
use mac_protocols::ProtocolKind;
use mac_sim::{
    CohortSimulator, ExactSimulator, FairSimulator, RunOptions, Session, SessionStatus,
    ShardedSession, StallConfig, StallPolicy, WindowSimulator,
};
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::Instant;

/// One measured point.
struct Point {
    simulator: &'static str,
    protocol: String,
    k: u64,
    slots: u64,
    best_seconds: f64,
    slots_per_sec: f64,
}

/// Runs `run` `reps` times (different seeds, so different makespans) and
/// returns the `(slots, seconds)` pair of the highest-throughput repetition —
/// a coherent measurement of one actual run, not a mix of the fastest wall
/// time with the last makespan. The minimum-repetitions policy lives in
/// `main` (which also reports it); this function trusts its input.
fn measure<F: FnMut(u64) -> u64>(reps: u64, mut run: F) -> (u64, f64) {
    let mut best: Option<(u64, f64)> = None;
    for rep in 0..reps {
        // Bench harness wall-clock timing: reported, never fed back into results.
        #[allow(clippy::disallowed_methods)]
        let started = Instant::now();
        let slots = run(rep);
        let seconds = started.elapsed().as_secs_f64().max(1e-12);
        let throughput = slots as f64 / seconds;
        if best.is_none_or(|(s, t)| throughput > s as f64 / t) {
            best = Some((slots, seconds));
        }
    }
    best.expect("measure requires reps >= 1")
}

/// Extracts the value of `"key": value` from a snapshot result line,
/// without the quotes of a string value.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

/// Compares measured points against a committed baseline snapshot; returns
/// the number of rows that regressed by more than `tolerance`.
fn count_regressions(points: &[Point], baseline_path: &str, tolerance: f64) -> usize {
    let baseline = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
    let mut regressions = 0usize;
    let mut compared = 0usize;
    for line in baseline.lines() {
        let number = |key| field(line, key).and_then(|v| v.parse::<u64>().ok());
        let (Some(simulator), Some(k), Some(rate)) = (
            field(line, "simulator"),
            number("k"),
            number("slots_per_sec"),
        ) else {
            continue;
        };
        let Some(point) = points.iter().find(|p| p.simulator == simulator && p.k == k) else {
            continue;
        };
        compared += 1;
        let floor = rate as f64 / tolerance;
        let status = if point.slots_per_sec < floor {
            regressions += 1;
            "REGRESSED"
        } else {
            "ok"
        };
        eprintln!(
            "{simulator:>6} k={k:<8} baseline {rate:>12} now {:>12.0}  [{status}]",
            point.slots_per_sec
        );
    }
    assert!(
        compared > 0,
        "no comparable rows between this run and {baseline_path}"
    );
    regressions
}

fn main() {
    // Split the regression-gate flags off before the shared parser sees the
    // rest (it rejects unknown flags by design).
    let mut check_path: Option<String> = None;
    let mut tolerance = 3.0f64;
    let mut passthrough: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => {
                check_path = Some(args.next().expect("--check requires a baseline path"));
            }
            "--check-tolerance" => {
                tolerance = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--check-tolerance requires a number");
            }
            _ => passthrough.push(arg),
        }
    }
    let options = HarnessOptions::parse(passthrough);
    let reps = options.reps.max(3);
    let fast_ks: Vec<u64> = (4..=options.max_exp.max(4)).map(|e| 10u64.pow(e)).collect();
    let exact_ks = [1_000u64, 10_000];

    eprintln!(
        "perf snapshot: fast engines at k = {fast_ks:?}, exact at k = {exact_ks:?}, \
         best of {reps} runs (seed {})",
        options.seed
    );

    let mut points: Vec<Point> = Vec::new();

    let fair_kind = ProtocolKind::OneFailAdaptive { delta: 2.72 };
    for &k in &fast_ks {
        let sim = FairSimulator::new(fair_kind.clone(), RunOptions::default());
        let (slots, secs) = measure(reps, |rep| {
            let result = sim.run(k, options.seed.wrapping_add(rep)).expect("valid");
            assert!(result.completed);
            result.makespan
        });
        points.push(Point {
            simulator: "fair",
            protocol: fair_kind.label(),
            k,
            slots,
            best_seconds: secs,
            slots_per_sec: slots as f64 / secs,
        });
    }

    let window_kind = ProtocolKind::ExpBackonBackoff { delta: 0.366 };
    for &k in &fast_ks {
        let sim = WindowSimulator::new(window_kind.clone(), RunOptions::default());
        let (slots, secs) = measure(reps, |rep| {
            let result = sim.run(k, options.seed.wrapping_add(rep)).expect("valid");
            assert!(result.completed);
            result.makespan
        });
        points.push(Point {
            simulator: "window",
            protocol: window_kind.label(),
            k,
            slots,
            best_seconds: secs,
            slots_per_sec: slots as f64 / secs,
        });
    }

    // Paper-scale window rows, measured regardless of --max-exp: the
    // k = 10⁷ batched instances are the paper's headline scale and the
    // window walk's dispatch crossovers were derived there, so the
    // regression gate pins them permanently (both window protocols; the
    // "window" series already carries Exp Back-on/Back-off at the fast
    // sizes, so only missing sizes are added to it).
    let paper_ks = [1_000_000u64, 10_000_000];
    let llbb_kind = ProtocolKind::LoglogIteratedBackoff { r: 2.0 };
    for &k in &paper_ks {
        if !fast_ks.contains(&k) {
            let sim = WindowSimulator::new(window_kind.clone(), RunOptions::default());
            let (slots, secs) = measure(reps, |rep| {
                let result = sim.run(k, options.seed.wrapping_add(rep)).expect("valid");
                assert!(result.completed);
                result.makespan
            });
            points.push(Point {
                simulator: "window",
                protocol: window_kind.label(),
                k,
                slots,
                best_seconds: secs,
                slots_per_sec: slots as f64 / secs,
            });
        }
        let sim = WindowSimulator::new(llbb_kind.clone(), RunOptions::default());
        let (slots, secs) = measure(reps, |rep| {
            let result = sim.run(k, options.seed.wrapping_add(rep)).expect("valid");
            assert!(result.completed);
            result.makespan
        });
        points.push(Point {
            simulator: "window-llbb",
            protocol: llbb_kind.label(),
            k,
            slots,
            best_seconds: secs,
            slots_per_sec: slots as f64 / secs,
        });
    }

    for &k in &exact_ks {
        let sim = ExactSimulator::new(fair_kind.clone(), RunOptions::default());
        let (slots, secs) = measure(reps, |rep| {
            let result = sim.run(k, options.seed.wrapping_add(rep)).expect("valid");
            assert!(result.completed);
            result.makespan
        });
        points.push(Point {
            simulator: "exact",
            protocol: fair_kind.label(),
            k,
            slots,
            best_seconds: secs,
            slots_per_sec: slots as f64 / secs,
        });
    }

    // Dynamic-arrival rows: cohort aggregate engine vs the exact path on
    // the same sampled schedule (paired rows; their slots/sec ratio is the
    // cohort engine's speed-up on the workload).
    let dynamic_workloads: Vec<(&'static str, &'static str, ProtocolKind, ArrivalModel)> = fast_ks
        .iter()
        .flat_map(|&k| {
            let burst = k / 10;
            vec![
                (
                    "cohort-poisson",
                    "exact-poisson",
                    ProtocolKind::KnownKOracle,
                    ArrivalModel::Poisson {
                        rate: 20.0,
                        horizon: k / 20,
                    },
                ),
                (
                    "cohort-bursts",
                    "exact-bursts",
                    ProtocolKind::OneFailAdaptive { delta: 2.72 },
                    ArrivalModel::Bursts {
                        bursts: (0..10).map(|i| (i * 8 * burst, burst)).collect(),
                    },
                ),
            ]
        })
        .collect();
    for (cohort_name, exact_name, kind, model) in dynamic_workloads {
        let k = (model.expected_messages() + 0.5) as u64;
        let schedule = model.sample(&mut Xoshiro256pp::seed_from_u64(options.seed));
        let sim = CohortSimulator::new(kind.clone(), RunOptions::default());
        let (slots, secs) = measure(reps, |rep| {
            let run = sim
                .run_schedule(&schedule, options.seed.wrapping_add(rep))
                .expect("valid");
            assert!(run.result.completed);
            run.result.makespan
        });
        points.push(Point {
            simulator: cohort_name,
            protocol: kind.label(),
            k,
            slots,
            best_seconds: secs,
            slots_per_sec: slots as f64 / secs,
        });
        let sim = ExactSimulator::new(kind.clone(), RunOptions::default());
        let (slots, secs) = measure(reps, |rep| {
            let run = sim
                .run_schedule(&schedule, options.seed.wrapping_add(rep))
                .expect("valid");
            assert!(run.result.completed);
            run.result.makespan
        });
        points.push(Point {
            simulator: exact_name,
            protocol: kind.label(),
            k,
            slots,
            best_seconds: secs,
            slots_per_sec: slots as f64 / secs,
        });
    }

    // Streaming-session rows: the same engines driven through the session
    // layer in bounded bursts with the live sketch read at every pause. The
    // session-fair / fair ratio (and session-cohort / cohort-bursts) is the
    // streaming overhead; the sharded rows measure the scoped-thread
    // multi-channel driver end to end, merged statistics included.
    let session_burst = 1u64 << 16;
    let ten_bursts = |k: u64| {
        let burst = k / 10;
        ArrivalModel::Bursts {
            bursts: (0..10).map(|i| (i * 8 * burst, burst)).collect(),
        }
    };
    for &k in &fast_ks {
        let (slots, secs) = measure(reps, |rep| {
            let mut session = Session::batched(
                &fair_kind,
                k,
                options.seed.wrapping_add(rep),
                &RunOptions::default(),
            )
            .expect("valid");
            while session.advance(session_burst).expect("advance") == SessionStatus::Paused {
                std::hint::black_box(session.live_stats().map(|s| s.quantile(0.95)));
            }
            let result = session.result();
            assert!(result.completed);
            result.makespan
        });
        points.push(Point {
            simulator: "session-fair",
            protocol: fair_kind.label(),
            k,
            slots,
            best_seconds: secs,
            slots_per_sec: slots as f64 / secs,
        });

        let model = ten_bursts(k);
        let (slots, secs) = measure(reps, |rep| {
            let mut session = Session::dynamic(
                &fair_kind,
                &model,
                options.seed.wrapping_add(rep),
                &RunOptions::default(),
            )
            .expect("valid");
            while session.advance(session_burst).expect("advance") == SessionStatus::Paused {
                std::hint::black_box(session.live_stats().map(|s| s.quantile(0.95)));
            }
            let result = session.result();
            assert!(result.completed);
            result.makespan
        });
        points.push(Point {
            simulator: "session-cohort",
            protocol: fair_kind.label(),
            k,
            slots,
            best_seconds: secs,
            slots_per_sec: slots as f64 / secs,
        });
    }
    for shards in [2u32, 8] {
        for &k in &fast_ks {
            let model = ten_bursts(k);
            let (slots, secs) = measure(reps, |rep| {
                let mut driver = ShardedSession::new(
                    &fair_kind,
                    &model,
                    options.seed.wrapping_add(rep),
                    &RunOptions::default(),
                    shards,
                )
                .expect("valid");
                driver.run_to_completion().expect("run");
                let result = driver.merged_result();
                assert!(result.completed);
                result.makespan
            });
            points.push(Point {
                simulator: if shards == 2 {
                    "sharded-2"
                } else {
                    "sharded-8"
                },
                protocol: fair_kind.label(),
                k,
                slots,
                best_seconds: secs,
                slots_per_sec: slots as f64 / secs,
            });
        }
    }

    // Bounded-class row: the heavy-Poisson oracle workload re-run with the
    // live-class cap engaged. Same sampled schedule as cohort-poisson, so
    // its ratio to exact-poisson is the bounded-mode speed-up.
    let oracle_kind = ProtocolKind::KnownKOracle;
    let capped_options = RunOptions {
        max_live_cohorts: 64,
        ..RunOptions::default()
    };
    for &k in &fast_ks {
        let model = ArrivalModel::Poisson {
            rate: 20.0,
            horizon: k / 20,
        };
        let schedule = model.sample(&mut Xoshiro256pp::seed_from_u64(options.seed));
        let sim = CohortSimulator::new(oracle_kind.clone(), capped_options.clone());
        let (slots, secs) = measure(reps, |rep| {
            let run = sim
                .run_schedule(&schedule, options.seed.wrapping_add(rep))
                .expect("valid");
            assert!(run.result.completed);
            assert!(run.peak_cohorts as u64 <= 64, "live-class cap violated");
            run.result.makespan
        });
        points.push(Point {
            simulator: "cohort-poisson-capped",
            protocol: oracle_kind.label(),
            k,
            slots,
            best_seconds: secs,
            slots_per_sec: slots as f64 / secs,
        });
    }

    // Saturated-session row: the exact configuration of a saturation-map
    // point (λ = 2 sustained, bounded-class mode, watchdog armed, sketch
    // read at every pause), measured end to end through the session layer.
    for &k in &fast_ks {
        let model = ArrivalModel::Poisson {
            rate: 2.0,
            horizon: k / 2,
        };
        let (slots, secs) = measure(reps, |rep| {
            let mut session = Session::dynamic(
                &oracle_kind,
                &model,
                options.seed.wrapping_add(rep),
                &capped_options,
            )
            .expect("valid");
            session.set_watchdog(Some(StallConfig::new(2_000, StallPolicy::Report)));
            while session.advance(session_burst).expect("advance") == SessionStatus::Paused {
                if session.stall().is_some() {
                    break;
                }
                std::hint::black_box(session.live_stats().map(|s| s.quantile(0.95)));
            }
            session.result().makespan
        });
        points.push(Point {
            simulator: "session-saturated",
            protocol: oracle_kind.label(),
            k,
            slots,
            best_seconds: secs,
            slots_per_sec: slots as f64 / secs,
        });
    }

    if let Some(baseline) = check_path {
        let regressions = count_regressions(&points, &baseline, tolerance);
        if regressions > 0 {
            eprintln!("{regressions} row(s) regressed more than {tolerance}x vs {baseline}");
            std::process::exit(1);
        }
        eprintln!("all rows within {tolerance}x of {baseline}");
        return;
    }

    // Hand-rolled JSON: the vendored serde stub has no serialisation backend,
    // and the format below is stable and diff-friendly on purpose.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"mac-bench/perf-snapshot/v1\",");
    let _ = writeln!(json, "  \"seed\": {},", options.seed);
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"unit\": \"slots_per_sec\",");
    let _ = writeln!(json, "  \"results\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 == points.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"simulator\": \"{}\", \"protocol\": \"{}\", \"k\": {}, \"slots\": {}, \
             \"best_seconds\": {:.6}, \"slots_per_sec\": {:.0}}}{comma}",
            p.simulator, p.protocol, p.k, p.slots, p.best_seconds, p.slots_per_sec
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    let path = mac_bench::next_snapshot_path();
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("{json}");
    eprintln!("wrote {path}");
}
