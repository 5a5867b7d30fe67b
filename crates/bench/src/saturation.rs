//! Saturation / phase-map harness: long-run dynamic sessions under
//! sustained Poisson arrivals, one point per (protocol, λ), charting
//! achieved throughput, sketched latency percentiles, and the measured
//! stability boundary — the largest sustained arrival rate at which a
//! protocol still completes its workload without tripping the livelock
//! watchdog.
//!
//! Every point drives [`mac_sim::Session::dynamic`] with **bounded-class
//! cohort mode** on (`RunOptions::max_live_cohorts`): sustained overload
//! creates one cohort class per arrival burst, and without the cap a
//! λ = 2 run to 10⁶ cumulative arrivals carries hundreds of thousands of
//! live classes. With the cap, the class count stays ≤ `C_max` and the
//! per-slot cost stays flat, which is what makes the saturated corner of
//! the map computable at all. The stall watchdog (`StallConfig`, Report
//! policy) is always armed: a saturated protocol that deadlocks — e.g.
//! One-fail Adaptive's AT/BT parity trap under heavily overlapping
//! cohorts, DESIGN.md §6 — is detected within two windows and the run is
//! parked instead of burning its full slot cap. Each run also performs one
//! checkpoint/resume round-trip at its first pause, so every committed row
//! additionally witnesses the resume path (resume is bit-identical, so the
//! row is unchanged by it).
//!
//! The committed artefacts are `BENCH_06.json` (schema
//! `mac-bench/saturation-map/v1`), which carries the full-horizon map
//! **plus** a reduced smoke grid, and `PHASE.md`, the per-protocol phase
//! tables rendered from the same points. Runs are deterministic per seed
//! and nothing here measures time, so the `saturation_map --check` CI gate
//! re-runs both grids, renders both files and compares each with its
//! committed copy byte for byte ([`crate::check_committed`]).

use mac_channel::ArrivalModel;
use mac_protocols::ProtocolKind;
use mac_sim::{RunOptions, Session, SessionStatus, StallConfig, StallPolicy};
use std::fmt::Write as _;

/// Grid configuration for one saturation sweep.
#[derive(Debug, Clone)]
pub struct SaturationConfig {
    /// Arrival horizon in slots: arrivals stop after this slot, so the
    /// expected cumulative arrivals of a point are `λ · horizon`.
    pub horizon: u64,
    /// Sustained Poisson rates (messages per slot) to chart.
    pub lambdas: Vec<f64>,
    /// Master seed (per-point seeds derive from it deterministically).
    pub seed: u64,
    /// Bounded-class cap (`RunOptions::max_live_cohorts`).
    pub cap: u64,
    /// Livelock-watchdog window in slots (Report policy).
    pub window: u64,
}

/// The full-horizon map behind the committed phase diagrams: λ up to 2
/// (two arrivals per slot — 10⁶ cumulative arrivals over the 500k-slot
/// horizon), far above every protocol's capacity.
pub fn full_grid() -> SaturationConfig {
    SaturationConfig {
        horizon: 500_000,
        lambdas: vec![0.02, 0.05, 0.10, 0.15, 0.20, 0.30, 0.50, 1.00, 2.00],
        seed: 2011,
        cap: 64,
        window: 2_000,
    }
}

/// The reduced smoke grid for the CI gate: one clearly-stable and one
/// clearly-saturated rate over a short horizon. Must stay cheap — it runs
/// on every pull request.
pub fn reduced_grid() -> SaturationConfig {
    SaturationConfig {
        horizon: 20_000,
        lambdas: vec![0.05, 2.00],
        seed: 2011,
        cap: 64,
        window: 2_000,
    }
}

/// The protocol line-up of the map: the paper's two adaptive protocols,
/// the randomised-parity One-fail variant (which breaks the two-cohort
/// parity deadlock and measurably raises the boundary over stock
/// One-fail), and the known-k oracle, whose achieved throughput under
/// full backlog is the closest measured point to the 1/e capacity
/// ceiling. Note the oracle transmits with probability 1/k for the
/// *global* k, so once its backlog drains below ~k the remaining tail is
/// intrinsically slow — large-k oracle rows park in that tail with
/// >99.9% delivered.
pub fn lineup() -> Vec<ProtocolKind> {
    vec![
        ProtocolKind::OneFailAdaptive { delta: 2.72 },
        ProtocolKind::LogFailsAdaptive {
            xi_delta: 0.1,
            xi_beta: 0.1,
            xi_t: 0.5,
        },
        ProtocolKind::RandomizedParityOneFail { delta: 2.72 },
        ProtocolKind::KnownKOracle,
    ]
}

/// One measured point of the phase map.
#[derive(Debug, Clone, PartialEq)]
pub struct SaturationPoint {
    /// Protocol configuration label.
    pub protocol: String,
    /// Sustained Poisson arrival rate (messages per slot).
    pub lambda: f64,
    /// Arrival horizon of the run (slots).
    pub horizon: u64,
    /// Messages the sampled schedule actually contains.
    pub messages: u64,
    /// Messages delivered before the run finished or was parked.
    pub delivered: u64,
    /// Whether every message was delivered.
    pub completed: bool,
    /// Slot clock when the run finished or was parked.
    pub makespan: u64,
    /// Achieved throughput: delivered messages per simulated slot.
    pub throughput: f64,
    /// Sketched latency percentiles (delivery − arrival, slots).
    pub p50: u64,
    /// 95th-percentile latency.
    pub p95: u64,
    /// 99th-percentile latency.
    pub p99: u64,
    /// Whether the livelock watchdog flagged a zero-delivery stall.
    pub stalled: bool,
    /// Slot of stall detection (0 when not stalled).
    pub detected_at: u64,
    /// Last progress slot before the stall (0 when not stalled).
    pub last_progress: u64,
    /// Peak simultaneously-live cohort classes (must stay ≤ the cap).
    pub peak_classes: u64,
    /// Cohort merges performed (scan merges + forced cap merges).
    pub merges: u64,
}

/// Runs one (protocol, λ) point: a dynamic session in 2¹⁶-slot bursts with
/// the watchdog armed, parked at the first detected stall, with one
/// checkpoint/resume round-trip at the first pause.
pub fn run_point(kind: &ProtocolKind, lambda: f64, config: &SaturationConfig) -> SaturationPoint {
    let model = ArrivalModel::Poisson {
        rate: lambda,
        horizon: config.horizon,
    };
    let options = RunOptions {
        max_live_cohorts: config.cap,
        ..RunOptions::default()
    };
    let mut session =
        Session::dynamic(kind, &model, config.seed, &options).expect("valid saturation point");
    session.set_watchdog(Some(StallConfig::new(config.window, StallPolicy::Report)));

    let burst = 1u64 << 16;
    let mut first_pause = true;
    loop {
        let status = session.advance(burst).expect("advance");
        if first_pause {
            // Checkpoint/resume round-trip: resume is bit-identical, so
            // the measured point is unchanged — but every committed row
            // now witnesses the resume path at saturation scale.
            let checkpoint = session.checkpoint().expect("checkpoint");
            checkpoint.verify().expect("checkpoint integrity");
            session = Session::resume(&checkpoint).expect("resume");
            session.set_watchdog(Some(StallConfig::new(config.window, StallPolicy::Report)));
            first_pause = false;
        }
        if status == SessionStatus::Finished || session.stall().is_some() {
            break;
        }
    }

    let stall = session.stall().cloned();
    let messages = session.delivered() + session.remaining();
    let (p50, p95, p99) = match session.live_stats() {
        Some(stats) if stats.count() > 0 => (
            stats.quantile(0.50),
            stats.quantile(0.95),
            stats.quantile(0.99),
        ),
        _ => (0, 0, 0),
    };
    let run = session
        .cohort_run()
        .expect("dynamic sessions are cohort runs");
    let result = run.result;
    SaturationPoint {
        protocol: session.label().to_string(),
        lambda,
        horizon: config.horizon,
        messages,
        delivered: result.delivered,
        completed: result.completed,
        makespan: result.makespan,
        throughput: result.delivered as f64 / result.makespan.max(1) as f64,
        p50,
        p95,
        p99,
        stalled: stall.is_some(),
        detected_at: stall.as_ref().map_or(0, |s| s.detected_at_slot),
        last_progress: stall.as_ref().map_or(0, |s| s.last_progress_slot),
        peak_classes: run.peak_cohorts as u64,
        merges: run.merges,
    }
}

/// Runs the whole grid: every line-up protocol at every λ.
pub fn run_grid(config: &SaturationConfig) -> Vec<SaturationPoint> {
    let mut points = Vec::new();
    for kind in lineup() {
        for &lambda in &config.lambdas {
            points.push(run_point(&kind, lambda, config));
        }
    }
    points
}

/// A point is *stable* if the run completed **and** the protocol actually
/// kept up with the offered load: achieved throughput at least 80% of λ.
/// Completion alone is not stability — a saturated run can still
/// "complete" by draining its backlog long after arrivals stop (the
/// known-k oracle delivers at ~1/e per slot over 7× the horizon at
/// λ = 2). Conversely a completed run *has* recovered from any transient
/// watchdog report (the oracle's 1/k transmission probability makes
/// multi-thousand-slot gaps the law, not livelock, once its backlog
/// drains), so the stall flag on its own does not disqualify; parked
/// runs never complete and are never stable.
pub fn is_stable(p: &SaturationPoint) -> bool {
    p.completed && p.throughput >= 0.8 * p.lambda
}

/// The measured stability boundary of one protocol: the largest charted λ
/// whose point is stable under [`is_stable`] (`None` if every rate
/// saturated it).
pub fn stability_boundary(points: &[SaturationPoint], protocol: &str) -> Option<f64> {
    points
        .iter()
        .filter(|p| p.protocol == protocol && is_stable(p))
        .map(|p| p.lambda)
        .fold(None, |best, l| Some(best.map_or(l, |b: f64| b.max(l))))
}

/// One stable JSON row (hand-rolled: the vendored serde stub has no
/// serialisation backend; the format is diff-friendly on purpose).
fn render_row(p: &SaturationPoint) -> String {
    format!(
        "    {{\"protocol\": \"{}\", \"lambda\": {}, \"horizon\": {}, \"messages\": {}, \
         \"delivered\": {}, \"completed\": {}, \"makespan\": {}, \"throughput\": {:.6}, \
         \"p50\": {}, \"p95\": {}, \"p99\": {}, \"stalled\": {}, \"detected_at\": {}, \
         \"last_progress\": {}, \"peak_classes\": {}, \"merges\": {}}}",
        p.protocol,
        p.lambda,
        p.horizon,
        p.messages,
        p.delivered,
        p.completed,
        p.makespan,
        p.throughput,
        p.p50,
        p.p95,
        p.p99,
        p.stalled,
        p.detected_at,
        p.last_progress,
        p.peak_classes,
        p.merges
    )
}

/// Renders the committed snapshot: schema header plus every point of the
/// full and reduced grids, each row carrying its horizon.
pub fn render_json(points: &[SaturationPoint], config: &SaturationConfig) -> String {
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"mac-bench/saturation-map/v1\",");
    let _ = writeln!(json, "  \"seed\": {},", config.seed);
    let _ = writeln!(json, "  \"cap\": {},", config.cap);
    let _ = writeln!(json, "  \"window\": {},", config.window);
    let _ = writeln!(json, "  \"unit\": \"messages_per_slot\",");
    let _ = writeln!(json, "  \"results\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 == points.len() { "" } else { "," };
        let _ = writeln!(json, "{}{comma}", render_row(p));
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    json
}

/// Renders the per-protocol phase tables plus the measured stability
/// boundaries (the `PHASE.md` artefact). Only full-horizon rows enter the
/// tables; the reduced smoke rows exist for the CI gate.
pub fn render_phase_md(points: &[SaturationPoint], config: &SaturationConfig) -> String {
    let mut md = String::new();
    let _ = writeln!(md, "# Saturation / phase map\n");
    let _ = writeln!(
        md,
        "Sustained Poisson arrivals over a {}-slot horizon (λ = 2 ⇒ ~10⁶ cumulative \
         arrivals), dynamic sessions in bounded-class cohort mode (`max_live_cohorts = {}`), \
         livelock watchdog armed (window {}, Report policy), one checkpoint/resume \
         round-trip per run. Throughput is delivered messages per simulated slot; latency \
         percentiles come from the streaming quantile sketch; a *stalled* run was parked at \
         watchdog detection unless it completed within the same 2¹⁶-slot burst. Known-k \
         oracle rows with large k park in their 1/k transmission tail after delivering \
         >99.9% — that is the oracle's law, not livelock. Generated by `cargo run -p \
         mac-bench --release --bin saturation_map`; regenerating appends the next \
         `BENCH_NN.json`.\n",
        config.horizon, config.cap, config.window
    );
    // Only full-horizon rows enter the tables *and* the boundary: the
    // reduced smoke rows are too short for deadlocks to bite (One-fail
    // Adaptive completes λ = 0.05 over 20k slots but parks over 500k).
    let full: Vec<SaturationPoint> = points
        .iter()
        .filter(|p| p.horizon == config.horizon)
        .cloned()
        .collect();
    let mut protocols: Vec<&str> = Vec::new();
    for p in &full {
        if !protocols.contains(&p.protocol.as_str()) {
            protocols.push(&p.protocol);
        }
    }
    for protocol in protocols {
        let _ = writeln!(md, "## {protocol}\n");
        let _ = writeln!(
            md,
            "| λ | messages | delivered | throughput | p50 | p95 | p99 | peak classes | stalled |"
        );
        let _ = writeln!(md, "|---|---|---|---|---|---|---|---|---|");
        for p in full.iter().filter(|p| p.protocol == *protocol) {
            let stalled = if p.stalled {
                format!("yes (slot {})", p.detected_at)
            } else {
                "no".to_string()
            };
            let _ = writeln!(
                md,
                "| {} | {} | {} | {:.4} | {} | {} | {} | {} | {} |",
                p.lambda,
                p.messages,
                p.delivered,
                p.throughput,
                p.p50,
                p.p95,
                p.p99,
                p.peak_classes,
                stalled
            );
        }
        match stability_boundary(&full, protocol) {
            Some(boundary) => {
                let _ = writeln!(
                    md,
                    "\nMeasured stability boundary: **λ\\* = {boundary}** — the largest charted \
                     rate that completed at ≥ 80% of the offered load.\n"
                );
            }
            None => {
                let _ = writeln!(
                    md,
                    "\nMeasured stability boundary: **below λ = {}** — every charted rate \
                     saturated this protocol.\n",
                    config.lambdas.iter().copied().fold(f64::INFINITY, f64::min)
                );
            }
        }
    }
    md
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> SaturationConfig {
        SaturationConfig {
            horizon: 400,
            lambdas: vec![0.05, 2.0],
            seed: 2011,
            cap: 8,
            window: 200,
        }
    }

    #[test]
    fn oracle_point_completes_below_and_survives_above() {
        let config = tiny_grid();
        let stable = run_point(&ProtocolKind::KnownKOracle, 0.05, &config);
        assert!(stable.completed && !stable.stalled);
        assert_eq!(stable.delivered, stable.messages);
        assert!(stable.peak_classes <= config.cap);
        let saturated = run_point(&ProtocolKind::KnownKOracle, 2.0, &config);
        assert!(saturated.delivered > 0);
        assert!(saturated.peak_classes <= config.cap);
        assert!(saturated.merges > 0, "the cap never forced a merge");
    }

    #[test]
    fn phase_table_reports_a_boundary_per_protocol() {
        let config = tiny_grid();
        let points = run_grid(&config);
        let md = render_phase_md(&points, &config);
        assert!(md.contains("Known-k oracle"));
        assert!(md.contains("stability boundary"));
        assert_eq!(
            stability_boundary(&points, "Known-k oracle"),
            Some(0.05),
            "tiny-grid oracle should be stable only at the low rate"
        );
    }
}
