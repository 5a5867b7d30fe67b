//! Saturation map: throughput/latency phase diagrams of the dynamic
//! protocols under sustained Poisson arrivals, plus the measured stability
//! boundary per protocol. See `mac_bench::saturation` for the harness.
//!
//! ```bash
//! # Regenerate the committed artefacts from the repository root (writes
//! # the next free BENCH_NN.json plus PHASE.md; ~10⁶ cumulative arrivals
//! # at the saturated corner):
//! cargo run -p mac-bench --release --bin saturation_map
//! # CI gate: re-run the full map and the reduced smoke grid and compare
//! # every row *exactly* against the committed snapshot (runs are
//! # deterministic per seed; writes nothing):
//! cargo run -p mac-bench --release --bin saturation_map -- --check BENCH_06.json
//! ```

use mac_bench::saturation::{
    check_against, full_grid, parse_committed, reduced_grid, render_json, render_phase_md,
    run_grid, stability_boundary,
};

fn main() {
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => {
                check_path = Some(args.next().expect("--check requires a snapshot path"));
            }
            other => panic!("unknown flag {other} (supported: --check <BENCH_NN.json>)"),
        }
    }

    let config = full_grid();
    eprintln!(
        "saturation map: λ = {:?} over a {}-slot horizon (cap {}, window {})",
        config.lambdas, config.horizon, config.cap, config.window
    );
    let mut points = run_grid(&config);
    for kind in mac_bench::saturation::lineup() {
        let label = kind.label();
        match stability_boundary(&points, &label) {
            Some(boundary) => eprintln!("{label}: stability boundary λ* = {boundary}"),
            None => eprintln!("{label}: saturated at every charted rate"),
        }
    }
    // The reduced smoke rows ride along in the same snapshot so the CI
    // gate has exact expectations to compare against.
    points.extend(run_grid(&reduced_grid()));

    if let Some(path) = check_path {
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read committed snapshot {path}: {e}"));
        let mismatches = check_against(&points, &parse_committed(&committed));
        if mismatches.is_empty() {
            eprintln!(
                "all {} points match the committed rows of {path}",
                points.len()
            );
            return;
        }
        for m in &mismatches {
            eprintln!("MISMATCH: {m}");
        }
        std::process::exit(1);
    }

    let json = render_json(&points, &config);
    let path = (1..=99)
        .map(|n| format!("BENCH_{n:02}.json"))
        .find(|p| !std::path::Path::new(p).exists())
        .expect("fewer than 99 snapshots");
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");

    let phase = render_phase_md(&points, &config);
    std::fs::write("PHASE.md", &phase).unwrap_or_else(|e| panic!("write PHASE.md: {e}"));
    eprintln!("wrote PHASE.md");
}
