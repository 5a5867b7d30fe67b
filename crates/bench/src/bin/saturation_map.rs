//! Saturation map: throughput/latency phase diagrams of the dynamic
//! protocols under sustained Poisson arrivals, plus the measured stability
//! boundary per protocol. See `mac_bench::saturation` for the harness.
//!
//! ```bash
//! # Regenerate the committed artefacts from the repository root (writes
//! # the next free BENCH_NN.json plus PHASE.md; ~10⁶ cumulative arrivals
//! # at the saturated corner):
//! cargo run -p mac-bench --release --bin saturation_map
//! # CI gate: re-run the full map and the reduced smoke grid, render both
//! # artefacts and compare them byte for byte with the committed snapshot
//! # and with PHASE.md in the current directory (runs are deterministic
//! # per seed; writes nothing):
//! cargo run -p mac-bench --release --bin saturation_map -- --check BENCH_06.json
//! ```

use mac_bench::saturation::{
    full_grid, reduced_grid, render_json, render_phase_md, run_grid, stability_boundary,
};
use mac_bench::{check_committed, next_snapshot_path};

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

    let json = render_json(&points, &config);
    let phase = render_phase_md(&points, &config);
    if let Some(path) = check_path {
        let mismatches: Vec<String> = [(path.as_str(), &json), ("PHASE.md", &phase)]
            .into_iter()
            .filter_map(|(path, text)| check_committed(path, text).err())
            .collect();
        for mismatch in &mismatches {
            eprintln!("MISMATCH: {mismatch}");
        }
        if !mismatches.is_empty() {
            std::process::exit(1);
        }
        eprintln!(
            "{path} and PHASE.md match the {} regenerated points byte for byte",
            points.len()
        );
        return;
    }

    let path = next_snapshot_path();
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");
    std::fs::write("PHASE.md", &phase).unwrap_or_else(|e| panic!("write PHASE.md: {e}"));
    eprintln!("wrote PHASE.md");
}
