//! Ablation A1/A2 (extension beyond the paper): sensitivity of the two new
//! protocols to their δ parameter.
//!
//! One-fail Adaptive admits `e < δ ≤ 2.9906` (Theorem 1) and the paper
//! simulates δ = 2.72; Exp Back-on/Back-off admits `0 < δ < 1/e` (Theorem 2)
//! and the paper simulates δ = 0.366. This harness sweeps both ranges and
//! prints measured ratio vs. the analytical factor, at three instance sizes.
//!
//! ```bash
//! cargo run -p mac-bench --release --bin ablation_delta
//! ```

use mac_bench::HarnessOptions;
use mac_protocols::{analysis, ProtocolKind};
use mac_sim::report::to_csv;
use mac_sim::{Experiment, RunOptions};

fn main() {
    let options = HarnessOptions::parse(std::env::args().skip(1));
    let ks = vec![1_000, 10_000, 100_000];

    let ofa_deltas = [2.72, 2.75, 2.80, 2.85, 2.90, 2.95, 2.99];
    let ebb_deltas = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.366];

    let mut protocols = Vec::new();
    for &delta in &ofa_deltas {
        protocols.push(ProtocolKind::OneFailAdaptive { delta });
    }
    for &delta in &ebb_deltas {
        protocols.push(ProtocolKind::ExpBackonBackoff { delta });
    }

    let experiment = Experiment {
        protocols,
        ks: ks.clone(),
        replications: options.reps.min(5),
        master_seed: options.seed,
        options: RunOptions::default(),
        threads: 0,
    };
    let results = experiment.run().expect("all sweep parameters are valid");

    println!("Ablation: One-fail Adaptive delta sweep (analysis factor 2(delta+1))\n");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12}",
        "delta", "k=1e3", "k=1e4", "k=1e5", "analysis"
    );
    for &delta in &ofa_deltas {
        let kind = ProtocolKind::OneFailAdaptive { delta };
        let row: Vec<f64> = ks
            .iter()
            .map(|&k| results.cell_for(&kind, k).expect("cell exists").ratio.mean)
            .collect();
        println!(
            "{delta:>8.2} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
            row[0],
            row[1],
            row[2],
            analysis::ofa_linear_factor(delta).expect("in range")
        );
    }

    println!("\nAblation: Exp Back-on/Back-off delta sweep (analysis factor 4(1+1/delta))\n");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12}",
        "delta", "k=1e3", "k=1e4", "k=1e5", "analysis"
    );
    for &delta in &ebb_deltas {
        let kind = ProtocolKind::ExpBackonBackoff { delta };
        let row: Vec<f64> = ks
            .iter()
            .map(|&k| results.cell_for(&kind, k).expect("cell exists").ratio.mean)
            .collect();
        println!(
            "{delta:>8.3} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
            row[0],
            row[1],
            row[2],
            analysis::ebb_linear_factor(delta).expect("in range")
        );
    }

    println!("\n--- raw per-cell statistics (CSV) ---");
    print!("{}", to_csv(&results));
}
