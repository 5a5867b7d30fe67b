//! Ablation A3 (extension beyond the paper): growth-factor sweep for the
//! monotone back-off baselines, contrasted with the paper's non-monotone Exp
//! Back-on/Back-off and the known-k oracle.
//!
//! The paper argues (following Bender et al.) that *monotone* strategies pay
//! a super-constant factor for batched arrivals; this harness quantifies that
//! gap for several growth factors `r`.
//!
//! ```bash
//! cargo run -p mac-bench --release --bin ablation_backoff
//! ```

use mac_bench::HarnessOptions;
use mac_protocols::ProtocolKind;
use mac_sim::report::to_csv;
use mac_sim::{Experiment, RunOptions};

fn main() {
    let options = HarnessOptions::parse(std::env::args().skip(1));
    let ks = vec![1_000, 10_000, 100_000];
    let rs = [1.5, 2.0, 3.0, 4.0];

    let mut protocols = Vec::new();
    for &r in &rs {
        protocols.push(ProtocolKind::LoglogIteratedBackoff { r });
        protocols.push(ProtocolKind::RExponentialBackoff { r });
    }
    protocols.push(ProtocolKind::ExpBackonBackoff { delta: 0.366 });
    protocols.push(ProtocolKind::KnownKOracle);

    let experiment = Experiment {
        protocols: protocols.clone(),
        ks: ks.clone(),
        replications: options.reps.min(5),
        master_seed: options.seed,
        options: RunOptions::default(),
        threads: 0,
    };
    let results = experiment.run().expect("all sweep parameters are valid");

    println!("Ablation: monotone back-off growth factor r vs the paper's protocols");
    println!(
        "(ratio slots/k, mean over {} replications)\n",
        results.replications
    );
    println!(
        "{:<34} {:>10} {:>10} {:>10}",
        "protocol", "k=1e3", "k=1e4", "k=1e5"
    );
    for kind in &protocols {
        let label = match kind {
            ProtocolKind::LoglogIteratedBackoff { r } => {
                format!("Loglog-iterated Back-off (r={r})")
            }
            _ => kind.label(),
        };
        let row: Vec<f64> = ks
            .iter()
            .map(|&k| results.cell_for(kind, k).expect("cell exists").ratio.mean)
            .collect();
        println!(
            "{label:<34} {:>10.2} {:>10.2} {:>10.2}",
            row[0], row[1], row[2]
        );
    }

    println!("\n--- raw per-cell statistics (CSV) ---");
    print!("{}", to_csv(&results));
}
