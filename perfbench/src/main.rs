//! End-to-end benchmark of the contention-resolution harness.
//!
//! ```bash
//! # One workload, as a benchmark driver calls it (the last stdout line is
//! # the JSON result; the per-layer table goes to stderr):
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-sweep --seed 1 --seconds 20 --trace 0
//! # Every workload, each in a process of its own (so peak RSS is per
//! # workload), then BENCHMARK.json rewritten from the catalogue:
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --seed 1
//! ```
//!
//! Run it from the repository root. Workloads are closed loops: the next
//! run starts only when the previous one returned. End-to-end metrics come
//! from untraced runs (`--trace 0`); `--trace 1` alternates traced and
//! untraced runs, reports every per-layer metric and writes the spans to
//! `.bench_build/perfbench-traces/`. See `perfbench/REASONING.md` for why
//! each workload exists and which numbers each layer should move.

mod catalogue;
mod exact;
mod fleet;
mod harness;
mod paper_sweep;
mod saturated;
mod trace;

use harness::{Config, Outcome};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use trace::{median, SpanSet};

/// Checkpoint codec throughput and sizes from the spans that encode
/// (state → frame) and decode (bytes → state) checkpoints, and from
/// `Checkpoint::verify`, which both workloads call on every checkpoint.
fn codec_metrics(
    spans: &SpanSet,
    metrics: &mut BTreeMap<&'static str, f64>,
    encode: &[&str],
    decode: &[&str],
) {
    let mb_per_s = |names: &[&str]| {
        let (ns, bytes) = spans.totals(names);
        if ns == 0 {
            0.0
        } else {
            bytes as f64 * 1e3 / ns as f64
        }
    };
    metrics.insert(
        "checkpoint.bytes",
        median(&spans.counts(&["checkpoint.verify"])),
    );
    metrics.insert("checkpoint.encode_mb_per_s", mb_per_s(encode));
    metrics.insert(
        "checkpoint.verify_mb_per_s",
        mb_per_s(&["checkpoint.verify"]),
    );
    metrics.insert("checkpoint.decode_mb_per_s", mb_per_s(decode));
}

/// Arrival-model cost per message generated.
fn arrival_metrics(spans: &SpanSet, metrics: &mut BTreeMap<&'static str, f64>) {
    let (ns, messages) = spans.totals(&["arrivals.summarise", "arrivals.sample"]);
    metrics.insert(
        "arrivals.ns_per_message",
        ns as f64 / messages.max(1) as f64,
    );
}

const USAGE: &str =
    "usage: perfbench [--workload <name>] [--seed <n>] [--seconds <n>] [--trace <0|1>]";

struct Args {
    workload: Option<String>,
    config: Config,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        config: Config {
            seed: 1,
            seconds: catalogue::RUN_SECONDS,
            trace: false,
        },
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.config.seed = number()?,
            "--seconds" => parsed.config.seconds = number()?.max(1),
            "--trace" => {
                parsed.config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

fn run_workload(name: &str, config: &Config) -> Option<Outcome> {
    Some(match name {
        "paper-sweep" => paper_sweep::run(config),
        "saturated-sessions" => saturated::run(config),
        "checkpointed-fleet" => fleet::run(config),
        "exact-reference" => exact::run(config),
        _ => return None,
    })
}

/// Runs every workload in a child process of its own and prints each
/// result line under the workload's name.
fn run_all(config: &Config) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    for w in &catalogue::WORKLOADS {
        let output = std::process::Command::new(&exe)
            .args(["--workload", w.name, "--seed", &config.seed.to_string()])
            .args(["--seconds", &config.seconds.to_string()])
            .args(["--trace", if config.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or_default();
        if !output.status.success() || line.is_empty() {
            return Err(format!("{} exited with {}", w.name, output.status));
        }
        println!("{}: {line}", w.name);
    }
    std::fs::write("BENCHMARK.json", catalogue::manifest_json())
        .map_err(|e| format!("write BENCHMARK.json: {e}"))?;
    eprintln!("wrote BENCHMARK.json");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!("machine: {}", harness::machine_facts());
    let Some(name) = args.workload else {
        return match run_all(&args.config) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    };
    let config = args.config;
    let Some(outcome) = run_workload(&name, &config) else {
        eprintln!("unknown workload {name:?}\n{USAGE}");
        return ExitCode::from(2);
    };
    if config.trace {
        let path = Path::new(".bench_build")
            .join("perfbench-traces")
            .join(format!("{name}.jsonl"));
        match trace::write_jsonl(&outcome.spans, &path) {
            Ok(()) => eprintln!("wrote {} spans to {}", outcome.spans.len(), path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    for (metric, value) in &outcome.metrics {
        eprintln!("{name} {metric} = {value}");
    }
    match harness::result_line(&outcome, config.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse(list.iter().map(ToString::to_string))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let parsed = args(&[
            "--workload",
            "exact-reference",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid command line");
        assert_eq!(parsed.workload.as_deref(), Some("exact-reference"));
        assert_eq!(
            (
                parsed.config.seed,
                parsed.config.seconds,
                parsed.config.trace
            ),
            (7, 3, true)
        );
    }

    #[test]
    fn rejects_malformed_command_lines() {
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seed", "-1"]).is_err());
        assert!(args(&["--seconds"]).is_err());
        assert!(args(&["--bogus", "1"]).is_err());
    }
}
