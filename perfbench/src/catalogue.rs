//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root is rendered from these tables ([`manifest_json`]) and a
//! test keeps the committed file equal to the rendering.

/// Seconds one run measures when the caller gives no `--seconds`.
pub const RUN_SECONDS: u64 = 20;

/// One workload: its name and the one-line reason it exists.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

/// Whether a larger or a smaller value is the better one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric: name, unit, direction and (end-to-end only) the share of the
/// parent's median by which it may worsen before a change is a regression.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "paper-sweep",
        why: "Figure 1 / Table 1 grid via Experiment::run on 2 threads: fair, window and runner do the work; sessions, cohort, checkpoint and store are bypassed",
    },
    WorkloadDef {
        name: "saturated-sessions",
        why: "Session::dynamic under sustained Poisson arrivals (cap 64, watchdog, sketch reads, one resume): cohort kernel and merges do the work; fair, window, runner bypassed",
    },
    WorkloadDef {
        name: "checkpointed-fleet",
        why: "2-shard ShardedSession on ten bursts, checkpoint saved to a CheckpointStore after every short advance: sharded driver, codec and store dominate",
    },
    WorkloadDef {
        name: "exact-reference",
        why: "ExactSimulator on batched One-fail Adaptive and the oracle's Poisson schedule: the per-station engine every conformance gate rests on",
    },
];

use Better::{Higher, Lower};

pub const END_TO_END: [MetricDef; 6] = [
    e2e("wall_s", "s", Lower, 0.25),
    e2e("deliveries_per_s", "1/s", Higher, 0.25),
    e2e("busy_slots_per_s", "1/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
    e2e("success_ratio", "ratio", Higher, 0.05),
];

pub const PER_LAYER: [MetricDef; 36] = [
    layer("fair.ns_per_busy_slot", "ns", Lower),
    layer("fair.busy_slots", "count", Lower),
    layer("fair.self_s", "s", Lower),
    layer("window.ns_per_busy_slot", "ns", Lower),
    layer("window.busy_slots", "count", Lower),
    layer("window.self_s", "s", Lower),
    layer("runner.task_p50_ms", "ms", Lower),
    layer("runner.task_p95_ms", "ms", Lower),
    layer("runner.longest_task_s", "s", Lower),
    layer("runner.parallel_efficiency", "ratio", Higher),
    layer("cohort.ns_per_busy_slot", "ns", Lower),
    layer("cohort.peak_classes", "count", Lower),
    layer("cohort.merges", "count", Lower),
    layer("cohort.merges_per_delivery", "ratio", Lower),
    layer("session.advance_p50_ms", "ms", Lower),
    layer("session.advance_p95_ms", "ms", Lower),
    layer("session.live_stats_ns", "ns", Lower),
    layer("session.checkpoint_s", "s", Lower),
    layer("session.resume_s", "s", Lower),
    layer("sharded.advance_p50_ms", "ms", Lower),
    layer("sharded.advance_p95_ms", "ms", Lower),
    layer("sharded.merge_s", "s", Lower),
    layer("sharded.scaling", "ratio", Higher),
    layer("checkpoint.bytes", "bytes", Lower),
    layer("checkpoint.encode_mb_per_s", "MB/s", Higher),
    layer("checkpoint.verify_mb_per_s", "MB/s", Higher),
    layer("checkpoint.decode_mb_per_s", "MB/s", Higher),
    layer("store.save_p50_ms", "ms", Lower),
    layer("store.save_p95_ms", "ms", Lower),
    layer("store.bytes_written", "bytes", Lower),
    layer("store.load_latest_s", "s", Lower),
    layer("arrivals.ns_per_message", "ns", Lower),
    layer("exact.ns_per_slot", "ns", Lower),
    layer("exact.ns_per_delivery", "ns", Lower),
    layer("exact.self_s", "s", Lower),
    layer("trace.overhead_s", "s", Lower),
];

/// True for a name the result line may carry: it starts with a letter or
/// digit and is at most 64 characters from `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .map(|m| m.unit)
}

/// Renders `BENCHMARK.json` from the tables above.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 == WORKLOADS.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.unwrap_or(0.0)
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 == PER_LAYER.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_outside_the_allowed_alphabet_are_rejected() {
        assert!(valid_name("session.advance_p95_ms"));
        assert!(valid_name("0-9.a_b"));
        assert!(!valid_name(""));
        assert!(!valid_name("_leading_underscore"));
        assert!(!valid_name(".leading_dot"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name("quote\"name"));
        assert!(!valid_name("unicode_µs"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn catalogue_names_are_valid_unique_and_bounded() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "names are used once");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.unit.len() <= 16, "{}", m.name);
        }
        for m in &END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn committed_manifest_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate by running the benchmark without `--workload`"
        );
    }
}
