//! Rendering of sweep results: CSV and markdown tables.
//!
//! Two renderers cover the paper's two evaluation artefacts:
//!
//! * [`to_csv`] — one row per (protocol, k) cell with makespan and ratio
//!   statistics; its `mean_makespan` column holds the points of Figure 1
//!   (average slots vs. k, one series per protocol);
//! * [`table1_markdown`] — Table 1 (ratio slots/k per protocol and k,
//!   plus the "Analysis" column) as a markdown table whose shape matches the
//!   paper's.

use crate::runner::ExperimentResults;
use mac_protocols::ProtocolKind;
use std::fmt::Write as _;

/// Renders a sweep as CSV with one row per (protocol, k) cell.
///
/// Columns: `protocol,k,replications,mean_makespan,std_makespan,min_makespan,
/// max_makespan,mean_ratio,ci95_lo,ci95_hi,all_completed`.
pub fn to_csv(results: &ExperimentResults) -> String {
    let mut out = String::from(
        "protocol,k,replications,mean_makespan,std_makespan,min_makespan,max_makespan,mean_ratio,ci95_lo,ci95_hi,all_completed\n",
    );
    for cell in &results.cells {
        writeln!(
            out,
            "{},{},{},{:.3},{:.3},{},{},{:.4},{:.4},{:.4},{}",
            escape_csv(&cell.protocol),
            cell.k,
            cell.replications,
            cell.makespan.mean,
            cell.makespan.std_dev,
            cell.makespan.min,
            cell.makespan.max,
            cell.ratio.mean,
            cell.ratio.ci95.lo,
            cell.ratio.ci95.hi,
            cell.all_completed
        )
        .expect("writing to a String cannot fail");
    }
    out
}

/// Renders Table 1 of the paper: the ratio `steps/k` per protocol (rows) and
/// instance size (columns), with the analytical constant in the final
/// column.
pub fn table1_markdown(results: &ExperimentResults) -> String {
    let ks = results.ks();
    let mut out = String::from("| k |");
    for k in &ks {
        write!(out, " {k} |").expect("writing to a String cannot fail");
    }
    out.push_str(" Analysis |\n|---|");
    for _ in &ks {
        out.push_str("---|");
    }
    out.push_str("---|\n");

    for protocol in results.protocols() {
        write!(out, "| {protocol} |").expect("writing to a String cannot fail");
        let mut kind: Option<ProtocolKind> = None;
        for k in &ks {
            if let Some(cell) = results.cell(&protocol, *k) {
                write!(out, " {:.1} |", cell.ratio.mean).expect("writing to a String cannot fail");
                kind = Some(cell.kind.clone());
            } else {
                out.push_str(" – |");
            }
        }
        let analysis_entry = kind
            .map(|kind| kind.analysis_label())
            .unwrap_or_else(|| "–".to_string());
        writeln!(out, " {analysis_entry} |").expect("writing to a String cannot fail");
    }
    out
}

fn escape_csv(field: &str) -> String {
    if field.contains(',') || field.contains('"') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::RunOptions;
    use crate::runner::Experiment;

    fn tiny_results() -> ExperimentResults {
        Experiment {
            protocols: vec![
                ProtocolKind::OneFailAdaptive { delta: 2.72 },
                ProtocolKind::LoglogIteratedBackoff { r: 2.0 },
            ],
            ks: vec![10, 50],
            replications: 3,
            master_seed: 7,
            options: RunOptions::default(),
            threads: 1,
        }
        .run()
        .unwrap()
    }

    #[test]
    fn csv_has_header_and_one_row_per_cell() {
        let results = tiny_results();
        let csv = to_csv(&results);
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 1 + results.cells.len());
        assert!(lines[0].starts_with("protocol,k,replications"));
        assert!(lines[1].starts_with("One-fail Adaptive,10,3,"));
    }

    #[test]
    fn table1_contains_ratios_and_analysis_column() {
        let results = tiny_results();
        let table = table1_markdown(&results);
        assert!(table.starts_with("| k | 10 | 50 | Analysis |"));
        assert!(table.contains("| One-fail Adaptive |"));
        assert!(table.contains("7.4"), "OFA analysis constant present");
        assert!(table.contains("Θ(loglog k / logloglog k)"));
    }

    #[test]
    fn analysis_labels_match_paper_constants() {
        let label = |kind: ProtocolKind| kind.analysis_label();
        assert_eq!(label(ProtocolKind::OneFailAdaptive { delta: 2.72 }), "7.4");
        assert_eq!(
            label(ProtocolKind::ExpBackonBackoff { delta: 0.366 }),
            "14.9"
        );
        assert_eq!(
            label(ProtocolKind::LogFailsAdaptive {
                xi_delta: 0.1,
                xi_beta: 0.1,
                xi_t: 0.5
            }),
            "7.8"
        );
        assert_eq!(
            label(ProtocolKind::LogFailsAdaptive {
                xi_delta: 0.1,
                xi_beta: 0.1,
                xi_t: 0.1
            }),
            "4.4"
        );
        assert_eq!(label(ProtocolKind::KnownKOracle), "2.72");
    }

    #[test]
    fn csv_escaping_handles_commas_and_quotes() {
        assert_eq!(escape_csv("plain"), "plain");
        assert_eq!(escape_csv("a,b"), "\"a,b\"");
        assert_eq!(escape_csv("say \"hi\""), "\"say \"\"hi\"\"\"");
    }
}
