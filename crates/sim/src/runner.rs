//! Replicated, multi-threaded experiment sweeps.
//!
//! An [`Experiment`] describes the full grid the paper's evaluation runs:
//! a set of protocol configurations × a set of instance sizes × a number of
//! replications (the paper uses 10 runs per point). The runner executes every
//! cell with deterministic per-run seeds derived from a single master seed,
//! distributes the runs over OS threads, and aggregates the makespans into
//! [`ExperimentCell`]s that the reporting module renders as Table 1 and as
//! the per-cell CSV that holds Figure 1's points.

use crate::result::{RunOptions, RunResult};
use crate::simulate_with_options;
use mac_prob::rng::derive_seed;
use mac_prob::stats::{StreamingStats, Summary};
use mac_protocols::{ParameterError, ProtocolKind};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Description of a sweep: protocols × instance sizes × replications,
/// each run on the fast simulator of its protocol family (the fair
/// simulator for fair protocols, the window simulator for window
/// protocols), which is exact in distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Experiment {
    /// Protocol configurations to evaluate.
    pub protocols: Vec<ProtocolKind>,
    /// Instance sizes (number of messages `k`) to evaluate.
    pub ks: Vec<u64>,
    /// Number of independent replications per (protocol, k) cell.
    pub replications: u64,
    /// Master seed from which every run's seed is derived.
    pub master_seed: u64,
    /// Per-run options (slot caps, recording).
    pub options: RunOptions,
    /// Number of worker threads (0 = one per available CPU).
    pub threads: usize,
}

impl Experiment {
    /// The paper's evaluation grid: the five configurations of Figure 1 /
    /// Table 1 with 10 replications, over the given instance sizes.
    pub fn paper(ks: Vec<u64>, master_seed: u64) -> Self {
        Self {
            protocols: ProtocolKind::paper_lineup(),
            ks,
            replications: 10,
            master_seed,
            options: RunOptions::default(),
            threads: 0,
        }
    }

    /// Runs the whole grid and aggregates per-cell statistics.
    ///
    /// # Errors
    /// Returns a [`ParameterError`] if any protocol configuration is invalid
    /// or `replications` is 0 (the error is detected before any simulation
    /// starts).
    pub fn run(&self) -> Result<ExperimentResults, ParameterError> {
        // Validate every configuration up front so a sweep cannot fail hours in.
        for kind in &self.protocols {
            kind.build_node(1)?;
        }
        if self.replications == 0 {
            // A cell of no runs would report a 0 mean and `all_completed`.
            return Err(ParameterError::new(
                "replications",
                0.0,
                "a sweep needs at least one replication per cell",
            ));
        }
        self.options.validate_adversary()?;

        #[derive(Clone, Copy)]
        struct Task {
            protocol_index: usize,
            k_index: usize,
            replication: u64,
        }
        let mut tasks = Vec::new();
        for (pi, _) in self.protocols.iter().enumerate() {
            for (ki, _) in self.ks.iter().enumerate() {
                for rep in 0..self.replications {
                    tasks.push(Task {
                        protocol_index: pi,
                        k_index: ki,
                        replication: rep,
                    });
                }
            }
        }

        let threads = if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        };
        // Lock-free dispatch: workers claim task indices from a shared atomic
        // counter and collect `(index, result)` pairs into a private shard, so
        // the hot path touches no lock. Shards are merged once at the end,
        // indexed by task, which keeps the output bitwise independent of the
        // thread count and of claim interleaving. A failed run raises the
        // atomic failure flag, which every worker checks *before* claiming its
        // next task, so an erroring sweep stops promptly instead of continuing
        // to launch expensive runs.
        let next_task = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        type Shard = Vec<(usize, RunResult)>;

        let (shards, mut failures): (Vec<Shard>, Vec<ParameterError>) =
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(threads.max(1));
                for _ in 0..threads.max(1) {
                    handles.push(scope.spawn(|| -> Result<Shard, ParameterError> {
                        let mut shard: Shard = Vec::new();
                        loop {
                            if failed.load(Ordering::Acquire) {
                                break;
                            }
                            let index = next_task.fetch_add(1, Ordering::Relaxed);
                            if index >= tasks.len() {
                                break;
                            }
                            let task = tasks[index];
                            let kind = &self.protocols[task.protocol_index];
                            let k = self.ks[task.k_index];
                            let seed = derive_seed(
                                self.master_seed,
                                &[
                                    task.protocol_index as u64,
                                    task.k_index as u64,
                                    task.replication,
                                ],
                            );
                            match simulate_with_options(kind, k, seed, &self.options) {
                                Ok(result) => shard.push((index, result)),
                                Err(error) => {
                                    failed.store(true, Ordering::Release);
                                    return Err(error);
                                }
                            }
                        }
                        Ok(shard)
                    }));
                }
                let mut shards = Vec::with_capacity(handles.len());
                let mut failures = Vec::new();
                for handle in handles {
                    match handle.join().expect("worker threads do not panic") {
                        Ok(shard) => shards.push(shard),
                        Err(error) => failures.push(error),
                    }
                }
                (shards, failures)
            });

        if let Some(error) = failures.pop() {
            return Err(error);
        }
        let mut results: Vec<Option<RunResult>> = vec![None; tasks.len()];
        for shard in shards {
            for (index, result) in shard {
                results[index] = Some(result);
            }
        }

        // Aggregate per cell.
        let mut cells = Vec::new();
        for (pi, kind) in self.protocols.iter().enumerate() {
            for (ki, &k) in self.ks.iter().enumerate() {
                let mut makespans = StreamingStats::new();
                let mut ratios = StreamingStats::new();
                let mut raw = Vec::new();
                let mut all_completed = true;
                for (ti, task_result) in results.iter().enumerate() {
                    let task = tasks[ti];
                    if task.protocol_index != pi || task.k_index != ki {
                        continue;
                    }
                    let result = task_result
                        .as_ref()
                        .expect("every task either completed or the sweep failed");
                    makespans.push(result.makespan as f64);
                    ratios.push(result.ratio());
                    raw.push(result.makespan);
                    all_completed &= result.completed;
                }
                cells.push(ExperimentCell {
                    protocol: kind.label(),
                    kind: kind.clone(),
                    k,
                    replications: raw.len() as u64,
                    makespan: makespans.summary(),
                    ratio: ratios.summary(),
                    makespans: raw,
                    all_completed,
                });
            }
        }
        Ok(ExperimentResults {
            cells,
            master_seed: self.master_seed,
            replications: self.replications,
        })
    }
}

/// Aggregated statistics for one (protocol, k) cell of a sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentCell {
    /// Human-readable protocol label.
    pub protocol: String,
    /// The protocol configuration.
    pub kind: ProtocolKind,
    /// Instance size.
    pub k: u64,
    /// Number of replications aggregated.
    pub replications: u64,
    /// Summary of the makespans (slots) over the replications.
    pub makespan: Summary,
    /// Summary of the slots-per-message ratios over the replications.
    pub ratio: Summary,
    /// Raw makespans, one per replication.
    pub makespans: Vec<u64>,
    /// True iff every replication delivered all messages within the slot cap.
    pub all_completed: bool,
}

/// The full result of a sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentResults {
    /// One cell per (protocol, k) pair, in protocol-major order.
    pub cells: Vec<ExperimentCell>,
    /// Master seed the sweep was run with.
    pub master_seed: u64,
    /// Replications per cell.
    pub replications: u64,
}

impl ExperimentResults {
    /// Looks up the cell for a protocol label and instance size.
    ///
    /// When a sweep contains several configurations of the *same* protocol
    /// (e.g. a δ sweep), their labels coincide and this returns the first;
    /// search [`ExperimentResults::cells`] by [`ExperimentCell::kind`] to
    /// tell them apart.
    pub fn cell(&self, protocol: &str, k: u64) -> Option<&ExperimentCell> {
        self.cells
            .iter()
            .find(|c| c.protocol == protocol && c.k == k)
    }

    /// The distinct protocol labels, in sweep order.
    pub fn protocols(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for cell in &self.cells {
            if !seen.contains(&cell.protocol) {
                seen.push(cell.protocol.clone());
            }
        }
        seen
    }

    /// The distinct instance sizes, in sweep order.
    pub fn ks(&self) -> Vec<u64> {
        let mut seen = Vec::new();
        for cell in &self.cells {
            if !seen.contains(&cell.k) {
                seen.push(cell.k);
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_experiment() -> Experiment {
        Experiment {
            protocols: vec![
                ProtocolKind::OneFailAdaptive { delta: 2.72 },
                ProtocolKind::ExpBackonBackoff { delta: 0.366 },
            ],
            ks: vec![10, 100],
            replications: 4,
            master_seed: 2024,
            options: RunOptions::default(),
            threads: 2,
        }
    }

    #[test]
    fn runs_every_cell_with_the_requested_replications() {
        let results = small_experiment().run().unwrap();
        assert_eq!(results.cells.len(), 4);
        for cell in &results.cells {
            assert_eq!(cell.replications, 4);
            assert_eq!(cell.makespans.len(), 4);
            assert!(cell.all_completed);
            assert!(cell.makespan.mean >= cell.k as f64);
            assert!(cell.ratio.mean >= 1.0);
        }
        assert_eq!(results.protocols().len(), 2);
        assert_eq!(results.ks(), vec![10, 100]);
        assert!(results.cell("One-fail Adaptive", 100).is_some());
        assert!(results.cell("One-fail Adaptive", 999).is_none());
    }

    #[test]
    fn sweeps_are_reproducible_from_the_master_seed() {
        let a = small_experiment().run().unwrap();
        let b = small_experiment().run().unwrap();
        assert_eq!(a, b);
        let mut different = small_experiment();
        different.master_seed = 9999;
        let c = different.run().unwrap();
        assert_ne!(
            a.cells[0].makespans, c.cells[0].makespans,
            "a different master seed must give different runs"
        );
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let mut one = small_experiment();
        one.threads = 1;
        let mut many = small_experiment();
        many.threads = 8;
        assert_eq!(one.run().unwrap(), many.run().unwrap());
    }

    #[test]
    fn invalid_protocol_fails_before_running() {
        let mut experiment = small_experiment();
        experiment
            .protocols
            .push(ProtocolKind::OneFailAdaptive { delta: 1.0 });
        assert!(experiment.run().is_err());
    }

    #[test]
    fn zero_replications_fail_before_running() {
        let mut experiment = small_experiment();
        experiment.replications = 0;
        let error = experiment.run().unwrap_err();
        assert_eq!(error.parameter(), "replications");
    }

    #[test]
    fn adversarial_sweeps_run_deterministically_and_hurt_makespan() {
        use mac_adversary::{AdversaryModel, AdversaryScenario};
        let clean = small_experiment().run().unwrap();
        let mut jammed_experiment = small_experiment();
        jammed_experiment.options =
            RunOptions::adversarial(AdversaryScenario::jamming(AdversaryModel::PeriodicJam {
                period: 3,
                burst: 1,
                phase: 0,
            }));
        let jammed = jammed_experiment.run().unwrap();
        assert_eq!(jammed, jammed_experiment.run().unwrap(), "deterministic");
        for (c, j) in clean.cells.iter().zip(&jammed.cells) {
            assert!(
                j.all_completed,
                "mild jamming must not stall {}",
                j.protocol
            );
            assert!(
                j.makespan.mean >= c.makespan.mean,
                "{}: jammed mean {} < clean mean {}",
                j.protocol,
                j.makespan.mean,
                c.makespan.mean
            );
        }
    }

    #[test]
    fn paper_grid_has_five_protocols_and_ten_replications() {
        let experiment = Experiment::paper(vec![10, 100], 1);
        assert_eq!(experiment.protocols.len(), 5);
        assert_eq!(experiment.replications, 10);
    }
}
