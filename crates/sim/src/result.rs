//! Run options and per-run results.

use mac_adversary::AdversaryScenario;
use mac_protocols::ParameterError;
use serde::{Deserialize, Serialize};

/// Options controlling a single simulated run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunOptions {
    /// Hard cap on the number of slots simulated. A run that has not
    /// delivered every message within `max_slots(k)` slots is reported with
    /// [`RunResult::completed`] `= false` (this protects sweeps against
    /// pathological parameter choices; the paper's protocols never get close
    /// to the default cap).
    ///
    /// The cap is `max(min_slot_cap, slot_cap_per_message · k)`.
    pub slot_cap_per_message: u64,
    /// Lower bound of the slot cap, independent of `k`.
    pub min_slot_cap: u64,
    /// If `true`, the slot index of every delivery is recorded in
    /// [`RunResult::delivery_slots`] (costs O(k) memory; off by default).
    pub record_deliveries: bool,
    /// The adversarial scenario (jamming and missed deliveries) the run is
    /// subjected to. Defaults to the ideal channel, under which every
    /// simulator behaves bit-identically — results *and* RNG streams — to
    /// a run with no adversary support at all.
    #[serde(default)]
    pub adversary: AdversaryScenario,
    /// Bounded-class cohort mode: cap on the number of live cohort classes
    /// (`0` = unbounded, the default). When an arrival burst would push the
    /// live class count past the cap, the cohort engine force-merges the
    /// nearest same-phase classes at the smallest tolerance that restores
    /// the cap (classes in distinct schedule phases are never merged, so
    /// the effective floor is the number of distinct live phases). See
    /// `crates/sim/DESIGN.md` §12 for the contract and its drift ledger.
    #[serde(default)]
    pub max_live_cohorts: u64,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            slot_cap_per_message: 1_000,
            min_slot_cap: 1_000_000,
            record_deliveries: false,
            adversary: AdversaryScenario::clean(),
            max_live_cohorts: 0,
        }
    }
}

impl RunOptions {
    /// Returns options that record per-delivery slots.
    pub fn recording_deliveries() -> Self {
        Self {
            record_deliveries: true,
            ..Self::default()
        }
    }

    /// Returns default options running under the given adversarial
    /// scenario.
    pub fn adversarial(scenario: AdversaryScenario) -> Self {
        Self {
            adversary: scenario,
            ..Self::default()
        }
    }

    /// Validates the adversarial scenario, mapping a bad configuration onto
    /// the same error type every other invalid parameter uses. Every
    /// simulator calls this before instantiating the adversary, so
    /// configuration errors surface as `Err`, not as a panic mid-run.
    ///
    /// # Errors
    /// Returns a [`ParameterError`] describing the first invalid component.
    pub fn validate_adversary(&self) -> Result<(), ParameterError> {
        self.adversary
            .validate()
            .map_err(|message| ParameterError::new("adversary", f64::NAN, message))
    }

    /// The effective slot cap for an instance with `k` messages.
    pub fn max_slots(&self, k: u64) -> u64 {
        self.min_slot_cap
            .max(self.slot_cap_per_message.saturating_mul(k))
    }
}

/// The outcome of one simulated run of static k-selection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Label of the protocol configuration that was run.
    pub protocol: String,
    /// Number of messages in the batch.
    pub k: u64,
    /// Seed the run was performed with.
    pub seed: u64,
    /// Number of slots until the last message was delivered (or the slot cap
    /// if the run did not complete).
    pub makespan: u64,
    /// Whether every message was delivered within the slot cap.
    pub completed: bool,
    /// Number of messages delivered (equals `k` iff `completed`).
    pub delivered: u64,
    /// Number of slots with a collision (including slots in which a lone
    /// transmission was destroyed by jamming).
    pub collisions: u64,
    /// Number of slots with no transmission.
    pub silent_slots: u64,
    /// Number of would-be deliveries (slots with exactly one transmitter)
    /// destroyed by the adversary's jamming. Zero on the ideal channel.
    #[serde(default)]
    pub jammed_deliveries: u64,
    /// Number of messages whose arrival slot was never reached before the
    /// run's slot cap: their stations were **never activated**, so counting
    /// them as plain non-deliveries would misread a capped dynamic run as a
    /// protocol failure. Always zero for completed runs and batched window
    /// runs; a batched fair run with a zero slot cap never reaches slot 0,
    /// so it reports all `k` messages never activated.
    /// `delivered + never_activated ≤ k`, with the gap being stations that
    /// were activated but still undelivered at the cap.
    #[serde(default)]
    pub never_activated: u64,
    /// Slot index (0-based) of every delivery, in delivery order; only
    /// populated when [`RunOptions::record_deliveries`] is set.
    pub delivery_slots: Option<Vec<u64>>,
}

impl RunResult {
    /// The slots-per-message ratio `makespan / k` reported in Table 1 of the
    /// paper. Returns `NaN` for an empty instance.
    pub fn ratio(&self) -> f64 {
        if self.k == 0 {
            f64::NAN
        } else {
            self.makespan as f64 / self.k as f64
        }
    }

    /// Fraction of elapsed slots that delivered a message.
    pub fn utilisation(&self) -> f64 {
        if self.makespan == 0 {
            0.0
        } else {
            self.delivered as f64 / self.makespan as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cap_scales_with_k_but_has_a_floor() {
        let opts = RunOptions::default();
        assert_eq!(opts.max_slots(10), 1_000_000);
        assert_eq!(opts.max_slots(10_000_000), 10_000_000_000);
    }

    #[test]
    fn recording_deliveries_flag() {
        assert!(!RunOptions::default().record_deliveries);
        assert!(RunOptions::recording_deliveries().record_deliveries);
    }

    #[test]
    fn ratio_and_utilisation() {
        let r = RunResult {
            protocol: "test".into(),
            k: 100,
            seed: 0,
            makespan: 740,
            completed: true,
            delivered: 100,
            collisions: 200,
            silent_slots: 440,
            jammed_deliveries: 0,
            never_activated: 0,
            delivery_slots: None,
        };
        assert!((r.ratio() - 7.4).abs() < 1e-12);
        assert!((r.utilisation() - 100.0 / 740.0).abs() < 1e-12);
        let empty = RunResult {
            k: 0,
            makespan: 0,
            ..r
        };
        assert!(empty.ratio().is_nan());
        assert_eq!(empty.utilisation(), 0.0);
    }
}
