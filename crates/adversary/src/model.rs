//! Adversary configurations: jamming models and the missed-delivery fault.
//!
//! A configuration is pure data — comparable, and written into checkpoints
//! as words ([`AdversaryModel::encode`]) — and is turned into a runtime
//! [`crate::AdversaryState`] by [`AdversaryScenario::state`] with a
//! dedicated RNG stream, so that an adversary never perturbs the protocol
//! randomness of a seeded run.

use mac_prob::wire::{Decoder, Encoder, WireError};
use serde::{Deserialize, Serialize};

/// What a budgeted reactive jammer reacts to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JamTrigger {
    /// Jam slots in which exactly one station transmits (would-be
    /// deliveries). This is the strongest per-unit-budget attack: every jam
    /// destroys a delivery.
    NearSuccess,
    /// Jam slots in which two or more stations transmit. Such slots are
    /// already collisions, so this trigger wastes the budget — included to
    /// demonstrate experimentally that *what* a reactive jammer targets
    /// matters as much as how much energy it has.
    Contended,
}

impl JamTrigger {
    fn as_str(self) -> &'static str {
        match self {
            JamTrigger::NearSuccess => "near-success",
            JamTrigger::Contended => "contended",
        }
    }
}

/// A model of channel jamming.
///
/// Jamming operates on the *channel truth* of a slot: a jammed slot in which
/// at least one station transmits becomes a collision (the jam signal
/// garbles the transmission), so a jammed would-be delivery
/// is destroyed and the transmitting station stays active. Jamming an empty
/// slot has no observable effect in this model — the jam signal alone
/// carries no message and is indistinguishable from background noise — so
/// adversaries are only ever consulted about busy slots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum AdversaryModel {
    /// No jamming: the ideal channel of the paper.
    #[default]
    None,
    /// Each slot is independently corrupted into a collision with
    /// probability `p` (stochastic noise, cf. the noisy-channel models of
    /// Bender et al., "Contention Resolution Without Collision Detection").
    StochasticNoise {
        /// Per-slot corruption probability, in `[0, 1]`.
        p: f64,
    },
    /// An oblivious periodic jammer: slot `t` is jammed iff
    /// `(t + phase) % period < burst`.
    PeriodicJam {
        /// Length of the repeating pattern (≥ 1).
        period: u64,
        /// Number of jammed slots at the start of each period (≤ `period`).
        burst: u64,
        /// Offset of the pattern against the slot clock.
        phase: u64,
    },
    /// An oblivious jammer following an explicit schedule of
    /// `(start_slot, length)` intervals. Intervals may be given unsorted and
    /// overlapping; they are normalised (sorted and merged) before use.
    ScheduledJam {
        /// The jam intervals as `(start_slot, length)` pairs.
        bursts: Vec<(u64, u64)>,
    },
    /// A reactive jammer with a finite energy budget: it jams every slot
    /// matching `trigger` until `budget` jams have been spent (cf. the
    /// resource-bounded adversaries of the jamming literature).
    BudgetedReactiveJam {
        /// Total number of slots the adversary can jam.
        budget: u64,
        /// Which slots the adversary reacts to.
        trigger: JamTrigger,
    },
}

impl AdversaryModel {
    /// True for the ideal (non-jamming) channel.
    pub fn is_none(&self) -> bool {
        matches!(self, AdversaryModel::None)
    }

    /// Validates the model parameters.
    ///
    /// # Errors
    /// Returns a human-readable description of the first invalid parameter.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            AdversaryModel::None => Ok(()),
            AdversaryModel::StochasticNoise { p } => {
                if p.is_finite() && (0.0..=1.0).contains(p) {
                    Ok(())
                } else {
                    Err(format!("noise probability must be in [0,1], got {p}"))
                }
            }
            AdversaryModel::PeriodicJam { period, burst, .. } => {
                if *period == 0 {
                    Err("jam period must be at least 1".to_string())
                } else if burst > period {
                    Err(format!("jam burst {burst} exceeds period {period}"))
                } else {
                    Ok(())
                }
            }
            AdversaryModel::ScheduledJam { .. } | AdversaryModel::BudgetedReactiveJam { .. } => {
                Ok(())
            }
        }
    }

    /// Returns the model in canonical form: scheduled jam intervals sorted
    /// by start slot, with empty intervals dropped and overlapping or
    /// adjacent intervals merged. All other models are already canonical.
    pub fn normalised(&self) -> AdversaryModel {
        match self {
            AdversaryModel::ScheduledJam { bursts } => AdversaryModel::ScheduledJam {
                bursts: normalise_intervals(bursts),
            },
            other => other.clone(),
        }
    }

    /// A short human-readable label for tables and reports.
    pub fn label(&self) -> String {
        match self {
            AdversaryModel::None => "clean channel".to_string(),
            AdversaryModel::StochasticNoise { p } => format!("noise p={p}"),
            AdversaryModel::PeriodicJam { period, burst, .. } => {
                format!("periodic {burst}/{period}")
            }
            AdversaryModel::ScheduledJam { bursts } => {
                format!("scheduled ({} bursts)", normalise_intervals(bursts).len())
            }
            AdversaryModel::BudgetedReactiveJam { budget, trigger } => {
                format!("reactive {} b={budget}", trigger.as_str())
            }
        }
    }

    /// Writes the model into a checkpoint: its wire tag, then its
    /// parameters. The tags never change.
    pub fn encode(&self, out: &mut Encoder) {
        match self {
            AdversaryModel::None => out.put_u32(0),
            AdversaryModel::StochasticNoise { p } => {
                out.put_u32(1);
                out.put_f64(*p);
            }
            AdversaryModel::PeriodicJam {
                period,
                burst,
                phase,
            } => {
                out.put_u32(2);
                out.put_u64(*period);
                out.put_u64(*burst);
                out.put_u64(*phase);
            }
            AdversaryModel::ScheduledJam { bursts } => {
                out.put_u32(3);
                out.put_usize(bursts.len());
                for &(start, len) in bursts {
                    out.put_u64(start);
                    out.put_u64(len);
                }
            }
            AdversaryModel::BudgetedReactiveJam { budget, trigger } => {
                out.put_u32(4);
                out.put_u64(*budget);
                out.put_u32(match trigger {
                    JamTrigger::NearSuccess => 0,
                    JamTrigger::Contended => 1,
                });
            }
        }
    }

    /// Reads a model written by [`AdversaryModel::encode`].
    ///
    /// # Errors
    /// Returns a [`WireError`] on truncated input, an unknown tag, or a
    /// model that fails [`AdversaryModel::validate`].
    pub fn decode(input: &mut Decoder<'_>) -> Result<Self, WireError> {
        let model = match input.take_u32()? {
            0 => AdversaryModel::None,
            1 => AdversaryModel::StochasticNoise {
                p: input.take_f64()?,
            },
            2 => AdversaryModel::PeriodicJam {
                period: input.take_u64()?,
                burst: input.take_u64()?,
                phase: input.take_u64()?,
            },
            3 => {
                let n = input.take_usize()?;
                let mut bursts = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    bursts.push((input.take_u64()?, input.take_u64()?));
                }
                AdversaryModel::ScheduledJam { bursts }
            }
            4 => AdversaryModel::BudgetedReactiveJam {
                budget: input.take_u64()?,
                trigger: match input.take_u32()? {
                    0 => JamTrigger::NearSuccess,
                    1 => JamTrigger::Contended,
                    _ => return Err(WireError::Malformed("unknown jam trigger tag")),
                },
            },
            _ => return Err(WireError::Malformed("unknown jamming model tag")),
        };
        model
            .validate()
            .map_err(|_| WireError::Malformed("invalid jamming model"))?;
        Ok(model)
    }
}

/// Sorts intervals by start, drops empty ones and merges overlaps.
fn normalise_intervals(bursts: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut sorted: Vec<(u64, u64)> = bursts.iter().copied().filter(|&(_, len)| len > 0).collect();
    sorted.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(sorted.len());
    for (start, len) in sorted {
        match merged.last_mut() {
            Some((last_start, last_len)) if start <= last_start.saturating_add(*last_len) => {
                // Saturating ends: an interval reaching past u64::MAX jams
                // every slot from its start onwards.
                let end = start
                    .saturating_add(len)
                    .max(last_start.saturating_add(*last_len));
                *last_len = end - *last_start;
            }
            _ => merged.push((start, len)),
        }
    }
    merged
}

/// A complete adversarial scenario: a jamming model plus a feedback fault.
///
/// This is the unit of configuration the simulators accept (via
/// `RunOptions` in `mac-sim`); the default scenario is the paper's ideal
/// channel, under which every simulator is bit-identical to a run with no
/// adversary support at all.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct AdversaryScenario {
    /// The jamming model.
    pub jamming: AdversaryModel,
    /// Probability that a delivered message reaches everyone except its
    /// (acknowledged) sender garbled, so the listeners hear no delivery.
    ///
    /// The fault is channel-level: every listener loses the same broadcast,
    /// which keeps the common-state invariant of fair protocols — and with
    /// it the O(1)-per-slot fair simulator — intact. It is the only feedback
    /// fault, because a delivery is the only thing a station hears without
    /// collision detection.
    pub miss_delivery: f64,
}

impl AdversaryScenario {
    /// The ideal channel: no jamming, reliable feedback.
    pub fn clean() -> Self {
        Self::default()
    }

    /// A jamming-only scenario with reliable feedback.
    pub fn jamming(model: AdversaryModel) -> Self {
        Self {
            jamming: model,
            miss_delivery: 0.0,
        }
    }

    /// A scenario on an otherwise ideal channel whose listeners miss each
    /// delivery with probability `miss_delivery`.
    pub fn faulty_feedback(miss_delivery: f64) -> Self {
        Self {
            jamming: AdversaryModel::None,
            miss_delivery,
        }
    }

    /// Validates both components.
    ///
    /// # Errors
    /// Returns a human-readable description of the first invalid parameter.
    pub fn validate(&self) -> Result<(), String> {
        self.jamming.validate()?;
        let p = self.miss_delivery;
        if p.is_finite() && (0.0..=1.0).contains(&p) {
            Ok(())
        } else {
            Err(format!("miss_delivery must be in [0,1], got {p}"))
        }
    }

    /// Instantiates the runtime adversary with its own RNG stream.
    ///
    /// `seed` must be derived from the run seed on a dedicated path (the
    /// simulators use `derive_seed(run_seed, &[ADVERSARY_STREAM])`) so the
    /// adversary's randomness never perturbs the protocol stream.
    ///
    /// # Panics
    /// Panics if the scenario fails [`AdversaryScenario::validate`].
    pub fn state(&self, seed: u64) -> crate::AdversaryState {
        crate::AdversaryState::new(self.clone(), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_clean() {
        assert_eq!(AdversaryScenario::default(), AdversaryScenario::clean());
        assert!(AdversaryModel::default().is_none());
        assert_ne!(
            AdversaryScenario::faulty_feedback(0.1),
            AdversaryScenario::clean()
        );
    }

    #[test]
    fn validation_catches_bad_parameters() {
        assert!(AdversaryModel::StochasticNoise { p: 1.5 }
            .validate()
            .is_err());
        assert!(AdversaryModel::StochasticNoise { p: f64::NAN }
            .validate()
            .is_err());
        assert!(AdversaryModel::PeriodicJam {
            period: 0,
            burst: 0,
            phase: 0
        }
        .validate()
        .is_err());
        assert!(AdversaryModel::PeriodicJam {
            period: 3,
            burst: 4,
            phase: 0
        }
        .validate()
        .is_err());
        assert!(AdversaryScenario::faulty_feedback(-0.1).validate().is_err());
        assert!(AdversaryScenario::faulty_feedback(f64::NAN)
            .validate()
            .is_err());
        assert!(AdversaryModel::StochasticNoise { p: 0.5 }
            .validate()
            .is_ok());
    }

    #[test]
    fn normalisation_deduplicates_identical_intervals() {
        // The search layer emits unordered, possibly duplicated candidates;
        // the canonical form must collapse them so the budget they spell out
        // equals the number of slots actually jammed.
        let model = AdversaryModel::ScheduledJam {
            bursts: vec![(4, 1), (0, 1), (4, 1), (2, 1)],
        };
        assert_eq!(
            model.normalised(),
            AdversaryModel::ScheduledJam {
                bursts: vec![(0, 1), (2, 1), (4, 1)],
            }
        );
    }

    #[test]
    fn scheduled_intervals_are_normalised() {
        let model = AdversaryModel::ScheduledJam {
            bursts: vec![(10, 5), (0, 3), (12, 4), (3, 0), (20, 1)],
        };
        assert_eq!(
            model.normalised(),
            AdversaryModel::ScheduledJam {
                bursts: vec![(0, 3), (10, 6), (20, 1)],
            }
        );
    }

    #[test]
    fn normalisation_saturates_instead_of_overflowing() {
        let model = AdversaryModel::ScheduledJam {
            bursts: vec![(u64::MAX - 1, 5), (u64::MAX - 1, 2)],
        };
        assert_eq!(
            model.normalised(),
            AdversaryModel::ScheduledJam {
                bursts: vec![(u64::MAX - 1, 1)],
            }
        );
    }

    #[test]
    fn adjacent_intervals_merge() {
        let model = AdversaryModel::ScheduledJam {
            bursts: vec![(0, 5), (5, 5)],
        };
        assert_eq!(
            model.normalised(),
            AdversaryModel::ScheduledJam {
                bursts: vec![(0, 10)],
            }
        );
    }

    /// Decodes `words` as one model and nothing else.
    fn decode_all(words: &[u64]) -> Result<AdversaryModel, WireError> {
        let mut input = Decoder::new(words);
        let model = AdversaryModel::decode(&mut input)?;
        input.finish()?;
        Ok(model)
    }

    #[test]
    fn model_words_round_trip() {
        let models = [
            AdversaryModel::None,
            AdversaryModel::StochasticNoise { p: 0.125 },
            AdversaryModel::PeriodicJam {
                period: 7,
                burst: 2,
                phase: 3,
            },
            AdversaryModel::ScheduledJam {
                bursts: vec![(0, 10), (100, 5)],
            },
            AdversaryModel::ScheduledJam { bursts: vec![] },
            AdversaryModel::BudgetedReactiveJam {
                budget: 42,
                trigger: JamTrigger::NearSuccess,
            },
            AdversaryModel::BudgetedReactiveJam {
                budget: 0,
                trigger: JamTrigger::Contended,
            },
        ];
        for model in models {
            let mut out = Encoder::new();
            model.encode(&mut out);
            assert_eq!(decode_all(&out.finish()), Ok(model.clone()), "{model:?}");
        }
    }

    #[test]
    fn malformed_configs_are_rejected() {
        // Each row: a malformed model in `kind:parameters` shorthand and its
        // words — an unknown tag, an invalid or non-finite parameter, a
        // missing or surplus word, an unknown trigger.
        let nan = f64::NAN.to_bits();
        for (config, words) in [
            ("bogus", vec![9]),
            ("noise:abc", vec![1, nan]),
            ("noise:1.5", vec![1, 1.5f64.to_bits()]),
            ("periodic:0:0:0", vec![2, 0, 0, 0]),
            ("periodic:3", vec![2, 3]),
            ("periodic:3:1:0:9", vec![2, 3, 1, 0, 9]),
            ("scheduled:5", vec![3, 1, 5]),
            ("scheduled:a+b", vec![3, 2, 0, 1]),
            ("reactive:10", vec![4, 10]),
            ("reactive:x:contended", vec![4]),
            ("reactive:10:sometimes", vec![4, 10, 2]),
        ] {
            assert!(decode_all(&words).is_err(), "accepted `{config}`");
        }
    }

    #[test]
    fn labels_are_informative() {
        assert_eq!(AdversaryModel::None.label(), "clean channel");
        assert!(AdversaryModel::StochasticNoise { p: 0.1 }
            .label()
            .contains("0.1"));
        assert!(AdversaryModel::BudgetedReactiveJam {
            budget: 9,
            trigger: JamTrigger::Contended
        }
        .label()
        .contains("contended"));
    }
}
