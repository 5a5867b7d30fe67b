//! The kind table: everything that varies per protocol kind, in one file.
//!
//! [`ProtocolKind`] is a serialisable description (name + parameters) of any
//! protocol in this crate, used by the experiment runner, the session layer
//! and the benchmark harness to construct protocol instances from
//! configuration. Each per-kind fact is one `match` arm in this file:
//!
//! * the table label ([`ProtocolKind::label`]) and the family
//!   ([`ProtocolKind::family`]);
//! * the state the kind builds ([`ProtocolKind::visit`] — the only place a
//!   kind becomes a protocol state);
//! * the wire tag and parameters a checkpoint records
//!   ([`ProtocolKind::encode`] / [`ProtocolKind::decode`]);
//! * Table 1's "Analysis" entry ([`ProtocolKind::analysis_label`]).
//!
//! A new variant does not compile until it has its entry in every match
//! but the decoder's, which matches wire integers; the engines, the session
//! layer and the report renderers name no variant. Adding a fair protocol
//! therefore touches its state file, `lib.rs` and this table (see
//! `crates/sim/DESIGN.md` §5).

use crate::analysis;
use crate::error::ParameterError;
use crate::exp_backon_backoff::ExpBackonBackoff;
use crate::log_fails::{LogFailsAdaptive, LogFailsConfig};
use crate::loglog_backoff::{LoglogIteratedBackoff, RExponentialBackoff};
use crate::one_fail::OneFailAdaptive;
use crate::oracle::KnownKOracle;
use crate::randomized_parity::RandomizedParityOneFail;
use crate::traits::{FairNode, FairProtocol, Protocol, WindowNode, WindowSchedule};
use mac_prob::wire::{Decoder, Encoder, WireError};
use serde::{Deserialize, Serialize};

/// A serialisable description of a protocol and its parameters.
///
/// `ProtocolKind` is how the experiment runner, the benchmark harness and the
/// examples refer to protocols in configuration: it can be stored, printed
/// and turned into a runnable instance with [`ProtocolKind::visit`] (the
/// only place a kind becomes a protocol state) or
/// [`ProtocolKind::build_node`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// One-fail Adaptive with parameter `δ` (paper default 2.72).
    OneFailAdaptive {
        /// The δ constant, `e < δ ≤ Σ_{j=1..5}(5/6)^j`.
        delta: f64,
    },
    /// Exp Back-on/Back-off with parameter `δ` (paper default 0.366).
    ExpBackonBackoff {
        /// The δ constant, `0 < δ < 1/e`.
        delta: f64,
    },
    /// Log-fails Adaptive (reconstruction) with parameters `ξδ`, `ξβ`, `ξt`.
    /// The required `ε` is derived from the instance size as `1/(k+1)`.
    LogFailsAdaptive {
        /// Estimator decrement slack (paper simulation value 0.1).
        xi_delta: f64,
        /// Failure-window length factor (paper simulation value 0.1).
        xi_beta: f64,
        /// Fraction of slots that are BT-steps (paper uses 1/2 and 1/10).
        xi_t: f64,
    },
    /// Loglog-iterated Back-off with window growth factor `r` (paper uses 2).
    LoglogIteratedBackoff {
        /// Window growth factor, `r > 1`.
        r: f64,
    },
    /// Plain r-exponential back-off.
    RExponentialBackoff {
        /// Window growth factor, `r > 1`.
        r: f64,
    },
    /// The known-k oracle (fair-protocol optimum, requires exact `k`).
    KnownKOracle,
    /// Randomised-parity One-fail Adaptive: Algorithm 1's rules on a
    /// balanced Thue–Morse AT/BT schedule instead of strict alternation,
    /// which breaks the two-cohort parity deadlock of dynamic arrivals
    /// (see `crates/sim/DESIGN.md` §6) while keeping the Theorem 1
    /// envelope. Not part of the paper's line-up — an extension protocol.
    RandomizedParityOneFail {
        /// The δ constant, `e < δ ≤ Σ_{j=1..5}(5/6)^j` (as for Algorithm 1).
        delta: f64,
    },
}

/// The structural family a protocol belongs to, which determines which fast
/// simulator applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProtocolFamily {
    /// Every active station transmits with the same probability each slot.
    Fair,
    /// Stations pick one uniform slot per window of a deterministic schedule.
    Window,
}

/// Receives the concrete protocol state a [`ProtocolKind`] describes, from
/// [`ProtocolKind::visit`].
///
/// The methods are generic over the state type, so an engine written once
/// as a visitor runs monomorphic over each protocol: the per-slot protocol
/// calls inline instead of going through a `Box<dyn …>`. States are
/// `Clone`, and building one draws no randomness, so a visitor may keep the
/// state as a prototype and clone it per station or per arrival cohort.
pub trait KindVisitor {
    /// What the visit produces.
    type Output;

    /// Called with the shared state of a fair protocol.
    fn fair<P: FairProtocol + Clone + 'static>(self, state: P) -> Self::Output;

    /// Called with the window schedule of a window protocol.
    fn window<S: WindowSchedule + Clone + 'static>(self, schedule: S) -> Self::Output;
}

impl ProtocolKind {
    /// The paper's five evaluated configurations (Figure 1 / Table 1), in the
    /// order of the paper's table rows: LFA(ξt=1/2), LFA(ξt=1/10), OFA, EBB,
    /// LLIB.
    pub fn paper_lineup() -> Vec<ProtocolKind> {
        vec![
            ProtocolKind::LogFailsAdaptive {
                xi_delta: 0.1,
                xi_beta: 0.1,
                xi_t: 0.5,
            },
            ProtocolKind::LogFailsAdaptive {
                xi_delta: 0.1,
                xi_beta: 0.1,
                xi_t: 0.1,
            },
            ProtocolKind::OneFailAdaptive { delta: 2.72 },
            ProtocolKind::ExpBackonBackoff { delta: 0.366 },
            ProtocolKind::LoglogIteratedBackoff { r: 2.0 },
        ]
    }

    /// The line-up used by the robustness (adversarial-channel) sweeps: one
    /// fair adaptive protocol, both back-off families, and the known-k
    /// oracle as the fair-protocol reference point. Log-fails Adaptive is
    /// deliberately excluded: its failure-counting estimator is calibrated
    /// for the ideal channel and a jammed run says nothing about the paper's
    /// claims.
    pub fn robust_lineup() -> Vec<ProtocolKind> {
        vec![
            ProtocolKind::OneFailAdaptive { delta: 2.72 },
            ProtocolKind::ExpBackonBackoff { delta: 0.366 },
            ProtocolKind::LoglogIteratedBackoff { r: 2.0 },
            ProtocolKind::KnownKOracle,
        ]
    }

    /// A short label including the distinguishing parameter, suitable for
    /// table headers and CSV columns.
    pub fn label(&self) -> String {
        match self {
            ProtocolKind::OneFailAdaptive { .. } => "One-fail Adaptive".to_string(),
            ProtocolKind::ExpBackonBackoff { .. } => "Exp Back-on/Back-off".to_string(),
            ProtocolKind::LogFailsAdaptive { xi_t, .. } => {
                format!("Log-fails Adaptive (xi_t=1/{:.0})", 1.0 / xi_t)
            }
            ProtocolKind::LoglogIteratedBackoff { .. } => "Loglog-iterated Back-off".to_string(),
            ProtocolKind::RExponentialBackoff { r } => {
                format!("{r}-exponential Back-off")
            }
            ProtocolKind::KnownKOracle => "Known-k oracle".to_string(),
            ProtocolKind::RandomizedParityOneFail { .. } => {
                "Randomised-parity One-fail".to_string()
            }
        }
    }

    /// The family (fair or window) of the protocol.
    pub fn family(&self) -> ProtocolFamily {
        match self {
            ProtocolKind::OneFailAdaptive { .. }
            | ProtocolKind::LogFailsAdaptive { .. }
            | ProtocolKind::KnownKOracle
            | ProtocolKind::RandomizedParityOneFail { .. } => ProtocolFamily::Fair,
            ProtocolKind::ExpBackonBackoff { .. }
            | ProtocolKind::LoglogIteratedBackoff { .. }
            | ProtocolKind::RExponentialBackoff { .. } => ProtocolFamily::Window,
        }
    }

    /// Builds this kind's protocol state and hands it to `visitor` — the
    /// one place a kind becomes a state, so a new protocol is one arm here.
    /// `k` is the instance size: it is used only by the protocols that
    /// require knowledge of the instance (the oracle, and the `ε ≈ 1/(k+1)`
    /// of Log-fails Adaptive), exactly as in the paper's simulations.
    ///
    /// # Errors
    /// Returns a [`ParameterError`] if the parameters are outside the range
    /// required by the protocol's analysis.
    pub fn visit<V: KindVisitor>(&self, k: u64, visitor: V) -> Result<V::Output, ParameterError> {
        Ok(match self {
            ProtocolKind::OneFailAdaptive { delta } => {
                visitor.fair(OneFailAdaptive::try_new(*delta)?)
            }
            ProtocolKind::LogFailsAdaptive {
                xi_delta,
                xi_beta,
                xi_t,
            } => visitor.fair(LogFailsAdaptive::try_new(LogFailsConfig::for_instance(
                *xi_delta, *xi_beta, *xi_t, k,
            ))?),
            ProtocolKind::KnownKOracle => visitor.fair(KnownKOracle::new(k)),
            ProtocolKind::RandomizedParityOneFail { delta } => {
                visitor.fair(RandomizedParityOneFail::try_new(*delta)?)
            }
            ProtocolKind::ExpBackonBackoff { delta } => {
                visitor.window(ExpBackonBackoff::try_new(*delta)?)
            }
            ProtocolKind::LoglogIteratedBackoff { r } => {
                visitor.window(LoglogIteratedBackoff::try_new(*r)?)
            }
            ProtocolKind::RExponentialBackoff { r } => {
                visitor.window(RExponentialBackoff::try_new(*r)?)
            }
        })
    }

    /// Builds a per-station [`Protocol`] instance for this kind.
    ///
    /// # Errors
    /// Returns a [`ParameterError`] if the parameters are invalid.
    pub fn build_node(&self, k: u64) -> Result<Box<dyn Protocol>, ParameterError> {
        struct Node;
        impl KindVisitor for Node {
            type Output = Box<dyn Protocol>;
            fn fair<P: FairProtocol + Clone + 'static>(self, state: P) -> Self::Output {
                Box::new(FairNode::new(state))
            }
            fn window<S: WindowSchedule + Clone + 'static>(self, schedule: S) -> Self::Output {
                Box::new(WindowNode::new(schedule))
            }
        }
        self.visit(k, Node)
    }

    /// The "Analysis" column entry of Table 1: the proven slots-per-message
    /// constant, or the asymptotic shape where the paper gives one.
    pub fn analysis_label(&self) -> String {
        match self {
            ProtocolKind::OneFailAdaptive { delta } => format!(
                "{:.1}",
                analysis::ofa_linear_factor(*delta).expect("validated earlier")
            ),
            ProtocolKind::ExpBackonBackoff { delta } => format!(
                "{:.1}",
                analysis::ebb_linear_factor(*delta).expect("validated earlier")
            ),
            ProtocolKind::LogFailsAdaptive {
                xi_delta,
                xi_beta,
                xi_t,
            } => format!(
                "{:.1}",
                analysis::lfa_analysis_factor(*xi_delta, *xi_beta, *xi_t)
            ),
            ProtocolKind::LoglogIteratedBackoff { .. } => "Θ(loglog k / logloglog k)".to_string(),
            ProtocolKind::RExponentialBackoff { .. } => "Θ(log_{log r} log k)".to_string(),
            ProtocolKind::KnownKOracle => {
                format!("{:.2}", analysis::fair_protocol_optimal_ratio())
            }
            // Same per-step rules and admissible δ range as One-fail Adaptive —
            // only the AT/BT interleaving changes — so Theorem 1's linear
            // factor carries over.
            ProtocolKind::RandomizedParityOneFail { delta } => format!(
                "{:.1}",
                analysis::ofa_linear_factor(*delta).expect("validated earlier")
            ),
        }
    }

    /// Writes the kind into a checkpoint: its wire tag, then its parameters.
    /// The wire tags never change.
    pub fn encode(&self, out: &mut Encoder) {
        match self {
            ProtocolKind::OneFailAdaptive { delta } => {
                out.put_u32(0);
                out.put_f64(*delta);
            }
            ProtocolKind::ExpBackonBackoff { delta } => {
                out.put_u32(1);
                out.put_f64(*delta);
            }
            ProtocolKind::LogFailsAdaptive {
                xi_delta,
                xi_beta,
                xi_t,
            } => {
                out.put_u32(2);
                out.put_f64(*xi_delta);
                out.put_f64(*xi_beta);
                out.put_f64(*xi_t);
            }
            ProtocolKind::LoglogIteratedBackoff { r } => {
                out.put_u32(3);
                out.put_f64(*r);
            }
            ProtocolKind::RExponentialBackoff { r } => {
                out.put_u32(4);
                out.put_f64(*r);
            }
            ProtocolKind::KnownKOracle => out.put_u32(5),
            ProtocolKind::RandomizedParityOneFail { delta } => {
                out.put_u32(6);
                out.put_f64(*delta);
            }
        }
    }

    /// Reads a kind written by [`ProtocolKind::encode`].
    ///
    /// # Errors
    /// Returns a [`WireError`] on a truncated stream or an unknown wire tag.
    pub fn decode(input: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match input.take_u32()? {
            0 => ProtocolKind::OneFailAdaptive {
                delta: input.take_f64()?,
            },
            1 => ProtocolKind::ExpBackonBackoff {
                delta: input.take_f64()?,
            },
            2 => ProtocolKind::LogFailsAdaptive {
                xi_delta: input.take_f64()?,
                xi_beta: input.take_f64()?,
                xi_t: input.take_f64()?,
            },
            3 => ProtocolKind::LoglogIteratedBackoff {
                r: input.take_f64()?,
            },
            4 => ProtocolKind::RExponentialBackoff {
                r: input.take_f64()?,
            },
            5 => ProtocolKind::KnownKOracle,
            6 => ProtocolKind::RandomizedParityOneFail {
                delta: input.take_f64()?,
            },
            _ => return Err(WireError::Malformed("unknown protocol kind tag")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ofa() -> ProtocolKind {
        ProtocolKind::OneFailAdaptive { delta: 2.72 }
    }

    fn rp_ofa() -> ProtocolKind {
        ProtocolKind::RandomizedParityOneFail { delta: 2.72 }
    }

    /// One kind per variant, in wire-tag order.
    fn every_kind() -> [ProtocolKind; 7] {
        [
            ofa(),
            ProtocolKind::ExpBackonBackoff { delta: 0.366 },
            ProtocolKind::LogFailsAdaptive {
                xi_delta: 0.1,
                xi_beta: 0.2,
                xi_t: 0.5,
            },
            ProtocolKind::LoglogIteratedBackoff { r: 2.0 },
            ProtocolKind::RExponentialBackoff { r: 3.0 },
            ProtocolKind::KnownKOracle,
            rp_ofa(),
        ]
    }

    #[test]
    fn kind_wire_tags_are_pinned() {
        // Frozen wire values: the variant's position in `every_kind` is its
        // tag.
        for (tag, kind) in every_kind().iter().enumerate() {
            let mut out = Encoder::new();
            kind.encode(&mut out);
            assert_eq!(out.finish()[0], tag as u64, "{}", kind.label());
        }
    }

    #[test]
    fn every_kind_round_trips_through_the_wire() {
        for kind in every_kind() {
            let mut out = Encoder::new();
            kind.encode(&mut out);
            let words = out.finish();
            let mut input = Decoder::new(&words);
            assert_eq!(ProtocolKind::decode(&mut input), Ok(kind.clone()));
            assert!(input.finish().is_ok(), "{} left words behind", kind.label());
        }
        let unknown = [7u64];
        assert_eq!(
            ProtocolKind::decode(&mut Decoder::new(&unknown)),
            Err(WireError::Malformed("unknown protocol kind tag"))
        );
    }
}
