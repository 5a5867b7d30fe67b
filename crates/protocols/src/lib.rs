//! # mac-protocols — contention-resolution protocols for static k-selection
//!
//! This crate is the core contribution of the reproduction of
//! *Unbounded Contention Resolution in Multiple-Access Channels*
//! (Fernández Anta, Mosteiro, Muñoz — PODC 2011). It implements, as reusable
//! per-station state machines, the two protocols the paper introduces and
//! every baseline it evaluates against, together with the closed-form
//! quantities of the paper's analysis:
//!
//! | Protocol | Module | Knowledge required | Makespan (w.h.p.) |
//! |----------|--------|--------------------|-------------------|
//! | **One-fail Adaptive** (Algorithm 1) | [`one_fail`] | none | `2(δ+1)k + O(log² k)` |
//! | **Exp Back-on/Back-off** (Algorithm 2) | [`exp_backon_backoff`] | none | `4(1+1/δ)k` |
//! | Log-fails Adaptive (reconstruction of \[7\]) | [`log_fails`] | `ε ≤ 1/(n+1)` | `(e+1+ξ)k + O(log²(1/ε))` |
//! | Loglog-iterated Back-off (reconstruction of \[2\]) | [`loglog_backoff`] | none | `Θ(k·loglog k / logloglog k)` |
//! | r-exponential back-off | [`loglog_backoff`] | none | `Θ(k·log_{log r} log k)` |
//! | Known-k oracle (fair-protocol optimum) | [`oracle`] | exact k | `≈ e·k` in expectation |
//! | Randomised-parity One-fail (extension) | [`randomized_parity`] | none | Theorem 1's envelope, empirically |
//!
//! Two *protocol families* cover all of the above, and each family has its
//! own trait so that the simulators in `mac-sim` can exploit its structure:
//!
//! * [`FairProtocol`] — in every slot, every active station transmits with
//!   the **same** probability, computed from public information (the slot
//!   number and the history of deliveries). One-fail Adaptive, Log-fails
//!   Adaptive and the oracle are fair. Under batched arrivals the state of
//!   all active stations is identical, which is what permits the O(1)-per-slot
//!   fair simulator.
//! * [`WindowSchedule`] — the station picks one uniformly random slot inside
//!   each window of a deterministic window-length sequence. Exp
//!   Back-on/Back-off, Loglog-iterated Back-off and r-exponential back-off
//!   are window protocols.
//!
//! Every protocol is *also* usable as a plain per-station [`Protocol`]
//! (via [`FairNode`] and [`WindowNode`]), which is what the exact,
//! per-station simulator uses; this redundancy is deliberate — the fast
//! simulators are validated against the exact one. A station observes one
//! bit per slot, whether another station's message got through: all the
//! paper's channel, which has no collision detection, tells a station that
//! did not deliver. Protocols are named by [`ProtocolKind::label`].
//!
//! The [`kind`] module is the kind table: [`ProtocolKind`] and every fact
//! that varies per kind — label, family, wire tag and parameters, engine
//! checkpoint tags, Table 1's "Analysis" entry — and
//! [`ProtocolKind::visit`], the one place a configured kind becomes a
//! concrete state: it hands a [`KindVisitor`] the fair state or the window
//! schedule, generically, so every engine written as a visitor runs
//! monomorphic over each protocol. A new protocol is its state module, its
//! line in this file, and its arms in the kind table.
//!
//! The [`analysis`] module exposes the constants and bounds of the paper's
//! theorems (Theorem 1, Theorem 2, Lemma 1) that Table 1's "Analysis"
//! column quotes.
//!
//! # Quick example
//!
//! ```
//! use mac_protocols::{FairProtocol, OneFailAdaptive};
//!
//! // The shared state of One-fail Adaptive for the paper's δ = 2.72.
//! let mut state = OneFailAdaptive::with_default_delta();
//! // Step 1 is an AT-step: the transmission probability is 1/κ̃ = 1/(δ+1).
//! let p = state.transmission_probability();
//! assert!((p - 1.0 / 3.72).abs() < 1e-12);
//! // Nothing was delivered in the step:
//! state.advance(false);
//! // Step 2 is a BT-step: probability 1/(1 + log2(σ+1)) = 1 since σ = 0.
//! assert_eq!(state.transmission_probability(), 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod error;
pub mod exp_backon_backoff;
pub mod kind;
pub mod log_fails;
pub mod loglog_backoff;
pub mod one_fail;
pub mod oracle;
pub mod randomized_parity;
pub mod traits;

pub use error::ParameterError;
pub use exp_backon_backoff::ExpBackonBackoff;
pub use kind::{KindVisitor, ProtocolFamily, ProtocolKind};
pub use log_fails::{LogFailsAdaptive, LogFailsConfig};
pub use loglog_backoff::{LoglogIteratedBackoff, RExponentialBackoff};
pub use one_fail::OneFailAdaptive;
pub use oracle::KnownKOracle;
pub use randomized_parity::RandomizedParityOneFail;
pub use traits::{FairNode, FairProtocol, Protocol, WindowNode, WindowSchedule};
