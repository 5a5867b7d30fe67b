//! The livelock watchdog: its policy, configuration, stall report and
//! checkpointed runtime state.

#[cfg(doc)]
use super::{Session, SessionError};
use mac_prob::wire::{Decoder, Encoder, WireError};
use std::fmt;

/// What the livelock watchdog does when it detects a zero-delivery stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallPolicy {
    /// Record the stall (first occurrence) in [`Session::stall`] and keep
    /// running — the run proceeds to completion or its slot cap, but the
    /// stall is surfaced in the status and the dynamic report.
    Report,
    /// Stop advancing and return [`SessionError::Stalled`] with the
    /// diagnostics. The session stays intact, so the caller can still
    /// checkpoint it or read partial results.
    Abort,
}

/// Configuration of the livelock watchdog: flag a stall when `window`
/// consecutive slots pass with **backlogged** (activated, undelivered)
/// messages and **zero** deliveries.
///
/// An idle channel — no activated messages, e.g. a dynamic session
/// fast-forwarding to its next arrival burst — is never a stall; the
/// window only runs while a backlog exists. Because the watchdog samples
/// at window boundaries, detection is guaranteed within **two** windows
/// of the last delivery (or of the idle→backlogged transition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallConfig {
    /// Zero-delivery window in slots (clamped to ≥ 1).
    pub window: u64,
    /// What to do on detection.
    pub policy: StallPolicy,
}

impl StallConfig {
    /// A watchdog flagging after `window` backlogged slots without a
    /// delivery, under `policy`.
    pub fn new(window: u64, policy: StallPolicy) -> Self {
        Self {
            window: window.max(1),
            policy,
        }
    }
}

/// Diagnostics of a detected zero-delivery stall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallReport {
    /// Slot at which the watchdog flagged the stall.
    pub detected_at_slot: u64,
    /// Last slot at which progress (a delivery, or an idle channel) was
    /// observed.
    pub last_progress_slot: u64,
    /// The configured zero-delivery window.
    pub window: u64,
    /// Messages delivered before the stall.
    pub delivered: u64,
    /// Activated, undelivered messages at detection time.
    pub backlog: u64,
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "zero-delivery stall at slot {} ({} backlogged messages, no delivery since slot {}, window {})",
            self.detected_at_slot, self.backlog, self.last_progress_slot, self.window
        )
    }
}

/// Runtime state of the livelock watchdog (checkpointed, so a resumed
/// session keeps both its configuration and its progress clock).
#[derive(Debug, Clone)]
pub(super) struct Watchdog {
    pub(super) config: StallConfig,
    pub(super) last_progress_slot: u64,
    pub(super) stall: Option<StallReport>,
}

impl Watchdog {
    pub(super) fn new(config: StallConfig) -> Self {
        Self {
            config,
            last_progress_slot: 0,
            stall: None,
        }
    }

    /// Writes the configuration, the progress clock and the first stall;
    /// a report's window is the configured one and is not written again.
    pub(super) fn encode(&self, out: &mut Encoder) {
        out.put_u64(self.config.window);
        out.put_u32(match self.config.policy {
            StallPolicy::Report => 0,
            StallPolicy::Abort => 1,
        });
        out.put_u64(self.last_progress_slot);
        match &self.stall {
            Some(s) => {
                out.put_bool(true);
                out.put_u64(s.detected_at_slot);
                out.put_u64(s.last_progress_slot);
                out.put_u64(s.delivered);
                out.put_u64(s.backlog);
            }
            None => out.put_bool(false),
        }
    }

    pub(super) fn decode(input: &mut Decoder<'_>) -> Result<Self, WireError> {
        let window = input.take_u64()?;
        let policy = match input.take_u32()? {
            0 => StallPolicy::Report,
            1 => StallPolicy::Abort,
            _ => return Err(WireError::Malformed("unknown stall policy tag")),
        };
        let last_progress_slot = input.take_u64()?;
        let stall = if input.take_bool()? {
            Some(StallReport {
                detected_at_slot: input.take_u64()?,
                last_progress_slot: input.take_u64()?,
                window,
                delivered: input.take_u64()?,
                backlog: input.take_u64()?,
            })
        } else {
            None
        };
        Ok(Self {
            config: StallConfig { window, policy },
            last_progress_slot,
            stall,
        })
    }

    /// Rejects a decoded watchdog that no session at slot clock `slot`
    /// holds: [`StallConfig::new`] clamps the window to at least one slot,
    /// progress is only ever marked at the clock, and a stall is detected
    /// at the clock after the progress it reports.
    ///
    /// # Errors
    /// [`WireError::Malformed`] for a zero window, a progress slot past
    /// `slot`, or a stall detected past `slot` or before its own progress
    /// slot.
    pub(super) fn check_against(&self, slot: u64) -> Result<(), WireError> {
        if self.config.window == 0 {
            return Err(WireError::Malformed("zero watchdog window"));
        }
        if self.last_progress_slot > slot {
            return Err(WireError::Malformed(
                "watchdog progress slot past the slot clock",
            ));
        }
        if let Some(stall) = &self.stall {
            if stall.detected_at_slot > slot || stall.last_progress_slot > stall.detected_at_slot {
                return Err(WireError::Malformed(
                    "stall report outside the slots the run has reached",
                ));
            }
        }
        Ok(())
    }
}
