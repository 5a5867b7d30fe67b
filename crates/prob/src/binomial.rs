//! Exact binomial sampling and O(1) aggregate slot resolution.
//!
//! When all `m` active stations of a slot transmit independently with the
//! same probability `p`, the number of transmitters is `T ~ Binomial(m, p)`
//! and the channel outcome depends only on whether `T` is 0, 1 or ≥ 2. This
//! module provides the machinery to resolve such *homogeneous* slots in O(1)
//! — and, on the hot path, in a handful of arithmetic operations with **no
//! per-slot transcendentals**:
//!
//! * [`sample_binomial_fast`] — an exact `Binomial(n, p)` sampler: CDF
//!   inversion for small means, the BTPE rejection method of
//!   Kachitvichyanukul & Schmeiser for `n·min(p, 1-p) ≥ 10`. Expected O(1)
//!   for any `(n, p)`, unlike the geometric-skip sampler in
//!   [`crate::sampling`] (kept as the independent reference implementation
//!   the property tests cross-check against).
//! * [`SlotThresholds`] — the first two steps of binomial CDF inversion,
//!   `P(T = 0)` and `P(T ≤ 1)`, which classify a slot's trichotomy from one
//!   uniform draw: `u < P(T=0)` is silence, `u < P(T≤1)` is a delivery,
//!   anything else a collision.
//! * [`SlotKernel`] — incremental maintenance of [`SlotThresholds`] along a
//!   *slowly drifting* `(m, p)` sequence, the access pattern of the fair
//!   protocols (the probability changes by `O(p/κ)` per slot between
//!   deliveries). Between exact re-anchorings the kernel updates the
//!   thresholds with short Taylor polynomials whose truncation error is
//!   below `1e-12` relative, so a simulator pays `exp`/`ln` only a few times
//!   per *delivery* instead of several times per *slot*.
//!
//! ## Dead slots
//!
//! When `P(T ≤ 1)` evaluates to exactly `0.0` in `f64` (e.g. `m = 10⁶`
//! stations at `p = 1/21`: `P(T ≤ 1) < e^{-47000}`), no uniform draw can fall
//! below the threshold and the slot is a *certain collision at `f64`
//! resolution*: the kernel reports it via [`SlotKernel::is_dead`] /
//! [`SlotThresholds::is_dead`] and a simulator may skip the draw entirely.
//! This changes the RNG stream but not the distribution of any outcome —
//! the distributional-equivalence contract of `crates/sim/DESIGN.md` §5.

use crate::outcome::{slot_outcome_probabilities, SlotOutcome};
use crate::special::ln_gamma;
use crate::wire::{Decoder, Encoder, WireError};
use rand::Rng;
use std::sync::OnceLock;

/// Size of the shared reciprocal table: `recip_table()[t] == 1/t` for
/// `1 ≤ t < 256`. Covers every transmitter count the CDF-continuation and
/// mode-anchored pmf recurrences touch inside the sampled λ bands (the
/// certain-collision shortcut absorbs larger λ); rarer values fall back to
/// division.
pub(crate) const RECIP_TABLE_N: usize = 256;

/// `1/t` for `t ∈ [1, 256)` (entry 0 is unused), shared by the pmf
/// recurrences of [`ModeKernel`] and the window walk's CDF continuation so
/// neither pays a latency-chained divide per term.
pub(crate) fn recip_table() -> &'static [f64; RECIP_TABLE_N] {
    static TABLE: OnceLock<[f64; RECIP_TABLE_N]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0.0; RECIP_TABLE_N];
        for (t, r) in table.iter_mut().enumerate().skip(1) {
            *r = 1.0 / t as f64;
        }
        table
    })
}

/// Largest `n·min(p, 1-p)` handled by CDF inversion; above it BTPE applies.
const INVERSION_MEAN_MAX: f64 = 10.0;

/// `ln P(T ≤ 1)` below which the slot is certainly dead: `e^{-780}·(1+λ)`
/// with `λ ≤ 780` is below `2^{-1074}` (the smallest positive `f64`), so the
/// exact `f64` evaluation would round to `0.0` as well.
pub(crate) const DEAD_LOG: f64 = -780.0;

/// Largest exponent offset the incremental `exp` polynomial accepts
/// (`2^-4`; degree 7, truncation error below `1.5e-15` relative).
pub(crate) const MAX_EXP_OFFSET: f64 = 1.0 / 16.0;

/// Largest `ε` the incremental `ln1p` polynomial accepts (`2^-10`;
/// truncation error below `2e-13` relative).
const MAX_LN_EPS: f64 = 1.0 / 1024.0;

/// Largest `p` for which `1/(1-p)` is evaluated by series instead of division.
const SERIES_P_MAX: f64 = 1.0 / 1024.0;

/// Incremental updates between forced exact re-anchorings (bounds the
/// accumulated rounding drift of the maintained `ln(1-p)` to a few ulps).
const REBASE_PERIOD: u32 = 4096;

/// `exp(d)` for `|d| ≤ 1/16` by a degree-7 Taylor polynomial (truncation
/// error below `1.5e-15` relative).
#[inline]
pub(crate) fn exp_small(d: f64) -> f64 {
    debug_assert!(d.abs() <= MAX_EXP_OFFSET * 1.0001);
    1.0 + d
        * (1.0
            + d * (1.0 / 2.0
                + d * (1.0 / 6.0
                    + d * (1.0 / 24.0
                        + d * (1.0 / 120.0 + d * (1.0 / 720.0 + d * (1.0 / 5040.0)))))))
}

/// `ln(1 + e)` for `|e| ≤ 2^-16` by a degree-4 Taylor polynomial (truncation
/// error below `e⁴/5 ≈ 1e-20` relative).
#[inline]
fn ln1p_small(e: f64) -> f64 {
    debug_assert!(e.abs() <= MAX_LN_EPS * 1.0001);
    e * (1.0 - e * (1.0 / 2.0 - e * (1.0 / 3.0 - e * (1.0 / 4.0))))
}

/// `1/(1 - p)` — by geometric series for tiny `p` (the fair protocols'
/// common case, where the division's latency would sit on the hot loop's
/// critical path), by actual division otherwise.
#[inline]
pub(crate) fn inv_q(p: f64) -> f64 {
    if p.abs() <= SERIES_P_MAX {
        // Truncation error p⁷ ≈ 2^-70 relative.
        1.0 + p * (1.0 + p * (1.0 + p * (1.0 + p * (1.0 + p * (1.0 + p)))))
    } else {
        1.0 / (1.0 - p)
    }
}

/// The first two binomial CDF values of a homogeneous slot: `t0 = P(T = 0)`
/// and `t1 = P(T ≤ 1)` for `T ~ Binomial(m, p)`.
///
/// One uniform draw against these thresholds resolves the slot trichotomy —
/// exactly the first two steps of sampling `T` by CDF inversion, stopped as
/// soon as the outcome class (`T = 0`, `T = 1`, `T ≥ 2`) is known.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotThresholds {
    /// `P(T = 0)` — the probability of a silent slot.
    pub t0: f64,
    /// `P(T ≤ 1)` — silence plus a single (delivering) transmitter.
    pub t1: f64,
}

impl SlotThresholds {
    /// Computes the thresholds exactly (up to `f64` rounding), using the same
    /// log-space evaluation as [`slot_outcome_probabilities`].
    pub fn exact(m: u64, p: f64) -> Self {
        let pr = slot_outcome_probabilities(m, p);
        Self {
            t0: pr.silence,
            t1: pr.silence + pr.delivery,
        }
    }

    /// `true` when no uniform draw in `[0, 1)` can produce silence or a
    /// delivery: the slot is a certain collision at `f64` resolution.
    #[inline]
    pub fn is_dead(&self) -> bool {
        self.t1 <= 0.0
    }

    /// Classifies a uniform draw `u ∈ [0, 1)` into the slot trichotomy.
    #[inline]
    pub fn classify(&self, u: f64) -> SlotOutcome {
        if u >= self.t1 {
            SlotOutcome::Collision
        } else if u >= self.t0 {
            SlotOutcome::Delivery
        } else {
            SlotOutcome::Silence
        }
    }
}

/// Largest `p` admitted by the short-polynomial hot path of
/// [`SlotKernel::update`] (`2^-14`): below it, dropped series terms are at
/// relative `p³ < 2.3e-13`.
const HOT_P_MAX: f64 = 6.103_515_625e-5;

/// Largest relative probability move `|Δp|/p` the hot path accepts (`2^-13`
/// — covers both the fair protocols' estimator drift, `|Δp|/p ≈ p/κ̃`, and
/// the window walk's `1/w → 1/(w-1)` steps for `w ≥ 2^14`).
const HOT_MOVE_MAX: f64 = 1.220_703_125e-4;

/// Largest exponent offset the hot path's cubic `exp` accepts (`2^-10`,
/// truncation error `d⁴/24 < 4e-14` relative).
const HOT_OFFSET_MAX: f64 = 9.765_625e-4;

/// Incrementally maintained [`SlotThresholds`] for a drifting `(m, p)`
/// sequence.
///
/// The kernel anchors an exact evaluation (`t0_base = exp(L_base)`,
/// `L = m·ln(1-p)`) and follows small moves of `m` and `p` with Taylor
/// updates of `ln(1-p)` and of the exponent offset `L − L_base`; it re-anchors
/// exactly whenever the move is too large, the offset outgrows the
/// polynomial, or `REBASE_PERIOD` incremental steps have accumulated.
/// Tiny probabilities with tiny moves (the fair protocols' steady state)
/// take a short-polynomial hot path tuned for the simulator's inner loop;
/// larger ones take a general cold path. Relative error against
/// [`SlotThresholds::exact`] stays below `~1e-11` (property-tested).
#[derive(Debug, Clone, Copy)]
pub struct SlotKernel {
    m: f64,
    p: f64,
    /// `ln(1 - p)`, maintained incrementally.
    lnq: f64,
    /// `L = m·ln(1-p)` at the last exact anchoring.
    ell_base: f64,
    /// `exp(ell_base)`.
    t0_base: f64,
    thresholds: SlotThresholds,
    dead: bool,
    updates_since_rebase: u32,
}

impl SlotKernel {
    /// Creates a kernel anchored at `(m, p)`.
    pub fn new(m: u64, p: f64) -> Self {
        let mut kernel = Self {
            m: 0.0,
            p: -1.0,
            lnq: 0.0,
            ell_base: 0.0,
            t0_base: 1.0,
            thresholds: SlotThresholds { t0: 1.0, t1: 1.0 },
            dead: false,
            updates_since_rebase: 0,
        };
        kernel.rebase(m as f64, p);
        kernel
    }

    /// The `m` the thresholds currently describe.
    #[inline]
    pub fn m(&self) -> f64 {
        self.m
    }

    /// The `p` the thresholds currently describe.
    #[inline]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Current thresholds.
    #[inline]
    pub fn thresholds(&self) -> SlotThresholds {
        self.thresholds
    }

    /// `true` when the current slot is a certain collision at `f64`
    /// resolution (no draw needed).
    #[inline]
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Classifies a uniform draw against the current thresholds.
    #[inline]
    pub fn classify(&self, u: f64) -> SlotOutcome {
        self.thresholds.classify(u)
    }

    /// Moves the kernel to `(m, p)`, incrementally when the move is small.
    ///
    /// `m` is passed as `f64` because callers track it that way in their hot
    /// loops; it must be a non-negative integer value. Always inlined: the
    /// cohort core's single-cohort stretch calls it on every slot whose
    /// probability moves.
    #[inline(always)]
    pub fn update(&mut self, m: f64, p: f64) {
        if m == self.m && p == self.p {
            return;
        }
        // Hot path: tiny probability, tiny relative move — short polynomials
        // with no division, tuned for the aggregate simulator's inner loop.
        let po = self.p;
        let x = po - p;
        if po > 0.0
            && po <= HOT_P_MAX
            && x.abs() <= po * HOT_MOVE_MAX
            && self.updates_since_rebase < REBASE_PERIOD
        {
            // ln((1-p)/(1-po)) = ln1p(x/(1-po))
            //                  = x·(1 + po + po²) − x²/2 + O(x·po³).
            let lnq = self.lnq + (x - 0.5 * x * x) + x * (po + po * po);
            let ell = m * lnq;
            self.m = m;
            self.p = p;
            self.lnq = lnq;
            self.updates_since_rebase += 1;
            if ell <= DEAD_LOG {
                self.thresholds = SlotThresholds { t0: 0.0, t1: 0.0 };
                self.dead = true;
                return;
            }
            let d = ell - self.ell_base;
            if d.abs() <= HOT_OFFSET_MAX {
                // exp(d) cubic; 1/(1-p) ≈ 1 + p + p² (error p³ relative).
                let t0 = self.t0_base * (1.0 + d * (1.0 + d * (0.5 + d * (1.0 / 6.0))));
                let t1 = t0 + t0 * (m * p) * (1.0 + p + p * p);
                self.thresholds = SlotThresholds { t0, t1 };
                self.dead = false;
                return;
            }
            if d.abs() <= MAX_EXP_OFFSET {
                // Larger drift (the window walk's shrinking windows): the
                // wider degree-7 polynomial still avoids a re-anchor.
                let t0 = self.t0_base * exp_small(d);
                let t1 = t0 + t0 * (m * p) * (1.0 + p + p * p);
                self.thresholds = SlotThresholds { t0, t1 };
                self.dead = false;
                return;
            }
            self.rebase(m, p);
            return;
        }
        self.update_cold(m, p);
    }

    #[cold]
    fn update_cold(&mut self, m: f64, p: f64) {
        // General incremental path: any probabilities with a well-conditioned
        // ε and log-space moves small enough for the wider Taylor kernels.
        if p > 0.0 && p < 1.0 && self.p > 0.0 && self.p < 1.0 && m >= 1.0 {
            let eps = (self.p - p) * inv_q(self.p);
            if eps.abs() <= MAX_LN_EPS && self.updates_since_rebase < REBASE_PERIOD {
                let lnq = self.lnq + ln1p_small(eps);
                let ell = m * lnq;
                self.m = m;
                self.p = p;
                self.lnq = lnq;
                self.updates_since_rebase += 1;
                if ell <= DEAD_LOG {
                    // Certain collision: exp would underflow to zero anyway.
                    self.thresholds = SlotThresholds { t0: 0.0, t1: 0.0 };
                    self.dead = true;
                    return;
                }
                let offset = ell - self.ell_base;
                if offset.abs() <= MAX_EXP_OFFSET {
                    let t0 = self.t0_base * exp_small(offset);
                    let t1 = t0 + t0 * (m * p) * inv_q(p);
                    self.thresholds = SlotThresholds {
                        t0,
                        t1: t1.min(1.0),
                    };
                    self.dead = t1 <= 0.0;
                    return;
                }
                // Offset outgrew the polynomial: fall through to re-anchor
                // (the state above is already consistent; rebase overwrites).
            }
        }
        self.rebase(m, p);
    }

    /// Serialises the complete kernel state.
    ///
    /// Every field is captured verbatim — including the Taylor-maintained
    /// `lnq`/`ell_base`/`t0_base` and the rebase countdown — because a kernel
    /// rebuilt fresh from `(m, p)` would re-anchor *exactly* and then follow
    /// a (minutely) different threshold trajectory than the incrementally
    /// maintained original. Checkpoint/resume bit-identity requires the
    /// incremental state itself.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_f64(self.m);
        enc.put_f64(self.p);
        enc.put_f64(self.lnq);
        enc.put_f64(self.ell_base);
        enc.put_f64(self.t0_base);
        enc.put_f64(self.thresholds.t0);
        enc.put_f64(self.thresholds.t1);
        enc.put_bool(self.dead);
        enc.put_u32(self.updates_since_rebase);
    }

    /// Restores a kernel serialised by [`SlotKernel::encode`].
    ///
    /// # Errors
    /// [`WireError`] on a truncated or malformed stream, and
    /// [`WireError::Malformed`] for words no kernel holds, such as a dead
    /// line with a positive delivery threshold or a NaN.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let kernel = Self {
            m: dec.take_f64()?,
            p: dec.take_f64()?,
            lnq: dec.take_f64()?,
            ell_base: dec.take_f64()?,
            t0_base: dec.take_f64()?,
            thresholds: SlotThresholds {
                t0: dec.take_f64()?,
                t1: dec.take_f64()?,
            },
            dead: dec.take_bool()?,
            updates_since_rebase: dec.take_u32()?,
        };
        if kernel.holds_reachable_words() {
            Ok(kernel)
        } else {
            Err(WireError::Malformed("slot kernel words no kernel holds"))
        }
    }

    /// True for words some kernel holds: a whole `m ≥ 0`, a `p` in
    /// `[0, 1]`, finite non-negative thresholds and a finite anchor, no
    /// NaN (`ln(1 − p)` and the anchor's exponent are −∞ at `p = 1`), no
    /// more updates than a re-anchor allows, and the dead flag only on a
    /// line whose delivery threshold is zero. (The hot path leaves a line
    /// live at `t1 = 0` after a dead anchor, so that pair decodes.)
    fn holds_reachable_words(&self) -> bool {
        let SlotThresholds { t0, t1 } = self.thresholds;
        [self.m, self.p, t0, t1, self.t0_base]
            .iter()
            .all(|x| x.is_finite())
            && !self.lnq.is_nan()
            && !self.ell_base.is_nan()
            && self.m >= 0.0
            && self.m.fract() == 0.0
            && (0.0..=1.0).contains(&self.p)
            && t0 >= 0.0
            && t1 >= 0.0
            && !(self.dead && t1 > 0.0)
            && self.updates_since_rebase <= REBASE_PERIOD
    }

    /// Exact re-anchoring at `(m, p)`.
    #[cold]
    fn rebase(&mut self, m: f64, p: f64) {
        debug_assert!(m >= 0.0 && (0.0..=1.0).contains(&p), "m={m} p={p}");
        let thresholds = SlotThresholds::exact(m as u64, p);
        self.m = m;
        self.p = p;
        self.lnq = if p < 1.0 {
            (-p).ln_1p()
        } else {
            f64::NEG_INFINITY
        };
        self.ell_base = m * self.lnq;
        self.t0_base = thresholds.t0;
        self.thresholds = thresholds;
        self.dead = thresholds.is_dead();
        self.updates_since_rebase = 0;
    }
}

/// A two-line cache of [`SlotKernel`]s for protocols that interleave **two
/// probability tracks** per feedback event (e.g. One-fail Adaptive's AT/BT
/// parity, Log-fails Adaptive's AT steps against its fixed BT probability).
///
/// Each track either repeats its probability exactly — a bit-equality cache
/// hit on one of the two lines — or drifts slowly, which the owning line
/// follows with [`SlotKernel::update`]'s short Taylor path. On a miss the
/// line whose probability is nearest in *relative* terms moves: the tracks
/// live at very different scales (an AT probability is `~1/κ̃ ≈ 1/m` while a
/// BT probability is `~1/log σ`), and an absolute metric would park one line
/// and thrash the other across the scales.
///
/// The cohort engine keeps one per cohort; while a single cohort is live it
/// resolves that cohort's slots directly on this cache.
#[derive(Debug, Clone, Copy)]
pub struct SlotKernelCache {
    line_a: SlotKernel,
    line_b: SlotKernel,
}

impl SlotKernelCache {
    /// Creates a cache with both lines anchored at `(m, p)` — the
    /// nearest-probability rule below sorts the tracks out within the first
    /// two selections.
    pub fn new(m: u64, p: f64) -> Self {
        let line = SlotKernel::new(m, p);
        Self {
            line_a: line,
            line_b: line,
        }
    }

    /// Returns the kernel describing `(m, p)`, updating at most one line.
    ///
    /// Exact hit on either line is free; otherwise the line with the nearest
    /// probability in relative terms (`|p - p_line| / (p + p_line)`, compared
    /// cross-multiplied so no division is paid) absorbs the move.
    #[inline]
    pub fn select(&mut self, m: f64, p: f64) -> &SlotKernel {
        if self.line_a.m() == m && self.line_a.p() == p {
            &self.line_a
        } else if self.line_b.m() == m && self.line_b.p() == p {
            &self.line_b
        } else if (p - self.line_a.p()).abs() * (p + self.line_b.p())
            <= (p - self.line_b.p()).abs() * (p + self.line_a.p())
        {
            self.line_a.update(m, p);
            &self.line_a
        } else {
            self.line_b.update(m, p);
            &self.line_b
        }
    }

    /// The probabilities currently held by the two cache lines, in ascending
    /// order. These are the protocol's two probability *tracks* as actually
    /// observed — the cohort engine compares them across cohorts to decide
    /// whether two cohorts have converged onto the same schedule.
    pub fn track_probabilities(&self) -> (f64, f64) {
        let (a, b) = (self.line_a.p(), self.line_b.p());
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Serialises both cache lines (see [`SlotKernel::encode`] for why the
    /// incremental state is captured verbatim).
    pub fn encode(&self, enc: &mut Encoder) {
        self.line_a.encode(enc);
        self.line_b.encode(enc);
    }

    /// Restores a cache serialised by [`SlotKernelCache::encode`].
    ///
    /// # Errors
    /// [`WireError`] on a truncated or malformed stream.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(Self {
            line_a: SlotKernel::decode(dec)?,
            line_b: SlotKernel::decode(dec)?,
        })
    }
}

/// Largest relative probability move `|Δp|/p` the mode kernel follows
/// incrementally (`2^-12` — one `1/w → 1/(w-1)` step for windows of
/// `w ≥ 4096` slots). Larger moves force an exact re-anchor.
const MODE_RP_MAX: f64 = 2.441_406_25e-4;

/// Largest `k₀/n` for which the maintained harmonic drift sums support
/// *incremental* updates to the documented tolerance (`2^-12`; in the
/// window walk this is `1/w`, so the gate coincides with [`MODE_RP_MAX`]).
const MODE_H_MAX: f64 = 2.441_406_25e-4;

/// Largest `k₀/n` for which the cancellation-free series *anchor* itself is
/// valid to the documented tolerance (`2^-8`; truncation after the quartic
/// power sum stays below `k₀·(k₀/n)⁵/5 ≈ 5e-11`). Between the two gates the
/// kernel re-anchors on every update — still O(1) and exact. Beyond this
/// one it falls back to the log-gamma pmf, whose accuracy at paper-scale
/// `n` degrades to the `~1e-7` absolute rounding of large `ln Γ`
/// differences (still far below statistical visibility).
const MODE_SERIES_MAX: f64 = 3.906_25e-3;

/// Accumulated-drift tolerance of the incrementally maintained mode pmf,
/// relative: the kernel re-anchors exactly before the neglected quartic
/// term of the falling-factorial Taylor stack (`h1` maintained through
/// `h2`, `h2` through the anchored `h3`) can move `ln f(k₀)` by more than
/// this — the bound is `(k₀/4)·Δ⁴` for a relative `n`-drift of `Δ` since
/// the anchor, so the kernel allows `Δ ≤ (4·tol/k₀)^{1/4}` (see
/// `crates/sim/DESIGN.md` §7 for the error ledger).
const MODE_PMF_TOL: f64 = 1e-10;

/// `ln k!` for `k < 256`, exact summation, built once. The mode kernel's
/// anchor needs it for the binomial coefficient without the catastrophic
/// `ln Γ(n)` cancellation at paper-scale `n`.
fn ln_factorial_table() -> &'static [f64; 256] {
    static TABLE: OnceLock<[f64; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0.0; 256];
        let mut acc = 0.0;
        for (k, slot) in table.iter_mut().enumerate() {
            if k >= 2 {
                acc += (k as f64).ln();
            }
            *slot = acc;
        }
        table
    })
}

/// Incrementally maintained binomial pmf **anchored at the mode**, plus the
/// O(√λ) conditional sampler for collision-slot transmitter counts.
///
/// The window walk resolves each collision slot by sampling
/// `T ~ Binomial(m, 1/w_left)` conditioned on `T ≥ 2`. The classic ways to
/// do that — CDF continuation from `T = 2` upward, or rejection from an
/// unconditioned sampler — cost O(λ) pmf terms or a full BTPE draw per
/// slot. This kernel instead keeps the pmf value at the **mode**
/// `k₀ = ⌊(n+1)p⌋` and inverts the conditional CDF by enumerating the
/// support **outward from the mode** (`k₀, k₀+1, k₀−1, k₀+2, …`, skipping
/// `T < 2`): any fixed enumeration order is a valid inversion, and this one
/// reaches the drawn value in `E|T − k₀| + O(1) ≈ 0.8·√λ` pmf-recurrence
/// steps instead of `~λ`.
///
/// Like [`SlotKernel`], the anchored value is maintained *incrementally*
/// along the walk's drifting `(m, w)`: a per-slot move
/// `(n, p) → (n − t, p')` updates `ln f(k₀)` with short Taylor polynomials
/// (the falling-factorial drift through maintained harmonic sums, the
/// `ln p` / `ln(1−p)` moves through `ln1p` kernels), and the kernel
/// re-anchors **exactly** — a cancellation-free O(1) evaluation — whenever
/// the accumulated third-order drift could move the pmf by more than
/// `MODE_PMF_TOL` relative, the relative probability move exceeds
/// `MODE_RP_MAX`, or `REBASE_PERIOD` steps have passed. See
/// `crates/sim/DESIGN.md` §7 for the recurrence and the error budget.
#[derive(Debug, Clone, Copy)]
pub struct ModeKernel {
    /// Current trial count (integer-valued).
    n: f64,
    /// Current success probability.
    p: f64,
    /// `1/p`, maintained by Newton steps (exact at anchor time).
    inv_p: f64,
    /// `ln(1 - p)`, maintained incrementally.
    lnq: f64,
    /// Anchored mode (integer-valued; the enumeration start, not
    /// necessarily the exact mode of the *current* `(n, p)` — drift moves
    /// the true mode by `O(1)` between anchors, which costs a couple of
    /// extra enumeration steps and no exactness).
    k0: f64,
    /// `f(k₀)` at the current `(n, p)`, maintained incrementally.
    fm: f64,
    /// Maintained `Σ_{j<k₀} 1/(n−j)` (drift rate of the falling factorial).
    h1: f64,
    /// Maintained `Σ_{j<k₀} 1/(n−j)²` (drift rate of `h1`).
    h2: f64,
    /// Anchored `Σ_{j<k₀} 1/(n−j)³` (drift rate of `h2`).
    h3: f64,
    /// Re-anchor when `n` falls below this: the relative drift allowance
    /// `(4·tol/k₀)^{1/4}` derived from [`MODE_PMF_TOL`].
    n_floor: f64,
    /// Incremental updates left before a forced exact re-anchor.
    steps_left: u32,
    /// `false` when the anchor's series gate (`k₀/n ≤ 2^-12`) failed: every
    /// update re-anchors and accuracy is the log-gamma route's.
    incremental_ok: bool,
}

impl ModeKernel {
    /// Creates a kernel anchored at `(n, p)`.
    pub fn new(n: u64, p: f64) -> Self {
        let mut kernel = Self {
            n: 0.0,
            p: -1.0,
            inv_p: f64::INFINITY,
            lnq: 0.0,
            k0: 0.0,
            fm: 1.0,
            h1: 0.0,
            h2: 0.0,
            h3: 0.0,
            n_floor: 0.0,
            steps_left: 0,
            incremental_ok: false,
        };
        kernel.anchor(n as f64, p);
        kernel
    }

    /// The `n` the pmf currently describes.
    #[inline]
    pub fn n(&self) -> f64 {
        self.n
    }

    /// The `p` the pmf currently describes.
    #[inline]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// The anchored mode `k₀`.
    #[inline]
    pub fn mode(&self) -> u64 {
        self.k0 as u64
    }

    /// The maintained pmf value `P(T = k₀)` at the current `(n, p)`.
    #[inline]
    pub fn pmf_mode(&self) -> f64 {
        self.fm
    }

    /// Moves the kernel to `(n, p)`, incrementally when the move is small
    /// (`n` may only decrease between anchors, the access pattern of the
    /// conditional window walk).
    #[inline]
    pub fn update(&mut self, n: f64, p: f64) {
        if n == self.n && p == self.p {
            return;
        }
        let t = self.n - n;
        let dp = p - self.p;
        let rp = dp * self.inv_p;
        // Negated comparisons so that NaN (e.g. `rp` after a degenerate
        // anchor at p = 0) falls through to the exact re-anchor.
        if !(self.incremental_ok
            && t >= 0.0
            && rp.abs() <= MODE_RP_MAX
            && n >= self.n_floor
            && self.steps_left > 0)
        {
            self.anchor(n, p);
            return;
        }
        // Logarithmic increments for the generic move (the window walk's
        // fused loop computes these itself and calls `step_precomputed`
        // directly); `|rp| ≤ 2^-12` keeps both inside the `ln1p` range.
        let dlnp = ln1p_small(rp);
        let eps = -dp * inv_q(self.p);
        let dlnq = ln1p_small(eps);
        // Two Newton steps keep 1/p at full accuracy (the first absorbs
        // the O(rp) staleness, the second its square).
        let mut inv_p_new = self.inv_p * (2.0 - p * self.inv_p);
        inv_p_new *= 2.0 - p * inv_p_new;
        self.step_precomputed(t, n, p, inv_p_new, dlnp, dlnq);
    }

    /// Exact re-anchoring at `(n, p)`: recomputes the mode and its pmf from
    /// scratch and resets the drift budget.
    #[cold]
    fn anchor(&mut self, n: f64, p: f64) {
        debug_assert!(
            n >= 0.0 && (0.0..=1.0).contains(&p),
            "ModeKernel::anchor n={n} p={p}"
        );
        let k0 = ((n + 1.0) * p).floor().clamp(0.0, n);
        let inv_n = if n > 0.0 { 1.0 / n } else { 0.0 };
        self.n = n;
        self.p = p;
        self.k0 = k0;
        self.n_floor = n;
        self.steps_left = REBASE_PERIOD;
        let series_ok =
            p > 0.0 && p < 1.0 && k0 < 256.0 && k0 * inv_n <= MODE_SERIES_MAX && n >= 2.0;
        self.incremental_ok = series_ok && k0 * inv_n <= MODE_H_MAX;
        self.inv_p = if p > 0.0 { 1.0 / p } else { f64::INFINITY };
        self.lnq = if p < 1.0 {
            (-p).ln_1p()
        } else {
            f64::NEG_INFINITY
        };
        if !series_ok {
            // Degenerate or out-of-gate anchor: exact-at-f64 pmf through the
            // log-gamma route; every subsequent update re-anchors.
            self.fm = crate::special::binomial_pmf(n as u64, k0 as u64, p);
            self.h1 = 0.0;
            self.h2 = 0.0;
            self.h3 = 0.0;
            return;
        }
        // Cancellation-free anchor: ln f(k₀) = ln[(n)_{k₀}] − ln k₀!
        //   + k₀ ln p + (n−k₀) ln(1−p), with the falling factorial expanded
        // as k₀·ln(np) − Σ_m S_m/(m·nᵐ) (S_m = Σ_{j<k₀} jᵐ, exact in f64
        // for k₀ < 256). Truncation after m = 4 is below k₀·(k₀/n)⁵/5
        // ≤ 2e-19 under the series gate — far inside [`MODE_PMF_TOL`].
        let k = k0;
        let s1 = 0.5 * k * (k - 1.0);
        let s2 = s1 * (2.0 * k - 1.0) / 3.0;
        let s3 = s1 * s1;
        let s4 = s2 * (3.0 * k * k - 3.0 * k - 1.0) / 5.0;
        let series = inv_n * (s1 + inv_n * (0.5 * s2 + inv_n * (s3 / 3.0 + inv_n * (0.25 * s4))));
        let ln_fm =
            k * (n * p).ln() - ln_factorial_table()[k0 as usize] - series + (n - k) * self.lnq;
        self.fm = ln_fm.exp();
        // Harmonic drift sums over j < k₀, by the same power sums:
        //   h1 = Σ 1/(n−j) = (k₀ + S₁/n + S₂/n² + S₃/n³ + S₄/n⁴)/n,
        //   h2 = Σ 1/(n−j)² = (k₀ + 2S₁/n + 3S₂/n²)/n²,
        //   h3 = Σ 1/(n−j)³ = (k₀ + 3S₁/n)/n³.
        self.h1 = inv_n * (k + inv_n * (s1 + inv_n * (s2 + inv_n * (s3 + inv_n * s4))));
        self.h2 = inv_n * inv_n * (k + inv_n * (2.0 * s1 + inv_n * (3.0 * s2)));
        self.h3 = inv_n * inv_n * inv_n * (k + inv_n * (3.0 * s1));
        // Quartic drift budget: (k₀/4)·Δ⁴ ≤ tol ⇒ Δ ≤ (4·tol/k₀)^{1/4}.
        let max_drift = (4.0 * MODE_PMF_TOL / k.max(1.0)).powf(0.25).min(0.1);
        self.n_floor = n * (1.0 - max_drift);
    }

    /// Samples `T | T ≥ 2` by mode-outward CDF inversion.
    ///
    /// `target` must be uniform on `[0, P(T ≥ 2))` — in the window walk it
    /// is the leftover `u − P(T ≤ 1)` of the classification draw, so the
    /// conditional count costs **no additional randomness**. The support is
    /// enumerated outward from the mode, greedily taking whichever side's
    /// next pmf value is larger (values below 2 skipped, values above `n`
    /// exhausted) — a fixed, deterministic order, so accumulating terms
    /// until the cumulative mass passes `target` is a valid CDF inversion,
    /// and the greedy order reaches the drawn value in `E|T − k₀| + O(1)`
    /// steps. `f64` rounding leftovers beyond the last enumerable (or
    /// representable) term resolve to the last enumerated value, a
    /// deviation bounded by the same `~1e-11`-scale tolerance as the
    /// thresholds the target was formed from.
    pub fn sample_cond_ge2(&self, target: f64) -> u64 {
        let n = self.n;
        debug_assert!(n >= 2.0, "T >= 2 needs at least two trials");
        let recip = recip_table();
        let s = self.p * inv_q(self.p);
        let inv_s = (1.0 - self.p) * self.inv_p;
        let inv_nk = 1.0 / (n - self.k0);
        let mut up_t = self.k0;
        let mut up_f = self.fm;
        // Anchors below the conditioning cut walk up to T = 2 first (they
        // only occur for λ < 2-ish queries, where this is at most two
        // recurrence steps).
        while up_t < 2.0 {
            let next = up_t + 1.0;
            up_f *= s * (n - up_t) * recip[next as usize];
            up_t = next;
        }
        let mut cum = up_f;
        let mut last = up_t;
        if target < cum {
            return up_t as u64;
        }
        let mut dn_t = up_t;
        let mut dn_f = up_f;
        // Next candidate pmf values on each side (0 once a side is
        // exhausted, so the greedy pick and the underflow cut-off both fall
        // out of the same comparison).
        let mut up_next = if up_t < n {
            let next = up_t + 1.0;
            let r = if (next as usize) < RECIP_TABLE_N {
                recip[next as usize]
            } else {
                1.0 / next
            };
            up_f * s * (n - up_t) * r
        } else {
            0.0
        };
        let mut dn_next = if dn_t > 2.0 {
            let y = (self.k0 - dn_t + 1.0) * inv_nk;
            let inv = if y.abs() <= MODE_H_MAX {
                inv_nk * (1.0 - y * (1.0 - y))
            } else {
                1.0 / (n - dn_t + 1.0)
            };
            dn_f * dn_t * inv_s * inv
        } else {
            0.0
        };
        loop {
            if up_next >= dn_next {
                if up_next <= 0.0 {
                    // Both sides exhausted or underflowed: rounding
                    // leftovers resolve to the last enumerated value.
                    return last as u64;
                }
                up_f = up_next;
                up_t += 1.0;
                cum += up_f;
                last = up_t;
                if target < cum {
                    return up_t as u64;
                }
                up_next = if up_t < n {
                    let next = up_t + 1.0;
                    let r = if (next as usize) < RECIP_TABLE_N {
                        recip[next as usize]
                    } else {
                        1.0 / next
                    };
                    up_f * s * (n - up_t) * r
                } else {
                    0.0
                };
            } else {
                dn_f = dn_next;
                dn_t -= 1.0;
                cum += dn_f;
                last = dn_t;
                if target < cum {
                    return dn_t as u64;
                }
                dn_next = if dn_t > 2.0 {
                    let y = (self.k0 - dn_t + 1.0) * inv_nk;
                    let inv = if y.abs() <= MODE_H_MAX {
                        inv_nk * (1.0 - y * (1.0 - y))
                    } else {
                        1.0 / (n - dn_t + 1.0)
                    };
                    dn_f * dn_t * inv_s * inv
                } else {
                    0.0
                };
            }
        }
    }

    /// Fused per-slot step for the window walk: advances the kernel by one
    /// conditional-walk move `(n, p) → (n − t, p′)` with the logarithmic
    /// increments already computed by the caller
    /// (`dlnp = ln(p′/p)`, `dlnq = ln((1−p′)/(1−p))`), and `inv_p_new`
    /// exact (the walk knows `1/p′ = w_left` as an integer). Skips the
    /// polynomial evaluations [`ModeKernel::update`] would repeat — the
    /// walk's fast loop shares one set of increments between its thresholds
    /// and the mode pmf. Falls back to the exact anchor on the same guard
    /// set as `update`.
    #[inline]
    pub(crate) fn step_precomputed(
        &mut self,
        t: f64,
        n_new: f64,
        p_new: f64,
        inv_p_new: f64,
        dlnp: f64,
        dlnq: f64,
    ) {
        if !(self.incremental_ok && t >= 0.0 && n_new >= self.n_floor && self.steps_left > 0) {
            self.anchor(n_new, p_new);
            return;
        }
        let dg = -t * (self.h1 + 0.5 * t * self.h2);
        let dl = dg + self.k0 * dlnp + (n_new - self.k0) * dlnq - t * self.lnq;
        // Negated so that a NaN move (degenerate anchor state) re-anchors.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(dl.abs() <= MAX_EXP_OFFSET) {
            self.anchor(n_new, p_new);
            return;
        }
        self.h1 += t * (self.h2 + t * self.h3);
        self.h2 += 2.0 * t * self.h3;
        self.fm *= exp_small(dl);
        self.lnq += dlnq;
        self.inv_p = inv_p_new;
        self.n = n_new;
        self.p = p_new;
        self.steps_left -= 1;
    }
}

/// Samples `T ~ Binomial(n, p)` exactly, in expected O(1) time for any
/// `(n, p)`.
///
/// Dispatch: degenerate parameters are returned directly; `p > 1/2` samples
/// the complement; small means (`n·min(p,1-p) < 10`) use CDF inversion with
/// the multiplicative pmf recurrence; larger means use the BTPE rejection
/// algorithm (Kachitvichyanukul & Schmeiser, *ACM TOMS* 14(1), 1988) with
/// the final acceptance test evaluated through [`ln_gamma`].
///
/// Exactness is property-tested (chi-square goodness of fit against the
/// independent geometric-skip sampler [`crate::sampling::sample_binomial`]
/// and against per-trial Bernoulli counting) in `tests/properties.rs`.
///
/// # Panics
/// Panics if `p` is not in `[0, 1]`.
///
/// # Example
/// ```
/// use mac_prob::binomial::sample_binomial_fast;
/// use mac_prob::rng::Xoshiro256pp;
/// use rand::SeedableRng;
/// let mut rng = Xoshiro256pp::seed_from_u64(1);
/// let t = sample_binomial_fast(1_000_000, 0.25, &mut rng);
/// assert!((t as f64 - 250_000.0).abs() < 5_000.0);
/// ```
pub fn sample_binomial_fast<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    assert!(
        (0.0..=1.0).contains(&p),
        "Binomial parameter must be in [0,1], got {p}"
    );
    if n == 0 || p == 0.0 {
        return 0;
    }
    if p == 1.0 {
        return n;
    }
    let (pp, flipped) = if p > 0.5 { (1.0 - p, true) } else { (p, false) };
    let x = if n as f64 * pp < INVERSION_MEAN_MAX {
        binomial_inversion(n, pp, rng)
    } else {
        binomial_btpe(n, pp, rng)
    };
    if flipped {
        n - x
    } else {
        x
    }
}

/// CDF inversion with the multiplicative pmf recurrence; requires
/// `n·p` small enough that `(1-p)^n` does not underflow (guaranteed by the
/// dispatch bound [`INVERSION_MEAN_MAX`]).
fn binomial_inversion<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    let nf = n as f64;
    let s = p / (1.0 - p);
    let mut f = (nf * (-p).ln_1p()).exp(); // (1-p)^n = P(T = 0)
    let mut u = rng.gen::<f64>();
    let mut x = 0u64;
    loop {
        if u < f || x >= n {
            // The x >= n guard absorbs the f64 rounding leftovers of the CDF.
            return x;
        }
        u -= f;
        x += 1;
        // f(x) = f(x-1) · (n - x + 1)/x · p/(1-p)
        f *= s * (nf - (x as f64 - 1.0)) / x as f64;
    }
}

/// BTPE: triangle/parallelogram/exponential-tail envelope with squeeze
/// acceptance. Requires `p ≤ 1/2` and `n·p ≥ 10`.
fn binomial_btpe<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    let nf = n as f64;
    let q = 1.0 - p;
    let npq = nf * p * q;
    // Mode and envelope geometry.
    let f_mode = nf * p + p;
    let mode = f_mode.floor();
    let p1 = (2.195 * npq.sqrt() - 4.6 * q).floor() + 0.5;
    let xm = mode + 0.5;
    let xl = xm - p1;
    let xr = xm + p1;
    let c = 0.134 + 20.5 / (15.3 + mode);
    let mut a = (f_mode - xl) / (f_mode - xl * p);
    let lambda_l = a * (1.0 + 0.5 * a);
    a = (xr - f_mode) / (xr * q);
    let lambda_r = a * (1.0 + 0.5 * a);
    let p2 = p1 * (1.0 + 2.0 * c);
    let p3 = p2 + c / lambda_l;
    let p4 = p3 + c / lambda_r;

    loop {
        let u = rng.gen::<f64>() * p4;
        let mut v = rng.gen::<f64>();
        let y: f64;
        if u <= p1 {
            // Triangular central region: always accepted.
            return (xm - p1 * v + u).floor() as u64;
        } else if u <= p2 {
            // Parallelogram.
            let x = xl + (u - p1) / c;
            v = v * c + 1.0 - (x - xm).abs() / p1;
            if v > 1.0 || v <= 0.0 {
                continue;
            }
            y = x.floor();
        } else if u <= p3 {
            // Left exponential tail.
            y = (xl + v.ln() / lambda_l).floor();
            if y < 0.0 {
                continue;
            }
            v *= (u - p2) * lambda_l;
        } else {
            // Right exponential tail.
            y = (xr - v.ln() / lambda_r).floor();
            if y > nf {
                continue;
            }
            v *= (u - p3) * lambda_r;
        }

        // Accept y iff v ≤ f(y)/f(mode).
        let k = (y - mode).abs();
        if k <= 20.0 || k >= npq / 2.0 - 1.0 {
            // Cheap explicit evaluation by the pmf recurrence.
            let s = p / q;
            let aa = s * (nf + 1.0);
            let mut f = 1.0;
            let mode_i = mode as i64;
            let y_i = y as i64;
            if mode_i < y_i {
                for i in (mode_i + 1)..=y_i {
                    f *= aa / i as f64 - s;
                }
            } else {
                for i in (y_i + 1)..=mode_i {
                    f /= aa / i as f64 - s;
                }
            }
            if v <= f {
                return y as u64;
            }
        } else {
            // Squeeze around the normal-scale log-acceptance ratio.
            let rho = (k / npq) * ((k * (k / 3.0 + 0.625) + 1.0 / 6.0) / npq + 0.5);
            let t = -k * k / (2.0 * npq);
            let alv = v.ln();
            if alv < t - rho {
                return y as u64;
            }
            if alv <= t + rho {
                // Final test: ln(f(y)/f(mode)) through O(1) log-gammas.
                let lf = ln_gamma(mode + 1.0) + ln_gamma(nf - mode + 1.0)
                    - ln_gamma(y + 1.0)
                    - ln_gamma(nf - y + 1.0)
                    + (y - mode) * (p / q).ln();
                if alv <= lf {
                    return y as u64;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;
    use crate::stats::StreamingStats;
    use rand::SeedableRng;

    fn assert_rel_close(a: f64, b: f64, tol: f64, label: &str) {
        let scale = a.abs().max(b.abs()).max(1e-300);
        assert!(
            (a - b).abs() / scale < tol || (a - b).abs() < 1e-300,
            "{label}: {a} vs {b}"
        );
    }

    #[test]
    fn thresholds_match_outcome_probabilities() {
        for &(m, p) in &[
            (1u64, 0.3f64),
            (2, 0.5),
            (10, 0.07),
            (1_000, 1e-3),
            (1_000_000, 2.3e-6),
            (5, 0.0),
            (5, 1.0),
            (1, 1.0),
            (0, 0.4),
        ] {
            let t = SlotThresholds::exact(m, p);
            let pr = slot_outcome_probabilities(m, p);
            assert_rel_close(t.t0, pr.silence, 1e-14, "t0");
            assert_rel_close(t.t1, pr.silence + pr.delivery, 1e-14, "t1");
        }
    }

    #[test]
    fn classify_matches_the_trichotomy_boundaries() {
        let t = SlotThresholds { t0: 0.25, t1: 0.75 };
        assert_eq!(t.classify(0.0), SlotOutcome::Silence);
        assert_eq!(t.classify(0.2499), SlotOutcome::Silence);
        assert_eq!(t.classify(0.25), SlotOutcome::Delivery);
        assert_eq!(t.classify(0.7499), SlotOutcome::Delivery);
        assert_eq!(t.classify(0.75), SlotOutcome::Collision);
        assert_eq!(t.classify(0.9999), SlotOutcome::Collision);
    }

    #[test]
    fn dead_slot_is_reported_for_underflowing_probabilities() {
        // 10^6 stations at p = 1/21: P(T <= 1) ~ e^{-47000}.
        let t = SlotThresholds::exact(1_000_000, 1.0 / 21.0);
        assert!(t.is_dead());
        assert_eq!(t.t0, 0.0);
        assert_eq!(t.t1, 0.0);
        // A representable case is not dead.
        assert!(!SlotThresholds::exact(100, 0.01).is_dead());
    }

    /// Drives a kernel along a One-fail-Adaptive-shaped drift and checks it
    /// against fresh exact evaluations at every step.
    #[test]
    fn kernel_tracks_a_drifting_schedule_to_high_precision() {
        let mut m = 1_000_000u64;
        let mut kappa = 420_000.0f64;
        let mut kernel = SlotKernel::new(m, 1.0 / kappa);
        for step in 0..200_000u64 {
            // AT-style drift: kappa grows by one per step; every ~7th step a
            // delivery removes a station and pulls kappa back.
            kappa += 1.0;
            if step % 7 == 3 {
                m -= 1;
                kappa = (kappa - 3.72).max(3.72);
            }
            let p = 1.0 / kappa;
            kernel.update(m as f64, p);
            let exact = SlotThresholds::exact(m, p);
            assert_rel_close(kernel.thresholds().t0, exact.t0, 1e-11, "t0");
            assert_rel_close(kernel.thresholds().t1, exact.t1, 1e-11, "t1");
            assert_eq!(kernel.is_dead(), exact.is_dead(), "step {step}");
        }
    }

    #[test]
    fn kernel_handles_alternating_large_and_small_probabilities() {
        // BT-style line: large p, m walking down through the dead boundary.
        let p = 1.0 / 21.0;
        let mut kernel = SlotKernel::new(2_000_000, p);
        assert!(kernel.is_dead());
        for m in (2..=40_000u64).rev().step_by(7) {
            kernel.update(m as f64, p);
            let exact = SlotThresholds::exact(m, p);
            assert_eq!(kernel.is_dead(), exact.is_dead(), "m={m}");
            if !exact.is_dead() {
                assert_rel_close(kernel.thresholds().t0, exact.t0, 1e-11, "t0");
                assert_rel_close(kernel.thresholds().t1, exact.t1, 1e-11, "t1");
            }
        }
    }

    #[test]
    fn kernel_handles_degenerate_probabilities() {
        let mut kernel = SlotKernel::new(10, 0.0);
        assert!(!kernel.is_dead());
        assert_eq!(kernel.classify(0.9999), SlotOutcome::Silence);
        kernel.update(10.0, 1.0);
        assert!(kernel.is_dead(), "10 stations at p=1 always collide");
        kernel.update(1.0, 1.0);
        assert!(!kernel.is_dead());
        assert_eq!(kernel.classify(0.5), SlotOutcome::Delivery);
        kernel.update(1.0, 0.25);
        assert_eq!(kernel.classify(0.5), SlotOutcome::Silence);
        assert_eq!(kernel.classify(0.8), SlotOutcome::Delivery);
    }

    #[test]
    fn kernel_cache_tracks_two_alternating_scales_accurately() {
        // An OFA-shaped schedule: an AT track near 1/m drifting slowly, and a
        // BT track near 1/log2(σ) jumping on deliveries. The two-line cache
        // must keep both tracks within the single-kernel tolerance.
        let mut cache = SlotKernelCache::new(10_000, 1.0 / 12_000.0);
        let mut m = 10_000u64;
        let mut kappa = 12_000.0;
        let mut sigma = 0u64;
        for step in 0..100_000u64 {
            let (mm, p) = if step % 2 == 0 {
                kappa += 1.0;
                (m, 1.0 / kappa)
            } else {
                (m, 1.0 / (1.0 + ((sigma + 1) as f64).log2()))
            };
            if step % 11 == 7 && m > 1 {
                m -= 1;
                sigma += 1;
                kappa = (kappa - 3.72).max(3.72);
            }
            let line = cache.select(mm as f64, p);
            let exact = SlotThresholds::exact(mm, p);
            assert_eq!(line.is_dead(), exact.is_dead(), "step {step}");
            if !exact.is_dead() {
                assert_rel_close(line.thresholds().t0, exact.t0, 1e-10, "t0");
                assert_rel_close(line.thresholds().t1, exact.t1, 1e-10, "t1");
            }
        }
    }

    #[test]
    fn kernel_cache_reports_its_track_probabilities_sorted() {
        let mut cache = SlotKernelCache::new(100, 0.25);
        assert_eq!(cache.track_probabilities(), (0.25, 0.25));
        let _ = cache.select(100.0, 0.001);
        let tracks = cache.track_probabilities();
        assert_eq!(tracks, (0.001, 0.25));
        // Exact re-selection of either track touches nothing.
        let _ = cache.select(100.0, 0.25);
        let _ = cache.select(100.0, 0.001);
        assert_eq!(cache.track_probabilities(), tracks);
    }

    #[test]
    fn mode_kernel_anchor_matches_exact_pmf() {
        use crate::special::binomial_pmf;
        for &(n, p) in &[
            (100u64, 0.08f64),
            (4_096, 1.0 / 512.0),
            (40_960, 10.0 / 40_960.0),
            (500_000, 50.0 / 500_000.0),
            (10_000_000, 117.0 / 10_000_000.0),
            (1_000_000, 0.3), // out of the series gate: log-gamma route
            (10, 0.0),
            (10, 1.0),
            (2, 0.5),
        ] {
            let kernel = ModeKernel::new(n, p);
            let exact = binomial_pmf(n, kernel.mode(), p);
            // The log-gamma reference itself drifts by ~n·ln(n)·ulp ≈ 1e-8
            // at paper-scale n; the series anchor is the sharper of the two
            // (pinned against exact rational/40-digit arithmetic below).
            let tol = if kernel.incremental_ok { 1e-7 } else { 1e-6 };
            assert_rel_close(kernel.pmf_mode(), exact, tol, &format!("n={n} p={p}"));
            // The anchored k0 is the true mode: no neighbour has more mass.
            let k0 = kernel.mode();
            if k0 > 0 {
                assert!(binomial_pmf(n, k0 - 1, p) <= exact * (1.0 + 1e-9));
            }
            if k0 < n {
                assert!(binomial_pmf(n, k0 + 1, p) <= exact * (1.0 + 1e-9));
            }
        }
    }

    #[test]
    fn mode_kernel_tracks_a_window_walk_drift_to_tolerance() {
        use crate::special::binomial_pmf;
        // Drive the kernel along a conditional-window-walk-shaped drift
        // (w shrinking by one per slot, n dropping by ~λ per collision) and
        // check the maintained pmf against fresh exact evaluations.
        let mut rng = Xoshiro256pp::seed_from_u64(17);
        let mut sharp_checks = 0u32;
        for &lambda in &[9.0f64, 30.0, 110.0] {
            let mut w = 400_000u64;
            let mut n = (lambda * w as f64) as u64;
            let mut kernel = ModeKernel::new(n, 1.0 / w as f64);
            for step in 0..200_000u64 {
                let t = sample_binomial_fast(n, 1.0 / w as f64, &mut rng).max(2);
                n -= t.min(n);
                w -= 1;
                if n < 2 || w < 4096 {
                    break;
                }
                let p = 1.0 / w as f64;
                kernel.update(n as f64, p);
                if step % 997 == 0 {
                    // Loose cross-check against the log-gamma pmf (itself
                    // ~1e-7 noisy at paper-scale n)...
                    let exact = binomial_pmf(n, kernel.mode(), p);
                    assert_rel_close(
                        kernel.pmf_mode(),
                        exact,
                        1e-6,
                        &format!("lambda={lambda} step={step} n={n} w={w}"),
                    );
                    // ...and a sharp check against a fresh exact anchor
                    // (validated to ~1e-13 against 40-digit arithmetic in
                    // the anchor tests), whenever it lands on the same mode.
                    let fresh = ModeKernel::new(n, p);
                    if fresh.mode() == kernel.mode() {
                        sharp_checks += 1;
                        assert_rel_close(
                            kernel.pmf_mode(),
                            fresh.pmf_mode(),
                            1e-9,
                            &format!("drift lambda={lambda} step={step} n={n} w={w}"),
                        );
                    }
                }
            }
        }
        assert!(sharp_checks >= 50, "only {sharp_checks} sharp drift checks");
    }

    #[test]
    fn mode_kernel_reanchors_after_large_moves() {
        use crate::special::binomial_pmf;
        let mut kernel = ModeKernel::new(1_000_000, 1.0 / 100_000.0);
        // A huge jump in both n and p must still land exactly.
        kernel.update(30_000.0, 1.0 / 3_000.0);
        let exact = binomial_pmf(30_000, kernel.mode(), 1.0 / 3_000.0);
        assert_rel_close(kernel.pmf_mode(), exact, 1e-7, "jump");
        // Growing n (never produced by the walk) is also just a re-anchor.
        kernel.update(2_000_000.0, 1.0 / 100_000.0);
        let exact = binomial_pmf(2_000_000, kernel.mode(), 1.0 / 100_000.0);
        assert_rel_close(kernel.pmf_mode(), exact, 1e-7, "regrow");
    }

    #[test]
    fn mode_kernel_anchor_matches_exact_rational_value() {
        // C(40960, 10)·(1/4096)^10·(4095/4096)^40950, computed with exact
        // rational arithmetic and rounded to f64: the series anchor must hit
        // it to a few ulps (the log-gamma route is ~5e-11 off here).
        let kernel = ModeKernel::new(40_960, 1.0 / 4_096.0);
        assert_eq!(kernel.mode(), 10);
        let exact = 0.125_125_310_677_121_35_f64;
        assert!(
            (kernel.pmf_mode() - exact).abs() < 1e-14,
            "{} vs {exact}",
            kernel.pmf_mode()
        );
    }

    #[test]
    fn mode_sampler_matches_conditional_pmf_exhaustively() {
        use crate::special::binomial_pmf;
        // Deterministic sweep: feed equally spaced targets through the
        // sampler and reconstruct the conditional pmf; compare cell by cell
        // against the exact conditional distribution.
        for &(n, p) in &[(64u64, 0.125f64), (5_000, 2e-3), (200_000, 3e-4)] {
            let kernel = ModeKernel::new(n, p);
            let t1 = SlotThresholds::exact(n, p).t1;
            let mass = 1.0 - t1;
            let grid = 200_001u64;
            // Counts keyed by sampled value; only ever indexed, and the
            // final comparison sorts keys — order never matters.
            #[allow(clippy::disallowed_types)]
            let mut counts = std::collections::HashMap::new();
            for i in 0..grid {
                let target = mass * (i as f64 + 0.5) / grid as f64;
                *counts.entry(kernel.sample_cond_ge2(target)).or_insert(0u64) += 1;
            }
            for (&t, &count) in &counts {
                assert!(t >= 2 && t <= n, "n={n} p={p}: sampled {t}");
                let expect = binomial_pmf(n, t, p) / mass;
                let got = count as f64 / grid as f64;
                // The grid discretisation is 1/grid per cell.
                assert!(
                    (got - expect).abs() < 3.0 / grid as f64 + 0.02 * expect,
                    "n={n} p={p} t={t}: {got:.6} vs {expect:.6}"
                );
            }
            let total: u64 = counts.values().sum();
            assert_eq!(total, grid);
        }
    }

    #[test]
    fn fast_binomial_edge_cases() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        assert_eq!(sample_binomial_fast(0, 0.5, &mut rng), 0);
        assert_eq!(sample_binomial_fast(17, 0.0, &mut rng), 0);
        assert_eq!(sample_binomial_fast(17, 1.0, &mut rng), 17);
        for _ in 0..1000 {
            assert!(sample_binomial_fast(5, 0.5, &mut rng) <= 5);
        }
    }

    #[test]
    fn fast_binomial_mean_and_variance_match_theory() {
        // Exercises inversion (small mean), BTPE (large mean) and the
        // complement path (p > 1/2).
        for &(n, p) in &[
            (20u64, 0.25f64),
            (100, 0.02),
            (7, 0.9),
            (1_000, 0.3),
            (1_000_000, 0.001),
            (100_000, 0.75),
        ] {
            let mut rng = Xoshiro256pp::seed_from_u64(5);
            let mut stats = StreamingStats::new();
            let reps = 60_000;
            for _ in 0..reps {
                stats.push(sample_binomial_fast(n, p, &mut rng) as f64);
            }
            let mean = n as f64 * p;
            let var = n as f64 * p * (1.0 - p);
            assert!(
                (stats.mean() - mean).abs() < 5.0 * (var / reps as f64).sqrt() + 1e-9,
                "n={n} p={p}: mean {} vs {mean}",
                stats.mean()
            );
            assert!(
                (stats.variance() - var).abs() < 0.05 * (var + 1.0),
                "n={n} p={p}: var {} vs {var}",
                stats.variance()
            );
        }
    }

    #[test]
    fn fast_binomial_never_exceeds_n() {
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        for &(n, p) in &[(30u64, 0.5f64), (1000, 0.04), (50, 0.99)] {
            for _ in 0..20_000 {
                assert!(sample_binomial_fast(n, p, &mut rng) <= n);
            }
        }
    }
}
