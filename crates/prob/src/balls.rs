//! Balls-in-bins occupancy experiments.
//!
//! Contention-window protocols (Exp Back-on/Back-off, Loglog-iterated
//! Back-off, r-exponential back-off) have every active station pick one slot
//! uniformly at random inside a window of `w` slots. A window with `m` active
//! stations is therefore exactly an experiment in which `m` balls are dropped
//! uniformly at random into `w` bins; the stations whose ball lands alone in
//! its bin deliver their message (Lemma 1 of the paper analyses precisely this
//! process).
//!
//! [`walk_window`] resolves one such window into a [`SlotOccupancy`] and its
//! ascending singleton-bin list; [`walk_window_counts`] is the same walk,
//! draw for draw, without the list. Conditional binomial draws split the
//! window into blocks and single slots; one private per-ball resolver
//! finishes the blocks and the sparse tail, with a dense per-bin counter
//! window when `w` is comparable to `m` and a sorted-draw scan when `w ≫ m`
//! (so a window of four billion slots with three active stations does not
//! allocate four billion counters). Every buffer lives in a reusable
//! [`WalkScratch`], so steady-state windows perform **zero heap
//! allocations**. The walk is exact in law, not in stream; the property
//! tests check it against the exact occupancy law.

use crate::binomial::{
    exp_small, inv_q, recip_table, sample_binomial_fast, ModeKernel, SlotKernel, DEAD_LOG,
    MAX_EXP_OFFSET, RECIP_TABLE_N,
};
use crate::outcome::SlotOutcome;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Density switch of the walk: `m` balls in `w` bins are resolved against
/// dense per-bin counters when `w <= max(8·m, 1024)`, by a sorted scan of
/// the per-ball draws otherwise.
#[inline]
fn dense_limit(balls: u64) -> u64 {
    balls.saturating_mul(8).max(1024)
}

/// Counts-only summary of one window resolved by [`walk_window`] or
/// [`walk_window_counts`].
///
/// There is no per-bin load beyond the 0/1/≥2 trichotomy: the per-slot
/// regimes never sample it, and the certain-collision shortcut samples
/// nothing at all. The empty bins are not counted: there are
/// `bins − singletons − colliding_bins` of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotOccupancy {
    /// Number of bins (slots) in the window.
    pub bins: u64,
    /// Number of balls (stations) thrown.
    pub balls: u64,
    /// Bins holding exactly one ball.
    pub singletons: u64,
    /// Bins holding two or more balls.
    pub colliding_bins: u64,
    /// Largest occupied bin index (`None` when `balls == 0`).
    ///
    /// When `colliding_bins == 0` this is the position of the last delivered
    /// message inside the window, which is what the window simulator needs to
    /// close its final window without a singleton list.
    pub max_occupied_bin: Option<u64>,
}

/// Reusable buffers for [`walk_window`] and [`walk_window_counts`]: the
/// ascending singleton-bin list of the most recent detailed walk, and the
/// per-ball resolver's dense counter window and sparse draw list. The
/// counter window is all-zero between calls. The buffers grow to the
/// high-water mark of the windows they serve and are then reused; construct
/// one scratch per run (or per worker thread). (The walk's slot kernel —
/// thresholds and the mode-anchored collision pmf, see [`ModeKernel`] — is
/// per-window state and lives on the stack.)
///
/// # Example
/// ```
/// use mac_prob::balls::{walk_window_counts, WalkScratch};
/// use mac_prob::rng::Xoshiro256pp;
/// use rand::SeedableRng;
///
/// let mut rng = Xoshiro256pp::seed_from_u64(3);
/// let mut scratch = WalkScratch::new();
/// for _ in 0..4 {
///     let occ = walk_window_counts(10, 100, &mut rng, &mut scratch);
///     // At most 10 of the 100 bins hold a ball; the rest are empty.
///     let empty_bins = occ.bins - occ.singletons - occ.colliding_bins;
///     assert!(empty_bins >= 90);
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct WalkScratch {
    singles: Vec<u64>,
    counts: Vec<u32>,
    draws: Vec<u64>,
}

impl WalkScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Singleton bins (ascending) of the most recent [`walk_window`] call
    /// (empty after a counts-only [`walk_window_counts`]).
    pub fn singleton_bins(&self) -> &[u64] {
        &self.singles
    }
}

/// Collision slots whose transmitter count exceeds this `m·p` are resolved
/// by the mode-anchored sampler ([`ModeKernel::sample_cond_ge2`], O(√λ)
/// two-sided steps from the mode) instead of term-by-term CDF continuation
/// from `T = 1` (O(λ) terms). Measured crossover on the 2.1 GHz CI-class
/// box: the continuation's smaller constant wins while the expected term
/// count `≈ λ` stays single-digit.
const WALK_MODE_LAMBDA_MIN: f64 = 8.0;

/// Smallest `w_left` served by the walk's fused fast loop: below it
/// `p = 1/w_left` leaves the documented truncation range of the per-slot
/// series (geometric `p` advance, `ln q` increment) and the walk falls back
/// to the general [`SlotKernel`] tail loop — at most this many slots per
/// window.
const WALK_FAST_W_MIN: u64 = 4096;

/// Block size of the conditional-binomial block decomposition: the walk
/// resolves low-λ stretches of huge windows in blocks of this many bins —
/// one `Binomial(m_left, b/w_left)` draw decides how many balls land in the
/// block (the conditional chain at block granularity, exact in law), and
/// the per-ball resolver then throws them against a counter window that
/// fits in L1, instead of one cache-missing increment per ball into a
/// `w`-sized array.
const WALK_BLOCK_BINS: u64 = 4096;

/// λ at which the walk switches from block decomposition to the per-slot
/// mode-anchored loop (measured crossover: the per-ball resolver's
/// cost grows linearly in λ, the per-slot loop's is flat once collisions
/// dominate), with hysteresis so in-window λ drift cannot ping-pong the
/// regimes.
const WALK_PER_SLOT_LAMBDA_ENTER: f64 = 48.0;

/// λ below which the per-slot loop hands back to block decomposition.
const WALK_PER_SLOT_LAMBDA_EXIT: f64 = 32.0;

/// Slots between exact re-divisions of the fast loop's series-maintained
/// `p = 1/w_left` (no drift accumulates past one period).
const WALK_P_RESYNC: u32 = 256;

/// Slots between exact re-exponentiations of the fast loop's
/// multiplicatively maintained `P(T = 0)` (bounds the accumulated rounding
/// and polynomial truncation of the running product below `~1e-11`).
const WALK_T0_RESYNC: u32 = 4096;

/// Two-tier incremental `exp` for the fast loop's per-slot `P(T = 0)`
/// update: a cubic for the common tiny move (truncation `d⁴/24 < 4e-16` at
/// the `3e-4` bound), the shared degree-7 polynomial up to `1/16`.
#[inline]
fn exp_walk(d: f64) -> f64 {
    if d.abs() <= 3e-4 {
        1.0 + d * (1.0 + d * (0.5 + d * (1.0 / 6.0)))
    } else {
        exp_small(d)
    }
}

/// Finishes the CDF inversion a collision classification started: `u ≥ t1`,
/// so the pmf terms are walked upward from `T = 2` until the cumulative
/// mass passes `u` (table-based reciprocals keep the recurrence free of a
/// latency-chained divide). `s = p/(1−p)` as computed by the caller's
/// series; `t1 − t0` is `P(T = 1)`.
#[inline]
fn continue_cdf_inversion(u: f64, t0: f64, t1: f64, s: f64, m_f: f64, m_left: u64) -> u64 {
    let recip = recip_table();
    let mut t = 1u64;
    let mut term = t1 - t0;
    let mut cum = t1;
    loop {
        t += 1;
        let inv_t = if (t as usize) < RECIP_TABLE_N {
            recip[t as usize]
        } else {
            1.0 / t as f64
        };
        term *= s * (m_f - (t as f64 - 1.0)) * inv_t;
        cum += term;
        if u < cum || t >= m_left {
            break;
        }
    }
    t
}

/// Log-probability bound below which a window is resolved as all-collisions
/// without sampling (see [`walk_window`]): with the union bound on *any* bin
/// holding ≤ 1 ball below `e^{-100} ≈ 10^{-44}`, the total-variation
/// distance the shortcut introduces is far below the `f64` rounding noise
/// the sampled path accumulates anyway (every per-slot probability carries
/// ~1e-16 relative rounding, over millions of slots), and no statistical
/// test at any feasible sample size can tell the difference.
const ALL_COLLIDE_LOG_BOUND: f64 = -100.0;

/// Drops `m` balls uniformly at random into `w` bins by walking the window
/// left to right with conditional binomial draws: with `m_left` balls and
/// `w_left` bins still in play, the next `b` bins receive
/// `Binomial(m_left, b/w_left)` of the balls. Cost is O(w) draws instead of
/// O(m + w) per-ball work, which is the difference between O(m) and O(1)
/// per *slot* for the early back-off windows where `m ≫ w`.
///
/// Regimes, dispatched per call and then per round on the load
/// `λ = m_left/w_left`:
///
/// * **Certain collision** — when the union bound
///   `w·(1-1/w)^{m-1}·(1 + (m-1)/w)` on the probability of *any* bin holding
///   ≤ 1 ball is below `e^{-100}` (`ALL_COLLIDE_LOG_BOUND`), the window is
///   resolved as `w` colliding bins without consuming any randomness. This
///   is the only place the aggregate path deviates from the exact
///   distribution, by a total variation distance `< e^{-100} ≈ 10^{-44}`
///   (documented in `crates/sim/DESIGN.md` §5).
/// * **Blocks** (`λ < 48`) — one binomial draw sends `n_b` balls into the
///   next 4096 bins (or the whole remainder below 6144), and the per-ball
///   resolver throws them against a cache-resident counter window.
/// * **Per slot** (`λ ≥ 48`, until λ falls below 32) — one classification
///   draw per slot against incrementally maintained thresholds
///   ([`SlotKernel`], or the fused loop's own series); collision slots also
///   sample the transmitter count (CDF continuation for small `m·p`, the
///   mode-anchored [`ModeKernel`] otherwise) to keep the conditional chain
///   exact.
/// * **Sparse tail** — once `w_left` exceeds `max(8·m_left, 1024)` the
///   remaining balls are exactly uniform on the remaining bins, and the
///   per-ball resolver throws them with a sorted-draw scan.
///
/// The ascending singleton-bin list is left in `scratch`
/// ([`WalkScratch::singleton_bins`]). The walk is exact in law, not in
/// stream: it matches the per-ball experiment distributionally, and the
/// property tests check it against the exact occupancy law.
///
/// # Example
/// ```
/// use mac_prob::balls::{walk_window, WalkScratch};
/// use mac_prob::rng::Xoshiro256pp;
/// use rand::SeedableRng;
///
/// let mut rng = Xoshiro256pp::seed_from_u64(3);
/// let mut scratch = WalkScratch::new();
/// let occ = walk_window(10, 100, &mut rng, &mut scratch);
/// assert_eq!(occ.balls, 10);
/// let empty_bins = occ.bins - occ.singletons - occ.colliding_bins;
/// assert!(empty_bins >= 90);
/// assert_eq!(scratch.singleton_bins().len() as u64, occ.singletons);
/// ```
///
/// # Panics
/// Panics if `w == 0` while `m > 0`.
pub fn walk_window<R: Rng + ?Sized>(
    m: u64,
    w: u64,
    rng: &mut R,
    scratch: &mut WalkScratch,
) -> SlotOccupancy {
    walk_window_impl::<true, R>(m, w, rng, scratch)
}

/// Counts-only variant of [`walk_window`]: identical law and identical RNG
/// consumption, but the ascending singleton-bin list is *not* maintained
/// (the scratch's view is left empty). This is the window simulator's
/// steady-state path when no adversary is active and no delivery slots are
/// recorded — at low λ a third of all slots are deliveries, and skipping
/// the list write keeps the walk's inner loop free of memory traffic.
pub fn walk_window_counts<R: Rng + ?Sized>(
    m: u64,
    w: u64,
    rng: &mut R,
    scratch: &mut WalkScratch,
) -> SlotOccupancy {
    walk_window_impl::<false, R>(m, w, rng, scratch)
}

fn walk_window_impl<const COLLECT: bool, R: Rng + ?Sized>(
    m: u64,
    w: u64,
    rng: &mut R,
    scratch: &mut WalkScratch,
) -> SlotOccupancy {
    scratch.singles.clear();
    if m == 0 {
        return SlotOccupancy {
            bins: w,
            balls: 0,
            singletons: 0,
            colliding_bins: 0,
            max_occupied_bin: None,
        };
    }
    assert!(w > 0, "cannot throw {m} balls into zero bins");
    if m == 1 {
        let bin = rng.gen_range(0..w);
        if COLLECT {
            scratch.singles.push(bin);
        }
        return SlotOccupancy {
            bins: w,
            balls: 1,
            singletons: 1,
            colliding_bins: 0,
            max_occupied_bin: Some(bin),
        };
    }
    // Certain-collision shortcut: union bound on any bin holding <= 1 ball.
    let mf = m as f64;
    let wf = w as f64;
    let ln_bound = wf.ln() + (mf - 1.0) * (-1.0 / wf).ln_1p() + ((mf - 1.0) / wf).ln_1p();
    if ln_bound < ALL_COLLIDE_LOG_BOUND {
        return SlotOccupancy {
            bins: w,
            balls: m,
            singletons: 0,
            colliding_bins: w,
            max_occupied_bin: Some(w - 1),
        };
    }

    let mut m_left = m;
    let mut singletons = 0u64;
    let mut colliding = 0u64;
    let mut max_occupied: Option<u64> = None;
    let mut i = 0u64;
    // The mode-anchored collision pmf, shared by the per-slot regimes.
    // Anchoring is an O(1) series evaluation and the kernel re-anchors
    // itself exactly whenever its drift guards trip, so it is simply
    // (re-)synchronised on use whenever a regime left it stale.
    let mut mode = ModeKernel::new(m, 1.0 / wf);

    // Outer dispatch: each round picks the cheapest exact resolver for the
    // current load λ = m_left/w_left (the measured crossover table lives in
    // the constants above; see `crates/sim/DESIGN.md` §7):
    //
    // * `w_left > dense_limit(m_left)` — the sparse tail: every remaining
    //   ball goes to the per-ball resolver at once, terminal;
    // * `λ < WALK_PER_SLOT_LAMBDA_ENTER` — one conditional-binomial
    //   **block**: `T_b ~ Binomial(m_left, b/w_left)` balls land in the
    //   next `b` bins (4096, or the whole remainder up to 6143 so no tiny
    //   trailing block is left) and the per-ball resolver throws them
    //   against a cache-resident counter window;
    // * otherwise — the per-slot mode-anchored loop (fused fast loop for
    //   `w_left ≥ 4096`, the general `SlotKernel` tail below that).
    'outer: while m_left > 0 && i < w {
        let w_left = w - i;
        let sparse = w_left > dense_limit(m_left);
        if sparse || (m_left as f64 / w_left as f64) < WALK_PER_SLOT_LAMBDA_ENTER {
            let b = if sparse || w_left < WALK_BLOCK_BINS + WALK_BLOCK_BINS / 2 {
                w_left
            } else {
                WALK_BLOCK_BINS
            };
            let n_b = if b == w_left {
                m_left
            } else {
                sample_binomial_fast(m_left, b as f64 / w_left as f64, rng)
            };
            if n_b > 0 {
                let blk = resolve_per_ball::<COLLECT, R>(n_b, b, i, rng, scratch);
                singletons += blk.singletons;
                colliding += blk.colliding_bins;
                max_occupied = blk.max_occupied_bin.map(|bin| i + bin);
                m_left -= n_b;
            }
            i += b;
            continue 'outer;
        }
        if w_left < WALK_FAST_W_MIN {
            // ---- general tail loop (high λ in a sub-4096 window tail) ----
            let mut kernel = SlotKernel::new(m_left, 1.0 / w_left as f64);
            while i < w && m_left > 0 {
                let w_left = w - i;
                if w_left > dense_limit(m_left) {
                    continue 'outer;
                }
                let p = 1.0 / w_left as f64;
                let m_f = m_left as f64;
                kernel.update(m_f, p);
                let taken = if kernel.is_dead() {
                    colliding += 1;
                    max_occupied = Some(i);
                    mode.update(m_f, p);
                    mode.sample_cond_ge2(rng.gen::<f64>())
                } else {
                    let thresholds = kernel.thresholds();
                    let u = rng.gen::<f64>();
                    match thresholds.classify(u) {
                        SlotOutcome::Silence => 0,
                        SlotOutcome::Delivery => {
                            singletons += 1;
                            if COLLECT {
                                scratch.singles.push(i);
                            }
                            max_occupied = Some(i);
                            1
                        }
                        SlotOutcome::Collision => {
                            colliding += 1;
                            max_occupied = Some(i);
                            if m_f * p < WALK_MODE_LAMBDA_MIN {
                                continue_cdf_inversion(
                                    u,
                                    thresholds.t0,
                                    thresholds.t1,
                                    p * inv_q(p),
                                    m_f,
                                    m_left,
                                )
                            } else {
                                mode.update(m_f, p);
                                mode.sample_cond_ge2(u - thresholds.t1)
                            }
                        }
                    }
                };
                m_left -= taken;
                i += 1;
            }
            break 'outer;
        }
        // ---- per-slot fused fast loop (λ ≥ enter threshold, w_left ≥ 4096) ----
        //
        // All slot state lives in locals: p = 1/w_left by geometric series
        // (exact re-division every WALK_P_RESYNC slots), ln q by its
        // per-slot increment δ = ln(1 − p′²) (the exact log-ratio of
        // consecutive q's), ℓ = n·ln q additively, and t0 = e^ℓ
        // multiplicatively (exact re-sync every WALK_T0_RESYNC slots;
        // lazily re-derived after dead stretches). The mode pmf advances
        // off the same increments, using Δln p = ln(w/(w−1)) = −ln q.
        let mut p = 1.0 / w_left as f64;
        let mut lnq = (-p).ln_1p();
        let mut nn = m_left as f64;
        let mut ell = nn * lnq;
        let mut t0 = if ell <= DEAD_LOG { 0.0 } else { ell.exp() };
        let mut t0_stale = false;
        let mut p_resync: u32 = WALK_P_RESYNC;
        let mut t0_resync: u32 = WALK_T0_RESYNC;
        loop {
            let taken = if ell <= DEAD_LOG {
                // Certain collision at f64 resolution (λ ≳ 37 here), but
                // the ball count still shapes the rest of the window:
                // sample T | T ≥ 2 from the mode-anchored pmf with a fresh
                // uniform (the conditioning event has probability 1 at f64
                // resolution, so the full unit interval is the conditional
                // mass).
                t0_stale = true;
                colliding += 1;
                max_occupied = Some(i);
                if mode.n() != nn || mode.p() != p {
                    mode.update(nn, p);
                }
                mode.sample_cond_ge2(rng.gen::<f64>())
            } else {
                if t0_stale {
                    // Waking from a dead stretch (or a freak-move resync):
                    // the multiplicative product was not advanced.
                    t0 = ell.exp();
                    t0_stale = false;
                    t0_resync = WALK_T0_RESYNC;
                }
                let s = p * (1.0 + p * (1.0 + p * (1.0 + p)));
                let t1 = (t0 + t0 * (nn * s)).min(1.0);
                let u = rng.gen::<f64>();
                if u < t0 {
                    0
                } else if u < t1 {
                    singletons += 1;
                    if COLLECT {
                        scratch.singles.push(i);
                    }
                    max_occupied = Some(i);
                    1
                } else {
                    // Mode-anchored two-sided inversion on the leftover
                    // uniform mass: O(√λ) recurrence steps from the
                    // incrementally maintained mode pmf instead of O(λ)
                    // continuation terms or a BTPE rejection loop. (This
                    // loop only serves λ ≥ 32, so the λ < 8 continuation
                    // band lives in the block and tail regimes.)
                    debug_assert!(nn * p >= WALK_PER_SLOT_LAMBDA_EXIT);
                    colliding += 1;
                    max_occupied = Some(i);
                    if mode.n() != nn || mode.p() != p {
                        mode.update(nn, p);
                    }
                    mode.sample_cond_ge2(u - t1)
                }
            };
            m_left -= taken;
            i += 1;
            if m_left == 0 || i >= w {
                break 'outer;
            }
            let w_left_new = w - i;
            if w_left_new < WALK_FAST_W_MIN {
                continue 'outer;
            }
            // Advance the maintained state to the next slot.
            let t = taken as f64;
            nn -= t;
            p_resync -= 1;
            let p_new = if p_resync == 0 {
                p_resync = WALK_P_RESYNC;
                1.0 / w_left_new as f64
            } else {
                p * (1.0 + p * (1.0 + p * (1.0 + p)))
            };
            // δ = ln(q′/q) = ln(1 − p′²) exactly (q′/q = w(w−2)/(w−1)²).
            let x = p_new * p_new;
            let dlnq = -x * (1.0 + 0.5 * x);
            let dl = nn * dlnq - t * lnq;
            if dl.abs() <= MAX_EXP_OFFSET {
                // Δln p = ln(w/(w−1)) = −ln(1 − 1/w) = −ln q (old). The
                // mode pmf is consulted on essentially every slot at these
                // loads, so it is stepped unconditionally.
                mode.step_precomputed(t, nn, p_new, w_left_new as f64, -lnq, dlnq);
                ell += dl;
                lnq += dlnq;
                if !t0_stale {
                    if ell <= DEAD_LOG {
                        t0_stale = true;
                    } else {
                        t0_resync -= 1;
                        if t0_resync == 0 {
                            t0_resync = WALK_T0_RESYNC;
                            t0 = ell.exp();
                        } else {
                            t0 *= exp_walk(dl);
                        }
                    }
                }
                p = p_new;
            } else {
                // A freak collision count (taken ≫ λ) pushed the move
                // outside the polynomial range: re-derive exactly.
                p = 1.0 / w_left_new as f64;
                lnq = (-p).ln_1p();
                ell = nn * lnq;
                t0_stale = true;
                p_resync = WALK_P_RESYNC;
            }
            if nn * p < WALK_PER_SLOT_LAMBDA_EXIT || w_left_new > dense_limit(m_left) {
                // λ drifted back to block territory (or the window went
                // sparse): hand control back to the dispatcher.
                continue 'outer;
            }
        }
    }

    debug_assert_eq!(m_left, 0, "every ball lands in some bin");
    SlotOccupancy {
        bins: w,
        balls: m,
        singletons,
        colliding_bins: colliding,
        max_occupied_bin: max_occupied,
    }
}

/// Throws `m ≥ 1` balls uniformly into the `w` bins that start at window
/// position `offset`: one uniform draw per ball, in ball order, in both
/// density regimes. Singleton bins are pushed onto the scratch's list,
/// shifted by `offset` and ascending, when `COLLECT`; the returned
/// `max_occupied_bin` is relative to the block.
///
/// Dense blocks (`w ≤ dense_limit(m)`) stream each draw into a counter
/// increment, then make one branch-light sequential scan for the tallies
/// and one sequential re-zeroing fill. Both are O(w), but at `w ≤ 8m` they
/// run at memory bandwidth, far cheaper than tracking the tallies inside
/// the random-access increment loop (or re-zeroing by re-touching `m`
/// random entries). Sparse blocks sort the draws and scan the runs.
fn resolve_per_ball<const COLLECT: bool, R: Rng + ?Sized>(
    m: u64,
    w: u64,
    offset: u64,
    rng: &mut R,
    scratch: &mut WalkScratch,
) -> SlotOccupancy {
    debug_assert!(m > 0 && w > 0);
    let mut singletons = 0u64;
    let mut colliding = 0u64;
    let mut last = 0u64;
    if w <= dense_limit(m) {
        if scratch.counts.len() < w as usize {
            scratch.counts.resize(w as usize, 0);
        }
        let counts = &mut scratch.counts[..w as usize];
        for _ in 0..m {
            counts[rng.gen_range(0..w) as usize] += 1;
        }
        for (bin, &count) in counts.iter().enumerate() {
            singletons += u64::from(count == 1);
            colliding += u64::from(count > 1);
            if COLLECT && count == 1 {
                scratch.singles.push(offset + bin as u64);
            }
            if count > 0 {
                last = bin as u64;
            }
        }
        counts.fill(0);
    } else {
        scratch.draws.clear();
        scratch.draws.extend((0..m).map(|_| rng.gen_range(0..w)));
        scratch.draws.sort_unstable();
        for run in scratch.draws.chunk_by(|a, b| a == b) {
            if run.len() == 1 {
                singletons += 1;
                if COLLECT {
                    scratch.singles.push(offset + run[0]);
                }
            } else {
                colliding += 1;
            }
            last = run[0];
        }
    }
    SlotOccupancy {
        bins: w,
        balls: m,
        singletons,
        colliding_bins: colliding,
        max_occupied_bin: Some(last),
    }
}

/// Expected fraction of balls that land alone when `m` balls are thrown into
/// `w` bins: `(1 - 1/w)^(m-1)`.
///
/// This is the quantity Lemma 1 of the paper bounds from below by `δ` (for
/// `w ≥ m` large enough); the walk's exact-law tests check their singleton
/// pmf against it.
pub fn expected_singleton_fraction(m: u64, w: u64) -> f64 {
    if m == 0 {
        return 0.0;
    }
    assert!(w > 0, "zero bins");
    if m == 1 {
        // A lone ball is always alone; at w = 1 the log form below would
        // evaluate 0·ln 0 = NaN.
        return 1.0;
    }
    let q = -1.0 / w as f64;
    ((m as f64 - 1.0) * q.ln_1p()).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;
    use rand::SeedableRng;

    #[test]
    fn zero_balls_everything_empty() {
        let mut rng = Xoshiro256pp::seed_from_u64(0);
        let occ = walk_window(0, 5, &mut rng, &mut WalkScratch::new());
        assert_eq!(occ.balls, 0);
        assert_eq!(occ.bins, 5);
        assert_eq!(occ.singletons, 0);
        assert_eq!(occ.colliding_bins, 0);
        assert_eq!(occ.max_occupied_bin, None);
    }

    #[test]
    #[should_panic(expected = "zero bins")]
    fn rejects_throwing_into_zero_bins() {
        let mut rng = Xoshiro256pp::seed_from_u64(0);
        let _ = walk_window(1, 0, &mut rng, &mut WalkScratch::new());
    }

    #[test]
    fn expected_singleton_fraction_edges() {
        assert_eq!(expected_singleton_fraction(0, 10), 0.0);
        assert_eq!(expected_singleton_fraction(1, 10), 1.0);
        assert_eq!(expected_singleton_fraction(1, 1), 1.0);
        assert_eq!(expected_singleton_fraction(2, 1), 0.0);
        assert!((expected_singleton_fraction(2, 2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn singleton_fraction_matches_lemma_one_expectation() {
        // With w = m, the expected fraction of singleton balls tends to 1/e.
        // (m = w = 10⁴ runs as two blocks.)
        let m = 10_000u64;
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let mut scratch = WalkScratch::new();
        let reps = 50;
        let total_singletons: u64 = (0..reps)
            .map(|_| walk_window_counts(m, m, &mut rng, &mut scratch).singletons)
            .sum();
        let frac = total_singletons as f64 / (m * reps) as f64;
        let expected = expected_singleton_fraction(m, m);
        assert!((expected - (-1.0f64).exp()).abs() < 1e-3);
        assert!((frac - expected).abs() < 0.01, "{frac} vs {expected}");
    }

    #[test]
    fn all_balls_one_bin_when_single_bin() {
        let mut rng = Xoshiro256pp::seed_from_u64(12);
        let occ = walk_window(7, 1, &mut rng, &mut WalkScratch::new());
        assert_eq!(occ.colliding_bins, 1);
        assert_eq!(occ.singletons, 0);
        assert_eq!(occ.max_occupied_bin, Some(0));
    }

    #[test]
    fn max_occupied_bin_is_the_last_delivery_when_collision_free() {
        // One dense whole-window block, then the sparse tail.
        let mut scratch = WalkScratch::new();
        let mut rng = Xoshiro256pp::seed_from_u64(23);
        for w in [1024u64, 100_000] {
            let mut seen_collision_free = false;
            for _ in 0..100 {
                let occ = walk_window(8, w, &mut rng, &mut scratch);
                if occ.colliding_bins == 0 {
                    seen_collision_free = true;
                    assert_eq!(
                        occ.max_occupied_bin,
                        scratch.singleton_bins().last().copied()
                    );
                }
            }
            assert!(seen_collision_free, "8 balls in {w} bins collide rarely");
        }
    }

    #[test]
    fn walk_window_partitions_bins_and_conserves_balls() {
        let mut rng = Xoshiro256pp::seed_from_u64(31);
        let mut scratch = WalkScratch::new();
        for &(m, w) in &[
            (0u64, 7u64),
            (1, 5),
            (2, 2),
            (7, 1),
            (50, 10),
            (100, 100),
            (1000, 64),
            (5000, 4000),
            (12, 100_000),
        ] {
            for _ in 0..20 {
                let occ = walk_window(m, w, &mut rng, &mut scratch);
                assert_eq!(occ.balls, m, "m={m} w={w}");
                assert_eq!(occ.bins, w);
                assert!(
                    occ.singletons + 2 * occ.colliding_bins <= m,
                    "m={m} w={w}: a colliding bin holds at least two balls"
                );
                assert_eq!(scratch.singleton_bins().len() as u64, occ.singletons);
                assert!(
                    scratch.singleton_bins().windows(2).all(|p| p[0] < p[1]),
                    "singleton bins must be ascending"
                );
                assert!(scratch.singleton_bins().iter().all(|&b| b < w));
                // At least ceil(m/max-possible) bins must be occupied and the
                // occupied bins can't exceed the balls.
                assert!(occ.singletons + occ.colliding_bins <= m.min(w));
                if m > 0 {
                    let last = occ.max_occupied_bin.expect("balls were thrown");
                    assert!(last < w);
                    if let Some(&s) = scratch.singleton_bins().last() {
                        assert!(last >= s);
                    }
                }
            }
        }
    }

    #[test]
    fn walk_window_certain_collision_shortcut_consumes_no_randomness() {
        let mut rng_a = Xoshiro256pp::seed_from_u64(5);
        let rng_b = rng_a.clone();
        let mut scratch = WalkScratch::new();
        let occ = walk_window(1_000_000, 4, &mut rng_a, &mut scratch);
        assert_eq!(occ.colliding_bins, 4);
        assert_eq!(occ.singletons, 0);
        assert_eq!(occ.max_occupied_bin, Some(3));
        assert_eq!(rng_a, rng_b, "shortcut must not consume the RNG");
    }

    #[test]
    fn walk_window_single_ball_is_a_uniform_singleton() {
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        let mut scratch = WalkScratch::new();
        let mut sum = 0u64;
        let reps = 20_000;
        for _ in 0..reps {
            let occ = walk_window(1, 10, &mut rng, &mut scratch);
            assert_eq!(occ.singletons, 1);
            sum += scratch.singleton_bins()[0];
        }
        let mean = sum as f64 / reps as f64;
        assert!((mean - 4.5).abs() < 0.1, "uniform over 0..10, mean {mean}");
    }

    #[test]
    fn empty_throw_resets_scratch_views() {
        let mut scratch = WalkScratch::new();
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let _ = walk_window(32, 32, &mut rng, &mut scratch);
        assert!(!scratch.singleton_bins().is_empty());
        let occ = walk_window(0, 17, &mut rng, &mut scratch);
        assert_eq!(occ.bins - occ.singletons - occ.colliding_bins, 17);
        assert!(scratch.singleton_bins().is_empty());
    }
}
