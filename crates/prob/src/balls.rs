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
//! This module provides two tiers of occupancy machinery:
//!
//! * the **counts-only fast path** — [`OccupancyScratch`] with
//!   [`occupancy_counts`] / [`throw_balls_into`] — which streams the tallies
//!   the simulators consume ([`OccupancyCounts`]: singletons, empty bins,
//!   colliding bins, max load) without materialising per-ball assignments
//!   for the caller, reusing internal buffers so that steady-state windows
//!   perform **zero heap allocations**;
//! * the **detailed path** — [`throw_balls`] / [`BinsOccupancy`] — a thin
//!   allocating wrapper retained for callers that need per-ball detail (the
//!   exact simulator, traces, tests).
//!
//! Both paths draw exactly `m` values from the generator in the same order,
//! so they are interchangeable without perturbing the RNG stream, and both
//! use the same density switch: a dense `Vec<u32>` of per-bin counts when `w`
//! is comparable to `m`, and a sorted-assignment scan when `w ≫ m` (so that a
//! window of four billion slots with three active stations does not allocate
//! four billion counters).

use crate::binomial::{
    exp_small, inv_q, recip_table, sample_binomial_fast, ModeKernel, SlotKernel, DEAD_LOG,
    MAX_EXP_OFFSET, RECIP_TABLE_N,
};
use crate::outcome::SlotOutcome;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Density switch shared by every occupancy routine in this module: dense
/// per-bin counters are used when `bins <= max(8·balls, 1024)`, a sorted
/// assignment scan otherwise.
#[inline]
fn dense_limit(balls: u64) -> u64 {
    balls.saturating_mul(8).max(1024)
}

/// Counts-only summary of one balls-in-bins experiment.
///
/// Produced by [`occupancy_counts`] / [`throw_balls_into`]; carries exactly
/// the tallies the window simulator and the analytical bounds consume,
/// without any per-ball or per-bin materialisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OccupancyCounts {
    /// Number of bins in the experiment.
    pub bins: u64,
    /// Number of balls thrown.
    pub balls: u64,
    /// Number of bins containing exactly one ball.
    pub singletons: u64,
    /// Number of bins with no ball.
    pub empty_bins: u64,
    /// Number of bins with two or more balls.
    pub colliding_bins: u64,
    /// Largest number of balls in any single bin (0 when there are no balls).
    pub max_load: u64,
    /// Largest bin index containing at least one ball (`None` when empty).
    ///
    /// When `colliding_bins == 0` this is the position of the last delivered
    /// message inside the window, which is what the window simulator needs to
    /// close its final window without a singleton list.
    pub max_occupied_bin: Option<u64>,
}

impl OccupancyCounts {
    fn empty(bins: u64) -> Self {
        Self {
            bins,
            balls: 0,
            singletons: 0,
            empty_bins: bins,
            colliding_bins: 0,
            max_load: 0,
            max_occupied_bin: None,
        }
    }
}

/// Reusable buffers for the allocation-free occupancy paths.
///
/// A scratch owns three buffers — dense per-bin counters, the per-ball
/// assignment list and a singleton-bin list — that grow to the high-water
/// mark of the runs they serve and are then reused, so a long simulation
/// performs no per-window heap allocation. Construct one per run (or per
/// worker thread) and pass it to [`occupancy_counts`] or
/// [`throw_balls_into`].
///
/// # Example
/// ```
/// use mac_prob::balls::{occupancy_counts, OccupancyScratch};
/// use mac_prob::rng::Xoshiro256pp;
/// use rand::SeedableRng;
///
/// let mut rng = Xoshiro256pp::seed_from_u64(3);
/// let mut scratch = OccupancyScratch::new();
/// let counts = occupancy_counts(10, 100, &mut rng, &mut scratch);
/// assert_eq!(counts.balls, 10);
/// assert_eq!(counts.singletons + counts.colliding_bins + counts.empty_bins, 100);
/// ```
#[derive(Debug, Default, Clone)]
pub struct OccupancyScratch {
    /// Dense per-bin counters; entries touched by a run are re-zeroed before
    /// the run returns, so the buffer is always all-zero between calls.
    counts: Vec<u32>,
    /// Bin chosen by each ball of the most recent throw.
    assignments: Vec<u64>,
    /// Singleton bins of the most recent [`throw_balls_into`], ascending.
    singleton_bins: Vec<u64>,
}

impl OccupancyScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scratch whose per-ball buffers (assignments, singleton
    /// list) are pre-sized for throws of up to `balls` balls — useful for
    /// the detailed [`throw_balls_into`] path; the counts-only path does not
    /// touch these buffers. The dense counter window always grows on first
    /// use, since its size depends on the bin count, not the ball count.
    pub fn with_capacity(balls: usize) -> Self {
        Self {
            counts: Vec::new(),
            assignments: Vec::with_capacity(balls),
            singleton_bins: Vec::with_capacity(balls),
        }
    }

    /// Bins chosen by the balls of the most recent [`throw_balls_into`].
    ///
    /// [`occupancy_counts`] does not materialise assignments (its dense fast
    /// path fuses drawing and counting), so this view is empty after a
    /// counts-only throw. In the sparse regime (`w ≫ m`) the buffer is
    /// sorted in place during counting, so the slice is **not** guaranteed
    /// to be in ball order; callers that need ball identity should use
    /// [`BinsOccupancy::from_assignments`] instead.
    pub fn assignments(&self) -> &[u64] {
        &self.assignments
    }

    /// Singleton bins (ascending) of the most recent [`throw_balls_into`].
    ///
    /// [`occupancy_counts`] does not maintain this list; it is only valid
    /// after a detailed throw.
    pub fn singleton_bins(&self) -> &[u64] {
        &self.singleton_bins
    }

    /// Draws `m` assignments into the internal buffer, identically to
    /// [`throw_balls`] (same number of draws, same order).
    fn draw<R: Rng + ?Sized>(&mut self, m: u64, w: u64, rng: &mut R) {
        self.assignments.clear();
        self.assignments.reserve(m as usize);
        for _ in 0..m {
            self.assignments.push(rng.gen_range(0..w));
        }
    }

    /// Fused draw-and-count for the dense counts-only fast path: one uniform
    /// draw and one branch-free counter increment per ball (no assignment
    /// materialisation), one branch-light sequential scan of the counter
    /// window for the tallies, one sequential re-zeroing fill. This is the
    /// window simulator's steady-state inner loop; the scan and the fill are
    /// O(w), but in the dense regime `w ≤ 8m` they stream at memory
    /// bandwidth, which profiling shows is far cheaper than tracking the
    /// tallies branchily inside the random-access increment loop (or
    /// re-zeroing by re-touching `m` random entries).
    fn count_dense_streaming<R: Rng + ?Sized>(
        &mut self,
        m: u64,
        w: u64,
        rng: &mut R,
    ) -> OccupancyCounts {
        self.assignments.clear();
        self.singleton_bins.clear();
        if self.counts.len() < w as usize {
            self.counts.resize(w as usize, 0);
        }
        let counts = &mut self.counts[..w as usize];
        for _ in 0..m {
            let a = rng.gen_range(0..w);
            counts[a as usize] += 1;
        }
        let counted = scan_dense_window(counts, m, w, None);
        counts.fill(0);
        counted
    }

    /// Counts the assignments currently in the buffer, optionally collecting
    /// singleton bins (ascending) into `self.singleton_bins`.
    fn count_buffered(&mut self, w: u64, collect_singletons: bool) -> OccupancyCounts {
        let m = self.assignments.len() as u64;
        self.singleton_bins.clear();
        if w <= dense_limit(m) {
            if self.counts.len() < w as usize {
                self.counts.resize(w as usize, 0);
            }
            let counts = &mut self.counts[..w as usize];
            for &a in &self.assignments {
                counts[a as usize] += 1;
            }
            let singles = collect_singletons.then_some(&mut self.singleton_bins);
            let counted = scan_dense_window(counts, m, w, singles);
            counts.fill(0);
            counted
        } else {
            // Sparse path: sort the assignments in place and scan the runs.
            self.assignments.sort_unstable();
            let mut singletons = 0u64;
            let mut occupied = 0u64;
            let mut colliding = 0u64;
            let mut max_load = 0u64;
            let mut max_occupied_bin = None;
            let mut i = 0usize;
            while i < self.assignments.len() {
                let bin = self.assignments[i];
                let mut j = i + 1;
                while j < self.assignments.len() && self.assignments[j] == bin {
                    j += 1;
                }
                let load = (j - i) as u64;
                occupied += 1;
                if load == 1 {
                    singletons += 1;
                    if collect_singletons {
                        self.singleton_bins.push(bin);
                    }
                } else {
                    colliding += 1;
                }
                max_load = max_load.max(load);
                max_occupied_bin = Some(bin);
                i = j;
            }
            OccupancyCounts {
                bins: w,
                balls: m,
                singletons,
                empty_bins: w - occupied,
                colliding_bins: colliding,
                max_load,
                max_occupied_bin,
            }
        }
    }
}

/// Derives the occupancy tallies from a dense counter window with one
/// sequential, mostly branch-free pass (the comparisons compile to
/// flag-setting arithmetic the auto-vectoriser handles well). When `singles`
/// is given, singleton bins are appended in ascending order as a side
/// effect of the same pass.
fn scan_dense_window(
    counts: &[u32],
    balls: u64,
    bins: u64,
    singles: Option<&mut Vec<u64>>,
) -> OccupancyCounts {
    let mut empty = 0u64;
    let mut singletons = 0u64;
    let mut max_load = 0u32;
    let mut max_occupied_bin = usize::MAX;
    if let Some(singles) = singles {
        for (bin, &count) in counts.iter().enumerate() {
            empty += u64::from(count == 0);
            max_load = max_load.max(count);
            if count == 1 {
                singletons += 1;
                singles.push(bin as u64);
            }
            if count > 0 {
                max_occupied_bin = bin;
            }
        }
    } else {
        for (bin, &count) in counts.iter().enumerate() {
            empty += u64::from(count == 0);
            singletons += u64::from(count == 1);
            max_load = max_load.max(count);
            if count > 0 {
                max_occupied_bin = bin;
            }
        }
    }
    debug_assert_eq!(counts.len() as u64, bins);
    OccupancyCounts {
        bins,
        balls,
        singletons,
        empty_bins: empty,
        colliding_bins: bins - empty - singletons,
        max_load: u64::from(max_load),
        max_occupied_bin: (max_occupied_bin != usize::MAX).then_some(max_occupied_bin as u64),
    }
}

/// Drops `m` balls uniformly at random into `w` bins and returns the
/// counts-only summary, reusing `scratch` so that steady-state calls perform
/// no heap allocation.
///
/// Draws exactly the same RNG stream as [`throw_balls`] (`m` uniform values
/// in ball order), so the two paths are interchangeable per seed; the
/// property tests assert the tallies agree.
///
/// # Panics
/// Panics if `w == 0` while `m > 0` (there is nowhere to put the balls).
pub fn occupancy_counts<R: Rng + ?Sized>(
    m: u64,
    w: u64,
    rng: &mut R,
    scratch: &mut OccupancyScratch,
) -> OccupancyCounts {
    if m == 0 {
        scratch.assignments.clear();
        scratch.singleton_bins.clear();
        return OccupancyCounts::empty(w);
    }
    assert!(w > 0, "cannot throw {m} balls into zero bins");
    if w <= dense_limit(m) {
        scratch.count_dense_streaming(m, w, rng)
    } else {
        scratch.draw(m, w, rng);
        let counts = scratch.count_buffered(w, false);
        // Keep the documented contract: counts-only throws leave no
        // assignments visible (the sparse path needs them only internally).
        scratch.assignments.clear();
        counts
    }
}

/// Like [`occupancy_counts`], additionally leaving the per-ball assignments
/// and the ascending singleton-bin list available in `scratch`
/// ([`OccupancyScratch::assignments`] / [`OccupancyScratch::singleton_bins`]).
///
/// This is the path for callers that need per-delivery detail (e.g. the
/// window simulator when recording delivery slots) without paying
/// [`throw_balls`]'s fresh allocations per window.
///
/// # Panics
/// Panics if `w == 0` while `m > 0`.
pub fn throw_balls_into<R: Rng + ?Sized>(
    m: u64,
    w: u64,
    rng: &mut R,
    scratch: &mut OccupancyScratch,
) -> OccupancyCounts {
    if m == 0 {
        scratch.assignments.clear();
        scratch.singleton_bins.clear();
        return OccupancyCounts::empty(w);
    }
    assert!(w > 0, "cannot throw {m} balls into zero bins");
    scratch.draw(m, w, rng);
    scratch.count_buffered(w, true)
}

/// Result of dropping `m` balls uniformly at random into `w` bins.
///
/// `assignments[i]` is the bin of ball `i`; the remaining fields summarise the
/// occupancy. Constructed by [`throw_balls`] or from a pre-existing assignment
/// with [`BinsOccupancy::from_assignments`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinsOccupancy {
    /// Number of bins in the experiment.
    pub bins: u64,
    /// Bin chosen by each ball (`assignments.len()` is the number of balls).
    pub assignments: Vec<u64>,
    /// Bins containing exactly one ball, in increasing bin order.
    pub singleton_bins: Vec<u64>,
    /// Number of bins with no ball.
    pub empty_bins: u64,
    /// Number of bins with two or more balls.
    pub colliding_bins: u64,
    /// Largest number of balls in any single bin (0 when there are no balls).
    pub max_load: u64,
}

impl BinsOccupancy {
    /// Builds the occupancy summary from an explicit assignment of balls to
    /// bins.
    ///
    /// # Panics
    /// Panics if any assignment refers to a bin `>= bins`.
    pub fn from_assignments(bins: u64, assignments: Vec<u64>) -> Self {
        for &a in &assignments {
            assert!(
                a < bins,
                "ball assigned to bin {a} but only {bins} bins exist"
            );
        }
        let m = assignments.len() as u64;
        // Dense counting when the bins array is affordable relative to the
        // number of balls; otherwise sort a copy of the assignments.
        let (singleton_bins, empty_bins, colliding_bins, max_load) = if bins <= dense_limit(m) {
            let mut counts = vec![0u32; bins as usize];
            for &a in &assignments {
                counts[a as usize] += 1;
            }
            let mut singles = Vec::new();
            let mut empty = 0u64;
            let mut colliding = 0u64;
            let mut max_load = 0u64;
            for (bin, &c) in counts.iter().enumerate() {
                match c {
                    0 => empty += 1,
                    1 => singles.push(bin as u64),
                    _ => colliding += 1,
                }
                max_load = max_load.max(c as u64);
            }
            (singles, empty, colliding, max_load)
        } else {
            let mut sorted = assignments.clone();
            sorted.sort_unstable();
            let mut singles = Vec::new();
            let mut occupied = 0u64;
            let mut colliding = 0u64;
            let mut max_load = 0u64;
            let mut i = 0usize;
            while i < sorted.len() {
                let bin = sorted[i];
                let mut j = i + 1;
                while j < sorted.len() && sorted[j] == bin {
                    j += 1;
                }
                let load = (j - i) as u64;
                occupied += 1;
                if load == 1 {
                    singles.push(bin);
                } else {
                    colliding += 1;
                }
                max_load = max_load.max(load);
                i = j;
            }
            (singles, bins - occupied, colliding, max_load)
        };
        debug_assert_eq!(
            singleton_bins.len() as u64 + empty_bins + colliding_bins,
            bins,
            "occupancy categories must partition the bins"
        );
        debug_assert!(m == 0 || max_load >= 1);
        Self {
            bins,
            assignments,
            singleton_bins,
            empty_bins,
            colliding_bins,
            max_load,
        }
    }

    /// Number of balls in the experiment.
    pub fn balls(&self) -> u64 {
        self.assignments.len() as u64
    }

    /// Number of bins that contain exactly one ball.
    pub fn singletons(&self) -> u64 {
        self.singleton_bins.len() as u64
    }

    /// Indices (into the ball list) of the balls that landed alone in their
    /// bin, i.e. the stations whose transmission is delivered.
    pub fn singleton_balls(&self) -> Vec<usize> {
        // The singleton bin list is sorted; binary-search each ball's bin.
        self.assignments
            .iter()
            .enumerate()
            .filter(|(_, bin)| self.singleton_bins.binary_search(bin).is_ok())
            .map(|(i, _)| i)
            .collect()
    }
}

/// Drops `m` balls uniformly at random into `w` bins.
///
/// # Panics
/// Panics if `w == 0` while `m > 0` (there is nowhere to put the balls).
///
/// # Example
/// ```
/// use mac_prob::balls::throw_balls;
/// use mac_prob::rng::Xoshiro256pp;
/// use rand::SeedableRng;
/// let mut rng = Xoshiro256pp::seed_from_u64(3);
/// let occ = throw_balls(10, 100, &mut rng);
/// assert_eq!(occ.balls(), 10);
/// assert_eq!(occ.bins, 100);
/// assert_eq!(occ.singletons() + occ.colliding_bins + occ.empty_bins, 100);
/// ```
pub fn throw_balls<R: Rng + ?Sized>(m: u64, w: u64, rng: &mut R) -> BinsOccupancy {
    if m == 0 {
        return BinsOccupancy::from_assignments(w, Vec::new());
    }
    assert!(w > 0, "cannot throw {m} balls into zero bins");
    let assignments = (0..m).map(|_| rng.gen_range(0..w)).collect();
    BinsOccupancy::from_assignments(w, assignments)
}

/// Counts-only summary of one window resolved slot-by-slot by
/// [`walk_window`] (conditional binomial sampling).
///
/// Unlike [`OccupancyCounts`] there is no `max_load` field: the aggregate
/// walk does not track individual bin loads beyond the 0/1/≥2 trichotomy
/// (and the certain-collision shortcut never samples them at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotOccupancy {
    /// Number of bins (slots) in the window.
    pub bins: u64,
    /// Number of balls (stations) thrown.
    pub balls: u64,
    /// Bins holding exactly one ball.
    pub singletons: u64,
    /// Bins holding no ball.
    pub empty_bins: u64,
    /// Bins holding two or more balls.
    pub colliding_bins: u64,
    /// Largest occupied bin index (`None` when `balls == 0`).
    pub max_occupied_bin: Option<u64>,
}

/// Reusable buffers for [`walk_window`]: the ascending singleton-bin list
/// of the most recent walk, plus an [`OccupancyScratch`] for the sparse
/// per-ball tail regime. (The walk's slot kernel — thresholds and the
/// mode-anchored collision pmf, see [`ModeKernel`] — is per-window state
/// and lives on the stack.)
#[derive(Debug, Clone, Default)]
pub struct WalkScratch {
    singles: Vec<u64>,
    occupancy: OccupancyScratch,
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
/// the block is then resolved by the dense per-ball machinery against a
/// counter window that fits in L1, instead of one cache-missing increment
/// per ball into a `w`-sized array.
const WALK_BLOCK_BINS: u64 = 4096;

/// λ at which the walk switches from block decomposition to the per-slot
/// mode-anchored loop (measured crossover: the per-ball block resolver's
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

/// Drops `m` balls uniformly at random into `w` bins, resolving the bins
/// **slot by slot** with conditional binomial draws: bin `i` receives
/// `T_i ~ Binomial(m_left, 1/w_left)` given the balls and bins still in
/// play. Cost is O(w) draws instead of O(m + w) per-ball work, which is the
/// difference between O(m) and O(1) per *slot* for the early back-off
/// windows where `m ≫ w`.
///
/// Three regimes, dispatched per call and per slot:
///
/// * **Certain collision** — when the union bound
///   `w·(1-1/w)^{m-1}·(1 + (m-1)/w)` on the probability of *any* bin holding
///   ≤ 1 ball is below `e^{-100}` (`ALL_COLLIDE_LOG_BOUND`), the window is
///   resolved as `w` colliding bins without consuming any randomness. This
///   is the only place the aggregate path deviates from the exact
///   distribution, by a total variation distance `< e^{-100} ≈ 10^{-44}`
///   (documented in `crates/sim/DESIGN.md` §5).
/// * **Walk** — one classification draw per slot against incrementally
///   maintained thresholds ([`SlotKernel`]); collision slots additionally
///   sample the transmitter count (CDF continuation for small `m·p`,
///   rejection from [`sample_binomial_fast`] otherwise) to keep the
///   conditional chain exact.
/// * **Sparse tail** — once `w_left` exceeds `dense_limit(m_left)` the
///   few remaining balls are thrown per-ball into the remaining bins (the
///   conditional distribution of the remaining balls is exactly uniform on
///   the remaining bins).
///
/// The ascending singleton-bin list is left in `scratch`
/// ([`WalkScratch::singleton_bins`]). The RNG consumption differs from
/// [`throw_balls`] / [`occupancy_counts`]; equivalence is distributional,
/// not per-stream (property-tested).
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
            empty_bins: w,
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
            empty_bins: w - 1,
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
            empty_bins: 0,
            colliding_bins: w,
            max_occupied_bin: Some(w - 1),
        };
    }

    let mut m_left = m;
    let mut singletons = 0u64;
    let mut empty = 0u64;
    let mut colliding = 0u64;
    let mut max_occupied: Option<u64> = None;
    let mut i = 0u64;
    // Which bin the sparse per-ball tail should start from, when the walk
    // crosses the density switch mid-window.
    let mut sparse_from: Option<u64> = None;
    // The mode-anchored collision pmf, shared by the per-slot regimes.
    // Anchoring is an O(1) series evaluation and the kernel re-anchors
    // itself exactly whenever its drift guards trip, so it is simply
    // (re-)synchronised on use whenever a regime left it stale.
    let mut mode = ModeKernel::new(m, 1.0 / wf);

    // Outer dispatch: each round picks the cheapest exact resolver for the
    // current load λ = m_left/w_left (the measured crossover table lives in
    // the constants above; see `crates/sim/DESIGN.md` §7):
    //
    // * `w_left > 8·m_left` — sparse per-ball tail, terminal;
    // * `λ < WALK_PER_SLOT_LAMBDA_ENTER` — one conditional-binomial
    //   **block**: `T_b ~ Binomial(m_left, b/w_left)` balls land in the
    //   next `b` bins (4096, or the whole remainder up to 6143 so no tiny
    //   trailing block is left) and are resolved by the dense per-ball
    //   machinery against a cache-resident counter window;
    // * otherwise — the per-slot mode-anchored loop (fused fast loop for
    //   `w_left ≥ 4096`, the general `SlotKernel` tail below that).
    'outer: while m_left > 0 && i < w {
        let w_left = w - i;
        if w_left > dense_limit(m_left) {
            sparse_from = Some(i);
            break 'outer;
        }
        let lam = m_left as f64 / w_left as f64;
        if lam < WALK_PER_SLOT_LAMBDA_ENTER {
            // ---- block decomposition ----
            let b = if w_left < WALK_BLOCK_BINS + WALK_BLOCK_BINS / 2 {
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
                let blk = if COLLECT {
                    let blk = throw_balls_into(n_b, b, rng, &mut scratch.occupancy);
                    for &bin in scratch.occupancy.singleton_bins() {
                        scratch.singles.push(i + bin);
                    }
                    blk
                } else {
                    occupancy_counts(n_b, b, rng, &mut scratch.occupancy)
                };
                singletons += blk.singletons;
                empty += blk.empty_bins;
                colliding += blk.colliding_bins;
                if let Some(bin) = blk.max_occupied_bin {
                    max_occupied = Some(i + bin);
                }
                m_left -= n_b;
            } else {
                empty += b;
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
                    sparse_from = Some(i);
                    break 'outer;
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
                        SlotOutcome::Silence => {
                            empty += 1;
                            0
                        }
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
                    empty += 1;
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

    if let Some(start) = sparse_from {
        // Sparse tail: the remaining balls are uniform on the remaining
        // bins; finish with the per-ball machinery.
        let w_left = w - start;
        let tail = if COLLECT {
            let tail = throw_balls_into(m_left, w_left, rng, &mut scratch.occupancy);
            for &bin in scratch.occupancy.singleton_bins() {
                scratch.singles.push(start + bin);
            }
            tail
        } else {
            occupancy_counts(m_left, w_left, rng, &mut scratch.occupancy)
        };
        singletons += tail.singletons;
        empty += tail.empty_bins;
        colliding += tail.colliding_bins;
        if let Some(bin) = tail.max_occupied_bin {
            max_occupied = Some(start + bin);
        }
        m_left = 0;
    } else if i < w {
        // Balls ran out early: every remaining bin is empty.
        empty += w - i;
    }

    debug_assert_eq!(m_left, 0, "every ball lands in some bin");
    SlotOccupancy {
        bins: w,
        balls: m,
        singletons,
        empty_bins: empty,
        colliding_bins: colliding,
        max_occupied_bin: max_occupied,
    }
}

/// Expected fraction of balls that land alone when `m` balls are thrown into
/// `w` bins: `(1 - 1/w)^(m-1)`.
///
/// This is the quantity Lemma 1 of the paper bounds from below by `δ` (for
/// `w ≥ m` large enough); exposing it here lets tests and the analysis module
/// share one definition.
pub fn expected_singleton_fraction(m: u64, w: u64) -> f64 {
    if m == 0 {
        return 0.0;
    }
    assert!(w > 0, "zero bins");
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
        let occ = BinsOccupancy::from_assignments(5, vec![]);
        assert_eq!(occ.balls(), 0);
        assert_eq!(occ.empty_bins, 5);
        assert_eq!(occ.singletons(), 0);
        assert_eq!(occ.colliding_bins, 0);
        assert_eq!(occ.max_load, 0);
    }

    #[test]
    fn explicit_assignment_counts() {
        // bins: 0 has 2 balls, 1 has 1 ball, 2 empty, 3 has 3 balls.
        let occ = BinsOccupancy::from_assignments(4, vec![0, 0, 1, 3, 3, 3]);
        assert_eq!(occ.singleton_bins, vec![1]);
        assert_eq!(occ.empty_bins, 1);
        assert_eq!(occ.colliding_bins, 2);
        assert_eq!(occ.max_load, 3);
        assert_eq!(occ.singleton_balls(), vec![2]);
    }

    #[test]
    fn sparse_path_matches_dense_path() {
        // Force the sparse path with a huge bin count, then verify against a
        // manual count.
        let assignments = vec![1_000_000_000u64, 1_000_000_000, 42, 7, 7, 7];
        let occ = BinsOccupancy::from_assignments(5_000_000_000, assignments);
        assert_eq!(occ.singleton_bins, vec![42]);
        assert_eq!(occ.colliding_bins, 2);
        assert_eq!(occ.max_load, 3);
        assert_eq!(occ.empty_bins, 5_000_000_000 - 3);
        assert_eq!(occ.singleton_balls(), vec![2]);
    }

    #[test]
    #[should_panic(expected = "only")]
    fn rejects_out_of_range_assignment() {
        let _ = BinsOccupancy::from_assignments(3, vec![3]);
    }

    #[test]
    #[should_panic(expected = "zero bins")]
    fn rejects_throwing_into_zero_bins() {
        let mut rng = Xoshiro256pp::seed_from_u64(0);
        let _ = throw_balls(1, 0, &mut rng);
    }

    #[test]
    fn categories_partition_bins() {
        let mut rng = Xoshiro256pp::seed_from_u64(10);
        for &(m, w) in &[(1u64, 1u64), (5, 3), (100, 100), (1000, 64), (3, 10_000)] {
            let occ = throw_balls(m, w, &mut rng);
            assert_eq!(occ.balls(), m);
            assert_eq!(occ.singletons() + occ.empty_bins + occ.colliding_bins, w);
            assert_eq!(occ.singleton_balls().len() as u64, occ.singletons());
        }
    }

    #[test]
    fn singleton_fraction_matches_lemma_one_expectation() {
        // With w = m, the expected fraction of singleton balls tends to 1/e.
        let m = 10_000u64;
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let mut total_singletons = 0u64;
        let reps = 50;
        for _ in 0..reps {
            total_singletons += throw_balls(m, m, &mut rng).singletons();
        }
        let frac = total_singletons as f64 / (m * reps) as f64;
        let expected = expected_singleton_fraction(m, m);
        assert!((expected - (-1.0f64).exp()).abs() < 1e-3);
        assert!((frac - expected).abs() < 0.01, "{frac} vs {expected}");
    }

    #[test]
    fn expected_singleton_fraction_edges() {
        assert_eq!(expected_singleton_fraction(0, 10), 0.0);
        assert_eq!(expected_singleton_fraction(1, 10), 1.0);
        assert!(expected_singleton_fraction(2, 2) - 0.5 < 1e-12);
    }

    #[test]
    fn all_balls_one_bin_when_single_bin() {
        let mut rng = Xoshiro256pp::seed_from_u64(12);
        let occ = throw_balls(7, 1, &mut rng);
        assert_eq!(occ.max_load, 7);
        assert_eq!(occ.colliding_bins, 1);
        assert_eq!(occ.singletons(), 0);
    }

    /// The counts a [`BinsOccupancy`] summarises, for comparison with the
    /// counts-only path.
    fn counts_of(occ: &BinsOccupancy) -> OccupancyCounts {
        OccupancyCounts {
            bins: occ.bins,
            balls: occ.balls(),
            singletons: occ.singletons(),
            empty_bins: occ.empty_bins,
            colliding_bins: occ.colliding_bins,
            max_load: occ.max_load,
            max_occupied_bin: occ.assignments.iter().copied().max(),
        }
    }

    #[test]
    fn counts_only_path_matches_full_path_on_the_same_stream() {
        // Same seed → same draws → identical tallies, across both density
        // regimes and the m = 0 / w = 1 edges.
        let mut scratch = OccupancyScratch::new();
        for &(m, w) in &[
            (0u64, 5u64),
            (1, 1),
            (7, 1),
            (5, 3),
            (100, 100),
            (1000, 64),
            (3, 10_000),
            (2, 5_000_000_000),
        ] {
            let mut rng_a = Xoshiro256pp::seed_from_u64(77);
            let mut rng_b = Xoshiro256pp::seed_from_u64(77);
            let full = throw_balls(m, w, &mut rng_a);
            let fast = occupancy_counts(m, w, &mut rng_b, &mut scratch);
            assert_eq!(fast, counts_of(&full), "m={m} w={w}");
            // Both paths must also leave the generators in the same state.
            assert_eq!(rng_a, rng_b, "m={m} w={w}: diverged RNG streams");
            // Counts-only throws expose no assignments, in either regime.
            assert!(scratch.assignments().is_empty(), "m={m} w={w}");
        }
    }

    #[test]
    fn throw_balls_into_collects_sorted_singletons() {
        let mut scratch = OccupancyScratch::with_capacity(64);
        for seed in 0..20 {
            let mut rng_a = Xoshiro256pp::seed_from_u64(seed);
            let mut rng_b = Xoshiro256pp::seed_from_u64(seed);
            for &(m, w) in &[(40u64, 40u64), (40, 9), (6, 100_000)] {
                let full = throw_balls(m, w, &mut rng_a);
                let fast = throw_balls_into(m, w, &mut rng_b, &mut scratch);
                assert_eq!(scratch.singleton_bins(), &full.singleton_bins[..]);
                assert_eq!(fast, counts_of(&full));
            }
        }
    }

    #[test]
    fn scratch_is_reusable_across_mixed_regimes() {
        // Alternate dense and sparse windows through one scratch; the dense
        // counters must be fully re-zeroed between calls or the second dense
        // window would observe stale counts.
        let mut scratch = OccupancyScratch::new();
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        for round in 0..50u64 {
            let (m, w) = if round % 2 == 0 {
                (100, 64)
            } else {
                (4, 1 << 40)
            };
            let counts = occupancy_counts(m, w, &mut rng, &mut scratch);
            assert_eq!(counts.balls, m);
            assert_eq!(
                counts.singletons + counts.empty_bins + counts.colliding_bins,
                w,
                "round {round}"
            );
            assert!(counts.max_load >= 1 && counts.max_load <= m);
        }
    }

    #[test]
    fn max_occupied_bin_is_the_last_delivery_when_collision_free() {
        let mut scratch = OccupancyScratch::new();
        let mut rng = Xoshiro256pp::seed_from_u64(23);
        let mut seen_collision_free = false;
        for _ in 0..100 {
            let mut probe = rng.clone();
            let counts = occupancy_counts(8, 1024, &mut probe, &mut scratch);
            let full = throw_balls(8, 1024, &mut rng);
            if counts.colliding_bins == 0 {
                seen_collision_free = true;
                assert_eq!(counts.max_occupied_bin, full.singleton_bins.last().copied());
            }
        }
        assert!(seen_collision_free, "8 balls in 1024 bins collide rarely");
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
                assert_eq!(
                    occ.singletons + occ.empty_bins + occ.colliding_bins,
                    w,
                    "m={m} w={w}: categories must partition the bins"
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
        assert_eq!(occ.empty_bins, 0);
        assert_eq!(occ.max_occupied_bin, Some(3));
        assert_eq!(rng_a, rng_b, "shortcut must not consume the RNG");
    }

    #[test]
    fn walk_window_matches_per_ball_distribution() {
        // Statistical cross-check: mean singleton count of the walk vs the
        // per-ball reference, across density regimes (including the dead-slot
        // and inversion-continuation branches).
        for &(m, w) in &[(12u64, 12u64), (64, 16), (40, 120), (3000, 64)] {
            let reps = 4000;
            let mut rng = Xoshiro256pp::seed_from_u64(1000 + m + w);
            let mut scratch = WalkScratch::new();
            let mut walk_singles = 0u64;
            let mut walk_empty = 0u64;
            for _ in 0..reps {
                let occ = walk_window(m, w, &mut rng, &mut scratch);
                walk_singles += occ.singletons;
                walk_empty += occ.empty_bins;
            }
            let mut ball_singles = 0u64;
            let mut ball_empty = 0u64;
            for _ in 0..reps {
                let occ = throw_balls(m, w, &mut rng);
                ball_singles += occ.singletons();
                ball_empty += occ.empty_bins;
            }
            let n = reps as f64;
            // Singleton counts are in [0, min(m, w)]; 5-sigma-ish tolerance
            // from the binomial-scale spread.
            let tol = 5.0 * (w as f64).sqrt() * n.sqrt();
            assert!(
                ((walk_singles as f64) - (ball_singles as f64)).abs() < tol,
                "m={m} w={w}: walk {walk_singles} vs per-ball {ball_singles}"
            );
            assert!(
                ((walk_empty as f64) - (ball_empty as f64)).abs() < tol,
                "m={m} w={w}: walk empty {walk_empty} vs per-ball {ball_empty}"
            );
        }
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
        let mut scratch = OccupancyScratch::new();
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let _ = throw_balls_into(32, 32, &mut rng, &mut scratch);
        assert!(!scratch.assignments().is_empty());
        let counts = throw_balls_into(0, 17, &mut rng, &mut scratch);
        assert_eq!(counts, OccupancyCounts::empty(17));
        assert!(scratch.assignments().is_empty());
        assert!(scratch.singleton_bins().is_empty());
    }
}
