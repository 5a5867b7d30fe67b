//! Sum-of-binomials slot classification over station *cohorts*.
//!
//! Dynamic arrivals break the homogeneity of a batched fair run — but only
//! at arrival boundaries: stations that arrive together start
//! in identical protocol state, observe identical channel feedback, and
//! therefore stay in lockstep forever. The active population is a small set
//! of *cohorts*, each internally homogeneous: cohort `i` holds `m_i`
//! stations transmitting with common probability `p_i`, so its transmitter
//! count is `T_i ~ Binomial(m_i, p_i)` independently across cohorts.
//!
//! The channel only reveals whether the total `T = Σ T_i` is 0, 1 or ≥ 2:
//!
//! * **silence**: `S = Π_i P(T_i = 0)`;
//! * **delivery**: `D = Σ_i P(T_i = 1) · Π_{j≠i} P(T_j = 0)`, the sum of the
//!   sole-transmitter terms `w_i`;
//! * **collision** otherwise,
//!
//! and, conditioned on a delivery, the delivering cohort is `i` with
//! probability `w_i / D` (the delivering *station* being uniform over that
//! cohort's members, by exchangeability).
//!
//! [`CohortKernel`] maintains this classification along drifting
//! `(m_i, p_i)` schedules: each cohort owns a [`SlotKernelCache`] (two
//! incrementally-maintained threshold lines), and the products are
//! assembled per slot with a prefix/suffix pass — O(C) arithmetic for C
//! cohorts, no divisions, no transcendentals on the hot path, and exactly
//! one uniform draw per live slot for the caller. A single *dead* cohort
//! (`P(T_i ≤ 1) = 0` at `f64` resolution) makes the whole slot a certain
//! collision, so dead-slot elision extends across the cohort decomposition.

use crate::binomial::{SlotKernelCache, SlotThresholds};

/// Relative gap `|a − b| / max(a, b)` between two non-negative probabilities
/// (0 when both are 0). This is the metric of the cohort engine's merge
/// tolerance: two tracks are within tolerance `tol` exactly when their
/// relative gap is ≤ `tol`, so a gap doubles as the *smallest* tolerance
/// that would merge the pair — the quantity the bounded-class mode
/// thresholds when it must force the live class count down to its cap.
pub fn relative_gap(a: f64, b: f64) -> f64 {
    let scale = a.max(b);
    if scale <= 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

/// Incrementally maintained slot classification for a set of cohorts.
///
/// The caller keeps cohorts in any order and mirrors structural changes with
/// [`CohortKernel::push`] / [`CohortKernel::swap_remove`]; each slot it
/// passes the current per-cohort `(m_i, p_i)` to [`CohortKernel::classify`]
/// and receives the aggregate [`SlotThresholds`] (`t0 = S`, `t1 = S + D`),
/// against which one uniform draw resolves the trichotomy. On a delivery,
/// [`CohortKernel::delivering_cohort`] maps the draw's position inside the
/// delivery band back to the responsible cohort.
///
/// # Example
/// ```
/// use mac_prob::cohort::CohortKernel;
/// use mac_prob::outcome::slot_outcome_probabilities;
///
/// // Two cohorts: 3 stations at p = 0.1 and 2 stations at p = 0.25.
/// let mut kernel = CohortKernel::new();
/// kernel.push(3, 0.1);
/// kernel.push(2, 0.25);
/// let t = kernel.classify(&[3.0, 2.0], &[0.1, 0.25]);
/// let (a, b) = (slot_outcome_probabilities(3, 0.1), slot_outcome_probabilities(2, 0.25));
/// let silence = a.silence * b.silence;
/// let delivery = a.delivery * b.silence + b.delivery * a.silence;
/// assert!((t.t0 - silence).abs() < 1e-12);
/// assert!((t.t1 - (silence + delivery)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CohortKernel {
    caches: Vec<SlotKernelCache>,
    /// Per-cohort `P(T_i = 0)`, refreshed by [`CohortKernel::classify`].
    t0: Vec<f64>,
    /// Per-cohort `P(T_i = 1)`, refreshed by [`CohortKernel::classify`].
    d1: Vec<f64>,
    /// Per-cohort sole-transmitter weights `w_i = P(T_i=1)·Π_{j≠i} P(T_j=0)`.
    weights: Vec<f64>,
    /// `Σ_i w_i`, the delivery band width of the last classified slot.
    delivery: f64,
}

impl CohortKernel {
    /// Creates an empty kernel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty kernel with room for `capacity` cohorts.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            caches: Vec::with_capacity(capacity),
            t0: Vec::with_capacity(capacity),
            d1: Vec::with_capacity(capacity),
            weights: Vec::with_capacity(capacity),
            delivery: 0.0,
        }
    }

    /// Number of cohorts currently tracked.
    pub fn len(&self) -> usize {
        self.caches.len()
    }

    /// True when no cohort is tracked.
    pub fn is_empty(&self) -> bool {
        self.caches.is_empty()
    }

    /// Registers a new cohort of `m` stations at probability `p`, appended
    /// at index [`CohortKernel::len`]` - 1`.
    pub fn push(&mut self, m: u64, p: f64) {
        self.push_cache(SlotKernelCache::new(m, p));
    }

    /// Registers a new cohort whose kernel cache is `cache` (one restored
    /// from a checkpoint), appended at index [`CohortKernel::len`]` - 1`.
    pub fn push_cache(&mut self, cache: SlotKernelCache) {
        self.caches.push(cache);
    }

    /// Removes cohort `i`, moving the last cohort into its slot (the same
    /// index discipline as `Vec::swap_remove`, so the caller's cohort list
    /// and this kernel stay aligned).
    pub fn swap_remove(&mut self, i: usize) {
        self.caches.swap_remove(i);
    }

    /// The kernel cache of cohort `i`, for a caller that resolves a lone
    /// cohort's slots itself. With one cohort, [`CohortKernel::classify`]
    /// returns `t0` and `t0 + (t1 − t0)` of the line this cache selects, and
    /// [`CohortKernel::delivering_cohort`] gives the whole delivery band to
    /// that cohort.
    pub fn cache_mut(&mut self, i: usize) -> &mut SlotKernelCache {
        &mut self.caches[i]
    }

    /// The kernel cache of cohort `i`: the only kernel state that must
    /// survive a checkpoint, which writes it with the cohort. The other
    /// buffers are scratch that every [`CohortKernel::classify`] call
    /// refreshes.
    pub fn cache(&self, i: usize) -> &SlotKernelCache {
        &self.caches[i]
    }

    /// The two cached probability tracks of cohort `i`, sorted ascending
    /// (see [`SlotKernelCache::track_probabilities`]). The cohort engine
    /// merges two cohorts only when *both* tracks agree within its merge
    /// tolerance — agreement on the tracks actually driven by the protocol
    /// pins the underlying states together for the paper's fair protocols.
    pub fn track_probabilities(&self, i: usize) -> (f64, f64) {
        self.caches[i].track_probabilities()
    }

    /// Classifies the current slot: updates every cohort's kernel to its
    /// `(m_i, p_i)` and returns the aggregate thresholds `t0 = P(T = 0)`,
    /// `t1 = P(T ≤ 1)`. One uniform draw `u` against the result resolves the
    /// slot (`u < t0` silence, `u < t1` delivery, else collision); a dead
    /// result ([`SlotThresholds::is_dead`]) is a certain collision for which
    /// no draw need be consumed.
    ///
    /// # Panics
    /// Panics if the slice lengths differ from [`CohortKernel::len`].
    pub fn classify(&mut self, ms: &[f64], ps: &[f64]) -> SlotThresholds {
        let n = self.caches.len();
        assert_eq!(ms.len(), n, "one m per cohort");
        assert_eq!(ps.len(), n, "one p per cohort");
        self.t0.resize(n, 0.0);
        self.d1.resize(n, 0.0);
        self.weights.resize(n, 0.0);

        // Pass 1: move every kernel to its (m, p) — the per-cohort state
        // must track the schedule even when the slot turns out dead — and
        // record the first two binomial CDF values.
        let mut any_dead = false;
        for i in 0..n {
            let line = self.caches[i].select(ms[i], ps[i]);
            let thresholds = line.thresholds();
            self.t0[i] = thresholds.t0;
            self.d1[i] = thresholds.t1 - thresholds.t0;
            any_dead |= line.is_dead();
        }
        if any_dead {
            // Some cohort alone produces ≥ 2 transmitters with probability
            // 1 at f64 resolution: certain collision, whatever the others do.
            self.delivery = 0.0;
            return SlotThresholds { t0: 0.0, t1: 0.0 };
        }

        // Pass 2 (forward): prefix products Π_{j<i} t0_j, parked in the
        // weight buffer. All factors are in [0, 1], so nothing can overflow;
        // a genuine underflow to 0.0 is the correct f64 answer.
        let mut prefix = 1.0;
        for i in 0..n {
            self.weights[i] = prefix;
            prefix *= self.t0[i];
        }
        let silence = prefix;

        // Pass 3 (backward): suffix products complete the sole-transmitter
        // weights w_i = d1_i · Π_{j≠i} t0_j without ever dividing — which
        // keeps the weights exact even when individual t0_j underflow (a
        // one-station cohort at p = 1 has t0 = 0, d1 = 1 and must shut out
        // every other cohort's delivery term).
        let mut suffix = 1.0;
        let mut delivery = 0.0;
        for i in (0..n).rev() {
            self.weights[i] *= self.d1[i] * suffix;
            delivery += self.weights[i];
            suffix *= self.t0[i];
        }
        self.delivery = delivery;
        SlotThresholds {
            t0: silence,
            t1: silence + delivery,
        }
    }

    /// Maps a draw's offset `x ∈ [0, D)` inside the delivery band of the
    /// last classified slot to `(cohort index, leftover fraction)`: the
    /// cohort is chosen with probability `w_i / D`, and the leftover
    /// fraction is uniform in `[0, 1)` given the choice — callers use it to
    /// pick the delivering station within the cohort without consuming a
    /// second draw.
    ///
    /// # Panics
    /// Panics if the last classification had an empty delivery band.
    pub fn delivering_cohort(&self, x: f64) -> (usize, f64) {
        assert!(
            self.delivery > 0.0,
            "delivering_cohort requires a slot with a non-empty delivery band"
        );
        let mut cumulative = 0.0;
        let mut fallback = 0usize;
        for (i, &w) in self.weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            if x < cumulative + w {
                return (i, ((x - cumulative) / w).clamp(0.0, 1.0 - f64::EPSILON));
            }
            cumulative += w;
            fallback = i;
        }
        // f64 rounding pushed x past the accumulated sum: attribute the
        // delivery to the last cohort with positive weight.
        (fallback, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::{sample_heterogeneous_slot, slot_outcome_probabilities, SlotOutcome};
    use crate::rng::Xoshiro256pp;
    use rand::{Rng, SeedableRng};

    /// Brute-force reference: silence and delivery of a sum of independent
    /// binomials via per-cohort outcome probabilities.
    fn exact_reference(cohorts: &[(u64, f64)]) -> (f64, f64, Vec<f64>) {
        let pr: Vec<_> = cohorts
            .iter()
            .map(|&(m, p)| slot_outcome_probabilities(m, p))
            .collect();
        let silence = pr.iter().map(|o| o.silence).product::<f64>();
        let weights: Vec<f64> = (0..pr.len())
            .map(|i| {
                pr[i].delivery
                    * pr.iter()
                        .enumerate()
                        .filter(|&(j, _)| j != i)
                        .map(|(_, o)| o.silence)
                        .product::<f64>()
            })
            .collect();
        (silence, weights.iter().sum(), weights)
    }

    fn assert_rel_close(a: f64, b: f64, tol: f64, label: &str) {
        let scale = a.abs().max(b.abs()).max(1e-300);
        assert!(
            (a - b).abs() / scale < tol || (a - b).abs() < 1e-300,
            "{label}: {a} vs {b}"
        );
    }

    fn classify_fresh(cohorts: &[(u64, f64)]) -> (CohortKernel, SlotThresholds) {
        let mut kernel = CohortKernel::with_capacity(cohorts.len());
        for &(m, p) in cohorts {
            kernel.push(m, p);
        }
        let ms: Vec<f64> = cohorts.iter().map(|&(m, _)| m as f64).collect();
        let ps: Vec<f64> = cohorts.iter().map(|&(_, p)| p).collect();
        let t = kernel.classify(&ms, &ps);
        (kernel, t)
    }

    #[test]
    fn classification_matches_the_product_form() {
        for cohorts in [
            vec![(1u64, 0.3f64)],
            vec![(3, 0.1), (2, 0.25)],
            vec![(10, 0.05), (1, 1.0), (4, 0.2)],
            vec![(1000, 1e-3), (50, 0.01), (2, 0.5), (7, 1.0 / 7.0)],
            vec![(5, 0.0), (3, 0.4)],
        ] {
            let (_, t) = classify_fresh(&cohorts);
            let (silence, delivery, _) = exact_reference(&cohorts);
            assert_rel_close(t.t0, silence, 1e-12, "t0");
            assert_rel_close(t.t1, silence + delivery, 1e-12, "t1");
        }
    }

    #[test]
    fn empty_kernel_classifies_as_certain_silence() {
        let mut kernel = CohortKernel::new();
        let t = kernel.classify(&[], &[]);
        assert_eq!(t.t0, 1.0);
        assert_eq!(t.t1, 1.0);
        assert!(kernel.is_empty());
    }

    #[test]
    fn single_cohort_reduces_to_the_homogeneous_thresholds() {
        let (_, t) = classify_fresh(&[(1_000, 2.3e-4)]);
        let exact = SlotThresholds::exact(1_000, 2.3e-4);
        assert_rel_close(t.t0, exact.t0, 1e-12, "t0");
        assert_rel_close(t.t1, exact.t1, 1e-12, "t1");
    }

    #[test]
    fn a_dead_cohort_makes_the_slot_a_certain_collision() {
        // 10^6 stations at p = 1/21 are dead on their own; the tiny second
        // cohort cannot rescue the slot.
        let (_, t) = classify_fresh(&[(1_000_000, 1.0 / 21.0), (1, 0.01)]);
        assert!(t.is_dead());
    }

    #[test]
    fn certain_transmitters_shut_out_other_cohorts_deliveries() {
        // One station at p = 1 transmits surely: silence is impossible and
        // only that cohort can be the sole transmitter.
        let (kernel, t) = classify_fresh(&[(1, 1.0), (4, 0.2)]);
        assert_eq!(t.t0, 0.0);
        let expected = 0.8f64.powi(4);
        assert_rel_close(t.t1, expected, 1e-12, "sole delivery of the p=1 cohort");
        let (cohort, _) = kernel.delivering_cohort(0.5 * expected);
        assert_eq!(cohort, 0);
        // Two certain transmitters: certain collision.
        let (_, t) = classify_fresh(&[(1, 1.0), (1, 1.0), (4, 0.2)]);
        assert_eq!(t.t1, 0.0);
    }

    #[test]
    fn delivering_cohort_splits_the_band_by_the_sole_transmitter_weights() {
        let cohorts = vec![(3u64, 0.1f64), (2, 0.25), (8, 0.05)];
        let (kernel, t) = classify_fresh(&cohorts);
        let (silence, delivery, weights) = exact_reference(&cohorts);
        assert_rel_close(t.t1 - t.t0, delivery, 1e-12, "band width");
        // Walk the band on a fine grid: the measure of each cohort's segment
        // must match its weight, and the leftover fraction must sweep [0,1).
        let n = 200_000;
        let mut counts = vec![0u64; cohorts.len()];
        let mut fraction_sum = vec![0.0f64; cohorts.len()];
        for j in 0..n {
            let x = (j as f64 + 0.5) / n as f64 * delivery;
            let (i, frac) = kernel.delivering_cohort(x);
            counts[i] += 1;
            fraction_sum[i] += frac;
            assert!((0.0..1.0).contains(&frac));
        }
        for i in 0..cohorts.len() {
            let measured = counts[i] as f64 / n as f64;
            assert_rel_close(measured, weights[i] / delivery, 1e-3, "segment measure");
            // The leftover fraction is uniform on each segment: mean ≈ 1/2.
            let mean_fraction = fraction_sum[i] / counts[i] as f64;
            assert!(
                (mean_fraction - 0.5).abs() < 1e-2,
                "fraction mean {mean_fraction}"
            );
        }
        let _ = silence;
    }

    #[test]
    fn classification_agrees_with_per_station_sampling_statistically() {
        // Expand the cohorts into per-station probabilities and compare the
        // trichotomy frequencies of the per-station reference sampler with
        // the kernel's thresholds.
        let cohorts = [(6u64, 0.08f64), (3, 0.2), (10, 0.03)];
        let (_, t) = classify_fresh(&cohorts);
        let ps: Vec<f64> = cohorts
            .iter()
            .flat_map(|&(m, p)| std::iter::repeat_n(p, m as usize))
            .collect();
        let mut rng = Xoshiro256pp::seed_from_u64(2026);
        let n = 200_000;
        let mut counts = [0u64; 3];
        for _ in 0..n {
            match sample_heterogeneous_slot(&ps, &mut rng).0 {
                SlotOutcome::Silence => counts[0] += 1,
                SlotOutcome::Delivery => counts[1] += 1,
                SlotOutcome::Collision => counts[2] += 1,
            }
        }
        let tol = 4.0 * (0.25f64 / n as f64).sqrt();
        assert!((counts[0] as f64 / n as f64 - t.t0).abs() < tol);
        assert!((counts[1] as f64 / n as f64 - (t.t1 - t.t0)).abs() < tol);
    }

    #[test]
    fn kernel_tracks_drifting_cohort_schedules() {
        // Three cohorts on OFA-shaped drifting schedules, checked against a
        // fresh exact evaluation every slot.
        let mut kernel = CohortKernel::new();
        let mut cohorts: Vec<(u64, f64)> = vec![(500, 1.0 / 600.0), (200, 1.0 / 230.0), (40, 0.5)];
        for &(m, p) in &cohorts {
            kernel.push(m, p);
        }
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        for step in 0..20_000u64 {
            for (i, (m, p)) in cohorts.iter_mut().enumerate() {
                // Small relative drift plus occasional deliveries.
                *p *= 1.0 - 1e-4;
                if step % 97 == 31 && *m > 1 && i == step as usize % 3 {
                    *m -= 1;
                }
            }
            let ms: Vec<f64> = cohorts.iter().map(|&(m, _)| m as f64).collect();
            let ps: Vec<f64> = cohorts.iter().map(|&(_, p)| p).collect();
            let t = kernel.classify(&ms, &ps);
            let (silence, delivery, _) = exact_reference(&cohorts);
            assert_rel_close(t.t0, silence, 1e-9, "t0");
            assert_rel_close(t.t1, silence + delivery, 1e-9, "t1");
            let _ = rng.gen::<f64>();
        }
    }

    #[test]
    fn relative_gap_is_the_merge_tolerance_metric() {
        assert_eq!(relative_gap(0.0, 0.0), 0.0);
        assert_eq!(relative_gap(0.5, 0.5), 0.0);
        assert!((relative_gap(0.5, 0.45) - 0.1).abs() < 1e-12);
        assert!((relative_gap(0.45, 0.5) - 0.1).abs() < 1e-12);
        // A zero against a positive track is a full-scale gap.
        assert_eq!(relative_gap(0.0, 0.3), 1.0);
        // Consistency with the merge predicate |a−b| ≤ tol·max(a,b): the
        // gap is exactly the smallest tolerance that admits the pair.
        let (a, b) = (0.2, 0.26);
        let gap = relative_gap(a, b);
        assert!((a - b).abs() <= gap * a.max(b) + 1e-15);
        assert!((a - b).abs() > (gap - 1e-9) * a.max(b));
    }

    #[test]
    fn swap_remove_keeps_indices_aligned_with_the_callers_list() {
        let mut cohorts = vec![(3u64, 0.1f64), (2, 0.25), (8, 0.05), (1, 0.9)];
        let mut kernel = CohortKernel::new();
        for &(m, p) in &cohorts {
            kernel.push(m, p);
        }
        cohorts.swap_remove(1);
        kernel.swap_remove(1);
        assert_eq!(kernel.len(), 3);
        let ms: Vec<f64> = cohorts.iter().map(|&(m, _)| m as f64).collect();
        let ps: Vec<f64> = cohorts.iter().map(|&(_, p)| p).collect();
        let t = kernel.classify(&ms, &ps);
        let (silence, delivery, _) = exact_reference(&cohorts);
        assert_rel_close(t.t0, silence, 1e-10, "t0");
        assert_rel_close(t.t1, silence + delivery, 1e-10, "t1");
    }
}
