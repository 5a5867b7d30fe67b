//! Deterministic, splittable random-number generation.
//!
//! Every simulated run in this workspace must be reproducible from a single
//! master seed, and independent replications must use statistically
//! independent streams. This module provides:
//!
//! * [`SplitMix64`] — a tiny, well-mixed generator used for seed derivation
//!   (exactly the construction recommended by Vigna for seeding xoshiro);
//! * [`Xoshiro256pp`] — xoshiro256++ 1.0, the workhorse generator used by the
//!   simulators (fast, 256-bit state, passes BigCrush);
//! * [`derive_seed`] — a deterministic way to derive per-run, per-node
//!   seeds from a master seed and a path of indices.
//!
//! Both generators implement [`rand::RngCore`] and [`rand::SeedableRng`], so
//! they can be used with the `rand` combinators used elsewhere in the
//! workspace, and both are `Serialize`/`Deserialize`-free on purpose: a seed,
//! not a generator state, is the unit of reproducibility.

use rand::{Error, RngCore, SeedableRng};

/// SplitMix64 generator.
///
/// A 64-bit state generator with excellent mixing, primarily used here to
/// expand a `u64` master seed into larger seeds and to derive independent
/// sub-seeds. It is the seeding procedure recommended by the designers of the
/// xoshiro family.
///
/// # Example
/// ```
/// use mac_prob::rng::SplitMix64;
/// use rand::RngCore;
/// let mut sm = SplitMix64::new(7);
/// let a = sm.next_u64();
/// let b = sm.next_u64();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a new generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the raw 64-bit state.
    ///
    /// Together with [`SplitMix64::new`] this makes the generator exactly
    /// checkpointable: `SplitMix64::new(g.state())` produces the same future
    /// stream as `g`. Used by the streaming quantile sketch so that its
    /// compaction randomness survives checkpoint/resume bit-identically.
    #[inline]
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Returns the next 64-bit output.
    // The name follows the SplitMix64 reference implementation; the type is
    // not an `Iterator` (`RngCore::next_u64` is the iterator-safe spelling).
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl RngCore for SplitMix64 {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        fill_bytes_via_u64(self, dest);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for SplitMix64 {
    type Seed = [u8; 8];

    fn from_seed(seed: Self::Seed) -> Self {
        Self::new(u64::from_le_bytes(seed))
    }

    fn seed_from_u64(state: u64) -> Self {
        Self::new(state)
    }
}

/// xoshiro256++ 1.0 generator.
///
/// The default generator for all simulators in this workspace: 256 bits of
/// state, period 2^256 − 1, extremely fast and of high statistical quality.
/// Seeded from a `u64` through [`SplitMix64`], as recommended by its authors.
///
/// # Example
/// ```
/// use mac_prob::rng::Xoshiro256pp;
/// use rand::{Rng, SeedableRng};
/// let mut rng = Xoshiro256pp::seed_from_u64(123);
/// let x: f64 = rng.gen();
/// assert!((0.0..1.0).contains(&x));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Creates a generator whose 256-bit state is expanded from `seed` with
    /// [`SplitMix64`].
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for v in &mut s {
            *v = sm.next();
        }
        // An all-zero state is invalid (fixed point); SplitMix64 cannot
        // produce four consecutive zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            s = [0x9E37_79B9_7F4A_7C15, 1, 2, 3];
        }
        Self { s }
    }

    /// Returns the raw 256-bit state as four words.
    ///
    /// Two generators with equal state words produce identical streams
    /// forever, so the words serve as an *exact* fingerprint of the
    /// generator's future — used by the adversary strategy search to
    /// deduplicate game-tree states without any risk of hash collisions.
    #[inline]
    pub fn state_words(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from the words of [`Xoshiro256pp::state_words`],
    /// continuing the original stream exactly. The all-zero state (a fixed
    /// point that [`Xoshiro256pp::new`] can never produce) falls back to the
    /// seed-0 generator.
    #[inline]
    pub fn from_state_words(s: [u64; 4]) -> Self {
        if s == [0, 0, 0, 0] {
            return Self::new(0);
        }
        Self { s }
    }

    #[inline]
    fn step(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

impl RngCore for Xoshiro256pp {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.step() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.step()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        fill_bytes_via_u64(self, dest);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for Xoshiro256pp {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut s = [0u64; 4];
        for (i, chunk) in seed.chunks_exact(8).enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(chunk);
            s[i] = u64::from_le_bytes(b);
        }
        if s == [0, 0, 0, 0] {
            return Self::new(0);
        }
        Self { s }
    }

    fn seed_from_u64(state: u64) -> Self {
        Self::new(state)
    }
}

fn fill_bytes_via_u64<R: RngCore + ?Sized>(rng: &mut R, dest: &mut [u8]) {
    let mut chunks = dest.chunks_exact_mut(8);
    for chunk in &mut chunks {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    let rem = chunks.into_remainder();
    if !rem.is_empty() {
        let bytes = rng.next_u64().to_le_bytes();
        rem.copy_from_slice(&bytes[..rem.len()]);
    }
}

/// Derives a sub-seed from a master seed and a path of indices.
///
/// The derivation hashes the master seed and each path element through
/// [`SplitMix64`], so `derive_seed(s, &[a, b])` and `derive_seed(s, &[a, c])`
/// are statistically independent for `b != c`, and the whole scheme is
/// platform-independent and stable across releases of this crate.
///
/// # Example
/// ```
/// use mac_prob::rng::derive_seed;
/// let run0 = derive_seed(0xDEADBEEF, &[0]);
/// let run1 = derive_seed(0xDEADBEEF, &[1]);
/// assert_ne!(run0, run1);
/// assert_eq!(run0, derive_seed(0xDEADBEEF, &[0]));
/// ```
pub fn derive_seed(master: u64, path: &[u64]) -> u64 {
    let mut sm = SplitMix64::new(master);
    let mut acc = sm.next();
    for &p in path {
        // Mix the path element in, then re-diffuse.
        let mut s = SplitMix64::new(acc ^ p.wrapping_mul(0xA24B_AED4_963E_E407));
        acc = s.next();
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn splitmix_is_deterministic_and_mixes_nearby_seeds() {
        let mut a = SplitMix64::new(1234567);
        let mut b = SplitMix64::new(1234567);
        let mut c = SplitMix64::new(1234568);
        for _ in 0..64 {
            let x = a.next();
            assert_eq!(x, b.next());
            let y = c.next();
            // Adjacent seeds must diverge immediately and strongly:
            // at least a quarter of the bits should differ on every output.
            assert!((x ^ y).count_ones() >= 16, "weak mixing: {x:#x} vs {y:#x}");
        }
    }

    #[test]
    fn xoshiro_is_deterministic_per_seed() {
        let mut a = Xoshiro256pp::seed_from_u64(5);
        let mut b = Xoshiro256pp::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256pp::seed_from_u64(6);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn xoshiro_uniform_f64_in_unit_interval() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let mut sum = 0.0;
        const N: usize = 20_000;
        for _ in 0..N {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / N as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn from_seed_roundtrips_bytes() {
        let seed = [7u8; 32];
        let mut a = Xoshiro256pp::from_seed(seed);
        let mut b = Xoshiro256pp::from_seed(seed);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut z = Xoshiro256pp::from_seed([0u8; 32]);
        let a = z.next_u64();
        let b = z.next_u64();
        assert!(a != 0 || b != 0);
    }

    #[test]
    fn derive_seed_differs_per_path_and_is_stable() {
        let s1 = derive_seed(1, &[0, 1]);
        let s2 = derive_seed(1, &[0, 2]);
        let s3 = derive_seed(1, &[1, 1]);
        let s4 = derive_seed(2, &[0, 1]);
        assert_ne!(s1, s2);
        assert_ne!(s1, s3);
        assert_ne!(s1, s4);
        assert_eq!(s1, derive_seed(1, &[0, 1]));
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
