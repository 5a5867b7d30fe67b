//! Incremental arrival streams for streaming simulation sessions.
//!
//! [`ArrivalModel::sample`] materialises the whole run's arrivals up front —
//! fine for the paper's static experiments, but a 10⁹-slot dynamic session
//! cannot afford `O(messages)` memory just to know who arrives when. An
//! [`ArrivalStream`] produces the same arrivals **incrementally**, one
//! `(slot, count)` burst at a time, with `O(1)` state.
//!
//! ## Stream identity
//!
//! For every model, the burst sequence emitted by an [`ArrivalStream`] is
//! exactly the per-slot grouping of the [`crate::ArrivalSchedule`] that
//! [`ArrivalModel::sample`] produces from the same RNG seed — by
//! construction, since both draw from one burst generator:
//!
//! * [`ArrivalModel::Batched`] — a single burst `(0, k)`;
//! * [`ArrivalModel::Bursts`] — the schedule's bursts, sorted by slot with
//!   duplicate slots merged (which is what sorting the expanded per-message
//!   slots does);
//! * [`ArrivalModel::Poisson`] — one [`mac_prob::sampling::sample_poisson`] draw per slot in
//!   `0..horizon`, in slot order, from the stream's own generator. Seeding
//!   the stream with the same derived seed the dynamic driver feeds to
//!   `sample` reproduces the schedule draw for draw.
//!
//! The stream is checkpointable: [`ArrivalStream::encode`] captures the model
//! *and* the dynamic cursor/RNG state, and [`ArrivalStream::decode`] resumes
//! the burst sequence bit-identically (property-tested in `mac-sim`'s session
//! suite).
//!
//! [`ShardedArrivalStream`] splits one master stream across `n` independent
//! channels by hashing each message's global index, so a sharded session's
//! shards jointly see exactly the master arrival sequence.

use crate::arrivals::ArrivalModel;
use mac_prob::rng::{SplitMix64, Xoshiro256pp};
use mac_prob::wire::{Decoder, Encoder, WireError};
use rand::SeedableRng;

/// Exact totals gathered by a counting pre-pass over a stream
/// (see [`ArrivalStream::summarise`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSummary {
    /// Total number of messages the stream will emit.
    pub messages: u64,
    /// Slot of the last arrival (`None` if the stream is empty).
    pub last_arrival: Option<u64>,
}

/// Incremental, checkpointable producer of `(slot, count)` arrival bursts,
/// stream-identical to expanding [`ArrivalModel::sample`] (see the module
/// documentation for the identity statement).
#[derive(Debug, Clone)]
pub struct ArrivalStream {
    model: ArrivalModel,
    /// Poisson generator; deterministic models never draw from it.
    rng: Xoshiro256pp,
    /// Next Poisson slot to sample, or next burst index for `Bursts`.
    cursor: u64,
    /// Lookahead burst already produced but not yet consumed.
    pending: Option<(u64, u64)>,
    /// Messages handed out so far (drives sharding and summaries).
    emitted: u64,
}

impl ArrivalStream {
    /// Creates a stream over `model`, seeding the Poisson generator with
    /// `seed` (deterministic models ignore it). Feed the same derived seed
    /// the dynamic driver gives to [`ArrivalModel::sample`] to reproduce its
    /// schedule.
    pub fn new(model: &ArrivalModel, seed: u64) -> Self {
        Self {
            model: model.normalised(),
            // lint:allow(rng-stream-discipline): the dynamic driver passes
            // derive_seed(run_seed, &[ARRIVAL_STREAM]) so the stream replays
            // ArrivalModel::sample bit-for-bit; a second derivation here
            // would desynchronise the two.
            rng: Xoshiro256pp::seed_from_u64(seed),
            cursor: 0,
            pending: None,
            emitted: 0,
        }
    }

    /// The (normalised) model this stream expands.
    pub fn model(&self) -> &ArrivalModel {
        &self.model
    }

    /// Messages emitted by [`ArrivalStream::next_burst`] so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// The next burst without consuming it.
    ///
    /// # Panics
    /// Panics if the model is invalid (see [`ArrivalModel::is_valid`]).
    pub fn peek(&mut self) -> Option<(u64, u64)> {
        if self.pending.is_none() {
            self.pending = self.model.next_burst(&mut self.cursor, &mut self.rng);
        }
        self.pending
    }

    /// The next `(slot, count)` burst with `count > 0`, in strictly
    /// increasing slot order; `None` once the stream is exhausted.
    ///
    /// # Panics
    /// Panics if the model is invalid (see [`ArrivalModel::is_valid`]).
    pub fn next_burst(&mut self) -> Option<(u64, u64)> {
        let burst = self.peek();
        if let Some((_, count)) = burst {
            self.pending = None;
            self.emitted += count;
        }
        burst
    }

    /// Runs a fresh stream over `model` to exhaustion in `O(1)` memory and
    /// returns its exact totals. The dynamic engines need the message count
    /// before the first slot (protocol parameters such as Log-fails
    /// Adaptive's ε depend on it), which a lazy stream cannot know — this is
    /// the counting pre-pass that replaces materialising the schedule.
    pub fn summarise(model: &ArrivalModel, seed: u64) -> StreamSummary {
        let mut stream = Self::new(model, seed);
        let mut messages = 0u64;
        let mut last_arrival = None;
        while let Some((slot, count)) = stream.next_burst() {
            messages += count;
            last_arrival = Some(slot);
        }
        StreamSummary {
            messages,
            last_arrival,
        }
    }

    /// Serialises the model and the dynamic state (cursor, pending burst,
    /// RNG words) so that [`ArrivalStream::decode`] resumes the burst
    /// sequence bit-identically.
    pub fn encode(&self, out: &mut Encoder) {
        encode_model(&self.model, out);
        let s = self.rng.state_words();
        for w in s {
            out.put_u64(w);
        }
        out.put_u64(self.cursor);
        match self.pending {
            Some((slot, count)) => {
                out.put_bool(true);
                out.put_u64(slot);
                out.put_u64(count);
            }
            None => out.put_bool(false),
        }
        out.put_u64(self.emitted);
    }

    /// Inverse of [`ArrivalStream::encode`].
    ///
    /// # Errors
    /// Returns an error if the words are truncated or structurally invalid.
    pub fn decode(input: &mut Decoder<'_>) -> Result<Self, WireError> {
        let model = decode_model(input)?;
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = input.take_u64()?;
        }
        let cursor = input.take_u64()?;
        let pending = if input.take_bool()? {
            Some((input.take_u64()?, input.take_u64()?))
        } else {
            None
        };
        let emitted = input.take_u64()?;
        Ok(Self {
            model,
            rng: Xoshiro256pp::from_state_words(s),
            cursor,
            pending,
            emitted,
        })
    }
}

/// Wire codec for an [`ArrivalModel`] (the vendored `serde` derives are
/// no-ops, so checkpoints carry models through this hand-rolled format).
pub fn encode_model(model: &ArrivalModel, out: &mut Encoder) {
    match model {
        ArrivalModel::Batched { k } => {
            out.put_u32(0);
            out.put_u64(*k);
        }
        ArrivalModel::Poisson { rate, horizon } => {
            out.put_u32(1);
            out.put_f64(*rate);
            out.put_u64(*horizon);
        }
        ArrivalModel::Bursts { bursts } => {
            out.put_u32(2);
            out.put_usize(bursts.len());
            for &(slot, count) in bursts {
                out.put_u64(slot);
                out.put_u64(count);
            }
        }
    }
}

/// Inverse of [`encode_model`].
///
/// # Errors
/// Returns an error on an unknown discriminant, truncated input, or a
/// model that cannot be sampled (see [`ArrivalModel::is_valid`]).
pub fn decode_model(input: &mut Decoder<'_>) -> Result<ArrivalModel, WireError> {
    let model = match input.take_u32()? {
        0 => ArrivalModel::Batched {
            k: input.take_u64()?,
        },
        1 => ArrivalModel::Poisson {
            rate: input.take_f64()?,
            horizon: input.take_u64()?,
        },
        2 => {
            let n = input.take_usize()?;
            let mut bursts = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                bursts.push((input.take_u64()?, input.take_u64()?));
            }
            ArrivalModel::Bursts { bursts }
        }
        _ => return Err(WireError::Malformed("unknown arrival-model discriminant")),
    };
    if !model.is_valid() {
        return Err(WireError::Malformed(
            "arrival rate must be finite and non-negative",
        ));
    }
    Ok(model)
}

/// Message→shard assignment policy of a [`ShardedArrivalStream`]. Whatever
/// the policy, the assignment is a pure function of `(salt, global index,
/// shard count)`, so the `n` per-shard views always partition the master
/// sequence exactly — the policy only shapes the *load* distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStrategy {
    /// Uniform salted hash: every shard receives ≈ `1/n` of the messages
    /// (the default).
    Uniform,
    /// Skewed assignment modelling a hot channel: shard 0 receives
    /// `hot_permille / 1000` of the messages and the remainder spreads
    /// uniformly over the other shards. With a single shard everything is
    /// shard 0 regardless.
    HotShard {
        /// Per-mille of the master stream routed to shard 0 (0..=1000).
        hot_permille: u16,
    },
}

impl ShardStrategy {
    /// The shard a message with the given global index belongs to.
    pub fn shard_of(self, salt: u64, index: u64, shards: u32) -> u32 {
        // lint:allow(rng-stream-discipline): stateless hash mixer, not a
        // random stream — one SplitMix64 step scrambles (salt, index) into a
        // shard id and the generator is discarded; there is no stream to
        // derive.
        let mixed = SplitMix64::new(salt ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next();
        match self {
            ShardStrategy::Uniform => (mixed % u64::from(shards)) as u32,
            ShardStrategy::HotShard { hot_permille } => {
                if shards == 1 || mixed % 1000 < u64::from(hot_permille) {
                    0
                } else {
                    // The high mixer bits pick among the cold shards, so the
                    // hot/cold coin and the cold choice stay independent.
                    1 + ((mixed / 1000) % u64::from(shards - 1)) as u32
                }
            }
        }
    }

    /// True iff the strategy's parameters are in range.
    pub fn is_valid(self) -> bool {
        match self {
            ShardStrategy::Uniform => true,
            ShardStrategy::HotShard { hot_permille } => hot_permille <= 1000,
        }
    }

    /// Serialises the strategy.
    pub fn encode(self, out: &mut Encoder) {
        match self {
            ShardStrategy::Uniform => out.put_u32(0),
            ShardStrategy::HotShard { hot_permille } => {
                out.put_u32(1);
                out.put_u32(u32::from(hot_permille));
            }
        }
    }

    /// Inverse of [`ShardStrategy::encode`].
    ///
    /// # Errors
    /// Returns an error on an unknown tag or out-of-range parameters.
    pub fn decode(input: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match input.take_u32()? {
            0 => ShardStrategy::Uniform,
            1 => {
                let hot_permille = u16::try_from(input.take_u32()?)
                    .map_err(|_| WireError::Malformed("hot-shard permille out of range"))?;
                let strategy = ShardStrategy::HotShard { hot_permille };
                if !strategy.is_valid() {
                    return Err(WireError::Malformed("hot-shard permille out of range"));
                }
                strategy
            }
            _ => return Err(WireError::Malformed("unknown shard strategy tag")),
        })
    }
}

/// One shard's view of a master [`ArrivalStream`]: keeps only the messages
/// whose global index hashes to this shard, so the `n` shards of a sharded
/// session partition the master sequence exactly.
///
/// Every shard walks the full master stream (each with its own copy), which
/// keeps shards independent — no cross-thread coordination — at the cost of
/// re-drawing the shared Poisson samples per shard. Sharding is by message,
/// not by burst: a burst of `c` messages at slot `s` contributes its own
/// subset of indices to each shard. The message→shard map is pluggable
/// ([`ShardStrategy`]); skewed strategies model hot channels while keeping
/// the exact-partition property.
#[derive(Debug, Clone)]
pub struct ShardedArrivalStream {
    master: ArrivalStream,
    /// Hash salt — derived from the session seed so the message→shard map is
    /// a fixed function of the run, not of the shard count alone.
    salt: u64,
    shard: u32,
    shards: u32,
    strategy: ShardStrategy,
    /// Global index of the next master message to classify.
    next_index: u64,
}

impl ShardedArrivalStream {
    /// Creates the view of shard `shard` (of `shards`) over a master
    /// stream, under the uniform assignment strategy.
    ///
    /// # Panics
    /// Panics unless `shard < shards` and `shards > 0`.
    pub fn new(master: ArrivalStream, salt: u64, shard: u32, shards: u32) -> Self {
        Self::with_strategy(master, salt, shard, shards, ShardStrategy::Uniform)
    }

    /// Creates the view of shard `shard` (of `shards`) under an explicit
    /// [`ShardStrategy`]. Every shard of a run must use the same strategy,
    /// or the views stop partitioning the master sequence.
    ///
    /// # Panics
    /// Panics unless `shard < shards`, `shards > 0` and the strategy's
    /// parameters are in range.
    pub fn with_strategy(
        master: ArrivalStream,
        salt: u64,
        shard: u32,
        shards: u32,
        strategy: ShardStrategy,
    ) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(shard < shards, "shard index out of range");
        assert!(
            strategy.is_valid(),
            "shard strategy parameters out of range"
        );
        Self {
            master,
            salt,
            shard,
            shards,
            strategy,
            next_index: 0,
        }
    }

    /// The shard a message with the given global index belongs to under the
    /// uniform strategy (kept as the historical entry point; strategies go
    /// through [`ShardStrategy::shard_of`]).
    pub fn shard_of(salt: u64, index: u64, shards: u32) -> u32 {
        ShardStrategy::Uniform.shard_of(salt, index, shards)
    }

    /// The assignment strategy this view classifies with.
    pub fn strategy(&self) -> ShardStrategy {
        self.strategy
    }

    /// Next `(slot, count)` burst containing only this shard's messages
    /// (bursts whose messages all hash elsewhere are skipped).
    pub fn next_burst(&mut self) -> Option<(u64, u64)> {
        loop {
            let (slot, count) = self.master.next_burst()?;
            let first = self.next_index;
            self.next_index += count;
            let mine = (first..self.next_index)
                .filter(|&i| self.strategy.shard_of(self.salt, i, self.shards) == self.shard)
                .count() as u64;
            if mine > 0 {
                return Some((slot, mine));
            }
        }
    }

    /// Serialises the master stream plus the sharding cursor.
    pub fn encode(&self, out: &mut Encoder) {
        self.master.encode(out);
        out.put_u64(self.salt);
        out.put_u32(self.shard);
        out.put_u32(self.shards);
        self.strategy.encode(out);
        out.put_u64(self.next_index);
    }

    /// Inverse of [`ShardedArrivalStream::encode`].
    ///
    /// # Errors
    /// Returns an error if the words are truncated or structurally invalid.
    pub fn decode(input: &mut Decoder<'_>) -> Result<Self, WireError> {
        let master = ArrivalStream::decode(input)?;
        let salt = input.take_u64()?;
        let shard = input.take_u32()?;
        let shards = input.take_u32()?;
        let strategy = ShardStrategy::decode(input)?;
        let next_index = input.take_u64()?;
        if shards == 0 || shard >= shards {
            return Err(WireError::Malformed("invalid shard configuration"));
        }
        Ok(Self {
            master,
            salt,
            shard,
            shards,
            strategy,
            next_index,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalSchedule;
    use rand::SeedableRng;

    fn drain(stream: &mut ArrivalStream) -> Vec<(u64, u64)> {
        let mut bursts = Vec::new();
        while let Some(b) = stream.next_burst() {
            bursts.push(b);
        }
        bursts
    }

    fn schedule_bursts(schedule: &ArrivalSchedule) -> Vec<(u64, u64)> {
        let mut bursts: Vec<(u64, u64)> = Vec::new();
        for &slot in schedule.arrival_slots() {
            match bursts.last_mut() {
                Some((last, count)) if *last == slot => *count += 1,
                _ => bursts.push((slot, 1)),
            }
        }
        bursts
    }

    #[test]
    fn batched_stream_is_single_burst() {
        let mut stream = ArrivalStream::new(&ArrivalModel::batched(7), 0);
        assert_eq!(stream.peek(), Some((0, 7)));
        assert_eq!(drain(&mut stream), vec![(0, 7)]);
        assert_eq!(stream.emitted(), 7);

        let mut empty = ArrivalStream::new(&ArrivalModel::batched(0), 0);
        assert_eq!(drain(&mut empty), vec![]);
    }

    #[test]
    fn bursts_stream_sorts_and_merges() {
        let model = ArrivalModel::Bursts {
            bursts: vec![(10, 3), (2, 1), (10, 2), (5, 0)],
        };
        let mut stream = ArrivalStream::new(&model, 0);
        assert_eq!(drain(&mut stream), vec![(2, 1), (10, 5)]);
    }

    #[test]
    fn poisson_stream_matches_sampled_schedule() {
        let model = ArrivalModel::Poisson {
            rate: 0.3,
            horizon: 5_000,
        };
        for seed in [1u64, 42, 0xDEAD] {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let schedule = model.sample(&mut rng);
            let mut stream = ArrivalStream::new(&model, seed);
            assert_eq!(drain(&mut stream), schedule_bursts(&schedule));
            assert_eq!(stream.emitted(), schedule.len() as u64);
        }
    }

    #[test]
    fn summary_matches_schedule_totals() {
        let model = ArrivalModel::Poisson {
            rate: 0.8,
            horizon: 2_000,
        };
        let seed = 9;
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let schedule = model.sample(&mut rng);
        let summary = ArrivalStream::summarise(&model, seed);
        assert_eq!(summary.messages, schedule.len() as u64);
        assert_eq!(summary.last_arrival, schedule.last_arrival());
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let model = ArrivalModel::Poisson {
            rate: 0.5,
            horizon: 3_000,
        };
        let seed = 77;
        let mut unbroken = ArrivalStream::new(&model, seed);
        let full = drain(&mut unbroken);

        let mut first = ArrivalStream::new(&model, seed);
        let mut prefix = Vec::new();
        for _ in 0..full.len() / 2 {
            prefix.push(first.next_burst().unwrap());
        }
        // Peek before the checkpoint so the lookahead state is exercised.
        let _ = first.peek();
        let mut enc = Encoder::new();
        first.encode(&mut enc);
        let words = enc.finish();
        let mut dec = Decoder::new(&words);
        let mut resumed = ArrivalStream::decode(&mut dec).unwrap();
        dec.finish().unwrap();
        prefix.extend(drain(&mut resumed));
        assert_eq!(prefix, full);
        assert_eq!(resumed.emitted(), unbroken.emitted());
    }

    #[test]
    fn model_codec_round_trips() {
        let models = [
            ArrivalModel::batched(12),
            ArrivalModel::Poisson {
                rate: 1.5,
                horizon: 100,
            },
            ArrivalModel::Bursts {
                bursts: vec![(0, 2), (9, 4)],
            },
        ];
        for model in &models {
            let mut enc = Encoder::new();
            encode_model(model, &mut enc);
            let words = enc.finish();
            let mut dec = Decoder::new(&words);
            assert_eq!(&decode_model(&mut dec).unwrap(), model);
            dec.finish().unwrap();
        }
    }

    #[test]
    fn model_decoder_rejects_unsampleable_rates() {
        for rate in [f64::NAN, -1.0, f64::INFINITY] {
            let mut enc = Encoder::new();
            encode_model(&ArrivalModel::Poisson { rate, horizon: 5 }, &mut enc);
            let words = enc.finish();
            assert!(matches!(
                decode_model(&mut Decoder::new(&words)),
                Err(WireError::Malformed(_))
            ));
        }
    }

    #[test]
    fn shards_partition_the_master_stream() {
        let model = ArrivalModel::Poisson {
            rate: 0.7,
            horizon: 1_000,
        };
        let seed = 5;
        let salt = 0xABCD;
        let shards = 4u32;
        let mut master = ArrivalStream::new(&model, seed);
        let master_bursts = drain(&mut master);

        let mut shard_totals = std::collections::BTreeMap::new();
        for shard in 0..shards {
            let view = ArrivalStream::new(&model, seed);
            let mut sharded = ShardedArrivalStream::new(view, salt, shard, shards);
            while let Some((slot, count)) = sharded.next_burst() {
                *shard_totals.entry(slot).or_insert(0u64) += count;
            }
        }
        let merged: Vec<(u64, u64)> = shard_totals.into_iter().collect();
        assert_eq!(merged, master_bursts);
    }

    #[test]
    fn sharded_checkpoint_round_trips() {
        let model = ArrivalModel::Poisson {
            rate: 0.4,
            horizon: 2_000,
        };
        let view = ArrivalStream::new(&model, 3);
        let mut sharded = ShardedArrivalStream::new(view, 0x5417, 1, 3);
        let mut unbroken = sharded.clone();
        let mut full = Vec::new();
        while let Some(b) = unbroken.next_burst() {
            full.push(b);
        }

        let mut prefix = Vec::new();
        for _ in 0..full.len() / 3 {
            prefix.push(sharded.next_burst().unwrap());
        }
        let mut enc = Encoder::new();
        sharded.encode(&mut enc);
        let words = enc.finish();
        let mut dec = Decoder::new(&words);
        let mut resumed = ShardedArrivalStream::decode(&mut dec).unwrap();
        dec.finish().unwrap();
        while let Some(b) = resumed.next_burst() {
            prefix.push(b);
        }
        assert_eq!(prefix, full);
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for index in 0..1_000u64 {
            let shard = ShardedArrivalStream::shard_of(99, index, 8);
            assert!(shard < 8);
            assert_eq!(shard, ShardedArrivalStream::shard_of(99, index, 8));
        }
    }

    #[test]
    fn skewed_shards_still_partition_the_master_stream() {
        // The exact-partition property must be strategy-independent: the
        // union over all shard views equals the single-channel arrival
        // sequence burst for burst, even under a heavily skewed map.
        let model = ArrivalModel::Poisson {
            rate: 0.7,
            horizon: 1_000,
        };
        let seed = 5;
        let salt = 0xABCD;
        let shards = 4u32;
        let strategy = ShardStrategy::HotShard { hot_permille: 700 };
        let mut master = ArrivalStream::new(&model, seed);
        let master_bursts = drain(&mut master);
        let total: u64 = master_bursts.iter().map(|&(_, c)| c).sum();

        let mut shard_totals = std::collections::BTreeMap::new();
        let mut per_shard = vec![0u64; shards as usize];
        for shard in 0..shards {
            let view = ArrivalStream::new(&model, seed);
            let mut sharded =
                ShardedArrivalStream::with_strategy(view, salt, shard, shards, strategy);
            while let Some((slot, count)) = sharded.next_burst() {
                *shard_totals.entry(slot).or_insert(0u64) += count;
                per_shard[shard as usize] += count;
            }
        }
        let merged: Vec<(u64, u64)> = shard_totals.into_iter().collect();
        assert_eq!(merged, master_bursts);
        // The skew must actually bite: shard 0 carries ≈ 70% of the load.
        assert!(
            per_shard[0] * 2 > total,
            "hot shard holds {} of {total} messages — not hot",
            per_shard[0]
        );
    }

    #[test]
    fn hot_shard_assignment_is_stable_and_in_range() {
        let strategy = ShardStrategy::HotShard { hot_permille: 250 };
        let mut hot = 0u64;
        for index in 0..4_000u64 {
            let shard = strategy.shard_of(7, index, 8);
            assert!(shard < 8);
            assert_eq!(shard, strategy.shard_of(7, index, 8));
            if shard == 0 {
                hot += 1;
            }
        }
        // ≈ 1000 of 4000 expected on shard 0; 6σ ≈ 165.
        assert!((800..=1200).contains(&hot), "hot count {hot}");
        // Single-shard degenerate case: everything is shard 0.
        assert_eq!(strategy.shard_of(7, 1234, 1), 0);
    }

    #[test]
    fn shard_strategy_codec_round_trips_and_rejects_bad_permille() {
        for strategy in [
            ShardStrategy::Uniform,
            ShardStrategy::HotShard { hot_permille: 0 },
            ShardStrategy::HotShard { hot_permille: 1000 },
        ] {
            let mut enc = Encoder::new();
            strategy.encode(&mut enc);
            let words = enc.finish();
            let mut dec = Decoder::new(&words);
            assert_eq!(ShardStrategy::decode(&mut dec).unwrap(), strategy);
            dec.finish().unwrap();
        }
        let mut enc = Encoder::new();
        enc.put_u32(1);
        enc.put_u32(1001);
        let words = enc.finish();
        let mut dec = Decoder::new(&words);
        assert!(ShardStrategy::decode(&mut dec).is_err());
    }
}
