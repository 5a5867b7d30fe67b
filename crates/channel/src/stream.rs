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
use mac_prob::sampling::PoissonSampler;
use mac_prob::wire::{Decoder, Encoder, WireError};
use rand::SeedableRng;

/// Exact totals gathered by a counting pre-pass over a stream
/// (see [`ArrivalStream::summarise`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamSummary {
    /// Total number of messages the stream will emit.
    pub messages: u64,
    /// Slot of the last arrival (`None` if the stream is empty).
    pub last_arrival: Option<u64>,
}

/// Incremental, checkpointable producer of `(slot, count)` arrival bursts,
/// stream-identical to expanding [`ArrivalModel::sample`] (see the module
/// documentation for the identity statement).
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalStream {
    model: ArrivalModel,
    /// Knuth's limits for a Poisson model's rate: derived from `model` in
    /// [`ArrivalStream::new`] and [`ArrivalStream::decode`], never encoded.
    poisson: PoissonSampler,
    /// Poisson generator; deterministic models never draw from it.
    rng: Xoshiro256pp,
    /// Next Poisson slot to sample, or next burst index for `Bursts`.
    cursor: u64,
}

impl ArrivalStream {
    /// Creates a stream over `model`, seeding the Poisson generator with
    /// `seed` (deterministic models ignore it). Feed the same derived seed
    /// the dynamic driver gives to [`ArrivalModel::sample`] to reproduce its
    /// schedule.
    ///
    /// # Panics
    /// Panics if the model is invalid (see [`ArrivalModel::is_valid`]).
    pub fn new(model: &ArrivalModel, seed: u64) -> Self {
        let model = model.normalised();
        Self {
            poisson: model.poisson_sampler(),
            model,
            // lint:allow(rng-stream-discipline): the dynamic driver passes
            // derive_seed(run_seed, &[ARRIVAL_STREAM]) so the stream replays
            // ArrivalModel::sample bit-for-bit; a second derivation here
            // would desynchronise the two.
            rng: Xoshiro256pp::seed_from_u64(seed),
            cursor: 0,
        }
    }

    /// The (normalised) model this stream expands.
    pub fn model(&self) -> &ArrivalModel {
        &self.model
    }

    /// The next `(slot, count)` burst with `count > 0`, in strictly
    /// increasing slot order; `None` once the stream is exhausted.
    pub fn next_burst(&mut self) -> Option<(u64, u64)> {
        self.model
            .next_burst(&self.poisson, &mut self.cursor, &mut self.rng)
    }

    /// Runs a fresh stream over `model` to exhaustion in `O(1)` memory and
    /// returns its exact totals. The dynamic engines need the message count
    /// before the first slot (protocol parameters such as Log-fails
    /// Adaptive's ε depend on it), which a lazy stream cannot know — this is
    /// the counting pre-pass that replaces materialising the schedule.
    ///
    /// # Panics
    /// Panics if the model is invalid (see [`ArrivalModel::is_valid`]): a
    /// burst schedule's total would not fit in the returned count.
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

    /// Serialises the model and the dynamic state (RNG words, cursor) so
    /// that [`ArrivalStream::decode`] resumes the burst sequence
    /// bit-identically.
    pub fn encode(&self, out: &mut Encoder) {
        encode_model(&self.model, out);
        let s = self.rng.state_words();
        for w in s {
            out.put_u64(w);
        }
        out.put_u64(self.cursor);
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
        Ok(Self {
            poisson: model.poisson_sampler(),
            model,
            rng: Xoshiro256pp::from_state_words(s),
            cursor,
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
            "arrival model cannot be sampled: a Poisson rate outside \
             [0, MAX_POISSON_RATE = 2^16], or a burst total that overflows u64",
        ));
    }
    Ok(model)
}

/// The shard a message with the given global index belongs to: a uniform
/// salted hash, so every shard receives ≈ `1/n` of the messages. The map is
/// a pure function of `(salt, global index, shard count)`, so the `n`
/// per-shard views partition the master sequence exactly.
fn shard_of(salt: u64, index: u64, shards: u32) -> u32 {
    // lint:allow(rng-stream-discipline): stateless hash mixer, not a
    // random stream — one SplitMix64 step scrambles (salt, index) into a
    // shard id and the generator is discarded; there is no stream to
    // derive.
    let mixed = SplitMix64::new(salt ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next();
    (mixed % u64::from(shards)) as u32
}

/// One shard's view of a master [`ArrivalStream`]: keeps only the messages
/// whose global index hashes to this shard, so the `n` shards of a sharded
/// session partition the master sequence exactly.
///
/// A running shard walks the full master stream (each with its own copy),
/// which keeps shards independent — no cross-thread coordination — at the
/// cost of re-drawing the shared Poisson samples per shard. A fleet's build
/// and resume walk the master once for all shards instead
/// ([`ShardedArrivalStream::fleet`], [`ShardedArrivalStream::recount_fleet`]).
/// Sharding is by message, not by burst: a burst of `c` messages at slot `s`
/// contributes its own subset of indices to each shard.
#[derive(Debug, Clone)]
pub struct ShardedArrivalStream {
    master: ArrivalStream,
    /// Hash salt — derived from the session seed so the message→shard map is
    /// a fixed function of the run, not of the shard count alone.
    salt: u64,
    shard: u32,
    shards: u32,
    /// Global index of the next master message to classify.
    next_index: u64,
}

impl ShardedArrivalStream {
    /// Creates the view of shard `shard` (of `shards`) over a master
    /// stream.
    ///
    /// # Panics
    /// Panics unless `shard < shards` and `shards > 0`.
    pub fn new(master: ArrivalStream, salt: u64, shard: u32, shards: u32) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(shard < shards, "shard index out of range");
        Self {
            master,
            salt,
            shard,
            shards,
            next_index: 0,
        }
    }

    /// The `shards` views of a fresh `master` stream, each with the totals
    /// it will emit, from one walk of the master that hashes every message
    /// once. Shard `i`'s view and totals are at index `i`; the walk keeps
    /// one [`StreamSummary`] per shard and nothing per message.
    ///
    /// # Panics
    /// Panics unless `shards > 0`.
    pub fn fleet(master: ArrivalStream, salt: u64, shards: u32) -> Vec<(Self, StreamSummary)> {
        assert!(shards > 0, "need at least one shard");
        let mut totals = vec![StreamSummary::default(); shards as usize];
        let mut walk = master.clone();
        let mut index = 0u64;
        while let Some((slot, count)) = walk.next_burst() {
            for i in index..index + count {
                let total = &mut totals[shard_of(salt, i, shards) as usize];
                total.messages += 1;
                total.last_arrival = Some(slot);
            }
            index += count;
        }
        totals
            .into_iter()
            .zip(0..)
            .map(|(total, shard)| (Self::new(master.clone(), salt, shard, shards), total))
            .collect()
    }

    /// The messages each view of one fleet has still to emit, counted in one
    /// walk of the master stream that starts from the earliest view's state
    /// and hashes every message once; view `i`'s count is at index `i`.
    ///
    /// View `i` must be shard `i` of `views.len()`, all on one salt, and the
    /// state of every view — its master's model, RNG words and cursor, and
    /// its next master index — must be a state of that walk, as it is in a
    /// fleet [`ShardedArrivalStream::fleet`] builds, however far each shard
    /// has run.
    ///
    /// # Errors
    /// Returns [`WireError::Malformed`] if the views are not the shards of
    /// one fleet, or a view's state is not on the walk.
    pub fn recount_fleet(views: &[&Self]) -> Result<Vec<u64>, WireError> {
        let mut waiting = views.to_vec();
        waiting.sort_by_key(|view| view.master.cursor);
        let Some(start) = waiting.first() else {
            return Ok(Vec::new());
        };
        let (salt, shards) = (start.salt, start.shards);
        let one_fleet = views.len() == shards as usize
            && views
                .iter()
                .zip(0..)
                .all(|(view, i)| view.shard == i && view.shards == shards && view.salt == salt);
        if !one_fleet {
            return Err(WireError::Malformed(
                "arrival views are not the shards of one fleet",
            ));
        }
        let mut walk = start.master.clone();
        let mut index = start.next_index;
        // A shard's count starts (`Some`) once the walk reaches its view.
        let mut rest: Vec<Option<u64>> = vec![None; views.len()];
        let mut waiting = waiting.into_iter().peekable();
        let mut ended = false;
        loop {
            while let Some(view) = waiting.next_if(|view| view.master.cursor <= walk.cursor) {
                if view.master != walk || view.next_index != index {
                    return Err(WireError::Malformed(
                        "a shard's arrival view is not on its fleet's master walk",
                    ));
                }
                rest[view.shard as usize] = Some(0);
            }
            if ended {
                break;
            }
            match walk.next_burst() {
                Some((_, count)) => {
                    for i in index..index + count {
                        if let Some(owed) = &mut rest[shard_of(salt, i, shards) as usize] {
                            *owed += 1;
                        }
                    }
                    index += count;
                }
                None => ended = true,
            }
        }
        if waiting.next().is_some() {
            return Err(WireError::Malformed(
                "a shard's arrival view is past its fleet's master walk",
            ));
        }
        // Every view joined the walk, one per shard, so every count started.
        Ok(rest.into_iter().flatten().collect())
    }

    /// Next `(slot, count)` burst containing only this shard's messages
    /// (bursts whose messages all hash elsewhere are skipped).
    pub fn next_burst(&mut self) -> Option<(u64, u64)> {
        loop {
            let (slot, count) = self.master.next_burst()?;
            let first = self.next_index;
            self.next_index += count;
            let mine = (first..self.next_index)
                .filter(|&i| shard_of(self.salt, i, self.shards) == self.shard)
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
        let next_index = input.take_u64()?;
        if shards == 0 || shard >= shards {
            return Err(WireError::Malformed("invalid shard configuration"));
        }
        Ok(Self {
            master,
            salt,
            shard,
            shards,
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
        assert_eq!(drain(&mut stream), vec![(0, 7)]);

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
        let mut enc = Encoder::new();
        first.encode(&mut enc);
        let words = enc.finish();
        let mut dec = Decoder::new(&words);
        let mut resumed = ArrivalStream::decode(&mut dec).unwrap();
        dec.finish().unwrap();
        prefix.extend(drain(&mut resumed));
        assert_eq!(prefix, full);
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
        for rate in [f64::NAN, -1.0, f64::INFINITY, 65_537.0, 1e18, f64::MAX] {
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
    fn model_decoder_rejects_overflowing_burst_totals() {
        let mut enc = Encoder::new();
        let model = ArrivalModel::Bursts {
            bursts: vec![(0, u64::MAX), (1, 1)],
        };
        encode_model(&model, &mut enc);
        let words = enc.finish();
        assert!(matches!(
            decode_model(&mut Decoder::new(&words)),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    #[should_panic(expected = "arrival model cannot be sampled")]
    fn summarising_an_overflowing_burst_schedule_panics() {
        let model = ArrivalModel::Bursts {
            bursts: vec![(0, u64::MAX), (1, 1)],
        };
        ArrivalStream::summarise(&model, 0);
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

    /// One model of each kind, two Poisson rates among them.
    fn fleet_models() -> [ArrivalModel; 4] {
        [
            ArrivalModel::Poisson {
                rate: 0.05,
                horizon: 20_000,
            },
            ArrivalModel::Poisson {
                rate: 2.0,
                horizon: 2_000,
            },
            ArrivalModel::Bursts {
                bursts: vec![(10, 3), (2, 1), (10, 2), (500, 40), (700, 9)],
            },
            ArrivalModel::batched(25),
        ]
    }

    /// What `view` still emits, walked on its own copy.
    fn own_walk(view: &ShardedArrivalStream) -> StreamSummary {
        let mut view = view.clone();
        let mut summary = StreamSummary::default();
        while let Some((slot, count)) = view.next_burst() {
            summary.messages += count;
            summary.last_arrival = Some(slot);
        }
        summary
    }

    #[test]
    fn one_fleet_walk_gives_every_shard_its_own_views_totals() {
        for model in fleet_models() {
            let total = ArrivalStream::summarise(&model, 8).messages;
            for shards in [1u32, 2, 3, 7] {
                let fleet =
                    ShardedArrivalStream::fleet(ArrivalStream::new(&model, 8), 0x5A17, shards);
                assert_eq!(fleet.len(), shards as usize);
                let mut messages = 0;
                for (shard, (view, summary)) in (0..).zip(&fleet) {
                    assert_eq!(
                        (view.shard, view.shards, view.salt),
                        (shard, shards, 0x5A17)
                    );
                    assert_eq!(
                        *summary,
                        own_walk(view),
                        "{model:?}, shard {shard} of {shards}"
                    );
                    messages += summary.messages;
                }
                assert_eq!(messages, total, "{model:?}, {shards} shards");
            }
        }
    }

    #[test]
    fn one_fleet_recount_gives_every_shard_what_its_own_view_still_owes() {
        for model in fleet_models() {
            for shards in [1u32, 2, 3, 7] {
                let mut views: Vec<ShardedArrivalStream> =
                    ShardedArrivalStream::fleet(ArrivalStream::new(&model, 8), 0x5A17, shards)
                        .into_iter()
                        .map(|(view, _)| view)
                        .collect();
                // Shards at different points: fresh, a burst or a few in,
                // and run to the end.
                for (view, taken) in views
                    .iter_mut()
                    .zip([3, 0, 1, usize::MAX].into_iter().cycle())
                {
                    for _ in 0..taken {
                        if view.next_burst().is_none() {
                            break;
                        }
                    }
                }
                let refs: Vec<&ShardedArrivalStream> = views.iter().collect();
                let owed = ShardedArrivalStream::recount_fleet(&refs).unwrap();
                let walked: Vec<u64> = views.iter().map(|view| own_walk(view).messages).collect();
                assert_eq!(owed, walked, "{model:?}, {shards} shards");
            }
        }
    }

    #[test]
    fn fleet_views_off_the_master_walk_are_malformed() {
        let model = ArrivalModel::Poisson {
            rate: 0.3,
            horizon: 2_000,
        };
        let mut views: Vec<ShardedArrivalStream> =
            ShardedArrivalStream::fleet(ArrivalStream::new(&model, 4), 0x5A17, 3)
                .into_iter()
                .map(|(view, _)| view)
                .collect();
        for _ in 0..5 {
            views[1].next_burst();
        }
        let recount = |views: &[ShardedArrivalStream]| {
            ShardedArrivalStream::recount_fleet(&views.iter().collect::<Vec<_>>())
        };
        assert!(recount(&views).is_ok());
        let moved = |change: fn(&mut ShardedArrivalStream)| {
            let mut moved = views.clone();
            change(&mut moved[1]);
            moved
        };
        let mut swapped = views.clone();
        swapped.swap(0, 2);
        for (what, fleet) in [
            ("next index", moved(|view| view.next_index += 1)),
            ("cursor", moved(|view| view.master.cursor += 1)),
            (
                "cursor past the end",
                moved(|view| view.master.cursor = 5_000),
            ),
            (
                "RNG words",
                moved(|view| view.master.rng = Xoshiro256pp::seed_from_u64(9)),
            ),
            (
                "model",
                moved(|view| view.master.model = ArrivalModel::batched(3)),
            ),
            ("salt", moved(|view| view.salt ^= 1)),
            ("shard order", swapped),
        ] {
            assert!(
                matches!(recount(&fleet), Err(WireError::Malformed(_))),
                "{what}"
            );
        }
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for index in 0..1_000u64 {
            let shard = shard_of(99, index, 8);
            assert!(shard < 8);
            assert_eq!(shard, shard_of(99, index, 8));
        }
    }
}
