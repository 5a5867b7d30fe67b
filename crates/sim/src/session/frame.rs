//! The checkpoint frame: magic, version, declared length and trailing
//! digest around every session and sharded-driver checkpoint.

use super::SessionError;
#[cfg(doc)]
use super::{Session, ShardedSession};
use mac_prob::wire::{self, Encoder};
use std::fmt;

/// First word of every serialised session checkpoint.
const CHECKPOINT_MAGIC: u64 = 0x4D41_4353_4553_5331; // "MACSESS1"

/// First word of every serialised sharded-driver checkpoint.
const SHARDED_MAGIC: u64 = 0x4D41_4353_4841_5244; // "MACSHARD"

/// Checkpoint format version (bumped on any layout change; a reader
/// rejects every other version).
///
/// v7 writes each fact once, through the codec next to its type, and only
/// state that decides a result and that neither the kind nor the options
/// decide: a session frame holds the protocol kind, the run options (the
/// jamming model as words), the watchdog, the run state as one block (its
/// delivery slots in it when the options record them), and then only the
/// engine's own words, where an arrival stream is its model, RNG and
/// cursor. The kind picks the engine (window or cohort: a batched fair
/// session is a cohort session fed one slot-0 burst), so no word names it.
/// A fleet frame holds the supervision policy, the shard count and each
/// shard's session frame with its health (failures, quarantine, last
/// panic). `crates/sim/DESIGN.md` §9 lists every word with its owner.
const CHECKPOINT_VERSION: u64 = 7;

/// Words of frame overhead around a checkpoint payload: magic, version,
/// total length, and the trailing digest.
const FRAME_WORDS: usize = 4;

/// Which driver wrote a checkpoint: a single [`Session`] or the
/// [`ShardedSession`] fleet driver. The two use distinct magic words so a
/// frame fed to the wrong `resume` fails with a typed
/// [`IntegrityError::KindMismatch`] instead of decoding garbage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointKind {
    /// A [`Session::checkpoint`] frame.
    Session,
    /// A [`ShardedSession::checkpoint`] frame.
    Sharded,
}

impl fmt::Display for CheckpointKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointKind::Session => write!(f, "session"),
            CheckpointKind::Sharded => write!(f, "sharded session"),
        }
    }
}

/// Integrity failure detected while validating a checkpoint frame —
/// always **before** any engine state is reconstructed, so a bad buffer
/// can never leave a half-built session behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntegrityError {
    /// The buffer is shorter than its header claims (or too short to hold
    /// a header at all, in which case `expected_words` is `None`).
    Truncated {
        /// Total length recorded in the frame header, when readable.
        expected_words: Option<u64>,
        /// Words actually present.
        found_words: u64,
    },
    /// The buffer is longer than its header claims.
    TrailingData {
        /// Total length recorded in the frame header.
        expected_words: u64,
        /// Words actually present.
        found_words: u64,
    },
    /// The first word is neither the session nor the sharded magic — this
    /// is not a checkpoint at all.
    BadMagic {
        /// The word found where a magic was expected.
        found: u64,
    },
    /// A checkpoint of the wrong kind (session vs sharded) was fed to a
    /// `resume`.
    KindMismatch {
        /// The kind the frame's magic declares.
        found: CheckpointKind,
        /// The kind the caller required.
        expected: CheckpointKind,
    },
    /// The checkpoint was written by a different format version — carries
    /// both numbers so mixed-version fleets get an actionable error.
    VersionMismatch {
        /// The kind the frame's magic declares.
        kind: CheckpointKind,
        /// Version recorded in the frame.
        found: u64,
        /// Version this build reads and writes.
        expected: u64,
    },
    /// The stored digest does not match the recomputed one: at least one
    /// word of the frame was corrupted in storage or transit.
    Corrupt {
        /// Digest stored in the frame's final word.
        stored_digest: u64,
        /// Digest recomputed over the frame contents.
        computed_digest: u64,
    },
}

impl fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntegrityError::Truncated {
                expected_words,
                found_words,
            } => match expected_words {
                Some(expected) => write!(
                    f,
                    "checkpoint truncated: header declares {expected} words, found {found_words}"
                ),
                None => write!(
                    f,
                    "checkpoint truncated: {found_words} words is too short for a frame header"
                ),
            },
            IntegrityError::TrailingData {
                expected_words,
                found_words,
            } => write!(
                f,
                "checkpoint has trailing data: header declares {expected_words} words, found {found_words}"
            ),
            IntegrityError::BadMagic { found } => {
                write!(f, "not a checkpoint (bad magic word {found:#018x})")
            }
            IntegrityError::KindMismatch { found, expected } => {
                write!(f, "checkpoint kind mismatch: found a {found} checkpoint, expected a {expected} checkpoint")
            }
            IntegrityError::VersionMismatch {
                kind,
                found,
                expected,
            } => write!(
                f,
                "{kind} checkpoint version mismatch: found v{found}, this build reads v{expected}"
            ),
            IntegrityError::Corrupt {
                stored_digest,
                computed_digest,
            } => write!(
                f,
                "checkpoint corrupt: stored digest {stored_digest:#018x} != computed {computed_digest:#018x}"
            ),
        }
    }
}

impl std::error::Error for IntegrityError {}

/// A serialised session state: a self-describing `u64` word buffer (magic,
/// version, protocol and adversary configuration, full engine state) that
/// [`Session::resume`] turns back into a running session.
///
/// Checkpoints are plain data — they can cross processes or hosts of the
/// same build. [`Checkpoint::to_bytes`] / [`Checkpoint::from_bytes`] give a
/// little-endian byte serialisation for storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    pub(super) words: Vec<u64>,
}

impl Checkpoint {
    /// The raw checkpoint words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Checkpoint size in bytes (8 per word).
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Little-endian byte serialisation.
    pub fn to_bytes(&self) -> Vec<u8> {
        wire::words_to_bytes(&self.words)
    }

    /// Parses a checkpoint from [`Checkpoint::to_bytes`] output.
    ///
    /// # Errors
    /// Returns a [`SessionError::Wire`] if the byte length is not a
    /// multiple of 8.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SessionError> {
        Ok(Self {
            words: wire::bytes_to_words(bytes)?,
        })
    }

    /// Validates the integrity frame — magic, version, declared length and
    /// trailing digest — without reconstructing any state, and reports
    /// which driver wrote the checkpoint.
    ///
    /// This is exactly the validation `resume` performs first; a durable
    /// store uses it to decide whether a stored generation is still good.
    ///
    /// # Errors
    /// A typed [`IntegrityError`] distinguishing truncation, trailing
    /// data, corruption, and version mismatch.
    pub fn verify(&self) -> Result<CheckpointKind, IntegrityError> {
        let kind = peek_kind(&self.words)?;
        verify_frame(&self.words, kind)?;
        Ok(kind)
    }
}

/// Reads the kind of a frame from its magic word.
fn peek_kind(words: &[u64]) -> Result<CheckpointKind, IntegrityError> {
    match words.first() {
        None => Err(IntegrityError::Truncated {
            expected_words: None,
            found_words: 0,
        }),
        Some(&CHECKPOINT_MAGIC) => Ok(CheckpointKind::Session),
        Some(&SHARDED_MAGIC) => Ok(CheckpointKind::Sharded),
        Some(&other) => Err(IntegrityError::BadMagic { found: other }),
    }
}

/// Validates a checkpoint frame of the `expected` kind and returns its
/// payload slice (the words between the header and the digest).
///
/// Validation order matters for error quality: magic (kind) first, then
/// version, then the declared length, then the digest — so a
/// version-mismatched frame reports the versions instead of "corrupt",
/// and a truncated frame reports the missing words. Every check runs
/// before a single payload word is decoded.
pub(super) fn verify_frame(
    words: &[u64],
    expected: CheckpointKind,
) -> Result<&[u64], IntegrityError> {
    // The two slice patterns carry the FRAME_WORDS length proof: peeling
    // the trailing digest and then the three header words only succeeds on
    // a frame of at least four words, and `payload` is exactly the words
    // between the header and the digest.
    let [body @ .., stored] = words else {
        return Err(IntegrityError::Truncated {
            expected_words: None,
            found_words: 0,
        });
    };
    let [_magic, version, declared, payload @ ..] = body else {
        return Err(IntegrityError::Truncated {
            expected_words: None,
            found_words: words.len() as u64,
        });
    };
    let found = peek_kind(words)?;
    if found != expected {
        return Err(IntegrityError::KindMismatch { found, expected });
    }
    if *version != CHECKPOINT_VERSION {
        return Err(IntegrityError::VersionMismatch {
            kind: found,
            found: *version,
            expected: CHECKPOINT_VERSION,
        });
    }
    let present = words.len() as u64;
    if present < *declared {
        return Err(IntegrityError::Truncated {
            expected_words: Some(*declared),
            found_words: present,
        });
    }
    if present > *declared {
        return Err(IntegrityError::TrailingData {
            expected_words: *declared,
            found_words: present,
        });
    }
    let computed = wire::digest_words(body);
    if *stored != computed {
        return Err(IntegrityError::Corrupt {
            stored_digest: *stored,
            computed_digest: computed,
        });
    }
    Ok(payload)
}

/// Starts a checkpoint frame: magic, version, and a length placeholder
/// that [`seal_frame`] patches.
pub(super) fn open_frame(kind: CheckpointKind) -> Encoder {
    let mut out = Encoder::new();
    out.put_u64(match kind {
        CheckpointKind::Session => CHECKPOINT_MAGIC,
        CheckpointKind::Sharded => SHARDED_MAGIC,
    });
    out.put_u64(CHECKPOINT_VERSION);
    out.put_u64(0); // total length, patched by seal_frame
    out
}

/// Closes a frame opened by [`open_frame`]: patches the total length and
/// appends the digest over everything before it.
pub(super) fn seal_frame(out: Encoder) -> Checkpoint {
    let mut words = out.finish();
    debug_assert!(
        words.len() >= FRAME_WORDS - 1,
        "sealing an encoder that did not come from open_frame"
    );
    let with_digest = (words.len() + 1) as u64;
    if let Some(total_len) = words.get_mut(2) {
        *total_len = with_digest;
    }
    let digest = wire::digest_words(&words);
    words.push(digest);
    Checkpoint { words }
}
