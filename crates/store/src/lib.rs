//! # asv-store
//!
//! A disk-backed, content-addressed artifact store for verification
//! outcomes: verdicts (with their counterexample stimuli) and
//! deterministic verify errors survive the process, so a CI-style repair
//! loop never starts cold. Nothing in the workspace reads or writes a
//! store: asv-serve's in-memory `VerdictCache` is its only verdict tier,
//! and no crate derives exact or cone [`StoreKey`]s any more.
//!
//! ```text
//!   <store_dir>/
//!   ├── manifest.log          append-only, checksum-framed key → hash map
//!   ├── objects/
//!   │   ├── 3f/
//!   │   │   └── 3fa0…c2.obj   payload named by its own 128-bit digest
//!   │   └── a7/…
//!   └── tmp/                  staging for crash-safe writes
//! ```
//!
//! ## Contracts
//!
//! * **Crash safety** — objects are written to `tmp/`, fsynced, then
//!   atomically renamed into place; the manifest is an append-only log of
//!   checksummed records with torn-tail truncation on load. A crash at
//!   any instruction leaves the store readable.
//! * **Verify on read** — every object read recomputes the content hash
//!   and every record decode is total; a truncated or bit-flipped object
//!   is a *miss* (and is deleted), never a panic, never a wrong verdict.
//! * **Determinism** — only outcomes that are pure functions of their key
//!   are persisted: verdicts and `Verify` errors. `Inconclusive`,
//!   `Panic` and `Exhausted` may come from injected faults, so
//!   [`PersistedOutcome`] refuses them by construction.
//! * **Schema versioning** — every [`StoreKey`] embeds
//!   [`SCHEMA_VERSION`]; a release that changes any persisted encoding
//!   bumps it, and old objects become unreachable garbage for the next
//!   [`ArtifactStore::gc`] instead of aliasing new keys.

pub mod codec;
pub mod manifest;
pub mod object;
pub mod store;

pub use object::ObjectStore;
pub use store::{ArtifactStore, GcPolicy, GcReport, StoreStats};

use asv_ir::stablehash::hash128;
use asv_sva::bmc::{Verdict, VerifyError};

/// Version of every on-disk encoding (object payloads, manifest records,
/// key material). Mixed into [`StoreKey`] bytes, so a store written by an
/// incompatible release can never serve a hit — its keys simply don't
/// exist in the new keyspace.
///
/// Bump this when changing: any `codec` encoding, the key material, or
/// the hash function itself.
pub const SCHEMA_VERSION: u32 = 1;

/// 128-bit content digest of an object payload ([`asv_ir::stablehash`],
/// stable across processes and platforms). Objects are *named* by this
/// digest, so equal payloads dedup to one file and a read can verify the
/// bytes it got are the bytes that were named.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentHash(pub u128);

impl ContentHash {
    /// Digest of a payload.
    pub fn of(payload: &[u8]) -> Self {
        ContentHash(hash128(payload))
    }

    /// Lower-case fixed-width hex form (the object's file stem).
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the fixed-width hex form.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(ContentHash)
    }
}

impl std::fmt::Display for ContentHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// What an artifact *is*; part of the key, so a later artifact kind can
/// share a 128-bit input hash with an outcome without aliasing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ArtifactKind {
    /// A [`PersistedOutcome`] (verdict or deterministic verify error).
    Outcome = 0,
}

/// How the key's 128-bit hash was derived, kept separate so the two
/// derivations can never collide by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum KeyKind {
    /// Hash over the *whole* job: full design + property set + verifier
    /// config. Sound for every engine, invalidated by any design edit.
    Exact = 0,
    /// Hash over one assertion's `sym_live` cone + verifier config.
    /// Edit-invariant outside the cone; sound only for engines whose
    /// verdict depends on nothing outside it (the symbolic subset).
    Cone = 1,
}

/// A manifest key: schema version + key derivation + artifact kind +
/// the 128-bit key hash. 22 bytes on disk, fixed width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoreKey {
    /// The writer's [`SCHEMA_VERSION`].
    pub schema_version: u32,
    /// How [`StoreKey::hash`] was derived.
    pub kind: KeyKind,
    /// What the referenced object is.
    pub artifact: ArtifactKind,
    /// The derivation's 128-bit digest (a `JobKey` or a cone key).
    pub hash: u128,
}

/// On-disk width of a [`StoreKey`].
pub(crate) const KEY_BYTES: usize = 4 + 1 + 1 + 16;

impl StoreKey {
    /// An exact (whole-job) key at the current schema version.
    pub fn exact(artifact: ArtifactKind, hash: u128) -> Self {
        StoreKey {
            schema_version: SCHEMA_VERSION,
            kind: KeyKind::Exact,
            artifact,
            hash,
        }
    }

    /// A cone-derived key at the current schema version.
    pub fn cone(artifact: ArtifactKind, hash: u128) -> Self {
        StoreKey {
            schema_version: SCHEMA_VERSION,
            kind: KeyKind::Cone,
            artifact,
            hash,
        }
    }

    /// Fixed-width key material for the manifest.
    pub(crate) fn to_bytes(self) -> [u8; KEY_BYTES] {
        let mut out = [0u8; KEY_BYTES];
        out[..4].copy_from_slice(&self.schema_version.to_le_bytes());
        out[4] = self.kind as u8;
        out[5] = self.artifact as u8;
        out[6..].copy_from_slice(&self.hash.to_le_bytes());
        out
    }

    /// Inverse of [`StoreKey::to_bytes`]; `None` on an unknown
    /// discriminant (a record from a future schema).
    pub(crate) fn from_bytes(b: &[u8; KEY_BYTES]) -> Option<Self> {
        let kind = match b[4] {
            0 => KeyKind::Exact,
            1 => KeyKind::Cone,
            _ => return None,
        };
        let artifact = match b[5] {
            0 => ArtifactKind::Outcome,
            _ => return None,
        };
        Some(StoreKey {
            schema_version: u32::from_le_bytes(b[..4].try_into().unwrap()),
            kind,
            artifact,
            hash: u128::from_le_bytes(b[6..].try_into().unwrap()),
        })
    }
}

/// A verification outcome the store is allowed to hold: deterministic in
/// the job key by PR 6's memoisation contract. Constructed only through
/// [`PersistedOutcome::admit`], which refuses everything else
/// (`Inconclusive` verdicts and `Exhausted` errors, which may come from
/// injected faults rather than the key).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistedOutcome {
    /// A `Holds`/`Fails` verdict.
    Verdict(Verdict),
    /// A deterministic verification error (`Sim`, `Monitor`,
    /// `NoAssertions`, `Symbolic`, `Fuzz`).
    Error(VerifyError),
}

impl PersistedOutcome {
    /// Admits a check result into the persistable subset, or `None` when
    /// the outcome is not a pure function of its key.
    pub fn admit(result: &Result<Verdict, VerifyError>) -> Option<Self> {
        match result {
            Ok(Verdict::Inconclusive { .. }) => None,
            Ok(v) => Some(PersistedOutcome::Verdict(v.clone())),
            Err(VerifyError::Exhausted(_)) => None,
            Err(e) => Some(PersistedOutcome::Error(e.clone())),
        }
    }

    /// Back to the `Verifier::check` result shape.
    pub fn into_result(self) -> Result<Verdict, VerifyError> {
        match self {
            PersistedOutcome::Verdict(v) => Ok(v),
            PersistedOutcome::Error(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_sim::cancel::{Exhausted, Resource};

    #[test]
    fn key_bytes_round_trip() {
        for key in [
            StoreKey::exact(ArtifactKind::Outcome, 7),
            StoreKey::cone(ArtifactKind::Outcome, u128::MAX),
            StoreKey::exact(ArtifactKind::Outcome, 0x1234_5678_9abc_def0),
        ] {
            assert_eq!(StoreKey::from_bytes(&key.to_bytes()), Some(key));
        }
    }

    #[test]
    fn key_bytes_embed_schema_version() {
        let key = StoreKey::exact(ArtifactKind::Outcome, 42);
        assert_eq!(key.schema_version, SCHEMA_VERSION);
        let mut bumped = key;
        bumped.schema_version = SCHEMA_VERSION + 1;
        assert_ne!(key.to_bytes(), bumped.to_bytes());
    }

    #[test]
    fn unknown_discriminants_rejected() {
        let mut b = StoreKey::exact(ArtifactKind::Outcome, 1).to_bytes();
        b[4] = 9;
        assert_eq!(StoreKey::from_bytes(&b), None);
        // Artifact bytes 1 and 2 named the deleted coverage and design
        // metadata kinds.
        for artifact in [1, 2, 9] {
            let mut b = StoreKey::exact(ArtifactKind::Outcome, 1).to_bytes();
            b[5] = artifact;
            assert_eq!(StoreKey::from_bytes(&b), None);
        }
    }

    #[test]
    fn admit_refuses_nondeterministic_outcomes() {
        assert!(PersistedOutcome::admit(&Ok(Verdict::Inconclusive { tried: vec![] })).is_none());
        assert!(
            PersistedOutcome::admit(&Err(VerifyError::Exhausted(Exhausted {
                resource: Resource::SatConflicts,
                spent: 10,
                limit: 5,
            })))
            .is_none()
        );
    }

    #[test]
    fn admit_accepts_deterministic_outcomes() {
        let holds = Ok(Verdict::Holds {
            exhaustive: true,
            stimuli: 0,
            vacuous: vec![],
        });
        assert!(PersistedOutcome::admit(&holds).is_some());
        let err: Result<Verdict, _> = Err(VerifyError::NoAssertions);
        let got = PersistedOutcome::admit(&err).unwrap();
        assert_eq!(got.into_result(), Err(VerifyError::NoAssertions));
    }

    #[test]
    fn content_hash_hex_round_trip() {
        let h = ContentHash::of(b"payload");
        assert_eq!(ContentHash::from_hex(&h.to_hex()), Some(h));
        assert_eq!(ContentHash::from_hex("xyz"), None);
        assert_eq!(h.to_hex().len(), 32);
    }
}
