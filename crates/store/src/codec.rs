//! Hand-rolled binary codecs for every persisted artifact.
//!
//! The workspace's `serde` is an offline no-op shim, so serialization is
//! explicit: little-endian fixed-width integers, length-prefixed strings
//! and sequences, one tag byte per enum variant. Two properties matter
//! more than compactness:
//!
//! * **Canonical** — encoding is a pure function of the value (no maps
//!   with unstable iteration order, no padding left uninitialised), so
//!   `ContentHash(encode(v))` is stable and equal values dedup to one
//!   object.
//! * **Total decoding** — every read returns `Option`; a truncated or
//!   corrupted payload decodes to `None` (a store miss), never panics,
//!   and trailing garbage is rejected by [`ByteReader::finish`].

use asv_ir::eval::EvalError;
use asv_sim::exec::SimError;
use asv_sim::stimulus::Stimulus;
use asv_sva::bmc::{CounterExample, Verdict, VerifyError};
use asv_sva::monitor::{AssertionFailure, MonitorError};
use std::sync::Arc;

use crate::PersistedOutcome;

/// Append-only encoder for one artifact payload.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// The encoded payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// One raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian `u128`.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` widened to `u64` (canonical across platforms).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// `Option<String>` as presence byte + string.
    pub fn opt_str(&mut self, s: &Option<String>) {
        match s {
            None => self.u8(0),
            Some(s) => {
                self.u8(1);
                self.str(s);
            }
        }
    }

    /// Length-prefixed sequence via a per-element closure.
    pub fn seq<T>(&mut self, items: &[T], mut each: impl FnMut(&mut Self, &T)) {
        self.u32(items.len() as u32);
        for item in items {
            each(self, item);
        }
    }
}

/// Cursor over an artifact payload; every read is bounds-checked.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    /// One raw byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    /// Little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }

    /// Little-endian `u128`.
    pub fn u128(&mut self) -> Option<u128> {
        self.take(16)
            .map(|s| u128::from_le_bytes(s.try_into().unwrap()))
    }

    /// `u64` narrowed back to `usize`.
    pub fn usize(&mut self) -> Option<usize> {
        self.u64().and_then(|v| usize::try_from(v).ok())
    }

    /// One-byte bool; any value other than 0/1 is corruption.
    pub fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    /// Presence byte + string.
    pub fn opt_str(&mut self) -> Option<Option<String>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(self.str()?)),
            _ => None,
        }
    }

    /// Length-prefixed sequence via a per-element closure. The length
    /// prefix is sanity-bounded by the remaining payload so a corrupt
    /// length cannot trigger a huge allocation.
    pub fn seq<T>(&mut self, mut each: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        let len = self.u32()? as usize;
        if len > self.buf.len().saturating_sub(self.pos) {
            return None;
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(each(self)?);
        }
        Some(out)
    }

    /// Succeeds only when the payload was consumed exactly.
    pub fn finish(self) -> Option<()> {
        (self.pos == self.buf.len()).then_some(())
    }
}

// ---------------------------------------------------------------------------
// Artifact codecs. Each `encode_*` has a matching `decode_*`; round-trips
// are pinned by the tests at the bottom.
// ---------------------------------------------------------------------------

fn encode_stimulus(w: &mut ByteWriter, s: &Stimulus) {
    w.seq(&s.vectors, |w, vec| {
        w.seq(vec, |w, (name, val)| {
            w.str(name);
            w.u64(*val);
        });
    });
    w.usize(s.reset_cycles);
}

fn decode_stimulus(r: &mut ByteReader) -> Option<Stimulus> {
    let vectors = r.seq(|r| r.seq(|r| Some((r.str()?, r.u64()?))))?;
    let reset_cycles = r.usize()?;
    Some(Stimulus {
        vectors,
        reset_cycles,
    })
}

fn encode_failure(w: &mut ByteWriter, f: &AssertionFailure) {
    w.str(&f.module);
    w.str(&f.assertion);
    w.usize(f.start_tick);
    w.usize(f.fail_tick);
    w.opt_str(&f.message);
}

fn decode_failure(r: &mut ByteReader) -> Option<AssertionFailure> {
    Some(AssertionFailure {
        module: r.str()?,
        assertion: r.str()?,
        start_tick: r.usize()?,
        fail_tick: r.usize()?,
        message: r.opt_str()?,
    })
}

fn encode_eval_error(w: &mut ByteWriter, e: &EvalError) {
    match e {
        EvalError::UnknownSignal(s) => {
            w.u8(0);
            w.str(s);
        }
        EvalError::UnsupportedSysCall(s) => {
            w.u8(1);
            w.str(s);
        }
        EvalError::DivideByZero => w.u8(2),
        EvalError::Malformed(s) => {
            w.u8(3);
            w.str(s);
        }
    }
}

fn decode_eval_error(r: &mut ByteReader) -> Option<EvalError> {
    Some(match r.u8()? {
        0 => EvalError::UnknownSignal(r.str()?),
        1 => EvalError::UnsupportedSysCall(r.str()?),
        2 => EvalError::DivideByZero,
        3 => EvalError::Malformed(r.str()?),
        _ => return None,
    })
}

fn encode_verify_error(w: &mut ByteWriter, e: &VerifyError) -> Option<()> {
    match e {
        VerifyError::Sim(SimError::Eval(ev)) => {
            w.u8(0);
            encode_eval_error(w, ev);
        }
        VerifyError::Sim(SimError::CombDivergence) => w.u8(1),
        VerifyError::Sim(SimError::NoClock) => w.u8(2),
        VerifyError::Monitor(MonitorError::UnknownProperty(p)) => {
            w.u8(3);
            w.str(p);
        }
        VerifyError::Monitor(MonitorError::Eval(ev)) => {
            w.u8(4);
            encode_eval_error(w, ev);
        }
        VerifyError::NoAssertions => w.u8(5),
        VerifyError::Symbolic(m) => {
            w.u8(6);
            w.str(m);
        }
        VerifyError::Fuzz(m) => {
            w.u8(7);
            w.str(m);
        }
        // Never persisted: not deterministic in the key. `PersistedOutcome::admit`
        // already refuses these; the codec refuses them again so no future
        // caller can smuggle one in.
        VerifyError::Cancelled | VerifyError::Exhausted(_) => return None,
    }
    Some(())
}

fn decode_verify_error(r: &mut ByteReader) -> Option<VerifyError> {
    Some(match r.u8()? {
        0 => VerifyError::Sim(SimError::Eval(decode_eval_error(r)?)),
        1 => VerifyError::Sim(SimError::CombDivergence),
        2 => VerifyError::Sim(SimError::NoClock),
        3 => VerifyError::Monitor(MonitorError::UnknownProperty(r.str()?)),
        4 => VerifyError::Monitor(MonitorError::Eval(decode_eval_error(r)?)),
        5 => VerifyError::NoAssertions,
        6 => VerifyError::Symbolic(r.str()?),
        7 => VerifyError::Fuzz(r.str()?),
        _ => return None,
    })
}

fn encode_verdict(w: &mut ByteWriter, v: &Verdict) -> Option<()> {
    match v {
        Verdict::Holds {
            exhaustive,
            stimuli,
            vacuous,
        } => {
            w.u8(0);
            w.bool(*exhaustive);
            w.usize(*stimuli);
            w.seq(vacuous, |w, s| w.str(s));
        }
        Verdict::Fails(cex) => {
            w.u8(1);
            encode_stimulus(w, &cex.stimulus);
            w.seq(&cex.failures, encode_failure);
            w.seq(&cex.logs, |w, s| w.str(s));
        }
        // Not deterministic in the key (the ladder trace depends on
        // budgets); refused here and by `PersistedOutcome::admit`.
        Verdict::Inconclusive { .. } => return None,
    }
    Some(())
}

fn decode_verdict(r: &mut ByteReader) -> Option<Verdict> {
    Some(match r.u8()? {
        0 => Verdict::Holds {
            exhaustive: r.bool()?,
            stimuli: r.usize()?,
            vacuous: r.seq(|r| r.str())?,
        },
        1 => Verdict::Fails(Arc::new(CounterExample {
            stimulus: decode_stimulus(r)?,
            failures: r.seq(decode_failure)?,
            logs: r.seq(|r| r.str())?,
        })),
        _ => return None,
    })
}

/// Serializes a persistable outcome. `None` when the outcome falls
/// outside the deterministic subset (belt to `admit`'s braces).
pub fn encode_outcome(outcome: &PersistedOutcome) -> Option<Vec<u8>> {
    let mut w = ByteWriter::new();
    match outcome {
        PersistedOutcome::Verdict(v) => {
            w.u8(0);
            encode_verdict(&mut w, v)?;
        }
        PersistedOutcome::Error(e) => {
            w.u8(1);
            encode_verify_error(&mut w, e)?;
        }
    }
    Some(w.into_bytes())
}

/// Inverse of [`encode_outcome`]; total — corruption decodes to `None`.
pub fn decode_outcome(payload: &[u8]) -> Option<PersistedOutcome> {
    let mut r = ByteReader::new(payload);
    let out = match r.u8()? {
        0 => PersistedOutcome::Verdict(decode_verdict(&mut r)?),
        1 => PersistedOutcome::Error(decode_verify_error(&mut r)?),
        _ => return None,
    };
    r.finish()?;
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_fails() -> PersistedOutcome {
        PersistedOutcome::Verdict(Verdict::Fails(Arc::new(CounterExample {
            stimulus: Stimulus {
                vectors: vec![
                    vec![("a".into(), 3), ("b".into(), u64::MAX)],
                    vec![("a".into(), 0)],
                ],
                reset_cycles: 2,
            },
            failures: vec![AssertionFailure {
                module: "m".into(),
                assertion: "p_ok".into(),
                start_tick: 4,
                fail_tick: 5,
                message: Some("boom".into()),
            }],
            logs: vec!["failed assertion m.p_ok at cycle 5: boom".into()],
        })))
    }

    #[test]
    fn outcome_round_trips() {
        let cases = vec![
            PersistedOutcome::Verdict(Verdict::Holds {
                exhaustive: true,
                stimuli: 0,
                vacuous: vec!["p_idle".into()],
            }),
            sample_fails(),
            PersistedOutcome::Error(VerifyError::NoAssertions),
            PersistedOutcome::Error(VerifyError::Symbolic("cyclic".into())),
            PersistedOutcome::Error(VerifyError::Sim(SimError::Eval(EvalError::DivideByZero))),
            PersistedOutcome::Error(VerifyError::Monitor(MonitorError::UnknownProperty(
                "p".into(),
            ))),
        ];
        for outcome in cases {
            let bytes = encode_outcome(&outcome).expect("persistable");
            assert_eq!(decode_outcome(&bytes).as_ref(), Some(&outcome));
        }
    }

    #[test]
    fn encoding_is_canonical() {
        let a = encode_outcome(&sample_fails()).unwrap();
        let b = encode_outcome(&sample_fails()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn truncation_is_a_miss_not_a_panic() {
        let bytes = encode_outcome(&sample_fails()).unwrap();
        for cut in 0..bytes.len() {
            assert_eq!(decode_outcome(&bytes[..cut]), None, "cut at {cut}");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = encode_outcome(&sample_fails()).unwrap();
        bytes.push(0);
        assert_eq!(decode_outcome(&bytes), None);
    }

    #[test]
    fn corrupt_length_prefix_cannot_overallocate() {
        // A flipped length prefix must fail cleanly, not reserve 4 GiB.
        let mut bytes = encode_outcome(&PersistedOutcome::Verdict(Verdict::Holds {
            exhaustive: false,
            stimuli: 9,
            vacuous: vec![],
        }))
        .unwrap();
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_outcome(&bytes), None);
    }

    #[test]
    fn nondeterministic_outcomes_unencodable() {
        let inconclusive = PersistedOutcome::Verdict(Verdict::Inconclusive { tried: vec![] });
        assert_eq!(encode_outcome(&inconclusive), None);
        let cancelled = PersistedOutcome::Error(VerifyError::Cancelled);
        assert_eq!(encode_outcome(&cancelled), None);
    }
}
