//! Waveform traces: per-cycle sampled signal values.
//!
//! Samples are taken in the *preponed* region of each clock tick (after
//! combinational settling, before register updates), matching SVA sampling
//! semantics: a property evaluated at tick `t` observes exactly
//! `trace.value(t, sig)`.

use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The immutable name table of a trace: signal names in column order plus
/// the name→column index. Shared (`Arc`) between every trace of one
/// compiled design, so starting a fresh trace is O(1) instead of cloning
/// each name and rebuilding the index — the per-stimulus allocation that
/// used to dominate simulator restarts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceHeader {
    names: Vec<String>,
    index: BTreeMap<String, usize>,
}

impl TraceHeader {
    /// Builds a header over signal names in column order.
    pub fn new(names: Vec<String>) -> Self {
        let index = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        TraceHeader { names, index }
    }
}

/// A recorded waveform.
///
/// Samples are stored **flat** (tick-major: `samples[t * cols + col]`)
/// rather than as one `Vec` per tick: appending a tick is an
/// `extend_from_slice` into one growing buffer, so the hot recording
/// paths ([`push_row`](Trace::push_row)) do zero per-tick allocations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    header: Arc<TraceHeader>,
    samples: Vec<Value>,
}

impl Trace {
    /// Creates an empty trace over the given signal names.
    pub fn new(names: Vec<String>) -> Self {
        Trace {
            header: Arc::new(TraceHeader::new(names)),
            samples: Vec::new(),
        }
    }

    /// Builds a trace directly from a flat sample buffer (tick-major,
    /// `samples[t * cols + col]`) — the bulk path of the lane-batched
    /// executor, which logs lane-minor rows during the run and
    /// transposes each lane's samples out once at the end.
    ///
    /// # Panics
    ///
    /// Panics when `samples` is not a whole number of rows.
    pub fn from_parts(header: Arc<TraceHeader>, samples: Vec<Value>) -> Self {
        let cols = header.names.len();
        assert!(
            if cols == 0 {
                samples.is_empty()
            } else {
                samples.len().is_multiple_of(cols)
            },
            "sample buffer not a whole number of rows"
        );
        Trace { header, samples }
    }

    /// The shared name table.
    pub fn header(&self) -> &Arc<TraceHeader> {
        &self.header
    }

    /// Signal names in column order.
    pub fn names(&self) -> &[String] {
        &self.header.names
    }

    /// Number of columns per tick.
    fn cols(&self) -> usize {
        self.header.names.len()
    }

    /// Number of recorded ticks.
    pub fn len(&self) -> usize {
        match self.cols() {
            0 => 0,
            c => self.samples.len() / c,
        }
    }

    /// True if no tick has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Appends one tick worth of samples (must match column order).
    ///
    /// # Panics
    ///
    /// Panics if `row` length differs from the number of signals.
    pub fn push(&mut self, row: Vec<Value>) {
        self.push_row(&row);
    }

    /// [`push`](Trace::push) from a borrowed slice — the allocation-free
    /// recording path: executors sample into a reused scratch buffer (or
    /// straight from their state vector) and append it here.
    ///
    /// # Panics
    ///
    /// Panics if `row` length differs from the number of signals.
    pub fn push_row(&mut self, row: &[Value]) {
        assert_eq!(row.len(), self.cols(), "row arity mismatch");
        self.samples.extend_from_slice(row);
    }

    /// Sampled value of `signal` at tick `t`.
    pub fn value(&self, t: usize, signal: &str) -> Option<Value> {
        let &col = self.header.index.get(signal)?;
        if t >= self.len() {
            return None;
        }
        Some(self.samples[t * self.cols() + col])
    }

    /// Column index of a signal (for the compiled evaluation path, which
    /// resolves names once and then indexes rows directly).
    pub fn col(&self, signal: &str) -> Option<usize> {
        self.header.index.get(signal).copied()
    }

    /// Sampled value at tick `t`, column `col` — the hot-path lookup of
    /// compiled property evaluation (no name hashing).
    ///
    /// # Panics
    ///
    /// Panics when `t` or `col` is out of range; compiled property
    /// checkers only evaluate in-range ticks over their own column map.
    #[inline]
    pub fn get(&self, t: usize, col: usize) -> Value {
        assert!(col < self.cols() && t < self.len(), "trace index range");
        self.samples[t * self.cols() + col]
    }

    /// Sampled value `n` ticks before `t` (`$past` semantics). For
    /// `t < n` returns the value at tick 0, matching simulators that
    /// return the initial sampled value before enough history exists.
    pub fn past(&self, t: usize, signal: &str, n: usize) -> Option<Value> {
        let at = t.saturating_sub(n);
        self.value(at, signal)
    }

    /// `$rose`: bit 0 of `signal` is 1 at `t` and was 0 at `t-1`.
    pub fn rose(&self, t: usize, signal: &str) -> Option<bool> {
        let now = self.value(t, signal)?.get_bit(0);
        let before = if t == 0 {
            false
        } else {
            self.value(t - 1, signal)?.get_bit(0)
        };
        Some(now && !before)
    }

    /// `$fell`: bit 0 was 1 at `t-1` and is 0 at `t`.
    pub fn fell(&self, t: usize, signal: &str) -> Option<bool> {
        let now = self.value(t, signal)?.get_bit(0);
        let before = if t == 0 {
            false
        } else {
            self.value(t - 1, signal)?.get_bit(0)
        };
        Some(!now && before)
    }

    /// `$stable`: value unchanged between `t-1` and `t` (true at `t = 0`).
    pub fn stable(&self, t: usize, signal: &str) -> Option<bool> {
        if t == 0 {
            return Some(true);
        }
        Some(self.value(t, signal)? == self.value(t - 1, signal)?)
    }

    /// Renders the trace as a standard VCD (value change dump) waveform,
    /// viewable in GTKWave & co. Counterexamples and fuzzer findings are
    /// exported with this.
    ///
    /// The output is fully deterministic (no date/version headers): one
    /// `$var` per signal in column order, a full dump at `#0`, then
    /// change-only dumps per tick. Each tick is one timescale unit.
    pub fn to_vcd(&self, module: &str) -> String {
        let mut out = String::new();
        out.push_str("$timescale 1ns $end\n");
        out.push_str(&format!("$scope module {module} $end\n"));
        let ids: Vec<String> = (0..self.header.names.len()).map(vcd_id).collect();
        for (i, name) in self.header.names.iter().enumerate() {
            let width = self.samples.get(i).map(|v| v.width()).unwrap_or(1);
            out.push_str(&format!("$var wire {width} {} {name} $end\n", ids[i]));
        }
        out.push_str("$upscope $end\n$enddefinitions $end\n");
        let mut last: Vec<Option<Value>> = vec![None; self.header.names.len()];
        let cols = self.cols().max(1);
        for (t, row) in self.samples.chunks_exact(cols).enumerate() {
            out.push_str(&format!("#{t}\n"));
            for (i, v) in row.iter().enumerate() {
                if last[i] == Some(*v) {
                    continue;
                }
                last[i] = Some(*v);
                if v.width() == 1 {
                    out.push_str(&format!("{}{}\n", v.bits(), ids[i]));
                } else {
                    out.push_str(&format!("b{:b} {}\n", v.bits(), ids[i]));
                }
            }
        }
        out.push_str(&format!("#{}\n", self.len()));
        out
    }

    /// Renders a compact textual waveform of the chosen signals (debugging
    /// aid and CoT evidence).
    pub fn format_signals(&self, signals: &[&str]) -> String {
        let mut out = String::new();
        for sig in signals {
            out.push_str(&format!("{sig:>12}: "));
            for t in 0..self.len() {
                match self.value(t, sig) {
                    Some(v) => out.push_str(&format!("{:>3} ", v.bits())),
                    None => out.push_str("  ? "),
                }
            }
            out.push('\n');
        }
        out
    }
}

/// VCD identifier code for signal column `i`: base-94 over the printable
/// ASCII range `!`..=`~`, as the format specifies.
fn vcd_id(mut i: usize) -> String {
    let mut s = String::new();
    loop {
        s.push((b'!' + (i % 94) as u8) as char);
        i /= 94;
        if i == 0 {
            break;
        }
        i -= 1;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tr() -> Trace {
        let mut t = Trace::new(vec!["a".into(), "b".into()]);
        t.push(vec![Value::new(0, 1), Value::new(0, 4)]);
        t.push(vec![Value::new(1, 1), Value::new(3, 4)]);
        t.push(vec![Value::new(0, 1), Value::new(3, 4)]);
        t
    }

    #[test]
    fn value_lookup() {
        let t = tr();
        assert_eq!(t.value(1, "b").map(Value::bits), Some(3));
        assert_eq!(t.value(9, "b"), None);
        assert_eq!(t.value(0, "zz"), None);
    }

    #[test]
    fn past_clamps_at_zero() {
        let t = tr();
        assert_eq!(t.past(2, "b", 1).map(Value::bits), Some(3));
        assert_eq!(t.past(0, "b", 3).map(Value::bits), Some(0));
    }

    #[test]
    fn rose_and_fell() {
        let t = tr();
        assert_eq!(t.rose(1, "a"), Some(true));
        assert_eq!(t.rose(2, "a"), Some(false));
        assert_eq!(t.fell(2, "a"), Some(true));
        assert_eq!(t.rose(0, "a"), Some(false));
    }

    #[test]
    fn stable_detects_changes() {
        let t = tr();
        assert_eq!(t.stable(0, "b"), Some(true));
        assert_eq!(t.stable(1, "b"), Some(false));
        assert_eq!(t.stable(2, "b"), Some(true));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn push_checks_arity() {
        let mut t = Trace::new(vec!["a".into()]);
        t.push(vec![Value::new(0, 1), Value::new(0, 1)]);
    }

    #[test]
    fn vcd_ids_cover_multi_char_codes() {
        assert_eq!(vcd_id(0), "!");
        assert_eq!(vcd_id(93), "~");
        assert_eq!(vcd_id(94), "!!");
        let all: std::collections::BTreeSet<String> = (0..300).map(vcd_id).collect();
        assert_eq!(all.len(), 300, "id codes must be unique");
    }

    #[test]
    fn vcd_emits_changes_only() {
        let vcd = tr().to_vcd("m");
        assert!(vcd.contains("$scope module m $end"));
        assert!(vcd.contains("$var wire 1 ! a $end"));
        assert!(vcd.contains("$var wire 4 \" b $end"));
        // b holds 3 at ticks 1 and 2: exactly one change record for it.
        assert_eq!(vcd.matches("b11 \"").count(), 1);
        // a toggles 0 → 1 → 0: three scalar records.
        assert_eq!(vcd.matches("\n0!").count(), 2);
        assert_eq!(vcd.matches("\n1!").count(), 1);
    }

    #[test]
    fn format_is_readable() {
        let t = tr();
        let s = t.format_signals(&["a"]);
        assert!(s.contains("a"));
        assert!(s.contains("1"));
    }
}
