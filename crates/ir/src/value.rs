//! Two-state bit-vector values, up to 64 bits wide.
//!
//! The paper's pipeline simulates scraped RTL with Icarus Verilog's 4-state
//! semantics; our substitution uses 2-state values, because the injected
//! bug classes (operator, constant, variable and condition bugs) are all
//! fully expressible without X/Z.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A bit vector of width 1..=64 with all bits above `width` masked to zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Value {
    bits: u64,
    width: u32,
}

impl Value {
    /// Creates a value, masking `bits` to `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    #[inline]
    pub fn new(bits: u64, width: u32) -> Self {
        assert!((1..=64).contains(&width), "width must be in 1..=64");
        Value {
            bits: bits & Self::mask(width),
            width,
        }
    }

    /// A zero value of the given width.
    #[inline]
    pub fn zero(width: u32) -> Self {
        Value::new(0, width)
    }

    /// A single-bit value from a boolean.
    #[inline]
    pub fn bit(b: bool) -> Self {
        Value::new(u64::from(b), 1)
    }

    /// All-ones value of the given width.
    #[inline]
    pub fn ones(width: u32) -> Self {
        Value::new(u64::MAX, width)
    }

    #[inline]
    fn mask(width: u32) -> u64 {
        if width >= 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        }
    }

    /// The raw bits (already masked).
    #[inline]
    pub fn bits(self) -> u64 {
        self.bits
    }

    /// The declared width.
    #[inline]
    pub fn width(self) -> u32 {
        self.width
    }

    /// True if any bit is set.
    #[inline]
    pub fn is_truthy(self) -> bool {
        self.bits != 0
    }

    /// Reinterprets at a new width (truncating or zero-extending).
    #[inline]
    pub fn resize(self, width: u32) -> Self {
        Value::new(self.bits, width)
    }

    /// Extracts bit `i` (0 if out of range, matching 2-state reads of
    /// out-of-range selects).
    #[inline]
    pub fn get_bit(self, i: u32) -> bool {
        if i >= self.width {
            false
        } else {
            (self.bits >> i) & 1 == 1
        }
    }

    /// Extracts bits `[msb:lsb]` as a new value.
    #[inline]
    pub fn slice(self, msb: u32, lsb: u32) -> Self {
        debug_assert!(msb >= lsb);
        let w = (msb - lsb + 1).min(64);
        Value::new(self.bits.checked_shr(lsb).unwrap_or(0), w)
    }

    /// Writes bit `i` (no-op when out of range).
    #[inline]
    pub fn set_bit(self, i: u32, v: bool) -> Self {
        if i >= self.width {
            return self;
        }
        let bits = if v {
            self.bits | (1u64 << i)
        } else {
            self.bits & !(1u64 << i)
        };
        Value::new(bits, self.width)
    }

    /// Writes the range `[msb:lsb]` from the low bits of `v`.
    #[inline]
    pub fn set_slice(self, msb: u32, lsb: u32, v: Value) -> Self {
        debug_assert!(msb >= lsb);
        let w = msb - lsb + 1;
        let field_mask = Self::mask(w.min(64)) << lsb;
        let bits = (self.bits & !field_mask) | ((v.bits << lsb) & field_mask);
        Value::new(bits, self.width)
    }

    /// Concatenates `self` (high) with `low`, clamping to 64 bits.
    #[inline]
    pub fn concat(self, low: Value) -> Self {
        let w = (self.width + low.width).min(64);
        let bits = (self.bits.checked_shl(low.width).unwrap_or(0)) | low.bits;
        Value::new(bits, w)
    }

    /// Reduction AND over all bits in width.
    #[inline]
    pub fn reduce_and(self) -> bool {
        self.bits == Self::mask(self.width)
    }

    /// Reduction OR.
    #[inline]
    pub fn reduce_or(self) -> bool {
        self.bits != 0
    }

    /// Reduction XOR (parity).
    #[inline]
    pub fn reduce_xor(self) -> bool {
        self.bits.count_ones() % 2 == 1
    }

    /// Number of set bits (`$countones`).
    #[inline]
    pub fn count_ones(self) -> u32 {
        self.bits.count_ones()
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'h{:x}", self.width, self.bits)
    }
}

impl fmt::LowerHex for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.bits, f)
    }
}

impl fmt::Binary for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.bits, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_on_construction() {
        assert_eq!(Value::new(0xFF, 4).bits(), 0xF);
        assert_eq!(Value::new(0x10, 4).bits(), 0);
        assert_eq!(Value::new(u64::MAX, 64).bits(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "width must be in 1..=64")]
    fn zero_width_panics() {
        let _ = Value::new(1, 0);
    }

    #[test]
    fn bit_ops() {
        let v = Value::new(0b1010, 4);
        assert!(v.get_bit(1));
        assert!(!v.get_bit(0));
        assert!(!v.get_bit(99));
        assert_eq!(v.set_bit(0, true).bits(), 0b1011);
        assert_eq!(v.set_bit(99, true), v);
    }

    #[test]
    fn slicing() {
        let v = Value::new(0b1101_0110, 8);
        assert_eq!(v.slice(7, 4).bits(), 0b1101);
        assert_eq!(v.slice(3, 0).bits(), 0b0110);
        assert_eq!(v.slice(4, 4).width(), 1);
    }

    #[test]
    fn set_slice_replaces_field() {
        let v = Value::new(0, 8).set_slice(7, 4, Value::new(0xA, 4));
        assert_eq!(v.bits(), 0xA0);
        let v2 = Value::new(0xFF, 8).set_slice(3, 0, Value::new(0, 4));
        assert_eq!(v2.bits(), 0xF0);
    }

    #[test]
    fn concat_orders_high_low() {
        let hi = Value::new(0xA, 4);
        let lo = Value::new(0x5, 4);
        assert_eq!(hi.concat(lo).bits(), 0xA5);
        assert_eq!(hi.concat(lo).width(), 8);
    }

    #[test]
    fn reductions() {
        assert!(Value::new(0xF, 4).reduce_and());
        assert!(!Value::new(0x7, 4).reduce_and());
        assert!(Value::new(0x1, 4).reduce_or());
        assert!(!Value::zero(4).reduce_or());
        assert!(Value::new(0b0111, 4).reduce_xor());
        assert!(!Value::new(0b0110, 4).reduce_xor());
    }

    #[test]
    fn resize_truncates_and_extends() {
        assert_eq!(Value::new(0x1F, 5).resize(4).bits(), 0xF);
        assert_eq!(Value::new(0xF, 4).resize(8).bits(), 0xF);
    }
}
