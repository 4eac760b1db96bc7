//! Register values and bit-width helpers.

use std::fmt;

/// The maximum width, in bits, of a single register.
///
/// Values are stored in a `u64`; one bit is reserved so that `1 << width`
/// never overflows in mask arithmetic.
pub const MAX_WIDTH: u32 = 63;

/// The value held by (or written to) a shared register.
///
/// A `Value` is an unsigned integer; the register's declared width
/// determines how many low bits are significant. [`Memory`](crate::Memory)
/// rejects any write whose value exceeds its register's width (a
/// structured [`MemoryError::ValueTooWide`](crate::MemoryError) — never a
/// silent truncation), and the test/setup hook
/// [`Memory::poke`](crate::Memory::poke) masks, so a *stored* `Value`
/// never exceeds its register's width — the invariant the bit-packed
/// state codec ([`crate::LayoutCodec`]) relies on.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Value(u64);

impl Value {
    /// The value `0`.
    pub const ZERO: Value = Value(0);
    /// The value `1`.
    pub const ONE: Value = Value(1);

    /// Creates a value from a raw integer.
    pub const fn new(raw: u64) -> Self {
        Value(raw)
    }

    /// Returns the raw integer.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns this value truncated to `width` low bits.
    pub const fn masked(self, width: u32) -> Self {
        Value(self.0 & mask(width))
    }

    /// Interprets the value as a single bit (its least-significant bit).
    pub const fn bit(self) -> bool {
        self.0 & 1 != 0
    }

    /// Returns `true` if the value fits in `width` bits.
    pub const fn fits(self, width: u32) -> bool {
        self.0 & !mask(width) == 0
    }
}

impl From<u64> for Value {
    fn from(raw: u64) -> Self {
        Value(raw)
    }
}

impl From<bool> for Value {
    fn from(bit: bool) -> Self {
        Value(bit as u64)
    }
}

impl From<Value> for u64 {
    fn from(v: Value) -> u64 {
        v.0
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Value({})", self.0)
    }
}

impl fmt::Binary for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl fmt::LowerHex for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// Returns the bit mask with the `width` low bits set.
///
/// Widths of [`MAX_WIDTH`] or more saturate to all 63 usable bits.
pub const fn mask(width: u32) -> u64 {
    if width >= MAX_WIDTH {
        (1u64 << MAX_WIDTH) - 1
    } else {
        (1u64 << width) - 1
    }
}

/// Returns the number of bits needed to store any value in `0..=max`.
///
/// This is the register width an algorithm needs for a field whose largest
/// value is `max`. `bits_for(0) == 1` (a register always has at least one
/// bit).
pub const fn bits_for(max: u64) -> u32 {
    if max == 0 {
        1
    } else {
        64 - max.leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_truncates() {
        assert_eq!(Value::new(0b1011).masked(2), Value::new(0b11));
        assert_eq!(Value::new(0xFF).masked(8), Value::new(0xFF));
        assert_eq!(
            Value::new(u64::MAX).masked(MAX_WIDTH).raw(),
            mask(MAX_WIDTH)
        );
    }

    #[test]
    fn bit_view() {
        assert!(Value::new(1).bit());
        assert!(!Value::new(2).bit());
        assert!(Value::from(true).bit());
        assert!(!Value::from(false).bit());
    }

    #[test]
    fn fits_checks_width() {
        assert!(Value::new(3).fits(2));
        assert!(!Value::new(4).fits(2));
        assert!(Value::new(0).fits(1));
    }

    #[test]
    fn bits_for_boundaries() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 3);
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(256), 9);
    }

    #[test]
    fn mask_saturates() {
        assert_eq!(mask(1), 1);
        assert_eq!(mask(8), 0xFF);
        assert_eq!(mask(100), mask(MAX_WIDTH));
    }

    #[test]
    fn display_formats() {
        let v = Value::new(10);
        assert_eq!(v.to_string(), "10");
        assert_eq!(format!("{v:?}"), "Value(10)");
        assert_eq!(format!("{v:b}"), "1010");
        assert_eq!(format!("{v:x}"), "a");
    }
}
