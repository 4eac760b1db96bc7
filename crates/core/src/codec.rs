//! Bit-packed state encoding: the paper's packing discipline applied to
//! the verifier's own state storage.
//!
//! Section 1.3 (and the \[MS93\] experiment in `benches/packing.rs`) packs
//! many narrow registers into few memory words; the exhaustive checkers
//! benefit from exactly the same move. A global state is a sequence of
//! narrow fields — per-process statuses, register values at their
//! declared [`Layout`] widths, a slot naming each process's local state
//! — and this module provides the primitives to write them LSB-first
//! into a compact byte record and read them back losslessly:
//!
//! * [`StateWriter`] / [`StateReader`] — the bit-level sink and source;
//! * [`StateCodec`] — the fixed-width component-codec contract;
//! * [`LayoutCodec`] — the width-aware memory-image codec derived from a
//!   [`Layout`] (each register at its declared width).
//!
//! Process local states are not packed here: the store in `cfc-verify`
//! interns each distinct local state once and writes its 32-bit slot.
//!
//! Round-trip identity is the load-bearing contract: `decode(encode(x))
//! == x` for every reachable state makes the encoding injective, so
//! byte-equality of records coincides with state equality and a packed
//! visited set makes exactly the decisions a boxed one would.

use crate::ids::RegisterId;
use crate::layout::Layout;
use crate::value::Value;

/// An LSB-first bit sink state fields are packed into.
///
/// Fields are appended with [`StateWriter::push_bits`]; the first field
/// occupies the low bits of the first byte, and a record's final byte is
/// zero-padded. Reading the fields back in the same order with a
/// [`StateReader`] recovers them exactly.
#[derive(Clone, Debug, Default)]
pub struct StateWriter {
    bytes: Vec<u8>,
    len_bits: usize,
}

impl StateWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the low `width` bits of `bits`, LSB-first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or if `bits` has set bits at or above
    /// `width` — a field that does not fit its declared width would
    /// decode to a different value, silently breaking round-trip
    /// identity.
    pub fn push_bits(&mut self, bits: u64, width: u32) {
        assert!(width <= 64, "bit fields are at most 64 bits wide");
        assert!(
            width == 64 || bits >> width == 0,
            "field value {bits} does not fit {width} bits"
        );
        let mut val = bits;
        let mut rem = width;
        while rem > 0 {
            let bit_in_byte = (self.len_bits % 8) as u32;
            if bit_in_byte == 0 {
                self.bytes.push(0);
            }
            let take = (8 - bit_in_byte).min(rem);
            let mask = (1u64 << take) - 1;
            let byte = self.bytes.last_mut().expect("byte pushed above");
            *byte |= ((val & mask) as u8) << bit_in_byte;
            val >>= take;
            rem -= take;
            self.len_bits += take as usize;
        }
    }

    /// Appends a register value at its declared width.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit the width (see
    /// [`StateWriter::push_bits`]).
    pub fn push_value(&mut self, v: Value, width: u32) {
        self.push_bits(v.raw(), width);
    }

    /// Bits written so far. Codecs use this to assert their fixed-width
    /// contract (every encoded item of one kind occupies the same number
    /// of bits, independent of its value).
    pub fn bit_len(&self) -> usize {
        self.len_bits
    }

    /// The packed record, zero-padded to whole bytes.
    pub fn finish(self) -> Vec<u8> {
        self.bytes
    }

    /// The bytes written so far, zero-padded to whole bytes: the record
    /// [`StateWriter::finish`] would return, borrowed.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Empties the writer and keeps its buffer, so one writer can encode
    /// record after record without allocating.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.len_bits = 0;
    }
}

/// An LSB-first bit source over a packed record.
#[derive(Debug)]
pub struct StateReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// A reader positioned at the first bit of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        StateReader { bytes, pos: 0 }
    }

    /// Reads the next `width` bits, zero-extended to a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or the record is exhausted.
    pub fn take_bits(&mut self, width: u32) -> u64 {
        assert!(width <= 64, "bit fields are at most 64 bits wide");
        let mut out = 0u64;
        let mut got = 0u32;
        while got < width {
            let byte = self.bytes[self.pos / 8];
            let bit_in_byte = (self.pos % 8) as u32;
            let take = (8 - bit_in_byte).min(width - got);
            let field = (u64::from(byte) >> bit_in_byte) & ((1u64 << take) - 1);
            out |= field << got;
            got += take;
            self.pos += take as usize;
        }
        out
    }

    /// Reads the next `width` bits as a [`Value`].
    pub fn take_value(&mut self, width: u32) -> Value {
        Value::new(self.take_bits(width))
    }

    /// Bits consumed so far.
    pub fn bit_pos(&self) -> usize {
        self.pos
    }
}

/// A fixed-width binary codec for one kind of state component.
///
/// Implementations must be *fixed-width* ([`StateCodec::encoded_bits`]
/// is independent of the item's value) and *lossless*
/// (`decode(encode(x)) == x`); the packed visited set in `cfc-verify`
/// relies on both to store states at fixed stride and to substitute
/// byte-equality for state equality.
pub trait StateCodec {
    /// The decoded form.
    type Item;

    /// The exact number of bits every encoded item occupies.
    fn encoded_bits(&self) -> usize;

    /// Appends `item` to `w` — exactly [`StateCodec::encoded_bits`] bits.
    fn encode(&self, item: &Self::Item, w: &mut StateWriter);

    /// Reads one item back from `r`.
    fn decode(&self, r: &mut StateReader<'_>) -> Self::Item;
}

/// The width-aware memory-image codec: a register snapshot encodes as
/// each value at its register's declared [`Layout`] width, in register
/// order — the same per-word accounting the packing experiment measures,
/// applied to the verifier's own footprint.
///
/// Stored values always fit their width ([`crate::Memory`] rejects
/// over-wide plain writes and masks pokes; a writer through
/// [`crate::Memory::values_mut`] must keep them in range, and
/// [`StateWriter::push_value`] panics on one that is not), so the
/// encoding is exact.
#[derive(Clone, Debug)]
pub struct LayoutCodec {
    widths: Vec<u32>,
    total_bits: usize,
}

impl LayoutCodec {
    /// Derives the codec from a layout's register widths.
    pub fn new(layout: &Layout) -> Self {
        let widths: Vec<u32> = (0..layout.len())
            .map(|i| layout.width(RegisterId::new(i as u32)))
            .collect();
        let total_bits = widths.iter().map(|&w| w as usize).sum();
        LayoutCodec { widths, total_bits }
    }

    /// The per-register widths, in register order.
    pub fn widths(&self) -> &[u32] {
        &self.widths
    }
}

impl StateCodec for LayoutCodec {
    type Item = Vec<Value>;

    fn encoded_bits(&self) -> usize {
        self.total_bits
    }

    /// # Panics
    ///
    /// Panics if the snapshot length differs from the layout's register
    /// count, or a value does not fit its register's width.
    fn encode(&self, values: &Vec<Value>, w: &mut StateWriter) {
        assert_eq!(
            values.len(),
            self.widths.len(),
            "snapshot length must match the layout"
        );
        for (v, &width) in values.iter().zip(&self.widths) {
            w.push_value(*v, width);
        }
    }

    fn decode(&self, r: &mut StateReader<'_>) -> Vec<Value> {
        self.widths.iter().map(|&w| r.take_value(w)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_round_trip_across_byte_boundaries() {
        let mut w = StateWriter::new();
        w.push_bits(0b101, 3);
        w.push_bits(0x3FF, 10); // straddles two byte boundaries
        w.push_bits(0, 1);
        w.push_bits(u64::MAX, 64);
        w.push_bits(1, 1);
        assert_eq!(w.bit_len(), 3 + 10 + 1 + 64 + 1);
        let bytes = w.finish();
        assert_eq!(bytes.len(), 10); // 79 bits -> 10 bytes
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.take_bits(3), 0b101);
        assert_eq!(r.take_bits(10), 0x3FF);
        assert_eq!(r.take_bits(1), 0);
        assert_eq!(r.take_bits(64), u64::MAX);
        assert_eq!(r.take_bits(1), 1);
        assert_eq!(r.bit_pos(), 79);
    }

    #[test]
    fn zero_width_fields_are_free() {
        let mut w = StateWriter::new();
        w.push_bits(0, 0);
        w.push_bits(0b11, 2);
        w.push_bits(0, 0);
        assert_eq!(w.bit_len(), 2);
        let bytes = w.finish();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.take_bits(0), 0);
        assert_eq!(r.take_bits(2), 0b11);
    }

    #[test]
    fn cleared_writer_encodes_like_a_fresh_one() {
        let mut w = StateWriter::new();
        w.push_bits(0x1FF, 9);
        assert_eq!(w.bytes(), &[0xFF, 0x01]);
        w.clear();
        assert_eq!(w.bit_len(), 0);
        assert!(w.bytes().is_empty());
        w.push_bits(0b10, 2);
        let mut fresh = StateWriter::new();
        fresh.push_bits(0b10, 2);
        assert_eq!(w.bytes(), fresh.bytes());
        assert_eq!(w.finish(), fresh.finish());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn over_wide_fields_are_rejected() {
        StateWriter::new().push_bits(0b100, 2);
    }

    #[test]
    fn layout_codec_packs_at_declared_widths() {
        let mut layout = Layout::new();
        layout.register("a", 3, 5);
        layout.bit("b", true);
        layout.register("c", 16, 1234);
        let codec = LayoutCodec::new(&layout);
        assert_eq!(codec.widths(), &[3, 1, 16]);
        assert_eq!(codec.encoded_bits(), 20);

        let snapshot = vec![Value::new(5), Value::ONE, Value::new(1234)];
        let mut w = StateWriter::new();
        codec.encode(&snapshot, &mut w);
        assert_eq!(w.bit_len(), 20);
        let bytes = w.finish();
        assert_eq!(bytes.len(), 3);
        let mut r = StateReader::new(&bytes);
        assert_eq!(codec.decode(&mut r), snapshot);
    }

    #[test]
    fn layout_codec_is_injective_on_distinct_snapshots() {
        let mut layout = Layout::new();
        layout.register("x", 4, 0);
        layout.register("y", 4, 0);
        let codec = LayoutCodec::new(&layout);
        let enc = |a: u64, b: u64| {
            let mut w = StateWriter::new();
            codec.encode(&vec![Value::new(a), Value::new(b)], &mut w);
            w.finish()
        };
        // (1, 0) and (0, 1) must not collide — field order matters.
        assert_ne!(enc(1, 0), enc(0, 1));
        assert_eq!(enc(9, 3), enc(9, 3));
    }
}
