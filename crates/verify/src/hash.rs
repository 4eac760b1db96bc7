//! The in-repo multiply-xor hash behind the checker's own tables: the
//! analysis tables, the visited store's record digest, its local-state
//! table and its transition memo.
//!
//! Their keys are location keys, local states, slots and state records
//! that the models produce, never outside input, so SipHash's resistance
//! to chosen keys buys nothing there. No table trusts the hash for
//! equality: every probe compares keys (or record bytes) exactly, so a
//! collision costs a longer probe, never a wrong answer.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-xor hasher (the FxHash round, with a final rotation so
/// the table index sees the well-mixed high bits).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct MulXor(u64);

impl Hasher for MulXor {
    // Inlined because the maps are instantiated in downstream crates,
    // and the fixed-width writes (`write_u64`, ...) default to this
    // method: out of line, each is a call with a loop and a copy.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let word = u64::from_le_bytes(word);
            self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A map hashed by [`MulXor`].
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<MulXor>>;

/// The [`MulXor`] digest of a byte string: the visited store's record
/// digest.
pub(crate) fn digest(bytes: &[u8]) -> u64 {
    let mut h = MulXor::default();
    h.write(bytes);
    h.finish()
}
