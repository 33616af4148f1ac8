//! A fixed multiplicative hasher for maps keyed by simulator integers.
//!
//! The simulator's key ids are dense integers drawn from its own RNG, not
//! attacker-controlled input, so SipHash's flood resistance buys nothing
//! there and costs a few dozen nanoseconds per lookup. [`IntHasher`]
//! multiplies by a 64-bit odd constant and folds the high half down, so
//! both the bucket index (low bits) and the control byte (top bits) see
//! every input bit. Maps that face the network keep the standard hasher.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for integer keys; deterministic across runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let h = (self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

/// A `HashMap` keyed by integers through [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_map_round_trips_dense_and_sparse_keys() {
        let mut m: IntMap<u64, u64> = IntMap::default();
        for k in (0..10_000u64).chain((1..=100).map(|i| i << 40)) {
            m.insert(k, k ^ 7);
        }
        assert_eq!(m.len(), 10_100);
        for k in (0..10_000u64).chain((1..=100).map(|i| i << 40)) {
            assert_eq!(m.get(&k), Some(&(k ^ 7)));
        }
        assert!(!m.contains_key(&10_000));
    }
}
