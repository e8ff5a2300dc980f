//! A deterministic 64-bit FNV-1a hasher.
//!
//! The term store ([`crate::store`]) and the shape factorization
//! ([`crate::skeleton`]) need structural digests that are reproducible run
//! to run — no per-process random keys — so digest-keyed tables downstream
//! (the store's digest index, the advance cache's shape keys) never
//! depend on the process. [`Fnv1a`] is that hasher.

use std::hash::Hasher;

/// A 64-bit FNV-1a [`Hasher`]: deterministic (no per-process random keys),
/// allocation-free, and good enough for structural term digests.
///
/// # Examples
///
/// ```
/// use std::hash::Hasher;
///
/// let mut h = acsr::hashed::Fnv1a::new();
/// h.write(b"abc");
/// let once = h.finish();
/// let mut h2 = acsr::hashed::Fnv1a::new();
/// h2.write(b"abc");
/// assert_eq!(once, h2.finish()); // deterministic across hashers and runs
/// ```
#[derive(Clone, Debug)]
pub struct Fnv1a(u64);

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

impl Fnv1a {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a(FNV_OFFSET)
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // FNV-1a 64 reference: fnv1a("") = offset basis, fnv1a("a") = 0xaf63dc4c8601ec8c.
        let empty = Fnv1a::new();
        assert_eq!(empty.finish(), 0xCBF2_9CE4_8422_2325);
        let mut a = Fnv1a::new();
        a.write(b"a");
        assert_eq!(a.finish(), 0xAF63_DC4C_8601_EC8C);
    }
}
