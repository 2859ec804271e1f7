//! The workspace's one digest: 64-bit FNV-1a.
//!
//! Replay fingerprints, value-plane digests and checkpoint checksums all
//! hash with this, so two digests of the same bytes agree wherever they
//! were computed. Multi-byte values are fed little-endian.

/// Incremental 64-bit FNV-1a hasher, seeded with the standard offset basis.
///
/// ```
/// use mgg_runtime::Fnv1a;
///
/// let mut h = Fnv1a::new();
/// h.u64(7);
/// let mut bytes = Fnv1a::new();
/// bytes.bytes(&7u64.to_le_bytes());
/// assert_eq!(h.finish(), bytes.finish());
/// assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher over the empty input.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET_BASIS)
    }

    /// Feeds `bs` in order.
    pub fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Feeds `v` as 4 little-endian bytes.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feeds `v` as 8 little-endian bytes.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        // FNV-1a 64 reference values for "" and "a".
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn wide_values_hash_as_their_little_endian_bytes() {
        let mut a = Fnv1a::new();
        a.u32(0x0102_0304);
        a.u64(u64::MAX - 5);
        let mut b = Fnv1a::new();
        b.bytes(&[4, 3, 2, 1]);
        b.bytes(&(u64::MAX - 5).to_le_bytes());
        assert_eq!(a.finish(), b.finish());
    }
}
