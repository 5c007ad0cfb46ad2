//! Content hashing used to key the OMOS caches.
//!
//! OMOS "treats executables as a cache"; every cache level in the server is
//! keyed by a hash of the inputs that produced an artifact. We use FNV-1a
//! (64-bit) — deterministic across runs, which matters because the simulated
//! clock and the benchmark tables must be reproducible.

/// A 64-bit content hash.
///
/// Wrapped in a newtype so cache keys cannot be confused with plain lengths
/// or addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentHash(pub u64);

impl ContentHash {
    /// Hash of the empty byte string.
    pub const EMPTY: ContentHash = ContentHash(FNV_OFFSET);

    /// Combines this hash with raw bytes.
    #[must_use]
    pub fn with_bytes(self, bytes: &[u8]) -> ContentHash {
        let mut h = Fnv64::with_state(self.0);
        h.write(bytes);
        ContentHash(h.finish())
    }

    /// Combines this hash with a string (length-prefixed so `"ab","c"` and
    /// `"a","bc"` hash differently).
    #[must_use]
    pub fn with_str(self, s: &str) -> ContentHash {
        self.with_bytes(&(s.len() as u64).to_le_bytes())
            .with_bytes(s.as_bytes())
    }

    /// Combines this hash with an integer.
    #[must_use]
    pub fn with_u64(self, v: u64) -> ContentHash {
        self.with_bytes(&v.to_le_bytes())
    }
}

impl std::fmt::Display for ContentHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher.
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    /// Creates a hasher with the standard FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Creates a hasher seeded with an existing state (for combining).
    #[must_use]
    pub fn with_state(state: u64) -> Self {
        Fnv64 { state }
    }

    /// Feeds bytes into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Returns the current hash value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot FNV-1a hash of a byte slice.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> ContentHash {
    let mut h = Fnv64::new();
    h.write(bytes);
    ContentHash(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b"").0, 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a").0, 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar").0, 0x85944171f73967e8);
    }

    #[test]
    fn with_str_length_prefix_disambiguates() {
        let h1 = ContentHash::EMPTY.with_str("ab").with_str("c");
        let h2 = ContentHash::EMPTY.with_str("a").with_str("bc");
        assert_ne!(h1, h2);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut h = Fnv64::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar").0);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(format!("{}", ContentHash(0xff)), "00000000000000ff");
    }
}
