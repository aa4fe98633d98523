//! The workspace's one stable hash and one counter-based mixer.
//!
//! FNV-1a (64-bit) names and checks whatever must compare equal across
//! platforms and runs: config hashes, checksums, digests. splitmix64
//! drives every seeded decision that must replay bit-identically
//! (sensor noise, retry jitter, chaos rolls, subsampling) with no RNG
//! state to checkpoint.

/// FNV-1a 64-bit offset basis: the hash of the empty string.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// The FNV prime with one extra zero nibble. Serve source keys (and so
/// `sources/<key>.stk` names), chaos keys, frame chains and `done`
/// digests were written with it; changing it would orphan every spool.
const SERVE_PRIME: u64 = 0x1000_0000_01b3;

fn fnv(mut h: u64, prime: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(prime);
    }
    h
}

/// FNV-1a over a byte string.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv(FNV_OFFSET, FNV_PRIME, bytes)
}

/// Continues the FNV-1a hash `h` over `bytes`:
/// `fnv1a_extend(fnv1a(x), w) == fnv1a(x ‖ w)`.
#[must_use]
pub fn fnv1a_extend(h: u64, bytes: &[u8]) -> u64 {
    fnv(h, FNV_PRIME, bytes)
}

/// The serve spool's frozen FNV-1a variant (see `SERVE_PRIME`).
#[must_use]
pub fn fnv1a_serve(bytes: &[u8]) -> u64 {
    fnv(FNV_OFFSET, SERVE_PRIME, bytes)
}

/// Continues an [`fnv1a_serve`] hash over `bytes`.
#[must_use]
pub fn fnv1a_serve_extend(h: u64, bytes: &[u8]) -> u64 {
    fnv(h, SERVE_PRIME, bytes)
}

/// splitmix64 finalizer: a full-avalanche 64-bit mixer.
#[must_use]
pub fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv1a_extend_continues_the_hash() {
        for (x, w) in [
            (&b""[..], &b""[..]),
            (b"", b"foobar"),
            (b"foo", b"bar"),
            (b"foobar", b""),
            (b"z\xc3\xab", &7u64.to_le_bytes()[..]),
        ] {
            let joined: Vec<u8> = x.iter().chain(w).copied().collect();
            assert_eq!(fnv1a_extend(fnv1a(x), w), fnv1a(&joined));
        }
    }

    #[test]
    fn serve_variant_is_frozen() {
        // Values the serve spool has always written; not FNV-1a's.
        assert_eq!(fnv1a_serve(b""), FNV_OFFSET);
        assert_eq!(fnv1a_serve(b"a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(fnv1a_serve(b"foobar"), 0xf8ac_2471_f739_67e8);
        assert_eq!(
            fnv1a_serve_extend(fnv1a_serve(b"foo"), b"bar"),
            fnv1a_serve(b"foobar")
        );
    }

    #[test]
    fn splitmix64_matches_reference_value() {
        // First output of the canonical splitmix64 stream seeded at 0.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
