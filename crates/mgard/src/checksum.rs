//! FNV-1a 64-bit checksums over plane payloads.
//!
//! Corruption on a storage tier must surface as a detected fetch error, not
//! as silent reconstruction error — a flipped bit in a negabinary plane
//! shifts coefficients by a quantization step and the theory estimator never
//! notices. Every persisted plane payload therefore carries an FNV-1a digest
//! (the same hash the conformance goldens pin), checked at load and at
//! segment-fetch time.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Chains [`fnv1a64_lockstep`] runs side by side. One FNV-1a step is a
/// multiply that waits on the one before it; four independent chains keep
/// the multiplier busy while each waits.
const CHAINS: usize = 4;

/// `hash`, continued over `bytes`.
fn fold(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(PRIME))
}

/// FNV-1a 64-bit hash of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fold(OFFSET, bytes)
}

/// [`fnv1a64`] of each of `parts`, in order, hashing [`CHAINS`] parts at a
/// time. The parts are taken shortest first, so the parts of a group are
/// close in length: the group runs its chains in one loop over the shortest
/// part's length, then finishes each longer part on its own. Each digest is
/// the same byte-by-byte chain as `fnv1a64`'s, so the two agree exactly.
pub(crate) fn fnv1a64_lockstep<P: AsRef<[u8]>>(parts: &[P]) -> Vec<u64> {
    let mut digests = vec![0; parts.len()];
    let mut order: Vec<usize> = (0..parts.len()).collect();
    order.sort_by_key(|&i| parts[i].as_ref().len());
    let mut groups = order.chunks_exact(CHAINS);
    for group in &mut groups {
        let bytes: [&[u8]; CHAINS] = std::array::from_fn(|c| parts[group[c]].as_ref());
        let common = bytes[0].len();
        let [p0, p1, p2, p3] = bytes.map(|p| &p[..common]);
        let mut h = [OFFSET; CHAINS];
        for (((&b0, &b1), &b2), &b3) in p0.iter().zip(p1).zip(p2).zip(p3) {
            for (h, b) in h.iter_mut().zip([b0, b1, b2, b3]) {
                *h = (*h ^ b as u64).wrapping_mul(PRIME);
            }
        }
        for ((&i, h), p) in group.iter().zip(h).zip(bytes) {
            digests[i] = fold(h, &p[common..]);
        }
    }
    for &i in groups.remainder() {
        digests[i] = fnv1a64(parts[i].as_ref());
    }
    digests
}

#[cfg(test)]
mod tests {
    use super::*;

    const KNOWN: [(&[u8], u64); 3] = [
        // Standard FNV-1a test vectors.
        (b"", 0xcbf2_9ce4_8422_2325),
        (b"a", 0xaf63_dc4c_8601_ec8c),
        (b"foobar", 0x8594_4171_f739_67e8),
    ];

    #[test]
    fn known_vectors() {
        for (bytes, digest) in KNOWN {
            assert_eq!(fnv1a64(bytes), digest);
        }
    }

    #[test]
    fn lockstep_digests_equal_the_serial_ones() {
        let long: Vec<u8> = (0..=255u8).cycle().take(1500).collect();
        // An empty part, a 1-byte part beside a long one, and lengths that
        // leave every group ragged.
        let lens = [0, 1, 1200, 7, 64, 3, 999, 2, 500];
        for n in 0..=lens.len() {
            let parts: Vec<&[u8]> =
                lens[..n].iter().enumerate().map(|(i, &len)| &long[i..i + len]).collect();
            let serial: Vec<u64> = parts.iter().map(|p| fnv1a64(p)).collect();
            assert_eq!(fnv1a64_lockstep(&parts), serial, "{n} parts");
        }
        // The known vectors inside a full group of chains.
        let mut parts: Vec<&[u8]> = KNOWN.iter().map(|&(bytes, _)| bytes).collect();
        parts.extend([&long[..900], &long[3..40]]);
        let digests = fnv1a64_lockstep(&parts);
        for ((_, want), got) in KNOWN.iter().zip(&digests) {
            assert_eq!(got, want);
        }
        assert_eq!(digests[3..], [fnv1a64(&long[..900]), fnv1a64(&long[3..40])]);
    }

    #[test]
    fn single_bit_flip_changes_digest() {
        let payload: Vec<u8> = (0..=255u8).collect();
        let base = fnv1a64(&payload);
        for i in [0usize, 17, 255] {
            for bit in 0..8 {
                let mut mutated = payload.clone();
                mutated[i] ^= 1 << bit;
                assert_ne!(fnv1a64(&mutated), base, "flip at byte {i} bit {bit} undetected");
            }
        }
    }
}
