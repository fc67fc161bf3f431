//! The benchmark's seeded input generator. Everything random a workload
//! feeds the program comes from an `aurora_sim::DetRng` owned here; the
//! program only ever sees the generated inputs.

use aurora_sim::{DetRng, Rng};

/// Fills `buf` with generator output.
pub fn fill(rng: &mut DetRng, buf: &mut [u8]) {
    let mut chunks = buf.chunks_exact_mut(8);
    for c in &mut chunks {
        c.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    let rest = chunks.into_remainder();
    if !rest.is_empty() {
        let w = rng.next_u64().to_le_bytes();
        rest.copy_from_slice(&w[..rest.len()]);
    }
}

/// A word-wise 64-bit content hash for the benchmark's own shadow
/// tables (fast enough to keep verification a small share of a run; it
/// is not the program's checksum).
pub fn content_hash(data: &[u8]) -> u64 {
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("chunk of 8"));
        h = (h ^ w).wrapping_mul(0xff51_afd7_ed55_8ccd).rotate_left(29);
    }
    for &b in chunks.remainder() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ (h >> 32)
}

/// Folds `x` into a running hash of the generated op stream (same seed
/// ⇒ same stream ⇒ same hash).
pub fn mix(acc: u64, x: u64) -> u64 {
    (acc ^ x)
        .wrapping_mul(0xc4ce_b9fe_1a85_ec53)
        .rotate_left(31)
}

/// A derived generator: stream `lane` of `seed`, so independent
/// consumers (inputs, verification sampling) never share a stream.
pub fn lane(seed: u64, lane: u64) -> DetRng {
    DetRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ lane)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_covers_the_tail_and_repeats_per_seed() {
        let mut a = [0u8; 13];
        let mut b = [0u8; 13];
        fill(&mut lane(1, 0), &mut a);
        fill(&mut lane(1, 0), &mut b);
        assert_eq!(a, b);
        assert!(a[8..].iter().any(|&x| x != 0));
        fill(&mut lane(2, 0), &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn content_hash_sees_every_byte() {
        let mut p = vec![0u8; 4096];
        let h0 = content_hash(&p);
        p[4095] = 1;
        assert_ne!(content_hash(&p), h0);
        p[4095] = 0;
        p[17] = 1;
        assert_ne!(content_hash(&p), h0);
    }
}
