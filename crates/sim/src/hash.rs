//! The workspace's one content hash.
//!
//! Every digest the tree computes — the object store's page checksums
//! (taken on write; verified on read, materialization, recovery and
//! scrub), the `base_csum` a delta chains on, commit-payload, redo,
//! journal and stream-record checksums, the POSIX serializer's vnode
//! content hashes — is [`content_hash`]. The digests are stored on the
//! device and sent on the wire, so changing this function is a format
//! change: bump `RECORD_VERSION` and `STREAM_VERSION` with it.
//!
//! # The function
//!
//! A 4 KiB page is hashed on every flush and every cold read, so the
//! cost that matters is the serial dependency chain per input byte. A
//! byte-at-a-time multiply hash (what this module held before record
//! format 6) waits one multiply latency per *byte*; this one waits one
//! per 32 bytes:
//!
//! * **Lanes.** The input is read as little-endian `u64` words, four per
//!   32-byte block, word `i` of a block into lane `i`. The lanes share
//!   nothing until the end, so four multiplies are in flight at once.
//!   A lane absorbs a word with the XXH64 round,
//!   `acc = rotl(acc + w·Q, 31)·P`: each of the three operations is a
//!   bijection of `acc` for a fixed word and of the word for a fixed
//!   `acc` (`P`, `Q` odd), so replacing any one word always changes its
//!   lane. Multiplying the word before it meets the accumulator is
//!   what a bare `acc = (acc ^ w)·P` lacks: there, bit 63 of a word
//!   only ever reaches bit 63 of the lane, and flipping the top bits of
//!   two words 32 bytes apart (two `f64` signs, say) cancels for every
//!   input. The extra multiply is off the dependency chain.
//! * **Fold.** `h = len`, then `h = (rotl(h, 27) ^ lane)·P` for lanes
//!   0‥3 in order: a bijection of `h` and of each lane, so one lane
//!   ending in a different value always changes the digest (with the
//!   point above: any change confined to one word is always detected),
//!   and — with the distinct lane seeds — a word moved to another lane
//!   or another block does not hash like the original.
//! * **Tail.** The last `len % 32` bytes go in one at a time,
//!   `h = (h ^ b)·P`, after the fold; the length in the fold's seed
//!   is what makes trailing zero bytes count.
//! * **Finish.** XXH64's xorshift–multiply avalanche (a bijection), so
//!   callers that keep only some bits of the digest get mixed ones.
//!
//! It is a checksum against corruption and stale bases, not a keyed or
//! collision-resistant hash: anyone who can choose page contents can
//! construct collisions.
//!
//! # The constants
//!
//! `P` and `Q` are XXH64's `PRIME64_1`/`PRIME64_2`: odd, about half
//! their bits set without long runs, and their pairing with the 31-bit
//! rotate has a decade of public avalanche testing behind it. The lane
//! seeds are the first 256 fractional bits of π — arbitrary, distinct
//! and non-zero (a zero lane fed zero words would stay zero).
//!
//! `std` only, no `unsafe`, no target-specific code: the same digest on
//! every platform.

const P: u64 = 0x9E37_79B1_85EB_CA87;
const Q: u64 = 0xC2B2_AE3D_27D4_EB4F;
const LANE_SEEDS: [u64; 4] =
    [0x243F_6A88_85A3_08D3, 0x1319_8A2E_0370_7344, 0xA409_3822_299F_31D0, 0x082E_FA98_EC4E_6C89];

/// The 64-bit content hash of `data` (see the module docs).
pub fn content_hash(data: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let mut blocks = data.chunks_exact(32);
    for block in &mut blocks {
        for (acc, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let w = u64::from_le_bytes(word.try_into().expect("chunks_exact(8) yields 8 bytes"));
            *acc = acc.wrapping_add(w.wrapping_mul(Q)).rotate_left(31).wrapping_mul(P);
        }
    }
    let mut h = data.len() as u64;
    for lane in lanes {
        h = (h.rotate_left(27) ^ lane).wrapping_mul(P);
    }
    for &b in blocks.remainder() {
        h = (h ^ b as u64).wrapping_mul(P);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(Q);
    h ^= h >> 29;
    h = h.wrapping_mul(P);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{DetRng, Rng};

    fn seeded_page() -> Vec<u8> {
        let mut rng = DetRng::seed_from_u64(0x4A5E_0006);
        (0..4096).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn golden_vectors() {
        // Digests are stored on devices and sent on the wire: these pin
        // the function bit for bit (cross-checked once against an
        // independent implementation of the module docs). A deliberate
        // change re-pins them together with a RECORD_VERSION /
        // STREAM_VERSION bump.
        let bytes: Vec<u8> = (0..4096u32).map(|i| (i * 7 + 3) as u8).collect();
        let got: Vec<u64> =
            [0, 1, 31, 32, 33, 4096].iter().map(|&n| content_hash(&bytes[..n])).collect();
        let want = [
            0xa2a7_6e24_ad1c_1878,
            0xb658_2917_623d_7f4f,
            0x44df_43e9_cec0_340b,
            0x83c8_d47a_be65_75e3,
            0x3d08_cb4d_6b86_210c,
            0x90d9_e779_6bfb_e6d0,
        ];
        assert_eq!(got, want, "{got:#018x?}");
        assert_eq!(content_hash(&seeded_page()), 0x68d8_e78a_7e50_cfa8);
    }

    #[test]
    fn every_single_bit_flip_of_a_page_changes_the_digest() {
        let mut page = seeded_page();
        let clean = content_hash(&page);
        for bit in 0..page.len() * 8 {
            page[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(content_hash(&page), clean, "bit {bit}");
            page[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn replacing_any_one_word_changes_the_digest() {
        let mut page = seeded_page();
        let clean = content_hash(&page);
        let mut rng = DetRng::seed_from_u64(7);
        for word in 0..page.len() / 8 {
            let at = word * 8..word * 8 + 8;
            let old: [u8; 8] = page[at.clone()].try_into().unwrap();
            // Top-bit-only and low-bit-only replacements are the ones a
            // bare xor-multiply lane diffuses worst.
            let old_w = u64::from_le_bytes(old);
            for new in [rng.next_u64(), old_w ^ 1 << 63, old_w ^ 1, 0, !old_w] {
                if new == old_w {
                    continue;
                }
                page[at.clone()].copy_from_slice(&new.to_le_bytes());
                assert_ne!(content_hash(&page), clean, "word {word} -> {new:#x}");
            }
            page[at].copy_from_slice(&old);
        }
    }

    #[test]
    fn top_bit_flips_in_one_lane_do_not_cancel() {
        // The pair a bare `(acc ^ w)·P` lane misses for every input.
        let mut page = seeded_page();
        let clean = content_hash(&page);
        for word in 0..page.len() / 8 - 4 {
            page[word * 8 + 7] ^= 0x80;
            page[(word + 4) * 8 + 7] ^= 0x80;
            assert_ne!(content_hash(&page), clean, "words {word} and {}", word + 4);
            page[word * 8 + 7] ^= 0x80;
            page[(word + 4) * 8 + 7] ^= 0x80;
        }
    }

    #[test]
    fn appended_zero_bytes_change_the_digest() {
        for base in [&b""[..], &[0u8; 32][..], &seeded_page()[..100], &seeded_page()[..]] {
            let mut grown = base.to_vec();
            let mut seen = vec![content_hash(base)];
            for _ in 0..70 {
                grown.push(0);
                let h = content_hash(&grown);
                assert!(!seen.contains(&h), "len {} repeats an earlier digest", grown.len());
                seen.push(h);
            }
        }
    }

    #[test]
    fn swapped_words_change_the_digest() {
        let page = seeded_page();
        let clean = content_hash(&page);
        let words = page.len() / 8;
        // (i, j): same lane (4 apart, far apart), neighbouring lanes,
        // same block, different blocks.
        for (i, j) in [(0, 4), (3, 507), (0, 1), (2, 3), (1, 6), (5, words - 1)] {
            let mut p = page.clone();
            for k in 0..8 {
                p.swap(i * 8 + k, j * 8 + k);
            }
            assert_ne!(p, page, "seeded words {i} and {j} are equal");
            assert_ne!(content_hash(&p), clean, "words {i} <-> {j}");
        }
    }
}
