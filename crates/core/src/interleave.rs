//! Pattern-bit layout: concatenation and interleaving (§5.2.1).

use crate::pattern::width_mask;

/// How the per-target chunks of a history pattern are laid out in the key.
///
/// With limited-associativity tables the low bits of the key select the set,
/// so the layout decides *which target bits reach the index*:
///
/// * [`Concat`](Interleaving::Concat) — chunks placed side by side, most
///   recent target in the lowest bits. The index then contains only the
///   most recent target(s), so paths differing only in older targets
///   collide (the paper's Figure 13 pathology and the saw-tooth of
///   Figure 12).
/// * [`Straight`](Interleaving::Straight) — bits round-robined across
///   targets, most recent target first, so when the index width is not a
///   multiple of the path length the *most recent* targets contribute one
///   extra bit.
/// * [`Reverse`](Interleaving::Reverse) — round-robin starting from the
///   oldest target; the *older* targets get the extra precision. The paper
///   found this slightly best, because extra precision on old targets is
///   exactly what long-path predictors exist for, and uses it in all final
///   results.
/// * [`PingPong`](Interleaving::PingPong) — alternate newest, oldest,
///   second-newest, second-oldest, …
///
/// # Example
///
/// The paper's Figure 15 setting: path length 4, 10-bit index. With 6-bit
/// chunks, the 10 index bits take bit 0 and bit 1 of every target plus bit 2
/// of the two first-visited targets:
///
/// ```
/// use ibp_core::Interleaving;
///
/// // chunks[0] = most recent target's bits.
/// let chunks = [0b000111u32, 0, 0, 0];
/// let pat = Interleaving::Straight.layout(&chunks, 6);
/// // Straight order visits the newest target first, so its bits land at
/// // positions 0, 4, 8, ...
/// assert_eq!(pat & 1, 1);
/// assert_eq!((pat >> 4) & 1, 1);
/// assert_eq!((pat >> 8) & 1, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Interleaving {
    /// Side-by-side chunks, newest target lowest.
    Concat,
    /// Round-robin, newest target first.
    Straight,
    /// Round-robin, oldest target first (the paper's choice).
    #[default]
    Reverse,
    /// Round-robin alternating newest / oldest ends.
    PingPong,
}

/// The longest stride a pattern bit can be spread to: one bit from each of
/// 64 chunks fills a 64-bit pattern.
const MAX_STRIDE: usize = 64;

/// `SPREAD[s - 1][v]` deposits bit `r` of the byte `v` at bit `r * s`:
/// the per-stride networks that spread one byte of a chunk to its
/// round-robin positions in a single lookup. Bits that would land at or
/// beyond bit 64 are dropped; [`Interleaving::layout`] never asks for them.
static SPREAD: [[u64; 256]; MAX_STRIDE] = spread_table();

const fn spread_table() -> [[u64; 256]; MAX_STRIDE] {
    let mut table = [[0u64; 256]; MAX_STRIDE];
    let mut s = 1;
    while s <= MAX_STRIDE {
        let mut v = 0;
        while v < 256 {
            let mut spread = 0u64;
            let mut r = 0;
            while r < 8 && r * s < 64 {
                spread |= ((v as u64 >> r) & 1) << (r * s);
                r += 1;
            }
            table[s - 1][v] = spread;
            v += 1;
        }
        s += 1;
    }
    table
}

/// Spreads the low `bytes` bytes of `bits` to stride `stride` (bit `r` to
/// bit `r * stride`), one lookup per byte.
///
/// Every set bit `r` of `bits` must satisfy `r * stride < 64`, and so must
/// the lowest bit of every byte spread; the layout guarantees both by
/// masking chunks to `b` bits with `p * b <= 64` and spreading
/// `ceil(b / 8)` bytes. The byte count is fixed per layout, so the loop
/// does not branch on the chunk's value.
fn spread(bits: u32, bytes: u32, stride: usize) -> u64 {
    let row = &SPREAD[stride - 1];
    let mut out = 0;
    for m in 0..bytes {
        let byte = (bits >> (8 * m)) & 0xFF;
        out |= row[byte as usize] << (8 * m as usize * stride);
    }
    out
}

impl Interleaving {
    /// All layouts, in paper order.
    pub const ALL: [Interleaving; 4] = [
        Interleaving::Concat,
        Interleaving::Straight,
        Interleaving::Reverse,
        Interleaving::PingPong,
    ];

    /// The target visited at position `k` (`0..p`) when dealing out bits;
    /// target 0 is the most recent. Concat visits in chunk order.
    fn visit(self, p: usize, k: usize) -> usize {
        match self {
            Interleaving::Concat | Interleaving::Straight => k,
            Interleaving::Reverse => p - 1 - k,
            // Newest, oldest, second-newest, second-oldest, ...
            Interleaving::PingPong => {
                if k.is_multiple_of(2) {
                    k / 2
                } else {
                    p - 1 - k / 2
                }
            }
        }
    }

    /// Lays out `p` chunks of `b` bits each into a `p * b`-bit pattern.
    ///
    /// `chunks[0]` must be the most recent target's chunk. Bits beyond `b`
    /// in each chunk are ignored. The result occupies the low `p * b` bits:
    /// under [`Concat`](Interleaving::Concat) the chunk of visit position
    /// `k` fills bits `k * b ..`; under the round-robin layouts its bit `r`
    /// lands at bit `r * p + k`, spread in one step per chunk byte.
    ///
    /// # Panics
    ///
    /// Panics if the pattern would be wider than 64 bits (`p * b > 64`).
    #[must_use]
    pub fn layout(self, chunks: &[u32], b: u32) -> u64 {
        let p = chunks.len();
        if p == 0 || b == 0 {
            return 0;
        }
        assert!(
            p as u64 * u64::from(b) <= 64,
            "a pattern of {p} chunks of {b} bits exceeds 64 bits"
        );
        // A chunk holds at most 32 bits, whatever `b` is.
        let mask = width_mask(b) as u32;
        let bytes = b.min(32).div_ceil(8);
        // Chunk `visit(k)` is spread to `stride` and placed at `k * step`.
        let (stride, step) = match self {
            Interleaving::Concat => (1, b as usize),
            _ => (p, 1),
        };
        let mut pat = 0;
        for k in 0..p {
            let bits = chunks[self.visit(p, k)] & mask;
            pat |= spread(bits, bytes, stride) << (k * step);
        }
        pat
    }

    /// For an index of `index_bits` bits over a `p`-target, `b`-bit-chunk
    /// pattern, how many bits of target `j` (0 = newest) land inside the
    /// index. Used for tests and for reasoning about Figure 15.
    #[must_use]
    pub fn index_precision(self, p: usize, b: u32, index_bits: u32, j: usize) -> u32 {
        if p == 0 || b == 0 {
            return 0;
        }
        match self {
            Interleaving::Concat => {
                // Target j occupies bits [j*b, (j+1)*b).
                let lo = j as u32 * b;
                let hi = lo + b;
                hi.min(index_bits).saturating_sub(lo)
            }
            _ => {
                let k = (0..p)
                    .position(|k| self.visit(p, k) == j)
                    .expect("target index") as u32;
                // Bit r of target j lands at position r * p + k.
                let mut count = 0;
                for r in 0..b {
                    if r * (p as u32) + k < index_bits {
                        count += 1;
                    }
                }
                count
            }
        }
    }
}

impl std::fmt::Display for Interleaving {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Interleaving::Concat => "concat",
            Interleaving::Straight => "straight",
            Interleaving::Reverse => "reverse",
            Interleaving::PingPong => "ping-pong",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_places_newest_lowest() {
        // p = 2, b = 4: pattern = t2 t1 (t1 = chunks[0] in low bits).
        let pat = Interleaving::Concat.layout(&[0xA, 0xB], 4);
        assert_eq!(pat, 0xBA);
    }

    #[test]
    fn straight_round_robins_newest_first() {
        // p = 2, b = 2. chunks: t1 = 0b01, t2 = 0b10.
        // Positions: r0 -> t1 bit0 @0, t2 bit0 @1; r1 -> t1 bit1 @2, t2 bit1 @3.
        // t1 = 01: bit0=1 -> pos0. t2 = 10: bit1=1 -> pos3.
        let pat = Interleaving::Straight.layout(&[0b01, 0b10], 2);
        assert_eq!(pat, 0b1001);
    }

    #[test]
    fn reverse_round_robins_oldest_first() {
        // Same chunks, order t2 then t1: r0 -> t2 bit0 @0, t1 bit0 @1;
        // r1 -> t2 bit1 @2, t1 bit1 @3. t1=01: pos1. t2=10: pos2.
        let pat = Interleaving::Reverse.layout(&[0b01, 0b10], 2);
        assert_eq!(pat, 0b0110);
    }

    fn visit_order(scheme: Interleaving, p: usize) -> Vec<usize> {
        (0..p).map(|k| scheme.visit(p, k)).collect()
    }

    #[test]
    fn visit_orders() {
        assert_eq!(visit_order(Interleaving::PingPong, 4), vec![0, 3, 1, 2]);
        assert_eq!(visit_order(Interleaving::PingPong, 5), vec![0, 4, 1, 3, 2]);
        assert_eq!(visit_order(Interleaving::PingPong, 1), vec![0]);
        assert_eq!(visit_order(Interleaving::Reverse, 3), vec![2, 1, 0]);
        assert_eq!(visit_order(Interleaving::Straight, 3), vec![0, 1, 2]);
    }

    #[test]
    fn spread_table_rows() {
        assert_eq!(spread(0b1011, 1, 1), 0b1011);
        assert_eq!(spread(0b1011, 1, 3), 0b1_000_001_001);
        // A second byte starts at bit 8 * stride.
        assert_eq!(spread(0x101, 2, 2), 1 | 1 << 16);
        // Bytes beyond the count are not spread.
        assert_eq!(spread(0x101, 1, 2), 1);
        // One bit per stride-64 position: only bit 0 fits.
        assert_eq!(spread(1, 1, 64), 1);
    }

    #[test]
    fn full_width_patterns_fit() {
        // p * b = 64 exactly, every layout: all 64 bits set.
        for scheme in Interleaving::ALL {
            assert_eq!(scheme.layout(&[u32::MAX; 4], 16), u64::MAX, "{scheme}");
            assert_eq!(scheme.layout(&[1; 64], 1), u64::MAX, "{scheme}");
            assert_eq!(
                scheme.layout(&[u32::MAX], 64),
                u64::from(u32::MAX),
                "{scheme}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 64 bits")]
    fn patterns_wider_than_64_bits_rejected() {
        // 18 chunks of 4 bits would make a 72-bit pattern.
        let _ = Interleaving::Reverse.layout(&[0b1000; 18], 4);
    }

    #[test]
    fn figure15_index_precision() {
        // Paper's Figure 15: p = 4, 10-bit index, 6-bit chunks: two targets
        // get 3 bits in the index, two get 2.
        let b = 6;
        let idx = 10;
        // Straight: targets 1 and 2 (j = 0, 1) are more precise.
        let s: Vec<u32> = (0..4)
            .map(|j| Interleaving::Straight.index_precision(4, b, idx, j))
            .collect();
        assert_eq!(s, vec![3, 3, 2, 2]);
        // Reverse: targets 3 and 4 (j = 2, 3) are more precise.
        let r: Vec<u32> = (0..4)
            .map(|j| Interleaving::Reverse.index_precision(4, b, idx, j))
            .collect();
        assert_eq!(r, vec![2, 2, 3, 3]);
        // Ping-pong: targets 1 and 4 (j = 0, 3).
        let p: Vec<u32> = (0..4)
            .map(|j| Interleaving::PingPong.index_precision(4, b, idx, j))
            .collect();
        assert_eq!(p, vec![3, 2, 2, 3]);
        // Concat: index contains only the newest targets.
        let c: Vec<u32> = (0..4)
            .map(|j| Interleaving::Concat.index_precision(4, b, idx, j))
            .collect();
        assert_eq!(c, vec![6, 4, 0, 0]);
    }

    #[test]
    fn layouts_are_permutations_of_bits() {
        // Total popcount preserved for every scheme.
        let chunks = [0b1011u32, 0b0110, 0b0001];
        let b = 4;
        let total: u32 = chunks.iter().map(|c| c.count_ones()).sum();
        for scheme in Interleaving::ALL {
            let pat = scheme.layout(&chunks, b);
            assert_eq!(pat.count_ones(), total, "{scheme}");
            assert!(pat < (1 << 12));
        }
    }

    #[test]
    fn empty_and_zero_width() {
        for scheme in Interleaving::ALL {
            assert_eq!(scheme.layout(&[], 4), 0);
            assert_eq!(scheme.layout(&[0xF], 0), 0);
            assert_eq!(scheme.index_precision(0, 4, 8, 0), 0);
        }
    }

    #[test]
    fn chunks_masked_to_b_bits() {
        // Bits above b in a chunk must not leak into the pattern.
        let pat = Interleaving::Concat.layout(&[0xFF, 0x0], 4);
        assert_eq!(pat, 0x0F);
        let pat = Interleaving::Reverse.layout(&[0xFF, 0x0], 4);
        assert_eq!(pat.count_ones(), 4);
    }

    #[test]
    fn display_names() {
        assert_eq!(Interleaving::Reverse.to_string(), "reverse");
        assert_eq!(Interleaving::default(), Interleaving::Reverse);
    }
}
