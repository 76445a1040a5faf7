//! Second-level key construction: combining the history pattern with the
//! branch address (§3.2.2, §4.2).

use ibp_trace::Addr;

use crate::history::{HistoryRegister, MAX_PATH};
use crate::interleave::Interleaving;
use crate::pattern::{width_mask, PatternCompressor};

/// Second-level history-table sharing (§3.2.2).
///
/// Branches with identical address bits `h..31` share one history table;
/// equivalently, the branch-address component of the table key is
/// `pc >> h`:
///
/// * `h = 2` — per-branch tables (the paper's recommended design);
/// * `h = 31` — one globally shared table (all branches with the same
///   history share a prediction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableSharing {
    h: u32,
}

impl TableSharing {
    /// Per-branch history tables (`h = 2`).
    pub const PER_ADDRESS: TableSharing = TableSharing { h: 2 };
    /// A single globally shared history table (`h = 31`).
    pub const GLOBAL: TableSharing = TableSharing { h: 31 };

    /// Per-set sharing with region size `2^h` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `h < 2` or `h > 31`.
    #[must_use]
    pub fn per_set(h: u32) -> Self {
        assert!(
            (2..=31).contains(&h),
            "table sharing h must be 2..=31, got {h}"
        );
        TableSharing { h }
    }

    /// The sharing exponent `h`.
    #[must_use]
    pub fn h(self) -> u32 {
        self.h
    }

    /// The branch-address component contributed to the key: `pc >> h`
    /// (all-zero for the global table).
    #[must_use]
    pub fn address_component(self, pc: Addr) -> u32 {
        if self.h >= 31 {
            0
        } else {
            pc.set_id(self.h)
        }
    }
}

impl Default for TableSharing {
    fn default() -> Self {
        TableSharing::PER_ADDRESS
    }
}

/// How the branch address is combined with the history pattern (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KeyScheme {
    /// Concatenate: `key = pattern ∘ address` (up to 54 bits for a 24-bit
    /// pattern). Slightly more accurate but doubles tag storage.
    Concat,
    /// Gshare-style xor: `key = pattern ⊕ address` (30 bits). The paper's
    /// choice: "the reduction of the key pattern from 54 to 30 bits by xor
    /// causes a very small increase in misprediction rate".
    #[default]
    GshareXor,
}

impl std::fmt::Display for KeyScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            KeyScheme::Concat => "concat",
            KeyScheme::GshareXor => "xor",
        })
    }
}

/// Width in bits of the branch-address component of a key (`pc >> 2`, a
/// 30-bit word address).
pub const ADDRESS_BITS: u32 = 30;

/// Full recipe for building a limited-precision key (§4–§5).
///
/// # Example
///
/// ```
/// use ibp_core::CompressedKeySpec;
///
/// // The paper's practical configuration for path length 3:
/// let spec = CompressedKeySpec::practical(3);
/// assert_eq!(spec.bits_per_target(), 8); // 3 * 8 = 24-bit pattern
/// assert_eq!(spec.key_width(), 30);      // gshare-xor key
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressedKeySpec {
    path_len: usize,
    bits_per_target: u32,
    pattern_budget: u32,
    compressor: PatternCompressor,
    interleaving: Interleaving,
    scheme: KeyScheme,
    table_sharing: TableSharing,
}

impl CompressedKeySpec {
    /// The paper's final practical configuration for a given path length:
    /// bit-select compression at `a = 2` with the largest `b` such that
    /// `b * p <= 24`, reverse interleaving, gshare-xor key, per-branch
    /// tables.
    ///
    /// # Panics
    ///
    /// Panics if `path_len > MAX_PATH`.
    #[must_use]
    pub fn practical(path_len: usize) -> Self {
        CompressedKeySpec::new(
            path_len,
            24,
            PatternCompressor::default(),
            Interleaving::Reverse,
            KeyScheme::GshareXor,
        )
    }

    /// Creates a spec with explicit parameters. `bits_per_target` is derived
    /// as `pattern_budget / path_len` (floored, at least 1 for non-zero
    /// path lengths).
    ///
    /// # Panics
    ///
    /// Panics if `path_len > MAX_PATH` or `pattern_budget > 32`.
    #[must_use]
    pub fn new(
        path_len: usize,
        pattern_budget: u32,
        compressor: PatternCompressor,
        interleaving: Interleaving,
        scheme: KeyScheme,
    ) -> Self {
        assert!(
            path_len <= MAX_PATH,
            "path length {path_len} exceeds {MAX_PATH}"
        );
        assert!(
            pattern_budget <= 32,
            "pattern budget {pattern_budget} exceeds 32 bits"
        );
        let bits_per_target = if path_len == 0 {
            0
        } else {
            (pattern_budget / path_len as u32).max(1)
        };
        CompressedKeySpec {
            path_len,
            bits_per_target,
            pattern_budget,
            compressor,
            interleaving,
            scheme,
            table_sharing: TableSharing::PER_ADDRESS,
        }
    }

    /// Overrides the derived per-target precision (the paper's Figure 10
    /// sweeps `b` explicitly at fixed path lengths).
    ///
    /// # Panics
    ///
    /// Panics if `b > 32` or the resulting pattern (`b * p`) would exceed
    /// 32 bits.
    #[must_use]
    pub fn with_bits_per_target(mut self, b: u32) -> Self {
        assert!(b <= 32, "bits per target {b} exceeds 32");
        assert!(
            b * self.path_len as u32 <= 32,
            "pattern width {} exceeds 32 bits",
            b * self.path_len as u32
        );
        self.bits_per_target = if self.path_len == 0 { 0 } else { b };
        self
    }

    /// Overrides the table-sharing policy (the address component of the
    /// key becomes `pc >> h`).
    #[must_use]
    pub fn with_table_sharing(mut self, sharing: TableSharing) -> Self {
        self.table_sharing = sharing;
        self
    }

    /// Overrides the interleaving scheme.
    #[must_use]
    pub fn with_interleaving(mut self, interleaving: Interleaving) -> Self {
        self.interleaving = interleaving;
        self
    }

    /// Overrides the key scheme.
    #[must_use]
    pub fn with_scheme(mut self, scheme: KeyScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Overrides the compressor.
    #[must_use]
    pub fn with_compressor(mut self, compressor: PatternCompressor) -> Self {
        self.compressor = compressor;
        self
    }

    /// The path length `p`.
    #[must_use]
    pub fn path_len(&self) -> usize {
        self.path_len
    }

    /// Bits of each target address kept in the pattern (`b`).
    #[must_use]
    pub fn bits_per_target(&self) -> u32 {
        self.bits_per_target
    }

    /// Width of the history pattern, `b * p` bits.
    #[must_use]
    pub fn pattern_width(&self) -> u32 {
        self.bits_per_target * self.path_len as u32
    }

    /// The interleaving scheme.
    #[must_use]
    pub fn interleaving(&self) -> Interleaving {
        self.interleaving
    }

    /// The key scheme.
    #[must_use]
    pub fn scheme(&self) -> KeyScheme {
        self.scheme
    }

    /// The compressor.
    #[must_use]
    pub fn compressor(&self) -> PatternCompressor {
        self.compressor
    }

    /// The table-sharing policy.
    #[must_use]
    pub fn table_sharing(&self) -> TableSharing {
        self.table_sharing
    }

    /// Total key width in bits: 30 for xor, `30 + pattern_width` for
    /// concatenation.
    #[must_use]
    pub fn key_width(&self) -> u32 {
        match self.scheme {
            KeyScheme::GshareXor => ADDRESS_BITS.max(self.pattern_width()),
            KeyScheme::Concat => ADDRESS_BITS + self.pattern_width(),
        }
    }

    /// Builds the history pattern (the low `pattern_width` bits).
    #[must_use]
    pub fn pattern(&self, history: &HistoryRegister) -> u64 {
        let p = self.path_len;
        let b = self.bits_per_target;
        if p == 0 || b == 0 {
            return 0;
        }
        let path = &history.path()[..p];
        if self.compressor.is_chunked() {
            let mut chunks = [0u32; MAX_PATH];
            for (chunk, &t) in chunks.iter_mut().zip(path) {
                *chunk = self.compressor.chunk(t, b);
            }
            self.interleaving.layout(&chunks[..p], b)
        } else {
            // Shift-xor folds oldest-to-newest over the full addresses.
            let mut oldest_first = [Addr::ZERO; MAX_PATH];
            for (slot, &t) in oldest_first.iter_mut().zip(path.iter().rev()) {
                *slot = t;
            }
            self.compressor
                .fold_history(&oldest_first[..p], b, self.pattern_width())
        }
    }

    /// Builds the table key for a branch at `pc` with the given history.
    #[must_use]
    pub fn key(&self, pc: Addr, history: &HistoryRegister) -> u64 {
        let pattern = self.pattern(history);
        let addr = u64::from(self.table_sharing.address_component(pc));
        match self.scheme {
            KeyScheme::Concat => (pattern << ADDRESS_BITS) | addr,
            KeyScheme::GshareXor => (pattern ^ addr) & width_mask(self.key_width()),
        }
    }
}

/// The recipe for full-precision keys of unconstrained predictors (§3):
/// the table identifier (`pc >> h`) followed by the `p` most recent
/// history elements, newest first — `1 + p` words of an
/// [`UnboundedTable`](crate::table::UnboundedTable) key.
///
/// With a `precision` of `b` bits each element is reduced to its bits
/// `[2..2+b-1]` above the alignment bits: the paper's Figure 10 setting of
/// limited-precision patterns on unconstrained tables. `None` keeps the
/// full 32-bit addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FullKeySpec {
    path_len: usize,
    sharing: TableSharing,
    precision: Option<u32>,
}

impl FullKeySpec {
    /// Creates the recipe for path length `path_len`.
    ///
    /// # Panics
    ///
    /// Panics if `path_len > MAX_PATH`.
    #[must_use]
    pub(crate) fn new(path_len: usize, sharing: TableSharing, precision: Option<u32>) -> Self {
        assert!(
            path_len <= MAX_PATH,
            "path length {path_len} exceeds {MAX_PATH}"
        );
        FullKeySpec {
            path_len,
            sharing,
            precision,
        }
    }

    /// The table-sharing policy (the first key word is `pc >> h`).
    #[must_use]
    pub(crate) fn table_sharing(&self) -> TableSharing {
        self.sharing
    }

    /// Bits kept per history element, or `None` for full precision.
    #[must_use]
    pub(crate) fn precision(&self) -> Option<u32> {
        self.precision
    }

    /// The key width in words: `1 + p`.
    #[must_use]
    pub(crate) fn words(&self) -> usize {
        1 + self.path_len
    }

    /// Writes the key of a branch at `pc` into `out`, which must be
    /// [`words`](FullKeySpec::words) long.
    ///
    /// # Panics
    ///
    /// Panics if `out` has the wrong length or the history is shallower
    /// than the path length.
    pub(crate) fn write(&self, pc: Addr, history: &HistoryRegister, out: &mut [u32]) {
        assert_eq!(out.len(), self.words(), "full key width");
        let (table, path) = out.split_first_mut().expect("one table word");
        *table = self.sharing.address_component(pc);
        let elems = &history.path()[..self.path_len];
        for (word, &t) in path.iter_mut().zip(elems) {
            *word = self.element_word(t);
        }
    }

    /// One history element as a key word: the whole address at full
    /// precision, else its `b` bits from bit 2 up.
    #[must_use]
    pub(crate) fn element_word(&self, element: Addr) -> u32 {
        match self.precision {
            None => element.raw(),
            Some(b) => element.bits(2, b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(raw: u32) -> Addr {
        Addr::new(raw)
    }

    fn hist(targets: &[u32], depth: usize) -> HistoryRegister {
        let mut h = HistoryRegister::new(depth);
        for &t in targets {
            h.push(a(t));
        }
        h
    }

    #[test]
    fn practical_spec_budgets() {
        for (p, b) in [
            (1, 24),
            (2, 12),
            (3, 8),
            (4, 6),
            (6, 4),
            (8, 3),
            (12, 2),
            (18, 1),
        ] {
            let spec = CompressedKeySpec::practical(p);
            assert_eq!(spec.bits_per_target(), b, "p={p}");
            assert!(spec.pattern_width() <= 24);
        }
        assert_eq!(CompressedKeySpec::practical(0).bits_per_target(), 0);
    }

    #[test]
    fn xor_key_is_30_bits() {
        let spec = CompressedKeySpec::practical(4);
        let h = hist(&[0x100, 0x200, 0x300, 0x400], 4);
        let key = spec.key(a(0xFFFF_FFF0), &h);
        assert!(key < (1 << 30));
        assert_eq!(spec.key_width(), 30);
    }

    #[test]
    fn concat_key_separates_pattern_and_address() {
        let spec = CompressedKeySpec::practical(2).with_scheme(KeyScheme::Concat);
        let h = hist(&[0x100, 0x200], 2);
        let key = spec.key(a(0x1000), &h);
        assert_eq!(key & width_mask(30), u64::from(a(0x1000).word()));
        assert_eq!(key >> 30, spec.pattern(&h));
        assert_eq!(spec.key_width(), 30 + 24);
    }

    #[test]
    fn p0_key_is_address_only() {
        let spec = CompressedKeySpec::practical(0);
        let h = hist(&[0x100], 1);
        assert_eq!(spec.key(a(0x1000), &h), u64::from(a(0x1000).word()));
        // Both schemes agree at p = 0.
        let c = spec.with_scheme(KeyScheme::Concat);
        assert_eq!(c.key(a(0x1000), &h), u64::from(a(0x1000).word()));
    }

    #[test]
    fn different_histories_different_keys() {
        let spec = CompressedKeySpec::practical(2);
        let pc = a(0x1000);
        let k1 = spec.key(pc, &hist(&[0x100, 0x200], 2));
        let k2 = spec.key(pc, &hist(&[0x100, 0x240], 2));
        assert_ne!(k1, k2);
    }

    #[test]
    fn xor_can_alias_distinct_pcs() {
        // The xor scheme deliberately allows aliasing between (pc, pattern)
        // pairs; with pattern 0 the key is the pc itself.
        let spec = CompressedKeySpec::practical(1);
        let h = hist(&[], 1);
        assert_eq!(spec.key(a(0x1000), &h), u64::from(a(0x1000).word()));
    }

    #[test]
    fn table_sharing_component() {
        assert_eq!(
            TableSharing::PER_ADDRESS.address_component(a(0x1040)),
            0x410
        );
        assert_eq!(TableSharing::GLOBAL.address_component(a(0x1040)), 0);
        let t9 = TableSharing::per_set(9);
        assert_eq!(t9.address_component(a(0x1040)), 0x1040 >> 9);
        assert_eq!(TableSharing::default(), TableSharing::PER_ADDRESS);
    }

    #[test]
    #[should_panic(expected = "table sharing")]
    fn table_sharing_rejects_low_h() {
        let _ = TableSharing::per_set(0);
    }

    #[test]
    fn explicit_bits_override() {
        let spec = CompressedKeySpec::practical(3).with_bits_per_target(2);
        assert_eq!(spec.pattern_width(), 6);
        let spec0 = CompressedKeySpec::practical(0).with_bits_per_target(8);
        assert_eq!(spec0.bits_per_target(), 0);
    }

    #[test]
    fn shift_xor_spec_builds_pattern() {
        let spec = CompressedKeySpec::practical(2).with_compressor(PatternCompressor::ShiftXor);
        let h = hist(&[0x100, 0x200], 2);
        let pat = spec.pattern(&h);
        // fold oldest (0x100) then newest (0x200), b = 12, width 24:
        let expect =
            ((u64::from(a(0x100).word()) << 12) ^ u64::from(a(0x200).word())) & width_mask(24);
        assert_eq!(pat, expect);
    }

    fn full_key(spec: FullKeySpec, pc: Addr, h: &HistoryRegister) -> Vec<u32> {
        let mut out = vec![0; spec.words()];
        spec.write(pc, h, &mut out);
        out
    }

    #[test]
    fn full_key_equality_by_path() {
        let spec = FullKeySpec::new(2, TableSharing::PER_ADDRESS, None);
        let h1 = hist(&[0x100, 0x200], 4);
        let h2 = hist(&[0x100, 0x200], 4);
        let k1 = full_key(spec, a(0x1000), &h1);
        assert_eq!(k1, full_key(spec, a(0x1000), &h2));
        assert_eq!(
            k1,
            vec![a(0x1000).word(), 0x200, 0x100],
            "table word, newest first"
        );
        assert_eq!(spec.words(), 3);
        // Deeper history content beyond the path is irrelevant.
        let h3 = hist(&[0x998, 0x100, 0x200], 4);
        assert_eq!(k1, full_key(spec, a(0x1000), &h3));
    }

    #[test]
    fn full_key_differs_per_table() {
        let h = hist(&[0x100], 2);
        let per = FullKeySpec::new(1, TableSharing::PER_ADDRESS, None);
        assert_ne!(full_key(per, a(0x1000), &h), full_key(per, a(0x2000), &h));
        let global = FullKeySpec::new(1, TableSharing::GLOBAL, None);
        assert_eq!(
            full_key(global, a(0x1000), &h),
            full_key(global, a(0x2000), &h)
        );
    }

    #[test]
    fn full_key_precision_keeps_low_bits() {
        let spec = FullKeySpec::new(2, TableSharing::PER_ADDRESS, Some(4));
        let h = hist(&[0x1234, 0xABC8], 2);
        assert_eq!(
            full_key(spec, a(0x1000), &h),
            vec![a(0x1000).word(), a(0xABC8).bits(2, 4), a(0x1234).bits(2, 4)]
        );
    }
}
