//! First predictor level: history registers and their sharing.

use ibp_trace::Addr;

use crate::hash::WordMap;

/// Maximum supported path length (the paper explores `p = 0..=18`).
pub const MAX_PATH: usize = 18;

/// What each history element records (§3.3 variations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HistoryElement {
    /// The target address of the branch — the paper's main design.
    #[default]
    Target,
    /// Branch address xor target ("both branch address and target", §3.3).
    /// The paper found this inferior; it is kept for the ablation runner.
    AddressXorTarget,
}

impl HistoryElement {
    /// Encodes one executed branch into a history element value.
    #[must_use]
    pub fn encode(self, pc: Addr, target: Addr) -> Addr {
        match self {
            HistoryElement::Target => target,
            HistoryElement::AddressXorTarget => Addr::from_word(pc.word() ^ target.word()),
        }
    }
}

/// A shift register of the most recent history elements, newest first.
///
/// Index `0` of [`recent`](HistoryRegister::recent) is the *newest* element,
/// and [`path`](HistoryRegister::path) is the whole register as one
/// contiguous newest-first slice, which is the order table keys read it in.
/// Slots that have not been filled yet read as [`Addr::ZERO`], matching the
/// cold-start behaviour of a hardware shift register.
///
/// # Example
///
/// ```
/// use ibp_core::HistoryRegister;
/// use ibp_trace::Addr;
///
/// let mut h = HistoryRegister::new(3);
/// h.push(Addr::new(0x100));
/// h.push(Addr::new(0x200));
/// assert_eq!(h.recent(0), Addr::new(0x200));
/// assert_eq!(h.recent(1), Addr::new(0x100));
/// assert_eq!(h.recent(2), Addr::ZERO); // not yet filled
/// assert_eq!(h.path(), [Addr::new(0x200), Addr::new(0x100), Addr::ZERO]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryRegister {
    /// Newest first; only the first `depth` elements are live.
    elems: [Addr; MAX_PATH],
    /// Path length (number of elements considered).
    depth: usize,
}

impl HistoryRegister {
    /// Creates a register holding the `depth` most recent elements.
    ///
    /// # Panics
    ///
    /// Panics if `depth > MAX_PATH`.
    #[must_use]
    pub fn new(depth: usize) -> Self {
        assert!(depth <= MAX_PATH, "path length {depth} exceeds {MAX_PATH}");
        HistoryRegister {
            elems: [Addr::ZERO; MAX_PATH],
            depth,
        }
    }

    /// The path length this register was created with.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Shifts a new element in (dropping the oldest).
    pub fn push(&mut self, element: Addr) {
        if self.depth == 0 {
            return;
        }
        self.elems.copy_within(..self.depth - 1, 1);
        self.elems[0] = element;
    }

    /// The `i`-th most recent element (`0` = newest). Unfilled slots read as
    /// [`Addr::ZERO`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= depth`.
    #[must_use]
    pub fn recent(&self, i: usize) -> Addr {
        assert!(
            i < self.depth,
            "history index {i} out of depth {}",
            self.depth
        );
        self.elems[i]
    }

    /// All `depth` elements, newest first.
    #[must_use]
    pub fn path(&self) -> &[Addr] {
        &self.elems[..self.depth]
    }

    /// All `depth` elements, newest first, as an owned vector.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Addr> {
        self.path().to_vec()
    }
}

/// First-level history sharing (§3.2.1).
///
/// A *per-set* history keeps one [`HistoryRegister`] per group of branches,
/// where a branch's group is its address bits `s..31`. The paper's notable
/// points in this spectrum:
///
/// * `s = 31` — one register shared by all branches (**global** history,
///   the paper's recommended design);
/// * `s = 2` — one register per branch site (**per-address** history).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HistorySharing {
    s: u32,
}

impl HistorySharing {
    /// Global history: a single shared register (`s = 31`).
    pub const GLOBAL: HistorySharing = HistorySharing { s: 31 };
    /// Per-branch history (`s = 2`).
    pub const PER_ADDRESS: HistorySharing = HistorySharing { s: 2 };

    /// Per-set sharing with region size `2^s` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `s < 2` (instructions are word-aligned, so `s = 0, 1` are
    /// meaningless — see the paper's §3.3) or `s > 31`.
    #[must_use]
    pub fn per_set(s: u32) -> Self {
        assert!(
            (2..=31).contains(&s),
            "history sharing s must be 2..=31, got {s}"
        );
        HistorySharing { s }
    }

    /// The sharing exponent `s`.
    #[must_use]
    pub fn s(self) -> u32 {
        self.s
    }

    /// Whether this is the single-register global configuration.
    #[must_use]
    pub fn is_global(self) -> bool {
        self.s == 31
    }

    /// The history-set identifier for a branch.
    #[must_use]
    pub fn set_of(self, pc: Addr) -> u32 {
        if self.is_global() {
            0
        } else {
            pc.set_id(self.s)
        }
    }
}

impl Default for HistorySharing {
    fn default() -> Self {
        HistorySharing::GLOBAL
    }
}

/// The complete first level: one or more history registers selected by
/// branch address under a [`HistorySharing`] policy.
#[derive(Debug, Clone)]
pub struct Histories {
    sharing: HistorySharing,
    element: HistoryElement,
    depth: usize,
    global: HistoryRegister,
    /// One register per history set, keyed by set identifier through the
    /// fixed word hasher: probed on every event, and read back only as an
    /// order-free census.
    per_set: WordMap<HistoryRegister>,
}

impl Histories {
    /// Creates the first level for the given sharing policy and path length.
    #[must_use]
    pub fn new(sharing: HistorySharing, element: HistoryElement, depth: usize) -> Self {
        Histories {
            sharing,
            element,
            depth,
            global: HistoryRegister::new(depth),
            per_set: WordMap::default(),
        }
    }

    /// The sharing policy.
    #[must_use]
    pub fn sharing(&self) -> HistorySharing {
        self.sharing
    }

    /// What each history element records.
    #[must_use]
    pub fn element(&self) -> HistoryElement {
        self.element
    }

    /// The path length.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The probe layer's census of this level's register states: how many
    /// registers exist and how many share each path fingerprint. `None`
    /// when `depth == 0` (there is no history state to report).
    ///
    /// Fingerprints use [`std::collections::hash_map::DefaultHasher`] with
    /// its default (fixed) keys, so they are stable across processes.
    #[must_use]
    pub fn history_snapshot(&self) -> Option<crate::snapshot::HistorySnapshot> {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        if self.depth == 0 {
            return None;
        }
        let mut snap = crate::snapshot::HistorySnapshot::default();
        {
            let mut add = |reg: &HistoryRegister| {
                let mut h = DefaultHasher::new();
                reg.path().hash(&mut h);
                *snap.states.entry(h.finish()).or_insert(0) += 1;
                snap.registers += 1;
            };
            if self.sharing.is_global() {
                add(&self.global);
            } else {
                for reg in self.per_set.values() {
                    add(reg);
                }
            }
        }
        Some(snap)
    }

    /// The history register a branch at `pc` reads.
    ///
    /// Sets that have not been touched yet read as a cold (all-zero)
    /// register.
    #[must_use]
    pub fn register(&self, pc: Addr) -> &HistoryRegister {
        if self.sharing.is_global() {
            &self.global
        } else {
            self.per_set
                .get(&self.sharing.set_of(pc))
                .unwrap_or_else(|| self.global_cold())
        }
    }

    // A cold register reference for untouched sets. `global` starts cold and
    // is never written in per-set mode, so it doubles as the shared cold
    // register.
    fn global_cold(&self) -> &HistoryRegister {
        &self.global
    }

    /// Records an executed branch into the appropriate register.
    pub fn record(&mut self, pc: Addr, target: Addr) {
        let element = self.element.encode(pc, target);
        if self.sharing.is_global() {
            self.global.push(element);
        } else {
            let depth = self.depth;
            self.per_set
                .entry(self.sharing.set_of(pc))
                .or_insert_with(|| HistoryRegister::new(depth))
                .push(element);
        }
    }

    /// Whether every register reads as cold, so that any branch sees what
    /// it would see in a fresh first level.
    #[must_use]
    pub fn is_cold(&self) -> bool {
        let cold = |reg: &HistoryRegister| reg.path().iter().all(|&e| e == Addr::ZERO);
        cold(&self.global) && self.per_set.values().all(cold)
    }

    /// Number of distinct history registers materialised so far.
    #[must_use]
    pub fn register_count(&self) -> usize {
        if self.sharing.is_global() {
            1
        } else {
            self.per_set.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(raw: u32) -> Addr {
        Addr::new(raw)
    }

    #[test]
    fn register_is_fifo_newest_first() {
        let mut h = HistoryRegister::new(3);
        for t in [0x10u32, 0x20, 0x30, 0x40] {
            h.push(a(t));
        }
        assert_eq!(h.recent(0), a(0x40));
        assert_eq!(h.recent(1), a(0x30));
        assert_eq!(h.recent(2), a(0x20));
        assert_eq!(h.snapshot(), vec![a(0x40), a(0x30), a(0x20)]);
    }

    #[test]
    fn zero_depth_register_ignores_pushes() {
        let mut h = HistoryRegister::new(0);
        h.push(a(0x10));
        assert_eq!(h.depth(), 0);
        assert!(h.snapshot().is_empty());
    }

    #[test]
    fn cold_slots_read_zero() {
        let mut h = HistoryRegister::new(4);
        h.push(a(0x10));
        assert_eq!(h.recent(0), a(0x10));
        assert_eq!(h.recent(1), Addr::ZERO);
        assert_eq!(h.recent(3), Addr::ZERO);
    }

    #[test]
    #[should_panic(expected = "history index")]
    fn recent_out_of_depth_panics() {
        let h = HistoryRegister::new(2);
        let _ = h.recent(2);
    }

    #[test]
    fn global_sharing_uses_one_register() {
        let mut hs = Histories::new(HistorySharing::GLOBAL, HistoryElement::Target, 2);
        hs.record(a(0x100), a(0x900));
        hs.record(a(0x200), a(0xA00));
        // Both branches see the same history.
        assert_eq!(hs.register(a(0x100)).recent(0), a(0xA00));
        assert_eq!(hs.register(a(0x300)).recent(0), a(0xA00));
        assert_eq!(hs.register_count(), 1);
    }

    #[test]
    fn per_address_sharing_separates_branches() {
        let mut hs = Histories::new(HistorySharing::PER_ADDRESS, HistoryElement::Target, 2);
        hs.record(a(0x100), a(0x900));
        hs.record(a(0x200), a(0xA00));
        assert_eq!(hs.register(a(0x100)).recent(0), a(0x900));
        assert_eq!(hs.register(a(0x200)).recent(0), a(0xA00));
        // A branch never seen reads cold.
        assert_eq!(hs.register(a(0x300)).recent(0), Addr::ZERO);
        assert_eq!(hs.register_count(), 2);
    }

    #[test]
    fn per_set_groups_by_region() {
        // s = 9: 512-byte regions.
        let mut hs = Histories::new(HistorySharing::per_set(9), HistoryElement::Target, 1);
        hs.record(a(0x1000), a(0x900));
        // 0x1040 is in the same 512-byte region as 0x1000.
        assert_eq!(hs.register(a(0x1040)).recent(0), a(0x900));
        // 0x1200 is in the next region.
        assert_eq!(hs.register(a(0x1200)).recent(0), Addr::ZERO);
    }

    #[test]
    fn address_xor_target_element() {
        let e = HistoryElement::AddressXorTarget;
        let v = e.encode(a(0x100), a(0x900));
        assert_eq!(v.word(), (0x100u32 >> 2) ^ (0x900 >> 2));
        assert_eq!(HistoryElement::Target.encode(a(0x100), a(0x900)), a(0x900));
    }

    #[test]
    #[should_panic(expected = "history sharing")]
    fn sharing_below_two_rejected() {
        let _ = HistorySharing::per_set(1);
    }

    #[test]
    fn sharing_constants() {
        assert!(HistorySharing::GLOBAL.is_global());
        assert_eq!(HistorySharing::PER_ADDRESS.s(), 2);
        assert_eq!(HistorySharing::default(), HistorySharing::GLOBAL);
    }

    #[test]
    fn cold_means_every_register_reads_zero() {
        for sharing in [HistorySharing::GLOBAL, HistorySharing::PER_ADDRESS] {
            let mut hs = Histories::new(sharing, HistoryElement::Target, 2);
            assert!(hs.is_cold());
            hs.record(a(0x100), a(0x900));
            assert!(!hs.is_cold());
        }
        // Without a path there is nothing to warm.
        let mut flat = Histories::new(HistorySharing::GLOBAL, HistoryElement::Target, 0);
        flat.record(a(0x100), a(0x900));
        assert!(flat.is_cold());
    }
}
