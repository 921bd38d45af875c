//! Ordered processor sets.

use std::fmt;
use std::hash::{Hash, Hasher};

/// Members stored inline (no heap allocation) up to this many processors.
/// Covers the overwhelming majority of mapping-engine sets: moldable-task
/// allocations are small (mostly 1–2 processors on the paper's DAGs), and
/// candidate sets are allocation-sized.
const INLINE_CAP: usize = 12;

/// An *ordered* list of distinct processors.
///
/// The order is semantically meaningful: a task mapped on a `ProcSet`
/// distributes its 1-D block data over the processors **in rank order**
/// (rank `r` owns the `r`-th block). Two tasks mapped on the same *members*
/// in the same *order* need no data movement at all; the same members in a
/// different order still avoid network transfers only for the ranks that
/// coincide.
///
/// # Storage
///
/// Sets of up to `INLINE_CAP` (12) processors are stored inline — cloning
/// them (which the mapping policies do once per candidate evaluation) never
/// touches the heap. Larger sets spill to a `Vec`.
///
/// Construction precomputes two derived values used pervasively by the
/// incremental mapping engine:
///
/// * a **membership bitmask** in one of three tiers chosen by the largest
///   member id — a single word (`< 64`), a fixed four-word array (`< 256`),
///   or a boxed spill for larger platforms — which keeps
///   [`contains`](Self::contains), [`same_members`](Self::same_members) and
///   [`overlap_count`](Self::overlap_count) branch-cheap at every platform
///   size (the tier is canonical for a member set, so cross-tier sets can
///   never be equal);
/// * an **order-sensitive fingerprint** ([`fingerprint`](Self::fingerprint),
///   an FNV-1a hash of the rank sequence), cached so the set can be used as
///   a hash-map key in O(1) — the [`Hash`] impl writes the fingerprint
///   instead of rehashing the member list.
#[derive(Clone)]
pub struct ProcSet {
    members: Members,
    mask: MaskTier,
    /// Order-sensitive FNV-1a fingerprint of the rank sequence.
    hash: u64,
}

/// Inline-or-heap member storage (see [`ProcSet`] docs).
#[derive(Clone)]
enum Members {
    Inline { len: u8, buf: [u32; INLINE_CAP] },
    Heap(Vec<u32>),
}

impl Members {
    #[inline]
    fn from_slice(procs: &[u32]) -> Self {
        if procs.len() <= INLINE_CAP {
            let mut buf = [0u32; INLINE_CAP];
            buf[..procs.len()].copy_from_slice(procs);
            Members::Inline {
                len: procs.len() as u8,
                buf,
            }
        } else {
            Members::Heap(procs.to_vec())
        }
    }

    #[inline]
    fn as_slice(&self) -> &[u32] {
        match self {
            Members::Inline { len, buf } => &buf[..*len as usize],
            Members::Heap(v) => v,
        }
    }
}

/// Tiered membership bitmask. The tier is **canonical**: it depends only on
/// the largest member (`< 64` → `Word`, `< 256` → `Small`, else `Spill`
/// sized to the largest member), so two sets with equal members always land
/// in the same tier with equal words — bitmask equality *is* member
/// equality.
#[derive(Clone, PartialEq)]
enum MaskTier {
    /// Every member `< 64` (includes the empty set).
    Word(u64),
    /// Every member `< 256`.
    Small([u64; 4]),
    /// Arbitrary member ids; `⌈(max + 1) / 64⌉` words.
    Spill(Box<[u64]>),
}

impl MaskTier {
    fn build(procs: &[u32]) -> Self {
        let max = procs.iter().copied().max().unwrap_or(0);
        if max < 64 {
            let mut w = 0u64;
            for &p in procs {
                w |= 1u64 << p;
            }
            MaskTier::Word(w)
        } else if max < 256 {
            let mut a = [0u64; 4];
            for &p in procs {
                a[(p >> 6) as usize] |= 1u64 << (p & 63);
            }
            MaskTier::Small(a)
        } else {
            let mut v = vec![0u64; (max as usize >> 6) + 1];
            for &p in procs {
                v[(p >> 6) as usize] |= 1u64 << (p & 63);
            }
            MaskTier::Spill(v.into_boxed_slice())
        }
    }

    #[inline]
    fn contains(&self, p: u32) -> bool {
        match self {
            MaskTier::Word(w) => p < 64 && w >> p & 1 != 0,
            MaskTier::Small(a) => p < 256 && a[(p >> 6) as usize] >> (p & 63) & 1 != 0,
            MaskTier::Spill(b) => {
                let i = (p >> 6) as usize;
                i < b.len() && b[i] >> (p & 63) & 1 != 0
            }
        }
    }

    #[inline]
    fn words(&self) -> &[u64] {
        match self {
            MaskTier::Word(w) => std::slice::from_ref(w),
            MaskTier::Small(a) => a,
            MaskTier::Spill(b) => b,
        }
    }

    #[inline]
    fn count_ones(&self) -> u32 {
        self.words().iter().map(|w| w.count_ones()).sum()
    }
}

/// FNV-1a over the rank sequence: cheap, deterministic across runs, and
/// order-sensitive (two orderings of the same members hash differently,
/// which matters because rank order changes redistribution costs).
fn fnv1a(procs: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &p in procs {
        h ^= u64::from(p);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl ProcSet {
    /// Builds the derived fields. Callers guarantee distinct members.
    fn build(members: Members) -> Self {
        let procs = members.as_slice();
        let mask = MaskTier::build(procs);
        let hash = fnv1a(procs);
        Self {
            members,
            mask,
            hash,
        }
    }

    /// Creates a set from an ordered processor list.
    ///
    /// Members must be distinct; this is checked with a debug assertion only
    /// (the constructor sits on the mapping engine's hot path, and all
    /// in-tree callers construct from known-distinct lists).
    pub fn new(procs: Vec<u32>) -> Self {
        let members = if procs.len() <= INLINE_CAP {
            Members::from_slice(&procs)
        } else {
            Members::Heap(procs)
        };
        let set = Self::build(members);
        debug_assert!(
            set.members_are_distinct(),
            "processor set contains duplicates: {:?}",
            set.as_slice()
        );
        set
    }

    /// Creates a set from an ordered processor slice without consuming a
    /// `Vec` — for sets up to `INLINE_CAP` (12) members this performs **no
    /// heap allocation**, which is what keeps the mapping engine's candidate
    /// construction allocation-free in steady state.
    pub fn from_slice(procs: &[u32]) -> Self {
        let set = Self::build(Members::from_slice(procs));
        debug_assert!(
            set.members_are_distinct(),
            "processor set contains duplicates: {:?}",
            set.as_slice()
        );
        set
    }

    fn members_are_distinct(&self) -> bool {
        // Every tier has exactly one bit per distinct member.
        self.mask.count_ones() as usize == self.as_slice().len()
    }

    /// An empty set.
    pub fn empty() -> Self {
        Self::from_slice(&[])
    }

    /// The contiguous range `start..start + len`.
    pub fn from_range(start: u32, len: u32) -> Self {
        Self::new((start..start + len).collect())
    }

    /// Number of processors in the set.
    #[inline]
    pub fn len(&self) -> u32 {
        self.as_slice().len() as u32
    }

    /// `true` if the set has no processors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// The processors in rank order.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        self.members.as_slice()
    }

    /// The cached order-sensitive fingerprint (FNV-1a over the rank
    /// sequence). Equal sets have equal fingerprints; the converse holds up
    /// to hash collisions, so use it as a hash key, not an equality proof.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.hash
    }

    /// The compact membership bitmask (bit `p` set for member `p`), when
    /// every member is `< 64`; `None` otherwise (the set then lives in a
    /// wider mask tier that [`contains`](Self::contains) and friends use
    /// internally).
    #[inline]
    pub fn mask(&self) -> Option<u64> {
        match self.mask {
            MaskTier::Word(w) => Some(w),
            _ => None,
        }
    }

    /// Iterates over processors in rank order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.as_slice().iter().copied()
    }

    /// The processor holding block `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    #[inline]
    pub fn proc_at(&self, rank: usize) -> u32 {
        self.as_slice()[rank]
    }

    /// The rank of processor `p` in this set, if present.
    pub fn rank_of(&self, p: u32) -> Option<usize> {
        self.as_slice().iter().position(|&q| q == p)
    }

    /// `true` if processor `p` belongs to the set — O(1) in every mask tier.
    #[inline]
    pub fn contains(&self, p: u32) -> bool {
        self.mask.contains(p)
    }

    /// `true` if both sets have the same members, regardless of order.
    /// This is the paper's "same set of processors" condition under which a
    /// redistribution is free — combined with rank alignment (see
    /// `rats-redist`), identical ordered sets move zero bytes.
    ///
    /// O(1) for the word tier and O(words) otherwise: the mask tier is
    /// canonical per member set, so tier + words equality *is* member
    /// equality (cross-tier sets always differ).
    pub fn same_members(&self, other: &Self) -> bool {
        self.as_slice().len() == other.as_slice().len() && self.mask == other.mask
    }

    /// Number of processors present in both sets — an AND + popcount over
    /// the overlapping mask words in every tier combination.
    pub fn overlap_count(&self, other: &Self) -> u32 {
        if let (MaskTier::Word(a), MaskTier::Word(b)) = (&self.mask, &other.mask) {
            return (a & b).count_ones();
        }
        self.mask
            .words()
            .iter()
            .zip(other.mask.words())
            .map(|(a, b)| (a & b).count_ones())
            .sum()
    }

    /// The members present in both sets, in `self`'s rank order.
    pub fn common_procs(&self, other: &Self) -> Vec<u32> {
        self.iter().filter(|p| other.contains(*p)).collect()
    }

    /// The first `k` processors of the set (in rank order).
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds the set size.
    pub fn first_k(&self, k: u32) -> Self {
        assert!(k <= self.len(), "cannot take {k} of {}", self.len());
        Self::from_slice(&self.as_slice()[..k as usize])
    }

    /// A copy with members sorted ascending (canonical order).
    pub fn sorted(&self) -> Self {
        let mut members = self.members.clone();
        match &mut members {
            Members::Inline { len, buf } => buf[..*len as usize].sort_unstable(),
            Members::Heap(v) => v.sort_unstable(),
        }
        Self::build(members)
    }
}

impl PartialEq for ProcSet {
    fn eq(&self, other: &Self) -> bool {
        // The fingerprint is a cheap negative filter; the member list is
        // the ground truth (fingerprints can collide).
        self.hash == other.hash && self.as_slice() == other.as_slice()
    }
}

impl Eq for ProcSet {}

impl Hash for ProcSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl fmt::Debug for ProcSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcSet")
            .field("procs", &self.as_slice())
            .finish()
    }
}

impl fmt::Display for ProcSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<u32> for ProcSet {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_ranks() {
        let s = ProcSet::new(vec![5, 2, 9]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.proc_at(0), 5);
        assert_eq!(s.rank_of(9), Some(2));
        assert_eq!(s.rank_of(7), None);
        assert!(s.contains(2));
        assert!(!s.contains(4));
    }

    #[test]
    fn same_members_ignores_order() {
        let a = ProcSet::new(vec![1, 2, 3]);
        let b = ProcSet::new(vec![3, 1, 2]);
        let c = ProcSet::new(vec![1, 2, 4]);
        assert!(a.same_members(&b));
        assert!(!a.same_members(&c));
        assert_ne!(a, b, "ordered equality distinguishes rank order");
        assert_eq!(a, b.sorted());
    }

    #[test]
    fn overlap_and_common() {
        let a = ProcSet::new(vec![1, 2, 3, 4]);
        let b = ProcSet::new(vec![3, 4, 5]);
        assert_eq!(a.overlap_count(&b), 2);
        assert_eq!(a.common_procs(&b), vec![3, 4]);
        assert_eq!(b.common_procs(&a), vec![3, 4]);
    }

    #[test]
    fn range_and_first_k() {
        let s = ProcSet::from_range(10, 5);
        assert_eq!(s.as_slice(), &[10, 11, 12, 13, 14]);
        assert_eq!(s.first_k(2).as_slice(), &[10, 11]);
    }

    #[test]
    fn display_format() {
        assert_eq!(ProcSet::new(vec![3, 1]).to_string(), "{3,1}");
        assert_eq!(ProcSet::empty().to_string(), "{}");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicates")]
    fn rejects_duplicates() {
        ProcSet::new(vec![1, 2, 1]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicates")]
    fn rejects_duplicates_above_mask_range() {
        ProcSet::new(vec![100, 2, 100]);
    }

    #[test]
    #[should_panic(expected = "cannot take")]
    fn first_k_bounds() {
        ProcSet::from_range(0, 2).first_k(3);
    }

    #[test]
    fn fingerprint_is_order_sensitive_and_cached() {
        let a = ProcSet::new(vec![1, 2, 3]);
        let b = ProcSet::new(vec![3, 2, 1]);
        let a2 = ProcSet::new(vec![1, 2, 3]);
        assert_eq!(a.fingerprint(), a2.fingerprint());
        assert_ne!(
            a.fingerprint(),
            b.fingerprint(),
            "rank order must show in the fingerprint"
        );
    }

    #[test]
    fn mask_tracks_membership_for_small_ids() {
        let a = ProcSet::new(vec![0, 2, 63]);
        assert_eq!(a.mask(), Some(1 | (1 << 2) | (1 << 63)));
        assert!(a.contains(63));
        assert!(!a.contains(62));
        // Members ≥ 64 disable the single-word mask but not the queries.
        let big = ProcSet::new(vec![2, 64]);
        assert_eq!(big.mask(), None);
        assert!(big.contains(64));
        assert!(big.contains(2));
        assert!(!big.contains(3));
        assert_eq!(big.overlap_count(&a), 1);
        assert!(!big.same_members(&a));
        // Empty sets have an empty (zero) mask.
        assert_eq!(ProcSet::empty().mask(), Some(0));
    }

    /// Tier-boundary members (63/64 and 255/256) land in the right tier and
    /// keep every query exact across mixed-tier comparisons.
    #[test]
    fn mask_tiers_cover_boundary_ids() {
        for boundary in [63u32, 64, 65, 255, 256, 257, 1000] {
            let s = ProcSet::new(vec![0, boundary]);
            assert!(s.contains(0));
            assert!(s.contains(boundary));
            assert!(!s.contains(boundary - 1));
            assert_eq!(s.mask().is_some(), boundary < 64, "tier at {boundary}");
            // Same members in another order: equal in every tier.
            let r = ProcSet::new(vec![boundary, 0]);
            assert!(s.same_members(&r));
            assert_eq!(s.overlap_count(&r), 2);
            // A proper subset never compares equal.
            let sub = ProcSet::new(vec![boundary]);
            assert!(!s.same_members(&sub));
            assert_eq!(s.overlap_count(&sub), 1);
        }
        // Cross-tier overlap: word-tier vs spill-tier sets.
        let small = ProcSet::new(vec![1, 2, 3]);
        let huge = ProcSet::new(vec![2, 500]);
        assert_eq!(small.overlap_count(&huge), 1);
        assert_eq!(huge.overlap_count(&small), 1);
        assert!(!small.same_members(&huge));
    }

    /// Sets beyond the inline capacity behave identically to inline ones.
    #[test]
    fn heap_spill_behaves_like_inline() {
        let long: Vec<u32> = (0..40).collect();
        let s = ProcSet::new(long.clone());
        assert_eq!(s.as_slice(), &long[..]);
        assert_eq!(s.len(), 40);
        assert_eq!(s.first_k(3).as_slice(), &[0, 1, 2]);
        let t = ProcSet::from_slice(&long);
        assert_eq!(s, t);
        assert_eq!(s.fingerprint(), t.fingerprint());
        assert!(s.same_members(&t));
        let c = s.clone();
        assert_eq!(c, s);
    }

    #[test]
    fn from_slice_matches_new() {
        for procs in [vec![], vec![7], vec![5, 2, 9], (0..20).collect::<Vec<_>>()] {
            let a = ProcSet::new(procs.clone());
            let b = ProcSet::from_slice(&procs);
            assert_eq!(a, b);
            assert_eq!(a.fingerprint(), b.fingerprint());
        }
    }

    #[test]
    fn hashmap_key_usage() {
        use std::collections::HashMap;
        let mut m: HashMap<ProcSet, u32> = HashMap::new();
        m.insert(ProcSet::new(vec![1, 2, 3]), 1);
        m.insert(ProcSet::new(vec![3, 2, 1]), 2);
        assert_eq!(m.get(&ProcSet::new(vec![1, 2, 3])), Some(&1));
        assert_eq!(m.get(&ProcSet::new(vec![3, 2, 1])), Some(&2));
        assert_eq!(m.get(&ProcSet::new(vec![1, 2])), None);
    }
}
