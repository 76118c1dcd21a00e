//! Compact, width-generic sharer sets for directory entries.
//!
//! A directory entry must know which caches may hold a line. Machines up to
//! 64 cores fit an inline bit mask with no allocation; larger machines
//! promote transparently to a multi-word vector, so the representation
//! imposes no ceiling on the core count. On top of the exact per-core set,
//! [`SharerSet::node_set`] projects the hierarchical (level-1) view — which
//! *NUMA nodes* have a copy — that multi-core-node directories and probe
//! filters track first.

use allarm_types::ids::{CoreId, NodeId};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Bits per word of the inline / wide representations.
const WORD_BITS: usize = 64;

/// A width-generic bit set: one inline word up to 64 members, a word vector
/// beyond. A set that has gone wide stays wide — removals and
/// [`Bits::reset_to`] keep its words, so a directory entry that is reused
/// for another line does not allocate again — which is why equality and
/// hashing compare the members (the words up to the last non-zero one),
/// not the representation.
#[derive(Debug, Clone)]
enum Bits {
    Inline(u64),
    Wide(Vec<u64>),
}

impl PartialEq for Bits {
    fn eq(&self, other: &Self) -> bool {
        self.significant_words() == other.significant_words()
    }
}

impl Eq for Bits {}

impl Hash for Bits {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.significant_words().hash(state);
    }
}

impl Bits {
    const fn empty() -> Self {
        Bits::Inline(0)
    }

    fn set(&mut self, index: usize) {
        match self {
            Bits::Inline(word) if index < WORD_BITS => *word |= 1 << index,
            Bits::Inline(word) => {
                let mut words = vec![0u64; index / WORD_BITS + 1];
                words[0] = *word;
                words[index / WORD_BITS] |= 1 << (index % WORD_BITS);
                *self = Bits::Wide(words);
            }
            Bits::Wide(words) => {
                if index / WORD_BITS >= words.len() {
                    words.resize(index / WORD_BITS + 1, 0);
                }
                words[index / WORD_BITS] |= 1 << (index % WORD_BITS);
            }
        }
    }

    fn clear(&mut self, index: usize) {
        match self {
            Bits::Inline(word) => {
                if index < WORD_BITS {
                    *word &= !(1 << index);
                }
            }
            Bits::Wide(words) => {
                if let Some(word) = words.get_mut(index / WORD_BITS) {
                    *word &= !(1 << (index % WORD_BITS));
                }
            }
        }
    }

    /// Makes the set `{index}`, reusing a wide set's words.
    fn reset_to(&mut self, index: usize) {
        match self {
            Bits::Inline(word) if index < WORD_BITS => *word = 1 << index,
            Bits::Inline(_) => {
                *self = Bits::empty();
                self.set(index);
            }
            Bits::Wide(words) => {
                words.fill(0);
                self.set(index);
            }
        }
    }

    fn get(&self, index: usize) -> bool {
        match self {
            Bits::Inline(word) => index < WORD_BITS && (word >> index) & 1 == 1,
            Bits::Wide(words) => words
                .get(index / WORD_BITS)
                .is_some_and(|w| (w >> (index % WORD_BITS)) & 1 == 1),
        }
    }

    fn count(&self) -> u32 {
        match self {
            Bits::Inline(word) => word.count_ones(),
            Bits::Wide(words) => words.iter().map(|w| w.count_ones()).sum(),
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            Bits::Inline(word) => *word == 0,
            Bits::Wide(words) => words.iter().all(|w| *w == 0),
        }
    }

    fn words(&self) -> &[u64] {
        match self {
            Bits::Inline(word) => std::slice::from_ref(word),
            Bits::Wide(words) => words,
        }
    }

    /// The words up to the last non-zero one: the members, independent of
    /// the representation.
    fn significant_words(&self) -> &[u64] {
        let words = self.words();
        let len = words
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |last| last + 1);
        &words[..len]
    }

    fn iter_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.words().iter().enumerate().flat_map(|(wi, &word)| {
            (0..WORD_BITS)
                .filter(move |bit| (word >> bit) & 1 == 1)
                .map(move |bit| wi * WORD_BITS + bit)
        })
    }

    fn low_word(&self) -> u64 {
        match self {
            Bits::Inline(word) => *word,
            Bits::Wide(words) => words.first().copied().unwrap_or(0),
        }
    }
}

/// The exact set of cores that may hold a copy of a line.
///
/// Stored inline (one 64-bit mask) for machines up to 64 cores — the common
/// case, and allocation-free — and as a word vector beyond, so directory
/// entries scale with the machine instead of capping it.
///
/// # Examples
///
/// ```
/// use allarm_coherence::SharerSet;
/// use allarm_types::ids::CoreId;
///
/// let mut sharers = SharerSet::empty();
/// sharers.insert(CoreId::new(3));
/// sharers.insert(CoreId::new(200)); // > 64 cores: promotes transparently
/// assert_eq!(sharers.count(), 2);
/// assert!(sharers.contains(CoreId::new(200)));
/// sharers.remove(CoreId::new(200));
/// assert_eq!(sharers.iter().collect::<Vec<_>>(), vec![CoreId::new(3)]);
///
/// // The hierarchical level-1 view: which nodes have a copy, at 4 cores
/// // per node.
/// sharers.insert(CoreId::new(5));
/// let nodes = sharers.node_set(4);
/// assert_eq!(nodes.count(), 2); // cores 3 and 5 live on nodes 0 and 1
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SharerSet(Bits);

impl SharerSet {
    /// Number of cores representable without leaving the inline (single
    /// machine word, allocation-free) representation.
    pub const MAX_INLINE_CORES: usize = WORD_BITS;

    /// The empty set.
    pub const fn empty() -> Self {
        SharerSet(Bits::empty())
    }

    /// A set containing a single core.
    pub fn only(core: CoreId) -> Self {
        let mut s = SharerSet::empty();
        s.insert(core);
        s
    }

    /// Makes this the set containing only `core` — [`SharerSet::only`] in
    /// place. A wide set keeps its heap words, so resetting a reused
    /// directory entry does not allocate.
    pub fn set_only(&mut self, core: CoreId) {
        self.0.reset_to(core.index());
    }

    /// Adds a core to the set, growing the representation if the core index
    /// is beyond the inline width.
    pub fn insert(&mut self, core: CoreId) {
        self.0.set(core.index());
    }

    /// Removes a core from the set (no-op if absent).
    pub fn remove(&mut self, core: CoreId) {
        self.0.clear(core.index());
    }

    /// True if the core is in the set.
    pub fn contains(&self, core: CoreId) -> bool {
        self.0.get(core.index())
    }

    /// Number of cores in the set.
    pub fn count(&self) -> u32 {
        self.0.count()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates over the cores in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = CoreId> + '_ {
        self.0.iter_indices().map(|i| CoreId::new(i as u16))
    }

    /// The low 64 bits of the mask (the whole mask for machines up to 64
    /// cores).
    pub fn bits(&self) -> u64 {
        self.0.low_word()
    }

    /// Projects the level-1 (node-granularity) view of this set: the NUMA
    /// nodes on which at least one member core lives, under a blocked
    /// core-to-node assignment of `cores_per_node` cores each. With
    /// `cores_per_node == 1` the node set mirrors the core set.
    ///
    /// # Panics
    ///
    /// Panics if `cores_per_node` is zero.
    pub fn node_set(&self, cores_per_node: u32) -> NodeSet {
        assert!(cores_per_node > 0, "a node hosts at least one core");
        let mut nodes = Bits::empty();
        for index in self.0.iter_indices() {
            nodes.set(index / cores_per_node as usize);
        }
        NodeSet(nodes)
    }
}

impl fmt::Display for SharerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for core in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{}", core.index())?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl Default for SharerSet {
    fn default() -> Self {
        SharerSet::empty()
    }
}

impl FromIterator<CoreId> for SharerSet {
    fn from_iter<I: IntoIterator<Item = CoreId>>(iter: I) -> Self {
        let mut set = SharerSet::empty();
        for core in iter {
            set.insert(core);
        }
        set
    }
}

/// The level-1 view of a [`SharerSet`]: the NUMA nodes holding at least one
/// copy. This is what a hierarchical (two-level) directory tracks first —
/// one probe or back-invalidation message per *node*, expanded to the
/// node's member cores on arrival.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NodeSet(Bits);

impl NodeSet {
    /// The empty set.
    pub const fn empty() -> Self {
        NodeSet(Bits::empty())
    }

    /// True if the node is in the set.
    pub fn contains(&self, node: NodeId) -> bool {
        self.0.get(node.index())
    }

    /// Number of nodes in the set.
    pub fn count(&self) -> u32 {
        self.0.count()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates over the nodes in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.0.iter_indices().map(|i| NodeId::new(i as u16))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = SharerSet::empty();
        assert!(s.is_empty());
        s.insert(CoreId::new(0));
        s.insert(CoreId::new(15));
        assert!(s.contains(CoreId::new(0)));
        assert!(s.contains(CoreId::new(15)));
        assert!(!s.contains(CoreId::new(7)));
        assert_eq!(s.count(), 2);
        s.remove(CoreId::new(0));
        assert!(!s.contains(CoreId::new(0)));
        assert_eq!(s.count(), 1);
        // Removing an absent core is a no-op.
        s.remove(CoreId::new(0));
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn only_creates_singleton() {
        let s = SharerSet::only(CoreId::new(9));
        assert_eq!(s.count(), 1);
        assert!(s.contains(CoreId::new(9)));
    }

    #[test]
    fn iter_ascending_order() {
        let s: SharerSet = [CoreId::new(5), CoreId::new(1), CoreId::new(63)]
            .into_iter()
            .collect();
        let cores: Vec<u16> = s.iter().map(|c| c.raw()).collect();
        assert_eq!(cores, vec![1, 5, 63]);
    }

    #[test]
    fn wide_sets_hold_cores_beyond_the_inline_width() {
        let mut s = SharerSet::empty();
        s.insert(CoreId::new(3));
        s.insert(CoreId::new(64));
        s.insert(CoreId::new(255));
        assert_eq!(s.count(), 3);
        assert!(s.contains(CoreId::new(64)));
        assert!(s.contains(CoreId::new(255)));
        assert!(!s.contains(CoreId::new(254)));
        let cores: Vec<u16> = s.iter().map(|c| c.raw()).collect();
        assert_eq!(cores, vec![3, 64, 255]);
        assert_eq!(s.to_string(), "{3,64,255}");
    }

    #[test]
    fn removal_collapses_back_to_canonical_form() {
        // A set that grew wide and shrank back must equal (and hash like)
        // one that never left the inline representation.
        let mut grew = SharerSet::empty();
        grew.insert(CoreId::new(7));
        grew.insert(CoreId::new(200));
        grew.remove(CoreId::new(200));
        let inline = SharerSet::only(CoreId::new(7));
        assert_eq!(grew, inline);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |s: &SharerSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&grew), hash(&inline));
    }

    #[test]
    fn set_only_reuses_wide_words_and_matches_only() {
        let mut s = SharerSet::only(CoreId::new(200));
        s.insert(CoreId::new(9));
        s.set_only(CoreId::new(130));
        assert_eq!(s, SharerSet::only(CoreId::new(130)));
        s.set_only(CoreId::new(4));
        assert_eq!(s, SharerSet::only(CoreId::new(4)));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![CoreId::new(4)]);
        assert_eq!(s.count(), 1);
        let mut inline = SharerSet::only(CoreId::new(1));
        inline.set_only(CoreId::new(70));
        assert_eq!(inline, SharerSet::only(CoreId::new(70)));
        inline.set_only(CoreId::new(2));
        assert_eq!(inline, SharerSet::only(CoreId::new(2)));
    }

    /// Directory entries embed a `SharerSet`: the wide representation must
    /// not grow it past one `Vec`.
    #[test]
    fn sharer_set_is_one_vec_wide() {
        assert_eq!(
            std::mem::size_of::<SharerSet>(),
            std::mem::size_of::<Vec<u64>>()
        );
    }

    #[test]
    fn display_lists_members() {
        let s: SharerSet = [CoreId::new(2), CoreId::new(4)].into_iter().collect();
        assert_eq!(s.to_string(), "{2,4}");
        assert_eq!(SharerSet::empty().to_string(), "{}");
    }

    #[test]
    fn bits_roundtrip() {
        let s = SharerSet::only(CoreId::new(3));
        assert_eq!(s.bits(), 0b1000);
        // Wide sets still expose their low word.
        let mut s = s;
        s.insert(CoreId::new(100));
        assert_eq!(s.bits(), 0b1000);
    }

    #[test]
    fn node_set_projects_cores_onto_nodes() {
        let s: SharerSet = [CoreId::new(0), CoreId::new(3), CoreId::new(9)]
            .into_iter()
            .collect();
        let nodes = s.node_set(4);
        assert_eq!(nodes.count(), 2);
        assert!(nodes.contains(NodeId::new(0))); // cores 0 and 3
        assert!(nodes.contains(NodeId::new(2))); // core 9
        assert!(!nodes.contains(NodeId::new(1)));
        let listed: Vec<u16> = nodes.iter().map(|n| n.raw()).collect();
        assert_eq!(listed, vec![0, 2]);
    }

    #[test]
    fn flat_node_set_mirrors_the_core_set() {
        let s: SharerSet = [CoreId::new(1), CoreId::new(90)].into_iter().collect();
        let nodes = s.node_set(1);
        assert_eq!(nodes.count(), s.count());
        assert!(nodes.contains(NodeId::new(1)));
        assert!(nodes.contains(NodeId::new(90)));
        assert!(NodeSet::empty().is_empty());
    }
}
