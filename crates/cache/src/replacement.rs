//! Replacement policies for set-associative arrays.

use std::fmt;

/// Which resident line of a full set is chosen as the victim.
///
/// The policy operates on per-way metadata maintained by
/// [`crate::SetAssocCache`]: the insertion sequence number and the
/// last-touch sequence number of each way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplacementPolicy {
    /// Evict the least-recently-used way (default; what the paper's caches
    /// and AMD's probe filter use).
    #[default]
    Lru,
    /// Evict the way that was filled earliest, ignoring later touches.
    Fifo,
    /// Evict a pseudo-random way chosen by hashing the access sequence
    /// number (deterministic for a given access history).
    Random,
}

impl ReplacementPolicy {
    /// Selects the victim way of a full set.
    ///
    /// `ways` yields `(last_touch, inserted)` for each way in storage
    /// order: the sequence number of the way's most recent hit and the one
    /// at which it was filled. `tick` is the current access sequence
    /// number. Ties go to the lowest way index. Taking an iterator lets a
    /// cache choose in place over its own way records, with no scratch
    /// buffer.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is empty.
    pub fn pick_victim<I>(self, ways: I, tick: u64) -> usize
    where
        I: IntoIterator<Item = (u64, u64)>,
        I::IntoIter: ExactSizeIterator,
    {
        let ways = ways.into_iter();
        let len = ways.len();
        assert!(len > 0, "cannot pick a victim from an empty set");
        match self {
            ReplacementPolicy::Lru => ways
                .enumerate()
                .min_by_key(|&(i, (touch, _))| (touch, i))
                .map(|(i, _)| i)
                .expect("non-empty"),
            ReplacementPolicy::Fifo => ways
                .enumerate()
                .min_by_key(|&(i, (_, ins))| (ins, i))
                .map(|(i, _)| i)
                .expect("non-empty"),
            ReplacementPolicy::Random => {
                // SplitMix64 hash of the tick: deterministic but uncorrelated
                // with the access pattern.
                let mut z = tick.wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as usize % len
            }
        }
    }

    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ReplacementPolicy::Lru => "lru",
            ReplacementPolicy::Fifo => "fifo",
            ReplacementPolicy::Random => "random",
        }
    }
}

impl fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_picks_least_recently_touched() {
        let last_touch = [10, 3, 7, 9];
        let inserted = [0, 1, 2, 3];
        assert_eq!(
            ReplacementPolicy::Lru.pick_victim(last_touch.into_iter().zip(inserted), 11),
            1
        );
    }

    #[test]
    fn lru_breaks_ties_by_way_index() {
        let last_touch = [5, 5, 5];
        let inserted = [0, 1, 2];
        assert_eq!(
            ReplacementPolicy::Lru.pick_victim(last_touch.into_iter().zip(inserted), 6),
            0
        );
    }

    #[test]
    fn fifo_ignores_touches() {
        let last_touch = [100, 1, 50];
        let inserted = [2, 5, 0];
        assert_eq!(
            ReplacementPolicy::Fifo.pick_victim(last_touch.into_iter().zip(inserted), 101),
            2
        );
    }

    #[test]
    fn random_is_deterministic_and_in_range() {
        let last_touch = [0, 0, 0, 0];
        let inserted = [0, 0, 0, 0];
        let a = ReplacementPolicy::Random.pick_victim(last_touch.into_iter().zip(inserted), 42);
        let b = ReplacementPolicy::Random.pick_victim(last_touch.into_iter().zip(inserted), 42);
        assert_eq!(a, b);
        assert!(a < 4);
        // Different ticks eventually pick different ways.
        let picks: std::collections::HashSet<usize> = (0..64)
            .map(|t| ReplacementPolicy::Random.pick_victim(last_touch.into_iter().zip(inserted), t))
            .collect();
        assert!(picks.len() > 1);
    }

    #[test]
    #[should_panic(expected = "empty set")]
    fn empty_set_panics() {
        ReplacementPolicy::Lru.pick_victim(std::iter::empty(), 0);
    }

    #[test]
    fn names_and_default() {
        assert_eq!(ReplacementPolicy::default(), ReplacementPolicy::Lru);
        assert_eq!(ReplacementPolicy::Lru.to_string(), "lru");
        assert_eq!(ReplacementPolicy::Fifo.name(), "fifo");
        assert_eq!(ReplacementPolicy::Random.name(), "random");
    }
}
