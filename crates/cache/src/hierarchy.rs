//! The per-core private cache hierarchy: L1D backed by an exclusive L2.
//!
//! The paper's cores have split 32 kB L1 caches and a private 256 kB
//! *exclusive* L2 (a victim cache for the L1). Instruction fetches are not
//! modelled — the evaluation figures are driven entirely by data traffic —
//! so the hierarchy here is L1D + L2. Exclusivity matters because it fixes
//! the total caching capacity per core (L1 + L2) that the probe filter must
//! cover with its 2x-of-L2 budget.

use crate::set_assoc::{EvictedLine, SetAssocCache};
use crate::state::CoherenceState;
use crate::stats::CacheStats;
use allarm_types::addr::LineAddr;
use allarm_types::config::CacheConfig;

/// Where a data access was satisfied, before any coherence action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Hit in the L1 data cache.
    L1Hit,
    /// Missed L1 but hit the private L2; the line is promoted back to L1
    /// (exclusive hierarchy).
    L2Hit,
    /// Missed the whole private hierarchy; the directory must be consulted.
    Miss,
}

impl AccessOutcome {
    /// True if the access never left the core's private hierarchy.
    pub fn is_hit(self) -> bool {
        !matches!(self, AccessOutcome::Miss)
    }
}

/// The coherence action a write requires when the line is present but not
/// writable, or absent entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoherenceNeed {
    /// Line absent: issue a read request (GetS) to the home directory.
    ReadMiss,
    /// Line absent and the access is a store: issue a read-for-ownership
    /// (GetX) to the home directory.
    WriteMiss,
    /// Line present in a read-only state and the access is a store: issue an
    /// upgrade (GetX without data) to the home directory.
    Upgrade,
}

/// Result of a directory probe of this core's hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// The line is not cached by this core.
    Miss,
    /// The line is cached in the given state (after any requested downgrade
    /// or invalidation has been applied).
    Hit {
        /// The state the line was found in, before the probe's side effect.
        state: CoherenceState,
        /// Whether the copy held dirty data that the probe flushed.
        dirty: bool,
    },
}

/// The directory transaction an access needs given the line's state in the
/// private hierarchy (`None`: not cached).
fn need_for(state: Option<CoherenceState>, write: bool) -> Option<CoherenceNeed> {
    match state {
        None => Some(if write {
            CoherenceNeed::WriteMiss
        } else {
            CoherenceNeed::ReadMiss
        }),
        Some(s) if write && !s.can_write() => Some(CoherenceNeed::Upgrade),
        Some(_) => None,
    }
}

/// A single core's private L1D + exclusive L2 hierarchy.
///
/// # Examples
///
/// ```
/// use allarm_cache::{CoreCaches, CoherenceState, AccessOutcome, CoherenceNeed};
/// use allarm_types::{config::MachineConfig, addr::LineAddr};
///
/// let cfg = MachineConfig::small_test();
/// let mut caches = CoreCaches::new(&cfg.l1d, &cfg.l2);
/// let line = LineAddr::new(100);
///
/// // A store to an uncached line needs a GetX.
/// assert_eq!(caches.coherence_need(line, true), Some(CoherenceNeed::WriteMiss));
/// caches.access(line, true);
/// caches.fill(line, CoherenceState::Modified);
/// assert_eq!(caches.access(line, true), AccessOutcome::L1Hit);
/// ```
#[derive(Debug, Clone)]
pub struct CoreCaches {
    l1d: SetAssocCache,
    l2: SetAssocCache,
    /// L2 lines displaced entirely out of the hierarchy since the last call
    /// to [`CoreCaches::take_capacity_victims`].
    pending_victims: Vec<EvictedLine>,
}

impl CoreCaches {
    /// Creates the hierarchy from L1D and L2 configurations.
    pub fn new(l1d: &CacheConfig, l2: &CacheConfig) -> Self {
        CoreCaches {
            l1d: SetAssocCache::new(l1d),
            l2: SetAssocCache::new(l2),
            pending_victims: Vec::new(),
        }
    }

    /// Performs a load (`write == false`) or store (`write == true`) lookup.
    ///
    /// This only models presence: permission checking is done separately via
    /// [`CoreCaches::coherence_need`] so the simulator can decide whether a
    /// directory transaction is required before committing the access.
    /// [`CoreCaches::access_with_need`] does both in one walk.
    pub fn access(&mut self, line: LineAddr, write: bool) -> AccessOutcome {
        self.access_with_need(line, write).0
    }

    /// [`CoreCaches::access`] and [`CoreCaches::coherence_need`] in one walk
    /// of the hierarchy: the lookup that finds the line also yields the
    /// state its coherence need is judged from, as it was *before* the
    /// access (an L2 hit is promoted to L1 unchanged). Returns exactly what
    /// `coherence_need` followed by `access` would.
    pub fn access_with_need(
        &mut self,
        line: LineAddr,
        write: bool,
    ) -> (AccessOutcome, Option<CoherenceNeed>) {
        let (outcome, state) = match self.l1d.lookup(line) {
            Some(state) => (AccessOutcome::L1Hit, Some(state)),
            None => match self.l2.lookup(line) {
                Some(state) => {
                    // Exclusive hierarchy: promote to L1, removing from L2.
                    self.l2.remove_silently(line);
                    self.install_l1(line, state);
                    (AccessOutcome::L2Hit, Some(state))
                }
                None => (AccessOutcome::Miss, None),
            },
        };
        (outcome, need_for(state, write))
    }

    /// Hints the host CPU to load `line`'s L1 and L2 sets, so a fill or
    /// access that follows soon finds them in the host's caches. Changes
    /// nothing the simulation can observe.
    pub fn prefetch(&self, line: LineAddr) {
        self.l1d.prefetch(line);
        self.l2.prefetch(line);
    }

    /// Returns the coherence transaction (if any) the directory must perform
    /// for this access, given the line's current state in this hierarchy.
    pub fn coherence_need(&self, line: LineAddr, write: bool) -> Option<CoherenceNeed> {
        need_for(self.state_of(line), write)
    }

    /// Installs a line delivered by the directory in the given state.
    ///
    /// Victims pushed entirely out of the hierarchy are recorded and can be
    /// collected with [`CoreCaches::take_capacity_victims`] so the simulator
    /// can notify the directory (the paper's baseline notifies the directory
    /// of evictions of exclusively-owned blocks).
    pub fn fill(&mut self, line: LineAddr, state: CoherenceState) {
        self.install_l1(line, state);
    }

    /// Grants write permission for a line already present (upgrade
    /// completion). Returns false if the line is no longer cached — the
    /// copy was invalidated between the upgrade request and its grant (a
    /// concurrent writer won ownership first), so the grantee must refetch
    /// the data instead.
    pub fn grant_write(&mut self, line: LineAddr) -> bool {
        self.l1d.set_state(line, CoherenceState::Modified)
            || self.l2.set_state(line, CoherenceState::Modified)
    }

    /// Directory probe: reports whether the line is cached here and in what
    /// state. If `downgrade` is true the copy is demoted to a shared state
    /// (remote GetS); if `invalidate` is true it is removed (remote GetX).
    pub fn probe(&mut self, line: LineAddr, downgrade: bool, invalidate: bool) -> ProbeOutcome {
        let state = self.state_of(line);
        match state {
            None => ProbeOutcome::Miss,
            Some(s) => {
                if invalidate {
                    self.l1d.invalidate(line);
                    self.l2.invalidate(line);
                } else if downgrade {
                    let next = s.after_remote_read();
                    if !self.l1d.set_state(line, next) {
                        self.l2.set_state(line, next);
                    }
                }
                ProbeOutcome::Hit {
                    state: s,
                    dirty: s.is_dirty(),
                }
            }
        }
    }

    /// Directory-initiated invalidation (probe-filter eviction back-
    /// invalidate). Returns the state the line was in, if present.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<CoherenceState> {
        let in_l1 = self.l1d.invalidate(line);
        let in_l2 = self.l2.invalidate(line);
        in_l1.or(in_l2)
    }

    /// The line's state anywhere in the private hierarchy, without touching
    /// recency or statistics.
    pub fn state_of(&self, line: LineAddr) -> Option<CoherenceState> {
        self.l1d.probe(line).or_else(|| self.l2.probe(line))
    }

    /// True if the line is present anywhere in the private hierarchy.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.state_of(line).is_some()
    }

    /// Drains the lines that have been displaced entirely out of the
    /// hierarchy (L2 capacity victims) since the last call, oldest first.
    /// The hierarchy keeps the emptied buffer, so later victims reuse its
    /// capacity; dropping the iterator early discards the rest.
    pub fn take_capacity_victims(&mut self) -> impl ExactSizeIterator<Item = EvictedLine> + '_ {
        self.pending_victims.drain(..)
    }

    /// L1D statistics.
    pub fn l1_stats(&self) -> &CacheStats {
        self.l1d.stats()
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// Number of lines resident across both levels.
    pub fn resident_lines(&self) -> usize {
        self.l1d.len() + self.l2.len()
    }

    fn install_l1(&mut self, line: LineAddr, state: CoherenceState) {
        if let Some(l1_victim) = self.l1d.insert(line, state) {
            // Exclusive hierarchy: the L1 victim moves down into the L2.
            if let Some(l2_victim) = self.l2.insert(l1_victim.addr, l1_victim.state) {
                self.pending_victims.push(l2_victim);
            }
        }
    }

    /// Exports the complete dynamic state of the hierarchy (both levels plus
    /// any uncollected capacity victims) for checkpointing.
    pub fn export_state(&self) -> CoreCachesState {
        CoreCachesState {
            l1d: self.l1d.export_state(),
            l2: self.l2.export_state(),
            pending_victims: self.pending_victims.clone(),
        }
    }

    /// Restores state previously captured with [`CoreCaches::export_state`]
    /// onto a hierarchy of the same geometry.
    ///
    /// # Panics
    ///
    /// Panics if either level's geometry does not match the export.
    pub fn restore_state(&mut self, state: &CoreCachesState) {
        self.l1d.restore_state(&state.l1d);
        self.l2.restore_state(&state.l2);
        self.pending_victims = state.pending_victims.clone();
    }
}

/// The complete dynamic state of a [`CoreCaches`] hierarchy, as captured by
/// [`CoreCaches::export_state`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreCachesState {
    /// The L1 data cache.
    pub l1d: crate::set_assoc::SetAssocState,
    /// The private exclusive L2.
    pub l2: crate::set_assoc::SetAssocState,
    /// L2 capacity victims not yet collected by the simulator.
    pub pending_victims: Vec<EvictedLine>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use allarm_types::config::MachineConfig;

    fn caches() -> CoreCaches {
        let cfg = MachineConfig::small_test();
        CoreCaches::new(&cfg.l1d, &cfg.l2)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = caches();
        let line = LineAddr::new(10);
        assert_eq!(c.access(line, false), AccessOutcome::Miss);
        c.fill(line, CoherenceState::Exclusive);
        assert_eq!(c.access(line, false), AccessOutcome::L1Hit);
        assert!(c.contains(line));
    }

    #[test]
    fn l2_hit_promotes_back_to_l1() {
        let cfg = MachineConfig::small_test();
        let mut c = CoreCaches::new(&cfg.l1d, &cfg.l2);
        let l1_lines = cfg.l1d.num_lines();
        // Fill more lines than the L1 holds so early lines fall to L2.
        for i in 0..(l1_lines + 8) {
            let line = LineAddr::new(i);
            c.access(line, false);
            c.fill(line, CoherenceState::Exclusive);
        }
        // Line 0 must have been displaced from L1 into L2.
        assert!(c.contains(LineAddr::new(0)));
        let outcome = c.access(LineAddr::new(0), false);
        assert_eq!(outcome, AccessOutcome::L2Hit);
        // After promotion it hits in L1.
        assert_eq!(c.access(LineAddr::new(0), false), AccessOutcome::L1Hit);
    }

    #[test]
    fn prefetch_is_invisible() {
        let cfg = MachineConfig::small_test();
        // The test machine's geometry, and one with non-power-of-two set
        // counts (modulo set indexing).
        let odd = CacheConfig::new(3 * 64 * 4, 4, 1);
        let odd_l2 = CacheConfig::new(5 * 64 * 8, 8, 4);
        for (l1, l2) in [(cfg.l1d, cfg.l2), (odd, odd_l2)] {
            let mut c = CoreCaches::new(&l1, &l2);
            for i in 0..(l1.num_lines() + 16) {
                let line = LineAddr::new(i * 7);
                c.access(line, i % 3 == 0);
                c.fill(line, CoherenceState::Exclusive);
            }
            let state = c.export_state();
            let (l1_stats, l2_stats) = (*c.l1_stats(), *c.l2_stats());
            // The newest and the oldest fill (both resident), absent lines,
            // and the extremes.
            let resident = l1.num_lines() + 15;
            for line in [resident * 7, 0, 1, 1 << 40, u64::MAX] {
                c.prefetch(LineAddr::new(line));
            }
            assert!(c.contains(LineAddr::new(resident * 7)) && c.contains(LineAddr::new(0)));
            assert_eq!(c.export_state(), state);
            assert_eq!((*c.l1_stats(), *c.l2_stats()), (l1_stats, l2_stats));
        }
    }

    #[test]
    fn coherence_need_read_write_upgrade() {
        let mut c = caches();
        let line = LineAddr::new(77);
        assert_eq!(c.coherence_need(line, false), Some(CoherenceNeed::ReadMiss));
        assert_eq!(c.coherence_need(line, true), Some(CoherenceNeed::WriteMiss));
        c.fill(line, CoherenceState::Shared);
        assert_eq!(c.coherence_need(line, false), None);
        assert_eq!(c.coherence_need(line, true), Some(CoherenceNeed::Upgrade));
        assert!(c.grant_write(line));
        assert_eq!(c.coherence_need(line, true), None);
        assert_eq!(c.state_of(line), Some(CoherenceState::Modified));
    }

    #[test]
    fn grant_write_reports_an_invalidated_line() {
        let mut c = caches();
        let line = LineAddr::new(8);
        c.fill(line, CoherenceState::Shared);
        // The copy is invalidated (a concurrent writer took ownership)
        // before the upgrade grant arrives: the grant must report the miss
        // so the grantee can refetch instead of losing the write.
        c.probe(line, false, true);
        assert!(!c.grant_write(line));
        assert!(!c.contains(line));
    }

    #[test]
    fn probe_miss_and_hit() {
        let mut c = caches();
        let line = LineAddr::new(5);
        assert_eq!(c.probe(line, false, false), ProbeOutcome::Miss);
        c.fill(line, CoherenceState::Modified);
        match c.probe(line, false, false) {
            ProbeOutcome::Hit { state, dirty } => {
                assert_eq!(state, CoherenceState::Modified);
                assert!(dirty);
            }
            ProbeOutcome::Miss => panic!("expected a hit"),
        }
        // Non-mutating probe left the line alone.
        assert_eq!(c.state_of(line), Some(CoherenceState::Modified));
    }

    #[test]
    fn probe_downgrade_demotes_dirty_line_to_owned() {
        let mut c = caches();
        let line = LineAddr::new(5);
        c.fill(line, CoherenceState::Modified);
        c.probe(line, true, false);
        assert_eq!(c.state_of(line), Some(CoherenceState::Owned));
        // A clean exclusive line demotes to shared.
        let line2 = LineAddr::new(6);
        c.fill(line2, CoherenceState::Exclusive);
        c.probe(line2, true, false);
        assert_eq!(c.state_of(line2), Some(CoherenceState::Shared));
    }

    #[test]
    fn probe_invalidate_removes_line() {
        let mut c = caches();
        let line = LineAddr::new(5);
        c.fill(line, CoherenceState::Shared);
        c.probe(line, false, true);
        assert!(!c.contains(line));
    }

    #[test]
    fn invalidate_removes_from_either_level() {
        let cfg = MachineConfig::small_test();
        let mut c = CoreCaches::new(&cfg.l1d, &cfg.l2);
        let l1_lines = cfg.l1d.num_lines();
        for i in 0..(l1_lines + 4) {
            c.fill(LineAddr::new(i), CoherenceState::Exclusive);
        }
        // Line 0 now lives in L2.
        assert_eq!(
            c.invalidate(LineAddr::new(0)),
            Some(CoherenceState::Exclusive)
        );
        assert!(!c.contains(LineAddr::new(0)));
        assert_eq!(c.invalidate(LineAddr::new(9999)), None);
    }

    #[test]
    fn capacity_victims_surface_after_overflow() {
        let cfg = MachineConfig::small_test();
        let mut c = CoreCaches::new(&cfg.l1d, &cfg.l2);
        let total = cfg.l1d.num_lines() + cfg.l2.num_lines();
        // Stream enough distinct lines to overflow L1 + L2 combined.
        for i in 0..(total * 2) {
            c.fill(LineAddr::new(i), CoherenceState::Exclusive);
        }
        let victims: Vec<EvictedLine> = c.take_capacity_victims().collect();
        assert!(!victims.is_empty());
        // Victims are gone from the hierarchy.
        for v in &victims {
            assert!(!c.contains(v.addr));
        }
        // Draining twice yields nothing new.
        assert_eq!(c.take_capacity_victims().len(), 0);
        // The hierarchy never holds more than its capacity.
        assert!(c.resident_lines() <= total as usize);
    }

    /// The fused walk must answer exactly what the two-call sequence it
    /// replaced did, and leave the hierarchy in the same state.
    #[test]
    fn access_with_need_matches_coherence_need_then_access() {
        let mut fused = caches();
        let mut split = caches();
        let mut rng = 0x5EED_u64;
        let states = [
            CoherenceState::Modified,
            CoherenceState::Owned,
            CoherenceState::Exclusive,
            CoherenceState::Shared,
        ];
        for _ in 0..20_000 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let line = LineAddr::new((rng >> 33) % 4096);
            let write = (rng >> 20) & 1 == 1;
            if (rng >> 12).is_multiple_of(4) {
                let state = states[(rng >> 8) as usize % states.len()];
                fused.fill(line, state);
                split.fill(line, state);
            } else {
                let need = split.coherence_need(line, write);
                let outcome = split.access(line, write);
                assert_eq!(fused.access_with_need(line, write), (outcome, need));
            }
            assert_eq!(
                fused.take_capacity_victims().collect::<Vec<_>>(),
                split.take_capacity_victims().collect::<Vec<_>>()
            );
        }
        assert_eq!(fused.export_state(), split.export_state());
    }

    #[test]
    fn write_access_is_still_a_presence_hit() {
        let mut c = caches();
        let line = LineAddr::new(3);
        c.fill(line, CoherenceState::Shared);
        assert_eq!(c.access(line, true), AccessOutcome::L1Hit);
    }
}
