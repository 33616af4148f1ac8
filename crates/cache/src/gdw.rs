//! Cost-aware eviction: a Greedy-Dual cache (GD-Wheel-lite).
//!
//! The paper's related work (§2.2, \[19\] GD-Wheel) improves latency not by
//! reducing the *number* of misses but their *cost*: items that are
//! expensive to refetch from the database are kept preferentially. This
//! module implements the classic Greedy-Dual policy the wheel
//! approximates:
//!
//! * every resident item carries a priority `H = clock + cost`;
//! * eviction removes the minimum-`H` item and advances `clock` to its
//!   `H` (the aging mechanism — recently useful items keep floating up);
//! * a hit refreshes the item's priority to `clock + cost`.
//!
//! With all costs equal the policy degenerates to LRU-like aging, so the
//! LRU [`crate::Store`] is the natural baseline; the
//! `ablation_eviction_policy` experiment compares the two on a workload
//! with heterogeneous database costs.
//!
//! Unlike [`crate::Store`] this cache uses plain byte accounting (no slab
//! classes) — Greedy-Dual's bookkeeping is priority-queue-shaped, and
//! mixing it with slab pages would obscure the policy comparison.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::hash::IntMap;
use crate::KeyId;

/// Priority-ordered heap entry (lazily invalidated).
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    priority: f64,
    stamp: u64,
    key: KeyId,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .total_cmp(&other.priority)
            .then(self.stamp.cmp(&other.stamp))
            .then(self.key.cmp(&other.key))
    }
}

#[derive(Debug, Clone, Copy)]
struct Resident {
    size: usize,
    cost: f64,
    stamp: u64,
}

/// Cumulative statistics of a [`CostAwareCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GdwStats {
    /// Successful lookups.
    pub hits: u64,
    /// Failed lookups.
    pub misses: u64,
    /// Total refetch cost incurred by misses (the latency the cache
    /// failed to save).
    pub miss_cost: f64,
    /// Items evicted.
    pub evictions: u64,
}

impl GdwStats {
    /// Observed miss ratio.
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Mean refetch cost per lookup — the quantity Greedy-Dual minimizes
    /// (proportional to the database stage's contribution to latency).
    #[must_use]
    pub fn cost_per_lookup(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.miss_cost / total as f64
        }
    }
}

/// A Greedy-Dual (cost-aware) cache with a byte budget.
///
/// # Examples
///
/// ```
/// use memlat_cache::gdw::CostAwareCache;
///
/// let mut c = CostAwareCache::new(10_000).unwrap();
/// c.insert(1, 100, 5.0); // cheap-to-refetch item
/// c.insert(2, 100, 50.0); // expensive item
/// assert!(c.contains(1) && c.contains(2));
/// ```
#[derive(Debug, Clone)]
pub struct CostAwareCache {
    budget: usize,
    used: usize,
    clock: f64,
    next_stamp: u64,
    index: IntMap<KeyId, Resident>,
    heap: BinaryHeap<Reverse<HeapEntry>>,
    stats: GdwStats,
}

impl CostAwareCache {
    /// Creates a cache with the given byte budget.
    ///
    /// # Errors
    ///
    /// Returns a message when the budget is zero.
    pub fn new(budget_bytes: usize) -> Result<Self, String> {
        if budget_bytes == 0 {
            return Err("budget must be positive".to_string());
        }
        Ok(Self {
            budget: budget_bytes,
            used: 0,
            clock: 0.0,
            next_stamp: 0,
            index: IntMap::default(),
            heap: BinaryHeap::new(),
            stats: GdwStats::default(),
        })
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> GdwStats {
        self.stats
    }

    /// Live item count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Bytes in use.
    #[must_use]
    pub fn used_bytes(&self) -> usize {
        self.used
    }

    /// Whether `key` is resident (without touching statistics or
    /// priorities).
    #[must_use]
    pub fn contains(&self, key: KeyId) -> bool {
        self.index.contains_key(&key)
    }

    fn push_entry(&mut self, key: KeyId, cost: f64) -> u64 {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.heap.push(Reverse(HeapEntry {
            priority: self.clock + cost,
            stamp,
            key,
        }));
        stamp
    }

    /// Looks up `key`; on a hit the item's priority is refreshed, on a
    /// miss the `refetch_cost` is charged to the statistics (the caller
    /// is expected to [`insert`](Self::insert) afterwards, demand-fill
    /// style).
    pub fn get(&mut self, key: KeyId, refetch_cost: f64) -> bool {
        if let Some(r) = self.index.get(&key).copied() {
            let stamp = self.push_entry(key, r.cost);
            self.index.get_mut(&key).expect("just read").stamp = stamp;
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            self.stats.miss_cost += refetch_cost;
            false
        }
    }

    /// Inserts (or replaces) `key` with the given size and refetch cost,
    /// evicting minimum-priority items as needed.
    ///
    /// Items larger than the whole budget are silently not cached
    /// (memcached behaves the same for oversized items).
    pub fn insert(&mut self, key: KeyId, size: usize, cost: f64) {
        if size > self.budget {
            return;
        }
        if let Some(old) = self.index.remove(&key) {
            self.used -= old.size;
        }
        while self.used + size > self.budget {
            self.evict_one();
        }
        let stamp = self.push_entry(key, cost);
        self.index.insert(key, Resident { size, cost, stamp });
        self.used += size;
    }

    fn evict_one(&mut self) {
        while let Some(Reverse(e)) = self.heap.pop() {
            match self.index.get(&e.key) {
                // Only the entry whose stamp matches is live; older heap
                // entries for the same key are stale.
                Some(r) if r.stamp == e.stamp => {
                    self.used -= r.size;
                    self.index.remove(&e.key);
                    // Greedy-Dual aging: the clock jumps to the evicted
                    // priority.
                    self.clock = e.priority;
                    self.stats.evictions += 1;
                    return;
                }
                _ => continue,
            }
        }
        unreachable!("eviction requested on an empty cache");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_hit_miss_cycle() {
        let mut c = CostAwareCache::new(1_000).unwrap();
        assert!(!c.get(1, 10.0));
        c.insert(1, 100, 10.0);
        assert!(c.get(1, 10.0));
        let st = c.stats();
        assert_eq!((st.hits, st.misses), (1, 1));
        assert_eq!(st.miss_cost, 10.0);
        assert!((st.miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rejects_zero_budget_and_oversized_items() {
        assert!(CostAwareCache::new(0).is_err());
        let mut c = CostAwareCache::new(100).unwrap();
        c.insert(1, 500, 1.0); // larger than budget: ignored
        assert!(!c.contains(1));
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn byte_budget_is_respected() {
        let mut c = CostAwareCache::new(1_000).unwrap();
        for k in 0..100u64 {
            c.insert(k, 100, 1.0);
            assert!(c.used_bytes() <= 1_000);
        }
        assert_eq!(c.len(), 10);
        assert_eq!(c.stats().evictions, 90);
    }

    #[test]
    fn expensive_items_survive_pressure() {
        let mut c = CostAwareCache::new(1_000).unwrap();
        // One precious item…
        c.insert(999, 100, 1_000.0);
        // …then a flood of cheap ones.
        for k in 0..50u64 {
            c.insert(k, 100, 1.0);
        }
        assert!(c.contains(999), "high-cost item was evicted");
        // With equal costs the same flood would have evicted it (FIFO
        // aging): demonstrate with a fresh cache.
        let mut lru_ish = CostAwareCache::new(1_000).unwrap();
        lru_ish.insert(999, 100, 1.0);
        for k in 0..50u64 {
            lru_ish.insert(k, 100, 1.0);
        }
        assert!(!lru_ish.contains(999));
    }

    #[test]
    fn hits_refresh_priority() {
        let mut c = CostAwareCache::new(300).unwrap();
        c.insert(1, 100, 1.0);
        c.insert(2, 100, 1.0);
        c.insert(3, 100, 1.0);
        // Touch 1 so its priority refreshes above 2 and 3.
        assert!(c.get(1, 1.0));
        c.insert(4, 100, 1.0); // evicts 2 (oldest untouched)
        assert!(c.contains(1));
        assert!(!c.contains(2));
    }

    #[test]
    fn replacement_updates_size_and_cost() {
        let mut c = CostAwareCache::new(1_000).unwrap();
        c.insert(1, 100, 1.0);
        c.insert(1, 600, 5.0);
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_bytes(), 600);
    }

    #[test]
    fn aging_lets_stale_expensive_items_leave_eventually() {
        let mut c = CostAwareCache::new(500).unwrap();
        c.insert(999, 100, 50.0); // expensive but never touched again
                                  // Keep hammering cheap items; each eviction raises the clock, so
                                  // fresh cheap items eventually outrank the stale expensive one.
        for k in 0..2_000u64 {
            c.insert(k % 64, 100, 1.0);
            let _ = c.get(k % 64, 1.0);
        }
        assert!(!c.contains(999), "aging failed: stale item pinned forever");
    }

    #[test]
    fn cost_per_lookup_tracks_misses() {
        let mut c = CostAwareCache::new(1_000).unwrap();
        for _ in 0..4 {
            let _ = c.get(7, 2.5);
        }
        assert!((c.stats().cost_per_lookup() - 2.5).abs() < 1e-12);
    }
}
