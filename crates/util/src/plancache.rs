//! A small owner-attached plan cache.
//!
//! The hot paths of the engine and the broker resolve *plans* — projected
//! schemas, flatten layouts, retained-column lists — that are pure
//! functions of an input shape. This is the one place such a plan is
//! cached: owners (a compiled residual, a route entry, a bench loop) hang a
//! [`PlanCache`] off themselves and look plans up by comparing stored keys
//! against a *borrowed* probe, so the steady-state hit path allocates
//! nothing and no cache is shared between owners or threads. Callers
//! without an owner to hang one off plan per call.
//!
//! Entries are kept in a plain vector and scanned linearly: an owner sees
//! a handful of distinct shapes, so a scan beats hashing. The cache resets
//! wholesale once it exceeds [`PLAN_CACHE_LIMIT`] entries — far above any
//! steady-state working set, and a reset merely costs one rebuild per
//! shape.

/// Entries retained before the cache resets.
pub const PLAN_CACHE_LIMIT: usize = 128;

/// An owner-attached `(key, plan)` cache with allocation-free hits. See
/// the module docs.
#[derive(Debug, Clone)]
pub struct PlanCache<K, V> {
    entries: Vec<(K, V)>,
}

// Manual impl: the derive would needlessly bound `K: Default, V: Default`.
impl<K, V> Default for PlanCache<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> PlanCache<K, V> {
    /// An empty cache.
    pub fn new() -> Self {
        Self { entries: Vec::new() }
    }

    /// Returns the plan whose stored key satisfies `hit`, building and
    /// caching one (with the key produced by `key`) on a miss. `hit`
    /// compares stored keys against whatever borrowed probe the caller
    /// closed over, so hits never allocate; `key` and `build` run only on
    /// misses.
    pub fn get_or_insert_with(
        &mut self,
        hit: impl Fn(&K) -> bool,
        key: impl FnOnce() -> K,
        build: impl FnOnce() -> V,
    ) -> &V {
        if let Some(i) = self.entries.iter().position(|(k, _)| hit(k)) {
            return &self.entries[i].1;
        }
        if self.entries.len() > PLAN_CACHE_LIMIT {
            self.entries.clear();
        }
        self.entries.push((key(), build()));
        &self.entries.last().expect("just pushed").1
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_cached_plan_without_rebuilding() {
        let mut cache: PlanCache<u32, String> = PlanCache::new();
        let mut builds = 0;
        for _ in 0..3 {
            let v = cache.get_or_insert_with(
                |k| *k == 7,
                || 7,
                || {
                    builds += 1;
                    "plan".to_string()
                },
            );
            assert_eq!(v, "plan");
        }
        assert_eq!(builds, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn overflow_resets_and_rebuilds() {
        let mut cache: PlanCache<usize, usize> = PlanCache::new();
        for i in 0..=PLAN_CACHE_LIMIT + 1 {
            cache.get_or_insert_with(|k| *k == i, || i, || i * 2);
        }
        assert!(cache.len() <= PLAN_CACHE_LIMIT + 1, "cache must reset on overflow");
        assert!(!cache.is_empty());
        assert_eq!(*cache.get_or_insert_with(|k| *k == 1, || 1, || 2), 2);
    }
}
