//! # sirius-cache
//!
//! A sharded, lock-striped keyed cache for the Sirius serving stack.
//!
//! The paper's warehouse-scale argument (Figs. 17–19, Table 8) is that
//! per-query backend compute dominates the cost of a voice/vision assistant,
//! so anything that *deflects* load changes the provisioning math directly.
//! Real query streams are heavily repeated (Zipf-shaped popularity), which
//! makes a keyed result cache the cheapest accelerator in the stack: a hit
//! answers in microseconds what Classify→IMM→QA answers in tens of
//! milliseconds. This crate is that building block — `sirius-server` wires
//! two instances in front of the post-ASR stages (a QA answer cache keyed by
//! normalized recognized text, and an IMM cache keyed by the ANN match
//! signature).
//!
//! Design:
//!
//! * **Lock-striped shards.** Keys hash (deterministic SipHash-1-3 with
//!   fixed keys) to one of a power-of-two number of shards, each behind its
//!   own `Mutex`. Concurrent readers/writers on different shards never
//!   contend; the per-shard critical section is a couple of map operations.
//! * **Bounded LRU per shard.** Each shard holds at most
//!   `capacity / shards` entries; inserting past the bound evicts the
//!   least-recently-used entry (order maintained in a `BTreeMap` side index,
//!   O(log n) per touch).
//! * **Generation stamping.** The cache carries a global generation counter;
//!   every entry is stamped with the generation current at insert.
//!   [`Cache::invalidate_all`] bumps the generation in one atomic store —
//!   O(1), no locks — and every pre-bump entry becomes unreadable (removed
//!   lazily at the next touch, counted as `stale`). This is what makes
//!   "no stale read after invalidation" a hard guarantee rather than a
//!   best-effort sweep.
//! * **Counters via `sirius-obs`.** `hit` / `miss` / `eviction` / `stale` /
//!   `insert` counters and an `entries` gauge register into the shared
//!   [`Registry`](sirius_obs::Registry) so cache behaviour shows up in the
//!   same snapshot as the serving stages it deflects load from.

#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use sirius_obs::{Counter, Gauge, Registry};

/// Sizing policy for a [`Cache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total entry budget across all shards. Each shard is bounded at
    /// `ceil(capacity / shards)`, so the live entry count never exceeds
    /// `capacity` rounded up to a multiple of the shard count.
    pub capacity: usize,
    /// Number of lock stripes; rounded up to the next power of two, and at
    /// least 1. More shards → less contention, slightly looser LRU (the
    /// recency order is per-shard, not global).
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            capacity: 1024,
            shards: 8,
        }
    }
}

impl CacheConfig {
    /// Config with the given total capacity and the default shard count.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity,
            ..Self::default()
        }
    }
}

/// Cache activity counters, registered in a shared [`Registry`] under a
/// caller-chosen prefix (e.g. `cache.qa.hit`).
///
/// Handles are cheap lock-free clones; an unregistered instance (from
/// [`CacheObs::unregistered`]) still counts but is not exported anywhere.
#[derive(Debug, Clone)]
pub struct CacheObs {
    /// Reads that returned a live value.
    pub hit: Counter,
    /// Reads that found nothing usable (absent or invalidated).
    pub miss: Counter,
    /// Entries displaced by the per-shard LRU bound.
    pub eviction: Counter,
    /// Entries discarded at read time because their generation predates an
    /// [`Cache::invalidate_all`]. Every `stale` read is also counted as a
    /// `miss`.
    pub stale: Counter,
    /// Successful inserts (including overwrites of an existing key).
    pub insert: Counter,
    /// Current live entry count across all shards.
    pub entries: Gauge,
}

impl CacheObs {
    /// Registers the counters under `{prefix}.hit`, `{prefix}.miss`,
    /// `{prefix}.eviction`, `{prefix}.stale`, `{prefix}.insert`,
    /// `{prefix}.entries`.
    pub fn register(registry: &Registry, prefix: &str) -> Self {
        let name = |leaf: &str| format!("{prefix}.{leaf}");
        Self {
            hit: registry.counter(&name("hit")),
            miss: registry.counter(&name("miss")),
            eviction: registry.counter(&name("eviction")),
            stale: registry.counter(&name("stale")),
            insert: registry.counter(&name("insert")),
            entries: registry.gauge(&name("entries")),
        }
    }

    /// Counters not attached to any registry (still functional).
    pub fn unregistered() -> Self {
        Self {
            hit: Counter::default(),
            miss: Counter::default(),
            eviction: Counter::default(),
            stale: Counter::default(),
            insert: Counter::default(),
            entries: Gauge::default(),
        }
    }

    /// Hit ratio over all completed lookups, `None` before the first lookup.
    pub fn hit_ratio(&self) -> Option<f64> {
        let hits = self.hit.get();
        let total = hits + self.miss.get();
        (total > 0).then(|| hits as f64 / total as f64)
    }
}

struct Entry<V> {
    value: V,
    /// Generation current when the entry was inserted.
    generation: u64,
    /// Recency stamp; key into the shard's `order` index.
    touched: u64,
}

struct Shard<K, V> {
    map: HashMap<K, Entry<V>>,
    /// LRU side index: recency stamp → key. The smallest stamp is the
    /// least-recently-used entry.
    order: BTreeMap<u64, K>,
    /// Monotone per-shard recency clock.
    clock: u64,
}

impl<K: Hash + Eq + Clone, V> Shard<K, V> {
    fn new() -> Self {
        Self {
            map: HashMap::new(),
            order: BTreeMap::new(),
            clock: 0,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn remove(&mut self, key: &K) -> Option<Entry<V>> {
        let entry = self.map.remove(key)?;
        self.order.remove(&entry.touched);
        Some(entry)
    }

    fn evict_lru(&mut self) -> bool {
        if let Some((&stamp, key)) = self.order.iter().next() {
            let key = key.clone();
            self.order.remove(&stamp);
            self.map.remove(&key);
            true
        } else {
            false
        }
    }
}

/// A sharded, lock-striped, bounded-LRU keyed cache with O(1)
/// generation-based invalidation. See the crate docs for the design.
pub struct Cache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    /// `shards.len() - 1`; shard count is a power of two so this is a mask.
    shard_mask: usize,
    per_shard_capacity: usize,
    generation: AtomicU64,
    obs: CacheObs,
}

impl<K: Hash + Eq + Clone, V: Clone> Cache<K, V> {
    /// Builds a cache with unregistered counters.
    pub fn new(config: CacheConfig) -> Self {
        Self::with_obs(config, CacheObs::unregistered())
    }

    /// Builds a cache whose counters were registered by the caller (see
    /// [`CacheObs::register`]).
    pub fn with_obs(config: CacheConfig, obs: CacheObs) -> Self {
        let shards = config.shards.max(1).next_power_of_two();
        let per_shard_capacity = config.capacity.div_ceil(shards).max(1);
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            shard_mask: shards - 1,
            per_shard_capacity,
            generation: AtomicU64::new(0),
            obs,
        }
    }

    fn shard_for(&self, key: &K) -> &Mutex<Shard<K, V>> {
        // DefaultHasher::new() is SipHash-1-3 with fixed keys — deterministic
        // across processes, unlike a `RandomState`-built map hasher.
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) & self.shard_mask]
    }

    /// Looks up `key`. An invalidated entry is removed, counted as `stale`,
    /// and reported as a miss.
    pub fn get(&self, key: &K) -> Option<V> {
        let generation = self.generation.load(Ordering::Acquire);
        let mut shard = self
            .shard_for(key)
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let usable = match shard.map.get(key) {
            None => {
                self.obs.miss.inc();
                return None;
            }
            Some(entry) => entry.generation == generation,
        };
        if !usable {
            shard.remove(key);
            self.obs.entries.dec();
            self.obs.stale.inc();
            self.obs.miss.inc();
            return None;
        }
        // Touch: move the entry to the most-recent end of the order index.
        let stamp = shard.tick();
        let entry = shard.map.get_mut(key).expect("entry checked above");
        let old = std::mem::replace(&mut entry.touched, stamp);
        let value = entry.value.clone();
        shard.order.remove(&old);
        shard.order.insert(stamp, key.clone());
        self.obs.hit.inc();
        Some(value)
    }

    /// Inserts (or overwrites) `key`, evicting the shard's LRU entry if the
    /// shard is at capacity.
    pub fn insert(&self, key: K, value: V) {
        let generation = self.generation.load(Ordering::Acquire);
        let mut shard = self
            .shard_for(&key)
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if shard.remove(&key).is_some() {
            self.obs.entries.dec();
        }
        while shard.map.len() >= self.per_shard_capacity {
            if !shard.evict_lru() {
                break;
            }
            self.obs.entries.dec();
            self.obs.eviction.inc();
        }
        let stamp = shard.tick();
        shard.order.insert(stamp, key.clone());
        shard.map.insert(
            key,
            Entry {
                value,
                generation,
                touched: stamp,
            },
        );
        self.obs.entries.inc();
        self.obs.insert.inc();
    }

    /// Invalidates every entry in O(1) by bumping the generation. Entries
    /// inserted before the bump can never be read again; they are removed
    /// lazily (counted `stale`) when next touched, or displaced by LRU.
    pub fn invalidate_all(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// The current generation (starts at 0, +1 per [`Self::invalidate_all`]).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Live entry count across all shards (includes entries that are
    /// invalidated but not yet lazily removed).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).map.len())
            .sum()
    }

    /// True when no shard holds any entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Upper bound on [`Self::len`]: per-shard capacity × shard count.
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * self.shards.len()
    }

    /// The cache's activity counters.
    pub fn obs(&self) -> &CacheObs {
        &self.obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::Duration;

    fn small(capacity: usize, shards: usize) -> Cache<String, u64> {
        Cache::new(CacheConfig { capacity, shards })
    }

    #[test]
    fn hit_miss_and_counters() {
        let cache = small(8, 1);
        assert_eq!(cache.get(&"a".to_string()), None);
        cache.insert("a".into(), 1);
        assert_eq!(cache.get(&"a".to_string()), Some(1));
        cache.insert("a".into(), 2);
        assert_eq!(cache.get(&"a".to_string()), Some(2));
        assert_eq!(cache.obs().hit.get(), 2);
        assert_eq!(cache.obs().miss.get(), 1);
        assert_eq!(cache.obs().insert.get(), 2);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.obs().entries.get(), 1);
        assert_eq!(cache.obs().hit_ratio(), Some(2.0 / 3.0));
    }

    #[test]
    fn lru_eviction_order() {
        let cache = small(2, 1);
        cache.insert("a".into(), 1);
        cache.insert("b".into(), 2);
        // Touch "a" so "b" becomes the LRU entry.
        assert_eq!(cache.get(&"a".to_string()), Some(1));
        cache.insert("c".into(), 3);
        assert_eq!(cache.get(&"b".to_string()), None, "LRU entry evicted");
        assert_eq!(cache.get(&"a".to_string()), Some(1));
        assert_eq!(cache.get(&"c".to_string()), Some(3));
        assert_eq!(cache.obs().eviction.get(), 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn invalidate_all_is_total() {
        let cache = small(64, 4);
        for i in 0..32u64 {
            cache.insert(format!("k{i}"), i);
        }
        assert_eq!(cache.generation(), 0);
        cache.invalidate_all();
        assert_eq!(cache.generation(), 1);
        for i in 0..32u64 {
            assert_eq!(cache.get(&format!("k{i}")), None);
        }
        assert_eq!(cache.obs().stale.get(), 32);
        assert!(cache.is_empty());
        // Post-invalidation inserts are readable again.
        cache.insert("k0".into(), 99);
        assert_eq!(cache.get(&"k0".to_string()), Some(99));
    }

    #[test]
    fn bounded_memory_under_churn() {
        let cache = small(32, 4);
        let bound = cache.capacity();
        for i in 0..10_000u64 {
            cache.insert(format!("k{i}"), i);
            assert!(
                cache.len() <= bound,
                "len {} > bound {}",
                cache.len(),
                bound
            );
        }
        let obs = cache.obs();
        assert_eq!(
            obs.insert.get() - obs.eviction.get() - obs.stale.get(),
            cache.len() as u64,
            "entry accounting balances"
        );
        assert_eq!(obs.entries.get(), cache.len() as u64);
    }

    /// Multi-producer stress: writers churn keys and periodically invalidate;
    /// readers must never observe a value inserted before the invalidation
    /// they already saw. Values encode the generation they were written
    /// under, so a stale read is directly detectable.
    #[test]
    fn no_stale_read_after_invalidation() {
        const KEYS: u64 = 64;
        const WRITERS: usize = 4;
        const READERS: usize = 4;
        let cache: Arc<Cache<u64, u64>> = Arc::new(Cache::new(CacheConfig {
            capacity: 256,
            shards: 8,
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let violations = Arc::new(AtomicU64::new(0));

        let mut handles = Vec::new();
        for w in 0..WRITERS {
            let cache = Arc::clone(&cache);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut i = w as u64;
                while !stop.load(Ordering::Relaxed) {
                    // Value stamps the generation current at write time.
                    let generation = cache.generation();
                    cache.insert(i % KEYS, generation);
                    if i.is_multiple_of(257) {
                        cache.invalidate_all();
                    }
                    i += 1;
                }
            }));
        }
        for _ in 0..READERS {
            let cache = Arc::clone(&cache);
            let stop = Arc::clone(&stop);
            let violations = Arc::clone(&violations);
            handles.push(std::thread::spawn(move || {
                let mut k = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Order matters: read the generation *before* the lookup.
                    // Any value returned must be from a generation >= it —
                    // i.e. nothing from before an invalidation we already
                    // observed can ever surface.
                    let floor = cache.generation();
                    if let Some(written_at) = cache.get(&(k % KEYS)) {
                        if written_at < floor {
                            violations.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    k += 1;
                }
            }));
        }
        std::thread::sleep(Duration::from_millis(200));
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            violations.load(Ordering::Relaxed),
            0,
            "stale reads observed"
        );
        assert!(cache.len() <= cache.capacity());
        assert!(cache.obs().hit.get() > 0, "stress exercised the hit path");
        assert!(cache.obs().stale.get() > 0, "stress exercised invalidation");
    }

    #[test]
    fn registered_counters_export() {
        let registry = Registry::new();
        let cache: Cache<String, u64> = Cache::with_obs(
            CacheConfig::with_capacity(8),
            CacheObs::register(&registry, "cache.qa"),
        );
        cache.insert("where is pete's?".into(), 7);
        cache.get(&"where is pete's?".to_string());
        cache.get(&"unknown".to_string());
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("cache.qa.hit"), Some(1));
        assert_eq!(snapshot.counter("cache.qa.miss"), Some(1));
        assert_eq!(snapshot.counter("cache.qa.insert"), Some(1));
        assert_eq!(snapshot.gauge("cache.qa.entries"), Some(1));
    }
}
