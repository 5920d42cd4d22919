//! The keyed result cache behind [`ResultCaches`](crate::ResultCaches): one
//! bounded LRU under one lock, with O(1) generation-based invalidation.
//!
//! The paper's warehouse-scale argument (Figs. 17–19, Table 8) is that
//! per-query backend compute dominates the cost of a voice/vision assistant,
//! so anything that *deflects* load changes the provisioning math directly.
//! Real query streams are heavily repeated (Zipf-shaped popularity), which
//! makes a keyed result cache the cheapest accelerator in the stack: a hit
//! answers in microseconds what Classify→IMM→QA answers in milliseconds.
//!
//! Design:
//!
//! * **One lock.** The map, its recency index and its clock sit behind one
//!   `Mutex`. The cache is touched twice per query (the ASR step's lookup
//!   and the completion's fill), a few hundred times a second at most, and
//!   the critical section is a couple of map operations, so there is
//!   nothing for lock striping to buy — and striping would make the LRU
//!   per stripe, so which entries survive would depend on key hashes, not
//!   on recency.
//! * **Bounded LRU.** The cache holds at most `capacity` entries; inserting
//!   past the bound evicts the least-recently-used entry (order kept in a
//!   `BTreeMap` side index, O(log n) per touch).
//! * **Generation stamping.** A writer reads [`Cache::generation`] before
//!   it computes a value and passes it to [`Cache::insert`], which stamps
//!   the entry with it — or drops the value if an invalidation has landed
//!   since, because the value may predate it. [`Cache::invalidate_all`]
//!   bumps the generation in one atomic store — O(1), no lock — and every
//!   pre-bump entry becomes unreadable (removed lazily at the next touch,
//!   counted as `stale`). Both checks read the generation under the lock,
//!   so they are ordered with every other cache operation. This is what
//!   makes "no stale read after invalidation" a hard guarantee rather than
//!   a best-effort sweep.
//! * **Counters via `sirius-obs`.** `hit` / `miss` / `eviction` / `stale` /
//!   `insert` counters and an `entries` gauge register into the server's
//!   [`Registry`] so cache behaviour shows up in the same snapshot as the
//!   serving stages it deflects load from.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use sirius_obs::{Counter, Gauge, Registry};

/// Cache activity counters, registered in a shared [`Registry`] under a
/// caller-chosen prefix (e.g. `cache.qa.hit`).
///
/// Handles are cheap lock-free clones; an unregistered instance (the
/// `Default`) still counts but is not exported anywhere.
#[derive(Debug, Clone, Default)]
pub(crate) struct CacheObs {
    /// Reads that returned a live value.
    pub(crate) hit: Counter,
    /// Reads that found nothing usable (absent or invalidated).
    pub(crate) miss: Counter,
    /// Entries displaced by the LRU bound.
    pub(crate) eviction: Counter,
    /// Entries discarded at read time because their generation predates an
    /// [`Cache::invalidate_all`]. Every `stale` read is also counted as a
    /// `miss`.
    pub(crate) stale: Counter,
    /// Successful inserts (including overwrites of an existing key).
    pub(crate) insert: Counter,
    /// Current live entry count.
    pub(crate) entries: Gauge,
}

impl CacheObs {
    /// Registers the counters under `{prefix}.hit`, `{prefix}.miss`,
    /// `{prefix}.eviction`, `{prefix}.stale`, `{prefix}.insert`,
    /// `{prefix}.entries`.
    pub(crate) fn register(registry: &Registry, prefix: &str) -> Self {
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
}

struct Entry<V> {
    value: V,
    /// Generation current when the entry was inserted.
    generation: u64,
    /// Recency stamp; key into the `order` index.
    touched: u64,
}

/// Everything the lock guards.
struct Lru<K, V> {
    map: HashMap<K, Entry<V>>,
    /// Recency index: stamp → key. The smallest stamp is the
    /// least-recently-used entry.
    order: BTreeMap<u64, K>,
    /// Monotone recency clock.
    clock: u64,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
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
        match self.order.pop_first() {
            Some((_, key)) => self.map.remove(&key).is_some(),
            None => false,
        }
    }
}

/// A bounded-LRU keyed cache under one lock, with O(1) generation-based
/// invalidation. See the module docs for the design.
pub(crate) struct Cache<K, V> {
    lru: Mutex<Lru<K, V>>,
    /// Entry bound; at least 1.
    capacity: usize,
    generation: AtomicU64,
    obs: CacheObs,
}

impl<K: Hash + Eq + Clone, V: Clone> Cache<K, V> {
    /// A cache holding at most `capacity` entries (at least one), counting
    /// into `obs`.
    pub(crate) fn new(capacity: usize, obs: CacheObs) -> Self {
        Self {
            lru: Mutex::new(Lru {
                map: HashMap::new(),
                order: BTreeMap::new(),
                clock: 0,
            }),
            capacity: capacity.max(1),
            generation: AtomicU64::new(0),
            obs,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Lru<K, V>> {
        self.lru.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up `key`. An invalidated entry is removed, counted as `stale`,
    /// and reported as a miss.
    pub(crate) fn get(&self, key: &K) -> Option<V> {
        let mut lru = self.lock();
        let generation = self.generation.load(Ordering::Acquire);
        let usable = match lru.map.get(key) {
            None => {
                self.obs.miss.inc();
                return None;
            }
            Some(entry) => entry.generation == generation,
        };
        if !usable {
            lru.remove(key);
            self.obs.entries.dec();
            self.obs.stale.inc();
            self.obs.miss.inc();
            return None;
        }
        // Touch: move the entry to the most-recent end of the order index.
        let stamp = lru.tick();
        let entry = lru.map.get_mut(key).expect("entry checked above");
        let old = std::mem::replace(&mut entry.touched, stamp);
        let value = entry.value.clone();
        lru.order.remove(&old);
        lru.order.insert(stamp, key.clone());
        self.obs.hit.inc();
        Some(value)
    }

    /// The current generation, +1 per [`invalidate_all`](Self::invalidate_all):
    /// read it before computing a value to [`insert`](Self::insert).
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Inserts (or overwrites) `key` with a value computed under
    /// `generation`, evicting the least-recently-used entry if the cache is
    /// full. A value whose generation is no longer current may predate an
    /// invalidation, so it is dropped, uncounted.
    pub(crate) fn insert(&self, key: K, value: V, generation: u64) {
        let mut lru = self.lock();
        if generation != self.generation.load(Ordering::Acquire) {
            return;
        }
        if lru.remove(&key).is_some() {
            self.obs.entries.dec();
        }
        while lru.map.len() >= self.capacity && lru.evict_lru() {
            self.obs.entries.dec();
            self.obs.eviction.inc();
        }
        let stamp = lru.tick();
        lru.order.insert(stamp, key.clone());
        lru.map.insert(
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
    pub(crate) fn invalidate_all(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// Live entry count (includes entries that are invalidated but not yet
    /// lazily removed).
    pub(crate) fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// The cache's activity counters.
    pub(crate) fn obs(&self) -> &CacheObs {
        &self.obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::Duration;

    impl<K, V> Cache<K, V> {
        fn capacity(&self) -> usize {
            self.capacity
        }
    }

    fn small(capacity: usize) -> Cache<String, u64> {
        Cache::new(capacity, CacheObs::default())
    }

    #[test]
    fn hit_miss_and_counters() {
        let cache = small(8);
        assert_eq!(cache.get(&"a".to_string()), None);
        cache.insert("a".into(), 1, 0);
        assert_eq!(cache.get(&"a".to_string()), Some(1));
        cache.insert("a".into(), 2, 0);
        assert_eq!(cache.get(&"a".to_string()), Some(2));
        assert_eq!(cache.obs().hit.get(), 2);
        assert_eq!(cache.obs().miss.get(), 1);
        assert_eq!(cache.obs().insert.get(), 2);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.obs().entries.get(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let cache = small(2);
        cache.insert("a".into(), 1, 0);
        cache.insert("b".into(), 2, 0);
        // Touch "a" so "b" becomes the LRU entry.
        assert_eq!(cache.get(&"a".to_string()), Some(1));
        cache.insert("c".into(), 3, 0);
        assert_eq!(cache.get(&"b".to_string()), None, "LRU entry evicted");
        assert_eq!(cache.get(&"a".to_string()), Some(1));
        assert_eq!(cache.get(&"c".to_string()), Some(3));
        assert_eq!(cache.obs().eviction.get(), 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn invalidate_all_is_total() {
        let cache = small(64);
        for i in 0..32u64 {
            cache.insert(format!("k{i}"), i, 0);
        }
        assert_eq!(cache.generation(), 0);
        cache.invalidate_all();
        assert_eq!(cache.generation(), 1);
        for i in 0..32u64 {
            assert_eq!(cache.get(&format!("k{i}")), None);
        }
        assert_eq!(cache.obs().stale.get(), 32);
        assert_eq!(cache.len(), 0);
        // A value computed before the bump is dropped, not stamped current.
        cache.insert("k0".into(), 98, 0);
        assert_eq!(cache.get(&"k0".to_string()), None);
        assert_eq!(cache.len(), 0);
        // Post-invalidation inserts are readable again.
        cache.insert("k0".into(), 99, cache.generation());
        assert_eq!(cache.get(&"k0".to_string()), Some(99));
    }

    #[test]
    fn bounded_memory_under_churn() {
        let cache = small(32);
        let bound = cache.capacity();
        for i in 0..10_000u64 {
            cache.insert(format!("k{i}"), i, 0);
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
        let cache: Arc<Cache<u64, u64>> = Arc::new(Cache::new(256, CacheObs::default()));
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
                    cache.insert(i % KEYS, generation, generation);
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
        let cache: Cache<String, u64> = Cache::new(8, CacheObs::register(&registry, "cache.qa"));
        cache.insert("where is pete's?".into(), 7, 0);
        cache.get(&"where is pete's?".to_string());
        cache.get(&"unknown".to_string());
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("cache.qa.hit"), Some(1));
        assert_eq!(snapshot.counter("cache.qa.miss"), Some(1));
        assert_eq!(snapshot.counter("cache.qa.insert"), Some(1));
        assert_eq!(snapshot.gauge("cache.qa.entries"), Some(1));
    }
}
