//! The multi-tenant QoS front-end: tenant traffic classes with
//! weighted-fair admission, and the keyed result caches that deflect
//! repeated queries off the backend stages.
//!
//! # Result caches
//!
//! Two [`sirius_cache::Cache`] instances sit *after ASR commit* and before
//! the Classify queue:
//!
//! * the **QA answer cache**, keyed by the normalized recognized text
//!   ([`normalize_query`]) — serves voice-only (VC/VQ) queries;
//! * the **IMM cache**, keyed by `(normalized text, image match
//!   signature)` — serves voice+vision (VIQ) queries, where the signature
//!   ([`ImageSignature`]) is a 128-bit FNV-1a pair over the image's exact
//!   dimension and pixel bits: the same input identity the cluster's
//!   consistent-hash router uses, so identical images always share a key
//!   and hash-ring affinity concentrates repeats on one replica's cache.
//!
//! A hit skips Classify, IMM and QA entirely. Correctness is enforced
//! structurally, not probabilistically: the cached value carries the **raw**
//! recognized text it was computed from, and [`ResultCaches::lookup`] only
//! returns a hit when the raw texts match exactly (normalization merely
//! widens the bucketing; it can never alias two different texts onto one
//! served answer). The downstream stages are pure functions of the
//! recognized text and the image, so a verified hit is bit-identical to
//! what the uncached path would have computed — the property
//! `tests/qos.rs` gates over the full 42-query set.
//!
//! # Tenant classes and weighted-fair admission
//!
//! A [`TenantClass`] names a traffic tier: an SLO and an admission
//! weight. A request naming class `c` enters through the same
//! [`SiriusServer::submit`] and the same live [`expected_sojourn`]
//! estimator as any other, but is admitted only while the estimate stays
//! within the class's **effective budget**
//!
//! ```text
//! budget(c) = slo(c) × weight(c) / max_weight
//! ```
//!
//! so as backlog builds, low-weight (best-effort) classes start shedding
//! while high-weight (premium) classes still admit — best-effort absorbs
//! the deadline sheds before premium p99 is touched. The shed error's
//! `retry_after` is computed against the *class* budget (`expected −
//! budget(c)`), not the raw SLO: a best-effort client is told how long the
//! backlog must drain before *its class* admits again, which is strictly
//! longer than the global hint and keeps its retries from undershooting
//! under premium bursts. A request that also carries its own deadline is
//! held to the tighter of the two, in both the budget and the SLO it is
//! stamped with.
//!
//! Per-class telemetry registers under `tenant.{class}.*` in the shared
//! registry (the class name passes through the registry's hardened
//! renderers, so hostile names cannot corrupt the export).
//!
//! [`SiriusServer::submit`]: crate::SiriusServer::submit
//! [`expected_sojourn`]: crate::SiriusServer::expected_sojourn

use std::sync::Arc;
use std::time::Duration;

use sirius::pipeline::{SiriusOutcome, SiriusResponse};
use sirius_cache::{Cache, CacheConfig, CacheObs};
use sirius_obs::{Counter, Gauge, Histogram, Registry};
use sirius_vision::image::GrayImage;

use crate::metrics::ServerMetrics;

/// One tenant traffic tier: who gets admitted (and how urgently) when the
/// backlog grows. See the module docs for the admission rule.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantClass {
    /// Class name; what a request's `class` names, and the label of its
    /// `tenant.{name}.*` metrics.
    pub name: String,
    /// The class's end-to-end latency SLO. Admitted queries carry it as
    /// their deadline, so workers drop them unserved once it passes.
    pub slo: Duration,
    /// Admission weight. The class admits while the expected sojourn stays
    /// within `slo × weight / max_weight`, so relative weights decide who
    /// sheds first under load.
    pub weight: u32,
}

impl TenantClass {
    /// A tenant class with the given name, SLO and weight.
    pub fn new(name: &str, slo: Duration, weight: u32) -> Self {
        Self {
            name: name.to_owned(),
            slo,
            weight,
        }
    }
}

/// Per-class telemetry, registered under `tenant.{class}.*`.
#[derive(Debug)]
pub struct TenantObs {
    /// Queries of this class admitted.
    pub accepted: Counter,
    /// Queries shed because the expected sojourn exceeded the class budget.
    pub shed_deadline: Counter,
    /// Admitted queries that completed with a response.
    pub completed: Counter,
    /// Admitted queries that completed with an error (expired in a queue,
    /// stage panic, shutdown).
    pub failed: Counter,
    /// Completions served straight from a result cache.
    pub cache_hit: Counter,
    /// Admitted queries still in flight (`accepted = completed + failed +
    /// in_flight` balances per class).
    pub in_flight: Gauge,
    /// Admission → completion time of this class's successful queries.
    pub sojourn: Histogram,
}

impl TenantObs {
    /// Registers the class's metrics under `{prefix}.{leaf}` names (the
    /// caller passes the fully scoped `tenant.{class}` prefix).
    pub fn register(registry: &Registry, prefix: &str) -> Arc<Self> {
        let name = |leaf: &str| format!("{prefix}.{leaf}");
        Arc::new(Self {
            accepted: registry.counter(&name("accepted")),
            shed_deadline: registry.counter(&name("shed_deadline")),
            completed: registry.counter(&name("completed")),
            failed: registry.counter(&name("failed")),
            cache_hit: registry.counter(&name("cache_hit")),
            in_flight: registry.gauge(&name("in_flight")),
            sojourn: registry.histogram(&name("sojourn_ns")),
        })
    }
}

/// The configured tenant classes with their registered telemetry and the
/// precomputed max weight the admission rule normalizes by.
pub(crate) struct TenantTable {
    classes: Vec<(TenantClass, Arc<TenantObs>)>,
    max_weight: u32,
}

impl TenantTable {
    /// Registers every class's metrics under the server's scoped
    /// `tenant.{class}` prefix.
    pub(crate) fn build(tenants: &[TenantClass], metrics: &ServerMetrics) -> Self {
        let classes = tenants
            .iter()
            .map(|class| {
                let prefix = metrics.scoped(&format!("tenant.{}", class.name));
                let obs = TenantObs::register(metrics.registry(), &prefix);
                (class.clone(), obs)
            })
            .collect::<Vec<_>>();
        let max_weight = classes
            .iter()
            .map(|(c, _)| c.weight.max(1))
            .max()
            .unwrap_or(1);
        Self {
            classes,
            max_weight,
        }
    }

    pub(crate) fn lookup(&self, name: &str) -> Option<(&TenantClass, &Arc<TenantObs>)> {
        self.classes
            .iter()
            .find(|(c, _)| c.name == name)
            .map(|(c, obs)| (c, obs))
    }

    /// The class's effective admission budget: `slo × weight / max_weight`.
    pub(crate) fn budget(&self, class: &TenantClass) -> Duration {
        class
            .slo
            .mul_f64(f64::from(class.weight.max(1)) / f64::from(self.max_weight))
    }
}

/// Lock stripes per result cache.
const CACHE_SHARDS: usize = 8;

/// Sizing policy of the server's two result caches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachePolicy {
    /// Whether the caches exist at all. Off (the default), the serving path
    /// is exactly the uncached runtime.
    pub enabled: bool,
    /// Total entry budget of *each* cache (QA and IMM are sized alike).
    pub capacity: usize,
}

impl Default for CachePolicy {
    fn default() -> Self {
        Self {
            enabled: false,
            capacity: 1024,
        }
    }
}

impl CachePolicy {
    /// An enabled policy with the default sizing.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// Sets the per-cache entry budget.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    fn cache_config(&self) -> CacheConfig {
        CacheConfig {
            capacity: self.capacity,
            shards: CACHE_SHARDS,
        }
    }
}

/// A 128-bit FNV-1a digest of an image's exact dimension and pixel bits.
///
/// Deliberately **not** lossy: any quantization that merged two distinct
/// images onto one signature could serve one image's venue match for the
/// other and break the bit-identity guarantee. Two independent 64-bit
/// streams (distinct offset bases) make an accidental collision
/// negligible while keeping the digest `Copy`-cheap as a map key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ImageSignature(u64, u64);

/// FNV-1a's 64-bit offset basis (also the cluster's routing and ring hash).
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running 64-bit FNV-1a `hash`.
pub(crate) fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

impl ImageSignature {
    /// Signs `image`'s dimensions and pixel bit patterns.
    pub fn of(image: &GrayImage) -> Self {
        // The second stream starts from a decorrelated base so the pair
        // behaves as one 128-bit digest, not two copies of the same 64 bits.
        let mut a = FNV_OFFSET;
        let mut b = FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15;
        fnv1a(&mut a, &(image.width() as u64).to_le_bytes());
        fnv1a(&mut b, &(image.height() as u64).to_le_bytes());
        for pixel in image.data() {
            let bits = pixel.to_bits().to_le_bytes();
            fnv1a(&mut a, &bits);
            fnv1a(&mut b, &bits);
        }
        Self(a, b)
    }
}

/// Normalizes recognized text into a cache-key form: trimmed, lowercased,
/// inner whitespace runs collapsed to single spaces. Purely a bucketing
/// transform — hits are still verified against the raw text.
pub fn normalize_query(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for word in text.split_whitespace() {
        if !out.is_empty() {
            out.push(' ');
        }
        out.extend(word.chars().flat_map(char::to_lowercase));
    }
    out
}

/// Which cache a query keys into, decided after ASR commit: voice-only
/// queries hit the QA answer cache, voice+vision queries the IMM cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheKey {
    /// QA answer cache key: the normalized recognized text.
    Qa(String),
    /// IMM cache key: normalized text plus the image's match signature.
    Imm(String, ImageSignature),
}

impl CacheKey {
    /// The key for a query whose ASR committed `recognized` with `image`
    /// attached.
    pub fn of(recognized: &str, image: Option<&GrayImage>) -> Self {
        let text = normalize_query(recognized);
        match image {
            Some(image) => CacheKey::Imm(text, ImageSignature::of(image)),
            None => CacheKey::Qa(text),
        }
    }
}

/// A cached post-ASR result: everything the final response needs that the
/// fresh ASR pass doesn't provide.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedAnswer {
    /// The **raw** recognized text the answer was computed from; lookups
    /// verify it matches exactly before serving the hit.
    pub recognized: String,
    /// The served outcome (action or answer).
    pub outcome: SiriusOutcome,
    /// The venue IMM matched, when the query carried an image.
    pub matched_venue: Option<String>,
}

impl CachedAnswer {
    /// Captures the cacheable part of a served response.
    pub fn of(response: &SiriusResponse) -> Self {
        Self {
            recognized: response.recognized.clone(),
            outcome: response.outcome.clone(),
            matched_venue: response.matched_venue.clone(),
        }
    }
}

/// The server's two result caches (QA + IMM) behind one lookup/fill
/// interface. See the module docs for keys and the correctness argument.
pub struct ResultCaches {
    qa: Cache<String, CachedAnswer>,
    imm: Cache<(String, ImageSignature), CachedAnswer>,
}

impl ResultCaches {
    /// Builds both caches with unregistered counters (tests, ad-hoc use).
    pub fn new(policy: CachePolicy) -> Self {
        Self {
            qa: Cache::new(policy.cache_config()),
            imm: Cache::new(policy.cache_config()),
        }
    }

    /// Builds both caches with counters registered under the server's
    /// scoped `cache.qa.*` / `cache.imm.*` names.
    pub fn register(policy: CachePolicy, metrics: &ServerMetrics) -> Self {
        let registry = metrics.registry();
        Self {
            qa: Cache::with_obs(
                policy.cache_config(),
                CacheObs::register(registry, &metrics.scoped("cache.qa")),
            ),
            imm: Cache::with_obs(
                policy.cache_config(),
                CacheObs::register(registry, &metrics.scoped("cache.imm")),
            ),
        }
    }

    /// Looks up `key`, returning a hit only when the cached answer was
    /// computed from exactly `recognized` (raw, unnormalized). A
    /// normalization collision is demoted to a miss so it can never change
    /// a served answer.
    pub fn lookup(&self, key: &CacheKey, recognized: &str) -> Option<CachedAnswer> {
        let cached = match key {
            CacheKey::Qa(text) => self.qa.get(text),
            CacheKey::Imm(text, sig) => self.imm.get(&(text.clone(), *sig)),
        }?;
        (cached.recognized == recognized).then_some(cached)
    }

    /// Stores a served answer under its key.
    pub fn fill(&self, key: CacheKey, answer: CachedAnswer) {
        match key {
            CacheKey::Qa(text) => self.qa.insert(text, answer),
            CacheKey::Imm(text, sig) => self.imm.insert((text, sig), answer),
        }
    }

    /// Invalidates both caches in O(1) (generation bump; see
    /// [`sirius_cache::Cache::invalidate_all`]).
    pub fn invalidate_all(&self) {
        self.qa.invalidate_all();
        self.imm.invalidate_all();
    }

    /// Hits and lookups summed over both caches.
    pub fn totals(&self) -> (u64, u64) {
        let hits = self.qa.obs().hit.get() + self.imm.obs().hit.get();
        let lookups = hits + self.qa.obs().miss.get() + self.imm.obs().miss.get();
        (hits, lookups)
    }
}

impl std::fmt::Debug for ResultCaches {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCaches")
            .field("qa_entries", &self.qa.len())
            .field("imm_entries", &self.imm.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_buckets_without_aliasing_served_answers() {
        assert_eq!(
            normalize_query("  Where IS  Pete's\tdiner "),
            "where is pete's diner"
        );
        assert_eq!(normalize_query(""), "");
        let caches = ResultCaches::new(CachePolicy::enabled());
        let key = CacheKey::of("Where is Pete's", None);
        caches.fill(
            key.clone(),
            CachedAnswer {
                recognized: "Where is Pete's".into(),
                outcome: SiriusOutcome::Answer(Some("on main street".into())),
                matched_venue: None,
            },
        );
        // Same normalized key, different raw text: structurally a hit in the
        // map, demoted to a miss by raw-text verification.
        assert_eq!(CacheKey::of("where is  pete's", None), key);
        assert!(caches.lookup(&key, "where is  pete's").is_none());
        assert!(caches.lookup(&key, "Where is Pete's").is_some());
    }

    #[test]
    fn image_queries_key_into_the_imm_cache() {
        let mut img = GrayImage::new(4, 4);
        img.set(1, 1, 0.5);
        let with = CacheKey::of("what is this", Some(&img));
        let without = CacheKey::of("what is this", None);
        assert!(matches!(with, CacheKey::Imm(..)));
        assert!(matches!(without, CacheKey::Qa(..)));
        // The signature tracks exact pixel bits.
        let mut img2 = GrayImage::new(4, 4);
        img2.set(1, 1, 0.5000001);
        assert_ne!(
            CacheKey::of("what is this", Some(&img2)),
            CacheKey::of("what is this", Some(&img))
        );
        assert_eq!(
            CacheKey::of("what is this", Some(&img.clone())),
            CacheKey::of("what is this", Some(&img))
        );
    }

    #[test]
    fn budget_scales_slo_by_relative_weight() {
        let metrics = ServerMetrics::new();
        let classes = vec![
            TenantClass::new("premium", Duration::from_millis(100), 4),
            TenantClass::new("best_effort", Duration::from_millis(100), 1),
        ];
        let table = TenantTable::build(&classes, &metrics);
        let (premium, _) = table.lookup("premium").unwrap();
        let (best_effort, _) = table.lookup("best_effort").unwrap();
        assert_eq!(table.budget(premium), Duration::from_millis(100));
        assert_eq!(table.budget(best_effort), Duration::from_millis(25));
        assert!(table.lookup("unknown").is_none());
    }

    #[test]
    fn tenant_metrics_register_scoped() {
        let metrics = ServerMetrics::new();
        let classes = vec![TenantClass::new("premium", Duration::from_millis(50), 4)];
        let table = TenantTable::build(&classes, &metrics);
        let (_, obs) = table.lookup("premium").unwrap();
        obs.accepted.inc();
        obs.sojourn.record(1_000);
        let snap = metrics.registry().snapshot();
        assert_eq!(snap.counter("tenant.premium.accepted"), Some(1));
        assert_eq!(snap.counter("tenant.premium.shed_deadline"), Some(0));
        assert_eq!(
            snap.histogram("tenant.premium.sojourn_ns").unwrap().count,
            1
        );
    }
}
