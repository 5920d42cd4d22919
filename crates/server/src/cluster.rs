//! The multi-replica sharded cluster front-end.
//!
//! [`SiriusCluster::start`] shards one trained [`Sirius`] into N replicas
//! ([`Sirius::shard_replicas`]) — each holding one QA-corpus shard and one
//! IMM-database shard, scattering retrieval across the full shard
//! directory — and runs every replica as its own [`SiriusServer`] with its
//! own stage pools and queues. A [`Request`] entering the cluster through
//! [`SiriusCluster::submit`] — the one door, as on a single server — is
//! routed to exactly one replica by the configured [`RoutePolicy`] and
//! admitted there under the replica's own rule
//! ([`SiriusServer::submit`]):
//!
//! - [`RoutePolicy::RoundRobin`] — a lock-free rotating cursor; perfectly
//!   fair in arrival count, blind to the per-class (VC/VQ/VIQ) service-time
//!   spread.
//! - [`RoutePolicy::ConsistentHash`] — FNV-1a over the input's audio (and
//!   image) bits onto a virtual-node ring, so identical inputs always land
//!   on the same replica and replica churn only remaps `1/N` of the key
//!   space.
//! - [`RoutePolicy::LeastSojourn`] — routes to the replica whose live
//!   [`SiriusServer::expected_sojourn`] estimate (queue backlog × EWMA
//!   service time, summed over stages) is smallest, ties broken toward the
//!   lowest index. This is the paper's load-balancing front-end driven by
//!   the same estimator the deadline-aware admission policy uses.
//!
//! Because every replica scatters its retrieval across **all** shards and
//! merges under a total order, the cluster's answers are bit-identical to
//! the unsharded single server no matter which replica serves a query —
//! routing is a pure performance decision. The equivalence is enforced by
//! `tests/cluster.rs` over the full 42-query input set for every
//! (replica count, policy) combination.
//!
//! Every replica registers its metrics into one shared [`Registry`] under a
//! `replica{i}.` prefix ([`ServerMetrics::in_registry`]), so one snapshot
//! exports the whole cluster and per-replica histograms can be merged into
//! cluster-level distributions ([`SiriusCluster::merged_histogram`])
//! without re-recording a single sample.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sirius::error::ClusterError;
use sirius::pipeline::{Sirius, SiriusInput, SiriusResponse};
use sirius_obs::{HistogramSnapshot, NoopRecorder, Recorder, Registry, Snapshot};

use crate::metrics::ServerMetrics;
use crate::qos::{fnv1a, FNV_OFFSET};
use crate::runtime::{Request, ServerConfig, SiriusServer, Ticket};

/// Virtual nodes per replica on the consistent-hash ring. Enough that the
/// key space splits near-evenly at small replica counts; the ring stays a
/// few hundred entries, so the binary search is free next to a query.
const VNODES: usize = 31;

/// The routing key of one input: FNV-1a over the audio sample bits and,
/// when present, the image dimensions and pixel bits. Bit-exact inputs —
/// the only equality the pipeline itself recognises — hash identically.
fn input_key(input: &SiriusInput) -> u64 {
    let mut h = FNV_OFFSET;
    for sample in &input.audio {
        fnv1a(&mut h, &sample.to_bits().to_le_bytes());
    }
    if let Some(image) = &input.image {
        fnv1a(&mut h, &(image.width() as u64).to_le_bytes());
        for pixel in image.data() {
            fnv1a(&mut h, &pixel.to_bits().to_le_bytes());
        }
    }
    h
}

/// How the cluster front-end picks a replica for each query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutePolicy {
    /// Rotate through the replicas in arrival order.
    RoundRobin,
    /// Hash the input onto a virtual-node ring: identical inputs always
    /// route to the same replica.
    ConsistentHash,
    /// Route to the replica with the smallest live expected-sojourn
    /// estimate (ties to the lowest index).
    LeastSojourn,
}

impl RoutePolicy {
    /// All routing policies, in the order the benches sweep them.
    pub const ALL: [RoutePolicy; 3] = [
        RoutePolicy::RoundRobin,
        RoutePolicy::ConsistentHash,
        RoutePolicy::LeastSojourn,
    ];
}

impl std::fmt::Display for RoutePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RoutePolicy::RoundRobin => "round_robin",
            RoutePolicy::ConsistentHash => "consistent_hash",
            RoutePolicy::LeastSojourn => "least_sojourn",
        })
    }
}

/// Sizing and routing of a [`SiriusCluster`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Replica runtimes to start (each holds one data shard).
    pub replicas: u32,
    /// Per-query replica selection policy.
    pub route: RoutePolicy,
    /// Stage pool/queue sizing of every replica.
    pub server: ServerConfig,
}

impl ClusterConfig {
    /// `replicas` round-robin-routed replicas with default stage sizing.
    pub fn new(replicas: u32) -> Self {
        Self {
            replicas,
            route: RoutePolicy::RoundRobin,
            server: ServerConfig::default(),
        }
    }

    /// Sets the routing policy.
    pub fn with_route(mut self, route: RoutePolicy) -> Self {
        self.route = route;
        self
    }

    /// Sets every replica's stage sizing.
    pub fn with_server(mut self, server: ServerConfig) -> Self {
        self.server = server;
        self
    }
}

/// Completion handle for a query admitted through the cluster: the
/// replica's [`Ticket`] plus which replica it was routed to, with errors
/// lifted into [`ClusterError::Replica`].
pub struct ClusterTicket {
    replica: usize,
    ticket: Ticket,
}

impl std::fmt::Debug for ClusterTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterTicket")
            .field("replica", &self.replica)
            .finish_non_exhaustive()
    }
}

impl ClusterTicket {
    /// The replica the query was routed to.
    pub fn replica(&self) -> usize {
        self.replica
    }

    /// The underlying replica ticket (for `wait_timeout`/`try_take`).
    pub fn ticket(&self) -> &Ticket {
        &self.ticket
    }

    /// Blocks until the query completes.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Replica`] wrapping whatever the serving replica
    /// failed with.
    pub fn wait(self) -> Result<SiriusResponse, ClusterError> {
        let replica = self.replica;
        self.ticket
            .wait()
            .map_err(|source| ClusterError::Replica { replica, source })
    }

    /// Blocks until the query completes or `timeout` elapses. On timeout
    /// the ticket is kept (the query is still in flight), mirroring
    /// [`Ticket::wait_timeout`]; the network front-end uses this to bound
    /// every connection's wait so a remote peer is always answered.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Replica`] wrapping the replica's error —
    /// [`SiriusError::Timeout`](sirius::error::SiriusError::Timeout) when
    /// `timeout` elapsed first.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<SiriusResponse, ClusterError> {
        let replica = self.replica;
        self.ticket
            .wait_timeout(timeout)
            .map_err(|source| ClusterError::Replica { replica, source })
    }
}

/// N sharded replica runtimes behind one routing front-end. See the module
/// docs for the routing policies and the bit-identity guarantee.
pub struct SiriusCluster {
    replicas: Vec<SiriusServer>,
    registry: Registry,
    route: RoutePolicy,
    cursor: AtomicUsize,
    /// `(point, replica)` virtual nodes, ascending by point.
    ring: Vec<(u64, usize)>,
}

impl SiriusCluster {
    /// Shards `sirius` into `config.replicas` replicas and starts one
    /// [`SiriusServer`] per shard, all exporting into one shared registry.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoReplicas`] when `config.replicas == 0`;
    /// [`ClusterError::InvalidShardCount`] from the data-plane shard
    /// builders.
    pub fn start(sirius: &Sirius, config: ClusterConfig) -> Result<Self, ClusterError> {
        Self::start_with_recorder(sirius, config, Arc::new(NoopRecorder))
    }

    /// [`SiriusCluster::start`] with a [`Recorder`] shared by every
    /// replica's workers.
    pub fn start_with_recorder(
        sirius: &Sirius,
        config: ClusterConfig,
        recorder: Arc<dyn Recorder>,
    ) -> Result<Self, ClusterError> {
        if config.replicas == 0 {
            return Err(ClusterError::NoReplicas);
        }
        let shards = sirius.shard_replicas(config.replicas)?;
        let registry = Registry::new();
        let replicas: Vec<SiriusServer> = shards
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                let metrics = ServerMetrics::in_registry(registry.clone(), &format!("replica{i}."));
                SiriusServer::start_with(
                    Arc::new(shard),
                    config.server.clone(),
                    Arc::clone(&recorder),
                    metrics,
                )
            })
            .collect();
        let mut ring = Vec::with_capacity(replicas.len() * VNODES);
        for replica in 0..replicas.len() {
            for vnode in 0..VNODES {
                let mut h = FNV_OFFSET;
                fnv1a(&mut h, &(replica as u64).to_le_bytes());
                fnv1a(&mut h, &(vnode as u64).to_le_bytes());
                ring.push((h, replica));
            }
        }
        ring.sort_unstable();
        Ok(Self {
            replicas,
            registry,
            route: config.route,
            cursor: AtomicUsize::new(0),
            ring,
        })
    }

    /// The replica runtimes, in shard order.
    pub fn replicas(&self) -> &[SiriusServer] {
        &self.replicas
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Always false — construction rejects zero replicas.
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The routing policy queries are dispatched with.
    pub fn route_policy(&self) -> RoutePolicy {
        self.route
    }

    /// The shared registry every replica's metrics live in (names carry
    /// `replica{i}.` prefixes).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The replica the configured policy routes `input` to, advancing any
    /// routing state (the round-robin cursor) exactly as a submit would.
    pub fn route(&self, input: &SiriusInput) -> usize {
        match self.route {
            RoutePolicy::RoundRobin => {
                self.cursor.fetch_add(1, Ordering::Relaxed) % self.replicas.len()
            }
            RoutePolicy::ConsistentHash => {
                let key = input_key(input);
                // First virtual node clockwise of the key, wrapping.
                let at = self.ring.partition_point(|&(point, _)| point < key);
                self.ring[at % self.ring.len()].1
            }
            RoutePolicy::LeastSojourn => {
                let mut best = 0;
                let mut best_sojourn = self.replicas[0].expected_sojourn();
                for (i, replica) in self.replicas.iter().enumerate().skip(1) {
                    let sojourn = replica.expected_sojourn();
                    // Strict `<` keeps ties on the lowest index.
                    if sojourn < best_sojourn {
                        best = i;
                        best_sojourn = sojourn;
                    }
                }
                best
            }
        }
    }

    /// Routes a request, then applies the chosen replica's admission rule
    /// ([`SiriusServer::submit`]): the router picks the replica —
    /// consistent hashing keeps repeated inputs on one replica,
    /// concentrating result-cache hits there — and the replica's live
    /// sojourn estimate against the request's class budget and deadline
    /// decides admission.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Replica`] wrapping the replica's admission error:
    /// [`UnknownTenantClass`](sirius::error::SiriusError::UnknownTenantClass),
    /// [`DeadlineUnmeetable`](sirius::error::SiriusError::DeadlineUnmeetable)
    /// (with the replica's retry hint),
    /// [`Overloaded`](sirius::error::SiriusError::Overloaded) or
    /// [`ShuttingDown`](sirius::error::SiriusError::ShuttingDown).
    pub fn submit(&self, request: impl Into<Request>) -> Result<ClusterTicket, ClusterError> {
        let request = request.into();
        let replica = self.route(&request.input);
        self.replicas[replica]
            .submit(request)
            .map(|ticket| ClusterTicket { replica, ticket })
            .map_err(|source| ClusterError::Replica { replica, source })
    }

    /// `submit(Request::from(input).with_deadline(deadline))`. A shim kept
    /// only because the frozen `benchmark/` sources call it; the next
    /// benchmark PR moves them to [`SiriusCluster::submit`] and deletes it.
    pub fn submit_with_deadline(
        &self,
        input: SiriusInput,
        deadline: Duration,
    ) -> Result<ClusterTicket, ClusterError> {
        self.submit(Request::from(input).with_deadline(deadline))
    }

    /// Submits and waits: the one-call synchronous client of the cluster.
    ///
    /// # Errors
    ///
    /// Any [`ClusterError`] from admission or the serving replica.
    pub fn process_sync(
        &self,
        request: impl Into<Request>,
    ) -> Result<SiriusResponse, ClusterError> {
        self.submit(request)?.wait()
    }

    /// Invalidates every replica's result caches (no-op when caching is
    /// off).
    pub fn invalidate_result_caches(&self) {
        for replica in &self.replicas {
            replica.invalidate_result_caches();
        }
    }

    /// Cluster-wide result-cache hits and lookups, summed over both caches
    /// of every replica (`replica{i}.cache.{qa,imm}.{hit,miss}`).
    pub fn cache_totals(&self, snapshot: &Snapshot) -> (u64, u64) {
        let hits = self.merged_counter(snapshot, "cache.qa.hit")
            + self.merged_counter(snapshot, "cache.imm.hit");
        let misses = self.merged_counter(snapshot, "cache.qa.miss")
            + self.merged_counter(snapshot, "cache.imm.miss");
        (hits, hits + misses)
    }

    /// The smallest live expected sojourn across the replicas — what a
    /// least-sojourn-routed query admitted right now is predicted to see.
    pub fn expected_sojourn(&self) -> Duration {
        self.replicas
            .iter()
            .map(SiriusServer::expected_sojourn)
            .min()
            .unwrap_or(Duration::ZERO)
    }

    /// Refreshes every replica's queue gauges and exports the whole
    /// cluster: one snapshot holding every replica's metrics side by side
    /// under their `replica{i}.` prefixes.
    pub fn metrics_snapshot(&self) -> Snapshot {
        // Each replica refreshes its own gauges into the shared registry;
        // the last snapshot therefore carries all of them, fresh.
        let mut snapshot = None;
        for replica in &self.replicas {
            snapshot = Some(replica.metrics_snapshot());
        }
        snapshot.expect("cluster has at least one replica")
    }

    /// Merges one histogram across the replicas: `replica{i}.{name}` for
    /// every `i`, combined exactly at bucket granularity
    /// ([`HistogramSnapshot::merge`]) into the cluster-level distribution.
    pub fn merged_histogram(&self, snapshot: &Snapshot, name: &str) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for i in 0..self.replicas.len() {
            if let Some(h) = snapshot.histogram(&format!("replica{i}.{name}")) {
                merged = merged.merge(h);
            }
        }
        merged
    }

    /// Sums one counter across the replicas (`replica{i}.{name}`).
    pub fn merged_counter(&self, snapshot: &Snapshot, name: &str) -> u64 {
        (0..self.replicas.len())
            .filter_map(|i| snapshot.counter(&format!("replica{i}.{name}")))
            .sum()
    }

    /// The cluster-level sojourn distribution of successful queries, merged
    /// from the replicas' `sojourn_ns` histograms.
    pub fn cluster_sojourn(&self) -> HistogramSnapshot {
        let snapshot = self.metrics_snapshot();
        self.merged_histogram(&snapshot, "sojourn_ns")
    }

    /// Stops admitting on every replica, drains every accepted query, and
    /// joins all workers, replica by replica in shard order.
    pub fn shutdown(self) {
        for replica in self.replicas {
            replica.shutdown();
        }
    }
}

impl std::fmt::Debug for SiriusCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SiriusCluster")
            .field("replicas", &self.replicas.len())
            .field("route", &self.route)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(seed: u8) -> SiriusInput {
        SiriusInput {
            audio: (0..64).map(|i| (i as f32 + seed as f32) / 100.0).collect(),
            image: None,
        }
    }

    #[test]
    fn ring_points_spread_over_every_replica() {
        // Construction-only invariants of the hash ring, no servers needed:
        // build the ring exactly as `start` does.
        for n in [1usize, 2, 4, 8] {
            let mut ring = Vec::with_capacity(n * VNODES);
            for replica in 0..n {
                for vnode in 0..VNODES {
                    let mut h = FNV_OFFSET;
                    fnv1a(&mut h, &(replica as u64).to_le_bytes());
                    fnv1a(&mut h, &(vnode as u64).to_le_bytes());
                    ring.push((h, replica));
                }
            }
            ring.sort_unstable();
            assert_eq!(ring.len(), n * VNODES);
            for replica in 0..n {
                assert_eq!(
                    ring.iter().filter(|&&(_, r)| r == replica).count(),
                    VNODES,
                    "replica {replica} of {n}"
                );
            }
            // No two virtual nodes collide (the ring is a strict order).
            assert!(ring.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }

    #[test]
    fn input_keys_are_deterministic_and_input_sensitive() {
        assert_eq!(input_key(&input(1)), input_key(&input(1)));
        assert_ne!(input_key(&input(1)), input_key(&input(2)));
        let with_image = SiriusInput {
            audio: input(1).audio,
            image: Some(sirius_vision::image::GrayImage::new(8, 8)),
        };
        assert_ne!(input_key(&with_image), input_key(&input(1)));
    }

    #[test]
    fn route_policies_display_as_snake_case() {
        assert_eq!(RoutePolicy::RoundRobin.to_string(), "round_robin");
        assert_eq!(RoutePolicy::ConsistentHash.to_string(), "consistent_hash");
        assert_eq!(RoutePolicy::LeastSojourn.to_string(), "least_sojourn");
        assert_eq!(RoutePolicy::ALL.len(), 3);
    }
}
