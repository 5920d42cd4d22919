//! # sirius-server
//!
//! The staged service runtime for the Sirius pipeline: the monolithic
//! [`Sirius::process`] walk decomposed into per-service worker pools
//! connected by bounded MPMC queues ([`queue`]), with one admission door
//! ([`SiriusServer::submit`] over a [`Request`]) and graceful shutdown.
//! Every pool runs one stage *step* on the same per-query job and hands
//! the job to one shared router, which forwards it to the next stage's
//! queue or completes its ticket (see [`runtime`]).
//!
//! The paper's datacenter analysis (Figures 16/17, Tables 8/9) models each
//! Sirius service as a queueing server; this crate is that serving system
//! made concrete, so queueing delay, throughput and overload behaviour can
//! be *measured* (by the repo benchmark, `benchmark/`, and by
//! `bench_server`'s scale-out and cache sweeps against
//! `sirius_dcsim::{ClusterComparison, CacheComparison}`) instead of only
//! computed from a queueing model.
//!
//! Outputs are bit-identical to the synchronous pipeline: each step invokes
//! the typed stage method ([`sirius::stage`]) the serial walk calls at that
//! point, on the same inputs, in the same order per query; the runtime only
//! changes *where* they run.
//!
//! ```no_run
//! use std::sync::Arc;
//! use sirius::pipeline::{Sirius, SiriusConfig, SiriusInput};
//! use sirius_server::{ServerConfig, SiriusServer};
//!
//! let sirius = Arc::new(Sirius::build(SiriusConfig::default()));
//! let server = SiriusServer::start(Arc::clone(&sirius), ServerConfig::with_workers(4));
//! let input = SiriusInput { audio: vec![0.0; 16_000], image: None };
//! match server.process_sync(input) {
//!     Ok(response) => println!("{:?}", response.outcome),
//!     Err(err) => eprintln!("shed: {err}"),
//! }
//! server.shutdown();
//! ```
//!
//! [`Sirius::process`]: sirius::pipeline::Sirius::process

#![warn(missing_docs)]

pub mod batch;
mod cache;
pub mod cluster;
pub mod metrics;
pub mod net;
mod pool;
pub mod qos;
pub mod queue;
pub mod runtime;
pub mod stream;
pub mod wire;

pub use batch::{spawn_batch_collector, BatchHandle, BatchPolicy, BatchSession};
pub use cluster::{ClusterConfig, ClusterTicket, RoutePolicy, SiriusCluster};
pub use metrics::{BatchObs, ServerMetrics, StageObs, StreamObs, STAGES};
pub use net::{http_get, NetClient, NetClientError, NetConfig, NetMetrics, NetServer};
pub use qos::{
    CacheKey, CachePolicy, CachedAnswer, ImageSignature, ResultCaches, TenantClass, TenantObs,
};
pub use runtime::{Request, ServerConfig, SiriusServer, StageConfig, Ticket};
pub use stream::StreamPolicy;
pub use wire::{
    read_frame, Frame, FrameRead, SubmitFrame, WireFault, MAX_FRAME_BODY, PROTOCOL_VERSION,
};

// The runtime shares one trained `Sirius` across every worker thread; this
// compile-time assertion is the whole safety argument.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<sirius::pipeline::Sirius>();
};
