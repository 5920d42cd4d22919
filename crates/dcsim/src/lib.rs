//! # sirius-dcsim
//!
//! Datacenter-level modeling for the Sirius reproduction (Hauswald et al.,
//! ASPLOS 2015): M/M/1 queueing (Figure 17), the Google TCO model
//! (Table 7, Figure 18), homogeneous and heterogeneous datacenter design
//! (Figure 19, Tables 8/9), query-level results (Figure 20), and the
//! scalability gap (Figures 7a and 21).

#![warn(missing_docs)]

pub mod cache;
pub mod compare;
pub mod design;
pub mod gap;
pub mod partition;
pub mod power;
pub mod queue;
pub mod sim;
pub mod tco;

pub use cache::{CacheComparison, CachePoint, CacheRow, CachedMm1};
pub use compare::{ClusterComparison, ClusterPoint, ClusterRow};
pub use design::{
    design_space, heterogeneous_design, homogeneous_design, homogeneous_throughput_improvement,
    query_level_metrics, DesignPoint, Objective, QueryClass,
};
pub use queue::{throughput_improvement_at_load, Mm1};
pub use tco::{monthly_tco, normalized_dc_tco, ServerConfig, TcoParams};
