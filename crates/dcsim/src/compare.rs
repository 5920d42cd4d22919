//! Measured scale-out against the paper's scale-up.
//!
//! Tables 8/9 of the paper weigh adding machines against accelerating
//! each one. With the sharded serving cluster (`sirius-server`'s
//! `SiriusCluster`) the scale-out side can be *measured*: drive N replicas
//! to saturation and record throughput per point. [`ClusterComparison`]
//! normalises each point against its routing policy's own single-replica
//! baseline and restates it in machines of a homogeneous accelerated
//! design.

use serde::{Deserialize, Serialize};

/// One measured operating point of a replica-cluster throughput sweep: an
/// N-replica sharded cluster (`sirius-server`'s `SiriusCluster`) driven to
/// saturation under one routing policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterPoint {
    /// Replica count N.
    pub replicas: u32,
    /// Routing policy name (`round_robin`, `consistent_hash`,
    /// `least_sojourn`).
    pub route: String,
    /// Measured saturated throughput in queries per second.
    pub qps: f64,
    /// Measured median sojourn in milliseconds.
    pub p50_ms: f64,
    /// Measured p99 sojourn in milliseconds.
    pub p99_ms: f64,
}

/// One cluster measurement normalized against its own single-replica
/// baseline and against an accelerated per-machine design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterRow {
    /// Replica count N.
    pub replicas: u32,
    /// Routing policy name.
    pub route: String,
    /// Measured saturated throughput in queries per second.
    pub qps: f64,
    /// Throughput speedup over the same policy's 1-replica point; `None`
    /// when that baseline was not measured.
    pub speedup: Option<f64>,
    /// Scaling efficiency `speedup / N` (1 is perfectly linear scale-out;
    /// the shared-memory replicas contend for cores, so real sweeps sit
    /// below it).
    pub efficiency: Option<f64>,
    /// How many machines of the accelerated homogeneous design (Table 8's
    /// per-machine throughput improvement) deliver the same throughput as
    /// these N multicore replicas: `speedup / accel_improvement`. Below N
    /// means the accelerated scale-up beats this scale-out.
    pub accelerated_equivalent: Option<f64>,
    /// Measured median sojourn in milliseconds.
    pub p50_ms: f64,
    /// Measured p99 sojourn in milliseconds.
    pub p99_ms: f64,
}

/// Measured N-replica scaling lined up against the paper's datacenter
/// designs. Speedup-vs-N is computed per routing policy against that
/// policy's own 1-replica baseline; the `accelerated_equivalent` column
/// restates each point in
/// machines of a Table 8 homogeneous accelerated design
/// (`sirius_dcsim::design::homogeneous_throughput_improvement`), which is
/// the paper's scale-out-vs-scale-up trade.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterComparison {
    /// Per-machine throughput improvement of the accelerated design the
    /// rows are restated against (1 for a multicore-only datacenter).
    pub accel_improvement: f64,
    /// One row per measured point, in input order.
    pub rows: Vec<ClusterRow>,
}

impl ClusterComparison {
    /// Normalizes `points` per routing policy against that policy's
    /// 1-replica point, restating throughput in machines of an accelerated
    /// design with per-machine improvement `accel_improvement`.
    pub fn against(points: &[ClusterPoint], accel_improvement: f64) -> Self {
        let baseline = |route: &str| {
            points
                .iter()
                .find(|p| p.replicas == 1 && p.route == route && p.qps > 0.0)
                .map(|p| p.qps)
        };
        let rows = points
            .iter()
            .map(|p| {
                let speedup = baseline(&p.route).map(|base| p.qps / base);
                ClusterRow {
                    replicas: p.replicas,
                    route: p.route.clone(),
                    qps: p.qps,
                    speedup,
                    efficiency: speedup.map(|s| s / f64::from(p.replicas.max(1))),
                    accelerated_equivalent: (accel_improvement > 0.0)
                        .then_some(())
                        .and(speedup)
                        .map(|s| s / accel_improvement),
                    p50_ms: p.p50_ms,
                    p99_ms: p.p99_ms,
                }
            })
            .collect();
        Self {
            accel_improvement,
            rows,
        }
    }

    /// The measured speedup of one `(replicas, route)` point.
    pub fn speedup_at(&self, replicas: u32, route: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.replicas == replicas && r.route == route)
            .and_then(|r| r.speedup)
    }

    /// Worst (smallest) scaling efficiency over the multi-replica points —
    /// single-replica rows are trivially 1 and excluded.
    pub fn worst_efficiency(&self) -> Option<f64> {
        self.rows
            .iter()
            .filter(|r| r.replicas > 1)
            .filter_map(|r| r.efficiency)
            .min_by(|a, b| a.partial_cmp(b).expect("finite efficiencies"))
    }

    /// Best (largest) measured speedup over all points.
    pub fn best_speedup(&self) -> Option<f64> {
        self.rows
            .iter()
            .filter_map(|r| r.speedup)
            .max_by(|a, b| a.partial_cmp(b).expect("finite speedups"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster_point(replicas: u32, route: &str, qps: f64) -> ClusterPoint {
        ClusterPoint {
            replicas,
            route: route.into(),
            qps,
            p50_ms: 10.0,
            p99_ms: 25.0,
        }
    }

    #[test]
    fn cluster_scaling_normalizes_per_route() {
        let points = vec![
            cluster_point(1, "round_robin", 10.0),
            cluster_point(2, "round_robin", 18.0),
            cluster_point(4, "round_robin", 30.0),
            cluster_point(1, "least_sojourn", 12.0),
            cluster_point(4, "least_sojourn", 42.0),
        ];
        let cmp = ClusterComparison::against(&points, 2.5);
        assert_eq!(cmp.rows.len(), 5);
        // Speedups are against the same route's own baseline.
        assert!((cmp.speedup_at(2, "round_robin").unwrap() - 1.8).abs() < 1e-12);
        assert!((cmp.speedup_at(4, "least_sojourn").unwrap() - 3.5).abs() < 1e-12);
        // Efficiency = speedup / N; worst over the multi-replica points.
        assert!((cmp.rows[2].efficiency.unwrap() - 0.75).abs() < 1e-12);
        assert!((cmp.worst_efficiency().unwrap() - 0.75).abs() < 1e-12);
        assert!((cmp.best_speedup().unwrap() - 3.5).abs() < 1e-12);
        // 3.5x over one multicore replica ≙ 1.4 machines of a 2.5x design.
        assert!((cmp.rows[4].accelerated_equivalent.unwrap() - 1.4).abs() < 1e-12);
        // The trivial baselines carry speedup 1, efficiency 1.
        assert!((cmp.rows[0].speedup.unwrap() - 1.0).abs() < 1e-12);
        assert!((cmp.rows[0].efficiency.unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cluster_rows_without_a_baseline_carry_no_speedup() {
        // No 1-replica point for this route, and a degenerate accelerated
        // improvement: nothing to normalize against.
        let points = vec![cluster_point(4, "consistent_hash", 30.0)];
        let cmp = ClusterComparison::against(&points, 0.0);
        assert_eq!(cmp.rows[0].speedup, None);
        assert_eq!(cmp.rows[0].efficiency, None);
        assert_eq!(cmp.rows[0].accelerated_equivalent, None);
        assert!(cmp.worst_efficiency().is_none());
        assert!(cmp.best_speedup().is_none());
        assert!(cmp.speedup_at(1, "consistent_hash").is_none());
        // A zero-throughput "baseline" is not a baseline either.
        let broken = ClusterComparison::against(
            &[
                cluster_point(1, "round_robin", 0.0),
                cluster_point(2, "round_robin", 18.0),
            ],
            2.5,
        );
        assert_eq!(broken.rows[1].speedup, None);
    }
}
