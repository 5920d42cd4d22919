//! M/M/1 queueing model for leaf servers (paper Figure 17).
//!
//! The paper models each server as an M/M/1 queue: at load `ρ = λ/μ` the
//! mean sojourn (queueing + service) time is `W = 1 / (μ − λ)`. An
//! accelerated server with service-rate speedup `S` can then absorb more
//! load at the same latency; at 100% load the throughput gain degenerates to
//! `S` itself (Figure 16 is "a lower bound of throughput improvement for a
//! queuing system").

/// An M/M/1 queue with service rate `mu` (queries/second).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mm1 {
    /// Service rate μ in queries per second.
    pub mu: f64,
}

impl Mm1 {
    /// Creates a queue from the mean service time in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `service_time <= 0`.
    pub fn from_service_time(service_time: f64) -> Self {
        assert!(service_time > 0.0, "service time must be positive");
        Self {
            mu: 1.0 / service_time,
        }
    }

    /// Mean latency (waiting + service) at arrival rate `lambda`.
    ///
    /// Returns `f64::INFINITY` for `lambda >= mu` (unstable queue).
    pub fn latency(&self, lambda: f64) -> f64 {
        if lambda >= self.mu {
            f64::INFINITY
        } else {
            1.0 / (self.mu - lambda)
        }
    }

    /// Mean latency at utilization `rho = lambda / mu`.
    pub fn latency_at_load(&self, rho: f64) -> f64 {
        self.latency(rho * self.mu)
    }

    /// Maximum arrival rate that keeps mean latency at or below
    /// `latency_bound` seconds. Zero if the bound is below the bare service
    /// time.
    pub fn max_throughput(&self, latency_bound: f64) -> f64 {
        if latency_bound <= 0.0 {
            return 0.0;
        }
        (self.mu - 1.0 / latency_bound).max(0.0)
    }
}

/// Throughput improvement of a server accelerated by `speedup`, relative to
/// the baseline server running at utilization `rho`, under the constraint
/// that mean latency may not exceed the baseline's (paper Figure 17).
///
/// Closed form: the baseline at load `ρ` has latency `1/(μ(1−ρ))`; the
/// accelerated server (rate `Sμ`) matching that latency absorbs
/// `λ' = Sμ − μ(1−ρ)`, so the improvement is `(S − (1 − ρ)) / ρ`.
///
/// # Panics
///
/// Panics unless `0 < rho <= 1` and `speedup >= 1`.
pub fn throughput_improvement_at_load(speedup: f64, rho: f64) -> f64 {
    assert!(rho > 0.0 && rho <= 1.0, "load must be in (0, 1]");
    assert!(speedup >= 1.0, "speedup must be >= 1");
    (speedup - (1.0 - rho)) / rho
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_matches_closed_form() {
        let q = Mm1 { mu: 10.0 };
        assert!((q.latency(0.0) - 0.1).abs() < 1e-12);
        assert!((q.latency(5.0) - 0.2).abs() < 1e-12);
        assert_eq!(q.latency(10.0), f64::INFINITY);
        assert_eq!(q.latency(12.0), f64::INFINITY);
    }

    #[test]
    fn latency_is_monotone_in_load() {
        let q = Mm1::from_service_time(0.05);
        let mut prev = 0.0;
        for i in 1..20 {
            let rho = i as f64 / 20.0;
            let l = q.latency_at_load(rho);
            assert!(l > prev, "latency must grow with load");
            prev = l;
        }
    }

    #[test]
    fn max_throughput_inverts_latency() {
        let q = Mm1 { mu: 20.0 };
        let bound = q.latency(15.0);
        assert!((q.max_throughput(bound) - 15.0).abs() < 1e-9);
        assert_eq!(q.max_throughput(1.0 / 25.0), 0.0);
    }

    #[test]
    fn improvement_equals_speedup_at_full_load() {
        // Figure 16 is the ρ = 1 lower bound of Figure 17.
        for s in [2.0, 10.0, 54.7] {
            assert!((throughput_improvement_at_load(s, 1.0) - s).abs() < 1e-12);
        }
    }

    #[test]
    fn improvement_grows_as_load_drops() {
        // Paper: "the lower the server load, the bigger impact latency
        // reduction would have on throughput improvement."
        let mut prev = 0.0;
        for rho in [0.9, 0.7, 0.5, 0.3, 0.1] {
            let imp = throughput_improvement_at_load(10.0, rho);
            assert!(imp > prev, "rho={rho}");
            prev = imp;
        }
        assert!(throughput_improvement_at_load(10.0, 0.1) > 90.0);
    }

    #[test]
    #[should_panic(expected = "load must be in")]
    fn zero_load_panics() {
        let _ = throughput_improvement_at_load(2.0, 0.0);
    }
}
