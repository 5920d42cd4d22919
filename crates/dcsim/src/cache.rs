//! Cache-hit-adjusted M/M/1 queueing model.
//!
//! The serving runtime's keyed result caches
//! (`sirius_server::ResultCaches`) deflect a fraction `h` of admitted
//! queries away from the Classify/IMM/QA backend: a hit is answered
//! straight out of the ASR stage at a near-constant cost `t_hit`, and only
//! the remaining `(1 − h)·λ` misses reach the backend queue. The M/M/1 picture of the server
//! therefore changes in two coupled ways:
//!
//! * **Offered load deflection** — the backend sees arrival rate
//!   `λ_eff = λ·(1 − h)`, so at fixed λ its utilization drops from `λ/μ` to
//!   `λ(1−h)/μ`.
//! * **Capacity multiplication** — conversely, the λ that drives the
//!   backend to any fixed utilization grows by `1/(1 − h)`; at the limit
//!   the cache multiplies sustainable throughput at a latency bound by the
//!   same factor (plus the slack the bound leaves for the cheap hits).
//!
//! The predicted mean sojourn mixes the two populations:
//!
//! ```text
//! W(λ) = h·t_hit + (1 − h) · 1/(μ − λ(1−h))
//! ```
//!
//! With `h = 0` this degenerates to the plain [`Mm1`] latency, which is the
//! anchor unit test of the module. [`CacheComparison`] lines the prediction
//! up against measured sweep points from the benchmark harness
//! (`bench_server`'s cache sweep) — the relative error column is the
//! deliverable, not a residual to hide.

use crate::queue::Mm1;

/// An M/M/1 backend fronted by a result cache with hit ratio `hit_ratio`
/// and per-hit service cost `hit_cost` seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedMm1 {
    /// The backend queue (Classify/IMM/QA path) serving cache misses.
    pub backend: Mm1,
    /// Fraction of admitted queries answered from the cache, in `[0, 1)`.
    pub hit_ratio: f64,
    /// Mean time to serve a cache hit, in seconds (ASR + lookup; no
    /// backend queueing).
    pub hit_cost: f64,
}

impl CachedMm1 {
    /// Creates a cached model over `backend`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= hit_ratio < 1` (a cache that answers everything
    /// leaves no backend to model) and `hit_cost >= 0`.
    pub fn new(backend: Mm1, hit_ratio: f64, hit_cost: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&hit_ratio),
            "hit ratio must be in [0, 1)"
        );
        assert!(hit_cost >= 0.0, "hit cost must be non-negative");
        Self {
            backend,
            hit_ratio,
            hit_cost,
        }
    }

    /// The arrival rate the backend actually sees at offered rate
    /// `lambda`: `λ·(1 − h)`.
    pub fn effective_lambda(&self, lambda: f64) -> f64 {
        lambda * (1.0 - self.hit_ratio)
    }

    /// Backend utilization at offered rate `lambda`:
    /// `ρ_eff = λ(1−h)/μ`.
    pub fn effective_rho(&self, lambda: f64) -> f64 {
        self.effective_lambda(lambda) / self.backend.mu
    }

    /// Predicted mean sojourn across both populations at offered rate
    /// `lambda`: `h·t_hit + (1−h)/(μ − λ(1−h))`. Infinite once the
    /// deflected load saturates the backend (`λ(1−h) ≥ μ`).
    pub fn latency(&self, lambda: f64) -> f64 {
        let miss = self.backend.latency(self.effective_lambda(lambda));
        if miss.is_infinite() {
            return f64::INFINITY;
        }
        self.hit_ratio * self.hit_cost + (1.0 - self.hit_ratio) * miss
    }

    /// Maximum offered rate λ that keeps the *backend* utilization at or
    /// below `rho`: `ρ·μ / (1 − h)` — the capacity multiplier `1/(1 − h)`
    /// over the uncached server.
    pub fn max_lambda_at_rho(&self, rho: f64) -> f64 {
        rho * self.backend.mu / (1.0 - self.hit_ratio)
    }

    /// Maximum offered rate that keeps the predicted mean sojourn at or
    /// below `latency_bound` seconds. Zero if the bound is unreachable even
    /// at zero load.
    pub fn max_throughput(&self, latency_bound: f64) -> f64 {
        if self.latency(0.0) > latency_bound {
            return 0.0;
        }
        // Solve h·t + (1−h)/(μ − λ(1−h)) = B for λ.
        let h = self.hit_ratio;
        let slack = latency_bound - h * self.hit_cost;
        // latency(0) <= bound guarantees slack >= (1−h)/μ > 0.
        (self.backend.mu - (1.0 - h) / slack).max(0.0) / (1.0 - h)
    }
}

/// One measured operating point of a cache-enabled server sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachePoint {
    /// Offered arrival rate λ in queries per second.
    pub lambda: f64,
    /// Measured aggregate cache hit ratio over the point's window.
    pub hit_ratio: f64,
    /// Measured mean sojourn time in seconds.
    pub mean_latency: f64,
}

/// One measured point lined up against the cached model's prediction,
/// evaluated at the point's own *measured* hit ratio (the model supplies
/// `μ` and `t_hit`; the workload supplies `h`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheRow {
    /// Offered arrival rate λ in queries per second.
    pub lambda: f64,
    /// The point's measured hit ratio.
    pub hit_ratio: f64,
    /// Backend utilization `λ(1−h)/μ` under the model.
    pub effective_rho: f64,
    /// Measured mean sojourn seconds.
    pub measured: f64,
    /// Predicted mean sojourn seconds; infinite past backend saturation.
    pub predicted: f64,
    /// |measured − predicted| / predicted, when the prediction is finite
    /// and positive.
    pub relative_error: Option<f64>,
}

/// A swept-load comparison of measured cache-enabled sojourn times against
/// the [`CachedMm1`] prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheComparison {
    /// The backend service rate μ (queries/second).
    pub mu: f64,
    /// The per-hit cost `t_hit` used for every row, in seconds.
    pub hit_cost: f64,
    /// One row per measured operating point, in input order.
    pub rows: Vec<CacheRow>,
}

impl CacheComparison {
    /// Lines `points` up against a backend with service rate `backend.mu`
    /// and per-hit cost `hit_cost`, evaluating each row at its own measured
    /// hit ratio.
    ///
    /// # Panics
    ///
    /// Panics if any point's hit ratio is outside `[0, 1)` or
    /// `hit_cost < 0`.
    pub fn against(backend: Mm1, hit_cost: f64, points: &[CachePoint]) -> Self {
        let rows = points
            .iter()
            .map(|p| {
                let model = CachedMm1::new(backend, p.hit_ratio, hit_cost);
                let predicted = model.latency(p.lambda);
                let relative_error = (predicted.is_finite() && predicted > 0.0)
                    .then(|| (p.mean_latency - predicted).abs() / predicted);
                CacheRow {
                    lambda: p.lambda,
                    hit_ratio: p.hit_ratio,
                    effective_rho: model.effective_rho(p.lambda),
                    measured: p.mean_latency,
                    predicted,
                    relative_error,
                }
            })
            .collect();
        Self {
            mu: backend.mu,
            hit_cost,
            rows,
        }
    }

    /// The worst finite relative error across rows, if any row has one.
    pub fn worst_relative_error(&self) -> Option<f64> {
        self.rows
            .iter()
            .filter_map(|r| r.relative_error)
            .fold(None, |acc, e| Some(acc.map_or(e, |a: f64| a.max(e))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_hit_ratio_reduces_to_plain_mm1() {
        let backend = Mm1 { mu: 10.0 };
        let cached = CachedMm1::new(backend, 0.0, 0.002);
        for lambda in [0.0, 2.5, 7.0, 9.9, 11.0] {
            let plain = backend.latency(lambda);
            let mixed = cached.latency(lambda);
            if plain.is_infinite() {
                assert_eq!(mixed, f64::INFINITY);
            } else {
                assert!((mixed - plain).abs() < 1e-12, "λ={lambda}");
            }
        }
        assert!((cached.max_throughput(0.5) - backend.max_throughput(0.5)).abs() < 1e-9);
    }

    #[test]
    fn half_hit_ratio_doubles_capacity_at_fixed_backend_utilization() {
        let backend = Mm1 { mu: 10.0 };
        let plain = CachedMm1::new(backend, 0.0, 0.0);
        let cached = CachedMm1::new(backend, 0.5, 0.0);
        let rho = 0.8;
        assert!((cached.max_lambda_at_rho(rho) / plain.max_lambda_at_rho(rho) - 2.0).abs() < 1e-12);
        // The same λ loads the cached backend half as hard.
        assert!((cached.effective_rho(8.0) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn latency_mixes_hit_and_miss_populations() {
        let backend = Mm1 { mu: 10.0 }; // 100 ms bare service
        let cached = CachedMm1::new(backend, 0.5, 0.004);
        // λ = 10 saturates the plain server but the cached backend sees
        // λ_eff = 5, so W = 0.5·0.004 + 0.5·(1/(10−5)) = 0.102.
        assert_eq!(backend.latency(10.0), f64::INFINITY);
        assert!((cached.latency(10.0) - 0.102).abs() < 1e-12);
        // Saturation moves out to λ(1−h) ≥ μ, i.e. λ ≥ 20.
        assert_eq!(cached.latency(20.0), f64::INFINITY);
        assert!(cached.latency(19.9).is_finite());
    }

    #[test]
    fn max_throughput_solves_the_mixed_latency_bound() {
        let cached = CachedMm1::new(Mm1 { mu: 10.0 }, 0.5, 0.004);
        let bound = 0.25;
        let lambda = cached.max_throughput(bound);
        assert!(lambda > 0.0);
        assert!((cached.latency(lambda) - bound).abs() < 1e-9);
        // An unreachable bound yields zero.
        assert_eq!(cached.max_throughput(0.01), 0.0);
    }

    #[test]
    fn comparison_rows_line_up_and_report_error() {
        let points = [
            CachePoint {
                lambda: 4.0,
                hit_ratio: 0.0,
                mean_latency: 0.18,
            },
            CachePoint {
                lambda: 12.0,
                hit_ratio: 0.5,
                mean_latency: 0.14,
            },
            CachePoint {
                lambda: 25.0,
                hit_ratio: 0.5,
                mean_latency: 0.9,
            },
        ];
        let cmp = CacheComparison::against(Mm1 { mu: 10.0 }, 0.004, &points);
        assert_eq!(cmp.rows.len(), 3);
        // Row 0: uncached point matches the plain model exactly.
        assert!((cmp.rows[0].predicted - 1.0 / 6.0).abs() < 1e-12);
        // Row 1: deflected load keeps the point stable.
        assert!((cmp.rows[1].effective_rho - 0.6).abs() < 1e-12);
        assert!(cmp.rows[1].predicted.is_finite());
        // Row 2: λ_eff = 12.5 > μ — saturated, no relative error.
        assert_eq!(cmp.rows[2].predicted, f64::INFINITY);
        assert!(cmp.rows[2].relative_error.is_none());
        let worst = cmp.worst_relative_error().unwrap();
        assert!(worst > 0.0 && worst.is_finite());
    }

    #[test]
    #[should_panic(expected = "hit ratio")]
    fn full_hit_ratio_is_rejected() {
        CachedMm1::new(Mm1 { mu: 10.0 }, 1.0, 0.001);
    }
}
