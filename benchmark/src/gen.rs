//! Seeded input generation: a SplitMix64 stream, shuffles, exact Zipf
//! shares and a Poisson arrival schedule of fixed count. The same seed gives
//! the same inputs; the program under test sees only what these produce.

use std::time::Duration;

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `0..n` in a seeded order.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        self.shuffle(&mut order);
        order
    }
}

/// How many of `total` requests go to each of `n` ranks under Zipf(`s`):
/// rank `r` gets its share `1 / (r + 1)^s` of the total, rounded by largest
/// remainder so that the counts add up. Exact shares rather than draws, so
/// that every seed offers the same mix and differs only in its order.
pub fn zipf_quotas(n: usize, s: f64, total: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
    let scale = total as f64 / weights.iter().sum::<f64>();
    let mut quotas: Vec<usize> = weights.iter().map(|w| (w * scale) as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    by_remainder.sort_by(|&a, &b| {
        let frac = |r: usize| weights[r] * scale - quotas[r] as f64;
        frac(b).total_cmp(&frac(a)).then(a.cmp(&b))
    });
    let short = total - quotas.iter().sum::<usize>();
    for &rank in by_remainder.iter().take(short) {
        quotas[rank] += 1;
    }
    quotas
}

/// Due times, from the start of the window, of `rate_qps × window` arrivals
/// placed uniformly at random in it: a Poisson process conditioned on its
/// count. Fixing the count keeps run-to-run differences in throughput from
/// being differences in how many requests the schedule happened to hold.
pub fn arrival_schedule(rng: &mut Rng, rate_qps: f64, window: Duration) -> Vec<Duration> {
    let arrivals = (rate_qps * window.as_secs_f64()).round() as usize;
    let mut due: Vec<Duration> = (0..arrivals).map(|_| window.mul_f64(rng.unit())).collect();
    due.sort_unstable();
    due
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_quotas_add_up_and_fall_with_rank() {
        for total in [0, 1, 84, 800, 1200] {
            let quotas = zipf_quotas(42, 1.1, total);
            assert_eq!(quotas.len(), 42);
            assert_eq!(quotas.iter().sum::<usize>(), total);
            assert!(quotas.windows(2).all(|w| w[0] >= w[1]), "{quotas:?}");
        }
        let quotas = zipf_quotas(42, 1.1, 800);
        assert!(
            (200..220).contains(&quotas[0]),
            "rank 0 holds about 26 %: {quotas:?}"
        );
        assert!(quotas[41] >= 3);
    }

    #[test]
    fn arrival_schedule_is_deterministic_sorted_and_at_its_rate() {
        let window = Duration::from_secs(30);
        let schedule = |seed| arrival_schedule(&mut Rng::new(seed), 40.0, window);
        let a = schedule(9999);
        assert_eq!(a, schedule(9999));
        assert_ne!(a, schedule(424_242));
        assert_eq!(a.len(), 1200);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|d| *d < window));
        // Exponential gaps: their standard deviation is near their mean.
        let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!(
            (0.8..1.2).contains(&(var.sqrt() / mean)),
            "cv {}",
            var.sqrt() / mean
        );
    }

    #[test]
    fn permutation_holds_every_index_once() {
        let mut order = Rng::new(7).permutation(42);
        assert_ne!(order, (0..42).collect::<Vec<_>>());
        order.sort_unstable();
        assert_eq!(order, (0..42).collect::<Vec<_>>());
    }
}
