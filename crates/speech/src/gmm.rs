//! Diagonal-covariance Gaussian Mixture Models for acoustic scoring.
//!
//! This mirrors CMU Sphinx's acoustic scoring, the paper's Sirius Suite
//! "GMM" kernel: "the major computation of the algorithm lies in three
//! nested loops that iteratively score the feature vector against the
//! training data ... in the forms of a means vector, a pre-calculated
//! (precs) vector, a weight vector, and a factor vector" (Section 4.3.4).
//! [`Gmm::log_likelihood`] is exactly that triple loop; `sirius-suite`
//! re-exposes it as the standalone kernel.

use rand::Rng;
use sirius_codec::{DecodeError, Decoder, Encoder};

use crate::features::Frames;

/// Most mixture components a [`Gmm`] may have: the scorers keep one
/// component's log density per slot of a fixed stack array.
pub const MAX_COMPONENTS: usize = 64;

/// Terms this far (in nats) below the largest are dropped from the
/// log-sum-exp: `e^-20 = 2e-9` is under a thirtieth of an f32 ulp of the
/// sum, which is at least 1.
const LSE_CUTOFF: f32 = -20.0;

/// `ln Σ e^l` over per-component log densities — the one log-sum-exp every
/// GMM scorer in the crate ends in, which is what makes the AoS, SoA and
/// eager paths bit-identical to each other. The largest term contributes
/// exactly 1 without a call to `exp`, terms under [`LSE_CUTOFF`] contribute
/// nothing, so a padding lane of `-inf` is free.
fn log_sum_exp(logs: &[f32]) -> f32 {
    let mut best = f32::NEG_INFINITY;
    for &l in logs {
        if l > best {
            best = l;
        }
    }
    if best == f32::NEG_INFINITY {
        return best;
    }
    let mut acc = 0.0f32;
    for &l in logs {
        let d = l - best;
        if d == 0.0 {
            acc += 1.0;
        } else if d > LSE_CUTOFF {
            acc += d.exp();
        }
    }
    best + acc.ln()
}

/// One diagonal-covariance Gaussian mixture.
#[derive(Debug, Clone, PartialEq)]
pub struct Gmm {
    dim: usize,
    /// Flattened means, `means[m * dim + d]`.
    means: Vec<f32>,
    /// Pre-calculated precisions `1 / (2 * var)`, same layout as means.
    precs: Vec<f32>,
    /// Log mixture weights, one per component.
    weights: Vec<f32>,
    /// Per-component log normalization factor
    /// `-0.5 * (dim * ln(2π) + Σ ln var_d)`.
    factors: Vec<f32>,
}

impl Gmm {
    /// Creates a GMM from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if the slices are inconsistent with `num_components * dim`, or
    /// if any variance is non-positive.
    pub fn from_params(dim: usize, means: Vec<f32>, vars: Vec<f32>, weights: Vec<f32>) -> Self {
        let m = weights.len();
        assert!(
            m <= MAX_COMPONENTS,
            "at most {MAX_COMPONENTS} mixture components supported"
        );
        assert_eq!(means.len(), m * dim, "means length");
        assert_eq!(vars.len(), m * dim, "vars length");
        assert!(vars.iter().all(|&v| v > 0.0), "variances must be positive");
        let precs: Vec<f32> = vars.iter().map(|&v| 1.0 / (2.0 * v)).collect();
        let factors: Vec<f32> = (0..m)
            .map(|k| {
                let log_det: f32 = vars[k * dim..(k + 1) * dim].iter().map(|v| v.ln()).sum();
                -0.5 * (dim as f32 * (2.0 * std::f32::consts::PI).ln() + log_det)
            })
            .collect();
        let wsum: f32 = weights.iter().sum();
        let weights = weights.iter().map(|w| (w / wsum).max(1e-10).ln()).collect();
        Self {
            dim,
            means,
            precs,
            weights,
            factors,
        }
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of mixture components.
    pub fn num_components(&self) -> usize {
        self.weights.len()
    }

    /// Log-likelihood of one feature vector — the Sirius Suite GMM hot loop.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `x.len() != self.dim()`.
    pub fn log_likelihood(&self, x: &[f32]) -> f32 {
        debug_assert_eq!(x.len(), self.dim);
        let mut logs = [0f32; MAX_COMPONENTS];
        let logs = &mut logs[..self.num_components()];
        for (k, slot) in logs.iter_mut().enumerate() {
            let mut dist = 0.0f32;
            let base = k * self.dim;
            for d in 0..self.dim {
                let diff = x[d] - self.means[base + d];
                dist += diff * diff * self.precs[base + d];
            }
            *slot = self.weights[k] + self.factors[k] - dist;
        }
        log_sum_exp(logs)
    }

    /// Fits a GMM with `num_components` components to `data` using k-means
    /// initialization followed by `em_iters` EM iterations.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or `num_components` is 0 or > 64.
    pub fn fit(data: &Frames, num_components: usize, em_iters: usize, rng: &mut impl Rng) -> Self {
        assert!(!data.is_empty(), "cannot fit a GMM to no data");
        assert!(
            (1..=MAX_COMPONENTS).contains(&num_components),
            "components must be in 1..={MAX_COMPONENTS}"
        );
        let dim = data.dim();
        let n = data.len();
        // k-means++-lite initialization: random distinct points.
        let mut means: Vec<f32> = Vec::with_capacity(num_components * dim);
        for _ in 0..num_components {
            let idx = rng.gen_range(0..n);
            means.extend_from_slice(data.row(idx));
        }
        let mut assignments = vec![0usize; n];
        for _ in 0..4 {
            // Assign.
            for (i, x) in data.rows().enumerate() {
                let mut best = (f32::INFINITY, 0usize);
                for k in 0..num_components {
                    let d: f32 = (0..dim)
                        .map(|j| {
                            let diff = x[j] - means[k * dim + j];
                            diff * diff
                        })
                        .sum();
                    if d < best.0 {
                        best = (d, k);
                    }
                }
                assignments[i] = best.1;
            }
            // Update.
            let mut counts = vec![0usize; num_components];
            let mut sums = vec![0.0f32; num_components * dim];
            for (i, x) in data.rows().enumerate() {
                let k = assignments[i];
                counts[k] += 1;
                for j in 0..dim {
                    sums[k * dim + j] += x[j];
                }
            }
            for k in 0..num_components {
                if counts[k] > 0 {
                    for j in 0..dim {
                        means[k * dim + j] = sums[k * dim + j] / counts[k] as f32;
                    }
                } else {
                    let idx = rng.gen_range(0..n);
                    means[k * dim..(k + 1) * dim].copy_from_slice(data.row(idx));
                }
            }
        }
        // Initial variances and weights from the hard assignment.
        let mut vars = vec![0.0f32; num_components * dim];
        let mut counts = vec![0usize; num_components];
        for (i, x) in data.rows().enumerate() {
            let k = assignments[i];
            counts[k] += 1;
            for j in 0..dim {
                let diff = x[j] - means[k * dim + j];
                vars[k * dim + j] += diff * diff;
            }
        }
        for k in 0..num_components {
            for j in 0..dim {
                vars[k * dim + j] = (vars[k * dim + j] / counts[k].max(1) as f32).max(1e-2);
            }
        }
        let weights: Vec<f32> = counts
            .iter()
            .map(|&c| (c.max(1)) as f32 / n as f32)
            .collect();
        let mut gmm = Self::from_params(dim, means, vars, weights);

        // EM refinement.
        for _ in 0..em_iters {
            gmm = gmm.em_step(data);
        }
        gmm
    }

    /// Serializes the model (see [`sirius_codec`]).
    pub fn encode(&self, e: &mut Encoder) {
        e.tag("gmm");
        e.u32(self.dim as u32);
        e.f32_slice(&self.means);
        e.f32_slice(&self.precs);
        e.f32_slice(&self.weights);
        e.f32_slice(&self.factors);
    }

    /// Deserializes a model previously written by [`Gmm::encode`].
    ///
    /// # Errors
    ///
    /// Fails on malformed or inconsistent bytes.
    pub fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.tag("gmm")?;
        let dim = d.u32()? as usize;
        let means = d.f32_vec()?;
        let precs = d.f32_vec()?;
        let weights = d.f32_vec()?;
        let factors = d.f32_vec()?;
        if dim == 0
            || means.len() != precs.len()
            || weights.len() != factors.len()
            || means.len() != weights.len() * dim
        {
            return Err(DecodeError {
                message: "inconsistent GMM dimensions".into(),
                offset: 0,
            });
        }
        if weights.len() > MAX_COMPONENTS {
            return Err(DecodeError {
                message: format!(
                    "GMM has {} components, at most {MAX_COMPONENTS} supported",
                    weights.len()
                ),
                offset: 0,
            });
        }
        Ok(Self {
            dim,
            means,
            precs,
            weights,
            factors,
        })
    }

    /// Builds the dimension-major scoring view of this mixture (see
    /// [`GmmSoa`]).
    pub fn soa(&self) -> GmmSoa {
        let m = self.num_components();
        let dim = self.dim;
        let groups = m.div_ceil(LANES);
        let mut means_t = vec![[0.0f32; LANES]; groups * dim];
        let mut precs_t = vec![[0.0f32; LANES]; groups * dim];
        let mut offsets = vec![[f32::NEG_INFINITY; LANES]; groups];
        for k in 0..m {
            let (g, lane) = (k / LANES, k % LANES);
            for d in 0..dim {
                means_t[g * dim + d][lane] = self.means[k * dim + d];
                precs_t[g * dim + d][lane] = self.precs[k * dim + d];
            }
            offsets[g][lane] = self.weights[k] + self.factors[k];
        }
        GmmSoa {
            dim,
            means_t,
            precs_t,
            offsets,
        }
    }

    /// One EM iteration over `data`, returning the updated model.
    fn em_step(&self, data: &Frames) -> Self {
        let m = self.num_components();
        let dim = self.dim;
        let n = data.len();
        let mut resp_sum = vec![0.0f64; m];
        let mut mean_acc = vec![0.0f64; m * dim];
        let mut var_acc = vec![0.0f64; m * dim];
        let mut logs = vec![0.0f32; m];
        for x in data.rows() {
            // Per-component log densities.
            let mut best = f32::NEG_INFINITY;
            for k in 0..m {
                let mut dist = 0.0f32;
                for d in 0..dim {
                    let diff = x[d] - self.means[k * dim + d];
                    dist += diff * diff * self.precs[k * dim + d];
                }
                logs[k] = self.weights[k] + self.factors[k] - dist;
                best = best.max(logs[k]);
            }
            let denom: f32 = logs.iter().map(|l| (l - best).exp()).sum();
            for k in 0..m {
                let r = f64::from((logs[k] - best).exp() / denom);
                resp_sum[k] += r;
                for d in 0..dim {
                    mean_acc[k * dim + d] += r * f64::from(x[d]);
                }
            }
            let _ = n;
        }
        let new_means: Vec<f32> = (0..m * dim)
            .map(|i| (mean_acc[i] / resp_sum[i / dim].max(1e-10)) as f32)
            .collect();
        // Second pass for variances against the new means.
        for x in data.rows() {
            let mut best = f32::NEG_INFINITY;
            for k in 0..m {
                let mut dist = 0.0f32;
                for d in 0..dim {
                    let diff = x[d] - self.means[k * dim + d];
                    dist += diff * diff * self.precs[k * dim + d];
                }
                logs[k] = self.weights[k] + self.factors[k] - dist;
                best = best.max(logs[k]);
            }
            let denom: f32 = logs.iter().map(|l| (l - best).exp()).sum();
            for k in 0..m {
                let r = f64::from((logs[k] - best).exp() / denom);
                for d in 0..dim {
                    let diff = f64::from(x[d]) - f64::from(new_means[k * dim + d]);
                    var_acc[k * dim + d] += r * diff * diff;
                }
            }
        }
        let new_vars: Vec<f32> = (0..m * dim)
            .map(|i| ((var_acc[i] / resp_sum[i / dim].max(1e-10)) as f32).max(1e-2))
            .collect();
        let total: f64 = resp_sum.iter().sum();
        let new_weights: Vec<f32> = resp_sum.iter().map(|&r| (r / total) as f32).collect();
        Self::from_params(dim, new_means, new_vars, new_weights)
    }
}

/// Components scored side by side by [`GmmSoa`]: the trained mixtures have
/// 8, and 8 f32 lanes are two SSE (one AVX) registers.
const LANES: usize = 8;

/// Dimension-major (SoA) scoring view of a [`Gmm`].
///
/// The paper's GPU port transposes the GMM parameters so that "coalesced
/// global memory accesses" walk all components together (Section 4.4.1);
/// on a CPU the same transposition turns the inner loop into independent
/// accumulators that vectorize. Components are laid out in groups of
/// [`LANES`] fixed-width lanes, so the distance loop has a trip count the
/// compiler knows; a lane past the last component has zero precision and
/// a `-inf` offset, which the log-sum-exp drops. Each component's squared
/// distance still accumulates over the dimensions in ascending order, and
/// the same [`log_sum_exp`] runs over components in the same order as
/// [`Gmm::log_likelihood`], so the result is **bit-identical** to the AoS
/// triple loop — the lazy decoder's equivalence gate is exact.
#[derive(Debug, Clone)]
pub struct GmmSoa {
    dim: usize,
    /// Transposed means, `means_t[g * dim + d][lane]` for component
    /// `g * LANES + lane`.
    means_t: Vec<[f32; LANES]>,
    /// Transposed precisions, same layout.
    precs_t: Vec<[f32; LANES]>,
    /// Per-component `log weight + log normalizer`, `offsets[g][lane]`.
    offsets: Vec<[f32; LANES]>,
}

impl GmmSoa {
    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Log-likelihood of one feature vector; bit-identical to
    /// [`Gmm::log_likelihood`] on the source mixture.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `x.len() != self.dim()`.
    pub fn log_likelihood(&self, x: &[f32]) -> f32 {
        debug_assert_eq!(x.len(), self.dim);
        let mut logs = [0.0f32; MAX_COMPONENTS];
        let logs = &mut logs[..self.offsets.len() * LANES];
        let groups = self
            .means_t
            .chunks_exact(self.dim)
            .zip(self.precs_t.chunks_exact(self.dim));
        for ((out, offsets), (means, precs)) in
            logs.chunks_exact_mut(LANES).zip(&self.offsets).zip(groups)
        {
            let mut dists = [0.0f32; LANES];
            for ((&xd, mean), prec) in x.iter().zip(means).zip(precs) {
                for lane in 0..LANES {
                    let diff = xd - mean[lane];
                    dists[lane] += diff * diff * prec[lane];
                }
            }
            for lane in 0..LANES {
                out[lane] = offsets[lane] - dists[lane];
            }
        }
        log_sum_exp(logs)
    }

    /// Scores this state against many frames, writing `out[t]` for each
    /// frame `t`. The interchanged loop order (state outer, frames inner)
    /// keeps the mixture parameters hot in cache while streaming frames;
    /// every value is bit-identical to the per-frame [`Gmm`] loop.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != frames.len()`.
    pub fn log_likelihood_batch(&self, frames: &Frames, out: &mut [f32]) {
        assert_eq!(out.len(), frames.len(), "output length mismatch");
        for (slot, frame) in out.iter_mut().zip(frames.rows()) {
            *slot = self.log_likelihood(frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn single_gaussian() -> Gmm {
        Gmm::from_params(2, vec![0.0, 0.0], vec![1.0, 1.0], vec![1.0])
    }

    #[test]
    fn log_likelihood_matches_closed_form() {
        let g = single_gaussian();
        // log N(0; 0, I) in 2D = -log(2π) ≈ -1.8379.
        let l = g.log_likelihood(&[0.0, 0.0]);
        assert!(
            (l - (-(2.0 * std::f32::consts::PI).ln())).abs() < 1e-4,
            "{l}"
        );
        // One unit away: subtract 0.5.
        let l1 = g.log_likelihood(&[1.0, 0.0]);
        assert!((l - l1 - 0.5).abs() < 1e-4);
    }

    #[test]
    fn likelihood_decreases_with_distance() {
        let g = single_gaussian();
        let l0 = g.log_likelihood(&[0.0, 0.0]);
        let l3 = g.log_likelihood(&[3.0, 3.0]);
        assert!(l0 > l3);
    }

    #[test]
    fn mixture_weights_normalize() {
        // Two identical components with asymmetric raw weights must equal a
        // single component (weights are normalized internally).
        let two = Gmm::from_params(1, vec![0.0, 0.0], vec![1.0, 1.0], vec![3.0, 1.0]);
        let one = Gmm::from_params(1, vec![0.0], vec![1.0], vec![1.0]);
        assert!((two.log_likelihood(&[0.5]) - one.log_likelihood(&[0.5])).abs() < 1e-5);
    }

    #[test]
    fn fit_recovers_two_clusters() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut data = Vec::new();
        for i in 0..400 {
            let c = if i % 2 == 0 { -4.0 } else { 4.0 };
            data.push(vec![
                c + rng.gen_range(-0.5..0.5),
                c + rng.gen_range(-0.5..0.5),
            ]);
        }
        let g = Gmm::fit(&Frames::from_rows(&data), 2, 5, &mut rng);
        // Points near the cluster centers must score far better than the gap.
        let near = g.log_likelihood(&[4.0, 4.0]);
        let gap = g.log_likelihood(&[0.0, 0.0]);
        assert!(near > gap + 5.0, "near={near} gap={gap}");
    }

    #[test]
    fn fit_separates_classes_for_classification() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let sample = |c: f32, rng: &mut ChaCha8Rng| -> Vec<f32> {
            (0..4).map(|_| c + rng.gen_range(-0.4..0.4)).collect()
        };
        let a_data: Vec<Vec<f32>> = (0..200).map(|_| sample(-2.0, &mut rng)).collect();
        let b_data: Vec<Vec<f32>> = (0..200).map(|_| sample(2.0, &mut rng)).collect();
        let ga = Gmm::fit(&Frames::from_rows(&a_data), 2, 3, &mut rng);
        let gb = Gmm::fit(&Frames::from_rows(&b_data), 2, 3, &mut rng);
        let mut correct = 0;
        for _ in 0..100 {
            let x = sample(-2.0, &mut rng);
            if ga.log_likelihood(&x) > gb.log_likelihood(&x) {
                correct += 1;
            }
            let y = sample(2.0, &mut rng);
            if gb.log_likelihood(&y) > ga.log_likelihood(&y) {
                correct += 1;
            }
        }
        assert!(correct >= 195, "classification accuracy {correct}/200");
    }

    #[test]
    #[should_panic(expected = "variances must be positive")]
    fn zero_variance_rejected() {
        let _ = Gmm::from_params(1, vec![0.0], vec![0.0], vec![1.0]);
    }

    /// `from_params` refuses more than [`MAX_COMPONENTS`]; so must `decode`,
    /// or the scorers' fixed-width arrays are indexed out of range.
    #[test]
    fn decode_rejects_more_components_than_the_scorers_hold() {
        let encode = |m: usize| {
            let mut e = Encoder::new();
            e.tag("gmm");
            e.u32(1);
            e.f32_slice(&vec![0.0; m]);
            e.f32_slice(&vec![0.5; m]);
            e.f32_slice(&vec![-1.0; m]);
            e.f32_slice(&vec![-1.0; m]);
            e.into_bytes()
        };
        let bytes = encode(MAX_COMPONENTS);
        let g = Gmm::decode(&mut Decoder::new(&bytes)).expect("64 components decode");
        assert!(g.log_likelihood(&[0.0]).is_finite());
        assert!(g.soa().log_likelihood(&[0.0]).is_finite());
        let bytes = encode(MAX_COMPONENTS + 1);
        let err = Gmm::decode(&mut Decoder::new(&bytes)).unwrap_err();
        assert!(err.message.contains("at most 64"), "{}", err.message);
    }

    #[test]
    fn accessors() {
        let g = single_gaussian();
        assert_eq!(g.dim(), 2);
        assert_eq!(g.num_components(), 1);
    }
}

#[cfg(test)]
mod soa_tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The dimension-major view must reproduce the AoS triple loop exactly
    /// (same bits), across component counts and dimensions.
    #[test]
    fn soa_scoring_is_bit_identical() {
        for seed in 0u64..12 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let m = 1 + (seed as usize % 8);
            let dim = 2 + (seed as usize % 25);
            let data: Vec<Vec<f32>> = (0..m * 16)
                .map(|_| (0..dim).map(|_| rng.gen_range(-3.0f32..3.0)).collect())
                .collect();
            let g = Gmm::fit(&Frames::from_rows(&data), m, 1, &mut rng);
            let soa = g.soa();
            for _ in 0..32 {
                let x: Vec<f32> = (0..dim).map(|_| rng.gen_range(-4.0f32..4.0)).collect();
                assert_eq!(
                    g.log_likelihood(&x).to_bits(),
                    soa.log_likelihood(&x).to_bits(),
                    "seed {seed}"
                );
            }
        }
    }

    /// What the shared log-sum-exp replaced: `exp` of every component.
    fn naive_log_likelihood(logs: &[f32]) -> f32 {
        let best = logs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        best + logs.iter().map(|l| (l - best).exp()).sum::<f32>().ln()
    }

    #[test]
    fn log_sum_exp_is_within_1e5_of_the_naive_form() {
        let mut rng = ChaCha8Rng::seed_from_u64(2024);
        for case in 0..2000 {
            let m = 1 + case % 8;
            // Spreads from "all terms matter" to "only the max does".
            let spread = [0.5f32, 5.0, 25.0, 200.0][case % 4];
            let logs: Vec<f32> = (0..m).map(|_| -rng.gen_range(0.0..spread) - 40.0).collect();
            let (got, want) = (log_sum_exp(&logs), naive_log_likelihood(&logs));
            assert!((got - want).abs() <= 1e-5, "case {case}: {got} vs {want}");
        }
        // A tie for the maximum counts both terms; `-inf` lanes are free.
        let tie = log_sum_exp(&[-3.0, -3.0, f32::NEG_INFINITY]);
        assert!((tie - (-3.0 + 2.0f32.ln())).abs() < 1e-6, "{tie}");
        assert_eq!(log_sum_exp(&[f32::NEG_INFINITY; 4]), f32::NEG_INFINITY);
        assert_eq!(log_sum_exp(&[]), f32::NEG_INFINITY);
    }

    /// Past one lane group the SoA view pads to the next multiple of the
    /// lane width; the padding must not leak into the score.
    #[test]
    fn soa_scoring_is_bit_identical_across_lane_groups() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for m in [7usize, 8, 9, 16, 17, 63, MAX_COMPONENTS] {
            let dim = 5;
            let means = (0..m * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let vars = (0..m * dim).map(|_| rng.gen_range(0.2f32..1.5)).collect();
            let weights = (0..m).map(|_| rng.gen_range(0.1f32..1.0)).collect();
            let g = Gmm::from_params(dim, means, vars, weights);
            let soa = g.soa();
            for _ in 0..16 {
                let x: Vec<f32> = (0..dim).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
                assert_eq!(
                    g.log_likelihood(&x).to_bits(),
                    soa.log_likelihood(&x).to_bits(),
                    "m {m}"
                );
            }
        }
    }

    #[test]
    fn batch_scoring_matches_per_frame() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let data: Vec<Vec<f32>> = (0..64)
            .map(|_| (0..6).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
            .collect();
        let g = Gmm::fit(&Frames::from_rows(&data), 4, 2, &mut rng);
        let soa = g.soa();
        let frames: Vec<Vec<f32>> = (0..23)
            .map(|_| (0..6).map(|_| rng.gen_range(-3.0f32..3.0)).collect())
            .collect();
        let mut out = vec![0.0f32; frames.len()];
        soa.log_likelihood_batch(&Frames::from_rows(&frames), &mut out);
        for (t, frame) in frames.iter().enumerate() {
            assert_eq!(out[t].to_bits(), g.log_likelihood(frame).to_bits());
        }
        assert_eq!(soa.dim(), 6);
    }
}

#[cfg(test)]
mod property_tests {
    use super::{Frames, Gmm};
    use rand::{Rng as _, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The mixture log-likelihood stays finite and decreases for far-away
    /// queries, across many fitted models and query points.
    #[test]
    fn log_likelihood_respects_mixture_bounds() {
        for seed in 0u64..24 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let x: Vec<f32> = (0..4).map(|_| rng.gen_range(-5.0f32..5.0)).collect();
            let data: Vec<Vec<f32>> = (0..40)
                .map(|_| (0..4).map(|_| rng.gen_range(-3.0f32..3.0)).collect())
                .collect();
            let g = Gmm::fit(&Frames::from_rows(&data), 3, 1, &mut rng);
            let l = g.log_likelihood(&x);
            assert!(l.is_finite(), "seed {seed}");
            // Shifting the query far away must not increase likelihood.
            let far: Vec<f32> = x.iter().map(|v| v + 100.0).collect();
            assert!(g.log_likelihood(&far) < l, "seed {seed}");
        }
    }

    /// Likelihood is invariant to the order of data during k-means
    /// init only up to RNG; but scoring itself must be deterministic.
    #[test]
    fn scoring_is_deterministic() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let data: Vec<Vec<f32>> = (0..30)
            .map(|_| (0..4).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
            .collect();
        let g = Gmm::fit(&Frames::from_rows(&data), 2, 1, &mut rng);
        for _ in 0..32 {
            let x: Vec<f32> = (0..4).map(|_| rng.gen_range(-5.0f32..5.0)).collect();
            assert_eq!(g.log_likelihood(&x), g.log_likelihood(&x));
        }
    }
}
