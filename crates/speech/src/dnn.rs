//! Feed-forward deep neural network for acoustic scoring.
//!
//! The paper's DNN-based ASR (Kaldi / RWTH RASR) replaces GMM emission
//! scoring with the posteriors of a feed-forward network: "scoring amounts
//! to one forward pass through the network" (Section 2.3.1). This module
//! implements a small MLP with ReLU hidden layers and a softmax output,
//! trained by mini-batch SGD with cross-entropy loss; the forward pass is
//! the Sirius Suite "DNN" kernel (a sequence of matrix multiplications).
//!
//! Serving and training share one kernel, [`sirius_kernels::gemm_xwt_bias`]:
//! [`Dnn::forward_batch_into`] is one GEMM per layer, and an SGD step is
//! three per layer (forward, weight gradient, back-propagation), each
//! summing in the order of the per-example loop it replaced, so the
//! trained weights are the same bits.

use rand::Rng;
use sirius_codec::{DecodeError, Decoder, Encoder};

/// One fully-connected layer: `y = W x + b`.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Input width.
    pub inputs: usize,
    /// Output width.
    pub outputs: usize,
    /// Row-major weights, `w[o * inputs + i]`.
    pub weights: Vec<f32>,
    /// Biases, one per output.
    pub biases: Vec<f32>,
}

impl Layer {
    /// Creates a layer with He-initialized weights.
    pub fn new(inputs: usize, outputs: usize, rng: &mut impl Rng) -> Self {
        let scale = (2.0 / inputs as f32).sqrt();
        let weights = (0..inputs * outputs)
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        Self {
            inputs,
            outputs,
            weights,
            biases: vec![0.0; outputs],
        }
    }

    /// Dense matrix-vector product — the DNN kernel's inner loop.
    pub fn forward(&self, x: &[f32], out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.outputs, 0.0);
        self.forward_into(x, out);
    }

    /// Like [`Layer::forward`] but writes into a caller-provided slice, so
    /// the hot path allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics in debug builds on shape mismatches.
    pub fn forward_into(&self, x: &[f32], out: &mut [f32]) {
        debug_assert_eq!(x.len(), self.inputs);
        debug_assert_eq!(out.len(), self.outputs);
        for (o, slot) in out.iter_mut().enumerate() {
            let row = &self.weights[o * self.inputs..(o + 1) * self.inputs];
            let mut acc = self.biases[o];
            for (w, v) in row.iter().zip(x) {
                acc += w * v;
            }
            *slot = acc;
        }
    }
}

/// A feed-forward network: input → hidden (ReLU)* → output (softmax).
#[derive(Debug, Clone, PartialEq)]
pub struct Dnn {
    layers: Vec<Layer>,
}

/// Training hyper-parameters for [`Dnn::train`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DnnTrainConfig {
    /// Number of epochs over the training data.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// Mini-batch size.
    pub batch_size: usize,
}

impl Default for DnnTrainConfig {
    fn default() -> Self {
        Self {
            epochs: 8,
            learning_rate: 0.05,
            batch_size: 16,
        }
    }
}

impl Dnn {
    /// Creates a network with the given layer sizes, e.g. `[130, 128, 128, 81]`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are supplied.
    pub fn new(sizes: &[usize], rng: &mut impl Rng) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let layers = sizes
            .windows(2)
            .map(|w| Layer::new(w[0], w[1], rng))
            .collect();
        Self { layers }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, |l| l.inputs)
    }

    /// Output dimensionality (number of classes / HMM states).
    pub fn output_dim(&self) -> usize {
        self.layers.last().map_or(0, |l| l.outputs)
    }

    /// Number of hidden layers (the paper's "depth of a DNN").
    pub fn num_hidden_layers(&self) -> usize {
        self.layers.len().saturating_sub(1)
    }

    /// Total number of weights, a proxy for the kernel's FLOP count.
    pub fn num_parameters(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weights.len() + l.biases.len())
            .sum()
    }

    /// One forward pass, returning the softmax class posteriors.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        self.forward_internal(x).pop().expect("at least one layer")
    }

    /// Log-posteriors `ln p(class | x)`, used for hybrid DNN/HMM scoring.
    pub fn log_posteriors(&self, x: &[f32]) -> Vec<f32> {
        self.forward(x).iter().map(|p| p.max(1e-12).ln()).collect()
    }

    /// Forward pass retaining every layer's post-activation output.
    fn forward_internal(&self, x: &[f32]) -> Vec<Vec<f32>> {
        let mut acts: Vec<Vec<f32>> = Vec::with_capacity(self.layers.len());
        for (i, layer) in self.layers.iter().enumerate() {
            let mut out = Vec::new();
            layer.forward(acts.last().map_or(x, Vec::as_slice), &mut out);
            if i + 1 == self.layers.len() {
                softmax_in_place(&mut out);
            } else {
                for v in &mut out {
                    *v = v.max(0.0); // ReLU
                }
            }
            acts.push(out);
        }
        acts
    }

    /// Trains on `(features, label)` pairs with mini-batch SGD.
    pub fn train(
        &mut self,
        data: &[(Vec<f32>, usize)],
        config: DnnTrainConfig,
        rng: &mut impl Rng,
    ) {
        let n = data.len();
        if n == 0 {
            return;
        }
        let mut order: Vec<usize> = (0..n).collect();
        let mut scratch = TrainScratch::default();
        for _ in 0..config.epochs {
            // Fisher–Yates shuffle.
            for i in (1..n).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            for chunk in order.chunks(config.batch_size) {
                self.sgd_batch(data, chunk, config.learning_rate, &mut scratch);
            }
        }
    }

    /// One SGD step over the examples `idxs`, as three GEMMs per layer on
    /// [`sirius_kernels::gemm_xwt_bias`]: the forward pass, the weight
    /// gradient `Δᵀ · input` and the back-propagation `Δ · W`. Each
    /// gradient element sums its per-example terms in ascending example
    /// order and each back-propagated element in ascending output order,
    /// the orders of the per-example test oracle `sgd_batch_reference`, so
    /// the two train the same bits.
    fn sgd_batch(
        &mut self,
        data: &[(Vec<f32>, usize)],
        idxs: &[usize],
        lr: f32,
        scratch: &mut TrainScratch,
    ) {
        let rows = idxs.len();
        let nl = self.layers.len();
        let TrainScratch {
            x,
            acts,
            delta,
            next,
            delta_t,
            wt,
            grad_w,
            grad_b,
            zeros,
        } = scratch;
        acts.resize_with(nl, Vec::new);
        grad_w.resize_with(nl, Vec::new);
        grad_b.resize_with(nl, Vec::new);
        let widest = self.layers.iter().map(|l| l.inputs).max().unwrap_or(0);
        zeros.resize(widest, 0.0);

        x.clear();
        for &i in idxs {
            x.extend_from_slice(&data[i].0);
        }
        for (li, layer) in self.layers.iter().enumerate() {
            let (done, rest) = acts.split_at_mut(li);
            let input: &[f32] = if li == 0 { x } else { &done[li - 1] };
            let out = sized(&mut rest[0], rows * layer.outputs);
            let wt = sized(wt, layer.weights.len());
            sirius_kernels::transpose_into(&layer.weights, layer.outputs, layer.inputs, wt);
            sirius_kernels::gemm_xwt_bias(
                input,
                rows,
                layer.inputs,
                wt,
                layer.outputs,
                &layer.biases,
                out,
            );
            if li + 1 == nl {
                for row in out.chunks_exact_mut(layer.outputs) {
                    softmax_in_place(row);
                }
            } else {
                for v in out.iter_mut() {
                    *v = v.max(0.0); // ReLU
                }
            }
        }

        // Delta at output: softmax + cross-entropy → p - y.
        delta.clear();
        delta.extend_from_slice(&acts[nl - 1]);
        let classes = self.output_dim();
        for (r, &i) in idxs.iter().enumerate() {
            delta[r * classes + data[i].1] -= 1.0;
        }
        // The oracle skips zero deltas; these GEMMs add their `±0` products,
        // which changes nothing: every accumulator starts at `+0.0`, and a
        // sum that starts at `+0.0` is never `-0.0`.
        for li in (0..nl).rev() {
            let layer = &self.layers[li];
            let input: &[f32] = if li == 0 { x } else { &acts[li - 1] };
            let dt = sized(delta_t, layer.outputs * rows);
            sirius_kernels::transpose_into(delta, rows, layer.outputs, dt);
            let gw = sized(&mut grad_w[li], layer.weights.len());
            sirius_kernels::gemm_xwt_bias(
                dt,
                layer.outputs,
                rows,
                input,
                layer.inputs,
                &zeros[..layer.inputs],
                gw,
            );
            let gb = sized(&mut grad_b[li], layer.outputs);
            gb.fill(0.0);
            for row in delta.chunks_exact(layer.outputs) {
                for (g, d) in gb.iter_mut().zip(row) {
                    *g += d;
                }
            }
            if li > 0 {
                // Propagate delta through W^T and the ReLU derivative.
                let nx = sized(next, rows * layer.inputs);
                sirius_kernels::gemm_xwt_bias(
                    delta,
                    rows,
                    layer.outputs,
                    &layer.weights,
                    layer.inputs,
                    &zeros[..layer.inputs],
                    nx,
                );
                for (nv, a) in nx.iter_mut().zip(&acts[li - 1]) {
                    if *a <= 0.0 {
                        *nv = 0.0;
                    }
                }
                std::mem::swap(delta, next);
            }
        }
        let scale = lr / rows as f32;
        for (li, layer) in self.layers.iter_mut().enumerate() {
            for (w, g) in layer.weights.iter_mut().zip(&grad_w[li]) {
                *w -= scale * g;
            }
            for (b, g) in layer.biases.iter_mut().zip(&grad_b[li]) {
                *b -= scale * g;
            }
        }
    }

    /// Classification accuracy over labeled data.
    pub fn accuracy(&self, data: &[(Vec<f32>, usize)]) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct = data
            .iter()
            .filter(|(x, label)| {
                let p = self.forward(x);
                argmax(&p) == *label
            })
            .count();
        correct as f64 / data.len() as f64
    }

    /// Cross-entropy loss over labeled data.
    pub fn loss(&self, data: &[(Vec<f32>, usize)]) -> f64 {
        data.iter()
            .map(|(x, label)| -f64::from(self.forward(x)[*label].max(1e-12).ln()))
            .sum::<f64>()
            / data.len().max(1) as f64
    }
}

/// Pre-transposed weight matrices for [`Dnn::forward_batch_into`].
///
/// The GEMM kernel wants weights in `inputs x outputs` layout so the inner
/// axpy update walks contiguous memory; building that layout once per
/// network (instead of per frame) keeps it off the hot path.
#[derive(Debug, Clone, PartialEq)]
pub struct DnnPlan {
    /// Per-layer transposed weights, row-major `inputs x outputs`.
    wt: Vec<Vec<f32>>,
}

/// Reusable intermediate-activation buffers for [`Dnn::forward_batch_into`].
///
/// Holding these outside the call lets a scorer run thousands of forward
/// passes without touching the allocator.
#[derive(Debug, Clone, Default)]
pub struct DnnScratch {
    a: Vec<f32>,
    b: Vec<f32>,
}

/// Buffers of one SGD step, kept across the batches of [`Dnn::train`] so
/// that only the first batch allocates.
#[derive(Debug, Default)]
struct TrainScratch {
    /// The batch's inputs, row-major `rows x input_dim`.
    x: Vec<f32>,
    /// Per layer, its post-activation outputs, `rows x outputs`.
    acts: Vec<Vec<f32>>,
    /// The current layer's error, `rows x outputs`.
    delta: Vec<f32>,
    /// The error back-propagated to the layer below, `rows x inputs`.
    next: Vec<f32>,
    /// `delta` transposed, `outputs x rows`.
    delta_t: Vec<f32>,
    /// The current layer's weights transposed, `inputs x outputs`.
    wt: Vec<f32>,
    /// Per layer, the weight gradient, `outputs x inputs`.
    grad_w: Vec<Vec<f32>>,
    /// Per layer, the bias gradient.
    grad_b: Vec<Vec<f32>>,
    /// The zero bias of the two backward GEMMs.
    zeros: Vec<f32>,
}

/// `v` resized to `len`, its old contents left for the caller to overwrite.
fn sized(v: &mut Vec<f32>, len: usize) -> &mut [f32] {
    v.resize(len, 0.0);
    v
}

impl Dnn {
    /// Builds the transposed-weight plan consumed by
    /// [`Dnn::forward_batch_into`]. Invalidated by further training.
    pub fn plan(&self) -> DnnPlan {
        DnnPlan {
            wt: self
                .layers
                .iter()
                .map(|l| sirius_kernels::transpose(&l.weights, l.outputs, l.inputs))
                .collect(),
        }
    }

    /// Batched forward pass over `rows` stacked input vectors (row-major
    /// `rows x input_dim`), writing `rows x output_dim` softmax posteriors
    /// into `out`. One GEMM per layer instead of `rows` matrix-vector
    /// products; every row is **bit-identical** to [`Dnn::forward`] on the
    /// corresponding input (see [`sirius_kernels::gemm_xwt_bias`]).
    ///
    /// # Panics
    ///
    /// Panics if `x` does not hold `rows` input vectors or if `plan` was
    /// built for a different architecture.
    pub fn forward_batch_into(
        &self,
        x: &[f32],
        rows: usize,
        plan: &DnnPlan,
        scratch: &mut DnnScratch,
        out: &mut Vec<f32>,
    ) {
        let nl = self.layers.len();
        assert_eq!(x.len(), rows * self.input_dim(), "input matrix shape");
        assert_eq!(plan.wt.len(), nl, "plan/network layer count mismatch");
        out.clear();
        out.resize(rows * self.output_dim(), 0.0);
        let DnnScratch { a, b } = scratch;
        for (i, (layer, wt)) in self.layers.iter().zip(&plan.wt).enumerate() {
            let src: &[f32] = if i == 0 { x } else { a };
            if i + 1 == nl {
                sirius_kernels::gemm_xwt_bias(
                    src,
                    rows,
                    layer.inputs,
                    wt,
                    layer.outputs,
                    &layer.biases,
                    out,
                );
            } else {
                b.clear();
                b.resize(rows * layer.outputs, 0.0);
                sirius_kernels::gemm_xwt_bias(
                    src,
                    rows,
                    layer.inputs,
                    wt,
                    layer.outputs,
                    &layer.biases,
                    b,
                );
                for v in b.iter_mut() {
                    *v = v.max(0.0); // ReLU
                }
                std::mem::swap(a, b);
            }
        }
        for row in out.chunks_mut(self.output_dim().max(1)) {
            softmax_in_place(row);
        }
    }
}

impl Dnn {
    /// Serializes the network (see [`sirius_codec`]).
    pub fn encode(&self, e: &mut Encoder) {
        e.tag("dnn");
        e.u32(self.layers.len() as u32);
        for l in &self.layers {
            e.u32(l.inputs as u32);
            e.u32(l.outputs as u32);
            e.f32_slice(&l.weights);
            e.f32_slice(&l.biases);
        }
    }

    /// Deserializes a network previously written by [`Dnn::encode`].
    ///
    /// # Errors
    ///
    /// Fails on malformed or inconsistent bytes.
    pub fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.tag("dnn")?;
        let n = d.u32()? as usize;
        let mut layers = Vec::with_capacity(n);
        for _ in 0..n {
            let inputs = d.u32()? as usize;
            let outputs = d.u32()? as usize;
            let weights = d.f32_vec()?;
            let biases = d.f32_vec()?;
            if weights.len() != inputs * outputs || biases.len() != outputs {
                return Err(DecodeError {
                    message: "inconsistent layer shape".into(),
                    offset: 0,
                });
            }
            layers.push(Layer {
                inputs,
                outputs,
                weights,
                biases,
            });
        }
        if layers.is_empty() {
            return Err(DecodeError {
                message: "network has no layers".into(),
                offset: 0,
            });
        }
        Ok(Self { layers })
    }
}

/// Index of the maximum element.
pub fn argmax(xs: &[f32]) -> usize {
    xs.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Numerically stable in-place softmax.
pub fn softmax_in_place(xs: &mut [f32]) {
    let m = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for x in xs.iter_mut() {
        *x = (*x - m).exp();
        sum += *x;
    }
    for x in xs.iter_mut() {
        *x /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    impl Dnn {
        /// The per-example SGD step: one matvec forward and one
        /// back-propagation loop per example. The oracle for
        /// [`Dnn::sgd_batch`]'s bit-identity.
        fn sgd_batch_reference(&mut self, data: &[(Vec<f32>, usize)], idxs: &[usize], lr: f32) {
            let mut grad_w: Vec<Vec<f32>> = self
                .layers
                .iter()
                .map(|l| vec![0.0; l.weights.len()])
                .collect();
            let mut grad_b: Vec<Vec<f32>> = self
                .layers
                .iter()
                .map(|l| vec![0.0; l.biases.len()])
                .collect();
            for &i in idxs {
                let (x, label) = &data[i];
                let acts = self.forward_internal(x);
                let mut delta: Vec<f32> = acts.last().expect("layers").clone();
                delta[*label] -= 1.0;
                for li in (0..self.layers.len()).rev() {
                    let input: &[f32] = if li == 0 { x } else { &acts[li - 1] };
                    let layer = &self.layers[li];
                    for o in 0..layer.outputs {
                        let d = delta[o];
                        if d != 0.0 {
                            let row = &mut grad_w[li][o * layer.inputs..(o + 1) * layer.inputs];
                            for (g, v) in row.iter_mut().zip(input) {
                                *g += d * v;
                            }
                            grad_b[li][o] += d;
                        }
                    }
                    if li > 0 {
                        let mut next = vec![0.0f32; layer.inputs];
                        for o in 0..layer.outputs {
                            let d = delta[o];
                            if d != 0.0 {
                                let row = &layer.weights[o * layer.inputs..(o + 1) * layer.inputs];
                                for (nv, w) in next.iter_mut().zip(row) {
                                    *nv += d * w;
                                }
                            }
                        }
                        for (nv, a) in next.iter_mut().zip(&acts[li - 1]) {
                            if *a <= 0.0 {
                                *nv = 0.0;
                            }
                        }
                        delta = next;
                    }
                }
            }
            let scale = lr / idxs.len() as f32;
            for (li, layer) in self.layers.iter_mut().enumerate() {
                for (w, g) in layer.weights.iter_mut().zip(&grad_w[li]) {
                    *w -= scale * g;
                }
                for (b, g) in layer.biases.iter_mut().zip(&grad_b[li]) {
                    *b -= scale * g;
                }
            }
        }
    }

    /// The batched GEMM step trains the same bits as the per-example loop:
    /// 2- and 3-layer nets, batches of 1, 7 and 32 over 75 examples (so the
    /// last batch of an epoch is ragged), every label present, several
    /// epochs of reshuffled batches through one reused scratch.
    #[test]
    fn batched_sgd_is_bit_identical_to_per_example_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for sizes in [&[13usize, 37, 6][..], &[13, 21, 18, 6]] {
            let classes = *sizes.last().expect("sizes");
            let data: Vec<(Vec<f32>, usize)> = (0..75)
                .map(|i| {
                    let x = (0..sizes[0]).map(|_| rng.gen_range(-1.5..1.5)).collect();
                    (x, i % classes)
                })
                .collect();
            for batch in [1usize, 7, 32] {
                let mut batched = Dnn::new(sizes, &mut rng);
                let (mut reference, initial) = (batched.clone(), batched.clone());
                let mut scratch = TrainScratch::default();
                let mut order: Vec<usize> = (0..data.len()).collect();
                for _ in 0..3 {
                    for i in (1..order.len()).rev() {
                        order.swap(i, rng.gen_range(0..=i));
                    }
                    for chunk in order.chunks(batch) {
                        batched.sgd_batch(&data, chunk, 0.1, &mut scratch);
                        reference.sgd_batch_reference(&data, chunk, 0.1);
                    }
                }
                assert_ne!(batched, initial, "training moved nothing");
                for (li, (a, b)) in batched.layers.iter().zip(&reference.layers).enumerate() {
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let at = format!("{sizes:?}, batch {batch}, layer {li}");
                    assert_eq!(bits(&a.weights), bits(&b.weights), "weights: {at}");
                    assert_eq!(bits(&a.biases), bits(&b.biases), "biases: {at}");
                }
            }
        }
    }

    #[test]
    fn softmax_sums_to_one() {
        let mut xs = vec![1.0, 2.0, 3.0];
        softmax_in_place(&mut xs);
        assert!((xs.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(xs[2] > xs[1] && xs[1] > xs[0]);
    }

    #[test]
    fn forward_output_is_distribution() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let net = Dnn::new(&[4, 8, 3], &mut rng);
        let p = net.forward(&[0.1, -0.2, 0.3, 0.4]);
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(p.iter().all(|&v| v >= 0.0));
    }

    fn xor_data() -> Vec<(Vec<f32>, usize)> {
        vec![
            (vec![0.0, 0.0], 0),
            (vec![0.0, 1.0], 1),
            (vec![1.0, 0.0], 1),
            (vec![1.0, 1.0], 0),
        ]
    }

    #[test]
    fn learns_xor() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut net = Dnn::new(&[2, 16, 2], &mut rng);
        let data = xor_data();
        net.train(
            &data,
            DnnTrainConfig {
                epochs: 800,
                learning_rate: 0.3,
                batch_size: 4,
            },
            &mut rng,
        );
        assert!(
            net.accuracy(&data) > 0.99,
            "accuracy {}",
            net.accuracy(&data)
        );
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let data: Vec<(Vec<f32>, usize)> = (0..200)
            .map(|i| {
                let c = i % 3;
                let center = c as f32 * 2.0 - 2.0;
                let x: Vec<f32> = (0..6).map(|_| center + rng.gen_range(-0.5..0.5)).collect();
                (x, c)
            })
            .collect();
        let mut net = Dnn::new(&[6, 24, 3], &mut rng);
        let before = net.loss(&data);
        net.train(&data, DnnTrainConfig::default(), &mut rng);
        let after = net.loss(&data);
        assert!(after < before * 0.5, "before={before} after={after}");
        assert!(net.accuracy(&data) > 0.95);
    }

    #[test]
    fn log_posteriors_match_forward() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let net = Dnn::new(&[3, 5, 4], &mut rng);
        let x = [0.5, -0.5, 0.25];
        let p = net.forward(&x);
        let lp = net.log_posteriors(&x);
        for (a, b) in p.iter().zip(&lp) {
            assert!((a.ln() - b).abs() < 1e-5);
        }
    }

    #[test]
    fn parameter_count() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let net = Dnn::new(&[10, 20, 5], &mut rng);
        assert_eq!(net.num_parameters(), 10 * 20 + 20 + 20 * 5 + 5);
        assert_eq!(net.input_dim(), 10);
        assert_eq!(net.output_dim(), 5);
        assert_eq!(net.num_hidden_layers(), 1);
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn too_few_sizes_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let _ = Dnn::new(&[4], &mut rng);
    }

    /// The GEMM-batched forward pass is the lazy scorer's workhorse; it must
    /// reproduce the per-frame scalar path bit for bit.
    #[test]
    fn batched_forward_is_bit_identical_to_scalar() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let net = Dnn::new(&[9, 17, 12, 5], &mut rng);
        let plan = net.plan();
        let mut scratch = DnnScratch::default();
        for rows in [1usize, 2, 7, 33] {
            let x: Vec<f32> = (0..rows * 9).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut batch = Vec::new();
            net.forward_batch_into(&x, rows, &plan, &mut scratch, &mut batch);
            assert_eq!(batch.len(), rows * 5);
            for r in 0..rows {
                let single = net.forward(&x[r * 9..(r + 1) * 9]);
                for (a, b) in batch[r * 5..(r + 1) * 5].iter().zip(&single) {
                    assert_eq!(a.to_bits(), b.to_bits(), "row {r} differs");
                }
            }
        }
    }

    #[test]
    fn layer_forward_into_matches_forward() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let layer = Layer::new(6, 4, &mut rng);
        let x: Vec<f32> = (0..6).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut a = Vec::new();
        layer.forward(&x, &mut a);
        let mut b = [0.0f32; 4];
        layer.forward_into(&x, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "input matrix shape")]
    fn batched_forward_rejects_bad_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let net = Dnn::new(&[4, 3], &mut rng);
        let plan = net.plan();
        net.forward_batch_into(
            &[0.0; 7],
            2,
            &plan,
            &mut DnnScratch::default(),
            &mut Vec::new(),
        );
    }
}
