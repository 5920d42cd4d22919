//! HMM decoding graph and beam Viterbi search.
//!
//! Mirrors the paper's ASR pipeline (Figure 4): "the HMM builds a tree of
//! states for the current speech frame using input feature vectors. The GMM
//! or DNN scores the probability of the state transitions in the tree, and
//! the Viterbi algorithm then searches for the most likely path."
//!
//! Words are linear chains of 3-state left-to-right phone HMMs with tied
//! emissions (81 tied states, [`crate::lexicon::NUM_STATES`]); word-to-word
//! transitions carry bigram language-model scores, with optional inter-word
//! silence.
//!
//! The search is one search with a pluggable scorer behind
//! [`FrameScores`]: one beam step, which [`StreamingDecoder`] drives frame
//! by frame for every recognition (whole-utterance or streaming, see
//! [`crate::streaming`]) and [`Decoder::decode_lazy`] /
//! [`Decoder::decode_scores`] run over a whole provider — the references
//! the equivalence gates compare against. There are three providers:
//! [`EagerScores`] over a pre-computed matrix (the reference),
//! [`LazyGmmScores`] (per-state memoization) and [`BlockDnnScores`]
//! (16-frame GEMM blocks, scored here or by a remote [`WindowScorer`]).

use crate::dnn::{Dnn, DnnPlan, DnnScratch};
use crate::features::Frames;
use crate::gmm::{Gmm, GmmSoa};
use crate::lexicon::{Lexicon, NUM_STATES, SIL, STATES_PER_PHONE};
use crate::lm::BigramLm;
use std::time::{Duration, Instant};

/// Scores acoustic frames against all tied HMM states.
pub trait AcousticScorer {
    /// Returns `scores[t][s]` = log-likelihood of frame `t` under tied state
    /// `s`, for the whole utterance at once (DNN scorers need frame context).
    fn score_utterance(&self, frames: &Frames) -> Vec<Vec<f32>>;

    /// Human-readable model name ("GMM" or "DNN").
    fn name(&self) -> &'static str;
}

/// On-demand acoustic scores for one utterance, consumed frame by frame by
/// [`Decoder::decode_lazy`].
///
/// The decoder announces each frame with [`FrameScores::begin_frame`], then
/// reads emission scores with [`FrameScores::get`]. Providers that benefit
/// from knowing the beam-surviving state set ahead of the reads (the lazy
/// GMM path) set [`FrameScores::WANTS_ACTIVE_SET`] so the decoder runs a
/// cheap collection pass and calls [`FrameScores::prepare`] first.
///
/// Every implementation in this crate returns **bit-identical** values to
/// the corresponding [`AcousticScorer::score_utterance`] row, so lazy and
/// eager decodes agree exactly (same words, same total log-score bits).
pub trait FrameScores {
    /// Whether the decoder should collect the emission states reachable from
    /// beam-surviving tokens and pass them to [`FrameScores::prepare`].
    const WANTS_ACTIVE_SET: bool;

    /// Number of frames in the utterance.
    fn num_frames(&self) -> usize;

    /// Announces that subsequent [`FrameScores::get`] calls refer to frame
    /// `t`. Frames are visited in non-decreasing order.
    fn begin_frame(&mut self, t: usize);

    /// Hints the set of tied emission states the decoder may read this
    /// frame (deduplicated). Implementations may batch-compute them here.
    fn prepare(&mut self, _needed: &[u16]) {}

    /// Emission score of tied state `s` for the current frame.
    fn get(&mut self, s: usize) -> f32;
}

/// [`FrameScores`] view over a fully pre-computed score matrix — the exact
/// (eager) reference mode.
#[derive(Debug)]
pub struct EagerScores<'a> {
    emis: &'a [Vec<f32>],
    t: usize,
}

impl<'a> EagerScores<'a> {
    /// Wraps pre-computed emission rows `emis[t][tied_state]`.
    pub fn new(emis: &'a [Vec<f32>]) -> Self {
        Self { emis, t: 0 }
    }
}

impl FrameScores for EagerScores<'_> {
    const WANTS_ACTIVE_SET: bool = false;

    fn num_frames(&self) -> usize {
        self.emis.len()
    }

    fn begin_frame(&mut self, t: usize) {
        self.t = t;
    }

    fn get(&mut self, s: usize) -> f32 {
        self.emis[self.t][s]
    }
}

/// Counters exposed by the lazy score providers, for tests and benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LazyScoreStats {
    /// `(frame, state)` score reads issued by the decoder.
    pub requested: usize,
    /// `(frame, state)` cells actually evaluated (each at most once).
    pub computed: usize,
    /// Total cells in the dense score matrix (`frames x states`), the
    /// eager scorer's work; `computed / total_cells` is the lazy win.
    pub total_cells: usize,
}

/// Lazily evaluated GMM emission scores with a per-frame memo table.
///
/// The cache is a flat `NUM_STATES`-wide value array validated by an epoch
/// stamp — advancing to the next frame is a single counter increment, no
/// clearing and no allocation. States the beam never reaches are never
/// scored.
#[derive(Debug)]
pub struct LazyGmmScores<'a> {
    soa: &'a [GmmSoa],
    frames: &'a Frames,
    values: Vec<f32>,
    stamp: Vec<u32>,
    epoch: u32,
    t: usize,
    stats: LazyScoreStats,
    compute_time: Duration,
}

impl<'a> LazyGmmScores<'a> {
    fn new(soa: &'a [GmmSoa], frames: &'a Frames) -> Self {
        Self {
            soa,
            frames,
            values: vec![0.0; NUM_STATES],
            stamp: vec![0; NUM_STATES],
            epoch: 0,
            t: 0,
            stats: LazyScoreStats {
                total_cells: frames.len() * NUM_STATES,
                ..LazyScoreStats::default()
            },
            compute_time: Duration::ZERO,
        }
    }

    /// Evaluation counters for this utterance.
    pub fn stats(&self) -> LazyScoreStats {
        self.stats
    }

    /// Wall time spent evaluating GMMs (the "scoring" share of the decode).
    pub fn compute_time(&self) -> Duration {
        self.compute_time
    }
}

impl FrameScores for LazyGmmScores<'_> {
    const WANTS_ACTIVE_SET: bool = true;

    fn num_frames(&self) -> usize {
        self.frames.len()
    }

    fn begin_frame(&mut self, t: usize) {
        self.t = t;
        // A fresh epoch invalidates the whole value array in O(1).
        self.epoch = self.epoch.wrapping_add(1);
    }

    fn prepare(&mut self, needed: &[u16]) {
        let start = Instant::now();
        let frame = self.frames.row(self.t);
        for &s in needed {
            let s = s as usize;
            if self.stamp[s] != self.epoch {
                self.values[s] = self.soa[s].log_likelihood(frame);
                self.stamp[s] = self.epoch;
                self.stats.computed += 1;
            }
        }
        self.compute_time += start.elapsed();
    }

    fn get(&mut self, s: usize) -> f32 {
        self.stats.requested += 1;
        if self.stamp[s] != self.epoch {
            // Miss outside prepare (should not happen with a correct active
            // set, but stays correct if it does).
            let start = Instant::now();
            self.values[s] = self.soa[s].log_likelihood(self.frames.row(self.t));
            self.stamp[s] = self.epoch;
            self.stats.computed += 1;
            self.compute_time += start.elapsed();
        }
        self.values[s]
    }
}

/// Frames scored per GEMM batch by [`BlockDnnScores`]. The network reads a
/// whole context window anyway, so the DNN's laziness is in *batching*:
/// frames are scored in blocks of this size, one GEMM per layer per block,
/// instead of one matrix-vector product per frame per layer.
const DNN_BLOCK: usize = 16;

/// Reusable buffers for one block-batched DNN forward: the stacked context
/// windows, the layer ping-pong scratch, and the posterior output.
#[derive(Debug, Default)]
struct BlockScratch {
    x: Vec<f32>,
    scratch: DnnScratch,
    post: Vec<f32>,
}

/// Block-batched DNN emission scores for [`Decoder::decode_lazy`].
///
/// Unlike the GMM, a DNN forward pass produces *all* state posteriors at
/// once, so skipping individual states saves nothing. Instead this provider
/// turns the per-frame matrix-vector products into per-block GEMMs
/// (bit-identical per row — see [`Dnn::forward_batch_into`]). The decoder
/// visits frames in order, so the blocks are the deterministic
/// `[0, 16), [16, 32), ...` partition of the utterance.
///
/// *Where* a block's forward pass runs is the `remote` field, not a second
/// type. `None` runs it here, on one scratch allocation reused for the
/// whole utterance. `Some` hands the stacked windows to a [`WindowScorer`]
/// — which is what lets a serving layer coalesce blocks from several
/// in-flight queries into one GEMM while every query's scores stay
/// bit-identical (row independence, see [`WindowScorer`]).
pub struct BlockDnnScores<'a> {
    scorer: &'a DnnScorer,
    remote: Option<&'a dyn WindowScorer>,
    frames: &'a Frames,
    block: Vec<f32>,
    block_start: usize,
    block_len: usize,
    t: usize,
    buf: BlockScratch,
    stats: LazyScoreStats,
    compute_time: Duration,
}

impl BlockDnnScores<'_> {
    /// Evaluation counters for this utterance.
    pub fn stats(&self) -> LazyScoreStats {
        self.stats
    }

    /// Wall time spent obtaining block scores. With a remote scorer this
    /// includes any wait for batch-mates, so under load it is the query's
    /// scoring *latency*, not pure model FLOP time.
    pub fn compute_time(&self) -> Duration {
        self.compute_time
    }
}

impl std::fmt::Debug for BlockDnnScores<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockDnnScores")
            .field("remote", &self.remote.is_some())
            .field("frames", &self.frames.len())
            .field("block_start", &self.block_start)
            .field("block_len", &self.block_len)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl FrameScores for BlockDnnScores<'_> {
    const WANTS_ACTIVE_SET: bool = false;

    fn num_frames(&self) -> usize {
        self.frames.len()
    }

    fn begin_frame(&mut self, t: usize) {
        self.t = t;
        let in_block = self.block_len > 0
            && (self.block_start..self.block_start + self.block_len).contains(&t);
        if !in_block {
            let start = Instant::now();
            let len = (self.frames.len() - t).min(DNN_BLOCK);
            match self.remote {
                None => {
                    self.block.clear();
                    self.block.resize(len * NUM_STATES, 0.0);
                    self.scorer
                        .score_block(self.frames, t, len, &mut self.buf, &mut self.block);
                }
                Some(remote) => {
                    self.scorer
                        .stack_windows(self.frames, t, len, &mut self.buf.x);
                    self.block = remote.score_windows(&self.buf.x, len);
                    // Checked in release too: rows of the wrong width would
                    // be read misaligned, a silently wrong transcript.
                    assert_eq!(
                        self.block.len(),
                        len * NUM_STATES,
                        "remote scorer returned the wrong number of scores for {len} rows"
                    );
                }
            }
            self.block_start = t;
            self.block_len = len;
            self.stats.computed += len * NUM_STATES;
            self.compute_time += start.elapsed();
        }
    }

    fn get(&mut self, s: usize) -> f32 {
        self.stats.requested += 1;
        self.block[(self.t - self.block_start) * NUM_STATES + s]
    }
}

/// GMM emission scorer: one diagonal GMM per tied state (the Sphinx path).
#[derive(Debug, Clone)]
pub struct GmmScorer {
    gmms: Vec<Gmm>,
    /// Dimension-major mirrors of `gmms`, built once; scoring reads these
    /// (bit-identical to the AoS loop, see [`GmmSoa`]).
    soa: Vec<GmmSoa>,
}

impl GmmScorer {
    /// Creates a scorer from per-state GMMs.
    ///
    /// # Panics
    ///
    /// Panics unless exactly [`NUM_STATES`] models are provided.
    pub fn new(gmms: Vec<Gmm>) -> Self {
        assert_eq!(gmms.len(), NUM_STATES, "need one GMM per tied state");
        let soa = gmms.iter().map(Gmm::soa).collect();
        Self { gmms, soa }
    }

    /// The per-state models.
    pub fn models(&self) -> &[Gmm] {
        &self.gmms
    }

    /// A lazily evaluating [`FrameScores`] provider over `frames` for
    /// [`Decoder::decode_lazy`]. Only beam-reachable `(frame, state)` cells
    /// are ever scored, each at most once.
    pub fn lazy_scores<'a>(&'a self, frames: &'a Frames) -> LazyGmmScores<'a> {
        LazyGmmScores::new(&self.soa, frames)
    }
}

impl GmmScorer {
    /// Serializes all per-state models.
    pub fn encode(&self, e: &mut sirius_codec::Encoder) {
        e.tag("gmm_scorer");
        e.u32(self.gmms.len() as u32);
        for g in &self.gmms {
            g.encode(e);
        }
    }

    /// Deserializes a scorer written by [`GmmScorer::encode`].
    ///
    /// # Errors
    ///
    /// Fails on malformed bytes or a wrong state count.
    pub fn decode(d: &mut sirius_codec::Decoder<'_>) -> Result<Self, sirius_codec::DecodeError> {
        d.tag("gmm_scorer")?;
        let n = d.u32()? as usize;
        if n != NUM_STATES {
            return Err(sirius_codec::DecodeError {
                message: format!("expected {NUM_STATES} state models, found {n}"),
                offset: 0,
            });
        }
        let gmms = (0..n)
            .map(|_| Gmm::decode(d))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::new(gmms))
    }
}

impl AcousticScorer for GmmScorer {
    fn score_utterance(&self, frames: &Frames) -> Vec<Vec<f32>> {
        // State-major evaluation: stream one state's (small) parameter block
        // over all frames, so parameters stay in registers/L1 while the
        // frame data streams. Values are bit-identical to the frame-major
        // AoS loop; only the traversal order changes, plus a transpose of
        // independent results.
        let n = frames.len();
        let cols: Vec<Vec<f32>> = self
            .soa
            .iter()
            .map(|g| {
                let mut col = vec![0.0f32; n];
                g.log_likelihood_batch(frames, &mut col);
                col
            })
            .collect();
        (0..n)
            .map(|t| cols.iter().map(|c| c[t]).collect())
            .collect()
    }

    fn name(&self) -> &'static str {
        "GMM"
    }
}

/// Hybrid DNN/HMM emission scorer: scaled log-posteriors minus log-priors
/// (the Kaldi/RASR path).
#[derive(Debug, Clone)]
pub struct DnnScorer {
    dnn: Dnn,
    /// Transposed-weight plan for the GEMM-batched forward pass; rebuilt
    /// whenever the network is (de)serialized or constructed.
    plan: DnnPlan,
    log_priors: Vec<f32>,
    /// Number of context frames on each side fed to the network.
    context: usize,
    /// Acoustic scale applied to the pseudo log-likelihoods.
    scale: f32,
}

impl DnnScorer {
    /// Creates a scorer from a trained network and state priors.
    ///
    /// # Panics
    ///
    /// Panics if the network output or prior vector is not [`NUM_STATES`]
    /// wide.
    pub fn new(dnn: Dnn, priors: &[f32], context: usize) -> Self {
        assert_eq!(dnn.output_dim(), NUM_STATES, "DNN output width");
        assert_eq!(priors.len(), NUM_STATES, "prior vector width");
        let total: f32 = priors.iter().sum();
        let log_priors = priors.iter().map(|p| (p / total).max(1e-8).ln()).collect();
        let plan = dnn.plan();
        Self {
            dnn,
            plan,
            log_priors,
            context,
            scale: 1.2,
        }
    }

    /// The underlying network.
    pub fn dnn(&self) -> &Dnn {
        &self.dnn
    }

    /// Number of context frames on each side of the scored frame.
    pub fn context(&self) -> usize {
        self.context
    }

    /// Builds the stacked context window for frame `t`.
    pub fn context_window(frames: &Frames, t: usize, context: usize) -> Vec<f32> {
        let dim = frames.dim();
        let mut x = vec![0.0f32; dim * (2 * context + 1)];
        Self::context_window_into(frames, t, context, &mut x);
        x
    }

    /// Writes the stacked context window for frame `t` into `out`
    /// (allocation-free variant of [`DnnScorer::context_window`]).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != dim * (2 * context + 1)` or `frames` is empty.
    pub fn context_window_into(frames: &Frames, t: usize, context: usize, out: &mut [f32]) {
        let dim = frames.dim();
        assert_eq!(out.len(), dim * (2 * context + 1), "window width");
        let n = frames.len() as isize;
        for (i, off) in (-(context as isize)..=(context as isize)).enumerate() {
            let idx = (t as isize + off).clamp(0, n - 1) as usize;
            out[i * dim..(i + 1) * dim].copy_from_slice(frames.row(idx));
        }
    }

    /// Stacks the context windows of frames `start..start + len` into `x`
    /// (row-major `len x width`) — the one place a block's GEMM input is
    /// built, whichever side then runs the forward pass.
    fn stack_windows(&self, frames: &Frames, start: usize, len: usize, x: &mut Vec<f32>) {
        let width = frames.dim() * (2 * self.context + 1);
        x.clear();
        x.resize(len * width, 0.0);
        for r in 0..len {
            let row = &mut x[r * width..(r + 1) * width];
            Self::context_window_into(frames, start + r, self.context, row);
        }
    }

    /// Scores frames `start..start + len` into `out` (row-major
    /// `len x NUM_STATES`) with one GEMM per layer over the whole block.
    /// Bit-identical to the per-frame path in
    /// [`AcousticScorer::score_utterance`].
    fn score_block(
        &self,
        frames: &Frames,
        start: usize,
        len: usize,
        buf: &mut BlockScratch,
        out: &mut [f32],
    ) {
        let BlockScratch { x, scratch, post } = buf;
        self.stack_windows(frames, start, len, x);
        self.score_windows_into(x, len, scratch, post, out);
    }

    /// Scores `rows` stacked context windows (row-major `rows x width`) into
    /// `out` (row-major `rows x NUM_STATES`): one GEMM per layer over the
    /// whole batch, then the per-row emission conversion
    /// `scale * (ln(max(p, 1e-12)) - log_prior)`.
    ///
    /// Both the forward pass ([`Dnn::forward_batch_into`]) and the emission
    /// conversion operate strictly row-by-row, so each output row is
    /// bit-identical no matter how many — or whose — windows share the
    /// batch. That row independence is the entire correctness argument for
    /// cross-query batching: a collector may concatenate windows from
    /// several in-flight queries, call this once, and scatter the rows back
    /// without perturbing any query's scores.
    fn score_windows_into(
        &self,
        x: &[f32],
        rows: usize,
        scratch: &mut DnnScratch,
        post: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        self.dnn
            .forward_batch_into(x, rows, &self.plan, scratch, post);
        for r in 0..rows {
            let probs = &post[r * NUM_STATES..(r + 1) * NUM_STATES];
            let row = &mut out[r * NUM_STATES..(r + 1) * NUM_STATES];
            for ((slot, p), pr) in row.iter_mut().zip(probs).zip(&self.log_priors) {
                *slot = self.scale * (p.max(1e-12).ln() - pr);
            }
        }
    }

    /// A block-batched [`FrameScores`] provider over `frames` for
    /// [`Decoder::decode_lazy`]. With `remote`, each block's forward pass is
    /// delegated to it — typically a serving-layer batch collector that
    /// coalesces blocks from several in-flight queries into one GEMM.
    /// Bit-identical to the local path (`None`) for any correct
    /// [`WindowScorer`] (see [`DnnScorer::score_windows`]).
    pub fn lazy_scores<'a>(
        &'a self,
        frames: &'a Frames,
        remote: Option<&'a dyn WindowScorer>,
    ) -> BlockDnnScores<'a> {
        BlockDnnScores {
            scorer: self,
            remote,
            frames,
            block: Vec::new(),
            block_start: 0,
            block_len: 0,
            t: 0,
            buf: BlockScratch::default(),
            stats: LazyScoreStats {
                total_cells: frames.len() * NUM_STATES,
                ..LazyScoreStats::default()
            },
            compute_time: Duration::ZERO,
        }
    }
}

/// Scores a batch of stacked DNN context windows into emission rows.
///
/// This is the seam a serving layer batches across queries at: the decoder
/// side ([`BlockDnnScores`]) builds windows exactly as the local path
/// does, and any implementation must return, for each row, bits identical
/// to [`DnnScorer::score_windows`] on that row alone. The reference
/// implementation is `DnnScorer` itself; a batch collector satisfies the
/// contract for free because [`Dnn::forward_batch_into`] and the emission
/// conversion are strictly row-independent.
pub trait WindowScorer: Send + Sync {
    /// Scores `rows` stacked context windows (row-major `rows x width`,
    /// where `width = feature_dim * (2 * context + 1)`) and returns the
    /// emission rows (row-major `rows x NUM_STATES`).
    fn score_windows(&self, x: &[f32], rows: usize) -> Vec<f32>;
}

impl WindowScorer for DnnScorer {
    fn score_windows(&self, x: &[f32], rows: usize) -> Vec<f32> {
        let mut scratch = DnnScratch::default();
        let mut post = Vec::new();
        let mut out = vec![0.0f32; rows * NUM_STATES];
        self.score_windows_into(x, rows, &mut scratch, &mut post, &mut out);
        out
    }
}

impl DnnScorer {
    /// Serializes the scorer.
    pub fn encode(&self, e: &mut sirius_codec::Encoder) {
        e.tag("dnn_scorer");
        self.dnn.encode(e);
        e.f32_slice(&self.log_priors);
        e.u32(self.context as u32);
        e.f32(self.scale);
    }

    /// Deserializes a scorer written by [`DnnScorer::encode`].
    ///
    /// # Errors
    ///
    /// Fails on malformed or inconsistent bytes.
    pub fn decode(d: &mut sirius_codec::Decoder<'_>) -> Result<Self, sirius_codec::DecodeError> {
        d.tag("dnn_scorer")?;
        let dnn = Dnn::decode(d)?;
        let log_priors = d.f32_vec()?;
        let context = d.u32()? as usize;
        let scale = d.f32()?;
        if dnn.output_dim() != NUM_STATES || log_priors.len() != NUM_STATES {
            return Err(sirius_codec::DecodeError {
                message: "scorer width mismatch".into(),
                offset: 0,
            });
        }
        let plan = dnn.plan();
        Ok(Self {
            dnn,
            plan,
            log_priors,
            context,
            scale,
        })
    }
}

impl AcousticScorer for DnnScorer {
    fn score_utterance(&self, frames: &Frames) -> Vec<Vec<f32>> {
        // Frame-blocked GEMM forward: one matrix multiply per layer per
        // block instead of a matrix-vector product per frame per layer.
        // Rows are bit-identical to the scalar path (see
        // `Dnn::forward_batch_into`).
        let n = frames.len();
        let mut buf = BlockScratch::default();
        let mut flat = vec![0.0f32; DNN_BLOCK * NUM_STATES];
        let mut rows = Vec::with_capacity(n);
        for start in (0..n).step_by(DNN_BLOCK) {
            let len = (n - start).min(DNN_BLOCK);
            let block = &mut flat[..len * NUM_STATES];
            self.score_block(frames, start, len, &mut buf, block);
            rows.extend(block.chunks(NUM_STATES).map(<[f32]>::to_vec));
        }
        rows
    }

    fn name(&self) -> &'static str {
        "DNN"
    }
}

/// Decoder tuning parameters.
///
/// Two limits prune the search each frame, and a token must pass both:
/// `threshold = max(best - beam, score of the max_active-th best token)`,
/// with every token *at* the threshold kept, so the survivors do not depend
/// on the order tokens are visited in. The score beam alone does not
/// transfer between acoustic models (400 log-units is 21 tokens a frame
/// under GMM log-likelihoods and 1132 under DNN pseudo-likelihoods); the
/// rank limit does not care about the score scale, which is why one
/// configuration serves both. `beam: 2500.0, max_active: usize::MAX` is the
/// exhaustive search the defaults were calibrated against
/// (`bench_kernels`' `pruning` section, `tests/pruning_margin.rs`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecoderConfig {
    /// Log-domain pruning beam: a token scoring more than this below the
    /// frame's best is dropped. Larger is slower but more exact.
    pub beam: f32,
    /// Most tokens expanded per frame (more only on exact score ties at the
    /// cut). At least 1.
    pub max_active: usize,
    /// Additive penalty applied when entering a new word.
    pub word_insertion_penalty: f32,
    /// Weight on language-model log-probabilities.
    pub lm_weight: f32,
    /// HMM self-loop probability.
    pub self_loop: f32,
}

impl Default for DecoderConfig {
    fn default() -> Self {
        Self {
            beam: 400.0,
            max_active: 64,
            word_insertion_penalty: -4.0,
            lm_weight: 3.0,
            self_loop: 0.6,
        }
    }
}

/// One graph state, with everything the relax loop asks about it laid out
/// next to its emission so an expansion touches one array.
#[derive(Debug, Clone, Copy)]
struct ChainState {
    /// Tied emission state id.
    emission: u16,
    /// Tied emission of the next state of the chain (meaningful only when
    /// `advances`).
    next_emission: u16,
    /// The last state of a word chain: exits into silence and new words.
    word_end: bool,
    /// Has a successor inside its chain (every state but a word's last and
    /// the silence chain's last).
    advances: bool,
}

/// The decoding result plus search statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeResult {
    /// Recognized words, in order.
    pub words: Vec<String>,
    /// Viterbi path log-score.
    pub score: f32,
    /// Log-score of the best competing acceptance state with a different
    /// word history, if any. The gap to `score` is a confidence margin.
    pub runner_up_score: Option<f32>,
    /// Whether the path ended at a true acceptance state (a word end or
    /// the inter-word silence). `false` means the beam pruned every
    /// complete path and the best surviving mid-word token was accepted
    /// as a fallback.
    pub complete: bool,
    /// Total tokens expanded (search effort).
    pub tokens_expanded: usize,
}

impl DecodeResult {
    /// A [0, 1] confidence estimate from the per-frame score margin between
    /// the best hypothesis and its closest competitor.
    pub fn confidence(&self, num_frames: usize) -> f32 {
        match self.runner_up_score {
            None => 1.0,
            Some(second) => {
                let margin = (self.score - second) / num_frames.max(1) as f32;
                (margin / 2.0).clamp(0.0, 1.0)
            }
        }
    }
}

/// Beam Viterbi decoder over a word-loop graph.
#[derive(Debug, Clone)]
pub struct Decoder {
    entries: Vec<ChainState>,
    word_first: Vec<usize>,
    /// Tied emission of each word's first state (the word-entry relax reads
    /// it once per word per frame).
    word_first_emission: Vec<u16>,
    sil_first: usize,
    config: DecoderConfig,
    num_words: usize,
}

const ROOT: u32 = u32::MAX;

impl Decoder {
    /// Builds the decoding graph for `lexicon` with configuration `config`.
    ///
    /// # Panics
    ///
    /// Panics if the lexicon is empty or `config.max_active` is zero.
    pub fn new(lexicon: &Lexicon, config: DecoderConfig) -> Self {
        assert!(!lexicon.is_empty(), "decoder needs a non-empty lexicon");
        assert!(config.max_active > 0, "max_active must be at least 1");
        let mut emissions: Vec<u16> = Vec::new();
        let mut word_first = Vec::with_capacity(lexicon.len());
        let mut word_last = Vec::with_capacity(lexicon.len());
        for (_, _, pron) in lexicon.iter() {
            word_first.push(emissions.len());
            for phone in pron {
                emissions.extend((0..STATES_PER_PHONE).map(|s| (phone.first_state() + s) as u16));
            }
            word_last.push(emissions.len() - 1);
        }
        let sil_first = emissions.len();
        emissions.extend((0..STATES_PER_PHONE).map(|s| (SIL.first_state() + s) as u16));
        let sil_last = emissions.len() - 1;
        let mut entries: Vec<ChainState> = emissions
            .iter()
            .enumerate()
            .map(|(e, &emission)| ChainState {
                emission,
                next_emission: emissions.get(e + 1).copied().unwrap_or(emission),
                word_end: false,
                advances: e != sil_last,
            })
            .collect();
        for &e in &word_last {
            entries[e].word_end = true;
            entries[e].advances = false;
        }
        let word_first_emission = word_first.iter().map(|&e| emissions[e]).collect();
        Self {
            entries,
            word_first,
            word_first_emission,
            sil_first,
            config,
            num_words: lexicon.len(),
        }
    }

    /// Number of graph states (search-space size).
    pub fn num_graph_states(&self) -> usize {
        self.entries.len()
    }

    /// The decoder's configuration.
    pub fn config(&self) -> &DecoderConfig {
        &self.config
    }

    /// Decodes pre-scored emissions `emis[t][tied_state]` into words.
    ///
    /// This is the exact (eager) reference mode: the full score matrix is
    /// computed up front. [`Decoder::decode_lazy`] produces bit-identical
    /// results while only evaluating beam-reachable scores.
    ///
    /// Returns `None` if no complete path survives the beam.
    pub fn decode_scores(
        &self,
        emis: &[Vec<f32>],
        lm: &BigramLm,
        lexicon: &Lexicon,
    ) -> Option<DecodeResult> {
        self.decode_lazy(&mut EagerScores::new(emis), lm, lexicon)
    }

    /// Decodes with an on-demand score provider (see [`FrameScores`]).
    ///
    /// The Viterbi search pulls `(frame, state)` scores as it needs them;
    /// with a lazy provider, states outside the beam are never scored.
    /// For every provider in this crate the result is bit-identical to
    /// [`Decoder::decode_scores`] over the eagerly computed matrix.
    ///
    /// Returns `None` if no complete path survives the beam.
    pub fn decode_lazy<S: FrameScores>(
        &self,
        scores: &mut S,
        lm: &BigramLm,
        lexicon: &Lexicon,
    ) -> Option<DecodeResult> {
        let t_max = scores.num_frames();
        if t_max == 0 {
            return None;
        }
        let mut st = BeamState::new(self);
        self.beam_init(&mut st, scores, lm);
        for t in 1..t_max {
            if !self.beam_step(&mut st, scores, lm, t) {
                return None;
            }
        }
        self.beam_finish(&st, lexicon)
    }

    /// Consumes frame 0: silence or any word start. A start whose score is
    /// NaN or `-inf` is not a token; with none left the decode is dead.
    fn beam_init<S: FrameScores>(&self, st: &mut BeamState, scores: &mut S, lm: &BigramLm) {
        let wip = self.config.word_insertion_penalty;
        let lmw = self.config.lm_weight;
        let sil_emission = self.entries[self.sil_first].emission;
        scores.begin_frame(0);
        if S::WANTS_ACTIVE_SET {
            st.needed.begin();
            st.needed.mark(sil_emission);
            for &em in &self.word_first_emission {
                st.needed.mark(em);
            }
            scores.prepare(&st.needed.list);
        }
        let mut seed = |e: usize, s: f32, hist: u32| {
            if s > f32::NEG_INFINITY {
                st.cur[e] = s;
                st.cur_hist[e] = hist;
                mark(&mut st.touched, e);
                st.best = st.best.max(s);
            }
        };
        seed(self.sil_first, scores.get(sil_emission as usize), ROOT);
        for w in 0..self.num_words {
            st.arena.push((w as u32, ROOT));
            let s = lmw * lm.log_start(w) + wip + scores.get(self.word_first_emission[w] as usize);
            seed(self.word_first[w], s, (st.arena.len() - 1) as u32);
        }
        drain_touched(&mut st.touched, &mut st.front);
        st.dead = st.front.is_empty();
    }

    /// Advances the beam through frame `t` (t >= 1). Returns `false` and
    /// marks the state dead if no token is left after it (a batch decode
    /// returns `None`).
    ///
    /// The work follows the number of live tokens, not the size of the
    /// graph. `st.front` lists, ascending, the states of `cur` that hold a
    /// token; the two limits of [`DecoderConfig`] cut it down to
    /// `st.survivors`; the active-set collection and the relax loop walk
    /// that; the slots the relax loop wrote are recorded in a bitmap, which
    /// read in order is the next front. Ascending order throughout is what
    /// sends a tie between two writers of one slot to the same writer a
    /// dense sweep over every state would pick.
    fn beam_step<S: FrameScores>(
        &self,
        st: &mut BeamState,
        scores: &mut S,
        lm: &BigramLm,
        t: usize,
    ) -> bool {
        let log_self = self.config.self_loop.ln();
        let log_adv = (1.0 - self.config.self_loop).ln();
        let wip = self.config.word_insertion_penalty;
        let lmw = self.config.lm_weight;
        let neg = f32::NEG_INFINITY;
        let sil_emission = self.entries[self.sil_first].emission;
        let BeamState {
            cur,
            cur_hist,
            nxt,
            nxt_hist,
            best,
            front,
            survivors,
            rank,
            touched,
            arena,
            lm_rows,
            exit_best,
            exit_hist,
            needed,
            tokens_expanded,
            dead,
        } = st;

        // The score beam, then the rank limit over what it left. Everything
        // in `rank` already reaches the beam threshold, so the max_active-th
        // best of it is the larger of the two limits.
        let mut threshold = *best - self.config.beam;
        survivors[..front.len()].copy_from_slice(front);
        let mut live = keep_reaching(survivors, front.len(), cur, threshold);
        if live > self.config.max_active {
            rank.clear();
            rank.extend(survivors[..live].iter().map(|&e| cur[e as usize]));
            let (_, kth, _) =
                rank.select_nth_unstable_by(self.config.max_active - 1, |a, b| b.total_cmp(a));
            threshold = *kth;
            live = keep_reaching(survivors, live, cur, threshold);
        }
        let survivors = &survivors[..live];

        scores.begin_frame(t);
        if S::WANTS_ACTIVE_SET {
            // Emissions of every relax target reachable from a survivor.
            needed.begin();
            let mut any_exit = false;
            let mut any_word_end = false;
            for &e in survivors {
                let state = self.entries[e as usize];
                needed.mark(state.emission);
                if state.advances {
                    needed.mark(state.next_emission);
                }
                any_word_end |= state.word_end;
                any_exit |= state.word_end || e as usize >= self.sil_first;
            }
            if any_word_end {
                needed.mark(sil_emission);
            }
            if any_exit {
                for &em in &self.word_first_emission {
                    needed.mark(em);
                }
            }
            scores.prepare(&needed.list);
        }

        // `nxt` is all `-inf` here. A NaN candidate loses every comparison,
        // so it is never written and never becomes a token. The maximum of
        // the next front is carried out of the relax loop: every accepted
        // candidate raises its slot, so the largest accepted candidate is
        // the largest final slot.
        let mut front_best = neg;
        let mut relax = |target: usize, cand: f32, hist: u32| {
            if cand > nxt[target] {
                nxt[target] = cand;
                nxt_hist[target] = hist;
                mark(touched, target);
                if cand > front_best {
                    front_best = cand;
                }
            }
        };
        let mut any_exit = false;
        *tokens_expanded += live;
        for &e in survivors {
            let e = e as usize;
            let s = cur[e];
            let hist = cur_hist[e];
            let state = self.entries[e];
            // Self loop.
            relax(e, s + log_self + scores.get(state.emission as usize), hist);
            if state.advances {
                // Advance within the chain.
                let cand = s + log_adv + scores.get(state.next_emission as usize);
                relax(e + 1, cand, hist);
            }
            if !state.word_end && e < self.sil_first {
                continue;
            }
            // Exits: into silence (word ends only) and into new words.
            // Silence is modelled with a flexible duration: any silence
            // state may exit into a word, so short pauses do not require
            // traversing the full 3-state chain.
            let exit_score = s + log_adv;
            if state.word_end {
                let cand = exit_score + scores.get(sil_emission as usize);
                relax(self.sil_first, cand, hist);
            }
            any_exit = true;
            let prev_word = if hist == ROOT {
                None
            } else {
                Some(arena[hist as usize].0 as usize)
            };
            let row = lm_rows[prev_word.map_or(0, |p| p + 1)].get_or_insert_with(|| {
                (0..self.num_words)
                    .map(|w| {
                        lmw * match prev_word {
                            Some(p) => lm.log_bigram(p, w),
                            None => lm.log_start(w),
                        }
                    })
                    .collect()
            });
            // Same association as the direct form: ((exit + lmw*lm) + wip)
            // + emission, so the winning score is bit-equal. Written as
            // selects so the row vectorises.
            for ((&lm_scaled, best_w), hist_w) in row
                .iter()
                .zip(exit_best.iter_mut())
                .zip(exit_hist.iter_mut())
            {
                let part = exit_score + lm_scaled;
                let better = part > *best_w;
                *best_w = if better { part } else { *best_w };
                *hist_w = if better { hist } else { *hist_w };
            }
        }
        if any_exit {
            for w in 0..self.num_words {
                // Consuming the slot resets it for the next frame.
                let part = std::mem::replace(&mut exit_best[w], neg);
                if part == neg {
                    continue;
                }
                let target = self.word_first[w];
                let cand = part + wip + scores.get(self.word_first_emission[w] as usize);
                if cand > nxt[target] {
                    arena.push((w as u32, exit_hist[w]));
                    nxt[target] = cand;
                    nxt_hist[target] = (arena.len() - 1) as u32;
                    mark(touched, target);
                    if cand > front_best {
                        front_best = cand;
                    }
                }
            }
        }
        // Empty the slots the old front owned, pruned ones included, so the
        // buffer is all `-inf` when it comes back as `nxt`.
        for &e in front.iter() {
            cur[e as usize] = neg;
        }
        drain_touched(touched, front);
        *best = front_best;
        std::mem::swap(cur, nxt);
        std::mem::swap(cur_hist, nxt_hist);
        *dead = front.is_empty();
        !*dead
    }

    /// Acceptance scan + backtrace over the final beam front.
    fn beam_finish(&self, st: &BeamState, lexicon: &Lexicon) -> Option<DecodeResult> {
        // Accept at word ends or anywhere in the (flexible-length) silence.
        // The front is ascending — word ends in word order, the silence
        // chain last — and the first of equal scores wins.
        let mut best: Option<(f32, u32)> = None;
        let mut fallback: Option<(f32, u32)> = None;
        let mut accept: Vec<(f32, u32)> = Vec::new();
        for &e in &st.front {
            let e = e as usize;
            let token = (st.cur[e], st.cur_hist[e]);
            if fallback.is_none_or(|(b, _)| token.0 > b) {
                fallback = Some(token);
            }
            if self.entries[e].word_end || e >= self.sil_first {
                accept.push(token);
                if best.is_none_or(|(b, _)| token.0 > b) {
                    best = Some(token);
                }
            }
        }
        // Fallback: if no acceptance state survived the beam (very narrow
        // beams on hard utterances), accept the best surviving token so the
        // caller still gets the words recognized so far.
        let complete = best.is_some();
        let (score, best_hist) = best.or(fallback)?;
        // Runner-up: the best acceptance with a different word history.
        let runner_up_score = accept
            .iter()
            .filter(|(_, h)| *h != best_hist)
            .map(|(s, _)| *s)
            .fold(None, |acc: Option<f32>, s| {
                Some(acc.map_or(s, |a| a.max(s)))
            });
        let mut hist = best_hist;
        let mut words_rev = Vec::new();
        while hist != ROOT {
            let (w, prev) = st.arena[hist as usize];
            words_rev.push(lexicon.word(w as usize).to_owned());
            hist = prev;
        }
        words_rev.reverse();
        Some(DecodeResult {
            words: words_rev,
            score,
            runner_up_score,
            complete,
            tokens_expanded: st.tokens_expanded,
        })
    }

    /// The stable committed word prefix of the live beam: the longest
    /// word-history prefix shared by every surviving token. Any future
    /// hypothesis descends from some live token, every live token's
    /// history starts with this prefix, and histories only ever append —
    /// so the prefix is monotone (never retracted) and is always a prefix
    /// of the final backtrace.
    fn committed_words(&self, st: &BeamState) -> Vec<u32> {
        let mut hists: Vec<u32> = st.front.iter().map(|&e| st.cur_hist[e as usize]).collect();
        hists.sort_unstable();
        hists.dedup();
        let mut chains: Vec<Vec<u32>> = Vec::with_capacity(hists.len());
        for &h in &hists {
            let mut chain = Vec::new();
            let mut hist = h;
            while hist != ROOT {
                let (w, prev) = st.arena[hist as usize];
                chain.push(w);
                hist = prev;
            }
            chain.reverse();
            chains.push(chain);
        }
        let Some((first, rest)) = chains.split_first() else {
            return Vec::new();
        };
        let mut prefix_len = first.len();
        for chain in rest {
            let common = first
                .iter()
                .zip(chain.iter())
                .take(prefix_len)
                .take_while(|(a, b)| a == b)
                .count();
            prefix_len = prefix_len.min(common);
        }
        first[..prefix_len].to_vec()
    }
}

/// Per-utterance Viterbi beam state: the token front, history arena and
/// scratch buffers that [`Decoder::decode_lazy`] threads through its frame
/// loop, lifted into a struct so [`StreamingDecoder`] can suspend and
/// resume the identical computation between frame chunks.
#[derive(Debug)]
struct BeamState {
    cur: Vec<f32>,
    cur_hist: Vec<u32>,
    nxt: Vec<f32>,
    nxt_hist: Vec<u32>,
    /// Maximum of `cur`, carried out of the loop that wrote it.
    best: f32,
    /// The active list: graph states holding a token in `cur`, ascending.
    /// Every other `cur` slot, and between frames every `nxt` slot, is
    /// `-inf`, so nothing per frame has to visit the whole graph.
    front: Vec<u32>,
    /// Members of `front` inside both pruning limits, ascending; rebuilt
    /// each frame in place (sized once, never cleared).
    survivors: Vec<u32>,
    /// Scores the rank limit selects over; reused, at most a front long.
    rank: Vec<f32>,
    /// One bit per graph state, set where the relax loop wrote `nxt`;
    /// drained in order into the next `front`. All zero between frames.
    touched: Vec<u64>,
    /// History arena: (word, previous entry index).
    arena: Vec<(u32, u32)>,
    /// Memoized scaled LM rows: lm_rows[p + 1][w] = lm_weight *
    /// log_bigram(p, w), row 0 for the start distribution. log_bigram
    /// does an f64 divide + ln per call, which the word-exit loop would
    /// otherwise repeat for every (source, target) pair every frame.
    lm_rows: Vec<Option<Box<[f32]>>>,
    /// Per-frame best word exit: highest (exit_score + scaled LM) per
    /// target word, so each improved target pushes one arena entry per
    /// frame instead of one per improving source. All `-inf` between frames.
    exit_best: Vec<f32>,
    exit_hist: Vec<u32>,
    /// Deduplicated emission states reachable this frame, for
    /// `FrameScores::prepare` (only collected when the provider asks).
    needed: NeededSet,
    tokens_expanded: usize,
    /// Set when no token survived some frame (batch decode returns `None`).
    dead: bool,
}

/// A set of tied emission states, cleared in O(1) by an epoch stamp.
#[derive(Debug)]
struct NeededSet {
    list: Vec<u16>,
    stamp: [u32; NUM_STATES],
    epoch: u32,
}

impl NeededSet {
    fn begin(&mut self) {
        self.list.clear();
        self.epoch = self.epoch.wrapping_add(1);
    }

    fn mark(&mut self, em: u16) {
        if self.stamp[em as usize] != self.epoch {
            self.stamp[em as usize] = self.epoch;
            self.list.push(em);
        }
    }
}

/// Keeps, in order, those of `ids[..len]` whose score reaches `threshold`
/// and returns how many. Branch-free: always write the slot, keep it only
/// if the state stays; `kept <= i` throughout, so the write is in range.
fn keep_reaching(ids: &mut [u32], len: usize, scores: &[f32], threshold: f32) -> usize {
    let mut kept = 0;
    for i in 0..len {
        let e = ids[i];
        ids[kept] = e;
        kept += usize::from(scores[e as usize] >= threshold);
    }
    kept
}

/// Sets the bit of graph state `e`.
fn mark(touched: &mut [u64], e: usize) {
    touched[e >> 6] |= 1 << (e & 63);
}

/// Replaces `front` with the set bits of `touched`, ascending, and zeroes
/// them.
fn drain_touched(touched: &mut [u64], front: &mut Vec<u32>) {
    front.clear();
    for (i, word) in touched.iter_mut().enumerate() {
        let mut bits = std::mem::take(word);
        while bits != 0 {
            front.push(i as u32 * 64 + bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
}

impl BeamState {
    fn new(decoder: &Decoder) -> Self {
        let n = decoder.entries.len();
        let neg = f32::NEG_INFINITY;
        BeamState {
            cur: vec![neg; n],
            cur_hist: vec![ROOT; n],
            nxt: vec![neg; n],
            nxt_hist: vec![ROOT; n],
            best: neg,
            front: Vec::with_capacity(n),
            survivors: vec![0; n],
            rank: Vec::with_capacity(n),
            touched: vec![0; n.div_ceil(64)],
            arena: Vec::with_capacity(1024),
            lm_rows: vec![None; decoder.num_words + 1],
            exit_best: vec![neg; decoder.num_words],
            exit_hist: vec![ROOT; decoder.num_words],
            needed: NeededSet {
                list: Vec::with_capacity(NUM_STATES),
                stamp: [0u32; NUM_STATES],
                epoch: 0,
            },
            tokens_expanded: 0,
            dead: false,
        }
    }
}

/// Resumable beam decoder over incrementally arriving feature frames.
///
/// [`StreamingDecoder::advance`] consumes frames up to a caller-chosen
/// horizon from a [`FrameScores`] provider and advances the beam exactly
/// as [`Decoder::decode_lazy`] would; [`StreamingDecoder::committed`]
/// reports the stable word prefix — the unique-ancestor portion of the
/// live beam, which only ever grows and is always a prefix of the final
/// hypothesis; [`StreamingDecoder::finish`] runs the identical acceptance
/// scan and backtrace, so the final result is bit-identical to a batch
/// decode of the same frames.
///
/// The provider handed to `advance` must index frames exactly as a batch
/// decode over the full utterance would: utterance frame `t` is provider
/// frame `t`. A fresh provider over a growing frame prefix satisfies
/// this.
#[derive(Debug)]
pub struct StreamingDecoder<'a> {
    decoder: &'a Decoder,
    lm: &'a BigramLm,
    state: BeamState,
    next_t: usize,
    committed: Vec<u32>,
}

impl<'a> StreamingDecoder<'a> {
    /// Starts a streaming decode over `decoder`'s word-loop graph.
    pub fn new(decoder: &'a Decoder, lm: &'a BigramLm) -> Self {
        StreamingDecoder {
            state: BeamState::new(decoder),
            decoder,
            lm,
            next_t: 0,
            committed: Vec::new(),
        }
    }

    /// Number of feature frames consumed so far.
    pub fn frames_consumed(&self) -> usize {
        self.next_t
    }

    /// Whether the beam died (no token survived some frame).
    ///
    /// A dead beam corresponds to `decode_lazy` returning `None`; it can
    /// only happen with non-finite emission scores.
    pub fn is_dead(&self) -> bool {
        self.state.dead
    }

    /// Tokens expanded so far (matches `DecodeResult::tokens_expanded`
    /// after the final frame).
    pub fn tokens_expanded(&self) -> usize {
        self.state.tokens_expanded
    }

    /// Advances the beam through frames `[frames_consumed(), horizon)`.
    ///
    /// `horizon` is clamped to `scores.num_frames()`. Returns `false` if
    /// the beam died (a batch decode would return `None`).
    pub fn advance<S: FrameScores>(&mut self, scores: &mut S, horizon: usize) -> bool {
        let horizon = horizon.min(scores.num_frames());
        while self.next_t < horizon && !self.state.dead {
            if self.next_t == 0 {
                self.decoder.beam_init(&mut self.state, scores, self.lm);
            } else {
                self.decoder
                    .beam_step(&mut self.state, scores, self.lm, self.next_t);
            }
            self.next_t += 1;
        }
        !self.state.dead
    }

    /// The stable committed word prefix (lexicon word ids).
    ///
    /// Recomputed from the live beam; the result only ever extends the
    /// previously returned prefix and the final hypothesis starts with it.
    pub fn committed(&mut self) -> &[u32] {
        if self.next_t > 0 && !self.state.dead {
            let fresh = self.decoder.committed_words(&self.state);
            debug_assert!(
                fresh.len() >= self.committed.len()
                    && fresh[..self.committed.len()] == self.committed[..],
                "committed prefix retracted"
            );
            self.committed = fresh;
        }
        &self.committed
    }

    /// Finalizes the decode: acceptance scan + backtrace, exactly the
    /// tail of [`Decoder::decode_lazy`].
    ///
    /// Returns `None` if no frames were consumed or the beam died.
    pub fn finish(&self, lexicon: &Lexicon) -> Option<DecodeResult> {
        if self.next_t == 0 || self.state.dead {
            return None;
        }
        self.decoder.beam_finish(&self.state, lexicon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexicon::NUM_PHONES;

    fn tiny_lexicon() -> Lexicon {
        Lexicon::from_texts(["go on", "no go"])
    }

    /// Builds synthetic emissions that strongly prefer the tied states of the
    /// given phone sequence, `frames_per_state` frames each.
    fn emissions_for(phones: &[(usize, usize)], frames_per_state: usize) -> Vec<Vec<f32>> {
        let mut emis = Vec::new();
        for &(phone, state) in phones {
            for _ in 0..frames_per_state {
                let mut frame = vec![-10.0f32; NUM_STATES];
                frame[phone * STATES_PER_PHONE + state] = 0.0;
                emis.push(frame);
            }
        }
        emis
    }

    fn phone_id(c: char) -> usize {
        (c as u8 - b'a') as usize
    }

    #[test]
    fn decodes_a_clean_word() {
        let lex = tiny_lexicon();
        let lm = BigramLm::train(["go on", "no go"], &lex);
        let dec = Decoder::new(&lex, DecoderConfig::default());
        // "go": g(0,1,2) o(0,1,2)
        let phones: Vec<(usize, usize)> = "go"
            .chars()
            .flat_map(|c| (0..3).map(move |s| (phone_id(c), s)))
            .collect();
        let emis = emissions_for(&phones, 3);
        let out = dec.decode_scores(&emis, &lm, &lex).expect("decode");
        assert_eq!(out.words, vec!["go"]);
        assert!(out.tokens_expanded > 0);
    }

    #[test]
    fn decodes_a_two_word_phrase_with_silence() {
        let lex = tiny_lexicon();
        let lm = BigramLm::train(["go on", "no go"], &lex);
        let dec = Decoder::new(&lex, DecoderConfig::default());
        let sil = NUM_PHONES - 1;
        let mut phones: Vec<(usize, usize)> = Vec::new();
        for c in "go".chars() {
            for s in 0..3 {
                phones.push((phone_id(c), s));
            }
        }
        for s in 0..3 {
            phones.push((sil, s));
        }
        for c in "on".chars() {
            for s in 0..3 {
                phones.push((phone_id(c), s));
            }
        }
        let emis = emissions_for(&phones, 3);
        let out = dec.decode_scores(&emis, &lm, &lex).expect("decode");
        assert_eq!(out.words, vec!["go", "on"]);
    }

    #[test]
    fn lm_disambiguates_similar_acoustics() {
        // Lexicon where "on" follows "go" in the LM; acoustics are equally
        // ambiguous between "on" and "no" (same letters, different order is
        // acoustically distinct though, so instead we just verify the LM
        // shifts scores): decoding "go ??" with weak emissions should prefer
        // the LM-favoured continuation.
        let lex = Lexicon::from_texts(["go on", "go on", "go on", "no go"]);
        let lm = BigramLm::train(["go on", "go on", "go on", "no go"], &lex);
        let dec = Decoder::new(&lex, DecoderConfig::default());
        let sil = NUM_PHONES - 1;
        let mut phones: Vec<(usize, usize)> = Vec::new();
        for c in "go".chars() {
            for s in 0..3 {
                phones.push((phone_id(c), s));
            }
        }
        for s in 0..3 {
            phones.push((sil, s));
        }
        // Ambiguous segment: slight preference for 'o'+'n'.
        for c in "on".chars() {
            for s in 0..3 {
                phones.push((phone_id(c), s));
            }
        }
        let emis = emissions_for(&phones, 3);
        let out = dec.decode_scores(&emis, &lm, &lex).expect("decode");
        assert_eq!(out.words[0], "go");
        assert_eq!(out.words.last().map(String::as_str), Some("on"));
    }

    #[test]
    fn empty_emissions_return_none() {
        let lex = tiny_lexicon();
        let lm = BigramLm::train(["go on"], &lex);
        let dec = Decoder::new(&lex, DecoderConfig::default());
        assert!(dec.decode_scores(&[], &lm, &lex).is_none());
    }

    #[test]
    fn graph_size_matches_lexicon() {
        let lex = tiny_lexicon();
        let dec = Decoder::new(&lex, DecoderConfig::default());
        // go(2)+on(2)+no(2) letters = 6 phones * 3 states + 3 silence.
        assert_eq!(dec.num_graph_states(), 6 * 3 + 3);
    }

    #[test]
    fn narrow_beam_expands_fewer_tokens() {
        let lex = tiny_lexicon();
        let lm = BigramLm::train(["go on", "no go"], &lex);
        let phones: Vec<(usize, usize)> = "go"
            .chars()
            .flat_map(|c| (0..3).map(move |s| (phone_id(c), s)))
            .collect();
        let emis = emissions_for(&phones, 4);
        let wide = Decoder::new(&lex, DecoderConfig::default())
            .decode_scores(&emis, &lm, &lex)
            .expect("wide decode");
        let narrow = Decoder::new(
            &lex,
            DecoderConfig {
                beam: 4.0,
                ..DecoderConfig::default()
            },
        )
        .decode_scores(&emis, &lm, &lex)
        .expect("narrow decode");
        assert!(narrow.tokens_expanded <= wide.tokens_expanded);
    }

    /// Tokens that tie at the rank cut are all kept, so the survivors do
    /// not depend on visiting order. "go" and "got" share a phone prefix
    /// and an LM start score, so their chains carry identical scores frame
    /// after frame: a cap of one token keeps the pair.
    #[test]
    fn ties_at_the_rank_threshold_are_all_kept() {
        let lex = Lexicon::from_texts(["go", "got"]);
        let lm = BigramLm::train(["go", "got"], &lex);
        let phones: Vec<(usize, usize)> = "go"
            .chars()
            .flat_map(|c| (0..3).map(move |s| (phone_id(c), s)))
            .collect();
        let emis = emissions_for(&phones, 3);
        let config = |max_active| DecoderConfig {
            max_active,
            ..DecoderConfig::default()
        };
        let capped = Decoder::new(&lex, config(1));
        let mut sdec = StreamingDecoder::new(&capped, &lm);
        let mut scores = EagerScores::new(&emis);
        for t in 1..emis.len() {
            assert!(sdec.advance(&mut scores, t + 1));
            assert_eq!(sdec.tokens_expanded(), 2 * t, "frame {t}: the tie was cut");
        }
        let out = sdec.finish(&lex).expect("capped decode");
        let wide = Decoder::new(&lex, config(usize::MAX))
            .decode_scores(&emis, &lm, &lex)
            .expect("uncapped decode");
        assert_eq!(out.words, vec!["go"]);
        assert_eq!(out.score.to_bits(), wide.score.to_bits());
    }

    /// A frame with no usable score — all NaN or all `-inf`, first frame or
    /// later — ends the decode as dead: `None` from the batch entry,
    /// `is_dead()` from the streaming one, never a panic and never a NaN
    /// token in the rank selection.
    #[test]
    fn a_frame_without_finite_scores_kills_the_decode() {
        let lex = tiny_lexicon();
        let lm = BigramLm::train(["go on", "no go"], &lex);
        // A cap below the front size, so the rank selection runs.
        let dec = Decoder::new(
            &lex,
            DecoderConfig {
                max_active: 2,
                ..DecoderConfig::default()
            },
        );
        let phones: Vec<(usize, usize)> = "go"
            .chars()
            .flat_map(|c| (0..3).map(move |s| (phone_id(c), s)))
            .collect();
        let clean = emissions_for(&phones, 3);
        assert!(dec.decode_scores(&clean, &lm, &lex).is_some());
        for bad in [f32::NAN, f32::NEG_INFINITY] {
            for at in [0, 4, clean.len() - 1] {
                let mut emis = clean.clone();
                emis[at] = vec![bad; NUM_STATES];
                assert!(
                    dec.decode_scores(&emis, &lm, &lex).is_none(),
                    "{bad} at frame {at}"
                );
                let mut sdec = StreamingDecoder::new(&dec, &lm);
                let mut scores = EagerScores::new(&emis);
                assert!(!sdec.advance(&mut scores, emis.len()));
                assert!(sdec.is_dead(), "{bad} at frame {at}");
                assert_eq!(sdec.frames_consumed(), at + 1);
                assert!(sdec.finish(&lex).is_none());
            }
        }
        // One NaN among finite scores costs only the tokens that read it.
        let mut emis = clean.clone();
        emis[4][phone_id('n') * STATES_PER_PHONE] = f32::NAN;
        let out = dec.decode_scores(&emis, &lm, &lex).expect("decode");
        assert_eq!(out.words, vec!["go"]);
        assert!(out.score.is_finite());
    }

    /// Chunked streaming decodes must match the batch decode bit-for-bit
    /// and never retract a committed word, for any chunk size.
    #[test]
    fn streaming_decoder_matches_batch_and_never_retracts() {
        let lex = tiny_lexicon();
        let lm = BigramLm::train(["go on", "no go"], &lex);
        let dec = Decoder::new(&lex, DecoderConfig::default());
        let sil = NUM_PHONES - 1;
        let mut phones: Vec<(usize, usize)> = Vec::new();
        for c in "go".chars() {
            for s in 0..3 {
                phones.push((phone_id(c), s));
            }
        }
        for s in 0..3 {
            phones.push((sil, s));
        }
        for c in "on".chars() {
            for s in 0..3 {
                phones.push((phone_id(c), s));
            }
        }
        let emis = emissions_for(&phones, 3);
        let batch = dec.decode_scores(&emis, &lm, &lex).expect("batch decode");

        for chunk in [1usize, 3, 7, emis.len()] {
            let mut sdec = StreamingDecoder::new(&dec, &lm);
            let mut committed: Vec<u32> = Vec::new();
            let mut horizon = 0usize;
            while horizon < emis.len() {
                horizon = (horizon + chunk).min(emis.len());
                // A fresh provider over the frame prefix models chunked
                // arrival; frame indices match the batch pass exactly.
                let mut scores = EagerScores::new(&emis[..horizon]);
                assert!(sdec.advance(&mut scores, horizon), "beam died");
                let now = sdec.committed();
                assert!(
                    now.len() >= committed.len() && now[..committed.len()] == committed[..],
                    "chunk {chunk}: committed prefix retracted"
                );
                committed = now.to_vec();
            }
            let out = sdec.finish(&lex).expect("streaming decode");
            assert_eq!(out.words, batch.words, "chunk {chunk}");
            assert_eq!(out.score.to_bits(), batch.score.to_bits(), "chunk {chunk}");
            assert_eq!(out.tokens_expanded, batch.tokens_expanded, "chunk {chunk}");
            assert_eq!(out.complete, batch.complete, "chunk {chunk}");
            let final_words: Vec<u32> = committed.clone();
            let spelled: Vec<String> = final_words
                .iter()
                .map(|&w| lex.word(w as usize).to_owned())
                .collect();
            assert!(
                out.words.starts_with(&spelled[..]),
                "chunk {chunk}: committed not a prefix of final"
            );
        }
    }
}

#[cfg(test)]
mod scorer_tests {
    use super::*;
    use crate::dnn::Dnn;
    use crate::features::FEATURE_DIM;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn context_window_clamps_at_edges() {
        let frames = Frames::from_rows(&[[1.0f32; 4], [2.0; 4], [3.0; 4]]);
        let w = DnnScorer::context_window(&frames, 0, 1);
        assert_eq!(w.len(), 12);
        // Left context clamps to frame 0.
        assert_eq!(&w[0..4], &[1.0; 4]);
        assert_eq!(&w[4..8], &[1.0; 4]);
        assert_eq!(&w[8..12], &[2.0; 4]);
        let w = DnnScorer::context_window(&frames, 2, 1);
        assert_eq!(&w[8..12], &[3.0; 4], "right context clamps to last frame");
    }

    #[test]
    fn dnn_scorer_produces_full_state_rows() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let net = Dnn::new(&[FEATURE_DIM * 3, 16, NUM_STATES], &mut rng);
        let scorer = DnnScorer::new(net, &vec![1.0; NUM_STATES], 1);
        let frames = Frames::from_rows(&[[0.1f32; FEATURE_DIM]; 5]);
        let scores = scorer.score_utterance(&frames);
        assert_eq!(scores.len(), 5);
        assert!(scores.iter().all(|r| r.len() == NUM_STATES));
        assert!(scores.iter().flatten().all(|s| s.is_finite()));
        assert_eq!(scorer.name(), "DNN");
    }

    #[test]
    fn uniform_priors_leave_relative_scores_unchanged() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let net = Dnn::new(&[FEATURE_DIM * 3, 16, NUM_STATES], &mut rng);
        let uniform = DnnScorer::new(net.clone(), &vec![1.0; NUM_STATES], 1);
        // Non-uniform priors must change scores for frequent states.
        let mut priors = vec![1.0f32; NUM_STATES];
        priors[0] = 100.0;
        let skewed = DnnScorer::new(net, &priors, 1);
        let frames = Frames::from_rows(&[[0.2f32; FEATURE_DIM]; 2]);
        let u = uniform.score_utterance(&frames);
        let s = skewed.score_utterance(&frames);
        // Hybrid scoring divides by the prior: a larger prior for state 0
        // lowers its pseudo-likelihood.
        assert!(s[0][0] < u[0][0]);
    }

    #[test]
    #[should_panic(expected = "one GMM per tied state")]
    fn wrong_gmm_count_panics() {
        let _ = GmmScorer::new(Vec::new());
    }

    /// A remote reply of the wrong width must stop the decode — in release
    /// builds too — instead of being indexed as misaligned score rows.
    #[test]
    #[should_panic(expected = "remote scorer returned the wrong number of scores")]
    fn short_remote_reply_panics_in_every_profile() {
        struct ShortRows;
        impl WindowScorer for ShortRows {
            fn score_windows(&self, _x: &[f32], rows: usize) -> Vec<f32> {
                vec![0.0; rows * (NUM_STATES - 1)]
            }
        }
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let net = Dnn::new(&[FEATURE_DIM * 3, 16, NUM_STATES], &mut rng);
        let scorer = DnnScorer::new(net, &vec![1.0; NUM_STATES], 1);
        let frames = Frames::from_rows(&[[0.1f32; FEATURE_DIM]; 5]);
        scorer.lazy_scores(&frames, Some(&ShortRows)).begin_frame(0);
    }
}

#[cfg(test)]
mod gmm_scoring_tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn frames(n: usize) -> Frames {
        let rows: Vec<[f32; 2]> = (0..n)
            .map(|t| [t as f32 * 0.2 - 1.0, (t % 5) as f32 * 0.3])
            .collect();
        Frames::from_rows(&rows)
    }

    /// The three GMM scoring paths — the AoS triple loop, the eager matrix
    /// (SoA, state-major) and the lazy provider (SoA, on demand) — end in
    /// one log-sum-exp and must agree bit for bit, on multi-component
    /// mixtures whose far components the log-sum-exp drops.
    #[test]
    fn aos_eager_and_lazy_gmm_scores_are_bit_equal() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let gmms: Vec<Gmm> = (0..NUM_STATES)
            .map(|s| {
                let data: Vec<[f32; 2]> = (0..48)
                    .map(|i| {
                        let cluster = (i % 3) as f32 * 6.0;
                        [
                            cluster + s as f32 * 0.05 + i as f32 * 0.01,
                            -(i as f32) * 0.1,
                        ]
                    })
                    .collect();
                Gmm::fit(&Frames::from_rows(&data), 3, 1, &mut rng)
            })
            .collect();
        let scorer = GmmScorer::new(gmms);
        let frames = frames(23);
        let eager = scorer.score_utterance(&frames);
        let mut lazy = scorer.lazy_scores(&frames);
        for (t, frame) in frames.rows().enumerate() {
            lazy.begin_frame(t);
            for (s, gmm) in scorer.models().iter().enumerate() {
                let aos = gmm.log_likelihood(frame).to_bits();
                assert_eq!(eager[t][s].to_bits(), aos, "eager frame {t} state {s}");
                assert_eq!(lazy.get(s).to_bits(), aos, "lazy frame {t} state {s}");
            }
        }
    }
}

#[cfg(test)]
mod beam_property_tests {
    use super::*;
    use crate::lexicon::Lexicon;

    /// A wider beam never produces a worse Viterbi score.
    #[test]
    fn wider_beams_never_score_worse() {
        use rand::{Rng, SeedableRng};
        for seed in 0u64..16 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let lex = Lexicon::from_texts(["go on", "no go"]);
            let lm = crate::lm::BigramLm::train(["go on", "no go"], &lex);
            // Random emissions over 20 frames.
            let emis: Vec<Vec<f32>> = (0..20)
                .map(|_| {
                    (0..NUM_STATES)
                        .map(|_| rng.gen_range(-30.0f32..0.0))
                        .collect()
                })
                .collect();
            let decode = |beam: f32| {
                Decoder::new(
                    &lex,
                    DecoderConfig {
                        beam,
                        ..DecoderConfig::default()
                    },
                )
                .decode_scores(&emis, &lm, &lex)
            };
            let narrow = decode(5.0);
            let wide = decode(500.0);
            if let (Some(n), Some(w)) = (narrow, wide) {
                // Fallback (incomplete) scores are not comparable: they end
                // mid-word and skip the acceptance constraint.
                if n.complete && w.complete {
                    assert!(
                        w.score >= n.score - 1e-3,
                        "seed {seed}: wide {} < narrow {}",
                        w.score,
                        n.score
                    );
                }
                assert!(w.complete, "seed {seed}: a 500-wide beam must complete");
            }
        }
    }
}
