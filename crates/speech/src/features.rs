//! Acoustic feature extraction: MFCC front-end.
//!
//! The paper's ASR pipeline (Figure 4) starts with "fast pre-processing and
//! feature extraction of the speech" producing feature vectors for the
//! decoder. This module implements the standard MFCC chain: pre-emphasis →
//! framing → Hamming window → FFT power spectrum → mel filterbank → log →
//! DCT, plus delta features.

use std::f32::consts::PI;

/// Audio sample rate used throughout the crate (Hz).
pub const SAMPLE_RATE: usize = 16_000;
/// Analysis frame length in samples (25 ms at 16 kHz).
pub const FRAME_LEN: usize = 400;
/// Frame hop in samples (10 ms at 16 kHz).
pub const FRAME_HOP: usize = 160;
/// FFT size (next power of two above the frame length).
pub const FFT_SIZE: usize = 512;
/// Number of mel filterbank channels.
pub const NUM_MEL: usize = 26;
/// Number of cepstral coefficients kept.
pub const NUM_CEPSTRA: usize = 13;
/// Final feature dimension: cepstra plus deltas.
pub const FEATURE_DIM: usize = NUM_CEPSTRA * 2;

/// Configuration of the MFCC front-end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontendConfig {
    /// Pre-emphasis coefficient (0 disables).
    pub pre_emphasis: f32,
    /// Floor applied before the log to avoid `-inf`.
    pub log_floor: f32,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        Self {
            pre_emphasis: 0.97,
            log_floor: 1e-10,
        }
    }
}

/// In-place iterative radix-2 FFT over interleaved complex values.
///
/// `re` and `im` must have the same power-of-two length.
///
/// # Panics
///
/// Panics if the lengths differ or are not a power of two.
pub fn fft(re: &mut [f32], im: &mut [f32]) {
    let n = re.len();
    assert_eq!(n, im.len(), "fft buffers must have equal length");
    assert!(n.is_power_of_two(), "fft length must be a power of two");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    // Butterflies.
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * PI / len as f32;
        let (w_re, w_im) = (ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let (mut cur_re, mut cur_im) = (1.0f32, 0.0f32);
            for j in 0..len / 2 {
                let a = i + j;
                let b = i + j + len / 2;
                let t_re = re[b] * cur_re - im[b] * cur_im;
                let t_im = re[b] * cur_im + im[b] * cur_re;
                re[b] = re[a] - t_re;
                im[b] = im[a] - t_im;
                re[a] += t_re;
                im[a] += t_im;
                let next_re = cur_re * w_re - cur_im * w_im;
                cur_im = cur_re * w_im + cur_im * w_re;
                cur_re = next_re;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// A row-major feature matrix: [`Frames::len`] rows of [`Frames::dim`]
/// values in one buffer.
///
/// Everything between the samples and the acoustic scores reads this — the
/// front-end fills it, the GMM and DNN providers, the eager reference and
/// training index it — so an utterance's features are one allocation, not
/// one per frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frames {
    data: Vec<f32>,
    dim: usize,
}

impl Frames {
    /// An empty matrix of `dim`-wide rows.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is 0.
    pub fn new(dim: usize) -> Self {
        Self::with_capacity(dim, 0)
    }

    /// An empty matrix of `dim`-wide rows with room for `rows` of them.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is 0.
    pub fn with_capacity(dim: usize, rows: usize) -> Self {
        assert!(dim > 0, "feature rows must have a width");
        Self {
            data: Vec::with_capacity(dim * rows),
            dim,
        }
    }

    /// Copies equally wide rows into one matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty (the width would be unknown) or ragged.
    pub fn from_rows<R: AsRef<[f32]>>(rows: &[R]) -> Self {
        let first = rows.first().expect("from_rows needs at least one row");
        let mut frames = Self::with_capacity(first.as_ref().len(), rows.len());
        for row in rows {
            frames.push_row(row.as_ref());
        }
        frames
    }

    /// Number of rows (frames).
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= self.len()`.
    pub fn row(&self, t: usize) -> &[f32] {
        &self.data[t * self.dim..(t + 1) * self.dim]
    }

    /// The rows in order.
    pub fn rows(&self) -> std::slice::ChunksExact<'_, f32> {
        self.data.chunks_exact(self.dim)
    }

    /// Appends a copy of `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.dim()`.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.dim, "row width");
        self.data.extend_from_slice(row);
    }

    /// Appends a zeroed row and returns it for the caller to fill.
    fn grow_row(&mut self) -> &mut [f32] {
        let start = self.data.len();
        self.data.resize(start + self.dim, 0.0);
        &mut self.data[start..]
    }

    /// The cepstra+delta feature matrix of a whole utterance's `cepstra`:
    /// [`Frames::push_delta_row`] for every frame.
    pub fn with_deltas(cepstra: &Frames) -> Frames {
        let mut feats = Frames::with_capacity(2 * cepstra.dim, cepstra.len());
        for t in 0..cepstra.len() {
            feats.push_delta_row(cepstra, t);
        }
        feats
    }

    /// Appends the cepstra+delta feature row for frame `t` of `cepstra`
    /// (first-order deltas, +/- 2 frame regression). The regression looks
    /// two frames ahead (clamped at the end), so row `t` is final — what a
    /// pass over the whole utterance would append — as soon as cepstra
    /// `t + 2` exists; a streaming caller appends rows up to
    /// `cepstra.len() - 2` mid-utterance and the clamped tail at the flush.
    ///
    /// # Panics
    ///
    /// Panics if `t >= cepstra.len()` or `self.dim() != 2 * cepstra.dim()`.
    pub fn push_delta_row(&mut self, cepstra: &Frames, t: usize) {
        assert_eq!(self.dim, 2 * cepstra.dim, "delta row width");
        let cur = cepstra.row(t);
        let prev = cepstra.row(t.saturating_sub(2));
        let next = cepstra.row((t + 2).min(cepstra.len() - 1));
        let (statics, deltas) = self.grow_row().split_at_mut(cur.len());
        statics.copy_from_slice(cur);
        for ((d, n), p) in deltas.iter_mut().zip(next).zip(prev) {
            *d = (n - p) / 4.0;
        }
    }
}

/// A precomputed plan for [`fft`]-equivalent transforms of one size.
///
/// The plan tabulates the bit-reversal swap pairs and every per-stage
/// twiddle factor. The tables are generated by running the *exact* same
/// recurrence `fft` evaluates inline, so [`FftPlan::run`] is bit-identical
/// to [`fft`] — it removes the serial multiply-chain that recomputes each
/// twiddle inside the hot butterfly loop, and hands the butterflies of a
/// block to the compiler as two disjoint halves so they vectorise.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Bit-reversal swap pairs `(i, j)` with `i < j`.
    swaps: Vec<(u32, u32)>,
    /// Concatenated per-stage twiddle cosines: for `len = 2, 4, ..., n`, the
    /// `len / 2` values the recurrence in [`fft`] produces.
    tw_re: Vec<f32>,
    /// The matching sines.
    tw_im: Vec<f32>,
}

impl FftPlan {
    /// Builds a plan for transforms of length `n`.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a power of two.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "fft length must be a power of two");
        let bits = n.trailing_zeros();
        let mut swaps = Vec::new();
        if n > 1 {
            for i in 0..n {
                let j = i.reverse_bits() >> (usize::BITS - bits);
                if i < j {
                    swaps.push((i as u32, j as u32));
                }
            }
        }
        let mut tw_re = Vec::with_capacity(n.saturating_sub(1));
        let mut tw_im = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2;
        while len <= n {
            let ang = -2.0 * PI / len as f32;
            let (w_re, w_im) = (ang.cos(), ang.sin());
            let (mut cur_re, mut cur_im) = (1.0f32, 0.0f32);
            for _ in 0..len / 2 {
                tw_re.push(cur_re);
                tw_im.push(cur_im);
                let next_re = cur_re * w_re - cur_im * w_im;
                cur_im = cur_re * w_im + cur_im * w_re;
                cur_re = next_re;
            }
            len <<= 1;
        }
        Self {
            n,
            swaps,
            tw_re,
            tw_im,
        }
    }

    /// Transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan transforms zero-length buffers (never true for a
    /// valid plan, provided for the conventional `len`/`is_empty` pair).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place FFT, bit-identical to [`fft`] on the same input.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths differ from the planned size.
    pub fn run(&self, re: &mut [f32], im: &mut [f32]) {
        let n = self.n;
        assert_eq!(re.len(), n, "fft buffer length != planned length");
        assert_eq!(im.len(), n, "fft buffer length != planned length");
        for &(i, j) in &self.swaps {
            re.swap(i as usize, j as usize);
            im.swap(i as usize, j as usize);
        }
        let mut offset = 0;
        let mut half = 1;
        while half < n {
            let w_re = &self.tw_re[offset..offset + half];
            let w_im = &self.tw_im[offset..offset + half];
            // Short blocks get their width as a constant, so the block body
            // unrolls into straight (vector) code; left as a loop, its set-up
            // costs more than a short block's butterflies.
            match half {
                1 => stage_of::<1>(re, im, w_re, w_im),
                2 => stage_of::<2>(re, im, w_re, w_im),
                4 => stage_of::<4>(re, im, w_re, w_im),
                8 => stage_of::<8>(re, im, w_re, w_im),
                16 => stage_of::<16>(re, im, w_re, w_im),
                _ => stage(re, im, w_re, w_im),
            }
            offset += half;
            half *= 2;
        }
    }
}

/// One stage: in every `2 * w_re.len()`-wide block, `a' = a + w b` and
/// `b' = a - w b` between its two halves, lane by lane.
#[inline(always)]
fn stage(re: &mut [f32], im: &mut [f32], w_re: &[f32], w_im: &[f32]) {
    let half = w_re.len();
    for (re, im) in re
        .chunks_exact_mut(2 * half)
        .zip(im.chunks_exact_mut(2 * half))
    {
        let (re_a, re_b) = re.split_at_mut(half);
        let (im_a, im_b) = im.split_at_mut(half);
        let lanes = re_a.iter_mut().zip(im_a).zip(re_b.iter_mut().zip(im_b));
        for (((re_a, im_a), (re_b, im_b)), (w_re, w_im)) in lanes.zip(w_re.iter().zip(w_im)) {
            let t_re = *re_b * w_re - *im_b * w_im;
            let t_im = *re_b * w_im + *im_b * w_re;
            *re_b = *re_a - t_re;
            *im_b = *im_a - t_im;
            *re_a += t_re;
            *im_a += t_im;
        }
    }
}

/// [`stage`] for blocks of constant half-width `H`.
fn stage_of<const H: usize>(re: &mut [f32], im: &mut [f32], w_re: &[f32], w_im: &[f32]) {
    stage(re, im, &w_re[..H], &w_im[..H]);
}

/// Power spectrum of a real frame through a half-length complex transform.
///
/// A real `n`-point input `x` is packed as the `n/2`-point complex sequence
/// `z[j] = x[2j] + i x[2j+1]`; with `Z = FFT(z)`, the spectra of the even
/// and odd samples are `E[k] = (Z[k] + conj Z[n/2-k]) / 2` and
/// `O[k] = (Z[k] - conj Z[n/2-k]) / 2i`, and `X[k] = E[k] + W^k O[k]` with
/// `W = e^{-2 pi i / n}`. `X[n/2-k] = conj(E[k] - W^k O[k])`, so one pass
/// over `k = 1..n/4` yields both halves of the `n/2 + 1` power bins: a
/// 256-point complex FFT (1024 butterflies) plus an O(n) split instead of
/// the 512-point complex FFT (2304 butterflies) of an input whose imaginary
/// half is zero.
#[derive(Debug, Clone)]
struct RealFft {
    half: FftPlan,
    /// `cos(2 pi k / n)` for `k` in `0..=n/4`.
    w_re: Vec<f32>,
    /// `-sin(2 pi k / n)` for the same `k`.
    w_im: Vec<f32>,
}

impl RealFft {
    /// A plan for real inputs of length `n` (a power of two, at least 4).
    fn new(n: usize) -> Self {
        assert!(n.is_power_of_two() && n >= 4, "real fft length");
        let angle = |k: usize| -2.0 * std::f64::consts::PI * k as f64 / n as f64;
        Self {
            half: FftPlan::new(n / 2),
            w_re: (0..=n / 4).map(|k| angle(k).cos() as f32).collect(),
            w_im: (0..=n / 4).map(|k| angle(k).sin() as f32).collect(),
        }
    }

    /// Writes `|X[k]|^2` for `k` in `0..=n/2` into `power`, given the packed
    /// input in `re`/`im` (`re[j] = x[2j]`, `im[j] = x[2j+1]`), which are
    /// transformed in place.
    fn power_spectrum(&self, re: &mut [f32], im: &mut [f32], power: &mut [f32]) {
        let m = self.half.len();
        assert_eq!(power.len(), m + 1, "power spectrum width");
        self.half.run(re, im);
        let dc = re[0] + im[0];
        let nyquist = re[0] - im[0];
        power[0] = dc * dc;
        power[m] = nyquist * nyquist;
        for k in 1..=m / 2 {
            let (zr, zi, yr, yi) = (re[k], im[k], re[m - k], im[m - k]);
            let (e_re, e_im) = (0.5 * (zr + yr), 0.5 * (zi - yi));
            let (o_re, o_im) = (0.5 * (zi + yi), -0.5 * (zr - yr));
            let (w_re, w_im) = (self.w_re[k], self.w_im[k]);
            let t_re = o_re * w_re - o_im * w_im;
            let t_im = o_re * w_im + o_im * w_re;
            let (a_re, a_im) = (e_re + t_re, e_im + t_im);
            let (b_re, b_im) = (e_re - t_re, e_im - t_im);
            power[k] = a_re * a_re + a_im * a_im;
            power[m - k] = b_re * b_re + b_im * b_im;
        }
    }
}

/// Converts Hz to mel scale.
pub fn hz_to_mel(hz: f32) -> f32 {
    2595.0 * (1.0 + hz / 700.0).log10()
}

/// Converts mel to Hz.
pub fn mel_to_hz(mel: f32) -> f32 {
    700.0 * (10f32.powf(mel / 2595.0) - 1.0)
}

/// A triangular mel filterbank over FFT bins.
#[derive(Debug, Clone)]
pub struct MelFilterbank {
    /// `(first bin, first weight, width)` of each filter.
    filters: Vec<(usize, usize, usize)>,
    /// Every filter's weights, back to back.
    weights: Vec<f32>,
}

impl MelFilterbank {
    /// Builds `NUM_MEL` triangular filters between 100 Hz and Nyquist.
    pub fn new() -> Self {
        let nyquist = SAMPLE_RATE as f32 / 2.0;
        let lo = hz_to_mel(100.0);
        let hi = hz_to_mel(nyquist);
        let centers: Vec<f32> = (0..NUM_MEL + 2)
            .map(|i| mel_to_hz(lo + (hi - lo) * i as f32 / (NUM_MEL + 1) as f32))
            .collect();
        let bin = |hz: f32| -> usize { ((hz / nyquist) * (FFT_SIZE / 2) as f32).round() as usize };
        let mut filters = Vec::with_capacity(NUM_MEL);
        let mut weights = Vec::new();
        for m in 0..NUM_MEL {
            let (b0, b1, b2) = (bin(centers[m]), bin(centers[m + 1]), bin(centers[m + 2]));
            let b1 = b1.max(b0 + 1);
            let b2 = b2.max(b1 + 1);
            filters.push((b0, weights.len(), b2 - b0));
            for b in b0..b2 {
                weights.push(if b < b1 {
                    (b - b0) as f32 / (b1 - b0) as f32
                } else {
                    (b2 - b) as f32 / (b2 - b1) as f32
                });
            }
        }
        Self { filters, weights }
    }

    /// Applies the filterbank to a power spectrum of `FFT_SIZE/2 + 1` bins.
    pub fn apply(&self, power: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.filters.len()];
        self.apply_into(power, &mut out);
        out
    }

    /// Like [`MelFilterbank::apply`] but writes into a caller-provided
    /// slice (allocation-free, same summation order).
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the number of filters or `power`
    /// has fewer than `FFT_SIZE/2 + 1` bins.
    pub fn apply_into(&self, power: &[f32], out: &mut [f32]) {
        assert_eq!(out.len(), self.filters.len(), "filterbank output width");
        for (slot, &(bin, first, width)) in out.iter_mut().zip(&self.filters) {
            *slot = dot(
                &self.weights[first..first + width],
                &power[bin..bin + width],
            );
        }
    }
}

impl Default for MelFilterbank {
    fn default() -> Self {
        Self::new()
    }
}

/// Dot product over four interleaved partial sums (so it vectorises),
/// combined in a fixed order.
fn dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 4];
    let (a4, b4) = (a.chunks_exact(4), b.chunks_exact(4));
    let tail: f32 = a4
        .remainder()
        .iter()
        .zip(b4.remainder())
        .map(|(x, y)| x * y)
        .sum();
    for (x, y) in a4.zip(b4) {
        for i in 0..4 {
            acc[i] += x[i] * y[i];
        }
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// The MFCC front-end.
#[derive(Debug, Clone)]
pub struct Frontend {
    config: FrontendConfig,
    filterbank: MelFilterbank,
    window: Vec<f32>,
    /// DCT-II basis, row-major `dct[k * NUM_MEL + m]`.
    dct: Vec<f32>,
    rfft: RealFft,
}

impl Frontend {
    /// Creates a front-end with the given configuration.
    pub fn new(config: FrontendConfig) -> Self {
        let window: Vec<f32> = (0..FRAME_LEN)
            .map(|i| 0.54 - 0.46 * (2.0 * PI * i as f32 / (FRAME_LEN - 1) as f32).cos())
            .collect();
        let dct: Vec<f32> = (0..NUM_CEPSTRA * NUM_MEL)
            .map(|i| {
                let (k, m) = (i / NUM_MEL, i % NUM_MEL);
                (PI * k as f32 * (m as f32 + 0.5) / NUM_MEL as f32).cos()
                    * (2.0 / NUM_MEL as f32).sqrt()
            })
            .collect();
        Self {
            config,
            filterbank: MelFilterbank::new(),
            window,
            dct,
            rfft: RealFft::new(FFT_SIZE),
        }
    }

    /// Extracts `FEATURE_DIM`-dimensional MFCC+delta features from raw
    /// audio, one row per frame; audio shorter than one frame yields no
    /// rows. Exactly [`Frontend::cepstra_frame`] per frame followed by
    /// [`Frames::push_delta_row`] per row ([`Frames::with_deltas`]), which
    /// is what a streaming caller runs as audio arrives — the two agree bit
    /// for bit.
    pub fn extract(&self, samples: &[f32]) -> Frames {
        let num_frames = match samples.len().checked_sub(FRAME_LEN) {
            Some(spare) => spare / FRAME_HOP + 1,
            None => 0,
        };
        let mut scratch = FrontendScratch::default();
        let mut cepstra = Frames::with_capacity(NUM_CEPSTRA, num_frames);
        for f in 0..num_frames {
            self.cepstra_frame(samples, f * FRAME_HOP, &mut scratch, &mut cepstra);
        }
        Frames::with_deltas(&cepstra)
    }

    /// Appends to `cepstra` the `NUM_CEPSTRA` static cepstra of the frame
    /// starting at sample `start`. Pre-emphasis is frame-local, so frames
    /// are independent and can be computed as audio arrives.
    ///
    /// # Panics
    ///
    /// Panics if `samples[start..start + FRAME_LEN]` is out of bounds or
    /// `cepstra.dim() != NUM_CEPSTRA`.
    pub fn cepstra_frame(
        &self,
        samples: &[f32],
        start: usize,
        scratch: &mut FrontendScratch,
        cepstra: &mut Frames,
    ) {
        assert_eq!(cepstra.dim(), NUM_CEPSTRA, "cepstra row width");
        self.power_spectrum(samples, start, scratch);
        let FrontendScratch { power, mel, .. } = scratch;
        self.filterbank.apply_into(power, mel);
        for e in mel.iter_mut() {
            *e = e.max(self.config.log_floor).ln();
        }
        for (c, basis) in cepstra
            .grow_row()
            .iter_mut()
            .zip(self.dct.chunks_exact(NUM_MEL))
        {
            *c = dot(basis, mel);
        }
    }

    /// The first half of [`Frontend::cepstra_frame`]: pre-emphasis, Hamming
    /// window and the power spectrum of the frame starting at `start`, left
    /// in `scratch`. Public so a bench can time the transform apart from
    /// the mel/log/DCT chain.
    ///
    /// # Panics
    ///
    /// Panics if `samples[start..start + FRAME_LEN]` is out of bounds.
    pub fn power_spectrum(&self, samples: &[f32], start: usize, scratch: &mut FrontendScratch) {
        let FrontendScratch { re, im, power, .. } = scratch;
        let frame = &samples[start..start + FRAME_LEN];
        let pre = self.config.pre_emphasis;
        // Pre-emphasised, windowed samples, packed even/odd for the
        // half-length transform; the zero padding past the frame stays.
        let mut prev = 0.0;
        for (((pair, w), re), im) in frame
            .chunks_exact(2)
            .zip(self.window.chunks_exact(2))
            .zip(re.iter_mut())
            .zip(im.iter_mut())
        {
            *re = (pair[0] - pre * prev) * w[0];
            *im = (pair[1] - pre * pair[0]) * w[1];
            prev = pair[1];
        }
        re[FRAME_LEN / 2..].fill(0.0);
        im[FRAME_LEN / 2..].fill(0.0);
        self.rfft.power_spectrum(re, im, power);
    }
}

/// Reusable per-frame buffers for [`Frontend::cepstra_frame`].
#[derive(Debug, Clone)]
pub struct FrontendScratch {
    re: Vec<f32>,
    im: Vec<f32>,
    power: Vec<f32>,
    mel: Vec<f32>,
}

impl Default for FrontendScratch {
    fn default() -> Self {
        Self {
            re: vec![0.0; FFT_SIZE / 2],
            im: vec![0.0; FFT_SIZE / 2],
            power: vec![0.0; FFT_SIZE / 2 + 1],
            mel: vec![0.0; NUM_MEL],
        }
    }
}

impl Default for Frontend {
    fn default() -> Self {
        Self::new(FrontendConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dft(x: &[f32]) -> Vec<(f32, f32)> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut re = 0.0f64;
                let mut im = 0.0f64;
                for (t, &v) in x.iter().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * k as f64 * t as f64 / n as f64;
                    re += f64::from(v) * ang.cos();
                    im += f64::from(v) * ang.sin();
                }
                (re as f32, im as f32)
            })
            .collect()
    }

    #[test]
    fn fft_matches_naive_dft() {
        let x: Vec<f32> = (0..64).map(|i| ((i * 7 + 3) % 11) as f32 - 5.0).collect();
        let mut re = x.clone();
        let mut im = vec![0.0; 64];
        fft(&mut re, &mut im);
        let reference = naive_dft(&x);
        for k in 0..64 {
            assert!((re[k] - reference[k].0).abs() < 1e-2, "re[{k}]");
            assert!((im[k] - reference[k].1).abs() < 1e-2, "im[{k}]");
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut re = vec![0.0f32; 16];
        let mut im = vec![0.0f32; 16];
        re[0] = 1.0;
        fft(&mut re, &mut im);
        for k in 0..16 {
            assert!((re[k] - 1.0).abs() < 1e-5);
            assert!(im[k].abs() < 1e-5);
        }
    }

    #[test]
    fn sine_peak_lands_in_right_bin() {
        // 1 kHz tone at 16 kHz, FFT 512 → bin 32.
        let samples: Vec<f32> = (0..FFT_SIZE)
            .map(|i| (2.0 * PI * 1000.0 * i as f32 / SAMPLE_RATE as f32).sin())
            .collect();
        let mut re = samples;
        let mut im = vec![0.0; FFT_SIZE];
        fft(&mut re, &mut im);
        let power: Vec<f32> = (0..FFT_SIZE / 2)
            .map(|i| re[i] * re[i] + im[i] * im[i])
            .collect();
        let peak = power
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("non-empty");
        assert_eq!(peak, 32);
    }

    /// The planned FFT must reproduce the inline recurrence bit for bit —
    /// trained models and decode scores depend on it.
    #[test]
    fn fft_plan_is_bit_identical_to_fft() {
        for n in [1usize, 2, 8, 64, FFT_SIZE] {
            let plan = FftPlan::new(n);
            assert_eq!(plan.len(), n);
            assert!(!plan.is_empty());
            let re0: Vec<f32> = (0..n).map(|i| ((i * 13 + 5) % 17) as f32 - 8.0).collect();
            let im0: Vec<f32> = (0..n)
                .map(|i| ((i * 7 + 1) % 23) as f32 * 0.25 - 2.0)
                .collect();
            let (mut re_a, mut im_a) = (re0.clone(), im0.clone());
            let (mut re_b, mut im_b) = (re0, im0);
            fft(&mut re_a, &mut im_a);
            plan.run(&mut re_b, &mut im_b);
            for k in 0..n {
                assert_eq!(re_a[k].to_bits(), re_b[k].to_bits(), "re[{k}] n={n}");
                assert_eq!(im_a[k].to_bits(), im_b[k].to_bits(), "im[{k}] n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "planned length")]
    fn fft_plan_rejects_wrong_length() {
        FftPlan::new(8).run(&mut [0.0; 4], &mut [0.0; 4]);
    }

    #[test]
    fn apply_into_matches_apply() {
        let fb = MelFilterbank::new();
        let power: Vec<f32> = (0..FFT_SIZE / 2 + 1)
            .map(|i| (i % 9) as f32 * 0.5)
            .collect();
        let a = fb.apply(&power);
        let mut b = vec![0.0f32; NUM_MEL];
        fb.apply_into(&power, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn mel_conversion_round_trips() {
        for hz in [100.0f32, 440.0, 1000.0, 4000.0, 7999.0] {
            let back = mel_to_hz(hz_to_mel(hz));
            assert!((back - hz).abs() / hz < 1e-4, "{hz} -> {back}");
        }
    }

    #[test]
    fn filterbank_is_nonnegative_and_covers_spectrum() {
        let fb = MelFilterbank::new();
        let flat = vec![1.0f32; FFT_SIZE / 2 + 1];
        let out = fb.apply(&flat);
        assert_eq!(out.len(), NUM_MEL);
        assert!(out.iter().all(|&e| e >= 0.0));
        assert!(out.iter().sum::<f32>() > 0.0);
    }

    /// Seeded pseudo-random frame in [-1, 1).
    fn seeded_frame(seed: u32, n: usize) -> Vec<f32> {
        let mut state = seed.wrapping_mul(2_654_435_761).wrapping_add(12_345);
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 8) as f32 / (1u32 << 23) as f32 - 1.0
            })
            .collect()
    }

    /// Power spectrum of a real frame by the packed half-length transform.
    fn real_power(x: &[f32]) -> Vec<f32> {
        let n = x.len();
        let mut re: Vec<f32> = x.iter().step_by(2).copied().collect();
        let mut im: Vec<f32> = x.iter().skip(1).step_by(2).copied().collect();
        let mut power = vec![0.0f32; n / 2 + 1];
        RealFft::new(n).power_spectrum(&mut re, &mut im, &mut power);
        power
    }

    /// The same bins from the retained full-length complex [`fft`].
    fn complex_power(x: &[f32]) -> Vec<f32> {
        let mut re = x.to_vec();
        let mut im = vec![0.0f32; x.len()];
        fft(&mut re, &mut im);
        (0..=x.len() / 2)
            .map(|k| re[k] * re[k] + im[k] * im[k])
            .collect()
    }

    #[test]
    fn real_fft_matches_complex_fft_on_seeded_frames() {
        for seed in 0..16u32 {
            // Zero-padded like a real analysis frame, and unpadded.
            for filled in [FRAME_LEN, FFT_SIZE] {
                let mut x = seeded_frame(seed, filled);
                x.resize(FFT_SIZE, 0.0);
                let (got, want) = (real_power(&x), complex_power(&x));
                let scale = want.iter().copied().fold(1.0f32, f32::max);
                for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        (g - w).abs() <= 1e-4 * scale,
                        "seed {seed} bin {k}: {g} vs {w}"
                    );
                }
            }
        }
        // Every supported size down to the smallest.
        for n in [4usize, 8, 64] {
            let x = seeded_frame(n as u32, n);
            for (k, (g, w)) in real_power(&x).iter().zip(complex_power(&x)).enumerate() {
                assert!(
                    (g - w).abs() <= 1e-4 * (1.0 + w),
                    "n {n} bin {k}: {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn real_fft_of_impulse_is_flat() {
        let mut x = vec![0.0f32; FFT_SIZE];
        x[0] = 1.0;
        for (k, p) in real_power(&x).iter().enumerate() {
            assert!((p - 1.0).abs() < 1e-5, "bin {k}: {p}");
        }
        // An impulse on an odd sample exercises the twiddled half.
        let mut x = vec![0.0f32; FFT_SIZE];
        x[3] = 2.0;
        for (k, p) in real_power(&x).iter().enumerate() {
            assert!((p - 4.0).abs() < 1e-4, "bin {k}: {p}");
        }
    }

    #[test]
    fn real_fft_puts_a_1khz_tone_in_bin_32() {
        let x: Vec<f32> = (0..FFT_SIZE)
            .map(|i| (2.0 * PI * 1000.0 * i as f32 / SAMPLE_RATE as f32).sin())
            .collect();
        let power = real_power(&x);
        let peak = power
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("non-empty");
        assert_eq!(peak, 32);
        // All of the tone's energy: |X[32]| = N/2.
        let want = (FFT_SIZE as f32 / 2.0).powi(2);
        assert!((power[32] - want).abs() < 1e-3 * want, "{}", power[32]);
    }

    #[test]
    fn frames_index_rows_of_one_buffer() {
        let mut frames = Frames::from_rows(&[[1.0f32, 2.0], [3.0, 4.0]]);
        frames.push_row(&[5.0, 6.0]);
        assert_eq!((frames.len(), frames.dim()), (3, 2));
        assert_eq!(frames.row(1), &[3.0, 4.0]);
        assert_eq!(
            frames.rows().map(|r| r[1]).collect::<Vec<_>>(),
            [2.0, 4.0, 6.0]
        );
        assert!(Frames::new(2).is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn frames_reject_a_ragged_row() {
        Frames::new(3).push_row(&[1.0]);
    }

    #[test]
    fn extract_produces_expected_frame_count_and_dim() {
        let fe = Frontend::default();
        let one_sec: Vec<f32> = (0..SAMPLE_RATE)
            .map(|i| (2.0 * PI * 300.0 * i as f32 / SAMPLE_RATE as f32).sin())
            .collect();
        let feats = fe.extract(&one_sec);
        let expected = (SAMPLE_RATE - FRAME_LEN) / FRAME_HOP + 1;
        assert_eq!(feats.len(), expected);
        assert_eq!(feats.dim(), FEATURE_DIM);
        assert!(feats.rows().flatten().all(|v| v.is_finite()));
    }

    #[test]
    fn short_audio_yields_no_frames() {
        let fe = Frontend::default();
        let feats = fe.extract(&vec![0.0; FRAME_LEN - 1]);
        assert!(feats.is_empty());
        assert_eq!(feats.dim(), FEATURE_DIM);
    }

    #[test]
    fn different_tones_produce_different_features() {
        let fe = Frontend::default();
        let tone = |hz: f32| -> Vec<f32> {
            (0..SAMPLE_RATE / 2)
                .map(|i| (2.0 * PI * hz * i as f32 / SAMPLE_RATE as f32).sin())
                .collect()
        };
        let a = fe.extract(&tone(300.0));
        let b = fe.extract(&tone(2500.0));
        let dist: f32 = a
            .row(5)
            .iter()
            .zip(b.row(5))
            .map(|(x, y)| (x - y) * (x - y))
            .sum();
        assert!(dist > 1.0, "features too similar: {dist}");
    }

    #[test]
    fn deltas_are_zero_for_static_signal() {
        let with = Frames::with_deltas(&Frames::from_rows(&[[1.0f32, 2.0, 3.0]; 10]));
        assert_eq!(with.dim(), 6);
        for f in with.rows() {
            assert_eq!(f[..3], [1.0, 2.0, 3.0]);
            assert!(f[3..].iter().all(|&d| d.abs() < 1e-9));
        }
    }

    /// `extract` is chunked `cepstra_frame` + delta rows, bit for bit, on
    /// the flat matrix — the invariant streaming recognition is built on.
    #[test]
    fn incremental_cepstra_match_extract() {
        let fe = Frontend::default();
        let audio: Vec<f32> = (0..SAMPLE_RATE / 4)
            .map(|i| (2.0 * PI * 440.0 * i as f32 / SAMPLE_RATE as f32).sin())
            .collect();
        let batch = fe.extract(&audio);
        let mut scratch = FrontendScratch::default();
        let mut cepstra = Frames::new(NUM_CEPSTRA);
        let mut feats = Frames::new(FEATURE_DIM);
        // Audio arrives in uneven chunks. Frame f is computable once
        // samples[f*HOP + FRAME_LEN] exists; its row is final two frames on.
        let mut arrived = 0;
        for chunk in [1usize, 399, 1, 777, 160, 5000] {
            arrived = (arrived + chunk).min(audio.len());
            while cepstra.len() * FRAME_HOP + FRAME_LEN <= arrived {
                let start = cepstra.len() * FRAME_HOP;
                fe.cepstra_frame(&audio[..arrived], start, &mut scratch, &mut cepstra);
            }
            while feats.len() < cepstra.len().saturating_sub(2) {
                feats.push_delta_row(&cepstra, feats.len());
            }
        }
        assert_eq!(arrived, audio.len());
        while feats.len() < cepstra.len() {
            feats.push_delta_row(&cepstra, feats.len());
        }
        assert_eq!(feats.len(), batch.len());
        for (t, (a, b)) in feats.rows().zip(batch.rows()).enumerate() {
            let same = a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "frame {t} differs from batch extract");
        }
    }

    /// A delta row computed over a frame prefix is final (bit-identical to
    /// the full-utterance row) once two more cepstra frames exist — the
    /// invariant the streaming recognizer's feature horizon relies on.
    #[test]
    fn delta_rows_of_stable_frames_do_not_change_as_frames_arrive() {
        let rows: Vec<[f32; 3]> = (0..12)
            .map(|t| [t as f32 * 0.5, (t * t) as f32 * 0.1, -(t as f32)])
            .collect();
        let full = Frames::with_deltas(&Frames::from_rows(&rows));
        for upto in 3..=rows.len() {
            let prefix = Frames::from_rows(&rows[..upto]);
            let mut stable = Frames::new(6);
            for t in 0..upto.saturating_sub(2) {
                stable.push_delta_row(&prefix, t);
                assert_eq!(
                    stable.row(t),
                    full.row(t),
                    "row {t} not stable with {upto} frames"
                );
            }
        }
    }
}
