//! # sirius-kernels
//!
//! Dense CPU micro-kernels shared by the Sirius hot paths: a register-tiled
//! GEMM used by the DNN acoustic scorer and by the DNN's training step, and
//! a transpose for preparing weight matrices.
//!
//! Every kernel here is **bit-identical** to the naive reference loop it
//! replaces: each output element accumulates its products in the exact same
//! order as the scalar matrix-vector code (`acc = bias; acc += w[i] * x[i]`
//! for increasing `i`). Speed comes from restructuring *across* output
//! elements — a tile of 2 rows x 16 outputs walks the shared `k` dimension
//! once with its accumulators held in registers, and the update across a
//! tile's outputs vectorizes — never from reassociating a single dot
//! product. This keeps the ASR equivalence gates exact: the lazy
//! GEMM-batched decoder produces the same bits as the eager scalar one, and
//! batched training the same weights as per-example training.

#![warn(missing_docs)]

/// Transposes a row-major `rows x cols` matrix into a row-major
/// `cols x rows` matrix.
///
/// # Panics
///
/// Panics if `m.len() != rows * cols`.
pub fn transpose(m: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m.len()];
    transpose_into(m, rows, cols, &mut out);
    out
}

/// Like [`transpose`] but writes into a caller-provided slice, so a loop
/// that transposes every step allocates nothing.
///
/// # Panics
///
/// Panics if `m.len() != rows * cols` or `out.len() != m.len()`.
pub fn transpose_into(m: &[f32], rows: usize, cols: usize, out: &mut [f32]) {
    assert_eq!(m.len(), rows * cols, "matrix shape mismatch");
    assert_eq!(out.len(), m.len(), "output shape mismatch");
    for r in 0..rows {
        for c in 0..cols {
            out[c * rows + r] = m[r * cols + c];
        }
    }
}

/// Batched affine map `out = x * w^T + bias`, with `w` supplied
/// **pre-transposed**: `wt[k * outputs + o] == w[o * inputs + k]`.
///
/// * `x` is row-major `rows x inputs` (one input vector per row),
/// * `wt` is row-major `inputs x outputs` (the transposed weight matrix),
/// * `bias` has `outputs` entries,
/// * `out` is row-major `rows x outputs` and is fully overwritten.
///
/// Each output element is computed as `bias[o] + Σ_k w[o][k] * x[r][k]`
/// with `k` strictly increasing, so the result is bit-identical to the
/// scalar matrix-vector loop. The work is cut into register tiles of
/// 2 rows x 16 outputs (tails: 8, 4 and 1 outputs, and a last single row)
/// whose accumulators stay in registers for the whole `k` loop; within a
/// tile the update vectorizes across the outputs.
///
/// Any matrices fit the shape contract, so the DNN's training step uses
/// this kernel for all three of its products: `wt` may be an untransposed
/// `w` (back-propagation) or a batch of activations (weight gradient),
/// with a zero `bias`.
///
/// # Panics
///
/// Panics if any slice length disagrees with the stated shapes.
pub fn gemm_xwt_bias(
    x: &[f32],
    rows: usize,
    inputs: usize,
    wt: &[f32],
    outputs: usize,
    bias: &[f32],
    out: &mut [f32],
) {
    assert_eq!(x.len(), rows * inputs, "input matrix shape");
    assert_eq!(wt.len(), inputs * outputs, "weight matrix shape");
    assert_eq!(bias.len(), outputs, "bias length");
    assert_eq!(out.len(), rows * outputs, "output matrix shape");
    let pairs = rows / 2 * 2;
    for r in (0..pairs).step_by(2) {
        let (x, out) = (&x[r * inputs..], &mut out[r * outputs..]);
        row_block::<2>(x, inputs, wt, outputs, bias, out);
    }
    if pairs < rows {
        let (x, out) = (&x[pairs * inputs..], &mut out[pairs * outputs..]);
        row_block::<1>(x, inputs, wt, outputs, bias, out);
    }
}

/// All outputs of the first `R` rows of `x` and `out`, 16 outputs at a
/// time, then the 8-, 4- and 1-wide tails.
fn row_block<const R: usize>(
    x: &[f32],
    inputs: usize,
    wt: &[f32],
    outputs: usize,
    bias: &[f32],
    out: &mut [f32],
) {
    let mut o = 0;
    while o + 16 <= outputs {
        tile::<R, 16>(x, inputs, wt, outputs, o, bias, out);
        o += 16;
    }
    if o + 8 <= outputs {
        tile::<R, 8>(x, inputs, wt, outputs, o, bias, out);
        o += 8;
    }
    if o + 4 <= outputs {
        tile::<R, 4>(x, inputs, wt, outputs, o, bias, out);
        o += 4;
    }
    while o < outputs {
        tile::<R, 1>(x, inputs, wt, outputs, o, bias, out);
        o += 1;
    }
}

/// One `R x T` tile at output column `o0`: `R * T` accumulators start at
/// the bias and take one product per `k`, in ascending `k`.
#[inline(always)]
fn tile<const R: usize, const T: usize>(
    x: &[f32],
    inputs: usize,
    wt: &[f32],
    outputs: usize,
    o0: usize,
    bias: &[f32],
    out: &mut [f32],
) {
    let xs: [&[f32]; R] = std::array::from_fn(|r| &x[r * inputs..(r + 1) * inputs]);
    let b: [f32; T] = bias[o0..o0 + T].try_into().expect("tile fits the bias");
    let mut acc = [b; R];
    for (k, wrow) in wt.chunks_exact(outputs).enumerate() {
        let w: &[f32; T] = wrow[o0..o0 + T].try_into().expect("tile fits the row");
        for (a, xr) in acc.iter_mut().zip(&xs) {
            let xk = xr[k];
            for (a, &w) in a.iter_mut().zip(w) {
                *a += w * xk;
            }
        }
    }
    for (r, a) in acc.iter().enumerate() {
        out[r * outputs + o0..r * outputs + o0 + T].copy_from_slice(a);
    }
}

/// Reference scalar implementation of [`gemm_xwt_bias`] taking the weight
/// matrix in its natural row-major `outputs x inputs` layout. Used by tests
/// and the scalar-vs-GEMM ablation bench.
///
/// # Panics
///
/// Panics if any slice length disagrees with the stated shapes.
pub fn matvec_rows_bias(
    x: &[f32],
    rows: usize,
    inputs: usize,
    w: &[f32],
    outputs: usize,
    bias: &[f32],
    out: &mut [f32],
) {
    assert_eq!(x.len(), rows * inputs, "input matrix shape");
    assert_eq!(w.len(), outputs * inputs, "weight matrix shape");
    assert_eq!(bias.len(), outputs, "bias length");
    assert_eq!(out.len(), rows * outputs, "output matrix shape");
    for r in 0..rows {
        let xr = &x[r * inputs..(r + 1) * inputs];
        for o in 0..outputs {
            let wrow = &w[o * inputs..(o + 1) * inputs];
            let mut acc = bias[o];
            for (wv, xv) in wrow.iter().zip(xr) {
                acc += wv * xv;
            }
            out[r * outputs + o] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deterministic(n: usize, seed: u64) -> Vec<f32> {
        // Small LCG so the crate stays dependency-free.
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn transpose_round_trips() {
        let m = deterministic(6 * 4, 1);
        let t = transpose(&m, 6, 4);
        let back = transpose(&t, 4, 6);
        assert_eq!(m, back);
        assert_eq!(t[5], m[5 * 4]);
        assert_eq!(t[3 * 6 + 2], m[2 * 4 + 3]);
    }

    /// The tiled GEMM must be BIT-identical to the scalar matrix-vector
    /// reference — this is the property the ASR equivalence gates rely on.
    /// The shapes reach every tile: outputs 1–17 cover each mix of the 16-,
    /// 8-, 4- and 1-wide tiles, 78/81/96 are the DNN's widths, and odd row
    /// counts take the single-row tail.
    #[test]
    fn gemm_is_bit_identical_to_scalar_reference() {
        let tiles = (1..=17).chain([78, 81, 96]).flat_map(|outputs| {
            [1, 2, 3, 31, 32]
                .into_iter()
                .flat_map(move |rows| [(rows, 7, outputs), (rows, 78, outputs)])
        });
        for (rows, inputs, outputs) in [(1, 7, 5), (3, 78, 96), (17, 96, 81), (32, 13, 1)]
            .into_iter()
            .chain(tiles)
        {
            let x = deterministic(rows * inputs, 2);
            let w = deterministic(outputs * inputs, 3);
            let bias = deterministic(outputs, 4);
            let wt = transpose(&w, outputs, inputs);
            let mut fast = vec![0.0f32; rows * outputs];
            let mut reference = vec![0.0f32; rows * outputs];
            gemm_xwt_bias(&x, rows, inputs, &wt, outputs, &bias, &mut fast);
            matvec_rows_bias(&x, rows, inputs, &w, outputs, &bias, &mut reference);
            assert!(
                fast.iter()
                    .zip(&reference)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{rows}x{inputs}x{outputs} differs"
            );

            // The two training uses: a zero bias, and a `w` passed in its
            // natural `outputs x inputs` layout as the `wt` of the map
            // `rows x outputs -> rows x inputs` (back-propagation).
            let zeros = vec![0.0f32; inputs];
            let d = deterministic(rows * outputs, 5);
            let mut fast = vec![0.0f32; rows * inputs];
            let mut reference = vec![0.0f32; rows * inputs];
            gemm_xwt_bias(&d, rows, outputs, &w, inputs, &zeros, &mut fast);
            matvec_rows_bias(&d, rows, outputs, &wt, inputs, &zeros, &mut reference);
            assert!(
                fast.iter()
                    .zip(&reference)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{rows}x{outputs}x{inputs} with untransposed w and zero bias differs"
            );
        }
    }

    #[test]
    fn gemm_handles_zero_rows() {
        let wt = transpose(&deterministic(3 * 2, 5), 3, 2);
        let mut out = [0.0f32; 0];
        gemm_xwt_bias(&[], 0, 2, &wt, 3, &[0.0; 3], &mut out);
    }

    #[test]
    #[should_panic(expected = "weight matrix shape")]
    fn gemm_rejects_bad_shapes() {
        let mut out = [0.0f32; 2];
        gemm_xwt_bias(&[1.0, 2.0], 1, 2, &[0.0; 3], 2, &[0.0; 2], &mut out);
    }
}
