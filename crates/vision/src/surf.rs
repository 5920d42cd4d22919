//! SURF: Speeded-Up Robust Features (Bay et al., 2006).
//!
//! The paper's image-matching service (Figure 5) splits SURF into the two
//! Sirius Suite kernels this module exposes:
//!
//! * **Feature Extraction (FE)** — [`detect`]: build the box-filter Hessian
//!   scale space over an integral image, threshold the responses and keep
//!   3×3×3 local maxima as keypoints.
//! * **Feature Description (FD)** — [`describe`]: assign each keypoint a
//!   dominant Haar-wavelet orientation, then accumulate oriented Haar
//!   responses over a 4×4 grid of subregions into a 64-dimensional
//!   descriptor.

use std::f32::consts::PI;

use crate::image::GrayImage;
use crate::integral::IntegralImage;

/// Descriptor dimensionality (4 × 4 subregions × 4 statistics).
pub const DESCRIPTOR_DIM: usize = 64;

/// A detected interest point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyPoint {
    /// X coordinate in pixels.
    pub x: f32,
    /// Y coordinate in pixels.
    pub y: f32,
    /// Characteristic scale (1.2 × filter_size / 9).
    pub scale: f32,
    /// Hessian determinant response.
    pub response: f32,
    /// Sign of the Laplacian (trace), used for fast match rejection.
    pub laplacian_positive: bool,
    /// Dominant orientation in radians (set by [`describe`]).
    pub orientation: f32,
}

/// A 64-dimensional SURF descriptor, L2-normalized.
#[derive(Debug, Clone, PartialEq)]
pub struct Descriptor(pub Vec<f32>);

impl Descriptor {
    /// Squared Euclidean distance to another descriptor.
    pub fn distance_sq(&self, other: &Descriptor) -> f32 {
        self.0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }
}

/// Detector/descriptor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurfConfig {
    /// Number of scale-space octaves (1..=4).
    pub octaves: usize,
    /// Hessian response threshold; lower finds more keypoints.
    pub threshold: f32,
    /// Base sampling step in pixels (doubled each octave).
    pub init_step: usize,
    /// If `true`, skip orientation assignment (upright U-SURF).
    pub upright: bool,
}

impl Default for SurfConfig {
    fn default() -> Self {
        Self {
            octaves: 3,
            threshold: 2e-4,
            init_step: 2,
            upright: false,
        }
    }
}

/// Filter sizes per octave, as in the original SURF scale space.
const OCTAVE_FILTERS: [[usize; 4]; 4] = [
    [9, 15, 21, 27],
    [15, 27, 39, 51],
    [27, 51, 75, 99],
    [51, 99, 147, 195],
];

/// One layer of Hessian responses at a fixed filter size.
struct ResponseLayer {
    /// Filter size in pixels.
    filter: usize,
    /// Sampling step in pixels.
    step: usize,
    /// Grid dimensions.
    w: usize,
    h: usize,
    /// det(H) responses.
    responses: Vec<f32>,
    /// Laplacian signs.
    laplacian: Vec<bool>,
}

impl ResponseLayer {
    fn build(ii: &IntegralImage, filter: usize, step: usize) -> Self {
        let w = ii.width() / step;
        let h = ii.height() / step;
        let lobe = filter as isize / 3;
        let border = (filter as isize - 1) / 2 + 1;
        let inv_area = 1.0 / (filter * filter) as f64;
        let mut responses = Vec::with_capacity(w * h);
        let mut laplacian = Vec::with_capacity(w * h);
        for gy in 0..h {
            for gx in 0..w {
                let c = (gx * step) as isize; // column (x)
                let r = (gy * step) as isize; // row (y)

                // Box sums; box(r, c, rows, cols) over [c, c+cols) x [r, r+rows).
                let bx = |r0: isize, c0: isize, rows: isize, cols: isize| -> f64 {
                    ii.box_sum(c0, r0, c0 + cols, r0 + rows)
                };
                let dxx = bx(r - lobe + 1, c - border, 2 * lobe - 1, filter as isize)
                    - 3.0 * bx(r - lobe + 1, c - lobe / 2, 2 * lobe - 1, lobe);
                let dyy = bx(r - border, c - lobe + 1, filter as isize, 2 * lobe - 1)
                    - 3.0 * bx(r - lobe / 2, c - lobe + 1, lobe, 2 * lobe - 1);
                let dxy = bx(r - lobe, c + 1, lobe, lobe) + bx(r + 1, c - lobe, lobe, lobe)
                    - bx(r - lobe, c - lobe, lobe, lobe)
                    - bx(r + 1, c + 1, lobe, lobe);
                let dxx = dxx * inv_area;
                let dyy = dyy * inv_area;
                let dxy = dxy * inv_area;
                responses.push((dxx * dyy - 0.81 * dxy * dxy) as f32);
                laplacian.push(dxx + dyy >= 0.0);
            }
        }
        Self {
            filter,
            step,
            w,
            h,
            responses,
            laplacian,
        }
    }

    #[inline]
    fn response_at(&self, x_px: usize, y_px: usize) -> f32 {
        let gx = (x_px / self.step).min(self.w.saturating_sub(1));
        let gy = (y_px / self.step).min(self.h.saturating_sub(1));
        self.responses[gy * self.w + gx]
    }

    #[inline]
    fn laplacian_at(&self, x_px: usize, y_px: usize) -> bool {
        let gx = (x_px / self.step).min(self.w.saturating_sub(1));
        let gy = (y_px / self.step).min(self.h.saturating_sub(1));
        self.laplacian[gy * self.w + gx]
    }
}

/// Feature Extraction: detects interest points in `img`.
///
/// This is the Sirius Suite **FE** kernel.
pub fn detect(img: &GrayImage, config: &SurfConfig) -> Vec<KeyPoint> {
    let ii = IntegralImage::new(img);
    detect_on_integral(&ii, config)
}

/// Like [`detect`], but reuses a prebuilt integral image.
pub fn detect_on_integral(ii: &IntegralImage, config: &SurfConfig) -> Vec<KeyPoint> {
    let octaves = config.octaves.clamp(1, 4);
    let mut keypoints = Vec::new();
    for o in 0..octaves {
        let step = config.init_step.max(1) << o;
        let layers: Vec<ResponseLayer> = OCTAVE_FILTERS[o]
            .iter()
            .map(|&f| ResponseLayer::build(ii, f, step))
            .collect();
        // Non-maximum suppression over (bottom, middle, top) triples.
        for m in 1..3 {
            let (bottom, middle, top) = (&layers[m - 1], &layers[m], &layers[m + 1]);
            nms_layer(ii, bottom, middle, top, step, config, &mut keypoints);
        }
    }
    keypoints
}

fn nms_layer(
    ii: &IntegralImage,
    bottom: &ResponseLayer,
    middle: &ResponseLayer,
    top: &ResponseLayer,
    step: usize,
    config: &SurfConfig,
    out: &mut Vec<KeyPoint>,
) {
    let threshold = config.threshold;
    // The border excludes positions where the top filter hangs off the image.
    let border = (top.filter / 2 + 1).div_ceil(step) * step;
    let (w_px, h_px) = (ii.width(), ii.height());
    if w_px <= 2 * border || h_px <= 2 * border {
        return;
    }
    // Row-major scan of the suppression grid.
    for y in (border..h_px - border).step_by(step) {
        for x in (border..w_px - border).step_by(step) {
            let v = middle.response_at(x, y);
            if v > threshold && is_local_max(v, x, y, step, bottom, middle, top) {
                out.push(KeyPoint {
                    x: x as f32,
                    y: y as f32,
                    scale: 1.2 * middle.filter as f32 / 9.0,
                    response: v,
                    laplacian_positive: middle.laplacian_at(x, y),
                    orientation: 0.0,
                });
            }
        }
    }
}

fn is_local_max(
    v: f32,
    x: usize,
    y: usize,
    step: usize,
    bottom: &ResponseLayer,
    middle: &ResponseLayer,
    top: &ResponseLayer,
) -> bool {
    for dy in -1isize..=1 {
        for dx in -1isize..=1 {
            let nx = (x as isize + dx * step as isize).max(0) as usize;
            let ny = (y as isize + dy * step as isize).max(0) as usize;
            if bottom.response_at(nx, ny) >= v || top.response_at(nx, ny) >= v {
                return false;
            }
            if (dx != 0 || dy != 0) && middle.response_at(nx, ny) >= v {
                return false;
            }
        }
    }
    true
}

/// Haar wavelet response in x at `(x, y)` with filter side `s` pixels.
#[inline]
fn haar_x(ii: &IntegralImage, x: isize, y: isize, s: isize) -> f32 {
    let half = s / 2;
    (ii.box_sum(x, y - half, x + half, y + half) - ii.box_sum(x - half, y - half, x, y + half))
        as f32
}

/// Haar wavelet response in y at `(x, y)` with filter side `s` pixels.
#[inline]
fn haar_y(ii: &IntegralImage, x: isize, y: isize, s: isize) -> f32 {
    let half = s / 2;
    (ii.box_sum(x - half, y, x + half, y + half) - ii.box_sum(x - half, y - half, x + half, y))
        as f32
}

fn gaussian(x: f32, y: f32, sigma: f32) -> f32 {
    (-(x * x + y * y) / (2.0 * sigma * sigma)).exp() / (2.0 * PI * sigma * sigma)
}

/// Assigns the dominant orientation to a keypoint (the first FD stage).
pub fn assign_orientation(ii: &IntegralImage, kp: &KeyPoint) -> f32 {
    let s = kp.scale.round().max(1.0) as isize;
    let (xc, yc) = (kp.x.round() as isize, kp.y.round() as isize);
    let mut angles = Vec::with_capacity(113);
    for j in -6isize..=6 {
        for i in -6isize..=6 {
            if i * i + j * j >= 36 {
                continue;
            }
            let g = gaussian(i as f32, j as f32, 2.5);
            let rx = g * haar_x(ii, xc + i * s, yc + j * s, 4 * s);
            let ry = g * haar_y(ii, xc + i * s, yc + j * s, 4 * s);
            angles.push((ry.atan2(rx), rx, ry));
        }
    }
    // Sliding window of pi/3 over the angle circle.
    let mut best = (0.0f32, 0.0f32, 0.0f32); // (len^2, sum_x, sum_y)
    let mut ang = -PI;
    while ang < PI {
        let lo = ang;
        let hi = ang + PI / 3.0;
        let (mut sx, mut sy) = (0.0f32, 0.0f32);
        for &(a, rx, ry) in &angles {
            let in_window = if hi <= PI {
                a >= lo && a < hi
            } else {
                a >= lo || a < hi - 2.0 * PI
            };
            if in_window {
                sx += rx;
                sy += ry;
            }
        }
        let len = sx * sx + sy * sy;
        if len > best.0 {
            best = (len, sx, sy);
        }
        ang += 0.15;
    }
    best.2.atan2(best.1)
}

/// Computes the 64-d descriptor for an oriented keypoint.
pub fn describe_keypoint(ii: &IntegralImage, kp: &KeyPoint) -> Descriptor {
    let s = kp.scale.max(1.0);
    let (cos_t, sin_t) = (kp.orientation.cos(), kp.orientation.sin());
    let mut v = Vec::with_capacity(DESCRIPTOR_DIM);
    // 4x4 subregions, each sampled 5x5 at spacing s, window spans [-10s, 10s).
    for sub_y in 0..4 {
        for sub_x in 0..4 {
            let (mut dx_sum, mut dy_sum, mut adx_sum, mut ady_sum) = (0.0f32, 0.0, 0.0, 0.0);
            for sample_y in 0..5 {
                for sample_x in 0..5 {
                    // Sample offset in keypoint-aligned coordinates, units of s.
                    let u = (sub_x as f32 - 2.0) * 5.0 + sample_x as f32 + 0.5;
                    let w = (sub_y as f32 - 2.0) * 5.0 + sample_y as f32 + 0.5;
                    let gx = kp.x + (u * cos_t - w * sin_t) * s;
                    let gy = kp.y + (u * sin_t + w * cos_t) * s;
                    let g = gaussian(u, w, 3.3);
                    let rx = haar_x(
                        ii,
                        gx.round() as isize,
                        gy.round() as isize,
                        (2.0 * s) as isize,
                    );
                    let ry = haar_y(
                        ii,
                        gx.round() as isize,
                        gy.round() as isize,
                        (2.0 * s) as isize,
                    );
                    // Rotate responses into the keypoint frame.
                    let dx = g * (rx * cos_t + ry * sin_t);
                    let dy = g * (-rx * sin_t + ry * cos_t);
                    dx_sum += dx;
                    dy_sum += dy;
                    adx_sum += dx.abs();
                    ady_sum += dy.abs();
                }
            }
            v.extend_from_slice(&[dx_sum, dy_sum, adx_sum, ady_sum]);
        }
    }
    // L2 normalization for contrast invariance.
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 1e-12 {
        for x in &mut v {
            *x /= norm;
        }
    }
    Descriptor(v)
}

/// Feature Description: orients and describes all keypoints.
///
/// This is the Sirius Suite **FD** kernel. Returns the keypoints with their
/// orientations filled in, and their descriptors.
pub fn describe(
    img: &GrayImage,
    keypoints: &[KeyPoint],
    config: &SurfConfig,
) -> (Vec<KeyPoint>, Vec<Descriptor>) {
    let ii = IntegralImage::new(img);
    describe_on_integral(&ii, keypoints, config)
}

/// Like [`describe`], but reuses a prebuilt integral image.
pub fn describe_on_integral(
    ii: &IntegralImage,
    keypoints: &[KeyPoint],
    config: &SurfConfig,
) -> (Vec<KeyPoint>, Vec<Descriptor>) {
    keypoints
        .iter()
        .copied()
        .map(|mut kp| {
            kp.orientation = if config.upright {
                0.0
            } else {
                assign_orientation(ii, &kp)
            };
            let desc = describe_keypoint(ii, &kp);
            (kp, desc)
        })
        .unzip()
}

/// Full pipeline: detect + describe.
pub fn extract(img: &GrayImage, config: &SurfConfig) -> (Vec<KeyPoint>, Vec<Descriptor>) {
    let ii = IntegralImage::new(img);
    let kps = detect_on_integral(&ii, config);
    describe_on_integral(&ii, &kps, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;

    fn blob_image() -> GrayImage {
        // A bright Gaussian blob on a dark background.
        let mut img = GrayImage::new(128, 128);
        for y in 0..128 {
            for x in 0..128 {
                let dx = x as f32 - 64.0;
                let dy = y as f32 - 64.0;
                img.set(x, y, (-(dx * dx + dy * dy) / 128.0).exp());
            }
        }
        img
    }

    #[test]
    fn detects_blob_center() {
        let img = blob_image();
        let kps = detect(&img, &SurfConfig::default());
        assert!(!kps.is_empty(), "no keypoints found");
        let best = kps
            .iter()
            .max_by(|a, b| a.response.total_cmp(&b.response))
            .expect("non-empty");
        assert!(
            (best.x - 64.0).abs() <= 6.0 && (best.y - 64.0).abs() <= 6.0,
            "best keypoint at ({}, {})",
            best.x,
            best.y
        );
        let _ = best.laplacian_positive; // field is populated
    }

    #[test]
    fn flat_image_has_no_keypoints() {
        let img = GrayImage::from_data(96, 96, vec![0.5; 96 * 96]);
        let kps = detect(&img, &SurfConfig::default());
        assert!(
            kps.is_empty(),
            "found {} keypoints in flat image",
            kps.len()
        );
    }

    #[test]
    fn descriptors_are_normalized() {
        let img = synth::generate_scene(11, 160, 160);
        let (kps, descs) = extract(&img, &SurfConfig::default());
        assert!(!kps.is_empty());
        for d in &descs {
            assert_eq!(d.0.len(), DESCRIPTOR_DIM);
            let norm: f32 = d.0.iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!((norm - 1.0).abs() < 1e-4, "norm {norm}");
        }
    }

    #[test]
    fn descriptor_is_contrast_invariant() {
        let img = blob_image();
        let dimmed = GrayImage::from_data(
            img.width(),
            img.height(),
            img.data().iter().map(|v| v * 0.4).collect(),
        );
        let cfg = SurfConfig::default();
        let kps = detect(&img, &cfg);
        let (_, d1) = describe(&img, &kps, &cfg);
        let (_, d2) = describe(&dimmed, &kps, &cfg);
        let dist = d1[0].distance_sq(&d2[0]);
        assert!(dist < 1e-4, "contrast changed descriptor by {dist}");
    }

    #[test]
    fn matched_keypoints_have_similar_descriptors_after_shift() {
        // Translate the scene; descriptors at translated positions must be
        // much closer than random pairs.
        let img = synth::generate_scene(3, 200, 200);
        let shifted = img.crop_clamped(8, 8, 184, 184);
        let cfg = SurfConfig::default();
        let (kps1, d1) = extract(&img, &cfg);
        let (kps2, d2) = extract(&shifted, &cfg);
        assert!(kps1.len() > 3 && kps2.len() > 3);
        // For each keypoint in `shifted`, find the original keypoint at
        // (x+8, y+8) if any, and compare descriptor distances.
        let mut matched = 0;
        let mut close = 0;
        for (k2, desc2) in kps2.iter().zip(&d2) {
            if let Some(i1) = kps1.iter().position(|k1| {
                (k1.x - (k2.x + 8.0)).abs() <= 2.0 && (k1.y - (k2.y + 8.0)).abs() <= 2.0
            }) {
                matched += 1;
                let d_match = d1[i1].distance_sq(desc2);
                // Compare to median distance against all descriptors.
                let mut others: Vec<f32> = d1.iter().map(|d| d.distance_sq(desc2)).collect();
                others.sort_by(f32::total_cmp);
                let median = others[others.len() / 2];
                if d_match < median * 0.5 {
                    close += 1;
                }
            }
        }
        assert!(matched >= 3, "only {matched} spatial correspondences");
        assert!(
            close * 2 >= matched,
            "only {close}/{matched} correspondences were descriptor-close"
        );
    }

    #[test]
    fn upright_mode_skips_orientation() {
        let img = blob_image();
        let cfg = SurfConfig {
            upright: true,
            ..SurfConfig::default()
        };
        let kps = detect(&img, &cfg);
        let (oriented, _) = describe(&img, &kps, &cfg);
        assert!(oriented.iter().all(|k| k.orientation == 0.0));
    }
}

#[cfg(test)]
mod geometry_tests {
    use super::*;
    use crate::synth::{self, ViewConfig};

    #[test]
    fn orientation_tracks_image_rotation() {
        // Rotate the scene; the dominant orientation of corresponding
        // keypoints should shift by roughly the rotation angle.
        let scene = synth::generate_scene(17, 192, 192);
        let angle = 0.35f32;
        let rotated = synth::render_view(
            &scene,
            &ViewConfig {
                rotation: angle,
                noise: 0.0,
                ..ViewConfig::default()
            },
            0,
        );
        let cfg = SurfConfig::default();
        let (kps1, _) = extract(&scene, &cfg);
        let (kps2, _) = extract(&rotated, &cfg);
        assert!(!kps1.is_empty() && !kps2.is_empty());
        // Match keypoints by rotated position around the image center.
        let (cx, cy) = (96.0f32, 96.0f32);
        let mut diffs = Vec::new();
        for k2 in &kps2 {
            // Inverse-rotate k2's position into scene coordinates.
            let dx = k2.x - cx;
            let dy = k2.y - cy;
            let sx = dx * angle.cos() + dy * angle.sin() + cx;
            let sy = -dx * angle.sin() + dy * angle.cos() + cy;
            if let Some(k1) = kps1.iter().find(|k| {
                (k.x - sx).abs() <= 3.0
                    && (k.y - sy).abs() <= 3.0
                    && (k.scale - k2.scale).abs() < 0.5
            }) {
                let mut d = k2.orientation - k1.orientation - angle;
                while d > std::f32::consts::PI {
                    d -= 2.0 * std::f32::consts::PI;
                }
                while d < -std::f32::consts::PI {
                    d += 2.0 * std::f32::consts::PI;
                }
                diffs.push(d.abs());
            }
        }
        assert!(diffs.len() >= 3, "only {} correspondences", diffs.len());
        diffs.sort_by(f32::total_cmp);
        let median = diffs[diffs.len() / 2];
        assert!(median < 0.35, "median orientation error {median} rad");
    }

    #[test]
    fn blob_size_drives_detected_scale() {
        // A larger Gaussian blob should fire at a larger characteristic
        // scale.
        let blob = |sigma: f32| -> GrayImage {
            let mut img = GrayImage::new(192, 192);
            for y in 0..192 {
                for x in 0..192 {
                    let dx = x as f32 - 96.0;
                    let dy = y as f32 - 96.0;
                    img.set(x, y, (-(dx * dx + dy * dy) / (2.0 * sigma * sigma)).exp());
                }
            }
            img
        };
        let cfg = SurfConfig::default();
        let scale_of = |img: &GrayImage| -> f32 {
            detect(img, &cfg)
                .iter()
                .max_by(|a, b| a.response.total_cmp(&b.response))
                .map(|k| k.scale)
                .expect("keypoint found")
        };
        let small = scale_of(&blob(5.0));
        let large = scale_of(&blob(14.0));
        assert!(
            large > small,
            "blob sigma 14 scale {large} should exceed sigma 5 scale {small}"
        );
    }

    #[test]
    fn descriptor_distance_separates_different_patches() {
        let scene = synth::generate_scene(19, 192, 192);
        let cfg = SurfConfig::default();
        let (kps, descs) = extract(&scene, &cfg);
        assert!(kps.len() >= 4);
        // Distance to self is zero; distances between distinct keypoints
        // are positive.
        assert_eq!(descs[0].distance_sq(&descs[0]), 0.0);
        let cross = descs[0].distance_sq(&descs[1]);
        assert!(cross > 0.0);
    }
}

#[cfg(test)]
mod descriptor_property_tests {
    use super::*;
    use crate::synth;

    /// Descriptors are unit-norm (or zero for featureless patches) and
    /// their pairwise distance is bounded by 4 (both unit vectors).
    #[test]
    fn descriptor_norms_and_distances_are_bounded() {
        for seed in [0u64, 7, 23, 41, 55, 68, 83, 99] {
            let img = synth::generate_scene(seed, 128, 128);
            let (_, descs) = extract(&img, &SurfConfig::default());
            for d in &descs {
                let norm: f32 = d.0.iter().map(|x| x * x).sum();
                assert!(norm <= 1.0 + 1e-3, "seed {seed}: norm^2 {norm}");
            }
            if descs.len() >= 2 {
                let dist = descs[0].distance_sq(&descs[1]);
                assert!((0.0..=4.0 + 1e-3).contains(&dist), "seed {seed}");
            }
        }
    }
}
