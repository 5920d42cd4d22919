//! # sirius-vision
//!
//! The image-matching (IMM) substrate of the Sirius reproduction
//! (Hauswald et al., ASPLOS 2015): a from-scratch SURF pipeline over
//! integral images, an exact nearest-neighbour matcher (a flat scan) with
//! a ratio-test vote, and a procedurally generated image database standing
//! in for the Stanford Mobile Visual Search data set (see DESIGN.md for the
//! substitution).
//!
//! * [`image`] — grayscale images, bilinear sampling, tiling (for the
//!   multicore FE port of paper Section 4.3.1).
//! * [`integral`] — summed-area tables.
//! * [`surf`] — the Sirius Suite **FE** (detector) and **FD** (descriptor)
//!   kernels.
//! * [`ann`] — exact two-nearest-neighbour search: a flat scan of a
//!   row-major descriptor matrix.
//! * [`db`] — the image database + matching service (paper Figure 5).
//! * [`synth`] — procedural scenes and affine query views.
//!
//! # Example
//!
//! ```
//! use sirius_vision::{db::{ImageDatabase, ImageId, MatchConfig}, synth};
//!
//! let scenes: Vec<_> = (0..3).map(|s| synth::generate_scene(s, 160, 160)).collect();
//! let db = ImageDatabase::build(scenes.iter(), MatchConfig::default());
//! let query = synth::random_view(&scenes[1], 99);
//! assert_eq!(db.match_image(&query).best, Some(ImageId(1)));
//! ```

#![warn(missing_docs)]
// Numeric kernels index parallel arrays; indexed loops are the clearer idiom.
#![allow(clippy::needless_range_loop)]

pub mod ann;
pub mod db;
pub mod image;
pub mod integral;
pub mod surf;
pub mod synth;

pub use db::{ImageDatabase, ImageId, MatchConfig, MatchResult, PartialMatch, QueryFeatures};
pub use image::GrayImage;
pub use surf::{Descriptor, KeyPoint, SurfConfig};
