//! Image database and matching: the IMM service back-end.
//!
//! Mirrors the paper's image-matching flow (Section 2.3.2): descriptors from
//! the input image are matched against the database descriptors with a
//! nearest-neighbour search and a ratio test; "the database image with the
//! highest number of matches is returned". There is one matcher,
//! [`ImageDatabase::match_across`]: a scatter-gather over a list of shards
//! ([`ImageDatabase::match_partial`] then
//! [`ImageDatabase::merge_partials`]). A whole database is matched as its
//! own only shard, so an unsharded match and a sharded one are the same
//! computation.

use std::time::{Duration, Instant};

use crate::ann::{self, neighbor_order, Neighbor};
use crate::image::GrayImage;
use crate::integral::IntegralImage;
use crate::surf::{self, Descriptor, SurfConfig, DESCRIPTOR_DIM};

/// Identifier of a database image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ImageId(pub u32);

/// Matching configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchConfig {
    /// SURF detector/descriptor settings.
    pub surf: SurfConfig,
    /// Lowe ratio test threshold (best/second distance).
    pub ratio: f32,
}

impl Default for MatchConfig {
    fn default() -> Self {
        Self {
            surf: SurfConfig::default(),
            ratio: 0.75,
        }
    }
}

/// Per-stage timing of one image-matching query (FE / FD / ANN).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ImmTiming {
    /// Feature extraction (detector) time.
    pub feature_extraction: Duration,
    /// Feature description time.
    pub feature_description: Duration,
    /// ANN search + voting time.
    pub ann_search: Duration,
    /// Total wall-clock.
    pub total: Duration,
}

/// SURF features extracted from one query image, reusable across shard
/// probes: the scatter-gather match extracts once and sends the same
/// features to every database shard instead of re-detecting per shard.
#[derive(Debug, Clone)]
pub struct QueryFeatures {
    /// One descriptor per detected keypoint.
    descriptors: Vec<Descriptor>,
    feature_extraction: Duration,
    feature_description: Duration,
}

impl QueryFeatures {
    /// Number of query keypoints.
    pub fn len(&self) -> usize {
        self.descriptors.len()
    }

    /// Whether the query produced no keypoints.
    pub fn is_empty(&self) -> bool {
        self.descriptors.is_empty()
    }
}

/// One shard's contribution to a scatter-gather match: for every query
/// keypoint, the shard's best two database descriptors under the
/// total [`neighbor_order`] (distance, then global descriptor id).
/// Payloads are *global* descriptor indices, so candidates from different
/// shards merge under the same total order a whole-index search uses.
#[derive(Debug, Clone)]
pub struct PartialMatch {
    candidates: Vec<[Option<Neighbor>; 2]>,
    /// Time this shard spent in ANN search (shards run concurrently in a
    /// cluster; the merged timing charges the slowest shard).
    pub ann_search: Duration,
}

/// The result of matching a query image against the database.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchResult {
    /// Best-matching image, or `None` when nothing passed the ratio test.
    pub best: Option<ImageId>,
    /// Votes per database image, sorted descending.
    pub votes: Vec<(ImageId, usize)>,
    /// Number of query keypoints.
    pub query_keypoints: usize,
    /// Per-stage timing.
    pub timing: ImmTiming,
}

/// A database of SURF-indexed images.
#[derive(Debug)]
pub struct ImageDatabase {
    config: MatchConfig,
    /// The indexed descriptors, row-major, [`DESCRIPTOR_DIM`] floats a row.
    descriptors: Vec<f32>,
    /// The global descriptor index of each row (the search payload; a shard
    /// holds a subset of the rows under their global indices).
    ids: Vec<u32>,
    num_images: u32,
    /// Image id of every descriptor, by global index.
    desc_image: Vec<u32>,
}

/// Incremental database construction, supporting multiple enrolled views
/// per image (the Stanford MVS data set photographs each object several
/// times; enrolling extra views makes matching robust to stronger
/// viewpoint changes).
#[derive(Debug)]
pub struct ImageDatabaseBuilder {
    config: MatchConfig,
    descriptors: Vec<f32>,
    desc_image: Vec<u32>,
    num_images: u32,
}

impl ImageDatabaseBuilder {
    /// Creates an empty builder.
    pub fn new(config: MatchConfig) -> Self {
        Self {
            config,
            descriptors: Vec::new(),
            desc_image: Vec::new(),
            num_images: 0,
        }
    }

    /// Enrolls a new image; returns its id.
    pub fn add_image(&mut self, img: &GrayImage) -> ImageId {
        let id = ImageId(self.num_images);
        self.num_images += 1;
        self.add_view(id, img);
        id
    }

    /// Enrolls an additional view of an existing image.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by a prior [`add_image`] call.
    ///
    /// [`add_image`]: Self::add_image
    pub fn add_view(&mut self, id: ImageId, img: &GrayImage) {
        assert!(id.0 < self.num_images, "unknown image id {id:?}");
        let (_, descs) = surf::extract(img, &self.config.surf);
        for d in descs {
            // The row's global index is its position; the image id lives in
            // a parallel array.
            self.descriptors.extend_from_slice(&d.0);
            self.desc_image.push(id.0);
        }
    }

    /// Finalizes the index.
    pub fn build(self) -> ImageDatabase {
        ImageDatabase {
            config: self.config,
            descriptors: self.descriptors,
            ids: (0..self.desc_image.len() as u32).collect(),
            num_images: self.num_images,
            desc_image: self.desc_image,
        }
    }
}

impl ImageDatabase {
    /// Builds a database by extracting and indexing features from `images`
    /// (one view each).
    pub fn build<'a, I>(images: I, config: MatchConfig) -> Self
    where
        I: IntoIterator<Item = &'a GrayImage>,
    {
        let mut builder = ImageDatabaseBuilder::new(config);
        for img in images {
            builder.add_image(img);
        }
        builder.build()
    }

    /// Serializes the database (configuration + indexed descriptors).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = sirius_codec::Encoder::new();
        e.tag("sirius_imm_v3");
        e.u32(self.num_images);
        e.f32(self.config.ratio);
        e.u32(self.config.surf.octaves as u32);
        e.f32(self.config.surf.threshold);
        e.u32(self.config.surf.init_step as u32);
        e.bool(self.config.surf.upright);
        e.u32(self.ids.len() as u32);
        for (row, &id) in self.rows().zip(&self.ids) {
            e.u32(id);
            e.f32_slice(row);
        }
        e.u32_slice(&self.desc_image);
        e.into_bytes()
    }

    /// Restores a database saved with [`ImageDatabase::to_bytes`].
    ///
    /// # Errors
    ///
    /// Fails on malformed, truncated or inconsistent bytes — a descriptor
    /// row that is not [`DESCRIPTOR_DIM`] floats long included — and on
    /// files written in an older format (`sirius_imm_v1` carried a search
    /// budget, `sirius_imm_v2` a keypoint position per descriptor; this
    /// version has neither).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, sirius_codec::DecodeError> {
        let mut d = sirius_codec::Decoder::new(bytes);
        d.tag("sirius_imm_v3")?;
        let num_images = d.u32()?;
        let ratio = d.f32()?;
        let config = MatchConfig {
            surf: SurfConfig {
                octaves: d.u32()? as usize,
                threshold: d.f32()?,
                init_step: d.u32()? as usize,
                upright: d.bool()?,
            },
            ratio,
        };
        let n = d.u32()? as usize;
        let (mut descriptors, mut ids) = (Vec::new(), Vec::new());
        for i in 0..n {
            ids.push(d.u32()?);
            let row = d.f32_vec()?;
            if row.len() != DESCRIPTOR_DIM {
                return Err(sirius_codec::DecodeError {
                    message: format!(
                        "descriptor {i} has {} floats, not {DESCRIPTOR_DIM}",
                        row.len()
                    ),
                    offset: 0,
                });
            }
            descriptors.extend_from_slice(&row);
        }
        let desc_image = d.u32_vec()?;
        d.finish()?;
        if desc_image.len() != n
            || ids.iter().any(|&p| p as usize >= n)
            || desc_image.iter().any(|&img| img >= num_images)
        {
            return Err(sirius_codec::DecodeError {
                message: "inconsistent descriptor tables".into(),
                offset: 0,
            });
        }
        Ok(Self {
            config,
            descriptors,
            ids,
            num_images,
            desc_image,
        })
    }

    /// Number of database images.
    pub fn num_images(&self) -> usize {
        self.num_images as usize
    }

    /// Number of indexed descriptors.
    pub fn num_descriptors(&self) -> usize {
        self.ids.len()
    }

    /// The indexed descriptors, one row each, in the order of `ids`.
    fn rows(&self) -> std::slice::ChunksExact<'_, f32> {
        self.descriptors.chunks_exact(DESCRIPTOR_DIM)
    }

    /// Builds shard `shard` of `num_shards`: the descriptor index is
    /// partitioned by enrolled image (`image_id % num_shards`), so each
    /// database image's descriptors live on exactly one shard, while the
    /// global descriptor→image table (and the image count) is carried
    /// whole. Row ids stay *global*
    /// descriptor indices, which keeps the total (distance, payload)
    /// candidate order consistent across shards — the
    /// property [`merge_partials`](Self::merge_partials) needs to
    /// reproduce the whole-database answer exactly.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero or `shard >= num_shards`.
    pub fn shard(&self, shard: u32, num_shards: u32) -> ImageDatabase {
        assert!(
            num_shards > 0 && shard < num_shards,
            "invalid shard {shard}/{num_shards}"
        );
        let mut descriptors = Vec::new();
        let mut ids = Vec::new();
        for (row, &id) in self.rows().zip(&self.ids) {
            if self.desc_image[id as usize] % num_shards == shard {
                descriptors.extend_from_slice(row);
                ids.push(id);
            }
        }
        ImageDatabase {
            config: self.config,
            descriptors,
            ids,
            num_images: self.num_images,
            desc_image: self.desc_image.clone(),
        }
    }

    /// Extracts query-side SURF features once, for reuse across shard
    /// probes ([`match_partial`](Self::match_partial)); detector and
    /// descriptor timings are carried into the merged result.
    pub fn extract_query(&self, query: &GrayImage) -> QueryFeatures {
        let t = Instant::now();
        let ii = IntegralImage::new(query);
        let keypoints = surf::detect_on_integral(&ii, &self.config.surf);
        let feature_extraction = t.elapsed();
        let t = Instant::now();
        let (_, descriptors) = surf::describe_on_integral(&ii, &keypoints, &self.config.surf);
        let feature_description = t.elapsed();
        QueryFeatures {
            descriptors,
            feature_extraction,
            feature_description,
        }
    }

    /// Runs this shard's half of a scatter-gather match: for every query
    /// keypoint, the shard's best two descriptors under the exact scan
    /// ([`ann::nearest2`]). Exactness is what makes the merge
    /// shard-count invariant: the union of per-shard best-2 always contains
    /// the global best-2.
    pub fn match_partial(&self, features: &QueryFeatures) -> PartialMatch {
        let t = Instant::now();
        let candidates = features
            .descriptors
            .iter()
            .map(|d| ann::nearest2(&self.descriptors, &self.ids, &d.0))
            .collect();
        PartialMatch {
            candidates,
            ann_search: t.elapsed(),
        }
    }

    /// Merges per-shard [`PartialMatch`]es into a [`MatchResult`]: each
    /// keypoint's global best-2 is the first two of the candidate union
    /// under [`neighbor_order`], then a ratio test and the vote-count /
    /// image-id ordering decide the winner. The output is a pure function of
    /// the query and the *union* of the shards' descriptors — identical for
    /// every shard count, including one. The merged `ann_search` timing
    /// charges the slowest shard (shards run concurrently in a cluster) plus
    /// the merge itself.
    ///
    /// # Panics
    ///
    /// Panics if a partial was produced from different query features.
    pub fn merge_partials(
        &self,
        features: &QueryFeatures,
        partials: &[PartialMatch],
    ) -> MatchResult {
        let t_merge = Instant::now();
        let shard_time = partials
            .iter()
            .map(|p| p.ann_search)
            .max()
            .unwrap_or_default();
        let votes = self.vote(features, partials);
        let ann_search = shard_time + t_merge.elapsed();
        MatchResult {
            best: votes.first().map(|&(id, _)| id),
            votes,
            query_keypoints: features.len(),
            timing: ImmTiming {
                feature_extraction: features.feature_extraction,
                feature_description: features.feature_description,
                ann_search,
                total: features.feature_extraction + features.feature_description + ann_search,
            },
        }
    }

    /// Matches a query image, reporting votes and per-stage timing: the
    /// scatter-gather match over this database as its only shard.
    pub fn match_image(&self, query: &GrayImage) -> MatchResult {
        self.match_across(query, std::slice::from_ref(self))
    }

    /// Matches a query image against `shards` (the shards of this database,
    /// or this database alone): features are extracted once, every shard
    /// searches them ([`match_partial`](Self::match_partial)) and this
    /// database's global tables merge the candidates
    /// ([`merge_partials`](Self::merge_partials)).
    pub fn match_across(&self, query: &GrayImage, shards: &[ImageDatabase]) -> MatchResult {
        let features = self.extract_query(query);
        let partials: Vec<PartialMatch> = shards
            .iter()
            .map(|shard| shard.match_partial(&features))
            .collect();
        self.merge_partials(&features, &partials)
    }

    /// The ratio-test vote over merged candidates: votes per image, sorted
    /// by count descending, image id ascending. A query keypoint votes for
    /// the image of its global best descriptor when that descriptor passes
    /// the ratio test.
    fn vote(&self, features: &QueryFeatures, partials: &[PartialMatch]) -> Vec<(ImageId, usize)> {
        let mut counts = vec![0usize; self.num_images as usize];
        for i in 0..features.len() {
            let mut union: Vec<Neighbor> = Vec::with_capacity(2 * partials.len());
            for partial in partials {
                assert_eq!(
                    partial.candidates.len(),
                    features.len(),
                    "partial match from different query features"
                );
                union.extend(partial.candidates[i].into_iter().flatten());
            }
            union.sort_by(neighbor_order);
            let Some(&best) = union.first() else {
                continue;
            };
            let best_image = self.desc_image[best.payload as usize];
            let passes = match union.get(1) {
                Some(s) if self.desc_image[s.payload as usize] != best_image => {
                    best.distance_sq < self.config.ratio * self.config.ratio * s.distance_sq
                }
                // Second neighbour from the same image (or absent) means
                // the match is unambiguous between images.
                _ => true,
            };
            if passes {
                counts[best_image as usize] += 1;
            }
        }
        let mut votes: Vec<(ImageId, usize)> = counts
            .into_iter()
            .enumerate()
            .map(|(i, c)| (ImageId(i as u32), c))
            .filter(|&(_, c)| c > 0)
            .collect();
        votes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        votes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;

    fn build_db(n: usize) -> (ImageDatabase, Vec<GrayImage>) {
        let scenes: Vec<GrayImage> = (0..n as u64)
            .map(|s| synth::generate_scene(s, 160, 160))
            .collect();
        let db = ImageDatabase::build(scenes.iter(), MatchConfig::default());
        (db, scenes)
    }

    #[test]
    fn identical_queries_match_their_source() {
        let (db, scenes) = build_db(6);
        assert_eq!(db.num_images(), 6);
        assert!(db.num_descriptors() > 20);
        for (i, scene) in scenes.iter().enumerate() {
            let r = db.match_image(scene);
            assert_eq!(r.best, Some(ImageId(i as u32)), "image {i}");
        }
    }

    #[test]
    fn transformed_views_match_their_source() {
        let (db, scenes) = build_db(6);
        let mut correct = 0;
        for (i, scene) in scenes.iter().enumerate() {
            let view = synth::random_view(scene, 1000 + i as u64);
            let r = db.match_image(&view);
            if r.best == Some(ImageId(i as u32)) {
                correct += 1;
            }
        }
        assert!(correct >= 5, "only {correct}/6 views matched");
    }

    #[test]
    fn timing_is_populated() {
        let (db, scenes) = build_db(2);
        let r = db.match_image(&scenes[0]);
        assert!(r.timing.total >= r.timing.ann_search);
        assert!(r.timing.feature_extraction > Duration::ZERO);
        assert!(r.query_keypoints > 0);
    }

    #[test]
    fn empty_database_matches_nothing() {
        let db = ImageDatabase::build(std::iter::empty(), MatchConfig::default());
        let query = synth::generate_scene(3, 96, 96);
        let r = db.match_image(&query);
        assert_eq!(r.best, None);
        assert!(r.votes.is_empty());
    }

    #[test]
    fn votes_are_sorted_descending() {
        let (db, scenes) = build_db(4);
        let r = db.match_image(&scenes[2]);
        for pair in r.votes.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
    }

    #[test]
    fn scatter_gather_match_is_shard_count_invariant() {
        let (db, scenes) = build_db(6);
        for (qi, scene) in scenes.iter().enumerate() {
            let query = synth::random_view(scene, 7000 + qi as u64);
            let features = db.extract_query(&query);
            let reference = db.merge_partials(&features, &[db.match_partial(&features)]);
            for n in [2u32, 3, 4, 8] {
                let partials: Vec<PartialMatch> = (0..n)
                    .map(|i| db.shard(i, n).match_partial(&features))
                    .collect();
                let merged = db.merge_partials(&features, &partials);
                assert_eq!(merged.best, reference.best, "query {qi} shards {n}");
                assert_eq!(merged.votes, reference.votes, "query {qi} shards {n}");
                assert_eq!(merged.query_keypoints, reference.query_keypoints);
            }
        }
    }

    #[test]
    fn scatter_gather_agrees_with_direct_match_on_source_views() {
        // `match_image` is the one-shard case of the merged path, so the
        // winning image agrees with a three-shard merge on views of the
        // enrolled scenes (the pipeline-level quantity).
        let (db, scenes) = build_db(6);
        for (qi, scene) in scenes.iter().enumerate() {
            let query = synth::random_view(scene, 8000 + qi as u64);
            let features = db.extract_query(&query);
            let partials: Vec<PartialMatch> = (0..3u32)
                .map(|i| db.shard(i, 3).match_partial(&features))
                .collect();
            let merged = db.merge_partials(&features, &partials);
            assert_eq!(merged.best, db.match_image(&query).best, "query {qi}");
        }
    }

    #[test]
    fn shards_partition_descriptors_and_keep_global_tables() {
        let (db, _) = build_db(5);
        let n = 3u32;
        let shards: Vec<ImageDatabase> = (0..n).map(|i| db.shard(i, n)).collect();
        let total: usize = shards.iter().map(ImageDatabase::num_descriptors).sum();
        assert_eq!(total, db.num_descriptors());
        for s in &shards {
            assert_eq!(s.num_images(), db.num_images());
            assert_eq!(s.desc_image, db.desc_image);
        }
    }

    #[test]
    fn empty_shard_contributes_no_candidates() {
        // One image, two shards: one shard holds everything, the other is
        // empty and must merge as a no-op.
        let (db, scenes) = build_db(1);
        let features = db.extract_query(&scenes[0]);
        let partials: Vec<PartialMatch> = (0..2u32)
            .map(|i| db.shard(i, 2).match_partial(&features))
            .collect();
        let merged = db.merge_partials(&features, &partials);
        let reference = db.merge_partials(&features, &[db.match_partial(&features)]);
        assert_eq!(merged.best, reference.best);
        assert_eq!(merged.votes, reference.votes);
    }

    #[test]
    #[should_panic(expected = "invalid shard")]
    fn shard_index_out_of_range_panics() {
        let (db, _) = build_db(1);
        let _ = db.shard(3, 3);
    }
}

#[cfg(test)]
mod multiview_tests {
    use super::*;
    use crate::synth::{self, ViewConfig};

    fn strong_view(scene: &GrayImage, seed: u64) -> GrayImage {
        synth::render_view(
            scene,
            &ViewConfig {
                scale: 0.7,
                rotation: 0.45,
                translate: (12.0, -10.0),
                noise: 0.02,
            },
            seed,
        )
    }

    #[test]
    fn multiview_enrollment_improves_strong_transform_matching() {
        let scenes: Vec<GrayImage> = (0..5u64)
            .map(|s| synth::generate_scene(500 + s, 160, 160))
            .collect();
        // Single-view database.
        let single = ImageDatabase::build(scenes.iter(), MatchConfig::default());
        // Multi-view database: enroll two moderate extra views per image.
        let mut builder = ImageDatabaseBuilder::new(MatchConfig::default());
        for scene in &scenes {
            let id = builder.add_image(scene);
            builder.add_view(id, &synth::random_view(scene, 42 + u64::from(id.0)));
            builder.add_view(id, &synth::random_view(scene, 142 + u64::from(id.0)));
        }
        let multi = builder.build();
        assert!(multi.num_descriptors() > single.num_descriptors());

        let mut single_hits = 0;
        let mut multi_hits = 0;
        for (i, scene) in scenes.iter().enumerate() {
            let q = strong_view(scene, 900 + i as u64);
            if single.match_image(&q).best == Some(ImageId(i as u32)) {
                single_hits += 1;
            }
            if multi.match_image(&q).best == Some(ImageId(i as u32)) {
                multi_hits += 1;
            }
        }
        assert!(
            multi_hits >= single_hits,
            "multi {multi_hits} vs single {single_hits}"
        );
        assert!(multi_hits >= 3, "multi-view only matched {multi_hits}/5");
    }

    #[test]
    #[should_panic(expected = "unknown image id")]
    fn view_for_unknown_id_panics() {
        let mut b = ImageDatabaseBuilder::new(MatchConfig::default());
        let img = synth::generate_scene(1, 96, 96);
        b.add_view(ImageId(0), &img);
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;
    use crate::synth;

    #[test]
    fn database_round_trips_through_bytes() {
        let scenes: Vec<GrayImage> = (0..4u64)
            .map(|s| synth::generate_scene(700 + s, 128, 128))
            .collect();
        let db = ImageDatabase::build(scenes.iter(), MatchConfig::default());
        let bytes = db.to_bytes();
        let restored = ImageDatabase::from_bytes(&bytes).expect("decode");
        assert_eq!(restored.num_images(), db.num_images());
        assert_eq!(restored.num_descriptors(), db.num_descriptors());
        for (i, scene) in scenes.iter().enumerate() {
            let view = synth::random_view(scene, 70 + i as u64);
            assert_eq!(
                db.match_image(&view).best,
                restored.match_image(&view).best,
                "image {i}"
            );
        }
    }

    #[test]
    fn corrupted_database_bytes_rejected() {
        let scenes = [synth::generate_scene(1, 96, 96)];
        let db = ImageDatabase::build(scenes.iter(), MatchConfig::default());
        let mut bytes = db.to_bytes();
        bytes[5] ^= 0x40;
        assert!(ImageDatabase::from_bytes(&bytes).is_err());
        assert!(ImageDatabase::from_bytes(&bytes[..8]).is_err());
    }

    #[test]
    fn v1_database_bytes_are_rejected_with_a_typed_error() {
        // A complete, well-formed `sirius_imm_v1` file (empty database): the
        // old layout carried a search budget after the ratio, so reading it
        // as v2 would shift every later field.
        let surf = SurfConfig::default();
        let mut e = sirius_codec::Encoder::new();
        e.tag("sirius_imm_v1");
        e.u32(0);
        e.f32(0.75);
        e.u32(96);
        e.u32(surf.octaves as u32);
        e.f32(surf.threshold);
        e.u32(surf.init_step as u32);
        e.bool(surf.upright);
        e.u32(0);
        e.u32_slice(&[]);
        e.u32(0);
        let err = ImageDatabase::from_bytes(&e.into_bytes()).expect_err("v1 must not decode");
        assert!(err.message.contains("sirius_imm_v3"), "{}", err.message);
    }

    #[test]
    fn v2_database_bytes_are_rejected_with_a_typed_error() {
        // A complete, well-formed `sirius_imm_v2` file (empty database): the
        // old layout ended in a keypoint-position table, so it must be
        // refused by its tag rather than read as v3.
        let surf = SurfConfig::default();
        let mut e = sirius_codec::Encoder::new();
        e.tag("sirius_imm_v2");
        e.u32(0);
        e.f32(0.75);
        e.u32(surf.octaves as u32);
        e.f32(surf.threshold);
        e.u32(surf.init_step as u32);
        e.bool(surf.upright);
        e.u32(0);
        e.u32_slice(&[]);
        e.u32(0);
        let err = ImageDatabase::from_bytes(&e.into_bytes()).expect_err("v2 must not decode");
        assert!(err.message.contains("sirius_imm_v3"), "{}", err.message);
    }

    /// A `sirius_imm_v3` file of one image whose descriptors are `rows`.
    fn model_with_rows(rows: &[Vec<f32>]) -> Vec<u8> {
        let surf = SurfConfig::default();
        let mut e = sirius_codec::Encoder::new();
        e.tag("sirius_imm_v3");
        e.u32(1);
        e.f32(0.75);
        e.u32(surf.octaves as u32);
        e.f32(surf.threshold);
        e.u32(surf.init_step as u32);
        e.bool(surf.upright);
        e.u32(rows.len() as u32);
        for (id, row) in rows.iter().enumerate() {
            e.u32(id as u32);
            e.f32_slice(row);
        }
        e.u32_slice(&vec![0; rows.len()]);
        e.into_bytes()
    }

    #[test]
    fn ragged_descriptor_row_is_a_typed_error() {
        let good = model_with_rows(&[vec![0.5; DESCRIPTOR_DIM], vec![0.25; DESCRIPTOR_DIM]]);
        assert_eq!(
            ImageDatabase::from_bytes(&good)
                .expect("decode")
                .num_descriptors(),
            2
        );
        let ragged = model_with_rows(&[vec![0.5; DESCRIPTOR_DIM], vec![0.25; 3]]);
        let err = ImageDatabase::from_bytes(&ragged).expect_err("a 3-float row must not load");
        assert!(err.message.contains("descriptor 1"), "{}", err.message);
    }

    #[test]
    fn descriptor_rows_of_the_wrong_width_are_a_typed_error() {
        // Every row alike but not DESCRIPTOR_DIM wide: it would load and
        // then fail the first query's search.
        let bytes = model_with_rows(&[vec![0.5; 3], vec![0.25; 3]]);
        let err = ImageDatabase::from_bytes(&bytes).expect_err("3-float rows must not load");
        assert!(err.message.contains("descriptor 0"), "{}", err.message);
    }

    #[test]
    fn empty_database_round_trips() {
        let db = ImageDatabase::build(std::iter::empty(), MatchConfig::default());
        let restored = ImageDatabase::from_bytes(&db.to_bytes()).expect("decode");
        assert_eq!(restored.num_images(), 0);
        assert_eq!(restored.num_descriptors(), 0);
    }
}
