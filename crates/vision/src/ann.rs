//! Nearest-neighbour search over SURF descriptors.
//!
//! The paper matches query descriptors "to pre-clustered descriptors
//! representing the database images by using an approximate nearest neighbor
//! (ANN) search" (Section 2.3.2). This module's k-d tree search is *exact*
//! under the total [`neighbor_order`] (distance, then payload): the image
//! database is sharded for scatter-gather, and per-shard best-2 candidates
//! merge into the whole-index answer only if every shard's answer is a pure
//! function of its point set. A bounded best-bin-first search is not — its
//! answer depends on tree shape — so there is one search and it is exact
//! (DESIGN.md records this as a divergence from the paper's approximate
//! search).

/// A payload-carrying point in the index.
#[derive(Debug, Clone)]
struct Entry {
    vector: Vec<f32>,
    /// Caller-supplied payload (e.g. image id).
    payload: u32,
}

#[derive(Debug)]
enum Node {
    Leaf {
        /// Indices into `entries`.
        points: Vec<u32>,
    },
    Split {
        dim: usize,
        value: f32,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// Result of a nearest-neighbour query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Squared Euclidean distance.
    pub distance_sq: f32,
    /// Payload of the matched point.
    pub payload: u32,
}

/// A k-d tree over fixed-dimension float vectors.
#[derive(Debug)]
pub struct KdTree {
    entries: Vec<Entry>,
    root: Node,
    dim: usize,
}

const LEAF_SIZE: usize = 12;

/// Squared Euclidean distance between two equal-length vectors — the single
/// inner-loop kernel shared by the tree search and the linear-scan oracle.
#[inline]
fn dist_sq(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

impl KdTree {
    /// Builds a tree from `(vector, payload)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or vectors have inconsistent dimensions.
    pub fn build(points: Vec<(Vec<f32>, u32)>) -> Self {
        assert!(!points.is_empty(), "cannot build a k-d tree from no points");
        let dim = points[0].0.len();
        assert!(
            points.iter().all(|(v, _)| v.len() == dim),
            "inconsistent dimensions"
        );
        let entries: Vec<Entry> = points
            .into_iter()
            .map(|(vector, payload)| Entry { vector, payload })
            .collect();
        let mut idxs: Vec<u32> = (0..entries.len() as u32).collect();
        let root = Self::build_node(&entries, &mut idxs, dim);
        Self { entries, root, dim }
    }

    fn build_node(entries: &[Entry], idxs: &mut [u32], dim: usize) -> Node {
        if idxs.len() <= LEAF_SIZE {
            return Node::Leaf {
                points: idxs.to_vec(),
            };
        }
        // Split on the dimension with the largest spread.
        let mut best_dim = 0;
        let mut best_spread = -1.0f32;
        for d in 0..dim {
            let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
            for &i in idxs.iter() {
                let v = entries[i as usize].vector[d];
                lo = lo.min(v);
                hi = hi.max(v);
            }
            if hi - lo > best_spread {
                best_spread = hi - lo;
                best_dim = d;
            }
        }
        if best_spread <= 0.0 {
            // All points identical along every axis.
            return Node::Leaf {
                points: idxs.to_vec(),
            };
        }
        let mid = idxs.len() / 2;
        idxs.select_nth_unstable_by(mid, |&a, &b| {
            entries[a as usize].vector[best_dim].total_cmp(&entries[b as usize].vector[best_dim])
        });
        let value = entries[idxs[mid] as usize].vector[best_dim];
        let (left_idx, right_idx) = idxs.split_at_mut(mid);
        let left = Self::build_node(entries, left_idx, dim);
        let right = Self::build_node(entries, right_idx, dim);
        Node::Split {
            dim: best_dim,
            value,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index is empty (never true for a built tree).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the indexed `(vector, payload)` points, in insertion
    /// order (used for persistence; the tree is rebuilt on load).
    pub fn iter_points(&self) -> impl Iterator<Item = (&[f32], u32)> {
        self.entries
            .iter()
            .map(|e| (e.vector.as_slice(), e.payload))
    }

    /// Finds the two smallest neighbours of `query` under the *total*
    /// [`neighbor_order`] — distance first, payload breaking exact ties —
    /// for the ratio test. Returns `(best, second)`; `second` is `None` if
    /// only one point exists.
    ///
    /// The answer is a pure function of the indexed point *set*, not of
    /// tree shape: the far half-space is pruned only when every point there
    /// is *strictly* farther than the retained worst, so equal-distance
    /// candidates elsewhere in the tree are always visited and the payload
    /// tie-break applies. That makes per-shard best-2 candidates merge into
    /// exactly the whole-tree answer at any shard count — the property the
    /// scatter-gather image match is gated on.
    ///
    /// # Panics
    ///
    /// Panics if `query` has the wrong dimension.
    pub fn nearest2(&self, query: &[f32]) -> (Neighbor, Option<Neighbor>) {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let mut state = Best2 {
            best: [None, None],
            worst: f32::INFINITY,
        };
        self.search(&self.root, query, &mut state);
        let best = state.best[0].expect("tree is non-empty");
        (best, state.best[1])
    }

    fn search(&self, node: &Node, query: &[f32], state: &mut Best2) {
        match node {
            Node::Leaf { points } => {
                for &i in points {
                    let e = &self.entries[i as usize];
                    state.offer(Neighbor {
                        distance_sq: dist_sq(&e.vector, query),
                        payload: e.payload,
                    });
                }
            }
            Node::Split {
                dim,
                value,
                left,
                right,
            } => {
                let diff = query[*dim] - value;
                let (near, far) = if diff < 0.0 {
                    (left, right)
                } else {
                    (right, left)
                };
                self.search(near, query, state);
                // Prune only when the far half-space is *strictly* beyond
                // the retained worst: a point at exactly `worst` distance
                // may still win on the payload tie-break.
                if diff * diff <= state.worst {
                    self.search(far, query, state);
                }
            }
        }
    }
}

/// The deterministic neighbour ordering: squared distance first
/// (`total_cmp`), payload ascending as the tie-break. A total order, so any
/// candidate set has exactly one sorted arrangement — what
/// [`KdTree::nearest2`] returns the first two of, and what a
/// scatter-gather merge of per-shard candidates must sort by to reproduce
/// the unsharded answer.
pub fn neighbor_order(a: &Neighbor, b: &Neighbor) -> std::cmp::Ordering {
    a.distance_sq
        .total_cmp(&b.distance_sq)
        .then(a.payload.cmp(&b.payload))
}

/// Best-2 state of a search, ordered by [`neighbor_order`].
struct Best2 {
    best: [Option<Neighbor>; 2],
    /// Pruning bound: distance of the worst retained neighbour. Pruning
    /// decisions only ever fire once both slots are full (every split child
    /// holds more than one point), so the bound is always the second-best
    /// distance when it matters.
    worst: f32,
}

impl Best2 {
    fn offer(&mut self, n: Neighbor) {
        match self.best[0] {
            None => self.best[0] = Some(n),
            Some(b0) if neighbor_order(&n, &b0).is_lt() => {
                self.best[1] = self.best[0];
                self.best[0] = Some(n);
            }
            Some(_) => match self.best[1] {
                None => self.best[1] = Some(n),
                Some(b1) if neighbor_order(&n, &b1).is_lt() => self.best[1] = Some(n),
                Some(_) => return,
            },
        }
        self.worst = self.best[1]
            .or(self.best[0])
            .map_or(f32::INFINITY, |x| x.distance_sq);
    }
}

/// Linear-scan exact nearest neighbour, the oracle for property tests.
pub fn linear_nearest(points: &[(Vec<f32>, u32)], query: &[f32]) -> Option<Neighbor> {
    points
        .iter()
        .map(|(v, p)| Neighbor {
            distance_sq: dist_sq(v, query),
            payload: *p,
        })
        .min_by(|a, b| a.distance_sq.total_cmp(&b.distance_sq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn random_points(n: usize, dim: usize, seed: u64) -> Vec<(Vec<f32>, u32)> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                (
                    (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
                    i as u32,
                )
            })
            .collect()
    }

    #[test]
    fn exact_search_matches_linear_scan() {
        let pts = random_points(300, 8, 1);
        let tree = KdTree::build(pts.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for _ in 0..50 {
            let q: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let expect = linear_nearest(&pts, &q).expect("non-empty");
            let got = tree.nearest2(&q).0;
            assert_eq!(got.payload, expect.payload);
            assert!((got.distance_sq - expect.distance_sq).abs() < 1e-6);
        }
    }

    #[test]
    fn nearest2_orders_results() {
        let pts = vec![
            (vec![0.0, 0.0], 0),
            (vec![1.0, 0.0], 1),
            (vec![5.0, 5.0], 2),
        ];
        let tree = KdTree::build(pts);
        let (a, b) = tree.nearest2(&[0.1, 0.0]);
        assert_eq!(a.payload, 0);
        assert_eq!(b.expect("second").payload, 1);
        assert!(a.distance_sq <= b.expect("second").distance_sq);
    }

    #[test]
    fn single_point_tree() {
        let tree = KdTree::build(vec![(vec![1.0, 2.0], 7)]);
        let (a, b) = tree.nearest2(&[0.0, 0.0]);
        assert_eq!(a.payload, 7);
        assert!(b.is_none());
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn duplicate_points_are_handled() {
        let pts = vec![(vec![1.0, 1.0], 0); 40];
        let tree = KdTree::build(pts);
        let n = tree.nearest2(&[1.0, 1.0]).0;
        assert_eq!(n.distance_sq, 0.0);
    }

    /// Oracle: the first two candidates under [`neighbor_order`] by full
    /// linear scan.
    fn det_oracle(points: &[(Vec<f32>, u32)], query: &[f32]) -> (Neighbor, Option<Neighbor>) {
        let mut all: Vec<Neighbor> = points
            .iter()
            .map(|(v, p)| Neighbor {
                distance_sq: dist_sq(v, query),
                payload: *p,
            })
            .collect();
        all.sort_by(neighbor_order);
        (all[0], all.get(1).copied())
    }

    #[test]
    fn deterministic_search_matches_lexicographic_oracle() {
        let pts = random_points(500, 8, 11);
        let tree = KdTree::build(pts.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        for _ in 0..60 {
            let q: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let (b, s) = tree.nearest2(&q);
            let (eb, es) = det_oracle(&pts, &q);
            assert_eq!(
                (b.payload, b.distance_sq.to_bits()),
                (eb.payload, eb.distance_sq.to_bits())
            );
            assert_eq!(
                s.map(|n| (n.payload, n.distance_sq.to_bits())),
                es.map(|n| (n.payload, n.distance_sq.to_bits()))
            );
        }
    }

    #[test]
    fn deterministic_search_breaks_exact_ties_by_payload() {
        // Three copies of the query point under different payloads, buried
        // among enough filler that the tree actually splits.
        let mut pts = random_points(100, 4, 13);
        for (i, payload) in [(0usize, 9u32), (40, 2), (80, 5)] {
            pts[i] = (vec![0.25, 0.25, 0.25, 0.25], payload);
        }
        let tree = KdTree::build(pts);
        let (b, s) = tree.nearest2(&[0.25, 0.25, 0.25, 0.25]);
        assert_eq!((b.distance_sq, b.payload), (0.0, 2));
        let s = s.expect("second");
        assert_eq!((s.distance_sq, s.payload), (0.0, 5));
    }

    #[test]
    fn deterministic_search_is_shard_invariant() {
        // Partitioning the point set across sub-trees and merging each
        // shard's best-2 under `neighbor_order` reproduces the whole-tree
        // answer, for every shard count.
        let pts = random_points(400, 6, 14);
        let full = KdTree::build(pts.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        for n in [1u32, 2, 3, 4, 8] {
            let shards: Vec<KdTree> = (0..n)
                .map(|i| {
                    KdTree::build(
                        pts.iter()
                            .filter(|(_, p)| p % n == i)
                            .cloned()
                            .collect::<Vec<_>>(),
                    )
                })
                .collect();
            for _ in 0..20 {
                let q: Vec<f32> = (0..6).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                let mut candidates: Vec<Neighbor> = Vec::new();
                for shard in &shards {
                    let (b, s) = shard.nearest2(&q);
                    candidates.push(b);
                    candidates.extend(s);
                }
                candidates.sort_by(neighbor_order);
                let (b, s) = full.nearest2(&q);
                assert_eq!(candidates[0], b, "shards={n}");
                assert_eq!(candidates.get(1).copied(), s, "shards={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "no points")]
    fn empty_build_panics() {
        let _ = KdTree::build(Vec::new());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_query_dim_panics() {
        let tree = KdTree::build(vec![(vec![0.0, 0.0], 0)]);
        let _ = tree.nearest2(&[0.0]);
    }
}
