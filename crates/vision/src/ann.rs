//! Nearest-neighbour search over SURF descriptors.
//!
//! The paper matches query descriptors "to pre-clustered descriptors
//! representing the database images by using an approximate nearest neighbor
//! (ANN) search" (Section 2.3.2). This module's search is an *exact* flat
//! scan under the total [`neighbor_order`] (distance, then payload): the
//! image database is sharded for scatter-gather, and per-shard best-2
//! candidates merge into the whole-index answer only if every shard's answer
//! is a pure function of its point set — which a scan's is, by construction.
//! Over the default database (143 descriptors of 64 dimensions) an exact
//! k-d tree pruned nothing and cost the same per query as the scan
//! (EXPERIMENTS.md), so there is no index structure; DESIGN.md records exact
//! search as a divergence from the paper's approximate search.

/// Result of a nearest-neighbour query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Squared Euclidean distance.
    pub distance_sq: f32,
    /// Payload of the matched point.
    pub payload: u32,
}

/// Squared Euclidean distance between two equal-length vectors, summed in
/// index order.
#[inline]
fn dist_sq(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// The deterministic neighbour ordering: squared distance first
/// (`total_cmp`), payload ascending as the tie-break. A total order, so any
/// candidate set has exactly one sorted arrangement — what [`nearest2`]
/// returns the first two of, and what a scatter-gather merge of per-shard
/// candidates must sort by to reproduce the unsharded answer.
pub fn neighbor_order(a: &Neighbor, b: &Neighbor) -> std::cmp::Ordering {
    a.distance_sq
        .total_cmp(&b.distance_sq)
        .then(a.payload.cmp(&b.payload))
}

/// Keeps `n` in `best` if it is among the two smallest offered so far under
/// [`neighbor_order`].
fn offer(best: &mut [Option<Neighbor>; 2], n: Neighbor) {
    match best[0] {
        None => best[0] = Some(n),
        Some(b0) if neighbor_order(&n, &b0).is_lt() => {
            best[1] = best[0];
            best[0] = Some(n);
        }
        Some(_) => match best[1] {
            Some(b1) if neighbor_order(&n, &b1).is_ge() => {}
            _ => best[1] = Some(n),
        },
    }
}

/// The two smallest neighbours of `query` under [`neighbor_order`] among
/// the rows of `points` (row-major, `query.len()` floats per row; row `i`
/// carries payload `payloads[i]`), by a scan of every row. `[best, second]`;
/// a slot is `None` when there are fewer rows than that.
///
/// # Panics
///
/// Panics if `query` is empty or `points` does not hold one row of
/// `query.len()` floats per payload.
pub fn nearest2(points: &[f32], payloads: &[u32], query: &[f32]) -> [Option<Neighbor>; 2] {
    assert!(
        !query.is_empty() && points.len() == payloads.len() * query.len(),
        "point matrix does not match the query dimension"
    );
    let mut best = [None, None];
    for (row, &payload) in points.chunks_exact(query.len()).zip(payloads) {
        offer(
            &mut best,
            Neighbor {
                distance_sq: dist_sq(row, query),
                payload,
            },
        );
    }
    best
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

    /// [`nearest2`] over `(vector, payload)` points laid out as a matrix.
    fn scan(points: &[(Vec<f32>, u32)], query: &[f32]) -> (Neighbor, Option<Neighbor>) {
        let rows: Vec<f32> = points.iter().flat_map(|(v, _)| v.iter().copied()).collect();
        let payloads: Vec<u32> = points.iter().map(|&(_, p)| p).collect();
        let [best, second] = nearest2(&rows, &payloads, query);
        (best.expect("non-empty"), second)
    }

    #[test]
    fn nearest2_orders_results() {
        let pts = vec![
            (vec![0.0, 0.0], 0),
            (vec![1.0, 0.0], 1),
            (vec![5.0, 5.0], 2),
        ];
        let (a, b) = scan(&pts, &[0.1, 0.0]);
        assert_eq!(a.payload, 0);
        assert_eq!(b.expect("second").payload, 1);
        assert!(a.distance_sq <= b.expect("second").distance_sq);
    }

    #[test]
    fn single_point() {
        let (a, b) = scan(&[(vec![1.0, 2.0], 7)], &[0.0, 0.0]);
        assert_eq!(a.payload, 7);
        assert!(b.is_none());
    }

    #[test]
    fn no_points_no_neighbours() {
        assert_eq!(nearest2(&[], &[], &[0.0, 0.0]), [None, None]);
    }

    #[test]
    fn duplicate_points_are_handled() {
        let pts = vec![(vec![1.0, 1.0], 0); 40];
        let n = scan(&pts, &[1.0, 1.0]).0;
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
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        for _ in 0..60 {
            let q: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let (b, s) = scan(&pts, &q);
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
        // among filler.
        let mut pts = random_points(100, 4, 13);
        for (i, payload) in [(0usize, 9u32), (40, 2), (80, 5)] {
            pts[i] = (vec![0.25, 0.25, 0.25, 0.25], payload);
        }
        let (b, s) = scan(&pts, &[0.25, 0.25, 0.25, 0.25]);
        assert_eq!((b.distance_sq, b.payload), (0.0, 2));
        let s = s.expect("second");
        assert_eq!((s.distance_sq, s.payload), (0.0, 5));
    }

    #[test]
    fn deterministic_search_is_shard_invariant() {
        // Partitioning the point set across shards and merging each
        // shard's best-2 under `neighbor_order` reproduces the whole-set
        // answer, for every shard count.
        let pts = random_points(400, 6, 14);
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        for n in [1u32, 2, 3, 4, 8] {
            let shards: Vec<Vec<(Vec<f32>, u32)>> = (0..n)
                .map(|i| {
                    pts.iter()
                        .filter(|(_, p)| p % n == i)
                        .cloned()
                        .collect::<Vec<_>>()
                })
                .collect();
            for _ in 0..20 {
                let q: Vec<f32> = (0..6).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                let mut candidates: Vec<Neighbor> = Vec::new();
                for shard in &shards {
                    let (b, s) = scan(shard, &q);
                    candidates.push(b);
                    candidates.extend(s);
                }
                candidates.sort_by(neighbor_order);
                let (b, s) = scan(&pts, &q);
                assert_eq!(candidates[0], b, "shards={n}");
                assert_eq!(candidates.get(1).copied(), s, "shards={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn wrong_query_dim_panics() {
        let _ = scan(&[(vec![0.0, 0.0], 0)], &[0.0]);
    }
}
