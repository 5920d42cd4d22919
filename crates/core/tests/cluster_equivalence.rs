//! Scatter-gather determinism gate: sharded cluster replicas must answer
//! **bit-identically** to the unsharded single instance, for every shard
//! count, over the full 42-query input set.
//!
//! This is the property the whole cluster refactor stands on. QA retrieval
//! shards merge under the (score desc, doc asc) total order with global
//! collection statistics injected, so merged hits equal unsharded hits by
//! construction; the IMM scatter uses the exact descriptor search, whose
//! merged best-2 equals the whole-tree answer at any shard count, and an
//! unsharded instance runs that same scatter over one shard. The gates
//! below hold that on all 42 queries and on seeded random views of every
//! venue.

use std::sync::OnceLock;

use sirius::pipeline::{Sirius, SiriusConfig, SiriusInput, SiriusResponse};
use sirius::stage::ImmRequest;
use sirius::{prepare_input_set, ClusterError, PreparedQuery};
use sirius_vision::synth::random_view;

fn shared() -> &'static Sirius {
    static SIRIUS: OnceLock<Sirius> = OnceLock::new();
    SIRIUS.get_or_init(|| Sirius::build(SiriusConfig::default()))
}

fn inputs() -> &'static Vec<PreparedQuery> {
    static INPUTS: OnceLock<Vec<PreparedQuery>> = OnceLock::new();
    INPUTS.get_or_init(|| prepare_input_set(shared(), 4242))
}

/// Everything externally observable about a response: transcription,
/// action/answer, and the matched venue. Timings are excluded (they are
/// wall-clock, not data).
fn payload(r: &SiriusResponse) -> (String, String, Option<String>) {
    (
        r.recognized.clone(),
        format!("{:?}", r.outcome),
        r.matched_venue.clone(),
    )
}

#[test]
fn sharded_replicas_answer_bit_identically_to_unsharded_baseline() {
    let sirius = shared();
    let queries = inputs();
    assert_eq!(queries.len(), 42, "the full input set");
    let baseline: Vec<_> = queries
        .iter()
        .map(|q| payload(&sirius.process(&q.input())))
        .collect();

    for n in [1u32, 2, 4, 8] {
        let replicas = sirius.shard_replicas(n).expect("shard");
        assert_eq!(replicas.len(), n as usize);
        for (qi, q) in queries.iter().enumerate() {
            // Route queries round-robin so every replica serves its share.
            let replica = &replicas[qi % n as usize];
            assert_eq!(replica.shard_id(), Some(((qi % n as usize) as u32, n)));
            let got = payload(&replica.process(&q.input()));
            assert_eq!(
                got,
                baseline[qi],
                "query {qi} ({:?}) diverged on {n}-shard replica {}",
                q.spec.text,
                qi % n as usize
            );
        }
    }
}

#[test]
fn every_replica_of_a_cluster_answers_the_same() {
    // Replicas differ only in which shard they *hold*; because they all
    // scatter to the full directory, the answer must not depend on which
    // replica a query lands on. Spot-check across the query classes (VC,
    // VQ, VIQ) at N = 4.
    let sirius = shared();
    let queries = inputs();
    let replicas = sirius.shard_replicas(4).expect("shard");
    for qi in [0usize, 17, 20, 33, 41] {
        let q = &queries[qi];
        let expect = payload(&replicas[0].process(&q.input()));
        for (ri, replica) in replicas.iter().enumerate().skip(1) {
            assert_eq!(
                payload(&replica.process(&q.input())),
                expect,
                "query {qi} differs between replica 0 and replica {ri}"
            );
        }
    }
}

#[test]
fn scattered_qa_retrieval_matches_unsharded_search_bitwise() {
    // Seeded property-style check below the pipeline: for every VQ
    // question's keyword query, per-shard top-k lists merge into the exact
    // unsharded hit list — scores compared on bits, order included. The
    // corpus generator seeds duplicate/near-duplicate documents, so score
    // ties are present and the doc-id tie-break is exercised.
    let sirius = shared();
    let engine = sirius.qa().search_engine();
    let k = sirius.config().qa.top_k;
    for spec in sirius::input_set() {
        for n in [1u32, 2, 4, 8] {
            let shards: Vec<_> = (0..n).map(|i| engine.shard(i, n)).collect();
            let merged =
                sirius_search::merge_hits(shards.iter().map(|s| s.search(spec.text, k)), k);
            let global = engine.search(spec.text, k);
            assert_eq!(merged.len(), global.len(), "{:?} n={n}", spec.text);
            for (m, g) in merged.iter().zip(&global) {
                assert_eq!(m.doc, g.doc, "{:?} n={n}", spec.text);
                assert_eq!(
                    m.score.to_bits(),
                    g.score.to_bits(),
                    "{:?} n={n} doc {:?}",
                    spec.text,
                    m.doc
                );
            }
        }
    }
}

#[test]
fn scattered_imm_match_agrees_with_unsharded_match_on_query_views() {
    // Seeded loop over query views of every enrolled venue: the merged
    // exact scatter and the budgeted whole-index search must crown the
    // same venue (the quantity the pipeline consumes).
    let sirius = shared();
    let imm = sirius.imm();
    for seed in [4242u64, 777] {
        for venue in 0..sirius.venues().len() {
            let scene = sirius.venue_scene(venue);
            let view = sirius_vision::synth::random_view(&scene, seed + venue as u64 * 977);
            let features = imm.extract_query(&view);
            let direct = imm.match_image(&view);
            for n in [1u32, 2, 4, 8] {
                let partials: Vec<_> = (0..n)
                    .map(|i| imm.shard(i, n).match_partial(&features))
                    .collect();
                let merged = imm.merge_partials(&features, &partials);
                assert_eq!(
                    merged.best, direct.best,
                    "venue {venue} seed {seed} shards {n}"
                );
            }
        }
    }
}

#[test]
fn unsharded_instance_matches_replicas_on_seeded_random_views() {
    let sirius = shared();
    let replicas: Vec<(u32, Vec<Sirius>)> = [1u32, 2, 4, 8]
        .into_iter()
        .map(|n| (n, sirius.shard_replicas(n).expect("shard")))
        .collect();

    // A view on which a budgeted whole-index search and the exact sharded
    // one once crowned different venues: the full pipeline must agree.
    let spoken = inputs()
        .iter()
        .find(|q| q.spec.text == "When does this restaurant close")
        .expect("a VIQ query");
    let input = SiriusInput {
        audio: spoken.utterance.samples.clone(),
        image: Some(random_view(&sirius.venue_scene(8), 6896045811037514854)),
    };
    let expect = sirius.process(&input);
    let expect = (expect.matched_venue, expect.outcome);
    for (n, replicas) in &replicas {
        for (i, replica) in replicas.iter().enumerate() {
            let got = replica.process(&input);
            assert_eq!(
                (got.matched_venue, got.outcome),
                expect,
                "pinned view, {n}-shard replica {i}"
            );
        }
    }

    // Seeded sweep: the IMM stage alone, every venue, 20 views each.
    let imm = |s: &Sirius, image: &sirius_vision::image::GrayImage| {
        let r = s
            .stage_imm(ImmRequest {
                question: "when does this place close".to_owned(),
                image: Some(image.clone()),
            })
            .expect("stage_imm");
        (r.matched_venue, r.question)
    };
    for venue in 0..sirius.venues().len() {
        let scene = sirius.venue_scene(venue);
        for k in 0..20u64 {
            let seed = 0x5eed_0000 + k * 7919 + venue as u64 * 104_729;
            let view = random_view(&scene, seed);
            let expect = imm(sirius, &view);
            for (n, replicas) in &replicas {
                for (i, replica) in replicas.iter().enumerate() {
                    assert_eq!(
                        imm(replica, &view),
                        expect,
                        "venue {venue} seed {seed}, {n}-shard replica {i}"
                    );
                }
            }
        }
    }
}

#[test]
fn zero_shards_is_a_typed_error() {
    assert_eq!(
        shared().shard_replicas(0).unwrap_err(),
        ClusterError::InvalidShardCount { requested: 0 }
    );
}
