//! The layer walk: one thread performs the serving steps of a request
//! itself, through the program's public functions, with a span around each
//! call. Queues, threads and sockets are absent, so what remains is the
//! work of each layer — the per-layer budget the served run's waits are
//! read against.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sirius::pipeline::{SiriusOutcome, SiriusResponse, StageTiming};
use sirius::stage::{AsrRequest, AsrResponse, ClassifyRequest, ImmRequest, QaRequest};
use sirius_server::{
    read_frame, CacheKey, CachedAnswer, Frame, FrameRead, ResultCaches, StreamPolicy,
};
use sirius_speech::asr::AcousticModelKind;

use crate::drive::{submit_frame, Tally};
use crate::gen::Rng;
use crate::span::Trace;
use crate::workload::{Expected, Pattern, Stand, Workload};
use crate::Metrics;

/// Rows per DNN scoring block in `sirius-speech` (`DNN_BLOCK`, private
/// there): the row count of the GEMMs the decoder issues.
const GEMM_ROWS: usize = 16;

pub struct Walk {
    pub trace: Trace,
    pub tally: Tally,
    pub metrics: Metrics,
}

/// A GEMM at the shape of the DNN's first layer, on seeded values: the
/// trained weights are private to the scorer, and the kernel's cost does
/// not depend on them.
struct Gemm {
    x: Vec<f32>,
    wt: Vec<f32>,
    bias: Vec<f32>,
    out: Vec<f32>,
    inputs: usize,
    outputs: usize,
}

impl Gemm {
    fn at_dnn_shape(stand: &Stand) -> Self {
        let inputs = stand.sirius.asr().dnn_scorer().dnn().input_dim();
        let outputs = stand.sirius.config().asr.dnn_hidden;
        let mut rng = Rng::new(0x6e77);
        let mut fill = |n: usize| -> Vec<f32> { (0..n).map(|_| rng.unit() as f32 - 0.5).collect() };
        Self {
            x: fill(GEMM_ROWS * inputs),
            wt: fill(inputs * outputs),
            bias: fill(outputs),
            out: vec![0.0; GEMM_ROWS * outputs],
            inputs,
            outputs,
        }
    }

    fn run(&mut self) {
        sirius_kernels::gemm_xwt_bias(
            std::hint::black_box(&self.x),
            GEMM_ROWS,
            self.inputs,
            &self.wt,
            self.outputs,
            &self.bias,
            &mut self.out,
        );
        std::hint::black_box(&self.out);
    }

    fn flops(&self) -> f64 {
        2.0 * (GEMM_ROWS * self.inputs * self.outputs) as f64
    }

    /// Bytes the call touches once each, computed from the shapes.
    fn bytes(&self) -> f64 {
        4.0 * (self.x.len() + self.wt.len() + self.bias.len() + self.out.len()) as f64
    }
}

/// Walks `order` (indices into the stand's inputs) serially.
pub fn layer_walk(stand: &Stand, workload: &Workload, order: &[usize], epoch: Instant) -> Walk {
    let sirius = &stand.replica;
    let over_wire = workload.pattern == Pattern::Closed;
    let chunk = StreamPolicy::new(workload.stream_chunk());
    let caches = workload
        .cache_policy()
        .enabled
        .then(|| ResultCaches::new(workload.cache_policy()));
    let mut gemm = (workload.acoustic == AcousticModelKind::Dnn).then(|| Gemm::at_dnn_shape(stand));
    let scoring = match workload.acoustic {
        AcousticModelKind::Gmm => "speech.scoring_gmm",
        AcousticModelKind::Dnn => "speech.scoring_dnn",
    };

    let mut trace = Trace::new(epoch);
    let mut tally = Tally::default();
    let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut add = |name: &'static str, amount: f64| *sums.entry(name).or_default() += amount;

    let started = Instant::now();
    for (q, &i) in order.iter().enumerate() {
        let q = q as u64;
        let input = &stand.inputs[i];
        add("audio_s", input.audio.len() as f64 / 16_000.0);
        let walked: SiriusResponse = trace.time("walk.query", None, q, |trace, root| {
            let began = Instant::now();
            let (audio, image) = if over_wire {
                let bytes = trace.time("wire.encode_submit", Some(root), q, |_, _| {
                    submit_frame(input).encode()
                });
                add("submit_bytes", bytes.len() as f64);
                let read = trace.time("wire.decode_submit", Some(root), q, |_, _| {
                    read_frame(&mut bytes.as_slice())
                });
                match read {
                    FrameRead::Frame(Frame::Submit(submit)) => (submit.audio, submit.image),
                    other => panic!("a Submit frame did not survive its own codec: {other:?}"),
                }
            } else {
                (input.audio.clone(), input.image.clone())
            };

            let asr = trace.time("core.stage_asr", Some(root), q, |trace, stage| {
                if chunk.is_streaming() {
                    let mut recognizer = sirius.asr().streaming(workload.acoustic);
                    for samples in audio.chunks(chunk.chunk_samples()) {
                        trace
                            .time("speech.stream_push", Some(stage), q, |_, _| {
                                recognizer.push_chunk(samples)
                            })
                            .expect("generated audio is finite and non-empty");
                    }
                    let out = trace
                        .time("speech.stream_finish", Some(stage), q, |_, _| {
                            recognizer.finish()
                        })
                        .expect("at least one chunk was pushed");
                    // The chunk pushes already cover the stage's span, so
                    // the recognizer's own split is noted without spans.
                    trace.note("speech.features", out.timing.feature_extraction);
                    trace.note(scoring, out.timing.scoring);
                    trace.note("speech.search", out.timing.search);
                    AsrResponse {
                        recognized: out.text,
                        timing: out.timing,
                    }
                } else {
                    let asr = sirius
                        .stage_asr(AsrRequest {
                            audio,
                            acoustic: workload.acoustic,
                        })
                        .expect("stage_asr");
                    trace.reported_children(
                        stage,
                        &[
                            ("speech.features", asr.timing.feature_extraction),
                            (scoring, asr.timing.scoring),
                            ("speech.search", asr.timing.search),
                        ],
                    );
                    asr
                }
            });

            if let Some(gemm) = &mut gemm {
                trace.time("kernels.gemm_xwt_bias", Some(root), q, |_, _| gemm.run());
            }

            // Keying the cache hashes the image, so it belongs to the lookup.
            let (cache_key, cached) = caches
                .as_ref()
                .map(|caches| {
                    trace.time("cache.lookup", Some(root), q, |_, _| {
                        let key = CacheKey::of(&asr.recognized, image.as_ref());
                        let cached = caches.lookup(&key, &asr.recognized);
                        (key, cached)
                    })
                })
                .unzip();
            let cached: Option<CachedAnswer> = cached.flatten();

            let mut timing = StageTiming {
                asr: asr.timing,
                ..StageTiming::default()
            };
            let hit = cached.is_some();
            let (outcome, matched_venue) = if let Some(cached) = cached {
                (cached.outcome, cached.matched_venue)
            } else {
                let classify = trace
                    .time("core.stage_classify", Some(root), q, |_, _| {
                        sirius.stage_classify(ClassifyRequest {
                            recognized: asr.recognized.clone(),
                        })
                    })
                    .expect("stage_classify");
                timing.classify = classify.elapsed;
                if let Some(action) = classify.action {
                    (SiriusOutcome::Action(action), None)
                } else {
                    let imm = trace.time("core.stage_imm", Some(root), q, |trace, stage| {
                        let imm = sirius
                            .stage_imm(ImmRequest {
                                question: asr.recognized.clone(),
                                image,
                            })
                            .expect("stage_imm");
                        if let Some(t) = imm.timing {
                            trace.reported_children(
                                stage,
                                &[
                                    ("vision.fe", t.feature_extraction),
                                    ("vision.fd", t.feature_description),
                                    ("vision.ann", t.ann_search),
                                ],
                            );
                        }
                        imm
                    });
                    timing.imm = imm.timing;
                    let qa = trace.time("core.stage_qa", Some(root), q, |trace, stage| {
                        let qa = sirius
                            .stage_qa(QaRequest {
                                question: imm.question,
                            })
                            .expect("stage_qa");
                        let b = &qa.breakdown;
                        trace.reported_children(
                            stage,
                            &[
                                ("nlp.stemmer", b.stemmer),
                                ("nlp.regex", b.regex),
                                ("nlp.crf", b.crf),
                                ("search.retrieval", b.search),
                                ("nlp.filtering", b.filtering),
                            ],
                        );
                        qa
                    });
                    add("filter_hits", qa.breakdown.filter_hits as f64);
                    add("regex_ops", qa.breakdown.regex_ops as f64);
                    add("docs_considered", qa.breakdown.docs_considered as f64);
                    timing.qa = Some(qa.breakdown);
                    (SiriusOutcome::Answer(qa.answer), imm.matched_venue)
                }
            };
            timing.total = began.elapsed();
            let response = SiriusResponse {
                recognized: asr.recognized,
                outcome,
                matched_venue,
                timing,
            };
            if let (Some(caches), Some(key), false) = (&caches, cache_key, hit) {
                trace.time("cache.fill", Some(root), q, |_, _| {
                    caches.fill(key, CachedAnswer::of(&response))
                });
            }

            if !over_wire {
                return response;
            }
            let bytes = trace.time("wire.encode_answer", Some(root), q, |_, _| {
                Frame::Answer(Box::new(response)).encode()
            });
            add("answer_bytes", bytes.len() as f64);
            let read = trace.time("wire.decode_answer", Some(root), q, |_, _| {
                read_frame(&mut bytes.as_slice())
            });
            match read {
                FrameRead::Frame(Frame::Answer(response)) => *response,
                other => panic!("an Answer frame did not survive its own codec: {other:?}"),
            }
        });
        tally.sent += 1;
        if Expected::of(&walked) == stand.expected[i] {
            tally.ok += 1;
        } else {
            tally.wrong += 1;
        }
    }
    let wall = started.elapsed();

    let metrics = walk_metrics(&trace, &sums, wall, order.len(), gemm.as_ref());
    Walk {
        trace,
        tally,
        metrics,
    }
}

/// Turns the walk's spans and sums into per-layer metrics. Pipeline layers
/// are reported per walked query (a query that skips a layer adds zero), so
/// they add up to `core.walk_total_us`; the cache and the kernel are unit
/// costs per call.
fn walk_metrics(
    trace: &Trace,
    sums: &BTreeMap<&'static str, f64>,
    wall: Duration,
    queries: usize,
    gemm: Option<&Gemm>,
) -> Metrics {
    let n = queries.max(1) as f64;
    let sum = |name: &str| sums.get(name).copied().unwrap_or(0.0);
    let per_query_us = |(_, total_ns): (u64, u64)| total_ns as f64 / 1e3 / n;
    let per_call_us = |(calls, total_ns): (u64, u64)| total_ns as f64 / 1e3 / calls.max(1) as f64;
    let asr = trace.span_totals("core.stage_asr");

    let mut m = Metrics::new();
    for (metric, reported) in [
        ("speech.features_us", "speech.features"),
        ("speech.scoring_gmm_us", "speech.scoring_gmm"),
        ("speech.scoring_dnn_us", "speech.scoring_dnn"),
        ("speech.search_us", "speech.search"),
        ("vision.fe_us", "vision.fe"),
        ("vision.fd_us", "vision.fd"),
        ("vision.ann_us", "vision.ann"),
        ("nlp.stemmer_us", "nlp.stemmer"),
        ("nlp.regex_us", "nlp.regex"),
        ("nlp.crf_us", "nlp.crf"),
        ("nlp.filtering_us", "nlp.filtering"),
        ("search.retrieval_us", "search.retrieval"),
    ] {
        m.insert(
            metric.to_owned(),
            per_query_us(trace.reported_totals(reported)),
        );
    }
    for (metric, span) in [
        ("core.stage_asr_us", "core.stage_asr"),
        ("core.stage_classify_us", "core.stage_classify"),
        ("core.stage_imm_us", "core.stage_imm"),
        ("core.stage_qa_us", "core.stage_qa"),
        ("speech.stream_finish_us", "speech.stream_finish"),
        ("wire.encode_submit_us", "wire.encode_submit"),
        ("wire.decode_submit_us", "wire.decode_submit"),
        ("wire.encode_answer_us", "wire.encode_answer"),
        ("wire.decode_answer_us", "wire.decode_answer"),
    ] {
        m.insert(metric.to_owned(), per_query_us(trace.span_totals(span)));
    }
    for (metric, span) in [
        ("speech.stream_push_us_per_chunk", "speech.stream_push"),
        ("cache.lookup_us", "cache.lookup"),
        ("cache.fill_us", "cache.fill"),
        ("kernels.gemm_xwt_bias_us", "kernels.gemm_xwt_bias"),
    ] {
        m.insert(metric.to_owned(), per_call_us(trace.span_totals(span)));
    }
    for (metric, name) in [
        ("speech.audio_s_per_query", "audio_s"),
        ("nlp.filter_hits", "filter_hits"),
        ("nlp.regex_ops", "regex_ops"),
        ("nlp.docs_considered", "docs_considered"),
        ("wire.submit_bytes", "submit_bytes"),
        ("wire.answer_bytes", "answer_bytes"),
    ] {
        m.insert(metric.to_owned(), sum(name) / n);
    }
    m.insert(
        "speech.rtf".to_owned(),
        asr.1 as f64 / 1e9 / sum("audio_s").max(f64::MIN_POSITIVE),
    );
    let gemm_us = m["kernels.gemm_xwt_bias_us"];
    m.insert(
        "kernels.gemm_gflops".to_owned(),
        gemm.map_or(0.0, |g| g.flops() / (gemm_us * 1e3).max(f64::MIN_POSITIVE)),
    );
    m.insert(
        "kernels.gemm_bytes".to_owned(),
        gemm.map_or(0.0, Gemm::bytes),
    );

    // Self time of every span but the per-query roots: what the layers
    // account for. The rest of the wall time is the walk's own glue.
    let layers_ns: u64 = trace
        .self_time_by_name()
        .iter()
        .filter(|(name, _)| **name != "walk.query")
        .map(|(_, &(_, self_ns))| self_ns)
        .sum();
    let wall_ns = wall.as_nanos() as f64;
    m.insert("core.walk_total_us".to_owned(), wall_ns / 1e3 / n);
    m.insert(
        "core.walk_residual_pct".to_owned(),
        (layers_ns as f64 - wall_ns).abs() / wall_ns.max(1.0) * 100.0,
    );
    m
}
