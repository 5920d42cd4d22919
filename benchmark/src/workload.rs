//! The four workloads: their inputs, their serial-oracle answers, and the
//! server each one is served by.

use std::time::Duration;

use sirius::pipeline::{Sirius, SiriusConfig, SiriusInput, SiriusOutcome, SiriusResponse};
use sirius::taxonomy::QueryKind;
use sirius_server::{
    BatchPolicy, CachePolicy, ClusterConfig, NetConfig, NetServer, ServerConfig, SiriusCluster,
    StreamPolicy,
};
use sirius_speech::asr::AcousticModelKind;
use sirius_vision::synth::random_view;

use crate::gen::{zipf_quotas, Rng};

/// Views rendered per VIQ spec on `net_viq`.
const VIEWS_PER_VIQ: usize = 8;
/// The seed of the repo's 42-query set: every test and bench of the
/// repository synthesizes its utterances with it. `--seed` decides what is
/// done with the set — orders, views, ranks, arrival times — not its audio,
/// so that two seeds differ in traffic and not in how long the words are.
const INPUT_SET_SEED: u64 = 9999;
/// Passes over the inputs in a closed-loop client's order, each a fresh
/// shuffle so that the clients' orders do not stay in step. More than a
/// run sends; a client that gets through them starts over.
const PASSES: usize = 64;
/// Client connections of a closed loop. Capped so that numbers stay
/// comparable on machines with more cores.
pub const MAX_CLIENTS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// Each client sends its next request when the previous one completed.
    Closed,
    /// Poisson arrivals at a fixed rate, whatever the server does.
    Open { rate_qps: f64 },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub pattern: Pattern,
    /// An answer later than this counts as failed.
    pub limit: Duration,
    pub acoustic: AcousticModelKind,
    viq_views: bool,
    streaming: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "net_mixed",
        pattern: Pattern::Closed,
        limit: Duration::from_secs(1),
        acoustic: AcousticModelKind::Gmm,
        viq_views: false,
        streaming: false,
    },
    Workload {
        name: "net_viq",
        pattern: Pattern::Closed,
        limit: Duration::from_secs(1),
        acoustic: AcousticModelKind::Gmm,
        viq_views: true,
        streaming: false,
    },
    Workload {
        name: "net_stream",
        pattern: Pattern::Closed,
        limit: Duration::from_secs(1),
        acoustic: AcousticModelKind::Gmm,
        viq_views: false,
        streaming: true,
    },
    Workload {
        name: "open_dnn_zipf",
        pattern: Pattern::Open { rate_qps: 40.0 },
        limit: Duration::from_millis(250),
        acoustic: AcousticModelKind::Dnn,
        viq_views: false,
        streaming: false,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.into_iter().find(|w| w.name == name)
}

impl Workload {
    /// Audio per streaming chunk on `net_stream`; zero elsewhere.
    pub fn stream_chunk(&self) -> Duration {
        if self.streaming {
            Duration::from_millis(160)
        } else {
            Duration::ZERO
        }
    }

    /// The result cache of the open loop: smaller than the 42-query
    /// working set, so hits, fills and evictions all happen.
    pub fn cache_policy(&self) -> CachePolicy {
        match self.pattern {
            Pattern::Open { .. } => CachePolicy::enabled().with_capacity(8),
            Pattern::Closed => CachePolicy::default(),
        }
    }

    fn server_config(&self) -> ServerConfig {
        let mut config = ServerConfig {
            acoustic: self.acoustic,
            cache: self.cache_policy(),
            ..ServerConfig::default()
        };
        if self.streaming {
            config.stream = StreamPolicy::new(self.stream_chunk()).with_speculation();
        }
        if matches!(self.pattern, Pattern::Open { .. }) {
            config.asr.workers = 2;
            config.batch = BatchPolicy::new(4, Duration::from_millis(1));
        }
        config
    }

    /// Workers of each stage (asr, classify, imm, qa), for busy shares.
    pub fn stage_workers(&self) -> [usize; 4] {
        let c = self.server_config();
        [
            c.asr.workers,
            c.classify.workers,
            c.imm.workers,
            c.qa.workers,
        ]
    }

    /// The request order of each client, as indices into the inputs. A
    /// closed loop gives each client its own seeded shuffles, pass after
    /// pass. The open loop sends `requests` requests in a seeded order, of
    /// which each input has its Zipf(1.1) share; which input holds which
    /// rank is part of the workload, not of the seed, so that every seed
    /// offers the same load.
    pub fn sequences(&self, inputs: usize, seed: u64, requests: usize) -> Vec<Vec<usize>> {
        match self.pattern {
            Pattern::Closed => (0..clients())
                .map(|c| {
                    let mut rng = Rng::new(seed ^ (0xc11e_0000 + c as u64));
                    (0..PASSES).flat_map(|_| rng.permutation(inputs)).collect()
                })
                .collect(),
            Pattern::Open { .. } => {
                let by_rank = Rng::new(INPUT_SET_SEED).permutation(inputs);
                let mut picks: Vec<usize> = zipf_quotas(inputs, 1.1, requests)
                    .into_iter()
                    .zip(by_rank)
                    .flat_map(|(quota, input)| std::iter::repeat_n(input, quota))
                    .collect();
                Rng::new(seed ^ 0x21bf).shuffle(&mut picks);
                vec![picks]
            }
        }
    }
}

/// Closed-loop client threads: at most one per core, at most `MAX_CLIENTS`.
pub fn clients() -> usize {
    cores().min(MAX_CLIENTS)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// What a served answer is compared on.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub recognized: String,
    pub outcome: SiriusOutcome,
    pub matched_venue: Option<String>,
}

impl Expected {
    pub fn of(response: &SiriusResponse) -> Self {
        Self {
            recognized: response.recognized.clone(),
            outcome: response.outcome.clone(),
            matched_venue: response.matched_venue.clone(),
        }
    }
}

/// What one set-up of a workload makes besides the server: the trained
/// pipeline and the generated inputs with their oracle answers.
pub struct Stand {
    pub sirius: Sirius,
    /// The pipeline in the data layout a cluster of one serves. The oracle
    /// and the layer walk run on it, serially: a replica searches the image
    /// descriptors exactly where the unsharded pipeline searches them under
    /// a budget, and on about one `random_view` in a thousand the two name
    /// different venues (README, finding 8). The repository's equivalence
    /// gate covers the 42-query set only.
    pub replica: Sirius,
    pub inputs: Vec<SiriusInput>,
    pub expected: Vec<Expected>,
}

pub enum Served {
    Net(NetServer),
    Local(SiriusCluster),
}

impl Served {
    pub fn cluster(&self) -> &SiriusCluster {
        match self {
            Served::Net(net) => net.cluster(),
            Served::Local(cluster) => cluster,
        }
    }

    pub fn shutdown(self) {
        match self {
            Served::Net(net) => net.shutdown(),
            Served::Local(cluster) => cluster.shutdown(),
        }
    }
}

/// The workload's inputs, made from `seed` alone.
fn synthesize(sirius: &Sirius, workload: &Workload, seed: u64) -> Vec<SiriusInput> {
    let prepared = sirius::prepare_input_set(sirius, INPUT_SET_SEED);
    if !workload.viq_views {
        return prepared.iter().map(|p| p.input()).collect();
    }
    let mut inputs = Vec::new();
    for (i, query) in prepared
        .iter()
        .filter(|p| p.spec.kind == QueryKind::VoiceImageQuery)
        .enumerate()
    {
        let venue = query.spec.venue.expect("a VIQ spec names its venue");
        let venue_index = sirius
            .venues()
            .iter()
            .position(|v| v.eq_ignore_ascii_case(venue))
            .expect("the venue is in the image database");
        let scene = sirius.venue_scene(venue_index);
        for view in 0..VIEWS_PER_VIQ {
            let view_seed = Rng::new(seed ^ (((i * VIEWS_PER_VIQ + view) as u64) << 20)).next_u64();
            inputs.push(SiriusInput {
                audio: query.utterance.samples.clone(),
                image: Some(random_view(&scene, view_seed)),
            });
        }
    }
    inputs
}

/// Starts the workload's server: one replica, on loopback TCP for a closed
/// loop, in-process for the open loop.
pub fn start_server(
    sirius: &Sirius,
    workload: &Workload,
    recorder: Option<std::sync::Arc<dyn sirius_obs::Recorder>>,
) -> Served {
    let config = ClusterConfig::new(1).with_server(workload.server_config());
    let cluster = match recorder {
        Some(recorder) => SiriusCluster::start_with_recorder(sirius, config, recorder),
        None => SiriusCluster::start(sirius, config),
    }
    .expect("one replica is a valid cluster");
    match workload.pattern {
        Pattern::Closed => Served::Net(
            NetServer::serve(cluster, "127.0.0.1:0", NetConfig::default())
                .expect("bind an ephemeral loopback port"),
        ),
        Pattern::Open { .. } => Served::Local(cluster),
    }
}

/// Trains the pipeline, generates the inputs, answers each with the serial
/// pipeline of a cluster replica (the oracle) and starts the server.
/// Warm-up is the caller's.
pub fn set_up(workload: &Workload, seed: u64) -> (Stand, Served) {
    let sirius = Sirius::build(SiriusConfig::default());
    let inputs = synthesize(&sirius, workload, seed);
    let replica = sirius
        .shard_replicas(1)
        .expect("one shard is a valid layout")
        .remove(0);
    let expected = inputs
        .iter()
        .map(|input| {
            let response = replica
                .try_process_with(input, workload.acoustic)
                .expect("the serial pipeline answers every generated input");
            Expected::of(&response)
        })
        .collect();
    let server = start_server(&sirius, workload, None);
    let stand = Stand {
        sirius,
        replica,
        inputs,
        expected,
    };
    (stand, server)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_seeded() {
        for workload in WORKLOADS {
            let a = workload.sequences(42, 9999, 300);
            assert_eq!(a, workload.sequences(42, 9999, 300), "{}", workload.name);
            assert_ne!(a, workload.sequences(42, 424_242, 300), "{}", workload.name);
            assert!(a.iter().flatten().all(|&i| i < 42));
            match workload.pattern {
                Pattern::Closed => {
                    for order in &a {
                        assert_eq!(order.len(), 42 * PASSES);
                        let mut first_pass = order[..42].to_vec();
                        assert_ne!(first_pass, order[42..84], "each pass is a new shuffle");
                        first_pass.sort_unstable();
                        assert_eq!(first_pass, (0..42).collect::<Vec<_>>());
                    }
                }
                Pattern::Open { .. } => {
                    assert_eq!(a[0].len(), 300);
                    // Another seed sends the same requests in another order.
                    let mut mine = a[0].clone();
                    let mut theirs = workload.sequences(42, 424_242, 300).remove(0);
                    mine.sort_unstable();
                    theirs.sort_unstable();
                    assert_eq!(mine, theirs);
                }
            }
        }
    }
}
