//! Load generation: the closed loop over TCP (or in-process, for the open
//! loop's warm-up), the open loop on an arrival schedule, and the judging
//! of every answer against the serial oracle.

use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use sirius::error::{ClusterError, SiriusError};
use sirius::pipeline::{SiriusInput, SiriusResponse};
use sirius_server::{
    read_frame, ClusterTicket, Frame, FrameRead, NetClient, NetClientError, SiriusCluster,
    SubmitFrame, WireFault,
};

use crate::span::Trace;
use crate::stats::sorted;
use crate::workload::{Expected, Stand};

/// How every request of one phase ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    /// Shed by admission control or dropped at a queue for its deadline.
    pub refused: u64,
    pub errored: u64,
    /// Answered, but not with the serial oracle's answer.
    pub wrong: u64,
    /// Answered correctly, but later than the workload's limit.
    pub late: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.refused + self.errored + self.wrong + self.late
    }

    pub fn add(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.refused += other.refused;
        self.errored += other.errored;
        self.wrong += other.wrong;
        self.late += other.late;
    }
}

impl std::fmt::Display for Tally {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sent {} / ok {} / refused {} / errored {} / wrong {} / late {}",
            self.sent, self.ok, self.refused, self.errored, self.wrong, self.late
        )
    }
}

/// One `ok` answer as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the request was sent (closed loop) or due (open loop), from the
    /// start of its phase.
    pub at: Duration,
    pub latency_ms: f64,
}

/// What one phase (warm-up, measured or traced) observed from outside.
#[derive(Debug, Default)]
pub struct Phase {
    pub tally: Tally,
    pub samples: Vec<Sample>,
    /// First request sent to last answer received.
    pub window: Duration,
    /// Open loop only: how long after its due time each request was sent.
    pub lateness_us: Vec<f64>,
    pub trace: Option<Trace>,
}

impl Phase {
    pub fn throughput_qps(&self) -> f64 {
        self.tally.ok as f64 / self.window.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        sorted(self.samples.iter().map(|s| s.latency_ms).collect())
    }

    fn absorb(&mut self, other: Phase) {
        self.tally.add(&other.tally);
        self.samples.extend(other.samples);
        self.lateness_us.extend(other.lateness_us);
        match (&mut self.trace, other.trace) {
            (Some(mine), Some(theirs)) => mine.absorb(theirs),
            (mine @ None, theirs) => *mine = theirs,
            (Some(_), None) => {}
        }
    }

    /// Judges one finished request, sent or due `at` into the phase.
    fn judge(
        &mut self,
        served: Result<SiriusResponse, Refusal>,
        expected: &Expected,
        at: Duration,
        latency: Duration,
        limit: Duration,
    ) {
        match served {
            Err(Refusal::Shed) => self.tally.refused += 1,
            Err(Refusal::Error(message)) => {
                if self.tally.errored == 0 {
                    eprintln!("request errored: {message}");
                }
                self.tally.errored += 1;
            }
            Ok(response) if Expected::of(&response) != *expected => {
                if self.tally.wrong == 0 {
                    eprintln!(
                        "wrong answer: served {:?}, oracle {expected:?}",
                        Expected::of(&response)
                    );
                }
                self.tally.wrong += 1;
            }
            Ok(_) if latency > limit => self.tally.late += 1,
            Ok(_) => {
                self.tally.ok += 1;
                self.samples.push(Sample {
                    at,
                    latency_ms: latency.as_secs_f64() * 1e3,
                });
            }
        }
    }
}

/// Why a request got no answer.
enum Refusal {
    Shed,
    Error(String),
}

impl From<ClusterError> for Refusal {
    fn from(e: ClusterError) -> Self {
        match e {
            ClusterError::Replica {
                source: SiriusError::Overloaded { .. } | SiriusError::DeadlineUnmeetable { .. },
                ..
            } => Refusal::Shed,
            other => Refusal::Error(other.to_string()),
        }
    }
}

impl From<NetClientError> for Refusal {
    fn from(e: NetClientError) -> Self {
        match e {
            NetClientError::Fault(WireFault::Cluster(e)) => e.into(),
            other => Refusal::Error(other.to_string()),
        }
    }
}

/// The Submit frame of a class-less query without a deadline, as
/// `NetClient::submit` builds it.
pub fn submit_frame(input: &SiriusInput) -> Frame {
    Frame::Submit(SubmitFrame {
        tenant_class: String::new(),
        deadline_ns: 0,
        audio: input.audio.clone(),
        image: input.image.clone(),
    })
}

/// One closed-loop client.
enum Client<'a> {
    /// The program's own client: what the untraced run measures.
    Net(NetClient),
    /// The same exchange done by hand, with the write and the wait for the
    /// answer timed apart.
    Split { stream: TcpStream, trace: Trace },
    /// In-process submit and wait, with the workload's deadline.
    Local(&'a SiriusCluster, Duration),
}

impl Client<'_> {
    fn submit(&mut self, input: &SiriusInput, query: u64) -> Result<SiriusResponse, Refusal> {
        match self {
            Client::Net(client) => Ok(client.submit(input, "", None)?),
            Client::Local(cluster, limit) => Ok(cluster
                .submit_with_deadline(input.clone(), *limit)
                .and_then(ClusterTicket::wait)?),
            Client::Split { stream, trace } => {
                let exchange = |trace: &mut Trace, request| -> std::io::Result<FrameRead> {
                    let frame = submit_frame(input);
                    trace.time("net.client_write", Some(request), query, |_, _| {
                        frame.write_to(stream)
                    })?;
                    Ok(
                        trace.time("net.client_read_wait", Some(request), query, |_, _| {
                            read_frame(stream)
                        }),
                    )
                };
                let read = trace
                    .time("client.request", None, query, exchange)
                    .map_err(|e| Refusal::Error(e.to_string()))?;
                match read {
                    FrameRead::Frame(Frame::Answer(response)) => Ok(*response),
                    FrameRead::Frame(Frame::Error(WireFault::Cluster(e))) => Err(e.into()),
                    other => Err(Refusal::Error(format!("unexpected reply: {other:?}"))),
                }
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Send until this much time has passed.
    After(Duration),
    /// Send the first this many requests of each client's sequence.
    Requests(usize),
}

/// Where a closed loop's clients connect.
#[derive(Clone, Copy)]
pub enum Door<'a> {
    Tcp(SocketAddr),
    InProcess(&'a SiriusCluster),
}

/// Runs one closed-loop client per sequence until `stop`. With a trace
/// epoch the TCP exchange is done by hand and its halves are timed.
pub fn closed_loop(
    stand: &Stand,
    door: Door<'_>,
    sequences: &[Vec<usize>],
    stop: Stop,
    limit: Duration,
    trace_epoch: Option<Instant>,
) -> Phase {
    let started = Instant::now();
    let mut phase = Phase::default();
    let per_client: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = sequences
            .iter()
            .enumerate()
            .map(|(c, sequence)| {
                scope.spawn(move || {
                    let mut client = match (door, trace_epoch) {
                        (Door::InProcess(cluster), _) => Client::Local(cluster, limit),
                        (Door::Tcp(addr), None) => {
                            Client::Net(NetClient::connect(addr).expect("connect to the server"))
                        }
                        (Door::Tcp(addr), Some(epoch)) => {
                            let stream = TcpStream::connect(addr).expect("connect to the server");
                            stream.set_nodelay(true).expect("set TCP_NODELAY");
                            Client::Split {
                                stream,
                                trace: Trace::new(epoch),
                            }
                        }
                    };
                    let mut mine = Phase::default();
                    let requests = match stop {
                        Stop::After(_) => usize::MAX,
                        Stop::Requests(requests) => requests,
                    };
                    for (k, &i) in sequence.iter().cycle().take(requests).enumerate() {
                        if matches!(stop, Stop::After(d) if started.elapsed() >= d) {
                            break;
                        }
                        let query = (c + k * sequences.len()) as u64;
                        let sent = Instant::now();
                        let served = client.submit(&stand.inputs[i], query);
                        mine.tally.sent += 1;
                        mine.judge(
                            served,
                            &stand.expected[i],
                            sent.duration_since(started),
                            sent.elapsed(),
                            limit,
                        );
                    }
                    if let Client::Split { trace, .. } = client {
                        mine.trace = Some(trace);
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    for client in per_client {
        phase.absorb(client);
    }
    phase.window = started.elapsed();
    phase
}

/// Sends `picks[k]` at `schedule[k]` whatever the server does, from one
/// generator thread; one collector thread waits for the answers. Latency
/// runs from a request's due time, so a generator stall counts against the
/// requests it delayed.
pub fn open_loop(
    stand: &Stand,
    cluster: &SiriusCluster,
    picks: &[usize],
    schedule: &[Duration],
    limit: Duration,
    trace_epoch: Option<Instant>,
) -> Phase {
    let (tx, rx) = mpsc::channel::<(usize, Instant, ClusterTicket)>();
    let started = Instant::now();
    let (generated, collected) = std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut mine = Phase {
                trace: trace_epoch.map(Trace::new),
                ..Phase::default()
            };
            for (k, (&i, &offset)) in picks.iter().zip(schedule).enumerate() {
                let input = stand.inputs[i].clone();
                let due = started + offset;
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                let late = due.elapsed();
                mine.lateness_us.push(late.as_secs_f64() * 1e6);
                mine.tally.sent += 1;
                let submit = || cluster.submit_with_deadline(input, limit);
                let admitted = match &mut mine.trace {
                    Some(trace) => {
                        trace.time("runtime.submit_call", None, k as u64, |_, _| submit())
                    }
                    None => submit(),
                };
                match admitted {
                    Ok(ticket) => tx.send((i, due, ticket)).expect("collector is waiting"),
                    Err(e) => mine.judge(Err(e.into()), &stand.expected[i], offset, late, limit),
                }
            }
            drop(tx);
            mine
        });
        let collector = scope.spawn(move || {
            let mut mine = Phase::default();
            for (i, due, ticket) in rx {
                let offset = due.duration_since(started);
                // The collector waits in arrival order, so its own wake-up
                // time says little about a request that finished out of
                // order. The response carries the server-side sojourn from
                // admission; added to the admission instant it gives the
                // completion instant on the same clock.
                let admitted = ticket.ticket().submitted_at();
                let served = ticket.wait();
                let latency = match &served {
                    Ok(response) => (admitted + response.timing.total).duration_since(due),
                    Err(_) => due.elapsed(),
                };
                let served = served.map_err(Into::into);
                mine.judge(served, &stand.expected[i], offset, latency, limit);
            }
            mine
        });
        (
            generator.join().expect("generator thread"),
            collector.join().expect("collector thread"),
        )
    });
    let mut phase = generated;
    phase.absorb(collected);
    phase.window = started.elapsed();
    phase
}
