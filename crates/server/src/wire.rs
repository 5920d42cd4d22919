//! The network front-end's wire protocol: versioned, length-prefixed
//! frames encoded with `sirius-codec`.
//!
//! Every frame is a fixed 10-byte header followed by a codec-encoded body:
//!
//! ```text
//! +----------+---------+------+-------------+- - - - - - -+
//! | magic    | version | type | body length | body        |
//! | "SIRF"   | u8 = 1  | u8   | u32 LE      | (type-      |
//! | 4 bytes  |         |      | ≤ 64 MiB    |  specific)  |
//! +----------+---------+------+-------------+- - - - - - -+
//! ```
//!
//! Three frame types cross the socket:
//!
//! | type | frame | direction | body |
//! |---|---|---|---|
//! | `0x01` | [`Frame::Submit`] | client → server | tenant class, deadline, audio, optional image |
//! | `0x02` | [`Frame::Answer`] | server → client | the full [`SiriusResponse`], timings included |
//! | `0x03` | [`Frame::Error`] | server → client | a typed [`WireFault`] |
//!
//! **Losslessness.** Every [`SiriusError`] and [`ClusterError`] variant maps
//! onto the wire field-for-field — `retry_after` hints, replica indices and
//! stage names included — through exhaustive `match`es
//! ([`encode_sirius_error`]/[`encode_cluster_error`]), so adding an enum
//! variant without extending the mapping is a **compile error**, not a
//! silently dropped error class. Durations travel as `(seconds: u64,
//! subsecond nanos: u32)` pairs, the exact representation `std` uses, so
//! even `Duration::MAX` round-trips bit-exactly.
//!
//! **Hostility.** The decode side trusts nothing: magic/version/type are
//! checked before the body is read, body lengths are capped at
//! [`MAX_FRAME_BODY`] before allocation, bodies must decode completely
//! (`Decoder::finish`), image dimensions must match their pixel payload,
//! and every failure surfaces as a value ([`FrameRead::Malformed`] /
//! [`DecodeError`]) — never a panic. `sirius-codec`'s own allocation
//! preflights bound what a hostile length claim can cost.

use std::io::{self, Read, Write};
use std::time::Duration;

use sirius::error::{ClusterError, SiriusError};
use sirius::pipeline::{SiriusOutcome, SiriusResponse, StageTiming};
use sirius::DeviceAction;
use sirius_codec::{DecodeError, Decoder, Encoder};
use sirius_speech::asr::AsrTiming;
use sirius_vision::db::ImmTiming;
use sirius_vision::image::GrayImage;

use crate::metrics::STAGES;

/// The four magic bytes opening every frame. A connection whose first bytes
/// are not this (or an HTTP `GET `) is answered with a typed protocol error
/// and closed.
pub const MAGIC: [u8; 4] = *b"SIRF";

/// Protocol version stamped into (and checked on) every frame header.
pub const PROTOCOL_VERSION: u8 = 1;

/// Fixed frame-header length: magic (4) + version (1) + type (1) + body
/// length (4).
pub const HEADER_LEN: usize = 10;

/// Upper bound on a frame body. The largest legitimate frame — a
/// voice-image query's audio plus pixels — is a few hundred KiB; anything
/// claiming more than this is hostile and is rejected *before* any
/// allocation.
pub const MAX_FRAME_BODY: u32 = 64 << 20;

const TYPE_SUBMIT: u8 = 0x01;
const TYPE_ANSWER: u8 = 0x02;
const TYPE_ERROR: u8 = 0x03;

/// A query submission: the remote form of a [`Request`](crate::Request)
/// entering [`SiriusServer::submit`](crate::SiriusServer::submit).
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitFrame {
    /// Tenant class for classed (weighted, SLO-gated) admission; empty for
    /// a class-less request.
    pub tenant_class: String,
    /// The request's deadline in nanoseconds; `0` means none. Alongside a
    /// tenant class the tighter of this and the class's SLO applies.
    pub deadline_ns: u64,
    /// Mono PCM audio at 16 kHz.
    pub audio: Vec<f32>,
    /// Accompanying image for voice-image queries.
    pub image: Option<GrayImage>,
}

/// A typed failure travelling server → client.
#[derive(Debug, Clone, PartialEq)]
pub enum WireFault {
    /// The peer violated the framing or encoding rules; the offending
    /// detail is carried verbatim so remote clients can log exactly what
    /// the server rejected.
    Protocol {
        /// What was malformed.
        message: String,
    },
    /// The serving cluster failed the query: every [`ClusterError`] /
    /// [`SiriusError`] variant, lossless.
    Cluster(ClusterError),
}

impl std::fmt::Display for WireFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireFault::Protocol { message } => write!(f, "protocol violation: {message}"),
            WireFault::Cluster(e) => write!(f, "cluster error: {e}"),
        }
    }
}

impl std::error::Error for WireFault {}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: serve this query.
    Submit(SubmitFrame),
    /// Server → client: the query's full response.
    Answer(Box<SiriusResponse>),
    /// Server → client: the query (or the connection) failed, typed.
    Error(WireFault),
}

impl Frame {
    /// Encodes the frame — header and body — into one fresh buffer: the
    /// header goes first with a zero body length, which is patched once the
    /// body is written.
    pub fn encode(&self) -> Vec<u8> {
        let ty = match self {
            Frame::Submit(_) => TYPE_SUBMIT,
            Frame::Answer(_) => TYPE_ANSWER,
            Frame::Error(_) => TYPE_ERROR,
        };
        let mut enc = Encoder::new();
        for byte in MAGIC {
            enc.u8(byte);
        }
        enc.u8(PROTOCOL_VERSION).u8(ty).u32(0);
        match self {
            Frame::Submit(submit) => encode_submit(&mut enc, submit),
            Frame::Answer(response) => encode_response(&mut enc, response),
            Frame::Error(fault) => encode_fault(&mut enc, fault),
        }
        let mut out = enc.into_bytes();
        let body_len = u32::try_from(out.len() - HEADER_LEN)
            .expect("frame bodies are bounded far below u32::MAX");
        out[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&body_len.to_le_bytes());
        out
    }

    /// Encodes and writes the frame to `w`.
    ///
    /// # Errors
    ///
    /// Any I/O error from the writer.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<usize> {
        let bytes = self.encode();
        w.write_all(&bytes)?;
        Ok(bytes.len())
    }
}

/// The outcome of pulling one frame off a byte stream.
#[derive(Debug)]
pub enum FrameRead {
    /// A well-formed frame.
    Frame(Frame),
    /// Clean close: EOF exactly at a frame boundary.
    Closed,
    /// The peer violated the protocol (bad magic, wrong version, unknown
    /// type, oversize or undecodable body). The connection is still
    /// writable, so the violation can be answered with a typed
    /// [`Frame::Error`] before closing.
    Malformed(String),
    /// The connection died mid-frame (truncated header/body or a socket
    /// error): nothing can be answered.
    Io(io::Error),
}

/// Reads exactly one frame from `r`, distinguishing clean close, protocol
/// violations (answerable) and dead connections (not).
pub fn read_frame(r: &mut impl Read) -> FrameRead {
    let mut header = [0u8; HEADER_LEN];
    // A clean close is EOF before any header byte; EOF after at least one
    // is a truncated frame.
    match r.read(&mut header) {
        Ok(0) => return FrameRead::Closed,
        Ok(mut got) => {
            while got < HEADER_LEN {
                match r.read(&mut header[got..]) {
                    Ok(0) => {
                        return FrameRead::Io(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            format!("connection closed {got} bytes into a frame header"),
                        ))
                    }
                    Ok(n) => got += n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return FrameRead::Io(e),
                }
            }
        }
        Err(e) if e.kind() == io::ErrorKind::Interrupted => return read_frame(r),
        Err(e) => return FrameRead::Io(e),
    }
    if header[..4] != MAGIC {
        return FrameRead::Malformed(format!(
            "bad magic {:02x}{:02x}{:02x}{:02x} (expected \"SIRF\")",
            header[0], header[1], header[2], header[3]
        ));
    }
    if header[4] != PROTOCOL_VERSION {
        return FrameRead::Malformed(format!(
            "unsupported protocol version {} (this server speaks {PROTOCOL_VERSION})",
            header[4]
        ));
    }
    let ty = header[5];
    let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]);
    if len > MAX_FRAME_BODY {
        return FrameRead::Malformed(format!(
            "frame body of {len} bytes exceeds the {MAX_FRAME_BODY}-byte limit"
        ));
    }
    // Read straight into spare capacity: no zero-fill of a body about to be
    // overwritten.
    let mut body = Vec::with_capacity(len as usize);
    match r.by_ref().take(u64::from(len)).read_to_end(&mut body) {
        Ok(got) if got < len as usize => {
            return FrameRead::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("connection closed {got} of {len} bytes into a frame body"),
            ))
        }
        Ok(_) => {}
        Err(e) => return FrameRead::Io(e),
    }
    let mut dec = Decoder::new(&body);
    let decoded = match ty {
        TYPE_SUBMIT => decode_submit(&mut dec).map(Frame::Submit),
        TYPE_ANSWER => decode_response(&mut dec).map(|r| Frame::Answer(Box::new(r))),
        TYPE_ERROR => decode_fault(&mut dec).map(Frame::Error),
        other => return FrameRead::Malformed(format!("unknown frame type 0x{other:02x}")),
    };
    match decoded.and_then(|frame| dec.finish().map(|()| frame)) {
        Ok(frame) => FrameRead::Frame(frame),
        Err(e) => FrameRead::Malformed(format!("undecodable frame body: {e}")),
    }
}

// ---------------------------------------------------------------------------
// Submit

fn encode_submit(enc: &mut Encoder, s: &SubmitFrame) {
    enc.str(&s.tenant_class)
        .u64(s.deadline_ns)
        .f32_slice(&s.audio);
    match &s.image {
        Some(image) => {
            enc.bool(true)
                .u32(image.width() as u32)
                .u32(image.height() as u32)
                .f32_slice(image.data());
        }
        None => {
            enc.bool(false);
        }
    }
}

fn decode_submit(dec: &mut Decoder) -> Result<SubmitFrame, DecodeError> {
    let tenant_class = dec.str()?;
    let deadline_ns = dec.u64()?;
    let audio = dec.f32_vec()?;
    let image = if dec.bool()? {
        let width = dec.u32()? as usize;
        let height = dec.u32()? as usize;
        let data = dec.f32_vec()?;
        // `GrayImage::from_data` trusts width × height == data.len(); a
        // hostile frame must not get to violate that invariant.
        if width.checked_mul(height) != Some(data.len()) {
            return Err(DecodeError {
                message: format!(
                    "image dimensions {width}x{height} disagree with {} pixels",
                    data.len()
                ),
                offset: 0,
            });
        }
        Some(GrayImage::from_data(width, height, data))
    } else {
        None
    };
    Ok(SubmitFrame {
        tenant_class,
        deadline_ns,
        audio,
        image,
    })
}

// ---------------------------------------------------------------------------
// Durations (lossless: the exact (secs, subsec nanos) pair `std` stores)

fn encode_duration(enc: &mut Encoder, d: Duration) {
    enc.u64(d.as_secs()).u32(d.subsec_nanos());
}

fn decode_duration(dec: &mut Decoder) -> Result<Duration, DecodeError> {
    let secs = dec.u64()?;
    let nanos = dec.u32()?;
    if nanos >= 1_000_000_000 {
        return Err(DecodeError {
            message: format!("duration subsecond field {nanos} is not < 1e9"),
            offset: 0,
        });
    }
    Ok(Duration::new(secs, nanos))
}

fn decode_usize(dec: &mut Decoder) -> Result<usize, DecodeError> {
    let v = dec.u64()?;
    usize::try_from(v).map_err(|_| DecodeError {
        message: format!("count {v} does not fit this platform's usize"),
        offset: 0,
    })
}

// ---------------------------------------------------------------------------
// Answer

fn encode_response(enc: &mut Encoder, r: &SiriusResponse) {
    enc.str(&r.recognized);
    match &r.outcome {
        SiriusOutcome::Action(action) => {
            enc.u8(0).str(&action.action).str(&action.command);
        }
        SiriusOutcome::Answer(answer) => {
            enc.u8(1);
            match answer {
                Some(text) => enc.bool(true).str(text),
                None => enc.bool(false),
            };
        }
    }
    match &r.matched_venue {
        Some(venue) => enc.bool(true).str(venue),
        None => enc.bool(false),
    };
    let t = &r.timing;
    encode_duration(enc, t.asr.feature_extraction);
    encode_duration(enc, t.asr.scoring);
    encode_duration(enc, t.asr.search);
    encode_duration(enc, t.asr.total);
    encode_duration(enc, t.classify);
    match &t.qa {
        Some(qa) => {
            enc.bool(true);
            encode_duration(enc, qa.stemmer);
            encode_duration(enc, qa.regex);
            encode_duration(enc, qa.crf);
            encode_duration(enc, qa.search);
            encode_duration(enc, qa.filtering);
            encode_duration(enc, qa.total);
            enc.u64(qa.filter_hits as u64)
                .u64(qa.docs_considered as u64)
                .u64(qa.regex_ops as u64);
        }
        None => {
            enc.bool(false);
        }
    }
    match &t.imm {
        Some(imm) => {
            enc.bool(true);
            encode_duration(enc, imm.feature_extraction);
            encode_duration(enc, imm.feature_description);
            encode_duration(enc, imm.ann_search);
            encode_duration(enc, imm.total);
        }
        None => {
            enc.bool(false);
        }
    }
    encode_duration(enc, t.total);
}

fn decode_response(dec: &mut Decoder) -> Result<SiriusResponse, DecodeError> {
    let recognized = dec.str()?;
    let outcome = match dec.u8()? {
        0 => SiriusOutcome::Action(DeviceAction {
            action: dec.str()?,
            command: dec.str()?,
        }),
        1 => {
            let answer = if dec.bool()? { Some(dec.str()?) } else { None };
            SiriusOutcome::Answer(answer)
        }
        other => {
            return Err(DecodeError {
                message: format!("unknown outcome discriminant {other}"),
                offset: 0,
            })
        }
    };
    let matched_venue = if dec.bool()? { Some(dec.str()?) } else { None };
    let asr = AsrTiming {
        feature_extraction: decode_duration(dec)?,
        scoring: decode_duration(dec)?,
        search: decode_duration(dec)?,
        total: decode_duration(dec)?,
    };
    let classify = decode_duration(dec)?;
    let qa = if dec.bool()? {
        Some(sirius_nlp_breakdown(dec)?)
    } else {
        None
    };
    let imm = if dec.bool()? {
        Some(ImmTiming {
            feature_extraction: decode_duration(dec)?,
            feature_description: decode_duration(dec)?,
            ann_search: decode_duration(dec)?,
            total: decode_duration(dec)?,
        })
    } else {
        None
    };
    let total = decode_duration(dec)?;
    Ok(SiriusResponse {
        recognized,
        outcome,
        matched_venue,
        timing: StageTiming {
            asr,
            classify,
            qa,
            imm,
            total,
        },
    })
}

fn sirius_nlp_breakdown(dec: &mut Decoder) -> Result<sirius_nlp::qa::QaBreakdown, DecodeError> {
    Ok(sirius_nlp::qa::QaBreakdown {
        stemmer: decode_duration(dec)?,
        regex: decode_duration(dec)?,
        crf: decode_duration(dec)?,
        search: decode_duration(dec)?,
        filtering: decode_duration(dec)?,
        total: decode_duration(dec)?,
        filter_hits: decode_usize(dec)?,
        docs_considered: decode_usize(dec)?,
        regex_ops: decode_usize(dec)?,
    })
}

// ---------------------------------------------------------------------------
// Errors

/// Maps a wire stage name back onto the runtime's `&'static str` stage
/// table. Stage names in [`SiriusError`] are static by construction, so the
/// wire form must intern, not allocate; a name outside the table is a
/// protocol violation.
fn intern_stage(name: &str) -> Result<&'static str, DecodeError> {
    STAGES
        .iter()
        .find(|s| **s == name)
        .copied()
        .ok_or_else(|| DecodeError {
            message: format!("unknown stage name {name:?}"),
            offset: 0,
        })
}

/// Encodes one [`SiriusError`], field-for-field. The `match` is exhaustive
/// on purpose: adding a variant without a wire mapping fails to compile
/// here (and in [`decode_sirius_error`]'s round-trip test) instead of
/// silently collapsing the new error class.
pub fn encode_sirius_error(enc: &mut Encoder, e: &SiriusError) {
    match e {
        SiriusError::Overloaded { stage } => {
            enc.u8(0).str(stage);
        }
        SiriusError::ShuttingDown => {
            enc.u8(1);
        }
        SiriusError::VenueOutOfRange { image_id, venues } => {
            enc.u8(2).u32(*image_id).u64(*venues as u64);
        }
        SiriusError::StagePanicked { stage } => {
            enc.u8(3).str(stage);
        }
        SiriusError::Timeout { waited } => {
            enc.u8(4);
            encode_duration(enc, *waited);
        }
        SiriusError::InvalidAudio { reason } => {
            enc.u8(5).str(reason);
        }
        SiriusError::DeadlineUnmeetable {
            expected,
            deadline,
            retry_after,
        } => {
            enc.u8(6);
            encode_duration(enc, *expected);
            encode_duration(enc, *deadline);
            encode_duration(enc, *retry_after);
        }
        SiriusError::UnknownTenantClass { class } => {
            enc.u8(7).str(class);
        }
    }
}

/// Decodes one [`SiriusError`]; the inverse of [`encode_sirius_error`].
///
/// # Errors
///
/// [`DecodeError`] on an unknown discriminant, stage name or malformed
/// field.
pub fn decode_sirius_error(dec: &mut Decoder) -> Result<SiriusError, DecodeError> {
    Ok(match dec.u8()? {
        0 => SiriusError::Overloaded {
            stage: intern_stage(&dec.str()?)?,
        },
        1 => SiriusError::ShuttingDown,
        2 => SiriusError::VenueOutOfRange {
            image_id: dec.u32()?,
            venues: decode_usize(dec)?,
        },
        3 => SiriusError::StagePanicked {
            stage: intern_stage(&dec.str()?)?,
        },
        4 => SiriusError::Timeout {
            waited: decode_duration(dec)?,
        },
        5 => SiriusError::InvalidAudio { reason: dec.str()? },
        6 => SiriusError::DeadlineUnmeetable {
            expected: decode_duration(dec)?,
            deadline: decode_duration(dec)?,
            retry_after: decode_duration(dec)?,
        },
        7 => SiriusError::UnknownTenantClass { class: dec.str()? },
        other => {
            return Err(DecodeError {
                message: format!("unknown SiriusError discriminant {other}"),
                offset: 0,
            })
        }
    })
}

/// Encodes one [`ClusterError`], field-for-field (exhaustive `match`; see
/// [`encode_sirius_error`]).
pub fn encode_cluster_error(enc: &mut Encoder, e: &ClusterError) {
    match e {
        ClusterError::NoReplicas => {
            enc.u8(0);
        }
        ClusterError::InvalidShardCount { requested } => {
            enc.u8(1).u32(*requested);
        }
        ClusterError::Replica { replica, source } => {
            enc.u8(2).u64(*replica as u64);
            encode_sirius_error(enc, source);
        }
    }
}

/// Decodes one [`ClusterError`]; the inverse of [`encode_cluster_error`].
///
/// # Errors
///
/// [`DecodeError`] on an unknown discriminant or malformed field.
pub fn decode_cluster_error(dec: &mut Decoder) -> Result<ClusterError, DecodeError> {
    Ok(match dec.u8()? {
        0 => ClusterError::NoReplicas,
        1 => ClusterError::InvalidShardCount {
            requested: dec.u32()?,
        },
        2 => ClusterError::Replica {
            replica: decode_usize(dec)?,
            source: decode_sirius_error(dec)?,
        },
        other => {
            return Err(DecodeError {
                message: format!("unknown ClusterError discriminant {other}"),
                offset: 0,
            })
        }
    })
}

fn encode_fault(enc: &mut Encoder, fault: &WireFault) {
    match fault {
        WireFault::Protocol { message } => {
            enc.u8(0).str(message);
        }
        WireFault::Cluster(e) => {
            enc.u8(1);
            encode_cluster_error(enc, e);
        }
    }
}

fn decode_fault(dec: &mut Decoder) -> Result<WireFault, DecodeError> {
    Ok(match dec.u8()? {
        0 => WireFault::Protocol {
            message: dec.str()?,
        },
        1 => WireFault::Cluster(decode_cluster_error(dec)?),
        other => {
            return Err(DecodeError {
                message: format!("unknown fault discriminant {other}"),
                offset: 0,
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirius_nlp::qa::QaBreakdown;
    use std::io::Cursor;

    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    fn round_trip(frame: &Frame) -> Frame {
        let bytes = frame.encode();
        match read_frame(&mut Cursor::new(bytes)) {
            FrameRead::Frame(decoded) => decoded,
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn submit_frames_round_trip_with_and_without_images() {
        let plain = Frame::Submit(SubmitFrame {
            tenant_class: String::new(),
            deadline_ns: 0,
            audio: vec![0.25, -1.0, f32::MIN_POSITIVE],
            image: None,
        });
        assert_eq!(round_trip(&plain), plain);

        let image = GrayImage::from_data(3, 2, vec![0.0, 0.5, 1.0, -0.5, 2.0, -2.0]);
        let classed = Frame::Submit(SubmitFrame {
            tenant_class: "premium".into(),
            deadline_ns: 12_345_678,
            audio: vec![0.0; 64],
            image: Some(image),
        });
        assert_eq!(round_trip(&classed), classed);
    }

    #[test]
    fn mismatched_image_dimensions_are_rejected_not_trusted() {
        let mut enc = Encoder::new();
        enc.str("").u64(0).f32_slice(&[0.0]);
        enc.bool(true).u32(1000).u32(1000).f32_slice(&[1.0, 2.0]);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let err = decode_submit(&mut dec).unwrap_err();
        assert!(err.message.contains("disagree"), "{err}");
    }

    #[test]
    fn answers_round_trip_every_outcome_shape() {
        let timing = StageTiming {
            asr: AsrTiming {
                feature_extraction: Duration::from_nanos(1),
                scoring: Duration::from_micros(2),
                search: Duration::from_millis(3),
                total: Duration::from_secs(4),
            },
            classify: Duration::from_nanos(5),
            qa: Some(QaBreakdown {
                stemmer: Duration::from_nanos(6),
                regex: Duration::from_nanos(7),
                crf: Duration::from_nanos(8),
                search: Duration::from_nanos(9),
                filtering: Duration::from_nanos(10),
                total: Duration::from_nanos(11),
                filter_hits: 12,
                docs_considered: 13,
                regex_ops: 14,
            }),
            imm: Some(ImmTiming {
                feature_extraction: Duration::from_nanos(15),
                feature_description: Duration::from_nanos(16),
                ann_search: Duration::from_nanos(17),
                total: Duration::from_nanos(18),
            }),
            total: Duration::MAX,
        };
        let shapes = [
            SiriusResponse {
                recognized: "set my alarm for seven".into(),
                outcome: SiriusOutcome::Action(DeviceAction {
                    action: "alarm".into(),
                    command: "set my alarm for seven".into(),
                }),
                matched_venue: None,
                timing: timing.clone(),
            },
            SiriusResponse {
                recognized: "what is the tallest mountain".into(),
                outcome: SiriusOutcome::Answer(Some("everest".into())),
                matched_venue: Some("city hall".into()),
                timing: timing.clone(),
            },
            SiriusResponse {
                recognized: "unanswerable".into(),
                outcome: SiriusOutcome::Answer(None),
                matched_venue: None,
                timing,
            },
        ];
        for response in shapes {
            let frame = Frame::Answer(Box::new(response));
            assert_eq!(round_trip(&frame), frame);
        }
    }

    /// Every variant constructed here comes from an exhaustive `match` over
    /// the enum, mirroring the one in `encode_sirius_error`: adding a
    /// variant to `SiriusError` (or `ClusterError`) without extending both
    /// the wire mapping and this census fails to compile.
    fn every_sirius_error() -> Vec<SiriusError> {
        let witness = |e: SiriusError| -> SiriusError {
            // Compile-time exhaustiveness: a new variant lands in this
            // match unmapped and rustc rejects the build.
            match &e {
                SiriusError::Overloaded { .. }
                | SiriusError::ShuttingDown
                | SiriusError::VenueOutOfRange { .. }
                | SiriusError::StagePanicked { .. }
                | SiriusError::Timeout { .. }
                | SiriusError::InvalidAudio { .. }
                | SiriusError::DeadlineUnmeetable { .. }
                | SiriusError::UnknownTenantClass { .. } => e,
            }
        };
        vec![
            witness(SiriusError::Overloaded { stage: "asr" }),
            witness(SiriusError::ShuttingDown),
            witness(SiriusError::VenueOutOfRange {
                image_id: 77,
                venues: 12,
            }),
            witness(SiriusError::StagePanicked { stage: "qa" }),
            witness(SiriusError::Timeout {
                waited: Duration::new(3, 999_999_999),
            }),
            witness(SiriusError::InvalidAudio {
                reason: "non-finite sample at index 11".into(),
            }),
            witness(SiriusError::DeadlineUnmeetable {
                expected: Duration::from_millis(90),
                deadline: Duration::from_millis(40),
                retry_after: Duration::from_millis(50),
            }),
            witness(SiriusError::UnknownTenantClass {
                class: "platinum".into(),
            }),
        ]
    }

    #[test]
    fn every_sirius_error_variant_round_trips_losslessly() {
        for error in every_sirius_error() {
            let mut enc = Encoder::new();
            encode_sirius_error(&mut enc, &error);
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            assert_eq!(decode_sirius_error(&mut dec).unwrap(), error);
            dec.finish().unwrap();
        }
    }

    #[test]
    fn every_cluster_error_variant_round_trips_losslessly() {
        let witness = |e: ClusterError| -> ClusterError {
            match &e {
                ClusterError::NoReplicas
                | ClusterError::InvalidShardCount { .. }
                | ClusterError::Replica { .. } => e,
            }
        };
        let mut cases = vec![
            witness(ClusterError::NoReplicas),
            witness(ClusterError::InvalidShardCount { requested: 0 }),
        ];
        // Replica wraps *every* SiriusError variant — retry_after hints and
        // stage names must survive the extra nesting level too.
        cases.extend(
            every_sirius_error()
                .into_iter()
                .map(|source| witness(ClusterError::Replica { replica: 3, source })),
        );
        for error in cases {
            let mut enc = Encoder::new();
            encode_cluster_error(&mut enc, &error);
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            assert_eq!(decode_cluster_error(&mut dec).unwrap(), error);
            dec.finish().unwrap();
        }
        for fault in [
            WireFault::Protocol {
                message: "bad magic".into(),
            },
            WireFault::Cluster(ClusterError::Replica {
                replica: 1,
                source: SiriusError::DeadlineUnmeetable {
                    expected: Duration::from_millis(9),
                    deadline: Duration::from_millis(4),
                    retry_after: Duration::from_millis(5),
                },
            }),
        ] {
            let frame = Frame::Error(fault);
            assert_eq!(round_trip(&frame), frame);
        }
    }

    #[test]
    fn header_violations_are_malformed_not_io() {
        // Bad magic.
        let mut bytes = Frame::Submit(SubmitFrame {
            tenant_class: String::new(),
            deadline_ns: 0,
            audio: vec![0.0],
            image: None,
        })
        .encode();
        bytes[0] = b'X';
        assert!(matches!(
            read_frame(&mut Cursor::new(bytes.clone())),
            FrameRead::Malformed(m) if m.contains("magic")
        ));
        // Wrong version.
        bytes[0] = b'S';
        bytes[4] = 9;
        assert!(matches!(
            read_frame(&mut Cursor::new(bytes.clone())),
            FrameRead::Malformed(m) if m.contains("version")
        ));
        // Unknown type.
        bytes[4] = PROTOCOL_VERSION;
        bytes[5] = 0x7f;
        assert!(matches!(
            read_frame(&mut Cursor::new(bytes.clone())),
            FrameRead::Malformed(m) if m.contains("type")
        ));
        // Oversize body claim: rejected before any allocation.
        bytes[5] = TYPE_SUBMIT;
        bytes[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(bytes.clone())),
            FrameRead::Malformed(m) if m.contains("limit")
        ));
        // Truncated header: the connection died, nothing to answer.
        assert!(matches!(
            read_frame(&mut Cursor::new(bytes[..6].to_vec())),
            FrameRead::Io(_)
        ));
        // Empty stream: clean close.
        assert!(matches!(
            read_frame(&mut Cursor::new(Vec::new())),
            FrameRead::Closed
        ));
    }

    #[test]
    fn random_bytes_never_panic_the_frame_reader() {
        let mut rng = Mix(0x5eed_0f0f);
        for case in 0..512 {
            let len = (rng.next() % 160) as usize;
            let mut bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
            // Half the cases wear a valid header so the body decoders are
            // exercised, not just the magic check.
            if case % 2 == 0 && bytes.len() >= HEADER_LEN {
                bytes[..4].copy_from_slice(&MAGIC);
                bytes[4] = PROTOCOL_VERSION;
                bytes[5] = [TYPE_SUBMIT, TYPE_ANSWER, TYPE_ERROR][case % 3];
                let body_len = (bytes.len() - HEADER_LEN) as u32;
                bytes[6..10].copy_from_slice(&body_len.to_le_bytes());
            }
            // Whatever comes back, it is a value — never a panic.
            let _ = read_frame(&mut Cursor::new(bytes));
        }
    }
}
