//! The gateway wire protocol: a hand-rolled, versioned, length-prefixed
//! binary framing for streaming sEMG over a byte stream (TCP).
//!
//! Design constraints, in order:
//!
//! 1. **No deps** — `std` only, every field hand-serialized little-endian.
//! 2. **A malicious or broken peer must never panic the decoder.** Every
//!    parse failure is a typed [`ProtoError`]; truncated input is simply
//!    "not enough bytes yet"; garbage and oversized frames are rejected
//!    before any allocation proportional to the claimed length beyond the
//!    hard [`MAX_FRAME`] cap.
//! 3. **Chunking-independence** — [`FrameDecoder`] is incremental: bytes
//!    may arrive split at any boundary (mid-magic, mid-length, mid-payload)
//!    and frames decode identically. `tests/serving_gateway.rs` proptests
//!    encode→decode identity under arbitrary splits.
//!
//! # Frame layout
//!
//! ```text
//! ┌──────┬──────┬─────────────┬─────┬──────┬────────────────┐
//! │ 0xB1 │ 0x05 │ LEN u32 LE  │ VER │ TYPE │ PAYLOAD        │
//! ├──────┴──────┼─────────────┼─────┼──────┼────────────────┤
//! │ magic (2 B) │ bytes after │ 1 B │ 1 B  │ LEN − 2 bytes  │
//! │             │ this field  │     │      │                │
//! └─────────────┴─────────────┴─────┴──────┴────────────────┘
//! ```
//!
//! `LEN` counts the version byte, the type byte and the payload, so a
//! decoder can skip to the next frame boundary without understanding the
//! frame type. `LEN < 2` and `LEN > `[`MAX_FRAME`] are protocol errors.
//!
//! # Frame types
//!
//! Client → server: [`Frame::Hello`] (open or resume a session),
//! [`Frame::Samples`] (one chunk of interleaved f32 samples),
//! [`Frame::Finish`] (close the stream and request the summary),
//! [`Frame::Bye`] (detach, keeping server-side resume state).
//!
//! Server → client: [`Frame::HelloAck`] (session token + stream shape),
//! [`Frame::Event`] (one debounced [`GestureEvent`]), [`Frame::Summary`]
//! (per-window predictions at finish), [`Frame::Stats`] (per-stage
//! decision-latency percentiles), [`Frame::SessionStats`] (final
//! per-session counters), [`Frame::Error`] (typed failure).

use super::stream::GestureEvent;
use super::trace::{StageStats, StageSummary};
use std::time::Duration;

/// The two magic bytes every frame starts with. Chosen to be invalid
/// UTF-8 ASCII so accidental text traffic fails fast.
pub const MAGIC: [u8; 2] = [0xB1, 0x05];

/// The protocol version this build speaks (and writes on every frame).
///
/// History:
/// * **1** — initial framing.
/// * **2** — [`Frame::Hello`] carries an optional model name, selecting
///   which model-zoo entry serves the session. A v1 Hello (no model field)
///   still decodes — the model defaults to the server's incumbent — so old
///   clients keep working against new servers.
pub const VERSION: u8 = 2;

/// The oldest protocol version this build still decodes.
pub const MIN_VERSION: u8 = 1;

/// Hard cap on `LEN` (version + type + payload, in bytes): 1 MiB, i.e.
/// ~262k samples per chunk — far beyond any sane DMA burst. Frames
/// claiming more are rejected with [`ProtoError::Oversized`] **before**
/// the decoder waits for (or allocates) the claimed bytes.
pub const MAX_FRAME: usize = 1 << 20;

/// Bytes before the version byte: magic (2) + length (4).
const PRELUDE: usize = 6;

/// Typed error codes carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Malformed request at the session layer (bad shape, bad config).
    BadRequest = 1,
    /// The session pool has no free slot.
    PoolFull = 2,
    /// The resume token is unknown or its checkpoint expired.
    UnknownToken = 3,
    /// The session was evicted by the idle timeout (resume to continue).
    Evicted = 4,
    /// The peer violated the wire protocol (bad frame, wrong sequence).
    Protocol = 5,
    /// The server failed internally while serving the session.
    Internal = 6,
    /// The server is shutting down.
    ShuttingDown = 7,
}

impl ErrorCode {
    /// Decodes a wire byte into a code.
    pub fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::BadRequest,
            2 => ErrorCode::PoolFull,
            3 => ErrorCode::UnknownToken,
            4 => ErrorCode::Evicted,
            5 => ErrorCode::Protocol,
            6 => ErrorCode::Internal,
            7 => ErrorCode::ShuttingDown,
            _ => return None,
        })
    }
}

/// One protocol frame, either direction.
///
/// `class`/`window`/`held` ride as u64 on the wire, so any in-process
/// `usize` value round-trips regardless of platform width.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: open a session for `tenant`, or — when `resume`
    /// carries a token from a previous [`Frame::HelloAck`] — reconnect to
    /// a suspended session and continue its stream.
    Hello {
        /// The tenant this session belongs to (stats are rolled up per
        /// tenant).
        tenant: String,
        /// Resume token of a suspended session, if reconnecting.
        resume: Option<u64>,
        /// Model-zoo entry to serve this session (v2+). `None` — and every
        /// v1 Hello — selects the server's default (incumbent) model. An
        /// unknown name is answered with a typed [`Frame::Error`]
        /// ([`ErrorCode::BadRequest`]), never a panic.
        model: Option<String>,
    },
    /// Client → server: one chunk of raw `[channels]`-interleaved samples
    /// (any length, frame-splitting allowed — windowing is server-side).
    Samples(Vec<f32>),
    /// Client → server: end of stream; the server replies with the
    /// remaining [`Frame::Event`]s, one [`Frame::Summary`] and one
    /// [`Frame::SessionStats`], then closes.
    Finish,
    /// Client → server: detach without finishing. The server checkpoints
    /// the session for later resume and frees the connection.
    Bye,
    /// Server → client: the session is open.
    HelloAck {
        /// Token identifying the session for reconnects.
        token: u64,
        /// Electrode channels the server expects in the interleaved stream.
        channels: u16,
        /// Window length in frames.
        window: u32,
        /// Frames between consecutive window starts.
        slide: u32,
    },
    /// Server → client: one debounced gesture decision.
    Event(GestureEvent),
    /// Server → client: the finished stream's per-window results.
    Summary {
        /// Windows decided over the whole logical stream (reconnects
        /// included).
        windows: u64,
        /// Per-window `(argmax class, top-class confidence)`, window order.
        predictions: Vec<(u64, f32)>,
    },
    /// Server → client: the finished session's per-stage decision-latency
    /// percentiles (buffering / queueing / compute / smoothing, each with
    /// trace count and p50/p95/p99 in nanoseconds on the wire). Sent
    /// between [`Frame::Summary`] and [`Frame::SessionStats`].
    Stats(StageSummary),
    /// Server → client: final per-session counters.
    SessionStats {
        /// Windows decided.
        windows: u64,
        /// Sample chunks absorbed.
        chunks: u64,
        /// Raw samples absorbed.
        samples: u64,
        /// Gesture events emitted.
        events: u64,
    },
    /// Server → client: a typed failure. The connection closes after an
    /// error frame.
    Error {
        /// What went wrong, as a stable wire code.
        code: ErrorCode,
        /// Human-readable detail (best-effort, may be empty).
        message: String,
    },
}

impl Frame {
    /// The frame's wire type byte.
    fn type_byte(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 0x01,
            Frame::Samples(_) => 0x02,
            Frame::Finish => 0x03,
            Frame::Bye => 0x04,
            Frame::HelloAck { .. } => 0x81,
            Frame::Event(_) => 0x82,
            Frame::Summary { .. } => 0x83,
            Frame::SessionStats { .. } => 0x84,
            Frame::Stats(_) => 0x85,
            Frame::Error { .. } => 0x8F,
        }
    }
}

/// Errors surfaced by the wire codec. Every variant is a *peer* problem —
/// the decoder itself never panics on any input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The stream does not start with [`MAGIC`] — the peer is not speaking
    /// this protocol (or the stream desynchronized).
    BadMagic([u8; 2]),
    /// The frame declares a version this build does not speak.
    UnsupportedVersion(u8),
    /// The frame's type byte is not one this build knows.
    UnknownFrameType(u8),
    /// The frame's declared length exceeds [`MAX_FRAME`].
    Oversized {
        /// The declared length.
        len: usize,
    },
    /// The frame's declared length cannot even hold the version and type
    /// bytes (`LEN < 2`).
    Undersized {
        /// The declared length.
        len: usize,
    },
    /// A complete frame's payload failed to parse (truncated fields,
    /// trailing bytes, invalid values) — the frame type is reported so the
    /// peer can be told what it got wrong.
    Malformed {
        /// The offending frame's type byte.
        frame: u8,
        /// What failed.
        why: String,
    },
    /// The byte stream ended (EOF) in the middle of a frame.
    TruncatedStream {
        /// Bytes of the partial frame that were buffered at EOF.
        have: usize,
    },
    /// An encodable value was out of the wire format's range (e.g. a
    /// tenant name longer than `u16::MAX` bytes).
    Unencodable(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::BadMagic(got) => {
                write!(f, "bad magic {got:02x?}, expected {MAGIC:02x?}")
            }
            ProtoError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (this build speaks {MIN_VERSION}..={VERSION})"
                )
            }
            ProtoError::UnknownFrameType(t) => write!(f, "unknown frame type 0x{t:02x}"),
            ProtoError::Oversized { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME}-byte cap")
            }
            ProtoError::Undersized { len } => {
                write!(
                    f,
                    "frame length {len} cannot hold the version and type bytes"
                )
            }
            ProtoError::Malformed { frame, why } => {
                write!(f, "malformed frame 0x{frame:02x}: {why}")
            }
            ProtoError::TruncatedStream { have } => {
                write!(f, "stream ended mid-frame with {have} buffered bytes")
            }
            ProtoError::Unencodable(why) => write!(f, "unencodable frame: {why}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Encodes one frame, appending its bytes to `out`.
///
/// # Errors
///
/// [`ProtoError::Unencodable`] when a field exceeds its wire width (tenant
/// or error message longer than `u16::MAX` bytes, a samples chunk or
/// summary that would overflow [`MAX_FRAME`]). Never panics.
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) -> Result<(), ProtoError> {
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&[0; 4]); // length, patched below
    out.push(VERSION);
    out.push(frame.type_byte());
    match frame {
        Frame::Hello {
            tenant,
            resume,
            model,
        } => {
            let name = tenant.as_bytes();
            if name.len() > u16::MAX as usize {
                return Err(ProtoError::Unencodable(format!(
                    "tenant name is {} bytes, max {}",
                    name.len(),
                    u16::MAX
                )));
            }
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name);
            match resume {
                None => out.push(0),
                Some(token) => {
                    out.push(1);
                    out.extend_from_slice(&token.to_le_bytes());
                }
            }
            // v2 field: model selector.
            match model {
                None => out.push(0),
                Some(m) => {
                    let m = m.as_bytes();
                    if m.len() > u16::MAX as usize {
                        return Err(ProtoError::Unencodable(format!(
                            "model name is {} bytes, max {}",
                            m.len(),
                            u16::MAX
                        )));
                    }
                    out.push(1);
                    out.extend_from_slice(&(m.len() as u16).to_le_bytes());
                    out.extend_from_slice(m);
                }
            }
        }
        Frame::Samples(samples) => {
            out.extend_from_slice(&(samples.len() as u32).to_le_bytes());
            for s in samples {
                out.extend_from_slice(&s.to_le_bytes());
            }
        }
        Frame::Finish | Frame::Bye => {}
        Frame::HelloAck {
            token,
            channels,
            window,
            slide,
        } => {
            out.extend_from_slice(&token.to_le_bytes());
            out.extend_from_slice(&channels.to_le_bytes());
            out.extend_from_slice(&window.to_le_bytes());
            out.extend_from_slice(&slide.to_le_bytes());
        }
        Frame::Event(event) => match *event {
            GestureEvent::Started {
                class,
                window,
                confidence,
            } => {
                out.push(0);
                out.extend_from_slice(&(class as u64).to_le_bytes());
                out.extend_from_slice(&(window as u64).to_le_bytes());
                out.extend_from_slice(&confidence.to_le_bytes());
            }
            GestureEvent::Ended {
                class,
                window,
                held,
            } => {
                out.push(1);
                out.extend_from_slice(&(class as u64).to_le_bytes());
                out.extend_from_slice(&(window as u64).to_le_bytes());
                out.extend_from_slice(&(held as u64).to_le_bytes());
            }
        },
        Frame::Summary {
            windows,
            predictions,
        } => {
            out.extend_from_slice(&windows.to_le_bytes());
            out.extend_from_slice(&(predictions.len() as u32).to_le_bytes());
            for (class, conf) in predictions {
                out.extend_from_slice(&class.to_le_bytes());
                out.extend_from_slice(&conf.to_le_bytes());
            }
        }
        Frame::SessionStats {
            windows,
            chunks,
            samples,
            events,
        } => {
            for v in [windows, chunks, samples, events] {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        Frame::Stats(stages) => {
            // Durations ride as u64 nanoseconds (saturating); 4 stages ×
            // (count, p50, p95, p99) = a fixed 128-byte payload.
            let nanos = |d: Duration| d.as_nanos().min(u64::MAX as u128) as u64;
            for (_, s) in stages.stages() {
                out.extend_from_slice(&s.count.to_le_bytes());
                for p in [s.p50, s.p95, s.p99] {
                    out.extend_from_slice(&nanos(p).to_le_bytes());
                }
            }
        }
        Frame::Error { code, message } => {
            let msg = message.as_bytes();
            if msg.len() > u16::MAX as usize {
                return Err(ProtoError::Unencodable(format!(
                    "error message is {} bytes, max {}",
                    msg.len(),
                    u16::MAX
                )));
            }
            out.push(*code as u8);
            out.extend_from_slice(&(msg.len() as u16).to_le_bytes());
            out.extend_from_slice(msg);
        }
    }
    let len = out.len() - start - PRELUDE;
    if len > MAX_FRAME {
        out.truncate(start);
        return Err(ProtoError::Unencodable(format!(
            "frame body is {len} bytes, max {MAX_FRAME}"
        )));
    }
    out[start + 2..start + PRELUDE].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

/// Bounds-checked little-endian payload reader; every overrun is a typed
/// [`ProtoError::Malformed`], never a panic or a slice-index abort.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
    frame: u8,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8], frame: u8) -> Self {
        Reader {
            bytes,
            at: 0,
            frame,
        }
    }

    fn fail(&self, why: impl Into<String>) -> ProtoError {
        ProtoError::Malformed {
            frame: self.frame,
            why: why.into(),
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], ProtoError> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.at..end];
                self.at = end;
                Ok(s)
            }
            None => Err(self.fail(format!(
                "payload truncated reading {what}: need {n} bytes at offset {}, have {}",
                self.at,
                self.bytes.len()
            ))),
        }
    }

    fn u8(&mut self, what: &str) -> Result<u8, ProtoError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    fn u32(&mut self, what: &str) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn f32(&mut self, what: &str) -> Result<f32, ProtoError> {
        Ok(f32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// Rejects trailing bytes: a well-formed peer never pads payloads, so
    /// extra bytes mean a desynchronized or corrupted stream.
    fn done(self) -> Result<(), ProtoError> {
        if self.at != self.bytes.len() {
            let trailing = self.bytes.len() - self.at;
            return Err(self.fail(format!("{trailing} trailing payload bytes")));
        }
        Ok(())
    }
}

/// Parses one complete frame body (`version` and `type` already split
/// off). `version` is the frame's wire version: the only body whose layout
/// it changes is Hello, which grew a model-selector field in v2.
fn decode_body(version: u8, ty: u8, payload: &[u8]) -> Result<Frame, ProtoError> {
    let mut r = Reader::new(payload, ty);
    let frame = match ty {
        0x01 => {
            let n = r.u16("tenant length")? as usize;
            let name = r.take(n, "tenant name")?;
            let tenant = std::str::from_utf8(name)
                .map_err(|_| r.fail("tenant name is not valid UTF-8"))?
                .to_string();
            let resume = match r.u8("resume flag")? {
                0 => None,
                1 => Some(r.u64("resume token")?),
                other => return Err(r.fail(format!("resume flag must be 0 or 1, got {other}"))),
            };
            // v1 Hello ends here (`done()` rejects trailing bytes, so the
            // model field must only be read when the frame declares v2+).
            let model = if version >= 2 {
                match r.u8("model flag")? {
                    0 => None,
                    1 => {
                        let n = r.u16("model length")? as usize;
                        let m = r.take(n, "model name")?;
                        Some(
                            std::str::from_utf8(m)
                                .map_err(|_| r.fail("model name is not valid UTF-8"))?
                                .to_string(),
                        )
                    }
                    other => return Err(r.fail(format!("model flag must be 0 or 1, got {other}"))),
                }
            } else {
                None
            };
            Frame::Hello {
                tenant,
                resume,
                model,
            }
        }
        0x02 => {
            let n = r.u32("sample count")? as usize;
            // The count must agree with the frame length before any
            // allocation: a frame lying about its count is malformed, not
            // an allocation request.
            if n.checked_mul(4) != Some(payload.len().saturating_sub(4)) {
                return Err(r.fail(format!(
                    "sample count {n} disagrees with payload of {} bytes",
                    payload.len()
                )));
            }
            // One read of the checked payload, one allocation.
            let samples = r
                .take(4 * n, "samples")?
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes(b.try_into().unwrap()))
                .collect();
            Frame::Samples(samples)
        }
        0x03 => Frame::Finish,
        0x04 => Frame::Bye,
        0x81 => Frame::HelloAck {
            token: r.u64("token")?,
            channels: r.u16("channels")?,
            window: r.u32("window")?,
            slide: r.u32("slide")?,
        },
        0x82 => {
            let kind = r.u8("event kind")?;
            let class = r.u64("class")? as usize;
            let window = r.u64("window")? as usize;
            match kind {
                0 => Frame::Event(GestureEvent::Started {
                    class,
                    window,
                    confidence: r.f32("confidence")?,
                }),
                1 => Frame::Event(GestureEvent::Ended {
                    class,
                    window,
                    held: r.u64("held")? as usize,
                }),
                other => return Err(r.fail(format!("event kind must be 0 or 1, got {other}"))),
            }
        }
        0x83 => {
            let windows = r.u64("window count")?;
            let n = r.u32("prediction count")? as usize;
            if n.checked_mul(12) != Some(payload.len().saturating_sub(12)) {
                return Err(r.fail(format!(
                    "prediction count {n} disagrees with payload of {} bytes",
                    payload.len()
                )));
            }
            let predictions = r
                .take(12 * n, "predictions")?
                .chunks_exact(12)
                .map(|b| {
                    let class = u64::from_le_bytes(b[..8].try_into().unwrap());
                    (class, f32::from_le_bytes(b[8..].try_into().unwrap()))
                })
                .collect();
            Frame::Summary {
                windows,
                predictions,
            }
        }
        0x84 => Frame::SessionStats {
            windows: r.u64("windows")?,
            chunks: r.u64("chunks")?,
            samples: r.u64("samples")?,
            events: r.u64("events")?,
        },
        0x85 => {
            let mut decoded = [StageStats::default(); 4];
            for (i, s) in decoded.iter_mut().enumerate() {
                let names = ["buffering", "queueing", "compute", "smoothing"];
                s.count = r.u64(&format!("{} count", names[i]))?;
                s.p50 = Duration::from_nanos(r.u64(&format!("{} p50", names[i]))?);
                s.p95 = Duration::from_nanos(r.u64(&format!("{} p95", names[i]))?);
                s.p99 = Duration::from_nanos(r.u64(&format!("{} p99", names[i]))?);
            }
            Frame::Stats(StageSummary {
                buffering: decoded[0],
                queueing: decoded[1],
                compute: decoded[2],
                smoothing: decoded[3],
            })
        }
        0x8F => {
            let code_byte = r.u8("error code")?;
            let code = ErrorCode::from_u8(code_byte)
                .ok_or_else(|| r.fail(format!("unknown error code {code_byte}")))?;
            let n = r.u16("message length")? as usize;
            let msg = r.take(n, "message")?;
            let message = std::str::from_utf8(msg)
                .map_err(|_| r.fail("error message is not valid UTF-8"))?
                .to_string();
            Frame::Error { code, message }
        }
        other => return Err(ProtoError::UnknownFrameType(other)),
    };
    r.done()?;
    Ok(frame)
}

/// Incremental frame decoder: [`FrameDecoder::feed`] bytes as they arrive
/// (split anywhere), [`FrameDecoder::next_frame`] parses complete frames.
///
/// After any `Err` the stream is desynchronized and the connection should
/// be dropped; the decoder keeps returning the same error rather than
/// guessing a resynchronization point.
///
/// ```
/// use bioformers::serve::proto::{encode_frame, Frame, FrameDecoder};
///
/// let mut wire = Vec::new();
/// encode_frame(&Frame::Finish, &mut wire).unwrap();
/// let mut dec = FrameDecoder::new();
/// dec.feed(&wire[..3]); // partial frame: not an error, just "not yet"
/// assert!(dec.next_frame().unwrap().is_none());
/// dec.feed(&wire[3..]);
/// assert_eq!(dec.next_frame().unwrap(), Some(Frame::Finish));
/// ```
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted lazily).
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact the consumed prefix before growing, keeping the buffer
        // proportional to the unparsed remainder rather than the stream.
        if self.pos > 0 && (self.pos >= 4096 || self.pos == self.buf.len()) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Unparsed bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Parses the next complete frame: `Ok(Some(frame))` when one is
    /// buffered, `Ok(None)` when more bytes are needed, `Err` when the
    /// stream is not valid protocol traffic. Never panics, for any input.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, ProtoError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < PRELUDE {
            return Ok(None);
        }
        if avail[..2] != MAGIC {
            return Err(ProtoError::BadMagic([avail[0], avail[1]]));
        }
        let len = u32::from_le_bytes(avail[2..6].try_into().unwrap()) as usize;
        if len < 2 {
            return Err(ProtoError::Undersized { len });
        }
        if len > MAX_FRAME {
            return Err(ProtoError::Oversized { len });
        }
        if avail.len() < PRELUDE + len {
            return Ok(None);
        }
        let version = avail[PRELUDE];
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(ProtoError::UnsupportedVersion(version));
        }
        let ty = avail[PRELUDE + 1];
        let frame = decode_body(version, ty, &avail[PRELUDE + 2..PRELUDE + len])?;
        self.pos += PRELUDE + len;
        Ok(Some(frame))
    }

    /// Call at end of stream (EOF): a partial frame still buffered means
    /// the peer died mid-frame — [`ProtoError::TruncatedStream`].
    pub fn check_eof(&self) -> Result<(), ProtoError> {
        match self.buffered() {
            0 => Ok(()),
            have => Err(ProtoError::TruncatedStream { have }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let mut wire = Vec::new();
        encode_frame(&frame, &mut wire).unwrap();
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert_eq!(dec.next_frame().unwrap(), Some(frame));
        assert!(dec.next_frame().unwrap().is_none());
        dec.check_eof().unwrap();
    }

    #[test]
    fn every_frame_type_round_trips() {
        roundtrip(Frame::Hello {
            tenant: "clinic-7".into(),
            resume: None,
            model: None,
        });
        roundtrip(Frame::Hello {
            tenant: "".into(),
            resume: Some(u64::MAX),
            model: None,
        });
        roundtrip(Frame::Hello {
            tenant: "clinic-7".into(),
            resume: Some(3),
            model: Some("waveformer-fp32".into()),
        });
        roundtrip(Frame::Samples(vec![]));
        roundtrip(Frame::Samples(vec![0.0, -1.5, f32::MIN_POSITIVE, 3e8]));
        roundtrip(Frame::Finish);
        roundtrip(Frame::Bye);
        roundtrip(Frame::HelloAck {
            token: 42,
            channels: 14,
            window: 300,
            slide: 30,
        });
        roundtrip(Frame::Event(GestureEvent::Started {
            class: 3,
            window: 917,
            confidence: 0.75,
        }));
        roundtrip(Frame::Event(GestureEvent::Ended {
            class: 3,
            window: 1024,
            held: 107,
        }));
        roundtrip(Frame::Summary {
            windows: 2,
            predictions: vec![(1, 0.9), (7, 0.4)],
        });
        roundtrip(Frame::SessionStats {
            windows: 1,
            chunks: 2,
            samples: 3,
            events: 4,
        });
        roundtrip(Frame::Stats(StageSummary::default()));
        roundtrip(Frame::Stats(StageSummary {
            buffering: StageStats {
                count: 12,
                p50: Duration::from_millis(15),
                p95: Duration::from_millis(16),
                p99: Duration::from_millis(17),
            },
            queueing: StageStats {
                count: 12,
                p50: Duration::from_micros(800),
                p95: Duration::from_micros(2100),
                p99: Duration::from_micros(2500),
            },
            compute: StageStats {
                count: 12,
                p50: Duration::from_micros(450),
                p95: Duration::from_micros(900),
                p99: Duration::from_micros(950),
            },
            smoothing: StageStats {
                count: 12,
                p50: Duration::from_millis(45),
                p95: Duration::from_millis(90),
                p99: Duration::from_millis(95),
            },
        }));
        roundtrip(Frame::Error {
            code: ErrorCode::Evicted,
            message: "idle 30s".into(),
        });
    }

    #[test]
    fn byte_at_a_time_decoding_matches_whole_buffer() {
        let frames = [
            Frame::Hello {
                tenant: "t".into(),
                resume: Some(9),
                model: Some("bioformer-int8".into()),
            },
            Frame::Samples(vec![1.0; 37]),
            Frame::Finish,
        ];
        let mut wire = Vec::new();
        for f in &frames {
            encode_frame(f, &mut wire).unwrap();
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for &b in &wire {
            dec.feed(&[b]);
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        dec.check_eof().unwrap();
    }

    #[test]
    fn garbage_magic_is_a_typed_error() {
        let mut dec = FrameDecoder::new();
        dec.feed(b"GET / HTTP/1.1\r\n");
        assert_eq!(
            dec.next_frame().unwrap_err(),
            ProtoError::BadMagic([b'G', b'E'])
        );
        // The error is sticky: same bytes, same verdict.
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn oversized_and_undersized_lengths_are_rejected_before_buffering() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC);
        wire.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert_eq!(
            dec.next_frame().unwrap_err(),
            ProtoError::Oversized { len: MAX_FRAME + 1 }
        );

        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC);
        wire.extend_from_slice(&1u32.to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert_eq!(
            dec.next_frame().unwrap_err(),
            ProtoError::Undersized { len: 1 }
        );
    }

    #[test]
    fn truncated_stream_is_reported_at_eof_only() {
        let mut wire = Vec::new();
        encode_frame(&Frame::Samples(vec![1.0, 2.0]), &mut wire).unwrap();
        let mut dec = FrameDecoder::new();
        dec.feed(&wire[..wire.len() - 1]);
        // Mid-stream a partial frame is just "not yet".
        assert!(dec.next_frame().unwrap().is_none());
        assert_eq!(
            dec.check_eof().unwrap_err(),
            ProtoError::TruncatedStream {
                have: wire.len() - 1
            }
        );
    }

    #[test]
    fn wrong_version_and_unknown_type_are_typed_errors() {
        let mut wire = Vec::new();
        encode_frame(&Frame::Finish, &mut wire).unwrap();
        let mut bumped = wire.clone();
        bumped[PRELUDE] = 9;
        let mut dec = FrameDecoder::new();
        dec.feed(&bumped);
        assert_eq!(
            dec.next_frame().unwrap_err(),
            ProtoError::UnsupportedVersion(9)
        );

        let mut unknown = wire.clone();
        unknown[PRELUDE + 1] = 0x7E;
        let mut dec = FrameDecoder::new();
        dec.feed(&unknown);
        assert_eq!(
            dec.next_frame().unwrap_err(),
            ProtoError::UnknownFrameType(0x7E)
        );
    }

    /// Hand-builds a version-1 Hello (tenant + resume flag only — no model
    /// field existed in v1) exactly as a pre-zoo client would send it.
    fn v1_hello_wire(tenant: &str, resume: Option<u64>) -> Vec<u8> {
        let mut body = Vec::new();
        body.push(1u8); // version
        body.push(0x01); // Hello
        body.extend_from_slice(&(tenant.len() as u16).to_le_bytes());
        body.extend_from_slice(tenant.as_bytes());
        match resume {
            None => body.push(0),
            Some(t) => {
                body.push(1);
                body.extend_from_slice(&t.to_le_bytes());
            }
        }
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC);
        wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
        wire.extend_from_slice(&body);
        wire
    }

    #[test]
    fn v1_hello_decodes_to_default_model() {
        for resume in [None, Some(77u64)] {
            let mut dec = FrameDecoder::new();
            dec.feed(&v1_hello_wire("legacy", resume));
            assert_eq!(
                dec.next_frame().unwrap(),
                Some(Frame::Hello {
                    tenant: "legacy".into(),
                    resume,
                    model: None,
                })
            );
            dec.check_eof().unwrap();
        }
    }

    #[test]
    fn v1_hello_with_v2_model_field_is_malformed() {
        // A v1 frame must not smuggle trailing bytes where v2's model field
        // would sit: the version byte governs the layout.
        let mut wire = v1_hello_wire("legacy", None);
        let len = u32::from_le_bytes(wire[2..6].try_into().unwrap()) + 1;
        wire[2..6].copy_from_slice(&len.to_le_bytes());
        wire.push(0); // would be a valid "no model" flag in v2
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert!(matches!(
            dec.next_frame().unwrap_err(),
            ProtoError::Malformed { frame: 0x01, .. }
        ));
    }

    #[test]
    fn truncated_model_field_is_malformed_not_a_panic() {
        let mut wire = Vec::new();
        encode_frame(
            &Frame::Hello {
                tenant: "t".into(),
                resume: None,
                model: Some("bioformer-fp32".into()),
            },
            &mut wire,
        )
        .unwrap();
        // Chop the last 4 bytes of the model name and fix the length.
        wire.truncate(wire.len() - 4);
        let len = u32::from_le_bytes(wire[2..6].try_into().unwrap()) - 4;
        wire[2..6].copy_from_slice(&len.to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert!(matches!(
            dec.next_frame().unwrap_err(),
            ProtoError::Malformed { frame: 0x01, .. }
        ));
    }

    #[test]
    fn lying_sample_count_is_malformed_not_an_allocation() {
        // A Samples frame whose count field claims 2^30 samples but whose
        // body is 8 bytes: must be rejected by the count/length cross-check.
        let mut wire = Vec::new();
        encode_frame(&Frame::Samples(vec![1.0, 2.0]), &mut wire).unwrap();
        wire[PRELUDE + 2..PRELUDE + 6].copy_from_slice(&(1u32 << 30).to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert!(matches!(
            dec.next_frame().unwrap_err(),
            ProtoError::Malformed { frame: 0x02, .. }
        ));
    }

    #[test]
    fn trailing_payload_bytes_are_malformed() {
        let mut wire = Vec::new();
        encode_frame(&Frame::Finish, &mut wire).unwrap();
        // Grow the declared length by one and append a pad byte: the body
        // parser must flag the trailing byte.
        let len = 3u32;
        wire[2..6].copy_from_slice(&len.to_le_bytes());
        wire.push(0xAA);
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert!(matches!(
            dec.next_frame().unwrap_err(),
            ProtoError::Malformed { frame: 0x03, .. }
        ));
    }

    #[test]
    fn oversized_encode_is_rejected_and_rolls_back() {
        let huge = vec![0.0f32; MAX_FRAME / 4 + 2];
        let mut out = vec![0xEE];
        let err = encode_frame(&Frame::Samples(huge), &mut out).unwrap_err();
        assert!(matches!(err, ProtoError::Unencodable(_)));
        assert_eq!(
            out,
            vec![0xEE],
            "failed encode must not leave partial bytes"
        );
    }
}
