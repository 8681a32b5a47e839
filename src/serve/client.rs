//! The gateway's client codec: a blocking `std::net` client for the
//! [`proto`](super::proto) frame protocol served by
//! [`TcpGateway`](super::TcpGateway).
//!
//! [`GatewayClient`] drives one session over one TCP connection: handshake
//! ([`GatewayClient::connect`] / [`GatewayClient::resume`]), chunked
//! sample upload ([`GatewayClient::send_samples`], which also drains any
//! [`GestureEvent`] frames the server has pushed), and the closing
//! exchange ([`GatewayClient::finish`] for the summary,
//! [`GatewayClient::bye`] to detach with resume state kept server-side).
//!
//! Every server [`Frame::Error`] surfaces as a typed
//! [`GatewayError::Server`], every codec violation as
//! [`GatewayError::Proto`] — the client never panics on hostile bytes.

use super::proto::{encode_frame, ErrorCode, Frame, FrameDecoder, ProtoError};
use super::stream::GestureEvent;
use super::trace::StageSummary;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Errors surfaced by the gateway client.
#[derive(Debug)]
pub enum GatewayError {
    /// The TCP connection failed.
    Io(std::io::Error),
    /// The server's byte stream violated the wire protocol.
    Proto(ProtoError),
    /// The server reported a typed failure frame.
    Server {
        /// The wire error code.
        code: ErrorCode,
        /// The server's human-readable detail.
        message: String,
    },
    /// The server sent a well-formed frame that is invalid at this point
    /// of the session (e.g. a second `HelloAck`).
    UnexpectedFrame(String),
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::Io(e) => write!(f, "gateway i/o error: {e}"),
            GatewayError::Proto(e) => write!(f, "gateway protocol error: {e}"),
            GatewayError::Server { code, message } => {
                write!(f, "server error {code:?}: {message}")
            }
            GatewayError::UnexpectedFrame(what) => write!(f, "unexpected frame: {what}"),
        }
    }
}

impl std::error::Error for GatewayError {}

impl From<std::io::Error> for GatewayError {
    fn from(e: std::io::Error) -> Self {
        GatewayError::Io(e)
    }
}

impl From<ProtoError> for GatewayError {
    fn from(e: ProtoError) -> Self {
        GatewayError::Proto(e)
    }
}

/// The finished stream as seen from the client side of the wire.
#[derive(Debug, Clone)]
pub struct ClientSummary {
    /// Windows decided over the whole logical stream.
    pub windows: u64,
    /// Per-window `(argmax class, top-class confidence)` in window order.
    pub predictions: Vec<(u64, f32)>,
    /// Every gesture event the session emitted, in decision order —
    /// events streamed during upload and events delivered at finish,
    /// combined (no duplicates).
    pub events: Vec<GestureEvent>,
    /// The server's final per-session counters.
    pub stats: ClientSessionStats,
    /// Per-stage decision-latency percentiles for this session, as
    /// reported by the server's [`Frame::Stats`] at finish (all zeros if
    /// the server predates the frame).
    pub stages: StageSummary,
}

/// The [`Frame::SessionStats`] counters, client-side.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClientSessionStats {
    /// Windows decided.
    pub windows: u64,
    /// Sample chunks absorbed.
    pub chunks: u64,
    /// Raw samples absorbed.
    pub samples: u64,
    /// Gesture events emitted.
    pub events: u64,
}

/// One streaming session over one TCP connection to a
/// [`TcpGateway`](super::TcpGateway).
#[derive(Debug)]
pub struct GatewayClient {
    sock: TcpStream,
    decoder: FrameDecoder,
    scratch: Vec<u8>,
    token: u64,
    channels: u16,
    window: u32,
    slide: u32,
    /// Events received so far (drained into the [`ClientSummary`]).
    events: Vec<GestureEvent>,
}

impl GatewayClient {
    /// Opens a new session for `tenant`.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Server`] with [`ErrorCode::PoolFull`] when no slot
    /// is free; I/O and protocol failures as their variants.
    pub fn connect(addr: SocketAddr, tenant: &str) -> Result<Self, GatewayError> {
        Self::open(
            addr,
            Frame::Hello {
                tenant: tenant.to_string(),
                resume: None,
                model: None,
            },
        )
    }

    /// Opens a new session for `tenant` served by a specific model variant
    /// from the server's zoo (wire protocol v2 `Hello.model`).
    ///
    /// # Errors
    ///
    /// Everything [`GatewayClient::connect`] returns, plus
    /// [`GatewayError::Server`] with [`ErrorCode::BadRequest`] for a model
    /// name the server's zoo does not know.
    pub fn connect_with_model(
        addr: SocketAddr,
        tenant: &str,
        model: &str,
    ) -> Result<Self, GatewayError> {
        Self::open(
            addr,
            Frame::Hello {
                tenant: tenant.to_string(),
                resume: None,
                model: Some(model.to_string()),
            },
        )
    }

    /// Reconnects to a suspended session (after a disconnect, a dropped
    /// socket, or an idle-timeout eviction) and continues its stream.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Server`] with [`ErrorCode::UnknownToken`] for an
    /// unknown or expired token.
    pub fn resume(addr: SocketAddr, tenant: &str, token: u64) -> Result<Self, GatewayError> {
        Self::open(
            addr,
            Frame::Hello {
                tenant: tenant.to_string(),
                resume: Some(token),
                // The parked session's model governs on resume.
                model: None,
            },
        )
    }

    fn open(addr: SocketAddr, hello: Frame) -> Result<Self, GatewayError> {
        let sock = TcpStream::connect(addr)?;
        sock.set_nodelay(true)?;
        let mut client = GatewayClient {
            sock,
            decoder: FrameDecoder::new(),
            scratch: Vec::new(),
            token: 0,
            channels: 0,
            window: 0,
            slide: 0,
            events: Vec::new(),
        };
        client.write_frame(&hello)?;
        match client.read_frame(Some(Duration::from_secs(10)))? {
            Frame::HelloAck {
                token,
                channels,
                window,
                slide,
            } => {
                client.token = token;
                client.channels = channels;
                client.window = window;
                client.slide = slide;
                Ok(client)
            }
            Frame::Error { code, message } => Err(GatewayError::Server { code, message }),
            other => Err(GatewayError::UnexpectedFrame(format!(
                "expected HelloAck, got {other:?}"
            ))),
        }
    }

    /// The session token — the resume key.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Electrode channels the server expects in the interleaved stream.
    pub fn channels(&self) -> usize {
        self.channels as usize
    }

    /// Window length in frames, as declared by the server.
    pub fn window(&self) -> usize {
        self.window as usize
    }

    /// Frames between consecutive window starts, as declared by the server.
    pub fn slide(&self) -> usize {
        self.slide as usize
    }

    /// Uploads one chunk of raw interleaved samples, then drains any
    /// [`GestureEvent`] frames the server has pushed so far and returns
    /// them (they are also retained for the final [`ClientSummary`]).
    ///
    /// # Errors
    ///
    /// A server [`Frame::Error`] (eviction, engine fault, …) surfaces as
    /// [`GatewayError::Server`].
    pub fn send_samples(&mut self, samples: &[f32]) -> Result<Vec<GestureEvent>, GatewayError> {
        self.write_frame(&Frame::Samples(samples.to_vec()))?;
        let before = self.events.len();
        self.drain_pending()?;
        Ok(self.events[before..].to_vec())
    }

    /// Ends the stream: sends [`Frame::Finish`] and reads the closing
    /// exchange (remaining events, summary, stats).
    ///
    /// # Errors
    ///
    /// Server failures as [`GatewayError::Server`]; a connection that dies
    /// before the full closing exchange as [`GatewayError::Io`] /
    /// [`GatewayError::Proto`].
    pub fn finish(mut self) -> Result<ClientSummary, GatewayError> {
        self.write_frame(&Frame::Finish)?;
        let mut summary: Option<(u64, Vec<(u64, f32)>)> = None;
        let mut stages = StageSummary::default();
        loop {
            match self.read_frame(Some(Duration::from_secs(30)))? {
                Frame::Event(event) => self.events.push(event),
                Frame::Summary {
                    windows,
                    predictions,
                } => summary = Some((windows, predictions)),
                Frame::Stats(s) => stages = s,
                Frame::SessionStats {
                    windows,
                    chunks,
                    samples,
                    events,
                } => {
                    let (total_windows, predictions) = summary.ok_or_else(|| {
                        GatewayError::UnexpectedFrame("stats before summary".into())
                    })?;
                    return Ok(ClientSummary {
                        windows: total_windows,
                        predictions,
                        events: self.events,
                        stats: ClientSessionStats {
                            windows,
                            chunks,
                            samples,
                            events,
                        },
                        stages,
                    });
                }
                Frame::Error { code, message } => {
                    return Err(GatewayError::Server { code, message })
                }
                other => {
                    return Err(GatewayError::UnexpectedFrame(format!(
                        "unexpected frame in finish exchange: {other:?}"
                    )))
                }
            }
        }
    }

    /// Detaches without finishing: the server parks the session's state
    /// under [`GatewayClient::token`] for a later
    /// [`GatewayClient::resume`]. Reads until the server closes the
    /// connection, so every event it streamed before parking is in the
    /// returned list; whatever it had not streamed yet travels server-side
    /// with the checkpoint and is delivered after the resume — between the
    /// two, no event is lost or repeated.
    ///
    /// # Errors
    ///
    /// I/O failures writing the bye frame; a server error frame.
    pub fn bye(mut self) -> Result<(u64, Vec<GestureEvent>), GatewayError> {
        self.write_frame(&Frame::Bye)?;
        loop {
            match self.read_frame(Some(Duration::from_secs(10))) {
                Ok(Frame::Event(event)) => self.events.push(event),
                Ok(Frame::Error { code, message }) => {
                    return Err(GatewayError::Server { code, message })
                }
                Ok(other) => {
                    return Err(GatewayError::UnexpectedFrame(format!(
                        "unexpected frame after bye: {other:?}"
                    )))
                }
                // The server's goodbye is closing the connection.
                Err(GatewayError::Io(e))
                    if !matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok((self.token, self.events))
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The events received so far, in decision order.
    pub fn events(&self) -> &[GestureEvent] {
        &self.events
    }

    fn write_frame(&mut self, frame: &Frame) -> Result<(), GatewayError> {
        self.scratch.clear();
        encode_frame(frame, &mut self.scratch)?;
        self.sock.write_all(&self.scratch)?;
        Ok(())
    }

    /// Reads one frame, blocking up to `timeout` (`None` = indefinitely).
    fn read_frame(&mut self, timeout: Option<Duration>) -> Result<Frame, GatewayError> {
        self.sock.set_read_timeout(timeout)?;
        let mut buf = [0u8; 16 * 1024];
        loop {
            if let Some(frame) = self.decoder.next_frame()? {
                return Ok(frame);
            }
            match self.sock.read(&mut buf) {
                Ok(0) => {
                    self.decoder.check_eof()?;
                    return Err(GatewayError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed before the expected frame",
                    )));
                }
                Ok(n) => self.decoder.feed(&buf[..n]),
                Err(e) => return Err(GatewayError::Io(e)),
            }
        }
    }

    /// Non-blocking drain of whatever the server has already pushed:
    /// event frames are retained; an error frame fails the session.
    fn drain_pending(&mut self) -> Result<(), GatewayError> {
        self.sock.set_nonblocking(true)?;
        let mut buf = [0u8; 16 * 1024];
        let drained = loop {
            match self.sock.read(&mut buf) {
                Ok(0) => break Ok(()),
                Ok(n) => self.decoder.feed(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        self.sock.set_nonblocking(false)?;
        drained?;
        while let Some(frame) = self.decoder.next_frame()? {
            match frame {
                Frame::Event(event) => self.events.push(event),
                Frame::Error { code, message } => {
                    return Err(GatewayError::Server { code, message })
                }
                other => {
                    return Err(GatewayError::UnexpectedFrame(format!(
                        "unexpected mid-stream frame: {other:?}"
                    )))
                }
            }
        }
        Ok(())
    }
}
