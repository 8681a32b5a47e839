//! The system under test. This is the **only** file of the benchmark that
//! names `bioformers::` symbols (and `rand::`, which the layer constructors
//! take): when the program's API changes, this file changes and the
//! harness around it does not. Everything it hands out is plain Rust —
//! slices, vectors, closures and the small structs defined here.

use crate::host::now_ns;
use crate::trace::{Span, SpanLog, NO_PARENT};
use bioformers::core::descriptor::{bioformer_descriptor, temponet_descriptor};
use bioformers::core::protocol::{run_standard, ProtocolConfig};
use bioformers::core::{Bioformer, BioformerConfig, TempoNet};
use bioformers::gap8::deploy::analyze_default;
use bioformers::nn::linear::FusedActivation;
use bioformers::nn::serialize::state_dict;
use bioformers::nn::{Conv1d, LayerNorm, Linear, MultiHeadSelfAttention, TransformerBlock};
use bioformers::quant::ibert::{IGelu, ILayerNorm, ISoftmax};
use bioformers::quant::kernels::qgemm_i32_into;
use bioformers::quant::layers::{QConv1d, QLinear};
use bioformers::quant::{QParams, QuantArena, QuantBioformer};
use bioformers::semg::windowing::{extract_all_into, OnlineWindower};
use bioformers::semg::{DatasetSpec, NinaproDb6, Normalizer};
use bioformers::serve::proto::encode_frame;
use bioformers::serve::stream::confidence;
use bioformers::serve::{
    AsyncEngine, AsyncEngineConfig, DecisionPolicy, DecisionSmoother, Engine, EngineStats, Frame,
    FrameDecoder, GatewayClient, GestureClassifier, GestureEvent, InferenceEngine, PendingResponse,
    RequestOutput, RoutingPolicy, ServeError, SessionHandle, ShardedEngine, StreamConfig,
    StreamServer, StreamServerConfig, StreamSession, TcpGateway,
};
use bioformers::tensor::conv::Conv1dSpec;
use bioformers::tensor::pack::{gemm_packed, Epilogue, PackedB};
use bioformers::tensor::{Tensor, TensorArena};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

pub use bioformers::semg::{CHANNELS, SAMPLE_RATE, WINDOW};

/// Samples in one window, channel-major.
pub const WINDOW_LEN: usize = CHANNELS * WINDOW;
/// Frames between window starts on the streaming path: the paper's 15 ms.
pub const SLIDE: usize = 30;

/// The SIMD tier the program dispatched to on this CPU.
pub fn simd_tier() -> &'static str {
    bioformers::simd::kernels().name
}

/// Which of the two models of a [`Fixture`] serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    Fp32,
    Int8,
}

/// How the serving engine under a workload is put together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// `InferenceEngine` with micro-batch 32: the caller's thread runs the
    /// model.
    Inline,
    /// `AsyncEngine` with one worker.
    Worker,
    /// `ShardedEngine`: two one-worker replicas, latency-aware routing,
    /// no hedging.
    Sharded,
}

/// One continuous `[CHANNELS, frames]` signal, channel-major.
pub struct Signal(Tensor);

impl Signal {
    /// Wraps `data`, which holds `CHANNELS` rows of equal length.
    pub fn new(data: Vec<f32>) -> Signal {
        let frames = data.len() / CHANNELS;
        Signal(Tensor::from_vec(data, &[CHANNELS, frames]))
    }

    pub fn frames(&self) -> usize {
        self.0.dims()[1]
    }

    pub fn data(&self) -> &[f32] {
        self.0.data()
    }
}

/// Everything a workload is built from: the synthetic DB6, the
/// quick-trained bio1 in both precisions and the training normalizer.
pub struct Fixture {
    db: NinaproDb6,
    norm: Normalizer,
    fp32: Arc<Bioformer>,
    int8: Arc<QuantBioformer>,
    /// Held-out accuracy of the fp32 model after the quick training.
    pub accuracy: f32,
}

impl Fixture {
    /// Generates `DatasetSpec::tiny()` from `seed`, trains
    /// `BioformerConfig::bio1()` on subject 0 with the quick protocol and
    /// converts the same weights to int8.
    pub fn build(seed: u64) -> Fixture {
        let db = NinaproDb6::generate(&DatasetSpec {
            seed,
            ..DatasetSpec::tiny()
        });
        let mut model = Bioformer::new(&BioformerConfig::bio1().with_seed(seed));
        let protocol = ProtocolConfig {
            seed,
            ..ProtocolConfig::quick()
        };
        let accuracy = run_standard(&mut model, &db, 0, &protocol).overall;
        let train = db.train_dataset(0);
        let norm = Normalizer::fit(&train);
        let calib = norm.apply(&train);
        let n = calib.len().min(64);
        let calib = Tensor::from_vec(
            calib.x().data()[..n * WINDOW_LEN].to_vec(),
            &[n, CHANNELS, WINDOW],
        );
        let dict = state_dict(&mut model);
        let int8 = QuantBioformer::convert(model.config(), &dict, &calib)
            .expect("the quick-trained bio1 converts to int8");
        Fixture {
            db,
            norm,
            fp32: Arc::new(model),
            int8: Arc::new(int8),
            accuracy,
        }
    }

    fn classifier(&self, precision: Precision) -> Arc<dyn GestureClassifier> {
        match precision {
            Precision::Fp32 => Arc::clone(&self.fp32) as Arc<dyn GestureClassifier>,
            Precision::Int8 => Arc::clone(&self.int8) as Arc<dyn GestureClassifier>,
        }
    }

    /// The model, wrapped in [`Timed`] when the run is traced.
    fn backend(
        &self,
        precision: Precision,
        log: Option<&Arc<SpanLog>>,
        replica: u64,
    ) -> Box<dyn GestureClassifier> {
        let inner = self.classifier(precision);
        match log {
            Some(log) => Box::new(Timed {
                inner,
                log: Arc::clone(log),
                replica,
            }),
            None => Box::new(inner),
        }
    }

    fn engine(
        &self,
        topology: Topology,
        precision: Precision,
        log: Option<&Arc<SpanLog>>,
    ) -> Arc<dyn Engine> {
        let one_worker = AsyncEngineConfig::default().with_workers(1);
        match topology {
            Topology::Inline => {
                Arc::new(InferenceEngine::new(self.backend(precision, log, 0)).with_micro_batch(32))
            }
            Topology::Worker => Arc::new(AsyncEngine::with_config(
                self.backend(precision, log, 0),
                one_worker,
            )),
            Topology::Sharded => Arc::new(
                ShardedEngine::builder()
                    .with_policy(RoutingPolicy::LatencyAware)
                    .with_replica_config(one_worker)
                    .add_replica(self.backend(precision, log, 0))
                    .add_replica(self.backend(precision, log, 1))
                    .build(),
            ),
        }
    }

    /// Every recording of the dataset, subject-major.
    pub fn recordings(&self) -> Vec<Signal> {
        let spec = self.db.spec();
        let mut out = Vec::new();
        for subject in 0..spec.subjects {
            for session in 0..spec.sessions {
                out.push(Signal(self.db.session_signal(subject, session).0));
            }
        }
        out
    }

    /// Frames between window starts in the offline dataset.
    pub fn dataset_slide(&self) -> usize {
        self.db.spec().slide
    }

    /// The normalized held-out windows of every subject, flattened
    /// (`n × WINDOW_LEN`): distinct inputs for the one-window workloads.
    pub fn eval_windows(&self) -> Vec<f32> {
        let mut out = Vec::new();
        for subject in 0..self.db.spec().subjects {
            out.extend_from_slice(self.norm.apply(&self.db.test_dataset(subject)).x().data());
        }
        out
    }

    /// The offline path's windows of a signal: `extract_all_into` at
    /// `slide`, then the training normalizer.
    pub fn offline_windows(&self, signal: &Signal, slide: usize) -> Vec<f32> {
        let mut out = Vec::new();
        extract_all_into(&signal.0, slide, &mut out);
        for window in out.chunks_mut(WINDOW_LEN) {
            self.norm.apply_window(window);
        }
        out
    }

    /// Reference answer: one direct `predict_batch` over `windows`
    /// (`n × WINDOW_LEN`), returning the `n × classes` logits.
    pub fn reference(&self, precision: Precision, windows: Vec<f32>) -> Vec<f32> {
        let n = windows.len() / WINDOW_LEN;
        let batch = Tensor::from_vec(windows, &[n, CHANNELS, WINDOW]);
        self.classifier(precision).predict_batch(&batch).into_vec()
    }

    pub fn classes(&self) -> usize {
        self.fp32.config().classes
    }
}

/// `(argmax, confidence)` of each logit row, as the stream path reports
/// it: the program's own `argmax_rows` (which logit wins a tie is its
/// business) and its own `confidence`.
pub fn decisions(logits: &[f32], classes: usize) -> Vec<(u64, f32)> {
    let rows = Tensor::from_vec(logits.to_vec(), &[logits.len() / classes, classes]);
    rows.argmax_rows()
        .into_iter()
        .enumerate()
        .map(|(i, class)| (class as u64, confidence(rows.row(i), class)))
        .collect()
}

/// The decision policy of the wire workloads: every prediction change is
/// an event, so event latency is not padded by debouncing.
fn wire_policy() -> DecisionPolicy {
    DecisionPolicy {
        vote_depth: 1,
        min_hold: 0,
        confidence_floor: 0.0,
    }
}

/// A gesture event as the benchmark compares and counts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub started: bool,
    pub class: usize,
    pub window: usize,
    /// `Started`: the confidence's bits; `Ended`: windows held.
    pub detail: u64,
}

impl From<&GestureEvent> for Event {
    fn from(e: &GestureEvent) -> Event {
        match *e {
            GestureEvent::Started {
                class,
                window,
                confidence,
            } => Event {
                started: true,
                class,
                window,
                detail: confidence.to_bits() as u64,
            },
            GestureEvent::Ended {
                class,
                window,
                held,
            } => Event {
                started: false,
                class,
                window,
                detail: held as u64,
            },
        }
    }
}

/// The event timeline the wire policy gives for per-window decisions: a
/// `DecisionSmoother` replay, closing `Ended` included.
pub fn replay_events(decisions: &[(u64, f32)]) -> Vec<Event> {
    let mut smoother = DecisionSmoother::new(wire_policy()).expect("the wire policy is valid");
    let mut events = Vec::new();
    for &(class, conf) in decisions {
        smoother.push(class as usize, conf, &mut events);
    }
    smoother.flush(&mut events);
    events.iter().map(Event::from).collect()
}

// ---------------------------------------------------------------------
// Tracing decorators
// ---------------------------------------------------------------------

/// The id the benchmark stamps into a window: the bits of its first sample.
fn window_ids(windows: &Tensor) -> impl Iterator<Item = u64> + '_ {
    windows
        .data()
        .chunks(WINDOW_LEN)
        .map(|w| w[0].to_bits() as u64)
}

/// Records a `backend` span around every call into the wrapped model, and
/// a `backend.window` child per window of the batch.
struct Timed<B> {
    inner: B,
    log: Arc<SpanLog>,
    replica: u64,
}

impl<B: GestureClassifier> Timed<B> {
    fn spanned(&self, windows: &Tensor, call: impl FnOnce() -> Tensor) -> Tensor {
        let start_ns = now_ns();
        let out = call();
        let parent = Span {
            name: "backend",
            start_ns,
            end_ns: now_ns(),
            parent: NO_PARENT,
            request: self.replica,
        };
        self.log
            .record_batch(parent, "backend.window", window_ids(windows));
        out
    }
}

impl<B: GestureClassifier> GestureClassifier for Timed<B> {
    fn predict_batch(&self, windows: &Tensor) -> Tensor {
        self.spanned(windows, || self.inner.predict_batch(windows))
    }

    fn predict_batch_in(&self, windows: &Tensor, arena: &mut TensorArena) -> Tensor {
        self.spanned(windows, || self.inner.predict_batch_in(windows, arena))
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn input_shape(&self) -> Option<(usize, usize)> {
        self.inner.input_shape()
    }
}

/// Records an `engine.submit` span per window handed to the wrapped
/// engine, so the wait between submission and the backend call is visible.
struct TimedEngine {
    inner: Arc<dyn Engine>,
    log: Arc<SpanLog>,
}

impl TimedEngine {
    fn spanned<T>(&self, windows: Tensor, call: impl FnOnce(Tensor) -> T) -> T {
        let ids: Vec<u64> = window_ids(&windows).collect();
        let start_ns = now_ns();
        let out = call(windows);
        let end_ns = now_ns();
        for request in ids {
            self.log.record(Span {
                name: "engine.submit",
                start_ns,
                end_ns,
                parent: NO_PARENT,
                request,
            });
        }
        out
    }
}

impl Engine for TimedEngine {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn backends(&self) -> Vec<String> {
        self.inner.backends()
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn input_shape(&self) -> Option<(usize, usize)> {
        self.inner.input_shape()
    }

    fn submit(&self, windows: Tensor) -> Result<PendingResponse, ServeError> {
        self.spanned(windows, |w| self.inner.submit(w))
    }

    fn try_submit(&self, windows: Tensor) -> Result<PendingResponse, ServeError> {
        self.spanned(windows, |w| self.inner.try_submit(w))
    }

    fn submit_with_deadline(
        &self,
        windows: Tensor,
        ttl: Duration,
    ) -> Result<PendingResponse, ServeError> {
        self.spanned(windows, |w| self.inner.submit_with_deadline(w, ttl))
    }

    fn classify(&self, windows: Tensor) -> Result<RequestOutput, ServeError> {
        self.spanned(windows, |w| self.inner.classify(w))
    }

    fn engine_stats(&self) -> EngineStats {
        self.inner.engine_stats()
    }

    /// The wrapped engine is shared, so it drains when its last handle
    /// drops; the statistics are the live snapshot.
    fn shutdown(self: Box<Self>) -> EngineStats {
        self.inner.engine_stats()
    }
}

// ---------------------------------------------------------------------
// Engines and servers
// ---------------------------------------------------------------------

/// A serving engine called directly, one request at a time.
pub struct Classifier {
    engine: Arc<dyn Engine>,
}

impl Classifier {
    pub fn start(
        fixture: &Fixture,
        topology: Topology,
        precision: Precision,
        log: Option<&Arc<SpanLog>>,
    ) -> Classifier {
        Classifier {
            engine: fixture.engine(topology, precision, log),
        }
    }

    /// Classifies `windows` (`n × WINDOW_LEN`, ownership passes to the
    /// engine as the API demands) and returns the `n × classes` logits.
    pub fn classify(&self, windows: Vec<f32>) -> Result<Vec<f32>, String> {
        let n = windows.len() / WINDOW_LEN;
        let batch = Tensor::from_vec(windows, &[n, CHANNELS, WINDOW]);
        match self.engine.classify(batch) {
            Ok(out) => Ok(out.logits.into_vec()),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// `StreamServer` over an engine, with or without its TCP gateway.
pub struct Server {
    server: Arc<StreamServer>,
    gateway: Option<TcpGateway>,
}

impl Server {
    /// Starts the int8 model behind `topology`, a `StreamServer` with the
    /// DB6 stream shape (15 ms slide, default lookahead) and the
    /// every-change-is-an-event policy, and — if `tcp` — a loopback
    /// `TcpGateway` in front of it.
    pub fn start(
        fixture: &Fixture,
        topology: Topology,
        tcp: bool,
        log: Option<&Arc<SpanLog>>,
    ) -> Server {
        let mut engine = fixture.engine(topology, Precision::Int8, log);
        if let Some(log) = log {
            engine = Arc::new(TimedEngine {
                inner: engine,
                log: Arc::clone(log),
            });
        }
        let stream = StreamConfig::db6()
            .with_slide(SLIDE)
            .with_policy(wire_policy())
            .with_normalizer(fixture.norm.clone());
        let server = Arc::new(
            StreamServer::start(engine, StreamServerConfig::new(stream))
                .expect("the stream server configuration is valid"),
        );
        let gateway = tcp.then(|| {
            TcpGateway::bind(Arc::clone(&server), "127.0.0.1:0").expect("loopback port binds")
        });
        Server { server, gateway }
    }

    /// The gateway's address.
    pub fn addr(&self) -> SocketAddr {
        self.gateway
            .as_ref()
            .expect("server started with tcp")
            .local_addr()
    }

    /// Opens an in-process session, bypassing the wire.
    pub fn connect(&self, tenant: &str) -> Result<Session, String> {
        match self.server.connect(tenant) {
            Ok(handle) => Ok(Session { handle }),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Stops the gateway, then the server, joining their threads.
    pub fn shutdown(mut self) {
        if let Some(gateway) = &mut self.gateway {
            gateway.shutdown();
        }
        self.server.shutdown();
    }
}

/// An in-process `StreamServer` session.
pub struct Session {
    handle: SessionHandle,
}

impl Session {
    pub fn send(&self, samples: &[f32]) -> Result<(), String> {
        self.handle.send(samples).map_err(|e| e.to_string())
    }

    /// Ends the stream; returns the windows decided.
    pub fn finish(self) -> Result<usize, String> {
        match self.handle.finish() {
            Ok(report) => Ok(report.summary.windows),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// The program's own wire client.
pub struct Client {
    inner: GatewayClient,
}

impl Client {
    pub fn connect(addr: SocketAddr, tenant: &str) -> Result<Client, String> {
        match GatewayClient::connect(addr, tenant) {
            Ok(inner) => Ok(Client { inner }),
            Err(e) => Err(e.to_string()),
        }
    }

    pub fn send_samples(&mut self, samples: &[f32]) -> Result<usize, String> {
        match self.inner.send_samples(samples) {
            Ok(events) => Ok(events.len()),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Ends the stream; returns the windows decided.
    pub fn finish(self) -> Result<u64, String> {
        match self.inner.finish() {
            Ok(summary) => Ok(summary.windows),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// A `StreamSession` served inline (lookahead 0): every window of a push
/// is decided before the push returns.
pub struct InlineStream {
    session: StreamSession,
}

impl InlineStream {
    pub fn start(fixture: &Fixture, log: Option<&Arc<SpanLog>>) -> InlineStream {
        let engine = fixture.engine(Topology::Inline, Precision::Int8, log);
        let cfg = StreamConfig::db6()
            .with_slide(SLIDE)
            .with_lookahead(0)
            .with_policy(wire_policy())
            .with_normalizer(fixture.norm.clone());
        InlineStream {
            session: StreamSession::new(engine, cfg).expect("the stream configuration is valid"),
        }
    }

    /// Pushes interleaved samples; returns the events decided.
    pub fn push(&mut self, samples: &[f32]) -> Result<usize, String> {
        match self.session.push_samples(samples) {
            Ok(events) => Ok(events.len()),
            Err(e) => Err(e.to_string()),
        }
    }
}

// ---------------------------------------------------------------------
// The wire protocol, client side
// ---------------------------------------------------------------------

/// A frame the server sent.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    HelloAck {
        channels: usize,
        window: usize,
        slide: usize,
    },
    Event(Event),
    Summary {
        windows: u64,
        predictions: Vec<(u64, f32)>,
    },
    /// The program's own decision-latency medians, in ns: queueing,
    /// compute and smoothing summed (buffering is the window filling up,
    /// which the benchmark's latency excludes as well).
    Stats {
        self_reported_p50_ns: u64,
    },
    SessionStats {
        windows: u64,
        events: u64,
    },
    Error(String),
}

fn encode(frame: &Frame, out: &mut Vec<u8>) {
    out.clear();
    encode_frame(frame, out).expect("benchmark frames fit the protocol");
}

pub fn encode_hello(tenant: &str, out: &mut Vec<u8>) {
    let hello = Frame::Hello {
        tenant: tenant.to_string(),
        resume: None,
        model: None,
    };
    encode(&hello, out);
}

/// Encodes one `Samples` frame. The frame type owns its samples, so the
/// vector is moved in and handed back.
pub fn encode_samples(samples: Vec<f32>, out: &mut Vec<u8>) -> Vec<f32> {
    let frame = Frame::Samples(samples);
    encode(&frame, out);
    match frame {
        Frame::Samples(samples) => samples,
        _ => unreachable!(),
    }
}

pub fn encode_finish(out: &mut Vec<u8>) {
    encode(&Frame::Finish, out);
}

/// Incremental decoder of the server's frames.
pub struct Decoder {
    inner: FrameDecoder,
}

impl Decoder {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Decoder {
        Decoder {
            inner: FrameDecoder::new(),
        }
    }

    pub fn feed(&mut self, bytes: &[u8]) {
        self.inner.feed(bytes);
    }

    /// The next complete frame, if the fed bytes hold one.
    pub fn next(&mut self) -> Result<Option<Reply>, String> {
        let Some(frame) = self.inner.next_frame().map_err(|e| e.to_string())? else {
            return Ok(None);
        };
        Ok(Some(match frame {
            Frame::HelloAck {
                channels,
                window,
                slide,
                ..
            } => Reply::HelloAck {
                channels: channels as usize,
                window: window as usize,
                slide: slide as usize,
            },
            Frame::Event(e) => Reply::Event(Event::from(&e)),
            Frame::Summary {
                windows,
                predictions,
            } => Reply::Summary {
                windows,
                predictions,
            },
            Frame::Stats(s) => Reply::Stats {
                self_reported_p50_ns: (s.queueing.p50 + s.compute.p50 + s.smoothing.p50).as_nanos()
                    as u64,
            },
            Frame::SessionStats {
                windows, events, ..
            } => Reply::SessionStats { windows, events },
            Frame::Error { code, message } => Reply::Error(format!("{code:?}: {message}")),
            other => Reply::Error(format!("client-to-server frame from the server: {other:?}")),
        }))
    }
}

// ---------------------------------------------------------------------
// Layer probes
// ---------------------------------------------------------------------

/// One public function of one layer, ready to be timed: `run` makes one
/// call at bio1 shapes, and the time of a call is divided by `per_call`
/// (e.g. the windows a call handles) to give the metric named `name`.
pub struct Probe {
    pub name: &'static str,
    pub per_call: f64,
    pub run: Box<dyn FnMut()>,
}

fn probe(name: &'static str, per_call: f64, run: impl FnMut() + 'static) -> Probe {
    Probe {
        name,
        per_call,
        run: Box::new(run),
    }
}

/// Deterministic filler in `[-0.5, 0.5)`.
fn noise(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        })
        .collect()
}

fn codes(len: usize, seed: u64) -> Vec<i8> {
    noise(len, seed).iter().map(|v| (v * 254.0) as i8).collect()
}

/// The GEMM probes as `(metric, m, k, n)`, also used for achieved rates.
/// Shapes are bio1's: 31 tokens (30 patches + class token), embed 64,
/// 8 heads × 32, FFN 128, patch conv 14·10 → 64 over 30 positions.
pub const GEMM_PROBES: [(&str, usize, usize, usize); 4] = [
    ("tensor.gemm_qkv_us", 31, 64, 256),
    ("tensor.gemm_wo_us", 31, 256, 64),
    ("tensor.gemm_ffn_us", 31, 64, 128),
    ("tensor.gemm_qkv_b32_us", 32 * 31, 64, 256),
];
pub const QGEMM_PROBES: [(&str, usize, usize, usize); 4] = [
    ("quant.qgemm_qkv_us", 31, 64, 256),
    ("quant.qgemm_wo_us", 31, 256, 64),
    ("quant.qgemm_ffn_us", 31, 64, 128),
    ("quant.qgemm_patch_us", 64, 140, 30),
];

/// A forward of `model` over `windows` through `predict_batch_in` with a
/// worker's recycled arena — the call the engines make.
fn forward_probe(
    name: &'static str,
    model: Arc<dyn GestureClassifier>,
    windows: Vec<f32>,
) -> Probe {
    let n = windows.len() / WINDOW_LEN;
    let batch = Tensor::from_vec(windows, &[n, CHANNELS, WINDOW]);
    let mut arena = TensorArena::new();
    probe(name, 1.0, move || {
        let out = model.predict_batch_in(black_box(&batch), &mut arena);
        black_box(out.data()[0]);
        arena.recycle(out);
    })
}

/// The probes of the `tensor`, `nn`, `quant`, `core`, `semg`, `proto` and
/// `stream` layers. Names are the per-layer metric names.
pub fn probes(fixture: &Fixture) -> Vec<Probe> {
    let mut out = Vec::new();
    let cfg = BioformerConfig::bio1();
    let (seq, embed, inner, hidden) = (cfg.seq_len(), cfg.embed, cfg.inner(), cfg.hidden);

    // tensor: packed fp32 GEMMs as a serving forward issues them.
    for (name, m, k, n) in GEMM_PROBES {
        let a = noise(m * k, 1);
        let packed = PackedB::from_b_t(&noise(n * k, 2), n, k);
        let mut c = vec![0.0f32; m * n];
        out.push(probe(name, 1.0, move || {
            gemm_packed(
                black_box(&a),
                m,
                k,
                packed.as_slice(),
                n,
                &mut c,
                Epilogue::None,
            );
            black_box(c[0]);
        }));
    }

    // quant: int8 GEMMs through the dispatched kernel.
    for (name, m, k, n) in QGEMM_PROBES {
        let (a, b) = (codes(m * k, 1), codes(n * k, 2));
        let mut c = vec![0i32; m * n];
        out.push(probe(name, 1.0, move || {
            qgemm_i32_into(black_box(&a), &b, None, m, k, n, &mut c);
            black_box(c[0]);
        }));
    }

    // nn: standalone fp32 layers at bio1 shapes, arena-threaded.
    let mut rng = StdRng::seed_from_u64(7);
    let window = Tensor::from_vec(noise(WINDOW_LEN, 3), &[1, CHANNELS, WINDOW]);
    let tokens = Tensor::from_vec(noise(seq * embed, 4), &[1, seq, embed]);
    let rows = Tensor::from_vec(noise(seq * embed, 5), &[seq, embed]);
    let patch = Conv1d::new(
        "patch",
        CHANNELS,
        embed,
        cfg.filter,
        Conv1dSpec::patch(cfg.filter),
        &mut rng,
    );
    let mut arena = TensorArena::new();
    out.push(probe("nn.patch_conv_us", 1.0, move || {
        let y = patch.forward_infer_in(black_box(&window), &mut arena);
        arena.recycle(y);
    }));
    let attention = MultiHeadSelfAttention::new("attn", embed, cfg.heads, cfg.head_dim, &mut rng);
    let (x, mut arena) = (tokens.clone(), TensorArena::new());
    out.push(probe("nn.attention_us", 1.0, move || {
        let y = attention.forward_infer_in(black_box(&x), &mut arena);
        arena.recycle(y);
    }));
    let fc1 = Linear::new("fc1", embed, hidden, &mut rng);
    let fc2 = Linear::new("fc2", hidden, embed, &mut rng);
    let (x, mut arena) = (rows.clone(), TensorArena::new());
    out.push(probe("nn.ffn_us", 1.0, move || {
        let h = fc1.forward_infer_in(black_box(&x), FusedActivation::Gelu, &mut arena);
        let y = fc2.forward_infer_in(&h, FusedActivation::None, &mut arena);
        arena.recycle(h);
        arena.recycle(y);
    }));
    let block = TransformerBlock::new(
        "block",
        embed,
        cfg.heads,
        cfg.head_dim,
        hidden,
        0.0,
        &mut rng,
    );
    let (x, mut arena) = (tokens, TensorArena::new());
    out.push(probe("nn.block_us", 1.0, move || {
        let y = block.forward_infer_in(black_box(&x), &mut arena);
        arena.recycle(y);
    }));
    let norm = LayerNorm::new("ln", embed);
    let (x, mut y) = (rows, vec![0.0f32; seq * embed]);
    out.push(probe("nn.layernorm_us", 1.0, move || {
        norm.infer_into(black_box(x.data()), &mut y);
        black_box(y[0]);
    }));
    let (norm, head) = (
        LayerNorm::new("ln_final", embed),
        Linear::new("head", embed, cfg.classes, &mut rng),
    );
    let (x, mut normed, mut logits) = (
        noise(embed, 6),
        vec![0.0f32; embed],
        vec![0.0f32; cfg.classes],
    );
    out.push(probe("nn.head_us", 1.0, move || {
        norm.infer_into(black_box(&x), &mut normed);
        head.infer_into(&normed, 1, &mut logits, FusedActivation::None);
        black_box(logits[0]);
    }));

    // quant: integer layers and the I-BERT non-linearities.
    let unit = QParams::symmetric(1.0);
    let conv = QConv1d::from_float(
        &Tensor::from_vec(
            noise(embed * CHANNELS * cfg.filter, 7),
            &[embed, CHANNELS, cfg.filter],
        ),
        &Tensor::zeros(&[embed]),
        cfg.filter,
        unit,
        unit,
    );
    let x = codes(WINDOW_LEN, 8);
    let positions = conv.out_len(WINDOW);
    let mut im2col = vec![0i8; conv.im2col_len(CHANNELS, WINDOW)];
    let mut acc = vec![0i32; embed * positions];
    let mut y = vec![0i8; embed * positions];
    out.push(probe("quant.patch_conv_us", 1.0, move || {
        conv.forward_into(
            black_box(&x),
            CHANNELS,
            WINDOW,
            &mut im2col,
            &mut acc,
            &mut y,
        );
        black_box(y[0]);
    }));
    for (name, k, n) in [
        ("quant.linear_qkv_us", embed, inner),
        ("quant.linear_wo_us", inner, embed),
        ("quant.linear_ffn_us", embed, hidden),
    ] {
        let layer = QLinear::from_float(
            &Tensor::from_vec(noise(n * k, 9), &[n, k]),
            &Tensor::zeros(&[n]),
            unit,
            unit,
        );
        let (x, mut y) = (codes(seq * k, 10), vec![0i8; seq * n]);
        out.push(probe(name, 1.0, move || {
            layer.forward_into(black_box(&x), seq, &mut y);
            black_box(y[0]);
        }));
    }
    let softmax = ISoftmax::new(1.0 / 1024.0);
    let scores: Vec<i32> = codes(seq, 11).iter().map(|&c| c as i32 * 64).collect();
    let mut y = vec![0i8; seq];
    out.push(probe("quant.softmax_row_us", 1.0, move || {
        softmax.apply_row(black_box(&scores), &mut y);
        black_box(y[0]);
    }));
    let gelu = IGelu::new(unit.scale as f64, unit);
    let x = codes(seq * hidden, 12);
    out.push(probe("quant.gelu_us", 1.0, move || {
        let mut sum = 0i32;
        for &q in black_box(&x) {
            sum += gelu.apply(q) as i32;
        }
        black_box(sum);
    }));
    let norm = ILayerNorm::new(&vec![1.0; embed], &vec![0.0; embed], unit);
    let (x, mut y) = (codes(embed, 13), vec![0i8; embed]);
    out.push(probe("quant.layernorm_row_us", 1.0, move || {
        norm.apply_row(black_box(&x), &mut y);
        black_box(y[0]);
    }));

    // core: whole models through the call the engines make.
    let eval = fixture.eval_windows();
    for (name, precision, batch) in [
        ("core.fp32_b1_us", Precision::Fp32, 1),
        ("core.fp32_b8_us", Precision::Fp32, 8),
        ("core.fp32_b32_us", Precision::Fp32, 32),
        ("core.int8_b1_us", Precision::Int8, 1),
        ("core.int8_b8_us", Precision::Int8, 8),
        ("core.int8_b32_us", Precision::Int8, 32),
    ] {
        let windows = eval[..batch * WINDOW_LEN].to_vec();
        out.push(forward_probe(name, fixture.classifier(precision), windows));
    }
    out.push(forward_probe(
        "core.temponet_b1_us",
        Arc::new(TempoNet::new(0)),
        eval[..WINDOW_LEN].to_vec(),
    ));

    // semg: the offline and online window paths and signal synthesis.
    let db = NinaproDb6::generate(fixture.db.spec());
    let (signal, _) = db.session_signal(0, 0);
    let slide = fixture.dataset_slide();
    let windows = (signal.dims()[1] - WINDOW) / slide + 1;
    let mut buf = Vec::with_capacity(windows * WINDOW_LEN);
    let recording = signal.clone();
    out.push(probe(
        "semg.extract_us_per_window",
        windows as f64,
        move || {
            buf.clear();
            black_box(extract_all_into(black_box(&recording), slide, &mut buf));
        },
    ));
    let norm = fixture.norm.clone();
    let mut w = eval[..WINDOW_LEN].to_vec();
    out.push(probe("semg.normalize_us_per_window", 1.0, move || {
        norm.apply_window(black_box(&mut w));
    }));
    // Interleave one second of signal and stream it in 25 ms bursts.
    let frames = SAMPLE_RATE;
    let total = signal.dims()[1];
    let mut interleaved = Vec::with_capacity(frames * CHANNELS);
    for f in 0..frames {
        for ch in 0..CHANNELS {
            interleaved.push(signal.data()[ch * total + f]);
        }
    }
    let streamed = (frames - WINDOW) / SLIDE + 1;
    out.push(probe(
        "semg.windower_us_per_window",
        streamed as f64,
        move || {
            let mut windower = OnlineWindower::new(CHANNELS, WINDOW, SLIDE);
            for burst in interleaved.chunks(50 * CHANNELS) {
                windower.push_interleaved(black_box(burst));
                while let Some(w) = windower.next_window() {
                    black_box(w[0]);
                }
            }
        },
    ));
    out.push(probe("semg.generate_ms_per_session", 1.0, move || {
        black_box(db.session_signal(0, 1).0.data()[0]);
    }));

    // proto: one 50-frame burst up, one event down.
    let mut bytes = Vec::new();
    let mut burst = noise(50 * CHANNELS, 14);
    out.push(probe("proto.encode_samples_us", 1.0, move || {
        burst = encode_samples(std::mem::take(&mut burst), &mut bytes);
        black_box(bytes.len());
    }));
    let mut bytes = Vec::new();
    let _ = encode_samples(noise(50 * CHANNELS, 15), &mut bytes);
    let mut decoder = FrameDecoder::new();
    let frame_bytes = bytes.clone();
    out.push(probe("proto.decode_samples_us", 1.0, move || {
        decoder.feed(black_box(&frame_bytes));
        black_box(decoder.next_frame().expect("a valid frame").is_some());
    }));
    let event = Frame::Event(GestureEvent::Started {
        class: 3,
        window: 1234,
        confidence: 0.5,
    });
    let mut bytes = Vec::new();
    let e = event.clone();
    out.push(probe("proto.encode_event_us", 1.0, move || {
        encode(black_box(&e), &mut bytes);
        black_box(bytes.len());
    }));
    let mut bytes = Vec::new();
    encode(&event, &mut bytes);
    let mut decoder = FrameDecoder::new();
    out.push(probe("proto.decode_event_us", 1.0, move || {
        decoder.feed(black_box(&bytes));
        black_box(decoder.next_frame().expect("a valid frame").is_some());
    }));

    // stream: the decision smoother alone, fed a flickering prediction.
    let mut smoother = DecisionSmoother::new(wire_policy()).expect("the wire policy is valid");
    let mut events = Vec::with_capacity(4);
    let mut class = 0;
    out.push(probe("stream.smoother_push_ns", 1.0, move || {
        class = (class + 1) % 3;
        events.clear();
        smoother.push(class, 0.5, &mut events);
        black_box(events.len());
    }));
    out
}

/// Counts that do not depend on the machine: the model's operations and
/// parameters and the analytical GAP8 deployment of the paper's Table I.
pub fn model_facts() -> Vec<(&'static str, f64)> {
    let bio1 = bioformer_descriptor(&BioformerConfig::bio1());
    let on_gap8 = analyze_default(&bio1);
    let temponet = analyze_default(&temponet_descriptor());
    vec![
        ("core.macs_per_window", bio1.macs() as f64),
        ("core.params", bio1.params() as f64),
        ("gap8.bio1_cycles", on_gap8.latency.total_cycles),
        ("gap8.bio1_latency_ms", on_gap8.latency_ms),
        ("gap8.bio1_energy_mj", on_gap8.energy_mj),
        ("gap8.bio1_memory_kb", on_gap8.memory_kb),
        ("gap8.temponet_latency_ms", temponet.latency_ms),
    ]
}

/// Heap allocations a warm arena still makes over ten further batch-1
/// forwards: `(fp32 TensorArena, int8 QuantArena)`.
pub fn warm_arena_misses(fixture: &Fixture) -> (u64, u64) {
    let window = fixture.eval_windows()[..WINDOW_LEN].to_vec();
    let batch = Tensor::from_vec(window.clone(), &[1, CHANNELS, WINDOW]);
    let mut arena = TensorArena::new();
    let mut qarena = QuantArena::new();
    let mut logits = vec![0.0f32; fixture.classes()];
    for round in 0..12 {
        if round == 2 {
            arena.reset_stats();
            qarena.reset_stats();
        }
        let out = fixture.fp32.predict_batch_in(&batch, &mut arena);
        arena.recycle(out);
        fixture
            .int8
            .forward_logits_into(&window, &mut qarena, &mut logits);
    }
    (arena.stats().misses as u64, qarena.stats().misses as u64)
}

/// Share of the held-out windows on which int8 and fp32 agree.
pub fn precision_agreement(fixture: &Fixture) -> f64 {
    let eval = fixture.eval_windows();
    let classes = fixture.classes();
    let a = decisions(&fixture.reference(Precision::Fp32, eval.clone()), classes);
    let b = decisions(&fixture.reference(Precision::Int8, eval), classes);
    let same = a.iter().zip(&b).filter(|(x, y)| x.0 == y.0).count();
    same as f64 / a.len() as f64
}
