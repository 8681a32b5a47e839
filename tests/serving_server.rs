//! Multi-tenant `StreamServer` behaviour: fairness under flooding,
//! fault-injection (disconnect, idle eviction, reconnect seams), and the
//! per-tenant statistics rollup invariant.
//!
//! These tests run the server in-process over a fast mock backend so the
//! serving properties (work on the caller's thread, per-session
//! backpressure, eviction timing) are exercised without model-inference
//! noise. Nothing here sleeps and re-checks: sends, finishes and
//! disconnects run on the calling thread and are done when they return,
//! and a test waits for its own session's events or outcome in
//! `SessionHandle::wait_events`; the TCP wire path is covered by
//! `tests/serving_gateway.rs`, and stream/offline bit-equivalence of the
//! underlying sessions by `tests/serving_stream.rs`.

mod common;

use common::{async_engine, PATIENCE};

use bioformers::serve::{
    DecisionPolicy, Engine, GestureClassifier, GestureEvent, InferenceEngine, LatencyBudget,
    ModelZoo, ServeError, SessionHandle, SessionOptions, StreamConfig, StreamServer,
    StreamServerConfig, StreamSession, StreamSummary,
};
use bioformers::tensor::Tensor;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

const CHANNELS: usize = 2;
const WINDOW: usize = 8;
/// Interleaved samples per extracted window (slide == window).
const CHUNK: usize = CHANNELS * WINDOW;

/// A fast deterministic classifier: logits are fixed linear functions of
/// the window, so streamed and offline paths agree bit-for-bit and a
/// pseudo-random signal hops between classes (events actually happen).
struct MockBackend;

impl GestureClassifier for MockBackend {
    fn predict_batch(&self, windows: &Tensor) -> Tensor {
        let n = windows.dims()[0];
        let len = CHANNELS * WINDOW;
        Tensor::from_fn(&[n, 4], |i| {
            let (row, class) = (i / 4, i % 4);
            let x = &windows.data()[row * len..(row + 1) * len];
            let mut score = 0.0f32;
            for (j, &v) in x.iter().enumerate() {
                score += v * (((j * (class + 2)) % 11) as f32 / 11.0 - 0.5);
            }
            score
        })
    }

    fn num_classes(&self) -> usize {
        4
    }

    fn name(&self) -> &str {
        "mock"
    }

    fn input_shape(&self) -> Option<(usize, usize)> {
        Some((CHANNELS, WINDOW))
    }
}

/// Deterministic pseudo-random interleaved stream of `windows` windows.
fn signal(windows: usize, seed: u64) -> Vec<f32> {
    let mut state = seed | 1;
    (0..windows * CHUNK)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            ((state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

fn stream_cfg() -> StreamConfig {
    StreamConfig::new(CHANNELS, WINDOW)
        .with_lookahead(0)
        .with_policy(DecisionPolicy {
            vote_depth: 3,
            min_hold: 1,
            confidence_floor: 0.0,
        })
}

fn mock_engine() -> Arc<dyn Engine> {
    Arc::new(InferenceEngine::new(Box::new(MockBackend)))
}

/// The uninterrupted single-session reference for `stream`.
fn reference(stream: &[f32]) -> StreamSummary {
    let mut session = StreamSession::new(mock_engine(), stream_cfg()).expect("reference session");
    let mut events = Vec::new();
    for chunk in stream.chunks(CHUNK) {
        events.extend(session.push_samples(chunk).expect("reference push"));
    }
    let mut summary = session.finish().expect("reference finish");
    events.extend(std::mem::take(&mut summary.events));
    summary.events = events;
    summary
}

/// Collects the session's events until it reports its eviction.
fn events_until_evicted(handle: &SessionHandle, events: &mut Vec<GestureEvent>) {
    loop {
        match handle.wait_events(PATIENCE) {
            Ok(more) if more.is_empty() => panic!("the session was not evicted"),
            Ok(more) => events.extend(more),
            Err(ServeError::Evicted) => return,
            Err(e) => panic!("unexpected error while waiting for the eviction: {e}"),
        }
    }
}

/// Satellite: over one shared one-worker engine, a session flooding at
/// ~100× the others' rate fills its own lookahead of 2 windows (observing
/// `QueueFull` through `try_send`, which leaves the refused chunk
/// unconsumed) while all 7 normal sessions stream to completion — none
/// ever sees `Unavailable`, and each decides exactly its expected windows
/// with the exact reference predictions and events.
#[test]
fn flooding_session_cannot_starve_the_pool() {
    let server = Arc::new(
        StreamServer::start(
            async_engine(MockBackend),
            StreamServerConfig::new(stream_cfg().with_lookahead(2)).with_max_sessions(8),
        )
        .expect("server"),
    );

    const NORMAL_WINDOWS: usize = 40;
    const FLOOD_CHUNKS: usize = 100 * NORMAL_WINDOWS;

    let flooder = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            let handle = server.connect("flooder").expect("flooder connect");
            let noise = signal(1, 999);
            let mut queue_full = 0usize;
            let mut sent = 0usize;
            // Fire-and-forget at maximum rate: a rejected chunk is simply
            // dropped, which is exactly what a misbehaving client does.
            while sent < FLOOD_CHUNKS {
                match handle.try_send(&noise) {
                    Ok(()) => sent += 1,
                    Err(ServeError::QueueFull) => queue_full += 1,
                    Err(e) => panic!("flooder must only ever see QueueFull, got {e}"),
                }
            }
            let report = handle.finish().expect("flooder finish");
            (queue_full, report.summary.windows)
        })
    };

    let normals: Vec<_> = (0..7)
        .map(|i| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let stream = signal(NORMAL_WINDOWS, 7 + i);
                let handle = server.connect(&format!("tenant-{i}")).expect("connect");
                let mut events = Vec::new();
                for chunk in stream.chunks(CHUNK) {
                    // The blocking path: backpressure waits, never errors.
                    handle.send(chunk).expect("normal send never fails");
                    events.extend(handle.poll_events().expect("poll"));
                }
                let report = handle.finish().expect("normal finish");
                events.extend(report.summary.events.clone());
                (stream, report, events)
            })
        })
        .collect();

    for normal in normals {
        let (stream, report, events) = normal.join().expect("normal thread");
        let expect = reference(&stream);
        assert_eq!(report.summary.windows, NORMAL_WINDOWS);
        assert_eq!(report.summary.predictions, expect.predictions);
        assert_eq!(report.summary.confidences, expect.confidences);
        assert_eq!(events, expect.events, "normal session's event schedule");
    }
    let (queue_full, flooded_windows) = flooder.join().expect("flooder thread");
    assert!(
        queue_full > 0,
        "a 100x flooder must hit its own lookahead bound at least once"
    );
    assert_eq!(flooded_windows, FLOOD_CHUNKS, "accepted chunks all served");

    let stats = server.stats();
    assert!(stats.rollup_consistent());
    assert_eq!(stats.totals.sessions, 8);
    assert_eq!(stats.totals.finished, 8);
}

/// Fault injection: dropping a handle mid-stream parks the session and
/// frees the slot for the next tenant; the parked stream resumes without
/// losing a window.
#[test]
fn mid_stream_disconnect_frees_the_slot() {
    let server = StreamServer::start(
        mock_engine(),
        StreamServerConfig::new(stream_cfg()).with_max_sessions(2),
    )
    .expect("server");

    // A session of the test's own takes the other slot.
    let probe = server.connect("probe").expect("probe connect");
    let stream = signal(12, 42);
    let handle = server.connect("alice").expect("first connect");
    let token = handle.token();
    handle.send(&stream[..6 * CHUNK]).expect("send");
    // The pool is full while alice streams.
    assert_eq!(
        server.connect("bob").unwrap_err(),
        ServeError::Unavailable,
        "a third session must not fit a 2-slot pool"
    );
    drop(handle); // Mid-stream disconnect: no finish, no bye.

    // The drop parked alice's stream and freed her slot on this thread.
    probe.disconnect().expect("probe disconnect");
    let bob = server.connect("bob").expect("alice's slot is free");
    assert_eq!(server.stats().parked_sessions, 2);
    assert_eq!(server.stats().totals.disconnects, 2);
    // Bob's detach frees the pool again, so the next check exercises the
    // token validation, not the slot count.
    drop(bob);
    assert_eq!(server.stats().live_sessions, 0);

    // Nobody can steal the parked session.
    let err = server.resume("mallory", token).unwrap_err();
    assert!(matches!(err, ServeError::BadRequest(_)), "got {err:?}");

    let alice = server.resume("alice", token).expect("resume");
    for chunk in stream[6 * CHUNK..].chunks(CHUNK) {
        alice.send(chunk).expect("resumed send");
    }
    let report = alice.finish().expect("resumed finish");
    let expect = reference(&stream);
    assert_eq!(report.summary.windows, 12);
    assert_eq!(report.summary.predictions, expect.predictions);
}

/// Collects a session's full event timeline: everything polled so far plus
/// the finish-time remainder.
fn finish_collect(handle: SessionHandle, polled: &mut Vec<GestureEvent>) -> StreamSummary {
    let report = handle.finish().expect("finish");
    let mut events = std::mem::take(polled);
    events.extend(report.summary.events.clone());
    let mut summary = report.summary;
    summary.events = events;
    summary
}

/// Fault injection: the idle timeout evicts a silent session (the handle
/// observes `ServeError::Evicted`), its checkpoint parks, and a resumed
/// session continues with the decision state intact — the seam duplicates
/// no event and loses none, bit-matching an uninterrupted stream.
#[test]
fn idle_eviction_then_resume_keeps_the_event_timeline_intact() {
    let server = StreamServer::start(
        mock_engine(),
        StreamServerConfig::new(stream_cfg()).with_idle_timeout(Some(Duration::from_millis(40))),
    )
    .expect("server");

    // Cut mid-decision AND mid-frame: 9 windows plus 5 leftover samples
    // make the checkpoint carry both smoother state and a partial frame.
    let stream = signal(20, 1234);
    let cut = 9 * CHUNK + 5;

    let handle = server.connect("clinic").expect("connect");
    let mut events = Vec::new();
    for chunk in stream[..cut].chunks(CHUNK) {
        handle.send(chunk).expect("send");
        events.extend(handle.poll_events().expect("poll"));
    }
    // Go silent; the eviction must fire on its own.
    let token = handle.token();
    events_until_evicted(&handle, &mut events);
    // Every session entry point now reports the eviction.
    assert_eq!(handle.send(&stream[cut..cut + 1]), Err(ServeError::Evicted));
    assert_eq!(server.stats().totals.evictions, 1);
    assert_eq!(server.stats().parked_sessions, 1);

    let resumed = server.resume("clinic", token).expect("resume");
    assert_ne!(resumed.token(), token, "resume mints a fresh token");
    for chunk in stream[cut..].chunks(CHUNK) {
        resumed.send(chunk).expect("resumed send");
        events.extend(resumed.poll_events().expect("resumed poll"));
    }
    let summary = finish_collect(resumed, &mut events);

    let expect = reference(&stream);
    assert_eq!(summary.windows, expect.windows);
    assert_eq!(summary.predictions, expect.predictions);
    assert_eq!(summary.confidences, expect.confidences);
    assert_eq!(
        summary.events, expect.events,
        "the eviction/resume seam must neither duplicate nor lose events"
    );
    // The old handle is a zombie; dropping it must not disturb the
    // resumed session's completed bookkeeping.
    drop(handle);
    assert_eq!(server.stats().totals.reconnects, 1);
}

/// Per-session totals sum into per-tenant counters, which sum into the
/// pool totals — the per-replica invariant of
/// `EngineStats::rollup_consistent` (`tests/serving_engine.rs`) one layer
/// up.
#[test]
fn per_tenant_stats_roll_up_into_pool_totals() {
    let server = StreamServer::start(
        mock_engine(),
        StreamServerConfig::new(stream_cfg()).with_max_sessions(4),
    )
    .expect("server");

    // Tenant A: two finished sessions; tenant B: one disconnected session.
    let mut session_stats = Vec::new();
    for seed in [1u64, 2] {
        let stream = signal(10, seed);
        let handle = server.connect("tenant-a").expect("connect a");
        for chunk in stream.chunks(CHUNK) {
            handle.send(chunk).expect("send");
        }
        session_stats.push(handle.finish().expect("finish").stats);
    }
    let b_stream = signal(6, 3);
    let b = server.connect("tenant-b").expect("connect b");
    for chunk in b_stream.chunks(CHUNK) {
        b.send(chunk).expect("send");
    }
    let b_token = b.disconnect().expect("disconnect b");

    // `finish` and `disconnect` run on this thread: they return with
    // everything sent before them counted.
    let stats = server.stats();
    assert_eq!(stats.totals.windows, 26);
    assert!(
        stats.rollup_consistent(),
        "totals != sum(per_tenant): {stats:?}"
    );
    assert_eq!(stats.per_tenant.len(), 2);

    // Per-session reports sum into tenant-a's counters.
    let a = stats
        .per_tenant
        .iter()
        .find(|t| t.tenant == "tenant-a")
        .expect("tenant-a");
    assert_eq!(a.counters.sessions, 2);
    assert_eq!(a.counters.finished, 2);
    assert_eq!(
        a.counters.chunks,
        session_stats.iter().map(|s| s.chunks).sum::<u64>()
    );
    assert_eq!(
        a.counters.samples,
        session_stats.iter().map(|s| s.samples).sum::<u64>()
    );
    assert_eq!(
        a.counters.windows,
        session_stats.iter().map(|s| s.windows).sum::<u64>()
    );
    assert_eq!(
        a.counters.events,
        session_stats.iter().map(|s| s.events).sum::<u64>()
    );

    let b_stats = stats
        .per_tenant
        .iter()
        .find(|t| t.tenant == "tenant-b")
        .expect("tenant-b");
    assert_eq!(b_stats.counters.disconnects, 1);
    assert_eq!(b_stats.counters.windows, 6);

    // The counters survive the park: resuming and finishing B's stream
    // keeps the tenant rollup consistent and completes the session.
    let b = server.resume("tenant-b", b_token).expect("resume b");
    let report = b.finish().expect("finish b");
    assert_eq!(report.stats.windows, 6);
    let stats = server.stats();
    assert!(stats.rollup_consistent());
    assert_eq!(stats.totals.finished, 3);
    assert_eq!(stats.totals.reconnects, 1);
}

/// Server shutdown fails open sessions with `ShuttingDown` and drops
/// parked checkpoints; connects are refused afterwards.
#[test]
fn shutdown_fails_open_sessions_and_refuses_connects() {
    let server =
        StreamServer::start(mock_engine(), StreamServerConfig::new(stream_cfg())).expect("server");
    let handle = server.connect("t").expect("connect");
    handle.send(&signal(1, 9)).expect("send");
    let stats = server.shutdown();
    assert!(stats.rollup_consistent());
    assert_eq!(server.connect("t").unwrap_err(), ServeError::ShuttingDown);
    let err = handle.send(&signal(1, 9)).unwrap_err();
    assert_eq!(err, ServeError::ShuttingDown);
}

/// A config with a zero bound is rejected up front.
#[test]
fn zero_bounds_are_rejected() {
    let cfg = StreamServerConfig::new(stream_cfg()).with_max_sessions(0);
    let err = StreamServer::start(mock_engine(), cfg).unwrap_err();
    assert!(matches!(err, ServeError::BadRequest(_)), "got {err:?}");
}

/// Satellite: a per-session latency budget flags a violating session
/// exactly once (not once per window), the flag lands in the
/// pool's `slo_violations` rollup, and a per-session override via
/// `SessionOptions::with_slo` takes precedence over the server default.
#[test]
fn slo_violation_flags_once_and_respects_per_session_override() {
    // A zero budget is unmeetable: any recorded stage latency violates
    // it. `slo_evict` stays off, so the session keeps streaming.
    let server = StreamServer::start(
        mock_engine(),
        StreamServerConfig::new(stream_cfg()).with_slo(LatencyBudget::new(Duration::ZERO)),
    )
    .expect("server");

    let handle = server.connect("hog").expect("connect");
    let stream = signal(12, 77);
    for chunk in stream.chunks(CHUNK) {
        handle.send(chunk).expect("send");
    }
    let report = handle.finish().expect("finish");
    assert_eq!(report.summary.windows, 12, "flagging must not drop work");
    assert_eq!(server.stats().totals.slo_violations, 1);

    // A lenient per-session override wins over the strict server default.
    let lenient = server
        .connect_with(
            "patient",
            SessionOptions::default().with_slo(LatencyBudget::new(Duration::from_secs(3600))),
        )
        .expect("connect_with");
    for chunk in signal(8, 78).chunks(CHUNK) {
        lenient.send(chunk).expect("send");
    }
    lenient.finish().expect("finish");

    let stats = server.stats();
    assert_eq!(
        stats.totals.slo_violations, 1,
        "only the strict session may be flagged, and only once"
    );
    assert!(stats.rollup_consistent());
}

/// Satellite: with `slo_evict` on, a budget-violating session is parked
/// like an idle one — the handle observes `Evicted`, the checkpoint is
/// resumable, and (because the checkpoint carries the session's stage
/// recorder) the resumed session deterministically re-trips the budget.
#[test]
fn slo_eviction_parks_a_resumable_session() {
    let server = StreamServer::start(
        mock_engine(),
        StreamServerConfig::new(stream_cfg())
            .with_slo(LatencyBudget::new(Duration::ZERO))
            .with_slo_evict(true),
    )
    .expect("server");

    // The first window's `Started` is the first traced event, and with it
    // the (zero) budget is blown.
    let handle = server.connect("hog").expect("connect");
    let token = handle.token();
    handle.send(&signal(1, 7)).expect("send");
    events_until_evicted(&handle, &mut Vec::new());
    assert_eq!(handle.send(&signal(1, 7)), Err(ServeError::Evicted));
    let s = server.stats();
    assert_eq!(
        (
            s.totals.evictions,
            s.totals.slo_violations,
            s.parked_sessions
        ),
        (1, 1, 1)
    );

    // The parked checkpoint resumes — and because its stage recorder came
    // back with it, the very next push re-evaluates the (still zero)
    // budget against real history and evicts again.
    let resumed = server.resume("hog", token).expect("resume");
    // Not an error if the eviction has already won the race.
    let _ = resumed.send(&signal(1, 8));
    events_until_evicted(&resumed, &mut Vec::new());
    let s = server.stats();
    assert_eq!((s.totals.evictions, s.totals.slo_violations), (2, 2));
    let stats = server.stats();
    assert_eq!(stats.totals.reconnects, 1);
    assert!(stats.rollup_consistent());
}

/// Tentpole: sessions pick their model by name from the zoo at connect
/// time; work lands on the named engine (visible per-model in
/// `ZooStats`), an unknown name is a typed `BadRequest`, and the zoo
/// rollup stays consistent with the per-tenant one.
#[test]
fn sessions_select_zoo_models_and_zoo_stats_roll_up() {
    let mut zoo = ModelZoo::new();
    zoo.register("alpha", mock_engine())
        .expect("register alpha");
    zoo.register("beta", mock_engine()).expect("register beta");
    let server = StreamServer::start_zoo(
        Arc::new(zoo),
        StreamServerConfig::new(stream_cfg()).with_max_sessions(4),
    )
    .expect("server");

    // One session on the default (alpha), one explicitly on beta.
    let on_default = server.connect("clinic/a").expect("connect");
    for chunk in signal(4, 31).chunks(CHUNK) {
        on_default.send(chunk).expect("send");
    }
    assert_eq!(on_default.finish().expect("finish").summary.windows, 4);

    let on_beta = server
        .connect_with("clinic/b", SessionOptions::default().with_model("beta"))
        .expect("connect_with");
    for chunk in signal(6, 32).chunks(CHUNK) {
        on_beta.send(chunk).expect("send");
    }
    assert_eq!(on_beta.finish().expect("finish").summary.windows, 6);

    let err = server
        .connect_with("clinic/c", SessionOptions::default().with_model("gamma"))
        .expect_err("unknown model");
    assert!(matches!(err, ServeError::BadRequest(_)), "got {err:?}");

    let stats = server.shutdown();
    assert!(stats.rollup_consistent());
    let windows_of = |name: &str| {
        let m = stats
            .zoo
            .models
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("model {name} missing from ZooStats"));
        (m.default, m.engine.windows)
    };
    assert_eq!(windows_of("alpha"), (true, 4), "default routes to alpha");
    assert_eq!(
        windows_of("beta"),
        (false, 6),
        "named session routes to beta"
    );
}

/// Tentpole: a window's decision reaches a client that sends nothing more.
/// Exactly one window's samples go in; the backend is held at its gate, so
/// the window is in flight when `send` returns. Opening the gate is then
/// the only thing that happens — and the completion alone must wake
/// `wait_events` to absorb the window and return its `Started` event.
#[test]
fn a_served_window_reaches_a_client_that_has_gone_silent() {
    let (backend, gate, entered) = common::gated(MockBackend);
    let server = StreamServer::start(
        async_engine(backend),
        StreamServerConfig::new(stream_cfg().with_lookahead(2)),
    )
    .expect("server");
    let stream = signal(1, 5);
    let handle = server.connect("silent").expect("connect");
    handle.send(&stream).expect("send");
    entered
        .recv_timeout(PATIENCE)
        .expect("the window reaches the backend");
    assert_eq!(
        handle.poll_events().expect("poll"),
        Vec::new(),
        "nothing is decided while the backend holds the window"
    );
    gate.open();
    let events = handle.wait_events(PATIENCE).expect("wait_events");
    assert_eq!(
        events,
        reference(&stream).events[..1],
        "the window's Started event, and nothing else"
    );
    // The stream is still open and idle: a bounded wait comes back empty.
    assert_eq!(handle.wait_events(Duration::from_millis(1)), Ok(Vec::new()));
}

/// `MockBackend` that records the thread of every call it serves.
struct ThreadRecorder(Arc<Mutex<Vec<ThreadId>>>);

impl GestureClassifier for ThreadRecorder {
    fn predict_batch(&self, windows: &Tensor) -> Tensor {
        self.0.lock().unwrap().push(std::thread::current().id());
        MockBackend.predict_batch(windows)
    }

    fn num_classes(&self) -> usize {
        MockBackend.num_classes()
    }

    fn name(&self) -> &str {
        "thread-recorder"
    }

    fn input_shape(&self) -> Option<(usize, usize)> {
        MockBackend.input_shape()
    }
}

/// Tentpole: a session's data path runs on its caller's thread. Behind an
/// inline engine, every window of a chunk is served inside `send`, on the
/// sending thread, and the chunk's events are published by the time `send`
/// returns — no other thread takes part, so there is nothing to wait for.
#[test]
fn a_send_serves_its_windows_on_the_callers_thread() {
    let calls = Arc::new(Mutex::new(Vec::new()));
    let engine: Arc<dyn Engine> = Arc::new(InferenceEngine::new(Box::new(ThreadRecorder(
        Arc::clone(&calls),
    ))));
    let server =
        StreamServer::start(engine, StreamServerConfig::new(stream_cfg())).expect("server");
    let stream = signal(9, 4321);
    let handle = server.connect("caller").expect("connect");
    handle.send(&stream).expect("send");

    let calls = calls.lock().unwrap().clone();
    assert_eq!(calls.len(), 9, "one predict call per window");
    let me = std::thread::current().id();
    assert!(
        calls.iter().all(|&id| id == me),
        "every window was served on the sending thread"
    );
    let mut alone = StreamSession::new(mock_engine(), stream_cfg()).expect("reference session");
    let expect = alone.push_samples(&stream).expect("reference push");
    assert!(!expect.is_empty(), "the chunk decides something");
    assert_eq!(
        handle.poll_events().expect("poll"),
        expect,
        "the chunk's events are published when send returns"
    );
}

/// Idle eviction racing a completion: one window is in flight behind the
/// gate while the session's idle timeout runs out, and the gate opens a
/// little before, around or after that moment. (The sleep only moves the
/// race; every interleaving must give the same answer.) Wherever the
/// window's events end up — streamed before the eviction, or parked with
/// the checkpoint and delivered after the resume — the whole timeline is
/// the uninterrupted stream's, with nothing lost and nothing repeated.
#[test]
fn idle_eviction_racing_a_completion_loses_no_event() {
    let stream = signal(8, 2024);
    let expect = reference(&stream);
    for open_after_ms in [0, 10, 25, 30, 35, 60] {
        let (backend, gate, entered) = common::gated(MockBackend);
        let server = StreamServer::start(
            async_engine(backend),
            StreamServerConfig::new(stream_cfg().with_lookahead(2))
                .with_idle_timeout(Some(Duration::from_millis(30))),
        )
        .expect("server");
        let handle = server.connect("racer").expect("connect");
        let token = handle.token();
        handle.send(&stream[..CHUNK]).expect("send");
        entered
            .recv_timeout(PATIENCE)
            .expect("the window reaches the backend");
        std::thread::sleep(Duration::from_millis(open_after_ms));
        gate.open();

        let mut events = Vec::new();
        events_until_evicted(&handle, &mut events);
        let resumed = server.resume("racer", token).expect("resume");
        for chunk in stream[CHUNK..].chunks(CHUNK) {
            resumed.send(chunk).expect("resumed send");
            events.extend(resumed.poll_events().expect("resumed poll"));
        }
        let summary = finish_collect(resumed, &mut events);
        assert_eq!(summary.predictions, expect.predictions);
        assert_eq!(
            summary.events, expect.events,
            "gate opened {open_after_ms} ms into a 30 ms idle timeout"
        );
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Ordering and no-loss: however the stream is chunked, however deep
    /// the lookahead, whether events are taken as they come or left for
    /// the report, and with or without a disconnect/resume seam at an
    /// arbitrary sample, the events streamed to the handle followed by the
    /// finish report's are the offline timeline bit for bit — over an
    /// engine whose answers arrive by completion wake-up.
    #[test]
    fn streamed_events_then_the_finish_report_are_the_offline_timeline(seed in 1u64..u64::MAX) {
        let mut state = seed;
        let windows = 3 + (xorshift(&mut state) as usize) % 24;
        let stream = signal(windows, xorshift(&mut state));
        let lookahead = (xorshift(&mut state) as usize) % 4;
        let max_chunk = 1 + (xorshift(&mut state) as usize) % (3 * CHUNK);
        let seam = xorshift(&mut state).is_multiple_of(2)
            .then(|| (xorshift(&mut state) as usize) % stream.len());
        let server = StreamServer::start(
            async_engine(MockBackend),
            StreamServerConfig::new(stream_cfg().with_lookahead(lookahead)),
        )
        .expect("server");

        let mut handle = server.connect("wearer").expect("connect");
        let mut events = Vec::new();
        let mut at = 0;
        while at < stream.len() {
            let mut end = (at + 1 + (xorshift(&mut state) as usize) % max_chunk).min(stream.len());
            if let Some(seam) = seam.filter(|&seam| at < seam && seam < end) {
                end = seam;
            }
            handle.send(&stream[at..end]).expect("send");
            at = end;
            match xorshift(&mut state) % 3 {
                0 => events.extend(handle.poll_events().expect("poll")),
                1 => events.extend(
                    handle.wait_events(Duration::from_micros(200)).expect("wait"),
                ),
                _ => {}
            }
            if seam == Some(at) {
                // Undelivered events travel with the checkpoint.
                let token = handle.disconnect().expect("disconnect");
                handle = server.resume("wearer", token).expect("resume");
            }
        }
        let summary = finish_collect(handle, &mut events);
        let expect = reference(&stream);
        prop_assert_eq!(summary.windows, expect.windows);
        prop_assert_eq!(&summary.predictions, &expect.predictions);
        prop_assert_eq!(&summary.confidences, &expect.confidences);
        prop_assert_eq!(&summary.events, &expect.events);
        prop_assert!(server.stats().rollup_consistent());
    }
}
