//! Allocator-level proof that steady-state inference is allocation-free.
//!
//! `tests/perf_kernels.rs` checks the arena's *own* accounting
//! (`misses == 0` after warm-up); this test goes one level deeper and
//! counts actual heap allocations with a counting `#[global_allocator]`.
//! After a warm-up forward has populated the arena pool and the packed
//! weight caches, a `forward_infer_in` pass over the full bio1 model must
//! perform **zero** heap allocations — every intermediate tensor, packed
//! panel and scratch buffer comes from the pool, and `Shape` stores its
//! dims inline.
//!
//! The counter is gated on a thread-local flag so the test harness's other
//! threads cannot pollute the measurement. What the tests do share is the
//! process-wide kernel thread cap; [`thread_cap`] serialises them on it.

mod common;

use bioformers::core::{Bioformer, BioformerConfig, TempoNet};
use bioformers::nn::serialize::state_dict;
use bioformers::nn::{cross_entropy, InferForward, Model};
use bioformers::quant::QuantBioformer;
use bioformers::serve::proto::{encode_frame, Frame, FrameDecoder};
use bioformers::serve::{
    DecisionPolicy, GestureClassifier, InferenceEngine, LatencyTrace, ReadyHook, StageRecorder,
    StreamConfig, StreamSession,
};
use bioformers::tensor::{parallel, Tensor, TensorArena};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::Duration;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Pass-through to the system allocator that counts allocation events on
/// threads that opted in via `TRACKING`.
struct CountingAllocator;

fn note_allocation() {
    // try_with: allocation during thread teardown must not panic.
    let _ = TRACKING.try_with(|t| {
        if t.get() {
            let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` with allocation tracking on and returns how many heap
/// allocations it performed on this thread.
fn count_allocations(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|c| c.set(0));
    TRACKING.with(|t| t.set(true));
    f();
    TRACKING.with(|t| t.set(false));
    ALLOCATIONS.with(|c| c.get())
}

/// Sets the process-wide kernel thread cap to `cap` (`0`: the default) for
/// as long as the guard lives, and keeps every other test of this binary
/// that wants the cap meanwhile. The cap is process-wide and the tests run
/// on parallel threads: unserialised, one test restoring the default cap
/// puts a neighbour's measured forward back on the threaded path — or
/// makes it the first caller of `available_parallelism`, which reads
/// cgroup files into fresh allocations. That was the one-in-three flake.
fn thread_cap(cap: usize) -> impl Drop {
    struct Guard(#[allow(dead_code)] MutexGuard<'static, ()>);
    impl Drop for Guard {
        fn drop(&mut self) {
            parallel::set_max_threads(0);
        }
    }
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    parallel::set_max_threads(cap);
    Guard(guard)
}

/// Pins the kernels to the caller's thread (thread spawns allocate).
fn serial_kernels() -> impl Drop {
    thread_cap(1)
}

fn window(batch: usize, seed: u64) -> Tensor {
    let mut state = seed | 1;
    Tensor::from_fn(&[batch, 14, 300], |_| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        ((state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 24) as f32) - 0.5
    })
}

/// The full bio1 network converted to int8 (conversion itself allocates
/// freely — only steady-state inference is under test).
fn quant_model() -> QuantBioformer {
    let cfg = BioformerConfig::bio1();
    let mut model = Bioformer::new(&cfg);
    let dict = state_dict(&mut model);
    let calib = window(4, 11);
    QuantBioformer::convert(&cfg, &dict, &calib).expect("int8 conversion")
}

#[test]
fn steady_state_bioformer_forward_makes_zero_heap_allocations() {
    let _serial = serial_kernels();
    let model = Bioformer::new(&BioformerConfig::bio1());
    let x = window(1, 3);
    let mut arena = TensorArena::new();

    // Sanity: the very first (cold) pass must be visible to the counter —
    // it builds the packed weight caches and fills the pool.
    let cold = count_allocations(|| {
        let y = model.forward_infer_in(&x, &mut arena);
        arena.recycle(y);
    });
    assert!(
        cold > 0,
        "counter failed to observe the warm-up allocations"
    );

    // Second warm-up pass: steady-state pooling established.
    let y = model.forward_infer_in(&x, &mut arena);
    arena.recycle(y);

    for trial in 0..3 {
        let steady = count_allocations(|| {
            let y = model.forward_infer_in(&x, &mut arena);
            arena.recycle(y);
        });
        assert_eq!(
            steady, 0,
            "steady-state forward #{trial} hit the heap {steady} times"
        );
    }
}

#[test]
fn steady_state_batched_forward_makes_zero_heap_allocations() {
    let _serial = serial_kernels();
    let model = Bioformer::new(&BioformerConfig::bio1());
    let x = window(8, 5);
    let mut arena = TensorArena::new();
    for _ in 0..2 {
        let y = model.forward_infer_in(&x, &mut arena);
        arena.recycle(y);
    }
    let steady = count_allocations(|| {
        let y = model.forward_infer_in(&x, &mut arena);
        arena.recycle(y);
    });
    assert_eq!(steady, 0, "batched steady-state forward hit the heap");
}

/// bio2 runs one full-row block and then the class-row block: the two
/// bodies' different scratch shapes must share one warmed pool.
#[test]
fn steady_state_bio2_forward_makes_zero_heap_allocations() {
    let _serial = serial_kernels();
    let model = Bioformer::new(&BioformerConfig::bio2());
    for batch in [1, 8] {
        let x = window(batch, 17);
        let mut arena = TensorArena::new();
        for _ in 0..2 {
            let y = model.forward_infer_in(&x, &mut arena);
            arena.recycle(y);
        }
        let steady = count_allocations(|| {
            let y = model.forward_infer_in(&x, &mut arena);
            arena.recycle(y);
        });
        assert_eq!(
            steady, 0,
            "bio2 batch {batch} steady-state forward hit the heap"
        );
    }
}

#[test]
fn steady_state_quant_forward_makes_zero_heap_allocations() {
    let _serial = serial_kernels();
    let qmodel = quant_model();
    let x = window(1, 7);
    let mut arena = TensorArena::new();

    // Cold pass: populates the model's internal QuantArena pool (and must
    // be visible to the counter, proving the instrumentation works).
    let cold = count_allocations(|| {
        let y = qmodel.forward_infer_in(&x, &mut arena);
        arena.recycle(y);
    });
    assert!(
        cold > 0,
        "counter failed to observe the warm-up allocations"
    );

    let y = qmodel.forward_infer_in(&x, &mut arena);
    arena.recycle(y);

    for trial in 0..3 {
        let steady = count_allocations(|| {
            let y = qmodel.forward_infer_in(&x, &mut arena);
            arena.recycle(y);
        });
        assert_eq!(
            steady, 0,
            "steady-state int8 forward #{trial} hit the heap {steady} times"
        );
    }
}

/// The decision-latency trace recorder is allocation-free from the very
/// first `record` call: its per-stage rings are preallocated at
/// construction and recording is four ring writes — strict zero, no
/// warm-up needed, even while the window wraps thousands of times.
#[test]
fn stage_recorder_records_traces_with_zero_heap_allocations() {
    let mut recorder = StageRecorder::new();
    let trace = LatencyTrace {
        buffering: Duration::from_millis(12),
        queueing: Duration::from_micros(300),
        compute: Duration::from_millis(2),
        smoothing: Duration::from_millis(40),
    };
    let allocations = count_allocations(|| {
        for _ in 0..10_000 {
            recorder.record(trace);
        }
    });
    assert_eq!(
        allocations, 0,
        "StageRecorder::record hit the heap {allocations} times"
    );
    assert_eq!(recorder.recorded(), 10_000);
}

/// Decision-latency tracing must not change a streaming session's
/// steady-state allocation profile: window marks, the trace ring and the
/// pending-trace backlog are all bounded structures preallocated at
/// session construction. `push_samples` itself does allocate (window
/// extraction, tensor construction, the returned event vec) — so the
/// proof is that the per-push allocation count is **identical** across
/// steady-state pushes while the trace machinery runs at full tilt
/// (alternating classes force two traced events per push).
#[test]
fn traced_stream_session_per_push_allocations_stay_constant() {
    let _serial = serial_kernels();
    let model = Bioformer::new(&BioformerConfig::bio1());

    // Find two window signals the model classifies differently, so every
    // push flips the decision and exercises the event-tracing path.
    // Windows dominated by one hot channel spread over several argmax
    // classes even on an untrained model (uniform random windows don't —
    // the head's bias wins).
    let candidates: Vec<Tensor> = (0..14)
        .map(|hot| {
            let amp = (hot + 1) as f32 * 2.0;
            Tensor::from_fn(&[1, 14, 300], |i| {
                let ch = (i / 300) % 14;
                if ch == hot {
                    amp
                } else {
                    -amp * 0.3
                }
            })
        })
        .collect();
    let classes: Vec<usize> = candidates
        .iter()
        .map(|w| model.predict_batch(w).argmax_rows()[0])
        .collect();
    let (a, b) = {
        let first = classes[0];
        let other = classes
            .iter()
            .position(|&c| c != first)
            .expect("hot-channel windows must span at least two classes");
        (0, other)
    };
    // Interleave each `[1, 14, 300]` window into the frame stream an ADC
    // delivers (`[c0 c1 … c13]` per time step).
    let interleave = |w: &Tensor| -> Vec<f32> {
        let (c, len) = (w.dims()[1], w.dims()[2]);
        let mut out = Vec::with_capacity(c * len);
        for t in 0..len {
            for ch in 0..c {
                out.push(w.data()[ch * len + t]);
            }
        }
        out
    };
    let chunks = [interleave(&candidates[a]), interleave(&candidates[b])];

    let engine: std::sync::Arc<dyn bioformers::serve::Engine> =
        std::sync::Arc::new(InferenceEngine::new(Box::new(model)));
    let cfg = StreamConfig::db6()
        .with_slide(300)
        .with_lookahead(0)
        .with_policy(DecisionPolicy {
            vote_depth: 1,
            min_hold: 1,
            confidence_floor: 0.0,
        });
    let mut session = StreamSession::new(engine, cfg).expect("valid stream config");
    let mut traces = Vec::with_capacity(64);

    // Warm-up: 10 pushes populate the engine's arena, the packed-weight
    // caches, and leave the session's growable vecs (predictions,
    // confidences, the engine's latency samples) at capacity 16 — no
    // doubling before push #17.
    for i in 0..10 {
        session.push_samples(&chunks[i % 2]).expect("stream push");
        traces.clear();
        session.drain_new_traces(&mut traces);
    }

    let mut counts = Vec::new();
    for i in 0..4 {
        let n = count_allocations(|| {
            let events = session.push_samples(&chunks[i % 2]).expect("stream push");
            assert!(!events.is_empty(), "class flip must emit traced events");
            traces.clear();
            session.drain_new_traces(&mut traces);
        });
        assert!(!traces.is_empty(), "events must leave traces to drain");
        counts.push(n);
    }
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "tracing changed the steady-state allocation profile: {counts:?}"
    );
    let stages = session.stage_stats();
    assert!(stages.count() >= 8, "recorder missed the traced events");
}

#[test]
fn steady_state_batched_quant_forward_makes_zero_heap_allocations() {
    let _serial = serial_kernels();
    let qmodel = quant_model();
    let x = window(8, 9);
    let mut arena = TensorArena::new();
    for _ in 0..2 {
        let y = qmodel.forward_infer_in(&x, &mut arena);
        arena.recycle(y);
    }
    let steady = count_allocations(|| {
        let y = qmodel.forward_infer_in(&x, &mut arena);
        arena.recycle(y);
    });
    assert_eq!(steady, 0, "batched steady-state int8 forward hit the heap");
}

/// The process thread cap serialises an int8 batch too: under a cap of 1
/// a 32-window batch — which would fan out by work — stays on the calling
/// thread. Spawning a thread allocates, so zero allocations proves nothing
/// was spawned.
#[test]
fn capped_32_window_quant_forward_spawns_nothing() {
    let _serial = serial_kernels();
    let qmodel = quant_model();
    let x = window(32, 19);
    let mut arena = TensorArena::new();
    for _ in 0..2 {
        let y = qmodel.forward_infer_in(&x, &mut arena);
        arena.recycle(y);
    }
    let steady = count_allocations(|| {
        let y = qmodel.forward_infer_in(&x, &mut arena);
        arena.recycle(y);
    });
    assert_eq!(steady, 0, "a capped 32-window int8 forward hit the heap");
}

/// The same for the fp32 model: under a cap of 1 a 32-window batch stays
/// on the calling thread and runs the batched body on the caller's arena.
#[test]
fn capped_32_window_fp32_forward_spawns_nothing() {
    let _serial = serial_kernels();
    let model = Bioformer::new(&BioformerConfig::bio1());
    let x = window(32, 21);
    let mut arena = TensorArena::new();
    for _ in 0..2 {
        let y = model.forward_infer_in(&x, &mut arena);
        arena.recycle(y);
    }
    let steady = count_allocations(|| {
        let y = model.forward_infer_in(&x, &mut arena);
        arena.recycle(y);
    });
    assert_eq!(steady, 0, "a capped 32-window fp32 forward hit the heap");
    assert_eq!(
        model.scratch_pool().largest(TensorArena::pooled_capacity),
        0
    );
}

/// A fanned-out fp32 batch runs each shard's windows one at a time, so
/// what the model's pool keeps after a 128-window forward is one window's
/// scratch per shard — not a shard's worth of windows.
#[test]
fn fanned_out_fp32_forward_pools_one_window_of_scratch() {
    let _two = thread_cap(2);
    let model = Bioformer::new(&BioformerConfig::bio1());
    let mut one = TensorArena::new();
    let y = model.forward_infer_in(&window(1, 27), &mut one);
    one.recycle(y);
    let y = model.forward_infer(&window(128, 29));
    assert_eq!(y.dims(), &[128, 8]);
    let pooled = model.scratch_pool().largest(TensorArena::pooled_capacity);
    assert!(pooled > 0, "a 128-window batch fans out through the pool");
    assert!(
        pooled <= one.pooled_capacity(),
        "a pooled arena holds {pooled} floats, one window needs {}",
        one.pooled_capacity()
    );
}

/// Wire-sized batches never spawn: under the *default* thread cap, the
/// serving entry point of the int8 model serves batches of 1 and 2 windows
/// (what a live stream's worker coalesces) inline, from the engine's arena
/// and the model's warmed pool, with zero allocations.
#[test]
fn wire_sized_quant_batches_make_zero_heap_allocations_under_the_default_cap() {
    let _default = thread_cap(0);
    let qmodel = quant_model();
    let mut arena = TensorArena::new();
    for batch in [1, 2] {
        let x = window(batch, 23);
        for _ in 0..2 {
            let y = qmodel.predict_batch_in(&x, &mut arena);
            arena.recycle(y);
        }
        let steady = count_allocations(|| {
            let y = qmodel.predict_batch_in(&x, &mut arena);
            arena.recycle(y);
        });
        assert_eq!(
            steady, 0,
            "a {batch}-window int8 serving batch hit the heap (spawned?)"
        );
    }
}

/// A trivial classifier: class = sign of the window's first sample.
struct FirstSample;

impl GestureClassifier for FirstSample {
    fn predict_batch(&self, windows: &Tensor) -> Tensor {
        let n = windows.dims()[0];
        let len = windows.data().len() / n.max(1);
        Tensor::from_fn(&[n, 2], |i| {
            let x = windows.data()[(i / 2) * len];
            if i % 2 == 0 {
                x
            } else {
                -x
            }
        })
    }

    fn num_classes(&self) -> usize {
        2
    }

    fn name(&self) -> &str {
        "first-sample"
    }
}

/// The completion-driven path's idle cost: polling a session whose window
/// is still in flight — check the front of the queue, re-register the
/// wake-up on it, put it back — touches the heap not once. The backend is
/// held at a gate, so "in flight" is a fact, not a hope; once the gate
/// opens the wake-up fires exactly once and the poll that follows absorbs
/// the window. (A request's completion slot itself is one allocation, made
/// at submission; see `PendingResponse`.)
#[test]
fn polling_a_session_with_a_window_in_flight_makes_zero_heap_allocations() {
    let (backend, gate, entered) = common::gated(FirstSample);
    let engine = common::async_engine(backend);
    let cfg = StreamConfig::new(2, 4)
        .with_lookahead(2)
        .with_policy(DecisionPolicy {
            vote_depth: 1,
            min_hold: 0,
            confidence_floor: 0.0,
        });
    let mut session = StreamSession::new(engine, cfg).expect("valid stream config");
    let (woken, wake_ups) = mpsc::channel();
    let woken = Mutex::new(woken);
    let hook: ReadyHook = Arc::new(move || {
        let _ = woken.lock().unwrap().send(());
    });
    session.wake_with(hook);

    let events = session.push_samples(&[1.0; 8]).expect("push");
    assert!(events.is_empty(), "the window is not served yet");
    entered
        .recv_timeout(common::PATIENCE)
        .expect("the window reaches the backend");
    let allocations = count_allocations(|| {
        for _ in 0..1000 {
            assert!(session.poll().expect("poll").is_empty());
        }
    });
    assert_eq!(allocations, 0, "an idle poll hit the heap");
    assert_eq!(session.pending(), 1);

    gate.open();
    wake_ups
        .recv_timeout(common::PATIENCE)
        .expect("the completion wakes the session's owner");
    assert_eq!(session.poll().expect("poll").len(), 1, "the Started event");
    assert_eq!(session.pending(), 0);
    assert!(
        wake_ups.try_recv().is_err(),
        "one window in flight, one wake-up"
    );
}

/// The gateway's decode of one wire burst — a 700-sample `Samples` frame,
/// 350 ms of two-channel or 50 ms of 14-channel signal — makes exactly one
/// heap allocation: the sample vector itself. No per-sample label string.
#[test]
fn decoding_a_samples_frame_allocates_only_the_samples() {
    let samples: Vec<f32> = (0..700).map(|i| i as f32 * 0.25 - 40.0).collect();
    let mut wire = Vec::new();
    encode_frame(&Frame::Samples(samples.clone()), &mut wire).expect("encode");
    let mut decoder = FrameDecoder::new();
    decoder.feed(&wire);
    let mut frame = None;
    let allocations = count_allocations(|| {
        frame = decoder.next_frame().expect("a valid frame");
    });
    assert_eq!(allocations, 1, "one allocation per decoded Samples frame");
    assert_eq!(frame, Some(Frame::Samples(samples)));
}

/// Heap allocations of one warmed bio1 training step (forward, loss and
/// backward) at batch 16 on one thread: each layer's output and input
/// gradient, the loss's two tensors and the LayerNorm parameter blocks.
/// Packed panels, per-head products, weight-gradient blocks and forward
/// caches come from buffers the previous step left, so no per-GEMM or
/// per-head allocation can come back unnoticed (the full-row step made
/// 2 795 here).
const TRAIN_STEP_ALLOCATIONS: u64 = 39;

#[test]
fn warmed_training_step_allocates_only_layer_outputs() {
    let _serial = serial_kernels();
    let mut model = Bioformer::new(&BioformerConfig::bio1());
    let x = window(16, 21);
    let labels: Vec<usize> = (0..16).map(|i| i % 8).collect();
    let mut step = || {
        let logits = model.forward(&x, true);
        let (_, dlogits) = cross_entropy(&logits, &labels);
        model.backward(&dlogits);
    };
    step();
    step();
    let allocations = count_allocations(step);
    assert!(
        allocations <= TRAIN_STEP_ALLOCATIONS,
        "a warmed training step made {allocations} heap allocations"
    );
}

/// Heap allocations of one warmed TEMPONet training step at batch 8 on one
/// thread (678 before the ReLUs refreshed their caches in place and the
/// convolutions' per-sample input gradients stopped copying the weight).
/// What is left is each layer's output and input gradient and the
/// per-sample input-gradient products of the convolutions, which a
/// batched `dx` GEMM would remove.
const TEMPONET_STEP_ALLOCATIONS: u64 = 584;

#[test]
fn warmed_temponet_training_step_allocations_stay_bounded() {
    let _serial = serial_kernels();
    let mut model = TempoNet::new(3);
    let x = window(8, 23);
    let labels: Vec<usize> = (0..8).map(|i| i % 8).collect();
    let mut step = || {
        let logits = model.forward(&x, true);
        let (_, dlogits) = cross_entropy(&logits, &labels);
        model.backward(&dlogits);
    };
    step();
    step();
    let allocations = count_allocations(step);
    assert!(
        allocations <= TEMPONET_STEP_ALLOCATIONS,
        "a warmed TEMPONet training step made {allocations} heap allocations"
    );
}
