//! The bounded MPSC request queue feeding the [`AsyncEngine`] worker pool,
//! and the one-shot completion slot each request's answer comes back in.
//!
//! Many client threads push requests concurrently (the **MP** side); the
//! engine's workers pop them (the **SC** side is generalised to a small
//! consumer pool — each request is still consumed exactly once). The queue
//! is bounded: when `capacity` requests are waiting, the blocking push
//! waits and the non-blocking push fails fast, which is the engine's
//! backpressure signal. Closing the queue wakes every waiter; pops drain
//! the remaining requests before reporting shutdown so no accepted request
//! is ever dropped.
//!
//! [`AsyncEngine`]: super::AsyncEngine

use bioformer_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Errors surfaced by the asynchronous serving path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded request queue is at capacity (backpressure): the client
    /// should retry later, shed load, or use the blocking submit path.
    QueueFull,
    /// The engine is shutting down and no longer accepts requests.
    ShuttingDown,
    /// The request's deadline passed before a worker started serving it.
    DeadlineExpired,
    /// The request was malformed (wrong rank, or a channel/sample shape
    /// that differs from what this engine is serving).
    BadRequest(String),
    /// The request was cancelled without being served: the backend
    /// panicked while executing its batch (the worker survives and keeps
    /// serving; see `EngineStats::failed`), or the engine terminated
    /// abnormally. Graceful shutdown never cancels accepted requests.
    Cancelled,
    /// Every replica in a sharded pool is quarantined (dead workers or a
    /// run of consecutive backend failures), so there is nowhere left to
    /// route the request. See `ShardedEngine`. The multi-tenant
    /// `StreamServer` reuses this for a session pool with no free slot.
    Unavailable,
    /// The streaming session behind this handle was evicted by the
    /// server's idle timeout. Its state was checkpointed — reconnect with
    /// the session token to resume where it left off. See `StreamServer`.
    Evicted,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull => write!(f, "request queue is full"),
            ServeError::ShuttingDown => write!(f, "engine is shutting down"),
            ServeError::DeadlineExpired => write!(f, "request deadline expired before service"),
            ServeError::BadRequest(why) => write!(f, "bad request: {why}"),
            ServeError::Cancelled => write!(f, "request cancelled without being served"),
            ServeError::Unavailable => {
                write!(f, "no healthy replica available to serve the request")
            }
            ServeError::Evicted => {
                write!(f, "session evicted by idle timeout; reconnect to resume")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// The served result of one asynchronous request, delivered through
/// [`PendingResponse::wait`].
#[derive(Debug, Clone)]
pub struct RequestOutput {
    /// Logits `[n, classes]`, row-aligned with the request's windows.
    pub logits: Tensor,
    /// Argmax class per window.
    pub predictions: Vec<usize>,
    /// Time the request spent queued (enqueue → batch execution start).
    pub queue_wait: Duration,
    /// Number of requests coalesced into the shared batch this request
    /// rode in (1 means it was served alone).
    pub batch_requests: usize,
    /// Total windows in that shared batch.
    pub batch_windows: usize,
    /// Backend time spent executing that shared batch.
    pub batch_latency: Duration,
}

/// What a request resolves to.
pub(crate) type Response = Result<RequestOutput, ServeError>;

/// A wake-up a [`PendingResponse`] can carry: called once, by whichever
/// thread completes the request. Shared (`Arc`) so a pipelining client
/// registers the same hook on window after window without allocating.
pub type ReadyHook = Arc<dyn Fn() + Send + Sync>;

/// The one-shot completion slot behind a request: the response, whether it
/// has been given, and the wake-up to fire when it is. One `Arc`
/// allocation per request; nothing else on the completion path allocates.
struct Slot {
    state: Mutex<SlotState>,
    completed: Condvar,
}

struct SlotState {
    /// `Some` from completion until the client takes it.
    response: Option<Response>,
    /// Set by the first completion; later ones are ignored.
    done: bool,
    hook: Option<ReadyHook>,
}

impl Slot {
    fn lock(&self) -> std::sync::MutexGuard<'_, SlotState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The engine's end of a completion slot. Dropping it without responding
/// (a worker died, the engine was torn down) completes the request as
/// [`ServeError::Cancelled`], so no client waits forever.
pub(crate) struct Responder(Arc<Slot>);

impl Responder {
    /// Completes the request; only the first completion counts. The
    /// registered wake-up, if any, runs on this thread after the slot's
    /// lock is released.
    pub(crate) fn send(&self, response: Response) {
        let mut st = self.0.lock();
        if st.done {
            return;
        }
        st.done = true;
        st.response = Some(response);
        let hook = st.hook.take();
        drop(st);
        self.0.completed.notify_all();
        if let Some(hook) = hook {
            hook();
        }
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        self.send(Err(ServeError::Cancelled));
    }
}

/// One queued inference request (engine-internal).
pub(crate) struct Request {
    /// Input windows `[n, channels, samples]` (`n` may be 0).
    pub(crate) windows: Tensor,
    /// If set, the instant after which the request must not be started.
    pub(crate) deadline: Option<Instant>,
    /// When the request entered the queue.
    pub(crate) enqueued: Instant,
    /// The one-shot completion slot back to the submitting client.
    pub(crate) respond: Responder,
}

impl Request {
    /// The request's `[channels, samples]` window shape.
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.windows.dims()[1], self.windows.dims()[2])
    }
}

/// Client-side handle to an in-flight request submitted to an
/// [`Engine`](super::Engine); redeem it with [`PendingResponse::wait`].
///
/// Costs one heap allocation per request (the shared completion slot).
pub struct PendingResponse {
    slot: Arc<Slot>,
    windows: usize,
}

impl std::fmt::Debug for PendingResponse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingResponse")
            .field("windows", &self.windows)
            .field("done", &self.slot.lock().done)
            .finish()
    }
}

impl PendingResponse {
    /// A fresh completion slot for a request of `windows` windows: the
    /// engine keeps the [`Responder`], the client gets the handle.
    pub(crate) fn channel(windows: usize) -> (Responder, PendingResponse) {
        let slot = Arc::new(Slot {
            state: Mutex::new(SlotState {
                response: None,
                done: false,
                hook: None,
            }),
            completed: Condvar::new(),
        });
        (
            Responder(Arc::clone(&slot)),
            PendingResponse { slot, windows },
        )
    }

    /// A handle that is already resolved (the inline engine's submit).
    pub(crate) fn ready(windows: usize, response: Response) -> PendingResponse {
        let (responder, pending) = PendingResponse::channel(windows);
        responder.send(response);
        pending
    }

    /// Number of windows in the submitted request.
    pub fn windows(&self) -> usize {
        self.windows
    }

    /// Registers `hook` to be called once, when the request completes
    /// (served, rejected, or cancelled by a dying engine) — on the
    /// completing thread, so it must be quick and must not block. If the
    /// request has already completed, `hook` runs at once on the calling
    /// thread. A later registration replaces an earlier one that has not
    /// fired.
    ///
    /// This is what lets a pipelining client sleep until a response is
    /// there instead of coming back to [`PendingResponse::try_wait`] on a
    /// timer.
    pub fn on_ready(&self, hook: ReadyHook) {
        let mut st = self.slot.lock();
        if st.done {
            drop(st);
            hook();
        } else {
            st.hook = Some(hook);
        }
    }

    /// Blocks until the request is served (or rejected), consuming the
    /// handle. Returns [`ServeError::Cancelled`] if the engine died without
    /// responding.
    pub fn wait(self) -> Result<RequestOutput, ServeError> {
        let mut st = self
            .slot
            .completed
            .wait_while(self.slot.lock(), |st| !st.done)
            .unwrap_or_else(|e| e.into_inner());
        st.response
            .take()
            .expect("a completed slot holds its response")
    }

    /// Non-blocking poll: `Ok` with the response if the request has been
    /// served (or rejected), `Err(self)` with the still-usable handle if it
    /// is still in flight. A dead engine reads as
    /// [`ServeError::Cancelled`], exactly like [`PendingResponse::wait`].
    ///
    /// This is what lets a pipelining client (e.g. a streaming session
    /// with bounded lookahead) drain completed responses opportunistically
    /// without stalling on the oldest one.
    #[allow(clippy::result_large_err)]
    pub fn try_wait(self) -> Result<Result<RequestOutput, ServeError>, PendingResponse> {
        let taken = self.slot.lock().response.take();
        taken.ok_or(self)
    }

    /// Bounded wait: blocks for at most `timeout`, then returns `Err(self)`
    /// with the still-usable handle if the request is still in flight. A
    /// dead engine reads as [`ServeError::Cancelled`], exactly like
    /// [`PendingResponse::wait`].
    #[allow(clippy::result_large_err)]
    pub fn wait_timeout(
        self,
        timeout: Duration,
    ) -> Result<Result<RequestOutput, ServeError>, PendingResponse> {
        let taken = self
            .slot
            .completed
            .wait_timeout_while(self.slot.lock(), timeout, |st| !st.done)
            .unwrap_or_else(|e| e.into_inner())
            .0
            .response
            .take();
        taken.ok_or(self)
    }
}

/// Queue interior: the deque plus the closed flag, under one mutex.
struct QueueState {
    deque: VecDeque<Request>,
    closed: bool,
}

/// A bounded multi-producer queue with blocking push/pop, linger-deadline
/// pops for batch coalescing, and drain-on-close shutdown semantics.
pub(crate) struct RequestQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl RequestQueue {
    /// Creates a queue that holds at most `capacity` waiting requests.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RequestQueue: capacity must be >= 1");
        RequestQueue {
            state: Mutex::new(QueueState {
                deque: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        // A worker panicking mid-batch poisons nothing queue-related; keep
        // serving rather than cascading the panic into every client.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of requests currently waiting.
    pub(crate) fn len(&self) -> usize {
        self.lock().deque.len()
    }

    /// Maximum number of waiting requests.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Non-blocking push: fails fast with [`ServeError::QueueFull`] when at
    /// capacity (the backpressure signal) or [`ServeError::ShuttingDown`]
    /// after [`RequestQueue::close`].
    pub(crate) fn try_push(&self, req: Request) -> Result<(), ServeError> {
        let mut st = self.lock();
        if st.closed {
            return Err(ServeError::ShuttingDown);
        }
        if st.deque.len() >= self.capacity {
            return Err(ServeError::QueueFull);
        }
        st.deque.push_back(req);
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking push: waits while the queue is full; fails only once the
    /// queue is closed.
    pub(crate) fn push(&self, req: Request) -> Result<(), ServeError> {
        let mut st = self.lock();
        loop {
            if st.closed {
                return Err(ServeError::ShuttingDown);
            }
            if st.deque.len() < self.capacity {
                st.deque.push_back(req);
                drop(st);
                self.not_empty.notify_one();
                return Ok(());
            }
            st = self.not_full.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Blocking pop: waits for a request; returns `None` only once the
    /// queue is closed **and** drained, so accepted requests always reach a
    /// worker.
    pub(crate) fn pop(&self) -> Option<Request> {
        let mut st = self.lock();
        loop {
            if let Some(req) = st.deque.pop_front() {
                drop(st);
                self.not_full.notify_one();
                return Some(req);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Pop with a linger deadline: returns an already-queued request
    /// immediately, otherwise waits until `until` for one to arrive.
    /// `None` means the linger window elapsed (or the queue closed empty) —
    /// the caller should flush its partial batch.
    pub(crate) fn pop_until(&self, until: Instant) -> Option<Request> {
        let mut st = self.lock();
        loop {
            if let Some(req) = st.deque.pop_front() {
                drop(st);
                self.not_full.notify_one();
                return Some(req);
            }
            if st.closed {
                return None;
            }
            let now = Instant::now();
            if now >= until {
                return None;
            }
            let (guard, _timeout) = self
                .not_empty
                .wait_timeout(st, until - now)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }

    /// Closes the queue: subsequent pushes fail with
    /// [`ServeError::ShuttingDown`], blocked pushers and poppers wake, and
    /// pops drain the backlog before reporting shutdown.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn dummy_request() -> (Request, PendingResponse) {
        let (respond, pending) = PendingResponse::channel(1);
        (
            Request {
                windows: Tensor::zeros(&[1, 2, 3]),
                deadline: None,
                enqueued: Instant::now(),
                respond,
            },
            pending,
        )
    }

    #[test]
    fn try_push_reports_backpressure_at_capacity() {
        let q = RequestQueue::new(2);
        assert!(q.try_push(dummy_request().0).is_ok());
        assert!(q.try_push(dummy_request().0).is_ok());
        assert_eq!(q.try_push(dummy_request().0), Err(ServeError::QueueFull));
        assert_eq!(q.len(), 2);
        let _ = q.pop().unwrap();
        assert!(q.try_push(dummy_request().0).is_ok());
    }

    #[test]
    fn close_drains_backlog_then_stops() {
        let q = RequestQueue::new(4);
        q.try_push(dummy_request().0).unwrap();
        q.try_push(dummy_request().0).unwrap();
        q.close();
        assert_eq!(q.try_push(dummy_request().0), Err(ServeError::ShuttingDown));
        assert!(q.pop().is_some());
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
    }

    #[test]
    fn pop_until_grabs_backlog_without_waiting() {
        let q = RequestQueue::new(4);
        q.try_push(dummy_request().0).unwrap();
        // Deadline already passed: must still return the queued request.
        let past = Instant::now() - Duration::from_millis(5);
        assert!(q.pop_until(past).is_some());
        assert!(q
            .pop_until(Instant::now() + Duration::from_millis(1))
            .is_none());
    }

    #[test]
    fn wait_timeout_returns_handle_then_response() {
        let (req, pending) = dummy_request();
        // Nothing responded yet: the bounded wait hands the handle back.
        let pending = match pending.wait_timeout(Duration::from_millis(1)) {
            Err(p) => p,
            Ok(r) => panic!("unexpected early response: {r:?}"),
        };
        // Engine dies (sender dropped) -> Cancelled, like wait().
        drop(req);
        match pending.wait_timeout(Duration::from_millis(1)) {
            Ok(Err(ServeError::Cancelled)) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    fn output() -> RequestOutput {
        RequestOutput {
            logits: Tensor::zeros(&[1, 4]),
            predictions: vec![0],
            queue_wait: Duration::ZERO,
            batch_requests: 1,
            batch_windows: 1,
            batch_latency: Duration::ZERO,
        }
    }

    /// A hook that counts its calls.
    fn counting_hook() -> (ReadyHook, Arc<AtomicUsize>) {
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let hook: ReadyHook = Arc::new(move || {
            seen.fetch_add(1, Ordering::SeqCst);
        });
        (hook, calls)
    }

    #[test]
    fn hook_registered_before_completion_fires_exactly_once() {
        let (responder, pending) = PendingResponse::channel(1);
        let (hook, calls) = counting_hook();
        pending.on_ready(hook);
        assert_eq!(calls.load(Ordering::SeqCst), 0, "nothing completed yet");
        responder.send(Ok(output()));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        // Only the first completion counts, and dropping the responder
        // afterwards is not another one.
        responder.send(Err(ServeError::QueueFull));
        drop(responder);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert!(pending.wait().is_ok(), "the first response is the answer");
    }

    #[test]
    fn hook_registered_after_completion_fires_at_once() {
        let (responder, pending) = PendingResponse::channel(1);
        responder.send(Ok(output()));
        let (hook, calls) = counting_hook();
        pending.on_ready(hook);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        drop(responder);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        // An already-resolved handle (the inline engine's) behaves alike.
        let ready = PendingResponse::ready(1, Ok(output()));
        let (hook, calls) = counting_hook();
        ready.on_ready(hook);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_later_hook_replaces_an_unfired_one() {
        let (responder, pending) = PendingResponse::channel(1);
        let (first, first_calls) = counting_hook();
        let (second, second_calls) = counting_hook();
        pending.on_ready(first);
        pending.on_ready(second);
        responder.send(Ok(output()));
        assert_eq!(first_calls.load(Ordering::SeqCst), 0);
        assert_eq!(second_calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn dropped_responder_reads_as_cancelled_and_wakes() {
        let (responder, pending) = PendingResponse::channel(1);
        let (hook, calls) = counting_hook();
        pending.on_ready(hook);
        drop(responder);
        assert_eq!(calls.load(Ordering::SeqCst), 1, "a dead engine wakes too");
        assert_eq!(pending.wait().unwrap_err(), ServeError::Cancelled);
        let (responder, pending) = PendingResponse::channel(1);
        drop(responder);
        match pending.try_wait() {
            Ok(Err(ServeError::Cancelled)) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn try_wait_hands_the_handle_back_until_the_response_is_there() {
        let (responder, pending) = PendingResponse::channel(3);
        let pending = pending.try_wait().expect_err("still in flight");
        assert_eq!(pending.windows(), 3);
        responder.send(Err(ServeError::DeadlineExpired));
        match pending.try_wait() {
            Ok(Err(ServeError::DeadlineExpired)) => {}
            other => panic!("expected the response, got {other:?}"),
        }
    }

    /// `wait` blocks across threads until the responder answers; the
    /// channel makes the responder answer only once the waiter is running.
    #[test]
    fn wait_blocks_until_another_thread_responds() {
        let (responder, pending) = PendingResponse::channel(1);
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            started_tx.send(()).unwrap();
            pending.wait()
        });
        started_rx.recv().unwrap();
        responder.send(Ok(output()));
        assert!(waiter.join().unwrap().is_ok());
    }

    #[test]
    fn blocking_push_waits_for_capacity() {
        let q = Arc::new(RequestQueue::new(1));
        q.try_push(dummy_request().0).unwrap();
        let q2 = Arc::clone(&q);
        let pusher = std::thread::spawn(move || q2.push(dummy_request().0).is_ok());
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(q.len(), 1, "pusher must be blocked while full");
        let _ = q.pop().unwrap();
        assert!(pusher.join().unwrap());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn close_wakes_blocked_pusher() {
        let q = Arc::new(RequestQueue::new(1));
        q.try_push(dummy_request().0).unwrap();
        let q2 = Arc::clone(&q);
        let pusher = std::thread::spawn(move || q2.push(dummy_request().0));
        std::thread::sleep(Duration::from_millis(10));
        q.close();
        assert_eq!(pusher.join().unwrap(), Err(ServeError::ShuttingDown));
    }
}
