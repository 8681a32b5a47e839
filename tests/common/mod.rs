//! Shared by the serving suites: a backend whose answers the test
//! releases, behind an engine that leaves windows in flight.

use bioformers::serve::{AsyncEngine, AsyncEngineConfig, Engine, GestureClassifier};
use bioformers::tensor::Tensor;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How long a test waits for something that must happen before it fails.
pub const PATIENCE: Duration = Duration::from_secs(10);

/// A one-worker `AsyncEngine` over `backend`: windows are in flight while
/// their session's owner is back asleep, so decisions arrive by completion
/// wake-up.
pub fn async_engine(backend: impl GestureClassifier + 'static) -> Arc<dyn Engine> {
    Arc::new(AsyncEngine::with_config(
        Box::new(backend),
        AsyncEngineConfig::default().with_workers(1),
    ))
}

/// A classifier behind a gate: every call reports that it has been
/// entered, then blocks until the gate is open. A test that has seen the
/// report knows a window is in flight, and decides when it is served —
/// no sleeping and hoping.
pub struct Gated<B> {
    inner: B,
    gate: Arc<(Mutex<bool>, Condvar)>,
    entered: Mutex<mpsc::Sender<()>>,
}

/// Opens the gate of a [`Gated`] backend, for good.
pub struct GateKey(Arc<(Mutex<bool>, Condvar)>);

impl GateKey {
    pub fn open(&self) {
        *self.0 .0.lock().unwrap() = true;
        self.0 .1.notify_all();
    }
}

/// `inner` behind a closed gate, the key, and the channel on which every
/// call into the backend is reported.
pub fn gated<B: GestureClassifier>(inner: B) -> (Gated<B>, GateKey, mpsc::Receiver<()>) {
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let (entered, was_entered) = mpsc::channel();
    (
        Gated {
            inner,
            gate: Arc::clone(&gate),
            entered: Mutex::new(entered),
        },
        GateKey(gate),
        was_entered,
    )
}

impl<B: GestureClassifier> GestureClassifier for Gated<B> {
    fn predict_batch(&self, windows: &Tensor) -> Tensor {
        let _ = self.entered.lock().unwrap().send(());
        let (open, changed) = &*self.gate;
        drop(
            changed
                .wait_while(open.lock().unwrap(), |open| !*open)
                .unwrap(),
        );
        self.inner.predict_batch(windows)
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
