//! Mini-batch training loop with deterministic shuffling and data-parallel
//! gradient computation.
//!
//! Each optimizer step splits its mini-batch into shards. Every shard runs
//! forward/backward on a replica of the model — made once per [`train`]
//! call and re-synced in place from the primary's weights and dropout
//! state before each step ([`Model::sync_from`]) — the first on the calling
//! thread and the others on scoped threads, and the per-shard gradients are
//! summed into the primary model in shard order. Shard gradients are scaled
//! by `shard_size / batch_size`, so without dropout the result is the
//! full-batch gradient up to float summation order.
//!
//! With dropout it is not, and the trained bits depend on the shard count,
//! hence on the machine's core count: a multi-shard step never advances the
//! primary's dropout streams (only its replicas draw masks), so every such
//! step draws the same masks, and every shard replays the stream from the
//! same position. One-shard steps (a one-core machine, or a batch under
//! eight windows) draw on the primary and do advance it.

use crate::loss::cross_entropy;
use crate::model::Model;
use crate::optim::Adam;
use crate::schedule::LrSchedule;
use bioformer_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Training-time data augmentation for `[batch, channels, len]` windows.
///
/// Substitutes for the data abundance of the real recordings: the paper's
/// DB6 protocol yields ~10⁵ highly-overlapping windows per subject, which
/// implicitly regularises position- and gain-sensitive models; the scaled
/// synthetic corpus does not, so the trainer can synthesise the same
/// invariances explicitly. Applied identically to every model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AugmentConfig {
    /// Circularly roll each window along time by a uniform offset in
    /// `0..=max_roll` samples (breaks absolute-position memorisation while
    /// keeping gross temporal structure learnable; 0 disables).
    pub max_roll: usize,
    /// Multiply each channel by `1 ± U(0, gain_jitter)` (electrode-gain
    /// robustness — the dominant component of session drift).
    pub gain_jitter: f32,
    /// Additive white-noise standard deviation.
    pub noise: f32,
}

impl Default for AugmentConfig {
    fn default() -> Self {
        // Default: amplitude-domain augmentation only. Time rolls help
        // token/attention models markedly but the mid-window splice they
        // introduce destabilises deep temporal-conv stacks, so a fair
        // shared protocol leaves them off (opt in via `max_roll`).
        AugmentConfig {
            max_roll: 0,
            gain_jitter: 0.15,
            noise: 0.05,
        }
    }
}

impl AugmentConfig {
    /// Applies the augmentation in place to a gathered batch.
    pub fn apply(&self, bx: &mut Tensor, rng: &mut StdRng) {
        use rand::Rng;
        let (b, c, l) = (bx.dims()[0], bx.dims()[1], bx.dims()[2]);
        let mut scratch = vec![0.0f32; l];
        for i in 0..b {
            let roll = if self.max_roll > 0 {
                rng.gen_range(0..=self.max_roll.min(l - 1))
            } else {
                0
            };
            for ch in 0..c {
                let gain = 1.0 + rng.gen_range(-self.gain_jitter..=self.gain_jitter);
                let row = &mut bx.data_mut()[(i * c + ch) * l..(i * c + ch + 1) * l];
                if roll > 0 {
                    scratch[..l - roll].copy_from_slice(&row[roll..]);
                    scratch[l - roll..].copy_from_slice(&row[..roll]);
                    row.copy_from_slice(&scratch);
                }
                if self.gain_jitter > 0.0 || self.noise > 0.0 {
                    for v in row.iter_mut() {
                        let n: f32 = if self.noise > 0.0 {
                            rng.gen_range(-self.noise..=self.noise)
                        } else {
                            0.0
                        };
                        *v = *v * gain + n;
                    }
                }
            }
        }
    }
}

/// Configuration of a training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Mini-batch size.
    pub batch_size: usize,
    /// Number of epochs.
    pub epochs: usize,
    /// Learning-rate schedule (evaluated per optimizer step / epoch).
    pub schedule: LrSchedule,
    /// Seed for the per-epoch shuffle.
    pub shuffle_seed: u64,
    /// Number of data-parallel shards per batch; `0` selects
    /// `min(max_threads(), batch_size / 4)`, the process thread cap of
    /// [`bioformer_tensor::parallel::max_threads`].
    pub shards: usize,
    /// Optional global-norm gradient clipping.
    pub max_grad_norm: Option<f32>,
    /// Optional training-time augmentation.
    pub augment: Option<AugmentConfig>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            batch_size: 32,
            epochs: 5,
            schedule: LrSchedule::Constant(1e-3),
            shuffle_seed: 0xB10F,
            shards: 0,
            max_grad_norm: Some(5.0),
            augment: Some(AugmentConfig::default()),
        }
    }
}

/// Loss/accuracy summary of one epoch (training metrics, computed on the
/// fly from the same forward passes used for gradients).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Mean training loss over the epoch.
    pub loss: f32,
    /// Mean training accuracy over the epoch.
    pub accuracy: f32,
}

/// Copies the windows selected by `indices` out of `[n, channels, len]`
/// into a dense batch tensor.
///
/// # Panics
///
/// Panics if `x` is not 3-D or an index is out of range.
pub fn gather_batch(x: &Tensor, indices: &[usize]) -> Tensor {
    assert_eq!(x.shape().rank(), 3, "gather_batch: x must be [N, C, L]");
    let (n, c, l) = (x.dims()[0], x.dims()[1], x.dims()[2]);
    let sample = c * l;
    let mut out = Tensor::zeros(&[indices.len(), c, l]);
    for (row, &i) in indices.iter().enumerate() {
        assert!(i < n, "gather_batch: index {i} out of range (n = {n})");
        out.data_mut()[row * sample..(row + 1) * sample]
            .copy_from_slice(&x.data()[i * sample..(i + 1) * sample]);
    }
    out
}

fn effective_shards(cfg_shards: usize, batch: usize) -> usize {
    let auto = bioformer_tensor::parallel::max_threads();
    let requested = if cfg_shards == 0 { auto } else { cfg_shards };
    requested.min((batch / 4).max(1))
}

/// The data-parallel side of one [`train`] call: shard `k` of a multi-shard
/// step runs on `replicas[k]`, and `grads` stages a replica's gradients on
/// their way into the primary. Both live until `train` returns.
struct Shards<M> {
    replicas: Vec<M>,
    grads: Vec<f32>,
}

impl<M> Default for Shards<M> {
    fn default() -> Self {
        Shards {
            replicas: Vec::new(),
            grads: Vec::new(),
        }
    }
}

/// Forward, loss and backward of one shard on `model`, its gradient scaled
/// by `scale`. Returns `(summed loss, correct predictions)`.
fn shard_gradient<M: Model>(model: &mut M, x: &Tensor, y: &[usize], scale: f32) -> (f32, usize) {
    let logits = model.forward(x, true);
    let (loss, dlogits) = cross_entropy(&logits, y);
    if scale == 1.0 {
        model.backward(&dlogits);
    } else {
        // Rescale so the summed shard gradients equal the full-batch mean
        // gradient.
        model.backward(&dlogits.scale(scale));
    }
    let correct = logits
        .argmax_rows()
        .iter()
        .zip(y.iter())
        .filter(|(p, l)| p == l)
        .count();
    (loss * y.len() as f32, correct)
}

/// Computes the full-batch gradient of `model` on `(bx, by)` using `shards`
/// data-parallel workers; gradients end up accumulated in `model`.
/// Returns `(summed loss, correct predictions)`.
fn batch_gradient<M: Model>(
    model: &mut M,
    pool: &mut Shards<M>,
    bx: &Tensor,
    by: &[usize],
    shards: usize,
) -> (f32, usize) {
    let batch = by.len();
    if shards <= 1 {
        return shard_gradient(model, bx, by, 1.0);
    }

    let per = batch.div_ceil(shards);
    let used = batch.div_ceil(per);
    while pool.replicas.len() < used {
        let mut replica = model.clone();
        replica.clear_cache();
        pool.replicas.push(replica);
    }
    let (c, l) = (bx.dims()[1], bx.dims()[2]);
    let sample = c * l;
    let mut results = vec![(0.0f32, 0usize); used];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        let mut first = None;
        for (k, (replica, result)) in pool.replicas[..used]
            .iter_mut()
            .zip(results.iter_mut())
            .enumerate()
        {
            replica.sync_from(model);
            replica.zero_grad();
            let (start, end) = (k * per, ((k + 1) * per).min(batch));
            let shard_x = Tensor::from_vec(
                bx.data()[start * sample..end * sample].to_vec(),
                &[end - start, c, l],
            );
            let shard_y = &by[start..end];
            let scale = (end - start) as f32 / batch as f32;
            let run = move || *result = shard_gradient(replica, &shard_x, shard_y, scale);
            if k == 0 {
                first = Some(run);
            } else {
                handles.push(scope.spawn(run));
            }
        }
        if let Some(mut run) = first {
            run();
        }
        for h in handles {
            h.join().expect("training shard panicked");
        }
    });

    let mut loss_sum = 0.0f32;
    let mut correct = 0usize;
    for (replica, (loss, corr)) in pool.replicas[..used].iter_mut().zip(&results) {
        pool.grads.clear();
        replica.visit_params(&mut |p| pool.grads.extend_from_slice(p.grad.data()));
        let mut offset = 0;
        model.visit_params(&mut |p| {
            p.accumulate_slice(&pool.grads[offset..offset + p.len()]);
            offset += p.len();
        });
        loss_sum += loss;
        correct += corr;
    }
    (loss_sum, correct)
}

/// Rescales all gradients so their global L2 norm is at most `max_norm`.
fn clip_grad_norm<M: Model>(model: &mut M, max_norm: f32) {
    let mut norm_sq = 0.0f32;
    model.visit_params(&mut |p| norm_sq += p.grad.norm_sq());
    let norm = norm_sq.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        model.visit_params(&mut |p| p.grad.scale_in_place(scale));
    }
}

/// Trains `model` for `cfg.epochs` epochs on windows `x` (`[N, C, L]`) with
/// integer `labels`, using Adam. Returns per-epoch training statistics.
///
/// The model comes back with its forward caches cleared
/// ([`Model::clear_cache`]): no activations of the last mini-batch travel
/// into the converted or served model.
///
/// # Panics
///
/// Panics if `x` and `labels` disagree in length or the dataset is empty.
pub fn train<M: Model>(
    model: &mut M,
    opt: &mut Adam,
    x: &Tensor,
    labels: &[usize],
    cfg: &TrainConfig,
) -> Vec<EpochStats> {
    let n = x.dims()[0];
    assert_eq!(n, labels.len(), "train: window/label count mismatch");
    assert!(n > 0, "train: empty dataset");
    let mut stats = Vec::with_capacity(cfg.epochs);
    let mut step = opt.steps() as usize;
    let mut pool = Shards::default();
    for epoch in 0..cfg.epochs {
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng =
            StdRng::seed_from_u64(cfg.shuffle_seed ^ (epoch as u64).wrapping_mul(0x9E37_79B9));
        order.shuffle(&mut rng);

        let mut loss_sum = 0.0f32;
        let mut correct = 0usize;
        for chunk in order.chunks(cfg.batch_size) {
            let mut bx = gather_batch(x, chunk);
            if let Some(aug) = &cfg.augment {
                aug.apply(&mut bx, &mut rng);
            }
            let bx = bx;
            let by: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
            let shards = effective_shards(cfg.shards, by.len());
            model.zero_grad();
            let (l, c) = batch_gradient(model, &mut pool, &bx, &by, shards);
            if let Some(max_norm) = cfg.max_grad_norm {
                clip_grad_norm(model, max_norm);
            }
            let lr = cfg.schedule.lr(step, epoch);
            opt.step(model, lr);
            step += 1;
            loss_sum += l;
            correct += c;
        }
        stats.push(EpochStats {
            loss: loss_sum / n as f32,
            accuracy: correct as f32 / n as f32,
        });
    }
    model.clear_cache();
    stats
}

/// Evaluates `model` on `(x, labels)`, returning `(mean loss, accuracy)`.
/// Runs shards of the evaluation set on cloned models across threads, as
/// many as the process thread cap
/// ([`bioformer_tensor::parallel::max_threads`]) allows.
///
/// # Panics
///
/// Panics if `x` and `labels` disagree in length.
pub fn evaluate<M: Model>(
    model: &M,
    x: &Tensor,
    labels: &[usize],
    batch_size: usize,
) -> (f32, f32) {
    let n = x.dims()[0];
    assert_eq!(n, labels.len(), "evaluate: window/label count mismatch");
    if n == 0 {
        return (0.0, 0.0);
    }
    let threads = bioformer_tensor::parallel::max_threads()
        .min(n.div_ceil(batch_size.max(1)))
        .max(1);
    let per = n.div_ceil(threads);
    let (c, l) = (x.dims()[1], x.dims()[2]);
    let sample = c * l;

    let mut loss_sum = 0.0f32;
    let mut correct = 0usize;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        let mut start = 0usize;
        while start < n {
            let end = (start + per).min(n);
            let mut worker = model.clone();
            worker.clear_cache();
            let shard_labels = &labels[start..end];
            let shard_data = &x.data()[start * sample..end * sample];
            handles.push(scope.spawn(move || {
                let mut loss = 0.0f32;
                let mut corr = 0usize;
                let count = end - start;
                let mut off = 0usize;
                while off < count {
                    let bend = (off + batch_size).min(count);
                    let bx = Tensor::from_vec(
                        shard_data[off * sample..bend * sample].to_vec(),
                        &[bend - off, c, l],
                    );
                    let by = &shard_labels[off..bend];
                    let logits = worker.forward(&bx, false);
                    let (bl, _) = cross_entropy(&logits, by);
                    loss += bl * (bend - off) as f32;
                    corr += logits
                        .argmax_rows()
                        .iter()
                        .zip(by.iter())
                        .filter(|(p, l)| p == l)
                        .count();
                    off = bend;
                }
                (loss, corr)
            }));
            start = end;
        }
        for h in handles {
            let (l, cnt) = h.join().expect("evaluation shard panicked");
            loss_sum += l;
            correct += cnt;
        }
    });
    (loss_sum / n as f32, correct as f32 / n as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;
    use crate::param::Param;
    use rand::Rng;

    #[derive(Clone)]
    struct Toy {
        lin: Linear,
    }

    impl Model for Toy {
        fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
            let b = x.dims()[0];
            let features = x.len() / b;
            self.lin.forward(&x.reshape(&[b, features]), train)
        }
        fn backward(&mut self, d: &Tensor) {
            let _ = self.lin.backward(d);
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            self.lin.visit_params(f);
        }
        fn clear_cache(&mut self) {
            self.lin.clear_cache();
        }
    }

    fn toy_dataset(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Tensor::zeros(&[n, 1, 6]);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 3;
            labels.push(class);
            for j in 0..6 {
                let base = if j == class * 2 { 1.5 } else { 0.0 };
                x.data_mut()[i * 6 + j] = base + rng.gen_range(-0.4f32..0.4);
            }
        }
        (x, labels)
    }

    fn toy_model(seed: u64) -> Toy {
        let mut rng = StdRng::seed_from_u64(seed);
        Toy {
            lin: Linear::new("toy", 6, 3, &mut rng),
        }
    }

    #[test]
    fn gather_batch_selects_rows() {
        let x = Tensor::from_fn(&[4, 1, 2], |i| i as f32);
        let b = gather_batch(&x, &[2, 0]);
        assert_eq!(b.dims(), &[2, 1, 2]);
        assert_eq!(b.data(), &[4.0, 5.0, 0.0, 1.0]);
    }

    #[test]
    fn training_learns_toy_problem() {
        let (x, labels) = toy_dataset(90, 0);
        let mut model = toy_model(1);
        let mut opt = Adam::default();
        let cfg = TrainConfig {
            batch_size: 16,
            epochs: 25,
            schedule: LrSchedule::Constant(0.02),
            shards: 1,
            augment: None,
            ..TrainConfig::default()
        };
        let stats = train(&mut model, &mut opt, &x, &labels, &cfg);
        let final_acc = stats.last().unwrap().accuracy;
        assert!(final_acc > 0.9, "final training accuracy {final_acc}");
        let (_, eval_acc) = evaluate(&model, &x, &labels, 32);
        assert!(eval_acc > 0.9, "eval accuracy {eval_acc}");
    }

    #[test]
    fn sharded_gradient_matches_single_shard() {
        let (x, labels) = toy_dataset(24, 2);
        let mut m1 = toy_model(3);
        let mut m2 = m1.clone();
        m1.zero_grad();
        m2.zero_grad();
        let by: Vec<usize> = labels.clone();
        let (l1, c1) = batch_gradient(&mut m1, &mut Shards::default(), &x, &by, 1);
        let (l2, c2) = batch_gradient(&mut m2, &mut Shards::default(), &x, &by, 4);
        assert!((l1 - l2).abs() < 1e-3, "loss {l1} vs {l2}");
        assert_eq!(c1, c2);
        let g1 = m1.grads();
        let g2 = m2.grads();
        for (a, b) in g1.iter().zip(g2.iter()) {
            assert!(a.allclose(b, 1e-4), "sharded gradient differs");
        }
    }

    #[test]
    fn training_is_deterministic_given_seeds() {
        let (x, labels) = toy_dataset(60, 4);
        let cfg = TrainConfig {
            batch_size: 16,
            epochs: 3,
            schedule: LrSchedule::Constant(0.01),
            shards: 1,
            augment: None,
            ..TrainConfig::default()
        };
        let mut m1 = toy_model(5);
        let mut o1 = Adam::default();
        let s1 = train(&mut m1, &mut o1, &x, &labels, &cfg);
        let mut m2 = toy_model(5);
        let mut o2 = Adam::default();
        let s2 = train(&mut m2, &mut o2, &x, &labels, &cfg);
        assert_eq!(s1.len(), s2.len());
        for (a, b) in s1.iter().zip(s2.iter()) {
            assert!((a.loss - b.loss).abs() < 1e-6);
        }
    }

    #[test]
    fn grad_clipping_bounds_norm() {
        let (x, labels) = toy_dataset(12, 6);
        let mut model = toy_model(7);
        model.zero_grad();
        // Huge synthetic gradient.
        let logits = model.forward(&x, true);
        let (_, d) = cross_entropy(&logits, &labels);
        model.backward(&d.scale(1e6));
        clip_grad_norm(&mut model, 1.0);
        let mut norm_sq = 0.0;
        model.visit_params(&mut |p| norm_sq += p.grad.norm_sq());
        assert!((norm_sq.sqrt() - 1.0).abs() < 1e-3);
    }

    /// A [`Toy`] that records which threads its forward ran on (clones
    /// share the record).
    #[derive(Clone)]
    struct Traced {
        toy: Toy,
        threads: std::sync::Arc<std::sync::Mutex<Vec<std::thread::ThreadId>>>,
    }

    impl Model for Traced {
        fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
            self.threads
                .lock()
                .unwrap()
                .push(std::thread::current().id());
            self.toy.forward(x, train)
        }
        fn backward(&mut self, d: &Tensor) {
            self.toy.backward(d);
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            self.toy.visit_params(f);
        }
        fn clear_cache(&mut self) {
            self.toy.clear_cache();
        }
    }

    /// The process thread cap binds the trainer: under a cap of 1,
    /// `evaluate` runs every batch's forward on one thread and `train`
    /// picks one shard.
    #[test]
    fn a_thread_cap_of_one_serialises_evaluation_and_sharding() {
        use bioformer_tensor::parallel::set_max_threads;
        let (x, labels) = toy_dataset(64, 9);
        let model = Traced {
            toy: toy_model(10),
            threads: Default::default(),
        };
        set_max_threads(1);
        let shards = effective_shards(0, 64);
        let _ = evaluate(&model, &x, &labels, 8);
        set_max_threads(0);
        assert_eq!(shards, 1);
        let mut threads = model.threads.lock().unwrap().clone();
        assert_eq!(threads.len(), 8, "one forward per batch of 8");
        threads.dedup();
        assert_eq!(threads.len(), 1, "forwards ran on {threads:?}");
    }

    /// A [`Toy`] that knows whether it holds a training forward's caches.
    #[derive(Clone)]
    struct Cached {
        toy: Toy,
        cached: bool,
    }

    impl Model for Cached {
        fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
            self.cached |= train;
            self.toy.forward(x, train)
        }
        fn backward(&mut self, d: &Tensor) {
            self.toy.backward(d);
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            self.toy.visit_params(f);
        }
        fn clear_cache(&mut self) {
            self.cached = false;
            self.toy.clear_cache();
        }
    }

    /// On one shard the primary runs every forward itself; `train` still
    /// hands it back without the last mini-batch's activations.
    #[test]
    fn train_returns_a_model_without_forward_caches() {
        let (x, labels) = toy_dataset(20, 11);
        let mut model = Cached {
            toy: toy_model(12),
            cached: false,
        };
        let cfg = TrainConfig {
            batch_size: 8,
            epochs: 1,
            shards: 1,
            augment: None,
            ..TrainConfig::default()
        };
        let _ = train(&mut model, &mut Adam::default(), &x, &labels, &cfg);
        assert!(!model.cached, "train left forward caches in the model");
    }

    #[test]
    fn evaluate_empty_returns_zero() {
        let model = toy_model(8);
        let x = Tensor::zeros(&[0, 1, 6]);
        let (l, a) = evaluate(&model, &x, &[], 8);
        assert_eq!((l, a), (0.0, 0.0));
    }
}
