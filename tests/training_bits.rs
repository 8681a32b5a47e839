//! Pins the trained weights bit for bit.
//!
//! A training run is deterministic for a fixed seed, data set and shard
//! count, and every speed-up of the training step must keep it so: the
//! class-row last block, the weight-only patch backward and the reused
//! shard workers do less work, never different arithmetic. The weights
//! after a fixed short `run_standard` are pinned by golden checksums taken
//! from the full-row training step, in the two flavours of fp32 arithmetic
//! (the fused multiply-add tiles, and the portable tile the CI
//! `portable-fallback` job dispatches); the process's dispatched tier picks
//! which one applies.
//!
//! The shard count is part of the input. With dropout on, a data-parallel
//! step draws every shard's masks from the model's stream as it stood
//! before the step, and that stream does not advance (see
//! `bioformer_nn::trainer`), so one shard and two shards train different
//! weights. Both are pinned, under a thread cap that the tests of this
//! binary take in turn.

use bioformers::core::protocol::{run_standard, ProtocolConfig};
use bioformers::core::{Bioformer, BioformerConfig, TempoNet};
use bioformers::nn::serialize::state_dict;
use bioformers::nn::Model;
use bioformers::semg::{DatasetSpec, NinaproDb6};
use bioformers::tensor::{parallel, Fp32Kernel};
use std::sync::{Mutex, MutexGuard};

/// Sets the process thread cap (and with it the trainer's shard count)
/// for as long as the guard lives.
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

/// FNV-1a over the bit patterns of every parameter, in visit order.
fn weights_checksum<M: Model>(model: &mut M) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (_, t) in state_dict(model) {
        for x in t.data() {
            for b in x.to_bits().to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// Whether the dispatched fp32 tile fuses its multiply-adds.
fn fused() -> bool {
    let name = bioformers::simd::kernels().name;
    name.contains("fma") || name.contains("avx512f")
}

/// Trains `model` on subject 0 of the tiny DB6 for `epochs` epochs under
/// a thread cap of `cap` and returns the weights' checksum.
fn trained_model_checksum<M: Model>(mut model: M, epochs: usize, cap: usize) -> u64 {
    let _cap = thread_cap(cap);
    let db = NinaproDb6::generate(&DatasetSpec::tiny());
    let protocol = ProtocolConfig {
        standard_epochs: epochs,
        ..ProtocolConfig::quick()
    };
    let _ = run_standard(&mut model, &db, 0, &protocol);
    weights_checksum(&mut model)
}

/// [`trained_model_checksum`] of a fresh Bioformer built from `cfg`.
fn trained_checksum(cfg: BioformerConfig, epochs: usize, cap: usize) -> u64 {
    trained_model_checksum(Bioformer::new(&cfg), epochs, cap)
}

/// Two blocks (one full-row, then the class-row last block), dropout on.
fn two_block_cfg() -> BioformerConfig {
    BioformerConfig {
        heads: 2,
        depth: 2,
        head_dim: 8,
        hidden: 32,
        filter: 30,
        dropout: 0.1,
        seed: 11,
        ..BioformerConfig::bio1()
    }
}

/// A checksum in both flavours of fp32 arithmetic.
struct Golden {
    fused: u64,
    portable: u64,
}

impl Golden {
    fn check(&self, got: u64, what: &str) {
        let want = if fused() { self.fused } else { self.portable };
        assert_eq!(
            got, want,
            "{what}: trained weights moved (checksum {got:#018x})"
        );
    }

    /// Checks a run whose layers were all pinned to the portable tile.
    fn check_portable(&self, got: u64, what: &str) {
        assert_eq!(
            got, self.portable,
            "{what}: pinned portable run left the portable weights (checksum {got:#018x})"
        );
    }
}

const TWO_BLOCK_ONE_SHARD: Golden = Golden {
    fused: 0x6386_f774_ae24_af94,
    portable: 0xedfe_a504_3326_667b,
};

const TEMPONET_ONE_SHARD: Golden = Golden {
    fused: 0x8b8c_e6ea_0725_657c,
    portable: 0x1310_4e76_1e0b_8c0a,
};

#[test]
fn two_block_model_on_one_shard_trains_the_golden_weights() {
    let got = trained_checksum(two_block_cfg(), 2, 1);
    TWO_BLOCK_ONE_SHARD.check(got, "two blocks, one shard");
}

#[test]
fn two_block_model_on_two_shards_trains_the_golden_weights() {
    let got = trained_checksum(two_block_cfg(), 2, 2);
    Golden {
        fused: 0x0d89_7492_e398_4f65,
        portable: 0x41ef_87f3_d38f_cc49,
    }
    .check(got, "two blocks, two shards");
}

#[test]
fn bio1_on_two_shards_trains_the_golden_weights() {
    let got = trained_checksum(BioformerConfig::bio1(), 1, 2);
    Golden {
        fused: 0x4e2e_f26f_08a7_2ee3,
        portable: 0x985d_19b8_6c6e_6c8c,
    }
    .check(got, "bio1, two shards");
}

/// TEMPONet's nine convolutions and three linears: per-sample conv `dW`,
/// the classifier's `dW`, ReLU-sparse gradients and dropout, one shard.
#[test]
fn temponet_on_one_shard_trains_the_golden_weights() {
    let got = trained_model_checksum(TempoNet::new(5), 1, 1);
    TEMPONET_ONE_SHARD.check(got, "TEMPONet, one shard");
}

/// `set_kernel` governs training too: with every layer pinned to the
/// portable tile, any build trains the portable flavour's weights. (The
/// weight gradients' kernel has no flavour: its bits are the same on
/// every tier.)
#[test]
fn pinned_portable_kernel_trains_the_portable_weights() {
    let mut bioformer = Bioformer::new(&two_block_cfg());
    bioformer.set_kernel(Fp32Kernel::Portable);
    let got = trained_model_checksum(bioformer, 2, 1);
    TWO_BLOCK_ONE_SHARD.check_portable(got, "two blocks, one shard");

    let mut temponet = TempoNet::new(5);
    temponet.set_kernel(Fp32Kernel::Portable);
    let got = trained_model_checksum(temponet, 1, 1);
    TEMPONET_ONE_SHARD.check_portable(got, "TEMPONet, one shard");
}
