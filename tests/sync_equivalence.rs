//! Cross-crate end-to-end: the paper's "convergence friendly" column of
//! Table 2, executed. Synchronous schedules of every scheme and shape train
//! bit-identically to sequential mini-batch SGD on a real transformer.

use std::sync::Arc;

use proptest::prelude::*;

use chimera::comm::{TcpFabric, Transport};
use chimera::core::baselines::{dapple, gems, gpipe};
use chimera::core::chimera::{chimera, ChimeraConfig, ScaleMethod};
use chimera::core::schedule::{Schedule, SyncStrategy};
use chimera::core::sync::place_sync;
use chimera::core::unit_time::UnitCosts;
use chimera::nn::{ModelConfig, ReferenceTrainer, Stage, SyntheticData};
use chimera::runtime::{train, train_worker_process, TrainOptions};

fn opts(iterations: u32) -> TrainOptions {
    TrainOptions {
        micro_batch: 1,
        iterations,
        lr: 0.08,
        momentum: 0.9,
        data_seed: 2024,
        ..TrainOptions::default()
    }
}

fn cfg_for(d: u32) -> ModelConfig {
    ModelConfig {
        layers: d as usize,
        hidden: 16,
        heads: 2,
        seq: 4,
        vocab: 29,
        causal: true,
        seed: 11,
    }
}

fn check(sched: &Schedule, iterations: u32) {
    let cfg = cfg_for(sched.d);
    let o = opts(iterations);
    let result = train(sched, cfg, o.clone()).expect("training succeeds");
    let mut reference = ReferenceTrainer::new(
        Stage::build_all(cfg, sched.d),
        SyntheticData::new(cfg, o.data_seed),
        o.micro_batch,
        o.lr,
        o.momentum,
    );
    for it in 0..iterations {
        reference.train_iteration(it as u64 * sched.n as u64, sched.n);
    }
    assert_eq!(
        result.flat_params(),
        reference.flat_params(),
        "{} D={} N={} diverged from sequential SGD",
        sched.scheme,
        sched.d,
        sched.n
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random (D, N) Chimera configurations — N below, at, and above D.
    #[test]
    fn chimera_random_shapes_bitexact(dh in 1u32..4, n in 1u32..13) {
        let d = 2 * dh;
        check(&chimera(&ChimeraConfig::new(d, n)).unwrap(), 2);
    }
}

#[test]
fn chimera_n_less_than_d_bitexact() {
    for n in [1u32, 2, 3] {
        check(&chimera(&ChimeraConfig::new(4, n)).unwrap(), 2);
    }
}

#[test]
fn chimera_d6_bitexact() {
    check(&chimera(&ChimeraConfig::new(6, 6)).unwrap(), 2);
}

#[test]
fn chimera_f2_d8_bitexact() {
    check(
        &chimera(&ChimeraConfig {
            d: 8,
            n: 8,
            f: 2,
            scale: ScaleMethod::Direct,
        })
        .unwrap(),
        2,
    );
}

#[test]
fn all_sync_strategies_bitexact() {
    for strat in [
        SyncStrategy::PostHoc,
        SyncStrategy::Eager,
        SyncStrategy::EagerOpt,
    ] {
        let sched = place_sync(
            chimera(&ChimeraConfig::new(4, 8)).unwrap(),
            strat,
            UnitCosts::practical(),
        );
        check(&sched, 2);
    }
}

#[test]
fn baselines_bitexact() {
    check(&gpipe(4, 8), 2);
    check(&dapple(4, 8), 2);
    check(&gems(4, 4), 2);
}

#[test]
fn recompute_bitexact_everywhere() {
    check(
        &chimera(&ChimeraConfig::new(4, 4)).unwrap().with_recompute(),
        2,
    );
    check(&dapple(4, 4).with_recompute(), 2);
}

/// Train `sched` with one `train_worker_process` per rank over
/// `TcpFabric::loopback` and require parameters and per-iteration losses
/// bit-identical to the in-process run.
fn check_over_tcp(sched: &Schedule, cfg: ModelConfig, o: TrainOptions) {
    let endpoints = TcpFabric::loopback(sched.num_workers() as u32).expect("loopback fabric");
    let handles: Vec<_> = endpoints
        .into_iter()
        .map(|ep| {
            let sched = sched.clone();
            let o = o.clone();
            std::thread::spawn(move || {
                train_worker_process(Arc::new(ep) as Arc<dyn Transport>, &sched, cfg, o, 1)
                    .expect("tcp worker trains")
            })
        })
        .collect();
    let mut outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let tcp = outcomes.remove(0).expect("rank 0 assembles the outcome");

    let local = train(sched, cfg, o).expect("in-process training succeeds");
    let tcp_bits: Vec<u32> = tcp.flat_params.iter().map(|f| f.to_bits()).collect();
    let local_bits: Vec<u32> = local.flat_params().iter().map(|f| f.to_bits()).collect();
    assert_eq!(
        tcp_bits, local_bits,
        "{} D={} N={}: tcp fabric diverged from in-process",
        sched.scheme, sched.d, sched.n
    );
    assert_eq!(tcp.iteration_losses.len(), local.iteration_losses.len());
    for (a, b) in tcp.iteration_losses.iter().zip(&local.iteration_losses) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// D=4 Chimera over the TCP transport (real loopback sockets, the full wire
/// path: framing, rendezvous, reader threads) trains bit-identically to the
/// in-process channel fabric — and therefore to sequential SGD.
#[test]
fn chimera_d4_over_tcp_bitexact() {
    let sched = chimera(&ChimeraConfig::new(4, 4)).unwrap();
    check_over_tcp(&sched, cfg_for(sched.d), opts(2));
}

/// The benchmark's TCP job: Chimera and DAPPLE at D=2, N=8 on the narrow
/// model (hidden 64, seq 16, vocab 256, 4 layers, B=2, one kernel thread
/// per worker), whose stage gradients are ~117k floats — large frames
/// that span many socket reads.
#[test]
fn chimera_d2_n8_over_tcp_bitexact() {
    let cfg = ModelConfig {
        layers: 4,
        hidden: 64,
        heads: 4,
        seq: 16,
        vocab: 256,
        causal: true,
        seed: 7,
    };
    let o = TrainOptions {
        micro_batch: 2,
        iterations: 2,
        data_seed: 2024,
        threads: Some(1),
        ..TrainOptions::default()
    };
    for sched in [chimera(&ChimeraConfig::new(2, 8)).unwrap(), dapple(2, 8)] {
        check_over_tcp(&sched, cfg, o.clone());
    }
}

/// Different synchronous schemes produce the same model as each other, so
/// the practitioner can choose purely on throughput (§2's point).
#[test]
fn schemes_interchangeable() {
    let d = 4;
    let n = 4;
    let cfg = cfg_for(d);
    let o = opts(3);
    let a = train(&chimera(&ChimeraConfig::new(d, n)).unwrap(), cfg, o.clone()).unwrap();
    let b = train(&gpipe(d, n), cfg, o.clone()).unwrap();
    let c = train(&gems(d, n), cfg, o).unwrap();
    assert_eq!(a.flat_params(), b.flat_params());
    assert_eq!(a.flat_params(), c.flat_params());
    assert_eq!(a.iteration_losses, b.iteration_losses);
}
