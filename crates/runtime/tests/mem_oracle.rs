//! The static liveness engine is an *exact* oracle for runtime memory.
//!
//! For every Full-chunk scheme × depth, the peak computed by
//! `chimera_core::liveness` under probe-measured buffer sizes must equal
//! the tracked high-water mark the workers observe while actually training —
//! element for element, no tolerance. Chunked schedules (doubling/halving)
//! are covered statically in `chimera-verify`; the runtime executes
//! Full-chunk ops only.
//!
//! Separately: with prewarming on, the liveness-derived pool plan must make
//! the cold first micro-batch allocate nothing.

use chimera_core::named::build_named;
use chimera_nn::{ModelConfig, Stage};
use chimera_runtime::{mem, train, TrainOptions};

/// Full-chunk schemes the runtime can execute directly.
const RUNTIME_SCHEMES: [&str; 7] = [
    "chimera",
    "chimera-f2",
    "dapple",
    "gpipe",
    "gems",
    "pipedream",
    "pipedream-2bw",
];

fn cfg() -> ModelConfig {
    // 8 layers so every depth in {2, 4, 8} divides evenly.
    ModelConfig {
        layers: 8,
        ..ModelConfig::tiny()
    }
}

fn opts() -> TrainOptions {
    TrainOptions {
        micro_batch: 2,
        iterations: 1,
        ..TrainOptions::default()
    }
}

#[test]
fn static_peak_matches_runtime_high_water_across_matrix() {
    for d in [2u32, 4, 8] {
        for scheme in RUNTIME_SCHEMES {
            if scheme == "chimera-f2" && (d / 2) % 2 != 0 {
                continue; // f=2 needs d divisible by 4
            }
            let sched = build_named(scheme, d, 2 * d).expect("known scheme");
            let cfg = cfg();
            let opts = opts();

            let stages = Stage::build_all(cfg, d);
            let fp = mem::ModelFootprint::probe(&stages, opts.micro_batch);
            let plans = mem::plan(&sched, &fp);

            let res = train(&sched, cfg, opts).expect("train");
            assert_eq!(
                res.mem.len(),
                sched.num_workers(),
                "{scheme} d={d}: one report per worker"
            );
            for (w, (report, plan)) in res.mem.iter().zip(&plans).enumerate() {
                assert_eq!(
                    report.high_water_elems, plan.static_peak_elems,
                    "{scheme} d={d} w{w}: runtime high-water {} != static peak {}",
                    report.high_water_elems, plan.static_peak_elems
                );
            }
        }
    }
}

#[test]
fn prewarmed_first_micro_batch_allocates_nothing() {
    let sched = build_named("chimera", 4, 8).expect("known scheme");
    let res = train(&sched, cfg(), opts()).expect("train");
    for (w, report) in res.mem.iter().enumerate() {
        assert!(report.prewarmed, "w{w}: prewarm should be on by default");
        assert_eq!(
            report.first_micro_misses, 0,
            "w{w}: cold first micro-batch hit the allocator {} times",
            report.first_micro_misses
        );
    }
}

#[test]
fn without_prewarm_the_cold_start_allocates() {
    let sched = build_named("chimera", 4, 8).expect("known scheme");
    let res = train(
        &sched,
        cfg(),
        TrainOptions {
            prewarm: false,
            ..opts()
        },
    )
    .expect("train");
    let total: u64 = res.mem.iter().map(|m| m.first_micro_misses).sum();
    assert!(res.mem.iter().all(|m| !m.prewarmed));
    assert!(total > 0, "cold start with no prewarm must miss");
}
