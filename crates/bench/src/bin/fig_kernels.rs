//! Kernel-layer throughput harness: naive vs packed-panel vs
//! packed+threaded GFLOP/s, backward-kernel rates for sim calibration, the
//! zero-skip sparse entry point on 95%-zero input, GELU forward/backward
//! element throughput, and end-to-end training step time with the buffer
//! pool on/off.
//!
//! Writes `results/kernels.json` plus `BENCH_kernels.json` at the workspace
//! root (the artifact CI uploads). The JSON carries a `calibration` section
//! (measured `bwd_over_fwd` from the three kernel variants at the headline
//! shape) that `chimera profile --calibration` feeds into the simulator's
//! unit costs. Flags:
//!
//! * `--smoke`      short run for the CI bench-smoke job; still includes
//!   the 512×1024×1024 headline shape the ROADMAP targets
//! * `--check`      enforce the committed baseline
//!   (`crates/bench/baselines/kernels.json`, >20% regression fails), the
//!   `speedup_vs_naive ≥ 4.0` floor on the headline shape, the GELU
//!   forward and backward Gelem/s floor (same 20% rule), threading
//!   (mt ≥ 1.5× 1t when ≥2 cores are actually available, mt ≥ 0.9× 1t
//!   otherwise), and `end_to_end` pool ratio ≥ 1.0
//! * `--threads N`  intra-op thread count (default: `max(4, cores)`)
//!
//! The committed baseline is deliberately conservative — set well below
//! typical dev-machine throughput — so the gate catches structural
//! regressions (a lost packed panel, an accidental bounds check in the
//! microkernel) rather than CI-runner noise.

use std::process::ExitCode;
use std::time::Instant;

use chimera_bench::{arg_value, print_table, save_json};
use chimera_nn::{ModelConfig, ReferenceTrainer, Stage, SyntheticData};
use chimera_tensor::{gelu, gelu_backward, kernels, pool, Rng, Tensor};

/// Time `body` (called repeatedly) and return mean seconds per call:
/// at least `min_reps` calls and at least ~0.2 s of total wall clock.
fn time_per_call(min_reps: u32, mut body: impl FnMut()) -> f64 {
    body(); // warm the caches / pool
    let mut reps = 0u32;
    let start = Instant::now();
    while reps < min_reps || start.elapsed().as_secs_f64() < 0.2 {
        body();
        reps += 1;
    }
    start.elapsed().as_secs_f64() / f64::from(reps)
}

fn gflops(m: usize, k: usize, n: usize, secs: f64) -> f64 {
    2.0 * (m as f64) * (k as f64) * (n as f64) / secs / 1e9
}

fn randvec(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = Rng::new(seed);
    (0..len).map(|_| rng.normal()).collect()
}

/// The ROADMAP's headline kernel shape: large enough that every GEMM
/// dimension spills all cache levels, so packing either pays or doesn't.
const HEADLINE: (usize, usize, usize) = (512, 1024, 1024);

struct MatmulRow {
    shape: String,
    naive: f64,
    tiled_1t: f64,
    tiled_mt: f64,
}

/// Naive vs tiled vs tiled+threaded GFLOP/s for one `m×k×n` product.
fn bench_shape(m: usize, k: usize, n: usize, threads: usize) -> MatmulRow {
    let a = randvec(m * k, 1);
    let b = randvec(k * n, 2);
    let mut out = vec![0.0f32; m * n];

    let naive = time_per_call(3, || {
        out.iter_mut().for_each(|o| *o = 0.0);
        kernels::naive::matmul_into(&a, &b, &mut out, m, k, n);
    });
    kernels::set_threads(1);
    let tiled_1t = time_per_call(3, || {
        out.iter_mut().for_each(|o| *o = 0.0);
        kernels::matmul_into(&a, &b, &mut out, m, k, n);
    });
    kernels::set_threads(threads);
    let tiled_mt = time_per_call(3, || {
        out.iter_mut().for_each(|o| *o = 0.0);
        kernels::matmul_into(&a, &b, &mut out, m, k, n);
    });
    kernels::set_threads(1);

    MatmulRow {
        shape: format!("{m}x{k}x{n}"),
        naive: gflops(m, k, n, naive),
        tiled_1t: gflops(m, k, n, tiled_1t),
        tiled_mt: gflops(m, k, n, tiled_mt),
    }
}

/// Single-threaded GFLOP/s of the two backward-pass kernels (`aᵀ@b` for
/// `dW`, `a@bᵀ` for `dX`) at one shape, for unit-cost calibration.
fn bench_backward(m: usize, k: usize, n: usize) -> (f64, f64) {
    let a = randvec(m * k, 5);
    let at = randvec(k * m, 6);
    let b = randvec(k * n, 7);
    let bt = randvec(n * k, 8);
    let mut out = vec![0.0f32; m * n];
    kernels::set_threads(1);
    let t_mm = time_per_call(3, || {
        out.iter_mut().for_each(|o| *o = 0.0);
        kernels::t_matmul_into(&at, &b, &mut out, k, m, n);
    });
    let mm_t = time_per_call(3, || {
        out.iter_mut().for_each(|o| *o = 0.0);
        kernels::matmul_t_into(&a, &bt, &mut out, m, k, n);
    });
    (gflops(m, k, n, t_mm), gflops(m, k, n, mm_t))
}

/// Dense kernel vs the documented sparse-aware entry point on an input
/// that is 95% exact zeros (effective GFLOP/s: dense-equivalent flops over
/// wall clock, so the zero-skip win shows up as a higher number).
fn bench_zero_skip(m: usize, k: usize, n: usize) -> (f64, f64) {
    let mut rng = Rng::new(3);
    let mut a = Tensor::normal(m, k, 1.0, &mut rng);
    for (i, v) in a.data_mut().iter_mut().enumerate() {
        if i % 20 != 0 {
            *v = 0.0;
        }
    }
    let b = Tensor::normal(k, n, 1.0, &mut rng);
    let dense = time_per_call(3, || {
        std::hint::black_box(a.matmul(&b));
    });
    let skip = time_per_call(3, || {
        std::hint::black_box(a.matmul_zero_skip(&b));
    });
    (gflops(m, k, n, dense), gflops(m, k, n, skip))
}

/// GELU's shape in the ledger's wide model: fc1's output, `tokens × 4h`.
const ELEMENTWISE: (usize, usize) = (256, 2048);

/// Single-threaded GELU forward and backward throughput in Gelem/s at
/// [`ELEMENTWISE`]. Both are one fused pass, so a libm call or a branch
/// that breaks vectorization shows up as a drop of 20× or more.
fn bench_elementwise() -> (f64, f64) {
    let (rows, cols) = ELEMENTWISE;
    let mut rng = Rng::new(9);
    let x = Tensor::normal(rows, cols, 2.0, &mut rng);
    let dy = Tensor::normal(rows, cols, 1.0, &mut rng);
    let fwd = time_per_call(10, || {
        std::hint::black_box(gelu(std::hint::black_box(&x)));
    });
    let bwd = time_per_call(10, || {
        std::hint::black_box(gelu_backward(std::hint::black_box(&x), &dy));
    });
    let gelems = |secs: f64| (rows * cols) as f64 / secs / 1e9;
    (gelems(fwd), gelems(bwd))
}

struct EndToEnd {
    pool_on_ms: f64,
    pool_off_ms: f64,
    hit_rate: f64,
}

/// Per-iteration step time of the sequential reference trainer with the
/// buffer pool on vs off, plus the steady-state pool hit rate.
///
/// The two modes **alternate** round-by-round and the **minimum** per mode
/// is kept: the `--check` gate asserts pool-on is never slower than
/// pool-off, best-of-N strips container-scheduler noise from a
/// sub-millisecond loop (the mean once reported pool-on "losing" at ratio
/// 0.94 purely from a descheduling blip), and interleaving makes slow
/// machine drift — thermals, a background compile — hit both modes equally
/// instead of whichever happened to run second.
fn bench_end_to_end(iters: u32) -> EndToEnd {
    let cfg = ModelConfig::tiny();
    let n = 4u32;
    const ROUNDS: u32 = 5;
    let mk = || {
        let mut r = ReferenceTrainer::new(
            Stage::build_all(cfg, 2),
            SyntheticData::new(cfg, 7),
            2,
            0.05,
            0.9,
        );
        r.train_iteration(0, n); // warm-up populates the pool classes
        r
    };
    pool::set_enabled(true);
    let mut on = mk();
    pool::reset_stats(); // hit rate below covers only pooled timed iterations
    pool::set_enabled(false);
    let mut off = mk();
    let mut best = [f64::INFINITY; 2];
    for round in 0..ROUNDS {
        for (slot, pooled) in [(0usize, true), (1usize, false)] {
            pool::set_enabled(pooled);
            let r = if pooled { &mut on } else { &mut off };
            let start = Instant::now();
            for it in 1..=iters {
                let sample = u64::from(round) * u64::from(iters) + u64::from(it);
                r.train_iteration(sample * u64::from(n), n);
            }
            best[slot] = best[slot].min(start.elapsed().as_secs_f64() * 1e3 / f64::from(iters));
        }
    }
    pool::set_enabled(true);
    EndToEnd {
        pool_on_ms: best[0],
        pool_off_ms: best[1],
        hit_rate: pool::stats().hit_rate(),
    }
}

/// The committed floor: current tiled+threaded GFLOP/s per shape must stay
/// within 20% of these values.
fn load_baseline() -> Option<serde_json::Value> {
    let path = match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(m) => format!("{m}/baselines/kernels.json"),
        Err(_) => "crates/bench/baselines/kernels.json".to_string(),
    };
    let text = std::fs::read_to_string(&path).ok()?;
    serde_json::from_str(&text).ok()
}

fn check_regressions(
    rows: &[MatmulRow],
    gelu_gelems: (f64, f64),
    e2e: &EndToEnd,
    parallelism: usize,
) -> bool {
    let Some(baseline) = load_baseline() else {
        eprintln!("--check: no readable baseline; failing");
        return false;
    };
    let Some(shapes) = baseline.get("tiled_mt_gflops").and_then(|v| v.as_object()) else {
        eprintln!("--check: baseline missing tiled_mt_gflops; failing");
        return false;
    };
    let Some(gelu_floor) = baseline
        .get("gelu_gelems")
        .and_then(serde_json::Value::as_f64)
    else {
        eprintln!("--check: baseline missing gelu_gelems; failing");
        return false;
    };
    let mut ok = true;
    for (pass, rate) in [("forward", gelu_gelems.0), ("backward", gelu_gelems.1)] {
        if rate >= 0.8 * gelu_floor {
            println!("check gelu {pass}: {rate:.3} Gelem/s >= 0.8 x {gelu_floor:.3} ok");
        } else {
            eprintln!(
                "check gelu {pass}: REGRESSION {rate:.3} Gelem/s < 0.8 x baseline \
                 {gelu_floor:.3} (a libm call or a branch in the elementwise loop?)"
            );
            ok = false;
        }
    }
    for (shape, floor) in shapes {
        let Some(floor) = floor.as_f64() else {
            continue;
        };
        match rows.iter().find(|r| &r.shape == shape) {
            Some(r) if r.tiled_mt >= 0.8 * floor => {
                println!(
                    "check {shape}: {:.2} GFLOP/s >= 0.8 x {floor:.2} ok",
                    r.tiled_mt
                );
            }
            Some(r) => {
                eprintln!(
                    "check {shape}: REGRESSION {:.2} GFLOP/s < 0.8 x baseline {floor:.2}",
                    r.tiled_mt
                );
                ok = false;
            }
            None => {} // baseline shape not measured in this mode
        }
    }
    // Threading-regression gate: the multi-threaded kernel must never lose
    // to single-threaded beyond noise. This caught the PAR_MIN_FLOPS
    // mis-tune once (mt 0.89× 1t on small shapes, PR-5 era) — shapes below
    // the gate now run the identical sequential path, larger shapes must
    // show threading paying for itself. The 0.9 factor absorbs
    // container-scheduler noise, not structural losses. On the headline
    // shape, when the machine actually has ≥2 cores, threading must *win*:
    // mt ≥ 1.5× 1t (the 2D grid makes every shape parallel-friendly, so a
    // miss here means the partitioning broke, not that the shape is hard).
    let headline = format!("{}x{}x{}", HEADLINE.0, HEADLINE.1, HEADLINE.2);
    for r in rows {
        if r.tiled_mt < 0.9 * r.tiled_1t {
            eprintln!(
                "check {}: THREADING REGRESSION mt {:.2} GFLOP/s < 0.9 x 1t {:.2} \
                 (raise PAR_MIN_FLOPS or fix the parallel partitioning)",
                r.shape, r.tiled_mt, r.tiled_1t
            );
            ok = false;
        }
        if r.shape == headline {
            // The packed engine must hold the ROADMAP's ≥4× floor over the
            // naive loops single-threaded — thread count can't rescue it.
            if r.tiled_1t < 4.0 * r.naive {
                eprintln!(
                    "check {}: PACKED-ENGINE REGRESSION tiled_1t {:.2} GFLOP/s \
                     < 4.0 x naive {:.2}",
                    r.shape, r.tiled_1t, r.naive
                );
                ok = false;
            } else {
                println!(
                    "check {}: speedup_vs_naive {:.2} >= 4.0 ok",
                    r.shape,
                    r.tiled_1t / r.naive
                );
            }
            if parallelism >= 2 && r.tiled_mt < 1.5 * r.tiled_1t {
                eprintln!(
                    "check {}: THREADING REGRESSION mt {:.2} GFLOP/s < 1.5 x 1t \
                     {:.2} on {parallelism} cores",
                    r.shape, r.tiled_mt, r.tiled_1t
                );
                ok = false;
            }
        }
    }
    // Pool-payoff gate: recycling buffers must never cost step time. Both
    // sides are best-of-3, so a ratio below 1.0 is structural (a slow pool
    // hot path), not scheduler noise.
    let ratio = e2e.pool_off_ms / e2e.pool_on_ms;
    if ratio < 1.0 {
        eprintln!(
            "check end_to_end: POOL REGRESSION step_time_ratio_off_over_on \
             {ratio:.3} < 1.0 (pool on is slower than pool off)"
        );
        ok = false;
    } else {
        println!("check end_to_end: pool ratio {ratio:.3} >= 1.0 ok");
    }
    ok
}

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let check = std::env::args().any(|a| a == "--check");
    let threads = arg_value("--threads")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map_or(4, std::num::NonZeroUsize::get)
                .max(4)
        });

    // Smoke keeps the small shape for quick signal but must also carry the
    // headline shape: that's the number the ROADMAP targets and the
    // speedup_vs_naive gate asserts on, so CI has to track it.
    let shapes: &[(usize, usize, usize)] = if smoke {
        &[(128, 256, 256), HEADLINE]
    } else {
        &[(128, 256, 256), (256, 512, 512), HEADLINE]
    };

    let rows: Vec<MatmulRow> = shapes
        .iter()
        .map(|&(m, k, n)| bench_shape(m, k, n, threads))
        .collect();

    print_table(
        &format!("Matmul GFLOP/s (mt = {threads} threads)"),
        &["shape", "naive", "tiled 1t", "tiled mt", "mt/naive"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.shape.clone(),
                    format!("{:.2}", r.naive),
                    format!("{:.2}", r.tiled_1t),
                    format!("{:.2}", r.tiled_mt),
                    format!("{:.2}x", r.tiled_mt / r.naive),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // Backward-kernel rates at the headline shape → measured bwd/fwd ratio
    // for the simulator's unit costs (`chimera profile --calibration`).
    let (fwd_gf, t_mm_gf, mm_t_gf) = {
        let (m, k, n) = HEADLINE;
        let fwd = rows
            .iter()
            .find(|r| r.shape == format!("{m}x{k}x{n}"))
            .map_or(0.0, |r| r.tiled_1t);
        let (t_mm, mm_t) = bench_backward(m, k, n);
        (fwd, t_mm, mm_t)
    };
    // Backward = dW (aᵀ@b) + dX (a@bᵀ), each the same flop count as the
    // forward product, so time ratio = fwd_rate/t_mm_rate + fwd_rate/mm_t_rate.
    let bwd_over_fwd = fwd_gf / t_mm_gf + fwd_gf / mm_t_gf;
    print_table(
        "Backward-kernel calibration (1t, headline shape)",
        &["kernel", "GFLOP/s", "rel. to fwd"],
        &[
            vec!["fwd a@b".into(), format!("{fwd_gf:.2}"), "1.00".into()],
            vec![
                "dW aT@b".into(),
                format!("{t_mm_gf:.2}"),
                format!("{:.2}", fwd_gf / t_mm_gf),
            ],
            vec![
                "dX a@bT".into(),
                format!("{mm_t_gf:.2}"),
                format!("{:.2}", fwd_gf / mm_t_gf),
            ],
            vec!["bwd total".into(), "-".into(), format!("{bwd_over_fwd:.2}")],
        ],
    );

    let (zs_m, zs_k, zs_n) = if smoke {
        (128, 256, 256)
    } else {
        (256, 512, 512)
    };
    let (dense_gf, skip_gf) = bench_zero_skip(zs_m, zs_k, zs_n);
    print_table(
        "Zero-skip on 95%-zero input (effective GFLOP/s)",
        &["shape", "dense", "zero-skip", "skip/dense"],
        &[vec![
            format!("{zs_m}x{zs_k}x{zs_n}"),
            format!("{dense_gf:.2}"),
            format!("{skip_gf:.2}"),
            format!("{:.2}x", skip_gf / dense_gf),
        ]],
    );

    let (gelu_fwd, gelu_bwd) = bench_elementwise();
    let el_shape = format!("{}x{}", ELEMENTWISE.0, ELEMENTWISE.1);
    print_table(
        "Elementwise GELU (1t, Gelem/s)",
        &["shape", "forward", "backward"],
        &[vec![
            el_shape.clone(),
            format!("{gelu_fwd:.3}"),
            format!("{gelu_bwd:.3}"),
        ]],
    );

    let e2e = bench_end_to_end(if smoke { 2 } else { 5 });
    print_table(
        "End-to-end reference-trainer step time",
        &["pool", "ms/iter", "hit rate"],
        &[
            vec![
                "on".into(),
                format!("{:.2}", e2e.pool_on_ms),
                format!("{:.3}", e2e.hit_rate),
            ],
            vec!["off".into(), format!("{:.2}", e2e.pool_off_ms), "-".into()],
        ],
    );

    let parallelism = threads.min(kernels::hw_parallelism());
    let pack = kernels::pack_stats();
    let payload = serde_json::json!({
        "threads": threads,
        "parallelism": parallelism,
        "simd": kernels::simd_available(),
        "smoke": smoke,
        "matmul": rows.iter().map(|r| serde_json::json!({
            "shape": r.shape,
            "naive_gflops": r.naive,
            "tiled_1t_gflops": r.tiled_1t,
            "tiled_mt_gflops": r.tiled_mt,
            // Single-threaded ratio: the packed engine's win over the naive
            // loops, independent of how many cores the runner has.
            "speedup_vs_naive": r.tiled_1t / r.naive,
            "speedup_mt_vs_1t": r.tiled_mt / r.tiled_1t,
        })).collect::<Vec<_>>(),
        "calibration": serde_json::json!({
            "shape": format!("{}x{}x{}", HEADLINE.0, HEADLINE.1, HEADLINE.2),
            "fwd_gflops": fwd_gf,
            "t_matmul_gflops": t_mm_gf,
            "matmul_t_gflops": mm_t_gf,
            "bwd_over_fwd": bwd_over_fwd,
        }),
        "pack": serde_json::json!({
            "calls": pack.calls,
            "elems": pack.elems,
        }),
        "zero_skip": serde_json::json!({
            "shape": format!("{zs_m}x{zs_k}x{zs_n}"),
            "zero_fraction": 0.95,
            "dense_gflops": dense_gf,
            "skip_gflops": skip_gf,
            "speedup": skip_gf / dense_gf,
        }),
        "elementwise": serde_json::json!({
            "shape": el_shape,
            "gelu_fwd_gelems": gelu_fwd,
            "gelu_bwd_gelems": gelu_bwd,
        }),
        "end_to_end": serde_json::json!({
            "pool_on_ms_per_iter": e2e.pool_on_ms,
            "pool_off_ms_per_iter": e2e.pool_off_ms,
            "pool_hit_rate": e2e.hit_rate,
            "step_time_ratio_off_over_on": e2e.pool_off_ms / e2e.pool_on_ms,
        }),
    });
    save_json("kernels", payload.clone());

    // The CI artifact lives at the workspace root next to the other BENCH_*
    // outputs.
    let root = std::env::var("CARGO_MANIFEST_DIR")
        .map_or_else(|_| ".".to_string(), |m| format!("{m}/../.."));
    let bench_path = format!("{root}/BENCH_kernels.json");
    std::fs::write(
        &bench_path,
        serde_json::to_string_pretty(&payload).expect("serialize"),
    )
    .expect("write BENCH_kernels.json");
    println!("[saved {bench_path}]");

    if check && !check_regressions(&rows, (gelu_fwd, gelu_bwd), &e2e, parallelism) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
