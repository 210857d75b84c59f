//! chimbench — the repository's benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path chimbench/Cargo.toml -- \
//!     --workload train-narrow --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. Each run trains and plans on inputs
//! derived from `--seed`, checks every output (bit-identical parameters
//! across schemes and against the sequential reference, verify-clean
//! plans), writes a result file under `chimbench/out/`, and prints one
//! JSON line last: the end-to-end metrics with `--trace 0`, the per-layer
//! ledger with `--trace 1`. Traced runs switch on the runtime's own trace
//! sink and kernel timing; untraced runs switch on nothing.

mod ledger;
mod plan;
mod train;
mod util;

use std::sync::Arc;
use std::time::Instant;

use chimera_nn::ModelConfig;
use chimera_obs::analyze;
use chimera_perf::ModelSpec;
use chimera_tensor::{kernels, pool};
use chimera_trace::{BufferSink, Event, MetricsRegistry, SpanKind, TraceSink};

use plan::Query;
use train::{timed, Fabric, RunOut, TrainSpec, D, SCHEMES};
use util::{derive, digest_f32, median, Spans, J};

/// A named benchmark workload.
struct Workload {
    name: &'static str,
    spec: TrainSpec,
    queries: Vec<Query>,
    /// Share of `--seconds` given to the training phase (the rest plans).
    train_share: f64,
    /// Nominal seconds of one training round and of one planner cycle on a
    /// 2-core AVX2 host. The work of a run is fixed from `--seconds` and
    /// these, so every commit measures the same work.
    round_s: f64,
    cycle_s: f64,
    /// Whether the workload is about the planner (set-up = planner set-up,
    /// planning runs first).
    planner_first: bool,
}

fn model(seed: u64, vocab: usize, hidden: usize, seq: usize, heads: usize) -> ModelConfig {
    ModelConfig {
        vocab,
        hidden,
        seq,
        layers: 4,
        heads,
        causal: true,
        seed: derive(seed, "model-init"),
    }
}

/// The workload's own model as the planner sees it.
fn spec_of(name: &'static str, m: &ModelConfig) -> ModelSpec {
    ModelSpec {
        name,
        layers: m.layers as u32,
        hidden: m.hidden as u32,
        vocab: m.vocab as u32,
        seq: m.seq as u32,
        bytes_per_value: 4,
    }
}

fn workload(name: &str, seed: u64) -> Option<Workload> {
    let data_seed = derive(seed, "data");
    let narrow = TrainSpec {
        model: model(seed, 256, 64, 16, 4),
        data_seed,
        b: 2,
        n: 8,
        fabric: Fabric::Local,
        long_iters: 41,
    };
    let w = match name {
        "train-wide" => {
            let spec = TrainSpec {
                model: model(seed, 1024, 512, 128, 8),
                n: 4,
                long_iters: 5,
                ..narrow
            };
            Workload {
                name: "train-wide",
                queries: plan::own_queries(spec_of("train-wide", &spec.model), 8),
                spec,
                train_share: 0.8,
                round_s: 28.0,
                cycle_s: 0.005,
                planner_first: false,
            }
        }
        "train-narrow" => Workload {
            name: "train-narrow",
            queries: plan::own_queries(spec_of("train-narrow", &narrow.model), 16),
            spec: narrow,
            train_share: 0.9,
            round_s: 2.6,
            cycle_s: 0.008,
            planner_first: false,
        },
        "train-tcp" => {
            let spec = TrainSpec {
                fabric: Fabric::Tcp,
                long_iters: 16,
                ..narrow
            };
            Workload {
                name: "train-tcp",
                queries: plan::own_queries(spec_of("train-tcp", &spec.model), 16),
                spec,
                train_share: 0.9,
                round_s: 2.4,
                cycle_s: 0.008,
                planner_first: false,
            }
        }
        "plan" => Workload {
            name: "plan",
            queries: plan::paper_queries(),
            spec: TrainSpec {
                long_iters: 31,
                ..narrow
            },
            train_share: 0.35,
            round_s: 2.0,
            cycle_s: 8.0,
            planner_first: true,
        },
        _ => return None,
    };
    Some(w)
}

const WORKLOADS: [&str; 4] = ["train-wide", "train-narrow", "train-tcp", "plan"];

/// Attempted and failed operations, with the reason of each failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn op<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.errors.push(e);
                None
            }
        }
    }

    /// Charge a failed output check to the operation that produced it.
    fn mismatch(&mut self, what: String) {
        self.failed += 1;
        self.errors.push(what);
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every run in `outs` must end on the parameters of `outs[0]`, bit for bit.
fn check_identical(tally: &mut Tally, outs: &[(&str, &RunOut)], what: &str) {
    let Some((first, reference)) = outs.first() else {
        return;
    };
    let want = bits(&reference.params);
    for (name, o) in &outs[1..] {
        if bits(&o.params) != want {
            tally.mismatch(format!("{what}: {name} params differ from {first}"));
        }
    }
}

/// The record of one training call pair for one scheme.
struct Pair {
    short: RunOut,
    long: RunOut,
    t_short: f64,
    t_long: f64,
}

/// Names of the three trained variants, in report order.
const VARIANTS: [&str; 3] = ["chimera", "dapple", "sequential"];

struct Round {
    setup_s: f64,
    tput: [f64; 3],
    pairs: Vec<Pair>,
}

/// One measurement round: schedule generation and verification, then per
/// variant its 1-iteration call (a repeat of the set-up) right before its
/// L-iteration call, so each pair sees nearly the same host conditions;
/// `between` runs after each call. Both parameter sets must agree across
/// variants.
fn round(spec: &TrainSpec, tally: &mut Tally, between: &mut dyn FnMut()) -> Option<Round> {
    let t0 = Instant::now();
    let scheds = tally.op(spec.schedules())?;
    let mut setup_s = t0.elapsed().as_secs_f64();
    let call = |tally: &mut Tally, v: usize, iters: u32| {
        let (r, t) = timed(|| match v {
            2 => spec.reference(iters),
            _ => spec.run(&scheds[v], iters, None),
        });
        tally.op(r).map(|o| (o, t))
    };
    let mut pairs = Vec::new();
    for v in 0..3 {
        let short = call(tally, v, 1);
        between();
        let long = call(tally, v, spec.long_iters);
        between();
        let ((short, t_short), (long, t_long)) = (short?, long?);
        setup_s += t_short;
        pairs.push(Pair {
            short,
            long,
            t_short,
            t_long,
        });
    }
    let named = |f: fn(&Pair) -> &RunOut| -> Vec<(&str, &RunOut)> {
        VARIANTS.iter().copied().zip(pairs.iter().map(f)).collect()
    };
    check_identical(tally, &named(|p| &p.short), "1-iteration run");
    check_identical(tally, &named(|p| &p.long), "L-iteration run");
    let tokens = spec.tokens_per_iter() * (spec.long_iters - 1) as f64;
    let tput = [0, 1, 2].map(|i| tokens / (pairs[i].t_long - pairs[i].t_short));
    Some(Round {
        setup_s,
        tput,
        pairs,
    })
}

/// How many units of `unit_s` nominal seconds fill `budget_s` (at least 1).
fn units(budget_s: f64, unit_s: f64) -> usize {
    ((budget_s / unit_s).round() as usize).max(1)
}

/// First set-up of a training workload: schedules, verification, and the
/// 1-iteration warm-up call of each variant.
fn train_setup(spec: &TrainSpec, tally: &mut Tally) {
    let Some(scheds) = tally.op(spec.schedules()) else {
        return;
    };
    let mut outs = Vec::new();
    for (name, s) in SCHEMES.iter().zip(&scheds) {
        if let Some(o) = tally.op(spec.run(s, 1, None)) {
            outs.push((*name, o));
        }
    }
    if let Some(o) = tally.op(spec.reference(1)) {
        outs.push(("sequential", o));
    }
    let refs: Vec<(&str, &RunOut)> = outs.iter().map(|(n, o)| (*n, o)).collect();
    check_identical(tally, &refs, "warm-up run");
}

/// Planner set-up: query construction and one warm-up query.
fn plan_setup(w: &Workload, tally: &mut Tally) {
    let q = w.queries[0];
    if let Some(a) = tally.op(q.run()) {
        if let Err(e) = q.check(&a) {
            tally.mismatch(e);
        }
    }
}

type Metrics = Vec<(String, f64, &'static str)>;

fn push(m: &mut Metrics, name: impl Into<String>, value: f64, unit: &'static str) {
    m.push((name.into(), value, unit));
}

/// Everything one run reports besides its metrics.
struct Record {
    rounds: Vec<Round>,
    plan_latencies: Vec<f64>,
    extra: Vec<(&'static str, J)>,
}

/// Processes the `plan` workload's planner phase is spread over.
const PARTS: usize = 4;

/// What one planner process reports.
struct Part {
    setup_s: f64,
    peak_rss_mb: f64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    latencies: Vec<f64>,
}

/// Run planner part `i` of `PARTS` in a child process of this benchmark
/// and wait for it. The child prints one line: `part <setup_s>
/// <peak_rss_mb> <attempted> <failed> <latency_s>...`, and one `FAILED:`
/// line per failure on standard error.
fn planner_part(name: &str, seed: u64, cycles: usize, i: usize) -> Result<Part, String> {
    let exe = std::env::current_exe().map_err(|e| format!("planner part {i}: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--planner-part", &format!("{i}/{PARTS}/{cycles}")])
        .output()
        .map_err(|e| format!("planner part {i}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let nums: Vec<f64> = line
        .split_whitespace()
        .skip(1)
        .map(|t| {
            t.parse::<f64>()
                .map_err(|_| format!("planner part {i}: bad output {line:?}"))
        })
        .collect::<Result<_, _>>()?;
    if !out.status.success() || !line.starts_with("part ") || nums.len() < 4 {
        return Err(format!("planner part {i} failed: {}", out.status));
    }
    Ok(Part {
        setup_s: nums[0],
        peak_rss_mb: nums[1],
        attempted: nums[2] as u64,
        failed: nums[3] as u64,
        errors: String::from_utf8_lossy(&out.stderr)
            .lines()
            .filter_map(|l| l.strip_prefix("FAILED: ").map(str::to_string))
            .collect(),
        latencies: nums[4..].to_vec(),
    })
}

/// Child side of [`planner_part`]: set-up (query construction and one
/// warm-up query, timed from process start), then this part's share of
/// `cycles` cycles.
fn run_planner_part(w: &Workload, seed: u64, spec: &str, t_start: Instant) {
    let field = |k: usize| spec.split('/').nth(k).and_then(|v| v.parse::<usize>().ok());
    let (Some(i), Some(parts), Some(cycles)) = (field(0), field(1), field(2)) else {
        eprintln!("chimbench: bad --planner-part {spec:?}");
        std::process::exit(2);
    };
    let mut tally = Tally::default();
    plan_setup(w, &mut tally);
    let setup_s = t_start.elapsed().as_secs_f64();
    let mut planner = plan::Planner::new(&w.queries, derive(seed, "query-order"), (i, parts));
    for _ in 0..cycles {
        planner.cycle();
    }
    tally.attempted += planner.latencies.len() as u64;
    tally.failed += planner.errors.len() as u64;
    for e in tally.errors.iter().chain(&planner.errors) {
        eprintln!("FAILED: {e}");
    }
    let lat: Vec<String> = planner.latencies.iter().map(f64::to_string).collect();
    println!(
        "part {setup_s} {} {} {} {}",
        util::peak_rss_mb(),
        tally.attempted,
        tally.failed,
        lat.join(" ")
    );
}

/// Untraced run: the end-to-end metrics.
fn run_e2e(
    w: &Workload,
    seed: u64,
    seconds: f64,
    t_start: Instant,
    tally: &mut Tally,
) -> (Metrics, Record) {
    let spec = &w.spec;
    let mut setups = Vec::new();
    let train_rounds = units(seconds * w.train_share, w.round_s);
    let plan_cycles = units(seconds * (1.0 - w.train_share), w.cycle_s);
    // The two phases interleave, so both sample the host across the run.
    let mut planner = plan::Planner::new(&w.queries, derive(seed, "query-order"), (0, 1));
    let mut rounds = Vec::new();
    let mut peak_rss = 0.0f64;
    if w.planner_first {
        // A planner's set-up and query times vary from process to process
        // at a fixed input, so the planner phase runs in PARTS processes,
        // one after another, each with its own set-up and a share of every
        // cycle's queries; training rounds run here in between.
        train_setup(spec, tally);
        let mut done = 0;
        for i in 0..PARTS {
            match planner_part(w.name, seed, plan_cycles, i) {
                Ok(p) => {
                    setups.push(p.setup_s);
                    peak_rss = peak_rss.max(p.peak_rss_mb);
                    tally.attempted += p.attempted;
                    tally.failed += p.failed;
                    tally.errors.extend(p.errors);
                    planner.latencies.extend(p.latencies);
                }
                Err(e) => tally.mismatch(e),
            }
            while done * PARTS < (i + 1) * train_rounds {
                done += 1;
                rounds.extend(round(spec, tally, &mut || {}));
            }
        }
    } else {
        train_setup(spec, tally);
        setups.push(t_start.elapsed().as_secs_f64());
        plan_setup(w, tally);
        let slices = train_rounds * VARIANTS.len() * 2;
        let mut slice = 0;
        let mut between = || {
            slice += 1;
            while planner.cycles * slices < slice * plan_cycles {
                planner.cycle();
            }
        };
        for _ in 0..train_rounds {
            rounds.extend(round(spec, tally, &mut between));
        }
        setups.extend(rounds.iter().map(|r| r.setup_s));
    }
    tally.attempted += planner.latencies.len() as u64;
    tally.failed += planner.errors.len() as u64;
    tally.errors.append(&mut planner.errors);
    let lat = planner.latencies;
    let mut m = Metrics::new();
    for (i, v) in VARIANTS.iter().enumerate() {
        let samples: Vec<f64> = rounds.iter().map(|r| r.tput[i]).collect();
        push(
            &mut m,
            format!("tokens_per_s.{v}"),
            median(&samples),
            "tok/s",
        );
    }
    push(&mut m, "setup_s", median(&setups), "s");
    push(
        &mut m,
        "peak_rss_mb",
        util::peak_rss_mb().max(peak_rss),
        "MB",
    );
    let total: f64 = lat.iter().sum();
    push(&mut m, "plans_per_s", lat.len() as f64 / total, "1/s");
    push(&mut m, "plan_ms.p50", median(&lat) * 1e3, "ms");
    let extra = vec![
        (
            "setup_samples_s",
            J::Arr(setups.iter().map(|&s| J::Num(s)).collect()),
        ),
        ("plan_samples", J::Int(lat.len() as i64)),
    ];
    (
        m,
        Record {
            rounds,
            plan_latencies: lat,
            extra,
        },
    )
}

/// Worker-lane attribution of a traced call, ns: (window, compute, p2p
/// wait, sync, idle), summed over the `D` worker lanes; plus the sized p2p
/// receives (messages, bytes).
fn lanes(events: &[Event]) -> ([f64; 5], u64, u64) {
    let workers: Vec<Event> = events
        .iter()
        .filter(|e| matches!(e, Event::Span(s) if s.track < D))
        .cloned()
        .collect();
    let a = analyze(&workers);
    let b = a.aggregate;
    let (mut msgs, mut bytes) = (0, 0);
    for e in &workers {
        if let Event::Span(s) = e {
            if s.kind == SpanKind::P2p {
                if let Some(n) = s.bytes {
                    msgs += 1;
                    bytes += n;
                }
            }
        }
    }
    let window = a.window_ns() as f64 * a.lanes.len() as f64;
    (
        [
            window,
            b.compute() as f64,
            b.comm_wait as f64,
            b.sync as f64,
            b.idle as f64,
        ],
        msgs,
        bytes,
    )
}

/// A traced call: the runtime's trace sink on, kernel timing on.
struct Traced {
    out: RunOut,
    secs: f64,
    lanes: [f64; 5],
    p2p: (u64, u64),
    kernel: kernels::KernelStats,
    pool: pool::PoolStats,
    deposits: u64,
    deposit_bytes: u64,
}

fn traced_call(
    spec: &TrainSpec,
    sched: &chimera_core::schedule::Schedule,
    iters: u32,
    sp: &Spans,
    name: &str,
) -> Result<Traced, String> {
    let sink = Arc::new(BufferSink::new());
    let reg = MetricsRegistry::global();
    let (dep, dep_bytes) = (
        reg.counter("collectives.keyed.deposits"),
        reg.counter("collectives.keyed.bytes_contributed"),
    );
    let (k0, p0, d0, b0) = (kernels::stats(), pool::stats(), dep.get(), dep_bytes.get());
    kernels::set_timing(true);
    let (r, secs) = timed(|| {
        sp.span(name, || {
            spec.run(sched, iters, Some(sink.clone() as Arc<dyn TraceSink>))
        })
    });
    kernels::set_timing(false);
    let (k1, p1) = (kernels::stats(), pool::stats());
    let out = r?;
    let (lanes, msgs, bytes) = lanes(&sink.drain());
    Ok(Traced {
        out,
        secs,
        lanes,
        p2p: (msgs, bytes),
        kernel: kernels::KernelStats {
            calls: k1.calls - k0.calls,
            flops: k1.flops - k0.flops,
            nanos: k1.nanos - k0.nanos,
        },
        pool: pool::PoolStats {
            hits: p1.hits - p0.hits,
            misses: p1.misses - p0.misses,
            returns: p1.returns - p0.returns,
            discards: p1.discards - p0.discards,
        },
        deposits: dep.get() - d0,
        deposit_bytes: dep_bytes.get() - b0,
    })
}

/// Traced run: the per-layer ledger.
fn run_ledger(
    w: &Workload,
    seed: u64,
    seconds: f64,
    sp: &Spans,
    tally: &mut Tally,
) -> (Metrics, Record) {
    let spec = &w.spec;
    let mut m = Metrics::new();
    let mut extra = Vec::new();
    sp.span("setup", || train_setup(spec, tally));
    let scheds = tally.op(spec.schedules()).unwrap_or_default();
    let l1 = (spec.long_iters - 1) as f64;

    // nn: stand-alone layer times at the workload's shapes.
    let optim = sp.span("nn", || {
        ledger::nn_layers(spec, seed, sp, (seconds * 0.25).min(8.0))
    });
    let layer = |n: &str| ledger::med(sp, n);
    for l in ["embedding", "attention", "layernorm", "block", "head"] {
        for dir in ["fwd", "bwd"] {
            push(
                &mut m,
                format!("nn.{l}.{dir}_ms"),
                layer(&format!("nn.{l}.{dir}")),
                "ms",
            );
        }
    }
    for dir in ["fwd", "bwd"] {
        let rest = layer(&format!("nn.block.{dir}"))
            - layer(&format!("nn.attention.{dir}"))
            - 2.0 * layer(&format!("nn.layernorm.{dir}"));
        push(&mut m, format!("nn.mlp_rest.{dir}_ms"), rest, "ms");
    }
    push(&mut m, "nn.optim.step_ms", optim[0], "ms");

    // Stage times assembled from the layer times.
    let per_stage = (spec.model.layers / D as usize) as f64;
    let stage_time = |s: usize, dir: &str| {
        let mut t = per_stage * layer(&format!("nn.block.{dir}"));
        if s == 0 {
            t += layer(&format!("nn.embedding.{dir}"));
        }
        if s == D as usize - 1 {
            t += layer(&format!("nn.head.{dir}"));
        }
        t
    };

    // runtime: traced 1- and L-iteration calls of each scheme.
    let mut traced_tput = f64::NAN;
    let mut recoveries = 0u32;
    let mut unattributed = f64::NAN;
    let mut compute_ms = f64::NAN;
    for (i, scheme) in SCHEMES.iter().enumerate() {
        let Some(sched) = scheds.get(i) else { break };
        let short = tally.op(traced_call(
            spec,
            sched,
            1,
            sp,
            &format!("runtime.{scheme}.1"),
        ));
        let long = tally.op(traced_call(
            spec,
            sched,
            spec.long_iters,
            sp,
            &format!("runtime.{scheme}.L"),
        ));
        let (Some(short), Some(long)) = (short, long) else {
            continue;
        };
        if let Some(reference) = tally.op(spec.reference(spec.long_iters)) {
            check_identical(
                tally,
                &[("sequential", &reference), (scheme, &long.out)],
                "traced L-iteration run",
            );
        }
        recoveries += short.out.recoveries + long.out.recoveries;
        let step_ms = (long.secs - short.secs) / l1 * 1e3;
        let per_iter = |k: usize| (long.lanes[k] - short.lanes[k]) / l1 / 1e6;
        let lanes_n = D as f64;
        // A bubble shows as a wait for the neighbour's tensor, so idle is
        // uncovered time plus p2p waits (allreduce is reported apart).
        push(
            &mut m,
            format!("runtime.idle_frac.{scheme}"),
            (per_iter(2) + per_iter(4)) / per_iter(0),
            "frac",
        );
        // Memory: in-process runs report per-worker high water; a TCP
        // workload reads it from the same schedule run in process.
        let mem = if long.out.mem_elems.is_empty() {
            let local = TrainSpec {
                fabric: Fabric::Local,
                ..*spec
            };
            tally
                .op(local.run(sched, 1, None))
                .map(|o| o.mem_elems)
                .unwrap_or_default()
        } else {
            long.out.mem_elems.clone()
        };
        let hi = mem.iter().copied().max().unwrap_or(0) as f64;
        let lo = mem.iter().copied().min().unwrap_or(0) as f64;
        push(
            &mut m,
            format!("runtime.mem_highwater_mb.{scheme}"),
            hi * 4.0 / 1e6,
            "MB",
        );
        push(
            &mut m,
            format!("runtime.mem_imbalance.{scheme}"),
            hi / lo,
            "ratio",
        );

        // Exact counts, cross-checked against what the run observed.
        let c = spec.counts(sched);
        push(
            &mut m,
            format!("core.bubble_ratio.{scheme}"),
            c.bubble,
            "frac",
        );
        push(
            &mut m,
            format!("comm.p2p_msgs_per_iter.{scheme}"),
            c.p2p_msgs as f64,
            "count",
        );
        push(
            &mut m,
            format!("comm.p2p_bytes_per_iter.{scheme}"),
            c.p2p_bytes as f64,
            "B",
        );
        push(
            &mut m,
            format!("collectives.calls_per_iter.{scheme}"),
            c.ar_calls as f64,
            "count",
        );
        push(
            &mut m,
            format!("collectives.bytes_per_iter.{scheme}"),
            c.ar_bytes as f64,
            "B",
        );
        let seen = [
            ("p2p messages", long.p2p.0 - short.p2p.0, c.p2p_msgs),
            ("p2p bytes", long.p2p.1 - short.p2p.1, c.p2p_bytes),
            (
                "allreduce deposits",
                long.deposits - short.deposits,
                c.ar_calls,
            ),
            (
                "allreduce bytes",
                long.deposit_bytes - short.deposit_bytes,
                c.ar_bytes,
            ),
        ];
        for (what, got, per) in seen {
            if got != per * (spec.long_iters as u64 - 1) {
                tally.mismatch(format!("{scheme}: {what} observed {got} over {l1} iterations, schedule says {per}/iter"));
            }
        }
        if let (Some(ws), Some(wl)) = (short.out.wire, long.out.wire) {
            let wire = (wl.0 - ws.0) as f64 / l1;
            let payload = (c.p2p_bytes + c.ar_wire_bytes) as f64;
            extra.push((
                if i == 0 {
                    "tcp_wire_bytes_per_iter.chimera"
                } else {
                    "tcp_wire_bytes_per_iter.dapple"
                },
                J::Num(wire),
            ));
            if wire < payload {
                tally.mismatch(format!(
                    "{scheme}: {wire} wire bytes/iter < {payload} payload bytes/iter"
                ));
            }
            if i == 0 {
                extra.push(("tcp_wire_over_payload.chimera", J::Num(wire / payload)));
                push(
                    &mut m,
                    "comm.tcp.retransmits",
                    (ws.1 + wl.1) as f64,
                    "count",
                );
                push(
                    &mut m,
                    "comm.tcp.dup_dropped",
                    (ws.2 + wl.2) as f64,
                    "count",
                );
            }
        }

        if i == 0 {
            traced_tput = spec.tokens_per_iter() * l1 / (long.secs - short.secs);
            let k = |f: fn(&kernels::KernelStats) -> u64| {
                (f(&long.kernel) - f(&short.kernel)) as f64 / l1
            };
            let gemm_ms = k(|s| s.nanos) / 1e6;
            push(&mut m, "tensor.gemm.ms_per_iter", gemm_ms, "ms");
            push(
                &mut m,
                "tensor.gemm.gflops",
                k(|s| s.flops) / k(|s| s.nanos),
                "GFLOP/s",
            );
            push(&mut m, "tensor.gemm.share", gemm_ms / per_iter(1), "frac");
            push(
                &mut m,
                "tensor.gemm.calls_per_iter",
                k(|s| s.calls),
                "count",
            );
            push(&mut m, "tensor.pool.hit_rate", long.pool.hit_rate(), "frac");
            push(
                &mut m,
                "runtime.p2p_wait_ms_per_iter",
                per_iter(2) / lanes_n,
                "ms",
            );
            push(
                &mut m,
                "runtime.allreduce_ms_per_iter",
                per_iter(3) / lanes_n,
                "ms",
            );
            // Ledger compute per worker: stage times × op counts + updates.
            let per_worker: Vec<f64> = spec
                .worker_ops(sched)
                .iter()
                .map(|(fwd, bwd, held)| {
                    (0..D as usize)
                        .map(|s| {
                            fwd[s] as f64 * stage_time(s, "fwd")
                                + bwd[s] as f64 * stage_time(s, "bwd")
                        })
                        .sum::<f64>()
                        + held.iter().map(|&s| optim[s as usize]).sum::<f64>()
                })
                .collect();
            let compute = per_worker.iter().copied().fold(0.0, f64::max);
            push(&mut m, "runtime.compute_ms_per_iter", compute, "ms");
            compute_ms = compute;
            // What the ledger explains of each worker's step: its layer
            // compute plus the waits and idle time the runtime trace saw.
            let explained =
                per_worker.iter().sum::<f64>() + per_iter(2) + per_iter(3) + per_iter(4);
            unattributed = 1.0 - explained / (step_ms * lanes_n);
            extra.push(("traced_step_ms.chimera", J::Num(step_ms)));
        }
    }
    push(&mut m, "runtime.recoveries", recoveries as f64, "count");
    push(&mut m, "runtime.unattributed_frac", unattributed, "frac");

    // trace: the same chimera pair untraced.
    if let Some(sched) = scheds.first() {
        let s = tally.op(timed(|| spec.run(sched, 1, None)).0.map(|_| ()));
        let (l, tl) = timed(|| spec.run(sched, spec.long_iters, None));
        let (_, ts) = timed(|| spec.run(sched, 1, None));
        if s.is_some() && tally.op(l).is_some() {
            let untraced = spec.tokens_per_iter() * l1 / (tl - ts);
            push(
                &mut m,
                "trace.overhead_frac",
                1.0 - traced_tput / untraced,
                "frac",
            );
            // Overhead is judged against the untraced step.
            let step_ms = (tl - ts) / l1 * 1e3;
            push(
                &mut m,
                "runtime.overhead_frac",
                1.0 - compute_ms / step_ms,
                "frac",
            );
        }
    }

    // comm and collectives at the workload's payload sizes.
    if let Some(c) = tally.op(sp.span("comm", || ledger::comm_layers(spec, sp))) {
        push(
            &mut m,
            "comm.local.rtt_us",
            layer("comm.local.rtt") * 1e3,
            "us",
        );
        push(&mut m, "comm.tcp.rtt_us", layer("comm.tcp.rtt") * 1e3, "us");
        let grad_mb = spec.stage_params()[0] as f64 * 4.0 / 1e6;
        push(
            &mut m,
            "comm.tcp.grad_mb_per_s",
            grad_mb / (layer("comm.tcp.grad") / 1e3),
            "MB/s",
        );
        push(
            &mut m,
            "collectives.keyed.allreduce_ms",
            layer("collectives.keyed.allreduce"),
            "ms",
        );
        push(
            &mut m,
            "collectives.transport.allreduce_ms.local",
            layer("collectives.transport.allreduce.local"),
            "ms",
        );
        push(
            &mut m,
            "collectives.transport.allreduce_ms.tcp",
            layer("collectives.transport.allreduce.tcp"),
            "ms",
        );
        if !m.iter().any(|e| e.0 == "comm.tcp.retransmits") {
            push(
                &mut m,
                "comm.tcp.retransmits",
                c.retransmits as f64,
                "count",
            );
            push(
                &mut m,
                "comm.tcp.dup_dropped",
                c.dup_dropped as f64,
                "count",
            );
        }
    }

    // core / sim / verify / perf: one pass over the workload's queries.
    let (mut cands, mut retried, mut feasible) = (0, 0, 0);
    sp.span("perf", || {
        for q in &w.queries {
            let (c, r, f) = plan::ledger_query(q, sp);
            cands += c;
            retried += r;
            feasible += f;
        }
    });
    for (metric, span) in [
        ("core.schedule_ms", "core.schedule"),
        ("sim.simulate_ms", "sim.simulate"),
        ("verify.span_ms", "verify.span"),
        ("verify.memory_v2_ms", "verify.memory_v2"),
        ("perf.evaluate_ms", "perf.evaluate"),
    ] {
        push(&mut m, metric, layer(span), "ms");
    }
    push(
        &mut m,
        "perf.candidates_per_query",
        cands as f64 / w.queries.len() as f64,
        "count",
    );
    push(
        &mut m,
        "perf.retry_frac",
        retried as f64 / cands as f64,
        "frac",
    );
    push(
        &mut m,
        "perf.feasible_frac",
        feasible as f64 / cands as f64,
        "frac",
    );
    (
        m,
        Record {
            rounds: Vec::new(),
            plan_latencies: Vec::new(),
            extra,
        },
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run as one planner process of the `plan` workload.
    planner_part: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        planner_part: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?,
            "--seconds" => a.seconds = v.parse().map_err(|_| format!("bad --seconds {v}"))?,
            "--trace" => a.trace = v == "1",
            "--planner-part" => a.planner_part = Some(v),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn main() {
    let t_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("chimbench: {e}\nusage: chimbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>", WORKLOADS.join("|"));
            std::process::exit(2);
        }
    };
    let Some(w) = workload(&args.workload, args.seed) else {
        eprintln!(
            "chimbench: unknown workload {:?}; one of {}",
            args.workload,
            WORKLOADS.join(", ")
        );
        std::process::exit(2);
    };
    if let Some(part) = &args.planner_part {
        run_planner_part(&w, args.seed, part, t_start);
        return;
    }
    kernels::set_threads(1);
    let run_id = format!(
        "{}-s{}-t{}-{:x}",
        w.name,
        args.seed,
        u8::from(args.trace),
        util::mix(t_start.elapsed().as_nanos() as u64 ^ std::process::id() as u64)
    );
    let probe_start = util::host_probe_ms();
    let sp = Spans::new(run_id.clone(), args.trace);
    let mut tally = Tally::default();
    let (metrics, record) = if args.trace {
        run_ledger(&w, args.seed, args.seconds, &sp, &mut tally)
    } else {
        run_e2e(&w, args.seed, args.seconds, t_start, &mut tally)
    };
    let mut record = record;
    record.extra.push((
        "host_probe_ms",
        J::Arr(vec![J::Num(probe_start), J::Num(util::host_probe_ms())]),
    ));
    let correct = tally.failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;

    // Human-readable lines first; the JSON result is the last line.
    println!(
        "workload {} seed {} trace {} ({:.1} s)",
        w.name,
        args.seed,
        u8::from(args.trace),
        t_start.elapsed().as_secs_f64()
    );
    for (name, v, unit) in &metrics {
        println!("  {name:<42} {v:>14.4} {unit}");
    }
    println!(
        "  {:<42} {failed_frac:>14.4} frac ({} of {} operations)",
        "failed_frac", tally.failed, tally.attempted
    );
    for e in &tally.errors {
        println!("  FAILED: {e}");
    }

    write_result(&w, &args, &run_id, &metrics, record, &tally, correct, &sp);

    let obj = J::obj(vec![
        ("correct", J::Bool(correct)),
        ("attempted", J::Int(tally.attempted as i64)),
        ("failed", J::Int(tally.failed as i64)),
        (
            "metrics",
            J::Obj(
                metrics
                    .iter()
                    .map(|(n, v, u)| {
                        (
                            n.clone(),
                            J::obj(vec![("value", J::Num(*v)), ("unit", J::str(*u))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", obj.render());
}

/// The result file: seed, host, metrics, checks, digests of the final
/// parameters and per-iteration losses, and (traced runs) the spans.
#[allow(clippy::too_many_arguments)]
fn write_result(
    w: &Workload,
    args: &Args,
    run_id: &str,
    metrics: &Metrics,
    record: Record,
    tally: &Tally,
    correct: bool,
    sp: &Spans,
) {
    let digests: Vec<J> = record
        .rounds
        .iter()
        .flat_map(|r| {
            r.pairs.iter().zip(VARIANTS).map(|(p, v)| {
                J::obj(vec![
                    ("variant", J::str(v)),
                    ("params", J::str(digest_f32(&p.long.params))),
                    ("losses", J::str(digest_f32(&p.long.losses))),
                    (
                        "loss_last",
                        J::Num(p.long.losses.last().copied().unwrap_or(f32::NAN) as f64),
                    ),
                ])
            })
        })
        .collect();
    let spec = &w.spec;
    let mut doc = vec![
        ("schema", J::str("chimbench/result/v1")),
        ("run_id", J::str(run_id)),
        ("workload", J::str(w.name)),
        ("seed", J::Int(args.seed as i64)),
        ("seconds", J::Num(args.seconds)),
        ("trace", J::Bool(args.trace)),
        ("host", util::host_json()),
        (
            "config",
            J::obj(vec![
                ("hidden", J::Int(spec.model.hidden as i64)),
                ("heads", J::Int(spec.model.heads as i64)),
                ("seq", J::Int(spec.model.seq as i64)),
                ("vocab", J::Int(spec.model.vocab as i64)),
                ("layers", J::Int(spec.model.layers as i64)),
                ("d", J::Int(D as i64)),
                ("b", J::Int(spec.b as i64)),
                ("n", J::Int(spec.n as i64)),
                ("long_iters", J::Int(spec.long_iters as i64)),
                ("fabric", J::str(format!("{:?}", spec.fabric))),
                ("model_seed", J::Int(spec.model.seed as i64)),
                ("data_seed", J::Int(spec.data_seed as i64)),
                (
                    "queries",
                    J::Arr(w.queries.iter().map(|q| J::str(q.label())).collect()),
                ),
            ]),
        ),
        ("correct", J::Bool(correct)),
        ("attempted", J::Int(tally.attempted as i64)),
        ("failed", J::Int(tally.failed as i64)),
        (
            "failed_frac",
            J::Num(tally.failed as f64 / tally.attempted.max(1) as f64),
        ),
        (
            "errors",
            J::Arr(tally.errors.iter().map(|e| J::str(e.clone())).collect()),
        ),
        (
            "metrics",
            J::Obj(
                metrics
                    .iter()
                    .map(|(n, v, u)| {
                        (
                            n.clone(),
                            J::obj(vec![("value", J::Num(*v)), ("unit", J::str(*u))]),
                        )
                    })
                    .collect(),
            ),
        ),
        ("final_state", J::Arr(digests)),
        (
            "throughput_samples",
            J::Arr(
                record
                    .rounds
                    .iter()
                    .map(|r| J::Arr(r.tput.iter().map(|&t| J::Num(t)).collect()))
                    .collect(),
            ),
        ),
        (
            "call_seconds",
            J::Arr(
                record
                    .rounds
                    .iter()
                    .map(|r| {
                        J::Arr(
                            r.pairs
                                .iter()
                                .map(|p| J::Arr(vec![J::Num(p.t_short), J::Num(p.t_long)]))
                                .collect(),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "plan_latencies_s",
            J::Arr(record.plan_latencies.iter().map(|&s| J::Num(s)).collect()),
        ),
    ];
    doc.extend(record.extra);
    if args.trace {
        doc.push(("spans", sp.to_json()));
    }
    let dir = std::path::Path::new("chimbench/out");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        w.name,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, J::obj(doc).render()))
    {
        eprintln!("chimbench: could not write {}: {e}", path.display());
    }
}
