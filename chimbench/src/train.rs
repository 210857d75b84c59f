//! The training side of a workload: schedules, one timed call into the
//! runtime per (scheme, iteration count), the sequential reference, and
//! the exact counts each schedule implies.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use chimera_comm::{TcpEndpoint, TcpFabric, Transport};
use chimera_core::baselines::dapple;
use chimera_core::chimera::{chimera, ChimeraConfig};
use chimera_core::schedule::Schedule;
use chimera_core::{execute, OpKind, StageId, UnitCosts, WorkerId};
use chimera_nn::{ModelConfig, ReferenceTrainer, Stage, SyntheticData};
use chimera_runtime::{train, train_worker_process, TrainOptions};
use chimera_tensor::kernels;
use chimera_trace::TraceSink;
use chimera_verify::verify_span;

/// How the pipeline workers talk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// `chimera_runtime::train`: worker threads over `LocalFabric`.
    Local,
    /// One `train_worker_process` per rank over `TcpFabric::loopback`.
    Tcp,
}

/// Pipeline depth of every training workload: the host has 2 cores and
/// each worker runs one kernel thread.
pub const D: u32 = 2;

/// The pipelined schemes every training workload runs, in report order.
pub const SCHEMES: [&str; 2] = ["chimera", "dapple"];

/// One training configuration, with its seeds already derived.
#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    pub model: ModelConfig,
    pub data_seed: u64,
    /// Micro-batch size `B`.
    pub b: usize,
    /// Micro-batches per iteration `N`.
    pub n: u32,
    pub fabric: Fabric,
    /// Iterations of the long call `L` (the short call runs 1).
    pub long_iters: u32,
}

/// What one training call produced.
pub struct RunOut {
    pub params: Vec<f32>,
    pub losses: Vec<f32>,
    /// Per-worker tracked-memory high water, elements (in-process only).
    pub mem_elems: Vec<u64>,
    pub recoveries: u32,
    /// TCP only: bytes sent over all endpoints, retransmits, duplicates
    /// dropped.
    pub wire: Option<(u64, u64, u64)>,
}

/// Exact per-iteration counts implied by a schedule.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub p2p_msgs: u64,
    pub p2p_bytes: u64,
    /// Keyed-allreduce deposits (one per held stage replica).
    pub ar_calls: u64,
    /// Bytes contributed to allreduces.
    pub ar_bytes: u64,
    /// Bytes the transport-level allreduce puts on the wire: non-root
    /// members ship their contributions to the root, which returns the sum.
    pub ar_wire_bytes: u64,
    /// Bubble ratio of the schedule under the practical unit costs.
    pub bubble: f64,
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

impl TrainSpec {
    /// Tokens one iteration trains on: `N · B · seq`.
    pub fn tokens_per_iter(&self) -> f64 {
        (self.n as usize * self.b * self.model.seq) as f64
    }

    fn opts(&self, iterations: u32, trace: Option<Arc<dyn TraceSink>>) -> TrainOptions {
        TrainOptions {
            micro_batch: self.b,
            iterations,
            data_seed: self.data_seed,
            threads: Some(1),
            trace,
            ..TrainOptions::default()
        }
    }

    /// Generate both schedules and verify them statically.
    pub fn schedules(&self) -> Result<Vec<Schedule>, String> {
        let c = chimera(&ChimeraConfig::new(D, self.n)).map_err(|e| e.to_string())?;
        let d = dapple(D, self.n);
        for s in [&c, &d] {
            let report = verify_span(s, 1);
            if !report.is_clean() {
                return Err(format!(
                    "{} schedule fails verification:\n{report}",
                    s.scheme
                ));
            }
        }
        Ok(vec![c, d])
    }

    /// One training call of `iterations` iterations under `sched`.
    pub fn run(
        &self,
        sched: &Schedule,
        iterations: u32,
        trace: Option<Arc<dyn TraceSink>>,
    ) -> Result<RunOut, String> {
        let opts = self.opts(iterations, trace);
        match self.fabric {
            Fabric::Local => {
                let r = catch_unwind(AssertUnwindSafe(|| train(sched, self.model, opts)))
                    .map_err(panic_text)?
                    .map_err(|e| e.to_string())?;
                Ok(RunOut {
                    params: r.flat_params(),
                    losses: r.iteration_losses,
                    mem_elems: r.mem.iter().map(|m| m.high_water_elems).collect(),
                    recoveries: r.recoveries,
                    wire: None,
                })
            }
            Fabric::Tcp => self.run_tcp(sched, opts),
        }
    }

    fn run_tcp(&self, sched: &Schedule, opts: TrainOptions) -> Result<RunOut, String> {
        let eps: Vec<Arc<TcpEndpoint>> = TcpFabric::loopback(D)
            .map_err(|e| e.to_string())?
            .into_iter()
            .map(Arc::new)
            .collect();
        let handles: Vec<_> = eps
            .iter()
            .map(|ep| {
                let ep = ep.clone() as Arc<dyn Transport>;
                let (sched, opts, cfg) = (sched.clone(), opts.clone(), self.model);
                std::thread::spawn(move || train_worker_process(ep, &sched, cfg, opts, 1))
            })
            .collect();
        let mut outcomes = Vec::new();
        let mut err = None;
        for h in handles {
            match h.join() {
                Ok(Ok(o)) => outcomes.push(o),
                Ok(Err(e)) => err = Some(e.to_string()),
                Err(p) => err = Some(panic_text(p)),
            }
        }
        if let Some(e) = err {
            return Err(e);
        }
        let wire = eps.iter().fold((0, 0, 0), |acc, ep| {
            let s = ep.session_stats();
            (
                acc.0 + ep.bytes_sent(),
                acc.1 + s.retransmits,
                acc.2 + s.dup_dropped,
            )
        });
        let out = outcomes
            .into_iter()
            .next()
            .flatten()
            .ok_or("rank 0 assembled no outcome")?;
        Ok(RunOut {
            params: out.flat_params,
            losses: out.iteration_losses,
            mem_elems: Vec::new(),
            recoveries: 0,
            wire: Some(wire),
        })
    }

    /// The single-worker baseline: `ReferenceTrainer` on the same model,
    /// data and `N`, with every core available to the kernels.
    pub fn reference(&self, iterations: u32) -> Result<RunOut, String> {
        kernels::set_threads(kernels::hw_parallelism());
        let out = catch_unwind(AssertUnwindSafe(|| {
            let defaults = TrainOptions::default();
            let mut r = ReferenceTrainer::new(
                Stage::build_all(self.model, D),
                SyntheticData::new(self.model, self.data_seed),
                self.b,
                defaults.lr,
                defaults.momentum,
            );
            let losses = (0..iterations)
                .map(|it| r.train_iteration(it as u64 * self.n as u64, self.n))
                .collect();
            RunOut {
                params: r.flat_params(),
                losses,
                mem_elems: Vec::new(),
                recoveries: 0,
                wire: None,
            }
        }))
        .map_err(panic_text);
        kernels::set_threads(1);
        out
    }

    /// Parameters of each of the `D` stages.
    pub fn stage_params(&self) -> Vec<usize> {
        Stage::build_all(self.model, D)
            .iter()
            .map(Stage::num_params)
            .collect()
    }

    /// Exact per-iteration counts of `sched` on this model.
    pub fn counts(&self, sched: &Schedule) -> Counts {
        let act_bytes = (self.b * self.model.seq * self.model.hidden * 4) as u64;
        let params = self.stage_params();
        let pl = &sched.placement;
        let mut c = Counts::default();
        for (w, _, op) in sched.iter_ops() {
            let s = op.stage.0;
            let peer = match op.kind {
                OpKind::Forward if s + 1 < sched.d => Some(pl.worker(op.replica, StageId(s + 1))),
                OpKind::Backward { .. } if s > 0 => Some(pl.worker(op.replica, StageId(s - 1))),
                _ => None,
            };
            if peer.is_some_and(|p| p != w) {
                c.p2p_msgs += 1;
                c.p2p_bytes += act_bytes;
            }
        }
        for s in 0..sched.d {
            let holders = pl.stage_holders(StageId(s));
            let bytes = params[s as usize] as u64 * 4;
            for (i, &h) in holders.iter().enumerate() {
                let held: Vec<_> = pl.held_by(h).into_iter().filter(|x| x.1 .0 == s).collect();
                let micros = sched
                    .ops(h)
                    .iter()
                    .filter(|op| {
                        matches!(op.kind, OpKind::Backward { .. })
                            && held
                                .iter()
                                .any(|&(r, st)| r == op.replica && st == op.stage)
                    })
                    .count() as u64;
                c.ar_calls += held.len() as u64;
                c.ar_bytes += micros * bytes;
                if i > 0 {
                    c.ar_wire_bytes += micros * bytes + bytes;
                }
            }
        }
        c.bubble = execute(sched, UnitCosts::practical()).map_or(f64::NAN, |t| t.bubble_ratio());
        c
    }

    /// Held `(replica, stage)` pairs and their op counts per worker:
    /// `(forwards per stage, backwards per stage, held stages)`.
    pub fn worker_ops(&self, sched: &Schedule) -> Vec<(Vec<u64>, Vec<u64>, Vec<u32>)> {
        (0..sched.num_workers())
            .map(|w| {
                let mut fwd = vec![0u64; D as usize];
                let mut bwd = vec![0u64; D as usize];
                for op in sched.ops(WorkerId(w as u32)) {
                    match op.kind {
                        OpKind::Forward => fwd[op.stage.idx()] += 1,
                        OpKind::Backward { .. } => bwd[op.stage.idx()] += 1,
                        _ => {}
                    }
                }
                let held = sched
                    .placement
                    .held_by(WorkerId(w as u32))
                    .into_iter()
                    .map(|(_, s)| s.0)
                    .collect();
                (fwd, bwd, held)
            })
            .collect()
    }
}

/// Time `f`, in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}
