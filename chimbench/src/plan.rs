//! The planner side of a workload: seeded query order, one timed planner
//! query per (model, P, B̂), the verify check on every answer, and the
//! per-candidate ledger of the traced run.

use std::time::Instant;

use chimera_core::baselines::dapple;
use chimera_core::chimera::{chimera, ChimeraConfig, ScaleMethod};
use chimera_core::schedule::{Schedule, SyncStrategy};
use chimera_core::sync::place_sync;
use chimera_core::UnitCosts;
use chimera_perf::planner::{
    batch_candidates, best, depth_candidates, evaluate, plan_chimera, rebuild,
};
use chimera_perf::{Candidate, ClusterSpec, ModelSpec, PlanScheme, TrainConfig};
use chimera_sim::simulate_span;
use chimera_verify::{memory_v2, verify_span};

use crate::util::{mix, Spans};

/// One planner query: plan Chimera (direct, f = 1) and the best DAPPLE
/// configuration for `model` on `p` Piz Daint nodes at mini-batch `b_hat`.
#[derive(Debug, Clone, Copy)]
pub struct Query {
    pub model: ModelSpec,
    pub p: u32,
    pub b_hat: u64,
}

const CHIMERA: PlanScheme = PlanScheme::Chimera {
    f: 1,
    scale: ScaleMethod::Direct,
};

impl Query {
    pub fn label(&self) -> String {
        format!("{}/P{}/B{}", self.model.name, self.p, self.b_hat)
    }

    /// Run the query: `plan_chimera` and `best(Dapple)`. `None` from either
    /// is a failed query.
    pub fn run(&self) -> Result<[Candidate; 2], String> {
        let cluster = ClusterSpec::piz_daint();
        let c = plan_chimera(
            1,
            ScaleMethod::Direct,
            self.model,
            cluster,
            self.p,
            self.b_hat,
        )
        .ok_or_else(|| format!("{}: no Chimera plan", self.label()))?;
        let d = best(PlanScheme::Dapple, self.model, cluster, self.p, self.b_hat)
            .ok_or_else(|| format!("{}: no DAPPLE plan", self.label()))?;
        Ok([c, d])
    }

    /// Every answer must rebuild into a schedule that verifies clean.
    pub fn check(&self, answer: &[Candidate; 2]) -> Result<(), String> {
        for c in answer {
            let (sched, _, iters) = rebuild(c, self.model, ClusterSpec::piz_daint())
                .ok_or_else(|| format!("{}: candidate does not rebuild", self.label()))?;
            if !verify_span(&sched, iters).is_clean() {
                return Err(format!(
                    "{}: {} plan not verify-clean",
                    self.label(),
                    c.scheme.label()
                ));
            }
        }
        Ok(())
    }
}

/// The `plan` workload's query set: GPT-2 and Bert-48 × P ∈ {16, 32} ×
/// B̂ ∈ {256, 512}.
pub fn paper_queries() -> Vec<Query> {
    let mut out = Vec::new();
    for model in [ModelSpec::gpt2(), ModelSpec::bert48()] {
        for p in [16, 32] {
            for b_hat in [256, 512] {
                out.push(Query { model, p, b_hat });
            }
        }
    }
    out
}

/// A training workload's own job as planner queries: its model on P ∈
/// {2, 4} nodes at B̂ ∈ {N·B, 2·N·B}.
pub fn own_queries(model: ModelSpec, mini_batch: u64) -> Vec<Query> {
    let mut out = Vec::new();
    for p in [2, 4] {
        for b_hat in [mini_batch, 2 * mini_batch] {
            out.push(Query { model, p, b_hat });
        }
    }
    out
}

/// A seeded permutation of `0..n` (Fisher-Yates).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let mut s = seed;
    for i in (1..n).rev() {
        s = mix(s);
        idx.swap(i, (s % (i as u64 + 1)) as usize);
    }
    idx
}

/// Closed-loop planner timing with one caller: whole cycles over the
/// queries, each cycle in a fresh seeded order. Collects per-query
/// latencies (s) and failures.
pub struct Planner<'a> {
    queries: &'a [Query],
    seed: u64,
    /// This process runs the queries at positions `p` of each cycle's order
    /// with `p % part.1 == part.0`.
    part: (usize, usize),
    pub cycles: usize,
    pub latencies: Vec<f64>,
    pub errors: Vec<String>,
}

impl<'a> Planner<'a> {
    pub fn new(queries: &'a [Query], seed: u64, part: (usize, usize)) -> Self {
        Planner {
            queries,
            seed,
            part,
            cycles: 0,
            latencies: Vec::new(),
            errors: Vec::new(),
        }
    }

    pub fn cycle(&mut self) {
        let order = shuffled(self.queries.len(), mix(self.seed ^ self.cycles as u64));
        let (me, parts) = self.part;
        for (_, i) in order
            .into_iter()
            .enumerate()
            .filter(|(p, _)| p % parts == me)
        {
            let q = &self.queries[i];
            let t = Instant::now();
            let answer = std::panic::catch_unwind(|| q.run());
            self.latencies.push(t.elapsed().as_secs_f64());
            let checked = match answer {
                Ok(a) => a.and_then(|a| q.check(&a)),
                Err(_) => Err(format!("{}: planner panicked", q.label())),
            };
            if let Err(e) = checked {
                self.errors.push(e);
            }
        }
        self.cycles += 1;
    }
}

/// Ledger of one query: every candidate of both searches, each step timed
/// in its own span. Returns (candidates, retried, feasible).
pub fn ledger_query(q: &Query, sp: &Spans) -> (u64, u64, u64) {
    let cluster = ClusterSpec::piz_daint();
    let (mut cands, mut retried, mut feasible) = (0, 0, 0);
    for scheme in [CHIMERA, PlanScheme::Dapple] {
        for d in depth_candidates(q.p, &q.model) {
            let w = q.p / d;
            for b in batch_candidates(q.b_hat, w) {
                let Some(c) = sp.span("perf.evaluate", || {
                    evaluate(scheme, q.model, cluster, q.p, q.b_hat, w, d, b)
                }) else {
                    continue;
                };
                cands += 1;
                feasible += u64::from(c.fits);
                // The same steps evaluate() takes, one span each.
                let base: Schedule = sp.span("core.schedule", || {
                    let s = match scheme {
                        PlanScheme::Dapple => dapple(d, c.n),
                        _ => chimera(&ChimeraConfig::new(d, c.n)).expect("evaluated config builds"),
                    };
                    place_sync(s, SyncStrategy::EagerOpt, UnitCosts::practical())
                });
                let cost = TrainConfig {
                    model: q.model,
                    cluster,
                    d,
                    w,
                    b,
                    stage_replicas: base.placement.replicas(),
                }
                .cost_model();
                let mut sched = base.clone();
                sp.span("sim.simulate", || simulate_span(&sched, &cost, 1).ok());
                let mem = sp.span("verify.memory_v2", || memory_v2(&sched, &cost));
                if !mem.fits(cluster.usable_mem()) {
                    retried += 1;
                    sched = base.with_recompute();
                    sp.span("sim.simulate", || simulate_span(&sched, &cost, 1).ok());
                    sp.span("verify.memory_v2", || memory_v2(&sched, &cost));
                }
                sp.span("verify.span", || verify_span(&sched, 1));
            }
        }
    }
    (cands, retried, feasible)
}
