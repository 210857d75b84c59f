//! Whole-schedule buffer-liveness dataflow engine: the one memory model.
//!
//! Every memory number in the workspace — the activation peaks of Table 2/3,
//! the simulator's per-worker peak bytes (Fig. 9), the verifier's exact
//! `memory/v3` report, the planner's fit test, and the runtime's pool
//! pre-sizing plan — is a view of one [`analyze`] pass. It is a
//! register-allocator-style def/use/kill walk over **every buffer a worker
//! holds across ops**:
//!
//! * **Stash halves** — a forward defines one buffer per half-micro it covers
//!   (forward doubling defines four, backward halving kills one at a time),
//!   killed by the backward that consumes the half. Under recomputation the
//!   stashed buffer shrinks to the stage-boundary input and the backward
//!   carries a **rematerialization** buffer whose def and kill are the same op.
//! * **Weight versions** — non-flushing schedules (PipeDream-family weight
//!   stashing) materialize a parameter copy *at the update that supersedes a
//!   still-referenced version* (copy-on-update, one buffer per distinct
//!   version — not one per in-flight micro), killed by the backward of the
//!   last micro that references it.
//! * **Gradient contributions** — each backward defines one flat gradient
//!   buffer, killed by the next allreduce launch of its `(replica, stage)`
//!   (or live to the end of the span under post-hoc synchronization).
//!
//! Every buffer gets an exact live range `[def, kill]` (op indices, inclusive
//! on both ends: a buffer killed *by* op `i` is still resident while `i`
//! runs). Each worker runs its ops sequentially, so its allocation events
//! happen in program order whatever the op timings are; the walk therefore
//! needs no timeline. From the ranges the engine derives:
//!
//! 1. an **exact peak** per worker — the max prefix sum of def/kill deltas in
//!    program order;
//! 2. the **memory cliff** — the op whose execution first reaches the peak,
//!    with a per-kind breakdown at that instant;
//! 3. **interference**: two buffers interfere iff their ranges overlap; a
//!    deterministic linear scan over the interval graph ([`assign_slots`])
//!    uses exactly max-clique many slots ([`max_overlap`]) — the pool
//!    pre-sizing number the runtime consumes;
//! 4. lifetime findings with exact ranges ([`LifetimeFinding`]): a forward
//!    re-defining a half whose previous buffer is still live, and a backward
//!    killing a half with no live buffer.

use std::collections::HashMap;

use crate::ids::StageId;
use crate::op::{Chunk, Op, OpKind};
use crate::schedule::Schedule;

/// What a live buffer holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufferKind {
    /// Stashed activations of one half-micro (full stash, or the boundary
    /// input under recomputation).
    Stash,
    /// Activations rematerialized by a recomputing backward; def == kill.
    Remat,
    /// A superseded-but-referenced parameter version (weight stashing).
    WeightVersion,
    /// One backward's flat gradient contribution awaiting its allreduce.
    Grad,
}

impl BufferKind {
    fn idx(self) -> usize {
        match self {
            BufferKind::Stash => 0,
            BufferKind::Remat => 1,
            BufferKind::WeightVersion => 2,
            BufferKind::Grad => 3,
        }
    }

    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            BufferKind::Stash => "stash",
            BufferKind::Remat => "remat",
            BufferKind::WeightVersion => "weight_version",
            BufferKind::Grad => "grad",
        }
    }
}

/// One buffer's exact static lifetime on a worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferLife {
    /// What the buffer holds.
    pub kind: BufferKind,
    /// Owning replica.
    pub replica: u32,
    /// Owning stage.
    pub stage: u32,
    /// Disambiguator within `(kind, replica, stage)`: the half-micro id
    /// (`2·micro + h`) for stashes, the version id for weight versions, the
    /// defining op index for rematerializations and gradients.
    pub key: u64,
    /// Op index that defines (allocates) the buffer.
    pub def: usize,
    /// Op index at whose *end* the buffer is freed; a buffer never freed in
    /// the span gets the last op index (live through the whole tail).
    pub kill: usize,
    /// Buffer size in the size model's unit (abstract units or bytes).
    pub size: f64,
}

impl BufferLife {
    /// Whether two live ranges overlap (share at least one op). Ranges that
    /// abut at exactly one op — one killed by op `i`, the other defined at
    /// op `i` — DO interfere: the dying buffer is resident while `i` runs.
    pub fn interferes(&self, other: &BufferLife) -> bool {
        self.def.max(other.def) <= self.kill.min(other.kill)
    }
}

/// Buffer sizes for the four buffer kinds. Implementations choose the unit:
/// abstract activation units ([`crate::UnitCosts`]), simulator bytes, or
/// measured runtime f32 elements.
pub trait BufferSizes {
    /// Full activation stash of one compute op (all halves it covers).
    fn full_stash(&self, op: &Op) -> f64;
    /// Boundary-only stash of one compute op (recomputation).
    fn boundary_stash(&self, op: &Op) -> f64;
    /// One stashed parameter version of `stage`.
    fn weight_version(&self, stage: StageId) -> f64;
    /// One backward's flat gradient contribution.
    fn grad_contribution(&self, op: &Op) -> f64;
}

/// Peak breakdown by buffer kind, in the size model's unit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KindBreakdown {
    /// Stashed activation halves.
    pub stash: f64,
    /// Rematerialized activations.
    pub remat: f64,
    /// Stashed weight versions.
    pub weight_versions: f64,
    /// Pending gradient contributions.
    pub grads: f64,
}

impl KindBreakdown {
    fn from_cur(cur: &[f64; 4]) -> Self {
        KindBreakdown {
            stash: cur[0],
            remat: cur[1],
            weight_versions: cur[2],
            grads: cur[3],
        }
    }
}

/// A lifetime defect the walk found. Only malformed schedules produce these;
/// `chimera-verify` reports them as `stash_overlap_range` and
/// `stash_use_after_free` diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifetimeFinding {
    /// A forward re-stashes a half whose previous buffer is still live: the
    /// live ranges overlap and the earlier activations are lost.
    StashOverlap {
        /// Worker index.
        worker: usize,
        /// Replica of the clobbered stash.
        replica: u32,
        /// Stage of the clobbered stash.
        stage: u32,
        /// Half-micro id (`2·micro + h`).
        half: u64,
        /// Op index that defined the still-live buffer.
        live_def: usize,
        /// Op index of the re-stashing forward.
        at: usize,
    },
    /// A backward frees a half with no live buffer (never stashed, or
    /// already freed).
    UseAfterFree {
        /// Worker index.
        worker: usize,
        /// Replica of the freed stash.
        replica: u32,
        /// Stage of the freed stash.
        stage: u32,
        /// Half-micro id (`2·micro + h`).
        half: u64,
        /// Op index of the freeing backward.
        at: usize,
    },
}

/// The dataflow engine's result for one schedule.
#[derive(Debug, Clone)]
pub struct LivenessReport {
    /// Every buffer's exact live range, per worker, in def order.
    pub lives: Vec<Vec<BufferLife>>,
    /// Exact peak resident dynamic memory per worker (size-model units).
    pub peak: Vec<f64>,
    /// Op index whose execution first reaches the peak (the memory cliff);
    /// `None` for workers with no tracked buffers.
    pub cliff: Vec<Option<usize>>,
    /// Per-kind breakdown at the cliff, per worker.
    pub breakdown: Vec<KindBreakdown>,
    /// Lifetime defects, in walk order (empty for well-formed schedules).
    pub findings: Vec<LifetimeFinding>,
}

/// The `(replica, stage)` pairs whose backward recomputes: their forwards
/// stash only the stage-boundary input. The single definition of that set,
/// shared by [`analyze`] and the runtime's pool census.
pub fn recomputing(sched: &Schedule) -> Vec<(u32, u32)> {
    let mut v = Vec::new();
    for (_, _, op) in sched.iter_ops() {
        if op.recomputes() && !v.contains(&(op.replica.0, op.stage.0)) {
            v.push((op.replica.0, op.stage.0));
        }
    }
    v
}

/// Per-`(replica, stage)` weight-version walk state.
#[derive(Default)]
struct VersionState {
    /// Current (resident) version id.
    current: u64,
    /// In-flight micros referencing the current (unmaterialized) version.
    current_refs: u32,
    /// Version each in-flight micro's forward read.
    by_micro: HashMap<u64, u64>,
    /// Materialized superseded versions: id → (lives index, refs).
    open: HashMap<u64, (usize, u32)>,
}

/// Halves defined/killed by a compute op: `2·micro + h` for every covered
/// half.
fn halves(op: &Op) -> Vec<u64> {
    match op.chunk {
        Chunk::Half(h) => vec![2 * op.micro.0 as u64 + u64::from(h.min(1))],
        _ => op
            .covered_micros()
            .flat_map(|m| [2 * m.0 as u64, 2 * m.0 as u64 + 1])
            .collect(),
    }
}

/// Run the dataflow analysis over every worker of `sched` under `sizes`.
pub fn analyze<S: BufferSizes + ?Sized>(sched: &Schedule, sizes: &S) -> LivenessReport {
    let recomputing = recomputing(sched);
    let stash_weights = !sched.flushes;

    let mut lives: Vec<Vec<BufferLife>> = Vec::with_capacity(sched.num_workers());
    let mut peaks = Vec::with_capacity(sched.num_workers());
    let mut cliffs = Vec::with_capacity(sched.num_workers());
    let mut breakdowns = Vec::with_capacity(sched.num_workers());
    let mut findings = Vec::new();

    for (w, ops) in sched.workers.iter().enumerate() {
        let mut wl: Vec<BufferLife> = Vec::new();
        // (replica, stage, half) → index into `wl` of the live stash buffer.
        let mut open_stash: HashMap<(u32, u32, u64), usize> = HashMap::new();
        // Halves of a micro's stash already killed (half-backward schemes).
        let mut half_done: HashMap<(u32, u32, u64), u32> = HashMap::new();
        let mut versions: HashMap<(u32, u32), VersionState> = HashMap::new();
        // (replica, stage) → indices of pending gradient contributions.
        let mut pending_grads: HashMap<(u32, u32), Vec<usize>> = HashMap::new();

        let mut cur = [0.0f64; 4];
        let mut peak = 0.0f64;
        let mut cliff: Option<usize> = None;
        let mut at_peak = KindBreakdown::default();
        let mut check_peak = |cur: &[f64; 4], i: usize, cliff: &mut Option<usize>| {
            let total: f64 = cur.iter().sum();
            if total > peak {
                peak = total;
                *cliff = Some(i);
                at_peak = KindBreakdown::from_cur(cur);
            }
        };

        for (i, op) in ops.iter().enumerate() {
            let rs = (op.replica.0, op.stage.0);
            match op.kind {
                OpKind::Forward => {
                    let total = if recomputing.contains(&rs) {
                        sizes.boundary_stash(op)
                    } else {
                        sizes.full_stash(op)
                    };
                    let nh = halves(op);
                    let per = total / nh.len() as f64;
                    for half in nh {
                        if let Some(&prev) = open_stash.get(&(rs.0, rs.1, half)) {
                            let plife = wl[prev];
                            findings.push(LifetimeFinding::StashOverlap {
                                worker: w,
                                replica: rs.0,
                                stage: rs.1,
                                half,
                                live_def: plife.def,
                                at: i,
                            });
                            // Close the clobbered buffer here so accounting
                            // stays bounded on broken schedules.
                            wl[prev].kill = i;
                            cur[BufferKind::Stash.idx()] -= plife.size;
                        }
                        open_stash.insert((rs.0, rs.1, half), wl.len());
                        wl.push(BufferLife {
                            kind: BufferKind::Stash,
                            replica: rs.0,
                            stage: rs.1,
                            key: half,
                            def: i,
                            kill: usize::MAX,
                            size: per,
                        });
                        cur[BufferKind::Stash.idx()] += per;
                        half_done.remove(&(rs.0, rs.1, half / 2));
                    }
                    if stash_weights {
                        let st = versions.entry(rs).or_default();
                        for m in op.covered_micros() {
                            st.by_micro.insert(m.0 as u64, st.current);
                            st.current_refs += 1;
                        }
                    }
                    check_peak(&cur, i, &mut cliff);
                }
                OpKind::Backward { recompute } => {
                    if recompute {
                        let size = sizes.full_stash(op) - sizes.boundary_stash(op);
                        wl.push(BufferLife {
                            kind: BufferKind::Remat,
                            replica: rs.0,
                            stage: rs.1,
                            key: i as u64,
                            def: i,
                            kill: i,
                            size,
                        });
                        cur[BufferKind::Remat.idx()] += size;
                        check_peak(&cur, i, &mut cliff);
                    }
                    let gsize = sizes.grad_contribution(op);
                    if gsize > 0.0 {
                        pending_grads.entry(rs).or_default().push(wl.len());
                        wl.push(BufferLife {
                            kind: BufferKind::Grad,
                            replica: rs.0,
                            stage: rs.1,
                            key: i as u64,
                            def: i,
                            kill: usize::MAX,
                            size: gsize,
                        });
                        cur[BufferKind::Grad.idx()] += gsize;
                        check_peak(&cur, i, &mut cliff);
                    }
                    // Kills: the consumed stash halves (and the transient
                    // rematerialization) die at this op's end.
                    if recompute {
                        let idx = wl
                            .iter()
                            .rposition(|b| b.kind == BufferKind::Remat && b.def == i)
                            .expect("remat pushed above");
                        cur[BufferKind::Remat.idx()] -= wl[idx].size;
                    }
                    for half in halves(op) {
                        match open_stash.remove(&(rs.0, rs.1, half)) {
                            Some(idx) => {
                                wl[idx].kill = i;
                                cur[BufferKind::Stash.idx()] -= wl[idx].size;
                            }
                            None => findings.push(LifetimeFinding::UseAfterFree {
                                worker: w,
                                replica: rs.0,
                                stage: rs.1,
                                half,
                                at: i,
                            }),
                        }
                    }
                    if stash_weights {
                        let st = versions.entry(rs).or_default();
                        for m in op.covered_micros() {
                            let complete = match op.chunk {
                                Chunk::Half(_) => {
                                    let done =
                                        half_done.entry((rs.0, rs.1, m.0 as u64)).or_insert(0);
                                    *done += 1;
                                    *done == 2
                                }
                                _ => true,
                            };
                            if !complete {
                                continue;
                            }
                            let Some(v) = st.by_micro.remove(&(m.0 as u64)) else {
                                continue;
                            };
                            if v == st.current {
                                st.current_refs = st.current_refs.saturating_sub(1);
                            } else if let Some((idx, refs)) = st.open.remove(&v) {
                                if refs > 1 {
                                    st.open.insert(v, (idx, refs - 1));
                                } else {
                                    wl[idx].kill = i;
                                    cur[BufferKind::WeightVersion.idx()] -= wl[idx].size;
                                }
                            }
                        }
                    }
                }
                OpKind::AllReduceLaunch => {
                    for idx in pending_grads.remove(&rs).unwrap_or_default() {
                        wl[idx].kill = i;
                        cur[BufferKind::Grad.idx()] -= wl[idx].size;
                    }
                }
                OpKind::AllReduceWait => {
                    if stash_weights {
                        let st = versions.entry(rs).or_default();
                        if st.current_refs > 0 {
                            // Copy-on-update: the superseded version is still
                            // referenced by in-flight micros and must be
                            // materialized before the update overwrites it.
                            let size = sizes.weight_version(op.stage);
                            st.open.insert(st.current, (wl.len(), st.current_refs));
                            wl.push(BufferLife {
                                kind: BufferKind::WeightVersion,
                                replica: rs.0,
                                stage: rs.1,
                                key: st.current,
                                def: i,
                                kill: usize::MAX,
                                size,
                            });
                            cur[BufferKind::WeightVersion.idx()] += size;
                            check_peak(&cur, i, &mut cliff);
                        }
                        st.current += 1;
                        st.current_refs = 0;
                    }
                }
            }
        }

        // Buffers never killed in the span stay live through the tail.
        let last = ops.len().saturating_sub(1);
        for b in &mut wl {
            if b.kill == usize::MAX {
                b.kill = last;
            }
        }
        lives.push(wl);
        peaks.push(peak);
        cliffs.push(cliff);
        breakdowns.push(at_peak);
    }

    LivenessReport {
        lives,
        peak: peaks,
        cliff: cliffs,
        breakdown: breakdowns,
        findings,
    }
}

/// Deterministic linear-scan slot assignment over one class of intervals.
///
/// Input intervals are inclusive `[def, kill]` ranges. Returns the slot index
/// per interval (parallel to the input). The scan sorts by
/// `(def, kill, input index)` — a pure function of the intervals, so the
/// assignment is identical across runs, machines, and thread counts — and
/// always reuses the lowest free slot. On interval graphs the linear scan is
/// optimal: the number of slots used equals [`max_overlap`], the size of the
/// largest set of simultaneously-live intervals.
pub fn assign_slots(intervals: &[(usize, usize)]) -> Vec<u32> {
    let mut order: Vec<usize> = (0..intervals.len()).collect();
    order.sort_by_key(|&i| (intervals[i].0, intervals[i].1, i));
    // Active = (kill, slot); free = min-heap of released slots.
    let mut active: Vec<(usize, u32)> = Vec::new();
    let mut free = std::collections::BinaryHeap::new();
    let mut next = 0u32;
    let mut slots = vec![0u32; intervals.len()];
    for i in order {
        let (def, kill) = intervals[i];
        active.retain(|&(k, s)| {
            if k < def {
                free.push(std::cmp::Reverse(s));
                false
            } else {
                true
            }
        });
        let slot = match free.pop() {
            Some(std::cmp::Reverse(s)) => s,
            None => {
                let s = next;
                next += 1;
                s
            }
        };
        active.push((kill, slot));
        slots[i] = slot;
    }
    slots
}

/// Largest number of simultaneously-live intervals (inclusive ranges) — the
/// max clique of the interference graph, and the exact slot demand.
pub fn max_overlap(intervals: &[(usize, usize)]) -> usize {
    // Sweep +1 at def, −1 after kill.
    let mut deltas: Vec<(usize, i64)> = Vec::with_capacity(intervals.len() * 2);
    for &(def, kill) in intervals {
        deltas.push((def, 1));
        deltas.push((kill + 1, -1));
    }
    deltas.sort_by_key(|&(at, d)| (at, d)); // kills (−1) before defs at same op
    let mut cur = 0i64;
    let mut peak = 0i64;
    for (_, d) in deltas {
        cur += d;
        peak = peak.max(cur);
    }
    peak.max(0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{dapple, gpipe, pipedream_2bw_steady, pipedream_steady};
    use crate::chimera::{chimera, ChimeraConfig, ScaleMethod};
    use crate::unit_time::UnitCosts;

    #[test]
    fn abutting_ranges_interfere_but_disjoint_do_not() {
        let a = BufferLife {
            kind: BufferKind::Stash,
            replica: 0,
            stage: 0,
            key: 0,
            def: 0,
            kill: 5,
            size: 1.0,
        };
        // B's def is exactly A's kill op: A is still resident while op 5
        // runs, so they interfere (the off-by-one case).
        let b = BufferLife {
            key: 1,
            def: 5,
            kill: 9,
            ..a
        };
        let c = BufferLife {
            key: 2,
            def: 6,
            kill: 9,
            ..a
        };
        assert!(a.interferes(&b) && b.interferes(&a));
        assert!(!a.interferes(&c) && !c.interferes(&a));
        assert_eq!(max_overlap(&[(0, 5), (5, 9)]), 2);
        assert_eq!(max_overlap(&[(0, 5), (6, 9)]), 1);
        let slots = assign_slots(&[(0, 5), (5, 9), (6, 9)]);
        assert_ne!(slots[0], slots[1], "abutting intervals share an op");
        assert_eq!(slots[0], slots[2], "disjoint interval reuses the slot");
    }

    /// Peak weight versions per worker: unit-sized versions, nothing else.
    fn peak_versions(sched: &Schedule) -> Vec<usize> {
        let rep = analyze(sched, &ProbeSizes);
        assert!(rep.findings.is_empty(), "{:?}", rep.findings);
        rep.lives
            .iter()
            .map(|lives| {
                max_overlap(
                    &lives
                        .iter()
                        .filter(|b| b.kind == BufferKind::WeightVersion)
                        .map(|b| (b.def, b.kill))
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    }

    #[test]
    fn pipedream_keeps_d_minus_s_versions_at_stage_s() {
        // Table 2: PipeDream at stage s keeps D−s weight versions in steady
        // state — the resident copy plus D−s−1 superseded-but-referenced
        // ones the copy-on-update walk materializes.
        let d = 4;
        let versions = peak_versions(&pipedream_steady(d, d, 4));
        for (s, &v) in versions.iter().enumerate() {
            assert_eq!(v + 1, (d as usize) - s, "stage {s}: {versions:?}");
        }
    }

    #[test]
    fn two_bw_keeps_at_most_two_versions() {
        // Table 2: PipeDream-2BW double-buffers — at most one superseded
        // version beside the resident copy, and stage 0 really uses it.
        let d = 4;
        let versions = peak_versions(&pipedream_2bw_steady(d, 2 * d, 4));
        assert!(versions.iter().all(|&v| v <= 1), "{versions:?}");
        assert_eq!(versions[0], 1, "{versions:?}");
    }

    #[test]
    fn synchronous_schemes_stash_no_weight_versions() {
        for s in [
            gpipe(4, 8),
            dapple(4, 8),
            chimera(&ChimeraConfig::new(4, 8)).unwrap(),
        ] {
            assert!(peak_versions(&s).iter().all(|&v| v == 0), "{:?}", s.scheme);
        }
    }

    #[test]
    fn gpipe_cliff_is_the_last_injected_forward() {
        let rep = analyze(&gpipe(2, 4), &UnitCosts::equal());
        // GPipe's peak is reached at the last forward (index n-1).
        assert_eq!(rep.cliff[0], Some(3));
        assert_eq!(rep.peak[0], 4.0);
        assert_eq!(rep.breakdown[0].stash, 4.0);
    }

    #[test]
    fn recomputing_set_has_one_entry_per_recomputing_replica_stage() {
        let s = chimera(&ChimeraConfig {
            d: 4,
            n: 8,
            f: 1,
            scale: ScaleMethod::ForwardDoubling { recompute: true },
        })
        .unwrap();
        let r = recomputing(&s);
        // Both pipelines recompute at every stage.
        assert_eq!(r.len(), 8, "{r:?}");
        assert!(recomputing(&dapple(4, 8)).is_empty());
        assert_eq!(recomputing(&dapple(4, 8).with_recompute()).len(), 4);
    }

    #[test]
    fn findings_name_overlap_and_use_after_free() {
        // Worker 0 stashes micro 0 twice, then frees it twice.
        let mut s = gpipe(1, 1);
        let f = s.workers[0][0];
        let b = s.workers[0][1];
        s.workers[0] = vec![f, f, b, b];
        let rep = analyze(&s, &UnitCosts::equal());
        assert_eq!(
            rep.findings,
            vec![
                LifetimeFinding::StashOverlap {
                    worker: 0,
                    replica: 0,
                    stage: 0,
                    half: 0,
                    live_def: 0,
                    at: 1
                },
                LifetimeFinding::StashOverlap {
                    worker: 0,
                    replica: 0,
                    stage: 0,
                    half: 1,
                    live_def: 0,
                    at: 1
                },
                LifetimeFinding::UseAfterFree {
                    worker: 0,
                    replica: 0,
                    stage: 0,
                    half: 0,
                    at: 3
                },
                LifetimeFinding::UseAfterFree {
                    worker: 0,
                    replica: 0,
                    stage: 0,
                    half: 1,
                    at: 3
                },
            ]
        );
        // The clobbered buffer is closed at the re-stash: the peak stays one
        // micro's stash.
        assert_eq!(rep.peak[0], 1.0);
    }

    /// Unit sizes for version-walk tests: stash 0, version 1.
    struct ProbeSizes;
    impl BufferSizes for ProbeSizes {
        fn full_stash(&self, _op: &Op) -> f64 {
            0.0
        }
        fn boundary_stash(&self, _op: &Op) -> f64 {
            0.0
        }
        fn weight_version(&self, _stage: StageId) -> f64 {
            1.0
        }
        fn grad_contribution(&self, _op: &Op) -> f64 {
            0.0
        }
    }
}
