//! Shared dependency tracking for schedule executors.
//!
//! Both the in-order executor ([`crate::unit_time`]) and the work-conserving
//! compactor ([`crate::compact`]) need to answer the same question: given
//! what has already executed, at which tick are an op's data dependencies
//! satisfied? This module owns that logic.

use std::collections::HashMap;

use crate::ids::{MicroId, ReplicaId, StageId, WorkerId};
use crate::op::{Chunk, Op, OpKind};
use crate::placement::Placement;
use crate::unit_time::CostProvider;

type FwdKey = (MicroId, StageId, ReplicaId);
type BwdKey = (MicroId, StageId, ReplicaId, u8); // 0/1 = half chunk, 2 = full

/// Tracks finished ops and derives dependency-ready times.
pub(crate) struct DepTracker {
    d: u32,
    placement: Placement,
    fwd_finish: HashMap<FwdKey, u64>,
    bwd_finish: HashMap<BwdKey, u64>,
    /// Per stage: launch finish times, grouped by allreduce instance.
    ar_launches: HashMap<StageId, Vec<Vec<u64>>>,
    /// Completion time of each fully-launched allreduce instance.
    ar_complete: HashMap<(StageId, usize), u64>,
    /// Per worker: when its communication resource frees up. Collectives
    /// sharing a participant serialize (one progress engine per process, as
    /// in GLOO), which is what makes eager launching (§3.2) pay off.
    comm_busy: Vec<u64>,
    launch_count: HashMap<(WorkerId, StageId), usize>,
    wait_count: HashMap<(WorkerId, StageId), usize>,
}

impl DepTracker {
    pub(crate) fn new(d: u32, placement: &Placement) -> Self {
        DepTracker {
            d,
            placement: placement.clone(),
            fwd_finish: HashMap::new(),
            bwd_finish: HashMap::new(),
            ar_launches: HashMap::new(),
            ar_complete: HashMap::new(),
            comm_busy: vec![0; d as usize],
            launch_count: HashMap::new(),
            wait_count: HashMap::new(),
        }
    }

    fn fwd_done(&self, m: MicroId, s: StageId, r: ReplicaId) -> Option<u64> {
        self.fwd_finish.get(&(m, s, r)).copied()
    }

    fn bwd_done(&self, m: MicroId, s: StageId, r: ReplicaId, consumer: Chunk) -> Option<u64> {
        match consumer {
            Chunk::Half(h) => self
                .bwd_finish
                .get(&(m, s, r, h))
                .or_else(|| self.bwd_finish.get(&(m, s, r, 2)))
                .copied(),
            _ => self.bwd_finish.get(&(m, s, r, 2)).copied().or_else(|| {
                let h0 = self.bwd_finish.get(&(m, s, r, 0))?;
                let h1 = self.bwd_finish.get(&(m, s, r, 1))?;
                Some((*h0).max(*h1))
            }),
        }
    }

    /// Earliest tick at which `op`'s dependencies are satisfied, or `None`
    /// if a dependency has not executed yet.
    pub(crate) fn ready_time<C: CostProvider>(
        &self,
        costs: &C,
        w: WorkerId,
        op: &Op,
    ) -> Option<u64> {
        match op.kind {
            OpKind::Forward => {
                if op.stage.0 == 0 {
                    return Some(0);
                }
                let prev = StageId(op.stage.0 - 1);
                let upstream = self.placement.worker(op.replica, prev);
                let hop = costs.p2p_delay(upstream, w, op);
                let mut t = 0;
                for m in op.covered_micros() {
                    t = t.max(self.fwd_done(m, prev, op.replica)? + hop);
                }
                Some(t)
            }
            OpKind::Backward { .. } => {
                let mut t = 0;
                // Local forward must have stashed activations.
                for m in op.covered_micros() {
                    t = t.max(self.fwd_done(m, op.stage, op.replica)?);
                }
                if op.stage.0 + 1 < self.d {
                    let next = StageId(op.stage.0 + 1);
                    let upstream = self.placement.worker(op.replica, next);
                    let hop = costs.p2p_delay(upstream, w, op);
                    for m in op.covered_micros() {
                        t = t.max(self.bwd_done(m, next, op.replica, op.chunk)? + hop);
                    }
                }
                Some(t)
            }
            OpKind::AllReduceLaunch => Some(0),
            OpKind::AllReduceWait => {
                let inst = *self.wait_count.get(&(w, op.stage)).unwrap_or(&0);
                self.ar_complete.get(&(op.stage, inst)).copied()
            }
        }
    }

    /// Record completion of `op` at `finish`.
    pub(crate) fn record<C: CostProvider>(&mut self, costs: &C, w: WorkerId, op: &Op, finish: u64) {
        match op.kind {
            OpKind::Forward => {
                for m in op.covered_micros() {
                    self.fwd_finish.insert((m, op.stage, op.replica), finish);
                }
            }
            OpKind::Backward { .. } => {
                let tag = match op.chunk {
                    Chunk::Half(h) => h,
                    _ => 2,
                };
                for m in op.covered_micros() {
                    self.bwd_finish
                        .insert((m, op.stage, op.replica, tag), finish);
                }
            }
            OpKind::AllReduceLaunch => {
                let count = self.launch_count.entry((w, op.stage)).or_insert(0);
                let inst = *count;
                *count += 1;
                let slots = self.ar_launches.entry(op.stage).or_default();
                while slots.len() <= inst {
                    slots.push(Vec::new());
                }
                slots[inst].push(finish);
                // Once every replica of the stage has launched, schedule the
                // collective on the participants' shared communication
                // resource (collectives on one worker serialize).
                let expected = self.placement.replicas() as usize;
                if slots[inst].len() == expected {
                    let holders = self.placement.stage_holders(op.stage);
                    let mut start = slots[inst].iter().copied().max().unwrap_or(0);
                    for h in &holders {
                        start = start.max(self.comm_busy[h.idx()]);
                    }
                    let complete = start + costs.allreduce_duration(op.stage);
                    for h in &holders {
                        self.comm_busy[h.idx()] = complete;
                    }
                    self.ar_complete.insert((op.stage, inst), complete);
                }
            }
            OpKind::AllReduceWait => {
                *self.wait_count.entry((w, op.stage)).or_insert(0) += 1;
            }
        }
    }
}
