//! Per-worker memory accounting (§4.1, Fig. 9).
//!
//! Peak memory = resident weight state (one parameter copy plus gradient and
//! optimizer buffers for every stage replica the worker holds) + the exact
//! peak of the buffers the core liveness engine tracks: activation stashes,
//! rematerializations, and — for non-flushing schedules — the stashed weight
//! versions that copy-on-update keeps alive. Weight-version counts are not
//! assumed per scheme; they come out of the schedule's own op order.

use chimera_core::liveness::analyze;
use chimera_core::schedule::Schedule;
use chimera_core::WorkerId;

use crate::cost::SimCostModel;

/// Always-resident bytes per worker: one parameter copy plus the
/// gradient/optimizer buffers of every stage replica the worker holds.
pub fn resident_bytes(sched: &Schedule, cost: &SimCostModel) -> Vec<u64> {
    (0..sched.num_workers())
        .map(|w| {
            sched
                .placement
                .held_by(WorkerId(w as u32))
                .into_iter()
                .map(|(_, stage)| {
                    let st = &cost.stages[stage.idx()];
                    st.param_bytes + st.grad_opt_bytes
                })
                .sum()
        })
        .collect()
}

/// Per-worker memory at each worker's peak, in bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryProfile {
    /// Activation bytes (stashes + rematerializations) live at the peak.
    pub peak_act_bytes: Vec<u64>,
    /// Resident weight state plus the stashed weight versions live at the
    /// peak.
    pub weight_bytes: Vec<u64>,
    /// Exact peak total: `weight_bytes + peak_act_bytes`.
    pub peak_mem_bytes: Vec<u64>,
}

/// Resident bytes plus one liveness pass over `sched` under `cost`'s byte
/// model.
pub fn profile(sched: &Schedule, cost: &SimCostModel) -> MemoryProfile {
    let live = analyze(sched, cost);
    let resident = resident_bytes(sched, cost);
    let mut out = MemoryProfile {
        peak_act_bytes: Vec::with_capacity(resident.len()),
        weight_bytes: Vec::with_capacity(resident.len()),
        peak_mem_bytes: Vec::with_capacity(resident.len()),
    };
    for (w, res) in resident.into_iter().enumerate() {
        let peak = res + live.peak[w].round() as u64;
        let weights = res + live.breakdown[w].weight_versions.round() as u64;
        out.peak_mem_bytes.push(peak);
        out.weight_bytes.push(weights);
        out.peak_act_bytes.push(peak - weights);
    }
    out
}

/// Whether every worker fits in `capacity_bytes` of device memory.
pub fn fits(peaks: &[u64], capacity_bytes: u64) -> bool {
    peaks.iter().all(|&p| p <= capacity_bytes)
}

/// Memory imbalance: `(max - min) / max` across workers; Chimera's schedule
/// yields a markedly lower value than DAPPLE/PipeDream-2BW (Fig. 9).
pub fn imbalance(peaks: &[u64]) -> f64 {
    let max = peaks.iter().copied().max().unwrap_or(0);
    let min = peaks.iter().copied().min().unwrap_or(0);
    if max == 0 {
        0.0
    } else {
        (max - min) as f64 / max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::AllReduceAlgo;
    use crate::cost::StageCosts;
    use crate::network::{NetworkModel, Topology};
    use chimera_core::baselines::{dapple, pipedream_2bw_steady, pipedream_steady};
    use chimera_core::chimera::{chimera, ChimeraConfig};

    const PARAM: u64 = 100 << 20;
    const GRAD_OPT: u64 = 200 << 20;

    fn cost(d: u32) -> SimCostModel {
        SimCostModel {
            stages: vec![
                StageCosts {
                    fwd_s: 1e-3,
                    bwd_s: 2e-3,
                    recompute_s: 1e-3,
                    boundary_bytes: 1 << 20,
                    act_bytes: 8 << 20,
                    param_bytes: PARAM,
                    grad_opt_bytes: GRAD_OPT,
                };
                d as usize
            ],
            network: NetworkModel::cray_aries(),
            topology: Topology::one_per_node(d),
            allreduce_participants: 2,
            allreduce_algo: AllReduceAlgo::Rabenseifner,
            allreduce_beta_factor: 1.0,
            launch_overhead_s: 0.0,
            half_chunk_penalty: 1.0,
            comm_compute_interference: 0.0,
            p2p_host_overhead_s: 0.0,
            p2p_host_s_per_byte: 0.0,
            grad_compression: 1.0,
        }
    }

    #[test]
    fn pipedream_stashes_d_versions_at_stage0() {
        // Table 2: D − s weight versions at stage s in steady state.
        let d = 4;
        let s = pipedream_steady(d, d, 4);
        let w = profile(&s, &cost(d)).weight_bytes;
        // Stage 0: 4 versions * 100M + 200M; stage 3: 1 * 100M + 200M.
        assert_eq!(w[0], 4 * PARAM + GRAD_OPT);
        assert_eq!(w[3], PARAM + GRAD_OPT);
        assert!(w[0] > w[3]);
    }

    #[test]
    fn chimera_holds_two_stage_replicas() {
        let d = 4;
        let s = chimera(&ChimeraConfig::new(d, d)).unwrap();
        let w = profile(&s, &cost(d)).weight_bytes;
        for &b in &w {
            assert_eq!(b, 2 * (PARAM + GRAD_OPT));
        }
        assert_eq!(resident_bytes(&s, &cost(d)), w);
    }

    #[test]
    fn dapple_weights_uniform_single_copy() {
        let d = 4;
        let w = profile(&dapple(d, 8), &cost(d)).weight_bytes;
        assert!(w.iter().all(|&b| b == PARAM + GRAD_OPT));
    }

    #[test]
    fn two_bw_double_buffers() {
        // Table 2: at most two versions (2Mθ) anywhere; stage 0 uses both.
        let d = 4;
        let w = profile(&pipedream_2bw_steady(d, 8, 4), &cost(d)).weight_bytes;
        assert!(w.iter().all(|&b| b <= 2 * PARAM + GRAD_OPT), "{w:?}");
        assert_eq!(w[0], 2 * PARAM + GRAD_OPT);
    }

    #[test]
    fn peak_is_weights_plus_activations() {
        let d = 4;
        for s in [
            dapple(d, 8),
            pipedream_steady(d, d, 4),
            pipedream_2bw_steady(d, 8, 4).with_recompute(),
        ] {
            let p = profile(&s, &cost(d));
            for w in 0..s.num_workers() {
                assert_eq!(p.peak_mem_bytes[w], p.weight_bytes[w] + p.peak_act_bytes[w]);
                assert!(p.peak_act_bytes[w] > 0, "{:?} P{w}", s.scheme);
            }
        }
    }

    #[test]
    fn chimera_more_balanced_than_dapple() {
        let d = 8;
        let c = cost(d);
        let peaks_c = profile(&chimera(&ChimeraConfig::new(d, d)).unwrap(), &c).peak_mem_bytes;
        let peaks_d = profile(&dapple(d, d), &c).peak_mem_bytes;
        assert!(
            imbalance(&peaks_c) < imbalance(&peaks_d),
            "chimera {:?} vs dapple {:?}",
            peaks_c,
            peaks_d
        );
    }

    #[test]
    fn fits_checks_capacity() {
        assert!(fits(&[10, 20], 20));
        assert!(!fits(&[10, 21], 20));
    }

    #[test]
    fn imbalance_zero_for_uniform() {
        assert_eq!(imbalance(&[5, 5, 5]), 0.0);
        assert!((imbalance(&[10, 5]) - 0.5).abs() < 1e-12);
        assert_eq!(imbalance(&[]), 0.0);
    }
}
