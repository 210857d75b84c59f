//! End-to-end planner/simulator checks of the paper's headline shapes
//! (Figs. 1, 14, 15): who wins, and by roughly what factor.

use chimera::core::chimera::ScaleMethod;
use chimera::perf::planner::{best, plan_chimera, PlanScheme};
use chimera::perf::{ClusterSpec, ModelSpec};

fn chimera_best(model: ModelSpec, cluster: ClusterSpec, p: u32, b_hat: u64) -> f64 {
    [
        ScaleMethod::Direct,
        ScaleMethod::ForwardDoubling { recompute: true },
        ScaleMethod::BackwardHalving,
    ]
    .into_iter()
    .filter_map(|s| plan_chimera(1, s, model, cluster, p, b_hat))
    .map(|c| c.throughput)
    .fold(0.0, f64::max)
}

/// GPT-2 at scale (Fig. 1 / Fig. 15, shrunk to P=512 to keep test time
/// modest): Chimera beats every synchronous baseline and PipeDream.
#[test]
fn gpt2_at_scale_chimera_wins_synchronous() {
    let model = ModelSpec::gpt2();
    let cluster = ClusterSpec::piz_daint();
    let (p, b_hat) = (512, 512u64);
    let chim = chimera_best(model, cluster, p, b_hat);
    assert!(chim > 0.0);
    for scheme in [
        PlanScheme::GPipe,
        PlanScheme::Dapple,
        PlanScheme::Gems,
        PlanScheme::PipeDream,
    ] {
        let base = best(scheme, model, cluster, p, b_hat)
            .map(|c| c.throughput)
            .unwrap_or(0.0);
        assert!(
            chim > base,
            "{}: chimera {chim:.1} vs {base:.1}",
            scheme.label()
        );
    }
    // GEMS loses big (paper: 2.3x).
    let gems = best(PlanScheme::Gems, model, cluster, p, b_hat).unwrap();
    assert!(chim / gems.throughput > 1.5);
    // PipeDream-2BW is the closest competitor (paper: within ~1.2x either way).
    let bw = best(PlanScheme::PipeDream2Bw, model, cluster, p, b_hat).unwrap();
    let ratio = chim / bw.throughput;
    assert!(
        (0.7..1.4).contains(&ratio),
        "Chimera/2BW ratio {ratio:.2} out of the near-parity band"
    );
}

/// Bert-48 at 32 nodes (Fig. 14): Chimera beats DAPPLE and GPipe.
#[test]
fn bert_32_nodes_chimera_beats_sync() {
    let model = ModelSpec::bert48();
    let cluster = ClusterSpec::piz_daint();
    let (p, b_hat) = (32, 512u64);
    let chim = chimera_best(model, cluster, p, b_hat);
    for scheme in [PlanScheme::GPipe, PlanScheme::Dapple, PlanScheme::Gems] {
        let base = best(scheme, model, cluster, p, b_hat).unwrap().throughput;
        assert!(chim > base, "{}: {chim:.1} vs {base:.1}", scheme.label());
    }
}

/// Weak scaling: Chimera's throughput grows near-linearly with P for GPT-2
/// (the paper reports 91.4% efficiency from 512 to 2,048 nodes).
#[test]
fn chimera_weak_scaling_efficiency() {
    let model = ModelSpec::gpt2();
    let cluster = ClusterSpec::piz_daint();
    let t512 = chimera_best(model, cluster, 512, 512);
    let t1024 = chimera_best(model, cluster, 1024, 1024);
    let eff = (t1024 / t512) / 2.0;
    assert!(eff > 0.85, "512->1024 node efficiency {eff:.3}");
}

/// The planner's Eq. 1-selected Chimera configuration is close to the
/// simulator-best one (the paper: within 1.7% for GPT-2).
#[test]
fn model_selection_near_optimal() {
    use chimera::perf::planner::{batch_candidates, depth_candidates, evaluate};
    let model = ModelSpec::bert48();
    let cluster = ClusterSpec::piz_daint();
    let (p, b_hat) = (32u32, 512u64);
    let scheme = PlanScheme::Chimera {
        f: 1,
        scale: ScaleMethod::Direct,
    };
    let picked = plan_chimera(1, ScaleMethod::Direct, model, cluster, p, b_hat).unwrap();
    // Exhaustive simulated best.
    let mut best_sim = 0.0f64;
    for d in depth_candidates(p, &model) {
        let w = p / d;
        for b in batch_candidates(b_hat, w) {
            if let Some(c) = evaluate(scheme, model, cluster, p, b_hat, w, d, b) {
                if c.fits {
                    best_sim = best_sim.max(c.throughput);
                }
            }
        }
    }
    assert!(
        picked.throughput >= 0.9 * best_sim,
        "model picked {:.1}, simulated best {:.1}",
        picked.throughput,
        best_sim
    );
}

/// Memory claim of §4.1: at the same configuration Chimera's per-worker
/// peaks are markedly more balanced than DAPPLE's and its peak is within
/// ~15% of DAPPLE's despite holding two model replicas.
#[test]
fn memory_balance_claim() {
    use chimera::core::baselines::dapple;
    use chimera::core::chimera::{chimera, ChimeraConfig};
    use chimera::perf::TrainConfig;
    use chimera::sim::memory;

    let cfg = |replicas| TrainConfig {
        model: ModelSpec::gpt2(),
        cluster: ClusterSpec::piz_daint(),
        d: 8,
        w: 4,
        b: 1,
        stage_replicas: replicas,
    };
    let chim = chimera(&ChimeraConfig::new(8, 16)).unwrap();
    let dap = dapple(8, 16);
    let cost_c = cfg(2).cost_model();
    let cost_d = cfg(1).cost_model();
    let peaks_c = memory::profile(&chim, &cost_c).peak_mem_bytes;
    let peaks_d = memory::profile(&dap, &cost_d).peak_mem_bytes;
    assert!(memory::imbalance(&peaks_c) < 0.5 * memory::imbalance(&peaks_d));
    let max_c = *peaks_c.iter().max().unwrap() as f64;
    let max_d = *peaks_d.iter().max().unwrap() as f64;
    assert!(
        max_c < 1.25 * max_d,
        "chimera peak {max_c} vs dapple {max_d}"
    );
}
