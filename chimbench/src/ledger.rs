//! Stand-alone layer timings for the traced run: nn layers at the
//! workload's shapes, p2p ping-pong and gradient transfer over both
//! fabrics, and the three allreduce paths. Every timed call is a span.

use std::sync::Arc;
use std::time::{Duration, Instant};

use chimera_collectives::{keyed_group, TransportKeyed};
use chimera_comm::{KeyedReduce, LocalFabric, MsgKey, Payload, TcpEndpoint, TcpFabric, Transport};
use chimera_nn::{Embedding, Optimizer, OutputHead, Stage, SyntheticData, TransformerBlock};
use chimera_runtime::TrainOptions;
use chimera_tensor::{kernels, Rng, Tensor};

use crate::train::{TrainSpec, D};
use crate::util::{derive, median, Spans};

/// Median span time, ms, of `name`.
pub fn med(sp: &Spans, name: &str) -> f64 {
    median(&sp.durations_ms(name))
}

/// Repeat `f` until `budget_s` is spent, at least `min` and at most
/// `max` times.
fn repeat(budget_s: f64, min: usize, max: usize, mut f: impl FnMut()) {
    let t = Instant::now();
    let mut i = 0;
    while i < min || (i < max && t.elapsed().as_secs_f64() < budget_s) {
        f();
        i += 1;
    }
}

/// nn layer timings for one micro-batch, one kernel thread. Returns the
/// per-stage optimizer step times (ms), stage 0 first.
pub fn nn_layers(spec: &TrainSpec, seed: u64, sp: &Spans, budget_s: f64) -> Vec<f64> {
    kernels::set_threads(1);
    let cfg = spec.model;
    let (h, seq) = (cfg.hidden, cfg.seq);
    let rows = spec.b * seq;
    let mut rng = Rng::new(derive(seed, "nn-ledger"));
    let (tokens, targets) = SyntheticData::new(cfg, spec.data_seed).batch(0, spec.b);
    let emb = Embedding::new(cfg.vocab, seq, h, &mut rng);
    let blk = TransformerBlock::new(h, cfg.heads, seq, cfg.causal, &mut rng);
    let head = OutputHead::new(h, cfg.vocab, &mut rng);
    let dy = Tensor::normal(rows, h, 0.02, &mut rng);
    let x = emb.forward(&tokens, seq);
    let mut g_emb = vec![0.0; emb.num_params()];
    let mut g_blk = vec![0.0; blk.num_params()];
    let mut g_ln = vec![0.0; blk.ln1.num_params()];
    let mut g_attn = vec![0.0; blk.attn.num_params()];
    let mut g_head = vec![0.0; head.num_params()];
    let per = budget_s * 0.8;
    repeat(per, 3, 200, || {
        sp.span("nn.embedding.fwd", || emb.forward(&tokens, seq));
        sp.span("nn.embedding.bwd", || {
            emb.backward(&tokens, seq, &dy, &mut g_emb)
        });
        let (n1, ln_stash) = sp.span("nn.layernorm.fwd", || blk.ln1.forward(&x));
        sp.span("nn.layernorm.bwd", || {
            blk.ln1.backward(&ln_stash, &dy, &mut g_ln)
        });
        let (_, attn_stash) = sp.span("nn.attention.fwd", || blk.attn.forward(&n1));
        sp.span("nn.attention.bwd", || {
            blk.attn.backward(&attn_stash, &dy, &mut g_attn)
        });
        let (y, blk_stash) = sp.span("nn.block.fwd", || blk.forward(&x));
        sp.span("nn.block.bwd", || blk.backward(&blk_stash, &dy, &mut g_blk));
        let (_, head_stash) = sp.span("nn.head.fwd", || head.forward_loss(&y, &targets));
        let scale = 1.0 / spec.n as f32;
        sp.span("nn.head.bwd", || {
            head.backward(&head_stash, scale, &mut g_head)
        });
    });
    // Optimizer: one update over each stage's parameters.
    let kind = TrainOptions::default().optimizer_kind();
    let lr = TrainOptions::default().lr;
    Stage::build_all(cfg, D)
        .iter()
        .enumerate()
        .map(|(s, stage)| {
            let mut params = stage.params();
            let grad: Vec<f32> = (0..params.len()).map(|_| rng.normal() * 1e-3).collect();
            let mut opt = Optimizer::new(kind, params.len());
            let name = format!("nn.optim.step.s{s}");
            repeat(budget_s * 0.1, 3, 50, || {
                sp.span(&name, || opt.step(&mut params, &grad, lr));
            });
            med(sp, &name)
        })
        .collect()
}

/// Two connected endpoints of a fabric, plus the concrete TCP endpoints
/// (empty for the local fabric) for their session counters.
type Pair = (Vec<Arc<dyn Transport>>, Vec<Arc<TcpEndpoint>>);

fn pair(tcp: bool) -> Result<Pair, String> {
    if tcp {
        let eps: Vec<Arc<TcpEndpoint>> = TcpFabric::loopback(2)
            .map_err(|e| e.to_string())?
            .into_iter()
            .map(Arc::new)
            .collect();
        let dynamic = eps
            .iter()
            .map(|e| e.clone() as Arc<dyn Transport>)
            .collect();
        Ok((dynamic, eps))
    } else {
        let eps = LocalFabric::new(2)
            .into_iter()
            .map(|e| Arc::new(e) as Arc<dyn Transport>)
            .collect();
        Ok((eps, Vec::new()))
    }
}

const WAIT: Duration = Duration::from_secs(10);

/// Ping-pong of one activation payload between two ranks; each round trip
/// is a span named `name`. Rank 1 echoes on a helper thread.
fn ping_pong(
    eps: &[Arc<dyn Transport>],
    act: &Tensor,
    reps: u64,
    sp: &Spans,
    name: &str,
) -> Result<(), String> {
    let echo = eps[1].clone();
    let helper = std::thread::spawn(move || -> Result<(), String> {
        for micro in 0..reps {
            let key = MsgKey::Act {
                replica: 0,
                stage: 0,
                micro,
            };
            let p = echo.recv_deadline(key, WAIT).map_err(|e| e.to_string())?;
            let back = MsgKey::Grad {
                replica: 0,
                stage: 1,
                micro,
            };
            echo.send(0, back, p).map_err(|e| e.to_string())?;
        }
        Ok(())
    });
    let mut res = Ok(());
    for micro in 0..reps {
        let payload = Payload::Tensor(act.clone());
        let r = sp.span(name, || -> Result<(), String> {
            eps[0]
                .send(
                    1,
                    MsgKey::Act {
                        replica: 0,
                        stage: 0,
                        micro,
                    },
                    payload,
                )
                .map_err(|e| e.to_string())?;
            let back = MsgKey::Grad {
                replica: 0,
                stage: 1,
                micro,
            };
            eps[0]
                .recv_deadline(back, WAIT)
                .map(drop)
                .map_err(|e| e.to_string())
        });
        if r.is_err() {
            res = r;
            break;
        }
    }
    let joined = helper
        .join()
        .map_err(|_| "echo thread panicked".to_string())?;
    res.and(joined)
}

/// One stage gradient from rank 1 to rank 0, acknowledged; span per send.
fn grad_transfer(
    eps: &[Arc<dyn Transport>],
    len: usize,
    reps: u64,
    sp: &Spans,
) -> Result<(), String> {
    let sink = eps[0].clone();
    let helper = std::thread::spawn(move || -> Result<(), String> {
        for round in 0..reps {
            let key = MsgKey::Coll {
                tag: 7,
                round,
                from: 1,
            };
            sink.recv_deadline(key, WAIT).map_err(|e| e.to_string())?;
            let ack = MsgKey::Coll {
                tag: 7,
                round,
                from: 0,
            };
            sink.send(1, ack, Payload::Flat(vec![0.0]))
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    });
    let mut res = Ok(());
    for round in 0..reps {
        let grad = vec![0.5f32; len];
        let r = sp.span("comm.tcp.grad", || -> Result<(), String> {
            let key = MsgKey::Coll {
                tag: 7,
                round,
                from: 1,
            };
            eps[1]
                .send(0, key, Payload::Flat(grad))
                .map_err(|e| e.to_string())?;
            let ack = MsgKey::Coll {
                tag: 7,
                round,
                from: 0,
            };
            eps[1]
                .recv_deadline(ack, WAIT)
                .map(drop)
                .map_err(|e| e.to_string())
        });
        if r.is_err() {
            res = r;
            break;
        }
    }
    let joined = helper
        .join()
        .map_err(|_| "sink thread panicked".to_string())?;
    res.and(joined)
}

/// Two-member allreduce of one stage gradient per round; member 0's
/// deposit-to-result time is a span named `name`.
fn allreduce(
    members: Vec<Box<dyn KeyedReduce>>,
    len: usize,
    reps: u64,
    sp: &Spans,
    name: &str,
) -> Result<(), String> {
    let mut members = members.into_iter();
    let first = members.next().ok_or("empty group")?;
    let second = members.next().ok_or("one-member group")?;
    let helper = std::thread::spawn(move || -> Result<(), String> {
        for round in 0..reps {
            second.deposit(vec![(2 * round + 1, vec![0.25f32; len])]);
            second.fetch_deadline(WAIT).ok_or("allreduce timed out")?;
        }
        Ok(())
    });
    let mut res = Ok(());
    for round in 0..reps {
        let grad = vec![0.5f32; len];
        let r = sp.span(name, || -> Result<(), String> {
            first.deposit(vec![(2 * round, grad)]);
            let sum = first.fetch_deadline(WAIT).ok_or("allreduce timed out")?;
            if sum.len() != len || sum[0] != 0.75 {
                return Err(format!("{name}: wrong allreduce result"));
            }
            Ok(())
        });
        if r.is_err() {
            res = r;
            break;
        }
    }
    let joined = helper
        .join()
        .map_err(|_| "allreduce member panicked".to_string())?;
    res.and(joined)
}

/// Session counters of the micro-benchmark TCP endpoints.
pub struct CommLedger {
    pub retransmits: u64,
    pub dup_dropped: u64,
}

/// Comm and collectives timings at the workload's payload sizes.
pub fn comm_layers(spec: &TrainSpec, sp: &Spans) -> Result<CommLedger, String> {
    let act = Tensor::zeros(spec.b * spec.model.seq, spec.model.hidden);
    let grad_len = spec.stage_params()[0];
    let reps = 200;
    let (local, _) = pair(false)?;
    ping_pong(&local, &act, reps, sp, "comm.local.rtt")?;
    let (tcp, tcp_eps) = pair(true)?;
    ping_pong(&tcp, &act, reps, sp, "comm.tcp.rtt")?;
    grad_transfer(&tcp, grad_len, 20, sp)?;

    let ar_reps = 20;
    let keyed = keyed_group(2)
        .into_iter()
        .map(|m| Box::new(m) as Box<dyn KeyedReduce>)
        .collect();
    allreduce(keyed, grad_len, ar_reps, sp, "collectives.keyed.allreduce")?;
    for (eps, name) in [
        (&local, "collectives.transport.allreduce.local"),
        (&tcp, "collectives.transport.allreduce.tcp"),
    ] {
        let members = eps
            .iter()
            .map(|ep| {
                Box::new(TransportKeyed::new(ep.clone(), 3, vec![0, 1])) as Box<dyn KeyedReduce>
            })
            .collect();
        allreduce(members, grad_len, ar_reps, sp, name)?;
    }
    let ledger = tcp_eps.iter().fold(
        CommLedger {
            retransmits: 0,
            dup_dropped: 0,
        },
        |acc, ep| {
            let s = ep.session_stats();
            CommLedger {
                retransmits: acc.retransmits + s.retransmits,
                dup_dropped: acc.dup_dropped + s.dup_dropped,
            }
        },
    );
    Ok(ledger)
}
