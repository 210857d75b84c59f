//! Transport overhead: p2p latency and bandwidth of each `chimera-comm`
//! backend, measured with a keyed ping-pong between two fabric endpoints.
//!
//! For every backend × message size the harness reports the mean one-way
//! time and effective bandwidth, fits α-β constants (`α` = one-way time of
//! the smallest message, `β` = marginal per-byte time between the two
//! largest sizes), and cross-checks the fit against the `chimera-sim`
//! [`NetworkModel`] link classes the simulator uses for the paper's
//! clusters. The local backend's measured α is dominated by its deadline
//! primitive's polling backoff (tens of µs) rather than the wire; the TCP
//! backend's receivers are woken on arrival, so its α is the loopback
//! socket round trip plus thread wake-ups. The meaningful check is on
//! bandwidth: the in-process backend's measured `1/β` must exceed the
//! simulated *inter-node* link bandwidths (8–10 GB/s) —
//! otherwise the harness itself, not the modeled network, would bottleneck
//! any experiment that replays the paper's communication volumes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use chimera_bench::{print_table, save_json};
use chimera_comm::{LocalFabric, MsgKey, Payload, TcpFabric, Transport};
use chimera_sim::{LinkParams, NetworkModel};

const TIMEOUT: Duration = Duration::from_secs(20);

/// Message sizes in f32 elements: 4 B up to 1 MiB.
const SIZES: [usize; 5] = [1, 64, 1024, 16_384, 262_144];

fn reps_for(floats: usize) -> u32 {
    match floats {
        0..=64 => 400,
        65..=1024 => 200,
        1025..=16_384 => 60,
        _ => 20,
    }
}

/// Mean one-way time for `floats`-element messages between two endpoints.
/// `base_round` keeps keys unique across the sweep on one fabric.
fn pingpong(
    a: &Arc<dyn Transport>,
    b: &Arc<dyn Transport>,
    floats: usize,
    reps: u32,
    base_round: u64,
) -> Duration {
    let warmup = 5u32;
    let total = warmup + reps;
    let echo = {
        let b = b.clone();
        let a_rank = a.rank();
        std::thread::spawn(move || {
            for i in 0..total as u64 {
                let key = MsgKey::Coll {
                    tag: 0,
                    round: base_round + i,
                    from: a_rank,
                };
                let payload = b.recv_deadline(key, TIMEOUT).expect("echo recv");
                b.send(
                    a_rank,
                    MsgKey::Coll {
                        tag: 1,
                        round: base_round + i,
                        from: b.rank(),
                    },
                    payload,
                )
                .expect("echo send");
            }
        })
    };
    let payload = vec![1.0f32; floats];
    let b_rank = b.rank();
    let mut elapsed = Duration::ZERO;
    for i in 0..total as u64 {
        let start = Instant::now();
        a.send(
            b_rank,
            MsgKey::Coll {
                tag: 0,
                round: base_round + i,
                from: a.rank(),
            },
            Payload::Flat(payload.clone()),
        )
        .expect("ping send");
        let back = a
            .recv_deadline(
                MsgKey::Coll {
                    tag: 1,
                    round: base_round + i,
                    from: b_rank,
                },
                TIMEOUT,
            )
            .expect("ping recv");
        let rtt = start.elapsed();
        assert_eq!(back.into_flat().len(), floats);
        if i >= warmup as u64 {
            elapsed += rtt;
        }
    }
    echo.join().expect("echo thread");
    elapsed / (2 * reps)
}

struct BackendResult {
    name: &'static str,
    /// `(floats, one-way time)` per size.
    times: Vec<(usize, Duration)>,
    wire_bytes: u64,
}

fn sweep(name: &'static str, endpoints: Vec<Arc<dyn Transport>>) -> BackendResult {
    let mut it = endpoints.into_iter();
    let a = it.next().expect("two endpoints");
    let b = it.next().expect("two endpoints");
    let mut times = Vec::new();
    let mut base_round = 0u64;
    for &floats in &SIZES {
        let reps = reps_for(floats);
        times.push((floats, pingpong(&a, &b, floats, reps, base_round)));
        base_round += (5 + reps) as u64;
    }
    let wire_bytes = a.bytes_sent() + b.bytes_sent();
    BackendResult {
        name,
        times,
        wire_bytes,
    }
}

/// α from the smallest message, β from the marginal cost between the two
/// largest.
fn fit_alpha_beta(times: &[(usize, Duration)]) -> LinkParams {
    let alpha_s = times[0].1.as_secs_f64();
    let (f1, t1) = times[times.len() - 2];
    let (f2, t2) = times[times.len() - 1];
    let beta_s_per_byte = (t2.as_secs_f64() - t1.as_secs_f64()) / ((f2 - f1) as f64 * 4.0);
    LinkParams {
        alpha_s,
        beta_s_per_byte: beta_s_per_byte.max(0.0),
    }
}

fn main() {
    let local = sweep("local", {
        LocalFabric::new(2)
            .into_iter()
            .map(|e| Arc::new(e) as Arc<dyn Transport>)
            .collect()
    });
    let tcp = sweep("tcp", {
        TcpFabric::loopback(2)
            .expect("tcp loopback fabric")
            .into_iter()
            .map(|e| Arc::new(e) as Arc<dyn Transport>)
            .collect()
    });

    let mut rows = Vec::new();
    let mut size_json = Vec::new();
    for backend in [&local, &tcp] {
        for &(floats, t) in &backend.times {
            let bytes = floats as u64 * 4;
            let gbps = bytes as f64 / t.as_secs_f64() / 1e9;
            rows.push(vec![
                backend.name.to_string(),
                bytes.to_string(),
                format!("{:.2}", t.as_secs_f64() * 1e6),
                format!("{gbps:.3}"),
            ]);
            size_json.push(serde_json::json!({
                "backend": backend.name,
                "size_bytes": bytes,
                "one_way_us": t.as_secs_f64() * 1e6,
                "bandwidth_gbps": gbps,
            }));
        }
    }
    print_table(
        "Transport p2p overhead (keyed ping-pong, one-way)",
        &["backend", "bytes", "one-way µs", "GB/s"],
        &rows,
    );

    // α-β fits vs the simulator's link classes.
    let fits = [
        (local.name, fit_alpha_beta(&local.times)),
        (tcp.name, fit_alpha_beta(&tcp.times)),
    ];
    let sim_links = [
        ("cray_aries.inter", NetworkModel::cray_aries().inter),
        ("cray_aries.intra", NetworkModel::cray_aries().intra),
        (
            "nvlink_infiniband.inter",
            NetworkModel::nvlink_infiniband().inter,
        ),
        (
            "nvlink_infiniband.intra",
            NetworkModel::nvlink_infiniband().intra,
        ),
    ];
    let mut fit_rows = Vec::new();
    for (name, link) in fits.iter().chain(sim_links.iter()) {
        // The local backend moves payloads by pointer, so its marginal
        // per-byte cost can fit to zero.
        let bw = if link.beta_s_per_byte == 0.0 {
            "zero-copy".to_string()
        } else {
            format!("{:.3}", 1.0 / link.beta_s_per_byte / 1e9)
        };
        fit_rows.push(vec![
            name.to_string(),
            format!("{:.2}", link.alpha_s * 1e6),
            bw,
        ]);
    }
    print_table(
        "α-β fits (measured backends vs chimera-sim NetworkModel constants)",
        &["link", "α µs", "1/β GB/s"],
        &fit_rows,
    );

    // Cross-check: the in-process backend must out-run the simulated
    // inter-node links — the link class pipeline p2p crosses in the paper's
    // clusters — or the harness itself would bottleneck replayed volumes.
    let local_fit = fits[0].1;
    let local_gbps = 1.0 / local_fit.beta_s_per_byte / 1e9;
    let mut violations = Vec::new();
    for (sim_name, sim) in sim_links.iter().filter(|(n, _)| n.ends_with(".inter")) {
        let sim_gbps = 1.0 / sim.beta_s_per_byte / 1e9;
        if local_gbps < sim_gbps {
            violations.push(format!(
                "local backend {local_gbps:.1} GB/s < {sim_name} {sim_gbps:.1} GB/s"
            ));
        }
    }
    if violations.is_empty() {
        let shown = if local_gbps.is_finite() {
            format!("{local_gbps:.1} GB/s")
        } else {
            "zero-copy".to_string()
        };
        println!(
            "\n✓ local backend bandwidth ({shown}) exceeds every simulated \
             inter-node link — the harness is not the bottleneck for replayed volumes"
        );
    } else {
        for v in &violations {
            println!("\n⚠ {v}");
        }
    }

    save_json(
        "comm_overhead",
        serde_json::json!({
            "sizes": size_json,
            "fits": fits
                .iter()
                .map(|(name, l)| serde_json::json!({
                    "link": name,
                    "alpha_us": l.alpha_s * 1e6,
                    "beta_s_per_byte": l.beta_s_per_byte,
                }))
                .collect::<Vec<_>>(),
            "sim_constants": sim_links
                .iter()
                .map(|(name, l)| serde_json::json!({
                    "link": name,
                    "alpha_us": l.alpha_s * 1e6,
                    "beta_s_per_byte": l.beta_s_per_byte,
                }))
                .collect::<Vec<_>>(),
            "wire_bytes": serde_json::json!({
                "local": local.wire_bytes,
                "tcp": tcp.wire_bytes,
            }),
            "consistency_violations": violations,
        }),
    );
}
