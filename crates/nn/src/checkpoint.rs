//! Binary model checkpoints.
//!
//! Long pipeline-parallel training runs checkpoint their model state; this
//! module serializes a stage-partitioned model to a compact little-endian
//! binary format and restores it bit-exactly. Restoring can re-partition:
//! a checkpoint written from a `D=4` partition can be loaded as `D=8`
//! stages (parameters are partition-independent, see [`crate::stage`]).
//!
//! Two format versions exist. Version 1 ([`save`]) stores parameters only.
//! Version 2 ([`save_state`]) appends per-parameter optimizer state
//! (momentum / Adam moments and the step count), which a supervised
//! training runtime needs to resume **bit-identically** after a worker
//! failure: under momentum or Adam, restarting with zeroed moments changes
//! every subsequent update. Optimizer moments are flat per-parameter
//! vectors, so they re-partition exactly like the parameters themselves.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::optim::{Optimizer, OptimizerKind};
use crate::stage::{ModelConfig, Stage};

/// Format magic ("CHIM").
const MAGIC: u32 = 0x4348_494D;
/// Version 1: parameters only.
const VERSION_PARAMS: u32 = 1;
/// Version 2: parameters + optimizer state.
const VERSION_STATE: u32 = 2;

/// Optimizer tags in the version-2 state section.
const OPT_TAG_SGD: u8 = 0;
const OPT_TAG_ADAM: u8 = 1;

/// Checkpoint decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Not a chimera checkpoint (bad magic).
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// The byte stream ended early or has trailing garbage.
    Truncated,
    /// The stored parameter count does not match the configuration.
    ShapeMismatch {
        /// Parameters expected from the stored config.
        expected: usize,
        /// Parameters present in the stream.
        got: usize,
    },
    /// The requested partition depth does not divide the layer count.
    BadDepth(u32),
    /// The stored model configuration cannot describe a model: zero hidden
    /// size or heads, heads not dividing the hidden size, or a parameter
    /// count that overflows.
    BadConfig(&'static str),
    /// The optimizer-state section names an optimizer this build does not
    /// know.
    UnknownOptimizer(u8),
    /// [`load_state`] was asked to restore optimizer state from a
    /// parameters-only (version 1) checkpoint.
    MissingState,
    /// Reading or writing the checkpoint's backing storage failed.
    Io(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a chimera checkpoint"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::Truncated => write!(f, "checkpoint truncated or has trailing bytes"),
            CheckpointError::ShapeMismatch { expected, got } => {
                write!(
                    f,
                    "parameter count mismatch: expected {expected}, got {got}"
                )
            }
            CheckpointError::BadConfig(why) => write!(f, "invalid model configuration: {why}"),
            CheckpointError::BadDepth(d) => {
                write!(f, "layers do not divide evenly into {d} stages")
            }
            CheckpointError::UnknownOptimizer(t) => {
                write!(f, "unknown optimizer tag {t} in checkpoint state section")
            }
            CheckpointError::MissingState => {
                write!(f, "checkpoint has no optimizer state (version 1)")
            }
            CheckpointError::Io(e) => write!(f, "checkpoint storage: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

fn put_header(buf: &mut BytesMut, cfg: &ModelConfig, version: u32, total: usize) {
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(version);
    buf.put_u64_le(cfg.vocab as u64);
    buf.put_u64_le(cfg.hidden as u64);
    buf.put_u64_le(cfg.seq as u64);
    buf.put_u64_le(cfg.layers as u64);
    buf.put_u64_le(cfg.heads as u64);
    buf.put_u8(u8::from(cfg.causal));
    buf.put_u64_le(cfg.seed);
    buf.put_u64_le(total as u64);
}

/// Serialize a full model (its stages must form a complete chain built for
/// the same [`ModelConfig`]). Parameters only (format version 1); use
/// [`save_state`] when the restore must also resume the optimizer.
pub fn save(stages: &[Stage]) -> Bytes {
    assert!(!stages.is_empty(), "cannot checkpoint an empty model");
    let cfg = *stages[0].config();
    let total: usize = stages.iter().map(Stage::num_params).sum();
    let mut buf = BytesMut::with_capacity(64 + total * 4);
    put_header(&mut buf, &cfg, VERSION_PARAMS, total);
    for stage in stages {
        for v in stage.params() {
            buf.put_f32_le(v);
        }
    }
    buf.freeze()
}

/// Serialize a full model together with its per-stage optimizer state
/// (format version 2). `optimizers[s]` must manage exactly stage `s`'s
/// parameters, and all stages must share one update rule and step count
/// (true whenever every stage steps once per training iteration).
pub fn save_state(stages: &[Stage], optimizers: &[Optimizer]) -> Bytes {
    assert!(!stages.is_empty(), "cannot checkpoint an empty model");
    assert_eq!(
        stages.len(),
        optimizers.len(),
        "one optimizer per stage required"
    );
    let cfg = *stages[0].config();
    let total: usize = stages.iter().map(Stage::num_params).sum();
    let kind = optimizers[0].kind();
    let (_, _, t) = optimizers[0].state();
    for (stage, opt) in stages.iter().zip(optimizers) {
        assert_eq!(
            opt.len(),
            stage.num_params(),
            "optimizer/stage size mismatch"
        );
        assert_eq!(opt.kind(), kind, "stages must share one optimizer kind");
        assert_eq!(opt.steps(), t, "stages must share one step count");
    }
    let per_param = match kind {
        OptimizerKind::Sgd { .. } => 2,  // params + m
        OptimizerKind::Adam { .. } => 3, // params + m + v
    };
    let mut buf = BytesMut::with_capacity(96 + total * 4 * per_param);
    put_header(&mut buf, &cfg, VERSION_STATE, total);
    for stage in stages {
        for v in stage.params() {
            buf.put_f32_le(v);
        }
    }
    match kind {
        OptimizerKind::Sgd { momentum } => {
            buf.put_u8(OPT_TAG_SGD);
            buf.put_f32_le(momentum);
        }
        OptimizerKind::Adam { beta1, beta2, eps } => {
            buf.put_u8(OPT_TAG_ADAM);
            buf.put_f32_le(beta1);
            buf.put_f32_le(beta2);
            buf.put_f32_le(eps);
        }
    }
    buf.put_u64_le(t);
    for opt in optimizers {
        let (m, _, _) = opt.state();
        for &x in m {
            buf.put_f32_le(x);
        }
    }
    if matches!(kind, OptimizerKind::Adam { .. }) {
        for opt in optimizers {
            let (_, v, _) = opt.state();
            for &x in v {
                buf.put_f32_le(x);
            }
        }
    }
    buf.freeze()
}

fn parse(
    bytes: &[u8],
    depth: u32,
) -> Result<(Vec<Stage>, Option<Vec<Optimizer>>), CheckpointError> {
    let mut buf = bytes;
    if buf.remaining() < 8 {
        return Err(CheckpointError::Truncated);
    }
    if buf.get_u32_le() != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = buf.get_u32_le();
    if version != VERSION_PARAMS && version != VERSION_STATE {
        return Err(CheckpointError::BadVersion(version));
    }
    if buf.remaining() < 5 * 8 + 1 + 8 + 8 {
        return Err(CheckpointError::Truncated);
    }
    let cfg = ModelConfig {
        vocab: buf.get_u64_le() as usize,
        hidden: buf.get_u64_le() as usize,
        seq: buf.get_u64_le() as usize,
        layers: buf.get_u64_le() as usize,
        heads: buf.get_u64_le() as usize,
        causal: buf.get_u8() != 0,
        seed: buf.get_u64_le(),
    };
    if !cfg.layers.is_multiple_of(depth as usize) || depth == 0 {
        return Err(CheckpointError::BadDepth(depth));
    }
    if cfg.hidden == 0 || cfg.heads == 0 || !cfg.hidden.is_multiple_of(cfg.heads) {
        return Err(CheckpointError::BadConfig(
            "hidden size and heads must be nonzero, heads dividing hidden",
        ));
    }
    // Validate every size against the bytes actually present before
    // building (allocating) the model: a forged header must not cost more
    // memory than the checkpoint itself occupies.
    let expected = cfg
        .num_params()
        .ok_or(CheckpointError::BadConfig("parameter count overflows"))?;
    let total = usize::try_from(buf.get_u64_le()).unwrap_or(usize::MAX);
    if expected != total {
        return Err(CheckpointError::ShapeMismatch {
            expected,
            got: total,
        });
    }
    if total
        .checked_mul(4)
        .is_none_or(|bytes| buf.remaining() < bytes)
    {
        return Err(CheckpointError::ShapeMismatch {
            expected: total,
            got: buf.remaining() / 4,
        });
    }
    let mut stages = Stage::build_all(cfg, depth);
    for stage in &mut stages {
        let mut flat = vec![0.0f32; stage.num_params()];
        for v in &mut flat {
            *v = buf.get_f32_le();
        }
        stage.set_params(&flat);
    }
    let optimizers = if version == VERSION_STATE {
        if buf.remaining() < 1 {
            return Err(CheckpointError::Truncated);
        }
        let tag = buf.get_u8();
        let (kind, has_v) = match tag {
            OPT_TAG_SGD => {
                if buf.remaining() < 4 {
                    return Err(CheckpointError::Truncated);
                }
                (
                    OptimizerKind::Sgd {
                        momentum: buf.get_f32_le(),
                    },
                    false,
                )
            }
            OPT_TAG_ADAM => {
                if buf.remaining() < 12 {
                    return Err(CheckpointError::Truncated);
                }
                (
                    OptimizerKind::Adam {
                        beta1: buf.get_f32_le(),
                        beta2: buf.get_f32_le(),
                        eps: buf.get_f32_le(),
                    },
                    true,
                )
            }
            other => return Err(CheckpointError::UnknownOptimizer(other)),
        };
        if buf.remaining() < 8 {
            return Err(CheckpointError::Truncated);
        }
        let t = buf.get_u64_le();
        let moments = total * if has_v { 2 } else { 1 };
        if buf.remaining() < moments * 4 {
            return Err(CheckpointError::Truncated);
        }
        let mut m_flat = vec![0.0f32; total];
        for x in &mut m_flat {
            *x = buf.get_f32_le();
        }
        let mut v_flat = vec![0.0f32; if has_v { total } else { 0 }];
        for x in &mut v_flat {
            *x = buf.get_f32_le();
        }
        // Moments are flat per-parameter vectors in the same global order
        // as the parameters, so they re-partition by the same split.
        let mut optimizers = Vec::with_capacity(stages.len());
        let mut off = 0;
        for stage in &stages {
            let n = stage.num_params();
            let m = m_flat[off..off + n].to_vec();
            let v = if has_v {
                v_flat[off..off + n].to_vec()
            } else {
                Vec::new()
            };
            optimizers.push(Optimizer::from_state(kind, m, v, t));
            off += n;
        }
        Some(optimizers)
    } else {
        None
    };
    if buf.remaining() != 0 {
        return Err(CheckpointError::Truncated);
    }
    Ok((stages, optimizers))
}

/// Restore a model from `bytes`, re-partitioned into `depth` stages. Accepts
/// both format versions; any optimizer state in a version-2 checkpoint is
/// parsed (and validated) but discarded.
pub fn load(bytes: &[u8], depth: u32) -> Result<Vec<Stage>, CheckpointError> {
    parse(bytes, depth).map(|(stages, _)| stages)
}

/// Restore a model **and** its per-stage optimizer state from a version-2
/// checkpoint, re-partitioned into `depth` stages. Fails with
/// [`CheckpointError::MissingState`] on a parameters-only checkpoint.
pub fn load_state(
    bytes: &[u8],
    depth: u32,
) -> Result<(Vec<Stage>, Vec<Optimizer>), CheckpointError> {
    let (stages, optimizers) = parse(bytes, depth)?;
    let optimizers = optimizers.ok_or(CheckpointError::MissingState)?;
    Ok((stages, optimizers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticData;
    use crate::reference::ReferenceTrainer;

    fn trained_model() -> Vec<Stage> {
        let cfg = ModelConfig::tiny();
        let mut t = ReferenceTrainer::new(
            Stage::build_all(cfg, 2),
            SyntheticData::new(cfg, 1),
            2,
            0.05,
            0.9,
        );
        t.train_iteration(0, 4);
        t.stages
    }

    #[test]
    fn roundtrip_is_bitexact() {
        let stages = trained_model();
        let bytes = save(&stages);
        let restored = load(&bytes, 2).unwrap();
        let a: Vec<f32> = stages.iter().flat_map(Stage::params).collect();
        let b: Vec<f32> = restored.iter().flat_map(Stage::params).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn repartition_on_load() {
        let stages = trained_model(); // trained as D=2
        let bytes = save(&stages);
        for depth in [1u32, 2, 4] {
            let restored = load(&bytes, depth).unwrap();
            assert_eq!(restored.len(), depth as usize);
            let a: Vec<f32> = stages.iter().flat_map(Stage::params).collect();
            let b: Vec<f32> = restored.iter().flat_map(Stage::params).collect();
            assert_eq!(a, b, "depth {depth}");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(load(b"nope", 2).unwrap_err(), CheckpointError::Truncated);
        let mut bytes = save(&trained_model()).to_vec();
        bytes[0] ^= 0xFF;
        assert_eq!(load(&bytes, 2).unwrap_err(), CheckpointError::BadMagic);
    }

    #[test]
    fn truncation_detected() {
        let bytes = save(&trained_model());
        let cut = &bytes[..bytes.len() - 4];
        assert!(matches!(
            load(cut, 2),
            Err(CheckpointError::ShapeMismatch { .. })
        ));
    }

    /// Overwrite the little-endian u64 header field at byte `at` (vocab 8,
    /// hidden 16, seq 24, layers 32, heads 40, total 57).
    fn forge(field_at: usize, value: u64) -> Vec<u8> {
        let mut bytes = save(&trained_model()).to_vec();
        bytes[field_at..field_at + 8].copy_from_slice(&value.to_le_bytes());
        bytes
    }

    #[test]
    fn zero_heads_is_a_typed_error() {
        assert!(matches!(
            load(&forge(40, 0), 2),
            Err(CheckpointError::BadConfig(_))
        ));
    }

    #[test]
    fn heads_not_dividing_hidden_is_a_typed_error() {
        // tiny(): hidden 16.
        assert!(matches!(
            load(&forge(40, 3), 2),
            Err(CheckpointError::BadConfig(_))
        ));
    }

    #[test]
    fn overflowing_param_count_is_a_typed_error() {
        let err = load(&forge(57, 1 << 62), 2).unwrap_err();
        assert!(
            matches!(err, CheckpointError::ShapeMismatch { got, .. } if got == 1 << 62),
            "{err:?}"
        );
        // A header whose own parameter count overflows.
        assert_eq!(
            load(&forge(16, 1 << 40), 2).unwrap_err(),
            CheckpointError::BadConfig("parameter count overflows")
        );
    }

    #[test]
    fn huge_vocab_is_rejected_before_allocating() {
        // The model this header describes would need ~2^64 floats; the
        // loader must refuse it from the header alone.
        let err = load(&forge(8, 1 << 60), 2).unwrap_err();
        assert_eq!(err, CheckpointError::BadConfig("parameter count overflows"));
        // Large but representable: still refused, by size, before building.
        let err = load(&forge(8, 1 << 30), 2).unwrap_err();
        assert!(
            matches!(err, CheckpointError::ShapeMismatch { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn config_param_count_matches_built_model() {
        let cfg = ModelConfig::tiny();
        for depth in [1u32, 2, 4] {
            let built: usize = Stage::build_all(cfg, depth)
                .iter()
                .map(Stage::num_params)
                .sum();
            assert_eq!(cfg.num_params(), Some(built), "depth {depth}");
        }
    }

    #[test]
    fn bad_depth_rejected() {
        let bytes = save(&trained_model());
        assert_eq!(load(&bytes, 3).unwrap_err(), CheckpointError::BadDepth(3));
        assert_eq!(load(&bytes, 0).unwrap_err(), CheckpointError::BadDepth(0));
    }

    #[test]
    fn version_checked() {
        let mut bytes = save(&trained_model()).to_vec();
        bytes[4] = 99;
        assert_eq!(
            load(&bytes, 2).unwrap_err(),
            CheckpointError::BadVersion(99)
        );
    }

    #[test]
    fn stored_config_shape_mismatch_detected() {
        // Corrupt the stored hidden size: the config then disagrees with the
        // stored parameter count.
        let mut bytes = save(&trained_model()).to_vec();
        bytes[16] = bytes[16].wrapping_add(8); // hidden u64 at offset 16
        assert!(matches!(
            load(&bytes, 2),
            Err(CheckpointError::ShapeMismatch { .. })
        ));
    }

    /// Train with a real optimizer, checkpoint params+state, restore under a
    /// different partition depth, and check every float is bit-identical.
    fn state_roundtrip(kind: OptimizerKind, save_depth: u32, load_depth: u32) {
        let cfg = ModelConfig {
            layers: 8,
            ..ModelConfig::tiny()
        };
        let mut stages = Stage::build_all(cfg, save_depth);
        let mut optimizers: Vec<Optimizer> = stages
            .iter()
            .map(|s| Optimizer::new(kind, s.num_params()))
            .collect();
        // A few non-trivial steps so m/v/t are all non-zero.
        for step in 0..3u64 {
            for (stage, opt) in stages.iter_mut().zip(&mut optimizers) {
                let n = stage.num_params();
                let grad: Vec<f32> = (0..n)
                    .map(|i| ((i as f32) + step as f32).sin() * 0.01)
                    .collect();
                let mut params = stage.params();
                opt.step(&mut params, &grad, 0.05);
                stage.set_params(&params);
            }
        }
        let bytes = save_state(&stages, &optimizers);
        let (restored, ropts) = load_state(&bytes, load_depth).unwrap();
        assert_eq!(restored.len(), load_depth as usize);
        assert_eq!(ropts.len(), load_depth as usize);

        let p0: Vec<u32> = stages
            .iter()
            .flat_map(Stage::params)
            .map(f32::to_bits)
            .collect();
        let p1: Vec<u32> = restored
            .iter()
            .flat_map(Stage::params)
            .map(f32::to_bits)
            .collect();
        assert_eq!(p0, p1, "params differ after re-partition");

        let flat = |opts: &[Optimizer], pick: fn(&Optimizer) -> Vec<f32>| -> Vec<u32> {
            opts.iter().flat_map(pick).map(f32::to_bits).collect()
        };
        let m = |o: &Optimizer| o.state().0.to_vec();
        let v = |o: &Optimizer| o.state().1.to_vec();
        assert_eq!(flat(&optimizers, m), flat(&ropts, m), "m differs");
        assert_eq!(flat(&optimizers, v), flat(&ropts, v), "v differs");
        for o in &ropts {
            assert_eq!(o.steps(), 3);
            assert_eq!(o.kind(), kind);
        }
    }

    #[test]
    fn state_roundtrip_repartitions_d4_to_d8() {
        state_roundtrip(OptimizerKind::Sgd { momentum: 0.9 }, 4, 8);
        state_roundtrip(OptimizerKind::adam(), 4, 8);
    }

    #[test]
    fn state_roundtrip_same_depth() {
        state_roundtrip(OptimizerKind::adam(), 2, 2);
    }

    #[test]
    fn load_accepts_state_checkpoints() {
        let stages = trained_model();
        let optimizers: Vec<Optimizer> = stages
            .iter()
            .map(|s| Optimizer::new(OptimizerKind::Sgd { momentum: 0.9 }, s.num_params()))
            .collect();
        let bytes = save_state(&stages, &optimizers);
        let restored = load(&bytes, 2).unwrap();
        let a: Vec<f32> = stages.iter().flat_map(Stage::params).collect();
        let b: Vec<f32> = restored.iter().flat_map(Stage::params).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn load_state_rejects_v1() {
        let bytes = save(&trained_model());
        assert_eq!(
            load_state(&bytes, 2).unwrap_err(),
            CheckpointError::MissingState
        );
    }

    #[test]
    fn truncated_state_section_detected() {
        let stages = trained_model();
        let optimizers: Vec<Optimizer> = stages
            .iter()
            .map(|s| Optimizer::new(OptimizerKind::adam(), s.num_params()))
            .collect();
        let bytes = save_state(&stages, &optimizers);
        let cut = &bytes[..bytes.len() - 4];
        assert_eq!(load_state(cut, 2).unwrap_err(), CheckpointError::Truncated);
    }

    #[test]
    fn unknown_optimizer_tag_rejected() {
        let stages = trained_model();
        let optimizers: Vec<Optimizer> = stages
            .iter()
            .map(|s| Optimizer::new(OptimizerKind::Sgd { momentum: 0.0 }, s.num_params()))
            .collect();
        let bytes = save_state(&stages, &optimizers).to_vec();
        let total: usize = stages.iter().map(Stage::num_params).sum();
        let tag_off = 8 + 5 * 8 + 1 + 8 + 8 + total * 4;
        let mut bytes = bytes;
        bytes[tag_off] = 7;
        assert_eq!(
            load_state(&bytes, 2).unwrap_err(),
            CheckpointError::UnknownOptimizer(7)
        );
    }
}
