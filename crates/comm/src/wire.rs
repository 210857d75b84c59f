//! Wire format of the TCP backend: length-prefixed binary frames with a
//! versioned, checksummed header.
//!
//! ```text
//! frame   := u32 body_len (LE) · body
//! body    := u8 version · u8 kind · u64 checksum · rest
//! kind    := Data(0) | Ack(1) | Hello(2)
//! Data    := u64 seq · u32 from_rank · key · payload
//! Ack     := u32 from_rank · u64 upto
//! Hello   := u32 from_rank · u8 resume
//! key     := u8 kind · fields        (Act/Grad/Coll/Ctrl)
//! payload := u8 kind · data          (Tensor/Keyed/Flat/Losses/Bytes)
//! ```
//!
//! All integers are little-endian; `f32` vectors are raw LE bytes. The
//! `checksum` is [`checksum`] over `kind` and `rest`: a four-lane
//! multiply-xor hash that reads eight bytes per step, so it runs at memory
//! speed on multi-megabyte gradient frames. Every lane step and the final
//! mix are bijections, so a corruption confined to one aligned 8-byte word
//! of `rest` (or to the `kind` byte) always changes the checksum; wider
//! corruptions collide only by chance in 64 bits. A frame whose length
//! prefix was garbled, or whose body was bit-flipped in flight, is rejected
//! as [`CommError::Protocol`] instead of silently mis-framing the stream.
//! The `version` byte rejects frames from an incompatible build outright.
//!
//! **Session frames.** `Data` frames carry an optional per-link sequence
//! number (`seq == 0` marks unsequenced control traffic: rendezvous,
//! heartbeats). Sequenced frames are acknowledged by the receiver with
//! cumulative `Ack` frames and retained by the sender for retransmission
//! until acknowledged; `Hello` opens (or, with `resume`, re-opens) a data
//! connection and identifies the sending rank so the receiver can report
//! its delivered watermark back. See [`crate::tcp`] for the protocol.

use chimera_tensor::Tensor;

use crate::transport::{CommError, MsgKey, Payload, Rank};

/// Frames larger than this are rejected as corrupt (64 MiB of payload is
/// two orders of magnitude above the largest boundary tensor we ship).
pub const MAX_FRAME: usize = 64 << 20;

/// Current wire format version. Version 1 was the unversioned pre-session
/// format, version 2 carried a byte-at-a-time FNV-1a-32 checksum; decoders
/// reject anything that is not exactly this version.
pub const WIRE_VERSION: u8 = 3;

/// Bytes of the body header: version, kind, checksum.
const HEADER: usize = 10;

/// `Data` frames with this sequence number are outside any session:
/// delivered immediately, never acknowledged, never retransmitted.
pub const SEQ_UNSEQUENCED: u64 = 0;

const FK_DATA: u8 = 0;
const FK_ACK: u8 = 1;
const FK_HELLO: u8 = 2;

const KEY_ACT: u8 = 0;
const KEY_GRAD: u8 = 1;
const KEY_COLL: u8 = 2;
const KEY_CTRL: u8 = 3;

const PAY_TENSOR: u8 = 0;
const PAY_KEYED: u8 = 1;
const PAY_FLAT: u8 = 2;
const PAY_LOSSES: u8 = 3;
const PAY_BYTES: u8 = 4;

/// One decoded frame body.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A message. `seq` is the per-link session sequence number
    /// ([`SEQ_UNSEQUENCED`] for sessionless control traffic).
    Data {
        /// Session sequence number on the sender→receiver link.
        seq: u64,
        /// Sending rank.
        from: Rank,
        /// Message key.
        key: MsgKey,
        /// Message payload.
        payload: Payload,
    },
    /// Cumulative acknowledgement: every sequenced frame with
    /// `seq <= upto` from the addressed sender has been delivered.
    Ack {
        /// Acknowledging rank (the receiver of the data).
        from: Rank,
        /// Highest contiguously delivered sequence number.
        upto: u64,
    },
    /// Connection opener: identifies the sending rank on a fresh socket.
    /// `resume` marks a reconnect that will replay unacknowledged frames.
    Hello {
        /// Connecting rank.
        from: Rank,
        /// True when this connection resumes an interrupted session.
        resume: bool,
    },
}

/// Write one length-prefixed raw frame (`u32 LE length · body`) — the
/// framing discipline every chimera stream protocol shares. Rejects bodies
/// over [`MAX_FRAME`] with [`std::io::ErrorKind::InvalidInput`] so a bug
/// can never emit a frame its peer is obliged to drop the connection over.
pub fn write_raw_frame(w: &mut impl std::io::Write, body: &[u8]) -> std::io::Result<()> {
    if body.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame body of {} bytes exceeds MAX_FRAME", body.len()),
        ));
    }
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// Read one length-prefixed raw frame written by [`write_raw_frame`].
/// Returns `Ok(None)` on clean EOF at a frame boundary; a length prefix
/// over [`MAX_FRAME`] or EOF inside a frame is
/// [`std::io::ErrorKind::InvalidData`] / `UnexpectedEof`.
pub fn read_raw_frame(r: &mut impl std::io::Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside a frame length prefix",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;

/// One lane step: a bijection of `lane` for fixed `word` and of `word` for
/// fixed `lane`, so changing one input word always changes the lane.
fn lane_step(lane: u64, word: u64) -> u64 {
    (lane ^ word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn word_at(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8-byte word"))
}

/// The frame checksum over the `kind` byte and the bytes after the header.
///
/// Four independent lanes each absorb every fourth 8-byte word (32 bytes
/// per block); a ragged tail is absorbed word by word and its last partial
/// word zero-padded. Lane steps, the lane fold and the final avalanche are
/// all bijections in any one input word (and the `kind` seed), so a
/// corruption confined to one aligned word is always detected. The length
/// is folded in too, so truncations and extensions change the value with
/// overwhelming probability.
pub fn checksum(kind: u8, bytes: &[u8]) -> u64 {
    let mut lanes = [P1 ^ u64::from(kind), P2, P3, P1.rotate_left(17)];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = lane_step(*lane, word_at(word));
        }
    }
    let tail = blocks.remainder();
    let mut words = tail.chunks_exact(8);
    for (lane, word) in lanes.iter_mut().zip(&mut words) {
        *lane = lane_step(*lane, word_at(word));
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        let lane = &mut lanes[tail.len() / 8];
        *lane = lane_step(*lane, u64::from_le_bytes(last));
    }
    let mut h = lanes[0]
        .rotate_left(1)
        .wrapping_add(lanes[1].rotate_left(7))
        .wrapping_add(lanes[2].rotate_left(12))
        .wrapping_add(lanes[3].rotate_left(18))
        .wrapping_add((bytes.len() as u64).wrapping_mul(P3));
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// A frame under construction: room for the length prefix and the body
/// header up front, so sealing patches them in place instead of copying the
/// encoded rest into a second buffer.
fn start(rest_capacity: usize) -> Vec<u8> {
    let mut frame = Vec::with_capacity(4 + HEADER + rest_capacity);
    frame.resize(4 + HEADER, 0);
    frame
}

fn seal(kind: u8, mut frame: Vec<u8>) -> Vec<u8> {
    let body_len = (frame.len() - 4) as u32;
    let sum = checksum(kind, &frame[4 + HEADER..]);
    frame[..4].copy_from_slice(&body_len.to_le_bytes());
    frame[4] = WIRE_VERSION;
    frame[5] = kind;
    frame[6..4 + HEADER].copy_from_slice(&sum.to_le_bytes());
    frame
}

/// Encode one sequenced data frame (including the 4-byte length prefix).
pub fn encode_data(seq: u64, from: Rank, key: &MsgKey, payload: &Payload) -> Vec<u8> {
    let mut frame = start(40 + payload.wire_bytes() as usize);
    put_u64(&mut frame, seq);
    put_u32(&mut frame, from);
    match *key {
        MsgKey::Act {
            replica,
            stage,
            micro,
        } => {
            frame.push(KEY_ACT);
            put_u32(&mut frame, replica);
            put_u32(&mut frame, stage);
            put_u64(&mut frame, micro);
        }
        MsgKey::Grad {
            replica,
            stage,
            micro,
        } => {
            frame.push(KEY_GRAD);
            put_u32(&mut frame, replica);
            put_u32(&mut frame, stage);
            put_u64(&mut frame, micro);
        }
        MsgKey::Coll { tag, round, from } => {
            frame.push(KEY_COLL);
            put_u32(&mut frame, tag);
            put_u64(&mut frame, round);
            put_u32(&mut frame, from);
        }
        MsgKey::Ctrl { tag, from } => {
            frame.push(KEY_CTRL);
            put_u32(&mut frame, tag);
            put_u32(&mut frame, from);
        }
    }
    match payload {
        Payload::Tensor(t) => {
            frame.push(PAY_TENSOR);
            put_u32(&mut frame, t.rows() as u32);
            put_u32(&mut frame, t.cols() as u32);
            put_f32s(&mut frame, t.data());
        }
        Payload::Keyed(pairs) => {
            frame.push(PAY_KEYED);
            put_u32(&mut frame, pairs.len() as u32);
            for (k, v) in pairs {
                put_u64(&mut frame, *k);
                put_u32(&mut frame, v.len() as u32);
                put_f32s(&mut frame, v);
            }
        }
        Payload::Flat(v) => {
            frame.push(PAY_FLAT);
            put_u32(&mut frame, v.len() as u32);
            put_f32s(&mut frame, v);
        }
        Payload::Losses(l) => {
            frame.push(PAY_LOSSES);
            put_u32(&mut frame, l.len() as u32);
            for (micro, loss) in l {
                put_u64(&mut frame, *micro);
                put_f32s(&mut frame, std::slice::from_ref(loss));
            }
        }
        Payload::Bytes(b) => {
            frame.push(PAY_BYTES);
            put_u32(&mut frame, b.len() as u32);
            frame.extend_from_slice(b);
        }
    }
    seal(FK_DATA, frame)
}

/// Encode one unsequenced frame (including the 4-byte length prefix) —
/// the sessionless form used by the rendezvous control plane.
pub fn encode_frame(from: Rank, key: &MsgKey, payload: &Payload) -> Vec<u8> {
    encode_data(SEQ_UNSEQUENCED, from, key, payload)
}

/// Encode one cumulative acknowledgement frame.
pub fn encode_ack(from: Rank, upto: u64) -> Vec<u8> {
    let mut frame = start(12);
    put_u32(&mut frame, from);
    put_u64(&mut frame, upto);
    seal(FK_ACK, frame)
}

/// Encode one connection-opener frame.
pub fn encode_hello(from: Rank, resume: bool) -> Vec<u8> {
    let mut frame = start(5);
    put_u32(&mut frame, from);
    frame.push(u8::from(resume));
    seal(FK_HELLO, frame)
}

/// Decode one frame body (the bytes after the length prefix): validate the
/// version byte and checksum, then parse by frame kind.
pub fn decode_frame(body: &[u8]) -> Result<Frame, CommError> {
    if body.len() < HEADER {
        return Err(CommError::Protocol(format!(
            "frame body of {} bytes is shorter than the header",
            body.len()
        )));
    }
    if body[0] != WIRE_VERSION {
        return Err(CommError::Protocol(format!(
            "wire version {} (expected {WIRE_VERSION})",
            body[0]
        )));
    }
    let kind = body[1];
    let stored = u64::from_le_bytes(body[2..HEADER].try_into().expect("8-byte checksum"));
    let rest = &body[HEADER..];
    let computed = checksum(kind, rest);
    if stored != computed {
        return Err(CommError::Protocol(format!(
            "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
        )));
    }
    let mut r = Reader { buf: rest, pos: 0 };
    let frame = match kind {
        FK_DATA => {
            let seq = r.u64()?;
            let from = r.u32()?;
            let key = decode_key(&mut r)?;
            let payload = decode_payload(&mut r)?;
            Frame::Data {
                seq,
                from,
                key,
                payload,
            }
        }
        FK_ACK => Frame::Ack {
            from: r.u32()?,
            upto: r.u64()?,
        },
        FK_HELLO => Frame::Hello {
            from: r.u32()?,
            resume: r.u8()? != 0,
        },
        tag => return Err(CommError::Protocol(format!("unknown frame kind {tag}"))),
    };
    if r.pos != rest.len() {
        return Err(CommError::Protocol(format!(
            "{} trailing bytes after frame",
            rest.len() - r.pos
        )));
    }
    Ok(frame)
}

/// Decode one frame body that must be a data frame; convenience for the
/// control plane (rendezvous, clock sync) which never sees session frames.
pub fn decode_body(body: &[u8]) -> Result<(Rank, MsgKey, Payload), CommError> {
    match decode_frame(body)? {
        Frame::Data {
            from, key, payload, ..
        } => Ok((from, key, payload)),
        other => Err(CommError::Protocol(format!(
            "expected a data frame, got {other:?}"
        ))),
    }
}

fn decode_key(r: &mut Reader<'_>) -> Result<MsgKey, CommError> {
    Ok(match r.u8()? {
        KEY_ACT => MsgKey::Act {
            replica: r.u32()?,
            stage: r.u32()?,
            micro: r.u64()?,
        },
        KEY_GRAD => MsgKey::Grad {
            replica: r.u32()?,
            stage: r.u32()?,
            micro: r.u64()?,
        },
        KEY_COLL => MsgKey::Coll {
            tag: r.u32()?,
            round: r.u64()?,
            from: r.u32()?,
        },
        KEY_CTRL => MsgKey::Ctrl {
            tag: r.u32()?,
            from: r.u32()?,
        },
        tag => return Err(CommError::Protocol(format!("unknown key tag {tag}"))),
    })
}

fn decode_payload(r: &mut Reader<'_>) -> Result<Payload, CommError> {
    Ok(match r.u8()? {
        PAY_TENSOR => {
            let rows = r.u32()? as usize;
            let cols = r.u32()? as usize;
            let n = rows
                .checked_mul(cols)
                .filter(|&n| n * 4 <= MAX_FRAME)
                .ok_or_else(|| CommError::Protocol(format!("tensor {rows}x{cols} too large")))?;
            Payload::Tensor(Tensor::from_vec(rows, cols, r.f32s(n)?))
        }
        PAY_KEYED => {
            let n = r.u32()? as usize;
            let mut pairs = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let k = r.u64()?;
                let len = r.u32()? as usize;
                pairs.push((k, r.f32s(len)?));
            }
            Payload::Keyed(pairs)
        }
        PAY_FLAT => {
            let len = r.u32()? as usize;
            Payload::Flat(r.f32s(len)?)
        }
        PAY_LOSSES => {
            let n = r.u32()? as usize;
            let mut l = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let micro = r.u64()?;
                let loss = r.f32s(1)?[0];
                l.push((micro, loss));
            }
            Payload::Losses(l)
        }
        PAY_BYTES => {
            let len = r.u32()? as usize;
            Payload::Bytes(r.bytes(len)?.to_vec())
        }
        tag => return Err(CommError::Protocol(format!("unknown payload tag {tag}"))),
    })
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn bytes(&mut self, n: usize) -> Result<&[u8], CommError> {
        if self.pos + n > self.buf.len() {
            return Err(CommError::Protocol(format!(
                "truncated frame: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, CommError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CommError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CommError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f32s(&mut self, n: usize) -> Result<Vec<f32>, CommError> {
        if n * 4 > MAX_FRAME {
            return Err(CommError::Protocol(format!("f32 vector of {n} too large")));
        }
        let b = self.bytes(n * 4)?;
        let mut out = vec![0f32; n];
        for (v, c) in out.iter_mut().zip(b.chunks_exact(4)) {
            *v = f32::from_le_bytes(c.try_into().expect("4-byte float"));
        }
        Ok(out)
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f32s(buf: &mut Vec<u8>, vs: &[f32]) {
    let at = buf.len();
    buf.resize(at + vs.len() * 4, 0);
    for (c, v) in buf[at..].chunks_exact_mut(4).zip(vs) {
        c.copy_from_slice(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(from: Rank, key: MsgKey, payload: Payload) {
        let frame = encode_frame(from, &key, &payload);
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(len, frame.len() - 4);
        let (f, k, p) = decode_body(&frame[4..]).expect("decodes");
        assert_eq!(f, from);
        assert_eq!(k, key);
        assert_eq!(p, payload);
    }

    #[test]
    fn all_payload_kinds_roundtrip() {
        roundtrip(
            3,
            MsgKey::Act {
                replica: 1,
                stage: 2,
                micro: 77,
            },
            Payload::Tensor(Tensor::from_vec(
                2,
                3,
                vec![1.0, -2.5, 0.0, 3.25, f32::MIN, 9.0],
            )),
        );
        roundtrip(
            0,
            MsgKey::Grad {
                replica: 0,
                stage: 1,
                micro: u64::MAX,
            },
            Payload::Flat(vec![0.125; 7]),
        );
        roundtrip(
            7,
            MsgKey::Coll {
                tag: 2,
                round: 41,
                from: 7,
            },
            Payload::Keyed(vec![(0, vec![1.0]), (9, vec![]), (2, vec![0.5, 0.25])]),
        );
        roundtrip(
            1,
            MsgKey::Ctrl { tag: 0x10, from: 1 },
            Payload::Losses(vec![(0, 2.5), (3, 0.75)]),
        );
        roundtrip(
            2,
            MsgKey::Ctrl { tag: 1, from: 2 },
            Payload::Bytes(vec![0, 255, 128, 7]),
        );
    }

    #[test]
    fn session_frames_roundtrip() {
        let data = encode_data(
            42,
            3,
            &MsgKey::Act {
                replica: 0,
                stage: 1,
                micro: 9,
            },
            &Payload::Flat(vec![1.5]),
        );
        match decode_frame(&data[4..]).unwrap() {
            Frame::Data { seq, from, .. } => {
                assert_eq!(seq, 42);
                assert_eq!(from, 3);
            }
            other => panic!("expected data frame, got {other:?}"),
        }
        let ack = encode_ack(2, 99);
        assert_eq!(
            decode_frame(&ack[4..]).unwrap(),
            Frame::Ack { from: 2, upto: 99 }
        );
        let hello = encode_hello(5, true);
        assert_eq!(
            decode_frame(&hello[4..]).unwrap(),
            Frame::Hello {
                from: 5,
                resume: true
            }
        );
        // Sequenced frames are not valid control-plane bodies.
        assert!(decode_body(&ack[4..]).is_err());
    }

    #[test]
    fn raw_frames_roundtrip_and_reject_oversize() {
        let mut buf: Vec<u8> = Vec::new();
        write_raw_frame(&mut buf, b"hello").unwrap();
        write_raw_frame(&mut buf, b"").unwrap();
        write_raw_frame(&mut buf, &[7u8; 300]).unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(
            read_raw_frame(&mut r).unwrap().as_deref(),
            Some(&b"hello"[..])
        );
        assert_eq!(read_raw_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_raw_frame(&mut r).unwrap().unwrap().len(), 300);
        assert!(read_raw_frame(&mut r).unwrap().is_none()); // clean EOF

        // Oversize writes are refused before touching the stream.
        let mut sink = Vec::new();
        let huge = vec![0u8; MAX_FRAME + 1];
        assert!(write_raw_frame(&mut sink, &huge).is_err());
        assert!(sink.is_empty());

        // A garbled length prefix is rejected, truncated bodies error.
        let mut bad = std::io::Cursor::new((u32::MAX).to_le_bytes().to_vec());
        assert!(read_raw_frame(&mut bad).is_err());
        let mut cut = std::io::Cursor::new({
            let mut v = Vec::new();
            write_raw_frame(&mut v, b"abcdef").unwrap();
            v.truncate(7);
            v
        });
        assert!(read_raw_frame(&mut cut).is_err());
    }

    #[test]
    fn float_bits_survive_exactly() {
        // Non-associativity-sensitive values must cross the wire bit-exact.
        let vals = vec![1e8f32, -1e8, 1.0, f32::EPSILON, -0.0];
        let frame = encode_frame(
            0,
            &MsgKey::Ctrl { tag: 0, from: 0 },
            &Payload::Flat(vals.clone()),
        );
        let (_, _, p) = decode_body(&frame[4..]).unwrap();
        let got = p.into_flat();
        for (a, b) in vals.iter().zip(&got) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn truncated_and_corrupt_frames_are_rejected() {
        let frame = encode_frame(
            0,
            &MsgKey::Act {
                replica: 0,
                stage: 0,
                micro: 0,
            },
            &Payload::Flat(vec![1.0, 2.0]),
        );
        // Truncation anywhere in the body fails cleanly.
        for cut in 4..frame.len() - 1 {
            assert!(decode_body(&frame[4..cut]).is_err(), "cut at {cut}");
        }
        // Unknown frame kind.
        let mut bad = frame[4..].to_vec();
        bad[1] = 99;
        assert!(matches!(decode_body(&bad), Err(CommError::Protocol(_))));
        // Trailing garbage (invalidates the checksum too).
        let mut long = frame[4..].to_vec();
        long.push(0);
        assert!(decode_body(&long).is_err());
    }

    #[test]
    fn version_and_checksum_guard_the_body() {
        let frame = encode_frame(
            0,
            &MsgKey::Ctrl { tag: 7, from: 0 },
            &Payload::Flat(vec![3.0, 4.0]),
        );
        let body = &frame[4..];
        // Wrong version byte.
        let mut wrong_ver = body.to_vec();
        wrong_ver[0] = WIRE_VERSION + 1;
        match decode_body(&wrong_ver) {
            Err(CommError::Protocol(msg)) => assert!(msg.contains("version"), "{msg}"),
            other => panic!("expected protocol error, got {other:?}"),
        }
        // A single bit flip anywhere in the sealed region must be caught by
        // the checksum (or by structural validation — either way, rejected).
        for i in 10..body.len() {
            let mut flipped = body.to_vec();
            flipped[i] ^= 0x40;
            assert!(
                decode_body(&flipped).is_err(),
                "bit flip at offset {i} went undetected"
            );
        }
        // Corrupting the stored checksum itself is also rejected.
        let mut bad_sum = body.to_vec();
        bad_sum[2] ^= 0xFF;
        match decode_body(&bad_sum) {
            Err(CommError::Protocol(msg)) => assert!(msg.contains("checksum"), "{msg}"),
            other => panic!("expected checksum error, got {other:?}"),
        }
    }

    /// A data frame whose sealed region spans several 32-byte lane blocks
    /// and ends in a ragged (non-word) tail.
    fn long_frame() -> Vec<u8> {
        let vals: Vec<f32> = (0..21).map(|i| i as f32 * 1.5 - 7.0).collect();
        let frame = encode_frame(
            3,
            &MsgKey::Coll {
                tag: 5,
                round: 9,
                from: 3,
            },
            &Payload::Keyed(vec![(4, vals), (11, vec![0.25, -0.0, 1e-40])]),
        );
        let sealed = frame.len() - 4 - HEADER;
        assert!(
            sealed > 64 && !sealed.is_multiple_of(8),
            "sealed region {sealed}"
        );
        frame
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let frame = long_frame();
        for i in 0..frame.len() {
            for bit in 0..8 {
                let mut flipped = frame.clone();
                flipped[i] ^= 1 << bit;
                // Through the stream reader, so a flipped length prefix is
                // exercised too: it must fail to frame or fail to decode.
                let mut r = std::io::Cursor::new(flipped);
                let decoded = match read_raw_frame(&mut r) {
                    Ok(Some(body)) => decode_frame(&body).is_ok(),
                    Ok(None) | Err(_) => false,
                };
                assert!(!decoded, "flip of bit {bit} at byte {i} went undetected");
            }
        }
    }

    #[test]
    fn any_corruption_of_one_word_changes_the_checksum() {
        let body = long_frame()[4..].to_vec();
        let (kind, sealed) = (body[1], &body[HEADER..]);
        let good = checksum(kind, sealed);
        // Arbitrary rewrites of one aligned word (the tail word included),
        // not just single bits: the guarantee is per word.
        for w in 0..sealed.len().div_ceil(8) {
            for pattern in [u64::MAX, 0x8000_0000_0000_0001, 0x0123_4567_89ab_cdef] {
                let mut bad = sealed.to_vec();
                let end = (w * 8 + 8).min(bad.len());
                for (j, b) in bad[w * 8..end].iter_mut().enumerate() {
                    *b ^= pattern.to_le_bytes()[j];
                }
                if bad[w * 8..end] != sealed[w * 8..end] {
                    assert_ne!(checksum(kind, &bad), good, "word {w} ^ {pattern:#x}");
                }
            }
        }
        // The kind byte is covered as well.
        assert_ne!(checksum(kind ^ 1, sealed), good);
    }

    #[test]
    fn swapped_payload_words_are_rejected() {
        let frame = long_frame();
        let body = &frame[4..];
        let words = (body.len() - HEADER) / 8;
        let at = |w: usize| HEADER + 8 * w;
        let mut swaps = 0;
        for a in 0..words {
            for b in a + 1..words {
                if body[at(a)..at(a) + 8] == body[at(b)..at(b) + 8] {
                    continue;
                }
                let mut swapped = body.to_vec();
                let (lo, hi) = swapped.split_at_mut(at(b));
                lo[at(a)..at(a) + 8].swap_with_slice(&mut hi[..8]);
                assert!(
                    decode_frame(&swapped).is_err(),
                    "swap of words {a} and {b} went undetected"
                );
                swaps += 1;
            }
        }
        assert!(swaps > 100, "only {swaps} distinct word pairs exercised");
    }

    #[test]
    fn version_2_frames_get_the_version_error() {
        let mut body = long_frame()[4..].to_vec();
        body[0] = 2;
        match decode_frame(&body) {
            Err(CommError::Protocol(msg)) => assert!(msg.contains("version 2"), "{msg}"),
            other => panic!("expected version error, got {other:?}"),
        }
    }

    /// One stage contribution of the narrow D=2 TCP training job (hidden
    /// 64, seq 16, vocab 256, 4 layers): four gradient vectors the size of
    /// a stage, some of odd length, seeded with NaN payloads, −0.0 and
    /// subnormals, must cross the wire bit for bit.
    #[test]
    fn stage_sized_keyed_payload_roundtrips_bit_exactly() {
        let cfg = chimera_nn::ModelConfig {
            vocab: 256,
            hidden: 64,
            seq: 16,
            layers: 4,
            heads: 4,
            causal: true,
            seed: 1,
        };
        let sizes: Vec<usize> = chimera_nn::Stage::build_all(cfg, 2)
            .iter()
            .map(chimera_nn::Stage::num_params)
            .collect();
        let lens = [sizes[0], sizes[1], sizes[0] - 3, sizes[1] - 5];
        assert!(lens.iter().any(|n| !n.is_multiple_of(8)));
        assert!(lens.iter().all(|&n| n > 100_000), "{lens:?}");
        let specials = [
            0x7fc0_0000u32, // quiet NaN
            0xffc1_2345,    // negative NaN with payload
            0x7f80_0001,    // signalling NaN
            0x8000_0000,    // -0.0
            0x0000_0001,    // smallest subnormal
            0x807f_ffff,    // largest negative subnormal
            0xff80_0000,    // -inf
        ];
        let mut x = 0x9E37_79B9u32;
        let pairs: Vec<(u64, Vec<f32>)> = lens
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let v = (0..n)
                    .map(|j| {
                        x ^= x << 13;
                        x ^= x >> 17;
                        x ^= x << 5;
                        let bits = if j % 97 == 0 {
                            specials[(j / 97) % specials.len()]
                        } else {
                            x
                        };
                        f32::from_bits(bits)
                    })
                    .collect();
                (2 * i as u64 + 1, v)
            })
            .collect();
        let frame = encode_data(
            17,
            1,
            &MsgKey::Coll {
                tag: 0,
                round: 3,
                from: 1,
            },
            &Payload::Keyed(pairs.clone()),
        );
        let Frame::Data { payload, .. } = decode_frame(&frame[4..]).expect("decodes") else {
            panic!("expected a data frame");
        };
        let got = payload.into_keyed();
        assert_eq!(got.len(), pairs.len());
        for ((k, want), (gk, have)) in pairs.iter().zip(&got) {
            assert_eq!(k, gk);
            let want: Vec<u32> = want.iter().map(|f| f.to_bits()).collect();
            let have: Vec<u32> = have.iter().map(|f| f.to_bits()).collect();
            assert!(want == have, "vector {k} changed on the wire");
        }
    }
}
