//! The serving wire protocol: length-prefixed JSON telemetry frames in,
//! length-prefixed JSON decisions out.
//!
//! # Wire format
//!
//! Each message is a 4-byte big-endian length prefix followed by that
//! many bytes of UTF-8 JSON — one [`TelemetryFrame`] per client→server
//! message, one [`Response`] per server→client message. Bodies are
//! capped at [`MAX_FRAME_BYTES`]; an oversized prefix is a protocol
//! error and closes the connection.
//!
//! Bodies use the workspace codec, [`common::json`]: each wire type
//! lists its fields once with `json_codec!` next to its definition, and
//! the bytes are canonical, so golden-file tests pin them. `f64` values
//! round-trip bit-exactly, so a frame that crossed a socket decides
//! identically to one that never left the process. Non-finite floats
//! have no JSON encoding and are rejected at the sender. Decoding pulls
//! each value straight off the body's bytes, with no JSON tree in
//! between; integers are range-checked (a `shard` above `u32::MAX` is
//! an error), the counter vector must hold exactly `NUM_COUNTERS`
//! values, keys may come in any order, the first of duplicate keys
//! wins, and unknown keys are skipped, so the format can grow fields
//! without breaking old readers.

use boreas_core::{ControlDecision, TelemetryFrame};
use common::json::{self, FromJson, ToJson};
use common::{Error, ProtocolKind, Result, ServerKind};
use std::io::{ErrorKind, Read, Write};

/// Largest accepted message body (1 MiB): a frame is ~2 KiB, so this is
/// generous headroom, not a real limit.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// One server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A completed interval's decision, echoing the shard and the
    /// sequence number of the frame that triggered it.
    Decision {
        /// Shard the decision belongs to.
        shard: u32,
        /// Sequence number of the interval-completing frame.
        seq: u64,
        /// The decision itself.
        decision: ControlDecision,
    },
    /// A frame the server refused (a malformed body, or a control step
    /// that failed).
    Rejected {
        /// Shard of the rejected frame (0 when undecodable).
        shard: u32,
        /// Sequence number of the rejected frame (0 when undecodable).
        seq: u64,
        /// Human-readable reason.
        reason: String,
    },
}

common::json_codec! {
    enum Response {
        Decision { shard, seq, decision } = "decision",
        Rejected { shard, seq, reason } = "rejected",
    }
}

// ------------------------------------------------------------- framing

/// What [`read_frame`] saw on the socket.
#[derive(Debug)]
pub enum Incoming {
    /// A complete message body.
    Frame(Vec<u8>),
    /// Read timed out before any byte arrived — poll again.
    Idle,
    /// The peer closed the connection cleanly between messages.
    Closed,
}

/// Writes one length-prefixed message.
///
/// # Errors
///
/// [`Error::Protocol`] for an oversized body, [`Error::Server`] for I/O
/// failures.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> Result<()> {
    if body.len() > MAX_FRAME_BYTES {
        return Err(Error::protocol(
            ProtocolKind::Framing,
            "write_frame",
            format!("body of {} bytes exceeds {MAX_FRAME_BYTES}", body.len()),
        ));
    }
    let len = (body.len() as u32).to_be_bytes();
    w.write_all(&len)
        .and_then(|()| w.write_all(body))
        .and_then(|()| w.flush())
        .map_err(|e| Error::server(ServerKind::Io, "write_frame", e.to_string()))
}

/// Reads one length-prefixed message.
///
/// A read timeout before the first byte of a message yields
/// [`Incoming::Idle`] so pollers can check a shutdown flag; EOF at a
/// message boundary yields [`Incoming::Closed`]. Once a message has
/// started, timeouts keep retrying and EOF is a truncation error.
///
/// # Errors
///
/// [`Error::Protocol`] for truncated or oversized messages,
/// [`Error::Server`] for I/O failures.
pub fn read_frame(r: &mut impl Read) -> Result<Incoming> {
    let mut prefix = [0u8; 4];
    match read_exact_at_boundary(r, &mut prefix)? {
        BoundaryRead::Closed => return Ok(Incoming::Closed),
        BoundaryRead::Idle => return Ok(Incoming::Idle),
        BoundaryRead::Done => {}
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(Error::protocol(
            ProtocolKind::Framing,
            "read_frame",
            format!("length prefix {len} exceeds {MAX_FRAME_BYTES}"),
        ));
    }
    let mut body = vec![0u8; len];
    read_exact_retrying(r, &mut body)?;
    Ok(Incoming::Frame(body))
}

/// The push-based side of the framing state machine, for
/// readiness-driven I/O.
///
/// The blocking [`read_frame`] pulls bytes until a message completes;
/// a reactor cannot do that — `epoll` hands it whatever the kernel has,
/// which splits and coalesces messages arbitrarily. `FrameDecoder`
/// accepts those byte runs via [`FrameDecoder::push`] and yields each
/// complete message body from [`FrameDecoder::next_frame`], carrying
/// the partial prefix/body across calls. The framing rules are the
/// module's: 4-byte big-endian length, bodies capped at
/// [`MAX_FRAME_BYTES`], an oversized prefix is a fatal protocol error.
///
/// Equivalence with the blocking reader over every possible split is
/// pinned by `tests/proptest_framing.rs`.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Unconsumed bytes; `start` indexes the first live byte so frame
    /// extraction does not re-copy the whole buffer.
    buf: Vec<u8>,
    start: usize,
}

impl FrameDecoder {
    /// A decoder at a message boundary.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends bytes read off the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing: start over once every buffered frame
        // has been taken, and once the consumed prefix dominates, shift
        // the live tail down instead of extending forever.
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 4096 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete message body, borrowed from the decoder's
    /// buffer until the next call, `None` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// [`Error::Protocol`] when the buffered length prefix exceeds
    /// [`MAX_FRAME_BYTES`] — nothing sensible can follow on this byte
    /// stream.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>> {
        let avail = self.buf.len() - self.start;
        if avail < 4 {
            return Ok(None);
        }
        let prefix: [u8; 4] = self.buf[self.start..self.start + 4]
            .try_into()
            .expect("4-byte slice");
        let len = u32::from_be_bytes(prefix) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(Error::protocol(
                ProtocolKind::Framing,
                "read_frame",
                format!("length prefix {len} exceeds {MAX_FRAME_BYTES}"),
            ));
        }
        if avail < 4 + len {
            return Ok(None);
        }
        let body = self.start + 4..self.start + 4 + len;
        self.start = body.end;
        Ok(Some(&self.buf[body]))
    }

    /// `true` when bytes of an incomplete message are buffered — EOF in
    /// this state is a mid-message truncation, not a clean close.
    pub fn mid_message(&self) -> bool {
        self.buf.len() > self.start
    }
}

enum BoundaryRead {
    Done,
    Idle,
    Closed,
}

/// Fills `buf` starting at a message boundary: distinguishes clean EOF
/// and pre-first-byte timeouts from mid-message truncation.
fn read_exact_at_boundary(r: &mut impl Read, buf: &mut [u8]) -> Result<BoundaryRead> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(BoundaryRead::Closed),
            Ok(0) => {
                return Err(Error::protocol(
                    ProtocolKind::Framing,
                    "read_frame",
                    "connection closed mid-message".to_string(),
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e)
                if filled == 0
                    && matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                return Ok(BoundaryRead::Idle)
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(Error::server(ServerKind::Io, "read_frame", e.to_string())),
        }
    }
    Ok(BoundaryRead::Done)
}

/// Fills `buf`, retrying timeouts (used once a message has started).
fn read_exact_retrying(r: &mut impl Read, buf: &mut [u8]) -> Result<()> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(Error::protocol(
                    ProtocolKind::Framing,
                    "read_frame",
                    "connection closed mid-message".to_string(),
                ))
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(Error::server(ServerKind::Io, "read_frame", e.to_string())),
        }
    }
    Ok(())
}

// ------------------------------------------------------------ codec

/// Encodes a telemetry frame body (no length prefix).
///
/// # Errors
///
/// [`Error::Protocol`] when the record carries non-finite floats.
pub fn encode_frame(frame: &TelemetryFrame) -> Result<Vec<u8>> {
    encode(frame, 2048, "frame")
}

/// Decodes a telemetry frame body.
///
/// # Errors
///
/// [`Error::Protocol`] for malformed JSON or a missing/ill-typed field.
pub fn decode_frame(body: &[u8]) -> Result<TelemetryFrame> {
    decode(body, "frame")
}

/// Encodes a response body (no length prefix).
///
/// # Errors
///
/// [`Error::Protocol`] when a decision carries non-finite floats.
pub fn encode_response(resp: &Response) -> Result<Vec<u8>> {
    encode(resp, 256, "response")
}

/// Decodes a response body.
///
/// # Errors
///
/// [`Error::Protocol`] for malformed JSON or a missing/ill-typed field.
pub fn decode_response(body: &[u8]) -> Result<Response> {
    decode(body, "response")
}

fn encode(value: &impl ToJson, capacity: usize, what: &'static str) -> Result<Vec<u8>> {
    let mut s = String::with_capacity(capacity);
    value.write_json(&mut s, what)?;
    Ok(s.into_bytes())
}

fn decode<T: FromJson>(body: &[u8], what: &'static str) -> Result<T> {
    let text = std::str::from_utf8(body).map_err(|_| {
        Error::protocol(
            ProtocolKind::Malformed,
            what,
            "body is not UTF-8".to_string(),
        )
    })?;
    json::from_str_as(text, what)
}

#[cfg(test)]
mod tests {
    use super::*;
    use boreas_core::{ControlDiagnostics, ControlStage, Decision};
    use common::units::GigaHertz;
    use hotgauge::StepRecord;
    use workloads::WorkloadSpec;

    fn sample_record() -> StepRecord {
        let pipeline = hotgauge::PipelineConfig::paper()
            .build()
            .expect("paper pipeline");
        let spec = WorkloadSpec::test_set()
            .into_iter()
            .next()
            .expect("workload");
        let vf = boreas_core::VfTable::paper();
        let p = vf.point(boreas_core::VfTable::BASELINE_INDEX);
        pipeline
            .run_fixed(&spec, p.frequency, p.voltage, 1)
            .expect("fixed run")
            .records
            .remove(0)
    }

    #[test]
    fn frame_codec_round_trips_bit_exactly() {
        let frame = TelemetryFrame::new(7, u64::MAX - 3, sample_record());
        let body = encode_frame(&frame).unwrap();
        let back = decode_frame(&body).unwrap();
        assert_eq!(back, frame);
        assert_eq!(
            back.record.frequency.value().to_bits(),
            frame.record.frequency.value().to_bits()
        );
        // Canonical: re-encoding the decoded frame reproduces the bytes.
        assert_eq!(encode_frame(&back).unwrap(), body);
    }

    #[test]
    fn response_codec_round_trips() {
        let decision = ControlDecision {
            interval: 3,
            from_idx: 7,
            to_idx: 8,
            decision: Decision::StepUp,
            frequency_ghz: 4.0,
            voltage_v: 1.175,
            diagnostics: ControlDiagnostics {
                predicted_severity: Some(0.35),
                guardband: Some(0.05),
                stage: Some(ControlStage::Primary),
                quality: None,
            },
        };
        for resp in [
            Response::Decision {
                shard: 2,
                seq: 35,
                decision,
            },
            Response::Rejected {
                shard: 9,
                seq: 1,
                reason: "shard queue full".to_string(),
            },
        ] {
            let body = encode_response(&resp).unwrap();
            assert_eq!(decode_response(&body).unwrap(), resp);
        }
    }

    #[test]
    fn framing_round_trips_and_reports_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert!(matches!(read_frame(&mut r).unwrap(), Incoming::Frame(b) if b == b"hello"));
        assert!(matches!(read_frame(&mut r).unwrap(), Incoming::Frame(b) if b.is_empty()));
        assert!(matches!(read_frame(&mut r).unwrap(), Incoming::Closed));
    }

    #[test]
    fn framing_rejects_oversize_and_truncation() {
        let huge = (MAX_FRAME_BYTES as u32 + 1).to_be_bytes();
        let mut r = std::io::Cursor::new(huge.to_vec());
        assert!(read_frame(&mut r).is_err());

        let mut truncated = Vec::new();
        write_frame(&mut truncated, b"hello").unwrap();
        truncated.pop();
        let mut r = std::io::Cursor::new(truncated);
        assert!(read_frame(&mut r).is_err());

        let mut w = Vec::new();
        assert!(write_frame(&mut w, &vec![0u8; MAX_FRAME_BYTES + 1]).is_err());
    }

    #[test]
    fn frame_decoder_handles_split_and_coalesced_input() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"world!").unwrap();

        // Byte-at-a-time: the worst split the kernel can deliver.
        let mut d = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &wire {
            d.push(std::slice::from_ref(b));
            while let Some(frame) = d.next_frame().unwrap() {
                got.push(frame.to_vec());
            }
        }
        assert_eq!(got, vec![b"hello".to_vec(), Vec::new(), b"world!".to_vec()]);
        assert!(!d.mid_message());

        // Fully coalesced: one push yields all three.
        let mut d = FrameDecoder::new();
        d.push(&wire);
        assert_eq!(d.next_frame().unwrap().unwrap(), b"hello");
        assert_eq!(d.next_frame().unwrap().unwrap(), b"");
        assert_eq!(d.next_frame().unwrap().unwrap(), b"world!");
        assert_eq!(d.next_frame().unwrap(), None);

        // A partial message is mid-message until its last byte lands.
        let mut d = FrameDecoder::new();
        d.push(&wire[..6]);
        assert_eq!(d.next_frame().unwrap(), None);
        assert!(d.mid_message());

        // An oversized prefix is fatal.
        let mut d = FrameDecoder::new();
        d.push(&(MAX_FRAME_BYTES as u32 + 1).to_be_bytes());
        assert!(d.next_frame().is_err());
    }

    #[test]
    fn decode_ignores_unknown_keys_and_flags_missing_ones() {
        let frame = TelemetryFrame::new(0, 1, sample_record());
        let body = String::from_utf8(encode_frame(&frame).unwrap()).unwrap();
        let with_extra = body.replacen("{\"shard\"", "{\"future_field\":true,\"shard\"", 1);
        assert_eq!(decode_frame(with_extra.as_bytes()).unwrap(), frame);
        let kind = |body: &str| decode_frame(body.as_bytes()).unwrap_err().protocol_kind();
        let schema = Some(ProtocolKind::Schema);
        assert_eq!(kind(&body.replacen("\"seq\":1,", "", 1)), schema);
        // A shard beyond u32, in a frame and in a response.
        assert_eq!(kind(&body.replacen(":0,", ":4294967296,", 1)), schema);
        let resp = br#"{"rejected":{"shard":4294967296,"seq":1,"reason":"x"}}"#;
        assert_eq!(decode_response(resp).unwrap_err().protocol_kind(), schema);
        // One counter too few: drop the first value.
        let first = body.find("\"values\":[").unwrap() + "\"values\":[".len();
        let comma = first + body[first..].find(',').unwrap();
        assert_eq!(
            kind(&format!("{}{}", &body[..first], &body[comma + 1..])),
            schema
        );
        // Nesting beyond the parser's depth limit.
        let deep = format!("{}{}", "[".repeat(40), "]".repeat(40));
        assert_eq!(kind(&deep), Some(ProtocolKind::Malformed));
    }

    #[test]
    fn non_finite_telemetry_is_rejected_at_the_sender() {
        let mut record = sample_record();
        record.frequency = GigaHertz::new(f64::NAN);
        let err = encode_frame(&TelemetryFrame::new(0, 0, record)).unwrap_err();
        assert_eq!(err.protocol_kind(), Some(ProtocolKind::NonFinite));
    }
}
