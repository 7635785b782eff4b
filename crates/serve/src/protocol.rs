//! The serving wire protocol: length-prefixed binary telemetry frames
//! in, length-prefixed JSON decisions out.
//!
//! # Framing
//!
//! Each message is a 4-byte big-endian length prefix followed by that
//! many bytes of body — one telemetry frame per client→server message,
//! one [`Response`] per server→client message. Bodies are capped at
//! [`MAX_FRAME_BYTES`]; an oversized prefix is a protocol error and
//! closes the connection.
//!
//! # Telemetry frames (version 2)
//!
//! A [`TelemetryFrame`] body is one fixed layout of little-endian
//! fields with no padding. This module is the only code that writes or
//! reads it, through the frame types' public constructors and
//! accessors:
//!
//! | offset | field | type |
//! |---|---|---|
//! | 0 | version, [`FRAME_VERSION`] | `u8` |
//! | 1 | `shard` | `u32` |
//! | 5 | `seq` | `u64` |
//! | 13 | `record.time`, µs | `u64` |
//! | 21 | counter count, [`NUM_COUNTERS`] | `u16` |
//! | 23 | `record.counters` | 77 × `f64` |
//! | 639 | sensor count `n` | `u16` |
//! | 641 | `record.sensor_temps` | `n` × `f64` |
//! | 641 + 8`n` | `max_temp`, `max_severity`, `max_severity_raw`, `hotspot_xy.0`, `hotspot_xy.1`, `total_power`, `frequency`, `voltage` | 8 × `f64` |
//!
//! A body is exactly [`frame_bytes`]`(n)` = 705 + 8`n` bytes, 761 for
//! the paper's seven sensors. Every finite `f64` — `-0.0`, subnormals
//! and `f64::MAX` included — crosses bit-exactly, so a frame that
//! crossed a socket decides identically to one that never left the
//! process. The encoder refuses non-finite values
//! ([`ProtocolKind::NonFinite`]).
//!
//! One validator, [`FrameView::parse`], checks a body without
//! allocating — bounds checks, then one OR over every `f64` word for a
//! non-finite exponent — and the view it returns writes the record
//! into a caller's [`StepRecord`]; [`decode_frame`] is that plus an
//! owned frame. Decoding never panics. It checks a body's shape before
//! its values, and the first fault found names the error's
//! [`ProtocolKind`]:
//!
//! 1. [`ProtocolKind::Malformed`]: an unknown version byte (a version-1
//!    JSON body starts with `{`, so it fails here), or a body shorter or
//!    longer than its counts imply;
//! 2. [`ProtocolKind::NonFinite`]: a NaN or infinite `f64` anywhere;
//! 3. [`ProtocolKind::Schema`]: a counter count other than
//!    [`NUM_COUNTERS`], or a `max_severity` outside `[0, 1]`, the range
//!    [`Severity`] promises.
//!
//! # Responses
//!
//! Response bodies are JSON in the workspace codec, [`common::json`]:
//! the fields are listed once with `json_codec!`, the bytes are
//! canonical, so golden-file tests pin them, and `f64` values
//! round-trip bit-exactly. Decoding range-checks integers (a `shard`
//! above `u32::MAX` is an error) and skips unknown keys.

use boreas_core::{ControlDecision, TelemetryFrame};
use common::json;
use common::time::SimTime;
use common::units::{Celsius, GigaHertz, Volts, Watts};
use common::{Error, ProtocolKind, Result, ServerKind};
use hotgauge::{Severity, StepRecord};
use perfsim::NUM_COUNTERS;
use std::io::{ErrorKind, Read, Write};

/// Largest accepted message body (1 MiB): a frame is 761 bytes, so this
/// is generous headroom, not a real limit.
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

// ------------------------------------------------------------ frames

/// The telemetry frame layout version [`encode_frame`] writes and
/// [`decode_frame`] reads.
pub const FRAME_VERSION: u8 = 2;

/// Bytes before the counters: version, shard, seq, time, counter count.
const HEAD_BYTES: usize = 1 + 4 + 8 + 8 + 2;

/// The `f64` scalars after the sensor readings, in wire order.
const TRAILER: [&str; 8] = [
    "max_temp",
    "max_severity",
    "max_severity_raw",
    "hotspot_x",
    "hotspot_y",
    "total_power",
    "frequency",
    "voltage",
];

/// Body length of a frame carrying `sensors` sensor readings.
pub const fn frame_bytes(sensors: usize) -> usize {
    HEAD_BYTES + 8 * NUM_COUNTERS + 2 + 8 * sensors + 8 * TRAILER.len()
}

/// Encodes a telemetry frame body (no length prefix) in the version-2
/// layout of the [module docs](self).
///
/// # Errors
///
/// [`Error::Protocol`]: [`ProtocolKind::NonFinite`] when the record
/// carries a non-finite float, [`ProtocolKind::Schema`] when it has
/// more sensor readings than a `u16` counts.
pub fn encode_frame(frame: &TelemetryFrame) -> Result<Vec<u8>> {
    let r = &frame.record;
    let sensors = u16::try_from(r.sensor_temps.len()).map_err(|_| {
        Error::protocol(
            ProtocolKind::Schema,
            "sensor_temps",
            format!("{} readings exceed {}", r.sensor_temps.len(), u16::MAX),
        )
    })?;
    let mut out = Vec::with_capacity(frame_bytes(r.sensor_temps.len()));
    out.push(FRAME_VERSION);
    out.extend_from_slice(&frame.shard.to_le_bytes());
    out.extend_from_slice(&frame.seq.to_le_bytes());
    out.extend_from_slice(&r.time.as_micros().to_le_bytes());
    // `IntervalCounters` always holds exactly `NUM_COUNTERS` values.
    out.extend_from_slice(&(NUM_COUNTERS as u16).to_le_bytes());
    for &v in r.counters.as_slice() {
        put_f64(&mut out, v, "counters")?;
    }
    out.extend_from_slice(&sensors.to_le_bytes());
    for t in &r.sensor_temps {
        put_f64(&mut out, t.value(), "sensor_temps")?;
    }
    let trailer = [
        r.max_temp.value(),
        r.max_severity.value(),
        r.max_severity_raw,
        r.hotspot_xy.0,
        r.hotspot_xy.1,
        r.total_power.value(),
        r.frequency.value(),
        r.voltage.value(),
    ];
    for (v, what) in trailer.into_iter().zip(TRAILER) {
        put_f64(&mut out, v, what)?;
    }
    Ok(out)
}

/// Decodes a telemetry frame body written by [`encode_frame`]:
/// [`FrameView::parse`], then [`FrameView::to_frame`].
///
/// # Errors
///
/// [`Error::Protocol`] with the kind of the first fault, in the order
/// the [module docs](self) give.
pub fn decode_frame(body: &[u8]) -> Result<TelemetryFrame> {
    Ok(FrameView::parse(body)?.to_frame())
}

/// A frame body that passed every check [`decode_frame`] makes,
/// borrowed from the buffer it arrived in.
///
/// Parsing allocates nothing, and neither does
/// [`FrameView::write_record`] into a record whose sensor buffer is
/// large enough, so the serving daemon decodes a frame straight into
/// its die's reused window slot
/// ([`boreas_core::OnlineController::observe_with`]).
#[derive(Debug, Clone, Copy)]
pub struct FrameView<'a> {
    shard: u32,
    seq: u64,
    time: u64,
    /// [`NUM_COUNTERS`] little-endian `f64`s.
    counters: &'a [u8],
    /// The sensor readings, little-endian `f64`s.
    sensors: &'a [u8],
    /// The [`TRAILER`] scalars, little-endian `f64`s.
    trailer: &'a [u8],
}

impl<'a> FrameView<'a> {
    /// Checks a frame body in the order the [module docs](self) give:
    /// its shape, then every `f64` for a non-finite value (one OR over
    /// all the words; only a faulty body is scanned again to name the
    /// field), then the schema.
    ///
    /// # Errors
    ///
    /// [`Error::Protocol`] with the kind of the first fault.
    pub fn parse(body: &'a [u8]) -> Result<FrameView<'a>> {
        // Shape: every field present, nothing after the last.
        let mut b = Cursor {
            rest: body,
            len: body.len(),
        };
        let [version] = b.take::<1>("version")?;
        if version != FRAME_VERSION {
            return Err(malformed(format!(
                "unknown frame version {version} (this reader speaks version {FRAME_VERSION})"
            )));
        }
        let shard = u32::from_le_bytes(b.take("shard")?);
        let seq = u64::from_le_bytes(b.take("seq")?);
        let time = u64::from_le_bytes(b.take("time")?);
        let n_counters = usize::from(u16::from_le_bytes(b.take("counter count")?));
        let counters = b.slice(8 * n_counters, "counters")?;
        let n_sensors = usize::from(u16::from_le_bytes(b.take("sensor count")?));
        let sensors = b.slice(8 * n_sensors, "sensor_temps")?;
        let trailer = b.slice(8 * TRAILER.len(), "trailing scalars")?;
        if !b.rest.is_empty() {
            return Err(malformed(format!(
                "{} trailing bytes after a {}-byte frame",
                b.rest.len(),
                body.len() - b.rest.len()
            )));
        }

        // Values: every float finite.
        if any_non_finite(counters) | any_non_finite(sensors) | any_non_finite(trailer) {
            let words = counters
                .chunks_exact(8)
                .map(|w| (w, "counters"))
                .chain(sensors.chunks_exact(8).map(|w| (w, "sensor_temps")))
                .chain(trailer.chunks_exact(8).zip(TRAILER));
            for (w, what) in words {
                finite(le_f64(w), what)?;
            }
        }

        // Schema: the counts and ranges the types promise.
        if n_counters != NUM_COUNTERS {
            return Err(Error::protocol(
                ProtocolKind::Schema,
                "counters",
                format!("expected {NUM_COUNTERS} counters, got {n_counters}"),
            ));
        }
        let max_severity = le_f64(&trailer[8..16]);
        if !(0.0..=1.0).contains(&max_severity) {
            return Err(Error::protocol(
                ProtocolKind::Schema,
                "max_severity",
                format!("{max_severity:e} is outside [0, 1]"),
            ));
        }
        Ok(FrameView {
            shard,
            seq,
            time,
            counters,
            sensors,
            trailer,
        })
    }

    /// The frame's die id.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// The frame's sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Overwrites every field of `record` with the frame's record,
    /// reusing its sensor buffer: no allocation unless the frame
    /// carries more sensors than the buffer has room for.
    pub fn write_record(&self, record: &mut StepRecord) {
        record.time = SimTime::from_micros(self.time);
        let counters = record.counters.as_mut_slice();
        for (v, w) in counters.iter_mut().zip(self.counters.chunks_exact(8)) {
            *v = le_f64(w);
        }
        record.sensor_temps.clear();
        record.sensor_temps.extend(
            self.sensors
                .chunks_exact(8)
                .map(|w| Celsius::new(le_f64(w))),
        );
        let mut t = [0.0; TRAILER.len()];
        for (v, w) in t.iter_mut().zip(self.trailer.chunks_exact(8)) {
            *v = le_f64(w);
        }
        let [max_temp, max_severity, max_severity_raw, x, y, total_power, frequency, voltage] = t;
        record.max_temp = Celsius::new(max_temp);
        // In range, so `new` keeps the value's bits.
        record.max_severity = Severity::new(max_severity);
        record.max_severity_raw = max_severity_raw;
        record.hotspot_xy = (x, y);
        record.total_power = Watts::new(total_power);
        record.frequency = GigaHertz::new(frequency);
        record.voltage = Volts::new(voltage);
    }

    /// The frame as an owned [`TelemetryFrame`].
    pub fn to_frame(&self) -> TelemetryFrame {
        let mut record = StepRecord {
            sensor_temps: Vec::with_capacity(self.sensors.len() / 8),
            ..StepRecord::default()
        };
        self.write_record(&mut record);
        TelemetryFrame::new(self.shard, self.seq, record)
    }
}

/// The unread tail of a frame body.
struct Cursor<'a> {
    rest: &'a [u8],
    /// The whole body's length, for error text.
    len: usize,
}

impl<'a> Cursor<'a> {
    /// The next `n` bytes, which hold `what`.
    fn slice(&mut self, n: usize, what: &'static str) -> Result<&'a [u8]> {
        if self.rest.len() < n {
            return Err(self.short(what));
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    /// The next `N` bytes, which hold `what`.
    fn take<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N]> {
        let Some((head, rest)) = self.rest.split_first_chunk::<N>() else {
            return Err(self.short(what));
        };
        self.rest = rest;
        Ok(*head)
    }

    fn short(&self, what: &'static str) -> Error {
        malformed(format!("a {}-byte body ends inside {what}", self.len))
    }
}

fn malformed(detail: String) -> Error {
    Error::protocol(ProtocolKind::Malformed, "frame", detail)
}

/// `v`, or a [`ProtocolKind::NonFinite`] error naming `what`.
fn finite(v: f64, what: &'static str) -> Result<f64> {
    if v.is_finite() {
        Ok(v)
    } else {
        Err(Error::protocol(
            ProtocolKind::NonFinite,
            what,
            format!("non-finite value {v} has no frame encoding"),
        ))
    }
}

fn put_f64(out: &mut Vec<u8>, v: f64, what: &'static str) -> Result<()> {
    out.extend_from_slice(&finite(v, what)?.to_le_bytes());
    Ok(())
}

/// The `f64` in an 8-byte chunk.
fn le_f64(bytes: &[u8]) -> f64 {
    f64::from_le_bytes(bytes.try_into().expect("an 8-byte chunk"))
}

/// Whether any little-endian `f64` word in `words` is NaN or infinite
/// (all exponent bits set), OR-ed over every word without an early
/// exit.
fn any_non_finite(words: &[u8]) -> bool {
    const EXPONENT: u64 = 0x7ff0_0000_0000_0000;
    words.chunks_exact(8).fold(false, |any, w| {
        let bits = u64::from_le_bytes(w.try_into().expect("an 8-byte chunk"));
        any | (bits & EXPONENT == EXPONENT)
    })
}

// ------------------------------------------------------------ responses

/// Encodes a response body (no length prefix).
///
/// # Errors
///
/// [`Error::Protocol`] when a decision carries non-finite floats.
pub fn encode_response(resp: &Response) -> Result<Vec<u8>> {
    let mut s = String::with_capacity(256);
    encode_response_into(resp, &mut s)?;
    Ok(s.into_bytes())
}

/// [`encode_response`] into a caller-owned buffer, replacing what it
/// held: a reused buffer encodes without allocating once it has grown
/// to the longest response.
///
/// # Errors
///
/// As [`encode_response`]; `out` then holds a partial body.
pub fn encode_response_into(resp: &Response, out: &mut String) -> Result<()> {
    out.clear();
    json::ToJson::write_json(resp, out, "response")
}

/// Decodes a response body.
///
/// # Errors
///
/// [`Error::Protocol`] for malformed JSON or a missing/ill-typed field.
pub fn decode_response(body: &[u8]) -> Result<Response> {
    let text = std::str::from_utf8(body).map_err(|_| {
        Error::protocol(
            ProtocolKind::Malformed,
            "response",
            "body is not UTF-8".to_string(),
        )
    })?;
    json::from_str_as(text, "response")
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
        assert_eq!(body.len(), frame_bytes(frame.record.sensor_temps.len()));
        assert_eq!(frame_bytes(7), 761, "the paper's seven sensors");
        let back = decode_frame(&body).unwrap();
        assert_eq!(back, frame);
        assert_eq!(
            back.record.frequency.value().to_bits(),
            frame.record.frequency.value().to_bits()
        );
        // Re-encoding the decoded frame reproduces the bytes.
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

    /// The per-fault kinds of frame decoding are pinned row by row in
    /// `tests/decode_corpus.rs`.
    #[test]
    fn decode_rejects_v1_frames_and_out_of_range_response_shards() {
        let err = decode_frame(br#"{"shard":1}"#).unwrap_err();
        assert_eq!(err.protocol_kind(), Some(ProtocolKind::Malformed));
        assert!(
            err.to_string().contains("unknown frame version 123"),
            "{err}"
        );
        let resp = br#"{"rejected":{"shard":4294967296,"seq":1,"reason":"x"}}"#;
        assert_eq!(
            decode_response(resp).unwrap_err().protocol_kind(),
            Some(ProtocolKind::Schema)
        );
    }

    #[test]
    fn non_finite_telemetry_is_rejected_at_the_sender() {
        let mut record = sample_record();
        record.frequency = GigaHertz::new(f64::NAN);
        let err = encode_frame(&TelemetryFrame::new(0, 0, record)).unwrap_err();
        assert_eq!(err.protocol_kind(), Some(ProtocolKind::NonFinite));
    }
}
