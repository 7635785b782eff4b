//! Golden-file pin of the serving wire protocol.
//!
//! The encoding of a [`TelemetryFrame`] (the version-2 binary layout)
//! and of both [`Response`] arms (canonical JSON) is committed under
//! `tests/golden/` as the exact framed bytes (4-byte big-endian length
//! prefix + body). Any codec change that alters bytes on the wire fails
//! here first and must bump the protocol deliberately.
//!
//! Regenerate after an intentional change with
//! `GOLDEN_BLESS=1 cargo test -p boreas-serve --test protocol_golden`.

use boreas_core::{ControlDecision, ControlDiagnostics, ControlStage, Decision, TelemetryFrame};
use boreas_serve::protocol::{
    decode_frame, decode_response, encode_frame, encode_response, read_frame, write_frame,
    Incoming, Response,
};
use common::time::SimTime;
use common::units::{Celsius, GigaHertz, Volts, Watts};
use hotgauge::{Severity, StepRecord};
use perfsim::{CounterId, IntervalCounters};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// A fully deterministic frame exercising the awkward corners of
/// `f64` and integer round trips: bit-exact fractions, a subnormal,
/// negative zero, `f64::MAX` and a sequence number above 2^53.
fn golden_frame() -> TelemetryFrame {
    let mut counters = IntervalCounters::zeroed();
    for (i, id) in CounterId::ALL.iter().enumerate() {
        counters.set(*id, (i as f64) / 3.0);
    }
    counters.set(CounterId::ALL[0], 0.1);
    counters.set(CounterId::ALL[1], 5e-324); // smallest subnormal
    counters.set(CounterId::ALL[2], -0.0);
    counters.set(CounterId::ALL[3], f64::MAX);
    let record = StepRecord {
        time: SimTime::from_micros(123_456_789),
        counters,
        sensor_temps: vec![Celsius::new(61.25), Celsius::new(59.75), Celsius::new(-3.5)],
        max_temp: Celsius::new(83.12_f64.next_up()),
        max_severity: Severity::new(0.9375),
        max_severity_raw: 1.734_151_269_874_312_3,
        hotspot_xy: (std::f64::consts::PI, std::f64::consts::E),
        total_power: Watts::new(118.374),
        frequency: GigaHertz::new(4.25),
        voltage: Volts::new(1.0125),
    };
    TelemetryFrame::new(7, (1u64 << 53) + 1, record)
}

fn golden_decision() -> Response {
    Response::Decision {
        shard: 7,
        seq: (1u64 << 53) + 12,
        decision: ControlDecision {
            interval: 41,
            from_idx: 7,
            to_idx: 8,
            decision: Decision::StepUp,
            frequency_ghz: 4.0,
            voltage_v: 0.975,
            diagnostics: ControlDiagnostics {
                predicted_severity: Some(0.812_345_678_901_234_5),
                guardband: Some(0.05),
                stage: Some(ControlStage::Primary),
                quality: Some(1.0),
            },
        },
    }
}

fn golden_rejected() -> Response {
    Response::Rejected {
        shard: 3,
        seq: 99,
        reason: "shard queue full".to_string(),
    }
}

/// Frames `body` exactly as the daemon would put it on the wire.
fn framed(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, body).unwrap();
    out
}

fn check_golden(name: &str, wire: &[u8]) {
    let path = golden_dir().join(name);
    if std::env::var("GOLDEN_BLESS").is_ok() {
        std::fs::write(&path, wire).unwrap();
    }
    let want = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with GOLDEN_BLESS=1",
            name
        )
    });
    assert_eq!(
        wire,
        want.as_slice(),
        "{name}: wire bytes drifted from the committed golden encoding"
    );
}

#[test]
fn telemetry_frame_bytes_match_golden() {
    let frame = golden_frame();
    let wire = framed(&encode_frame(&frame).unwrap());
    check_golden("frame_v2.bin", &wire);

    // The committed bytes decode back to the identical frame, through
    // the same read path the daemon uses.
    let mut cursor = std::io::Cursor::new(wire);
    match read_frame(&mut cursor).unwrap() {
        Incoming::Frame(body) => {
            let back = decode_frame(&body).unwrap();
            assert_eq!(back, frame);
            assert_eq!(
                back.record.max_severity_raw.to_bits(),
                frame.record.max_severity_raw.to_bits()
            );
            assert_eq!(
                back.record.counters.as_slice()[1].to_bits(),
                5e-324f64.to_bits()
            );
            assert_eq!(
                back.record.counters.as_slice()[2].to_bits(),
                (-0.0f64).to_bits()
            );
            assert_eq!(back.record.counters.as_slice()[3], f64::MAX);
            assert_eq!(back.seq, (1u64 << 53) + 1, "u64 beyond 2^53 survives");
        }
        other => panic!("expected a frame, got {other:?}"),
    }
}

#[test]
fn decision_response_bytes_match_golden() {
    let resp = golden_decision();
    let wire = framed(&encode_response(&resp).unwrap());
    check_golden("response_decision_v1.bin", &wire);
    let mut cursor = std::io::Cursor::new(wire);
    match read_frame(&mut cursor).unwrap() {
        Incoming::Frame(body) => assert_eq!(decode_response(&body).unwrap(), resp),
        other => panic!("expected a frame, got {other:?}"),
    }
}

#[test]
fn rejected_response_bytes_match_golden() {
    let resp = golden_rejected();
    let wire = framed(&encode_response(&resp).unwrap());
    check_golden("response_rejected_v1.bin", &wire);
    let mut cursor = std::io::Cursor::new(wire);
    match read_frame(&mut cursor).unwrap() {
        Incoming::Frame(body) => assert_eq!(decode_response(&body).unwrap(), resp),
        other => panic!("expected a frame, got {other:?}"),
    }
}
