//! Property tests for the wire codecs: random frames (binary) and
//! responses (JSON) round-trip bit for bit and re-encode to the same
//! bytes, and damaged copies of the golden frame (every truncation
//! length, random single-byte flips) decode without panicking — and
//! whatever they decode to re-encodes to exactly the bytes it came
//! from.

use boreas_core::{ControlDecision, ControlDiagnostics, ControlStage, Decision, TelemetryFrame};
use boreas_serve::protocol::{
    decode_frame, decode_response, encode_frame, encode_response, FrameView, Response,
};
use common::check::{self, Gen};
use common::time::SimTime;
use common::units::{Celsius, GigaHertz, Volts, Watts};
use common::ProtocolKind;
use hotgauge::{Severity, StepRecord};
use perfsim::{CounterId, IntervalCounters};

/// Any finite `f64` bit pattern: subnormals, `-0.0` and the extremes
/// included.
fn finite(g: &mut Gen) -> f64 {
    let v = f64::from_bits(g.u64());
    if v.is_finite() {
        v
    } else {
        -0.0
    }
}

fn random_frame(g: &mut Gen) -> TelemetryFrame {
    let mut counters = IntervalCounters::zeroed();
    for id in CounterId::ALL {
        counters.set(id, finite(g));
    }
    let record = StepRecord {
        time: SimTime::from_micros(g.u64()),
        counters,
        sensor_temps: g.vec(0..6, |g| Celsius::new(finite(g))),
        max_temp: Celsius::new(finite(g)),
        max_severity: Severity::new(g.f64_in(0.0..=1.0)),
        max_severity_raw: finite(g),
        hotspot_xy: (finite(g), finite(g)),
        total_power: Watts::new(finite(g)),
        frequency: GigaHertz::new(finite(g)),
        voltage: Volts::new(finite(g)),
    };
    TelemetryFrame::new(g.u64() as u32, g.u64(), record)
}

fn random_response(g: &mut Gen) -> Response {
    let (shard, seq) = (g.u64() as u32, g.u64());
    if g.pick(&[true, false]) {
        let reason = g
            .vec(0..12, |g| {
                g.pick(&['a', '"', '\\', '\n', '\u{1}', 'é', '日', '\u{1f600}'])
            })
            .into_iter()
            .collect();
        return Response::Rejected { shard, seq, reason };
    }
    let decision = ControlDecision {
        interval: g.u64(),
        from_idx: g.usize_in(0..64),
        to_idx: g.usize_in(0..64),
        decision: g.pick(&[Decision::StepUp, Decision::Hold, Decision::StepDown]),
        frequency_ghz: finite(g),
        voltage_v: finite(g),
        diagnostics: ControlDiagnostics {
            predicted_severity: g.option(finite),
            guardband: g.option(finite),
            stage: g.option(|g| {
                g.pick(&[
                    ControlStage::Primary,
                    ControlStage::Fallback,
                    ControlStage::Safe,
                ])
            }),
            quality: g.option(finite),
        },
    };
    Response::Decision {
        shard,
        seq,
        decision,
    }
}

/// Random frames decode to the identical frame (`Debug` spells every
/// `f64` bit-distinctly, `-0.0` included) and re-encode to the same
/// bytes.
#[test]
fn random_frames_round_trip_bit_for_bit() {
    check::cases(128, |g| {
        let frame = random_frame(g);
        let body = encode_frame(&frame).unwrap();
        let back = decode_frame(&body).unwrap();
        assert_eq!(format!("{back:?}"), format!("{frame:?}"));
        assert_eq!(encode_frame(&back).unwrap(), body);
    });
}

#[test]
fn random_responses_round_trip_bit_for_bit() {
    check::cases(256, |g| {
        let resp = random_response(g);
        let body = encode_response(&resp).unwrap();
        let back = decode_response(&body).unwrap();
        assert_eq!(format!("{back:?}"), format!("{resp:?}"));
        assert_eq!(encode_response(&back).unwrap(), body);
    });
}

fn golden_body() -> Vec<u8> {
    let wire = std::fs::read(
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/frame_v2.bin"),
    )
    .expect("golden frame");
    wire[4..].to_vec()
}

/// A damaged body may decode or fail, but never panic; a frame it
/// decodes to re-encodes to exactly that body, since every field is
/// read from its own bytes and the decoder refuses whatever the
/// encoder would.
fn decodes_sanely(body: &[u8]) {
    if let Ok(frame) = decode_frame(body) {
        assert_eq!(encode_frame(&frame).unwrap(), body);
    }
}

#[test]
fn every_truncation_of_the_golden_frame_fails_cleanly() {
    let body = golden_body();
    for len in 0..body.len() {
        let err = decode_frame(&body[..len]).expect_err("a truncated body cannot decode");
        assert_eq!(
            err.protocol_kind(),
            Some(ProtocolKind::Malformed),
            "length {len}"
        );
    }
}

#[test]
fn single_byte_flips_of_the_golden_frame_never_panic() {
    let body = golden_body();
    check::cases(512, |g| {
        let mut damaged = body.clone();
        let at = g.usize_in(0..damaged.len());
        damaged[at] = g.u8();
        let cut = g.usize_in(0..=damaged.len());
        decodes_sanely(&damaged);
        decodes_sanely(&damaged[..cut]);
    });
}

/// The serving daemon's in-place path — [`FrameView::parse`], then
/// [`FrameView::write_record`] into a slot that last held a record with
/// a different sensor count — agrees with [`decode_frame`] on valid
/// frames and on single-byte flips of them: the same accept or reject,
/// the same [`ProtocolKind`], and a bit-identical record.
#[test]
fn in_place_decoding_matches_decode_frame() {
    check::cases(512, |g| {
        let mut body = encode_frame(&random_frame(g)).unwrap();
        if g.pick(&[true, false]) {
            let at = g.usize_in(0..body.len());
            body[at] = g.u8();
        }
        let mut slot = random_frame(g).record;
        let sensors = slot.sensor_temps.len();
        slot.sensor_temps = g.vec(0..17, |g| Celsius::new(finite(g)));
        if slot.sensor_temps.len() == sensors {
            slot.sensor_temps.push(Celsius::new(finite(g)));
        }
        let decoded = decode_frame(&body);
        let in_place = FrameView::parse(&body).map(|view| {
            view.write_record(&mut slot);
            TelemetryFrame::new(view.shard(), view.seq(), slot.clone())
        });
        match (decoded, in_place) {
            (Ok(want), Ok(got)) => assert_eq!(format!("{got:?}"), format!("{want:?}")),
            (Err(want), Err(got)) => assert_eq!(got.protocol_kind(), want.protocol_kind()),
            (want, got) => panic!("decode_frame gave {want:?}, the in-place path {got:?}"),
        }
    });
}
