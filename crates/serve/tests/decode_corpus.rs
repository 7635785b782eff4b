//! Error-kind corpus for frame decoding.
//!
//! Each row is a frame body derived from the golden frame — every class
//! of version byte and a version-1 JSON body, truncation at each field
//! boundary and trailing bytes, wrong counter and sensor counts, NaN and
//! infinities at every float position class, severities at and past the
//! ends of `[0, 1]`, integer extremes, and faults of two kinds at once —
//! with the outcome [`decode_frame`] and the in-place
//! [`FrameView`] path must both give: the decoded frame
//! (pinned by an FNV-1a-64 digest of its `Debug` form, which spells
//! every `f64` in a bit-distinct way) or the error's [`ProtocolKind`].
//! A body's shape is checked before its values, so `Malformed`
//! outranks `NonFinite`, which outranks `Schema`.
//!
//! The golden row's digest is the one the version-1 JSON decoder gave
//! for the same frame: both wire formats decode it to the same value.

use boreas_core::TelemetryFrame;
use boreas_serve::protocol::{decode_frame, FrameView};
use common::units::Celsius;
use common::ProtocolKind::{self, Malformed, NonFinite, Schema};
use common::{fnv1a64, FNV1A64_OFFSET};
use hotgauge::StepRecord;
use perfsim::IntervalCounters;

/// What decoding one row gives.
#[derive(Debug, PartialEq)]
enum Want {
    /// A frame, by the digest of its `Debug` form.
    Frame(u64),
    /// An error of this kind.
    Error(ProtocolKind),
}
use Want::{Error, Frame};

/// Digest of the golden frame.
const GOLDEN: u64 = 0x76ff_f7ca_288e_79fb;

// Field offsets in the golden body, which carries three sensors.
const SHARD: usize = 1;
const SEQ: usize = 5;
const TIME: usize = 13;
const COUNTER_COUNT: usize = 21;
const COUNTERS: usize = 23;
const SENSOR_COUNT: usize = COUNTERS + 8 * 77;
const SENSORS: usize = SENSOR_COUNT + 2;
const TRAILER: usize = SENSORS + 8 * 3;
const END: usize = TRAILER + 8 * 8;

/// The trailing scalars, in wire order.
const SCALARS: [&str; 8] = [
    "max_temp",
    "max_severity",
    "max_severity_raw",
    "hotspot_x",
    "hotspot_y",
    "total_power",
    "frequency",
    "voltage",
];
const SEVERITY: usize = TRAILER + 8;

/// The golden frame body (the committed wire bytes minus the length
/// prefix).
fn golden_body() -> Vec<u8> {
    let wire = std::fs::read(
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/frame_v2.bin"),
    )
    .expect("golden frame");
    let body = wire[4..].to_vec();
    assert_eq!(body.len(), END, "the golden frame carries three sensors");
    body
}

/// `body` with `bytes` written at `at`.
fn put(body: &[u8], at: usize, bytes: &[u8]) -> Vec<u8> {
    let mut out = body.to_vec();
    out[at..at + bytes.len()].copy_from_slice(bytes);
    out
}

/// `body` with `f64` `v` at `at`.
fn put_f64(body: &[u8], at: usize, v: f64) -> Vec<u8> {
    put(body, at, &v.to_le_bytes())
}

/// `body` with `range` replaced by `with`.
fn splice(body: &[u8], range: std::ops::Range<usize>, with: &[u8]) -> Vec<u8> {
    let mut out = body.to_vec();
    out.splice(range, with.iter().copied());
    out
}

/// The corpus: each row's name, body and recorded outcome.
fn rows() -> Vec<(String, Vec<u8>, Want)> {
    let g = golden_body();
    let row = |name: &str, body: Vec<u8>, want: Want| (name.to_string(), body, want);
    let count = |n: u16| n.to_le_bytes();
    let mut rows = vec![
        row("golden", g.clone(), Frame(GOLDEN)),
        // Version byte classes.
        row("empty body", Vec::new(), Error(Malformed)),
        row("version 0", put(&g, 0, &[0]), Error(Malformed)),
        row("version 1", put(&g, 0, &[1]), Error(Malformed)),
        row("version 3", put(&g, 0, &[3]), Error(Malformed)),
        row("version 255", put(&g, 0, &[255]), Error(Malformed)),
        row(
            "version-1 JSON body",
            br#"{"shard":7,"seq":9007199254740993,"record":{"time":123456789}}"#.to_vec(),
            Error(Malformed),
        ),
        // Truncation at each field boundary, inside a field, and one
        // byte past the end.
        row("only the version", g[..SHARD].to_vec(), Error(Malformed)),
        row("truncated after shard", g[..SEQ].to_vec(), Error(Malformed)),
        row("truncated after seq", g[..TIME].to_vec(), Error(Malformed)),
        row(
            "truncated after time",
            g[..COUNTER_COUNT].to_vec(),
            Error(Malformed),
        ),
        row(
            "truncated after the counter count",
            g[..COUNTERS].to_vec(),
            Error(Malformed),
        ),
        row(
            "truncated inside a counter",
            g[..COUNTERS + 4].to_vec(),
            Error(Malformed),
        ),
        row(
            "truncated after the counters",
            g[..SENSOR_COUNT].to_vec(),
            Error(Malformed),
        ),
        row(
            "truncated after the sensor count",
            g[..SENSORS].to_vec(),
            Error(Malformed),
        ),
        row(
            "truncated after the sensors",
            g[..TRAILER].to_vec(),
            Error(Malformed),
        ),
        row(
            "truncated after max_temp",
            g[..SEVERITY].to_vec(),
            Error(Malformed),
        ),
        row("one byte short", g[..END - 1].to_vec(), Error(Malformed)),
        row(
            "one trailing byte",
            [&g[..], &[0]].concat(),
            Error(Malformed),
        ),
        row(
            "a second frame",
            [&g[..], &g[..]].concat(),
            Error(Malformed),
        ),
        // Counter counts.
        row(
            "76 counters, one too few",
            splice(
                &put(&g, COUNTER_COUNT, &count(76)),
                SENSOR_COUNT - 8..SENSOR_COUNT,
                &[],
            ),
            Error(Schema),
        ),
        row(
            "78 counters, one too many",
            splice(
                &put(&g, COUNTER_COUNT, &count(78)),
                SENSOR_COUNT..SENSOR_COUNT,
                &[0; 8],
            ),
            Error(Schema),
        ),
        row(
            "no counters",
            splice(
                &put(&g, COUNTER_COUNT, &count(0)),
                COUNTERS..SENSOR_COUNT,
                &[],
            ),
            Error(Schema),
        ),
        row(
            "a count of 76 over 77 counters",
            put(&g, COUNTER_COUNT, &count(76)),
            Error(Malformed),
        ),
        row(
            "a count of 65535",
            put(&g, COUNTER_COUNT, &count(u16::MAX)),
            Error(Malformed),
        ),
        // Sensor counts.
        row(
            "no sensors",
            splice(&put(&g, SENSOR_COUNT, &count(0)), SENSORS..TRAILER, &[]),
            Frame(0xea34_3c88_5830_551b),
        ),
        row(
            "a sensor count one past the body",
            put(&g, SENSOR_COUNT, &count(4)),
            Error(Malformed),
        ),
        row(
            "a sensor count of 65535",
            put(&g, SENSOR_COUNT, &count(u16::MAX)),
            Error(Malformed),
        ),
        row(
            "a sensor count one short of the body",
            put(&g, SENSOR_COUNT, &count(2)),
            Error(Malformed),
        ),
        // Severity at and past the ends of [0, 1].
        row(
            "severity -0.0",
            put_f64(&g, SEVERITY, -0.0),
            Frame(0xf2f7_a90e_59c8_aae6),
        ),
        row(
            "severity 0.0",
            put_f64(&g, SEVERITY, 0.0),
            Frame(0x42d3_bde8_b2f0_e2c3),
        ),
        row(
            "severity 1.0",
            put_f64(&g, SEVERITY, 1.0),
            Frame(0x59ec_a8d0_09d1_6d88),
        ),
        row(
            "severity just above 1",
            put_f64(&g, SEVERITY, 1.0f64.next_up()),
            Error(Schema),
        ),
        row(
            "severity -5e-324",
            put_f64(&g, SEVERITY, -5e-324),
            Error(Schema),
        ),
        row("severity 2.0", put_f64(&g, SEVERITY, 2.0), Error(Schema)),
        // Integer and float extremes.
        row(
            "shard u32::MAX",
            put(&g, SHARD, &u32::MAX.to_le_bytes()),
            Frame(0xa63a_c0b8_b3cc_add1),
        ),
        row(
            "seq u64::MAX",
            put(&g, SEQ, &u64::MAX.to_le_bytes()),
            Frame(0xc452_43f3_cba1_5d58),
        ),
        row(
            "time u64::MAX",
            put(&g, TIME, &u64::MAX.to_le_bytes()),
            Frame(0xf170_fa0e_15da_1dc1),
        ),
        row(
            "voltage -f64::MAX",
            put_f64(&g, TRAILER + 7 * 8, -f64::MAX),
            Frame(0xbe22_b0d9_bd08_0ead),
        ),
        // Faults of two kinds: shape outranks values outranks schema.
        row(
            "NaN counter, then truncated",
            put_f64(&g, COUNTERS, f64::NAN)[..END - 1].to_vec(),
            Error(Malformed),
        ),
        row(
            "76 counters, then truncated",
            splice(
                &put(&g, COUNTER_COUNT, &count(76)),
                SENSOR_COUNT - 8..END - 1,
                &[],
            ),
            Error(Malformed),
        ),
        row(
            "76 counters and a NaN sensor",
            splice(
                &put_f64(&put(&g, COUNTER_COUNT, &count(76)), SENSORS, f64::NAN),
                SENSOR_COUNT - 8..SENSOR_COUNT,
                &[],
            ),
            Error(NonFinite),
        ),
        row(
            "severity 2.0 and an infinite voltage",
            put_f64(&put_f64(&g, SEVERITY, 2.0), TRAILER + 7 * 8, f64::INFINITY),
            Error(NonFinite),
        ),
        row(
            "a NaN with a payload",
            put(&g, COUNTERS, &0x7ff0_0000_0000_0001u64.to_le_bytes()),
            Error(NonFinite),
        ),
    ];
    // NaN and both infinities at the first and last counter, a sensor
    // and each trailing scalar.
    let mut places = vec![
        ("first counter", COUNTERS),
        ("last counter", SENSOR_COUNT - 8),
        ("second sensor", SENSORS + 8),
    ];
    places.extend(
        SCALARS
            .iter()
            .enumerate()
            .map(|(i, s)| (*s, TRAILER + 8 * i)),
    );
    for (place, at) in places {
        for (label, v) in [
            ("NaN", f64::NAN),
            ("+inf", f64::INFINITY),
            ("-inf", f64::NEG_INFINITY),
        ] {
            rows.push((
                format!("{label} in {place}"),
                put_f64(&g, at, v),
                Error(NonFinite),
            ));
        }
    }
    rows
}

/// Each row through both decoding paths: [`decode_frame`], and the
/// serving daemon's in-place path, [`FrameView::parse`] then
/// [`FrameView::write_record`] into one slot reused row after row. The
/// slot starts with eleven junk sensor readings, so it holds a
/// different sensor count from the row it is refilled with.
#[test]
fn every_row_decodes_to_its_recorded_outcome() {
    let rows = rows();
    assert!(rows.len() >= 43, "no smaller than the version-1 corpus");
    let outcome = |decoded: common::Result<TelemetryFrame>| match decoded {
        Ok(frame) => Frame(fnv1a64(FNV1A64_OFFSET, format!("{frame:?}").as_bytes())),
        Err(e) => Error(e.protocol_kind().expect("a protocol error")),
    };
    let mut slot = StepRecord {
        counters: IntervalCounters::from_values(vec![7.0; 77]).expect("77 counters"),
        sensor_temps: vec![Celsius::new(-1.5); 11],
        max_severity_raw: 3.0,
        ..StepRecord::default()
    };
    for (name, body, want) in &rows {
        assert_eq!(&outcome(decode_frame(body)), want, "row `{name}`");
        let in_place = FrameView::parse(body).map(|view| {
            view.write_record(&mut slot);
            TelemetryFrame::new(view.shard(), view.seq(), slot.clone())
        });
        assert_eq!(&outcome(in_place), want, "row `{name}`, in place");
    }
}
