//! Error-kind corpus for frame decoding.
//!
//! Each row is a frame body derived from the golden frame — ill-typed
//! values, a wrong counter count, missing, duplicate, unknown and
//! escaped keys, reordered keys, whitespace, and syntax faults alone and
//! behind a schema fault — with the outcome [`decode_frame`] must give:
//! the decoded frame (pinned by an FNV-1a-64 digest of its `Debug`
//! form, which spells every `f64` in a bit-distinct way) or the error's
//! [`ProtocolKind`]. The outcomes were recorded with the tree-building
//! decoder the pull decoder replaced, so both read every row alike; in
//! particular a syntax error anywhere outranks a schema error. One row
//! has moved since: a float that overflows to infinity was decoded as
//! `inf` then and is refused as [`NonFinite`] now, as the encoder
//! refuses to write it.

use boreas_serve::protocol::decode_frame;
use common::ProtocolKind::{self, Malformed, NonFinite, Schema};

/// What decoding one row gives.
#[derive(Debug, PartialEq)]
enum Want {
    /// A frame, by the digest of its `Debug` form.
    Frame(u64),
    /// An error of this kind.
    Error(ProtocolKind),
}
use Want::{Error, Frame};

/// The golden frame body (the committed wire bytes minus the length
/// prefix), as text.
fn golden_body() -> String {
    let wire = std::fs::read(
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/frame_v1.bin"),
    )
    .expect("golden frame");
    String::from_utf8(wire[4..].to_vec()).expect("UTF-8 golden body")
}

/// Inserts `" \n\t"` around every structural byte of a body whose
/// strings hold none of them.
fn spaced(body: &str) -> String {
    let mut out = String::from("\r\n ");
    for c in body.chars() {
        match c {
            '{' | '[' | ',' | ':' => {
                out.push(c);
                out.push_str(" \n\t");
            }
            '}' | ']' => {
                out.push_str("\t \n");
                out.push(c);
            }
            c => out.push(c),
        }
    }
    out.push_str(" \n");
    out
}

/// The corpus: each row's name and body, all derived from the golden
/// frame.
fn rows() -> Vec<(&'static str, Vec<u8>)> {
    let g = golden_body();
    let with = |from: &str, to: &str| -> Vec<u8> {
        assert!(g.contains(from), "pattern {from:?} not in the golden body");
        g.replacen(from, to, 1).into_bytes()
    };
    let deep = format!("{}{}", "[".repeat(40), "]".repeat(40));
    let first_value = g.find("\"values\":[").unwrap() + "\"values\":[".len();
    let first_comma = first_value + g[first_value..].find(',').unwrap();
    let record_at = g.find("\"record\":").unwrap();
    let end_of = |pat: &str| g.find(pat).unwrap() + pat.len();
    let with_bytes = |from: &str, to: &[u8]| -> Vec<u8> {
        let at = g.find(from).unwrap();
        let mut out = g.as_bytes()[..at].to_vec();
        out.extend_from_slice(to);
        out.extend_from_slice(&g.as_bytes()[at + from.len()..]);
        out
    };
    vec![
        ("golden", g.clone().into_bytes()),
        // Ill-typed values.
        ("shard array", with("\"shard\":7", "\"shard\":[1]")),
        ("shard string", with("\"shard\":7", "\"shard\":\"7\"")),
        ("shard bool", with("\"shard\":7", "\"shard\":true")),
        ("shard null", with("\"shard\":7", "\"shard\":null")),
        (
            "shard above u32",
            with("\"shard\":7", "\"shard\":4294967296"),
        ),
        (
            "seq fraction",
            with("\"seq\":9007199254740993", "\"seq\":1.0"),
        ),
        (
            "seq negative",
            with("\"seq\":9007199254740993", "\"seq\":-1"),
        ),
        (
            "seq exponent",
            with("\"seq\":9007199254740993", "\"seq\":1e3"),
        ),
        (
            "seq above u64",
            with("\"seq\":9007199254740993", "\"seq\":18446744073709551616"),
        ),
        (
            "float as string",
            with("\"frequency\":4.25", "\"frequency\":\"4.25\""),
        ),
        (
            "float overflow to infinity",
            with("\"frequency\":4.25", "\"frequency\":1e999"),
        ),
        (
            "record as array",
            with("\"record\":{", "\"record\":[1],\"x\":{"),
        ),
        // Counter vector length.
        (
            "76 counters, one too few",
            format!("{}{}", &g[..first_value], &g[first_comma + 1..]).into_bytes(),
        ),
        (
            "78 counters, one too many",
            with("\"values\":[0.1,", "\"values\":[0.1,0.1,"),
        ),
        // Missing, duplicate, unknown and escaped keys.
        ("missing seq", with("\"seq\":9007199254740993,", "")),
        (
            "missing nested field",
            with("\"max_temp\":83.12000000000002,", ""),
        ),
        (
            "duplicate key, first wins",
            with("\"shard\":7,", "\"shard\":7,\"shard\":9,"),
        ),
        (
            "duplicate key, ill-typed second",
            with("\"shard\":7,", "\"shard\":7,\"shard\":\"x\","),
        ),
        (
            "duplicate key, ill-typed first",
            with("\"shard\":7,", "\"shard\":\"x\",\"shard\":7,"),
        ),
        (
            "unknown top-level key",
            with(
                "{\"shard\"",
                "{\"future\":{\"a\":[1,{\"b\":null}],\"c\":\"\\u00e9\"},\"shard\"",
            ),
        ),
        (
            "unknown nested key",
            with(
                "\"frequency\":4.25",
                "\"frequency\":4.25,\"turbo\":{\"on\":true}",
            ),
        ),
        (
            "unknown key beside the counters",
            with("{\"values\"", "{\"unit\":\"per-cycle\",\"values\""),
        ),
        ("escaped key", with("\"seq\":", "\"se\\u0071\":")),
        // Layout.
        (
            "keys in another order",
            format!(
                "{{{},{}}}",
                &g[record_at..g.len() - 1],
                &g[1..record_at - 1]
            )
            .into_bytes(),
        ),
        ("whitespace everywhere", spaced(&g).into_bytes()),
        // Syntax.
        ("empty body", Vec::new()),
        (
            "truncated mid-number",
            g.as_bytes()[..end_of("\"voltage\":1.")].to_vec(),
        ),
        (
            "truncated after a number",
            g.as_bytes()[..end_of("\"voltage\":1.0125")].to_vec(),
        ),
        ("trailing bytes", format!("{g}x").into_bytes()),
        ("a second document", format!("{g}{{}}").into_bytes()),
        ("leading zero", with("\"shard\":7", "\"shard\":07")),
        ("bare NaN", with("\"frequency\":4.25", "\"frequency\":NaN")),
        (
            "trailing comma",
            with("\"voltage\":1.0125}", "\"voltage\":1.0125,}"),
        ),
        ("40-deep nesting", deep.clone().into_bytes()),
        (
            "40-deep nesting under an unknown key",
            with("{\"shard\"", &format!("{{\"deep\":{deep},\"shard\"")),
        ),
        (
            "non-UTF-8 in a key",
            with_bytes("\"shard\"", b"\"sh\xffrd\""),
        ),
        (
            "non-UTF-8 in an unknown value",
            with_bytes("{\"shard\"", b"{\"x\":\"\xc3\x28\",\"shard\""),
        ),
        // A schema error followed by a syntax error: syntax wins.
        (
            "ill-typed shard, then truncated",
            with("\"shard\":7", "\"shard\":[1]")[..g.len() - 3].to_vec(),
        ),
        (
            "ill-typed shard, then 40-deep nesting",
            with("\"shard\":7,", &format!("\"shard\":[1],\"deep\":{deep},")),
        ),
        (
            "missing seq, then trailing bytes",
            format!("{}x", g.replacen("\"seq\":9007199254740993,", "", 1)).into_bytes(),
        ),
        // Not a frame at all.
        ("top-level array", b"[]".to_vec()),
        ("top-level null", b"null".to_vec()),
    ]
}

/// The recorded outcome of each row of [`rows`], in the same order.
const WANT: &[(&str, Want)] = &[
    ("golden", Frame(0x76fff7ca288e79fb)),
    ("shard array", Error(Schema)),
    ("shard string", Error(Schema)),
    ("shard bool", Error(Schema)),
    ("shard null", Error(Schema)),
    ("shard above u32", Error(Schema)),
    ("seq fraction", Error(Schema)),
    ("seq negative", Error(Schema)),
    ("seq exponent", Error(Schema)),
    ("seq above u64", Error(Schema)),
    ("float as string", Error(Schema)),
    ("float overflow to infinity", Error(NonFinite)),
    ("record as array", Error(Schema)),
    ("76 counters, one too few", Error(Schema)),
    ("78 counters, one too many", Error(Schema)),
    ("missing seq", Error(Schema)),
    ("missing nested field", Error(Schema)),
    ("duplicate key, first wins", Frame(0x76fff7ca288e79fb)),
    ("duplicate key, ill-typed second", Frame(0x76fff7ca288e79fb)),
    ("duplicate key, ill-typed first", Error(Schema)),
    ("unknown top-level key", Frame(0x76fff7ca288e79fb)),
    ("unknown nested key", Frame(0x76fff7ca288e79fb)),
    ("unknown key beside the counters", Frame(0x76fff7ca288e79fb)),
    ("escaped key", Frame(0x76fff7ca288e79fb)),
    ("keys in another order", Frame(0x76fff7ca288e79fb)),
    ("whitespace everywhere", Frame(0x76fff7ca288e79fb)),
    ("empty body", Error(Malformed)),
    ("truncated mid-number", Error(Malformed)),
    ("truncated after a number", Error(Malformed)),
    ("trailing bytes", Error(Malformed)),
    ("a second document", Error(Malformed)),
    ("leading zero", Error(Malformed)),
    ("bare NaN", Error(Malformed)),
    ("trailing comma", Error(Malformed)),
    ("40-deep nesting", Error(Malformed)),
    ("40-deep nesting under an unknown key", Error(Malformed)),
    ("non-UTF-8 in a key", Error(Malformed)),
    ("non-UTF-8 in an unknown value", Error(Malformed)),
    ("ill-typed shard, then truncated", Error(Malformed)),
    ("ill-typed shard, then 40-deep nesting", Error(Malformed)),
    ("missing seq, then trailing bytes", Error(Malformed)),
    ("top-level array", Error(Schema)),
    ("top-level null", Error(Schema)),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn every_row_decodes_to_its_recorded_outcome() {
    let rows = rows();
    assert_eq!(rows.len(), WANT.len());
    for ((name, body), (want_name, want)) in rows.iter().zip(WANT) {
        assert_eq!(name, want_name, "corpus and table out of step");
        let got = match decode_frame(body) {
            Ok(frame) => Frame(fnv1a(format!("{frame:?}").as_bytes())),
            Err(e) => Error(e.protocol_kind().expect("a protocol error")),
        };
        assert_eq!(&got, want, "row `{name}`");
    }
}
