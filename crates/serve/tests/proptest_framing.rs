//! Property tests for the framing layer: the push-based
//! [`FrameDecoder`] (the reactors' state machine) must recover
//! the original frame bodies from *any* split or coalescing of the wire
//! bytes, and must agree exactly with the blocking [`read_frame`] path
//! clients use.

use boreas_serve::protocol::{read_frame, write_frame, FrameDecoder, Incoming};
use common::check;

/// Encodes `bodies` as one contiguous wire byte string.
fn encode_stream(bodies: &[Vec<u8>]) -> Vec<u8> {
    let mut wire = Vec::new();
    for b in bodies {
        write_frame(&mut wire, b).expect("encode");
    }
    wire
}

/// Splits `wire` into chunks by cycling through `cuts` and feeds them to
/// a fresh decoder, collecting every decoded frame.
fn decode_chunked(wire: &[u8], cuts: &[usize]) -> Vec<Vec<u8>> {
    let mut dec = FrameDecoder::new();
    let mut out = Vec::new();
    let mut pos = 0;
    let mut i = 0;
    while pos < wire.len() {
        let step = if cuts.is_empty() {
            wire.len()
        } else {
            cuts[i % cuts.len()].max(1)
        };
        i += 1;
        let end = (pos + step).min(wire.len());
        dec.push(&wire[pos..end]);
        while let Some(body) = dec.next_frame().expect("legal stream") {
            out.push(body.to_vec());
        }
        pos = end;
    }
    out
}

/// Any chunking — byte-at-a-time, arbitrary splits, full
/// coalescing — yields exactly the original bodies, in order.
#[test]
fn decoder_recovers_bodies_under_arbitrary_chunking() {
    check::cases(64, |g| {
        let bodies = g.vec(0..12, |g| g.vec(0..200, |g| g.u8()));
        let cuts = g.vec(0..16, |g| g.usize_in(1..97));
        let wire = encode_stream(&bodies);
        let decoded = decode_chunked(&wire, &cuts);
        assert_eq!(decoded, bodies.clone());

        // Mid-message detection: a truncated trailing frame leaves the
        // decoder mid-message; a complete stream leaves it clean.
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        while dec.next_frame().expect("legal stream").is_some() {}
        assert!(!dec.mid_message());
        if !wire.is_empty() {
            let mut cut = FrameDecoder::new();
            cut.push(&wire[..wire.len() - 1]);
            while cut.next_frame().expect("legal prefix").is_some() {}
            assert!(cut.mid_message());
        }
    });
}

/// The push decoder and the blocking reader agree on every stream.
#[test]
fn decoder_agrees_with_blocking_read_frame() {
    check::cases(64, |g| {
        let bodies = g.vec(1..8, |g| g.vec(0..150, |g| g.u8()));
        let wire = encode_stream(&bodies);

        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        let mut pushed = Vec::new();
        while let Some(body) = dec.next_frame().expect("legal stream") {
            pushed.push(body.to_vec());
        }

        let mut cursor = std::io::Cursor::new(wire);
        let mut blocking = Vec::new();
        loop {
            match read_frame(&mut cursor).expect("legal stream") {
                Incoming::Frame(body) => blocking.push(body),
                Incoming::Closed => break,
                Incoming::Idle => unreachable!("cursors do not time out"),
            }
        }

        assert_eq!(pushed, blocking);
    });
}

#[test]
fn oversized_prefix_is_a_framing_error_not_a_panic() {
    let mut dec = FrameDecoder::new();
    let huge = (boreas_serve::MAX_FRAME_BYTES as u32 + 1).to_be_bytes();
    dec.push(&huge);
    let err = dec.next_frame().expect_err("oversize must error");
    assert_eq!(err.protocol_kind(), Some(common::ProtocolKind::Framing));
}
