//! Per-connection state for the reactors: non-blocking read and write
//! buffering around the framing state machine.
//!
//! A [`Conn`] owns one non-blocking socket and the state its frames are
//! served with, all of it touched by the owning reactor thread only:
//!
//! * inbound, a [`FrameDecoder`] accumulates whatever byte runs
//!   `epoll` delivers — partial prefixes, split bodies, several
//!   coalesced messages — and hands each complete frame body, borrowed
//!   from its buffer, to the reactor's callback;
//! * outbound, the write ring holds the encoded responses the socket
//!   has not taken yet. The callback encodes into it while the frames
//!   of a read pass are served, and the reactor flushes it at the end
//!   of the pass. While more than [`WRITE_CAP`] bytes wait in it, the
//!   reactor stops reading the connection, so a peer that does not
//!   read its decisions is slowed by TCP instead of growing the ring.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use crate::protocol::FrameDecoder;

/// Per-read-call chunk size.
const READ_CHUNK: usize = 16 * 1024;

/// Bytes one readiness event may take from a connection. Epoll is
/// level-triggered here, so whatever the pass leaves stays readable and
/// the next `epoll_wait` reports it again, after the reactor's other
/// ready connections have had their turn. The cap bounds the frames one
/// pass serves (a saturating client would otherwise hand over its whole
/// burst at once) and leaves the rest in the socket, where TCP flow
/// control pushes back on the sender.
const READ_BUDGET: usize = 4 * READ_CHUNK;

/// Unflushed response bytes beyond which the reactor stops reading a
/// connection until its write ring drains. One read pass can add at
/// most the responses to [`READ_BUDGET`] bytes of frames on top.
pub(crate) const WRITE_CAP: usize = 256 * 1024;

/// What one readiness-driven read pass observed (its frames went to
/// the pass's callback).
pub(crate) struct ReadPass {
    /// Complete frames handed to the callback.
    pub frames: usize,
    /// The peer half-closed its send direction (clean EOF).
    pub eof: bool,
    /// Any byte arrived (resets the idle clock).
    pub progress: bool,
}

/// One multiplexed connection.
pub(crate) struct Conn {
    stream: TcpStream,
    peer: Option<SocketAddr>,
    decoder: FrameDecoder,
    /// Encoded responses accepted for write but not yet taken by the
    /// socket.
    out: VecDeque<u8>,
    /// Last instant the peer showed signs of life.
    pub last_activity: Instant,
    /// The peer may still send frames (false after EOF or drain).
    pub read_open: bool,
    /// The epoll interest mask currently registered for this socket.
    pub registered_interest: u32,
}

impl Conn {
    pub fn new(stream: TcpStream) -> Conn {
        let peer = stream.peer_addr().ok();
        Conn {
            stream,
            peer,
            decoder: FrameDecoder::new(),
            out: VecDeque::new(),
            last_activity: Instant::now(),
            read_open: true,
            registered_interest: 0,
        }
    }

    /// Reads, in a pass that started at `now`, until the socket would
    /// block or [`READ_BUDGET`] bytes have arrived, feeding the framing
    /// state machine and passing each complete frame body to
    /// `on_frame`, in arrival order, as soon as its last byte lands,
    /// together with this connection's write ring.
    /// The body is borrowed from the decoder's buffer: no per-frame copy.
    ///
    /// # Errors
    ///
    /// A framing violation (oversized prefix) or a hard socket error;
    /// either way the connection is beyond recovery.
    pub fn read_ready(
        &mut self,
        now: Instant,
        mut on_frame: impl FnMut(&[u8], &mut VecDeque<u8>),
    ) -> common::Result<ReadPass> {
        let mut pass = ReadPass {
            frames: 0,
            eof: false,
            progress: false,
        };
        let mut chunk = [0u8; READ_CHUNK];
        let mut budget = READ_BUDGET;
        while budget > 0 {
            match self.stream.read(&mut chunk[..budget.min(READ_CHUNK)]) {
                Ok(0) => {
                    pass.eof = true;
                    pass.progress = true;
                    break;
                }
                Ok(n) => {
                    pass.progress = true;
                    budget -= n;
                    self.decoder.push(&chunk[..n]);
                    let peer = self.peer;
                    while let Some(body) =
                        self.decoder.next_frame().map_err(|e| attribute(peer, e))?
                    {
                        pass.frames += 1;
                        on_frame(body, &mut self.out);
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => {
                    return Err(attribute(
                        self.peer,
                        common::Error::server(common::ServerKind::Io, "read_ready", e.to_string()),
                    ))
                }
            }
        }
        if pass.progress {
            self.last_activity = now;
        }
        Ok(pass)
    }

    /// Flushes as much of the write ring as the socket accepts.
    ///
    /// # Errors
    ///
    /// A hard write error — the peer is gone.
    pub fn pump_out(&mut self) -> common::Result<()> {
        while !self.out.is_empty() {
            let (head, _) = self.out.as_slices();
            match self.stream.write(head) {
                Ok(0) => {
                    return Err(attribute(
                        self.peer,
                        common::Error::server(
                            common::ServerKind::Io,
                            "pump_out",
                            "socket accepted zero bytes".to_string(),
                        ),
                    ))
                }
                Ok(n) => {
                    self.out.drain(..n);
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => {
                    return Err(attribute(
                        self.peer,
                        common::Error::server(common::ServerKind::Io, "pump_out", e.to_string()),
                    ))
                }
            }
        }
        Ok(())
    }

    /// Bytes remain that the socket has not yet taken — keep
    /// `EPOLLOUT` interest registered.
    pub fn wants_write(&self) -> bool {
        !self.out.is_empty()
    }

    /// More than [`WRITE_CAP`] bytes wait in the write ring.
    pub fn over_cap(&self) -> bool {
        self.out.len() > WRITE_CAP
    }
}

/// Tags `e` with the peer address, when known.
fn attribute(peer: Option<SocketAddr>, e: common::Error) -> common::Error {
    match peer {
        Some(p) => e.with_peer(p),
        None => e,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::write_frame;
    use std::net::{Shutdown, TcpListener};
    use std::time::Duration;

    /// Frame bodies of varied lengths, each tagged with its index.
    fn bodies() -> Vec<Vec<u8>> {
        (0..120u32)
            .map(|i| {
                let mut body = i.to_be_bytes().to_vec();
                body.resize(4 + 1500 + (i as usize * 37) % 700, b'a' + (i % 26) as u8);
                body
            })
            .collect()
    }

    #[test]
    fn a_read_pass_stops_at_the_budget_and_later_passes_deliver_the_rest() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(server_side);

        let sent = bodies();
        let mut wire = Vec::new();
        for body in &sent {
            write_frame(&mut wire, body).unwrap();
        }
        assert!(wire.len() > 2 * READ_BUDGET);
        let writer = std::thread::spawn(move || {
            client.write_all(&wire).unwrap();
            client.shutdown(Shutdown::Write).unwrap();
        });
        // Let the burst land in the socket buffers before the first pass.
        let start = Instant::now();
        while !writer.is_finished() && start.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(1));
        }

        let wire_len = |frames: &[Vec<u8>]| frames.iter().map(|b| 4 + b.len()).sum::<usize>();
        let mut got = Vec::new();
        let mut first = true;
        loop {
            let mut frames = Vec::new();
            let pass = conn
                .read_ready(Instant::now(), |body, _| frames.push(body.to_vec()))
                .unwrap();
            if first && pass.progress {
                assert!(wire_len(&frames) <= READ_BUDGET);
                assert!(!pass.eof, "one pass must not take the whole burst");
                first = false;
            }
            got.extend(frames);
            if pass.eof {
                break;
            }
            if !pass.progress {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        writer.join().unwrap();
        assert_eq!(got, sent, "every frame, in order, before EOF");
    }
}
