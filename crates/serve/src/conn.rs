//! Per-connection state for the reactors: non-blocking read and write
//! buffering around the framing state machine.
//!
//! A [`Conn`] owns one non-blocking socket and the two buffers the
//! readiness model requires:
//!
//! * inbound, a [`FrameDecoder`] accumulates whatever byte runs
//!   `epoll` delivers — partial prefixes, split bodies, several
//!   coalesced messages — and hands each complete frame body, borrowed
//!   from its buffer, to the reactor's callback;
//! * outbound, a ring of encoded response bytes ([`Conn::out`]) holds
//!   whatever the socket would not take, so a slow client consumes
//!   buffer space instead of a thread.
//!
//! Shard workers never touch the socket: they push encoded responses
//! into the connection's [`Outbox`] (a mutex-guarded queue shared via
//! `Arc`) and wake the owning reactor, which moves the bytes into the
//! write ring and flushes. The `Arc` on the outbox doubles as the
//! in-flight-job count: a connection is only closed once the reactor
//! holds the last reference, i.e. no queued job can still reply.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::protocol::FrameDecoder;

/// Per-read-call chunk size.
const READ_CHUNK: usize = 16 * 1024;

/// Bytes one readiness event may take from a connection. Epoll is
/// level-triggered here, so whatever the pass leaves stays readable and
/// the next `epoll_wait` reports it again, after the reactor's other
/// ready connections have had their turn. The cap bounds the frames one
/// pass holds (a saturating client would otherwise hand over its whole
/// burst at once) and leaves the rest in the socket, where TCP flow
/// control pushes back on the sender.
const READ_BUDGET: usize = 4 * READ_CHUNK;

/// A queue of encoded, length-prefixed response byte strings, filled
/// by shard workers and drained by the owning reactor.
#[derive(Debug, Default)]
pub(crate) struct Outbox {
    queue: Mutex<Vec<Vec<u8>>>,
}

impl Outbox {
    /// Appends one encoded response (a poisoned mutex means the peer
    /// thread panicked mid-push; the response is dropped — delivery is
    /// best-effort, like a write to a gone client).
    pub fn push(&self, bytes: Vec<u8>) {
        if let Ok(mut q) = self.queue.lock() {
            q.push(bytes);
        }
    }

    /// Takes everything queued so far, preserving push order.
    pub fn take(&self) -> Vec<Vec<u8>> {
        self.queue
            .lock()
            .map(|mut q| std::mem::take(&mut *q))
            .unwrap_or_default()
    }
}

/// What one readiness-driven read pass observed (its frames went to
/// the pass's callback).
pub(crate) struct ReadPass {
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
    /// Encoded bytes accepted for write but not yet taken by the socket.
    out: VecDeque<u8>,
    /// Worker-facing response queue; see the module docs.
    pub outbox: Arc<Outbox>,
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
            outbox: Arc::new(Outbox::default()),
            last_activity: Instant::now(),
            read_open: true,
            registered_interest: 0,
        }
    }

    /// Reads until the socket would block or [`READ_BUDGET`] bytes have
    /// arrived, feeding the framing state machine and passing each
    /// complete frame body to `on_frame`, in arrival order, as soon as
    /// its last byte lands. The body is borrowed from the decoder's
    /// buffer: no per-frame copy.
    ///
    /// # Errors
    ///
    /// A framing violation (oversized prefix) or a hard socket error;
    /// either way the connection is beyond recovery.
    pub fn read_ready(&mut self, mut on_frame: impl FnMut(&[u8])) -> common::Result<ReadPass> {
        let mut pass = ReadPass {
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
                        on_frame(body);
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
            self.last_activity = Instant::now();
        }
        Ok(pass)
    }

    /// Moves worker responses into the write ring and flushes as much
    /// as the socket accepts.
    ///
    /// # Errors
    ///
    /// A hard write error — the peer is gone.
    pub fn pump_out(&mut self) -> common::Result<()> {
        for bytes in self.outbox.take() {
            self.out.extend(bytes);
        }
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

    /// Nothing pending in either the write ring or the worker outbox.
    pub fn flushed(&self) -> bool {
        self.out.is_empty()
            && self
                .outbox
                .queue
                .lock()
                .map(|q| q.is_empty())
                .unwrap_or(true)
    }

    /// No queued shard job still holds a reply handle to this
    /// connection (the reactor's own `Arc` is then the only one).
    pub fn no_inflight_jobs(&self) -> bool {
        Arc::strong_count(&self.outbox) == 1
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
            let pass = conn.read_ready(|body| frames.push(body.to_vec())).unwrap();
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
