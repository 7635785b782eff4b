//! The serving I/O path: one thread per reactor drives every
//! connection assigned to it through epoll readiness events, and serves
//! each frame it reads to completion.
//!
//! # Why a reactor
//!
//! At fleet scale ("one predictor ingests telemetry from whole racks")
//! the per-connection cost must be a few kilobytes of buffer, not OS
//! threads and their stacks. This module multiplexes all connections
//! over `epoll_wait` on non-blocking sockets:
//!
//! * **inbound** — readiness on a socket triggers a read of at most a
//!   fixed byte budget into the connection's [`FrameDecoder`] (epoll is
//!   level-triggered, so the rest is reported again); every complete
//!   frame is served in place by [`serve_frame`]: validated in the
//!   decoder's buffer, written into the window of its die's loop from
//!   the shared [`DieTable`], and answered into the connection's write
//!   ring;
//! * **outbound** — at the end of the read pass the reactor flushes
//!   the ring, and registers `EPOLLOUT` only while the socket refuses
//!   bytes (write-interest toggling). No other thread writes to a
//!   connection, so there is nothing to wake the reactor for;
//! * **write cap** — while more than `WRITE_CAP` response bytes wait,
//!   the reactor drops `EPOLLIN` for the connection and restores it
//!   once the ring has drained, so a peer that does not read its
//!   decisions stalls in its own socket;
//! * **idle timeout** — a connection with no traffic for
//!   `idle_timeout` is reaped, so dead peers cannot pin buffers
//!   forever;
//! * **drain** — on shutdown the reactor stops reading, flushes every
//!   write ring, then closes everything and exits.
//!
//! The self-pipe [`Waker`] only announces new sockets in the intake and
//! the shutdown. The syscall surface (`epoll_create1`, `epoll_ctl`,
//! `epoll_wait`, `pipe2`, `read`, `write`, `close`) is declared
//! directly, the same zero-dependency idiom as [`crate::signal`]. Linux
//! only; elsewhere [`crate::Server::bind`] fails.
//!
//! [`FrameDecoder`]: crate::protocol::FrameDecoder

#![cfg(target_os = "linux")]

use std::collections::HashMap;
use std::net::TcpStream;
use std::os::raw::{c_int, c_void};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use common::{Error, Result, ServerKind};

use crate::conn::Conn;
use crate::server::{serve_frame, DieTable, Metrics, RESPONSE_BUFFER_BYTES};

// ---------------------------------------------------------------- FFI

pub(crate) const EPOLLIN: u32 = 0x001;
pub(crate) const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

/// `EPOLL_CLOEXEC` == `O_CLOEXEC`; values for the Linux targets Rust
/// ships std on (x86_64, aarch64, riscv64, …).
const EPOLL_CLOEXEC: c_int = 0o2000000;
const O_CLOEXEC: c_int = 0o2000000;
const O_NONBLOCK: c_int = 0o4000;

/// The kernel's `struct epoll_event`. On x86_64 it is packed (a
/// 32-bit `events` directly followed by the 64-bit payload); on every
/// other architecture it has natural alignment.
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn pipe2(pipefd: *mut c_int, flags: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
}

/// A raw fd closed on drop.
#[derive(Debug)]
struct OwnedFd(c_int);

impl Drop for OwnedFd {
    fn drop(&mut self) {
        // SAFETY: the fd was returned by a successful syscall and is
        // owned exclusively by this wrapper.
        unsafe { close(self.0) };
    }
}

/// Wakes a reactor's `epoll_wait` from another thread by writing one
/// byte into its self-pipe. Cheap to clone; the accept loop calls it
/// after handing over a socket, `request_shutdown` to start the drain.
#[derive(Clone, Debug)]
pub(crate) struct Waker {
    pipe_write: Arc<OwnedFd>,
}

impl Waker {
    pub fn wake(&self) {
        let byte = 1u8;
        // SAFETY: writes one byte to an owned O_NONBLOCK pipe fd. A
        // full pipe (EAGAIN) means a wakeup is already pending — the
        // reactor will run regardless, so the result is ignored.
        unsafe {
            write(
                self.pipe_write.0,
                std::ptr::addr_of!(byte).cast::<c_void>(),
                1,
            );
        }
    }
}

/// Token identifying the self-pipe in epoll payloads (no socket fd can
/// collide with it).
const WAKE_TOKEN: u64 = u64::MAX;

/// How long one `epoll_wait` sleeps at most, bounding the latency of
/// idle reaping.
const WAIT_MS: c_int = 50;

/// Per-`epoll_wait` event capacity.
const MAX_EVENTS: usize = 256;

fn syscall_err(what: &'static str) -> Error {
    Error::server(
        ServerKind::Reactor,
        what,
        std::io::Error::last_os_error().to_string(),
    )
}

/// One reactor's handle held by the server: the intake for freshly
/// accepted sockets, the waker, and the thread to join.
pub(crate) struct ReactorHandle {
    pub intake: Arc<Mutex<Vec<TcpStream>>>,
    pub waker: Waker,
    pub thread: JoinHandle<()>,
}

/// Spawns one reactor I/O thread.
///
/// # Errors
///
/// [`Error::Server`] when `epoll_create1`/`pipe2` or the thread spawn
/// fails.
pub(crate) fn spawn_reactor(
    index: usize,
    dies: Arc<DieTable>,
    idle_timeout: Duration,
    metrics: Metrics,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
) -> Result<ReactorHandle> {
    // SAFETY: plain fd-creating syscalls; results are checked below and
    // ownership is wrapped immediately.
    let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
    if epfd < 0 {
        return Err(syscall_err("epoll_create1"));
    }
    let epfd = OwnedFd(epfd);
    let mut pipe_fds = [0 as c_int; 2];
    // SAFETY: pipe2 fills the two-element array on success.
    if unsafe { pipe2(pipe_fds.as_mut_ptr(), O_CLOEXEC | O_NONBLOCK) } < 0 {
        return Err(syscall_err("pipe2"));
    }
    let pipe_read = OwnedFd(pipe_fds[0]);
    let waker = Waker {
        pipe_write: Arc::new(OwnedFd(pipe_fds[1])),
    };
    ctl(&epfd, EPOLL_CTL_ADD, pipe_read.0, EPOLLIN, WAKE_TOKEN)?;

    let intake: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
    let thread = {
        let intake = intake.clone();
        thread::Builder::new()
            .name(format!("serve-reactor-{index}"))
            .spawn(move || {
                let mut reactor = Reactor {
                    epfd,
                    pipe_read,
                    conns: HashMap::new(),
                    dies,
                    intake,
                    idle_timeout,
                    metrics,
                    shutdown,
                    active,
                    draining: false,
                    scratch: String::with_capacity(RESPONSE_BUFFER_BYTES),
                };
                reactor.run();
            })
            .map_err(|e| Error::server(ServerKind::Spawn, "spawn reactor", e.to_string()))?
    };
    Ok(ReactorHandle {
        intake,
        waker,
        thread,
    })
}

fn ctl(epfd: &OwnedFd, op: c_int, fd: RawFd, events: u32, data: u64) -> Result<()> {
    let mut ev = EpollEvent { events, data };
    // SAFETY: epfd and fd are live fds owned by this reactor; `ev` is a
    // valid epoll_event for the duration of the call (EPOLL_CTL_DEL
    // ignores it).
    if unsafe { epoll_ctl(epfd.0, op, fd, &mut ev) } < 0 {
        return Err(syscall_err("epoll_ctl"));
    }
    Ok(())
}

struct Reactor {
    epfd: OwnedFd,
    pipe_read: OwnedFd,
    conns: HashMap<RawFd, Conn>,
    dies: Arc<DieTable>,
    intake: Arc<Mutex<Vec<TcpStream>>>,
    idle_timeout: Duration,
    metrics: Metrics,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    draining: bool,
    /// The response body buffer every frame this reactor serves encodes
    /// into before its bytes join the connection's write ring.
    scratch: String,
}

impl Reactor {
    fn run(&mut self) {
        let mut events = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        loop {
            // SAFETY: `events` outlives the call and MAX_EVENTS bounds
            // the kernel's writes.
            let n = unsafe {
                epoll_wait(
                    self.epfd.0,
                    events.as_mut_ptr(),
                    MAX_EVENTS as c_int,
                    WAIT_MS,
                )
            };
            if n < 0 {
                let interrupted =
                    std::io::Error::last_os_error().kind() == std::io::ErrorKind::Interrupted;
                if interrupted {
                    continue;
                }
                // The epoll fd itself failed: nothing to multiplex on.
                break;
            }
            self.metrics.epoll_wakeups.inc();
            if n > 0 {
                self.metrics.epoll_events.observe(f64::from(n));
            }
            for ev in &events[..n as usize] {
                // Copy out of the (possibly packed) struct by value.
                let (mask, token) = (ev.events, ev.data);
                if token == WAKE_TOKEN {
                    self.drain_wake_pipe();
                } else {
                    self.socket_event(token as RawFd, mask);
                }
            }
            self.admit_new_connections();
            if self.shutdown.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }
            self.reap();
            if self.draining && self.conns.is_empty() {
                return;
            }
        }
    }

    fn drain_wake_pipe(&mut self) {
        let mut buf = [0u8; 64];
        // SAFETY: reads the owned non-blocking pipe fd into a stack
        // buffer; loops until EAGAIN (negative return).
        while unsafe {
            read(
                self.pipe_read.0,
                buf.as_mut_ptr().cast::<c_void>(),
                buf.len(),
            )
        } > 0
        {}
    }

    fn socket_event(&mut self, fd: RawFd, mask: u32) {
        let Some(conn) = self.conns.get_mut(&fd) else {
            return;
        };
        if mask & (EPOLLERR | EPOLLHUP) != 0 {
            self.close_conn(fd);
            return;
        }
        if mask & (EPOLLIN | EPOLLRDHUP) != 0 && conn.read_open && !self.draining {
            let (dies, metrics, scratch) = (&*self.dies, &self.metrics, &mut self.scratch);
            let now = std::time::Instant::now();
            match conn.read_ready(now, |body, out| {
                serve_frame(body, now, dies, metrics, scratch, out);
            }) {
                Ok(pass) => {
                    if pass.frames > 0 {
                        metrics.batch.observe(pass.frames as f64);
                    }
                    if pass.eof {
                        conn.read_open = false;
                    }
                }
                // Framing violation or hard I/O error: nothing sensible
                // can follow on this byte stream.
                Err(_) => {
                    self.close_conn(fd);
                    return;
                }
            }
        }
        self.settle(fd);
    }

    /// Flushes `fd`'s write ring, registers the interest its state
    /// needs, and closes it once it will neither read nor write again.
    fn settle(&mut self, fd: RawFd) {
        let Some(conn) = self.conns.get_mut(&fd) else {
            return;
        };
        if conn.pump_out().is_err() {
            self.close_conn(fd);
            return;
        }
        let reading = conn.read_open && !self.draining;
        if !reading && !conn.wants_write() {
            self.close_conn(fd);
            return;
        }
        // Past the cap reads pause, and they stay paused until the ring
        // is empty.
        let was_reading = conn.registered_interest & EPOLLIN != 0;
        let paused = reading && (conn.over_cap() || (!was_reading && conn.wants_write()));
        let mut interest = 0u32;
        if reading && !paused {
            interest |= EPOLLIN | EPOLLRDHUP;
        }
        if conn.wants_write() {
            interest |= EPOLLOUT;
        }
        if interest == conn.registered_interest {
            return;
        }
        if paused && was_reading {
            self.metrics.read_paused.inc();
        }
        if ctl(&self.epfd, EPOLL_CTL_MOD, fd, interest, fd as u64).is_err() {
            self.close_conn(fd);
            return;
        }
        conn.registered_interest = interest;
    }

    fn admit_new_connections(&mut self) {
        let fresh = self
            .intake
            .lock()
            .map(|mut q| std::mem::take(&mut *q))
            .unwrap_or_default();
        for stream in fresh {
            if self.draining {
                // Late arrival during drain: close immediately; the
                // accept loop has already counted it active.
                self.active.fetch_sub(1, Ordering::SeqCst);
                self.metrics
                    .connections_active
                    .set(self.active.load(Ordering::SeqCst) as f64);
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                self.active.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            let fd = stream.as_raw_fd();
            let conn = Conn::new(stream);
            let interest = EPOLLIN | EPOLLRDHUP;
            if ctl(&self.epfd, EPOLL_CTL_ADD, fd, interest, fd as u64).is_err() {
                self.active.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            let mut conn = conn;
            conn.registered_interest = interest;
            self.conns.insert(fd, conn);
        }
    }

    fn begin_drain(&mut self) {
        self.draining = true;
        let fds: Vec<RawFd> = self.conns.keys().copied().collect();
        for fd in fds {
            self.settle(fd);
        }
    }

    fn reap(&mut self) {
        if self.idle_timeout.is_zero() {
            return;
        }
        let now = std::time::Instant::now();
        let stale: Vec<RawFd> = self
            .conns
            .iter()
            .filter(|(_, c)| now.duration_since(c.last_activity) > self.idle_timeout)
            .map(|(&fd, _)| fd)
            .collect();
        for fd in stale {
            self.metrics.idle_reaped.inc();
            self.close_conn(fd);
        }
    }

    fn close_conn(&mut self, fd: RawFd) {
        if let Some(conn) = self.conns.remove(&fd) {
            let _ = ctl(&self.epfd, EPOLL_CTL_DEL, fd, 0, 0);
            drop(conn);
            self.active.fetch_sub(1, Ordering::SeqCst);
            self.metrics
                .connections_active
                .set(self.active.load(Ordering::SeqCst) as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{self, Incoming, Response};
    use boreas_core::{
        ControlContext, Controller, OnlineController, TelemetryFrame, ThermalController, VfTable,
    };
    use common::units::{GigaHertz, Volts};
    use std::net::TcpListener;

    /// A controller that panics on every decision.
    struct Faulty;

    impl Controller for Faulty {
        fn name(&self) -> String {
            "faulty".to_string()
        }

        fn decide(&mut self, _ctx: &ControlContext<'_>) -> usize {
            panic!("controller fault")
        }
    }

    fn thermal() -> ThermalController {
        ThermalController::from_thresholds(vec![Some(70.0); VfTable::paper().len()], 0.0)
    }

    /// A die's loop over the paper VF table; die 1's controller panics.
    fn build(die: u32) -> common::Result<crate::server::DieLoop> {
        let controller: Box<dyn Controller + Send> = if die == 1 {
            Box::new(Faulty)
        } else {
            Box::new(thermal())
        };
        OnlineController::new(controller, VfTable::paper())
    }

    #[test]
    fn a_panicking_die_is_rejected_while_its_neighbours_are_served() {
        let mut cfg = hotgauge::PipelineConfig::paper();
        cfg.grid = floorplan::GridSpec::new(8, 6).unwrap();
        let steps = 36;
        let trace = cfg
            .build()
            .unwrap()
            .run_fixed(
                &workloads::WorkloadSpec::by_name("gcc").unwrap(),
                GigaHertz::new(3.75),
                Volts::new(0.925),
                steps,
            )
            .unwrap()
            .records;

        let registry = obs::Registry::new();
        let shutdown = Arc::new(AtomicBool::new(false));
        let reactor = spawn_reactor(
            0,
            Arc::new(DieTable::new(
                crate::server::MAX_DIES,
                crate::server::EVICT_AFTER,
                build,
            )),
            Duration::from_secs(60),
            Metrics::new(&registry),
            shutdown.clone(),
            Arc::new(AtomicUsize::new(1)),
        )
        .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (served, _) = listener.accept().unwrap();
        reactor.intake.lock().unwrap().push(served);
        reactor.waker.wake();

        // Dies 0, 1 and 2 interleaved on one connection, three intervals
        // each: die 1 panics at every interval end.
        for (t, record) in trace.iter().enumerate() {
            for die in 0..3 {
                let frame = TelemetryFrame::new(die, t as u64, record.clone());
                protocol::write_frame(&mut client, &protocol::encode_frame(&frame).unwrap())
                    .unwrap();
            }
        }
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let want = 3 * steps / 12;
        let responses: Vec<Response> = (0..want)
            .map(|_| match protocol::read_frame(&mut client).unwrap() {
                Incoming::Frame(body) => protocol::decode_response(&body).unwrap(),
                other => panic!("expected a response, got {other:?}"),
            })
            .collect();

        let mut replay = OnlineController::new(thermal(), VfTable::paper()).unwrap();
        let expected: Vec<_> = trace
            .iter()
            .enumerate()
            .filter_map(|(t, r)| Some((t as u64, replay.observe_record(r.clone())?)))
            .collect();
        for die in [0, 2] {
            let served: Vec<_> = responses
                .iter()
                .filter_map(|r| match r {
                    Response::Decision {
                        shard,
                        seq,
                        decision,
                    } if *shard == die => Some((*seq, decision.clone())),
                    _ => None,
                })
                .collect();
            assert_eq!(served, expected, "die {die} equals its offline replay");
        }
        let rejected: Vec<_> = responses
            .iter()
            .filter_map(|r| match r {
                Response::Rejected { shard, seq, reason } => {
                    assert_eq!(reason, "internal error");
                    Some((*shard, *seq))
                }
                Response::Decision { .. } => None,
            })
            .collect();
        assert_eq!(
            rejected,
            [(1, 11), (1, 23), (1, 35)],
            "rebuilt, panics again"
        );
        let count = |name: &str| match registry.snapshot().family(name).map(|f| &f.value) {
            Some(obs::MetricValue::Counter(v)) => *v,
            other => panic!("{name}: expected a counter, got {other:?}"),
        };
        assert_eq!(count("boreas_serve_panics_total"), 3);
        assert_eq!(count("boreas_serve_rejected_total"), 3);
        assert_eq!(count("boreas_serve_frames_total"), 3 * steps as u64 - 3);

        shutdown.store(true, Ordering::SeqCst);
        reactor.waker.wake();
        reactor
            .thread
            .join()
            .expect("the reactor survives the panics");
    }
}
