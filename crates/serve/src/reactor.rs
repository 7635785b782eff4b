//! The serving I/O path: one thread per reactor drives every
//! connection assigned to it through epoll readiness events.
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
//!   level-triggered, so the rest is reported again); every
//!   complete frame is decoded straight from the decoder's buffer and
//!   routed to its shard worker through [`route_frame`] (`try_send`
//!   backpressure, rejections answered);
//! * **outbound** — shard workers push encoded responses into the
//!   connection's [`Outbox`] and wake the reactor via a self-pipe; the
//!   reactor moves bytes into the write ring and registers `EPOLLOUT`
//!   only while the socket refuses bytes (write-interest toggling);
//! * **idle timeout** — a connection with no traffic for
//!   `idle_timeout` is reaped, so dead peers cannot pin buffers
//!   forever;
//! * **drain** — on shutdown the reactor stops reading, drops its
//!   queue senders, flushes every pending response (including those
//!   still being computed by workers: the outbox `Arc` count tracks
//!   in-flight jobs), then closes everything and exits.
//!
//! The syscall surface (`epoll_create1`, `epoll_ctl`, `epoll_wait`,
//! `pipe2`, `read`, `write`, `close`) is declared directly, the same
//! zero-dependency idiom as [`crate::signal`]. Linux only; elsewhere
//! [`crate::Server::bind`] fails.

#![cfg(target_os = "linux")]

use std::collections::HashMap;
use std::net::TcpStream;
use std::os::raw::{c_int, c_void};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use common::{Error, Result, ServerKind};

use crate::conn::Conn;
use crate::server::{route_frame, Job, Metrics, ReplySink};

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
/// byte into its self-pipe. Cheap to clone; safe to call from shard
/// workers, the accept loop and `request_shutdown`.
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
/// shutdown checks, idle reaping and in-flight-drain detection.
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
    senders: Vec<SyncSender<Job>>,
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
        let waker = waker.clone();
        thread::Builder::new()
            .name(format!("serve-reactor-{index}"))
            .spawn(move || {
                let mut reactor = Reactor {
                    epfd,
                    pipe_read,
                    waker,
                    conns: HashMap::new(),
                    senders,
                    intake,
                    idle_timeout,
                    metrics,
                    shutdown,
                    active,
                    draining: false,
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
    /// Clone of the handle's waker, handed to every reply sink so
    /// shard workers can nudge this reactor after pushing a response.
    waker: Waker,
    conns: HashMap<RawFd, Conn>,
    /// Queue senders; cleared when the drain starts so shard workers
    /// can observe disconnection and exit.
    senders: Vec<SyncSender<Job>>,
    intake: Arc<Mutex<Vec<TcpStream>>>,
    idle_timeout: Duration,
    metrics: Metrics,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    draining: bool,
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
            self.pump_all();
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
        if mask & (EPOLLIN | EPOLLRDHUP) != 0 && conn.read_open {
            let sink = ReplySink {
                outbox: conn.outbox.clone(),
                waker: self.waker.clone(),
            };
            let (senders, metrics) = (&self.senders, &self.metrics);
            match conn.read_ready(|body| route_frame(body, senders, metrics, &sink)) {
                Ok(pass) => {
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
        if mask & EPOLLOUT != 0 {
            if let Some(conn) = self.conns.get_mut(&fd) {
                if conn.pump_out().is_err() {
                    self.close_conn(fd);
                }
            }
        }
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

    /// Moves worker responses to sockets, toggles write interest, and
    /// closes connections that finished their lifecycle.
    fn pump_all(&mut self) {
        let mut dead = Vec::new();
        for (&fd, conn) in &mut self.conns {
            if conn.pump_out().is_err() {
                dead.push(fd);
                continue;
            }
            let mut interest = 0u32;
            if conn.read_open && !self.draining {
                interest |= EPOLLIN | EPOLLRDHUP;
            }
            if conn.wants_write() {
                interest |= EPOLLOUT;
            }
            if interest != conn.registered_interest {
                if ctl(&self.epfd, EPOLL_CTL_MOD, fd, interest, fd as u64).is_err() {
                    dead.push(fd);
                    continue;
                }
                conn.registered_interest = interest;
            }
            // Lifecycle end: the peer finished sending (or we are
            // draining), every response is flushed, and no queued shard
            // job can produce another one.
            let finished = !conn.read_open || self.draining;
            if finished && conn.flushed() && conn.no_inflight_jobs() {
                dead.push(fd);
            }
        }
        for fd in dead {
            self.close_conn(fd);
        }
    }

    fn begin_drain(&mut self) {
        self.draining = true;
        // Dropping the senders lets shard workers observe disconnection
        // once the accept loop's master clones are gone too.
        self.senders.clear();
        for conn in self.conns.values_mut() {
            conn.read_open = false;
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
