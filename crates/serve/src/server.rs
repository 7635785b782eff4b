//! The serving daemon core: epoll reactors that serve every frame to
//! completion on the thread that read it, one table of per-die
//! control loops, clean drain.
//!
//! # Architecture
//!
//! ```text
//!  accept thread ── cap check ──► reactor 0..R   (epoll_wait each)
//!                                   │  per frame, on the reactor:
//!                                   │  read → decode → observe → encode → write
//!                                   ▼
//!                              die table: die id → Mutex<OnlineController>
//! ```
//!
//! * One **accept thread** polls a non-blocking listener so it can
//!   observe the shutdown flag; it enforces the connection cap, hands
//!   each accepted socket to a reactor round-robin and never does
//!   per-frame work.
//! * **Reactors** (`reactor.rs`, Linux) multiplex every connection
//!   over `epoll_wait` on `io_threads` threads and serve each frame
//!   start to finish on the reactor that read it (`serve_frame`):
//!   validate the body in the read buffer, write it straight into the
//!   next window slot of the die's control loop (an interval-completing
//!   frame runs the controller's decision, the GBT predict included),
//!   and encode any response, through the reactor's reused buffer, into
//!   the connection's write ring, which is flushed at the end of the
//!   connection's read pass. No frame and no response crosses a
//!   thread, and a frame of a die past its first interval allocates
//!   nothing.
//! * The **die table** (`DieTable`) holds one [`OnlineController`]
//!   per die id, shared by every reactor, so a die that reconnects on
//!   another socket — served by another reactor — carries on its loop.
//!   Each frame looks its die up in the table, then locks the die's own
//!   mutex, which is uncontended unless one die streams over two live
//!   connections at once. Every loop's controller comes from one
//!   [`ControllerFactory`] and shares its compiled model. The table
//!   holds at most `MAX_DIES` loops (4,096, about 11 MB). A frame for a
//!   new die that finds it full evicts the least recently served loop
//!   if that die has sent nothing for `EVICT_IDLE_INTERVALS` decision
//!   intervals (counted in `boreas_serve_evicted_total`); otherwise it
//!   is answered [`Response::Rejected`] with reason `die table full`,
//!   while the dies already in the table keep being served.
//! * **Panic isolation**: each frame's observe runs under
//!   `catch_unwind`. A panic answers [`Response::Rejected`] with reason
//!   `internal error` and counts in `boreas_serve_panics_total`; the
//!   die's loop, its mutex poisoned, is rebuilt on the die's next
//!   frame, and the reactor goes on serving every other die.
//! * **Backpressure** is TCP's own: a connection whose unflushed
//!   responses exceed a fixed cap is not read again until its peer has
//!   taken them (`boreas_serve_read_paused_total` counts the pauses),
//!   so a sender that outruns its own reading blocks in its socket.
//!   No frame is rejected for load.
//! * **Drain**: [`Server::request_shutdown`] stops the accept loop;
//!   each reactor stops reading, flushes every write ring, closes each
//!   connection and exits, then [`Server::join`] returns. Every frame
//!   that was read has been answered.
//!
//! Serving is Linux-only: on other targets the crate compiles, and
//! [`Server::bind`] returns [`Error::Server`].

use boreas_core::{Controller, OnlineController, VfTable};
use common::{Error, Result, ServerKind};
use engine::{ControllerFactory, ControllerSpec};
use obs::{Counter, Gauge, Histogram, Registry};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::protocol::{self, Response};

/// How often the accept loop re-checks the shutdown flag.
const POLL: Duration = Duration::from_millis(50);

/// The I/O path between sockets and control loops. Serving has one:
/// epoll reactors.
///
/// The type and [`ServeConfigBuilder::backend`] stay so that callers
/// naming the backend (the `perfbench` serving workload calls
/// `.backend(Backend::Epoll)`) build unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// A few reactor threads multiplex all connections via
    /// `epoll_wait` (Linux only).
    Epoll,
}

/// Validated configuration for [`Server::bind`].
///
/// Constructed through [`ServeConfig::builder`], which rejects
/// out-of-range values (zero reactor threads, zero connection cap, …)
/// at build time instead of panicking — or silently clamping — at
/// runtime. [`ServeConfig::default`] is the paper setup (TH-00 flat-70
/// °C controller over the paper VF table) for tests and examples.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    pub(crate) io_threads: usize,
    pub(crate) max_connections: usize,
    pub(crate) idle_timeout: Duration,
    pub(crate) controller: ControllerSpec,
    pub(crate) vf: VfTable,
    pub(crate) registry: Registry,
}

impl ServeConfig {
    /// A builder seeded with the paper defaults: 1 reactor thread,
    /// 1024-connection cap, 60 s idle timeout, the TH-00 flat-70 °C
    /// controller on the paper VF table, the 3.75 GHz baseline start
    /// index and the bank-maximum sensor.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder::new()
    }

    /// Reactor I/O threads.
    pub fn io_threads(&self) -> usize {
        self.io_threads
    }

    /// Concurrent-connection cap enforced at accept.
    pub fn max_connections(&self) -> usize {
        self.max_connections
    }

    /// Idle timeout after which a silent connection is reaped.
    pub fn idle_timeout(&self) -> Duration {
        self.idle_timeout
    }
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig::builder()
            .build()
            .expect("paper-default ServeConfig is valid")
    }
}

/// Builder for [`ServeConfig`]; see [`ServeConfig::builder`].
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    io_threads: usize,
    max_connections: usize,
    idle_timeout: Duration,
    controller: Option<ControllerSpec>,
    vf: Option<VfTable>,
    registry: Registry,
}

impl Default for ServeConfigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeConfigBuilder {
    fn new() -> ServeConfigBuilder {
        ServeConfigBuilder {
            io_threads: 1,
            max_connections: 1024,
            idle_timeout: Duration::from_secs(60),
            controller: None,
            vf: None,
            registry: Registry::new(),
        }
    }

    /// Names the I/O backend. [`Backend::Epoll`] is the only one, so
    /// there is nothing to choose; the setter stays so that callers
    /// naming it (the `perfbench` serving workload) build unchanged.
    #[must_use]
    pub fn backend(self, _backend: Backend) -> Self {
        self
    }

    /// Changes nothing. Frames are served on the reactor that reads
    /// them, so there are no shard workers to count; the setter stays
    /// so that callers setting it (the `perfbench` serving workload)
    /// build unchanged.
    #[must_use]
    pub fn shards(self, _shards: usize) -> Self {
        self
    }

    /// Changes nothing. No queue sits between a reactor and the control
    /// loops; a connection whose responses pile up is paused instead
    /// (see the [module docs](self)). The setter stays so that callers
    /// setting it (the `perfbench` serving workload) build unchanged.
    #[must_use]
    pub fn queue_depth(self, _depth: usize) -> Self {
        self
    }

    /// Sets the reactor thread count (≥ 1); connections are spread
    /// round-robin across reactors.
    #[must_use]
    pub fn io_threads(mut self, n: usize) -> Self {
        self.io_threads = n;
        self
    }

    /// Sets the concurrent-connection cap (≥ 1); connections beyond it
    /// are closed at accept.
    #[must_use]
    pub fn max_connections(mut self, n: usize) -> Self {
        self.max_connections = n;
        self
    }

    /// Sets the idle timeout (> 0) after which a connection with no
    /// traffic is reaped.
    #[must_use]
    pub fn idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = timeout;
        self
    }

    /// Sets the recipe for every per-die controller (default: the
    /// TH-00 flat-70 °C thermal controller).
    #[must_use]
    pub fn controller(mut self, spec: ControllerSpec) -> Self {
        self.controller = Some(spec);
        self
    }

    /// Sets the legal operating points (default: the paper VF table).
    #[must_use]
    pub fn vf(mut self, vf: VfTable) -> Self {
        self.vf = Some(vf);
        self
    }

    /// Uses `registry` for the server's metrics; pass a shared registry
    /// to expose it over HTTP.
    #[must_use]
    pub fn registry(mut self, registry: Registry) -> Self {
        self.registry = registry;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for zero reactor threads, a zero
    /// connection cap, a zero idle timeout or an empty VF table.
    pub fn build(self) -> Result<ServeConfig> {
        if self.io_threads == 0 {
            return Err(Error::invalid_config("io_threads", "must be at least 1"));
        }
        if self.max_connections == 0 {
            return Err(Error::invalid_config(
                "max_connections",
                "must be at least 1",
            ));
        }
        if self.idle_timeout.is_zero() {
            return Err(Error::invalid_config(
                "idle_timeout",
                "must be positive (there is no `never reap` mode)",
            ));
        }
        let vf = self.vf.unwrap_or_else(VfTable::paper);
        if vf.is_empty() {
            return Err(Error::invalid_config("vf", "table must not be empty"));
        }
        let controller = self
            .controller
            .unwrap_or_else(|| ControllerSpec::thermal(vec![Some(70.0); vf.len()], 0.0));
        Ok(ServeConfig {
            io_threads: self.io_threads,
            max_connections: self.max_connections,
            idle_timeout: self.idle_timeout,
            controller,
            vf,
            registry: self.registry,
        })
    }
}

/// The server's metric handles (all registered up front so `/metrics`
/// shows zeroes rather than gaps before traffic arrives).
#[derive(Clone)]
pub(crate) struct Metrics {
    pub frames: Counter,
    pub decisions: Counter,
    pub rejected: Counter,
    pub evicted: Counter,
    pub panics: Counter,
    pub connections: Counter,
    pub connections_active: Gauge,
    pub connections_rejected: Counter,
    pub idle_reaped: Counter,
    pub read_paused: Counter,
    pub batch: Histogram,
    pub epoll_wakeups: Counter,
    pub epoll_events: Histogram,
}

impl Metrics {
    pub(crate) fn new(registry: &Registry) -> Self {
        Metrics {
            frames: registry.counter(
                "boreas_serve_frames_total",
                "Telemetry frames observed by a die's control loop",
            ),
            decisions: registry.counter(
                "boreas_serve_decisions_total",
                "Control decisions issued to clients",
            ),
            rejected: registry.counter(
                "boreas_serve_rejected_total",
                "Frames answered with a rejection (malformed, a full die table, or the control step failed)",
            ),
            evicted: registry.counter(
                "boreas_serve_evicted_total",
                "Idle die loops evicted from a full die table to admit a new die",
            ),
            panics: registry.counter(
                "boreas_serve_panics_total",
                "Frames whose control step panicked; each is also a rejection",
            ),
            connections: registry.counter(
                "boreas_serve_connections_total",
                "Client connections accepted",
            ),
            connections_active: registry.gauge(
                "boreas_serve_connections",
                "Client connections currently open",
            ),
            connections_rejected: registry.counter(
                "boreas_serve_connections_rejected_total",
                "Connections closed at accept by the connection cap",
            ),
            idle_reaped: registry.counter(
                "boreas_serve_idle_reaped_total",
                "Connections reaped by the idle timeout",
            ),
            read_paused: registry.counter(
                "boreas_serve_read_paused_total",
                "Times a connection stopped being read because its unflushed responses passed the write cap",
            ),
            batch: registry.histogram(
                "boreas_serve_batch_frames",
                "Frames served per read pass",
                &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0],
            ),
            epoll_wakeups: registry.counter(
                "boreas_serve_epoll_wakeups_total",
                "Reactor epoll_wait returns",
            ),
            epoll_events: registry.histogram(
                "boreas_serve_epoll_events",
                "Readiness events delivered per epoll_wait return",
                &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0],
            ),
        }
    }
}

/// One die's control loop.
pub(crate) type DieLoop = OnlineController<Box<dyn Controller + Send>>;

/// Builds a die's loop from its id.
type BuildLoop = dyn Fn(u32) -> Result<DieLoop> + Send + Sync;

/// Live die loops a daemon keeps: far above every in-repo client
/// (perfbench serves 64 dies, `boreas_loadgen` at most 324 over its
/// default runs) and about 11 MB of loops at 2.6 KB each.
pub(crate) const MAX_DIES: usize = 4096;

/// Decision intervals (960 µs each) a die must have sent nothing for
/// before a new die may evict its loop from a full table: 10,000 is
/// 9.6 s, some ten thousand times a streaming die's frame gap.
const EVICT_IDLE_INTERVALS: u64 = 10_000;

/// [`EVICT_IDLE_INTERVALS`] as a duration, the daemon's idle threshold.
pub(crate) const EVICT_AFTER: Duration =
    Duration::from_micros(common::time::DECISION_MICROS * EVICT_IDLE_INTERVALS);

/// The rejection reason for a new die's frame once the table is full.
const TABLE_FULL: &str = "die table full";

/// One die's loop and when it last served a frame.
pub(crate) struct DieSlot {
    online: Mutex<DieLoop>,
    /// Nanoseconds from the table's `epoch` to the read pass that
    /// served the die's latest frame.
    last_served: AtomicU64,
}

/// Every die's control loop, by die id, shared by all reactors; see the
/// [module docs](self).
pub(crate) struct DieTable {
    loops: Mutex<HashMap<u32, Arc<DieSlot>>>,
    max_dies: usize,
    /// How long a die must be quiet before a new die may evict it.
    evict_after: Duration,
    epoch: Instant,
    build: Box<BuildLoop>,
}

impl DieTable {
    /// An empty table of at most `max_dies` loops, which `build` makes,
    /// each on its die's first frame; a loop idle for longer than
    /// `evict_after` may make room for a new die.
    pub fn new(
        max_dies: usize,
        evict_after: Duration,
        build: impl Fn(u32) -> Result<DieLoop> + Send + Sync + 'static,
    ) -> DieTable {
        DieTable {
            loops: Mutex::new(HashMap::new()),
            max_dies,
            evict_after,
            epoch: Instant::now(),
            build: Box::new(build),
        }
    }

    /// `die`'s loop, marked served at `now`: built on the die's first
    /// frame, and built afresh if a panic has poisoned it. A new die
    /// that finds the table full evicts the least recently served loop
    /// if it has been idle for longer than `evict_after`, counting it
    /// in `evicted`.
    ///
    /// # Errors
    ///
    /// The rejection reason: [`TABLE_FULL`] for a new die when the
    /// table is full of loops that are not idle, or whatever building
    /// the loop reports.
    fn get(
        &self,
        die: u32,
        now: Instant,
        evicted: &Counter,
    ) -> std::result::Result<Arc<DieSlot>, String> {
        let stamp = now.saturating_duration_since(self.epoch).as_nanos() as u64;
        // Nothing panics while the table lock is held except a loop
        // build, which leaves the map as it was.
        let mut loops = self.loops.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(slot) = loops.get(&die).filter(|slot| !slot.online.is_poisoned()) {
            slot.last_served.store(stamp, Ordering::Relaxed);
            return Ok(slot.clone());
        }
        if !loops.contains_key(&die) && loops.len() >= self.max_dies {
            let idlest = loops
                .iter()
                .map(|(&id, slot)| (slot.last_served.load(Ordering::Relaxed), id))
                .min();
            match idlest {
                Some((last, id))
                    if stamp.saturating_sub(last) > self.evict_after.as_nanos() as u64 =>
                {
                    loops.remove(&id);
                    evicted.inc();
                }
                _ => return Err(TABLE_FULL.to_string()),
            }
        }
        let slot = Arc::new(DieSlot {
            online: Mutex::new((self.build)(die).map_err(|e| e.to_string())?),
            last_served: AtomicU64::new(stamp),
        });
        loops.insert(die, slot.clone());
        Ok(slot)
    }
}

/// Bytes the reused response buffer starts with: above the longest
/// decision the JSON codec writes, so steady-state encoding never grows
/// it.
pub(crate) const RESPONSE_BUFFER_BYTES: usize = 512;

/// Serves one frame body, read in the pass that started at `now`, to
/// completion: validates it, writes it into the next window slot of its
/// die's loop and encodes the response, if any, into the write ring
/// `out`, through the reused body buffer `scratch`. A frame of a die
/// past its first interval allocates nothing here, deciding or not
/// (given a controller that does not allocate).
pub(crate) fn serve_frame(
    body: &[u8],
    now: Instant,
    dies: &DieTable,
    metrics: &Metrics,
    scratch: &mut String,
    out: &mut VecDeque<u8>,
) {
    // Checked before the die table is touched: a malformed frame makes
    // no loop.
    let frame = match protocol::FrameView::parse(body) {
        Ok(frame) => frame,
        Err(e) => return reject(metrics, scratch, out, 0, 0, e.to_string()),
    };
    let (die, seq) = (frame.shard(), frame.seq());
    // Err carries the rejection's reason.
    let observed = catch_unwind(AssertUnwindSafe(|| -> std::result::Result<_, String> {
        let slot = dies.get(die, now, &metrics.evicted)?;
        // Poisoned since `get` only if another connection's frame for
        // this die panicked in between.
        let mut online = slot.online.lock().map_err(|_| INTERNAL_ERROR.to_string())?;
        Ok(online.observe_with(|slot| frame.write_record(slot)))
    }));
    match observed {
        Ok(Ok(None)) => metrics.frames.inc(),
        Ok(Ok(Some(decision))) => {
            let response = Response::Decision {
                shard: die,
                seq,
                decision,
            };
            // A decision that cannot be encoded (a non-finite
            // diagnostic) is answered, and counted, as a rejection.
            match push_response(out, scratch, &response) {
                Ok(()) => {
                    metrics.frames.inc();
                    metrics.decisions.inc();
                }
                Err(e) => reject(metrics, scratch, out, die, seq, e.to_string()),
            }
        }
        Ok(Err(reason)) => reject(metrics, scratch, out, die, seq, reason),
        // A panic in observe leaves the die's mutex poisoned, so the
        // die's next frame, on any connection, rebuilds the loop.
        Err(_) => {
            metrics.panics.inc();
            reject(metrics, scratch, out, die, seq, INTERNAL_ERROR.to_string());
        }
    }
}

/// The rejection reason for a frame whose control step panicked.
const INTERNAL_ERROR: &str = "internal error";

fn reject(
    metrics: &Metrics,
    scratch: &mut String,
    out: &mut VecDeque<u8>,
    shard: u32,
    seq: u64,
    reason: String,
) {
    metrics.rejected.inc();
    let pushed = push_response(out, scratch, &Response::Rejected { shard, seq, reason });
    debug_assert!(pushed.is_ok(), "a rejection holds no float to refuse");
}

/// Appends `resp`'s length-prefixed wire bytes to `out`, encoding the
/// body in `scratch`; on an encoding error `out` is left as it was.
fn push_response(out: &mut VecDeque<u8>, scratch: &mut String, resp: &Response) -> Result<()> {
    protocol::encode_response_into(resp, scratch)?;
    out.extend((scratch.len() as u32).to_be_bytes());
    out.extend(scratch.as_bytes());
    Ok(())
}

/// A running serving daemon. See the [module docs](self) for the
/// thread layout.
pub struct Server {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    #[cfg(target_os = "linux")]
    reactors: Vec<crate::reactor::ReactorHandle>,
    /// The open-connection count the accept loop and reactors keep;
    /// the shutdown test bumps it the way the accept loop does.
    #[cfg(test)]
    active_connections: Arc<AtomicUsize>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:7070"`, or port 0 for an
    /// ephemeral port) and starts the accept loop and the reactors.
    ///
    /// # Errors
    ///
    /// [`Error::Server`] when the bind fails or the target is not
    /// Linux, or whatever [`ControllerFactory::new`] reports for an
    /// invalid controller recipe (the recipe is validated once up
    /// front, not per die).
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> Result<Server> {
        // Fail fast on an unbuildable controller instead of per die; the
        // dies' controllers then share the factory's model.
        let factory = ControllerFactory::new(&config.controller)?;
        #[cfg(not(target_os = "linux"))]
        {
            let _ = (addr, factory);
            Err(Error::server(
                ServerKind::Reactor,
                "bind",
                "serving requires Linux: the reactor is built on epoll".to_string(),
            ))
        }
        #[cfg(target_os = "linux")]
        {
            let listener = TcpListener::bind(addr)
                .map_err(|e| Error::server(ServerKind::Bind, "bind", e.to_string()))?;
            let local_addr = listener
                .local_addr()
                .map_err(|e| Error::server(ServerKind::Bind, "local_addr", e.to_string()))?;
            listener
                .set_nonblocking(true)
                .map_err(|e| Error::server(ServerKind::Bind, "set_nonblocking", e.to_string()))?;

            let metrics = Metrics::new(&config.registry);
            let shutdown = Arc::new(AtomicBool::new(false));
            let active_connections = Arc::new(AtomicUsize::new(0));

            let dies = {
                let vf = config.vf.clone();
                Arc::new(DieTable::new(MAX_DIES, EVICT_AFTER, move |_die| {
                    OnlineController::new(build_controller(&factory), vf.clone())
                }))
            };
            let mut reactors = Vec::with_capacity(config.io_threads);
            for r in 0..config.io_threads {
                reactors.push(crate::reactor::spawn_reactor(
                    r,
                    dies.clone(),
                    config.idle_timeout,
                    metrics.clone(),
                    shutdown.clone(),
                    active_connections.clone(),
                )?);
            }

            let accept = {
                let shutdown = shutdown.clone();
                let active = active_connections.clone();
                let intakes: Vec<_> = reactors
                    .iter()
                    .map(|r| (r.intake.clone(), r.waker.clone()))
                    .collect();
                let mut next = 0usize;
                let hand_off = move |stream: TcpStream| {
                    let (intake, waker) = &intakes[next % intakes.len()];
                    next = next.wrapping_add(1);
                    if let Ok(mut q) = intake.lock() {
                        q.push(stream);
                    }
                    waker.wake();
                };
                let max_connections = config.max_connections;
                thread::Builder::new()
                    .name("serve-accept".to_string())
                    .spawn(move || {
                        accept_loop(
                            &listener,
                            &shutdown,
                            &active,
                            &metrics,
                            max_connections,
                            hand_off,
                        );
                    })
                    .map_err(|e| Error::server(ServerKind::Spawn, "spawn accept", e.to_string()))?
            };

            Ok(Server {
                local_addr,
                shutdown,
                accept: Some(accept),
                reactors,
                #[cfg(test)]
                active_connections,
            })
        }
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Begins a clean drain: stop accepting, stop reading frames, flush
    /// every pending response. Returns immediately; call
    /// [`Server::join`] to wait.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        #[cfg(target_os = "linux")]
        for r in &self.reactors {
            r.waker.wake();
        }
    }

    /// Waits until the drain completes: the accept loop and every
    /// reactor has exited. A reactor closes all of its connections
    /// before it returns, so none is left to wait for.
    ///
    /// # Errors
    ///
    /// [`Error::Server`] if a server thread panicked.
    pub fn join(mut self) -> Result<()> {
        let join_err = |what: &'static str| {
            Error::server(ServerKind::Join, "join", format!("{what} panicked"))
        };
        if let Some(handle) = self.accept.take() {
            handle.join().map_err(|_| join_err("accept thread"))?;
        }
        #[cfg(target_os = "linux")]
        for r in self.reactors.drain(..) {
            r.waker.wake();
            r.thread.join().map_err(|_| join_err("reactor thread"))?;
        }
        Ok(())
    }
}

/// Accepts connections until shutdown, closing those beyond the cap
/// and passing the rest to `hand_off`.
fn accept_loop(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    active: &AtomicUsize,
    metrics: &Metrics,
    max_connections: usize,
    mut hand_off: impl FnMut(TcpStream),
) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if active.load(Ordering::SeqCst) >= max_connections {
                    // Cap reached: close immediately. The client sees
                    // EOF on its first read — cheap and unambiguous.
                    metrics.connections_rejected.inc();
                    drop(stream);
                    continue;
                }
                // Decisions are small and latency-sensitive; Nagle +
                // delayed-ACK stalls them by ~40 ms otherwise.
                let _ = stream.set_nodelay(true);
                metrics.connections.inc();
                active.fetch_add(1, Ordering::SeqCst);
                metrics
                    .connections_active
                    .set(active.load(Ordering::SeqCst) as f64);
                hand_off(stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => thread::sleep(POLL),
            Err(_) => thread::sleep(POLL),
        }
    }
}

/// Builds one boxed controller instance from the shared recipe.
fn build_controller(factory: &ControllerFactory) -> Box<dyn Controller + Send> {
    match factory.build() {
        engine::BuiltController::Simple(c) => c,
        engine::BuiltController::Resilient(r) => r,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc_count;
    use boreas_core::{
        BoreasController, ControlContext, ControlDiagnostics, TelemetryFrame, ThermalController,
    };
    use common::check::{self, Gen};
    use common::time::STEPS_PER_DECISION;
    use common::units::{Celsius, GigaHertz, Volts, Watts};
    use hotgauge::StepRecord;
    use std::sync::mpsc;

    /// Every response in the write ring `out`, which it empties.
    fn responses(out: &mut VecDeque<u8>) -> Vec<Response> {
        let mut wire = protocol::FrameDecoder::new();
        wire.push(&out.drain(..).collect::<Vec<u8>>());
        let mut got = Vec::new();
        while let Some(body) = wire.next_frame().unwrap() {
            got.push(protocol::decode_response(body).unwrap());
        }
        got
    }

    /// One decision interval of `gcc` at the baseline point, on a small
    /// grid.
    fn gcc_interval() -> Vec<StepRecord> {
        let mut cfg = hotgauge::PipelineConfig::paper();
        cfg.grid = floorplan::GridSpec::new(8, 6).unwrap();
        cfg.build()
            .unwrap()
            .run_fixed(
                &workloads::WorkloadSpec::by_name("gcc").unwrap(),
                GigaHertz::new(3.75),
                Volts::new(0.925),
                12,
            )
            .unwrap()
            .records
    }

    /// A table of at most `cap` TH-00 loops.
    fn thermal_table(cap: u32, evict_after: Duration) -> DieTable {
        DieTable::new(cap as usize, evict_after, |_die| {
            let thresholds = vec![Some(70.0); VfTable::paper().len()];
            let ctrl = ThermalController::from_thresholds(thresholds, 0.0);
            let ctrl: Box<dyn Controller + Send> = Box::new(ctrl);
            OnlineController::new(ctrl, VfTable::paper())
        })
    }

    #[test]
    fn a_full_die_table_rejects_new_dies_and_serves_the_rest() {
        let trace = gcc_interval();
        let (cap, extra) = (3u32, 5u32);
        let dies = thermal_table(cap, EVICT_AFTER);
        let registry = Registry::new();
        let metrics = Metrics::new(&registry);
        let (mut scratch, mut out) = (String::new(), VecDeque::new());
        let mut serve = |die: u32, t: usize| {
            let frame = TelemetryFrame::new(die, t as u64, trace[t].clone());
            serve_frame(
                &protocol::encode_frame(&frame).unwrap(),
                Instant::now(),
                &dies,
                &metrics,
                &mut scratch,
                &mut out,
            );
        };

        // The first `cap` dies fill the table with eleven frames each;
        // then `extra` new dies send one frame each.
        for t in 0..11 {
            (0..cap).for_each(|die| serve(die, t));
        }
        (cap..cap + extra).for_each(|die| serve(die, 0));
        // The table's dies complete their interval.
        (0..cap).for_each(|die| serve(die, 11));

        let got = responses(&mut out);
        let rejected: Vec<_> = got
            .iter()
            .filter_map(|r| match r {
                Response::Rejected { shard, seq, reason } => {
                    assert_eq!(reason, TABLE_FULL);
                    Some((*shard, *seq))
                }
                Response::Decision { .. } => None,
            })
            .collect();
        assert_eq!(
            rejected,
            (cap..cap + extra).map(|d| (d, 0)).collect::<Vec<_>>()
        );
        let decided: Vec<_> = got
            .iter()
            .filter_map(|r| match r {
                Response::Decision { shard, seq, .. } => Some((*shard, *seq)),
                Response::Rejected { .. } => None,
            })
            .collect();
        assert_eq!(decided, (0..cap).map(|d| (d, 11)).collect::<Vec<_>>());
        assert_eq!(metrics.rejected.value(), u64::from(extra));
        assert_eq!(metrics.evicted.value(), 0, "no die was idle");
    }

    #[test]
    fn a_full_die_table_evicts_idle_dies_but_never_a_streaming_one() {
        let trace = gcc_interval();
        let dies = thermal_table(3, Duration::from_millis(10));
        let metrics = Metrics::new(&Registry::new());
        // Serves die `die`'s frame `seq` in a read pass at a made-up
        // instant, `ms` after the table's start; returns the responses.
        let start = Instant::now();
        let serve = |die: u32, seq: u64, ms: u64| {
            let frame = TelemetryFrame::new(die, seq, trace[seq as usize % 12].clone());
            let (mut scratch, mut out) = (String::new(), VecDeque::new());
            serve_frame(
                &protocol::encode_frame(&frame).unwrap(),
                start + Duration::from_millis(ms),
                &dies,
                &metrics,
                &mut scratch,
                &mut out,
            );
            responses(&mut out)
        };
        // Sends `die`'s interval `k` at `ms`; true if it decided.
        let interval = |die: u32, k: u64, ms: u64| {
            let got: Vec<_> = (12 * k..12 * k + 12)
                .flat_map(|seq| serve(die, seq, ms))
                .collect();
            matches!(&got[..], [Response::Decision { shard, .. }] if *shard == die)
        };

        // Dies 1 and 2 send one frame at 0 ms; die 0 keeps sending, one
        // interval every 5 ms. The table was never full.
        for die in 1..3 {
            assert!(serve(die, 0, 0).is_empty());
        }
        for k in 0..5 {
            assert!(interval(0, k, 5 * k), "die 0 decides at {} ms", 5 * k);
        }
        assert_eq!(
            metrics.evicted.value(),
            0,
            "no eviction while there is room"
        );

        // At 20 ms dies 1 and 2 have been idle for twice the threshold:
        // new dies 3 and 4 evict them and decide.
        assert!(interval(3, 0, 20));
        assert!(interval(4, 0, 20));
        assert_eq!(metrics.evicted.value(), 2);

        // At 25 ms nothing in the table is idle: die 5 is refused, and
        // the streaming die 0 is still served from its own loop.
        let refused = serve(5, 0, 25);
        assert!(
            matches!(&refused[..], [Response::Rejected { shard: 5, reason, .. }] if reason == TABLE_FULL),
            "{refused:?}"
        );
        assert!(interval(0, 5, 25), "die 0 decides on");
        assert_eq!(metrics.evicted.value(), 2, "die 0 was never evicted");
    }

    /// A record with `sensors` readings, every value drawn from `g`.
    fn random_record(g: &mut Gen, sensors: usize, seq: u64) -> StepRecord {
        let mut counters = perfsim::IntervalCounters::zeroed();
        for v in counters.as_mut_slice() {
            *v = g.f64_in(0.0..1e6);
        }
        StepRecord {
            time: common::time::SimTime::from_micros(80 * seq),
            counters,
            sensor_temps: (0..sensors)
                .map(|_| Celsius::new(g.f64_in(40.0..110.0)))
                .collect(),
            max_temp: Celsius::new(g.f64_in(40.0..120.0)),
            max_severity: hotgauge::Severity::new(g.f64_in(0.0..1.0)),
            max_severity_raw: g.f64_in(-1.0..2.0),
            hotspot_xy: (g.f64_in(0.0..12.0), g.f64_in(0.0..9.0)),
            total_power: Watts::new(g.f64_in(1.0..60.0)),
            frequency: GigaHertz::new(g.f64_in(3.0..5.0)),
            voltage: Volts::new(g.f64_in(0.8..1.4)),
        }
    }

    /// TH-00 at a flat 70 °C on the bank maximum, so a die with fewer
    /// than four sensors (or none) still decides.
    fn thermal_controller() -> Box<dyn Controller + Send> {
        Box::new(
            ThermalController::from_thresholds(vec![Some(70.0); VfTable::paper().len()], 0.0)
                .with_sensor(telemetry::MAX_SENSOR_BANK),
        )
    }

    /// ML05 over a small GBT model of the bank-maximum temperature and
    /// three counters.
    fn ml_controller() -> BoreasController {
        let names = [
            telemetry::TEMPERATURE_FEATURE,
            "ipc",
            "frequency_ghz",
            "committed_instructions",
        ];
        let features = telemetry::FeatureSet::from_names(&names).unwrap();
        let mut data = gbt::Dataset::new(features.names());
        for i in 0..400 {
            let temp = 40.0 + (i % 71) as f64;
            let freq = 3.0 + (i % 9) as f64 * 0.25;
            let row = [
                temp,
                (i % 13) as f64 / 5.0,
                freq,
                ((i * 7919) % 1000) as f64,
            ];
            data.push_row(&row, temp * freq / 560.0, (i % 4) as u32)
                .unwrap();
        }
        let params = gbt::GbtParams::default().with_estimators(60);
        let model = gbt::GbtModel::train(&data, &params).unwrap();
        BoreasController::try_new(model, features, 0.05).unwrap()
    }

    /// `body` made malformed in one of a few ways, each refused before
    /// the die table is touched.
    fn corrupt(g: &mut Gen, mut body: Vec<u8>) -> Vec<u8> {
        match g.usize_in(0..4) {
            0 => {
                body.pop();
            }
            1 => body[0] = 3,
            2 => {
                let at = 23 + 8 * g.usize_in(0..77);
                body[at..at + 8].copy_from_slice(&f64::NAN.to_le_bytes());
            }
            _ => body[21] = 76,
        }
        body
    }

    /// Serves random streams — interleaved dies with 0–16 sensors each,
    /// malformed bodies mixed in — through `serve_frame` and checks
    /// (1) every accepted frame of a die past its first interval,
    /// deciding or not, allocates nothing, (2) every die's responses
    /// are the bytes of its offline `observe_record` replay, and (3) a
    /// malformed body is answered `Rejected{0, 0}`.
    fn steady_state_frames_allocate_nothing(
        cases: usize,
        controller: impl Fn() -> Box<dyn Controller + Send> + Send + Sync + Clone + 'static,
    ) {
        check::cases(cases, |g| {
            let dies = g.usize_in(1..=4);
            let ids: Vec<u32> = (0..dies)
                .map(|d| (g.u64() as u32) & !3 | d as u32)
                .collect();
            let sensors: Vec<usize> = (0..dies).map(|_| g.usize_in(0..=16)).collect();
            let lens: Vec<u64> = (0..dies).map(|_| g.u64_in(12..=40)).collect();
            let build = controller.clone();
            let table = DieTable::new(MAX_DIES, EVICT_AFTER, move |_die| {
                OnlineController::new(build(), VfTable::paper())
            });
            let mut replay: Vec<DieLoop> = (0..dies)
                .map(|_| OnlineController::new(controller(), VfTable::paper()).unwrap())
                .collect();
            let metrics = Metrics::new(&Registry::new());
            let mut scratch = String::with_capacity(RESPONSE_BUFFER_BYTES);
            let mut out = VecDeque::with_capacity(1 << 16);
            let mut sent = vec![0u64; dies];
            while let Some(d) = {
                let open: Vec<usize> = (0..dies).filter(|&d| sent[d] < lens[d]).collect();
                (!open.is_empty()).then(|| g.pick(&open))
            } {
                let seq = sent[d];
                let record = random_record(g, sensors[d], seq);
                let body =
                    protocol::encode_frame(&TelemetryFrame::new(ids[d], seq, record.clone()))
                        .unwrap();
                if g.usize_in(0..8) == 0 {
                    let bad = corrupt(g, body.clone());
                    serve_frame(
                        &bad,
                        Instant::now(),
                        &table,
                        &metrics,
                        &mut scratch,
                        &mut out,
                    );
                    let got = responses(&mut out);
                    assert!(
                        matches!(
                            got.as_slice(),
                            [Response::Rejected {
                                shard: 0,
                                seq: 0,
                                ..
                            }]
                        ),
                        "{got:?}"
                    );
                }
                let before = alloc_count::allocations();
                serve_frame(
                    &body,
                    Instant::now(),
                    &table,
                    &metrics,
                    &mut scratch,
                    &mut out,
                );
                let allocations = alloc_count::allocations() - before;
                if seq >= STEPS_PER_DECISION {
                    assert_eq!(allocations, 0, "die {d}, frame {seq}");
                }
                let served: Vec<u8> = out.drain(..).collect();
                let want = match replay[d].observe_record(record) {
                    Some(decision) => {
                        let body = protocol::encode_response(&Response::Decision {
                            shard: ids[d],
                            seq,
                            decision,
                        })
                        .unwrap();
                        [&(body.len() as u32).to_be_bytes()[..], &body].concat()
                    }
                    None => Vec::new(),
                };
                assert_eq!(served, want, "die {d}, frame {seq}");
                sent[d] += 1;
            }
            assert_eq!(metrics.frames.value(), lens.iter().sum::<u64>());
        });
    }

    #[test]
    fn thermal_steady_state_frames_allocate_nothing_and_decide_like_the_replay() {
        steady_state_frames_allocate_nothing(48, thermal_controller);
    }

    #[test]
    fn ml_steady_state_frames_allocate_nothing_and_decide_like_the_replay() {
        let ml = ml_controller();
        steady_state_frames_allocate_nothing(48, move || Box::new(ml.clone()));
    }

    /// A controller that decides like TH-00 but reports a NaN predicted
    /// severity, which no response can encode.
    struct NanDiagnostics(Box<dyn Controller + Send>);

    impl Controller for NanDiagnostics {
        fn name(&self) -> String {
            "nan-diagnostics".to_string()
        }

        fn decide(&mut self, ctx: &ControlContext<'_>) -> usize {
            self.0.decide(ctx)
        }

        fn diagnostics(&self) -> ControlDiagnostics {
            ControlDiagnostics {
                predicted_severity: Some(f64::NAN),
                ..ControlDiagnostics::default()
            }
        }
    }

    #[test]
    fn an_unencodable_decision_is_rejected_not_dropped() {
        check::cases(1, |g| {
            let dies = DieTable::new(MAX_DIES, EVICT_AFTER, |_die| {
                let ctrl: Box<dyn Controller + Send> =
                    Box::new(NanDiagnostics(thermal_controller()));
                OnlineController::new(ctrl, VfTable::paper())
            });
            let metrics = Metrics::new(&Registry::new());
            let (mut scratch, mut out) = (String::new(), VecDeque::new());
            for seq in 0..STEPS_PER_DECISION {
                let frame = TelemetryFrame::new(5, seq, random_record(g, 7, seq));
                let body = protocol::encode_frame(&frame).unwrap();
                serve_frame(
                    &body,
                    Instant::now(),
                    &dies,
                    &metrics,
                    &mut scratch,
                    &mut out,
                );
            }
            let got = responses(&mut out);
            let [Response::Rejected { shard, seq, reason }] = got.as_slice() else {
                panic!("expected one rejection, got {got:?}");
            };
            assert_eq!((*shard, *seq), (5, 11));
            assert!(reason.contains("non-finite"), "{reason}");
            assert_eq!(metrics.decisions.value(), 0);
            assert_eq!(metrics.rejected.value(), 1);
            assert_eq!(
                metrics.frames.value() + metrics.rejected.value(),
                STEPS_PER_DECISION,
                "frames observed + rejected == sent"
            );
        });
    }

    #[test]
    fn builder_rejects_out_of_range_values() {
        assert!(ServeConfig::builder().io_threads(0).build().is_err());
        assert!(ServeConfig::builder().max_connections(0).build().is_err());
        assert!(ServeConfig::builder()
            .idle_timeout(Duration::ZERO)
            .build()
            .is_err());
    }

    #[test]
    fn builder_defaults_are_the_paper_setup() {
        let c = ServeConfig::default();
        assert_eq!(c.io_threads(), 1);
        assert_eq!(c.max_connections(), 1024);
        assert_eq!(c.idle_timeout(), Duration::from_secs(60));
        // Each die's loop starts at the start point derived from the VF
        // table: the 3.75 GHz baseline.
        let factory = ControllerFactory::new(&c.controller).unwrap();
        let die = OnlineController::new(build_controller(&factory), c.vf.clone()).unwrap();
        assert_eq!(die.current_idx(), VfTable::BASELINE_INDEX);
    }

    /// A socket handed to a reactor that has already drained (the
    /// accept loop raced the shutdown) is counted open but never
    /// closed by anyone; `join` must still return.
    #[cfg(target_os = "linux")]
    #[test]
    fn join_returns_when_a_late_socket_meets_a_finished_reactor() {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        server.request_shutdown();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !server.reactors[0].thread.is_finished() {
            assert!(
                std::time::Instant::now() < deadline,
                "reactor did not drain"
            );
            thread::sleep(Duration::from_millis(5));
        }

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (late, _) = listener.accept().unwrap();
        server.reactors[0].intake.lock().unwrap().push(late);
        server.active_connections.fetch_add(1, Ordering::SeqCst);

        let (done_tx, done_rx) = mpsc::channel();
        thread::spawn(move || done_tx.send(server.join()));
        done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("join must return once the reactors are joined")
            .unwrap();
    }
}
