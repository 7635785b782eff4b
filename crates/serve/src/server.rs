//! The serving daemon core: epoll reactors in front of shard workers,
//! backpressure, clean drain.
//!
//! # Architecture
//!
//! ```text
//!  accept thread ── cap check ──► reactor 0..R   (epoll_wait each)
//!                                   │ Job (decoded frame)  ▲
//!                                   ▼                      │ outbox + wake
//!                              shard worker 0..N ──Response┘
//! ```
//!
//! * One **accept thread** polls a non-blocking listener so it can
//!   observe the shutdown flag; it enforces the connection cap, hands
//!   each accepted socket to a reactor round-robin and never does
//!   per-frame work, so a full shard queue cannot stall new
//!   connections.
//! * **Reactors** (`reactor.rs`, Linux) multiplex every
//!   connection over `epoll_wait` on `io_threads` threads: they turn
//!   socket bytes into decoded frames, route them, and flush the
//!   responses the workers push back.
//! * **Routing** (`route_frame`): decode, pick worker `shard % N`,
//!   `try_send` with bounded-queue backpressure, answer `Rejected` on
//!   a full queue or a malformed body.
//! * **Shard workers** own the control loops: worker `w` holds one
//!   [`OnlineController`] per die id `d` with `d % workers == w`, so
//!   each die's frames are processed in order by exactly one thread.
//!   The loops' controllers come from one [`ControllerFactory`] and
//!   share its compiled model. Workers drain their queue in *tick batches*: every frame available
//!   at wake-up is processed before sleeping again, and each completed
//!   interval's GBT inference runs both decision candidates through one
//!   [`gbt::FlatModel::predict_batch`] pass (see
//!   `BoreasController::predict_candidates`).
//! * **Backpressure**: shard queues are bounded
//!   ([`ServeConfigBuilder::queue_depth`]). A full queue rejects the
//!   frame immediately — counted in `boreas_serve_rejected_total` and
//!   answered with [`Response::Rejected`] — and never blocks a reactor
//!   or the accept loop.
//! * **Drain**: [`Server::request_shutdown`] stops the accept loop and
//!   the reactors' ingest; the reactors drop their queue senders,
//!   workers finish every frame already queued, pending responses
//!   flush, then [`Server::join`] returns. Nothing accepted is thrown
//!   away.
//!
//! Serving is Linux-only: on other targets the crate compiles, and
//! [`Server::bind`] returns [`Error::Server`].

use boreas_core::{Controller, OnlineController, VfTable};
use common::{Error, Result, ServerKind};
use engine::{ControllerFactory, ControllerSpec};
use obs::{Counter, Gauge, Histogram, Registry};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crate::protocol::{self, Response};

/// How often polling loops re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(50);

/// Upper bound on one worker tick's batch, so a hot shard cannot
/// starve the response path indefinitely.
const MAX_TICK_BATCH: usize = 256;

/// The I/O path between sockets and shard workers. Serving has one:
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
/// out-of-range values (zero shards, zero queue depth, …) at build
/// time instead of panicking — or silently clamping — at runtime.
/// [`ServeConfig::default`] is the paper setup (TH-00 flat-70 °C
/// controller over the paper VF table) for tests and examples.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    pub(crate) shards: usize,
    pub(crate) queue_depth: usize,
    pub(crate) io_threads: usize,
    pub(crate) max_connections: usize,
    pub(crate) idle_timeout: Duration,
    pub(crate) controller: ControllerSpec,
    pub(crate) vf: VfTable,
    pub(crate) start_idx: usize,
    pub(crate) sensor_idx: usize,
    pub(crate) registry: Registry,
}

impl ServeConfig {
    /// A builder seeded with the paper defaults: 2 shard workers, queue
    /// depth 64, 1 reactor thread, 1024-connection cap, 60 s idle
    /// timeout, the TH-00 flat-70 °C controller on the paper VF table,
    /// the 3.75 GHz baseline start index and the bank-maximum sensor.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder::new()
    }

    /// Shard worker threads.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Bounded per-shard queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth
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
    shards: usize,
    queue_depth: usize,
    io_threads: usize,
    max_connections: usize,
    idle_timeout: Duration,
    controller: Option<ControllerSpec>,
    vf: Option<VfTable>,
    start_idx: Option<usize>,
    sensor_idx: usize,
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
            shards: 2,
            queue_depth: 64,
            io_threads: 1,
            max_connections: 1024,
            idle_timeout: Duration::from_secs(60),
            controller: None,
            vf: None,
            start_idx: None,
            sensor_idx: telemetry::MAX_SENSOR_BANK,
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

    /// Sets the shard worker count (≥ 1).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the per-shard bounded queue depth (≥ 1).
    #[must_use]
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
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

    /// Sets the VF index each new die's loop starts at (default: the
    /// 3.75 GHz baseline, clamped to the table).
    #[must_use]
    pub fn start_idx(mut self, idx: usize) -> Self {
        self.start_idx = Some(idx);
        self
    }

    /// Sets the sensor selector for every loop.
    #[must_use]
    pub fn sensor_idx(mut self, idx: usize) -> Self {
        self.sensor_idx = idx;
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
    /// [`Error::InvalidConfig`] for zero shards, zero queue depth,
    /// zero reactor threads, a zero connection cap, a zero idle
    /// timeout, an empty VF table or an out-of-range start index.
    pub fn build(self) -> Result<ServeConfig> {
        if self.shards == 0 {
            return Err(Error::invalid_config("shards", "must be at least 1"));
        }
        if self.queue_depth == 0 {
            return Err(Error::invalid_config("queue_depth", "must be at least 1"));
        }
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
        let start_idx = self
            .start_idx
            .unwrap_or_else(|| VfTable::BASELINE_INDEX.min(vf.len() - 1));
        if start_idx >= vf.len() {
            return Err(Error::invalid_config(
                "start_idx",
                format!("index {start_idx} outside the {}-point VF table", vf.len()),
            ));
        }
        let controller = self
            .controller
            .unwrap_or_else(|| ControllerSpec::thermal(vec![Some(70.0); vf.len()], 0.0));
        Ok(ServeConfig {
            shards: self.shards,
            queue_depth: self.queue_depth,
            io_threads: self.io_threads,
            max_connections: self.max_connections,
            idle_timeout: self.idle_timeout,
            controller,
            vf,
            start_idx,
            sensor_idx: self.sensor_idx,
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
    pub connections: Counter,
    pub connections_active: Gauge,
    pub connections_rejected: Counter,
    pub idle_reaped: Counter,
    pub shards: Gauge,
    pub batch: Histogram,
    pub epoll_wakeups: Counter,
    pub epoll_events: Histogram,
}

impl Metrics {
    fn new(registry: &Registry) -> Self {
        Metrics {
            frames: registry.counter(
                "boreas_serve_frames_total",
                "Telemetry frames processed by shard workers",
            ),
            decisions: registry.counter(
                "boreas_serve_decisions_total",
                "Control decisions issued to clients",
            ),
            rejected: registry.counter(
                "boreas_serve_rejected_total",
                "Frames rejected (backpressure or malformed)",
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
            shards: registry.gauge("boreas_serve_shards", "Shard worker threads"),
            batch: registry.histogram(
                "boreas_serve_batch_frames",
                "Frames drained per worker tick",
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

/// One unit of shard work: a decoded frame plus the way back to the
/// client that sent it.
pub(crate) struct Job {
    pub frame: boreas_core::TelemetryFrame,
    pub reply: ReplySink,
}

/// The way a response reaches its connection: the shard worker encodes
/// it, pushes the wire bytes into the connection's outbox and wakes the
/// owning reactor, which flushes them.
#[derive(Clone)]
pub(crate) struct ReplySink {
    pub outbox: Arc<crate::conn::Outbox>,
    #[cfg(target_os = "linux")]
    pub waker: crate::reactor::Waker,
}

impl ReplySink {
    /// Delivers one response; best-effort (a gone client drops it).
    pub fn send(&self, resp: Response) {
        let Ok(body) = protocol::encode_response(&resp) else {
            return;
        };
        let mut wire = Vec::with_capacity(4 + body.len());
        wire.extend_from_slice(&(body.len() as u32).to_be_bytes());
        wire.extend_from_slice(&body);
        self.outbox.push(wire);
        #[cfg(target_os = "linux")]
        self.waker.wake();
    }
}

/// Frame routing: decode, pick the shard worker, `try_send` with
/// backpressure, answer rejections.
pub(crate) fn route_frame(
    body: &[u8],
    senders: &[SyncSender<Job>],
    metrics: &Metrics,
    sink: &ReplySink,
) {
    match protocol::decode_frame(body) {
        Ok(frame) => {
            let worker = (frame.shard as usize) % senders.len();
            let (shard, seq) = (frame.shard, frame.seq);
            let job = Job {
                frame,
                reply: sink.clone(),
            };
            match senders[worker].try_send(job) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    metrics.rejected.inc();
                    sink.send(Response::Rejected {
                        shard,
                        seq,
                        reason: "shard queue full".to_string(),
                    });
                }
                Err(TrySendError::Disconnected(_)) => {
                    metrics.rejected.inc();
                    sink.send(Response::Rejected {
                        shard,
                        seq,
                        reason: "server draining".to_string(),
                    });
                }
            }
        }
        Err(e) => {
            metrics.rejected.inc();
            sink.send(Response::Rejected {
                shard: 0,
                seq: 0,
                reason: e.to_string(),
            });
        }
    }
}

/// A running serving daemon. See the [module docs](self) for the
/// thread/queue layout.
pub struct Server {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    #[cfg(target_os = "linux")]
    reactors: Vec<crate::reactor::ReactorHandle>,
    /// The open-connection count the accept loop and reactors keep;
    /// the shutdown test bumps it the way the accept loop does.
    #[cfg(test)]
    active_connections: Arc<AtomicUsize>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:7070"`, or port 0 for an
    /// ephemeral port) and starts the accept loop, the reactors and the
    /// shard workers.
    ///
    /// # Errors
    ///
    /// [`Error::Server`] when the bind fails or the target is not
    /// Linux, or whatever [`ControllerSpec::build`] reports for an
    /// invalid controller recipe (the recipe is validated once up
    /// front, not per die).
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> Result<Server> {
        // Fail fast on an unbuildable controller instead of per die; the
        // dies' controllers then share the factory's model.
        let factory = ControllerFactory::new(&config.controller)?;
        #[cfg(not(target_os = "linux"))]
        {
            let _ = addr;
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
            metrics.shards.set(config.shards as f64);

            let shutdown = Arc::new(AtomicBool::new(false));
            let active_connections = Arc::new(AtomicUsize::new(0));

            let mut senders = Vec::with_capacity(config.shards);
            let mut workers = Vec::with_capacity(config.shards);
            for w in 0..config.shards {
                let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_depth);
                senders.push(tx);
                let worker_cfg = config.clone();
                let worker_factory = factory.clone();
                let worker_metrics = metrics.clone();
                workers.push(
                    thread::Builder::new()
                        .name(format!("serve-shard-{w}"))
                        .spawn(move || {
                            shard_worker(&rx, &worker_cfg, &worker_factory, &worker_metrics)
                        })
                        .map_err(|e| {
                            Error::server(ServerKind::Spawn, "spawn worker", e.to_string())
                        })?,
                );
            }

            // Each reactor holds its own queue senders and drops them
            // when it drains; workers exit once every reactor has.
            let mut reactors = Vec::with_capacity(config.io_threads);
            for r in 0..config.io_threads {
                reactors.push(crate::reactor::spawn_reactor(
                    r,
                    senders.clone(),
                    config.idle_timeout,
                    metrics.clone(),
                    shutdown.clone(),
                    active_connections.clone(),
                )?);
            }
            drop(senders);

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
                workers,
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

    /// Begins a clean drain: stop accepting, stop ingesting frames,
    /// let workers empty their queues, flush pending responses.
    /// Returns immediately; call [`Server::join`] to wait.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        #[cfg(target_os = "linux")]
        for r in &self.reactors {
            r.waker.wake();
        }
    }

    /// Waits until the drain completes: the accept loop, every reactor
    /// and every shard worker has exited. A reactor closes all of its
    /// connections before it returns, so none is left to wait for.
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
        for handle in self.workers.drain(..) {
            handle.join().map_err(|_| join_err("shard worker"))?;
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

/// One shard worker: owns the control loops of every die id mapped to
/// it and processes its queue in tick batches.
fn shard_worker(
    rx: &Receiver<Job>,
    config: &ServeConfig,
    factory: &ControllerFactory,
    metrics: &Metrics,
) {
    let mut loops: HashMap<u32, OnlineController<Box<dyn Controller + Send>>> = HashMap::new();
    let mut batch: Vec<Job> = Vec::new();
    loop {
        // Block for the first job of a tick, then drain whatever else
        // is already queued (bounded, so the response path stays live).
        match rx.recv_timeout(POLL) {
            Ok(job) => batch.push(job),
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
        while batch.len() < MAX_TICK_BATCH {
            match rx.try_recv() {
                Ok(job) => batch.push(job),
                Err(_) => break,
            }
        }
        metrics.batch.observe(batch.len() as f64);
        for job in batch.drain(..) {
            let die = job.frame.shard;
            let online = match loops.entry(die) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    let built = OnlineController::new(build_controller(factory), config.vf.clone())
                        .and_then(|o| o.start(config.start_idx))
                        .map(|o| o.sensor(config.sensor_idx));
                    match built {
                        Ok(o) => e.insert(o),
                        Err(_) => {
                            metrics.rejected.inc();
                            job.reply.send(Response::Rejected {
                                shard: die,
                                seq: job.frame.seq,
                                reason: "control loop construction failed".to_string(),
                            });
                            continue;
                        }
                    }
                }
            };
            metrics.frames.inc();
            let seq = job.frame.seq;
            if let Some(decision) = online.observe_record(job.frame.record) {
                metrics.decisions.inc();
                job.reply.send(Response::Decision {
                    shard: die,
                    seq,
                    decision,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_rejects_out_of_range_values() {
        assert!(ServeConfig::builder().shards(0).build().is_err());
        assert!(ServeConfig::builder().queue_depth(0).build().is_err());
        assert!(ServeConfig::builder().io_threads(0).build().is_err());
        assert!(ServeConfig::builder().max_connections(0).build().is_err());
        assert!(ServeConfig::builder()
            .idle_timeout(Duration::ZERO)
            .build()
            .is_err());
        assert!(ServeConfig::builder()
            .start_idx(usize::MAX)
            .build()
            .is_err());
    }

    #[test]
    fn builder_defaults_are_the_paper_setup() {
        let c = ServeConfig::default();
        assert_eq!(c.shards(), 2);
        assert_eq!(c.queue_depth(), 64);
        assert_eq!(c.io_threads(), 1);
        assert_eq!(c.max_connections(), 1024);
        assert_eq!(c.idle_timeout(), Duration::from_secs(60));
        assert_eq!(c.start_idx, VfTable::BASELINE_INDEX);
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
