//! The Boreas serving daemon: streaming telemetry in, V/f decisions out.
//!
//! Listens for length-prefixed binary `TelemetryFrame`s (the version-2
//! layout of `boreas_serve::protocol`), feeds each to its die's control
//! loop, answers each completed 960 µs interval with a JSON decision,
//! and exposes its metrics registry over HTTP.
//! SIGTERM/SIGINT drain cleanly: every frame read is answered and every
//! pending decision flushed before exit.
//!
//! A few epoll reactor threads (`--io-threads`) multiplex every
//! connection and serve each frame on the thread that read it, so the
//! daemon runs on Linux only.
//!
//! Run `boreas_serve --help` for the full flag list. `--smoke` serves
//! the tiny synthetic severity ≈ frequency/5 GBT model
//! ([`boreas_core::smoke_model`], also behind `fig8_dynamic_runs
//! --smoke`) as an ML05 controller, so the CI
//! smoke job exercises the batched GBT inference path without a
//! training pipeline; without it the daemon serves the flat-70 °C
//! TH-00 thermal controller.

use boreas_core::VfTable;
use boreas_serve::{http, signal, ServeConfig, Server};
use common::cli::Spec;
use common::{Result, ServerKind};
use engine::ControllerSpec;
use obs::Registry;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn spec() -> Spec {
    Spec::new(
        "boreas_serve",
        "Boreas online mitigation daemon: telemetry frames in, V/f decisions out",
    )
    .value_flag::<String>(
        "addr",
        "host:port",
        Some("127.0.0.1:7070"),
        "frame ingress socket",
    )
    .value_flag::<String>(
        "metrics-addr",
        "host:port",
        Some("127.0.0.1:7071"),
        "GET /metrics and /healthz",
    )
    .value_flag::<usize>("io-threads", "n", Some("1"), "epoll reactor threads")
    .value_flag::<usize>(
        "max-connections",
        "n",
        Some("1024"),
        "concurrent-connection cap enforced at accept",
    )
    .value_flag::<u64>(
        "idle-timeout-ms",
        "ms",
        Some("60000"),
        "reap connections silent for this long",
    )
    .switch(
        "smoke",
        "serve the synthetic smoke GBT model as an ML05 controller",
    )
}

fn main() {
    common::cli::run_main(run);
}

fn run() -> Result<()> {
    signal::install();
    let args = spec().parse_env();

    let addr = args.value::<String>("addr");
    let metrics_addr = args.value::<String>("metrics-addr");
    let io_threads = args.value::<usize>("io-threads");
    let max_connections = args.value::<usize>("max-connections");
    let idle_ms = args.value::<u64>("idle-timeout-ms");
    let smoke = args.has("smoke");

    let vf = VfTable::paper();
    let controller = if smoke {
        let (model, features) = boreas_core::smoke_model(0);
        ControllerSpec::ml(model, &features, 0.05)
    } else {
        ControllerSpec::thermal(vec![Some(70.0); vf.len()], 0.0)
    };

    let registry = Registry::new();
    let config = ServeConfig::builder()
        .io_threads(io_threads)
        .max_connections(max_connections)
        .idle_timeout(Duration::from_millis(idle_ms))
        .controller(controller)
        .vf(vf)
        .registry(registry.clone())
        .build()?;
    let server = Server::bind(addr.as_str(), config)?;

    let metrics_listener = TcpListener::bind(metrics_addr.as_str())
        .map_err(|e| common::Error::server(ServerKind::Bind, "bind metrics", e.to_string()))?;
    let metrics_stop = Arc::new(AtomicBool::new(false));
    let metrics_thread =
        http::spawn_metrics_server(metrics_listener, registry.clone(), metrics_stop.clone());

    println!(
        "boreas-serve listening on {} ({} reactor thread{}, {} controller); metrics on http://{}/metrics",
        server.local_addr(),
        io_threads,
        if io_threads == 1 { "" } else { "s" },
        if smoke { "smoke ML05" } else { "TH-00" },
        metrics_addr,
    );

    while !signal::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }

    println!("boreas-serve: termination signal received, draining");
    server.request_shutdown();
    server.join()?;
    metrics_stop.store(true, Ordering::SeqCst);
    metrics_thread.join().map_err(|_| {
        common::Error::server(
            ServerKind::Join,
            "join",
            "metrics thread panicked".to_string(),
        )
    })?;

    let snap = registry.snapshot();
    let count = |name: &str| match snap.family(name).map(|f| &f.value) {
        Some(obs::MetricValue::Counter(v)) => *v,
        _ => 0,
    };
    println!(
        "boreas-serve: drained cleanly — {} frames, {} decisions, {} rejected",
        count("boreas_serve_frames_total"),
        count("boreas_serve_decisions_total"),
        count("boreas_serve_rejected_total"),
    );
    Ok(())
}
