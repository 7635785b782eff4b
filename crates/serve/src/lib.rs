//! Boreas reproduction: the online mitigation service.
//!
//! Boreas is a *runtime* method — deployed, its controller consumes
//! hardware telemetry each 960 µs interval and issues V/f decisions.
//! This crate is that deployment surface, built on the push-based
//! [`boreas_core::OnlineController`] API:
//!
//! * [`Server`] / [`ServeConfig`] ([`server`]) — a long-running daemon
//!   that accepts length-prefixed binary [`boreas_core::TelemetryFrame`]s
//!   over TCP, feeds each to its die's control loop (one per die id,
//!   shared by every connection) on the epoll reactor thread that read
//!   it, pauses reading a connection whose responses pile up, and
//!   drains cleanly on SIGTERM. The reactors multiplex every
//!   connection, so serving is Linux-only; elsewhere the crate builds
//!   and [`Server::bind`] returns an error;
//! * [`protocol`] — the wire codec behind 4-byte big-endian length
//!   prefixes: fixed-layout little-endian telemetry frames in, canonical
//!   JSON responses out, both with bit-exact `f64` round trips;
//! * [`http`] — a tiny `GET /metrics` responder exposing the shared
//!   [`obs::Registry`] in the Prometheus text format;
//! * [`signal`] — SIGTERM/SIGINT latching for the daemon binary.
//!
//! Two binaries ship with the crate: `boreas_serve` (the daemon) and
//! `boreas_loadgen` (replays workload traces against it and reports
//! decision-latency percentiles into `BENCH_serving.json`). See the
//! README "serving quickstart" and DESIGN §15–16.

// Off Linux `Server::bind` refuses before starting anything, leaving
// the frame-serving code unreachable there.
#![cfg_attr(not(target_os = "linux"), allow(dead_code))]

#[cfg(test)]
mod alloc_count;
mod conn;
pub mod http;
pub mod protocol;
mod reactor;
pub mod server;
pub mod signal;

pub use protocol::{
    decode_frame, decode_response, encode_frame, encode_response, encode_response_into,
    frame_bytes, read_frame, write_frame, FrameDecoder, FrameView, Incoming, Response,
    FRAME_VERSION, MAX_FRAME_BYTES,
};
pub use server::{Backend, ServeConfig, ServeConfigBuilder, Server};
