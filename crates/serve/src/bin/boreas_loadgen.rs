//! Load generator for the Boreas serving daemon: replays workload
//! traces as telemetry frames over many concurrent connections and
//! measures decision latency.
//!
//! Generates per-die traces with the hotgauge pipeline (one test
//! workload per die id, fixed at the 3.75 GHz baseline point), then
//! runs one measurement per entry in `--connections` (e.g.
//! `--connections 1,64,256`). Each run opens that many sockets; every
//! connection streams its own disjoint set of die ids (so per-die
//! frame order is preserved — the invariant each die's control loop
//! relies on) and matches each [`Response::Decision`] back to the send
//! instant of the interval-completing frame. Results — throughput,
//! p50/p95/p99 decision latency and a served-decision digest — go to
//! `BENCH_serving.json`: a [`ServingDoc`] (schema
//! `boreas-bench-serving-v2`, one entry per run) written through the
//! `common::json` codec and pretty-printed so the committed file stays
//! line-diffable.
//!
//! The digest is an FNV-1a-64 over the canonical re-encoded decision
//! bodies, sorted by `(die, seq)` with die ids normalized to run-local
//! indices. Decisions do not depend on how the daemon spreads work, so
//! every daemon serving the same traces must print the same digest —
//! CI diffs it between daemons started with 1 and with 2 reactor
//! threads.
//!
//! Run `boreas_loadgen --help` for the flag list. `--smoke` is the
//! CI-sized run; `--check BASELINE` reads the committed floors as a
//! [`ServingBaseline`] and fails when any run misses them.

use boreas_core::{TelemetryFrame, VfTable};
use boreas_serve::protocol::{self, Incoming, Response};
use common::cli::Spec;
use common::{fnv1a64, json, json_codec, Error, Result, ServerKind, FNV1A64_OFFSET};
use std::collections::HashMap;
use std::net::TcpStream;
use std::time::{Duration, Instant};
use workloads::WorkloadSpec;

/// One connection's sent-frame timestamps and matched results.
#[derive(Default)]
struct Ledger {
    sent: HashMap<(u32, u64), Instant>,
    latencies_ms: Vec<f64>,
    /// `(global_die, seq, decision)` for the digest.
    decisions: Vec<(u32, u64, boreas_core::ControlDecision)>,
    unmatched: u64,
    rejected: u64,
}

/// `BENCH_serving.json`.
struct ServingDoc {
    schema: String,
    smoke: bool,
    rate_fps: f64,
    machine: Machine,
    runs: Vec<RunResult>,
}
json_codec! { struct ServingDoc { schema, smoke, rate_fps, machine, runs } }

/// The host a [`ServingDoc`] was recorded on.
struct Machine {
    os: String,
    arch: String,
    threads: usize,
}
json_codec! { struct Machine { os, arch, threads } }

/// One `--connections` entry's measurement.
struct RunResult {
    connections: usize,
    dies: usize,
    frames: u64,
    send_secs: f64,
    throughput_fps: f64,
    decisions: u64,
    rejected: u64,
    unmatched: u64,
    latency_p50_ms: f64,
    latency_p95_ms: f64,
    latency_p99_ms: f64,
    /// The run's decision digest, 16 hex digits.
    digest: String,
}
json_codec! {
    struct RunResult {
        connections, dies, frames, send_secs, throughput_fps, decisions, rejected, unmatched,
        latency_p50_ms, latency_p95_ms, latency_p99_ms, digest,
    }
}

/// `--check`'s committed floors, applied to every run.
struct ServingBaseline {
    limits: Limits,
}
json_codec! { struct ServingBaseline { limits } }

struct Limits {
    min_throughput_fps: f64,
    max_p99_ms: f64,
}
json_codec! { struct Limits { min_throughput_fps, max_p99_ms } }

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Connects with retries so the daemon may still be starting up.
fn connect(addr: &str) -> Result<TcpStream> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(e) => return Err(Error::server(ServerKind::Connect, "connect", e.to_string())),
        }
    }
}

/// Digest over the run's decisions, order- and die-offset-normalized:
/// identical for any daemon serving the same per-die frame sequences.
fn decision_digest(entries: &mut [(u32, u64, boreas_core::ControlDecision)], offset: u32) -> u64 {
    entries.sort_by_key(|(die, seq, _)| (*die, *seq));
    let mut hash = FNV1A64_OFFSET;
    for (die, seq, decision) in entries.iter() {
        let local = die - offset;
        let body = protocol::encode_response(&Response::Decision {
            shard: local,
            seq: *seq,
            decision: decision.clone(),
        })
        .unwrap_or_default();
        hash = fnv1a64(hash, &local.to_be_bytes());
        hash = fnv1a64(hash, &seq.to_be_bytes());
        hash = fnv1a64(hash, &body);
    }
    hash
}

/// Streams one connection's dies and collects its ledger.
#[allow(clippy::too_many_arguments)]
fn connection_load(
    addr: &str,
    dies: Vec<u32>,
    traces: std::sync::Arc<Vec<Vec<hotgauge::StepRecord>>>,
    trace_of: std::sync::Arc<Vec<usize>>,
    offset: u32,
    steps_per_die: usize,
    gap: Duration,
) -> Result<Ledger> {
    let stream = connect(addr)?;
    stream
        .set_nodelay(true)
        .map_err(|e| Error::server(ServerKind::Socket, "set_nodelay", e.to_string()))?;
    let mut read_half = stream
        .try_clone()
        .map_err(|e| Error::server(ServerKind::Socket, "clone socket", e.to_string()))?;
    read_half
        .set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(|e| Error::server(ServerKind::Socket, "set_read_timeout", e.to_string()))?;

    let mut ledger = Ledger::default();
    let responses = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let responses_in_reader = responses.clone();
    let (tx, rx) = std::sync::mpsc::channel::<(u32, u64, Instant)>();
    let reader = std::thread::Builder::new()
        .name("loadgen-reader".to_string())
        .spawn(move || -> Ledger {
            // Runs until the server closes the connection; send instants
            // stream in from the writer side via the channel.
            let mut lg = Ledger::default();
            loop {
                while let Ok((die, seq, at)) = rx.try_recv() {
                    lg.sent.insert((die, seq), at);
                }
                match protocol::read_frame(&mut read_half) {
                    Ok(Incoming::Idle) => continue,
                    Ok(Incoming::Closed) | Err(_) => return lg,
                    Ok(Incoming::Frame(body)) => {
                        let Ok(resp) = protocol::decode_response(&body) else {
                            continue;
                        };
                        responses_in_reader.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        match resp {
                            Response::Decision {
                                shard,
                                seq,
                                decision,
                            } => {
                                // The decision may have arrived during the
                                // blocking read, before its send instant was
                                // drained from the channel — drain again
                                // before declaring it unmatched.
                                if !lg.sent.contains_key(&(shard, seq)) {
                                    while let Ok((die, s, at)) = rx.try_recv() {
                                        lg.sent.insert((die, s), at);
                                    }
                                }
                                match lg.sent.remove(&(shard, seq)) {
                                    Some(at) => {
                                        lg.latencies_ms.push(at.elapsed().as_secs_f64() * 1e3);
                                    }
                                    None => lg.unmatched += 1,
                                }
                                lg.decisions.push((shard, seq, decision));
                            }
                            Response::Rejected { .. } => lg.rejected += 1,
                        }
                    }
                }
            }
        })
        .map_err(|e| Error::server(ServerKind::Spawn, "spawn reader", e.to_string()))?;

    // Round-robin send: step t of every owned die, then step t+1.
    let mut write_half = stream;
    let started = Instant::now();
    let mut next_send = started;
    for t in 0..steps_per_die {
        for &die in &dies {
            let local = (die - offset) as usize;
            let record = traces[trace_of[local]][t].clone();
            let frame = TelemetryFrame::new(die, t as u64, record);
            let _ = tx.send((die, t as u64, Instant::now()));
            let body = protocol::encode_frame(&frame)?;
            protocol::write_frame(&mut write_half, &body)?;
            if !gap.is_zero() {
                next_send += gap;
                if let Some(wait) = next_send.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
            }
        }
    }
    drop(tx);

    // Wait until every completed interval is answered (decisions plus
    // rejections both count) or a deadline passes, then half-close so
    // the server sees EOF, flushes and hangs up — which ends the reader.
    let expected = dies.len() as u64 * (steps_per_die as u64 / common::STEPS_PER_DECISION);
    let deadline = Instant::now() + Duration::from_secs(15);
    while responses.load(std::sync::atomic::Ordering::Relaxed) < expected
        && Instant::now() < deadline
        && !reader.is_finished()
    {
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = write_half.shutdown(std::net::Shutdown::Write);
    let mut lg = reader.join().map_err(|_| {
        Error::server(
            ServerKind::Join,
            "join",
            "reader thread panicked".to_string(),
        )
    })?;
    ledger.latencies_ms.append(&mut lg.latencies_ms);
    ledger.decisions.append(&mut lg.decisions);
    ledger.unmatched += lg.unmatched;
    ledger.rejected += lg.rejected;
    Ok(ledger)
}

/// One full measurement at `connections` sockets, and its decision
/// digest.
#[allow(clippy::too_many_arguments)]
fn run_load(
    addr: &str,
    connections: usize,
    shards: usize,
    frames: u64,
    rate: f64,
    traces: &std::sync::Arc<Vec<Vec<hotgauge::StepRecord>>>,
    trace_of_all: &[usize],
    offset: u32,
) -> Result<(RunResult, u64)> {
    let dies = shards.max(connections);
    let steps_per_die = steps_for(frames, dies);
    let gap = if rate > 0.0 {
        Duration::from_secs_f64(connections as f64 / rate)
    } else {
        Duration::ZERO
    };

    let started = Instant::now();
    let mut handles = Vec::with_capacity(connections);
    for c in 0..connections {
        let owned: Vec<u32> = (0..dies)
            .filter(|d| d % connections == c)
            .map(|d| offset + d as u32)
            .collect();
        let addr = addr.to_string();
        let traces = traces.clone();
        let trace_of = std::sync::Arc::new(trace_of_all.to_vec());
        handles.push(
            std::thread::Builder::new()
                .name(format!("loadgen-conn-{c}"))
                .spawn(move || {
                    connection_load(&addr, owned, traces, trace_of, offset, steps_per_die, gap)
                })
                .map_err(|e| Error::server(ServerKind::Spawn, "spawn connection", e.to_string()))?,
        );
    }
    let mut merged = Ledger::default();
    for h in handles {
        let lg = h.join().map_err(|_| {
            Error::server(
                ServerKind::Join,
                "join",
                "connection thread panicked".to_string(),
            )
        })??;
        merged.latencies_ms.extend(lg.latencies_ms);
        merged.decisions.extend(lg.decisions);
        merged.unmatched += lg.unmatched;
        merged.rejected += lg.rejected;
    }
    let send_secs = started.elapsed().as_secs_f64();
    let frames_sent = (dies * steps_per_die) as u64;

    let mut sorted = merged.latencies_ms.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let digest = decision_digest(&mut merged.decisions, offset);
    let run = RunResult {
        connections,
        dies,
        frames: frames_sent,
        send_secs,
        throughput_fps: frames_sent as f64 / send_secs.max(1e-9),
        decisions: merged.decisions.len() as u64,
        rejected: merged.rejected,
        unmatched: merged.unmatched,
        latency_p50_ms: percentile(&sorted, 50.0),
        latency_p95_ms: percentile(&sorted, 95.0),
        latency_p99_ms: percentile(&sorted, 99.0),
        digest: format!("{digest:016x}"),
    };
    Ok((run, digest))
}

/// Steps per die for a run: the frame budget split across dies, at
/// least two decision intervals each, rounded to whole intervals.
fn steps_for(frames: u64, dies: usize) -> usize {
    let per = common::STEPS_PER_DECISION as usize;
    let raw = (frames as usize / dies.max(1)).max(2 * per);
    (raw / per) * per
}

/// The `--connections` list: one run per entry, each a positive count.
struct Connections(Vec<usize>);

impl std::str::FromStr for Connections {
    type Err = String;

    fn from_str(list: &str) -> std::result::Result<Connections, String> {
        list.split(',')
            .map(|s| {
                s.trim()
                    .parse::<usize>()
                    .ok()
                    .filter(|c| *c > 0)
                    .ok_or_else(|| format!("entry `{s}` is not a positive integer"))
            })
            .collect::<std::result::Result<_, _>>()
            .map(Connections)
    }
}

fn spec() -> Spec {
    Spec::new(
        "boreas_loadgen",
        "replays workload traces against boreas_serve and reports decision latency",
    )
    .value_flag::<String>(
        "addr",
        "host:port",
        Some("127.0.0.1:7070"),
        "daemon ingress socket",
    )
    .value_flag::<Connections>(
        "connections",
        "list",
        None,
        "comma-separated connection counts, one run each (default: 1,64,256; smoke: 1,4)",
    )
    .value_flag::<usize>(
        "shards",
        "n",
        None,
        "minimum distinct die ids per run (default: 4; smoke: 2)",
    )
    .value_flag::<u64>(
        "frames",
        "n",
        None,
        "frame budget per run (default: 4800; smoke: 1152)",
    )
    .value_flag::<f64>(
        "rate",
        "fps",
        Some("0"),
        "aggregate send rate; 0 = unthrottled",
    )
    .value_flag::<String>(
        "out",
        "path",
        Some("BENCH_serving.json"),
        "result JSON path",
    )
    .value_flag::<String>(
        "check",
        "baseline",
        None,
        "fail if any run misses the committed floors",
    )
    .switch("smoke", "CI-sized run")
}

fn main() {
    common::cli::run_main(run);
}

fn run() -> Result<()> {
    let args = spec().parse_env();
    let addr = args.value::<String>("addr");
    let smoke = args.has("smoke");
    let shards = args
        .parsed::<usize>("shards")
        .unwrap_or(if smoke { 2 } else { 4 })
        .max(1);
    let frames = args
        .parsed::<u64>("frames")
        .unwrap_or(if smoke { 1152 } else { 4800 });
    let rate = args.value::<f64>("rate");
    let out_path = args.value::<String>("out");
    let check_path = args.parsed::<String>("check");
    let connections = args.parsed::<Connections>("connections").map_or_else(
        || if smoke { vec![1, 4] } else { vec![1, 64, 256] },
        |c| c.0,
    );

    // Per-die traces, generated once per distinct workload at the
    // longest step count any run needs, fixed at the baseline operating
    // point. Decisions do not feed back into the source — the daemon is
    // the system under test, the traces are replayed load.
    let max_dies = connections
        .iter()
        .map(|&c| shards.max(c))
        .max()
        .unwrap_or(shards);
    let max_steps = connections
        .iter()
        .map(|&c| steps_for(frames, shards.max(c)))
        .max()
        .unwrap_or(0);
    let pipeline = hotgauge::PipelineConfig::paper().build()?;
    let vf = VfTable::paper();
    let point = vf.point(VfTable::BASELINE_INDEX);
    let workload_pool = WorkloadSpec::test_set();
    let distinct = workload_pool.len().min(max_dies);
    let mut traces: Vec<Vec<hotgauge::StepRecord>> = Vec::with_capacity(distinct);
    for spec in workload_pool.iter().take(distinct) {
        let outcome = pipeline.run_fixed(spec, point.frequency, point.voltage, max_steps)?;
        traces.push(outcome.records);
    }
    let traces = std::sync::Arc::new(traces);
    // Die `d` (run-local) replays workload `d % distinct`.
    let trace_of: Vec<usize> = (0..max_dies).map(|d| d % distinct).collect();
    println!(
        "loadgen: {} distinct traces x {} steps; runs at {:?} connections against {}",
        distinct, max_steps, connections, addr
    );

    let mut runs = Vec::with_capacity(connections.len());
    // One combined digest line for CI to diff between daemon
    // configurations.
    let mut combined = FNV1A64_OFFSET;
    for (i, &c) in connections.iter().enumerate() {
        // Fresh die ids per run so the daemon builds fresh control
        // loops — every run starts from the same controller state.
        let offset = (i as u32) * 1_000_000;
        let (r, digest) = run_load(&addr, c, shards, frames, rate, &traces, &trace_of, offset)?;
        println!(
            "loadgen: c={} — {} frames in {:.2}s ({:.0} fps), {} decisions ({} unmatched), {} rejected",
            r.connections, r.frames, r.send_secs, r.throughput_fps, r.decisions, r.unmatched, r.rejected
        );
        println!(
            "loadgen: c={} — latency p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms, digest {}",
            r.connections, r.latency_p50_ms, r.latency_p95_ms, r.latency_p99_ms, r.digest
        );
        combined = fnv1a64(combined, &digest.to_be_bytes());
        runs.push(r);
    }
    println!("loadgen digest: {combined:016x}");

    let doc = ServingDoc {
        schema: "boreas-bench-serving-v2".to_string(),
        smoke,
        rate_fps: rate,
        machine: Machine {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        },
        runs,
    };
    std::fs::write(&out_path, json::to_string_pretty(&doc)?)
        .map_err(|e| Error::io("write bench output", e.to_string()))?;
    println!("wrote {out_path}");

    if doc.runs.iter().any(|r| r.decisions == 0) {
        return Err(Error::server(
            ServerKind::Check,
            "loadgen",
            "a run received no decisions — is the daemon up?".to_string(),
        ));
    }

    if let Some(baseline_path) = check_path {
        let baseline = std::fs::read_to_string(&baseline_path)
            .map_err(|e| Error::io("read serving baseline", e.to_string()))?;
        let Limits {
            min_throughput_fps: min_fps,
            max_p99_ms: max_p99,
        } = json::from_str::<ServingBaseline>(&baseline)?.limits;
        let mut bad = Vec::new();
        for r in &doc.runs {
            if r.throughput_fps < min_fps {
                bad.push(format!(
                    "c={}: throughput {:.0} fps is below the {min_fps:.0} fps floor",
                    r.connections, r.throughput_fps
                ));
            }
            if r.latency_p99_ms > max_p99 {
                bad.push(format!(
                    "c={}: p99 latency {:.1} ms exceeds the {max_p99:.1} ms ceiling",
                    r.connections, r.latency_p99_ms
                ));
            }
        }
        if !bad.is_empty() {
            for b in &bad {
                eprintln!("serving regression: {b}");
            }
            return Err(Error::server(
                ServerKind::Check,
                "loadgen --check",
                bad.join("; "),
            ));
        }
        println!("check vs {baseline_path}: ok");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_serving_baseline_parses() {
        let text = include_str!("../../../bench/baselines/BENCH_serving_baseline.json");
        let limits = json::from_str::<ServingBaseline>(text).unwrap().limits;
        assert_eq!(
            (limits.min_throughput_fps, limits.max_p99_ms),
            (2000.0, 500.0)
        );
    }

    /// The committed results are exactly what the writer makes of what
    /// the reader reads from them.
    #[test]
    fn committed_serving_results_round_trip_byte_for_byte() {
        let text = include_str!("../../../../BENCH_serving.json");
        let doc: ServingDoc = json::from_str(text).unwrap();
        assert_eq!(doc.runs.len(), 3);
        assert_eq!(json::to_string_pretty(&doc).unwrap(), text);
    }
}
