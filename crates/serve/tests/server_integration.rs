//! In-process integration tests for the serving daemon: a real
//! [`Server`] on an ephemeral port, driven over a real socket with the
//! public wire protocol, checked against an offline
//! [`OnlineController`] replay of the same frames. Serving is
//! Linux-only, so are these tests.
#![cfg(target_os = "linux")]

use boreas_core::{OnlineController, TelemetryFrame, ThermalController, VfTable};
use boreas_serve::protocol::{self, Incoming, Response};
use boreas_serve::{ServeConfig, ServeConfigBuilder, Server};
use common::units::{GigaHertz, Volts};
use engine::ControllerSpec;
use hotgauge::StepRecord;
use std::net::TcpStream;
use std::time::{Duration, Instant};
use workloads::WorkloadSpec;

/// Generates `steps` fixed-frequency records for one workload — the
/// same trace shape `boreas_loadgen` replays.
fn trace(workload: &str, steps: usize) -> Vec<StepRecord> {
    let mut cfg = hotgauge::PipelineConfig::paper();
    cfg.grid = floorplan::GridSpec::new(8, 6).unwrap();
    let p = cfg.build().unwrap();
    let spec = WorkloadSpec::by_name(workload).unwrap();
    p.run_fixed(&spec, GigaHertz::new(3.75), Volts::new(0.925), steps)
        .unwrap()
        .records
}

fn thresholds() -> Vec<Option<f64>> {
    vec![Some(70.0); VfTable::paper().len()]
}

fn base_config() -> ServeConfigBuilder {
    ServeConfig::builder()
        .controller(ControllerSpec::thermal(thresholds(), 0.0))
        .vf(VfTable::paper())
}

/// Reads responses until `want` arrive or the deadline passes.
fn read_responses(stream: &mut TcpStream, want: usize) -> Vec<Response> {
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut out = Vec::new();
    while out.len() < want && Instant::now() < deadline {
        match protocol::read_frame(stream) {
            Ok(Incoming::Frame(body)) => out.push(protocol::decode_response(&body).unwrap()),
            Ok(Incoming::Idle) => continue,
            Ok(Incoming::Closed) => break,
            Err(e) => panic!("read error: {e}"),
        }
    }
    out
}

#[test]
fn served_decisions_match_offline_replay() {
    let dies = ["gromacs", "bzip2", "gcc", "mcf"];
    let steps = 48;
    let traces: Vec<Vec<StepRecord>> = dies.iter().map(|w| trace(w, steps)).collect();
    for connections in [1, 4] {
        served_decisions_match_offline_replay_over(&traces, connections);
    }
}

/// Streams die `d`'s trace over socket `d % connections` and checks
/// every die's served decisions against an offline replay, so the
/// decisions cannot depend on the connection fan-in.
fn served_decisions_match_offline_replay_over(traces: &[Vec<StepRecord>], connections: usize) {
    let vf = VfTable::paper();
    let registry = obs::Registry::new();
    let config = base_config()
        .io_threads(2)
        .registry(registry.clone())
        .build()
        .unwrap();
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let steps = traces[0].len();

    let clients: Vec<_> = (0..connections)
        .map(|c| {
            let owned: Vec<(u32, Vec<StepRecord>)> = traces
                .iter()
                .enumerate()
                .filter(|(d, _)| d % connections == c)
                .map(|(d, t)| (d as u32, t.clone()))
                .collect();
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.set_nodelay(true).unwrap();
                for t in 0..steps {
                    for (die, tr) in &owned {
                        let frame = TelemetryFrame::new(*die, t as u64, tr[t].clone());
                        let body = protocol::encode_frame(&frame).unwrap();
                        protocol::write_frame(&mut stream, &body).unwrap();
                    }
                }
                read_responses(&mut stream, owned.len() * (steps / 12))
            })
        })
        .collect();
    let responses: Vec<Response> = clients
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    let expected = traces.len() * (steps / 12);
    assert_eq!(
        responses.len(),
        expected,
        "{connections} connection(s): no frame may be dropped"
    );

    // Offline replay of the identical frames, per die.
    for (die, tr) in traces.iter().enumerate() {
        let ctrl = ThermalController::from_thresholds(thresholds(), 0.0);
        let mut online = OnlineController::new(ctrl, vf.clone()).unwrap();
        let mut expected_decisions = Vec::new();
        for (t, r) in tr.iter().enumerate() {
            if let Some(d) = online.observe(&TelemetryFrame::new(die as u32, t as u64, r.clone())) {
                expected_decisions.push((t as u64, d));
            }
        }
        let served: Vec<_> = responses
            .iter()
            .filter_map(|r| match r {
                Response::Decision {
                    shard,
                    seq,
                    decision,
                } if *shard == die as u32 => Some((*seq, decision.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(
            served, expected_decisions,
            "{connections} connection(s): die {die}: served decisions must equal the offline replay"
        );
    }

    server.request_shutdown();
    server.join().unwrap();

    let snap = registry.snapshot();
    let count = |name: &str| match snap.family(name).map(|f| &f.value) {
        Some(obs::MetricValue::Counter(v)) => *v,
        other => panic!("{name}: expected a counter, got {other:?}"),
    };
    assert_eq!(
        count("boreas_serve_frames_total"),
        (traces.len() * steps) as u64
    );
    assert_eq!(count("boreas_serve_decisions_total"), expected as u64);
    assert_eq!(count("boreas_serve_rejected_total"), 0);
    assert_eq!(count("boreas_serve_connections_total"), connections as u64);
}

#[test]
fn malformed_frame_rejects_without_dropping_the_connection() {
    let config = base_config().build().unwrap();
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();

    // A version-2 frame one byte short: rejected, connection stays up.
    let tr = trace("gcc", 12);
    let body = protocol::encode_frame(&TelemetryFrame::new(0, 0, tr[0].clone())).unwrap();
    protocol::write_frame(&mut stream, &body[..body.len() - 1]).unwrap();
    let rejected = read_responses(&mut stream, 1);
    match &rejected[0] {
        Response::Rejected { shard, seq, reason } => {
            assert_eq!((*shard, *seq), (0, 0));
            assert!(!reason.is_empty());
        }
        other => panic!("expected Rejected, got {other:?}"),
    }

    // A full interval of valid frames still decides afterwards.
    for (t, r) in tr.iter().enumerate() {
        let frame = TelemetryFrame::new(0, t as u64, r.clone());
        protocol::write_frame(&mut stream, &protocol::encode_frame(&frame).unwrap()).unwrap();
    }
    let responses = read_responses(&mut stream, 1);
    assert!(
        matches!(
            responses[0],
            Response::Decision {
                shard: 0,
                seq: 11,
                ..
            }
        ),
        "decision still served after a rejected frame: {:?}",
        responses[0]
    );

    drop(stream);
    server.request_shutdown();
    server.join().unwrap();
}

/// A sender still speaking the version-1 JSON frames gets one
/// rejection per frame that names the version, and the connection
/// stays open for the version-2 frames that follow.
#[test]
fn a_v1_json_frame_is_rejected_and_the_next_v2_frame_is_served() {
    let registry = obs::Registry::new();
    let config = base_config().registry(registry.clone()).build().unwrap();
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();

    let v1 = br#"{"shard":0,"seq":0,"record":{"time":80,"counters":{"values":[0.5]},"sensor_temps":[60.0],"max_temp":61.0,"max_severity":0.1,"max_severity_raw":0.1,"hotspot_xy":[1.0,2.0],"total_power":50.0,"frequency":3.75,"voltage":0.925}}"#;
    protocol::write_frame(&mut stream, v1).unwrap();
    match &read_responses(&mut stream, 1)[..] {
        [Response::Rejected { shard, seq, reason }] => {
            assert_eq!((*shard, *seq), (0, 0));
            assert!(reason.contains("unknown frame version 123"), "{reason}");
        }
        other => panic!("expected one rejection, got {other:?}"),
    }

    let frame = TelemetryFrame::new(0, 0, trace("gcc", 1).remove(0));
    protocol::write_frame(&mut stream, &protocol::encode_frame(&frame).unwrap()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while counter(&registry, "boreas_serve_frames_total") == 0 {
        assert!(Instant::now() < deadline, "the v2 frame was never served");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(counter(&registry, "boreas_serve_rejected_total"), 1);

    drop(stream);
    server.request_shutdown();
    server.join().unwrap();
}

/// The counter `name` in `registry` (0 before it is first touched).
fn counter(registry: &obs::Registry, name: &str) -> u64 {
    match registry.snapshot().family(name).map(|f| &f.value) {
        Some(obs::MetricValue::Counter(v)) => *v,
        _ => 0,
    }
}

#[test]
fn accounting_balances_when_responses_are_read_after_eof() {
    let registry = obs::Registry::new();
    let config = base_config().registry(registry.clone()).build().unwrap();
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();

    // Send ten intervals and half-close before reading any response;
    // every frame is either observed or rejected. Their responses stay
    // far below the write cap (the pause test covers that).
    let tr = trace("gromacs", 12);
    let sent = 120usize;
    for t in 0..sent {
        let frame = TelemetryFrame::new(0, t as u64, tr[t % 12].clone());
        protocol::write_frame(&mut stream, &protocol::encode_frame(&frame).unwrap()).unwrap();
    }
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let responses = read_responses(&mut stream, usize::MAX);
    drop(stream);
    server.request_shutdown();
    server.join().unwrap();

    let count = |name: &str| counter(&registry, name);
    let observed = count("boreas_serve_frames_total");
    let rejected = count("boreas_serve_rejected_total");
    assert_eq!(
        observed + rejected,
        sent as u64,
        "every frame is accounted exactly once"
    );
    let rejections_seen = responses
        .iter()
        .filter(|r| matches!(r, Response::Rejected { .. }))
        .count();
    assert_eq!(
        rejections_seen as u64, rejected,
        "every rejection is answered"
    );
    assert_eq!(
        count("boreas_serve_decisions_total"),
        observed / 12,
        "one decision per fully observed interval"
    );
}

#[test]
fn a_peer_that_does_not_read_pauses_its_connection_until_it_does() {
    let registry = obs::Registry::new();
    let config = base_config().registry(registry.clone()).build().unwrap();
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();

    // Ten intervals of die 0, each frame followed by a burst of
    // malformed ones. Every malformed frame is answered with a
    // rejection several times its size, so the responses outgrow the
    // socket buffers and the server's write cap long before the last
    // frame is sent.
    let tr = trace("gromacs", 12);
    let (intervals, junk_per_frame) = (10usize, 1000usize);
    let sent = intervals * 12 * (1 + junk_per_frame);
    let mut wire = Vec::new();
    for t in 0..intervals * 12 {
        let frame = TelemetryFrame::new(0, t as u64, tr[t % 12].clone());
        protocol::write_frame(&mut wire, &protocol::encode_frame(&frame).unwrap()).unwrap();
        for _ in 0..junk_per_frame {
            protocol::write_frame(&mut wire, b"{\"shard\":1}").unwrap();
        }
    }
    let mut writer = stream.try_clone().unwrap();
    let sender = std::thread::spawn(move || {
        std::io::Write::write_all(&mut writer, &wire).unwrap();
        writer.shutdown(std::net::Shutdown::Write).unwrap();
    });

    // The sender may block in its socket once the server stops reading.
    let deadline = Instant::now() + Duration::from_secs(10);
    while counter(&registry, "boreas_serve_read_paused_total") == 0 {
        assert!(Instant::now() < deadline, "the connection never paused");
        std::thread::sleep(Duration::from_millis(5));
    }

    let responses = read_responses(&mut stream, usize::MAX);
    sender.join().unwrap();
    drop(stream);
    server.request_shutdown();
    server.join().unwrap();

    let decisions: Vec<u64> = responses
        .iter()
        .filter_map(|r| match r {
            Response::Decision { shard: 0, seq, .. } => Some(*seq),
            _ => None,
        })
        .collect();
    let every_interval: Vec<u64> = (0..intervals as u64).map(|i| 12 * i + 11).collect();
    assert_eq!(
        decisions, every_interval,
        "every decision arrives, in order"
    );
    let count = |name: &str| counter(&registry, name);
    assert_eq!(
        count("boreas_serve_frames_total") + count("boreas_serve_rejected_total"),
        sent as u64,
        "every frame is accounted exactly once"
    );
    assert_eq!(responses.len(), decisions.len() + sent - intervals * 12);
}

/// A die's loop lives in the server, not in a connection: frames 0..18
/// on one socket and 18..48 on a second, served by the other reactor,
/// decide exactly as one uninterrupted stream would.
#[test]
fn a_die_that_reconnects_carries_on_its_loop() {
    let config = base_config().io_threads(2).build().unwrap();
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let tr = trace("gcc", 48);

    let mut served = Vec::new();
    // Connections go to the reactors round-robin, so the second socket
    // lands on the other reactor.
    for range in [0..18, 18..48] {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        for t in range {
            let frame = TelemetryFrame::new(0, t as u64, tr[t].clone());
            protocol::write_frame(&mut stream, &protocol::encode_frame(&frame).unwrap()).unwrap();
        }
        // Reading to EOF means the server has served every frame sent.
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        served.extend(read_responses(&mut stream, usize::MAX));
    }
    server.request_shutdown();
    server.join().unwrap();

    let mut online = OnlineController::new(
        ThermalController::from_thresholds(thresholds(), 0.0),
        VfTable::paper(),
    )
    .unwrap();
    let expected: Vec<Response> = tr
        .iter()
        .enumerate()
        .filter_map(|(t, r)| {
            let decision = online.observe(&TelemetryFrame::new(0, t as u64, r.clone()))?;
            Some(Response::Decision {
                shard: 0,
                seq: t as u64,
                decision,
            })
        })
        .collect();
    assert_eq!(served, expected);
}

#[test]
fn idle_connections_are_reaped() {
    let registry = obs::Registry::new();
    let config = base_config()
        .idle_timeout(Duration::from_millis(200))
        .registry(registry.clone())
        .build()
        .unwrap();
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();

    // Send nothing; the server must hang up on us.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut closed = false;
    while Instant::now() < deadline {
        match protocol::read_frame(&mut stream) {
            Ok(Incoming::Closed) => {
                closed = true;
                break;
            }
            Ok(Incoming::Idle) => continue,
            other => panic!("unexpected read result: {other:?}"),
        }
    }
    assert!(closed, "idle connection must be reaped");

    server.request_shutdown();
    server.join().unwrap();
    let snap = registry.snapshot();
    match snap
        .family("boreas_serve_idle_reaped_total")
        .map(|f| &f.value)
    {
        Some(obs::MetricValue::Counter(v)) => {
            assert_eq!(*v, 1, "reap is counted")
        }
        other => panic!("expected a counter, got {other:?}"),
    }
}

#[test]
fn connections_beyond_the_cap_are_closed_at_accept() {
    let registry = obs::Registry::new();
    let config = base_config()
        .max_connections(1)
        .registry(registry.clone())
        .build()
        .unwrap();
    let server = Server::bind("127.0.0.1:0", config).unwrap();

    // First connection occupies the single slot — prove it is live
    // by round-tripping a rejection.
    let mut first = TcpStream::connect(server.local_addr()).unwrap();
    protocol::write_frame(&mut first, b"{\"shard\":1}").unwrap();
    assert_eq!(read_responses(&mut first, 1).len(), 1);

    // Second connection must see EOF without any response.
    let mut second = TcpStream::connect(server.local_addr()).unwrap();
    second
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut closed = false;
    while Instant::now() < deadline {
        match protocol::read_frame(&mut second) {
            Ok(Incoming::Closed) => {
                closed = true;
                break;
            }
            Ok(Incoming::Idle) => continue,
            other => panic!("unexpected read result: {other:?}"),
        }
    }
    assert!(closed, "over-cap connection must be closed");

    // The first connection still works after the rejection.
    protocol::write_frame(&mut first, b"{\"shard\":2}").unwrap();
    assert_eq!(read_responses(&mut first, 1).len(), 1);

    drop(first);
    drop(second);
    server.request_shutdown();
    server.join().unwrap();
    let snap = registry.snapshot();
    match snap
        .family("boreas_serve_connections_rejected_total")
        .map(|f| &f.value)
    {
        Some(obs::MetricValue::Counter(v)) => {
            assert_eq!(*v, 1, "cap rejection is counted")
        }
        other => panic!("expected a counter, got {other:?}"),
    }
}
