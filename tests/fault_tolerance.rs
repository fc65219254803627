//! Fault-tolerance integration tests: dropout handling, reconnects, and the
//! per-class `DistributedError` taxonomy, on both the in-process bus and the
//! TCP backend.

use fedscope::core::config::{DropoutPolicy, FlConfig};
use fedscope::core::course::CourseBuilder;
use fedscope::core::distributed::{
    distributed_report, run_distributed_tcp_with, run_distributed_with, BusRunOptions,
    DistributedError, TcpRunOptions,
};
use fedscope::core::{Event, StandaloneRunner};
use fedscope::data::synth::{twitter_like, TwitterConfig};
use fedscope::monitor::{counters, MonitorHandle, RecordingMonitor};
use fedscope::net::tcp::{ReconnectPolicy, TcpError, TcpPeer};
use fedscope::net::{FaultPlan, FaultSpec, Message, MessageKind, Payload, SERVER_ID};
use fedscope::tensor::model::logistic_regression;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A small course with `n` clients, all sampled every round.
fn course(n: usize, seed: u64) -> StandaloneRunner {
    let data = twitter_like(&TwitterConfig {
        num_clients: n,
        per_client: 12,
        ..Default::default()
    });
    let dim = data.input_dim();
    let cfg = FlConfig {
        total_rounds: 3,
        concurrency: n,
        seed,
        ..Default::default()
    };
    CourseBuilder::new(
        data,
        Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng))),
        cfg,
    )
    .build()
}

const BUDGET: Duration = Duration::from_secs(60);

#[test]
fn a_tcp_course_hands_its_monitor_back() {
    // the hub joins every reader thread before the course returns, so no
    // reader still holds a clone of the handle (nor adds a `wire.*` count
    // after the course flushed its counters)
    for seed in 0..20 {
        let runner = course(3, 60 + seed);
        let clients: Vec<_> = runner.clients.into_values().collect();
        let monitor = Arc::new(Mutex::new(RecordingMonitor::new()));
        let opts = TcpRunOptions {
            monitor: MonitorHandle::from_shared(monitor.clone()),
            ..Default::default()
        };
        let server = run_distributed_tcp_with(runner.server, clients, BUDGET, opts)
            .expect("a fault-free TCP course");
        assert_eq!(server.state.round, 3);
        drop(server);
        let monitor = Arc::try_unwrap(monitor)
            .unwrap_or_else(|_| panic!("course {seed}: a thread kept the monitor handle"));
        let recorded = monitor.into_inner().expect("monitor");
        assert!(
            recorded.counter(counters::WIRE_BYTES_IN) > 0,
            "course {seed}"
        );
    }
}

// ---------------------------------------------------------------------------
// dropout handling
// ---------------------------------------------------------------------------

#[test]
fn bus_course_survives_midcourse_dropouts() {
    let runner = course(6, 21);
    let clients: Vec<_> = runner.clients.into_values().collect();
    // clients 2 and 5 deliver their join + round-1 update, then their third
    // frame (the round-2 update) kills the link mid-course
    let faults = FaultPlan::new(21)
        .with(2, FaultSpec::dies_after(2))
        .with(5, FaultSpec::dies_after(2));
    let opts = BusRunOptions {
        faults: Some(faults),
        ..Default::default()
    };
    let server = run_distributed_with(runner.server, clients, BUDGET, opts)
        .expect("survivor policy must carry the course to the end");
    assert_eq!(server.state.round, 3, "course must finish all rounds");
    // both casualties are recorded; their order races across worker threads
    let mut recorded = server.state.dropouts.clone();
    recorded.sort_unstable();
    assert_eq!(recorded, vec![2, 5], "dropouts must be recorded");
    // accuracy is computed over survivors only: the dead clients never report
    assert_eq!(server.state.client_reports.len(), 4);
    assert!(!server.state.client_reports.contains_key(&2));
    assert!(!server.state.client_reports.contains_key(&5));
    let report = distributed_report(&server);
    let mut reported = report.dropouts.clone();
    reported.sort_unstable();
    assert_eq!(reported, vec![2, 5]);
    assert_eq!(report.rounds, 3);
}

#[test]
fn tcp_course_survives_midcourse_dropouts() {
    let runner = course(5, 22);
    let clients: Vec<_> = runner.clients.into_values().collect();
    let opts = TcpRunOptions {
        faults: Some(FaultPlan::new(22).with(3, FaultSpec::dies_after(2))),
        ..Default::default()
    };
    let server = run_distributed_tcp_with(runner.server, clients, BUDGET, opts)
        .expect("survivor policy must carry the course to the end");
    assert_eq!(server.state.round, 3);
    assert_eq!(server.state.dropouts, vec![3]);
    assert_eq!(server.state.client_reports.len(), 4);
    assert!(!server.state.client_reports.contains_key(&3));
}

#[test]
fn dropout_policy_fail_aborts_the_course() {
    let mut runner = course(4, 23);
    runner.server.state.cfg.dropout = DropoutPolicy::Fail;
    let clients: Vec<_> = runner.clients.into_values().collect();
    let opts = BusRunOptions {
        faults: Some(FaultPlan::new(23).with(1, FaultSpec::dies_after(2))),
        ..Default::default()
    };
    let Err(err) = run_distributed_with(runner.server, clients, BUDGET, opts) else {
        panic!("Fail policy must abort on the first dropout")
    };
    assert!(
        matches!(err, DistributedError::PeerDisconnected(1)),
        "wrong error: {err}"
    );
}

#[test]
fn tcp_flaky_client_rejoins_and_reconnects_are_counted() {
    // the rejoin must not depend on how long a round takes: the course runs
    // hundreds of rounds and the backoff is 1 ms, so the flapping client
    // redials hundreds of backoffs before the course can end — on loopback a
    // 3-round course is over before a 10 ms backoff elapses even once
    let mut runner = course(4, 24);
    runner.server.state.cfg.total_rounds = 300;
    let clients: Vec<_> = runner.clients.into_values().collect();
    let opts = TcpRunOptions {
        faults: Some(FaultPlan::new(24).with(2, FaultSpec::dies_after(2))),
        reconnect: Some(ReconnectPolicy {
            base_delay: Duration::from_millis(1),
            ..Default::default()
        }),
        ..Default::default()
    };
    let server = run_distributed_tcp_with(runner.server, clients, BUDGET, opts)
        .expect("rejoining client must not sink the course");
    assert_eq!(server.state.round, 300);
    assert!(
        server.state.reconnects >= 1,
        "the flaky client must have rejoined at least once"
    );
    assert!(
        server.state.dropouts.contains(&2),
        "each outage is recorded as a dropout"
    );
    // the three healthy clients always report; the flaky one may or may not
    // get its final report through, depending on where its link dies
    assert!(server.state.client_reports.len() >= 3);
    let report = distributed_report(&server);
    assert_eq!(report.reconnects, server.state.reconnects);
}

// ---------------------------------------------------------------------------
// error taxonomy: each failure class surfaces as its own variant
// ---------------------------------------------------------------------------

#[test]
fn occupied_address_surfaces_as_bind_error() {
    let blocker = std::net::TcpListener::bind("127.0.0.1:0").expect("bind blocker");
    let addr = blocker.local_addr().expect("blocker addr");
    let runner = course(2, 25);
    let clients: Vec<_> = runner.clients.into_values().collect();
    let opts = TcpRunOptions {
        addr: Some(addr),
        ..Default::default()
    };
    let Err(err) = run_distributed_tcp_with(runner.server, clients, BUDGET, opts) else {
        panic!("binding an occupied port must fail")
    };
    assert!(
        matches!(err, DistributedError::Bind(_)),
        "wrong error: {err}"
    );
}

#[test]
fn refused_dial_surfaces_as_io_error_not_codec() {
    // reserve a port and free it: nothing listens there
    let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
    let addr = probe.local_addr().expect("probe addr");
    drop(probe);
    let Err(refused) = TcpPeer::connect(addr) else {
        panic!("nothing listens on {addr}")
    };
    let err = DistributedError::from(refused);
    assert!(matches!(err, DistributedError::Io(_)), "wrong error: {err}");
    assert!(!err.to_string().contains("codec"), "misfiled: {err}");
    // bytes the transport rejects stay codec failures
    let err = DistributedError::from(TcpError::FrameTooLarge(u32::MAX));
    assert!(
        matches!(err, DistributedError::Codec(_)),
        "wrong error: {err}"
    );
}

#[test]
fn client_panic_surfaces_with_id_and_detail() {
    let runner = course(3, 26);
    let mut clients: Vec<_> = runner.clients.into_values().collect();
    let victim = clients
        .iter_mut()
        .find(|c| c.state.id == 2)
        .expect("client 2 exists");
    victim.registry_mut().register(
        Event::Message(MessageKind::ModelParams),
        "poison",
        vec![],
        Box::new(|_, _, _| panic!("injected handler fault")),
    );
    let Err(err) = run_distributed_with(runner.server, clients, BUDGET, BusRunOptions::default())
    else {
        panic!("a panicking handler must abort the course")
    };
    match err {
        DistributedError::ClientPanic { id, detail } => {
            assert_eq!(id, 2);
            assert!(
                detail.contains("injected handler fault"),
                "panic payload must be preserved, got: {detail}"
            );
        }
        other => panic!("expected ClientPanic, got: {other}"),
    }
}

#[test]
fn silent_client_surfaces_as_true_timeout() {
    let runner = course(3, 27);
    let clients: Vec<_> = runner.clients.into_values().collect();
    // client 1's link stays up but loses every frame: its join never arrives,
    // the course never starts, and the only truthful outcome is Timeout
    let opts = BusRunOptions {
        faults: Some(FaultPlan::new(27).with(1, FaultSpec::lossy(1.0))),
        ..Default::default()
    };
    let Err(err) = run_distributed_with(runner.server, clients, Duration::from_secs(2), opts)
    else {
        panic!("a stalled course must time out")
    };
    assert!(
        matches!(err, DistributedError::Timeout),
        "wrong error: {err}"
    );
}

#[test]
fn rogue_peer_garbage_surfaces_as_codec_error() {
    // reserve a port, free it, and tell the hub to bind it so a rogue socket
    // can find the server
    let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
    let addr = probe.local_addr().expect("probe addr");
    drop(probe);
    let rogue = std::thread::spawn(move || {
        use std::io::Write;
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match std::net::TcpStream::connect(addr) {
                Ok(mut s) => {
                    let mut frame = 16u32.to_le_bytes().to_vec();
                    frame.extend_from_slice(&[0xFF; 16]);
                    // the hub reads the frame before the EOF behind it
                    let _ = s.write_all(&frame);
                    return;
                }
                Err(_) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("rogue peer never connected: {e}"),
            }
        }
    });
    let runner = course(3, 28);
    let mut clients: Vec<_> = runner.clients.into_values().collect();
    // client 1 never answers a broadcast, so no round can complete: the
    // course cannot end before the rogue gets through, however late it dials
    clients[0].registry_mut().register(
        Event::Message(MessageKind::ModelParams),
        "mute",
        vec![],
        Box::new(|_, _, _| {}),
    );
    let opts = TcpRunOptions {
        addr: Some(addr),
        ..Default::default()
    };
    let Err(err) = run_distributed_tcp_with(runner.server, clients, Duration::from_secs(30), opts)
    else {
        panic!("undecodable bytes must abort the course")
    };
    assert!(
        matches!(err, DistributedError::Codec(_)),
        "wrong error: {err}"
    );
    rogue.join().expect("rogue thread");
}

// ---------------------------------------------------------------------------
// bus snapshot-bug regression: client-to-client messages
// ---------------------------------------------------------------------------

#[test]
fn bus_clients_can_message_each_other() {
    // Regression for the bus-clone snapshot bug: mailboxes registered after a
    // thread cloned the bus were invisible to that clone, so a client-to-
    // client send could vanish. The chain below only completes when client 1
    // can reach client 2's mailbox:
    //   server Finish -> client 1 relays Custom(8) to client 2
    //   client 2 finishes only once it has BOTH its own Finish and the relay
    //   (either may arrive first) -> reports to server
    // Over TCP the same chain needs the hub to forward the peer-addressed
    // frame to client 2 (the flat TCP driver used to hand it to the server's
    // handlers instead), so both transports run the one body.
    for tcp in [false, true] {
        peer_message_chain_completes(tcp);
    }
}

fn peer_message_chain_completes(tcp: bool) {
    use std::sync::atomic::{AtomicU8, Ordering};
    use std::sync::Arc;
    let runner = course(2, 29);
    let mut clients: Vec<_> = runner.clients.into_values().collect();
    for client in clients.iter_mut() {
        match client.state.id {
            1 => client.registry_mut().register(
                Event::Message(MessageKind::Finish),
                "relay_then_finish",
                vec![
                    Event::Message(MessageKind::Custom(8)),
                    Event::Message(MessageKind::MetricsReport),
                ],
                Box::new(|state, msg, ctx| {
                    ctx.send(Message::new(
                        state.id,
                        2,
                        MessageKind::Custom(8),
                        msg.round,
                        Payload::Empty,
                    ));
                    let metrics = state.trainer.evaluate_test();
                    ctx.send(Message::new(
                        state.id,
                        SERVER_ID,
                        MessageKind::MetricsReport,
                        msg.round,
                        Payload::Report { metrics },
                    ));
                    state.done = true;
                }),
            ),
            2 => {
                let seen = Arc::new(AtomicU8::new(0));
                let finish_when_both =
                    move |state: &mut fedscope::core::ClientState,
                          msg: &Message,
                          ctx: &mut fedscope::core::Ctx| {
                        if seen.fetch_add(1, Ordering::SeqCst) + 1 < 2 {
                            return;
                        }
                        let metrics = state.trainer.evaluate_test();
                        ctx.send(Message::new(
                            state.id,
                            SERVER_ID,
                            MessageKind::MetricsReport,
                            msg.round,
                            Payload::Report { metrics },
                        ));
                        state.done = true;
                    };
                client.registry_mut().register(
                    Event::Message(MessageKind::Finish),
                    "await_relay",
                    vec![Event::Message(MessageKind::MetricsReport)],
                    Box::new(finish_when_both.clone()),
                );
                client.registry_mut().register(
                    Event::Message(MessageKind::Custom(8)),
                    "finish_on_relay",
                    vec![Event::Message(MessageKind::MetricsReport)],
                    Box::new(finish_when_both),
                );
            }
            other => panic!("unexpected client id {other}"),
        }
    }
    let server = if tcp {
        run_distributed_tcp_with(runner.server, clients, BUDGET, TcpRunOptions::default())
    } else {
        run_distributed_with(runner.server, clients, BUDGET, BusRunOptions::default())
    }
    .expect("relayed finish must complete");
    assert_eq!(server.state.round, 3);
    assert!(
        server.state.client_reports.contains_key(&2),
        "client 2 reports only after the client-to-client relay arrives"
    );
    assert!(server.state.dropouts.is_empty());
}
