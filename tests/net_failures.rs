//! Failure injection for the cmi-net transport (Fig. 5 client/server split).
//!
//! Every test runs over the deterministic in-memory loopback transport and
//! attacks one robustness property of the wire subsystem:
//!
//! * torn / partial frames (bytes dribbling in across readiness events),
//! * disconnect in the middle of a frame,
//! * oversized-frame and corrupted-checksum rejection,
//! * crash during notification delivery followed by reconnect-and-resume
//!   (no lost, no duplicated notifications),
//! * the §5.4 acceptance scenario: a remote viewer sees exactly the
//!   notification sequence the in-process viewer sees, across a forced
//!   mid-scenario disconnect,
//! * sign-on through the network observably changes `SignedOn`
//!   role-assignment targeting.

use std::collections::BTreeSet;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cmi::awareness::assignment::RoleAssignment;
use cmi::awareness::builder::AwarenessSchemaBuilder;
use cmi::awareness::queue::Notification;
use cmi::awareness::system::CmiServer;
use cmi::core::ids::ProcessSchemaId;
use cmi::core::roles::RoleSpec;
use cmi::core::time::Clock;
use cmi::core::value::Value;
use cmi::events::operators::ExternalFilter;
use cmi::net::client::{ClientConfig, Connection};
use cmi::net::codec::{
    encode_frame, FrameKind, FrameReader, HEADER_LEN, MAGIC, MAX_FRAME_LEN, VERSION,
};
use cmi::net::server::{NetConfig, NetServer};
use cmi::net::wire::{Request, Response};
use cmi::workloads::taskforce;

/// A server whose `ping` external events notify the `watchers` org role.
/// `assignment` picks which watchers actually receive.
fn system_with_watchers(
    users: &[&str],
    assignment: RoleAssignment,
) -> (Arc<CmiServer>, Vec<cmi::core::ids::UserId>) {
    let cmi = Arc::new(CmiServer::new());
    let watchers = cmi.directory().add_role("watchers").unwrap();
    let ids = users
        .iter()
        .map(|name| {
            let u = cmi.directory().add_user(name);
            cmi.directory().assign(u, watchers).unwrap();
            u
        })
        .collect();
    let mut b = AwarenessSchemaBuilder::new(cmi.fresh_awareness_id(), "AS_Ping", ProcessSchemaId(0));
    let f = b
        .external_filter(ExternalFilter::new(ProcessSchemaId(0), "ping", None).int_info_from("m"))
        .unwrap();
    cmi.register_awareness(
        b.deliver_to(f, RoleSpec::org("watchers"))
            .assign(assignment)
            .describe("ping observed")
            .build()
            .unwrap(),
    );
    (cmi, ids)
}

fn ping(cmi: &CmiServer, marker: i64) -> usize {
    cmi.external_event("ping", vec![("m".to_owned(), Value::Int(marker))])
}

/// Raw request/response over a hand-driven stream (no Connection machinery).
fn raw_call(
    stream: &mut Box<dyn cmi::net::transport::NetStream>,
    frames: &mut FrameReader,
    req: &Request,
) -> Response {
    stream
        .write_all(&encode_frame(FrameKind::Request, &req.encode()))
        .unwrap();
    read_response(stream, frames)
}

fn read_response(
    stream: &mut Box<dyn cmi::net::transport::NetStream>,
    frames: &mut FrameReader,
) -> Response {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < deadline, "no response within 10s");
        match frames.poll(&mut **stream) {
            Ok(Some(f)) if f.kind == FrameKind::Response => {
                return Response::decode(&f.payload).unwrap()
            }
            Ok(_) => {}
            Err(e) => panic!("stream failed while awaiting response: {e}"),
        }
    }
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn torn_frames_are_reassembled_across_ticks() {
    let (cmi, _) = system_with_watchers(&["alice"], RoleAssignment::Identity);
    let (server, connector) = NetServer::serve_loopback(cmi, NetConfig::default());
    let mut stream = connector.dial().unwrap();
    stream
        .set_stream_read_timeout(Some(Duration::from_millis(25)))
        .unwrap();
    let mut frames = FrameReader::new();

    // Dribble a Hello request in 3-byte slices with pauses between them, so
    // reassembly must span many separate readiness events.
    let hello = Request::Hello {
        user: "alice".into(),
        resume: false,
    };
    let bytes = encode_frame(FrameKind::Request, &hello.encode());
    for chunk in bytes.chunks(3) {
        stream.write_all(chunk).unwrap();
        std::thread::sleep(Duration::from_millis(15));
    }
    let resp = read_response(&mut stream, &mut frames);
    assert!(matches!(resp, Response::HelloOk { .. }), "got {resp:?}");
    server.shutdown();
}

#[test]
fn disconnect_mid_frame_tears_down_the_session_cleanly() {
    let (cmi, users) = system_with_watchers(&["alice"], RoleAssignment::Identity);
    let (server, connector) = NetServer::serve_loopback(cmi.clone(), NetConfig::default());
    let mut stream = connector.dial().unwrap();
    stream
        .set_stream_read_timeout(Some(Duration::from_millis(25)))
        .unwrap();
    let mut frames = FrameReader::new();
    let resp = raw_call(
        &mut stream,
        &mut frames,
        &Request::Hello {
            user: "alice".into(),
            resume: false,
        },
    );
    assert!(matches!(resp, Response::HelloOk { .. }));
    assert!(cmi.directory().participant(users[0]).unwrap().signed_on);

    // Half a frame, then the wire goes away.
    let bytes = encode_frame(FrameKind::Request, &Request::Digest.encode());
    stream.write_all(&bytes[..HEADER_LEN - 2]).unwrap();
    stream.shutdown_stream();

    wait_until("session teardown", || server.stats().sessions_closed == 1);
    assert!(
        !cmi.directory().participant(users[0]).unwrap().signed_on,
        "mid-frame disconnect must sign the user off"
    );
    server.shutdown();
}

#[test]
fn oversized_frame_is_rejected_as_a_protocol_error() {
    let (cmi, _) = system_with_watchers(&["alice"], RoleAssignment::Identity);
    let (server, connector) = NetServer::serve_loopback(cmi, NetConfig::default());
    let mut stream = connector.dial().unwrap();

    // A header declaring a payload beyond MAX_FRAME_LEN. The server must
    // reject it from the header alone — the payload is never sent.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.push(VERSION);
    bytes.push(0); // Request
    bytes.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    stream.write_all(&bytes).unwrap();

    wait_until("protocol error", || server.stats().protocol_errors >= 1);
    wait_until("session closed", || server.stats().sessions_closed == 1);
    server.shutdown();
}

#[test]
fn corrupted_checksum_is_rejected_as_a_protocol_error() {
    let (cmi, _) = system_with_watchers(&["alice"], RoleAssignment::Identity);
    let (server, connector) = NetServer::serve_loopback(cmi, NetConfig::default());
    let mut stream = connector.dial().unwrap();

    let mut bytes = encode_frame(FrameKind::Request, &Request::Digest.encode());
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    stream.write_all(&bytes).unwrap();

    wait_until("protocol error", || server.stats().protocol_errors >= 1);
    wait_until("session closed", || server.stats().sessions_closed == 1);
    server.shutdown();
}

/// Crash during delivery + reconnect-and-resume: kill the link repeatedly
/// while notifications stream; every notification must arrive exactly once.
#[test]
fn crash_during_delivery_resumes_without_loss_or_duplication() {
    let (cmi, _) = system_with_watchers(&["alice"], RoleAssignment::Identity);
    let cfg = NetConfig {
        push_window: 4, // small window: plenty of in-flight/parked churn
        ..NetConfig::default()
    };
    let (server, connector) = NetServer::serve_loopback(cmi.clone(), cfg);
    let conn = Connection::connect_loopback(connector, "alice", ClientConfig::default()).unwrap();
    let viewer = conn.viewer();
    viewer.subscribe().unwrap();

    const TOTAL: i64 = 60;
    let mut received: Vec<Notification> = Vec::new();
    let mut emitted = 0i64;
    let deadline = Instant::now() + Duration::from_secs(60);
    while (received.len() as i64) < TOTAL {
        assert!(Instant::now() < deadline, "resume stalled: {received:?}");
        if emitted < TOTAL {
            assert_eq!(ping(&cmi, emitted), 1);
            emitted += 1;
        }
        if let Some(n) = viewer.recv(Duration::from_millis(50)) {
            received.push(n);
        }
        // Crash the link mid-delivery, repeatedly — including moments when
        // pushes are in flight and acks are unconfirmed.
        if emitted % 12 == 0 && emitted < TOTAL {
            conn.kill_link();
        }
    }

    let markers: Vec<i64> = received.iter().filter_map(|n| n.int_info).collect();
    assert_eq!(
        markers,
        (0..TOTAL).collect::<Vec<_>>(),
        "exactly-once, in-order delivery across crashes"
    );
    assert!(conn.reconnects() >= 1, "the test must actually reconnect");

    // Everything acknowledged: the persistent queue drains to zero.
    wait_until("queue drained", || viewer.unread().unwrap_or(u64::MAX) == 0);
    conn.close();
    server.shutdown();
}

/// The §5.4 acceptance scenario: a remote viewer receives the identical
/// notification sequence as the in-process viewer — including across a
/// forced mid-scenario disconnect/reconnect.
#[test]
fn taskforce_scenario_remote_viewer_matches_in_process() {
    // In-process oracle run.
    let oracle = CmiServer::new();
    let oracle_schemas = taskforce::install(&oracle);
    let oracle_out = taskforce::run_deadline_scenario(&oracle, &oracle_schemas);
    assert_eq!(oracle_out.requestor_notifications.len(), 1);

    // Remote run: identical deterministic scenario on a served system.
    let cmi = Arc::new(CmiServer::new());
    let schemas = taskforce::install(&cmi);
    let (server, connector) = NetServer::serve_loopback(cmi.clone(), NetConfig::default());

    // The §5.4 users exist only once the scenario starts, so the remote
    // viewer connects after the first violation fires; the queue is
    // persistent, so the subscription pushes exactly what the in-process
    // viewer would fetch.
    let out = taskforce::run_deadline_scenario(&cmi, &schemas);
    let conn = Connection::connect_loopback(
        connector,
        "requesting-epidemiologist",
        ClientConfig::default(),
    )
    .unwrap();
    assert_eq!(conn.user_id(), out.requestor);
    let viewer = conn.viewer();
    viewer.subscribe().unwrap();

    // First notification arrives, then the link is forcibly cut before the
    // scenario continues — the reconnect must not lose or duplicate.
    let first = viewer.recv(Duration::from_secs(10)).expect("violation");
    conn.kill_link();

    // Continue the scenario after the crash: a second deadline tightening
    // re-fires the violation.
    cmi.clock().advance(cmi::core::time::Duration::from_hours(1));
    let tf_ctx = cmi.contexts().find("TaskForceContext", out.task_force).unwrap();
    cmi.contexts()
        .set_field(
            tf_ctx,
            "TaskForceDeadline",
            Value::Time(cmi.clock().now().plus(cmi::core::time::Duration::from_hours(2))),
        )
        .unwrap();
    let oracle_ctx = oracle
        .contexts()
        .find("TaskForceContext", oracle_out.task_force)
        .unwrap();
    oracle.clock().advance(cmi::core::time::Duration::from_hours(1));
    oracle
        .contexts()
        .set_field(
            oracle_ctx,
            "TaskForceDeadline",
            Value::Time(oracle.clock().now().plus(cmi::core::time::Duration::from_hours(2))),
        )
        .unwrap();

    let second = viewer.recv(Duration::from_secs(10)).expect("second violation");
    assert!(viewer.recv(Duration::from_millis(300)).is_none(), "no duplicates");

    // The oracle's in-process view of the same two notifications.
    let oracle_notes: Vec<Notification> = {
        let mut v = oracle_out.requestor_notifications.clone();
        v.extend(oracle.awareness().queue().fetch(oracle_out.requestor, 100));
        let mut seen = BTreeSet::new();
        v.retain(|n| seen.insert(n.seq));
        v
    };
    let key = |n: &Notification| {
        (
            n.time.millis(),
            n.schema_name.clone(),
            n.description.clone(),
            n.process_instance.raw(),
            n.int_info,
            n.str_info.clone(),
            n.priority,
        )
    };
    assert_eq!(
        vec![key(&first), key(&second)],
        oracle_notes.iter().map(key).collect::<Vec<_>>(),
        "remote sequence must equal the in-process sequence"
    );
    assert!(conn.reconnects() >= 1);
    conn.close();
    server.shutdown();
}

/// Network sign-on must observably change `SignedOn` role-assignment
/// targeting: only users with a live session receive, and sign-off stops
/// delivery.
#[test]
fn network_sign_on_drives_signed_on_role_assignment() {
    let (cmi, users) = system_with_watchers(&["alice", "bob"], RoleAssignment::SignedOn);
    let (server, connector) = NetServer::serve_loopback(cmi.clone(), NetConfig::default());

    // Nobody connected: signed-on assignment falls back to the whole role
    // (notifications are never dropped), so both watchers are targeted.
    assert_eq!(ping(&cmi, 0), 2);

    // Alice connects (signs on) — targeting narrows to her alone.
    let conn =
        Connection::connect_loopback(connector.clone(), "alice", ClientConfig::default()).unwrap();
    wait_until("alice signed on", || {
        cmi.directory().participant(users[0]).unwrap().signed_on
    });
    assert_eq!(ping(&cmi, 1), 1);
    assert_eq!(cmi.awareness().queue().pending_for(users[0]), 2);
    assert_eq!(cmi.awareness().queue().pending_for(users[1]), 1);

    // Alice disconnects; once the server notices, the fallback is back.
    conn.close();
    wait_until("alice signed off", || {
        !cmi.directory().participant(users[0]).unwrap().signed_on
    });
    assert_eq!(ping(&cmi, 2), 2);
    server.shutdown();
}
