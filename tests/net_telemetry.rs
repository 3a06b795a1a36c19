//! End-to-end observability over the wire (PR 3 acceptance scenario).
//!
//! Drives a loopback [`NetServer`] through connect → subscribe → external
//! event → push → ack → disconnect and asserts that the shared
//! [`ObsRegistry`] tells the same story: session counters, push/ack
//! counters, queue counters, engine counters — and that the causal
//! detection trace behind the delivered composite event is retrievable
//! *over the wire* by its queue sequence number, carrying the full
//! primitive-event → operator-chain → detection → queue → push → ack
//! lineage with per-stage latencies.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cmi::awareness::builder::AwarenessSchemaBuilder;
use cmi::awareness::system::CmiServer;
use cmi::core::ids::ProcessSchemaId;
use cmi::core::roles::RoleSpec;
use cmi::core::value::Value;
use cmi::events::operators::ExternalFilter;
use cmi::net::client::{ClientConfig, Connection};
use cmi::net::server::{NetConfig, NetServer};

/// A server whose `ping` external events notify `watchers` (member: alice).
fn system() -> Arc<CmiServer> {
    let cmi = Arc::new(CmiServer::new());
    let alice = cmi.directory().add_user("alice");
    let watchers = cmi.directory().add_role("watchers").unwrap();
    cmi.directory().assign(alice, watchers).unwrap();
    let mut b =
        AwarenessSchemaBuilder::new(cmi.fresh_awareness_id(), "AS_Ping", ProcessSchemaId(0));
    let f = b
        .external_filter(ExternalFilter::new(ProcessSchemaId(0), "ping", None))
        .unwrap();
    cmi.register_awareness(
        b.deliver_to(f, RoleSpec::org("watchers"))
            .describe("ping observed")
            .build()
            .unwrap(),
    );
    cmi
}

#[test]
fn telemetry_matches_wire_behavior_end_to_end() {
    let cmi = system();
    let (server, connector) = NetServer::serve_loopback(cmi.clone(), NetConfig::default());
    let conn = Connection::connect_loopback(connector, "alice", ClientConfig::default()).unwrap();
    let viewer = conn.viewer();
    viewer.subscribe().unwrap();

    // One composite event: detected, queued, pushed; recv() acks it.
    let delivered = conn
        .external_event("ping", vec![("user".into(), Value::User(conn.user_id()))])
        .unwrap();
    assert!(delivered >= 1);
    let n = viewer.recv(Duration::from_secs(5)).expect("pushed");
    assert_eq!(n.schema_name, "AS_Ping");
    assert_ne!(n.seq, 0, "delivered notifications carry the queue seq");

    // The ack travelled on recv()'s AckNotifs call, which has completed, so
    // the server-side counters and trace stages are already settled.
    let snap = cmi.obs().snapshot();
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    assert_eq!(c("cmi_net_sessions_opened"), 1);
    assert_eq!(c("cmi_net_sessions_closed"), 0);
    assert!(c("cmi_net_pushes") >= 1, "push counted");
    assert!(c("cmi_net_acked") >= 1, "ack counted");
    assert!(c("cmi_net_requests") >= 3, "hello/subscribe/event/ack");
    assert!(c("cmi_queue_enqueued") >= 1);
    assert!(c("cmi_queue_acked") >= 1);
    assert!(c("cmi_delivery_detections") >= 1);
    assert!(c("cmi_delivery_notifications") >= 1);
    assert_eq!(
        snap.gauge("cmi_queue_pending"),
        Some(0),
        "queue drained after ack"
    );
    // The sharded ingest counter aggregates to the events routed.
    assert!(c("cmi_shard_events_ingested") >= 1);
    let hist = snap.histogram("cmi_ingest_ns").expect("ingest histogram");
    assert!(hist.count >= 1);

    // The NetStats adapter is a view over the same registry cells.
    let stats = server.stats();
    assert_eq!(stats.sessions_opened, 1);
    assert_eq!(stats.pushes, c("cmi_net_pushes"));
    assert_eq!(stats.acked, c("cmi_net_acked"));

    // Fetch telemetry over the wire, asking for the trace behind the
    // notification we just consumed, plus the flight recorder.
    let t = conn.telemetry(Some(n.seq), true).unwrap();
    assert!(
        t.exposition.contains("cmi_net_pushes"),
        "exposition carries net counters:\n{}",
        t.exposition
    );
    assert!(
        t.exposition.contains("cmi_engine_operator_invocations"),
        "exposition carries per-operator counters:\n{}",
        t.exposition
    );
    let trace = t.trace.expect("trace retrievable by seq over the wire");
    assert!(trace.contains(&format!("seqs=[{}]", n.seq)), "{trace}");
    assert!(trace.contains("primitive:"), "{trace}");
    assert!(trace.contains("Filter_ext"), "{trace}");
    assert!(trace.contains("detection:"), "{trace}");
    for stage in ["queue", "push", "ack"] {
        assert!(trace.contains(&format!("stage {stage}:")), "{trace}");
    }
    let flight = t.flight.expect("flight dump requested");
    assert!(flight.contains("session-open"), "{flight}");

    // Unknown seq: telemetry still answers, with no trace.
    let t2 = conn.telemetry(Some(u64::MAX), false).unwrap();
    assert!(t2.trace.is_none());
    assert!(t2.flight.is_none());

    // No reconnect races in this calm scenario.
    let cs = conn.stats();
    assert_eq!(cs.reconnects, 0);
    assert_eq!(cs.push_dropped_duplicates, 0);
    assert_eq!(cs.pending_acks, 0);

    conn.close();
    let stats = server.shutdown();
    assert_eq!(stats.sessions_opened, 1);
    assert_eq!(stats.sessions_closed, 1);

    // The flight recorder saw the session close.
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let dump = cmi.obs().flight().render();
        if dump.contains("session-close") {
            break;
        }
        assert!(Instant::now() < deadline, "session-close recorded:\n{dump}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn duplicate_pushes_after_reconnect_are_counted() {
    let cmi = system();
    let (server, connector) = NetServer::serve_loopback(cmi.clone(), NetConfig::default());
    let conn = Connection::connect_loopback(connector, "alice", ClientConfig::default()).unwrap();
    let viewer = conn.viewer();
    viewer.subscribe().unwrap();

    // Deliver, let the push arrive, then sever the link *without* acking:
    // the reconnected session re-pushes the same seq and the dedup counter
    // must record the drop.
    conn.external_event("ping", vec![]).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while conn.stats().reconnects == 0 || conn.stats().push_dropped_duplicates == 0 {
        if conn.stats().reconnects == 0 {
            // Wait until the first push is buffered before killing the link.
            if cmi.obs().snapshot().counter("cmi_net_pushes").unwrap_or(0) >= 1 {
                conn.kill_link();
            }
        }
        assert!(
            Instant::now() < deadline,
            "expected a counted duplicate push, stats={:?}",
            conn.stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let n = viewer.recv(Duration::from_secs(5)).expect("one copy surfaces");
    assert_eq!(n.schema_name, "AS_Ping");
    assert!(viewer.recv(Duration::from_millis(100)).is_none(), "exactly once");

    conn.close();
    server.shutdown();
}
