//! Concurrency soak for the cmi-net subsystem.
//!
//! A sharded [`CmiServer`] is fronted by the loopback [`NetServer`]; several
//! watcher clients subscribe and receive a long notification stream while
//! their links are killed mid-flight, and churn clients sign on and off
//! concurrently. A second, in-process server replays the identical workload
//! as the oracle: every watcher must end up with exactly the oracle's
//! notification sequence — same multiset, same per-(user, process instance)
//! order — regardless of shard count, reconnects, or sign-on churn.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use cmi::awareness::builder::AwarenessSchemaBuilder;
use cmi::awareness::queue::Notification;
use cmi::awareness::system::CmiServer;
use cmi::core::ids::ProcessSchemaId;
use cmi::core::roles::RoleSpec;
use cmi::core::time::Duration;
use cmi::core::value::Value;
use cmi::events::operators::ExternalFilter;
use cmi::net::client::{ClientConfig, Connection};
use cmi::net::server::{NetConfig, NetServer};
use cmi::net::transport::{LoopbackConnector, NetStream};
use cmi::workloads::taskforce;

const WATCHERS: usize = 4;
const CHURNERS: usize = 2;
const EVENTS: i64 = 120;

/// Notification identity independent of queue sequence numbers (the remote
/// path re-numbers nothing, but the oracle run has its own counter).
type NoteKey = (
    u64,            // user
    u64,            // time (ms)
    String,         // schema name
    String,         // description
    u64,            // process schema
    u64,            // process instance
    Option<i64>,    // intInfo
    Option<String>, // strInfo
);

fn key(n: &Notification) -> NoteKey {
    (
        n.user.raw(),
        n.time.millis(),
        n.schema_name.clone(),
        n.description.clone(),
        n.process_schema.raw(),
        n.process_instance.raw(),
        n.int_info,
        n.str_info.clone(),
    )
}

fn assert_equivalent(label: &str, oracle: &[Notification], remote: &[Notification]) {
    let mut a: Vec<NoteKey> = oracle.iter().map(key).collect();
    let mut b: Vec<NoteKey> = remote.iter().map(key).collect();
    a.sort();
    b.sort();
    assert_eq!(a, b, "{label}: notification multisets differ");

    let by_instance = |ns: &[Notification]| {
        let mut m: BTreeMap<u64, Vec<NoteKey>> = BTreeMap::new();
        for n in ns {
            m.entry(n.process_instance.raw()).or_default().push(key(n));
        }
        m
    };
    assert_eq!(
        by_instance(oracle),
        by_instance(remote),
        "{label}: per-instance order differs"
    );
}

/// Builds the deterministic world: watcher + churn users, the soak awareness
/// schema, and the §5.4 task force installation — in an order replayed
/// identically on the live and oracle servers so every id matches.
fn build_world(server: &CmiServer) -> taskforce::TaskForceSchemas {
    let dir = server.directory();
    let watchers = dir.add_role("soak-watchers").unwrap();
    for i in 0..WATCHERS {
        let u = dir.add_user(&format!("soak-{i}"));
        dir.assign(u, watchers).unwrap();
    }
    for i in 0..CHURNERS {
        dir.add_user(&format!("churn-{i}"));
    }
    let mut b = AwarenessSchemaBuilder::new(
        server.fresh_awareness_id(),
        "AS_SoakEvent",
        ProcessSchemaId(0),
    );
    let f = b
        .external_filter(ExternalFilter::new(ProcessSchemaId(0), "evt", None).int_info_from("m"))
        .unwrap();
    server.register_awareness(
        b.deliver_to(f, RoleSpec::org("soak-watchers"))
            .describe("soak event observed")
            .build()
            .unwrap(),
    );
    taskforce::install(server)
}

/// Drives the identical workload on a server: the full §5.4 deadline
/// scenario, then the external event stream with deterministic clock
/// advances.
fn drive(server: &CmiServer, schemas: &taskforce::TaskForceSchemas) -> taskforce::DeadlineScenarioOutcome {
    let out = taskforce::run_deadline_scenario(server, schemas);
    for m in 0..EVENTS {
        server.clock().advance(Duration::from_secs(30));
        let delivered =
            server.external_event("evt", vec![("m".to_owned(), Value::Int(m))]);
        assert_eq!(delivered, WATCHERS, "event {m} must reach every watcher");
    }
    out
}

#[test]
fn sharded_soak_matches_in_process_oracle() {
    // Oracle: unsharded, in-process, single-threaded replay.
    let oracle = CmiServer::new();
    let oracle_schemas = build_world(&oracle);

    // Live system: 4 detection shards behind the network server.
    let cmi = Arc::new(CmiServer::with_shards(4));
    let schemas = build_world(&cmi);
    let cfg = NetConfig {
        push_window: 8, // small window: exercises slow-consumer parking
        ..NetConfig::default()
    };
    let (server, connector) = NetServer::serve_loopback(cmi.clone(), cfg);

    let stop_churn = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let collected: Vec<Vec<Notification>> = std::thread::scope(|s| {
        // Watcher clients: subscribe, receive everything, survive link kills.
        let mut handles = Vec::new();
        for i in 0..WATCHERS {
            let connector = connector.clone();
            handles.push(s.spawn(move || {
                let conn = Connection::connect_loopback(
                    connector,
                    &format!("soak-{i}"),
                    ClientConfig::default(),
                )
                .unwrap();
                let viewer = conn.viewer();
                viewer.subscribe().unwrap();
                let mut got = Vec::new();
                let mut last_kill = 0;
                let deadline = Instant::now() + StdDuration::from_secs(120);
                while (got.len() as i64) < EVENTS {
                    assert!(
                        Instant::now() < deadline,
                        "watcher {i} stalled at {} notifications",
                        got.len()
                    );
                    if let Some(n) = viewer.recv(StdDuration::from_millis(50)) {
                        got.push(n);
                    }
                    // Each watcher crashes its link at a different cadence,
                    // so reconnects land at staggered points in the stream.
                    if got.len() > last_kill && got.len() % (25 + 7 * i) == 0 {
                        last_kill = got.len();
                        conn.kill_link();
                    }
                }
                // Nothing beyond the expected stream (no duplicates).
                assert!(viewer.recv(StdDuration::from_millis(200)).is_none());
                conn.close();
                got
            }));
        }

        // Churn clients: sign on/off in a loop while the stream runs; they
        // exercise the refcounted sign-on path and the request surface
        // (worklist + monitor) without subscribing.
        let mut churn_handles = Vec::new();
        for i in 0..CHURNERS {
            let connector = connector.clone();
            let stop = stop_churn.clone();
            churn_handles.push(s.spawn(move || {
                let mut rounds = 0u32;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let conn = Connection::connect_loopback(
                        connector.clone(),
                        &format!("churn-{i}"),
                        ClientConfig::default(),
                    )
                    .unwrap();
                    let _ = conn.worklist().for_user().unwrap();
                    let _ = conn.viewer().unread().unwrap();
                    conn.close();
                    rounds += 1;
                }
                rounds
            }));
        }

        // Drive the deterministic workload from this thread.
        let out = drive(&cmi, &schemas);
        assert_eq!(out.requestor_notifications.len(), 1);

        let collected: Vec<Vec<Notification>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        stop_churn.store(true, std::sync::atomic::Ordering::Relaxed);
        for h in churn_handles {
            assert!(h.join().unwrap() > 0, "churn client never completed a round");
        }
        collected
    });

    // Oracle replay (single-threaded, no network).
    let oracle_out = drive(&oracle, &oracle_schemas);
    assert_eq!(oracle_out.requestor_notifications.len(), 1);

    // Every watcher's remote stream equals the oracle's in-process queue.
    for (i, got) in collected.iter().enumerate() {
        let uid = oracle.directory().user_by_name(&format!("soak-{i}")).unwrap();
        let expect = oracle.awareness().queue().fetch(uid, usize::MAX);
        assert_equivalent(&format!("soak-{i}"), &expect, got);
    }

    // The scenario itself was identical on both servers.
    assert_equivalent(
        "taskforce-requestor",
        &oracle_out.requestor_notifications,
        &cmi.awareness().queue().fetch(out_requestor(&cmi), usize::MAX),
    );

    // All watcher queues fully acknowledged; churn users signed off.
    for i in 0..WATCHERS {
        let uid = cmi.directory().user_by_name(&format!("soak-{i}")).unwrap();
        assert_eq!(
            cmi.awareness().queue().pending_for(uid),
            0,
            "soak-{i} left unacknowledged notifications"
        );
    }
    for i in 0..CHURNERS {
        let uid = cmi.directory().user_by_name(&format!("churn-{i}")).unwrap();
        assert!(!cmi.directory().participant(uid).unwrap().signed_on);
    }

    // Park accounting during the live stream is timing-dependent: on a
    // loaded machine the watchers can drain every push before the window
    // ever overflows mid-pass. Force a deterministic slow-consumer episode
    // instead — build a backlog deeper than the push window while nobody
    // is connected, then subscribe and consume a few notifications. Every
    // single-seq ack frees one window slot against the deep backlog, so
    // each subsequent push pass must park.
    for m in 0..5 * EVENTS.min(8) {
        cmi.external_event("evt", vec![("m".to_owned(), Value::Int(EVENTS + m))]);
    }
    let lazy = Connection::connect_loopback(
        connector.clone(),
        "soak-0",
        ClientConfig::default(),
    )
    .unwrap();
    let lazy_viewer = lazy.viewer();
    lazy_viewer.subscribe().unwrap();
    let mut consumed = 0;
    let park_deadline = Instant::now() + StdDuration::from_secs(30);
    while consumed < 16 {
        assert!(
            Instant::now() < park_deadline,
            "slow-consumer pass stalled at {consumed} notifications"
        );
        if lazy_viewer.recv(StdDuration::from_millis(50)).is_some() {
            consumed += 1;
        }
    }
    lazy.close();

    let stats = server.shutdown();
    assert_eq!(stats.sessions_opened, stats.sessions_closed);
    assert!(
        stats.slow_consumer_parks > 0,
        "the small push window should have parked at least once"
    );
}

fn out_requestor(cmi: &CmiServer) -> cmi::core::ids::UserId {
    cmi.directory()
        .user_by_name("requesting-epidemiologist")
        .unwrap()
}

/// The §5.4 world rebuilt in an identical order, so every id recovered
/// from the WAL names the same participant after a restart.
fn build_durable_world(path: &std::path::Path) -> Arc<CmiServer> {
    let cmi = Arc::new(CmiServer::with_durable_queue(path).unwrap());
    let dir = cmi.directory();
    let watchers = dir.add_role("wal-watchers").unwrap();
    let u = dir.add_user("wal-watcher");
    dir.assign(u, watchers).unwrap();
    let mut b = AwarenessSchemaBuilder::new(
        cmi.fresh_awareness_id(),
        "AS_WalEvent",
        ProcessSchemaId(0),
    );
    let f = b
        .external_filter(ExternalFilter::new(ProcessSchemaId(0), "evt", None).int_info_from("m"))
        .unwrap();
    cmi.register_awareness(
        b.deliver_to(f, RoleSpec::org("wal-watchers"))
            .describe("wal event observed")
            .build()
            .unwrap(),
    );
    cmi
}

/// Exactly-once delivery across a full *server* restart — not merely a
/// killed link: the [`NetServer`] is shut down mid-stream with pushes in
/// flight and acknowledgements outstanding, the durable-queue
/// [`CmiServer`] behind it is dropped, a fresh one reopens the same WAL, a
/// fresh [`NetServer`] fronts it, and the client's reconnect-with-resume
/// lands on the reborn server. Every notification must surface exactly
/// once, in order — the WAL carries the unacknowledged tail across the
/// process "crash".
#[test]
fn durable_queue_resumes_across_server_restart() {
    let dir = std::env::temp_dir().join(format!("cmi-net-wal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("queue.jsonl");
    let _ = std::fs::remove_file(&path);

    let cfg = NetConfig {
        push_window: 4, // keep plenty unacknowledged at the restart point
        ..NetConfig::default()
    };
    let cmi = build_durable_world(&path);
    let (server, connector) = NetServer::serve_loopback(cmi.clone(), cfg.clone());

    // The client dials through a slot that the restart below re-points at
    // the new server's connector.
    let slot: Arc<std::sync::Mutex<LoopbackConnector>> =
        Arc::new(std::sync::Mutex::new(connector));
    let dial_slot = slot.clone();
    let conn = Connection::connect(
        Box::new(move || -> std::io::Result<Box<dyn NetStream>> {
            dial_slot.lock().unwrap().dial()
        }),
        "wal-watcher",
        ClientConfig::default(),
    )
    .unwrap();
    let viewer = conn.viewer();
    viewer.subscribe().unwrap();

    const TOTAL: i64 = 40;
    let mut got: Vec<Notification> = Vec::new();
    let deadline = Instant::now() + StdDuration::from_secs(60);

    // Phase 1: stream the first half, consume only some of it — the rest
    // is pushed-but-unacked or parked behind the small window when the
    // server dies.
    for m in 0..TOTAL / 2 {
        cmi.clock().advance(Duration::from_secs(1));
        assert_eq!(
            cmi.external_event("evt", vec![("m".to_owned(), Value::Int(m))]),
            1
        );
    }
    while (got.len() as i64) < TOTAL / 4 {
        assert!(Instant::now() < deadline, "phase 1 stalled at {}", got.len());
        if let Some(n) = viewer.recv(StdDuration::from_millis(50)) {
            got.push(n);
        }
    }

    // Kill the real server: drain the NetServer, drop the CmiServer, and
    // recover the same WAL into a brand-new stack.
    server.shutdown();
    drop(cmi);
    let cmi = build_durable_world(&path);
    let (server, connector) = NetServer::serve_loopback(cmi.clone(), cfg);
    *slot.lock().unwrap() = connector;
    conn.kill_link(); // in case the client still believes in the old link

    // Phase 2: the rest of the stream on the reborn server.
    for m in TOTAL / 2..TOTAL {
        cmi.clock().advance(Duration::from_secs(1));
        assert_eq!(
            cmi.external_event("evt", vec![("m".to_owned(), Value::Int(m))]),
            1
        );
    }
    while (got.len() as i64) < TOTAL {
        assert!(
            Instant::now() < deadline,
            "resume stalled at {} notifications",
            got.len()
        );
        if let Some(n) = viewer.recv(StdDuration::from_millis(50)) {
            got.push(n);
        }
    }
    assert!(
        viewer.recv(StdDuration::from_millis(300)).is_none(),
        "no duplicates after the restart"
    );

    let markers: Vec<i64> = got.iter().filter_map(|n| n.int_info).collect();
    assert_eq!(
        markers,
        (0..TOTAL).collect::<Vec<_>>(),
        "exactly-once, in-order delivery across the server restart"
    );
    assert!(conn.reconnects() >= 1, "the restart must force a reconnect");

    // Everything acknowledged on the reborn server: its WAL-backed queue
    // drains to zero.
    let uid = cmi.directory().user_by_name("wal-watcher").unwrap();
    while cmi.awareness().queue().pending_for(uid) != 0 {
        assert!(Instant::now() < deadline, "queue never drained");
        std::thread::sleep(StdDuration::from_millis(5));
    }
    conn.close();
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}
