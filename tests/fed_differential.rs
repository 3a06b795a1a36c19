//! Differential oracle for the federated cluster.
//!
//! A 3-node federated cluster must be observationally equivalent to one
//! unsharded, unfederated `CmiServer`: the same external event stream —
//! injected round-robin through clients of *different* nodes — must produce
//! the identical composite-event notification multiset per subscriber, with
//! per-(user, process instance) order preserved exactly. The cluster
//! partitions process instances across nodes by rendezvous hash, forwards
//! every event to its owning node, detects there, and routes notifications
//! back to wherever each subscriber is signed on, so this test exercises the
//! full Fig. 5 pipeline across node boundaries.
//!
//! A second scenario kills and restarts a node's network front mid-stream
//! and asserts exactly-once, in-order delivery across the peer hop (the
//! link-local sequence replay cache on the forward path, the ack-after-
//! confirm pump on the notification path).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cmi::awareness::queue::Notification;
use cmi::awareness::system::CmiServer;
use cmi::core::state_schema::ActivityStateSchema;
use cmi::core::schema::ActivitySchemaBuilder;
use cmi::core::value::Value;
use cmi::fed::testkit::LoopbackCluster;
use cmi::net::client::ClientConfig;
use cmi::net::server::NetConfig;

/// Identical world on every node and on the oracle: a `Mission` process
/// schema, three subscribers each behind their own org role, and three
/// awareness schemas — a stateless hit filter, a per-instance counter
/// threshold, and a per-instance two-source sequence.
fn setup(cmi: &CmiServer) {
    let repo = cmi.repository();
    let ss = repo.register_state_schema(ActivityStateSchema::generic(repo.fresh_state_schema_id()));
    let pid = repo.fresh_activity_schema_id();
    repo.register_activity_schema(
        ActivitySchemaBuilder::process(pid, "Mission", ss)
            .build()
            .unwrap(),
    );
    for (user, role) in [
        ("alice", "w-alice"),
        ("bob", "w-bob"),
        ("carol", "w-carol"),
        // Pure event injector for the kill/restart scenario; no deliveries.
        ("driver", "w-driver"),
    ] {
        let u = cmi.directory().add_user(user);
        let r = cmi.directory().add_role(role).unwrap();
        cmi.directory().assign(u, r).unwrap();
    }
    cmi.load_awareness_source(
        r#"
        awareness "AS_Hit" on Mission {
            hit = external(sensor, mission)
            deliver hit to org(w-alice)
            describe "sensor hit"
        }
        awareness "AS_Burst" on Mission {
            a = external(sensor, mission)
            n = count(a)
            big = compare1(>=, 3, n)
            deliver big to org(w-bob)
            describe "sensor burst"
        }
        awareness "AS_Seq" on Mission {
            a = external(alpha, mission)
            b = external(beta, mission)
            s = seq(1, a, b)
            deliver s to org(w-carol)
            describe "alpha then beta"
        }
        "#,
    )
    .unwrap();
}

/// Minimal world for the fault-injection scenarios: one stateless hit
/// filter delivering to alice, so every sensor event maps to exactly one
/// notification and `intInfo` replays the injection index.
fn setup_hit_only(cmi: &CmiServer) {
    let repo = cmi.repository();
    let ss = repo.register_state_schema(ActivityStateSchema::generic(repo.fresh_state_schema_id()));
    let pid = repo.fresh_activity_schema_id();
    repo.register_activity_schema(
        ActivitySchemaBuilder::process(pid, "Mission", ss)
            .build()
            .unwrap(),
    );
    for (user, role) in [("alice", "w-alice"), ("driver", "w-driver")] {
        let u = cmi.directory().add_user(user);
        let r = cmi.directory().add_role(role).unwrap();
        cmi.directory().assign(u, r).unwrap();
    }
    cmi.load_awareness_source(
        r#"
        awareness "AS_Hit" on Mission {
            hit = external(sensor, mission)
            deliver hit to org(w-alice)
            describe "sensor hit"
        }
        "#,
    )
    .unwrap();
}

/// Notification identity independent of queue sequence numbers (those are
/// node-local and re-assigned on the routed hop).
type NoteKey = (u64, u64, String, u64, Option<i64>, Option<String>);

fn key(n: &Notification) -> NoteKey {
    (
        n.user.raw(),
        n.time.millis(),
        n.description.clone(),
        n.process_instance.raw(),
        n.int_info,
        n.str_info.clone(),
    )
}

/// Deterministic xorshift stream so nodes and oracle replay the same
/// pseudo-random event sequence.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

fn event_for(m: usize, rng: &mut Rng) -> (&'static str, Vec<(String, Value)>) {
    let source = match rng.next() % 4 {
        0 | 1 => "sensor",
        2 => "alpha",
        _ => "beta",
    };
    let instance = 1 + rng.next() % 12;
    let fields = vec![
        ("mission".to_owned(), Value::Id(instance)),
        ("intInfo".to_owned(), Value::Int(m as i64)),
    ];
    (source, fields)
}

fn client_cfg() -> ClientConfig {
    ClientConfig {
        response_timeout: Duration::from_secs(5),
        heartbeat: Duration::from_millis(50),
        reconnect_attempts: 200,
        reconnect_backoff: Duration::from_millis(10),
    }
}

/// Drains a viewer until `expect` notifications arrive (or panics after the
/// deadline): routed notifications converge asynchronously via the pumps.
fn drain_exact(
    conn: &cmi::net::client::Connection,
    expect: usize,
    label: &str,
) -> Vec<Notification> {
    let mut got = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(20);
    while got.len() < expect {
        let batch = conn.viewer().take(64).expect("viewer take");
        if batch.is_empty() {
            assert!(
                Instant::now() < deadline,
                "{label}: timed out with {} of {expect} notifications",
                got.len()
            );
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        got.extend(batch);
    }
    // Quiescence check: nothing extra trickles in (duplicates would).
    std::thread::sleep(Duration::from_millis(100));
    let extra = conn.viewer().take(64).expect("viewer take");
    assert!(
        extra.is_empty(),
        "{label}: {} duplicate/extra notifications after drain",
        extra.len()
    );
    got
}

/// The 3-node differential: identical notification multisets and exact
/// per-(user, instance) order versus the single-server oracle.
#[test]
fn three_node_cluster_matches_oracle() {
    let cluster = LoopbackCluster::start(3, NetConfig::default(), &setup);
    let oracle = CmiServer::new();
    setup(&oracle);

    // Subscribers sign on at *different* nodes than where their events may
    // be detected; alice's node also doubles as an ingest point.
    let alice = cluster.connect(0, "alice", client_cfg()).unwrap();
    let bob = cluster.connect(1, "bob", client_cfg()).unwrap();
    let carol = cluster.connect(2, "carol", client_cfg()).unwrap();

    let mut rng = Rng(0x5EED_0001);
    let clients = [&alice, &bob, &carol];
    let mut oracle_total = 0usize;
    const EVENTS: usize = 240;
    for m in 0..EVENTS {
        // Advance every clock in lockstep so timestamps agree everywhere.
        if m % 10 == 0 {
            for i in 0..3 {
                cluster.node(i).cmi().clock().advance(
                    cmi::core::time::Duration::from_millis(10),
                );
            }
            oracle
                .clock()
                .advance(cmi::core::time::Duration::from_millis(10));
        }
        let (source, fields) = event_for(m, &mut rng);
        let via = clients[m % 3];
        let fed_count = via
            .external_event(source, fields.clone())
            .expect("federated external event");
        let oracle_count = oracle.external_event(source, fields) as u64;
        assert_eq!(
            fed_count, oracle_count,
            "event {m}: cluster-wide delivery count diverged from oracle"
        );
        oracle_total += oracle_count as usize;
    }
    assert!(oracle_total > 0, "workload produced no notifications");

    // Expected per-subscriber notifications from the oracle queue.
    let mut expected: BTreeMap<u64, Vec<Notification>> = BTreeMap::new();
    for (name, _) in [("alice", 0), ("bob", 1), ("carol", 2)] {
        let u = oracle.directory().user_by_name(name).unwrap();
        expected.insert(u.raw(), oracle.awareness().queue().fetch(u, usize::MAX));
    }

    for (conn, name) in [(&alice, "alice"), (&bob, "bob"), (&carol, "carol")] {
        let uid = conn.user_id().raw();
        let want = &expected[&uid];
        let got = drain_exact(conn, want.len(), name);
        let mut want_keys: Vec<NoteKey> = want.iter().map(key).collect();
        let mut got_keys: Vec<NoteKey> = got.iter().map(key).collect();
        want_keys.sort();
        got_keys.sort();
        assert_eq!(want_keys, got_keys, "{name}: notification multisets differ");
        // Exact order per process instance (the only order the per-instance
        // replication model defines; cross-instance interleaving may differ
        // because instances live on different nodes).
        let per_instance = |ns: &[Notification]| {
            let mut m: BTreeMap<u64, Vec<NoteKey>> = BTreeMap::new();
            for n in ns {
                m.entry(n.process_instance.raw()).or_default().push(key(n));
            }
            m
        };
        assert_eq!(
            per_instance(want),
            per_instance(&got),
            "{name}: per-instance notification order differs"
        );
    }

    // The telemetry proves events actually crossed node boundaries.
    let exposition = alice
        .telemetry(None, false)
        .expect("telemetry over the wire")
        .exposition;
    assert!(
        exposition.contains("cmi_fed_forwards"),
        "per-peer federation metrics missing from telemetry:\n{exposition}"
    );
    cluster.shutdown();
}

/// Batch invariance: the 3-node-vs-oracle differential, pipelined so the
/// links actually aggregate multi-event `FedBatch` frames, swept over batch
/// sizes and flush deadlines. Every arm must produce the identical
/// per-subscriber multiset and per-instance order; `batch_events = 1` is
/// the degenerate one-event-per-frame arm (today's wire behavior).
///
/// Events are injected with instance affinity (instance → node) so
/// pipelining cannot reorder two events of the same instance across
/// different links — per-link FIFO plus in-batch order then guarantees the
/// oracle's per-instance ingest order at the owning node, which is the only
/// order the detection model defines.
fn differential_pipelined(batch_events: usize, deadline: Duration) {
    use cmi::fed::{FedConfig, PeerConfig};

    let fed_cfg = FedConfig {
        peer: PeerConfig {
            batch_events,
            batch_deadline: deadline,
            ..PeerConfig::default()
        },
        ..FedConfig::default()
    };
    let label = format!("batch={batch_events}/deadline={deadline:?}");
    let cluster = LoopbackCluster::start_with(3, NetConfig::default(), fed_cfg, &setup);
    let oracle = CmiServer::new();
    setup(&oracle);

    let alice = cluster.connect(0, "alice", client_cfg()).unwrap();
    let bob = cluster.connect(1, "bob", client_cfg()).unwrap();
    let carol = cluster.connect(2, "carol", client_cfg()).unwrap();

    let mut rng = Rng(0x5EED_0002);
    const EVENTS: usize = 180;
    const DEPTH: usize = 32;
    let mut oracle_total = 0usize;
    // (event index, in-flight handle, oracle's count for that event).
    let mut handles: std::collections::VecDeque<(usize, cmi::fed::RouteHandle, u64)> =
        std::collections::VecDeque::new();
    // Records which node injected event m (instance-affine, rng-determined;
    // filled in injection order and read back FIFO by the settler).
    let mut inject_nodes: Vec<usize> = Vec::with_capacity(EVENTS);
    let settle_indexed =
        |cluster: &LoopbackCluster,
         inject_nodes: &[usize],
         (m, handle, want): (usize, cmi::fed::RouteHandle, u64)| {
            let got = cluster
                .node(inject_nodes[m])
                .wait_external(handle)
                .unwrap_or_else(|e| panic!("{label}: event {m} failed: {e}"));
            assert_eq!(
                got, want,
                "{label}: event {m}: cluster-wide delivery count diverged from oracle"
            );
            got as usize
        };
    for m in 0..EVENTS {
        if m % 30 == 0 {
            // Drain everything in flight before the clocks move so every
            // event's timestamp agrees between cluster and oracle.
            while let Some(entry) = handles.pop_front() {
                oracle_total += settle_indexed(&cluster, &inject_nodes, entry);
            }
            for i in 0..3 {
                cluster
                    .node(i)
                    .cmi()
                    .clock()
                    .advance(cmi::core::time::Duration::from_millis(10));
            }
            oracle
                .clock()
                .advance(cmi::core::time::Duration::from_millis(10));
        }
        let (source, fields) = event_for(m, &mut rng);
        let instance = fields
            .iter()
            .find_map(|(k, v)| match v {
                Value::Id(raw) if k == "mission" => Some(*raw),
                _ => None,
            })
            .expect("event_for always sets mission");
        let node = (instance % 3) as usize;
        inject_nodes.push(node);
        let want = oracle.external_event(source, fields.clone()) as u64;
        let handle = cluster.node(node).external_event_async(source, fields);
        handles.push_back((m, handle, want));
        while handles.len() >= DEPTH {
            let entry = handles.pop_front().unwrap();
            oracle_total += settle_indexed(&cluster, &inject_nodes, entry);
        }
    }
    while let Some(entry) = handles.pop_front() {
        oracle_total += settle_indexed(&cluster, &inject_nodes, entry);
    }
    assert!(oracle_total > 0, "{label}: workload produced no notifications");

    let mut expected: BTreeMap<u64, Vec<Notification>> = BTreeMap::new();
    for name in ["alice", "bob", "carol"] {
        let u = oracle.directory().user_by_name(name).unwrap();
        expected.insert(u.raw(), oracle.awareness().queue().fetch(u, usize::MAX));
    }
    for (conn, name) in [(&alice, "alice"), (&bob, "bob"), (&carol, "carol")] {
        let uid = conn.user_id().raw();
        let want = &expected[&uid];
        let got = drain_exact(conn, want.len(), &format!("{name} ({label})"));
        let mut want_keys: Vec<NoteKey> = want.iter().map(key).collect();
        let mut got_keys: Vec<NoteKey> = got.iter().map(key).collect();
        want_keys.sort();
        got_keys.sort();
        assert_eq!(
            want_keys, got_keys,
            "{name} ({label}): notification multisets differ"
        );
        let per_instance = |ns: &[Notification]| {
            let mut m: BTreeMap<u64, Vec<NoteKey>> = BTreeMap::new();
            for n in ns {
                m.entry(n.process_instance.raw()).or_default().push(key(n));
            }
            m
        };
        assert_eq!(
            per_instance(want),
            per_instance(&got),
            "{name} ({label}): per-instance notification order differs"
        );
    }
    cluster.shutdown();
}

#[test]
fn batch_invariance_all_arms() {
    for batch_events in [1usize, 4, 64] {
        for deadline in [Duration::ZERO, Duration::from_millis(5)] {
            differential_pipelined(batch_events, deadline);
        }
    }
}

/// Kill/restart: a subscriber's node goes down mid-stream; every
/// notification detected meanwhile parks durably at its origin and resumes
/// across the reconnected peer link — exactly once, in order.
#[test]
fn kill_restart_exactly_once() {
    let cluster = LoopbackCluster::start(2, NetConfig::default(), &setup_hit_only);

    // alice signs on at node 1; all events target instances OWNED by node 0,
    // so every notification for alice crosses the 0 → 1 peer hop.
    let alice = cluster.connect(1, "alice", client_cfg()).unwrap();
    let injector = cluster.connect(0, "driver", client_cfg()).unwrap();
    let owned_by_0: Vec<u64> = (1..200)
        .filter(|&raw| cluster.cluster().owner_of_instance(raw) == 0)
        .take(4)
        .collect();
    assert!(!owned_by_0.is_empty());

    // Wait for node 0 to learn alice is at node 1 (directory gossip).
    let deadline = Instant::now() + Duration::from_secs(5);
    while cluster.node(0).core().remote_signon_count(1) == 0 {
        assert!(Instant::now() < deadline, "gossip never converged");
        std::thread::sleep(Duration::from_millis(5));
    }

    const TOTAL: usize = 60;
    let inject = |m: usize| {
        let fields = vec![
            (
                "mission".to_owned(),
                Value::Id(owned_by_0[m % owned_by_0.len()]),
            ),
            ("intInfo".to_owned(), Value::Int(m as i64)),
        ];
        injector
            .external_event("sensor", fields)
            .expect("inject at node 0")
    };
    for m in 0..TOTAL / 3 {
        assert_eq!(inject(m), 1, "one sensor hit → one alice notification");
    }

    // Node 1 goes dark: its sessions drop, the 0 → 1 peer link dies.
    cluster.kill(1);
    for m in TOTAL / 3..2 * TOTAL / 3 {
        // Detection still happens at node 0; alice's notifications park in
        // node 0's durable queue because her node is unreachable.
        assert_eq!(inject(m), 1);
    }

    // Restart node 1; alice's client transparently resumes, re-signs on,
    // gossip re-announces her, and the pump drains the backlog.
    cluster.restart(1);
    for m in 2 * TOTAL / 3..TOTAL {
        assert_eq!(inject(m), 1);
    }

    let got = drain_exact(&alice, TOTAL, "alice after kill/restart");
    // Exactly once, in order: intInfo replays the injection index 0..TOTAL.
    let seen: Vec<i64> = got.iter().filter_map(|n| n.int_info).collect();
    let want: Vec<i64> = (0..TOTAL as i64).collect();
    assert_eq!(seen.len(), TOTAL, "lost or duplicated across the hop");
    let mut sorted = seen.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, want, "delivery is not exactly-once");
    // Per-instance order (global order holds per instance here because the
    // driver injects serially).
    let mut per_instance: BTreeMap<u64, Vec<i64>> = BTreeMap::new();
    for n in &got {
        per_instance
            .entry(n.process_instance.raw())
            .or_default()
            .push(n.int_info.unwrap());
    }
    for (inst, seq) in per_instance {
        let mut expect = seq.clone();
        expect.sort_unstable();
        assert_eq!(seq, expect, "instance {inst}: out-of-order delivery");
    }
    assert!(
        alice.reconnects() >= 1,
        "the kill/restart never actually broke alice's session"
    );
    cluster.shutdown();
}

/// A dead peer yields a typed error at the ingest point instead of hanging:
/// forwarding to a killed node fails fast with `PeerUnavailable`.
#[test]
fn dead_peer_is_a_typed_error_not_a_hang() {
    let cluster = LoopbackCluster::start(2, NetConfig::default(), &setup_hit_only);
    let raw_owned_by_1 = (1..200u64)
        .find(|&raw| cluster.cluster().owner_of_instance(raw) == 1)
        .unwrap();
    cluster.kill(1);
    let t0 = Instant::now();
    let err = cluster
        .node(0)
        .external_event(
            "sensor",
            vec![("mission".to_owned(), Value::Id(raw_owned_by_1))],
        )
        .unwrap_err();
    assert!(
        matches!(err, cmi::fed::FedError::PeerUnavailable { node: 1, .. }),
        "expected PeerUnavailable, got: {err}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "dead-peer failure was not fast"
    );
    // Local instances keep working while the peer is down.
    let raw_owned_by_0 = (1..200u64)
        .find(|&raw| cluster.cluster().owner_of_instance(raw) == 0)
        .unwrap();
    let count = cluster
        .node(0)
        .external_event(
            "sensor",
            vec![("mission".to_owned(), Value::Id(raw_owned_by_0))],
        )
        .unwrap();
    assert_eq!(count, 1, "locally owned instances must not be wedged");
    cluster.shutdown();
}

/// Service-model integration: an SLA violation raised at one node routes to
/// the node owning the consumer's process instance (where a direct local
/// ingest would have been dropped by the partition filter), and the
/// notification routes back to wherever the duty officer is signed on.
#[test]
fn service_violations_federate_to_the_owning_node() {
    use cmi::awareness::builder::AwarenessSchemaBuilder;
    use cmi::core::participant::ParticipantKind;
    use cmi::core::roles::RoleSpec;
    use cmi::events::operators::ExternalFilter;
    use cmi::service::{QualityOfService, SelectionPolicy, ServiceEngine, VIOLATION_SOURCE};

    // Identical registration order on both nodes keeps every id aligned;
    // the ids surface through this cell (same values from each node).
    let ids = std::sync::Mutex::new(None);
    let setup = |cmi: &CmiServer| {
        let repo = cmi.repository();
        let ss =
            repo.register_state_schema(ActivityStateSchema::generic(repo.fresh_state_schema_id()));
        let iface = repo.fresh_activity_schema_id();
        repo.register_activity_schema(
            ActivitySchemaBuilder::basic(iface, "LabAnalysis", ss.clone())
                .build()
                .unwrap(),
        );
        let pid = repo.fresh_activity_schema_id();
        let mut pb = ActivitySchemaBuilder::process(pid, "Mission", ss);
        pb.activity_var("analysis", iface, true).unwrap();
        repo.register_activity_schema(pb.build().unwrap());
        let duty = cmi.directory().add_user("duty");
        let officers = cmi.directory().add_role("duty-officers").unwrap();
        cmi.directory().assign(duty, officers).unwrap();
        let bot = cmi
            .directory()
            .add_participant("lab-bot", ParticipantKind::Program);
        let mut b =
            AwarenessSchemaBuilder::new(cmi.fresh_awareness_id(), "sla-violations", pid);
        let filt = b
            .external_filter(ExternalFilter::new(
                pid,
                VIOLATION_SOURCE,
                Some("consumerInstance"),
            ))
            .unwrap();
        cmi.register_awareness(
            b.deliver_to(filt, RoleSpec::org("duty-officers"))
                .describe("a lab-analysis agreement was violated")
                .build()
                .unwrap(),
        );
        *ids.lock().unwrap() = Some((pid, iface, bot));
    };
    let cluster = LoopbackCluster::start(2, NetConfig::default(), &setup);
    let (pid, iface, bot) = ids.lock().unwrap().unwrap();

    // The service engine lives at node 0; violations federate from there.
    let node0 = cluster.node(0).cmi().clone();
    let services = ServiceEngine::new(
        node0.coordination().clone(),
        Some(node0.awareness().clone()),
    );
    services.registry().publish(
        "lab-analysis",
        "lab",
        iface,
        bot,
        QualityOfService::new(cmi::core::time::Duration::from_mins(30), 0.9, 50),
    );
    cluster.node(0).federate_service(&services);

    // The duty officer watches from node 0; wait until node 1 knows it.
    let duty = cluster.connect(0, "duty", client_cfg()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while cluster.node(1).core().remote_signon_count(0) == 0 {
        assert!(Instant::now() < deadline, "gossip never converged");
        std::thread::sleep(Duration::from_millis(5));
    }

    // A consumer process whose instance is OWNED BY NODE 1: the violation
    // event must cross the peer link to be detected at all.
    let pi = (0..50)
        .map(|_| node0.coordination().start_process(pid, None).unwrap())
        .find(|pi| cluster.cluster().owner_of_instance(pi.raw()) == 1)
        .expect("no node-1-owned instance in 50 starts");
    let agreement = services
        .invoke(pi, "analysis", "lab-analysis", SelectionPolicy::Fastest, None, 1.0)
        .unwrap();
    node0
        .clock()
        .advance(cmi::core::time::Duration::from_hours(2)); // blow the SLA
    let settled = services.complete(agreement.invocation).unwrap();
    assert!(settled.is_violated());

    // Detected at node 1, routed back to node 0, delivered to the officer.
    let got = drain_exact(&duty, 1, "duty officer");
    assert_eq!(got[0].process_instance, pi);
    assert!(got[0].description.contains("lab-analysis"));
    // Node 0's own engine never saw the detection: its queue only holds what
    // the peer routed back (which drain_exact just consumed and acked).
    assert_eq!(
        cluster.node(1).core().remote_signon_count(0),
        1,
        "gossip view lost the duty officer"
    );
    cluster.shutdown();
}

/// Sanity: the partitioner actually spreads this workload across all three
/// nodes (otherwise the differential proves nothing about forwarding).
#[test]
fn workload_instances_span_all_nodes() {
    let cluster = cmi::fed::ClusterConfig::loopback(3);
    let mut owners = std::collections::BTreeSet::new();
    for raw in 1..=12u64 {
        owners.insert(cluster.owner_of_instance(raw));
    }
    assert_eq!(owners.len(), 3, "instances 1..=12 must span all nodes: {owners:?}");
}
