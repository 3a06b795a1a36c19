//! Federated directory differential: directory state created on one node
//! must become resolvable *everywhere* — without any test pre-provisioning —
//! via the `FedDirSync` delta stream, survive a full process restart through
//! the federation journal, and feed cluster-wide load figures into
//! least-loaded role assignment.
//!
//! * **Org sync**: a user + role created and populated on node A (only)
//!   resolve for delivery on node B, with the notification routed back to
//!   the subscriber's sign-on node.
//! * **Scoped sync**: a context + scoped role created on node A resolve at
//!   detection time on the instance's owner, node B.
//! * **Journal restart**: node B restarts as a brand-new process while node
//!   A is unreachable; the synced directory is rebuilt from B's own journal
//!   (not from a live resync).
//! * **Cluster-wide least-loaded**: a member's delivery load on its sign-on
//!   node is gossiped, so `least-loaded` assignment on another node avoids
//!   the busy member.
//! * **Load drain**: the per-user load gauges charged along the routed
//!   delivery path return to zero on *both* nodes once everything is acked.

use std::time::{Duration, Instant};

use cmi::awareness::queue::Notification;
use cmi::awareness::system::CmiServer;
use cmi::core::ids::{ProcessInstanceId, ProcessSchemaId};
use cmi::core::state_schema::ActivityStateSchema;
use cmi::core::schema::ActivitySchemaBuilder;
use cmi::core::value::Value;
use cmi::fed::testkit::{ElasticCluster, LoopbackCluster};
use cmi::fed::FedConfig;
use cmi::net::client::ClientConfig;
use cmi::net::server::NetConfig;

fn client_cfg() -> ClientConfig {
    ClientConfig {
        response_timeout: Duration::from_secs(5),
        heartbeat: Duration::from_millis(50),
        reconnect_attempts: 200,
        reconnect_backoff: Duration::from_millis(10),
    }
}

/// Registers the `Mission` schema and `specs` — and deliberately **no**
/// users, roles or contexts: the whole point is that directory state flows
/// through federation, not through identical pre-provisioning.
fn setup_specs_only(specs: &'static str) -> impl Fn(&CmiServer) {
    move |cmi: &CmiServer| {
        let repo = cmi.repository();
        let ss = repo
            .register_state_schema(ActivityStateSchema::generic(repo.fresh_state_schema_id()));
        let pid = repo.fresh_activity_schema_id();
        repo.register_activity_schema(
            ActivitySchemaBuilder::process(pid, "Mission", ss)
                .build()
                .unwrap(),
        );
        cmi.load_awareness_source(specs).unwrap();
    }
}

fn wait_until(label: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {label}");
        std::thread::sleep(Duration::from_millis(3));
    }
}

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
    std::thread::sleep(Duration::from_millis(100));
    let extra = conn.viewer().take(64).expect("viewer take");
    assert!(
        extra.is_empty(),
        "{label}: {} duplicate/extra notifications after drain",
        extra.len()
    );
    got
}

fn mission_event(instance: u64, tag: i64) -> (&'static str, Vec<(String, Value)>) {
    (
        "sensor",
        vec![
            ("mission".to_owned(), Value::Id(instance)),
            ("intInfo".to_owned(), Value::Int(tag)),
        ],
    )
}

fn instance_owned_by(cluster: &LoopbackCluster, node: u32) -> u64 {
    (1..10_000u64)
        .find(|&raw| cluster.cluster().owner_of_instance(raw) == node)
        .expect("an instance owned by the node")
}

const ORG_SPEC: &str = r#"
    awareness "AS_Hit" on Mission {
        hit = external(sensor, mission)
        deliver hit to org(w-team)
        describe "sensor hit"
    }
"#;

/// A role created and populated on node 0 *after* the cluster is up
/// resolves for delivery at the detecting node 1 — no pre-provisioning —
/// and the notification routes back to the subscriber at node 0.
#[test]
fn role_created_on_one_node_resolves_for_delivery_on_another() {
    let cluster = LoopbackCluster::start(2, NetConfig::default(), &setup_specs_only(ORG_SPEC));

    // All directory mutation happens on node 0.
    let dir0 = cluster.node(0).cmi().directory().clone();
    let dana = dir0.add_user("dana");
    let team = dir0.add_role("w-team").unwrap();
    dir0.assign(dana, team).unwrap();

    // Node 1 learns the user, the role, and the membership via FedDirSync.
    let node1 = cluster.node(1).clone();
    wait_until("directory sync to node 1", || {
        node1.cmi().directory().user_by_name("dana").is_some()
            && node1
                .cmi()
                .directory()
                .role_by_name("w-team")
                .and_then(|r| node1.cmi().directory().resolve(r).ok())
                .is_some_and(|snap| snap.to_vec() == vec![dana])
    });
    assert!(
        cluster.node(1).core().dir_watermark(0) >= 3,
        "node 1 should have applied node 0's participant/role/assign ops"
    );

    // Subscriber signs on at node 0; the event's instance is owned by node
    // 1, so detection-time resolution happens there against synced state.
    let conn = cluster.connect(0, "dana", client_cfg()).expect("connect dana");
    let inst = instance_owned_by(&cluster, 1);
    let (source, fields) = mission_event(inst, 7);
    let count = cluster
        .node(0)
        .external_event(source, fields)
        .expect("routed external event");
    assert_eq!(count, 1, "the synced role must fan out to exactly dana");
    let got = drain_exact(&conn, 1, "dana");
    assert_eq!(got[0].int_info, Some(7));
    assert_eq!(got[0].process_instance.raw(), inst);
    cluster.shutdown();
}

const SCOPED_SPEC: &str = r#"
    awareness "AS_Scoped" on Mission {
        hit = external(sensor, mission)
        deliver hit to scoped(TaskForceContext, Members)
        describe "scoped hit"
    }
"#;

/// A context + scoped role created on node 0 resolve at detection time on
/// the owning node 1 (context topology and membership both synced).
#[test]
fn scoped_role_created_on_one_node_resolves_on_the_instance_owner() {
    let cluster = LoopbackCluster::start(2, NetConfig::default(), &setup_specs_only(SCOPED_SPEC));
    let inst = instance_owned_by(&cluster, 1);

    let cmi0 = cluster.node(0).cmi().clone();
    let dana = cmi0.directory().add_user("dana");
    let ctx = cmi0.contexts().create(
        "TaskForceContext",
        Some((ProcessSchemaId(1), ProcessInstanceId(inst))),
    );
    cmi0.contexts().create_role(ctx, "Members", &[dana]).unwrap();

    let node1 = cluster.node(1).clone();
    wait_until("scoped role sync to node 1", || {
        node1
            .cmi()
            .contexts()
            .find("TaskForceContext", ProcessInstanceId(inst))
            .and_then(|c| node1.cmi().contexts().resolve_role(c, "Members").ok())
            .is_some_and(|members| members == vec![dana])
    });

    let conn = cluster.connect(0, "dana", client_cfg()).expect("connect dana");
    let (source, fields) = mission_event(inst, 11);
    let count = cluster
        .node(0)
        .external_event(source, fields)
        .expect("routed external event");
    assert_eq!(count, 1, "the synced scoped role must fan out to dana");
    let got = drain_exact(&conn, 1, "dana scoped");
    assert_eq!(got[0].int_info, Some(11));
    cluster.shutdown();
}

/// Synced directory state survives a full process restart of the receiver
/// via its federation journal — asserted while the origin node is
/// unreachable, so a live resync cannot be what rebuilt it.
#[test]
fn synced_directory_survives_full_restart_via_journal() {
    let dir = std::env::temp_dir().join(format!("cmi-dirlog-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create journal dir");
    let fed_cfg = FedConfig {
        journal_dir: Some(dir.clone()),
        ..FedConfig::default()
    };
    let setup = setup_specs_only(ORG_SPEC);
    let cluster = ElasticCluster::start(2, 2, NetConfig::default(), fed_cfg, &setup);

    let dir0 = cluster.node(0).cmi().directory().clone();
    let dana = dir0.add_user("dana");
    let team = dir0.add_role("w-team").unwrap();
    dir0.assign(dana, team).unwrap();

    let ops = cluster.node(0).core().dir_log().len();
    wait_until("directory sync to node 1", || {
        cluster.node(1).core().dir_watermark(0) >= ops
    });

    // Take node 0 off the network *before* restarting node 1: whatever the
    // restarted node knows can only have come from its own journal.
    cluster.kill(0);
    let node1 = cluster.respawn(1, &setup);
    let dana_back = node1
        .cmi()
        .directory()
        .user_by_name("dana")
        .expect("journal replay restores the synced participant");
    assert_eq!(dana_back, dana, "cluster-wide ids are stable across restart");
    let members = node1
        .cmi()
        .directory()
        .role_by_name("w-team")
        .and_then(|r| node1.cmi().directory().resolve(r).ok())
        .expect("journal replay restores the synced role");
    assert_eq!(members.to_vec(), vec![dana]);
    assert_eq!(
        node1.core().dir_watermark(0),
        ops,
        "the applied watermark survives, so nothing re-applies on reconnect"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

const POOL_SPEC: &str = r#"
    awareness "AS_Pool" on Mission {
        hit = external(sensor, mission)
        deliver hit to org(w-pool) assign least-loaded(1)
        describe "pooled hit"
    }
"#;

fn setup_pool(cmi: &CmiServer) {
    setup_specs_only(POOL_SPEC)(cmi);
    let dir = cmi.directory();
    let low = dir.add_user("u-low");
    let high = dir.add_user("u-high");
    let pool = dir.add_role("w-pool").unwrap();
    dir.assign(low, pool).unwrap();
    dir.assign(high, pool).unwrap();
}

/// `least-loaded` assignment on node 0 sees the load a member carries on
/// its sign-on node 1 (gossiped figures), and avoids the busy member.
#[test]
fn least_loaded_assignment_uses_gossiped_cluster_loads() {
    let cluster = LoopbackCluster::start(2, NetConfig::default(), &setup_pool);
    let high = cluster.node(0).cmi().directory().user_by_name("u-high").unwrap();

    let conn_low = cluster.connect(0, "u-low", client_cfg()).expect("connect u-low");
    let conn_high = cluster.connect(1, "u-high", client_cfg()).expect("connect u-high");

    // u-high gets busy on its sign-on node; the figure must reach node 0.
    cluster.node(1).cmi().directory().adjust_loads(&[(high, 10)]);
    wait_until("u-high's load gossips to node 0", || {
        cluster.node(0).cmi().directory().load_of(high) == Some(10)
    });

    // Detection (and the assignment decision) on node 0.
    let inst = instance_owned_by(&cluster, 0);
    let (source, fields) = mission_event(inst, 3);
    let count = cluster
        .node(0)
        .external_event(source, fields)
        .expect("routed external event");
    assert_eq!(count, 1, "least-loaded(1) selects exactly one member");
    let got = drain_exact(&conn_low, 1, "u-low");
    assert_eq!(got[0].int_info, Some(3));
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        conn_high.viewer().take(8).expect("take").is_empty(),
        "the busy member must not be selected"
    );
    cluster.shutdown();
}

const DRAIN_SPEC: &str = r#"
    awareness "AS_Hit" on Mission {
        hit = external(sensor, mission)
        deliver hit to org(w-dana)
        describe "sensor hit"
    }
"#;

fn setup_drain(cmi: &CmiServer) {
    setup_specs_only(DRAIN_SPEC)(cmi);
    let dir = cmi.directory();
    let dana = dir.add_user("dana");
    let r = dir.add_role("w-dana").unwrap();
    dir.assign(dana, r).unwrap();
}

/// The load accounting along the routed delivery path fully drains: after
/// every notification is routed, delivered and acked, the subscriber's
/// load gauge is zero on the detecting node *and* on the sign-on node.
#[test]
fn routed_delivery_load_drains_to_zero_after_acks() {
    let cluster = LoopbackCluster::start(2, NetConfig::default(), &setup_drain);
    let dana = cluster.node(0).cmi().directory().user_by_name("dana").unwrap();
    let conn = cluster.connect(1, "dana", client_cfg()).expect("connect dana");

    // Detection pinned to node 0, sign-on at node 1, so every notification
    // takes the routed hop and both charge sites are exercised.
    let inst = instance_owned_by(&cluster, 0);
    const EVENTS: usize = 5;
    for m in 0..EVENTS {
        let (source, fields) = mission_event(inst, m as i64);
        let count = cluster
            .node(0)
            .external_event(source, fields)
            .expect("routed external event");
        assert_eq!(count, 1);
    }
    let got = drain_exact(&conn, EVENTS, "dana drain");
    assert_eq!(got.len(), EVENTS);

    // Every charge must settle: the route-ack releases node 0's delivery
    // charges, the client acks release node 1's, and gossip converges the
    // mirrored figure.
    for node in 0..2 {
        let dir = cluster.node(node).cmi().directory().clone();
        wait_until("dana's load drains to zero", || dir.load_of(dana) == Some(0));
    }
    cluster.shutdown();
}
