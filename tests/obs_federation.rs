//! Cluster-wide observability (PR 8 acceptance scenario).
//!
//! A detection that spans three nodes — ingest at one, operator firing at
//! the instance's owner, delivery at the subscriber's sign-on node — must
//! be observable as ONE story from any node of the cluster:
//!
//! * A single `telemetry_cluster` query returns every live node's metrics
//!   merged under `node="<id>"` labels, with `# HELP`/`# TYPE` headers
//!   deduplicated across nodes.
//! * The cross-node detection trace renders its hop segments in causal
//!   order (ingest → owner → sign-on) with the per-hop stage stamps
//!   (`fwd-send`/`fwd-recv`, `route-send`/`route-recv`, `push`, `ack`).
//! * A killed peer degrades to a stale-marked section within the link
//!   timeout — the scrape never hangs.
//! * Membership transitions leave an epoch/handoff timeline in the merged
//!   flight-recorder dump.

use std::time::{Duration, Instant};

use cmi::awareness::system::CmiServer;
use cmi::core::schema::ActivitySchemaBuilder;
use cmi::core::state_schema::ActivityStateSchema;
use cmi::core::value::Value;
use cmi::fed::testkit::ElasticCluster;
use cmi::fed::FedConfig;
use cmi::net::client::{ClientConfig, ServerTelemetry};
use cmi::net::server::NetConfig;

/// Identical world on every node: a `Mission` process, alice behind
/// `w-alice` (the only recipient), bob provisioned for scraper sessions.
fn setup(cmi: &CmiServer) {
    let repo = cmi.repository();
    let ss = repo.register_state_schema(ActivityStateSchema::generic(repo.fresh_state_schema_id()));
    let pid = repo.fresh_activity_schema_id();
    repo.register_activity_schema(
        ActivitySchemaBuilder::process(pid, "Mission", ss)
            .build()
            .unwrap(),
    );
    for (user, role) in [("alice", "w-alice"), ("bob", "w-bob")] {
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

/// Short peer timeouts so a dead node degrades the scrape quickly.
fn fed_cfg() -> FedConfig {
    let mut cfg = FedConfig::default();
    cfg.peer.response_timeout = Duration::from_millis(500);
    cfg.peer.dial_patience = Duration::from_millis(300);
    cfg
}

/// An instance id whose rendezvous owner under `cluster.node(0)`'s current
/// view is `owner`.
fn instance_owned_by(cluster: &ElasticCluster, owner: u32) -> u64 {
    let view = cluster.node(0).core().cluster();
    (1..2000u64)
        .find(|&raw| view.owner_of_instance(raw) == owner)
        .expect("some instance maps to the requested owner")
}

/// Polls `scrape` until `ok` accepts the snapshot (returning it) or the
/// deadline passes (panicking with the last snapshot).
fn scrape_until(
    mut scrape: impl FnMut() -> ServerTelemetry,
    ok: impl Fn(&ServerTelemetry) -> bool,
    what: &str,
) -> ServerTelemetry {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let t = scrape();
        if ok(&t) {
            return t;
        }
        assert!(
            Instant::now() < deadline,
            "{what} never converged; last exposition:\n{}\nlast trace:\n{:?}",
            t.exposition,
            t.trace
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// One event ingested at node 0, detected at owner node 1, delivered to
/// alice at node 2 — and the whole story scraped from node 0 alone.
#[test]
fn cluster_scrape_merges_nodes_and_splices_the_cross_node_trace() {
    let cluster = ElasticCluster::start(3, 3, NetConfig::default(), fed_cfg(), &setup);
    let alice = cluster.connect(2, "alice", ClientConfig::default()).unwrap();
    let viewer = alice.viewer();
    viewer.subscribe().unwrap();
    // The owner (node 1) must know alice signed on at node 2 before it can
    // route the notification there.
    let deadline = Instant::now() + Duration::from_secs(10);
    while cluster.node(1).core().remote_signon_count(2) == 0 {
        assert!(Instant::now() < deadline, "sign-on gossip never reached node 1");
        std::thread::sleep(Duration::from_millis(5));
    }

    let mine = instance_owned_by(&cluster, 1);
    let routed = cluster
        .node(0)
        .external_event("sensor", vec![("mission".into(), Value::Id(mine))])
        .expect("event routes to the owner");
    assert_eq!(routed, 1, "one notification enqueued cluster-wide");
    let n = viewer.recv(Duration::from_secs(10)).expect("pushed to alice");
    assert_eq!(n.schema_name, "AS_Hit");

    let scraper = cluster.connect(0, "bob", ClientConfig::default()).unwrap();
    let t = scrape_until(
        || scraper.telemetry_cluster(true).unwrap(),
        |t| {
            let tr = t.trace.as_deref().unwrap_or("");
            ["fwd-send", "fwd-recv", "route-send", "route-recv", "push", "ack"]
                .iter()
                .all(|s| tr.contains(&format!("stage {s}:")))
        },
        "cross-node trace",
    );

    // Every node's metrics appear once, node-labeled, headers deduplicated.
    for node in 0..3 {
        assert!(
            t.exposition.contains(&format!("node=\"{node}\"")),
            "merged exposition misses node {node}:\n{}",
            t.exposition
        );
    }
    assert_eq!(
        t.exposition
            .lines()
            .filter(|l| *l == "# TYPE cmi_queue_enqueued counter")
            .count(),
        1,
        "TYPE headers must merge across nodes:\n{}",
        t.exposition
    );
    assert!(!t.exposition.contains("STALE"), "{}", t.exposition);

    // The spliced trace tells the three-hop story in causal order.
    let trace = t.trace.expect("cluster scrape carries the trace dump");
    let ingest = trace.find("[ingest @ node 0]").expect(&trace);
    let owner = trace.find("[owner @ node 1]").expect(&trace);
    let signon = trace.find("[sign-on @ node 2]").expect(&trace);
    assert!(
        ingest < owner && owner < signon,
        "hops out of causal order:\n{trace}"
    );
    // The owner hop carries the operator lineage and the detection.
    let owner_seg = &trace[owner..signon];
    assert!(owner_seg.contains("detection:"), "{trace}");
    assert!(owner_seg.contains("stage fwd-recv:"), "{trace}");
    assert!(owner_seg.contains("stage queue:"), "{trace}");
    assert!(owner_seg.contains("stage route-send:"), "{trace}");
    // The ingest hop stamped the forward; the sign-on hop the delivery.
    let ingest_seg = &trace[ingest..owner];
    assert!(ingest_seg.contains("stage fwd-send:"), "{trace}");
    let signon_seg = &trace[signon..];
    assert!(signon_seg.contains("stage route-recv:"), "{trace}");
    assert!(signon_seg.contains("stage push:"), "{trace}");
    assert!(signon_seg.contains("stage ack:"), "{trace}");

    // The flight dump is node-headed, one section per live node.
    let flight = t.flight.expect("flight requested");
    for node in 0..3 {
        assert!(
            flight.contains(&format!("=== node {node} ===")),
            "{flight}"
        );
    }

    // A plain (non-cluster) telemetry query still answers locally: node 0
    // never saw the detection, so its local trace dump has no owner hop.
    let local = scraper.telemetry(None, false).unwrap();
    assert!(!local.exposition.contains("node=\""), "{}", local.exposition);

    cluster.shutdown();
}

/// A dead peer must cost the scrape at most the link timeout and surface
/// as a stale-marked section, with the survivors' data intact.
#[test]
fn killed_peer_degrades_to_stale_section() {
    let cluster = ElasticCluster::start(3, 3, NetConfig::default(), fed_cfg(), &setup);
    let scraper = cluster.connect(0, "bob", ClientConfig::default()).unwrap();

    // Healthy scrape first: all three nodes answer.
    let t = scraper.telemetry_cluster(false).unwrap();
    assert!(!t.exposition.contains("STALE"), "{}", t.exposition);

    cluster.kill(1);
    let started = Instant::now();
    let t = scrape_until(
        || scraper.telemetry_cluster(false).unwrap(),
        |t| t.exposition.contains("# node 1 STALE"),
        "stale degradation",
    );
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "stale detection took {:?}",
        started.elapsed()
    );
    assert!(t.exposition.contains("node=\"0\""), "{}", t.exposition);
    assert!(t.exposition.contains("node=\"2\""), "{}", t.exposition);
    assert!(!t.exposition.contains("node=\"1\""), "{}", t.exposition);

    cluster.shutdown();
}

/// Membership transitions write an epoch/handoff timeline into the flight
/// recorder, visible in the merged cluster dump.
#[test]
fn membership_timeline_lands_in_the_flight_recorder() {
    let cluster = ElasticCluster::start(2, 3, NetConfig::default(), fed_cfg(), &setup);
    // Seed instances on the 2-node cluster so the join has partitions to
    // migrate (the rendezvous share of ~1/3 of these moves to node 2).
    for raw in 1..40u64 {
        cluster
            .node(0)
            .external_event("sensor", vec![("mission".into(), Value::Id(raw))])
            .unwrap();
    }
    let epoch = cluster.add_node(2, &setup);
    assert!(epoch >= 1);
    cluster.await_epoch(epoch);

    let scraper = cluster.connect(0, "bob", ClientConfig::default()).unwrap();
    let t = scrape_until(
        || scraper.telemetry_cluster(true).unwrap(),
        |t| {
            let f = t.flight.as_deref().unwrap_or("");
            f.contains("epoch-commit")
                && f.contains("handoff-start")
                && f.contains("handoff-finish")
        },
        "membership timeline",
    );
    let flight = t.flight.expect("flight requested");
    assert!(
        flight.contains(&format!("epoch-commit: epoch={epoch}")),
        "{flight}"
    );

    cluster.shutdown();
}

/// A schema hot-swap is observable cluster-wide: every node's
/// `cmi_schema_generation` gauge moves to the adopted generation in the
/// merged exposition, and the swap lands in the merged flight dump as a
/// `schema-swap[g<generation>]` record on every adopting node.
#[test]
fn schema_swap_lands_in_gauge_and_flight_recorder() {
    let cluster = ElasticCluster::start(2, 2, NetConfig::default(), fed_cfg(), &setup);
    let bob = cluster.connect(0, "bob", ClientConfig::default()).unwrap();
    let outcome = bob
        .schema_swap(
            r#"
            awareness "AS_Hit" on Mission {
                hit = external(sensor, mission)
                deliver hit to org(w-alice)
                describe "sensor hit"
            }
            awareness "AS_Gamma" on Mission {
                g = external(gamma, mission)
                deliver g to org(w-alice)
                describe "gamma probe"
            }
            "#,
        )
        .expect("swap over the wire");
    assert_eq!(outcome.generation, 1);

    let generation_on = |t: &ServerTelemetry, node: u32| {
        t.exposition.lines().any(|l| {
            l.starts_with("cmi_schema_generation")
                && l.contains(&format!("node=\"{node}\""))
                && l.trim_end().ends_with(" 1")
        })
    };
    let t = scrape_until(
        || bob.telemetry_cluster(true).unwrap(),
        |t| {
            generation_on(t, 0)
                && generation_on(t, 1)
                && t.flight.as_deref().unwrap_or("").matches("schema-swap[g1]").count() >= 2
        },
        "schema-swap telemetry",
    );
    let flight = t.flight.expect("flight requested");
    assert!(flight.contains("schema-swap[g1]"), "{flight}");

    cluster.shutdown();
}
