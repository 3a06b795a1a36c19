//! Live schema hot-swap + the mining event-log loop (PR 10 acceptance).
//!
//! * A 3-node cluster under sensor load hot-swaps its awareness schema set
//!   from a client's `Request::SchemaSwap`: the generation propagates to
//!   every node, no in-flight sensor event is lost or duplicated, and a
//!   stateful `seq` composite *straddling* the swap — armed before, fired
//!   after, on a node that is not the swap origin — fires exactly once
//!   (its half-armed operator state survived both the local transplant and
//!   the federated propagation).
//! * The mining log of an original run, fetched over the wire as XES via
//!   `Request::FetchLog`, replays at ≥10× into a fresh oracle server and
//!   reproduces the identical detection multiset.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cmi::awareness::system::CmiServer;
use cmi::core::schema::ActivitySchemaBuilder;
use cmi::core::state_schema::ActivityStateSchema;
use cmi::core::value::Value;
use cmi::fed::testkit::LoopbackCluster;
use cmi::fed::{FedConfig, PeerConfig};
use cmi::mine::{detection_multiset, parse_xes};
use cmi::net::client::ClientConfig;
use cmi::net::server::NetConfig;
use cmi::workloads::{LogReplayer, ReplayParams};

/// Generation-1 schema set: a stateless hit filter (the load carrier) and
/// a stateful two-step sequence composite.
const V1: &str = r#"
    awareness "AS_Hit" on Mission {
        hit = external(sensor, mission)
        deliver hit to org(w-alice)
        describe "sensor hit"
    }
    awareness "AS_Seq" on Mission {
        a = external(alpha, mission)
        b = external(beta, mission)
        s = seq(1, a, b)
        deliver s to org(w-alice)
        describe "alpha then beta"
    }
"#;

/// Generation-2 set: `AS_Hit` and `AS_Seq` byte-identical (their DAG nodes
/// are *untouched* — state must carry across), plus a new schema (the DAG
/// really changes, so the swap is not a no-op).
const V2: &str = r#"
    awareness "AS_Hit" on Mission {
        hit = external(sensor, mission)
        deliver hit to org(w-alice)
        describe "sensor hit"
    }
    awareness "AS_Seq" on Mission {
        a = external(alpha, mission)
        b = external(beta, mission)
        s = seq(1, a, b)
        deliver s to org(w-alice)
        describe "alpha then beta"
    }
    awareness "AS_Gamma" on Mission {
        g = external(gamma, mission)
        deliver g to org(w-alice)
        describe "gamma probe"
    }
"#;

fn setup(cmi: &CmiServer) {
    let repo = cmi.repository();
    let ss = repo.register_state_schema(ActivityStateSchema::generic(repo.fresh_state_schema_id()));
    let pid = repo.fresh_activity_schema_id();
    repo.register_activity_schema(
        ActivitySchemaBuilder::process(pid, "Mission", ss)
            .build()
            .unwrap(),
    );
    let u = cmi.directory().add_user("alice");
    let r = cmi.directory().add_role("w-alice").unwrap();
    cmi.directory().assign(u, r).unwrap();
    cmi.load_awareness_source(V1).unwrap();
}

fn client_cfg() -> ClientConfig {
    ClientConfig {
        response_timeout: Duration::from_secs(5),
        heartbeat: Duration::from_millis(50),
        reconnect_attempts: 100,
        reconnect_backoff: Duration::from_millis(10),
    }
}

fn fed_cfg() -> FedConfig {
    FedConfig {
        peer: PeerConfig {
            response_timeout: Duration::from_millis(500),
            batch_events: 8,
            batch_deadline: Duration::from_millis(2),
            window_batches: 2,
            dial_patience: Duration::from_secs(30),
        },
        ..FedConfig::default()
    }
}

fn await_generation(cluster: &LoopbackCluster, generation: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    for i in 0..cluster.len() {
        while cluster.node(i).core().schema_generation() < generation {
            assert!(
                Instant::now() < deadline,
                "node {i} never adopted swap generation {generation}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// The tentpole acceptance scenario: a 3-node cluster under load
/// hot-swaps without dropping in-flight operator state for untouched DAG
/// nodes — the half-armed `seq` straddling the swap fires exactly once.
#[test]
fn three_node_hot_swap_under_load_preserves_straddling_seq_state() {
    let cluster = Arc::new(LoopbackCluster::start_with(
        3,
        NetConfig::default(),
        fed_cfg(),
        &setup,
    ));
    let alice = cluster.connect(0, "alice", client_cfg()).unwrap();
    // Gossip must converge before load: every peer knows alice signs on at
    // node 0 so routed notifications have somewhere to go.
    let deadline = Instant::now() + Duration::from_secs(5);
    for peer in [1usize, 2] {
        while cluster.node(peer).core().remote_signon_count(0) == 0 {
            assert!(Instant::now() < deadline, "gossip never converged");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    // The straddling composite lives at a node that is NOT the swap
    // origin: its state must survive the *federated* swap propagation.
    let view = cluster.cluster().clone();
    let seq_inst = (1..2000u64)
        .find(|&raw| view.owner_of_instance(raw) == 1)
        .expect("an instance owned by node 1");
    // Arm the sequence: alpha ingested at node 0, detected at node 1.
    assert_eq!(
        cluster
            .node(0)
            .external_event(
                "alpha",
                vec![
                    ("mission".to_owned(), Value::Id(seq_inst)),
                    ("intInfo".to_owned(), Value::Int(-1)),
                ],
            )
            .expect("arm the seq"),
        0,
        "alpha alone must not fire the sequence"
    );

    // Sensor load across all three nodes, concurrent with the swap.
    const THREADS: usize = 3;
    const PER_THREAD: usize = 40;
    const TOTAL: usize = THREADS * PER_THREAD;
    let done = Arc::new(AtomicUsize::new(0));
    let mut workers = Vec::new();
    for t in 0..THREADS {
        let cluster = Arc::clone(&cluster);
        let done = Arc::clone(&done);
        workers.push(std::thread::spawn(move || {
            for k in 0..PER_THREAD {
                let m = t * PER_THREAD + k;
                let fields = vec![
                    ("mission".to_owned(), Value::Id(1 + (m as u64 % 97))),
                    ("intInfo".to_owned(), Value::Int(m as i64)),
                ];
                let count = cluster
                    .node(t)
                    .external_event("sensor", fields)
                    .expect("inject under swap");
                assert_eq!(count, 1, "one sensor hit → one alice notification");
                done.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }

    // Swap mid-load, over the wire, at node 0.
    let deadline = Instant::now() + Duration::from_secs(10);
    while done.load(Ordering::Relaxed) < TOTAL / 3 {
        assert!(Instant::now() < deadline, "injectors stalled before the swap");
        std::thread::sleep(Duration::from_millis(1));
    }
    let outcome = alice.schema_swap(V2).expect("schema swap over the wire");
    assert_eq!(outcome.generation, 1, "first cluster swap is generation 1");
    assert!(outcome.added > 0, "V2 adds a schema: {outcome:?}");
    assert!(
        outcome.preserved > 0,
        "untouched AS_Hit/AS_Seq nodes must be preserved: {outcome:?}"
    );
    await_generation(&cluster, outcome.generation);
    for w in workers {
        w.join().expect("injector thread");
    }

    // Fire the second half of the straddling sequence from yet another
    // node; the armed state at node 1 predates the swap.
    assert_eq!(
        cluster
            .node(2)
            .external_event(
                "beta",
                vec![
                    ("mission".to_owned(), Value::Id(seq_inst)),
                    ("intInfo".to_owned(), Value::Int(-2)),
                ],
            )
            .expect("complete the seq"),
        1,
        "beta after the swap must fire the preserved sequence exactly once"
    );
    // And the V2-only schema is live cluster-wide: gamma detects at a
    // non-origin node too.
    assert_eq!(
        cluster
            .node(1)
            .external_event(
                "gamma",
                vec![
                    ("mission".to_owned(), Value::Id(seq_inst)),
                    ("intInfo".to_owned(), Value::Int(-3)),
                ],
            )
            .expect("gamma probe"),
        1,
        "the added V2 schema must be live at every node"
    );

    // Exactly-once across the swap: every sensor index once, the seq
    // detection once, the gamma probe once — nothing lost, nothing doubled.
    let mut got = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(20);
    while got.len() < TOTAL + 2 {
        let batch = alice.viewer().take(64).expect("viewer take");
        if batch.is_empty() {
            assert!(
                Instant::now() < deadline,
                "timed out with {} of {} notifications",
                got.len(),
                TOTAL + 2
            );
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        got.extend(batch);
    }
    std::thread::sleep(Duration::from_millis(150));
    let extra = alice.viewer().take(64).expect("viewer take");
    assert!(extra.is_empty(), "{} duplicate notifications", extra.len());
    let mut sensor: Vec<i64> = got
        .iter()
        .filter(|n| n.schema_name == "AS_Hit")
        .filter_map(|n| n.int_info)
        .collect();
    sensor.sort_unstable();
    let want: Vec<i64> = (0..TOTAL as i64).collect();
    assert_eq!(sensor, want, "swap-under-load delivery is not exactly-once");
    assert_eq!(
        got.iter().filter(|n| n.schema_name == "AS_Seq").count(),
        1,
        "the straddling seq must fire exactly once"
    );
    assert_eq!(
        got.iter().filter(|n| n.schema_name == "AS_Gamma").count(),
        1,
        "the V2-only schema must fire exactly once"
    );
    assert_eq!(got.len(), TOTAL + 2, "no stray notifications");
    cluster.shutdown();
}

/// The mining loop: an original run's log, fetched over the wire as XES,
/// replays at ≥10× into a fresh oracle and reproduces the identical
/// detection multiset.
#[test]
fn fetched_xes_log_replays_at_ten_x_with_identical_detections() {
    let mine_setup = |cmi: &CmiServer| {
        setup(cmi);
        cmi.enable_mine_log(4096);
    };
    let cluster = LoopbackCluster::start(1, NetConfig::default(), &mine_setup);
    let alice = cluster.connect(0, "alice", client_cfg()).unwrap();
    let clock = cluster.node(0).cmi().clock().clone();

    // The original run: sensor hits and two straddled sequences, with
    // real simulated gaps (500 ms apart — 30 s of scenario time).
    const EVENTS: usize = 60;
    let mut span_ms = 0u64;
    for m in 0..EVENTS {
        clock.advance(cmi::core::time::Duration::from_millis(500));
        span_ms += 500;
        let (source, inst) = match m {
            10 => ("alpha", 7u64),
            30 => ("beta", 7),
            20 => ("alpha", 8),
            50 => ("beta", 8),
            _ => ("sensor", 1 + (m as u64 % 13)),
        };
        alice
            .external_event(
                source,
                vec![
                    ("mission".to_owned(), Value::Id(inst)),
                    ("intInfo".to_owned(), Value::Int(m as i64)),
                ],
            )
            .expect("inject original run");
    }
    let baseline = detection_multiset(
        &cluster.node(0).cmi().mine_log().expect("mine log enabled").records(),
    );
    assert!(
        baseline.values().sum::<u64>() >= EVENTS as u64 - 4 + 2,
        "original run detections missing: {baseline:?}"
    );

    // Fetch the log over the wire in XES form and parse it back.
    let xes = alice.fetch_log(false).expect("FetchLog over the wire");
    let records = parse_xes(std::str::from_utf8(&xes).expect("utf8 XES")).expect("parse XES");

    // Replay into a fresh oracle at 10x: scenario gaps of 500 ms become
    // 50 ms of wall pacing each.
    let oracle = CmiServer::new();
    mine_setup(&oracle);
    let oracle_log = oracle.mine_log().expect("oracle mine log");
    let replayer = LogReplayer::new(
        records,
        ReplayParams {
            multiplier: 10.0,
            max_gap: Duration::from_millis(50),
        },
    );
    let report = replayer.run(&oracle);
    assert_eq!(report.injected, EVENTS, "every external record re-injects");
    assert!(
        report.wall.as_millis() as u64 <= span_ms / 5,
        "10x replay took {:?} for a {span_ms} ms scenario",
        report.wall
    );
    assert_eq!(
        detection_multiset(&oracle_log.records()),
        baseline,
        "replay must reproduce the original detection multiset"
    );
    // The mined variants see the replayed cases too.
    assert!(report.stats.cases >= 2, "mining stats: {:?}", report.stats);
    cluster.shutdown();
}
