//! Elastic membership differential: epoch-fenced view changes with live
//! instance migration must be invisible to subscribers.
//!
//! Every scenario drives a loopback cluster through a membership
//! transition *while a seeded workload streams in* and asserts the cluster
//! stays observationally equivalent to one unsharded `CmiServer` oracle:
//! identical per-subscriber notification multisets, exact per-(user,
//! process instance) order, and composite detections that straddle a
//! migration firing exactly once on the new owner.
//!
//! * **Join**: 2 → 3 under load; the joiner's rendezvous share of
//!   instances (operator state included) migrates to it mid-stream.
//! * **Graceful leave**: 3 → 2 under load; the leaver hands off every
//!   owned instance before disappearing.
//! * **Hard kill + eviction**: a member dies without hand-off; forwards to
//!   it fail with a typed error naming the owner, eviction commits a new
//!   view, and the survivors absorb its partitions.
//! * **Fencing**: a data-plane frame stamped with a stale epoch is
//!   rejected typed (`Response::Fenced`), mutates nothing, and the same
//!   frame under the adopted epoch ingests normally.
//! * **Gossip versioning**: a reordered stale sign-on frame cannot
//!   clobber a newer directory.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cmi::awareness::queue::Notification;
use cmi::awareness::system::CmiServer;
use cmi::core::state_schema::ActivityStateSchema;
use cmi::core::schema::ActivitySchemaBuilder;
use cmi::core::value::Value;
use cmi::fed::node::series;
use cmi::fed::testkit::{ElasticCluster, LoopbackCluster};
use cmi::fed::{FedConfig, FedError};
use cmi::net::client::ClientConfig;
use cmi::net::server::{FederationHooks, NetConfig};
use cmi::net::wire::{FedEventBody, Request, Response};

/// Identical world on every node and on the oracle (same shape as the
/// static federation differential): a `Mission` process, three subscribers
/// behind org roles, and stateless + stateful + sequential awareness.
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

/// Stateless-only world for the hard-kill scenario (an evicted node's
/// operator state is legitimately lost; a stateless filter keeps the
/// oracle comparison exact).
fn setup_hit_only(cmi: &CmiServer) {
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

/// Deterministic xorshift stream so every run replays the same workload.
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

/// Asserts per-subscriber multiset equality and exact per-instance order
/// against the oracle's queue.
fn assert_matches_oracle(
    oracle: &CmiServer,
    subs: &[(&cmi::net::client::Connection, &str)],
    label: &str,
) {
    for (conn, name) in subs {
        let u = oracle.directory().user_by_name(name).unwrap();
        let want = oracle.awareness().queue().fetch(u, usize::MAX);
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
            per_instance(&want),
            per_instance(&got),
            "{name} ({label}): per-instance notification order differs"
        );
    }
}

fn advance_clocks(cluster: &ElasticCluster, oracle: &CmiServer) {
    for id in cluster.live_ids() {
        cluster
            .node(id as usize)
            .cmi()
            .clock()
            .advance(cmi::core::time::Duration::from_millis(10));
    }
    oracle
        .clock()
        .advance(cmi::core::time::Duration::from_millis(10));
}

/// Join under load: a 2-node cluster grows to 3 while the seeded workload
/// streams; the joiner's share of instances — per-instance operator state
/// included — migrates over mid-stream, and the differential stays exact.
#[test]
fn join_rebalance_under_load_matches_oracle() {
    let cluster = ElasticCluster::start(2, 3, NetConfig::default(), FedConfig::default(), &setup);
    let oracle = CmiServer::new();
    setup(&oracle);

    let alice = cluster.connect(0, "alice", client_cfg()).unwrap();
    let bob = cluster.connect(1, "bob", client_cfg()).unwrap();
    let carol = cluster.connect(0, "carol", client_cfg()).unwrap();

    let mut rng = Rng(0x5EED_1001);
    const EVENTS: usize = 240;
    // The join commits (and migration starts) while the second third of
    // the stream is in flight.
    let join_at = EVENTS / 3;
    let mut join_epoch = 0u64;
    for m in 0..EVENTS {
        if m % 10 == 0 {
            advance_clocks(&cluster, &oracle);
        }
        if m == join_at {
            join_epoch = cluster.add_node(2, &setup);
            assert!(join_epoch >= 1, "join must commit a fresh epoch");
        }
        let (source, fields) = event_for(m, &mut rng);
        let via = m % 2; // always inject through the old members
        let fed_count = cluster
            .node(via)
            .external_event(source, fields.clone())
            .expect("federated external event");
        let oracle_count = oracle.external_event(source, fields) as u64;
        assert_eq!(
            fed_count, oracle_count,
            "event {m}: cluster-wide delivery count diverged from oracle"
        );
    }
    cluster.await_epoch(join_epoch);

    // The joiner really owns part of the keyspace under the new view.
    let grown = cluster.node(0).core().cluster();
    assert!(
        (1..=12u64).any(|raw| grown.owner_of_instance(raw) == 2),
        "the joiner owns none of the workload instances — rebalance proves nothing"
    );
    // Every member converged on the same epoch, and the epoch gauge agrees.
    for id in cluster.live_ids() {
        let node = cluster.node(id as usize);
        assert_eq!(node.core().current_epoch(), join_epoch, "node {id} epoch");
        assert_eq!(
            node.cmi().obs().gauge(series::EPOCH).get(),
            join_epoch as i64,
            "node {id} epoch gauge"
        );
    }

    assert_matches_oracle(
        &oracle,
        &[(&alice, "alice"), (&bob, "bob"), (&carol, "carol")],
        "join",
    );
    cluster.shutdown();
}

/// Graceful leave under load: a 3-node cluster shrinks to 2 mid-stream;
/// the leaver hands off every owned instance (state intact) and its parked
/// notifications drain before it disappears.
#[test]
fn graceful_leave_under_load_matches_oracle() {
    let cluster = ElasticCluster::start(3, 3, NetConfig::default(), FedConfig::default(), &setup);
    let oracle = CmiServer::new();
    setup(&oracle);

    // No subscriber signs on at the leaver (its client sessions would drop
    // with it — that is a client-failover story, not a membership one).
    let alice = cluster.connect(0, "alice", client_cfg()).unwrap();
    let bob = cluster.connect(1, "bob", client_cfg()).unwrap();
    let carol = cluster.connect(0, "carol", client_cfg()).unwrap();

    let mut rng = Rng(0x5EED_2002);
    const EVENTS: usize = 240;
    let leave_at = EVENTS / 2;
    for m in 0..EVENTS {
        if m % 10 == 0 {
            advance_clocks(&cluster, &oracle);
        }
        if m == leave_at {
            let leave_epoch = cluster.remove_node(2);
            assert!(leave_epoch >= 1, "leave must commit a fresh epoch");
            cluster.await_epoch(leave_epoch);
        }
        let (source, fields) = event_for(m, &mut rng);
        let via = m % 2; // survivors only
        let fed_count = cluster
            .node(via)
            .external_event(source, fields.clone())
            .expect("federated external event");
        let oracle_count = oracle.external_event(source, fields) as u64;
        assert_eq!(
            fed_count, oracle_count,
            "event {m}: cluster-wide delivery count diverged from oracle"
        );
    }
    assert_eq!(cluster.live_ids(), vec![0, 1]);
    let shrunk = cluster.node(0).core().cluster();
    assert!(!shrunk.is_member(2), "the leaver lingers in the view");

    assert_matches_oracle(
        &oracle,
        &[(&alice, "alice"), (&bob, "bob"), (&carol, "carol")],
        "leave",
    );
    cluster.shutdown();
}

/// Hard kill + eviction: a member dies with no hand-off. Forwards to it
/// fail with a typed `PeerUnavailable` naming the owner under the current
/// view; eviction commits a new view; re-injection of the failed events
/// succeeds under it — exactly once overall.
#[test]
fn hard_kill_then_eviction_recovers() {
    let cluster = ElasticCluster::start(3, 3, NetConfig::default(), FedConfig::default(), &setup_hit_only);
    let oracle = CmiServer::new();
    setup_hit_only(&oracle);

    let alice = cluster.connect(0, "alice", client_cfg()).unwrap();
    let seed = cluster.node(0).core().cluster();
    let inject = |m: usize, instance: u64| -> Result<u64, FedError> {
        let fields = vec![
            ("mission".to_owned(), Value::Id(instance)),
            ("intInfo".to_owned(), Value::Int(m as i64)),
        ];
        cluster.node(0).external_event("sensor", fields)
    };
    let oracle_inject = |m: usize, instance: u64| {
        let fields = vec![
            ("mission".to_owned(), Value::Id(instance)),
            ("intInfo".to_owned(), Value::Int(m as i64)),
        ];
        oracle.external_event("sensor", fields)
    };

    // Phase A spans all three owners; drain it fully so nothing for alice
    // is parked at node 2 when it dies (a dead node's parked queue is the
    // documented loss mode of a hard kill — eviction is not a backup).
    let mut m = 0usize;
    let mut oracle_total = 0usize;
    for instance in 1..=12u64 {
        assert_eq!(inject(m, instance).unwrap(), 1);
        oracle_total += oracle_inject(m, instance);
        m += 1;
    }
    let _ = drain_exact(&alice, oracle_total, "alice phase A");
    let _ = oracle
        .awareness()
        .queue()
        .fetch(oracle.directory().user_by_name("alice").unwrap(), usize::MAX);

    // Node 2 dies hard. A forward to an instance it owns fails typed,
    // naming the owner under the *current* view.
    cluster.kill(2);
    let owned_by_2 = (1..=12u64)
        .filter(|&raw| seed.owner_of_instance(raw) == 2)
        .collect::<Vec<_>>();
    assert!(!owned_by_2.is_empty(), "workload never touches node 2");
    let err = inject(m, owned_by_2[0]).unwrap_err();
    assert!(
        matches!(err, FedError::PeerUnavailable { node: 2, .. }),
        "expected PeerUnavailable naming node 2, got: {err}"
    );

    // Evict through a survivor; both survivors converge on the new view.
    let evict_epoch = cluster.evict_via(0, 2);
    assert!(evict_epoch >= 1);
    cluster.await_epoch(evict_epoch);
    for id in cluster.live_ids() {
        assert!(
            !cluster.node(id as usize).core().cluster().is_member(2),
            "node {id} still lists the evicted member"
        );
    }

    // Phase B: the same instances (including every ex-node-2 one) now
    // ingest under the new view — the failed forward is re-injected and
    // lands exactly once.
    let mut oracle_total = 0usize;
    for instance in 1..=12u64 {
        assert_eq!(
            inject(m, instance).unwrap_or_else(|e| panic!(
                "instance {instance} still unroutable after eviction: {e}"
            )),
            1
        );
        oracle_total += oracle_inject(m, instance);
        m += 1;
    }
    let got = drain_exact(&alice, oracle_total, "alice phase B");
    let mut idx: Vec<i64> = got.iter().filter_map(|n| n.int_info).collect();
    idx.sort_unstable();
    let want: Vec<i64> = (12..24).collect();
    assert_eq!(idx, want, "post-eviction delivery is not exactly-once");
    cluster.shutdown();
}

/// An async share submitted toward a dead member reroutes to the owner
/// under the view adopted *by settle time* — eviction between submit and
/// wait turns a would-be failure into a successful local ingest.
#[test]
fn share_submitted_under_stale_view_reroutes_after_eviction() {
    let cluster = ElasticCluster::start(2, 2, NetConfig::default(), FedConfig::default(), &setup_hit_only);
    let alice = cluster.connect(0, "alice", client_cfg()).unwrap();
    let seed = cluster.node(0).core().cluster();
    let owned_by_1 = (1..200u64)
        .find(|&raw| seed.owner_of_instance(raw) == 1)
        .unwrap();

    cluster.kill(1);
    // Submitted while node 1 is still a member: the share targets it.
    let handle = cluster.node(0).external_event_async(
        "sensor",
        vec![
            ("mission".to_owned(), Value::Id(owned_by_1)),
            ("intInfo".to_owned(), Value::Int(7)),
        ],
    );
    // The view changes before the caller settles; node 0 now owns all.
    let epoch = cluster.evict_via(0, 1);
    cluster.await_epoch(epoch);
    let count = cluster
        .node(0)
        .wait_external(handle)
        .expect("share must reroute to the current owner");
    assert_eq!(count, 1);
    let got = drain_exact(&alice, 1, "alice rerouted share");
    assert_eq!(got[0].int_info, Some(7));
    cluster.shutdown();
}

/// A composite detection that straddles a migration fires exactly once on
/// the new owner: two of three `count` hits (and the `alpha` half of a
/// `seq`) land before the join, the rest after the instance moved.
#[test]
fn composite_state_straddles_a_migration_exactly_once() {
    let cluster = ElasticCluster::start(2, 3, NetConfig::default(), FedConfig::default(), &setup);
    let bob = cluster.connect(0, "bob", client_cfg()).unwrap();
    let carol = cluster.connect(1, "carol", client_cfg()).unwrap();

    // An instance that the joiner takes over: owned by {0,1} now, by 2
    // after the join.
    let seed = cluster.node(0).core().cluster();
    let grown = cmi::fed::ClusterConfig::loopback(3);
    let moving = (1..10_000u64)
        .find(|&raw| grown.owner_of_instance(raw) == 2 && seed.owner_of_instance(raw) != 2)
        .expect("no instance migrates to the joiner");
    let old_owner = seed.owner_of_instance(moving) as usize;

    let inject = |source: &str, idx: i64| {
        let fields = vec![
            ("mission".to_owned(), Value::Id(moving)),
            ("intInfo".to_owned(), Value::Int(idx)),
        ];
        cluster
            .node(0)
            .external_event(source, fields)
            .expect("inject")
    };
    // Pre-join: 2 of 3 sensor hits (each also an alice "hit" delivery),
    // and the alpha half of the sequence (delivers nothing yet).
    assert_eq!(inject("sensor", 0), 1);
    assert_eq!(inject("sensor", 1), 1);
    assert_eq!(inject("alpha", 2), 0);

    let epoch = cluster.add_node(2, &setup);
    cluster.await_epoch(epoch);
    assert_eq!(
        cluster.node(0).core().cluster().owner_of_instance(moving),
        2,
        "the probe instance did not migrate"
    );

    // Post-join: the third hit crosses the threshold on the NEW owner —
    // only possible if the count state shipped with the instance; beta
    // completes the sequence likewise.
    assert_eq!(inject("sensor", 3), 2, "hit + burst on migrated state");
    assert_eq!(inject("beta", 4), 1, "seq completion on migrated state");

    let bursts = drain_exact(&bob, 1, "bob burst");
    assert!(bursts[0].description.contains("burst"));
    let seqs = drain_exact(&carol, 1, "carol seq");
    assert!(seqs[0].description.contains("alpha then beta"));

    // The old owner really shipped state: its hand-off telemetry moved.
    let handoffs = cluster
        .node(old_owner)
        .cmi()
        .obs()
        .metrics()
        .snapshot();
    let shipped = handoffs
        .histograms
        .get(series::HANDOFF_BYTES)
        .map_or(0, |h| h.count);
    assert!(shipped >= 1, "old owner recorded no instance hand-offs");
    assert!(
        cluster
            .node(old_owner)
            .cmi()
            .obs()
            .counter(series::REBALANCES)
            .get()
            >= 1,
        "old owner recorded no rebalance"
    );
    cluster.shutdown();
}

/// Epoch fencing at the wire: a `FedBatch` stamped with a stale epoch is
/// rejected with `Response::Fenced` carrying the receiver's epoch, ingests
/// nothing, and the identical frame under the current epoch succeeds.
#[test]
fn stale_epoch_batch_is_fenced_without_mutation() {
    let cluster = ElasticCluster::start(2, 3, NetConfig::default(), FedConfig::default(), &setup_hit_only);
    let alice = cluster.connect(0, "alice", client_cfg()).unwrap();
    let epoch = cluster.add_node(2, &setup_hit_only);
    cluster.await_epoch(epoch);

    let view = cluster.node(0).core().cluster();
    let mine = (1..200u64)
        .find(|&raw| view.owner_of_instance(raw) == 0)
        .unwrap();
    let body = FedEventBody {
        source: "sensor".to_owned(),
        time_ms: 0,
        trace: 0,
        fields: vec![
            ("mission".to_owned(), Value::Id(mine)),
            ("intInfo".to_owned(), Value::Int(99)),
        ],
    };

    // Stale epoch (the boot view's 0): typed rejection, nothing ingested.
    let fenced = cluster
        .node(0)
        .core()
        .handle(&Request::FedBatch {
            origin: 1,
            seq: 1,
            epoch: 0,
            events: vec![body.clone()],
        })
        .expect("federation handles FedBatch");
    assert_eq!(
        fenced,
        Response::Fenced { epoch },
        "stale batch must be fenced with the receiver's epoch"
    );
    std::thread::sleep(Duration::from_millis(100));
    let leaked = alice.viewer().take(16).expect("viewer take");
    assert!(
        leaked.is_empty(),
        "a fenced batch mutated the receiver: {leaked:?}"
    );

    // The sender adopts the new view and retries the same frame: ingested.
    let ok = cluster
        .node(0)
        .core()
        .handle(&Request::FedBatch {
            origin: 1,
            seq: 1,
            epoch,
            events: vec![body],
        })
        .expect("federation handles FedBatch");
    assert_eq!(ok, Response::Counts(vec![1]));
    let got = drain_exact(&alice, 1, "alice post-fence retry");
    assert_eq!(got[0].int_info, Some(99));
    cluster.shutdown();
}

/// Sign-on gossip carries a per-origin monotonic version: a reordered
/// stale frame is dropped (counted) instead of clobbering a newer set.
#[test]
fn stale_gossip_version_cannot_clobber_newer_signons() {
    let cluster = LoopbackCluster::start(2, NetConfig::default(), &setup_hit_only);
    let core = cluster.node(0).core().clone();

    let fresh = core
        .handle(&Request::FedGossip {
            origin: 1,
            epoch: 0,
            version: 5,
            signed_on: vec![42],
            loads: vec![],
        })
        .expect("federation handles FedGossip");
    assert_eq!(fresh, Response::Ok);
    assert_eq!(core.remote_signon_count(1), 1);

    // A delayed older frame (version 3, empty set) must not win.
    let stale = core
        .handle(&Request::FedGossip {
            origin: 1,
            epoch: 0,
            version: 3,
            signed_on: vec![],
            loads: vec![],
        })
        .expect("federation handles FedGossip");
    assert_eq!(stale, Response::Ok, "stale gossip is dropped, not errored");
    assert_eq!(
        core.remote_signon_count(1),
        1,
        "stale gossip clobbered a newer sign-on set"
    );
    assert!(
        cluster
            .node(0)
            .cmi()
            .obs()
            .counter(series::STALE_GOSSIP)
            .get()
            >= 1,
        "stale gossip drop was not counted"
    );

    // A genuinely newer frame still applies.
    let newer = core
        .handle(&Request::FedGossip {
            origin: 1,
            epoch: 0,
            version: 6,
            signed_on: vec![],
            loads: vec![],
        })
        .expect("federation handles FedGossip");
    assert_eq!(newer, Response::Ok);
    assert_eq!(core.remote_signon_count(1), 0);
    cluster.shutdown();
}
