//! Mid-batch fault injection for the federated data plane.
//!
//! The batched, pipelined peer link keeps a bounded window of multi-event
//! `FedBatch` frames unacknowledged at once. These tests break the link at
//! the worst moments and assert exactly-once ingest survives:
//!
//! * a peer killed and restarted with a full window of unacked batches in
//!   flight (the retransmit-from-seq path + the receiver's replay cache),
//! * a `FedBatch` frame torn mid-byte on the loopback transport (the
//!   framing layer must not deliver a partial batch),
//! * a replayed half-window after reconnect (answered from the replay
//!   cache, never re-ingested) and a replay from beyond the cache depth
//!   (refused with a typed protocol error, never double-ingested).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cmi::awareness::system::CmiServer;
use cmi::core::state_schema::ActivityStateSchema;
use cmi::core::schema::ActivitySchemaBuilder;
use cmi::core::value::Value;
use cmi::fed::testkit::{ElasticCluster, LoopbackCluster};
use cmi::fed::{FedConfig, PeerConfig};
use cmi::net::client::ClientConfig;
use cmi::net::codec::{encode_frame, FrameKind, FrameReader};
use cmi::net::server::{FederationHooks, NetConfig};
use cmi::net::wire::{FedEventBody, Request, Response};

/// One stateless hit filter delivering to alice: every sensor event maps to
/// exactly one notification and `intInfo` replays the injection index.
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

fn client_cfg() -> ClientConfig {
    ClientConfig {
        response_timeout: Duration::from_secs(5),
        heartbeat: Duration::from_millis(50),
        reconnect_attempts: 200,
        reconnect_backoff: Duration::from_millis(10),
    }
}

/// Small batches and a tiny window so the kill reliably lands with the
/// window full, plus a long dial patience so injectors ride out the outage
/// (blocking on retransmit) instead of failing fast.
fn fault_fed_cfg() -> FedConfig {
    FedConfig {
        peer: PeerConfig {
            response_timeout: Duration::from_millis(500),
            batch_events: 4,
            batch_deadline: Duration::from_millis(2),
            window_batches: 2,
            dial_patience: Duration::from_secs(30),
        },
        ..FedConfig::default()
    }
}

fn instances_owned_by(cluster: &LoopbackCluster, node: u32, how_many: usize) -> Vec<u64> {
    let owned: Vec<u64> = (1..500u64)
        .filter(|&raw| cluster.cluster().owner_of_instance(raw) == node)
        .take(how_many)
        .collect();
    assert_eq!(owned.len(), how_many);
    owned
}

/// Kill + restart the owning peer with a full window of unacked multi-event
/// batches in flight from concurrent injectors. Zero lost, zero duplicated.
#[test]
fn mid_batch_kill_restart() {
    let cluster = Arc::new(LoopbackCluster::start_with(
        2,
        NetConfig::default(),
        fault_fed_cfg(),
        &setup_hit_only,
    ));

    // alice watches from node 0; every event targets a node-1-owned
    // instance, so ingest crosses 0 → 1 in FedBatch frames and her
    // notifications route back 1 → 0 (that outbound link never dies — we
    // kill node 1's *listener*, which carries the 0 → 1 data plane).
    let alice = cluster.connect(0, "alice", client_cfg()).unwrap();
    let owned_by_1 = instances_owned_by(&cluster, 1, 4);
    let deadline = Instant::now() + Duration::from_secs(5);
    while cluster.node(1).core().remote_signon_count(0) == 0 {
        assert!(Instant::now() < deadline, "gossip never converged");
        std::thread::sleep(Duration::from_millis(5));
    }

    const THREADS: usize = 4;
    const PER_THREAD: usize = 50;
    const TOTAL: usize = THREADS * PER_THREAD;
    let done = Arc::new(AtomicUsize::new(0));
    let mut workers = Vec::new();
    for t in 0..THREADS {
        let cluster = Arc::clone(&cluster);
        let done = Arc::clone(&done);
        let owned = owned_by_1.clone();
        workers.push(std::thread::spawn(move || {
            for k in 0..PER_THREAD {
                let m = t * PER_THREAD + k;
                let fields = vec![
                    ("mission".to_owned(), Value::Id(owned[m % owned.len()])),
                    ("intInfo".to_owned(), Value::Int(m as i64)),
                ];
                let count = cluster
                    .node(0)
                    .external_event("sensor", fields)
                    .expect("inject at node 0");
                assert_eq!(count, 1, "one sensor hit → one alice notification");
                done.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }

    // Let the pipeline saturate, then yank node 1 mid-window: whatever was
    // in flight is unacknowledged and must retransmit under the same seqs.
    let deadline = Instant::now() + Duration::from_secs(10);
    while done.load(Ordering::Relaxed) < TOTAL / 3 {
        assert!(Instant::now() < deadline, "injectors stalled before the kill");
        std::thread::sleep(Duration::from_millis(1));
    }
    cluster.kill(1);
    std::thread::sleep(Duration::from_millis(200));
    cluster.restart(1);
    for w in workers {
        w.join().expect("injector thread");
    }

    // Exactly once: every index 0..TOTAL delivered to alice exactly once.
    let mut got = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(20);
    while got.len() < TOTAL {
        let batch = alice.viewer().take(64).expect("viewer take");
        if batch.is_empty() {
            assert!(
                Instant::now() < deadline,
                "timed out with {} of {TOTAL} notifications",
                got.len()
            );
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        got.extend(batch);
    }
    std::thread::sleep(Duration::from_millis(150));
    let extra = alice.viewer().take(64).expect("viewer take");
    assert!(
        extra.is_empty(),
        "{} duplicate notifications after the fault",
        extra.len()
    );
    let mut seen: Vec<i64> = got.iter().filter_map(|n| n.int_info).collect();
    seen.sort_unstable();
    let want: Vec<i64> = (0..TOTAL as i64).collect();
    assert_eq!(seen, want, "delivery across the fault is not exactly-once");

    // The link 0 → 1 really did die and resume.
    let reconnects = cluster
        .node(0)
        .cmi()
        .obs()
        .counter_with(cmi::fed::node::series::RECONNECTS, &[("peer", "1")])
        .get();
    assert!(reconnects >= 1, "the kill never actually broke the 0→1 link");
    cluster.shutdown();
}

fn body(instance: u64, idx: i64) -> FedEventBody {
    FedEventBody {
        source: "sensor".to_owned(),
        time_ms: 1_000 + idx as u64,
        trace: 0,
        fields: vec![
            ("mission".to_owned(), Value::Id(instance)),
            ("intInfo".to_owned(), Value::Int(idx)),
        ],
    }
}

/// Hand-rolled peer client: one request frame out, one response frame back.
fn roundtrip(
    stream: &mut Box<dyn cmi::net::transport::NetStream>,
    frames: &mut FrameReader,
    req: &Request,
) -> Response {
    use std::io::Write;
    stream
        .write_all(&encode_frame(FrameKind::Request, &req.encode()))
        .expect("write frame");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match frames.poll(&mut **stream).expect("read frame") {
            Some(f) if f.kind == FrameKind::Response => {
                return Response::decode(&f.payload).expect("decode response");
            }
            Some(_) => continue,
            None => assert!(Instant::now() < deadline, "peer response timeout"),
        }
    }
}

/// Tear a `FedBatch` frame mid-byte, reconnect, resend under the same seq,
/// then replay the half-window: zero lost, zero duplicated, replays
/// answered from the cache.
#[test]
fn torn_frame_then_retransmit_is_exactly_once() {
    let cluster = LoopbackCluster::start(2, NetConfig::default(), &setup_hit_only);
    let node0 = cluster.node(0).cmi().clone();
    let alice = node0.directory().user_by_name("alice").unwrap();
    let owned_by_0 = instances_owned_by(&cluster, 0, 2);

    // Pose as node 1's link. The real node 1 exists but never forwards an
    // event (nothing is injected there), so origin-1's sequence space and
    // replay cache are exclusively ours to abuse.
    let connector = cluster.connector(0);
    let mut stream = connector.dial().expect("dial node 0");
    stream
        .set_stream_read_timeout(Some(Duration::from_millis(25)))
        .unwrap();
    let mut frames = FrameReader::new();
    let hello = roundtrip(
        &mut stream,
        &mut frames,
        &Request::FedHello {
            node: 1,
            resume: false,
        },
    );
    assert!(matches!(hello, Response::Ok), "FedHello rejected: {hello:?}");

    // Batch seq 1, delivered whole: two ingests, two notifications.
    let batch1 = vec![body(owned_by_0[0], 0), body(owned_by_0[1], 1)];
    let resp = roundtrip(
        &mut stream,
        &mut frames,
        &Request::FedBatch {
            origin: 1,
            seq: 1,
            epoch: 0,
            events: batch1.clone(),
        },
    );
    assert_eq!(
        resp,
        Response::Counts(vec![1, 1]),
        "whole batch must ingest both events"
    );
    let pending = || node0.awareness().queue().pending_for(alice);
    assert_eq!(pending(), 2);

    // Batch seq 2, torn mid-byte: write half the frame, then kill the
    // stream. The framing layer must discard the fragment — nothing
    // ingested, nothing cached.
    let batch2 = vec![body(owned_by_0[0], 2), body(owned_by_0[1], 3)];
    let frame = encode_frame(
        FrameKind::Request,
        &Request::FedBatch {
            origin: 1,
            seq: 2,
            epoch: 0,
            events: batch2.clone(),
        }
        .encode(),
    );
    {
        use std::io::Write;
        stream.write_all(&frame[..frame.len() / 2]).expect("half frame");
    }
    stream.shutdown_stream();
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(pending(), 2, "a torn frame must not ingest anything");

    // Reconnect with resume and retransmit seq 2 whole — the normal
    // recovery path a real link takes. Fresh ingest, two more deliveries.
    let mut stream = connector.dial().expect("re-dial node 0");
    stream
        .set_stream_read_timeout(Some(Duration::from_millis(25)))
        .unwrap();
    let mut frames = FrameReader::new();
    let hello = roundtrip(
        &mut stream,
        &mut frames,
        &Request::FedHello {
            node: 1,
            resume: true,
        },
    );
    assert!(matches!(hello, Response::Ok));
    let resp = roundtrip(
        &mut stream,
        &mut frames,
        &Request::FedBatch {
            origin: 1,
            seq: 2,
            epoch: 0,
            events: batch2.clone(),
        },
    );
    assert_eq!(resp, Response::Counts(vec![1, 1]));
    assert_eq!(pending(), 4);

    // Replay the whole half-window (seqs 1 and 2, as a crashed sender
    // would): answered from the replay cache with the original counts,
    // ingested zero times more.
    for (seq, events) in [(1u64, &batch1), (2u64, &batch2)] {
        let resp = roundtrip(
            &mut stream,
            &mut frames,
            &Request::FedBatch {
                origin: 1,
                seq,
                epoch: 0,
                events: events.clone(),
            },
        );
        assert_eq!(
            resp,
            Response::Counts(vec![1, 1]),
            "replayed seq {seq} must answer the cached counts"
        );
    }
    assert_eq!(pending(), 4, "replays must never re-ingest");
    let replays = node0
        .obs()
        .counter_with(cmi::fed::node::series::REPLAYS, &[("origin", "1")])
        .get();
    assert_eq!(replays, 2, "both replays must be cache hits");
    cluster.shutdown();
}

/// The replay cache is bounded: a replay from inside the retained window is
/// answered from cache; a replay from beyond it (which no live sender's
/// bounded window can produce) is refused with a typed error — never
/// silently re-ingested.
#[test]
fn replay_beyond_cache_depth_is_refused() {
    let cluster = LoopbackCluster::start(2, NetConfig::default(), &setup_hit_only);
    let core = cluster.node(0).core().clone();
    let node0 = cluster.node(0).cmi().clone();
    let alice = node0.directory().user_by_name("alice").unwrap();
    let inst = instances_owned_by(&cluster, 0, 1)[0];

    // 66 one-event batches: seqs 1 and 2 fall out of the depth-64 cache.
    const BATCHES: u64 = 66;
    for seq in 1..=BATCHES {
        let resp = core
            .handle(&Request::FedBatch {
                origin: 1,
                seq,
                epoch: 0,
                events: vec![body(inst, seq as i64)],
            })
            .expect("federation handles FedBatch");
        assert_eq!(resp, Response::Counts(vec![1]), "seq {seq}");
    }
    let pending = || node0.awareness().queue().pending_for(alice);
    assert_eq!(pending(), BATCHES as usize);

    // Inside the retained window: cached, no re-ingest.
    for seq in [3u64, 40, BATCHES] {
        let resp = core
            .handle(&Request::FedBatch {
                origin: 1,
                seq,
                epoch: 0,
                events: vec![body(inst, seq as i64)],
            })
            .unwrap();
        assert_eq!(resp, Response::Counts(vec![1]), "replayed seq {seq}");
    }
    assert_eq!(pending(), BATCHES as usize, "cached replays must not ingest");

    // Beyond the cache: refused loudly, still not ingested.
    for seq in [1u64, 2] {
        let resp = core
            .handle(&Request::FedBatch {
                origin: 1,
                seq,
                epoch: 0,
                events: vec![body(inst, seq as i64)],
            })
            .unwrap();
        match resp {
            Response::Err { message } => assert!(
                message.contains("replay"),
                "seq {seq}: unexpected refusal: {message}"
            ),
            other => panic!("seq {seq}: expected a refusal, got {other:?}"),
        }
    }
    assert_eq!(pending(), BATCHES as usize, "refused replays must not ingest");
    cluster.shutdown();
}

/// Exactly-once across a *full process* restart: with a federation journal
/// configured, the per-origin replay cache and notification dedup window
/// are rebuilt from disk, so a crashed-and-restarted receiver answers a
/// replayed `FedBatch` from the recovered cache (no re-ingest), refuses a
/// below-high-water replay that fell out of the bounded cache, and drops a
/// re-routed `FedNotify` as a duplicate (no re-enqueue).
#[test]
fn journal_recovers_replay_and_dedup_across_full_restart() {
    let dir = std::env::temp_dir().join(format!("cmi-fedlog-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create journal dir");
    let fed_cfg = FedConfig {
        journal_dir: Some(dir.clone()),
        ..FedConfig::default()
    };
    let cluster = ElasticCluster::start(
        2,
        2,
        NetConfig::default(),
        fed_cfg,
        &setup_hit_only,
    );
    let node1 = cluster.node(1);
    let alice_conn = cluster.connect(1, "alice", client_cfg()).expect("connect");
    let inst = (1..500u64)
        .find(|&raw| node1.core().cluster().owner_of_instance(raw) == 1)
        .expect("an instance owned by node 1");

    // A remote batch from node 0's sequence space, ingested exactly once
    // and journaled with its counts.
    let batch = Request::FedBatch {
        origin: 0,
        seq: 100,
        epoch: 0,
        events: vec![body(inst, 7)],
    };
    assert_eq!(
        node1.core().handle(&batch).expect("federation handles FedBatch"),
        Response::Counts(vec![1])
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    let note = loop {
        let mut got = alice_conn.viewer().take(8).expect("viewer take");
        if let Some(n) = got.pop() {
            break n;
        }
        assert!(Instant::now() < deadline, "the batch's notification never arrived");
        std::thread::sleep(Duration::from_millis(5));
    };

    // A routed notification from node 0, enqueued once (alice is signed on
    // here) and its (origin, seq) journaled into the dedup window.
    let notify = Request::FedNotify {
        origin: 0,
        epoch: 0,
        notes: vec![(55, 0, note.clone(), 0)],
    };
    assert_eq!(
        node1.core().handle(&notify).expect("federation handles FedNotify"),
        Response::Count(1)
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if !alice_conn.viewer().take(8).expect("viewer take").is_empty() {
            break;
        }
        assert!(Instant::now() < deadline, "the routed notification never arrived");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(alice_conn);

    // Full process restart: fresh CmiServer, fresh FedNode, same journal
    // dir. Everything in memory is gone; only the journal survives.
    let node1 = cluster.respawn(1, &setup_hit_only);
    let alice = node1
        .cmi()
        .directory()
        .user_by_name("alice")
        .expect("alice re-registered by setup");
    let pending = || node1.cmi().awareness().queue().pending_for(alice);
    assert_eq!(pending(), 0, "the restarted queue starts empty");

    // The identical batch replays: answered from the recovered cache with
    // the original counts, nothing ingested, nothing enqueued.
    assert_eq!(
        node1.core().handle(&batch).expect("replay after restart"),
        Response::Counts(vec![1]),
        "a journaled batch must answer its recovered counts"
    );
    assert_eq!(pending(), 0, "a replayed batch must not re-ingest after restart");
    let replays = node1
        .cmi()
        .obs()
        .counter_with(cmi::fed::node::series::REPLAYS, &[("origin", "0")])
        .get();
    assert_eq!(replays, 1, "the replay must be a recovered-cache hit");

    // Below the recovered high-water mark but outside the cache: refused
    // with a typed error, never re-ingested.
    let stale = Request::FedBatch {
        origin: 0,
        seq: 99,
        epoch: 0,
        events: vec![body(inst, 8)],
    };
    match node1.core().handle(&stale).expect("stale replay after restart") {
        Response::Err { message } => assert!(
            message.contains("replay"),
            "unexpected refusal: {message}"
        ),
        other => panic!("expected a typed refusal below the high-water mark, got {other:?}"),
    }
    assert_eq!(pending(), 0, "a refused replay must not ingest after restart");

    // The identical routed notification replays: the recovered dedup
    // window drops it (still counted as processed — the sender must ack).
    assert_eq!(
        node1.core().handle(&notify).expect("notify replay after restart"),
        Response::Count(1),
        "a deduped notification still acknowledges"
    );
    assert_eq!(pending(), 0, "a deduped notification must not re-enqueue after restart");
    let dups = node1
        .cmi()
        .obs()
        .counter_with(cmi::fed::node::series::DUP_DROPPED, &[("origin", "0")])
        .get();
    assert_eq!(dups, 1, "the dedup must come from the recovered window");

    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A node killed mid-generation rejoins on the *adopted* schema: the swap
/// record journaled in the fedlog is recompiled during construction —
/// before any peer could push it — so the restarted node never ingests a
/// single event under its stale boot schemas.
#[test]
fn journal_resumes_adopted_schema_generation_across_restart() {
    const V2: &str = r#"
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
    "#;
    let dir = std::env::temp_dir().join(format!("cmi-swaplog-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create journal dir");
    let fed_cfg = FedConfig {
        journal_dir: Some(dir.clone()),
        ..FedConfig::default()
    };
    let cluster = ElasticCluster::start(
        2,
        2,
        NetConfig::default(),
        fed_cfg,
        &setup_hit_only,
    );

    // Swap at node 0: the federation hook assigns cluster generation 1.
    match cluster
        .node(0)
        .core()
        .handle(&Request::SchemaSwap { source: V2.into() })
        .expect("federation intercepts SchemaSwap")
    {
        Response::Swapped { generation, added, .. } => {
            assert_eq!(generation, 1, "first cluster swap is generation 1");
            assert!(added > 0, "V2 adds AS_Gamma");
        }
        other => panic!("expected Swapped, got {other:?}"),
    }
    // The pump pushes the adoption to node 1.
    let deadline = Instant::now() + Duration::from_secs(10);
    while cluster.node(1).core().schema_generation() < 1 {
        assert!(Instant::now() < deadline, "node 1 never adopted the swap");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Kill node 1 mid-generation and bring it back with V1 boot schemas.
    cluster.kill(1);
    let node1 = cluster.respawn(1, &setup_hit_only);
    // Asserted synchronously after construction: only the journal can have
    // put the node on generation 1 this early.
    assert_eq!(
        node1.core().schema_generation(),
        1,
        "the fedlog swap record must resume the adopted generation"
    );
    assert_eq!(node1.cmi().awareness().generation(), 1);

    // And the adopted (not the boot) schema set is what ingests: the
    // V2-only gamma schema detects on a locally-owned instance.
    let inst = (1..500u64)
        .find(|&raw| node1.core().cluster().owner_of_instance(raw) == 1)
        .expect("an instance owned by node 1");
    let delivered = node1
        .cmi()
        .external_event(
            "gamma",
            vec![("mission".to_owned(), Value::Id(inst))],
        );
    assert_eq!(delivered, 1, "the journaled V2 schema must be live after restart");

    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
