//! The federated node: [`FedCore`] (the [`FederationHooks`] implementation
//! servicing the peer protocol) and [`FedNode`] (the per-node front that
//! owns the CMI server, the peer links, the notification pumps, and the
//! optional network listener).
//!
//! ## How the pieces route
//!
//! * **Events in.** Any node accepts `ExternalEvent` from any client. The
//!   hook derives the event's routing instances (the same conservative set
//!   the intra-node shard router uses), maps each through the cluster's
//!   rendezvous hash, ingests locally for instances this node owns, and
//!   submits the event to each remote owner's link, where it rides a
//!   [`Request::FedBatch`] — many events under one link-local sequence
//!   number, up to a bounded window of batches in flight concurrently. A
//!   retransmit after a reconnect reuses the original sequence numbers, so
//!   the receiver's batch-granularity replay cache collapses it
//!   (exactly-once ingest).
//! * **Notifications out.** Detection and delivery run at the owning node,
//!   enqueueing into its local persistent queue. A per-peer **pump thread**
//!   watches the queue: notifications for users signed on at a peer (per
//!   directory gossip) are batched into [`Request::FedNotify`], and only
//!   acknowledged out of the local queue once the peer confirms — so a
//!   mid-flight crash retransmits, and the receiver's per-origin dedup
//!   window collapses the duplicates (exactly-once, in-order delivery
//!   across the hop). The batch size bounds how much a slow peer can have
//!   in flight (backpressure); a dead peer parks notifications in the
//!   durable local queue.
//! * **Directory gossip.** Sign-on edges (0↔1 sessions per user) gossip the
//!   node's full signed-on set to every peer ([`Request::FedGossip`],
//!   idempotent wholesale replacement), which is what the pumps route by.
//!   Local sign-ons always take precedence over a stale remote claim.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock};

use cmi_awareness::engine::PartitionFilter;
use cmi_awareness::queue::Notification;
use cmi_awareness::system::CmiServer;
use cmi_core::dirlog::{apply_dir_op, DirLog, DirOp};
use cmi_core::ids::{ProcessInstanceId, UserId};
use cmi_core::time::{Clock, Timestamp};
use cmi_core::value::Value;
use cmi_events::producers;
use cmi_net::client::DialFn;
use cmi_net::server::{FederationHooks, NetConfig, NetServer, NetStats};
use cmi_net::transport::{loopback, Listener, LoopbackConnector};
use cmi_net::wire::{
    decode_dir_op_bytes, encode_dir_op_bytes, FedEventBody, Request, Response,
};
use cmi_service::ServiceEngine;
use cmi_obs::{
    trace_node, Counter, FlightKind, Gauge, Histogram, ObsRegistry, TraceHop,
    LATENCY_BUCKETS_NS,
};

use crate::cluster::{ClusterConfig, ClusterView};
use crate::error::{FedError, FedResult};
use crate::journal::FedJournal;
use crate::peer::{CallTicket, EventTicket, PeerConfig, PeerLink};

/// Per-origin dedup window for routed notifications (entries, not bytes).
const NOTE_DEDUP_WINDOW: usize = 4096;

/// Per-origin replay-cache depth in batches. Must cover at least the
/// sender's in-flight window ([`PeerConfig::window_batches`], default 8) so
/// a retransmitted half-window after a crash is always answered from cache;
/// sized well beyond it for safety margin.
const REPLAY_DEPTH: usize = 64;

/// Directory ops per [`Request::FedDirSync`] chunk — bounds one frame while
/// a freshly joined (or journal-less) peer catches up on a large directory.
const DIR_SYNC_CHUNK: usize = 256;

/// How many times one failed remote share of a routed event is re-routed
/// (after an epoch fence or an ownership move) before its error surfaces.
const MAX_ROUTE_RETRIES: u32 = 8;

/// How long a migrating node keeps retrying one instance hand-off (or one
/// `FedMigrateDone` announcement) against a fencing/unreachable receiver.
const HANDOFF_PATIENCE: Duration = Duration::from_secs(5);

/// Histogram bounds for hand-off payload sizes, in bytes.
const HANDOFF_BYTES_BUCKETS: &[u64] =
    &[64, 256, 1024, 4096, 16384, 65536, 262144, 1048576];

/// Federation tuning for one node.
#[derive(Debug, Clone)]
pub struct FedConfig {
    /// Peer-link transport tuning.
    pub peer: PeerConfig,
    /// Maximum notifications per [`Request::FedNotify`] batch — the bound
    /// on what a slow peer can have unacknowledged in flight.
    pub window: usize,
    /// Relay hop cap for notifications chasing a moving subscriber; beyond
    /// it the notification parks in the local durable queue instead.
    pub max_hops: u32,
    /// Pump safety-net tick: the longest a routable notification waits when
    /// every kick was missed (also the gossip retry cadence).
    pub pump_interval: Duration,
    /// Directory for the node's federation journal (`node-<id>.fedlog`):
    /// per-origin replay/dedup caches and the adopted cluster view, persisted
    /// next to the delivery-queue WAL so exactly-once federation survives a
    /// full process restart. `None` keeps the caches memory-only.
    pub journal_dir: Option<std::path::PathBuf>,
}

impl Default for FedConfig {
    fn default() -> Self {
        FedConfig {
            peer: PeerConfig::default(),
            window: 64,
            max_hops: 4,
            pump_interval: Duration::from_millis(25),
            journal_dir: None,
        }
    }
}

/// Metric series names the federation layer publishes (per peer/origin
/// label), all on the node's shared [`ObsRegistry`] so they surface through
/// `Request::Telemetry` like every other subsystem's.
pub mod series {
    /// Events forwarded to an owning peer (label `peer`).
    pub const FORWARDS: &str = "cmi_fed_forwards";
    /// Forward round-trip latency in nanoseconds (label `peer`).
    pub const FORWARD_NS: &str = "cmi_fed_forward_ns";
    /// Peer-link reconnects with resume (label `peer`).
    pub const RECONNECTS: &str = "cmi_fed_reconnects";
    /// Notifications routed out to the node holding the subscriber (label
    /// `peer`).
    pub const NOTES_ROUTED: &str = "cmi_fed_notes_routed";
    /// Notifications relayed onward after a stale gossip hop (label `peer`).
    pub const RELAYS: &str = "cmi_fed_relays";
    /// Forwarded events ingested on behalf of an origin peer (label
    /// `origin`).
    pub const EVENTS_IN: &str = "cmi_fed_forwarded_events";
    /// Forwarded-event retransmits answered from the replay cache (label
    /// `origin`).
    pub const REPLAYS: &str = "cmi_fed_replays";
    /// Routed notifications enqueued locally for delivery (label `origin`).
    pub const REMOTE_ENQUEUED: &str = "cmi_fed_remote_enqueued";
    /// Routed-notification duplicates dropped by the dedup window (label
    /// `origin`).
    pub const DUP_DROPPED: &str = "cmi_fed_dup_dropped";
    /// Users currently signed on at a peer, per its last gossip (label
    /// `peer`).
    pub const REMOTE_SIGNONS: &str = "cmi_fed_remote_signons";
    /// Distinct owned process instances this node has routed events for.
    pub const PARTITION_INSTANCES: &str = "cmi_fed_partition_instances";
    /// The cluster-view epoch this node currently operates under.
    pub const EPOCH: &str = "cmi_fed_epoch";
    /// Cluster views adopted (each implies one local rebalance pass).
    pub const REBALANCES: &str = "cmi_fed_rebalances";
    /// Serialized size of each instance hand-off shipped out, in bytes.
    pub const HANDOFF_BYTES: &str = "cmi_fed_handoff_bytes";
    /// Wall latency of each instance hand-off (export → ack), nanoseconds.
    pub const HANDOFF_NS: &str = "cmi_fed_handoff_ns";
    /// Sign-on gossip frames dropped for carrying a stale version.
    pub const STALE_GOSSIP: &str = "cmi_fed_stale_gossip_dropped";
    /// Directory ops shipped to peers over
    /// [`Request::FedDirSync`](cmi_net::wire::Request::FedDirSync).
    pub const DIR_OPS_SENT: &str = "cmi_fed_dir_ops_sent";
    /// Foreign directory ops applied locally (duplicates excluded).
    pub const DIR_OPS_APPLIED: &str = "cmi_fed_dir_ops_applied";
}

/// Per-peer metric handles (outbound direction).
struct PeerMetrics {
    forwards: Counter,
    forward_ns: Histogram,
    notes_routed: Counter,
    relays: Counter,
    remote_signons: Gauge,
}

/// Per-origin metric handles (inbound direction).
struct OriginMetrics {
    events_in: Counter,
    replays: Counter,
    remote_enqueued: Counter,
    dup_dropped: Counter,
}

/// A bounded sliding dedup window over routed-notification keys.
struct SeenWindow {
    set: BTreeSet<u64>,
    order: VecDeque<u64>,
}

impl SeenWindow {
    fn new() -> SeenWindow {
        SeenWindow {
            set: BTreeSet::new(),
            order: VecDeque::new(),
        }
    }

    fn contains(&self, key: u64) -> bool {
        self.set.contains(&key)
    }

    fn insert(&mut self, key: u64) {
        if self.set.insert(key) {
            self.order.push_back(key);
            if self.order.len() > NOTE_DEDUP_WINDOW {
                if let Some(old) = self.order.pop_front() {
                    self.set.remove(&old);
                }
            }
        }
    }
}

/// Per-origin forwarded-ingest replay cache, batch granularity: the
/// per-event notification counts of the last [`REPLAY_DEPTH`] acknowledged
/// sequence numbers. A retransmitted sequence is answered from cache
/// (never re-ingested); a sequence at or below the high-water mark that has
/// fallen out of the cache is a protocol error (the sender's window bounds
/// how far behind a live retransmit can be).
struct ReplayCache {
    /// Highest sequence number ever ingested from this origin.
    last_seq: u64,
    /// `(seq, per-event counts)`, oldest first.
    entries: VecDeque<(u64, Vec<u64>)>,
}

impl ReplayCache {
    fn new() -> ReplayCache {
        ReplayCache {
            last_seq: 0,
            entries: VecDeque::new(),
        }
    }

    /// Rebuilds a cache from journal entries (oldest first).
    fn from_entries(entries: Vec<(u64, Vec<u64>)>) -> ReplayCache {
        let last_seq = entries.iter().map(|(s, _)| *s).max().unwrap_or(0);
        ReplayCache {
            last_seq,
            entries: entries.into(),
        }
    }

    fn lookup(&self, seq: u64) -> Option<&Vec<u64>> {
        self.entries.iter().find(|(s, _)| *s == seq).map(|(_, c)| c)
    }

    fn remember(&mut self, seq: u64, counts: Vec<u64>) {
        self.last_seq = self.last_seq.max(seq);
        self.entries.push_back((seq, counts));
        while self.entries.len() > REPLAY_DEPTH {
            self.entries.pop_front();
        }
    }
}

/// This node's signed-on set plus a monotonic version, bumped on every
/// edge. The version rides [`Request::FedGossip`] so a receiver can drop a
/// frame that was overtaken in flight by a newer one (sign-on gossip is a
/// wholesale replacement; applying frames out of order would resurrect a
/// signed-off user until the next edge).
struct SignonDirectory {
    version: u64,
    set: BTreeSet<u64>,
}

/// The epoch-versioned cluster view this node operates under.
///
/// `prev` holds the previous view's membership while the rebalance that the
/// current epoch implies is still settling: an instance whose previous
/// owner is a live node that has not yet announced [`Request::FedMigrateDone`]
/// is *quiesced* — ingest for it is fenced (remote) or briefly waited
/// (local) so its detector state is never mutated before the authoritative
/// hand-off lands. Everything here changes only under the write lock, which
/// also drains in-flight ingests (they hold the read lock).
struct ViewState {
    epoch: u64,
    cluster: ClusterConfig,
    prev: Option<ClusterConfig>,
    /// Members removed gracefully at this epoch (still alive; expected to
    /// hand off and announce `FedMigrateDone` like a surviving member).
    departed: Vec<u32>,
}

/// What one adopted view obliges this node to do, executed off-thread.
struct MigrationPlan {
    epoch: u64,
    /// Instances owned here under the previous view whose ownership moved.
    migrate_out: Vec<u64>,
    /// Members of the new view to send `FedMigrateDone` once `migrate_out`
    /// has been shipped (every receiver quiesces on us until then).
    notify: Vec<u32>,
}

/// Pump control block, one per peer: kick flag + gossip-dirty flag.
struct PumpCtl {
    state: Mutex<PumpState>,
    cv: Condvar,
}

struct PumpState {
    kicked: bool,
    gossip_dirty: bool,
    /// The local directory mutation log grew (or the peer may have missed
    /// part of it): run a [`Request::FedDirSync`] pass.
    dir_dirty: bool,
    /// A schema-swap generation was adopted locally that the peer may not
    /// have seen: run a [`Request::FedSchemaSwap`] push pass.
    swap_dirty: bool,
}

impl PumpCtl {
    fn new() -> PumpCtl {
        PumpCtl {
            state: Mutex::new(PumpState {
                kicked: true,
                // Send the initial gossip eagerly so peers learn our (empty)
                // sign-on set and the links come up before first use.
                gossip_dirty: true,
                // And offer the directory log eagerly — a peer that knows
                // nothing of this origin catches up before first routing.
                dir_dirty: true,
                // And the adopted schema generation, if any — a rejoining
                // peer resumes on the cluster's schema before first ingest.
                swap_dirty: true,
            }),
            cv: Condvar::new(),
        }
    }

    fn kick(&self) {
        let mut s = self.state.lock();
        s.kicked = true;
        self.cv.notify_one();
    }

    fn mark_dirty(&self) {
        let mut s = self.state.lock();
        s.gossip_dirty = true;
        s.dir_dirty = true;
        s.kicked = true;
        self.cv.notify_one();
    }

    fn mark_dir_dirty(&self) {
        let mut s = self.state.lock();
        s.dir_dirty = true;
        s.kicked = true;
        self.cv.notify_one();
    }

    fn mark_swap_dirty(&self) {
        let mut s = self.state.lock();
        s.swap_dirty = true;
        s.kicked = true;
        self.cv.notify_one();
    }
}

/// The schema-swap generation this node currently runs: the highest
/// `(generation, origin)` adopted so far, with the DSL source retained so
/// pump threads can push it to lagging or rejoining peers and the journal
/// can resume it across a restart. Ties on generation break toward the
/// *lower* origin id, mirroring the wire contract on
/// [`Request::FedSchemaSwap`].
struct SwapAdoption {
    generation: u64,
    origin: u32,
    source: String,
}

impl SwapAdoption {
    /// Is `(generation, origin)` strictly newer than this adoption?
    fn superseded_by(&self, generation: u64, origin: u32) -> bool {
        generation > self.generation || (generation == self.generation && origin < self.origin)
    }
}

/// An in-flight routed event from [`FedCore::route_external_async`]: the
/// local ingest already happened; the remote shares are riding their links'
/// batchers. Settle with [`FedCore::wait_route`] (dropping the handle
/// abandons the wait, not the delivery — the batches still flush and ack).
/// The event body is retained so a share fenced by a view change can be
/// re-routed to the instance's owner under the adopted view.
pub struct RouteHandle {
    source: String,
    time_ms: u64,
    fields: Vec<(String, Value)>,
    local: u64,
    shares: Vec<Share>,
}

/// One remote share of a routed event: the routing instances it covers
/// (empty for the instance-less default-node share) and the ticket its
/// acknowledgement arrives on (`None` when the owner had no link).
struct Share {
    node: u32,
    instances: Vec<u64>,
    ticket: Option<EventTicket>,
    timer: Option<Instant>,
    attempts: u32,
    /// The event's cross-node trace id carried in the share's wire body
    /// (0 when tracing is off or the event stayed purely local).
    trace: u64,
}

impl std::fmt::Debug for RouteHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouteHandle")
            .field("local", &self.local)
            .field("shares", &self.shares.len())
            .finish()
    }
}

/// The federation core for one node: owns the peer links, the routing
/// state, and implements [`FederationHooks`] for the node's session server.
pub struct FedCore {
    me: u32,
    /// The epoch-versioned cluster view. Ingest paths hold the read lock
    /// across their ownership check *and* the ingest itself, so adopting a
    /// view (write lock) drains every in-flight ingest first.
    view: RwLock<ViewState>,
    /// Current-view epoch mirror, read lock-free at encode time by the peer
    /// links (every outgoing `FedBatch` carries it) and by handlers that
    /// only need the number.
    view_epoch: Arc<AtomicU64>,
    /// Current-view membership mirror shared with the detector partition
    /// filter (and used by paths that run *inside* an ingest, where taking
    /// the view read lock again could deadlock with a queued writer).
    filter_cfg: Arc<Mutex<ClusterConfig>>,
    /// Members that still owe `FedMigrateDone` under the current epoch.
    migration_pending: Mutex<BTreeSet<u32>>,
    /// Instances already handed off *to* this node under the current epoch.
    handed_off: Mutex<BTreeSet<u64>>,
    /// Serializes coordinator-side membership commits.
    membership: Mutex<()>,
    /// Background migration threads, one per adopted view.
    migrations: Mutex<Vec<std::thread::JoinHandle<()>>>,
    weak_self: Weak<FedCore>,
    journal: FedJournal,
    cmi: Arc<CmiServer>,
    cfg: FedConfig,
    peers: BTreeMap<u32, Arc<PeerLink>>,
    pumps: BTreeMap<u32, Arc<PumpCtl>>,
    peer_metrics: BTreeMap<u32, PeerMetrics>,
    origin_metrics: BTreeMap<u32, OriginMetrics>,
    partition_gauge: Gauge,
    epoch_gauge: Gauge,
    rebalances: Counter,
    handoff_bytes: Histogram,
    handoff_ns: Histogram,
    stale_gossip: Counter,
    dir_ops_sent: Counter,
    dir_ops_applied: Counter,
    /// The local directory mutation log — every local directory/context
    /// mutation appends here (attached in [`FedCore::init_dir_sync`]) and
    /// delta-ships to every peer with this node as the origin.
    dir_log: Arc<DirLog>,
    /// Per-origin applied watermark: the highest contiguous foreign op
    /// version applied locally (also the [`Request::FedDirSync`] answer).
    dir_applied: Mutex<BTreeMap<u32, u64>>,
    /// Users with at least one signed-on session on THIS node (maintained
    /// from [`FederationHooks::signed_on_edge`]; never reads the server's
    /// own sign-on map, so no lock ordering constraint exists between them).
    local_signons: Mutex<SignonDirectory>,
    /// Last gossiped `(version, signed-on set)` per peer node.
    remote_signons: Mutex<BTreeMap<u32, (u64, BTreeSet<u64>)>>,
    /// Per-origin forwarded-ingest replay caches, batch granularity.
    replay: Mutex<BTreeMap<u32, ReplayCache>>,
    /// Per-origin dedup windows for routed notifications.
    seen_notes: Mutex<BTreeMap<u32, SeenWindow>>,
    /// Distinct owned instance ids observed by the router (partition-size
    /// telemetry, and the rebalance candidate set next to the engine's own
    /// instance enumeration).
    owned_seen: Mutex<BTreeSet<u64>>,
    /// The adopted schema-swap state (`None` until the first swap). The
    /// lock is held across compile-and-apply so concurrent swap requests
    /// serialize and generation assignment stays monotonic.
    swap: Mutex<Option<SwapAdoption>>,
    stopping: AtomicBool,
}

impl FedCore {
    fn new(
        cmi: Arc<CmiServer>,
        cluster: ClusterConfig,
        me: u32,
        cfg: FedConfig,
        dialers: BTreeMap<u32, Box<DialFn>>,
    ) -> Arc<FedCore> {
        // NOTE: `me` need not be a member — a joiner constructs with the
        // existing cluster's view as provisional and becomes a member when
        // its `FedJoin` commits. Links are built for every *dialable* node
        // (a superset of the membership so later joiners are reachable);
        // pumps stay idle toward non-members.
        let obs: Arc<ObsRegistry> = Arc::clone(cmi.obs());
        // Every trace id this node allocates from here on carries its
        // cluster id in the high bits, so cross-node lineages never collide.
        obs.tracer().set_node(me);
        let view_epoch = Arc::new(AtomicU64::new(0));
        let mut peers = BTreeMap::new();
        let mut pumps = BTreeMap::new();
        let mut peer_metrics = BTreeMap::new();
        let mut origin_metrics = BTreeMap::new();
        for (id, dial) in dialers {
            assert_ne!(id, me, "node {me} has a dialer for itself");
            let label = id.to_string();
            let reconnects = obs.counter_with(series::RECONNECTS, &[("peer", &label)]);
            peers.insert(
                id,
                Arc::new(PeerLink::new(
                    me,
                    id,
                    dial,
                    cfg.peer.clone(),
                    reconnects,
                    Arc::clone(&view_epoch),
                )),
            );
            pumps.insert(id, Arc::new(PumpCtl::new()));
            peer_metrics.insert(
                id,
                PeerMetrics {
                    forwards: obs.counter_with(series::FORWARDS, &[("peer", &label)]),
                    forward_ns: obs.histogram_with(
                        series::FORWARD_NS,
                        &[("peer", &label)],
                        LATENCY_BUCKETS_NS,
                    ),
                    notes_routed: obs.counter_with(series::NOTES_ROUTED, &[("peer", &label)]),
                    relays: obs.counter_with(series::RELAYS, &[("peer", &label)]),
                    remote_signons: obs.gauge_with(series::REMOTE_SIGNONS, &[("peer", &label)]),
                },
            );
            origin_metrics.insert(
                id,
                OriginMetrics {
                    events_in: obs.counter_with(series::EVENTS_IN, &[("origin", &label)]),
                    replays: obs.counter_with(series::REPLAYS, &[("origin", &label)]),
                    remote_enqueued: obs
                        .counter_with(series::REMOTE_ENQUEUED, &[("origin", &label)]),
                    dup_dropped: obs.counter_with(series::DUP_DROPPED, &[("origin", &label)]),
                },
            );
        }
        // Journal recovery: seed the replay/dedup caches, and prefer a
        // journaled view over the (possibly stale) construction-time one.
        let (journal, loaded) = match &cfg.journal_dir {
            Some(dir) => {
                let path = dir.join(format!("node-{me}.fedlog"));
                match FedJournal::open(&path, REPLAY_DEPTH, NOTE_DEDUP_WINDOW) {
                    Ok((j, st)) => (j, Some(st)),
                    Err(_) => (FedJournal::disabled(), None),
                }
            }
            None => (FedJournal::disabled(), None),
        };
        let mut replay: BTreeMap<u32, ReplayCache> = BTreeMap::new();
        let mut seen_notes: BTreeMap<u32, SeenWindow> = BTreeMap::new();
        let mut journal_dir_ops: BTreeMap<u32, Vec<(u64, Vec<u8>)>> = BTreeMap::new();
        let mut journal_swap: Option<(u64, u32, String)> = None;
        let mut initial = ViewState {
            epoch: 0,
            cluster,
            prev: None,
            departed: Vec::new(),
        };
        if let Some(st) = loaded {
            journal_dir_ops = st.dir_ops;
            journal_swap = st.swap;
            for (origin, entries) in st.replay {
                replay.insert(origin, ReplayCache::from_entries(entries));
            }
            for (origin, keys) in st.notes {
                let mut w = SeenWindow::new();
                for key in keys {
                    w.insert(key);
                }
                seen_notes.insert(origin, w);
            }
            if let Some((epoch, members)) = st.view {
                if epoch > initial.epoch {
                    if let Some(cfg) = ClusterConfig::from_members(&members) {
                        initial = ViewState {
                            epoch,
                            cluster: cfg,
                            prev: None,
                            departed: Vec::new(),
                        };
                    }
                }
            }
        }
        view_epoch.store(initial.epoch, Ordering::Release);
        for (name, help) in [
            (series::EPOCH, "Cluster-view epoch this node operates under."),
            (series::REBALANCES, "Cluster views adopted (each implies one local rebalance pass)."),
            (series::HANDOFF_BYTES, "Serialized size of each instance hand-off shipped out, bytes."),
            (series::HANDOFF_NS, "Wall latency of each instance hand-off (export to ack), nanoseconds."),
            (series::STALE_GOSSIP, "Sign-on gossip frames dropped for carrying a stale version."),
            (series::PARTITION_INSTANCES, "Distinct owned process instances this node has routed events for."),
            (series::DIR_OPS_SENT, "Directory ops shipped to peers over FedDirSync."),
            (series::DIR_OPS_APPLIED, "Foreign directory ops applied locally (duplicates excluded)."),
        ] {
            obs.metrics().describe(name, help);
        }
        let epoch_gauge = obs.gauge(series::EPOCH);
        epoch_gauge.set(initial.epoch as i64);
        let filter_cfg = Arc::new(Mutex::new(initial.cluster.clone()));
        let core = Arc::new_cyclic(|weak| FedCore {
            me,
            view: RwLock::new(initial),
            view_epoch,
            filter_cfg,
            migration_pending: Mutex::new(BTreeSet::new()),
            handed_off: Mutex::new(BTreeSet::new()),
            membership: Mutex::new(()),
            migrations: Mutex::new(Vec::new()),
            weak_self: weak.clone(),
            journal,
            partition_gauge: obs.gauge(series::PARTITION_INSTANCES),
            epoch_gauge,
            rebalances: obs.counter(series::REBALANCES),
            handoff_bytes: obs.histogram(series::HANDOFF_BYTES, HANDOFF_BYTES_BUCKETS),
            handoff_ns: obs.histogram(series::HANDOFF_NS, LATENCY_BUCKETS_NS),
            stale_gossip: obs.counter(series::STALE_GOSSIP),
            dir_ops_sent: obs.counter(series::DIR_OPS_SENT),
            dir_ops_applied: obs.counter(series::DIR_OPS_APPLIED),
            dir_log: Arc::new(DirLog::new()),
            dir_applied: Mutex::new(BTreeMap::new()),
            cmi,
            cfg,
            peers,
            pumps,
            peer_metrics,
            origin_metrics,
            local_signons: Mutex::new(SignonDirectory {
                version: 0,
                set: BTreeSet::new(),
            }),
            remote_signons: Mutex::new(BTreeMap::new()),
            replay: Mutex::new(replay),
            seen_notes: Mutex::new(seen_notes),
            owned_seen: Mutex::new(BTreeSet::new()),
            swap: Mutex::new(None),
            stopping: AtomicBool::new(false),
        });
        core.init_dir_sync(journal_dir_ops);
        // Resume the journaled schema generation: a node killed mid-swap (or
        // restarted after one) recompiles the adopted DSL source and rejoins
        // the cluster on the schema everyone else runs, not its boot-time
        // one. A source that no longer compiles (e.g. a process schema the
        // setup no longer registers) is skipped — the node keeps its boot
        // schemas and will re-adopt from a peer's swap push.
        if let Some((generation, origin, source)) = journal_swap {
            if core.cmi.hot_swap_awareness_at(&source, generation).is_ok() {
                *core.swap.lock() = Some(SwapAdoption {
                    generation,
                    origin,
                    source,
                });
            }
        }
        core
    }

    /// Replays journaled directory ops, attaches the mutation log to the
    /// directory/context stores, and subscribes the journal+pump listener.
    ///
    /// Ordering matters:
    /// 1. Claim this node's id namespace *first*, so every id allocated from
    ///    here on is cluster-unique.
    /// 2. Replay journaled ops quietly (`emit_events = false` — their context
    ///    events were detected before the restart), remembering each foreign
    ///    origin's watermark and re-importing our own ops into the log so
    ///    peers can still delta-sync from us after a restart.
    /// 3. Subscribe the listener *before* attaching, so first-boot seeding
    ///    (step 4) is journaled like any live mutation.
    /// 4. Attach the log; seed current directory content only when the
    ///    journal held none of our ops (first federated boot over possibly
    ///    pre-provisioned state).
    fn init_dir_sync(self: &Arc<Self>, journal_ops: BTreeMap<u32, Vec<(u64, Vec<u8>)>>) {
        let dir = self.cmi.directory();
        let contexts = self.cmi.contexts();
        dir.set_id_namespace(self.me);
        contexts.set_id_namespace(self.me);
        let mut own: Vec<(u64, DirOp)> = Vec::new();
        for (origin, entries) in &journal_ops {
            let mut watermark = 0u64;
            for (version, bytes) in entries {
                let Ok(op) = decode_dir_op_bytes(bytes) else {
                    continue;
                };
                apply_dir_op(dir, contexts, &op, false);
                watermark = *version;
                if *origin == self.me {
                    // Replayed own ids must never be re-allocated. Foreign
                    // ids live in other namespaces and must not move ours.
                    match &op {
                        DirOp::Participant { id, .. } | DirOp::Role { id, .. } => {
                            dir.ensure_id_floor(*id)
                        }
                        DirOp::CtxCreate { id, .. } => contexts.ensure_id_floor(*id),
                        _ => {}
                    }
                    own.push((*version, op));
                }
            }
            if *origin != self.me && watermark > 0 {
                self.dir_applied.lock().insert(*origin, watermark);
            }
        }
        self.dir_log.import(&own);
        let weak = self.weak_self.clone();
        self.dir_log.subscribe(Arc::new(move |version, op| {
            if let Some(core) = weak.upgrade() {
                core.journal
                    .dirop_applied(core.me, version, &encode_dir_op_bytes(op));
                for ctl in core.pumps.values() {
                    ctl.mark_dir_dirty();
                }
            }
        }));
        let seed = self.dir_log.is_empty();
        dir.attach_op_log(&self.dir_log, seed);
        contexts.attach_op_log(&self.dir_log, seed);
    }

    /// This node's directory mutation log (test/diagnostic hook).
    pub fn dir_log(&self) -> &Arc<DirLog> {
        &self.dir_log
    }

    /// The highest contiguous directory-op version applied from `origin`
    /// (test/diagnostic hook).
    pub fn dir_watermark(&self, origin: u32) -> u64 {
        self.dir_applied.lock().get(&origin).copied().unwrap_or(0)
    }

    /// This node's cluster id.
    pub fn node_id(&self) -> u32 {
        self.me
    }

    /// The cluster configuration of the current view (a snapshot — the
    /// membership is elastic and may change under the caller).
    pub fn cluster(&self) -> ClusterConfig {
        self.view.read().cluster.clone()
    }

    /// The current epoch-versioned cluster view (a snapshot).
    pub fn current_view(&self) -> ClusterView {
        let v = self.view.read();
        ClusterView {
            epoch: v.epoch,
            config: v.cluster.clone(),
        }
    }

    /// The current view epoch (lock-free).
    pub fn current_epoch(&self) -> u64 {
        self.view_epoch.load(Ordering::Acquire)
    }

    /// True once every migration this node owes (outbound hand-offs) and is
    /// owed (peers' `FedMigrateDone`) under the current view has settled.
    pub fn migration_settled(&self) -> bool {
        self.migrations.lock().iter().all(|h| h.is_finished())
            && self.migration_pending.lock().is_empty()
    }

    /// The detector partition filter tracking this node's *current* view
    /// (installed by [`FedNode::new`]; the static
    /// [`ClusterConfig::partition_filter`] is frozen at one membership).
    pub fn partition_filter(&self) -> PartitionFilter {
        let cfg = Arc::clone(&self.filter_cfg);
        let me = self.me;
        Arc::new(move |instance| cfg.lock().owner_of(instance) == me)
    }

    /// How many users the last gossip from `node` reported signed on there
    /// (zero for an unknown peer). Diagnostic / test introspection.
    pub fn remote_signon_count(&self, node: u32) -> usize {
        self.remote_signons
            .lock()
            .get(&node)
            .map_or(0, |(_, set)| set.len())
    }

    /// How many users currently hold signed-on sessions on this node.
    pub fn local_signon_count(&self) -> usize {
        self.local_signons.lock().set.len()
    }

    /// How many *current-view* peer links hold a live connection.
    /// Diagnostic / readiness introspection (a full mesh reports
    /// `cluster.len() - 1`).
    pub fn connected_peers(&self) -> usize {
        let v = self.view.read();
        self.peers
            .iter()
            .filter(|(id, l)| v.cluster.is_member(**id) && l.is_connected())
            .count()
    }

    /// `(epoch, members, departed)` of the current view.
    fn view_snapshot(&self) -> (u64, Vec<(u32, String)>, Vec<u32>) {
        let v = self.view.read();
        (v.epoch, v.cluster.to_members(), v.departed.clone())
    }

    /// Whether `raw` may be ingested here under view `v` (caller owns it).
    /// An instance gained in the last view change is *quiesced* until its
    /// authoritative state arrives: either the hand-off itself landed, or
    /// the previous owner announced it has nothing more to ship. A previous
    /// owner that is neither a member nor a graceful leaver was evicted —
    /// its state is lost and the instance restarts empty immediately.
    fn instance_ready(&self, v: &ViewState, raw: u64) -> bool {
        let Some(prev) = &v.prev else { return true };
        let prev_owner = prev.owner_of_instance(raw);
        if prev_owner == self.me {
            return true;
        }
        if self.handed_off.lock().contains(&raw) {
            return true;
        }
        !self.migration_pending.lock().contains(&prev_owner)
    }

    /// Wire-form entry to [`FedCore::adopt_view`].
    fn adopt_members(&self, epoch: u64, members: &[(u32, String)], departed: &[u32]) -> bool {
        match ClusterConfig::from_members(members) {
            Some(cfg) => self.adopt_view(epoch, cfg, departed.to_vec()),
            None => false,
        }
    }

    /// Adopts `config` as the view at `epoch` if it is newer than the
    /// current one, computes this node's migration obligations, and runs
    /// them on a background thread. Returns whether the view was adopted.
    fn adopt_view(&self, epoch: u64, config: ClusterConfig, departed: Vec<u32>) -> bool {
        let members_wire = config.to_members();
        let plan = {
            let mut v = self.view.write();
            if epoch <= v.epoch {
                return false;
            }
            // Migration candidates: every instance with live detector state
            // plus every instance the router has seen this node own.
            let mut candidates: BTreeSet<u64> =
                self.cmi.awareness().instances().into_iter().collect();
            candidates.extend(self.owned_seen.lock().iter().copied());
            let old = std::mem::replace(&mut v.cluster, config.clone());
            let migrate_out: Vec<u64> = candidates
                .into_iter()
                .filter(|&raw| {
                    old.owner_of_instance(raw) == self.me
                        && config.owner_of_instance(raw) != self.me
                })
                .collect();
            *self.migration_pending.lock() = old
                .nodes()
                .iter()
                .map(|n| n.id)
                .filter(|&id| {
                    id != self.me && (config.is_member(id) || departed.contains(&id))
                })
                .collect();
            self.handed_off.lock().clear();
            // The filter mirror updates inside the write lock: ingests (and
            // therefore emissions) are drained, so no event is ever
            // filtered under a view other than the one it ingested under.
            *self.filter_cfg.lock() = config;
            v.prev = Some(old);
            v.departed = departed;
            v.epoch = epoch;
            self.view_epoch.store(epoch, Ordering::Release);
            self.epoch_gauge.set(epoch as i64);
            MigrationPlan {
                epoch,
                migrate_out,
                notify: members_wire
                    .iter()
                    .map(|(id, _)| *id)
                    .filter(|&id| id != self.me)
                    .collect(),
            }
        };
        self.journal.view_adopted(epoch, &members_wire);
        self.cmi.obs().flight().record(
            FlightKind::EpochCommit,
            format!(
                "epoch={epoch} members={} migrate_out={}",
                members_wire.len(),
                plan.migrate_out.len()
            ),
        );
        self.rebalances.inc();
        self.mark_all_dirty();
        if let Some(core) = self.weak_self.upgrade() {
            let handle = std::thread::Builder::new()
                .name(format!("cmi-fed-migrate-{epoch}"))
                .spawn(move || core.run_migration(plan))
                .expect("spawn fed migration thread");
            let mut threads = self.migrations.lock();
            threads.retain(|h| !h.is_finished());
            threads.push(handle);
        }
        true
    }

    /// Ships every instance the adopted view moved away from this node to
    /// its new owner (quiesce → export → `FedHandoff` → evict), then
    /// announces `FedMigrateDone` so receivers release their quiesce on us.
    /// In-flight ingests were drained by the adopt itself (write lock), so
    /// every exported snapshot is complete up to the epoch boundary.
    fn run_migration(&self, plan: MigrationPlan) {
        for &raw in &plan.migrate_out {
            if self.stopping.load(Ordering::Acquire)
                || self.view_epoch.load(Ordering::Acquire) != plan.epoch
            {
                // Shut down or superseded by a newer view (whose own plan
                // re-enumerates anything still here).
                return;
            }
            let owner = self.view.read().cluster.owner_of_instance(raw);
            if owner == self.me {
                continue;
            }
            let Some(link) = self.peers.get(&owner) else {
                continue;
            };
            let parts = self.cmi.awareness().export_instance(raw);
            let bytes: usize = parts
                .iter()
                .map(|(_, name, body)| 12 + name.len() + body.len())
                .sum();
            self.cmi.obs().flight().record(
                FlightKind::HandoffStart,
                format!("instance={raw} owner={owner} epoch={} bytes={bytes}", plan.epoch),
            );
            let timer = self.handoff_ns.start();
            let req = Request::FedHandoff {
                origin: self.me,
                epoch: plan.epoch,
                instance: raw,
                parts,
            };
            let deadline = Instant::now() + HANDOFF_PATIENCE;
            loop {
                if self.stopping.load(Ordering::Acquire) {
                    return;
                }
                match link.call(&req) {
                    Ok(Response::Fenced { epoch }) if epoch > plan.epoch => {
                        // The receiver is already on a newer view: this
                        // whole plan is stale. Learn the view and stop.
                        self.fetch_view_from(owner);
                        return;
                    }
                    Ok(Response::Fenced { .. }) => {
                        // The receiver lags; push the view and retry.
                        self.push_view_to(owner);
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Ok(Response::Err { .. }) | Err(_) => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Ok(_) => {
                        // The tracer's history for the instance closes out
                        // with a terminal `migrated` stage before the engine
                        // eviction drops the operator state it describes.
                        let closed =
                            self.cmi.obs().tracer().migrate_instance(raw).len();
                        self.cmi.awareness().evict_instance(ProcessInstanceId(raw));
                        self.owned_seen.lock().remove(&raw);
                        self.handoff_bytes.observe(bytes as u64);
                        self.handoff_ns.observe_since(timer);
                        self.cmi.obs().flight().record(
                            FlightKind::HandoffFinish,
                            format!(
                                "instance={raw} owner={owner} epoch={} traces_closed={closed}",
                                plan.epoch
                            ),
                        );
                        break;
                    }
                }
                if Instant::now() >= deadline {
                    // Unreachable new owner: keep the (now non-authoritative)
                    // state local rather than stall the whole rebalance.
                    break;
                }
            }
        }
        let done = Request::FedMigrateDone {
            origin: self.me,
            epoch: plan.epoch,
        };
        for &id in &plan.notify {
            let Some(link) = self.peers.get(&id) else {
                continue;
            };
            let deadline = Instant::now() + HANDOFF_PATIENCE;
            loop {
                if self.stopping.load(Ordering::Acquire) {
                    return;
                }
                match link.call(&done) {
                    Ok(Response::Fenced { epoch }) if epoch > plan.epoch => break,
                    Ok(Response::Fenced { .. }) => {
                        self.push_view_to(id);
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Ok(_) => break,
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
                if Instant::now() >= deadline {
                    break;
                }
            }
        }
        self.kick_all();
    }

    /// Pulls the peer's view and adopts it if newer (fence recovery when
    /// this node is the one behind).
    fn fetch_view_from(&self, node: u32) {
        let Some(link) = self.peers.get(&node) else { return };
        if let Ok(Response::View {
            epoch,
            members,
            departed,
        }) = link.call(&Request::FedViewFetch)
        {
            self.cmi.obs().flight().record(
                FlightKind::ViewFetch,
                format!("from={node} epoch={epoch} members={}", members.len()),
            );
            self.adopt_members(epoch, &members, &departed);
        }
    }

    /// Pushes this node's view to a lagging peer (fence recovery when the
    /// peer is behind).
    fn push_view_to(&self, node: u32) {
        let Some(link) = self.peers.get(&node) else { return };
        let (epoch, members, departed) = self.view_snapshot();
        let _ = link.call(&Request::FedViewChange {
            epoch,
            members,
            departed,
        });
    }

    /// Reconciles views after `node` fenced a request at `fenced_epoch`:
    /// fetch when behind, push when ahead, briefly yield when equal (an
    /// equal-epoch fence means the receiver is quiescing a mid-migration
    /// instance, or the request was routed under a superseded ownership).
    fn resolve_fence(&self, node: u32, fenced_epoch: u64) {
        let mine = self.view_epoch.load(Ordering::Acquire);
        if fenced_epoch > mine {
            self.fetch_view_from(node);
        } else if fenced_epoch < mine {
            self.push_view_to(node);
        } else {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    /// Handles a pushed view: adopt if newer, otherwise acknowledge
    /// idempotently (the sender only needs to know we are not behind).
    fn on_view_change(&self, epoch: u64, members: &[(u32, String)], departed: &[u32]) -> Response {
        if ClusterConfig::from_members(members).is_none() {
            return Response::Err {
                message: "malformed cluster view (empty or duplicate member ids)".into(),
            };
        }
        self.adopt_members(epoch, members, departed);
        Response::Ok
    }

    fn on_view_fetch(&self) -> Response {
        let (epoch, members, departed) = self.view_snapshot();
        Response::View {
            epoch,
            members,
            departed,
        }
    }

    /// Imports one migrated instance's detector state. Held under the view
    /// read lock so a concurrent adopt drains behind it; fenced when the
    /// sender's epoch differs (it resolves views and retries).
    fn on_handoff(
        &self,
        _origin: u32,
        epoch: u64,
        instance: u64,
        parts: &[(u32, String, Vec<u8>)],
    ) -> Response {
        let v = self.view.read();
        if epoch != v.epoch {
            self.cmi.obs().flight().record(
                FlightKind::FenceRejected,
                format!("req=handoff instance={instance} theirs={epoch} ours={}", v.epoch),
            );
            return Response::Fenced { epoch: v.epoch };
        }
        if v.cluster.owner_of_instance(instance) != self.me {
            return Response::Err {
                message: format!(
                    "node {} does not own instance {instance} at epoch {epoch}",
                    self.me
                ),
            };
        }
        let installed = self.cmi.awareness().import_instance(instance, parts);
        self.handed_off.lock().insert(instance);
        {
            let mut owned = self.owned_seen.lock();
            owned.insert(instance);
            self.partition_gauge.set(owned.len() as i64);
        }
        Response::Count(installed as u64)
    }

    /// A peer finished shipping everything it owed under `epoch`: release
    /// the quiesce on instances it previously owned.
    fn on_migrate_done(&self, origin: u32, epoch: u64) -> Response {
        let v = self.view.read();
        if epoch > v.epoch {
            self.cmi.obs().flight().record(
                FlightKind::FenceRejected,
                format!("req=migrate-done origin={origin} theirs={epoch} ours={}", v.epoch),
            );
            return Response::Fenced { epoch: v.epoch };
        }
        if epoch == v.epoch {
            self.migration_pending.lock().remove(&origin);
        }
        Response::Ok
    }

    /// The deterministic membership coordinator: the lowest live member id
    /// (excluding a node that is itself being removed).
    fn coordinator(members: &[(u32, String)], exclude: Option<u32>) -> Option<u32> {
        members
            .iter()
            .map(|(id, _)| *id)
            .filter(|id| Some(*id) != exclude)
            .min()
    }

    /// Join proposal: relay to the coordinator, or commit if that is us.
    fn on_join(&self, node: u32, addr: &str) -> Response {
        let (_, members, _) = self.view_snapshot();
        let Some(coord) = Self::coordinator(&members, None) else {
            return Response::Err {
                message: "cluster has no members to join through".into(),
            };
        };
        if coord != self.me {
            return self.relay_proposal(
                coord,
                &Request::FedJoin {
                    node,
                    addr: addr.to_owned(),
                },
            );
        }
        let _serial = self.membership.lock();
        // Re-read under the commit lock: another proposal may have landed.
        let (epoch, mut members, _) = self.view_snapshot();
        if let Some((_, existing)) = members.iter().find(|(id, _)| *id == node) {
            if existing == addr {
                return self.on_view_fetch(); // idempotent re-join
            }
            return Response::Err {
                message: format!("node {node} is already a member under a different address"),
            };
        }
        members.push((node, addr.to_owned()));
        members.sort_unstable_by_key(|(id, _)| *id);
        self.commit_view(epoch + 1, members, Vec::new())
    }

    /// Graceful-leave proposal: the leaver stays live to hand off, so it is
    /// listed in the new view's `departed` set and receivers quiesce on it.
    fn on_leave(&self, node: u32) -> Response {
        let (_, members, _) = self.view_snapshot();
        if !members.iter().any(|(id, _)| *id == node) {
            return self.on_view_fetch(); // idempotent re-leave
        }
        if members.len() <= 1 {
            return Response::Err {
                message: format!("node {node} cannot leave a single-node cluster"),
            };
        }
        let Some(coord) = Self::coordinator(&members, Some(node)) else {
            return Response::Err {
                message: "no coordinator for leave".into(),
            };
        };
        if coord != self.me {
            return self.relay_proposal(coord, &Request::FedLeave { node });
        }
        let _serial = self.membership.lock();
        let (epoch, members, _) = self.view_snapshot();
        let remaining: Vec<(u32, String)> =
            members.into_iter().filter(|(id, _)| *id != node).collect();
        self.commit_view(epoch + 1, remaining, vec![node])
    }

    /// Eviction proposal: the node is presumed dead — nobody waits for its
    /// hand-offs, and instances it owned restart with empty state.
    fn on_evict(&self, node: u32) -> Response {
        if node == self.me {
            return Response::Err {
                message: "a node cannot evict itself (use leave)".into(),
            };
        }
        let (_, members, _) = self.view_snapshot();
        if !members.iter().any(|(id, _)| *id == node) {
            return self.on_view_fetch(); // idempotent re-evict
        }
        let Some(coord) = Self::coordinator(&members, Some(node)) else {
            return Response::Err {
                message: "no coordinator for evict".into(),
            };
        };
        if coord != self.me {
            return self.relay_proposal(coord, &Request::FedEvict { node });
        }
        let _serial = self.membership.lock();
        let (epoch, members, _) = self.view_snapshot();
        let remaining: Vec<(u32, String)> =
            members.into_iter().filter(|(id, _)| *id != node).collect();
        self.commit_view(epoch + 1, remaining, Vec::new())
    }

    /// Forwards a membership proposal to the coordinator and adopts the
    /// committed view from its response before passing it through.
    fn relay_proposal(&self, coord: u32, req: &Request) -> Response {
        let Some(link) = self.peers.get(&coord) else {
            return Response::Err {
                message: format!("no link to membership coordinator node {coord}"),
            };
        };
        match link.call(req) {
            Ok(resp) => {
                if let Response::View {
                    epoch,
                    members,
                    departed,
                } = &resp
                {
                    self.adopt_members(*epoch, members, departed);
                }
                resp
            }
            Err(e) => Response::Err {
                message: format!("membership coordinator node {coord} unreachable: {e}"),
            },
        }
    }

    /// Coordinator-side commit: adopt locally (which starts this node's own
    /// migration), then broadcast best-effort to every new member and every
    /// graceful leaver — a node that misses the broadcast converges through
    /// epoch fencing on its next data-plane exchange.
    fn commit_view(&self, epoch: u64, members: Vec<(u32, String)>, departed: Vec<u32>) -> Response {
        if ClusterConfig::from_members(&members).is_none() {
            return Response::Err {
                message: "refusing to commit a malformed cluster view".into(),
            };
        }
        self.adopt_members(epoch, &members, &departed);
        let msg = Request::FedViewChange {
            epoch,
            members: members.clone(),
            departed: departed.clone(),
        };
        for id in members
            .iter()
            .map(|(id, _)| *id)
            .chain(departed.iter().copied())
        {
            if id == self.me {
                continue;
            }
            if let Some(link) = self.peers.get(&id) {
                let _ = link.call(&msg);
            }
        }
        Response::View {
            epoch,
            members,
            departed,
        }
    }

    /// Proposes adding `node` (dialable at `addr`) to the cluster. Returns
    /// the committed epoch. Proposing this node's own id is how a freshly
    /// constructed joiner (whose provisional view excludes it) enters.
    pub fn propose_join(&self, node: u32, addr: &str) -> FedResult<u64> {
        Self::settle_proposal(self.on_join(node, addr))
    }

    /// Proposes the graceful removal of `node` (hand-offs expected).
    pub fn propose_leave(&self, node: u32) -> FedResult<u64> {
        Self::settle_proposal(self.on_leave(node))
    }

    /// Proposes evicting dead `node` (no hand-offs; its state is lost).
    pub fn propose_evict(&self, node: u32) -> FedResult<u64> {
        Self::settle_proposal(self.on_evict(node))
    }

    fn settle_proposal(resp: Response) -> FedResult<u64> {
        match resp {
            Response::View { epoch, .. } => Ok(epoch),
            Response::Err { message } => Err(FedError::Remote {
                node: u32::MAX,
                message,
            }),
            other => Err(FedError::Remote {
                node: u32::MAX,
                message: format!("unexpected membership response: {other:?}"),
            }),
        }
    }

    /// Routes one external event: local ingest for owned instances, one
    /// batched submission per remote owner. Returns the total notifications
    /// enqueued across the cluster for this event.
    pub fn route_external(
        &self,
        source: &str,
        fields: &[(String, Value)],
    ) -> FedResult<u64> {
        let handle = self.route_external_async(source, fields);
        self.wait_route(handle)
    }

    /// The pipelined half of [`FedCore::route_external`]: ingests locally
    /// and *submits* to each remote owner's batcher without waiting for
    /// acknowledgements, so a caller can keep many events in flight (the
    /// links aggregate concurrent submissions into multi-event
    /// [`Request::FedBatch`] frames). Settle with [`FedCore::wait_route`].
    pub fn route_external_async(
        &self,
        source: &str,
        fields: &[(String, Value)],
    ) -> RouteHandle {
        let t: Timestamp = Clock::now(self.cmi.clock());
        let event = producers::external_event(source, t, fields.to_vec());
        let instances: Vec<u64> = self
            .cmi
            .awareness()
            .routing_instances(&event)
            .into_iter()
            .collect();
        let deadline = Instant::now() + self.cfg.peer.response_timeout;
        loop {
            // Ownership is resolved and the local share ingested under ONE
            // view read lock, so a concurrent view change cannot slip
            // between the check and the ingest. An owned instance that is
            // still quiescing (mid-migration) is waited out briefly.
            let v = self.view.read();
            let by_owner = Self::partition_by_owner(&v.cluster, &instances);
            if let Some(mine) = by_owner.get(&self.me) {
                if !mine.iter().all(|&raw| self.instance_ready(&v, raw))
                    && Instant::now() < deadline
                {
                    drop(v);
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
            }
            let mut local = 0u64;
            let mut shares = Vec::new();
            // One ingest-hop trace covers every remote share of this event;
            // the id rides each forwarded body so the owners splice their
            // own segments onto the same cluster-unique lineage.
            let trace = self.begin_ingest_trace(&by_owner, source);
            for (node, insts) in by_owner {
                if node == self.me {
                    if !insts.is_empty() {
                        let mut owned = self.owned_seen.lock();
                        owned.extend(insts.iter().copied());
                        self.partition_gauge.set(owned.len() as i64);
                    }
                    local += self.cmi.awareness().ingest(&event).len() as u64;
                    continue;
                }
                shares.push(self.submit_share(source, t.millis(), fields, node, insts, 0, trace));
            }
            return RouteHandle {
                source: source.to_owned(),
                time_ms: t.millis(),
                fields: fields.to_vec(),
                local,
                shares,
            };
        }
    }

    /// Groups routing instances by owning node under `cluster`; an
    /// instance-less event maps to the default node with an empty set.
    fn partition_by_owner(cluster: &ClusterConfig, instances: &[u64]) -> BTreeMap<u32, Vec<u64>> {
        let mut by_owner: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        if instances.is_empty() {
            by_owner.insert(cluster.default_node(), Vec::new());
        } else {
            for &raw in instances {
                by_owner
                    .entry(cluster.owner_of_instance(raw))
                    .or_default()
                    .push(raw);
            }
        }
        by_owner
    }

    /// Opens the ingest-hop segment for an event with at least one remote
    /// share, stamping its `ingest` stage. Returns the cluster-unique trace
    /// id to carry on the wire (0 when tracing is off or every share is
    /// local).
    fn begin_ingest_trace(&self, by_owner: &BTreeMap<u32, Vec<u64>>, source: &str) -> u64 {
        let tracer = self.cmi.obs().tracer();
        if !tracer.is_enabled() || by_owner.keys().all(|&n| n == self.me) {
            return 0;
        }
        // Anchor the segment on the first forwarded instance so it lives in
        // (and migrates with) that instance's ring.
        let instance = by_owner
            .iter()
            .filter(|(node, _)| **node != self.me)
            .flat_map(|(_, insts)| insts.iter().copied())
            .next();
        match tracer.begin_hop(instance, source, TraceHop::Ingest) {
            Some(id) => {
                tracer.stage(id, "ingest");
                id
            }
            None => 0,
        }
    }

    /// Submits one remote share to `node`'s batcher (a share without a link
    /// settles as [`FedError::NotAMember`] at wait time).
    #[allow(clippy::too_many_arguments)]
    fn submit_share(
        &self,
        source: &str,
        time_ms: u64,
        fields: &[(String, Value)],
        node: u32,
        instances: Vec<u64>,
        attempts: u32,
        trace: u64,
    ) -> Share {
        let (ticket, timer) = match self.peers.get(&node) {
            Some(link) => (
                Some(link.submit(FedEventBody {
                    source: source.to_owned(),
                    time_ms,
                    trace,
                    fields: fields.to_vec(),
                })),
                self.peer_metrics[&node].forward_ns.start(),
            ),
            None => (None, None),
        };
        if trace != 0 && ticket.is_some() {
            self.cmi.obs().tracer().stage(trace, "fwd-send");
        }
        Share {
            node,
            instances,
            ticket,
            timer,
            attempts,
            trace,
        }
    }

    /// Waits for every remote acknowledgement behind `handle` and returns
    /// the cluster-wide notification count. A share fenced by a view change
    /// is re-partitioned under the adopted view and re-submitted (bounded
    /// by `MAX_ROUTE_RETRIES`); a share whose owner became unreachable is
    /// retried likewise if ownership moved, and otherwise surfaces
    /// [`FedError::PeerUnavailable`] naming the instance's *current* owner
    /// under the latest view. Every ticket is drained even on failure (the
    /// first error wins) so per-peer metrics stay accurate.
    pub fn wait_route(&self, handle: RouteHandle) -> FedResult<u64> {
        let RouteHandle {
            source,
            time_ms,
            fields,
            local,
            shares,
        } = handle;
        let mut total = local;
        let mut first_err: Option<FedError> = None;
        let mut work: VecDeque<Share> = shares.into();
        while let Some(sh) = work.pop_front() {
            let res = match (&sh.ticket, self.peers.get(&sh.node)) {
                (Some(ticket), Some(link)) => link.wait_event(ticket),
                _ => Err(FedError::NotAMember { node: sh.node }),
            };
            match res {
                Ok(k) => {
                    let m = &self.peer_metrics[&sh.node];
                    m.forward_ns.observe_since(sh.timer);
                    m.forwards.inc();
                    if sh.trace != 0 {
                        self.cmi.obs().tracer().stage(sh.trace, "fwd-ack");
                    }
                    total += k;
                }
                Err(FedError::EpochFenced { node, epoch }) if sh.attempts < MAX_ROUTE_RETRIES => {
                    // Nothing was ingested at the fenced receiver: resolve
                    // the views and re-route this share's instances to
                    // their owners under the current view.
                    self.resolve_fence(node, epoch);
                    self.reroute_share(&source, time_ms, &fields, &sh, &mut total, &mut work);
                }
                Err(FedError::PeerUnavailable { .. })
                    if sh.attempts < MAX_ROUTE_RETRIES && self.share_moved(&sh) =>
                {
                    self.reroute_share(&source, time_ms, &fields, &sh, &mut total, &mut work);
                }
                Err(FedError::PeerUnavailable {
                    window,
                    oldest_unacked,
                    ..
                }) => {
                    // Ownership did not move (or retries ran out): name the
                    // instance's owner under the *latest* view, which is
                    // what the caller must wait on or evict.
                    first_err.get_or_insert(FedError::PeerUnavailable {
                        node: self.current_share_owner(&sh),
                        window,
                        oldest_unacked,
                    });
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(total),
        }
    }

    /// Whether any of `sh`'s instances (or the default node, for an
    /// instance-less share) is owned by a different node than the share was
    /// submitted to under the current view.
    fn share_moved(&self, sh: &Share) -> bool {
        self.current_share_owner(sh) != sh.node
            || (!sh.instances.is_empty() && {
                let v = self.view.read();
                sh.instances
                    .iter()
                    .any(|&raw| v.cluster.owner_of_instance(raw) != sh.node)
            })
    }

    /// The current-view owner of the share's first instance (or the default
    /// node for an instance-less share).
    fn current_share_owner(&self, sh: &Share) -> u32 {
        let v = self.view.read();
        match sh.instances.first() {
            Some(&raw) => v.cluster.owner_of_instance(raw),
            None => v.cluster.default_node(),
        }
    }

    /// Re-partitions a failed share's instances under the current view:
    /// now-local instances ingest here (waiting out a quiesce), the rest
    /// re-submit to their owners as fresh shares on the work queue.
    fn reroute_share(
        &self,
        source: &str,
        time_ms: u64,
        fields: &[(String, Value)],
        sh: &Share,
        total: &mut u64,
        work: &mut VecDeque<Share>,
    ) {
        let event = producers::external_event(
            source,
            Timestamp::from_millis(time_ms),
            fields.to_vec(),
        );
        let deadline = Instant::now() + self.cfg.peer.response_timeout;
        loop {
            let v = self.view.read();
            let by_owner = Self::partition_by_owner(&v.cluster, &sh.instances);
            if let Some(mine) = by_owner.get(&self.me) {
                if !mine.iter().all(|&raw| self.instance_ready(&v, raw))
                    && Instant::now() < deadline
                {
                    drop(v);
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
            }
            for (node, insts) in by_owner {
                if node == self.me {
                    if !insts.is_empty() {
                        let mut owned = self.owned_seen.lock();
                        owned.extend(insts.iter().copied());
                        self.partition_gauge.set(owned.len() as i64);
                    }
                    *total += self.cmi.awareness().ingest(&event).len() as u64;
                    continue;
                }
                work.push_back(self.submit_share(
                    source,
                    time_ms,
                    fields,
                    node,
                    insts,
                    sh.attempts + 1,
                    sh.trace,
                ));
            }
            return;
        }
    }

    /// Handles a forwarded multi-event batch from `origin` (exactly-once
    /// via the per-origin replay cache keyed by the link-local sequence
    /// number, one cached count vector per batch).
    ///
    /// Fencing order matters: the replay cache answers first (a cached
    /// sequence was ingested under whatever view was current then, and its
    /// counts stand regardless of epochs), then the sender's epoch is
    /// checked, then every event's ownership and migration readiness. Any
    /// failure fences the WHOLE batch with nothing ingested — the sender's
    /// router resolves views and re-routes per event.
    fn on_fed_batch(&self, origin: u32, seq: u64, epoch: u64, events: &[FedEventBody]) -> Response {
        let Some(m) = self.origin_metrics.get(&origin) else {
            return Response::Err {
                message: format!("node {origin} is not a cluster peer"),
            };
        };
        // The replay lock is held through the ingest so (seq → counts) is
        // recorded atomically; contention is bounded because each origin's
        // link serializes its own frames.
        let mut replay = self.replay.lock();
        let cache = replay.entry(origin).or_insert_with(ReplayCache::new);
        if let Some(counts) = cache.lookup(seq) {
            m.replays.inc();
            return Response::Counts(counts.clone());
        }
        if seq <= cache.last_seq {
            // At or below the high-water mark but no longer cached: the
            // sender's bounded window can never legitimately resend this
            // far back, so refuse rather than risk a double ingest.
            return Response::Err {
                message: format!(
                    "replayed batch seq {seq} from node {origin} is beyond the replay \
                     cache (high-water mark {})",
                    cache.last_seq
                ),
            };
        }
        let v = self.view.read();
        if epoch != v.epoch {
            self.cmi.obs().flight().record(
                FlightKind::FenceRejected,
                format!("req=batch origin={origin} seq={seq} theirs={epoch} ours={}", v.epoch),
            );
            return Response::Fenced { epoch: v.epoch };
        }
        // Pre-scan every event before ingesting any: a batch that is even
        // partially misrouted (an instance this node no longer owns — the
        // sender buffered it across a view change) or not yet ready (an
        // owned instance still awaiting its hand-off) is fenced whole.
        let mut parsed = Vec::with_capacity(events.len());
        for body in events {
            let event = producers::external_event(
                &body.source,
                Timestamp::from_millis(body.time_ms),
                body.fields.clone(),
            );
            let instances: Vec<u64> = self
                .cmi
                .awareness()
                .routing_instances(&event)
                .into_iter()
                .collect();
            if instances.is_empty() {
                if v.cluster.default_node() != self.me {
                    self.cmi.obs().flight().record(
                        FlightKind::FenceRejected,
                        format!("req=batch origin={origin} seq={seq} misrouted default share"),
                    );
                    return Response::Fenced { epoch: v.epoch };
                }
            } else {
                let mine: Vec<u64> = instances
                    .iter()
                    .copied()
                    .filter(|&raw| v.cluster.owner_of_instance(raw) == self.me)
                    .collect();
                if mine.is_empty() || mine.iter().any(|&raw| !self.instance_ready(&v, raw)) {
                    self.cmi.obs().flight().record(
                        FlightKind::FenceRejected,
                        format!("req=batch origin={origin} seq={seq} instance not ready/owned"),
                    );
                    return Response::Fenced { epoch: v.epoch };
                }
            }
            parsed.push((event, instances));
        }
        let mut counts = Vec::with_capacity(events.len());
        {
            let tracer = self.cmi.obs().tracer();
            let mut owned = self.owned_seen.lock();
            for (body, (event, instances)) in events.iter().zip(&parsed) {
                for &raw in instances {
                    if v.cluster.owner_of_instance(raw) == self.me {
                        owned.insert(raw);
                    }
                }
                // A carried trace id splices this node's segment onto the
                // sender's ingest hop: open the owner-side segment (no-op on
                // a retransmit overlap), stamp the receive, and let the
                // first detection under the carrier claim it.
                let carrier = if body.trace != 0 && tracer.is_enabled() {
                    tracer.open_segment(
                        body.trace,
                        TraceHop::Owner,
                        &body.source,
                        instances.first().copied(),
                    );
                    tracer.stage(body.trace, "fwd-recv");
                    Some(body.trace)
                } else {
                    None
                };
                counts.push(self.cmi.awareness().ingest_traced(event, carrier).len() as u64);
            }
            self.partition_gauge.set(owned.len() as i64);
        }
        m.events_in.add(events.len() as u64);
        let resp = Response::Counts(counts.clone());
        self.journal.batch_ingested(origin, seq, &counts);
        cache.remember(seq, counts);
        resp
    }

    /// Handles a single forwarded event from `origin` — the pre-batching
    /// wire form, kept for mixed-version peers. Shares the batch replay
    /// cache (a one-event batch under the same sequence space).
    fn on_fed_event(
        &self,
        origin: u32,
        seq: u64,
        source: &str,
        time_ms: u64,
        fields: &[(String, Value)],
    ) -> Response {
        let body = FedEventBody {
            source: source.to_owned(),
            time_ms,
            trace: 0,
            fields: fields.to_vec(),
        };
        let epoch = self.view_epoch.load(Ordering::Acquire);
        match self.on_fed_batch(origin, seq, epoch, std::slice::from_ref(&body)) {
            Response::Counts(counts) => Response::Count(counts.first().copied().unwrap_or(0)),
            other => other,
        }
    }

    /// Handles a routed-notification batch from `origin`. Fenced whole on
    /// an epoch mismatch (nothing enqueued; the pump resolves views and
    /// retries next pass, with the dedup window collapsing any overlap).
    fn on_fed_notify(
        &self,
        origin: u32,
        epoch: u64,
        notes: &[(u64, u32, Notification, u64)],
    ) -> Response {
        let Some(m) = self.origin_metrics.get(&origin) else {
            return Response::Err {
                message: format!("node {origin} is not a cluster peer"),
            };
        };
        let mine = self.view_epoch.load(Ordering::Acquire);
        if epoch != mine {
            self.cmi.obs().flight().record(
                FlightKind::FenceRejected,
                format!("req=notify origin={origin} theirs={epoch} ours={mine}"),
            );
            return Response::Fenced { epoch: mine };
        }
        let mut processed = 0u64;
        for (origin_seq, hops, n, trace) in notes {
            if self
                .seen_notes
                .lock()
                .entry(origin)
                .or_insert_with(SeenWindow::new)
                .contains(*origin_seq)
            {
                m.dup_dropped.inc();
                processed += 1;
                continue;
            }
            let user = n.user;
            let local = self.local_signons.lock().set.contains(&user.raw());
            if !local {
                // Stale gossip: the subscriber is not here. Chase them if
                // another peer claims them (bounded by the hop cap), else
                // park the notification in the local durable queue.
                if let Some(next) = self.claiming_peer(user) {
                    if *hops < self.cfg.max_hops {
                        let relayed = matches!(
                            self.peers[&next].call(&Request::FedNotify {
                                origin,
                                epoch: mine,
                                notes: vec![(*origin_seq, hops + 1, n.clone(), *trace)],
                            }),
                            Ok(Response::Count(_))
                        );
                        if relayed {
                            self.peer_metrics[&next].relays.inc();
                            self.mark_note_seen(origin, *origin_seq);
                            processed += 1;
                            continue;
                        }
                    }
                }
            }
            // Splice the sign-on hop onto the carried lineage and bind the
            // *local* queue seq, so the push/ack stamps land on the
            // cross-node trace like any locally detected notification.
            let bind = |seq| {
                if *trace != 0 {
                    let tracer = self.cmi.obs().tracer();
                    tracer.open_segment(
                        *trace,
                        TraceHop::SignOn,
                        &n.description,
                        Some(n.process_instance.raw()),
                    );
                    tracer.stage(*trace, "route-recv");
                    tracer.bind_seq(seq, *trace);
                }
            };
            // Enqueue locally (fresh local sequence number). The trace is
            // bound and the recipient's load charged *before* the
            // notification is published: the enqueue wakes the subscriber's
            // session, whose push stamps the trace by seq and whose client's
            // ack discharges the load (saturating at zero) — either can
            // happen before `enqueue_bound` returns. Only a durable enqueue
            // marks the key seen, so an I/O failure here leaves the
            // retransmit path open.
            let _ = self.cmi.directory().adjust_load(user, 1);
            if self.cmi.awareness().queue().enqueue_bound(n.clone(), bind).is_ok() {
                m.remote_enqueued.inc();
                self.mark_note_seen(origin, *origin_seq);
                processed += 1;
            } else {
                let _ = self.cmi.directory().adjust_load(user, -1);
            }
        }
        Response::Count(processed)
    }

    /// Handles a directory-sync chunk from `origin`: applies the contiguous
    /// prefix beyond this node's per-origin watermark (journaling each op),
    /// skips duplicates, stops at a gap, and answers the new watermark — the
    /// sender retransmits from whatever it hears back. Ops apply with events
    /// enabled: a scoped-role change gossiped from a peer must reach the
    /// local detectors exactly like a local mutation (the partition filter
    /// keeps detection exactly-once cluster-wide).
    fn on_dir_sync(&self, origin: u32, epoch: u64, ops: &[(u64, DirOp)]) -> Response {
        if !self.peers.contains_key(&origin) {
            return Response::Err {
                message: format!("node {origin} is not a cluster peer"),
            };
        }
        let mine = self.view_epoch.load(Ordering::Acquire);
        if epoch != mine {
            self.cmi.obs().flight().record(
                FlightKind::FenceRejected,
                format!("req=dirsync origin={origin} theirs={epoch} ours={mine}"),
            );
            return Response::Fenced { epoch: mine };
        }
        let mut applied = self.dir_applied.lock();
        let watermark = applied.entry(origin).or_insert(0);
        for (version, op) in ops {
            if *version <= *watermark {
                continue; // duplicate of an already-applied op
            }
            if *version != *watermark + 1 {
                break; // gap: answer the watermark, the sender rewinds
            }
            if apply_dir_op(self.cmi.directory(), self.cmi.contexts(), op, true) {
                self.dir_ops_applied.inc();
            }
            self.journal
                .dirop_applied(origin, *version, &encode_dir_op_bytes(op));
            *watermark += 1;
        }
        Response::Count(*watermark)
    }

    fn mark_note_seen(&self, origin: u32, origin_seq: u64) {
        self.seen_notes
            .lock()
            .entry(origin)
            .or_insert_with(SeenWindow::new)
            .insert(origin_seq);
        self.journal.note_seen(origin, origin_seq);
    }

    /// The lowest-id *current-view member* whose last gossip claims `user`
    /// is signed on there (lowest id so two claimants never both receive a
    /// route; membership via the filter mirror because this runs inside
    /// ingest paths that already hold the view read lock).
    fn claiming_peer(&self, user: UserId) -> Option<u32> {
        let members = self.filter_cfg.lock();
        self.remote_signons
            .lock()
            .iter()
            .filter(|(node, _)| members.is_member(**node))
            .find(|(_, (_, set))| set.contains(&user.raw()))
            .map(|(&node, _)| node)
    }

    /// Queue-enqueue hook: when a notification lands for a user who is
    /// signed on at a peer (and not here), kick that peer's pump.
    fn on_enqueued(&self, user: UserId) {
        if self.stopping.load(Ordering::Relaxed) {
            return;
        }
        if self.local_signons.lock().set.contains(&user.raw()) {
            return;
        }
        if let Some(node) = self.claiming_peer(user) {
            if let Some(ctl) = self.pumps.get(&node) {
                ctl.kick();
            }
        }
    }

    /// Renders an awareness swap report as the wire answer.
    fn swapped(report: &cmi_awareness::SwapReport) -> Response {
        Response::Swapped {
            generation: report.generation,
            preserved: report.diff.preserved_nodes as u32,
            added: report.diff.added_nodes as u32,
            retired: report.diff.retired_nodes as u32,
            moved: report.diff.partitions_moved as u64,
            pause_us: report.pause.as_micros() as u64,
        }
    }

    /// The schema generation this node currently runs: the adopted swap's,
    /// or the awareness engine's own counter before any federation swap.
    pub fn schema_generation(&self) -> u64 {
        self.swap
            .lock()
            .as_ref()
            .map(|s| s.generation)
            .unwrap_or_else(|| self.cmi.awareness().generation())
    }

    /// `Request::SchemaSwap` intercepted at a federated node: this node
    /// assigns the next cluster-wide generation (one past the highest it
    /// has seen, locally initiated or peer-adopted), compiles and applies
    /// the swap locally, journals the adoption, and answers with the local
    /// apply's counts. Peer propagation rides the pump threads — like the
    /// gossip handler below, a session handler never places a blocking
    /// peer call.
    fn on_schema_swap(&self, source: &str) -> Response {
        // Hold the swap lock across compile-and-apply: concurrent swap
        // requests serialize and generation assignment stays monotonic.
        let mut swap = self.swap.lock();
        let generation = swap
            .as_ref()
            .map(|s| s.generation)
            .unwrap_or(0)
            .max(self.cmi.awareness().generation())
            + 1;
        match self.cmi.hot_swap_awareness_at(source, generation) {
            Ok(report) => {
                self.journal.swap_adopted(generation, self.me, source);
                *swap = Some(SwapAdoption {
                    generation,
                    origin: self.me,
                    source: source.to_string(),
                });
                drop(swap);
                for ctl in self.pumps.values() {
                    ctl.mark_swap_dirty();
                }
                Self::swapped(&report)
            }
            Err(e) => Response::Err {
                message: e.to_string(),
            },
        }
    }

    /// `Request::FedSchemaSwap` — a peer pushes a swap adoption. Adopt iff
    /// `(generation, origin)` is strictly newer than what runs here (ties
    /// break toward the lower origin id, the wire contract); a stale or
    /// duplicate push is fenced with a zero-count `Swapped` carrying the
    /// generation this node already runs, so the sender advances its
    /// watermark without re-pushing. Adoption re-marks every pump, which
    /// relays the swap transitively — a rejoining node heals from any one
    /// peer.
    fn on_fed_schema_swap(&self, origin: u32, generation: u64, source: &str) -> Response {
        let mut swap = self.swap.lock();
        let newer = match swap.as_ref() {
            Some(cur) => cur.superseded_by(generation, origin),
            None => generation > self.cmi.awareness().generation(),
        };
        if !newer {
            let running = swap
                .as_ref()
                .map(|s| s.generation)
                .unwrap_or_else(|| self.cmi.awareness().generation());
            return Response::Swapped {
                generation: running,
                preserved: 0,
                added: 0,
                retired: 0,
                moved: 0,
                pause_us: 0,
            };
        }
        match self.cmi.hot_swap_awareness_at(source, generation) {
            Ok(report) => {
                self.journal.swap_adopted(generation, origin, source);
                *swap = Some(SwapAdoption {
                    generation,
                    origin,
                    source: source.to_string(),
                });
                drop(swap);
                for ctl in self.pumps.values() {
                    ctl.mark_swap_dirty();
                }
                Self::swapped(&report)
            }
            Err(e) => Response::Err {
                message: e.to_string(),
            },
        }
    }

    fn kick_all(&self) {
        for ctl in self.pumps.values() {
            ctl.kick();
        }
    }

    fn mark_all_dirty(&self) {
        for ctl in self.pumps.values() {
            ctl.mark_dirty();
        }
    }

    /// One pump thread body: gossip when dirty (or after a link resume),
    /// then route every pending notification owned by `target`.
    fn pump_main(self: &Arc<Self>, target: u32) {
        let link = self.peers[&target].clone();
        let ctl = self.pumps[&target].clone();
        let metrics = &self.peer_metrics[&target];
        let queue = self.cmi.awareness().queue().clone();
        let mut last_gossip_epoch = u64::MAX; // force gossip on first contact
        let mut last_dir_epoch = u64::MAX; // force a dir-sync probe likewise
        let mut last_load_epoch = u64::MAX; // re-gossip on load movement
        let mut last_swap_epoch = u64::MAX; // re-push the swap on reconnect
        let mut dir_sent: u64 = 0; // peer's acknowledged dir-log watermark
        let mut swap_acked: u64 = 0; // peer's acknowledged swap generation
        while !self.stopping.load(Ordering::Acquire) {
            {
                let mut s = ctl.state.lock();
                if !s.kicked {
                    ctl.cv.wait_for(&mut s, self.cfg.pump_interval);
                }
                s.kicked = false;
            }
            if self.stopping.load(Ordering::Acquire) {
                break;
            }
            // A pump only engages a *current-view member* target; links to
            // provisioned-but-unjoined (or departed) nodes stay idle. The
            // node's own membership is not required: a departed node still
            // drains its parked notifications toward members.
            if !self.view.read().cluster.is_member(target) {
                continue;
            }
            // Gossip pass: on an explicit edge, or whenever the link has
            // reconnected since the last successful gossip (the peer's
            // replay state survives a resume, but its view of our sign-ons
            // must be refreshed eagerly rather than waiting for the next
            // edge). The frame carries the directory version so a reordered
            // stale frame can never overwrite a newer set at the receiver.
            let dirty = {
                let mut s = ctl.state.lock();
                std::mem::take(&mut s.gossip_dirty)
            };
            // The load epoch rides along: whenever delivery load moved since
            // the last frame, re-gossip so remote `LeastLoaded` assignment
            // sees cluster-wide figures, not a stale snapshot.
            let load_epoch = self.cmi.directory().load_epoch();
            if dirty || link.epoch() != last_gossip_epoch || load_epoch != last_load_epoch {
                let (version, signed_on) = {
                    let dir = self.local_signons.lock();
                    (dir.version, dir.set.iter().copied().collect::<Vec<u64>>())
                };
                // Load figures are authoritative at the sign-on node: gossip
                // them only for users signed on *here*.
                let loads: Vec<(u64, u32)> = {
                    let dir = self.cmi.directory();
                    signed_on
                        .iter()
                        .filter_map(|&u| dir.load_of(UserId(u)).map(|l| (u, l)))
                        .collect()
                };
                match link.call(&Request::FedGossip {
                    origin: self.me,
                    epoch: self.view_epoch.load(Ordering::Acquire),
                    version,
                    signed_on,
                    loads,
                }) {
                    // The answer doubles as the membership-convergence
                    // signal (the handler cannot place blocking peer calls
                    // itself): a `View` means the peer is ahead — adopt; a
                    // `Fenced` means it lags — resolve from this pump, a
                    // safe blocking context.
                    Ok(Response::View {
                        epoch,
                        members,
                        departed,
                    }) => {
                        self.adopt_members(epoch, &members, &departed);
                        last_gossip_epoch = link.epoch();
                        last_load_epoch = load_epoch;
                    }
                    Ok(Response::Fenced { epoch }) => {
                        self.resolve_fence(target, epoch);
                        last_gossip_epoch = link.epoch();
                        last_load_epoch = load_epoch;
                    }
                    Ok(_) => {
                        last_gossip_epoch = link.epoch();
                        last_load_epoch = load_epoch;
                    }
                    Err(_) => {
                        // Peer down: re-arm and retry on the next tick.
                        ctl.state.lock().gossip_dirty = true;
                        continue;
                    }
                }
            }
            // Schema-swap pass: push the adopted swap generation until the
            // peer acknowledges running it (or something newer). Like the
            // dir-sync pass, an explicit dirty edge or a link reconnect
            // triggers it, so a peer that restarted on stale boot schemas
            // is re-fed the cluster's generation before it matters. The
            // answer's generation is the watermark: `>= ours` means the
            // peer converged (possibly via a third node), `< ours` means
            // the push itself failed at the peer — re-arm and retry.
            let swap_dirty = {
                let mut s = ctl.state.lock();
                std::mem::take(&mut s.swap_dirty)
            };
            if swap_dirty || link.epoch() != last_swap_epoch {
                let pending = {
                    let swap = self.swap.lock();
                    swap.as_ref().map(|s| {
                        (s.generation, s.origin, s.source.clone())
                    })
                };
                match pending {
                    None => last_swap_epoch = link.epoch(),
                    Some((generation, _, _)) if generation <= swap_acked => {
                        last_swap_epoch = link.epoch();
                    }
                    Some((generation, origin, source)) => {
                        match link.call(&Request::FedSchemaSwap {
                            origin,
                            generation,
                            source,
                        }) {
                            Ok(Response::Swapped {
                                generation: theirs, ..
                            }) if theirs >= generation => {
                                swap_acked = theirs;
                                last_swap_epoch = link.epoch();
                            }
                            _ => {
                                ctl.state.lock().swap_dirty = true;
                            }
                        }
                    }
                }
            }
            // Directory-sync pass: delta-ship this node's directory mutation
            // log. The peer answers with its applied watermark, which is the
            // whole flow-control story: chunks advance it, a gap retransmits
            // from it, and a peer that lost its journal answers low and is
            // simply re-fed from there. An explicit dirty edge, a link
            // reconnect, or an unacknowledged log tail all trigger a pass;
            // the pass always opens with one (possibly empty) probe so a
            // restarted peer's watermark is learned eagerly.
            let dir_dirty = {
                let mut s = ctl.state.lock();
                std::mem::take(&mut s.dir_dirty)
            };
            if dir_dirty || link.epoch() != last_dir_epoch || dir_sent < self.dir_log.len() {
                let mut synced = true;
                let mut stalls = 0u32;
                loop {
                    let ops = self.dir_log.ops_after(dir_sent, DIR_SYNC_CHUNK);
                    let sent_count = ops.len() as u64;
                    match link.call(&Request::FedDirSync {
                        origin: self.me,
                        epoch: self.view_epoch.load(Ordering::Acquire),
                        from: dir_sent,
                        ops,
                    }) {
                        Ok(Response::Count(watermark)) => {
                            self.dir_ops_sent.add(sent_count);
                            if watermark == dir_sent {
                                stalls += 1;
                                if stalls > 1 {
                                    // No progress twice in a row (should not
                                    // happen with a compliant peer): retry on
                                    // a later tick instead of spinning.
                                    synced = false;
                                    break;
                                }
                            } else {
                                stalls = 0;
                            }
                            dir_sent = watermark;
                            if dir_sent >= self.dir_log.len() {
                                break;
                            }
                        }
                        Ok(Response::Fenced { epoch }) => {
                            self.resolve_fence(target, epoch);
                            synced = false;
                            break;
                        }
                        Ok(_) | Err(_) => {
                            synced = false;
                            break;
                        }
                    }
                }
                if synced {
                    last_dir_epoch = link.epoch();
                } else {
                    ctl.state.lock().dir_dirty = true;
                }
            }
            // Route pass: users pending locally but signed on at `target`.
            // Batches for different users are pipelined — up to the link's
            // batch window of `FedNotify` flights stay unacknowledged at
            // once, and each is only acked out of the durable queue when
            // its response lands (a dropped flight retransmits next pass;
            // the receiver's dedup window collapses the duplicates). Loop
            // while any batch came back full so a burst drains without
            // waiting for the next kick, while the batch size keeps any one
            // flight bounded (slow-peer backpressure).
            let flight_window = self.cfg.peer.window_batches.max(1);
            loop {
                let mut saturated = false;
                let mut peer_down = false;
                let mut flights: VecDeque<NotifyFlight> = VecDeque::new();
                'users: for user in queue.users_with_pending() {
                    if self.local_signons.lock().set.contains(&user.raw()) {
                        continue;
                    }
                    if self.claiming_peer(user) != Some(target) {
                        continue;
                    }
                    let batch = queue.fetch(user, self.cfg.window);
                    if batch.is_empty() {
                        continue;
                    }
                    let seqs: Vec<u64> = batch.iter().map(|n| n.seq).collect();
                    // Each routed notification carries its detection's trace
                    // id (0 when untraced) so the sign-on node can splice
                    // its delivery segment onto the same lineage.
                    let tracer = self.cmi.obs().tracer();
                    let mut traces: Vec<u64> = Vec::new();
                    let notes: Vec<(u64, u32, Notification, u64)> = batch
                        .into_iter()
                        .map(|n| {
                            let trace = tracer.trace_id_for_seq(n.seq).unwrap_or(0);
                            if trace != 0 {
                                tracer.stage(trace, "route-send");
                                traces.push(trace);
                            }
                            (n.seq, 0, n, trace)
                        })
                        .collect();
                    let sent = notes.len();
                    let timer = metrics.forward_ns.start();
                    match link.call_pipelined(&Request::FedNotify {
                        origin: self.me,
                        epoch: self.view_epoch.load(Ordering::Acquire),
                        notes,
                    }) {
                        Ok(ticket) => flights.push_back(NotifyFlight {
                            user,
                            seqs,
                            traces,
                            sent,
                            ticket,
                            timer,
                        }),
                        Err(_) => {
                            peer_down = true;
                            break 'users;
                        }
                    }
                    while flights.len() >= flight_window {
                        let fl = flights.pop_front().expect("nonempty flights");
                        self.settle_notify(&link, metrics, fl, &mut saturated, &mut peer_down);
                        if peer_down {
                            break 'users;
                        }
                    }
                }
                // Drain the tail. On a dead peer the remaining tickets are
                // dropped unsettled: their notifications stay parked in the
                // durable queue (never acked) and retransmit next pass.
                for fl in flights {
                    if peer_down {
                        break;
                    }
                    self.settle_notify(&link, metrics, fl, &mut saturated, &mut peer_down);
                }
                if !saturated || peer_down {
                    break;
                }
            }
        }
    }

    /// Settles one pipelined `FedNotify` flight: on acknowledgement the
    /// entries leave the durable queue and release their delivery load; on
    /// failure they stay parked for the next pass.
    fn settle_notify(
        &self,
        link: &PeerLink,
        metrics: &PeerMetrics,
        fl: NotifyFlight,
        saturated: &mut bool,
        peer_down: &mut bool,
    ) {
        let queue = self.cmi.awareness().queue();
        match link.wait_call(fl.ticket) {
            Ok(Response::Fenced { epoch }) => {
                // View mismatch: nothing was enqueued at the peer. Resolve
                // the views and let the next pass retransmit (the dedup
                // window collapses any overlap).
                self.resolve_fence(link.target(), epoch);
                *peer_down = true;
            }
            Ok(_) => {
                metrics.forward_ns.observe_since(fl.timer);
                // The peer has durably enqueued (or deduped) every entry:
                // drop them here and release the load the local delivery
                // charged.
                let tracer = self.cmi.obs().tracer();
                for &trace in &fl.traces {
                    tracer.stage(trace, "route-ack");
                }
                let _ = queue.ack_exact(fl.user, &fl.seqs);
                self.cmi
                    .directory()
                    .adjust_loads(&[(fl.user, -(fl.sent as i32))]);
                metrics.notes_routed.add(fl.sent as u64);
                if fl.sent == self.cfg.window {
                    *saturated = true;
                }
            }
            Err(_) => {
                // Dead peer: notifications stay parked in the durable
                // queue; retry on the next tick.
                *peer_down = true;
            }
        }
    }

    /// Answers a peer's [`Request::FedTelemetry`] scrape **purely from local
    /// state** — exposition, trace segments, flight dump. Never places a
    /// peer call, so two nodes scraping each other concurrently can never
    /// circular-wait (the rule every session handler here obeys).
    fn on_fed_telemetry(&self, include_flight: bool) -> Response {
        let obs = self.cmi.obs();
        Response::FedTelemetry {
            node: self.me,
            epoch: self.view_epoch.load(Ordering::Acquire),
            exposition: obs.render_prometheus(),
            traces: obs.tracer().dump_segments(),
            flight: if include_flight {
                obs.flight().render()
            } else {
                String::new()
            },
        }
    }

    /// Serves a client's cluster-wide telemetry query: fans
    /// [`Request::FedTelemetry`] out to every live current-view peer
    /// (pipelined, so the wall cost is one peer's round trip, not the sum),
    /// merges the node-labeled expositions, splices cross-node trace
    /// segments by id in causal hop order, and stitches node-headed flight
    /// sections. A peer that fails to answer within the link timeout
    /// degrades to a stale-marked section — the scrape never hangs on a
    /// dead node. Safe to run inside the session handler because the
    /// receiving side answers without calling anyone.
    fn cluster_telemetry(&self, include_flight: bool) -> Response {
        let obs = self.cmi.obs();
        let mut sections = vec![NodeSection {
            node: self.me,
            stale: false,
            exposition: obs.render_prometheus(),
            traces: obs.tracer().dump_segments(),
            flight: if include_flight {
                obs.flight().render()
            } else {
                String::new()
            },
        }];
        let targets: Vec<u32> = {
            let v = self.view.read();
            self.peers
                .keys()
                .copied()
                .filter(|id| v.cluster.is_member(*id))
                .collect()
        };
        let req = Request::FedTelemetry { include_flight };
        let tickets: Vec<(u32, Option<CallTicket>)> = targets
            .iter()
            .map(|&id| (id, self.peers[&id].call_pipelined(&req).ok()))
            .collect();
        for (id, ticket) in tickets {
            let resp = ticket.and_then(|t| self.peers[&id].wait_call(t).ok());
            match resp {
                Some(Response::FedTelemetry {
                    node,
                    epoch: _,
                    exposition,
                    traces,
                    flight,
                }) => sections.push(NodeSection {
                    node,
                    stale: false,
                    exposition,
                    traces,
                    flight,
                }),
                _ => sections.push(NodeSection {
                    node: id,
                    stale: true,
                    exposition: String::new(),
                    traces: Vec::new(),
                    flight: String::new(),
                }),
            }
        }
        use std::fmt::Write as _;
        let mut expo = String::new();
        let mut seen_meta: BTreeSet<String> = BTreeSet::new();
        for s in &sections {
            if s.stale {
                let _ = writeln!(
                    expo,
                    "# node {} STALE: no telemetry response within timeout",
                    s.node
                );
                continue;
            }
            label_exposition(&mut expo, &s.exposition, s.node, &mut seen_meta);
        }
        let traces = splice_traces(&sections);
        let flight = include_flight.then(|| {
            let mut out = String::new();
            for s in &sections {
                if s.stale {
                    let _ = writeln!(out, "=== node {} (STALE) ===", s.node);
                } else {
                    let _ = writeln!(out, "=== node {} ===", s.node);
                    out.push_str(&s.flight);
                }
            }
            out
        });
        Response::Telemetry {
            exposition: expo,
            trace: (!traces.is_empty()).then_some(traces),
            flight,
        }
    }
}

/// One node's slice of a cluster telemetry merge.
struct NodeSection {
    node: u32,
    /// The peer did not answer within the link timeout; its content fields
    /// are empty and the merge marks the section stale instead of hanging.
    stale: bool,
    exposition: String,
    traces: Vec<(u64, u8, String)>,
    flight: String,
}

/// Appends `expo` to `out` with a `node="<id>"` label injected into every
/// sample line. `#` metadata lines (HELP/TYPE) are deduplicated across
/// nodes via `seen_meta`, so each family's header appears once in the
/// merged document.
fn label_exposition(out: &mut String, expo: &str, node: u32, seen_meta: &mut BTreeSet<String>) {
    use std::fmt::Write as _;
    for line in expo.lines() {
        if line.is_empty() {
            continue;
        }
        if line.starts_with('#') {
            if seen_meta.insert(line.to_owned()) {
                out.push_str(line);
                out.push('\n');
            }
            continue;
        }
        // `series value`: the value never contains a space, so the last
        // space splits reliably even when label values contain spaces.
        let Some((series, value)) = line.rsplit_once(' ') else {
            out.push_str(line);
            out.push('\n');
            continue;
        };
        match series.strip_suffix('}') {
            Some(head) => {
                let _ = writeln!(out, "{head},node=\"{node}\"}} {value}");
            }
            None => {
                let _ = writeln!(out, "{series}{{node=\"{node}\"}} {value}");
            }
        }
    }
}

/// Splices the trace segments of every node section into one dump: segments
/// sharing an id are grouped and ordered by causal hop (ingest → owner →
/// sign-on), each under a `[hop @ node N]` heading.
fn splice_traces(sections: &[NodeSection]) -> String {
    use std::fmt::Write as _;
    let mut by_id: BTreeMap<u64, Vec<(u8, u32, &str)>> = BTreeMap::new();
    for s in sections {
        for (id, hop, text) in &s.traces {
            by_id.entry(*id).or_default().push((*hop, s.node, text));
        }
    }
    let mut out = String::new();
    for (id, mut segs) in by_id {
        segs.sort_by_key(|&(hop, node, _)| (hop, node));
        let _ = writeln!(
            out,
            "--- trace #{id} (allocated by node {}, {} segment{}) ---",
            trace_node(id),
            segs.len(),
            if segs.len() == 1 { "" } else { "s" }
        );
        for (hop, node, text) in segs {
            let _ = writeln!(out, "[{} @ node {node}]", TraceHop::from_u8(hop).label());
            out.push_str(text);
            if !text.ends_with('\n') {
                out.push('\n');
            }
        }
    }
    out
}

/// One unacknowledged pipelined `FedNotify` batch in a pump's route pass.
struct NotifyFlight {
    user: UserId,
    seqs: Vec<u64>,
    /// Nonzero trace ids riding the batch, stamped `route-ack` on settle.
    traces: Vec<u64>,
    sent: usize,
    ticket: CallTicket,
    timer: Option<Instant>,
}

impl FederationHooks for FedCore {
    fn handle(&self, req: &Request) -> Option<Response> {
        match req {
            Request::FedHello { node, resume: _ } => {
                // Any provisioned node may open a peer link — a joiner
                // hellos *before* it is a view member (its join proposal
                // rides this very link). Only a self-hello is nonsense.
                if *node == self.me {
                    return Some(Response::Err {
                        message: format!("node {node} cannot peer with itself"),
                    });
                }
                // A (re)connected peer needs our current sign-on view; its
                // own gossip to us rides on the link it just opened.
                if let Some(ctl) = self.pumps.get(node) {
                    ctl.mark_dirty();
                }
                Some(Response::Ok)
            }
            Request::FedEvent {
                origin,
                seq,
                source,
                time_ms,
                fields,
            } => Some(self.on_fed_event(*origin, *seq, source, *time_ms, fields)),
            Request::FedBatch {
                origin,
                seq,
                epoch,
                events,
            } => Some(self.on_fed_batch(*origin, *seq, *epoch, events)),
            Request::FedNotify {
                origin,
                epoch,
                notes,
            } => Some(self.on_fed_notify(*origin, *epoch, notes)),
            Request::FedGossip {
                origin,
                epoch,
                version,
                signed_on,
                loads,
            } => {
                // Version gate: a reordered stale frame (older directory
                // version) must not clobber a newer sign-on set. `prev` is
                // the replaced set (None when the frame was stale), kept for
                // sign-off reconciliation below.
                let prev = {
                    let mut dirs = self.remote_signons.lock();
                    match dirs.get(origin) {
                        Some((have, _)) if *have > *version => {
                            self.stale_gossip.inc();
                            self.cmi.obs().flight().record(
                                FlightKind::StaleGossipDrop,
                                format!("origin={origin} have={have} got={version}"),
                            );
                            None
                        }
                        _ => Some(
                            dirs.insert(
                                *origin,
                                (*version, signed_on.iter().copied().collect()),
                            )
                            .map(|(_, set)| set)
                            .unwrap_or_default(),
                        ),
                    }
                };
                if let Some(prev) = prev {
                    if let Some(m) = self.peer_metrics.get(origin) {
                        m.remote_signons.set(signed_on.len() as i64);
                    }
                    // Mirror the origin's sign-on edges and load figures into
                    // the local directory, so `SignedOn` and `LeastLoaded`
                    // role assignment see cluster-wide state. Local sessions
                    // always win: a user signed on here keeps their local
                    // sign-on bit and load figure regardless of gossip, and a
                    // user dropped by this origin only flips off when no
                    // local session and no other peer still claims them.
                    let dir = self.cmi.directory();
                    let local: BTreeSet<u64> = self.local_signons.lock().set.clone();
                    let now: BTreeSet<u64> = signed_on.iter().copied().collect();
                    for gone in prev.difference(&now) {
                        if !local.contains(gone)
                            && self.claiming_peer(UserId(*gone)).is_none()
                        {
                            let _ = dir.set_signed_on(UserId(*gone), false);
                        }
                    }
                    for &u in signed_on {
                        let _ = dir.set_signed_on(UserId(u), true);
                    }
                    for &(u, l) in loads {
                        if !local.contains(&u) {
                            let _ = dir.set_load(UserId(u), l);
                        }
                    }
                    // Users may have become routable (or stopped being):
                    // every pump re-evaluates.
                    self.kick_all();
                }
                // Gossip doubles as the cheapest membership-convergence
                // signal, but a session handler must never place a blocking
                // peer call (two handlers calling into each other's busy
                // sessions deadlock until their timeouts). The *answer*
                // carries the epoch signal instead, and the gossiping pump —
                // a safe blocking context — resolves the mismatch.
                let mine = self.view_epoch.load(Ordering::Acquire);
                Some(if *epoch < mine {
                    // The sender lags: hand it the authoritative view.
                    let (epoch, members, departed) = self.view_snapshot();
                    Response::View {
                        epoch,
                        members,
                        departed,
                    }
                } else if *epoch > mine {
                    // The sender is ahead: fence so it pushes its view.
                    Response::Fenced { epoch: mine }
                } else {
                    Response::Ok
                })
            }
            Request::FedDirSync {
                origin,
                epoch,
                from: _,
                ops,
            } => Some(self.on_dir_sync(*origin, *epoch, ops)),
            Request::FedViewChange {
                epoch,
                members,
                departed,
            } => Some(self.on_view_change(*epoch, members, departed)),
            Request::FedViewFetch => Some(self.on_view_fetch()),
            Request::FedJoin { node, addr } => Some(self.on_join(*node, addr)),
            Request::FedLeave { node } => Some(self.on_leave(*node)),
            Request::FedEvict { node } => Some(self.on_evict(*node)),
            Request::FedHandoff {
                origin,
                epoch,
                instance,
                parts,
            } => Some(self.on_handoff(*origin, *epoch, *instance, parts)),
            Request::FedMigrateDone { origin, epoch } => {
                Some(self.on_migrate_done(*origin, *epoch))
            }
            Request::FedTelemetry { include_flight } => {
                Some(self.on_fed_telemetry(*include_flight))
            }
            // Only the cluster-wide form is federation business; a plain
            // local telemetry query falls through to the server's handler.
            Request::Telemetry {
                cluster: true,
                include_flight,
                ..
            } => Some(self.cluster_telemetry(*include_flight)),
            Request::ExternalEvent { source, fields } => Some(match self.route_external(source, fields) {
                Ok(count) => Response::Count(count),
                Err(e) => Response::Err {
                    message: e.to_string(),
                },
            }),
            // A client-initiated swap is federation business on a federated
            // node: the generation must be assigned cluster-wide, not from
            // the local awareness counter alone.
            Request::SchemaSwap { source } => Some(self.on_schema_swap(source)),
            Request::FedSchemaSwap {
                origin,
                generation,
                source,
            } => Some(self.on_fed_schema_swap(*origin, *generation, source)),
            _ => None,
        }
    }

    fn signed_on_edge(&self, user: UserId, on: bool) {
        {
            let mut dir = self.local_signons.lock();
            let changed = if on {
                dir.set.insert(user.raw())
            } else {
                dir.set.remove(&user.raw())
            };
            if changed {
                // Every broadcast set gets a fresh version so receivers can
                // reject reordered stale frames.
                dir.version += 1;
            } else {
                return;
            }
        }
        self.mark_all_dirty();
    }
}

impl std::fmt::Debug for FedCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let view = self.view.read();
        f.debug_struct("FedCore")
            .field("me", &self.me)
            .field("epoch", &view.epoch)
            .field("members", &view.cluster.len())
            .field("peers", &self.peers.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// One node of a federated cluster: the CMI server, its federation core,
/// the notification pumps, and the (restartable) network front.
pub struct FedNode {
    cmi: Arc<CmiServer>,
    core: Arc<FedCore>,
    net: Mutex<Option<NetServer>>,
    pump_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl FedNode {
    /// Builds a federated node around `cmi`. `dialers` must contain one
    /// dial function per *other* cluster member, keyed by node id. The
    /// node's detector partition filter is installed here; serve a listener
    /// with [`FedNode::serve`] (or [`FedNode::serve_loopback`]) to accept
    /// clients and peers.
    pub fn new(
        cmi: Arc<CmiServer>,
        cluster: ClusterConfig,
        me: u32,
        cfg: FedConfig,
        dialers: BTreeMap<u32, Box<DialFn>>,
    ) -> Arc<FedNode> {
        let core = FedCore::new(cmi.clone(), cluster, me, cfg, dialers);
        // The filter closes over the core's *live* view mirror, so a view
        // change retargets local detection without re-installing anything.
        cmi.awareness()
            .set_partition_filter(Some(core.partition_filter()));
        // The enqueue hook holds a weak ref: the queue outlives nothing
        // here, and a strong ref would cycle (CmiServer → queue → hook →
        // core → CmiServer).
        let weak: Weak<FedCore> = Arc::downgrade(&core);
        cmi.awareness().queue().subscribe_enqueue(Box::new(move |user| {
            match weak.upgrade() {
                Some(core) => {
                    core.on_enqueued(user);
                    true
                }
                None => false,
            }
        }));
        let mut threads = Vec::new();
        for &target in core.peers.keys() {
            let core2 = core.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("cmi-fed-peer-{target}"))
                    .spawn(move || core2.pump_main(target))
                    .expect("spawn fed pump thread"),
            );
        }
        Arc::new(FedNode {
            cmi,
            core,
            net: Mutex::new(None),
            pump_threads: Mutex::new(threads),
        })
    }

    /// The wrapped CMI server.
    pub fn cmi(&self) -> &Arc<CmiServer> {
        &self.cmi
    }

    /// The federation core (also the [`FederationHooks`] implementation).
    pub fn core(&self) -> &Arc<FedCore> {
        &self.core
    }

    /// This node's cluster id.
    pub fn node_id(&self) -> u32 {
        self.core.me
    }

    /// Serves clients and peers behind `listener`, replacing any previous
    /// front. Returns `true` if an old front was shut down first.
    pub fn serve(&self, listener: Box<dyn Listener>, cfg: NetConfig) -> bool {
        let server = NetServer::serve_with_federation(
            self.cmi.clone(),
            listener,
            cfg,
            Some(self.core.clone() as Arc<dyn FederationHooks>),
        );
        let old = self.net.lock().replace(server);
        match old {
            Some(s) => {
                s.shutdown();
                true
            }
            None => false,
        }
    }

    /// Serves over a fresh in-memory loopback; returns the connector
    /// clients (and peers) dial.
    pub fn serve_loopback(&self, cfg: NetConfig) -> LoopbackConnector {
        let (listener, connector) = loopback();
        self.serve(Box::new(listener), cfg);
        connector
    }

    /// Tears the network front down (sessions drain, peers see a dead
    /// node), keeping engine + queue state intact. [`FedNode::serve`] again
    /// to simulate a restart.
    pub fn kill_net(&self) -> Option<NetStats> {
        self.net.lock().take().map(NetServer::shutdown)
    }

    /// Wires a [`ServiceEngine`] into the federation: its violation events
    /// route to the node owning the consumer's process instance instead of
    /// ingesting into the local (partition-filtered) engine, where a
    /// non-owned violation would be silently dropped. A violation that
    /// cannot be routed because the owner is unreachable is counted on
    /// `cmi_fed_violation_route_errors` (the local share of the route has
    /// already been ingested by then).
    pub fn federate_service(&self, services: &ServiceEngine) {
        let weak: Weak<FedCore> = Arc::downgrade(&self.core);
        let errors = self.cmi.obs().counter("cmi_fed_violation_route_errors");
        services.set_violation_sink(Some(Arc::new(move |source, fields| {
            if let Some(core) = weak.upgrade() {
                if core.route_external(source, &fields).is_err() {
                    errors.inc();
                }
            }
        })));
    }

    /// Local ingress for an external event, federation-routed (the
    /// in-process equivalent of a client's `ExternalEvent` request hitting
    /// this node). Returns the cluster-wide notification count.
    pub fn external_event(
        &self,
        source: &str,
        fields: Vec<(String, Value)>,
    ) -> FedResult<u64> {
        self.core.route_external(source, &fields)
    }

    /// Pipelined local ingress: ingests the local share and submits the
    /// remote shares to the peer batchers without waiting. Keeping several
    /// handles open before settling them with [`FedNode::wait_external`] is
    /// what lets the links aggregate multi-event batches.
    pub fn external_event_async(
        &self,
        source: &str,
        fields: Vec<(String, Value)>,
    ) -> RouteHandle {
        self.core.route_external_async(source, &fields)
    }

    /// Settles a handle from [`FedNode::external_event_async`].
    pub fn wait_external(&self, handle: RouteHandle) -> FedResult<u64> {
        self.core.wait_route(handle)
    }

    /// Joins the cluster by proposing this node's own membership (the
    /// proposal relays to the deterministic coordinator). On success the
    /// adopted view's epoch is returned; the coordinator has rebalanced and
    /// peers are migrating instances our way. `addr` is the dial label the
    /// other members know us by.
    pub fn join_cluster(&self, addr: &str) -> FedResult<u64> {
        self.core.propose_join(self.core.me, addr)
    }

    /// Gracefully leaves the cluster: proposes our departure, then migrates
    /// every owned instance to its new owner before returning. The node
    /// keeps serving already-connected local clients but stops owning
    /// partitions.
    pub fn leave_cluster(&self) -> FedResult<u64> {
        self.core.propose_leave(self.core.me)
    }

    /// Evicts a (presumed dead) peer from the cluster. Its instances
    /// restart empty on their new owners — there is nobody left to hand
    /// their state off.
    pub fn evict_peer(&self, node: u32) -> FedResult<u64> {
        self.core.propose_evict(node)
    }

    /// Blocks until every outbound migration this node has started finishes
    /// shipping (or is superseded). Call after a graceful
    /// [`FedNode::leave_cluster`] *before* tearing the node down — shutdown
    /// aborts in-flight hand-offs.
    pub fn await_migrations(&self) {
        let handles: Vec<_> = self.core.migrations.lock().drain(..).collect();
        for t in handles {
            let _ = t.join();
        }
    }

    /// Stops the pumps, the peer links, and the network front. Idempotent.
    pub fn shutdown(&self) {
        self.core.stopping.store(true, Ordering::Release);
        self.core.kick_all();
        for t in self.pump_threads.lock().drain(..) {
            let _ = t.join();
        }
        for t in self.core.migrations.lock().drain(..) {
            let _ = t.join();
        }
        for link in self.core.peers.values() {
            link.shutdown();
        }
        if let Some(net) = self.net.lock().take() {
            net.shutdown();
        }
    }
}

impl Drop for FedNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for FedNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FedNode")
            .field("core", &self.core)
            .field("serving", &self.net.lock().is_some())
            .finish()
    }
}
