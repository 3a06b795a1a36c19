//! The awareness engine: detector agents plus the delivery agent (§6.3–6.5).
//!
//! Awareness schemata are compiled into a detector (the merged multiply-
//! rooted DAG of `cmi-events`). When a detector root fires, the **delivery
//! agent** resolves the schema's awareness delivery role and role assignment
//! — *at detection time*, against the live directory and context state — to a
//! set of participants, and queues the event's information for each of them
//! in the persistent delivery queue.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use cmi_core::context::ContextManager;
use cmi_core::ids::{AwarenessSchemaId, ProcessInstanceId, UserId};
use cmi_core::instance::InstanceStore;
use cmi_core::participant::Directory;
use cmi_core::value::Value;
use cmi_events::engine::Detection;
use cmi_events::event::{params, Event, EventType};
use cmi_events::producers;
use cmi_events::sharded::{ShardedEngine, SwapDiff};
use cmi_mine::{MineKind, MineLog, MineRecord};
use cmi_obs::{Counter, FlightKind, Gauge, Histogram, ObsRegistry};

use crate::assignment::Selected;
use crate::queue::{DeliveryQueue, Notification};
use crate::resolver::RoleResolver;
use crate::schema::AwarenessSchema;

/// Predicate over an emission's routing instance (`None` = instance-less).
/// Installed by a federation layer so a node only *detects* for the process
/// instances it owns; events still flow through every node's detector (they
/// may advance multi-instance operators), but emissions for foreign
/// instances are suppressed — the owning node produces those.
pub type PartitionFilter = Arc<dyn Fn(Option<u64>) -> bool + Send + Sync>;

/// Delivery counters for experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryStats {
    /// Composite events detected.
    pub detections: u64,
    /// Notifications enqueued (detections × recipients).
    pub notifications: u64,
    /// Detections whose delivery role could not be resolved (e.g. scope
    /// already ended) — delivered to no one.
    pub unresolved_roles: u64,
}

/// Metric series names the delivery agent publishes; [`DeliveryStats`] is a
/// view over these registry counters, so the same numbers show up in the
/// Prometheus exposition and the wire telemetry.
mod series {
    pub const DETECTIONS: &str = "cmi_delivery_detections";
    pub const NOTIFICATIONS: &str = "cmi_delivery_notifications";
    pub const UNRESOLVED_ROLES: &str = "cmi_delivery_unresolved_roles";
    pub const DIR_FANOUT: &str = "cmi_dir_fanout";
    pub const DIR_SNAPSHOT_REBUILDS: &str = "cmi_dir_snapshot_rebuilds";
}

/// Histogram bounds for the per-detection fan-out size (recipient count):
/// powers of four from 1 to 2^20, spanning one-recipient digests to
/// million-member broadcast roles.
const FANOUT_BUCKETS: [u64; 11] = [
    1,
    4,
    16,
    64,
    256,
    1 << 10,
    1 << 12,
    1 << 14,
    1 << 16,
    1 << 18,
    1 << 20,
];

/// The delivery agent's registry counter handles. The fan-out runs
/// concurrently on every detector shard, so recording stays a lock-free
/// relaxed add; reading goes through the registry snapshot (one coherent
/// pass instead of loading each atomic separately).
#[derive(Debug)]
struct DeliveryCounters {
    detections: Counter,
    notifications: Counter,
    unresolved_roles: Counter,
    /// Recipients per detection (the fan-out the directory had to resolve).
    fanout: Histogram,
    /// Directory + scoped-role snapshot rebuilds so far — the copy-on-write
    /// cost side of the cached hot path.
    snapshot_rebuilds: Gauge,
}

impl DeliveryCounters {
    fn new(obs: &ObsRegistry) -> Self {
        DeliveryCounters {
            detections: obs.counter(series::DETECTIONS),
            notifications: obs.counter(series::NOTIFICATIONS),
            unresolved_roles: obs.counter(series::UNRESOLVED_ROLES),
            fanout: obs.histogram(series::DIR_FANOUT, &FANOUT_BUCKETS),
            snapshot_rebuilds: obs.gauge(series::DIR_SNAPSHOT_REBUILDS),
        }
    }
}

/// What [`AwarenessEngine::swap_schemas`] did: the adopted generation, the
/// DAG diff against the live detector, and how long ingest was paused.
#[derive(Debug, Clone, Copy)]
pub struct SwapReport {
    /// The swap generation now live.
    pub generation: u64,
    /// Awareness schemas hosted after the swap.
    pub schemas: usize,
    /// Preserved/added/retired operator nodes and moved state partitions.
    pub diff: SwapDiff,
    /// How long the detector write lock was held — the ingest pause every
    /// in-flight and arriving event saw, including for untouched nodes.
    pub pause: Duration,
}

/// The awareness engine.
pub struct AwarenessEngine {
    detector: RwLock<ShardedEngine>,
    schemas: RwLock<BTreeMap<AwarenessSchemaId, AwarenessSchema>>,
    queue: Arc<DeliveryQueue>,
    directory: Arc<Directory>,
    contexts: Arc<ContextManager>,
    resolver: RoleResolver,
    obs: Arc<ObsRegistry>,
    counters: DeliveryCounters,
    partition: RwLock<Option<PartitionFilter>>,
    /// The live schema generation (0 = the construction-time schemas).
    generation: AtomicU64,
    generation_gauge: Gauge,
    /// The mining log sink, when attached: every activity lifecycle
    /// transition, external event, and detection is appended case-scoped.
    mine: RwLock<Option<Arc<MineLog>>>,
    /// The node id stamped into mine records (0 standalone).
    mine_node: AtomicU64,
}

impl fmt::Debug for AwarenessEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AwarenessEngine")
            .field("schemas", &self.schemas.read().len())
            .field("shards", &self.detector.read().shard_count())
            .field("stats", &self.stats())
            .finish()
    }
}

impl AwarenessEngine {
    /// An engine delivering through `queue`, resolving roles against
    /// `directory` and `contexts`. The detector is unsharded (one replica);
    /// use [`AwarenessEngine::with_shards`] to scale the ingest hot path.
    pub fn new(
        directory: Arc<Directory>,
        contexts: Arc<ContextManager>,
        queue: Arc<DeliveryQueue>,
    ) -> Self {
        Self::with_shards(directory, contexts, queue, 1)
    }

    /// An engine whose detector is sharded over `shards` replicas keyed by
    /// process instance (see [`cmi_events::sharded`]). One shard is exactly
    /// the unsharded engine; more shards let concurrent producers ingest in
    /// parallel with identical detection results.
    pub fn with_shards(
        directory: Arc<Directory>,
        contexts: Arc<ContextManager>,
        queue: Arc<DeliveryQueue>,
        shards: usize,
    ) -> Self {
        Self::with_obs(
            directory,
            contexts,
            queue,
            shards,
            Arc::new(ObsRegistry::new()),
        )
    }

    /// Like [`AwarenessEngine::with_shards`], publishing into a caller-
    /// provided observability registry instead of a private one: the
    /// detector shards count ingests and operator firings into it, each
    /// detection records its causal trace (bound to the notification
    /// sequence numbers it produces), and the delivery queue publishes its
    /// depth. Pass [`ObsRegistry::noop`] to switch telemetry off wholesale.
    pub fn with_obs(
        directory: Arc<Directory>,
        contexts: Arc<ContextManager>,
        queue: Arc<DeliveryQueue>,
        shards: usize,
        obs: Arc<ObsRegistry>,
    ) -> Self {
        let mut detector = ShardedEngine::new(shards);
        detector.set_obs(Arc::clone(&obs));
        queue.attach_obs(&obs);
        let counters = DeliveryCounters::new(&obs);
        let resolver = RoleResolver::new(Arc::clone(&directory), Arc::clone(&contexts), &obs);
        obs.metrics().describe(
            "cmi_schema_generation",
            "The awareness-schema hot-swap generation this engine runs.",
        );
        let generation_gauge = obs.gauge("cmi_schema_generation");
        AwarenessEngine {
            detector: RwLock::new(detector),
            schemas: RwLock::new(BTreeMap::new()),
            queue,
            directory,
            contexts,
            resolver,
            obs,
            counters,
            partition: RwLock::new(None),
            generation: AtomicU64::new(0),
            generation_gauge,
            mine: RwLock::new(None),
            mine_node: AtomicU64::new(0),
        }
    }

    /// Installs (or clears, with `None`) a standing partition filter: every
    /// subsequent [`ingest`](Self::ingest) suppresses detections whose
    /// routing instance the predicate rejects. Used by federation so each
    /// node only detects for its owned partition.
    pub fn set_partition_filter(&self, filter: Option<PartitionFilter>) {
        *self.partition.write() = filter;
    }

    /// The conservative set of raw process-instance ids `event` may touch,
    /// per the registered schemas' routing hints (see
    /// [`cmi_events::sharded::ShardedEngine::routing_instances`]). Empty
    /// means the event is instance-less / globally related.
    pub fn routing_instances(&self, event: &Event) -> std::collections::BTreeSet<u64> {
        self.detector.read().routing_instances(event)
    }

    /// The observability registry this engine publishes into.
    pub fn obs(&self) -> &Arc<ObsRegistry> {
        &self.obs
    }

    /// Number of detector replicas.
    pub fn shard_count(&self) -> usize {
        self.detector.read().shard_count()
    }

    /// Registers an awareness schema: compiles its description into the
    /// detector (sharing sub-DAGs with previously registered schemas).
    pub fn register(&self, schema: AwarenessSchema) {
        self.detector.write().add_spec(&schema.description);
        self.schemas.write().insert(schema.id, schema);
    }

    /// Number of registered awareness schemas.
    pub fn schema_count(&self) -> usize {
        self.schemas.read().len()
    }

    /// The live schema generation (0 until the first hot-swap).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Attaches (or detaches, with `None`) the mining log: every activity
    /// lifecycle transition, external event, and composite detection flowing
    /// through [`ingest`](Self::ingest) is appended as a case-scoped record.
    /// `node` is the federation node id stamped into records (0 standalone).
    pub fn set_mine_log(&self, log: Option<Arc<MineLog>>, node: u64) {
        self.mine_node.store(node, Ordering::Relaxed);
        *self.mine.write() = log;
    }

    /// The attached mining log, if any.
    pub fn mine_log(&self) -> Option<Arc<MineLog>> {
        self.mine.read().clone()
    }

    /// Replaces the full schema set with `schemas`, live, preserving
    /// in-flight operator state for every structurally-unchanged DAG node.
    ///
    /// The replacement detector is compiled *outside* any lock; the
    /// detector write lock is then taken — draining in-flight ingests, the
    /// quiesce — the old engine's state partitions are transplanted into
    /// the new one by structural signature (see
    /// [`ShardedEngine::transplant_state_from`]), and both the detector and
    /// the schema map are replaced before ingest resumes. The reported
    /// `pause` is the write-lock hold time: the ingest stall an event
    /// arriving mid-swap observes, which the mine bench gates below 50 ms.
    pub fn swap_schemas(&self, schemas: Vec<AwarenessSchema>, generation: u64) -> SwapReport {
        let shards = self.shard_count();
        let mut fresh = ShardedEngine::new(shards);
        fresh.set_obs(Arc::clone(&self.obs));
        for s in &schemas {
            fresh.add_spec(&s.description);
        }
        let count = schemas.len();
        let map: BTreeMap<AwarenessSchemaId, AwarenessSchema> =
            schemas.into_iter().map(|s| (s.id, s)).collect();

        let start = Instant::now();
        let mut detector = self.detector.write();
        let diff = fresh.transplant_state_from(&detector);
        *detector = fresh;
        // Nested schemas.write under the detector lock: the ingest path
        // never holds both (detection drops the detector guard before
        // delivery takes schemas), so this cannot deadlock — and it keeps
        // any post-swap detection from resolving against pre-swap schemas.
        *self.schemas.write() = map;
        drop(detector);
        let pause = start.elapsed();

        self.generation.store(generation, Ordering::Release);
        self.generation_gauge.set(generation as i64);
        self.obs.flight().record(
            FlightKind::SchemaSwap { generation },
            format!(
                "schemas={count} preserved={} added={} retired={} moved={} pause_us={}",
                diff.preserved_nodes,
                diff.added_nodes,
                diff.retired_nodes,
                diff.partitions_moved,
                pause.as_micros()
            ),
        );
        SwapReport {
            generation,
            schemas: count,
            diff,
            pause,
        }
    }

    /// The delivery queue.
    pub fn queue(&self) -> &Arc<DeliveryQueue> {
        &self.queue
    }

    /// Delivery counters — a view over the observability registry, read in
    /// one coherent snapshot pass. All zeros when the engine was given a
    /// no-op registry.
    pub fn stats(&self) -> DeliveryStats {
        let snap = self.obs.snapshot();
        DeliveryStats {
            detections: snap.counter(series::DETECTIONS).unwrap_or(0),
            notifications: snap.counter(series::NOTIFICATIONS).unwrap_or(0),
            unresolved_roles: snap.counter(series::UNRESOLVED_ROLES).unwrap_or(0),
        }
    }

    /// Detector topology (node/sharing counts), for experiments.
    pub fn topology(&self) -> cmi_events::engine::EngineTopology {
        self.detector.read().topology()
    }

    /// Renders the merged detector DAG (Fig. 6 content, engine-wide).
    pub fn describe_detector(&self) -> String {
        self.detector.read().shard(0).describe()
    }

    /// Pushes one primitive event through detection and delivery. Returns
    /// the notifications that were enqueued (one per recipient per
    /// detection). Thread-safe: concurrent calls for events of different
    /// process instances proceed on different detector shards, and the
    /// delivery fan-out below uses only lock-free counters and the
    /// queue's own synchronization.
    pub fn ingest(&self, event: &Event) -> Vec<Notification> {
        self.ingest_traced(event, None)
    }

    /// Like [`AwarenessEngine::ingest`], attaching the first detection to
    /// the cross-node trace segment `carrier` names (a trace id carried in
    /// a federation frame; `None` or an unknown id is a plain ingest).
    pub fn ingest_traced(&self, event: &Event, carrier: Option<u64>) -> Vec<Notification> {
        self.log_primitive(event);
        let detections = {
            let detector = self.detector.read();
            match &*self.partition.read() {
                Some(keep) => detector.ingest_kept_traced(event, &**keep, carrier),
                None => detector.ingest_traced(event, carrier),
            }
        };
        self.deliver(detections)
    }

    /// Pushes a batch of primitive events through detection and delivery in
    /// order, concatenating the enqueued notifications. Within one call the
    /// events are sequential (preserving per-instance order); parallelism
    /// comes from concurrent callers whose batches hit different shards.
    pub fn ingest_batch(&self, events: &[Event]) -> Vec<Notification> {
        let mut delivered = Vec::new();
        for e in events {
            delivered.extend(self.ingest(e));
        }
        delivered
    }

    /// Drops detector state for a closed process instance — routed to the
    /// owning shard only. Returns the number of state partitions dropped.
    pub fn evict_instance(&self, instance: ProcessInstanceId) -> usize {
        self.detector.read().evict_instance(instance.raw())
    }

    /// Serializes one raw instance's detector state partitions for a live
    /// migration handoff (see [`cmi_events::Engine::export_instance`]).
    pub fn export_instance(&self, raw_instance: u64) -> Vec<(u32, String, Vec<u8>)> {
        self.detector.read().export_instance(raw_instance)
    }

    /// Restores partitions exported by a structurally identical engine on
    /// another node; returns how many partitions were installed.
    pub fn import_instance(&self, raw_instance: u64, parts: &[(u32, String, Vec<u8>)]) -> usize {
        self.detector.read().import_instance(raw_instance, parts)
    }

    /// Every raw process-instance id with live detector state — what a
    /// membership rebalance enumerates to find migration candidates.
    pub fn instances(&self) -> Vec<u64> {
        self.detector.read().instances()
    }

    /// The role resolution cache the delivery agent resolves through —
    /// exposed for tests and diagnostics.
    pub fn resolver(&self) -> &RoleResolver {
        &self.resolver
    }

    /// Appends the primitive event to the mining log (when one is
    /// attached): activity lifecycle transitions become XES lifecycle
    /// records, external source events ride with their full field list so
    /// a replay can reproduce the exact ingest. Context field changes are
    /// not case activities in the XES sense and are not logged.
    fn log_primitive(&self, event: &Event) {
        let mine = self.mine.read();
        let Some(log) = mine.as_ref() else { return };
        let kind = match &event.etype {
            EventType::Activity => {
                let activity = event
                    .get_id(params::ACTIVITY_VAR_ID)
                    .map(|v| format!("act-v{v}"))
                    .or_else(|| {
                        event
                            .get_id(params::ACTIVITY_INSTANCE_ID)
                            .map(|i| format!("act-i{i}"))
                    })
                    .unwrap_or_else(|| "act".into());
                let user = match event.get(params::USER) {
                    Some(Value::User(u)) => Some(
                        self.directory
                            .participant(*u)
                            .map(|p| p.name)
                            .unwrap_or_else(|_| format!("u{}", u.raw())),
                    ),
                    _ => None,
                };
                MineKind::Lifecycle {
                    activity,
                    old_state: event.get_str(params::OLD_STATE).unwrap_or("").to_owned(),
                    new_state: event.get_str(params::NEW_STATE).unwrap_or("").to_owned(),
                    user,
                }
            }
            EventType::External(source) => MineKind::External {
                source: source.clone(),
                fields: event
                    .params
                    .iter()
                    .filter(|(k, _)| k.as_str() != params::SOURCE)
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect(),
            },
            EventType::Context | EventType::Canonical(_) => return,
        };
        let case = match &event.etype {
            EventType::Activity => event.get_id(params::PARENT_PROCESS_INSTANCE_ID),
            // An external event's case is its (single) routing instance,
            // when the registered filters derive exactly one.
            _ => {
                let routed = self.detector.read().routing_instances(event);
                if routed.len() == 1 {
                    routed.into_iter().next()
                } else {
                    None
                }
            }
        };
        log.append(MineRecord {
            seq: 0,
            case,
            time_ms: event.time.millis(),
            node: self.mine_node.load(Ordering::Relaxed),
            trace: None,
            kind,
        });
    }

    /// The delivery agent: resolves each detection's delivery role (through
    /// the snapshot-validating cache) and role assignment at detection time
    /// and enqueues one notification per recipient. Recipient load is
    /// batched into a single sharded bulk update per call instead of one
    /// lock acquisition per recipient.
    fn deliver(&self, detections: Vec<Detection>) -> Vec<Notification> {
        let mut delivered = Vec::new();
        if detections.is_empty() {
            return delivered;
        }
        let mine = self.mine.read();
        let schemas = self.schemas.read();
        let mut load_deltas: Vec<(UserId, i32)> = Vec::new();
        for d in detections {
            self.counters.detections.inc();
            let Some(schema) = schemas.get(&AwarenessSchemaId(d.spec.raw())) else {
                continue;
            };
            if let Some(log) = mine.as_ref() {
                log.append(MineRecord {
                    seq: 0,
                    case: d.event.process_instance().map(|i| i.raw()),
                    time_ms: d.event.time.millis(),
                    node: self.mine_node.load(Ordering::Relaxed),
                    trace: d.trace,
                    kind: MineKind::Detection {
                        schema: schema.name.clone(),
                        description: d
                            .event
                            .get_str(cmi_events::operators::DESCRIPTION_PARAM)
                            .unwrap_or(&schema.event_description)
                            .to_owned(),
                    },
                });
            }
            let instance = d
                .event
                .process_instance()
                .unwrap_or(ProcessInstanceId(0));
            let Some(snap) = self.resolver.resolve(&schema.delivery_role, instance) else {
                self.counters.unresolved_roles.inc();
                continue;
            };
            let before = delivered.len();
            // Enumerate the selection over the shared snapshot — the
            // non-subsetting policies never materialize a member set.
            match schema.assignment.select(&snap, &self.directory) {
                Selected::All => {
                    for &user in snap.iter() {
                        self.deliver_one(schema, user, &d, instance, &mut delivered);
                    }
                }
                Selected::SignedOnly => {
                    for &user in snap.iter() {
                        if self.directory.is_signed_on(user) {
                            self.deliver_one(schema, user, &d, instance, &mut delivered);
                        }
                    }
                }
                Selected::Prefix(n) => {
                    for &user in snap.iter().take(n) {
                        self.deliver_one(schema, user, &d, instance, &mut delivered);
                    }
                }
                Selected::Subset(chosen) => {
                    for &user in &chosen {
                        self.deliver_one(schema, user, &d, instance, &mut delivered);
                    }
                }
            }
            let fanned = delivered.len() - before;
            self.counters.fanout.observe(fanned as u64);
            load_deltas.extend(delivered[before..].iter().map(|n| (n.user, 1)));
        }
        if !load_deltas.is_empty() {
            self.directory.adjust_loads(&load_deltas);
        }
        self.counters.snapshot_rebuilds.set(
            (self.directory.snapshot_rebuilds() + self.contexts.snapshot_rebuilds()) as i64,
        );
        delivered
    }

    fn deliver_one(
        &self,
        schema: &AwarenessSchema,
        user: UserId,
        d: &Detection,
        instance: ProcessInstanceId,
        delivered: &mut Vec<Notification>,
    ) {
        let mut n = self.make_notification(schema, user, &d.event, instance);
        // Link the queued notification back to the detection's causal
        // trace: retrieval by seq is what the wire telemetry exposes. Bound
        // before the notification is published — a consumer woken by the
        // enqueue (the fed notify pump) reads the trace id by seq at once.
        let bind = |seq| {
            if let Some(tid) = d.trace {
                self.obs.tracer().bind_seq(seq, tid);
            }
        };
        if let Ok(seq) = self.queue.enqueue_bound(n.clone(), bind) {
            n.seq = seq;
            self.counters.notifications.inc();
            // The "queue" stage stamps how long detection → enqueue took.
            if let Some(tid) = d.trace {
                self.obs.tracer().stage(tid, "queue");
            }
            delivered.push(n);
        }
    }

    fn make_notification(
        &self,
        schema: &AwarenessSchema,
        user: UserId,
        event: &Event,
        instance: ProcessInstanceId,
    ) -> Notification {
        Notification {
            seq: 0,
            user,
            time: event.time,
            schema: schema.id,
            schema_name: schema.name.clone(),
            description: event
                .get_str(cmi_events::operators::DESCRIPTION_PARAM)
                .unwrap_or(&schema.event_description)
                .to_owned(),
            process_schema: schema.process,
            process_instance: instance,
            int_info: event.int_info(),
            str_info: event.get_str(params::STR_INFO).map(str::to_owned),
            priority: schema.priority,
        }
    }
}

/// Wires the awareness engine's **event source agents** (§6.3) to the CORE
/// and coordination stores: every activity state change and context field
/// change is converted to its primitive event and ingested synchronously.
pub fn attach_event_sources(
    engine: &Arc<AwarenessEngine>,
    store: &InstanceStore,
    contexts: &ContextManager,
) {
    let e1 = engine.clone();
    store.subscribe(Arc::new(move |change| {
        e1.ingest(&producers::activity_event(change));
    }));
    let e2 = engine.clone();
    contexts.subscribe(Arc::new(move |change| {
        e2.ingest(&producers::context_event(change));
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::RoleAssignment;
    use crate::builder::{deadline_violation_schema, AwarenessSchemaBuilder};
    use cmi_core::ids::ProcessSchemaId;
    use cmi_core::roles::RoleSpec;
    use cmi_core::time::{SimClock, Timestamp};
    use cmi_core::value::Value;

    const P: ProcessSchemaId = ProcessSchemaId(1);

    struct Fixture {
        engine: Arc<AwarenessEngine>,
        directory: Arc<Directory>,
        contexts: Arc<ContextManager>,
        clock: SimClock,
    }

    fn fixture() -> Fixture {
        let clock = SimClock::new();
        let directory = Arc::new(Directory::new());
        let contexts = Arc::new(ContextManager::new(Arc::new(clock.clone())));
        let queue = Arc::new(DeliveryQueue::in_memory());
        let engine = Arc::new(AwarenessEngine::new(
            directory.clone(),
            contexts.clone(),
            queue,
        ));
        Fixture {
            engine,
            directory,
            contexts,
            clock,
        }
    }

    /// Drives the full §5.4 scenario through real context resources.
    #[test]
    fn deadline_violation_delivered_to_scoped_requestor() {
        let f = fixture();
        let requestor = f.directory.add_user("requestor");
        let other = f.directory.add_user("other-member");
        f.engine
            .register(deadline_violation_schema(AwarenessSchemaId(1), P));
        attach_event_sources(&f.engine,
            // no instance store needed for this context-only scenario; make
            // a throwaway one
            &InstanceStore::new(
                Arc::new(f.clock.clone()),
                Arc::new(cmi_core::repository::SchemaRepository::new()),
            ),
            &f.contexts,
        );

        let pi = ProcessInstanceId(10);
        // Task force context with a deadline at day 5.
        let tf = f.contexts.create("TaskForceContext", Some((P, pi)));
        f.contexts
            .set_field(
                tf,
                "TaskForceDeadline",
                Value::Time(Timestamp::from_millis(5_000)),
            )
            .unwrap();
        // Information request context: requestor role + deadline at day 3.
        let ir = f.contexts.create("InfoRequestContext", Some((P, pi)));
        f.contexts.create_role(ir, "Requestor", &[requestor]).unwrap();
        let _ = other;
        f.contexts
            .set_field(
                ir,
                "RequestDeadline",
                Value::Time(Timestamp::from_millis(3_000)),
            )
            .unwrap();
        assert_eq!(f.engine.queue().pending_for(requestor), 0, "5000 <= 3000 false");

        // The leader moves the task force deadline to 2_000 < 3_000.
        f.contexts
            .set_field(
                tf,
                "TaskForceDeadline",
                Value::Time(Timestamp::from_millis(2_000)),
            )
            .unwrap();
        assert_eq!(f.engine.queue().pending_for(requestor), 1);
        let n = &f.engine.queue().fetch(requestor, 10)[0];
        assert!(n.description.contains("deadline"));
        assert_eq!(n.process_instance, pi);
        assert_eq!(n.int_info, Some(2_000));
        let s = f.engine.stats();
        assert_eq!(s.detections, 1);
        assert_eq!(s.notifications, 1);
    }

    #[test]
    fn delivery_role_resolved_at_detection_time_not_registration() {
        let f = fixture();
        let u1 = f.directory.add_user("u1");
        let u2 = f.directory.add_user("u2");
        let mut b = AwarenessSchemaBuilder::new(AwarenessSchemaId(1), "AS", P);
        let filt = b.context_filter("C", "f").unwrap();
        f.engine.register(
            b.deliver_to(filt, RoleSpec::scoped("C", "R"))
                .build()
                .unwrap(),
        );
        let pi = ProcessInstanceId(4);
        let ctx = f.contexts.create("C", Some((P, pi)));
        f.contexts.create_role(ctx, "R", &[u1]).unwrap();

        let ev = |v: i64| {
            producers::context_event(&cmi_core::context::ContextFieldChange {
                time: Timestamp::EPOCH,
                context_id: ctx,
                context_name: "C".into(),
                processes: vec![(P, pi)],
                field_name: "f".into(),
                old_value: None,
                new_value: Value::Int(v),
            })
        };
        f.engine.ingest(&ev(1));
        assert_eq!(f.engine.queue().pending_for(u1), 1);
        assert_eq!(f.engine.queue().pending_for(u2), 0);
        // Membership changes between detections are honored.
        f.contexts.remove_role_member(ctx, "R", u1).unwrap();
        f.contexts.add_role_member(ctx, "R", u2).unwrap();
        f.engine.ingest(&ev(2));
        assert_eq!(f.engine.queue().pending_for(u1), 1, "unchanged");
        assert_eq!(f.engine.queue().pending_for(u2), 1);
    }

    #[test]
    fn ended_scope_means_no_delivery() {
        let f = fixture();
        let u = f.directory.add_user("u");
        let mut b = AwarenessSchemaBuilder::new(AwarenessSchemaId(1), "AS", P);
        let filt = b.context_filter("C", "f").unwrap();
        f.engine.register(
            b.deliver_to(filt, RoleSpec::scoped("Gone", "R"))
                .build()
                .unwrap(),
        );
        let pi = ProcessInstanceId(4);
        let gone = f.contexts.create("Gone", Some((P, pi)));
        f.contexts.create_role(gone, "R", &[u]).unwrap();
        f.contexts.destroy(gone).unwrap();
        let c = f.contexts.create("C", Some((P, pi)));
        f.contexts.set_field(c, "f", Value::Int(1)).unwrap();
        f.engine.ingest(&producers::context_event(
            &cmi_core::context::ContextFieldChange {
                time: Timestamp::EPOCH,
                context_id: c,
                context_name: "C".into(),
                processes: vec![(P, pi)],
                field_name: "f".into(),
                old_value: None,
                new_value: Value::Int(2),
            },
        ));
        assert_eq!(f.engine.queue().pending_for(u), 0);
        assert_eq!(f.engine.stats().unresolved_roles, 1);
    }

    #[test]
    fn org_role_delivery_and_assignment() {
        let f = fixture();
        let u1 = f.directory.add_user("u1");
        let u2 = f.directory.add_user("u2");
        let leaders = f.directory.add_role("leaders").unwrap();
        f.directory.assign(u1, leaders).unwrap();
        f.directory.assign(u2, leaders).unwrap();
        f.directory.set_signed_on(u2, true).unwrap();

        let mut b = AwarenessSchemaBuilder::new(AwarenessSchemaId(1), "AS", P);
        let filt = b.context_filter("C", "f").unwrap();
        f.engine.register(
            b.deliver_to(filt, RoleSpec::org("leaders"))
                .assign(RoleAssignment::SignedOn)
                .build()
                .unwrap(),
        );
        let pi = ProcessInstanceId(1);
        let c = f.contexts.create("C", Some((P, pi)));
        attach_event_sources(
            &f.engine,
            &InstanceStore::new(
                Arc::new(f.clock.clone()),
                Arc::new(cmi_core::repository::SchemaRepository::new()),
            ),
            &f.contexts,
        );
        f.contexts.set_field(c, "f", Value::Int(1)).unwrap();
        assert_eq!(f.engine.queue().pending_for(u2), 1, "signed-on only");
        assert_eq!(f.engine.queue().pending_for(u1), 0);
        // Delivery bumps recipient load.
        assert_eq!(f.directory.participant(u2).unwrap().load, 1);
    }

    #[test]
    fn notifications_carry_str_info() {
        let f = fixture();
        let u = f.directory.add_user("u");
        let r = f.directory.add_role("watchers").unwrap();
        f.directory.assign(u, r).unwrap();
        let mut b = AwarenessSchemaBuilder::new(AwarenessSchemaId(1), "AS", P);
        let filt = b.context_filter("C", "status").unwrap();
        f.engine.register(
            b.deliver_to(filt, RoleSpec::org("watchers"))
                .describe("status changed")
                .build()
                .unwrap(),
        );
        let pi = ProcessInstanceId(1);
        let c = f.contexts.create("C", Some((P, pi)));
        attach_event_sources(
            &f.engine,
            &InstanceStore::new(
                Arc::new(f.clock.clone()),
                Arc::new(cmi_core::repository::SchemaRepository::new()),
            ),
            &f.contexts,
        );
        f.contexts
            .set_field(c, "status", Value::from("positive"))
            .unwrap();
        let n = &f.engine.queue().fetch(u, 1)[0];
        assert_eq!(n.str_info.as_deref(), Some("positive"));
        assert_eq!(n.description, "status changed");
    }

    /// The interleaving the fed notify pump can win, forced by doing the
    /// pump's lookup inside the enqueue hook: it reads the trace id by seq
    /// before `deliver_one` returns, so binding must precede publication.
    #[test]
    fn trace_is_bound_before_the_notification_is_published() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let f = fixture();
        let u = f.directory.add_user("u");
        let r = f.directory.add_role("watchers").unwrap();
        f.directory.assign(u, r).unwrap();
        let mut b = AwarenessSchemaBuilder::new(AwarenessSchemaId(1), "AS", P);
        let filt = b.context_filter("C", "f").unwrap();
        f.engine
            .register(b.deliver_to(filt, RoleSpec::org("watchers")).build().unwrap());

        let seen = Arc::new(AtomicUsize::new(0));
        let unbound = Arc::new(AtomicUsize::new(0));
        let queue = Arc::downgrade(f.engine.queue());
        let tracer = Arc::clone(f.engine.obs().tracer());
        let (hook_seen, hook_unbound) = (seen.clone(), unbound.clone());
        f.engine.queue().subscribe_enqueue(Box::new(move |user| {
            let Some(queue) = queue.upgrade() else {
                return false;
            };
            for n in queue.fetch(user, usize::MAX) {
                hook_seen.fetch_add(1, Ordering::Relaxed);
                if tracer.trace_id_for_seq(n.seq).is_none() {
                    hook_unbound.fetch_add(1, Ordering::Relaxed);
                }
            }
            true
        }));

        let pi = ProcessInstanceId(1);
        let c = f.contexts.create("C", Some((P, pi)));
        attach_event_sources(
            &f.engine,
            &InstanceStore::new(
                Arc::new(f.clock.clone()),
                Arc::new(cmi_core::repository::SchemaRepository::new()),
            ),
            &f.contexts,
        );
        for v in 0..8 {
            f.contexts.set_field(c, "f", Value::Int(v)).unwrap();
        }
        assert_eq!(f.engine.queue().pending_for(u), 8);
        assert!(seen.load(Ordering::Relaxed) >= 8, "the hook saw every enqueue");
        assert_eq!(
            unbound.load(Ordering::Relaxed),
            0,
            "a visible notification of a traced detection always has its trace id"
        );
    }
}
