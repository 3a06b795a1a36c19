//! Causal detection tracing.
//!
//! For each composite awareness event the engine detects, the tracer keeps
//! the lineage that produced it: the primitive event that entered
//! `Engine::ingest`, every operator firing along the DAG (node id, operator
//! kind, input event, enqueue→fire latency), and — once the detection turns
//! into a queued notification — the downstream per-stage latencies (queue,
//! push, ack) keyed by the notification's global sequence number.
//!
//! Traces are stored in a bounded ring **per process instance**, mirroring
//! how the engine partitions operator state: a chatty instance cannot evict
//! the history of a quiet one. All ids are raw `u64`s so the crate has no
//! dependency on the core id types.
//!
//! # When formatting happens
//!
//! A trace holds text, but the engine renders none on an ingest that
//! detects nothing. While an event flows through the DAG it records each
//! operator step as raw data (node, enqueue→fire latency, whether it
//! emitted, and the input event itself). Only when a root fires does it
//! format the primitive event and the steps, each at most once per ingest
//! however many roots fire, and hand them to
//! [`DetectionTracer::record_detection_for`]. A detection's latencies (its
//! steps' enqueue→fire times and `detection_ns`) are read before its own
//! formatting; only steps that fire after an earlier root of the same
//! ingest wait behind that root's. Stage labels are `&'static str`, so
//! stamping a stage copies no string.
//!
//! # Cross-node lineage
//!
//! In a federated cluster one detection spans up to three nodes: the node
//! that ingested the external event, the node owning the process instance
//! (where the operators fire), and the node the subscriber is signed on at.
//! Each node records its **own segment** of the lineage under a shared,
//! cluster-unique trace id ([`DetectionTracer::set_node`] puts the
//! allocating node's id in the high bits, so ids never collide across the
//! cluster). A segment is tagged with the [`TraceHop`] role the node played;
//! splicing the segments of one id in hop order yields the end-to-end story.
//! Every stage latency inside a segment is measured between two clock reads
//! **on the same node** — hop boundaries appear as a send stamp on one
//! segment and a recv anchor on the next, never as a cross-clock
//! subtraction.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

/// The ring key used for traces whose event had no process instance.
const NO_INSTANCE: u64 = u64::MAX;

/// Bit position of the node id inside a cluster-unique trace id: the low
/// 40 bits count, the high 24 bits name the allocating node. Node 0 (the
/// default) yields plain small integers, so single-process deployments are
/// unaffected.
const NODE_SHIFT: u32 = 40;
const COUNTER_MASK: u64 = (1 << NODE_SHIFT) - 1;

/// The node id embedded in a cluster-unique trace id (0 for ids allocated
/// before [`DetectionTracer::set_node`], i.e. single-process traces).
#[inline]
pub fn trace_node(id: u64) -> u32 {
    (id >> NODE_SHIFT) as u32
}

/// The role a node played for one segment of a cross-node detection trace.
/// Ordered causally: ingest happens before the owner-side firing, which
/// happens before the sign-on-side delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceHop {
    /// The whole lineage happened in this process (no federation).
    Local,
    /// This node ingested the external event and forwarded it.
    Ingest,
    /// This node owns the instance: operators fired here.
    Owner,
    /// The subscriber is signed on here: the notification was routed in.
    SignOn,
}

impl TraceHop {
    /// Stable wire encoding.
    pub fn as_u8(self) -> u8 {
        match self {
            TraceHop::Local => 0,
            TraceHop::Ingest => 1,
            TraceHop::Owner => 2,
            TraceHop::SignOn => 3,
        }
    }

    /// Inverse of [`TraceHop::as_u8`]; unknown values decode as `Local`.
    pub fn from_u8(v: u8) -> TraceHop {
        match v {
            1 => TraceHop::Ingest,
            2 => TraceHop::Owner,
            3 => TraceHop::SignOn,
            _ => TraceHop::Local,
        }
    }

    /// Human label used in renderings.
    pub fn label(self) -> &'static str {
        match self {
            TraceHop::Local => "local",
            TraceHop::Ingest => "ingest",
            TraceHop::Owner => "owner",
            TraceHop::SignOn => "sign-on",
        }
    }
}

/// One operator firing in a detection's lineage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// Engine node index of the operator that fired.
    pub node: usize,
    /// The operator's kind (e.g. `Seq`, `And`, `Filter`).
    pub op: String,
    /// A rendering of the input event the operator consumed.
    pub input: String,
    /// Latency from the event being enqueued on the node's input slot to
    /// the operator application completing.
    pub enqueue_to_fire_ns: u64,
    /// Whether the application emitted an output event.
    pub emitted: bool,
}

/// The recorded lineage of one composite event detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectionTrace {
    /// Tracer-assigned trace id (cluster-unique: allocating node in the
    /// high bits, see [`trace_node`]).
    pub id: u64,
    /// Raw id of the specification whose root fired.
    pub spec: u64,
    /// Raw process instance the detection belongs to, when the triggering
    /// event carried one.
    pub instance: Option<u64>,
    /// A rendering of the primitive event that entered `ingest`.
    pub primitive: String,
    /// Latency from ingest entry to the root detection.
    pub detection_ns: u64,
    /// Operator firings, in engine work-queue order.
    pub steps: Vec<TraceStep>,
    /// Downstream `(stage label, ns since detection)` pairs, e.g.
    /// `("queue", …)`, `("push", …)`, `("ack", …)`.
    pub stages: Vec<(&'static str, u64)>,
    /// Notification sequence numbers bound to this trace (one per
    /// recipient of the composite event).
    pub seqs: Vec<u64>,
    /// Which role this node played for this segment of the lineage.
    pub hop: TraceHop,
}

impl DetectionTrace {
    /// Renders the trace as indented text, the form shipped in
    /// `Response::Telemetry`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "trace #{} spec={}", self.id, self.spec);
        if self.hop != TraceHop::Local {
            let _ = write!(out, " hop={}", self.hop.label());
        }
        if let Some(i) = self.instance {
            let _ = write!(out, " instance={i}");
        }
        if !self.seqs.is_empty() {
            let _ = write!(out, " seqs={:?}", self.seqs);
        }
        out.push('\n');
        let _ = writeln!(out, "  primitive: {}", self.primitive);
        for s in &self.steps {
            let _ = writeln!(
                out,
                "  node {} [{}] +{}ns {} in={}",
                s.node,
                s.op,
                s.enqueue_to_fire_ns,
                if s.emitted { "emit" } else { "absorb" },
                s.input
            );
        }
        if self.hop == TraceHop::Local || self.hop == TraceHop::Owner {
            let _ = writeln!(out, "  detection: +{}ns", self.detection_ns);
        }
        for (label, ns) in &self.stages {
            let _ = writeln!(out, "  stage {label}: +{ns}ns");
        }
        out
    }
}

/// A stored trace plus the wall-clock anchor downstream stage latencies are
/// measured from.
struct TraceEntry {
    trace: DetectionTrace,
    detected_at: Instant,
    /// Whether a detection has filled this entry. A hop segment opened by
    /// the wire (forward/route receive) starts unclaimed; the first
    /// detection under the carried id claims it.
    detected: bool,
}

#[derive(Default)]
struct TracerInner {
    traces: HashMap<u64, TraceEntry>,
    /// Per-instance ring of trace ids, oldest first.
    rings: HashMap<u64, VecDeque<u64>>,
    /// Notification sequence number → trace id.
    by_seq: HashMap<u64, u64>,
}

/// The causal detection tracer. See the module docs.
pub struct DetectionTracer {
    enabled: bool,
    per_instance_cap: usize,
    next_id: AtomicU64,
    /// Pre-shifted node id OR-ed into every allocated trace id.
    node_bits: AtomicU64,
    inner: Mutex<TracerInner>,
}

impl std::fmt::Debug for DetectionTracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DetectionTracer")
            .field("enabled", &self.enabled)
            .field("per_instance_cap", &self.per_instance_cap)
            .field("node", &trace_node(self.node_bits.load(Ordering::Relaxed)))
            .finish()
    }
}

impl DetectionTracer {
    /// A tracer keeping at most `per_instance_cap` traces per process
    /// instance (traces without an instance share one ring).
    pub fn new(per_instance_cap: usize) -> DetectionTracer {
        DetectionTracer {
            enabled: true,
            per_instance_cap: per_instance_cap.max(1),
            next_id: AtomicU64::new(1),
            node_bits: AtomicU64::new(0),
            inner: Mutex::new(TracerInner::default()),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> DetectionTracer {
        DetectionTracer {
            enabled: false,
            per_instance_cap: 1,
            next_id: AtomicU64::new(1),
            node_bits: AtomicU64::new(0),
            inner: Mutex::new(TracerInner::default()),
        }
    }

    /// True when this tracer records. The engine checks this once per
    /// ingest to decide whether to capture timestamps at all.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Installs this process's cluster node id: every trace id allocated
    /// from now on carries it in the high bits, making ids cluster-unique
    /// without coordination. Node 0 (never calling this) keeps ids as
    /// plain counters.
    pub fn set_node(&self, node: u32) {
        self.node_bits
            .store((node as u64) << NODE_SHIFT, Ordering::Relaxed);
    }

    fn alloc_id(&self) -> u64 {
        let n = self.next_id.fetch_add(1, Ordering::Relaxed) & COUNTER_MASK;
        self.node_bits.load(Ordering::Relaxed) | n
    }

    /// Inserts `entry` under `id` in `instance`'s ring, honouring the
    /// per-instance cap.
    fn insert_entry(&self, inner: &mut TracerInner, id: u64, instance: Option<u64>, entry: TraceEntry) {
        let key = instance.unwrap_or(NO_INSTANCE);
        let ring = inner.rings.entry(key).or_default();
        let evicted = if ring.len() >= self.per_instance_cap {
            ring.pop_front()
        } else {
            None
        };
        ring.push_back(id);
        if let Some(old) = evicted {
            Self::drop_trace(inner, old);
        }
        inner.traces.insert(id, entry);
    }

    /// Opens a hop segment and allocates a fresh cluster-unique id for it —
    /// the ingest-node side of a cross-node lineage. Stamp the segment's
    /// stages with [`DetectionTracer::stage`] (anchor = now). Returns the
    /// id to carry on the wire, or `None` when disabled.
    pub fn begin_hop(
        &self,
        instance: Option<u64>,
        primitive: &str,
        hop: TraceHop,
    ) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let id = self.alloc_id();
        let mut inner = self.inner.lock();
        self.insert_entry(
            &mut inner,
            id,
            instance,
            TraceEntry {
                trace: DetectionTrace {
                    id,
                    spec: 0,
                    instance,
                    primitive: primitive.to_owned(),
                    detection_ns: 0,
                    steps: Vec::new(),
                    stages: Vec::new(),
                    seqs: Vec::new(),
                    hop,
                },
                detected_at: Instant::now(),
                detected: false,
            },
        );
        Some(id)
    }

    /// Opens a hop segment under a **wire-supplied** id (the receive side
    /// of a forward or route-back hop). A no-op if the id is 0 (no trace
    /// carried), the tracer is disabled, or a segment for the id already
    /// exists on this node. The anchor is *now*, so subsequent stages
    /// measure receive-relative latencies on this node's clock.
    pub fn open_segment(&self, id: u64, hop: TraceHop, primitive: &str, instance: Option<u64>) {
        if !self.enabled || id == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        if inner.traces.contains_key(&id) {
            return;
        }
        self.insert_entry(
            &mut inner,
            id,
            instance,
            TraceEntry {
                trace: DetectionTrace {
                    id,
                    spec: 0,
                    instance,
                    primitive: primitive.to_owned(),
                    detection_ns: 0,
                    steps: Vec::new(),
                    stages: Vec::new(),
                    seqs: Vec::new(),
                    hop,
                },
                detected_at: Instant::now(),
                detected: false,
            },
        );
    }

    /// Records a detection's lineage; returns the trace id, or `None` when
    /// disabled. Evicts the oldest trace of the same instance once the ring
    /// is full.
    pub fn record_detection(
        &self,
        spec: u64,
        instance: Option<u64>,
        primitive: &str,
        steps: Vec<TraceStep>,
        detection_ns: u64,
    ) -> Option<u64> {
        self.record_detection_for(None, spec, instance, primitive, steps, detection_ns)
    }

    /// Records a detection's lineage, attaching it to an open hop segment
    /// when `carrier` names one: the segment keeps its hop role and gains
    /// the operator steps, spec, and detection latency, and its stage
    /// anchor is re-based to the detection instant. A carrier that is
    /// absent (ring-evicted) or already claimed by an earlier detection
    /// falls back to a fresh local trace, so multi-detection events never
    /// cross their lineages.
    pub fn record_detection_for(
        &self,
        carrier: Option<u64>,
        spec: u64,
        instance: Option<u64>,
        primitive: &str,
        steps: Vec<TraceStep>,
        detection_ns: u64,
    ) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        if let Some(id) = carrier.filter(|&id| id != 0) {
            let mut inner = self.inner.lock();
            if let Some(entry) = inner.traces.get_mut(&id) {
                if !entry.detected {
                    entry.detected = true;
                    entry.detected_at = Instant::now();
                    entry.trace.spec = spec;
                    entry.trace.detection_ns = detection_ns;
                    entry.trace.steps = steps;
                    entry.trace.primitive = primitive.to_owned();
                    return Some(id);
                }
            }
        }
        let id = self.alloc_id();
        let mut inner = self.inner.lock();
        self.insert_entry(
            &mut inner,
            id,
            instance,
            TraceEntry {
                trace: DetectionTrace {
                    id,
                    spec,
                    instance,
                    primitive: primitive.to_owned(),
                    detection_ns,
                    steps,
                    stages: Vec::new(),
                    seqs: Vec::new(),
                    hop: TraceHop::Local,
                },
                detected_at: Instant::now(),
                detected: true,
            },
        );
        Some(id)
    }

    /// Removes `id` from the trace table and any seq bindings pointing at
    /// it. The ring entry is assumed already popped.
    fn drop_trace(inner: &mut TracerInner, id: u64) {
        if let Some(entry) = inner.traces.remove(&id) {
            for seq in &entry.trace.seqs {
                inner.by_seq.remove(seq);
            }
        }
    }

    /// Binds a notification sequence number to a trace, so the trace can
    /// later be retrieved by the seq the wire protocol exposes.
    pub fn bind_seq(&self, seq: u64, trace_id: u64) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.lock();
        if let Some(entry) = inner.traces.get_mut(&trace_id) {
            entry.trace.seqs.push(seq);
            inner.by_seq.insert(seq, trace_id);
        }
    }

    /// Appends a downstream stage (latency measured from the detection).
    pub fn stage(&self, trace_id: u64, label: &'static str) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.lock();
        if let Some(entry) = inner.traces.get_mut(&trace_id) {
            let ns = entry.detected_at.elapsed().as_nanos() as u64;
            entry.trace.stages.push((label, ns));
        }
    }

    /// Appends a downstream stage to the trace bound to `seq`, if any.
    pub fn stage_for_seq(&self, seq: u64, label: &'static str) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.lock();
        if let Some(&id) = inner.by_seq.get(&seq) {
            if let Some(entry) = inner.traces.get_mut(&id) {
                let ns = entry.detected_at.elapsed().as_nanos() as u64;
                entry.trace.stages.push((label, ns));
            }
        }
    }

    /// The trace with the given id.
    pub fn get(&self, trace_id: u64) -> Option<DetectionTrace> {
        self.inner
            .lock()
            .traces
            .get(&trace_id)
            .map(|e| e.trace.clone())
    }

    /// The trace bound to a notification sequence number.
    pub fn trace_for_seq(&self, seq: u64) -> Option<DetectionTrace> {
        let inner = self.inner.lock();
        let id = inner.by_seq.get(&seq)?;
        inner.traces.get(id).map(|e| e.trace.clone())
    }

    /// The trace id bound to a notification sequence number (cheaper than
    /// cloning the whole trace when only the id must travel on the wire).
    pub fn trace_id_for_seq(&self, seq: u64) -> Option<u64> {
        self.inner.lock().by_seq.get(&seq).copied()
    }

    /// Number of traces currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().traces.len()
    }

    /// True when no traces are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every retained trace as `(id, hop, rendered text)`, sorted by id —
    /// the shape a federated telemetry response ships, ready for splicing
    /// with the other nodes' segments of the same ids.
    pub fn dump_segments(&self) -> Vec<(u64, u8, String)> {
        let inner = self.inner.lock();
        let mut out: Vec<(u64, u8, String)> = inner
            .traces
            .values()
            .map(|e| (e.trace.id, e.trace.hop.as_u8(), e.trace.render()))
            .collect();
        out.sort_by_key(|(id, _, _)| *id);
        out
    }

    /// Drops every trace belonging to a process instance, mirroring
    /// `Engine::evict_instance`.
    pub fn evict_instance(&self, instance: u64) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.lock();
        if let Some(ring) = inner.rings.remove(&instance) {
            for id in ring {
                Self::drop_trace(&mut inner, id);
            }
        }
    }

    /// Closes out an instance's traces for a hand-off migration: each gets
    /// a terminal `migrated` stage stamped, is removed from the tracer
    /// (ring, table, and seq bindings), and is returned to the caller — the
    /// old owner keeps no dead-instance history and the migration machinery
    /// can log or ship the closed lineages.
    pub fn migrate_instance(&self, instance: u64) -> Vec<DetectionTrace> {
        if !self.enabled {
            return Vec::new();
        }
        let mut inner = self.inner.lock();
        let Some(ring) = inner.rings.remove(&instance) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(ring.len());
        for id in ring {
            if let Some(mut entry) = inner.traces.remove(&id) {
                for seq in &entry.trace.seqs {
                    inner.by_seq.remove(seq);
                }
                let ns = entry.detected_at.elapsed().as_nanos() as u64;
                entry.trace.stages.push(("migrated", ns));
                out.push(entry.trace);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(node: usize) -> TraceStep {
        TraceStep {
            node,
            op: "Seq".into(),
            input: "e".into(),
            enqueue_to_fire_ns: 5,
            emitted: true,
        }
    }

    #[test]
    fn records_and_retrieves_by_id_and_seq() {
        let t = DetectionTracer::new(4);
        let id = t
            .record_detection(7, Some(1), "prim", vec![step(2), step(3)], 111)
            .unwrap();
        t.bind_seq(42, id);
        t.stage_for_seq(42, "push");
        let tr = t.trace_for_seq(42).unwrap();
        assert_eq!(tr.id, id);
        assert_eq!(tr.spec, 7);
        assert_eq!(tr.steps.len(), 2);
        assert_eq!(tr.seqs, vec![42]);
        assert_eq!(tr.stages.len(), 1);
        assert_eq!(tr.stages[0].0, "push");
        assert_eq!(t.get(id).unwrap(), tr);
        assert_eq!(t.trace_id_for_seq(42), Some(id));
    }

    #[test]
    fn per_instance_ring_is_bounded_and_cleans_seq_bindings() {
        let t = DetectionTracer::new(2);
        let a = t.record_detection(1, Some(9), "a", vec![], 1).unwrap();
        t.bind_seq(100, a);
        let _b = t.record_detection(1, Some(9), "b", vec![], 1).unwrap();
        let _c = t.record_detection(1, Some(9), "c", vec![], 1).unwrap();
        // `a` was evicted: gone from the table and its seq binding dropped.
        assert_eq!(t.len(), 2);
        assert!(t.get(a).is_none());
        assert!(t.trace_for_seq(100).is_none());
        // A different instance has its own ring.
        let d = t.record_detection(1, Some(10), "d", vec![], 1).unwrap();
        assert_eq!(t.len(), 3);
        assert!(t.get(d).is_some());
    }

    #[test]
    fn evict_instance_drops_that_instances_traces_only() {
        let t = DetectionTracer::new(8);
        let a = t.record_detection(1, Some(5), "a", vec![], 1).unwrap();
        t.bind_seq(1, a);
        let b = t.record_detection(1, None, "b", vec![], 1).unwrap();
        t.evict_instance(5);
        assert!(t.get(a).is_none());
        assert!(t.trace_for_seq(1).is_none());
        assert!(t.get(b).is_some());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = DetectionTracer::disabled();
        assert!(!t.is_enabled());
        assert!(t.record_detection(1, None, "p", vec![], 1).is_none());
        assert!(t.begin_hop(None, "p", TraceHop::Ingest).is_none());
        t.open_segment(99, TraceHop::Owner, "p", None);
        t.bind_seq(1, 1);
        t.stage(1, "x");
        t.stage_for_seq(1, "x");
        assert!(t.is_empty());
        assert!(t.migrate_instance(1).is_empty());
    }

    #[test]
    fn render_mentions_every_layer() {
        let t = DetectionTracer::new(4);
        let id = t
            .record_detection(3, Some(8), "T_activity@…", vec![step(4)], 99)
            .unwrap();
        t.bind_seq(55, id);
        t.stage(id, "queue");
        let text = t.get(id).unwrap().render();
        assert!(text.contains("spec=3"));
        assert!(text.contains("instance=8"));
        assert!(text.contains("node 4 [Seq]"));
        assert!(text.contains("detection: +99ns"));
        assert!(text.contains("stage queue"));
        assert!(text.contains("seqs=[55]"));
    }

    #[test]
    fn node_bits_make_ids_cluster_unique() {
        let t = DetectionTracer::new(4);
        t.set_node(7);
        let id = t.record_detection(1, None, "p", vec![], 1).unwrap();
        assert_eq!(trace_node(id), 7);
        assert_eq!(id & COUNTER_MASK, 1);
        let hop = t.begin_hop(Some(3), "p", TraceHop::Ingest).unwrap();
        assert_eq!(trace_node(hop), 7);
        assert_ne!(hop, id);
        // Node 0 (the default) keeps plain counters.
        let t0 = DetectionTracer::new(4);
        let id0 = t0.record_detection(1, None, "p", vec![], 1).unwrap();
        assert_eq!(trace_node(id0), 0);
        assert_eq!(id0, 1);
    }

    #[test]
    fn open_segment_claims_once_and_detection_fills_it() {
        let t = DetectionTracer::new(4);
        // Wire hands us id 0x55 with an Owner role.
        t.open_segment(0x55, TraceHop::Owner, "prim", Some(2));
        t.stage(0x55, "fwd-recv");
        // A second open under the same id is a no-op.
        t.open_segment(0x55, TraceHop::SignOn, "other", Some(2));
        assert_eq!(t.get(0x55).unwrap().hop, TraceHop::Owner);
        // The first detection claims the open segment…
        let got = t
            .record_detection_for(Some(0x55), 9, Some(2), "prim", vec![step(1)], 42)
            .unwrap();
        assert_eq!(got, 0x55);
        let tr = t.get(0x55).unwrap();
        assert_eq!(tr.spec, 9);
        assert_eq!(tr.detection_ns, 42);
        assert_eq!(tr.hop, TraceHop::Owner);
        assert_eq!(tr.stages[0].0, "fwd-recv");
        // …and a second detection under the same carrier gets its own
        // fresh local trace instead of clobbering the first.
        let other = t
            .record_detection_for(Some(0x55), 10, Some(2), "prim", vec![], 7)
            .unwrap();
        assert_ne!(other, 0x55);
        assert_eq!(t.get(other).unwrap().hop, TraceHop::Local);
        assert_eq!(t.get(0x55).unwrap().spec, 9);
    }

    #[test]
    fn dump_segments_ships_id_hop_and_rendering() {
        let t = DetectionTracer::new(4);
        t.set_node(2);
        let a = t.begin_hop(Some(1), "p", TraceHop::Ingest).unwrap();
        t.stage(a, "fwd-send");
        let b = t.record_detection(5, Some(1), "q", vec![], 3).unwrap();
        let dump = t.dump_segments();
        assert_eq!(dump.len(), 2);
        assert!(dump.windows(2).all(|w| w[0].0 < w[1].0));
        let seg_a = dump.iter().find(|(id, _, _)| *id == a).unwrap();
        assert_eq!(seg_a.1, TraceHop::Ingest.as_u8());
        assert!(seg_a.2.contains("hop=ingest"));
        assert!(seg_a.2.contains("stage fwd-send"));
        let seg_b = dump.iter().find(|(id, _, _)| *id == b).unwrap();
        assert_eq!(seg_b.1, TraceHop::Local.as_u8());
    }

    #[test]
    fn migrate_instance_stamps_terminal_stage_and_clears_state() {
        let t = DetectionTracer::new(8);
        let a = t.record_detection(1, Some(5), "a", vec![], 1).unwrap();
        t.bind_seq(11, a);
        let b = t.record_detection(2, Some(5), "b", vec![], 1).unwrap();
        let keep = t.record_detection(3, Some(6), "c", vec![], 1).unwrap();
        let migrated = t.migrate_instance(5);
        assert_eq!(migrated.len(), 2);
        for tr in &migrated {
            assert_eq!(tr.stages.last().map(|(l, _)| *l), Some("migrated"));
        }
        assert!(t.get(a).is_none());
        assert!(t.get(b).is_none());
        assert!(t.trace_for_seq(11).is_none());
        assert!(t.get(keep).is_some());
        // Idempotent: a second migrate finds nothing.
        assert!(t.migrate_instance(5).is_empty());
    }
}
