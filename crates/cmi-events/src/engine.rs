//! The composite event detection engine — the CEDMOS core specialized for
//! CMI (§5.1.2, §6.4).
//!
//! At build time, awareness schemata are transformed into *detector agents*
//! that embody one or more specifications. This engine is that embodiment:
//! it hosts a **merged, multiply-rooted DAG** (§6.2: "both interior nodes and
//! leaves may be shared amongst all awareness schemata DAGs"), pushes each
//! ingested primitive event through the topology, and reports every event
//! emitted by a root as a detection for that root's specification.
//!
//! Per-instance replication (§5.1.2) is implemented here: the state of each
//! [`PartitionMode::ByInstance`] operator node is partitioned by the incoming
//! event's canonical `processInstanceId`, so "events are not mixed across
//! process instances" while the operator code stays oblivious.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use cmi_core::ids::SpecId;
use cmi_obs::{Counter, DetectionTracer, ObsRegistry, TraceStep};

use crate::event::{Event, EventType};
use crate::operator::{EventOperator, OpState, PartitionMode};
use crate::producers::Producer;
use crate::spec::{CompositeEventSpec, SpecNode};

/// A composite event detected by a hosted specification.
#[derive(Debug, Clone)]
pub struct Detection {
    /// The specification whose root emitted the event.
    pub spec: SpecId,
    /// The detected composite event.
    pub event: Event,
    /// The causal trace id recorded for this detection, when the engine has
    /// an enabled [`DetectionTracer`] attached (see [`Engine::set_obs`]).
    pub trace: Option<u64>,
}

/// Counters describing engine activity, for experiments and benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Primitive events ingested.
    pub events_ingested: u64,
    /// Operator applications performed.
    pub operator_invocations: u64,
    /// Events emitted by operators (including intermediate ones).
    pub events_emitted: u64,
    /// Detections reported from roots.
    pub detections: u64,
}

/// Static description of the merged DAG, for experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineTopology {
    /// Total nodes in the merged DAG.
    pub nodes: usize,
    /// Producer leaves.
    pub producers: usize,
    /// Operator nodes.
    pub operators: usize,
    /// Nodes shared by more than one hosted specification.
    pub shared_nodes: usize,
    /// Hosted specifications (roots).
    pub specs: usize,
    /// Live state partitions (operator, instance) currently allocated.
    pub state_partitions: usize,
}

struct EngineNode {
    kind: NodeKind,
    /// `(consumer node, slot)` pairs fed by this node's output.
    consumers: Vec<(usize, usize)>,
    /// Spec ids for which this node is the root.
    root_of: Vec<SpecId>,
    /// How many hosted specs reference this node.
    ref_count: usize,
}

enum NodeKind {
    Producer(Producer),
    Operator(Arc<dyn EventOperator>),
}

/// The engine's observability attachment: the shared tracer plus one
/// pre-resolved [`OpObs`] per node (indexed like `nodes`; `None` for
/// producer leaves).
struct EngineObs {
    registry: Arc<ObsRegistry>,
    tracer: Arc<DetectionTracer>,
    ops: Vec<Option<OpObs>>,
}

/// One operator node's observability handles, resolved when the node or
/// the registry is attached so the hot path never formats a name.
struct OpObs {
    /// The `operator_kind` label: trace steps clone it only when kept.
    kind: String,
    /// `operator_invocations{operator_kind=…}`.
    invocations: Counter,
}

/// One operator step of a traced ingest, kept unformatted: most ingests
/// fire no root and drop their steps unread, so a step becomes a
/// [`TraceStep`] only once a detection keeps it.
struct RawStep {
    node: usize,
    enqueue_to_fire_ns: u64,
    emitted: bool,
    /// The work-queue event the operator consumed, moved in after `apply`.
    input: Event,
}

/// Everything `ingest` mutates, under the one `state` lock.
#[derive(Default)]
struct EngineState {
    /// Operator state partitions keyed by `(node, partition key)`.
    parts: HashMap<(usize, u64), OpState>,
    /// The traced ingest's steps; empty between ingests, and kept only so
    /// its capacity is reused.
    steps: Vec<RawStep>,
}

impl EngineObs {
    /// Renders the steps `kept` does not hold yet and appends them, so an
    /// ingest that fires several roots renders each step once.
    fn render_steps(&self, steps: &[RawStep], kept: &mut Vec<TraceStep>) {
        let fresh = steps[kept.len()..].iter().map(|s| TraceStep {
            node: s.node,
            op: self.ops[s.node]
                .as_ref()
                .map(|o| o.kind.clone())
                .unwrap_or_default(),
            input: s.input.to_string(),
            enqueue_to_fire_ns: s.enqueue_to_fire_ns,
            emitted: s.emitted,
        });
        kept.extend(fresh);
    }
}

/// `Compare2[as1, <=]` → `Compare2`: the operator kind used as a metric
/// label, stripped of bound parameters to keep the cardinality small.
fn op_kind(name: &str) -> &str {
    name.split('[').next().unwrap_or(name).trim()
}

/// The detector engine. `add_spec` merges specifications (with structural
/// sharing unless disabled); `ingest` is thread-safe and synchronous.
pub struct Engine {
    nodes: Vec<EngineNode>,
    /// Producer -> engine leaf index.
    leaves: BTreeMap<Producer, usize>,
    /// Structural dedup table: (fingerprint, input ids) -> node index.
    dedup: HashMap<(String, Vec<usize>), usize>,
    /// Whether `add_spec` shares structurally identical nodes.
    sharing: bool,
    state: Mutex<EngineState>,
    stats: Mutex<EngineStats>,
    obs: Option<EngineObs>,
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.topology();
        f.debug_struct("Engine")
            .field("nodes", &t.nodes)
            .field("specs", &t.specs)
            .field("shared_nodes", &t.shared_nodes)
            .finish()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine with structural sharing enabled (the paper's multiply-rooted
    /// shared DAG).
    pub fn new() -> Self {
        Engine {
            nodes: Vec::new(),
            leaves: BTreeMap::new(),
            dedup: HashMap::new(),
            sharing: true,
            state: Mutex::new(EngineState::default()),
            stats: Mutex::new(EngineStats::default()),
            obs: None,
        }
    }

    /// Attaches an observability registry: operator applications are counted
    /// per `operator_kind`, and (when the registry's tracer is enabled) each
    /// detection records its causal lineage — primitive event, operator
    /// firings with enqueue→fire latencies, and the ingest→detection
    /// latency — retrievable through the registry's [`DetectionTracer`].
    pub fn set_obs(&mut self, obs: Arc<ObsRegistry>) {
        let ops = self.nodes.iter().map(|n| Self::op_obs(&obs, n)).collect();
        self.obs = Some(EngineObs {
            tracer: Arc::clone(obs.tracer()),
            ops,
            registry: obs,
        });
    }

    fn op_obs(obs: &ObsRegistry, node: &EngineNode) -> Option<OpObs> {
        let NodeKind::Operator(op) = &node.kind else {
            return None;
        };
        let name = op.op_name();
        let kind = op_kind(&name);
        Some(OpObs {
            invocations: obs.counter_with(
                "cmi_engine_operator_invocations",
                &[("operator_kind", kind)],
            ),
            kind: kind.to_owned(),
        })
    }

    /// An engine that duplicates identical sub-DAGs instead of sharing them —
    /// the ablation baseline for experiment EXP-DAG.
    pub fn without_sharing() -> Self {
        let mut e = Engine::new();
        e.sharing = false;
        e
    }

    /// Merges a specification into the engine. Returns the engine node index
    /// of the spec's root.
    pub fn add_spec(&mut self, spec: &CompositeEventSpec) -> usize {
        let mut mapping: Vec<usize> = Vec::with_capacity(spec.nodes().len());
        for node in spec.nodes() {
            let engine_idx = match node {
                SpecNode::Producer(p) => {
                    if let Some(&i) = self.leaves.get(p) {
                        self.nodes[i].ref_count += 1;
                        i
                    } else {
                        let i = self.push_node(NodeKind::Producer(p.clone()));
                        self.leaves.insert(p.clone(), i);
                        i
                    }
                }
                SpecNode::Operator { op, inputs } => {
                    let input_ids: Vec<usize> =
                        inputs.iter().map(|n| mapping[n.index()]).collect();
                    let key = (node.fingerprint(), input_ids.clone());
                    if self.sharing {
                        if let Some(&i) = self.dedup.get(&key) {
                            self.nodes[i].ref_count += 1;
                            mapping.push(i);
                            continue;
                        }
                    }
                    let i = self.push_node(NodeKind::Operator(op.clone()));
                    for (slot, &src) in input_ids.iter().enumerate() {
                        self.nodes[src].consumers.push((i, slot));
                    }
                    if self.sharing {
                        self.dedup.insert(key, i);
                    }
                    i
                }
            };
            mapping.push(engine_idx);
        }
        let root = mapping[spec.root().index()];
        self.nodes[root].root_of.push(spec.id());
        if let Some(o) = &mut self.obs {
            for node in &self.nodes[o.ops.len()..] {
                o.ops.push(Self::op_obs(&o.registry, node));
            }
        }
        root
    }

    fn push_node(&mut self, kind: NodeKind) -> usize {
        self.nodes.push(EngineNode {
            kind,
            consumers: Vec::new(),
            root_of: Vec::new(),
            ref_count: 1,
        });
        self.nodes.len() - 1
    }

    /// Pushes one primitive event through the merged DAG, returning every
    /// detection (root emission) it causes, in deterministic propagation
    /// order.
    pub fn ingest(&self, event: &Event) -> Vec<Detection> {
        self.ingest_impl(event, None, None)
    }

    /// Like [`Engine::ingest`], but attaches the first detection to the
    /// cross-node trace segment `carrier` names (a trace id carried over
    /// the federation wire; see `DetectionTracer::record_detection_for`).
    /// `None` (or an unknown/claimed id) behaves exactly like `ingest`.
    pub fn ingest_traced(&self, event: &Event, carrier: Option<u64>) -> Vec<Detection> {
        self.ingest_impl(event, None, carrier)
    }

    /// Like [`Engine::ingest`], but drops every operator emission whose
    /// canonical process instance (raw id, or `None` when absent) fails
    /// `keep` — before it propagates, is counted, or is reported. The
    /// sharded engine uses this to process a primitive event touching
    /// several shards on each of them while letting each shard keep only
    /// the emissions for instances it owns.
    pub fn ingest_filtered(
        &self,
        event: &Event,
        keep: &dyn Fn(Option<u64>) -> bool,
    ) -> Vec<Detection> {
        self.ingest_impl(event, Some(keep), None)
    }

    /// [`Engine::ingest_filtered`] with a cross-node trace carrier (see
    /// [`Engine::ingest_traced`]).
    pub fn ingest_filtered_traced(
        &self,
        event: &Event,
        keep: &dyn Fn(Option<u64>) -> bool,
        carrier: Option<u64>,
    ) -> Vec<Detection> {
        self.ingest_impl(event, Some(keep), carrier)
    }

    fn ingest_impl(
        &self,
        event: &Event,
        keep: Option<&dyn Fn(Option<u64>) -> bool>,
        carrier: Option<u64>,
    ) -> Vec<Detection> {
        let mut detections = Vec::new();
        let leaf = match self.leaf_for(&event.etype) {
            Some(l) => l,
            None => {
                self.stats.lock().events_ingested += 1;
                return detections;
            }
        };
        // Tracing reads the clock and keeps each step's input event, so
        // everything it needs is gated on an *enabled* tracer: with obs
        // detached (or a no-op registry) the hot path pays one branch per
        // use. Nothing is formatted unless a root fires.
        let traced = self
            .obs
            .as_ref()
            .filter(|o| o.tracer.is_enabled())
            .map(|o| (o, Instant::now()));
        let ingest_start = traced.map(|(_, start)| start);
        let mut primitive: Option<String> = None;
        let mut kept: Vec<TraceStep> = Vec::new();
        let mut state = self.state.lock();
        let EngineState { parts, steps } = &mut *state;
        let mut stats = self.stats.lock();
        stats.events_ingested += 1;

        // (target node, slot, event, enqueue time) work queue; leaves
        // forward unchanged.
        let mut queue: VecDeque<(usize, usize, Event, Option<Instant>)> = VecDeque::new();
        for &(consumer, slot) in &self.nodes[leaf].consumers {
            queue.push_back((consumer, slot, event.clone(), ingest_start));
        }
        let mut out_buf: Vec<Event> = Vec::new();
        while let Some((node_idx, slot, ev, enqueued)) = queue.pop_front() {
            let node = &self.nodes[node_idx];
            let NodeKind::Operator(op) = &node.kind else {
                continue;
            };
            stats.operator_invocations += 1;
            if let Some(o) = &self.obs {
                if let Some(Some(op_obs)) = o.ops.get(node_idx) {
                    op_obs.invocations.inc();
                }
            }
            out_buf.clear();
            match op.partition() {
                PartitionMode::Stateless => {
                    let mut dummy: OpState = Box::new(());
                    op.apply(slot, &ev, &mut dummy, &mut out_buf);
                }
                PartitionMode::ByInstance => {
                    let key = ev
                        .process_instance()
                        .map(|i| i.raw())
                        .unwrap_or(u64::MAX - 1);
                    let st = parts
                        .entry((node_idx, key))
                        .or_insert_with(|| op.new_state());
                    op.apply(slot, &ev, st, &mut out_buf);
                }
                PartitionMode::Global => {
                    let st = parts
                        .entry((node_idx, u64::MAX))
                        .or_insert_with(|| op.new_state());
                    op.apply(slot, &ev, st, &mut out_buf);
                }
            }
            // One clock read is both this step's fire time and the enqueue
            // stamp of the events it emits. `enqueued` is set iff tracing.
            let fired = enqueued.map(|enqueued| {
                let now = Instant::now();
                steps.push(RawStep {
                    node: node_idx,
                    enqueue_to_fire_ns: now.duration_since(enqueued).as_nanos() as u64,
                    emitted: !out_buf.is_empty(),
                    input: ev,
                });
                now
            });
            for produced in out_buf.drain(..) {
                if let Some(keep) = keep {
                    if !keep(produced.process_instance().map(|i| i.raw())) {
                        continue;
                    }
                }
                stats.events_emitted += 1;
                for &spec in &node.root_of {
                    stats.detections += 1;
                    let trace = traced.zip(fired).and_then(|((o, start), fired)| {
                        let detection_ns = fired.duration_since(start).as_nanos() as u64;
                        o.render_steps(steps, &mut kept);
                        // The carrier segment (if any) is claimed by the
                        // first detection; later detections of the same
                        // ingest fall back to fresh local traces inside
                        // `record_detection_for`.
                        o.tracer.record_detection_for(
                            carrier,
                            spec.raw(),
                            produced.process_instance().map(|i| i.raw()),
                            primitive.get_or_insert_with(|| event.to_string()),
                            kept.clone(),
                            detection_ns,
                        )
                    });
                    detections.push(Detection {
                        spec,
                        event: produced.clone(),
                        trace,
                    });
                }
                for &(consumer, cslot) in &node.consumers {
                    queue.push_back((consumer, cslot, produced.clone(), fired));
                }
            }
        }
        steps.clear();
        detections
    }

    fn leaf_for(&self, etype: &EventType) -> Option<usize> {
        let producer = match etype {
            EventType::Activity => Producer::Activity,
            EventType::Context => Producer::Context,
            EventType::External(n) => Producer::External(n.clone()),
            EventType::Canonical(_) => return None,
        };
        self.leaves.get(&producer).copied()
    }

    /// Activity counters since construction.
    pub fn stats(&self) -> EngineStats {
        *self.stats.lock()
    }

    /// Static topology description.
    pub fn topology(&self) -> EngineTopology {
        let producers = self
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Producer(_)))
            .count();
        EngineTopology {
            nodes: self.nodes.len(),
            producers,
            operators: self.nodes.len() - producers,
            shared_nodes: self.nodes.iter().filter(|n| n.ref_count > 1).count(),
            specs: self.nodes.iter().map(|n| n.root_of.len()).sum(),
            state_partitions: self.state.lock().parts.len(),
        }
    }

    /// Renders the merged DAG as indented text: one line per node with its
    /// label, consumers, and the specs rooted at it. Used by the experiment
    /// harnesses to reproduce the content of Fig. 6 for a whole engine.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (i, n) in self.nodes.iter().enumerate() {
            let label = match &n.kind {
                NodeKind::Producer(p) => p.display_name(),
                NodeKind::Operator(op) => op.op_name(),
            };
            let _ = write!(s, "  [{i}] {label}");
            if !n.consumers.is_empty() {
                let c: Vec<String> = n
                    .consumers
                    .iter()
                    .map(|(node, slot)| format!("{node}#{slot}"))
                    .collect();
                let _ = write!(s, " -> {}", c.join(", "));
            }
            if !n.root_of.is_empty() {
                let r: Vec<String> = n.root_of.iter().map(|sp| sp.to_string()).collect();
                let _ = write!(s, "  (root of {})", r.join(", "));
            }
            s.push('\n');
        }
        s
    }

    /// Drops all per-instance operator state for the given raw process
    /// instance id — housekeeping once a process instance is closed.
    pub fn evict_instance(&self, raw_instance: u64) -> usize {
        if let Some(o) = &self.obs {
            o.tracer.evict_instance(raw_instance);
        }
        let mut state = self.state.lock();
        let before = state.parts.len();
        state.parts.retain(|(_, key), _| *key != raw_instance);
        before - state.parts.len()
    }

    /// Serializes every state partition of one raw process instance as
    /// `(engine node index, operator fingerprint, snapshot bytes)` triples,
    /// sorted by node index — the export side of live instance migration.
    /// The fingerprint travels with the bytes so the importing engine can
    /// verify it is handing them to a structurally identical operator (node
    /// indices match across engines built by the same `add_spec` sequence;
    /// the fingerprint check catches drift). `Global` partitions are shared
    /// across instances and are never exported.
    pub fn export_instance(&self, raw_instance: u64) -> Vec<(u32, String, Vec<u8>)> {
        let state = self.state.lock();
        let mut parts: Vec<(u32, String, Vec<u8>)> = Vec::new();
        for ((node_idx, key), st) in state.parts.iter() {
            if *key != raw_instance {
                continue;
            }
            let NodeKind::Operator(op) = &self.nodes[*node_idx].kind else {
                continue;
            };
            let mut bytes = Vec::new();
            st.snapshot(&mut bytes);
            parts.push((*node_idx as u32, op.fingerprint(), bytes));
        }
        parts.sort();
        parts
    }

    /// The raw process-instance ids with at least one live state partition
    /// — the enumeration a membership rebalance migrates from. The sentinel
    /// partitions (`Global` operators and the instance-less `ByInstance`
    /// bucket) are not process instances and are excluded.
    pub fn instances(&self) -> Vec<u64> {
        let state = self.state.lock();
        let mut out: Vec<u64> = state
            .parts
            .keys()
            .map(|(_, key)| *key)
            .filter(|&key| key != u64::MAX && key != u64::MAX - 1)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Restores partitions exported by [`Engine::export_instance`] on a
    /// structurally identical engine, replacing any existing partition for
    /// the same `(node, instance)`. Returns how many partitions were
    /// installed; a part whose node index or fingerprint does not match
    /// this engine, or whose bytes do not parse, is skipped (counted out).
    pub fn import_instance(&self, raw_instance: u64, parts: &[(u32, String, Vec<u8>)]) -> usize {
        let mut installed = 0;
        let mut state = self.state.lock();
        for (node_idx, fingerprint, bytes) in parts {
            let idx = *node_idx as usize;
            let Some(node) = self.nodes.get(idx) else {
                continue;
            };
            let NodeKind::Operator(op) = &node.kind else {
                continue;
            };
            if op.fingerprint() != *fingerprint {
                continue;
            }
            let Some(st) = op.restore_state(bytes) else {
                continue;
            };
            state.parts.insert((idx, raw_instance), st);
            installed += 1;
        }
        installed
    }

    /// The canonical structural signature of every node, indexed like the
    /// node table. A producer signs as its display name; an operator signs
    /// as its parameter fingerprint applied to its inputs' signatures in
    /// slot order. Two nodes with equal signatures embody the same sub-DAG
    /// regardless of node indices, spec ids, or the order specs were merged
    /// — the identity a schema hot-swap uses to match *untouched* nodes
    /// between the live engine and its compiled replacement.
    pub fn structural_signatures(&self) -> Vec<String> {
        // Invert the consumer adjacency into per-node slot-ordered inputs.
        // Inputs always precede their consumers in the node table (an
        // `add_spec` invariant), so one forward pass builds each signature
        // from inputs whose own signatures are already final.
        let mut inputs: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.nodes.len()];
        for (src, node) in self.nodes.iter().enumerate() {
            for &(consumer, slot) in &node.consumers {
                inputs[consumer].push((slot, src));
            }
        }
        let mut sigs: Vec<String> = Vec::with_capacity(self.nodes.len());
        for (i, node) in self.nodes.iter().enumerate() {
            let sig = match &node.kind {
                NodeKind::Producer(p) => format!("leaf:{}", p.display_name()),
                NodeKind::Operator(op) => {
                    let mut ins = inputs[i].clone();
                    ins.sort_unstable();
                    let parts: Vec<&str> =
                        ins.iter().map(|&(_, src)| sigs[src].as_str()).collect();
                    format!("{}({})", op.fingerprint(), parts.join("|"))
                }
            };
            sigs.push(sig);
        }
        sigs
    }

    /// Signature → node index for every operator node (first occurrence
    /// wins in the no-sharing ablation, where structural duplicates exist).
    pub(crate) fn signature_index(&self) -> HashMap<String, usize> {
        let sigs = self.structural_signatures();
        let mut map = HashMap::new();
        for (i, sig) in sigs.into_iter().enumerate() {
            if matches!(self.nodes[i].kind, NodeKind::Operator(_)) {
                map.entry(sig).or_insert(i);
            }
        }
        map
    }

    /// Snapshots *every* live state partition as `(owning node's structural
    /// signature, partition key, snapshot bytes)` triples — the donor side
    /// of a hot-swap state transplant. Unlike [`Engine::export_instance`]
    /// this includes the sentinel partitions (`Global` and the
    /// instance-less `ByInstance` bucket): a swap preserves the whole
    /// engine, not one migrating instance.
    pub(crate) fn export_all_state(&self) -> Vec<(String, u64, Vec<u8>)> {
        let sigs = self.structural_signatures();
        let state = self.state.lock();
        let mut out = Vec::with_capacity(state.parts.len());
        for ((node_idx, key), st) in state.parts.iter() {
            if !matches!(self.nodes[*node_idx].kind, NodeKind::Operator(_)) {
                continue;
            }
            let mut bytes = Vec::new();
            st.snapshot(&mut bytes);
            out.push((sigs[*node_idx].clone(), *key, bytes));
        }
        out.sort();
        out
    }

    /// Installs one snapshotted partition on `node_idx`, replacing any
    /// existing partition for the same key. Returns `false` when the node
    /// is not an operator or the bytes do not parse.
    pub(crate) fn restore_partition(&self, node_idx: usize, key: u64, bytes: &[u8]) -> bool {
        let Some(node) = self.nodes.get(node_idx) else {
            return false;
        };
        let NodeKind::Operator(op) = &node.kind else {
            return false;
        };
        let Some(st) = op.restore_state(bytes) else {
            return false;
        };
        self.state.lock().parts.insert((node_idx, key), st);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::params;
    use crate::operator::CmpOp;
    use crate::operators::{
        AndOp, Compare2Op, ContextFilter, CountOp, ExternalFilter, OutputOp, SeqOp,
    };
    use crate::producers::{context_event, external_event};
    use crate::spec::SpecBuilder;
    use cmi_core::context::ContextFieldChange;
    use cmi_core::ids::{ContextId, ProcessInstanceId, ProcessSchemaId};
    use cmi_core::time::Timestamp;
    use cmi_core::value::Value;

    const P: ProcessSchemaId = ProcessSchemaId(1);

    fn deadline_spec(id: u64) -> CompositeEventSpec {
        let mut b = SpecBuilder::new();
        let ctx = b.producer(Producer::Context);
        let op1 = b
            .operator(
                Arc::new(ContextFilter::new(P, "TaskForceContext", "TaskForceDeadline")),
                &[ctx],
            )
            .unwrap();
        let op2 = b
            .operator(
                Arc::new(ContextFilter::new(P, "InfoRequestContext", "RequestDeadline")),
                &[ctx],
            )
            .unwrap();
        let cmp = b
            .operator(Arc::new(Compare2Op::new(P, CmpOp::Le)), &[op1, op2])
            .unwrap();
        let out = b
            .operator(Arc::new(OutputOp::new(P, "deadline violation")), &[cmp])
            .unwrap();
        b.build(SpecId(id), "AS_InfoRequest", out).unwrap()
    }

    fn ctx_event(name: &str, field: &str, instance: u64, deadline_ms: u64) -> Event {
        context_event(&ContextFieldChange {
            time: Timestamp::from_millis(1),
            context_id: ContextId(1),
            context_name: name.into(),
            processes: vec![(P, ProcessInstanceId(instance))],
            field_name: field.into(),
            old_value: None,
            new_value: Value::Time(Timestamp::from_millis(deadline_ms)),
        })
    }

    #[test]
    fn end_to_end_deadline_violation_detection() {
        let mut engine = Engine::new();
        engine.add_spec(&deadline_spec(1));

        // Task force deadline at t=100h, request deadline at t=50h: fine.
        let d1 = engine.ingest(&ctx_event("TaskForceContext", "TaskForceDeadline", 9, 100));
        assert!(d1.is_empty());
        let d2 = engine.ingest(&ctx_event("InfoRequestContext", "RequestDeadline", 9, 50));
        assert!(d2.is_empty(), "100 <= 50 is false");
        // Leader moves the task force deadline to 40 < 50: violation.
        let d3 = engine.ingest(&ctx_event("TaskForceContext", "TaskForceDeadline", 9, 40));
        assert_eq!(d3.len(), 1);
        assert_eq!(d3[0].spec, SpecId(1));
        assert_eq!(
            d3[0].event.get_str(crate::operators::DESCRIPTION_PARAM),
            Some("deadline violation")
        );
        assert_eq!(d3[0].event.process_instance(), Some(ProcessInstanceId(9)));
    }

    #[test]
    fn per_instance_replication_isolates_instances() {
        let mut engine = Engine::new();
        engine.add_spec(&deadline_spec(1));
        // Instance 1 sees only a task force deadline; instance 2 only a
        // request deadline. Were state shared, the pair would fire.
        engine.ingest(&ctx_event("TaskForceContext", "TaskForceDeadline", 1, 10));
        let d = engine.ingest(&ctx_event("InfoRequestContext", "RequestDeadline", 2, 50));
        assert!(d.is_empty(), "events of different instances must not meet");
        // Completing instance 1's pair fires only instance 1.
        let d = engine.ingest(&ctx_event("InfoRequestContext", "RequestDeadline", 1, 50));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].event.process_instance(), Some(ProcessInstanceId(1)));
    }

    #[test]
    fn shared_sub_dags_are_merged() {
        let mut shared = Engine::new();
        shared.add_spec(&deadline_spec(1));
        shared.add_spec(&deadline_spec(2));
        // Producer + 2 filters + compare are shared; only Output differs? No:
        // Output fingerprints include the description, which is identical, so
        // with identical specs everything is shared and both roots coincide.
        let t = shared.topology();
        assert_eq!(t.nodes, 5, "second spec adds no nodes");
        assert_eq!(t.specs, 2);

        let mut dup = Engine::without_sharing();
        dup.add_spec(&deadline_spec(1));
        dup.add_spec(&deadline_spec(2));
        let t2 = dup.topology();
        assert_eq!(t2.nodes, 1 + 2 * 4, "producer shared, operators duplicated");
    }

    #[test]
    fn shared_root_fires_all_registered_specs() {
        let mut engine = Engine::new();
        engine.add_spec(&deadline_spec(1));
        engine.add_spec(&deadline_spec(2));
        engine.ingest(&ctx_event("TaskForceContext", "TaskForceDeadline", 9, 40));
        let d = engine.ingest(&ctx_event("InfoRequestContext", "RequestDeadline", 9, 50));
        assert_eq!(d.len(), 2);
        let specs: Vec<u64> = d.iter().map(|x| x.spec.raw()).collect();
        assert_eq!(specs, vec![1, 2]);
    }

    #[test]
    fn count_pipeline_and_stats() {
        let mut b = SpecBuilder::new();
        let ctx = b.producer(Producer::Context);
        let f = b
            .operator(Arc::new(ContextFilter::new(P, "C", "f")), &[ctx])
            .unwrap();
        let c = b.operator(Arc::new(CountOp::new(P)), &[f]).unwrap();
        let out = b
            .operator(Arc::new(OutputOp::new(P, "count")), &[c])
            .unwrap();
        let spec = b.build(SpecId(3), "count", out).unwrap();
        let mut engine = Engine::new();
        engine.add_spec(&spec);

        for i in 0..3 {
            let d = engine.ingest(&ctx_event("C", "f", 7, i));
            assert_eq!(d.len(), 1);
            assert_eq!(d[0].event.get_int(params::INT_INFO), Some(i as i64 + 1));
        }
        let s = engine.stats();
        assert_eq!(s.events_ingested, 3);
        assert_eq!(s.detections, 3);
        assert!(s.operator_invocations >= 9);
    }

    #[test]
    fn events_with_no_leaf_are_ignored() {
        let mut engine = Engine::new();
        engine.add_spec(&deadline_spec(1));
        let e = Event::new(EventType::External("news".into()), Timestamp::EPOCH);
        assert!(engine.ingest(&e).is_empty());
        assert_eq!(engine.stats().events_ingested, 1);
    }

    #[test]
    fn describe_renders_merged_dag() {
        let mut engine = Engine::new();
        engine.add_spec(&deadline_spec(1));
        let out = engine.describe();
        assert!(out.contains("Context Event"));
        assert!(out.contains("Compare2[as1, <=]"));
        assert!(out.contains("(root of sp1)"));
    }

    #[test]
    fn tracing_records_operator_lineage_for_detections() {
        let mut engine = Engine::new();
        engine.add_spec(&deadline_spec(1));
        let obs = Arc::new(cmi_obs::ObsRegistry::new());
        engine.set_obs(Arc::clone(&obs));

        engine.ingest(&ctx_event("TaskForceContext", "TaskForceDeadline", 9, 40));
        let d = engine.ingest(&ctx_event("InfoRequestContext", "RequestDeadline", 9, 50));
        assert_eq!(d.len(), 1);
        let trace_id = d[0].trace.expect("detection carries a trace id");
        let tr = obs.tracer().get(trace_id).unwrap();
        assert_eq!(tr.spec, 1);
        assert_eq!(tr.instance, Some(9));
        assert!(tr.primitive.contains("T_context"));
        // The second ingest walks both filters (one absorbs, one emits),
        // then Compare2 and Output fire through to the root.
        let kinds: Vec<&str> = tr.steps.iter().map(|s| s.op.as_str()).collect();
        assert!(kinds.contains(&"Compare2"), "kinds: {kinds:?}");
        assert!(kinds.contains(&"Output"), "kinds: {kinds:?}");
        assert!(tr.steps.iter().any(|s| !s.emitted), "one filter absorbed");
        // Per-operator_kind counters were published under sanitized labels.
        let snap = obs.snapshot();
        assert!(
            snap.counter("cmi_engine_operator_invocations{operator_kind=\"Compare2\"}")
                .unwrap_or(0)
                >= 1
        );
    }

    #[test]
    fn noop_obs_yields_untraced_detections() {
        let mut engine = Engine::new();
        engine.add_spec(&deadline_spec(1));
        engine.set_obs(Arc::new(cmi_obs::ObsRegistry::noop()));
        engine.ingest(&ctx_event("TaskForceContext", "TaskForceDeadline", 9, 40));
        let d = engine.ingest(&ctx_event("InfoRequestContext", "RequestDeadline", 9, 50));
        assert_eq!(d.len(), 1);
        assert!(d[0].trace.is_none());
    }

    #[test]
    fn evict_instance_drops_traces_with_state() {
        let mut engine = Engine::new();
        engine.add_spec(&deadline_spec(1));
        let obs = Arc::new(cmi_obs::ObsRegistry::new());
        engine.set_obs(Arc::clone(&obs));
        engine.ingest(&ctx_event("TaskForceContext", "TaskForceDeadline", 9, 40));
        let d = engine.ingest(&ctx_event("InfoRequestContext", "RequestDeadline", 9, 50));
        let trace_id = d[0].trace.unwrap();
        engine.evict_instance(9);
        assert!(obs.tracer().get(trace_id).is_none());
    }

    fn ext_event(source: &str, instance: u64, ms: u64) -> Event {
        external_event(
            source,
            Timestamp::from_millis(ms),
            [("inst".to_owned(), Value::Id(instance))],
        )
    }

    fn ext_filter(source: &str) -> Arc<ExternalFilter> {
        Arc::new(ExternalFilter::new(P, source, Some("inst")))
    }

    /// `seq(a, b)` (spec 1) and, with `and`, `and(a, b)` (spec 2) over the
    /// external sources `a` and `b`, sharing both filters.
    fn seq_and_engine(with_and: bool) -> (Engine, Arc<cmi_obs::ObsRegistry>) {
        let spec = |id: u64, root: Arc<dyn EventOperator>| {
            let mut b = SpecBuilder::new();
            let pa = b.producer(Producer::External("a".into()));
            let fa = b.operator(ext_filter("a"), &[pa]).unwrap();
            let pb = b.producer(Producer::External("b".into()));
            let fb = b.operator(ext_filter("b"), &[pb]).unwrap();
            let r = b.operator(root, &[fa, fb]).unwrap();
            b.build(SpecId(id), "pair", r).unwrap()
        };
        let mut engine = Engine::new();
        engine.add_spec(&spec(1, Arc::new(SeqOp::new(P, 2, 1))));
        if with_and {
            engine.add_spec(&spec(2, Arc::new(AndOp::new(P, 2, 1))));
        }
        let obs = Arc::new(cmi_obs::ObsRegistry::new());
        engine.set_obs(Arc::clone(&obs));
        (engine, obs)
    }

    /// What `ext_filter(source)` emits for `event`: the input the operator
    /// downstream of the filter consumes.
    fn filtered(source: &str, event: &Event) -> Event {
        let mut out = Vec::new();
        ext_filter(source).apply(0, event, &mut (Box::new(()) as OpState), &mut out);
        out.pop().expect("the filter passes its own source")
    }

    fn step_view(tr: &cmi_obs::DetectionTrace) -> Vec<(usize, &str, &str, bool)> {
        tr.steps
            .iter()
            .map(|s| (s.node, s.op.as_str(), s.input.as_str(), s.emitted))
            .collect()
    }

    #[test]
    fn kept_trace_renders_primitive_and_steps_exactly() {
        let (engine, obs) = seq_and_engine(false);
        let first = ext_event("a", 9, 1);
        assert!(
            engine.ingest(&first).is_empty(),
            "seq absorbs its first half"
        );
        let second = ext_event("b", 9, 2);
        let d = engine.ingest(&second);
        assert_eq!(d.len(), 1);
        let tr = obs.tracer().get(d[0].trace.unwrap()).unwrap();
        assert_eq!(tr.primitive, second.to_string());
        // Nodes: 0 leaf a, 1 filter a, 2 leaf b, 3 filter b, 4 seq.
        let input = second.to_string();
        let canon = filtered("b", &second).to_string();
        assert_eq!(
            step_view(&tr),
            vec![
                (3, "Filter_ext", input.as_str(), true),
                (4, "Seq", canon.as_str(), true)
            ]
        );
    }

    #[test]
    fn one_ingest_firing_two_specs_keeps_two_nested_traces() {
        let (engine, obs) = seq_and_engine(true);
        engine.ingest(&ext_event("a", 9, 1));
        let second = ext_event("b", 9, 2);
        let d = engine.ingest(&second);
        let specs: Vec<u64> = d.iter().map(|x| x.spec.raw()).collect();
        assert_eq!(specs, vec![1, 2]);
        let (t1, t2) = (d[0].trace.unwrap(), d[1].trace.unwrap());
        assert_ne!(t1, t2, "each detection gets its own trace id");
        let (tr1, tr2) = (obs.tracer().get(t1).unwrap(), obs.tracer().get(t2).unwrap());
        assert_eq!(tr1.primitive, second.to_string());
        assert_eq!(tr2.primitive, second.to_string());
        assert!(tr1.steps.len() < tr2.steps.len());
        assert_eq!(step_view(&tr1), step_view(&tr2)[..tr1.steps.len()]);
        let canon = filtered("b", &second).to_string();
        assert_eq!(
            step_view(&tr2)[tr1.steps.len()..],
            [(5, "And", canon.as_str(), true)]
        );
    }

    #[test]
    fn multi_shard_context_event_claims_the_carrier_once() {
        let mut b = SpecBuilder::new();
        let ctx = b.producer(Producer::Context);
        let f = b
            .operator(Arc::new(ContextFilter::new(P, "C", "f")), &[ctx])
            .unwrap();
        let spec = b.build(SpecId(1), "ctx", f).unwrap();
        let mut sharded = crate::sharded::ShardedEngine::new(2);
        sharded.add_spec(&spec);
        let obs = Arc::new(cmi_obs::ObsRegistry::new());
        sharded.set_obs(Arc::clone(&obs));
        // Two instances owned by different shards.
        let i1 = 1;
        let i2 = (2..64)
            .find(|&i| sharded.shard_of_raw(i) != sharded.shard_of_raw(i1))
            .unwrap();
        let event = context_event(&ContextFieldChange {
            time: Timestamp::from_millis(1),
            context_id: ContextId(1),
            context_name: "C".into(),
            processes: vec![(P, ProcessInstanceId(i1)), (P, ProcessInstanceId(i2))],
            field_name: "f".into(),
            old_value: None,
            new_value: Value::Int(3),
        });
        assert_eq!(sharded.shards_for(&event).len(), 2);
        let carrier = 0x55;
        obs.tracer()
            .open_segment(carrier, cmi_obs::TraceHop::Owner, "wire", None);
        let d = sharded.ingest_traced(&event, Some(carrier));
        assert_eq!(d.len(), 2);
        let ids: Vec<u64> = d.iter().map(|x| x.trace.unwrap()).collect();
        assert_eq!(ids.iter().filter(|&&id| id == carrier).count(), 1);
        for id in ids {
            let tr = obs.tracer().get(id).unwrap();
            assert_eq!(tr.primitive, event.to_string());
            assert_eq!(tr.steps.len(), 1);
            let hop = if id == carrier {
                cmi_obs::TraceHop::Owner
            } else {
                cmi_obs::TraceHop::Local
            };
            assert_eq!(tr.hop, hop);
        }
    }

    #[test]
    fn evict_instance_drops_partitions() {
        let mut engine = Engine::new();
        engine.add_spec(&deadline_spec(1));
        engine.ingest(&ctx_event("TaskForceContext", "TaskForceDeadline", 5, 10));
        engine.ingest(&ctx_event("TaskForceContext", "TaskForceDeadline", 6, 10));
        assert_eq!(engine.topology().state_partitions, 2);
        assert_eq!(engine.evict_instance(5), 1);
        assert_eq!(engine.topology().state_partitions, 1);
    }

    #[test]
    fn export_import_migrates_half_fired_pattern() {
        // First half of the Compare2 pair on the "old owner"...
        let mut old_owner = Engine::new();
        old_owner.add_spec(&deadline_spec(1));
        old_owner.ingest(&ctx_event("TaskForceContext", "TaskForceDeadline", 9, 40));
        let parts = old_owner.export_instance(9);
        assert!(!parts.is_empty());
        old_owner.evict_instance(9);

        // ...restored on a structurally identical "new owner": the second
        // half completes the detection exactly as on a single node.
        let mut new_owner = Engine::new();
        new_owner.add_spec(&deadline_spec(1));
        assert_eq!(new_owner.import_instance(9, &parts), parts.len());
        let d = new_owner.ingest(&ctx_event("InfoRequestContext", "RequestDeadline", 9, 50));
        assert_eq!(d.len(), 1, "40 <= 50 fires on the new owner");
        assert_eq!(d[0].event.process_instance(), Some(ProcessInstanceId(9)));
    }

    #[test]
    fn import_rejects_mismatched_fingerprints_and_bytes() {
        let mut engine = Engine::new();
        engine.add_spec(&deadline_spec(1));
        let mut donor = Engine::new();
        donor.add_spec(&deadline_spec(1));
        donor.ingest(&ctx_event("TaskForceContext", "TaskForceDeadline", 9, 40));
        let parts = donor.export_instance(9);

        let bad_fp: Vec<_> = parts
            .iter()
            .map(|(n, _, b)| (*n, "not-this-operator".to_string(), b.clone()))
            .collect();
        assert_eq!(engine.import_instance(9, &bad_fp), 0);

        let bad_bytes: Vec<_> = parts
            .iter()
            .map(|(n, f, _)| (*n, f.clone(), vec![0xFFu8; 3]))
            .collect();
        assert_eq!(engine.import_instance(9, &bad_bytes), 0);
        assert_eq!(engine.topology().state_partitions, 0);
    }

    #[test]
    fn export_skips_other_instances() {
        let mut engine = Engine::new();
        engine.add_spec(&deadline_spec(1));
        engine.ingest(&ctx_event("TaskForceContext", "TaskForceDeadline", 5, 10));
        engine.ingest(&ctx_event("TaskForceContext", "TaskForceDeadline", 6, 10));
        let parts = engine.export_instance(5);
        assert_eq!(parts.len(), 1, "only instance 5's Compare2 partition");
        assert!(engine.export_instance(999).is_empty());
    }
}
