//! Per-layer metrics of a traced run (layer = crate, prefix = crate name
//! without `cmi-`). Everything here is measured from outside: by timing the
//! harness's own calls into public functions — the recorded spans, the
//! successively thicker *slices* of the public surface replayed on the same
//! stream, a few direct probes — and by reading counters the crates already
//! publish. `README.md` says which end-to-end metric each should move.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cmi::awareness::engine::AwarenessEngine;
use cmi::awareness::queue::{DeliveryQueue, Notification, Priority};
use cmi::core::context::ContextFieldChange;
use cmi::core::ids::{AwarenessSchemaId, ProcessInstanceId, ProcessSchemaId, UserId};
use cmi::core::instance::ActivityStateChange;
use cmi::core::roles::RoleSpec;
use cmi::core::time::Timestamp;
use cmi::core::value::Value;
use cmi::events::event::Event;
use cmi::events::producers;
use cmi::events::sharded::ShardedEngine;
use cmi::mine::{MineKind, MineLog, MineRecord};
use cmi::net::codec::{encode_frame, FrameKind};
use cmi::net::wire::{decode_push, encode_push, Request};
use cmi::obs::{MetricsSnapshot, ObsRegistry};
use cmi::workloads::taskforce::AS_INFO_REQUEST_DSL;

use crate::alloc;
use crate::drive::{run_phase, Digest, Injector, Rig, Shape, Stop};
use crate::gen::{stream_hash, Generator, Input, Workload, FED_INSTANCES};
use crate::run::{Built, Metric, Plan};
use crate::span::{SpanLog, Trace, NO_PARENT};
use crate::stack::{self, SessionKind, SetupParts};
use crate::stats;
use crate::workloads::EnactInjector;

/// Every per-layer metric, in print order. A traced run prints all of them
/// on every workload; one a workload's path bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("events.ingest_ns", "ns"),
    ("events.ingest_p99_ns", "ns"),
    ("events.in", "count"),
    ("events.detections", "count"),
    ("events.detect_ratio", "ratio"),
    ("events.op_invocations_per_event", "count"),
    ("events.allocs_per_event", "count"),
    ("events.shard_skew", "ratio"),
    ("events.state_instances", "count"),
    ("events.export_instance_ns", "ns"),
    ("awareness.ingest_ns", "ns"),
    ("awareness.self_ns", "ns"),
    ("awareness.notifications", "count"),
    ("awareness.fanout_mean", "count"),
    ("awareness.unresolved_roles", "count"),
    ("awareness.resolve_ns", "ns"),
    ("awareness.queue_enqueue_ns", "ns"),
    ("awareness.queue_fetch_ns", "ns"),
    ("awareness.queue_ack_ns", "ns"),
    ("awareness.wal_enqueue_ns", "ns"),
    ("awareness.wal_bytes_per_note", "B"),
    ("awareness.queue_depth_max", "count"),
    ("awareness.dsl_compile_ms", "ms"),
    ("awareness.allocs_per_event", "count"),
    ("core.dir_provision_s", "s"),
    ("core.dir_mutation_ns", "ns"),
    ("core.snapshot_rebuilds", "count"),
    ("core.context_set_field_ns", "ns"),
    ("core.store_instances", "count"),
    ("coord.start_process_ns", "ns"),
    ("coord.start_activity_ns", "ns"),
    ("coord.complete_activity_ns", "ns"),
    ("coord.worklist_for_user_ns", "ns"),
    ("coord.calls", "count"),
    ("coord.errors", "count"),
    ("net.request_rtt_ns", "ns"),
    ("net.ingest_rtt_ns", "ns"),
    ("net.encode_push_ns", "ns"),
    ("net.decode_push_ns", "ns"),
    ("net.encode_request_ns", "ns"),
    ("net.frame_bytes_per_push", "B"),
    ("net.frame_bytes_per_ingest", "B"),
    ("net.frames_in", "count"),
    ("net.frames_out", "count"),
    ("net.frames_per_event", "count"),
    ("net.pushes", "count"),
    ("net.acked", "count"),
    ("net.slow_consumer_parks", "count"),
    ("net.protocol_errors", "count"),
    ("net.client_reconnects", "count"),
    ("net.client_dup_dropped", "count"),
    ("net.self_ns", "ns"),
    ("fed.submit_ns", "ns"),
    ("fed.settle_ns", "ns"),
    ("fed.forwarded_share", "ratio"),
    ("fed.forwards", "count"),
    ("fed.forward_rtt_ns", "ns"),
    ("fed.notes_routed", "count"),
    ("fed.replays", "count"),
    ("fed.dup_dropped", "count"),
    ("fed.reconnects", "count"),
    ("fed.owner_skew", "ratio"),
    ("fed.self_ns", "ns"),
    ("obs.ingest_overhead_frac", "ratio"),
    ("obs.scrape_ms", "ms"),
    ("mine.append_ns", "ns"),
    ("mine.records", "count"),
    ("mine.dropped", "count"),
    ("mine.export_xes_ms", "ms"),
    ("mine.ingest_overhead_frac", "ratio"),
    ("gen.late_p99_us", "us"),
    ("gen.notify_p90_us", "us"),
    ("gen.notify_p99_us", "us"),
    ("gen.make_event_ns", "ns"),
    ("gen.stream_hash", "count"),
    ("gen.trace_overhead_frac", "ratio"),
    ("gen.budget_residual_frac", "ratio"),
    ("gen.depth1_event_ns", "ns"),
    ("gen.dominant_share_frac", "ratio"),
];

/// Inputs the in-process slices (S0–S2) replay.
const SLICE_N: usize = 20_000;
/// Inputs the session and federation slices (S3, S4) replay, and the
/// depth-1 closed loop on the real stack.
const NET_N: usize = 4_000;
/// Cases the `enact_lifecycle` probes replay.
const ENACT_N: usize = 2_000;
/// Repetitions of a direct probe.
const PROBE_N: usize = 2_000;

/// What [`collect`] works from.
pub struct LayerInputs<'a> {
    pub plan: Plan,
    pub built: &'a Built,
    pub parts: SetupParts,
    pub issuer_log: &'a SpanLog,
    pub receiver_log: &'a SpanLog,
    pub trace: &'a Trace,
    /// Ingest calls that returned `Err`, over every phase.
    pub errors: u64,
    /// Largest pending-notification count the depth probe saw.
    pub queue_depth_max: u64,
    /// `sat` rate lost to tracing (traced vs untraced phases).
    pub trace_overhead_frac: f64,
    pub late_p99_us: f64,
    pub notify_p90_us: f64,
    pub notify_p99_us: f64,
    pub gen: &'a mut Generator,
    pub digest: &'a mut Digest,
}

struct Bag(BTreeMap<&'static str, f64>);

impl Bag {
    fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.0.insert(name, v);
    }
}

/// Times `f` `n` times, one sample per call.
fn time_each(n: usize, mut f: impl FnMut(usize)) -> Vec<u64> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let t = Instant::now();
        f(i);
        out.push(t.elapsed().as_nanos() as u64);
    }
    out
}

/// Whether `series` is `family` itself or one of its labelled series
/// (`family{…}`).
fn in_family(series: &str, family: &str) -> bool {
    series
        .strip_prefix(family)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
}

/// Sum of a counter family over snapshots.
fn family(snaps: &[MetricsSnapshot], name: &str) -> f64 {
    snaps
        .iter()
        .flat_map(|s| s.counters.iter())
        .filter(|(k, _)| in_family(k, name))
        .map(|(_, v)| *v as f64)
        .sum()
}

fn gauge_family(snaps: &[MetricsSnapshot], name: &str) -> f64 {
    snaps
        .iter()
        .flat_map(|s| s.gauges.iter())
        .filter(|(k, _)| in_family(k, name))
        .map(|(_, v)| *v as f64)
        .sum()
}

/// Mean of a histogram family over snapshots.
fn histogram_mean(snaps: &[MetricsSnapshot], name: &str) -> f64 {
    let (sum, count) = snaps
        .iter()
        .flat_map(|s| s.histograms.iter())
        .filter(|(k, _)| in_family(k, name))
        .fold((0u64, 0u64), |(s, c), (_, h)| (s + h.sum, c + h.count));
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    }
}

/// What `CmiServer::external_event_at` builds from an input — done inside
/// the timed region of every slice, as it is on the real path.
fn to_event(input: Input) -> Event {
    producers::external_event(
        input.source,
        Timestamp::from_millis(input.time_ms),
        input.fields,
    )
}

/// S0: one `ShardedEngine::ingest` call per event.
fn slice_detector(
    det: &ShardedEngine,
    n: usize,
    mut next: impl FnMut() -> Event,
) -> (Vec<u64>, f64) {
    let (samples, allocs) = alloc::count(|| {
        time_each(n, |_| {
            std::hint::black_box(det.ingest(&next()));
        })
    });
    (samples, allocs as f64 / n.max(1) as f64)
}

/// S1: one `AwarenessEngine::ingest` call per event (detector + delivery
/// agent + queue enqueue); notifications stay queued.
fn slice_awareness(engine: &AwarenessEngine, inputs: Vec<Input>) -> (Vec<u64>, f64) {
    let n = inputs.len();
    let mut it = inputs.into_iter();
    let (samples, allocs) = alloc::count(|| {
        time_each(n, |_| {
            let e = to_event(it.next().expect("one input per sample"));
            std::hint::black_box(engine.ingest(&e));
        })
    });
    (samples, allocs as f64 / n.max(1) as f64)
}

/// S2: S1 plus every recipient fetching and acknowledging what the event
/// produced. Returns the per-event time.
fn slice_queue(engine: &AwarenessEngine, recipients: &[UserId], inputs: Vec<Input>) -> f64 {
    let queue = engine.queue();
    let n = inputs.len();
    let t = Instant::now();
    for input in inputs {
        if engine.ingest(&to_event(input)).is_empty() {
            continue;
        }
        for &u in recipients {
            let batch = queue.fetch(u, 64);
            if !batch.is_empty() {
                let seqs: Vec<u64> = batch.iter().map(|n| n.seq).collect();
                queue.ack_exact(u, &seqs).expect("ack_exact");
            }
        }
    }
    t.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// S3: one session — a synchronous `Connection::external_event`, then the
/// subscribed viewer's `recv` of what it produced. Per-event time.
fn slice_session(st: &stack::Session, inputs: &[Input]) -> std::io::Result<f64> {
    let viewer = st.viewer.viewer();
    let t = Instant::now();
    for input in inputs {
        let k = st
            .driver
            .external_event(input.source, input.fields.clone())?;
        for _ in 0..k {
            viewer
                .recv(Duration::from_secs(5))
                .ok_or_else(|| std::io::Error::other("session slice: push never arrived"))?;
        }
    }
    Ok(t.elapsed().as_nanos() as f64 / inputs.len().max(1) as f64)
}

/// S4: S3's session plus one federation hop — ingest at another node than
/// the subscriber's, most instances owned by a third.
fn slice_fed(st: &stack::Fed, inputs: &[Input]) -> std::io::Result<f64> {
    let node = st.cluster.node(stack::FED_INGRESS);
    let viewer = st.viewer.viewer();
    let t = Instant::now();
    for input in inputs {
        let k = node
            .external_event(input.source, input.fields.clone())
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        for _ in 0..k {
            viewer
                .recv(Duration::from_secs(5))
                .ok_or_else(|| std::io::Error::other("fed slice: routed push never arrived"))?;
        }
    }
    Ok(t.elapsed().as_nanos() as f64 / inputs.len().max(1) as f64)
}

fn probe_note(user: UserId, i: usize) -> Notification {
    Notification {
        seq: 0,
        user,
        time: Timestamp::from_millis(i as u64),
        schema: AwarenessSchemaId(1),
        schema_name: "AS_Hit".into(),
        description: "sensor hit".into(),
        process_schema: ProcessSchemaId(1),
        process_instance: ProcessInstanceId(1 + i as u64 % 256),
        int_info: Some(i as i64),
        str_info: None,
        priority: Priority::Normal,
    }
}

/// Direct probes of one delivery queue at depth 1 — enqueue one, fetch it,
/// acknowledge it (ns per call).
fn probe_queue(queue: &DeliveryQueue) -> (f64, f64, f64) {
    let user = UserId(1);
    let (mut enq, mut fetch, mut ack) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..PROBE_N {
        let t = Instant::now();
        queue.enqueue(probe_note(user, i)).expect("enqueue");
        enq.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        let batch = queue.fetch(user, 1);
        fetch.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        queue.ack_exact(user, &[batch[0].seq]).expect("ack_exact");
        ack.push(t.elapsed().as_nanos() as u64);
    }
    (stats::mean(&enq), stats::mean(&fetch), stats::mean(&ack))
}

/// Collects every per-layer metric of a traced run.
pub fn collect(inp: LayerInputs<'_>) -> std::io::Result<Vec<Metric>> {
    let workload = inp.plan.workload;
    let seed = inp.plan.seed;
    let mut bag = Bag(BTreeMap::new());
    let spans = |name: &str| {
        let a = inp.issuer_log.total(name);
        let b = inp.receiver_log.total(name);
        (a.count + b.count, a.total_ns + b.total_ns)
    };
    let span_mean = |name: &str| {
        let (c, t) = spans(name);
        if c == 0 {
            0.0
        } else {
            t as f64 / c as f64
        }
    };

    // ---- the harness itself ----
    bag.set("gen.late_p99_us", inp.late_p99_us);
    bag.set("gen.notify_p90_us", inp.notify_p90_us);
    bag.set("gen.notify_p99_us", inp.notify_p99_us);
    // 52 bits: exact in the f64 a JSON number is read into
    bag.set(
        "gen.stream_hash",
        (stream_hash(workload, seed, SLICE_N as u64) & ((1 << 52) - 1)) as f64,
    );
    let mut slice_gen = Generator::new(workload, seed);
    let t = Instant::now();
    let inputs: Vec<Input> = (0..SLICE_N).map(|_| slice_gen.next_input()).collect();
    bag.set(
        "gen.make_event_ns",
        t.elapsed().as_nanos() as f64 / SLICE_N as f64,
    );
    bag.set("gen.trace_overhead_frac", inp.trace_overhead_frac);

    // ---- depth-1 closed loop on the real stack: the per-event time the
    // slice self times are shares of ----
    let d1_n = if workload == Workload::EnactLifecycle {
        ENACT_N
    } else {
        NET_N
    } as u64;
    let mut off_a = SpanLog::new(false, Instant::now(), NO_PARENT);
    let mut off_b = SpanLog::new(false, Instant::now(), NO_PARENT);
    let d1 = inp.built.drive(1, |inj, rcv, marker| {
        let mut rig = Rig {
            injector: inj,
            receiver: rcv,
            marker,
            issuer_log: &mut off_a,
            receiver_log: &mut off_b,
            depth_probe: None,
            digest: &mut *inp.digest,
        };
        run_phase(
            &mut rig,
            &mut *inp.gen,
            Shape::Closed {
                window: 1,
                stop: Stop::Count(d1_n),
            },
        )
    });
    let d1_ns = d1.issue_elapsed.as_nanos() as f64 / d1.issued.max(1) as f64;
    bag.set("gen.depth1_event_ns", d1_ns);

    // ---- counters the crates publish, read off the real stack ----
    let snaps = inp.built.snapshots();
    let issued_total = inp.gen.clone().next_input().idx as f64;
    let detections = family(&snaps, "cmi_delivery_detections");
    let notifications = family(&snaps, "cmi_delivery_notifications");
    bag.set("awareness.notifications", notifications);
    bag.set(
        "awareness.fanout_mean",
        if detections > 0.0 {
            notifications / detections
        } else {
            0.0
        },
    );
    bag.set(
        "awareness.unresolved_roles",
        family(&snaps, "cmi_delivery_unresolved_roles"),
    );
    bag.set("awareness.queue_depth_max", inp.queue_depth_max as f64);
    bag.set("awareness.dsl_compile_ms", inp.parts.dsl_compile_ms);
    bag.set("core.dir_provision_s", inp.parts.dir_provision_s);
    bag.set(
        "core.snapshot_rebuilds",
        gauge_family(&snaps, "cmi_dir_snapshot_rebuilds"),
    );
    let cmis = inp.built.cmis();
    bag.set(
        "core.store_instances",
        cmis.iter().map(|c| c.store().instance_count() as f64).sum(),
    );
    let frames_in = family(&snaps, "cmi_net_frames_in");
    let frames_out = family(&snaps, "cmi_net_frames_out");
    bag.set("net.frames_in", frames_in);
    bag.set("net.frames_out", frames_out);
    bag.set(
        "net.frames_per_event",
        (frames_in + frames_out) / issued_total.max(1.0),
    );
    bag.set("net.pushes", family(&snaps, "cmi_net_pushes"));
    bag.set("net.acked", family(&snaps, "cmi_net_acked"));
    bag.set(
        "net.slow_consumer_parks",
        family(&snaps, "cmi_net_slow_consumer_parks"),
    );
    bag.set(
        "net.protocol_errors",
        family(&snaps, "cmi_net_protocol_errors"),
    );
    let t = Instant::now();
    for c in &cmis {
        std::hint::black_box(c.obs().render_prometheus());
    }
    bag.set("obs.scrape_ms", t.elapsed().as_secs_f64() * 1e3);

    // ---- direct probes on the real stack ----
    let (role, member) = match inp.built {
        Built::Enact(st, _) => ("epidemiologist", st.leaders[0]),
        _ => (
            "staff",
            cmis[0].directory().user_by_name("driver").expect("driver"),
        ),
    };
    let spec = RoleSpec::org(if workload == Workload::EnactLifecycle {
        role
    } else {
        "watch"
    });
    let resolver = cmis[0].awareness().resolver();
    let resolve = time_each(PROBE_N, |_| {
        std::hint::black_box(resolver.resolve(&spec, ProcessInstanceId(1)));
    });
    bag.set("awareness.resolve_ns", stats::mean(&resolve));
    let dir = cmis[0].directory();
    let role_id = dir.role_by_name(role).expect("probe role");
    let mutate = time_each(PROBE_N / 4, |_| {
        dir.assign(member, role_id).expect("assign");
        dir.unassign(member, role_id).expect("unassign");
    });
    bag.set("core.dir_mutation_ns", stats::mean(&mutate) / 2.0);
    let (enq, fetch, ack) = probe_queue(&DeliveryQueue::in_memory());
    bag.set("awareness.queue_enqueue_ns", enq);
    bag.set("awareness.queue_fetch_ns", fetch);
    bag.set("awareness.queue_ack_ns", ack);

    // wire codec, through the public encoders
    let note = probe_note(UserId(1), 7);
    let push = time_each(PROBE_N, |_| {
        std::hint::black_box(encode_frame(FrameKind::Push, &encode_push(&note)));
    });
    let push_bytes = encode_push(&note);
    let unpush = time_each(PROBE_N, |_| {
        std::hint::black_box(decode_push(&push_bytes).expect("decode_push"));
    });
    let request = Request::ExternalEvent {
        source: inputs[0].source.to_owned(),
        fields: inputs[0].fields.clone(),
    };
    let req = time_each(PROBE_N, |_| {
        std::hint::black_box(encode_frame(FrameKind::Request, &request.encode()));
    });
    bag.set("net.encode_push_ns", stats::mean(&push));
    bag.set("net.decode_push_ns", stats::mean(&unpush));
    bag.set("net.encode_request_ns", stats::mean(&req));
    bag.set(
        "net.frame_bytes_per_push",
        encode_frame(FrameKind::Push, &push_bytes).len() as f64,
    );
    bag.set(
        "net.frame_bytes_per_ingest",
        encode_frame(FrameKind::Request, &request.encode()).len() as f64,
    );

    // ---- slices and per-workload probes ----
    let net_inputs = &inputs[..NET_N];
    let dominant = match inp.built {
        Built::Enact(st, _) => {
            // the primitive events here come from coordination and context
            // state changes: capture them from a replay, then run S0 on them
            let (probe, _) = stack::enact(false);
            let captured: Arc<Mutex<Vec<Event>>> = Arc::default();
            let (c1, c2) = (captured.clone(), captured.clone());
            probe
                .cmi
                .store()
                .subscribe(Arc::new(move |ch: &ActivityStateChange| {
                    c1.lock()
                        .expect("capture")
                        .push(producers::activity_event(ch));
                }));
            probe
                .cmi
                .contexts()
                .subscribe(Arc::new(move |ch: &ContextFieldChange| {
                    c2.lock()
                        .expect("capture")
                        .push(producers::context_event(ch));
                }));
            let mut off = SpanLog::new(false, Instant::now(), NO_PARENT);
            let mut replay = |st: &stack::Enact| -> std::io::Result<f64> {
                let mut inj = EnactInjector { stack: st };
                let t = Instant::now();
                for input in &inputs[..ENACT_N] {
                    inj.issue(input.clone(), &mut off, &mut |_, _| {})
                        .map_err(std::io::Error::other)?;
                }
                Ok(t.elapsed().as_nanos() as f64 / ENACT_N as f64)
            };
            replay(&probe)?;
            let mut next = 1u64;
            let schemas =
                cmi::awareness::dsl::parse(AS_INFO_REQUEST_DSL, probe.cmi.repository(), &mut next)
                    .expect("AS_InfoRequest parses");
            let primitives = std::mem::take(&mut *captured.lock().expect("capture"));
            let det = stack::bare_detector(&schemas, 1);
            let n = primitives.len();
            let mut it = primitives.into_iter();
            let (s0, s0_allocs) =
                slice_detector(&det, n, || it.next().expect("one event per sample"));
            set_events(&mut bag, &det, &s0, s0_allocs);

            // the mining log's share: the same cases on fresh servers with
            // and without the log attached
            let without_mine = replay(&stack::enact(false).0)?;
            let with_mine = replay(&stack::enact(true).0)?;
            bag.set(
                "mine.ingest_overhead_frac",
                (with_mine - without_mine) / with_mine,
            );
            if let Some(log) = &st.mine {
                bag.set("mine.records", log.appended() as f64);
                bag.set("mine.dropped", log.dropped() as f64);
                let t = Instant::now();
                std::hint::black_box(log.export_xes());
                bag.set("mine.export_xes_ms", t.elapsed().as_secs_f64() * 1e3);
            }
            let scratch = MineLog::new(stack::MINE_CAPACITY);
            let append = time_each(PROBE_N, |i| {
                scratch.append(MineRecord {
                    seq: 0,
                    case: Some(i as u64 % 64),
                    time_ms: i as u64,
                    node: 0,
                    trace: None,
                    kind: MineKind::External {
                        source: "case".into(),
                        fields: vec![("n".to_owned(), Value::Int(i as i64))],
                    },
                });
            });
            bag.set("mine.append_ns", stats::mean(&append));

            bag.set("core.context_set_field_ns", span_mean("core.set_field"));
            bag.set("coord.start_process_ns", span_mean("coord.start_process"));
            bag.set("coord.start_activity_ns", span_mean("coord.start_activity"));
            bag.set(
                "coord.complete_activity_ns",
                span_mean("coord.complete_activity"),
            );
            let worklist = st.cmi.worklist();
            // a scan of the whole instance store: a few calls are enough
            let wl = time_each(20, |i| {
                std::hint::black_box(worklist.for_user(st.members[i % st.members.len()]).ok());
            });
            bag.set("coord.worklist_for_user_ns", stats::mean(&wl));
            let coord_calls: u64 = inp
                .issuer_log
                .totals()
                .iter()
                .filter(|(n, _)| n.starts_with("coord."))
                .map(|(_, t)| t.count)
                .sum();
            bag.set("coord.calls", coord_calls as f64);
            bag.set("coord.errors", inp.errors as f64);

            // shares by span self time over the recorded spans
            let self_by = inp.trace.self_by_name();
            let total: u64 = inp
                .trace
                .spans
                .iter()
                .filter(|s| s.name == "gen.event")
                .map(|s| s.end_ns - s.start_ns)
                .sum();
            let layer = |prefix: &str| -> u64 {
                self_by
                    .iter()
                    .filter(|(n, _)| n.starts_with(prefix))
                    .map(|(_, v)| *v)
                    .sum()
            };
            // what the case spent outside any layer's span
            bag.set(
                "gen.budget_residual_frac",
                self_by.get("gen.event").copied().unwrap_or(0) as f64 / total.max(1) as f64,
            );
            (layer("coord.") + layer("core.")) as f64 / total.max(1) as f64
        }
        _ => {
            let shards = if workload == Workload::DetectLocal {
                stack::SHARDS
            } else {
                1
            };
            let durable = workload == Workload::SessionPush;
            let bare = || stack::bare_awareness(workload, false, shards, ObsRegistry::new());

            let world = bare()?;
            let det = stack::bare_detector(&world.schemas, shards);
            let mut it = inputs.clone().into_iter();
            let (s0, s0_allocs) = slice_detector(&det, SLICE_N, || {
                to_event(it.next().expect("one input per sample"))
            });
            set_events(&mut bag, &det, &s0, s0_allocs);
            let s0_ns = stats::mean(&s0);

            let (s1, s1_allocs) = slice_awareness(&world.engine, inputs.clone());
            let s1_ns = stats::mean(&s1);
            bag.set("awareness.ingest_ns", s1_ns);
            bag.set("awareness.self_ns", s1_ns - s0_ns);
            bag.set("awareness.allocs_per_event", s1_allocs);
            drop(world);
            let quiet = stack::bare_awareness(workload, false, shards, ObsRegistry::noop())?;
            let (s1_noop, _) = slice_awareness(&quiet.engine, inputs.clone());
            bag.set(
                "obs.ingest_overhead_frac",
                (s1_ns - stats::mean(&s1_noop)) / s1_ns,
            );
            drop(quiet);

            let s2_world = stack::bare_awareness(workload, durable, shards, ObsRegistry::new())?;
            let s2_ns = slice_queue(&s2_world.engine, &s2_world.recipients, inputs.clone());
            if durable {
                let wal = s2_world.engine.queue();
                let before = wal.wal_bytes();
                let enq = time_each(PROBE_N, |i| {
                    wal.enqueue(probe_note(UserId(1), i)).expect("wal enqueue");
                });
                bag.set("awareness.wal_enqueue_ns", stats::mean(&enq));
                bag.set(
                    "awareness.wal_bytes_per_note",
                    (wal.wal_bytes() - before) as f64 / PROBE_N as f64,
                );
            }
            drop(s2_world);

            // (top slice, the share of the depth-1 per-event time the layers
            // this workload is meant to stress take)
            let (top_ns, dominant) = match inp.built {
                Built::Detect(..) => (s2_ns, s2_ns / d1_ns),
                Built::Session(st) => {
                    let (slice, _) = stack::session(SessionKind::TcpWal, workload)?;
                    let s3_ns = slice_session(&slice, net_inputs)?;
                    bag.set("net.self_ns", s3_ns - s2_ns);
                    bag.set("net.ingest_rtt_ns", span_mean("net.ingest_rtt"));
                    set_client(&mut bag, &[&st.driver, &st.viewer]);
                    (s3_ns, (s3_ns - s1_ns) / d1_ns)
                }
                Built::Fed(st) => {
                    let (slice, _) = stack::session(SessionKind::LoopbackMem, workload)?;
                    let s3_ns = slice_session(&slice, net_inputs)?;
                    drop(slice);
                    let (hop, _) = stack::fed()?;
                    let s4_ns = slice_fed(&hop, net_inputs)?;
                    drop(hop);
                    bag.set("net.self_ns", s3_ns - s2_ns);
                    bag.set("fed.self_ns", s4_ns - s3_ns);
                    set_client(&mut bag, &[&st.viewer]);
                    set_fed(&mut bag, st, &snaps, issued_total);
                    bag.set("fed.submit_ns", span_mean("fed.submit"));
                    bag.set("fed.settle_ns", span_mean("fed.settle"));
                    (s4_ns, (s4_ns - s2_ns) / d1_ns)
                }
                Built::Enact(..) => unreachable!("handled above"),
            };
            // the slices telescope to the top one; what is left against the
            // real stack at depth 1 is the harness's own share (reported,
            // not gated)
            bag.set("gen.budget_residual_frac", (d1_ns - top_ns) / d1_ns);
            dominant
        }
    };
    bag.set("gen.dominant_share_frac", dominant);

    Ok(PER_LAYER
        .iter()
        .map(|(name, unit)| Metric::plain(name, bag.0.get(name).copied().unwrap_or(0.0), unit))
        .collect())
}

/// The `events.*` metrics of an S0 run.
fn set_events(bag: &mut Bag, det: &ShardedEngine, samples: &[u64], allocs_per_event: f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    bag.set("events.ingest_ns", stats::mean(samples));
    bag.set(
        "events.ingest_p99_ns",
        stats::percentile(&sorted, 0.99) as f64,
    );
    bag.set("events.allocs_per_event", allocs_per_event);
    let st = det.stats();
    let n = st.events_ingested.max(1) as f64;
    bag.set("events.in", st.events_ingested as f64);
    bag.set("events.detections", st.detections as f64);
    bag.set("events.detect_ratio", st.detections as f64 / n);
    bag.set(
        "events.op_invocations_per_event",
        st.operator_invocations as f64 / n,
    );
    let per_shard: Vec<f64> = det
        .per_shard_stats()
        .iter()
        .map(|s| s.events_ingested as f64)
        .collect();
    let mean = per_shard.iter().sum::<f64>() / per_shard.len().max(1) as f64;
    let max = per_shard.iter().copied().fold(0.0, f64::max);
    bag.set(
        "events.shard_skew",
        if mean > 0.0 { max / mean } else { 0.0 },
    );
    bag.set(
        "events.state_instances",
        det.topology().state_partitions as f64,
    );
    let instances = det.instances();
    let export = time_each(instances.len().min(256), |i| {
        std::hint::black_box(det.export_instance(instances[i]));
    });
    bag.set("events.export_instance_ns", stats::mean(&export));
}

/// Request round trip and robustness counters of the real stack's clients.
fn set_client(bag: &mut Bag, conns: &[&cmi::net::client::Connection]) {
    let rtt = time_each(PROBE_N / 4, |_| {
        conns[0].call(&Request::Unread).expect("Unread round trip");
    });
    bag.set("net.request_rtt_ns", stats::mean(&rtt));
    let stats: Vec<_> = conns.iter().map(|c| c.stats()).collect();
    bag.set(
        "net.client_reconnects",
        stats.iter().map(|s| s.reconnects as f64).sum(),
    );
    bag.set(
        "net.client_dup_dropped",
        stats.iter().map(|s| s.push_dropped_duplicates as f64).sum(),
    );
}

/// The `fed.*` counters of the real cluster.
fn set_fed(bag: &mut Bag, st: &stack::Fed, snaps: &[MetricsSnapshot], issued: f64) {
    let forwards = family(snaps, "cmi_fed_forwards");
    bag.set("fed.forwards", forwards);
    bag.set("fed.forwarded_share", forwards / issued.max(1.0));
    bag.set(
        "fed.forward_rtt_ns",
        histogram_mean(snaps, "cmi_fed_forward_ns"),
    );
    bag.set("fed.notes_routed", family(snaps, "cmi_fed_notes_routed"));
    bag.set("fed.replays", family(snaps, "cmi_fed_replays"));
    bag.set("fed.dup_dropped", family(snaps, "cmi_fed_dup_dropped"));
    bag.set("fed.reconnects", family(snaps, "cmi_fed_reconnects"));
    let mut owned = [0f64; stack::FED_NODES];
    for raw in 1..=FED_INSTANCES {
        owned[st.cluster.cluster().owner_of_instance(raw) as usize] += 1.0;
    }
    let mean = owned.iter().sum::<f64>() / owned.len() as f64;
    bag.set(
        "fed.owner_skew",
        owned.iter().copied().fold(0.0, f64::max) / mean,
    );
}
