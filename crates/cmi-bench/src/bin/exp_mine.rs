//! EXP-MINE — event-log replay throughput and hot-swap pause under load.
//!
//! Two arms, one server configuration (a `Mission` process with a stateless
//! filter, a `count`/`compare1` burst detector, and a keyed `seq` chain):
//!
//! 1. **Replay** — a recorded history is exported from the mine log and
//!    replayed by [`LogReplayer`] into a fresh oracle server, once paced at
//!    the 10x acceptance multiplier and once unthrottled. Each replay must
//!    reproduce the original detection multiset exactly (the determinism
//!    check from the acceptance criteria, here under bench-sized volumes).
//! 2. **Hot swap** — injector threads keep a continuous ingest load on the
//!    server while the schema set is swapped back and forth between two
//!    versions. Every [`SwapReport`](cmi_awareness::engine::SwapReport) records the detector write-lock hold:
//!    the ingest pause that every arriving event — including events for
//!    untouched operators — observes. The self-enforced gate from the
//!    acceptance criteria is `max pause < 50 ms`; the run fails loudly if
//!    any swap exceeds it.
//!
//! Full run (writes `BENCH_MINE.json` into the working directory):
//! `cargo run --release -p cmi-bench --bin exp_mine`
//! CI smoke: set `QUICK=1` for small volumes and no JSON.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cmi_awareness::system::CmiServer;
use cmi_bench::{banner, render_table};
use cmi_core::schema::ActivitySchemaBuilder;
use cmi_core::state_schema::ActivityStateSchema;
use cmi_core::time::Timestamp;
use cmi_core::value::Value;
use cmi_mine::{detection_multiset, MineRecord};
use cmi_workloads::{LogReplayer, ReplayParams};

const SWAP_PAUSE_GATE_US: u64 = 50_000;

const V1: &str = r#"
awareness "AS_Hit" on Mission {
    hit = external(sensor, mission)
    deliver hit to org(w-alice)
    describe "sensor hit"
}
awareness "AS_Burst" on Mission {
    s = external(sensor, mission)
    n = count(s)
    gate = compare1(>=, 3, n)
    deliver gate to org(w-alice)
    describe "sensor burst"
}
awareness "AS_Seq" on Mission {
    a = external(alpha, mission)
    b = external(beta, mission)
    chain = seq(1, a, b)
    deliver chain to org(w-alice)
    describe "alpha then beta"
}
"#;

/// V1 plus one schema — swaps between the two preserve the V1 operators.
const V2: &str = r#"
awareness "AS_Hit" on Mission {
    hit = external(sensor, mission)
    deliver hit to org(w-alice)
    describe "sensor hit"
}
awareness "AS_Burst" on Mission {
    s = external(sensor, mission)
    n = count(s)
    gate = compare1(>=, 3, n)
    deliver gate to org(w-alice)
    describe "sensor burst"
}
awareness "AS_Seq" on Mission {
    a = external(alpha, mission)
    b = external(beta, mission)
    chain = seq(1, a, b)
    deliver chain to org(w-alice)
    describe "alpha then beta"
}
awareness "AS_Gamma" on Mission {
    g = external(gamma, mission)
    deliver g to org(w-alice)
    describe "gamma probe"
}
"#;

fn build_server() -> CmiServer {
    let server = CmiServer::new();
    let repo = server.repository();
    let ss = repo.register_state_schema(ActivityStateSchema::generic(repo.fresh_state_schema_id()));
    repo.register_activity_schema(
        ActivitySchemaBuilder::process(repo.fresh_activity_schema_id(), "Mission", ss)
            .build()
            .unwrap(),
    );
    let u = server.directory().add_user("alice");
    let r = server.directory().add_role("w-alice").unwrap();
    server.directory().assign(u, r).unwrap();
    server.load_awareness_source(V1).unwrap();
    server
}

const SOURCES: [&str; 3] = ["sensor", "alpha", "beta"];

/// A recorded history: `events` external events spread across `instances`
/// process instances at `gap_ms` simulated milliseconds apart.
fn record_history(events: usize, instances: u64, gap_ms: u64) -> (Vec<MineRecord>, usize) {
    let server = build_server();
    let log = server.enable_mine_log(events * 2 + 64);
    let mut t = 1_000u64;
    for i in 0..events {
        t += gap_ms;
        // A deterministic mix: mostly sensor traffic (bursts), with alpha
        // then beta interleavings so the seq chain fires too.
        let source = SOURCES[(i / 7) % SOURCES.len()];
        server.external_event_at(
            source,
            Timestamp::from_millis(t),
            [
                ("mission".to_owned(), Value::Id(1 + (i as u64 % instances))),
                ("v".to_owned(), Value::Int(i as i64 % 17)),
            ],
        );
    }
    let records = log.records();
    let detections = detection_multiset(&records).values().sum::<u64>() as usize;
    (records, detections)
}

struct ReplayArm {
    label: &'static str,
    injected: usize,
    wall_ms: f64,
    events_per_sec: f64,
    multiset_ok: bool,
}

fn run_replay(
    records: &[MineRecord],
    baseline: &std::collections::BTreeMap<(String, Option<u64>, String), u64>,
    label: &'static str,
    params: ReplayParams,
) -> ReplayArm {
    let externals: Vec<MineRecord> = records.to_vec();
    let oracle = build_server();
    let oracle_log = oracle.enable_mine_log(records.len() * 2 + 64);
    let report = LogReplayer::new(externals, params).run(&oracle);
    ReplayArm {
        label,
        injected: report.injected,
        wall_ms: report.wall.as_secs_f64() * 1_000.0,
        events_per_sec: report.events_per_sec(),
        multiset_ok: detection_multiset(&oracle_log.records()) == *baseline,
    }
}

struct SwapStats {
    swaps: usize,
    ingested: u64,
    pause_p50_us: f64,
    pause_max_us: u64,
    max_ingest_stall_us: u64,
    gate_ok: bool,
}

/// Swaps V1<->V2 `swaps` times while `threads` injectors hammer the server,
/// recording both the engine-reported quiesce pause and the worst stall any
/// injector observed on a single ingest call.
fn run_swap_under_load(swaps: usize, threads: usize, load_secs: f64) -> SwapStats {
    let server = Arc::new(build_server());
    let stop = Arc::new(AtomicBool::new(false));
    let ingested = Arc::new(AtomicU64::new(0));
    let max_stall_ns = Arc::new(AtomicU64::new(0));

    let workers: Vec<_> = (0..threads)
        .map(|w| {
            let server = server.clone();
            let stop = stop.clone();
            let ingested = ingested.clone();
            let max_stall_ns = max_stall_ns.clone();
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    server.external_event(
                        "sensor",
                        [
                            ("mission".to_owned(), Value::Id(1 + (w as u64 * 97 + i) % 64)),
                            ("v".to_owned(), Value::Int(i as i64)),
                        ],
                    );
                    let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                    max_stall_ns.fetch_max(ns, Ordering::Relaxed);
                    ingested.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            })
        })
        .collect();

    // Spread the swaps across the load window, alternating schema versions
    // so every swap has preserved nodes carrying live state.
    let mut pauses_us: Vec<u64> = Vec::with_capacity(swaps);
    let between = Duration::from_secs_f64(load_secs / (swaps as f64 + 1.0));
    for s in 0..swaps {
        std::thread::sleep(between);
        let src = if s % 2 == 0 { V2 } else { V1 };
        let report = server.hot_swap_awareness(src).expect("swap compiles");
        assert!(report.diff.preserved_nodes > 0, "swap preserved nothing");
        pauses_us.push(report.pause.as_micros().min(u64::MAX as u128) as u64);
    }
    std::thread::sleep(between);
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().unwrap();
    }

    pauses_us.sort_unstable();
    let pause_max_us = *pauses_us.last().unwrap_or(&0);
    SwapStats {
        swaps,
        ingested: ingested.load(Ordering::Relaxed),
        pause_p50_us: pauses_us[pauses_us.len() / 2] as f64,
        pause_max_us,
        max_ingest_stall_us: max_stall_ns.load(Ordering::Relaxed) / 1_000,
        gate_ok: pause_max_us < SWAP_PAUSE_GATE_US,
    }
}

fn main() {
    let quick = std::env::var("QUICK").is_ok();
    let (events, swaps, threads, load_secs) = if quick {
        (2_000usize, 4usize, 2usize, 0.5f64)
    } else {
        (50_000usize, 24usize, 4usize, 4.0f64)
    };
    println!(
        "{}",
        banner("EXP-MINE: log replay throughput + schema hot-swap pause under load")
    );

    // --- Arm 1: replay throughput -------------------------------------
    eprintln!("  recording {events}-event history...");
    let (records, detections) = record_history(events, 64, 20);
    let baseline = detection_multiset(&records);
    assert!(detections > 0, "history produced no detections");
    eprintln!("  history: {} log records, {detections} detections", records.len());

    let arms = [
        run_replay(
            &records,
            &baseline,
            "paced 10x",
            ReplayParams {
                multiplier: 10.0,
                // Cap per-gap sleeps so the paced arm finishes in seconds
                // while still exercising the pacing path on every event.
                max_gap: Duration::from_micros(50),
            },
        ),
        run_replay(
            &records,
            &baseline,
            "unthrottled",
            ReplayParams {
                multiplier: 1e9,
                max_gap: Duration::ZERO,
            },
        ),
    ];
    let mut rows = vec![vec![
        "replay arm".to_owned(),
        "injected".to_owned(),
        "wall (ms)".to_owned(),
        "events/sec".to_owned(),
        "multiset".to_owned(),
    ]];
    for a in &arms {
        assert_eq!(a.injected, events, "{}: replay dropped events", a.label);
        assert!(a.multiset_ok, "{}: detection multiset diverged", a.label);
        rows.push(vec![
            a.label.to_owned(),
            a.injected.to_string(),
            format!("{:.1}", a.wall_ms),
            format!("{:.0}", a.events_per_sec),
            "identical".to_owned(),
        ]);
    }
    println!("{}", render_table(&rows));

    // --- Arm 2: hot-swap pause under load -----------------------------
    eprintln!("  swapping {swaps}x under {threads}-thread ingest load...");
    let swap = run_swap_under_load(swaps, threads, load_secs);
    let mut rows = vec![vec![
        "swaps".to_owned(),
        "ingested under load".to_owned(),
        "pause p50 (us)".to_owned(),
        "pause max (us)".to_owned(),
        "worst ingest stall (us)".to_owned(),
    ]];
    rows.push(vec![
        swap.swaps.to_string(),
        swap.ingested.to_string(),
        format!("{:.0}", swap.pause_p50_us),
        swap.pause_max_us.to_string(),
        swap.max_ingest_stall_us.to_string(),
    ]);
    println!("{}", render_table(&rows));
    println!(
        "gate: max swap pause {} us < {} us ({})",
        swap.pause_max_us,
        SWAP_PAUSE_GATE_US,
        if swap.gate_ok { "OK" } else { "FAIL" },
    );
    assert!(
        swap.gate_ok,
        "self-enforced gate violated: swap pause {} us >= {} us",
        swap.pause_max_us, SWAP_PAUSE_GATE_US
    );

    if quick {
        return;
    }
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(
        "  \"description\": \"EXP-MINE: mining-log replay throughput and schema hot-swap pause. Replay arms export a recorded history from the mine log and replay it into a fresh oracle via LogReplayer — once paced at the 10x acceptance multiplier (gap sleeps capped at 50 us) and once unthrottled — asserting the replayed detection multiset is identical to the original. The swap arm alternates two schema versions under continuous multi-threaded ingest; pause_us is the detector write-lock hold each SwapReport records (the ingest pause untouched operators observe), gated at < 50 ms.\",\n",
    );
    json.push_str(&format!(
        "  \"environment\": {{\n    \"cpus\": {},\n    \"note\": \"In-process CmiServer, no network. History: {} external events across 64 instances at 20 ms simulated gaps; {} log records, {} detections.\"\n  }},\n",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        events,
        records.len(),
        detections,
    ));
    json.push_str("  \"harness\": \"cargo run --release -p cmi-bench --bin exp_mine\",\n");
    json.push_str("  \"results\": {\n");
    json.push_str("    \"replay\": [\n");
    for (i, a) in arms.iter().enumerate() {
        json.push_str(&format!(
            "      {{\n        \"arm\": \"{}\",\n        \"injected\": {},\n        \"wall_ms\": {:.1},\n        \"events_per_sec\": {:.0},\n        \"multiset_identical\": {}\n      }}{}\n",
            a.label,
            a.injected,
            a.wall_ms,
            a.events_per_sec,
            a.multiset_ok,
            if i + 1 == arms.len() { "" } else { "," },
        ));
    }
    json.push_str("    ],\n");
    json.push_str(&format!(
        "    \"hot_swap\": {{\n      \"swaps\": {},\n      \"ingest_threads\": {},\n      \"events_ingested_under_load\": {},\n      \"pause_p50_us\": {:.0},\n      \"pause_max_us\": {},\n      \"worst_ingest_stall_us\": {},\n      \"gate_pause_under_us\": {},\n      \"gate_ok\": {}\n    }}\n",
        swap.swaps,
        threads,
        swap.ingested,
        swap.pause_p50_us,
        swap.pause_max_us,
        swap.max_ingest_stall_us,
        SWAP_PAUSE_GATE_US,
        swap.gate_ok,
    ));
    json.push_str("  }\n}\n");
    let out = std::env::var("BENCH_MINE_OUT").unwrap_or_else(|_| "BENCH_MINE.json".into());
    std::fs::write(&out, json).expect("write BENCH_MINE.json");
    println!("wrote {out}");
}
