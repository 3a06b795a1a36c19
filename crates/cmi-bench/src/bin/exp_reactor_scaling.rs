//! EXP-REACTOR — connection scaling of the cmi-net session server.
//!
//! Ramps N concurrent loopback sessions (each signed on and idle between
//! probes) against a [`NetServer`], then measures per-request round-trip
//! latency sampled across the live sessions. The point of the experiment:
//! the event-loop pool holds the whole population on a fixed number of
//! threads, so per-request p99 stays flat to 10k sessions — the full run
//! fails if the largest population's p99 exceeds twice the smallest's.
//! (The thread-per-connection engine this was once compared against is
//! gone; its last measurements are the dated table in EXPERIMENTS.md.)
//!
//! Full run (writes `BENCH_REACTOR.json` into the working directory):
//! `cargo run --release -p cmi-bench --bin exp_reactor_scaling`
//! CI smoke: set `QUICK=1` for small session counts, no JSON and no gate.

use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cmi_awareness::system::CmiServer;
use cmi_bench::{banner, render_table};
use cmi_net::codec::{encode_frame, FrameKind, FrameReader};
use cmi_net::server::{NetConfig, NetServer};
use cmi_net::transport::NetStream;
use cmi_net::wire::{Request, Response};

struct Arm {
    sessions: usize,
    ramp_ms: f64,
    p50_us: f64,
    p99_us: f64,
    samples: usize,
}

fn call(
    stream: &mut Box<dyn NetStream>,
    frames: &mut FrameReader,
    req: &Request,
) -> Response {
    stream
        .write_all(&encode_frame(FrameKind::Request, &req.encode()))
        .unwrap();
    loop {
        if let Some(f) = frames.poll(&mut **stream).unwrap() {
            if f.kind == FrameKind::Response {
                return Response::decode(&f.payload).unwrap();
            }
        }
    }
}

fn percentile(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx] as f64 / 1_000.0
}

fn run_arm(sessions: usize, samples: usize) -> Arm {
    let cmi = Arc::new(CmiServer::new());
    cmi.directory().add_user("bench");
    let cfg = NetConfig {
        reactor_threads: 2,
        max_sessions: sessions + 16,
        // Sessions idle during the ramp and between probes; the reap
        // deadline must sit beyond any plausible run time.
        idle_timeout: Duration::from_secs(3600),
        ..NetConfig::default()
    };
    let (server, connector) = NetServer::serve_loopback(cmi, cfg);

    // Ramp: dial + sign on every session (sign-on is refcounted, so one
    // directory user carries the whole population).
    let ramp_start = Instant::now();
    let mut conns: Vec<(Box<dyn NetStream>, FrameReader)> = Vec::with_capacity(sessions);
    for _ in 0..sessions {
        let s = connector.dial().expect("dial");
        s.set_stream_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        conns.push((s, FrameReader::new()));
    }
    for (s, fr) in conns.iter_mut() {
        let resp = call(
            s,
            fr,
            &Request::Hello {
                user: "bench".into(),
                resume: false,
            },
        );
        assert!(matches!(resp, Response::HelloOk { .. }), "got {resp:?}");
    }
    let ramp_ms = ramp_start.elapsed().as_secs_f64() * 1_000.0;
    assert_eq!(server.session_count(), sessions);

    // Probe: synchronous request round trips, strided so the samples touch
    // sessions across the whole population and both event loops.
    let mut lat_ns: Vec<u64> = Vec::with_capacity(samples);
    for i in 0..samples {
        let idx = (i * 37) % sessions;
        let (s, fr) = &mut conns[idx];
        let t0 = Instant::now();
        let resp = call(s, fr, &Request::Unread);
        lat_ns.push(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        assert!(matches!(resp, Response::Count(_)), "got {resp:?}");
    }
    lat_ns.sort_unstable();
    let arm = Arm {
        sessions,
        ramp_ms,
        p50_us: percentile(&lat_ns, 0.50),
        p99_us: percentile(&lat_ns, 0.99),
        samples,
    };
    for (s, _) in &conns {
        s.shutdown_stream();
    }
    drop(conns);
    server.shutdown();
    arm
}

fn main() {
    let quick = std::env::var("QUICK").is_ok();
    let (session_counts, samples): (&[usize], usize) = if quick {
        (&[64, 256], 200)
    } else {
        (&[256, 2_048, 10_000], 2_000)
    };
    println!(
        "{}",
        banner("EXP-REACTOR: session-count scaling of the event-loop server")
    );

    let mut arms: Vec<Arm> = Vec::new();
    for &n in session_counts {
        eprintln!("  running {n} sessions...");
        arms.push(run_arm(n, samples));
    }

    let mut rows = vec![vec![
        "sessions".to_owned(),
        "ramp (ms)".to_owned(),
        "request p50 (us)".to_owned(),
        "request p99 (us)".to_owned(),
        "samples".to_owned(),
    ]];
    for a in &arms {
        rows.push(vec![
            a.sessions.to_string(),
            format!("{:.1}", a.ramp_ms),
            format!("{:.1}", a.p50_us),
            format!("{:.1}", a.p99_us),
            a.samples.to_string(),
        ]);
    }
    println!("{}", render_table(&rows));

    // The gate: per-request p99 at the largest population within 2x of
    // the smallest.
    let (small, large) = (&arms[0], &arms[arms.len() - 1]);
    let flat = large.p99_us <= 2.0 * small.p99_us;
    println!(
        "p99 @ {} sessions = {:.1} us vs p99 @ {} sessions = {:.1} us ({})",
        large.sessions,
        large.p99_us,
        small.sessions,
        small.p99_us,
        if flat { "OK: within 2x" } else { "WORSE: beyond 2x" },
    );

    if quick {
        return;
    }
    assert!(flat, "request p99 is not flat in session count");
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(
        "  \"description\": \"EXP-REACTOR: cmi-net session-count scaling of the event-loop server (2 loops). Each arm ramps N signed-on loopback sessions, then samples synchronous Unread request round trips strided across the population. ramp_ms covers dial + Hello for all N sessions; latencies are client-observed request/response round trips while the other N-1 sessions idle.\",\n",
    );
    json.push_str(&format!(
        "  \"environment\": {{\n    \"cpus\": {},\n    \"note\": \"Loopback transport (in-memory pipes). Gate: request p99 at the largest population within 2x of the smallest.\"\n  }},\n",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    ));
    json.push_str(
        "  \"harness\": \"cargo run --release -p cmi-bench --bin exp_reactor_scaling\",\n",
    );
    json.push_str("  \"results\": [\n");
    for (i, a) in arms.iter().enumerate() {
        json.push_str(&format!(
            "    {{\n      \"sessions\": {},\n      \"ramp_ms\": {:.1},\n      \"request_p50_us\": {:.1},\n      \"request_p99_us\": {:.1},\n      \"samples\": {}\n    }}{}\n",
            a.sessions,
            a.ramp_ms,
            a.p50_us,
            a.p99_us,
            a.samples,
            if i + 1 == arms.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");
    let out = std::env::var("BENCH_REACTOR_OUT").unwrap_or_else(|_| "BENCH_REACTOR.json".into());
    std::fs::write(&out, json).expect("write BENCH_REACTOR.json");
    println!("wrote {out}");
}
