//! The Fig. 5 client/server split, live: a CMI server on a real TCP socket
//! and a remote participant on the other side of the wire — worklist,
//! monitor, and a subscribed awareness viewer that keeps its guarantees
//! across a mid-scenario connection loss.
//!
//! Run with: `cargo run --example remote_viewer`
//!
//! To drive it by hand instead, bind a fixed port and point a second
//! process at it:
//!
//! ```text
//! let (net, addr) = NetServer::bind_tcp(server, "127.0.0.1:7155", NetConfig::default())?;
//! let conn = Connection::connect_tcp(addr, "requesting-epidemiologist", ClientConfig::default())?;
//! ```

use std::time::Duration;

use cmi::prelude::*;
use cmi::workloads::taskforce;

fn main() {
    // ---- server side: the engine stack behind a TCP listener ---------------
    let server = std::sync::Arc::new(CmiServer::new());
    let schemas = taskforce::install(&server);
    let (net, addr) =
        NetServer::bind_tcp(server.clone(), "127.0.0.1:0", NetConfig::default()).unwrap();
    println!("server listening on {addr}");

    // The §5.4 scenario runs; the deadline violation lands in the
    // requestor's persistent queue whether or not anyone is connected.
    let out = taskforce::run_deadline_scenario(&server, &schemas);
    println!(
        "scenario complete: {} notification(s) queued for the requestor",
        out.requestor_notifications.len()
    );

    // ---- client side: a remote participant over TCP ------------------------
    let conn = Connection::connect_tcp(addr, "requesting-epidemiologist", ClientConfig::default())
        .unwrap();
    println!(
        "connected as user {} — sign-on is visible in the directory: {}",
        conn.user_id(),
        server
            .directory()
            .participant(conn.user_id())
            .unwrap()
            .signed_on
    );

    // The typed clients mirror the in-process participant APIs.
    let work = conn.worklist().for_user().unwrap();
    println!("worklist over the wire: {} open item(s)", work.len());
    let stats = conn.monitor().stats(out.task_force).unwrap();
    println!(
        "monitor over the wire: task force has {} activities ({} open)",
        stats.total, stats.open
    );

    // Subscribe and receive the violation as a push.
    let viewer = conn.viewer();
    viewer.subscribe().unwrap();
    let n = viewer.recv(Duration::from_secs(10)).expect("violation");
    println!("push received: {} (priority {:?})", n.description, n.priority);

    // ---- live telemetry over the wire --------------------------------------
    // The same request that a dashboard would poll: the Prometheus
    // exposition of the whole stack, plus the causal detection trace behind
    // the notification we just consumed (primitive event → operator chain →
    // detection → queue → push → ack, with per-stage latencies), plus the
    // flight-recorder dump.
    let t = conn.telemetry(Some(n.seq), true).unwrap();
    println!("\n-- telemetry: metrics exposition (excerpt) --");
    for line in t
        .exposition
        .lines()
        .filter(|l| !l.starts_with('#'))
        .take(12)
    {
        println!("  {line}");
    }
    if let Some(trace) = &t.trace {
        println!("-- telemetry: detection trace for seq {} --", n.seq);
        for line in trace.lines() {
            println!("  {line}");
        }
    }
    if let Some(flight) = &t.flight {
        println!("-- telemetry: flight recorder (last {} records) --", flight.lines().count());
        for line in flight.lines().take(8) {
            println!("  {line}");
        }
    }
    println!();

    // Kill the link mid-session: the client reconnects transparently and
    // the stream resumes with no loss and no duplicates.
    conn.kill_link();
    let another = server.external_event("never-matches", Vec::new());
    assert_eq!(another, 0);
    assert!(
        viewer.recv(Duration::from_millis(300)).is_none(),
        "nothing new, and no duplicate of the acknowledged violation"
    );
    println!(
        "link killed and resumed: {} reconnect(s), still exactly-once delivery",
        conn.reconnects()
    );

    // Disconnecting signs the user off — the directory reflects it.
    let uid = conn.user_id();
    conn.close();
    // The owning event loop signs the user off when it sees the hangup.
    for _ in 0..200 {
        if !server.directory().participant(uid).unwrap().signed_on {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    println!(
        "after disconnect, signed-on: {}",
        server.directory().participant(uid).unwrap().signed_on
    );

    let stats = net.shutdown();
    println!(
        "server drained: {} session(s) served, {} frame(s) in, {} out",
        stats.sessions_opened, stats.frames_in, stats.frames_out
    );
}
