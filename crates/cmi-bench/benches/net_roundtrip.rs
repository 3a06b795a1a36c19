//! EXP-NET — the Fig. 5 client/server split (cmi-net): what does putting a
//! wire between the awareness engine and the participant cost?
//!
//! Two measurements, each over three paths — in-process (no wire), the
//! deterministic in-memory loopback transport, and a real TCP socket on
//! localhost:
//!
//! * `net_request` — request/response latency for the cheapest query
//!   (`Unread`), i.e. the pure protocol + transport overhead;
//! * `net_notify` — detection → queue → push → client ack throughput for a
//!   batch of external events, i.e. the full §6.5 delivery pipeline with
//!   the client on the far side of the socket.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use cmi_awareness::builder::AwarenessSchemaBuilder;
use cmi_awareness::system::CmiServer;
use cmi_core::ids::{ProcessSchemaId, UserId};
use cmi_core::roles::RoleSpec;
use cmi_core::value::Value;
use cmi_events::operators::ExternalFilter;
use cmi_net::client::{ClientConfig, Connection};
use cmi_net::server::{NetConfig, NetServer};

/// A server where `evt` external events notify watcher `alice`.
fn system() -> (Arc<CmiServer>, UserId) {
    let cmi = Arc::new(CmiServer::new());
    let alice = cmi.directory().add_user("alice");
    let watchers = cmi.directory().add_role("watchers").unwrap();
    cmi.directory().assign(alice, watchers).unwrap();
    let mut b = AwarenessSchemaBuilder::new(cmi.fresh_awareness_id(), "AS_Evt", ProcessSchemaId(0));
    let f = b
        .external_filter(ExternalFilter::new(ProcessSchemaId(0), "evt", None).int_info_from("m"))
        .unwrap();
    cmi.register_awareness(
        b.deliver_to(f, RoleSpec::org("watchers"))
            .describe("evt observed")
            .build()
            .unwrap(),
    );
    (cmi, alice)
}

fn bench_config() -> NetConfig {
    NetConfig {
        push_window: 64,
        ..NetConfig::default()
    }
}

fn emit(cmi: &CmiServer, n: usize) {
    for m in 0..n {
        cmi.external_event("evt", vec![("m".to_owned(), Value::Int(m as i64))]);
    }
}

fn request_roundtrip(c: &mut Criterion) {
    let mut g = c.benchmark_group("net_request");

    g.bench_function("in_process", |b| {
        let (cmi, alice) = system();
        b.iter(|| black_box(cmi.awareness().queue().pending_for(alice)))
    });

    g.bench_function("loopback", |b| {
        let (cmi, _) = system();
        let (server, connector) = NetServer::serve_loopback(cmi, bench_config());
        let conn =
            Connection::connect_loopback(connector, "alice", ClientConfig::default()).unwrap();
        let viewer = conn.viewer();
        b.iter(|| black_box(viewer.unread().unwrap()));
        conn.close();
        server.shutdown();
    });

    g.bench_function("tcp", |b| {
        let (cmi, _) = system();
        let (server, addr) =
            NetServer::bind_tcp(cmi, "127.0.0.1:0", bench_config()).unwrap();
        let conn = Connection::connect_tcp(addr, "alice", ClientConfig::default()).unwrap();
        let viewer = conn.viewer();
        b.iter(|| black_box(viewer.unread().unwrap()));
        conn.close();
        server.shutdown();
    });

    g.finish();
}

fn notify_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("net_notify");
    const N: usize = 256;
    g.throughput(Throughput::Elements(N as u64));

    // In-process baseline: detection → queue → viewer fetch + ack, no wire.
    g.bench_function("in_process", |b| {
        let (cmi, alice) = system();
        let queue = cmi.awareness().queue();
        b.iter(|| {
            emit(&cmi, N);
            let mut got = 0;
            while got < N {
                let batch = queue.fetch(alice, 64);
                let seqs: Vec<u64> = batch.iter().map(|n| n.seq).collect();
                got += queue.ack_exact(alice, &seqs).unwrap();
            }
            black_box(got)
        })
    });

    // The same pipeline with a subscribed remote viewer on the far side.
    for (label, dial_tcp) in [("loopback", false), ("tcp", true)] {
        g.bench_function(label, |b| {
            let (cmi, _) = system();
            let (server, conn) = if dial_tcp {
                let (server, addr) =
                    NetServer::bind_tcp(cmi.clone(), "127.0.0.1:0", bench_config())
                        .unwrap();
                let conn = Connection::connect_tcp(addr, "alice", ClientConfig::default()).unwrap();
                (server, conn)
            } else {
                let (server, connector) = NetServer::serve_loopback(cmi.clone(), bench_config());
                let conn = Connection::connect_loopback(connector, "alice", ClientConfig::default())
                    .unwrap();
                (server, conn)
            };
            let viewer = conn.viewer();
            viewer.subscribe().unwrap();
            b.iter(|| {
                emit(&cmi, N);
                let mut got = 0;
                while got < N {
                    if viewer.recv(std::time::Duration::from_secs(5)).is_some() {
                        got += 1;
                    }
                }
                black_box(got)
            });
            conn.close();
            server.shutdown();
        });
    }

    g.finish();
}

criterion_group!(benches, request_roundtrip, notify_throughput);
criterion_main!(benches);
