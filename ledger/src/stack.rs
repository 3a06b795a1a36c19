//! All stack construction, in one file, from shipping constructors and
//! defaults. The one pinned choice is the reactor session backend: under
//! the blocking backend's 10 ms tick a run would measure a sleep timer.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cmi::awareness::dsl;
use cmi::awareness::engine::AwarenessEngine;
use cmi::awareness::queue::DeliveryQueue;
use cmi::awareness::schema::AwarenessSchema;
use cmi::awareness::system::CmiServer;
use cmi::core::context::ContextManager;
use cmi::core::ids::{ActivitySchemaId, ActivityVarId, UserId};
use cmi::core::participant::Directory;
use cmi::core::schema::ActivitySchemaBuilder;
use cmi::core::state_schema::ActivityStateSchema;
use cmi::core::time::SimClock;
use cmi::events::sharded::ShardedEngine;
use cmi::fed::testkit::LoopbackCluster;
use cmi::fed::FedConfig;
use cmi::mine::MineLog;
use cmi::net::client::{ClientConfig, Connection};
use cmi::net::server::{NetBackend, NetConfig, NetServer};
use cmi::obs::ObsRegistry;
use cmi::workloads::taskforce::{self, TaskForceSchemas};

use crate::gen::{Workload, ENACT_LEADERS, ENACT_MEMBERS};

/// Detector shards of the in-process workloads (the box has two cores).
pub const SHARDS: usize = 2;
/// Members provisioned on the single-node external-event workloads.
pub const BIG_DIRECTORY: usize = 100_000;
/// Recipients of `detect_local`'s delivery role.
pub const DETECT_WATCHERS: usize = 8;
/// Ring capacity of `enact_lifecycle`'s mining log.
pub const MINE_CAPACITY: usize = 1 << 16;

/// `detect_local`'s schema set: stateful composites over four sources.
pub const DETECT_DSL: &str = r#"
awareness "AS_Seq" on Mission {
    a = external(s2, inst)
    b = external(s3, inst)
    s = seq(1, a, b)
    deliver s to org(watch)
    describe "s2 then s3"
}
awareness "AS_And" on Mission {
    a = external(s2, inst)
    b = external(s3, inst)
    c = and(2, a, b)
    deliver c to org(watch)
    describe "s2 and s3"
}
awareness "AS_Burst" on Mission {
    a = external(s0, inst)
    n = count(a)
    big = compare1(==, 32, n)
    deliver big to org(watch)
    describe "32nd s0"
}
awareness "AS_Load" on Mission {
    a = external(s1, inst)
    n = count(a)
    big = compare1(==, 64, n)
    deliver big to org(watch)
    describe "64th s1"
}
"#;

/// `session_push` / `fed_routed`: one stateless filter, so every event
/// detects and `intInfo` carries the input's index to the recipient.
pub const HIT_DSL: &str = r#"
awareness "AS_Hit" on Mission {
    hit = external(sensor, inst)
    deliver hit to org(watch)
    describe "sensor hit"
}
"#;

/// The session backend every networked stack runs on.
pub fn net_config() -> NetConfig {
    NetConfig {
        backend: NetBackend::Reactor,
        ..NetConfig::default()
    }
}

/// Where results, traces and scratch files go: inside the checkout, under
/// the build's target directory (already git-ignored).
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    target.join("ledger")
}

/// Writes `contents` to `name` under [`out_dir`], creating it if need be.
pub fn write_out(name: &str, contents: &str) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// A scratch directory removed on drop (the WAL of `session_push`).
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> std::io::Result<Scratch> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("tmp-{}-{tag}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Parts of set-up timed on their own (per-layer metrics).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupParts {
    pub dir_provision_s: f64,
    pub dsl_compile_ms: f64,
}

/// Registers the `Mission` process schema, the `driver` injector, `watchers`
/// members of role `watch` (`w0`…), and `members` more participants in role
/// `staff`. Identical calls in identical order on every node and on the
/// oracle, so ids line up.
pub fn provision(cmi: &CmiServer, members: usize, watchers: usize) -> (Vec<UserId>, f64) {
    let repo = cmi.repository();
    let ss = repo.register_state_schema(ActivityStateSchema::generic(repo.fresh_state_schema_id()));
    let pid = repo.fresh_activity_schema_id();
    repo.register_activity_schema(
        ActivitySchemaBuilder::process(pid, "Mission", ss)
            .build()
            .expect("Mission schema"),
    );
    let t0 = Instant::now();
    let dir = cmi.directory();
    dir.add_user("driver");
    let watch = dir.add_role("watch").expect("role watch");
    let recipients: Vec<UserId> = (0..watchers)
        .map(|i| dir.add_user(&format!("w{i}")))
        .collect();
    dir.assign_many(&recipients, watch).expect("assign watch");
    let staff = dir.add_role("staff").expect("role staff");
    let crowd: Vec<UserId> = (0..members)
        .map(|i| dir.add_user(&format!("m{i}")))
        .collect();
    dir.assign_many(&crowd, staff).expect("assign staff");
    (recipients, t0.elapsed().as_secs_f64())
}

fn load_dsl(cmi: &CmiServer, src: &str) -> f64 {
    let t0 = Instant::now();
    cmi.load_awareness_source(src)
        .expect("awareness DSL parses");
    t0.elapsed().as_secs_f64() * 1e3
}

/// The schema set and directory size of a workload's external-event world.
pub fn world_of(workload: Workload) -> (&'static str, usize, usize) {
    match workload {
        Workload::DetectLocal => (DETECT_DSL, BIG_DIRECTORY, DETECT_WATCHERS),
        Workload::SessionPush => (HIT_DSL, BIG_DIRECTORY, 1),
        Workload::FedRouted => (HIT_DSL, 16, 1),
        Workload::EnactLifecycle => ("", 0, 0),
    }
}

/// `detect_local`: one sharded in-process server, in-memory queue.
pub struct DetectLocal {
    pub cmi: CmiServer,
    pub recipients: Vec<UserId>,
}

pub fn detect_local() -> (DetectLocal, SetupParts) {
    let cmi = CmiServer::with_shards(SHARDS);
    let (dsl_src, members, watchers) = world_of(Workload::DetectLocal);
    let (recipients, dir_provision_s) = provision(&cmi, members, watchers);
    let dsl_compile_ms = load_dsl(&cmi, dsl_src);
    (
        DetectLocal { cmi, recipients },
        SetupParts {
            dir_provision_s,
            dsl_compile_ms,
        },
    )
}

/// A server behind a session front, an injecting connection and a
/// subscribed viewer connection. Field order is drop order: connections
/// close before the server stops, the WAL goes last.
pub struct Session {
    pub viewer: Connection,
    pub driver: Connection,
    _server: NetServer,
    pub cmi: Arc<CmiServer>,
    _scratch: Option<Scratch>,
}

/// How a [`Session`] stack is put together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionKind {
    /// `session_push`: durable queue, kernel TCP on 127.0.0.1.
    TcpWal,
    /// The in-memory-pipe, in-memory-queue session slice beneath
    /// `fed_routed` (what a federation hop is added to).
    LoopbackMem,
}

pub fn session(kind: SessionKind, workload: Workload) -> std::io::Result<(Session, SetupParts)> {
    let (dsl_src, members, watchers) = world_of(workload);
    let (cmi, scratch) = match kind {
        SessionKind::TcpWal => {
            let scratch = Scratch::new("wal")?;
            let cmi = CmiServer::with_durable_queue(&scratch.path("queue.wal"))?;
            (cmi, Some(scratch))
        }
        SessionKind::LoopbackMem => (CmiServer::new(), None),
    };
    let (_, dir_provision_s) = provision(&cmi, members, watchers);
    let dsl_compile_ms = load_dsl(&cmi, dsl_src);
    let cmi = Arc::new(cmi);
    let (server, driver, viewer) = match kind {
        SessionKind::TcpWal => {
            let (server, addr) = NetServer::bind_tcp(cmi.clone(), "127.0.0.1:0", net_config())?;
            let driver = Connection::connect_tcp(addr, "driver", ClientConfig::default())?;
            let viewer = Connection::connect_tcp(addr, "w0", ClientConfig::default())?;
            (server, driver, viewer)
        }
        SessionKind::LoopbackMem => {
            let (server, connector) = NetServer::serve_loopback(cmi.clone(), net_config());
            let driver =
                Connection::connect_loopback(connector.clone(), "driver", ClientConfig::default())?;
            let viewer = Connection::connect_loopback(connector, "w0", ClientConfig::default())?;
            (server, driver, viewer)
        }
    };
    viewer.viewer().subscribe()?;
    Ok((
        Session {
            viewer,
            driver,
            _server: server,
            cmi,
            _scratch: scratch,
        },
        SetupParts {
            dir_provision_s,
            dsl_compile_ms,
        },
    ))
}

/// `fed_routed`: a 3-node loopback cluster, events injected in-process at
/// node 1, the one subscriber signed on at node 0.
pub struct Fed {
    pub viewer: Connection,
    pub cluster: LoopbackCluster,
}

/// Node the injector calls into / node the subscriber is signed on at.
pub const FED_INGRESS: usize = 1;
pub const FED_SUBSCRIBER: usize = 0;
pub const FED_NODES: usize = 3;

pub fn fed() -> std::io::Result<(Fed, SetupParts)> {
    let parts = std::sync::Mutex::new(SetupParts::default());
    let (dsl_src, members, watchers) = world_of(Workload::FedRouted);
    let cluster =
        LoopbackCluster::start_with(FED_NODES, net_config(), FedConfig::default(), &|cmi| {
            let (_, dir_provision_s) = provision(cmi, members, watchers);
            let dsl_compile_ms = load_dsl(cmi, dsl_src);
            *parts.lock().expect("setup parts") = SetupParts {
                dir_provision_s,
                dsl_compile_ms,
            };
        });
    let viewer = cluster.connect(FED_SUBSCRIBER, "w0", ClientConfig::default())?;
    viewer.viewer().subscribe()?;
    // Until the sign-on has gossiped everywhere, a notification detected on
    // another node parks there instead of routing back.
    let deadline = Instant::now() + Duration::from_secs(10);
    for i in 0..FED_NODES {
        if i == FED_SUBSCRIBER {
            continue;
        }
        while cluster
            .node(i)
            .core()
            .remote_signon_count(FED_SUBSCRIBER as u32)
            == 0
        {
            if Instant::now() >= deadline {
                return Err(std::io::Error::other("sign-on gossip never converged"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let parts = *parts.lock().expect("setup parts");
    Ok((Fed { viewer, cluster }, parts))
}

/// `enact_lifecycle`: one unsharded in-process server running the paper's
/// §5.4 task-force scenario, with the mining log on the path.
pub struct Enact {
    pub cmi: CmiServer,
    pub schemas: TaskForceSchemas,
    pub gather_var: ActivityVarId,
    pub leaders: Vec<UserId>,
    pub members: Vec<UserId>,
    pub mine: Option<Arc<MineLog>>,
}

pub fn enact(with_mine: bool) -> (Enact, SetupParts) {
    let cmi = CmiServer::new();
    let mine = with_mine.then(|| cmi.enable_mine_log(MINE_CAPACITY));
    let t0 = Instant::now();
    let dir = cmi.directory();
    let leaders: Vec<UserId> = (0..ENACT_LEADERS)
        .map(|i| dir.add_user(&format!("lead{i}")))
        .collect();
    let members: Vec<UserId> = (0..ENACT_MEMBERS)
        .map(|i| dir.add_user(&format!("mem{i}")))
        .collect();
    let epi = dir.add_role("epidemiologist").expect("role epidemiologist");
    dir.assign_many(&members, epi)
        .expect("assign epidemiologists");
    let dir_provision_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let schemas = taskforce::install(&cmi);
    let dsl_compile_ms = t1.elapsed().as_secs_f64() * 1e3;
    let gather_var = gather_var(&cmi, schemas.info_request);
    (
        Enact {
            cmi,
            schemas,
            gather_var,
            leaders,
            members,
            mine,
        },
        SetupParts {
            dir_provision_s,
            dsl_compile_ms,
        },
    )
}

fn gather_var(cmi: &CmiServer, info_request: ActivitySchemaId) -> ActivityVarId {
    cmi.repository()
        .activity_schema(info_request)
        .expect("InfoRequest schema")
        .activity_var("gather")
        .expect("gather variable")
        .id
}

/// The oracle: unsharded, unfederated, sessionless, in-memory — the same
/// schemas and recipients built by the same calls. The `staff` crowd is
/// left out: it is provisioned after the recipients (so their ids agree)
/// and no schema delivers to it.
pub fn oracle_world(workload: Workload) -> (CmiServer, Vec<UserId>) {
    let cmi = CmiServer::new();
    let (dsl_src, _, watchers) = world_of(workload);
    let (recipients, _) = provision(&cmi, 0, watchers);
    load_dsl(&cmi, dsl_src);
    (cmi, recipients)
}

/// A bare awareness engine over the workload's world (slice S1/S2): same
/// directory, same schemas, a caller-chosen queue and registry, reached
/// through the public `AwarenessEngine::with_obs`.
pub struct BareAwareness {
    pub engine: AwarenessEngine,
    pub recipients: Vec<UserId>,
    pub schemas: Vec<AwarenessSchema>,
    _scratch: Option<Scratch>,
}

pub fn bare_awareness(
    workload: Workload,
    durable: bool,
    shards: usize,
    obs: ObsRegistry,
) -> std::io::Result<BareAwareness> {
    // A throwaway server supplies the schema repository the DSL resolves
    // process names against, and the provisioned directory.
    let world = CmiServer::new();
    let (dsl_src, members, watchers) = world_of(workload);
    let (recipients, _) = provision(&world, members, watchers);
    let mut next = 1u64;
    let schemas = dsl::parse(dsl_src, world.repository(), &mut next).expect("awareness DSL parses");
    let (queue, scratch) = if durable {
        let scratch = Scratch::new("slice-wal")?;
        let q = DeliveryQueue::open(&scratch.path("queue.wal"))?;
        (q, Some(scratch))
    } else {
        (DeliveryQueue::in_memory(), None)
    };
    let directory: Arc<Directory> = world.directory().clone();
    let contexts = Arc::new(ContextManager::new(Arc::new(SimClock::new())));
    let engine =
        AwarenessEngine::with_obs(directory, contexts, Arc::new(queue), shards, Arc::new(obs));
    for s in &schemas {
        engine.register(s.clone());
    }
    Ok(BareAwareness {
        engine,
        recipients,
        schemas,
        _scratch: scratch,
    })
}

/// A bare sharded detector over `schemas` (slice S0).
pub fn bare_detector(schemas: &[AwarenessSchema], shards: usize) -> ShardedEngine {
    let mut det = ShardedEngine::new(shards);
    det.set_obs(Arc::new(ObsRegistry::new()));
    for s in schemas {
        det.add_spec(&s.description);
    }
    det
}
