//! The CMI network server: the server half of the Fig. 5 client/server
//! split.
//!
//! A [`NetServer`] fronts a [`CmiServer`] behind any [`Listener`]. The
//! server is event-driven and Unix-only (`epoll` on Linux, `poll(2)` on
//! other Unix — see [`crate::reactor`]): every connection is switched to
//! non-blocking mode and owned by one of a small fixed pool of event-loop
//! threads, the first of which also owns the listener. Readiness events
//! feed decoded frames to the per-session protocol state machine
//! ([`SessionCore`], which performs no I/O and emits encoded bytes into an
//! out-buffer), write interest is toggled around the bounded push window, a
//! timer wheel holds the idle deadlines, and the persistent queue's enqueue
//! hook wakes the loops exactly when there is push work. Nothing polls on a
//! timer.
//!
//! Robustness properties, by construction:
//!
//! * **Sign-on is observable** — `Hello` / `SignOff` / disconnect drive
//!   [`Directory::set_signed_on`] through a per-user reference count, so the
//!   `SignedOn` role-assignment function (§5.3) sees exactly the users with
//!   at least one live session.
//! * **No notification is lost to a slow or dead consumer** — pushes are
//!   *copies* of queue entries; a notification leaves the persistent queue
//!   only when the client acknowledges it. The per-session push window
//!   bounds in-flight data, and anything beyond it simply stays parked in
//!   the queue.
//! * **No duplicate acknowledgement** — a session acks only sequence numbers
//!   it currently has in flight, so replayed or raced `AckNotifs` requests
//!   cannot double-ack (and cannot double-decrement the user's load figure).
//! * **Graceful drain** — shutdown closes the listener, lets every session
//!   flush its pending writes, sends `Goodbye`, signs users off and joins
//!   the event loops.
//!
//! [`Directory::set_signed_on`]: cmi_core::directory::Directory::set_signed_on

use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use cmi_awareness::system::CmiServer;
use cmi_awareness::viewer::AwarenessViewer;
use cmi_core::ids::UserId;
use cmi_coord::monitor::ProcessMonitor;
use cmi_coord::worklist::Worklist;
use cmi_obs::{Counter, FlightKind, Gauge, Histogram, ObsRegistry, LATENCY_BUCKETS_NS};

use crate::codec::{encode_frame, Frame, FrameKind, FrameReader};
use crate::reactor::{Event, Interest, Poller, TimerWheel, WakeQueue};
use crate::transport::{
    loopback, EventSource, Listener, LoopbackConnector, NetStream, PipeSignal, TcpAcceptor,
};
use crate::window::SendWindow;
use crate::wire::{encode_push, Request, Response};

/// The session engine. There is one; the frozen benchmark harness
/// (`ledger/`) names this enum, and the next `benchmark` PR drops it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetBackend {
    /// The event-loop pool described in the module docs.
    #[default]
    Reactor,
}

/// Tuning knobs for a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// A session with no inbound frame for this long is closed (the client
    /// heartbeat must be comfortably shorter).
    pub idle_timeout: Duration,
    /// Maximum unacknowledged pushed notifications per session; beyond this
    /// the consumer is considered slow and further notifications stay parked
    /// in the persistent queue.
    pub push_window: usize,
    /// Hard cap on concurrent sessions; connections beyond it are refused.
    pub max_sessions: usize,
    /// Carries no information: the frozen benchmark harness (`ledger/`)
    /// names this field, and the next `benchmark` PR drops it.
    pub backend: NetBackend,
    /// Number of event-loop threads. Sessions are assigned round-robin at
    /// accept time.
    pub reactor_threads: usize,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            idle_timeout: Duration::from_secs(5),
            push_window: 32,
            max_sessions: 1024,
            backend: NetBackend::Reactor,
            reactor_threads: 2,
        }
    }
}

/// The server's metric series names; [`NetStats`] is a view over these
/// registry counters, so the numbers in the Prometheus exposition, the
/// wire telemetry, and `NetServer::stats()` are one set of cells.
mod series {
    pub const SESSIONS_OPENED: &str = "cmi_net_sessions_opened";
    pub const SESSIONS_CLOSED: &str = "cmi_net_sessions_closed";
    pub const FRAMES_IN: &str = "cmi_net_frames_in";
    pub const FRAMES_OUT: &str = "cmi_net_frames_out";
    pub const REQUESTS: &str = "cmi_net_requests";
    pub const PUSHES: &str = "cmi_net_pushes";
    pub const ACKED: &str = "cmi_net_acked";
    pub const PROTOCOL_ERRORS: &str = "cmi_net_protocol_errors";
    pub const IDLE_TIMEOUTS: &str = "cmi_net_idle_timeouts";
    pub const SLOW_CONSUMER_PARKS: &str = "cmi_net_slow_consumer_parks";
    pub const REFUSED_SESSIONS: &str = "cmi_net_refused_sessions";
    /// Event-loop iterations across all loops.
    pub const REACTOR_LOOP_ITERATIONS: &str = "cmi_reactor_loop_iterations";
    /// Poll wakeups that delivered at least one readiness event (the batch
    /// count; divide ready events by this for batch size).
    pub const REACTOR_READY_BATCHES: &str = "cmi_reactor_ready_batches";
    /// Readiness events delivered.
    pub const REACTOR_READY_EVENTS: &str = "cmi_reactor_ready_events";
    /// Sessions currently owned, gauged per loop (label `worker`).
    pub const REACTOR_SESSIONS: &str = "cmi_reactor_sessions";
    /// Latency from a cross-thread wakeup submission (queue enqueue hook,
    /// pipe readiness edge) to the owning loop picking it up.
    pub const REACTOR_WAKEUP_NS: &str = "cmi_reactor_wakeup_ns";
}

/// Registry counter handles for server activity (see [`series`]).
#[derive(Debug)]
struct StatCounters {
    sessions_opened: Counter,
    sessions_closed: Counter,
    frames_in: Counter,
    frames_out: Counter,
    requests: Counter,
    pushes: Counter,
    acked: Counter,
    protocol_errors: Counter,
    idle_timeouts: Counter,
    slow_consumer_parks: Counter,
    refused_sessions: Counter,
}

impl StatCounters {
    fn new(obs: &ObsRegistry) -> StatCounters {
        StatCounters {
            sessions_opened: obs.counter(series::SESSIONS_OPENED),
            sessions_closed: obs.counter(series::SESSIONS_CLOSED),
            frames_in: obs.counter(series::FRAMES_IN),
            frames_out: obs.counter(series::FRAMES_OUT),
            requests: obs.counter(series::REQUESTS),
            pushes: obs.counter(series::PUSHES),
            acked: obs.counter(series::ACKED),
            protocol_errors: obs.counter(series::PROTOCOL_ERRORS),
            idle_timeouts: obs.counter(series::IDLE_TIMEOUTS),
            slow_consumer_parks: obs.counter(series::SLOW_CONSUMER_PARKS),
            refused_sessions: obs.counter(series::REFUSED_SESSIONS),
        }
    }
}

/// A snapshot of [`NetServer`] statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Sessions accepted over the server's lifetime.
    pub sessions_opened: u64,
    /// Sessions that have ended.
    pub sessions_closed: u64,
    /// Frames received (any kind).
    pub frames_in: u64,
    /// Frames sent (any kind).
    pub frames_out: u64,
    /// Requests dispatched.
    pub requests: u64,
    /// Notifications pushed to subscribed sessions.
    pub pushes: u64,
    /// Notifications acknowledged by clients.
    pub acked: u64,
    /// Frames rejected by the codec (bad magic/version/checksum/oversize)
    /// or undecodable payloads.
    pub protocol_errors: u64,
    /// Sessions closed for exceeding the idle timeout.
    pub idle_timeouts: u64,
    /// Times a session's push window was full while notifications remained
    /// parked in the persistent queue (slow-consumer degradation).
    pub slow_consumer_parks: u64,
    /// Connections refused because `max_sessions` was reached.
    pub refused_sessions: u64,
}

/// Hooks a federation layer (see the `cmi-fed` crate) installs into a
/// serving [`NetServer`].
///
/// The server consults the hooks at two points:
///
/// * every decoded request is offered to [`FederationHooks::handle`] before
///   default dispatch, so the federation layer can service the peer
///   protocol (`Request::Fed*`) and intercept `ExternalEvent` to forward
///   non-owned instances to their owning node;
/// * every 0↔1 edge of a user's local signed-on session count is reported
///   through [`FederationHooks::signed_on_edge`] (outside the server's
///   sign-on lock), which drives directory gossip to peer nodes.
pub trait FederationHooks: Send + Sync {
    /// Offers a decoded request before default dispatch. Returning `Some`
    /// short-circuits the request; `None` falls through to the server's
    /// normal handling.
    fn handle(&self, req: &Request) -> Option<Response>;
    /// The user's signed-on session count on this server crossed the 0↔1
    /// edge (`on` = signed on).
    fn signed_on_edge(&self, user: UserId, on: bool);
}

struct Inner {
    cmi: Arc<CmiServer>,
    cfg: NetConfig,
    /// The `CmiServer`'s registry; all net counters live here so one
    /// snapshot covers engine, delivery, queue and transport.
    obs: Arc<ObsRegistry>,
    stop: AtomicBool,
    stats: StatCounters,
    /// Sessions signed on per user; `set_signed_on` toggles on 0↔1 edges.
    signons: Mutex<BTreeMap<UserId, usize>>,
    live_sessions: AtomicU64,
    transport_label: String,
    /// Federation hooks, when this server is a cluster node.
    fed: Option<Arc<dyn FederationHooks>>,
}

impl Inner {
    fn sign_on(&self, user: UserId) {
        let edge = {
            let mut map = self.signons.lock();
            let count = map.entry(user).or_insert(0);
            *count += 1;
            if *count == 1 {
                let _ = self.cmi.directory().set_signed_on(user, true);
                true
            } else {
                false
            }
        };
        if edge {
            if let Some(fed) = &self.fed {
                fed.signed_on_edge(user, true);
            }
        }
    }

    fn sign_off(&self, user: UserId) {
        let edge = {
            let mut map = self.signons.lock();
            match map.get_mut(&user) {
                Some(count) => {
                    *count = count.saturating_sub(1);
                    if *count == 0 {
                        map.remove(&user);
                        let _ = self.cmi.directory().set_signed_on(user, false);
                        true
                    } else {
                        false
                    }
                }
                None => false,
            }
        };
        if edge {
            if let Some(fed) = &self.fed {
                fed.signed_on_edge(user, false);
            }
        }
    }

    /// Session-closed accounting shared by every close path.
    fn session_closed(&self) {
        self.live_sessions.fetch_sub(1, Ordering::Relaxed);
        self.stats.sessions_closed.inc();
    }
}

/// The network front of a [`CmiServer`].
pub struct NetServer {
    inner: Arc<Inner>,
    /// Submission side of every event loop.
    handles: Arc<Vec<LoopHandle>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl NetServer {
    /// Serves `cmi` behind an arbitrary listener.
    pub fn serve(cmi: Arc<CmiServer>, listener: Box<dyn Listener>, cfg: NetConfig) -> NetServer {
        NetServer::serve_with_federation(cmi, listener, cfg, None)
    }

    /// Serves `cmi` behind an arbitrary listener, with federation hooks
    /// installed when this server is one node of a cluster (see
    /// [`FederationHooks`] and the `cmi-fed` crate).
    pub fn serve_with_federation(
        cmi: Arc<CmiServer>,
        listener: Box<dyn Listener>,
        cfg: NetConfig,
        fed: Option<Arc<dyn FederationHooks>>,
    ) -> NetServer {
        let obs = Arc::clone(cmi.obs());
        let stats = StatCounters::new(&obs);
        let inner = Arc::new(Inner {
            cmi,
            cfg,
            obs,
            stop: AtomicBool::new(false),
            stats,
            signons: Mutex::new(BTreeMap::new()),
            live_sessions: AtomicU64::new(0),
            transport_label: listener.label(),
            fed,
        });
        // Every loop sees the full handle vector before any loop runs, so
        // the accepting loop can distribute sessions immediately.
        let handles: Arc<Vec<LoopHandle>> = Arc::new(
            (0..inner.cfg.reactor_threads.max(1))
                .map(|_| LoopHandle {
                    cmds: Arc::new(WakeQueue::new()),
                    poller: Arc::new(Poller::new().expect("create poller")),
                })
                .collect(),
        );
        // The first loop owns the listener: accept readiness is just another
        // poll event, and accepted sessions are dealt round-robin across all
        // loops.
        let mut listener = Some(listener);
        let threads = (0..handles.len())
            .map(|i| {
                let event_loop = EventLoop::new(inner.clone(), handles.clone(), i, listener.take());
                std::thread::Builder::new()
                    .name(format!("cmi-net-loop-{i}"))
                    .spawn(move || event_loop.run())
                    .expect("spawn event loop")
            })
            .collect();
        // Hook the persistent queue's enqueue edge into loop wakeups: the
        // loops are kicked exactly when there is push work. The hook holds
        // only a weak reference so it unsubscribes itself once this server
        // is gone.
        let weak: Weak<Vec<LoopHandle>> = Arc::downgrade(&handles);
        inner
            .cmi
            .awareness()
            .queue()
            .subscribe_enqueue(Box::new(move |user| match weak.upgrade() {
                Some(handles) => {
                    let t0 = Instant::now();
                    for h in handles.iter() {
                        h.submit(LoopCmd::PushWork(user, t0));
                    }
                    true
                }
                None => false,
            }));
        NetServer {
            inner,
            handles,
            threads,
        }
    }

    /// Binds a TCP listener (use port 0 for an ephemeral port) and serves on
    /// it. Returns the server and the bound address.
    pub fn bind_tcp(
        cmi: Arc<CmiServer>,
        addr: &str,
        cfg: NetConfig,
    ) -> io::Result<(NetServer, std::net::SocketAddr)> {
        let acceptor = TcpAcceptor::bind(addr)?;
        let bound = acceptor.local_addr();
        Ok((NetServer::serve(cmi, Box::new(acceptor), cfg), bound))
    }

    /// Serves over the deterministic in-memory loopback transport. The
    /// returned connector dials new connections to this server.
    pub fn serve_loopback(cmi: Arc<CmiServer>, cfg: NetConfig) -> (NetServer, LoopbackConnector) {
        let (listener, connector) = loopback();
        (NetServer::serve(cmi, Box::new(listener), cfg), connector)
    }

    /// [`NetServer::serve_loopback`] with federation hooks installed.
    pub fn serve_loopback_with_federation(
        cmi: Arc<CmiServer>,
        cfg: NetConfig,
        fed: Option<Arc<dyn FederationHooks>>,
    ) -> (NetServer, LoopbackConnector) {
        let (listener, connector) = loopback();
        (
            NetServer::serve_with_federation(cmi, Box::new(listener), cfg, fed),
            connector,
        )
    }

    /// Current statistics snapshot — a view over the shared
    /// [`ObsRegistry`], read through one registry snapshot so the fields
    /// are mutually consistent (no torn reads across counters).
    pub fn stats(&self) -> NetStats {
        let snap = self.inner.obs.snapshot();
        let c = |name: &str| snap.counter(name).unwrap_or(0);
        NetStats {
            sessions_opened: c(series::SESSIONS_OPENED),
            sessions_closed: c(series::SESSIONS_CLOSED),
            frames_in: c(series::FRAMES_IN),
            frames_out: c(series::FRAMES_OUT),
            requests: c(series::REQUESTS),
            pushes: c(series::PUSHES),
            acked: c(series::ACKED),
            protocol_errors: c(series::PROTOCOL_ERRORS),
            idle_timeouts: c(series::IDLE_TIMEOUTS),
            slow_consumer_parks: c(series::SLOW_CONSUMER_PARKS),
            refused_sessions: c(series::REFUSED_SESSIONS),
        }
    }

    /// The observability registry shared with the fronted [`CmiServer`].
    pub fn obs(&self) -> &Arc<ObsRegistry> {
        &self.inner.obs
    }

    /// Number of currently live sessions.
    pub fn session_count(&self) -> usize {
        self.inner.live_sessions.load(Ordering::Relaxed) as usize
    }

    /// Users with at least one signed-on session through this server.
    pub fn signed_on_users(&self) -> Vec<UserId> {
        self.inner.signons.lock().keys().copied().collect()
    }

    /// The Fig. 5 component diagram of the fronted [`CmiServer`] extended
    /// with the live transport wiring (listener, event loops, sessions,
    /// push stats).
    pub fn architecture_diagram(&self) -> String {
        let base = self.inner.cmi.architecture_diagram();
        let stats = self.stats();
        let net = format!(
            "Transport (cmi-net)\n\
             ├─ listener           : {} (wire protocol v{}, {}-byte frame header)\n\
             ├─ event loops        : {}\n\
             ├─ sessions           : {} live / {} opened ({} signed-on users)\n\
             ├─ delivery push      : {} pushed, {} acked, {} parked on slow consumers\n\
             └─ robustness         : {} protocol errors rejected, {} idle timeouts\n",
            self.inner.transport_label,
            crate::codec::VERSION,
            crate::codec::HEADER_LEN,
            self.handles.len(),
            self.session_count(),
            stats.sessions_opened,
            self.inner.signons.lock().len(),
            stats.pushes,
            stats.acked,
            stats.slow_consumer_parks,
            stats.protocol_errors,
            stats.idle_timeouts,
        );
        // Splice the transport block between the engine stack and the
        // clients, where Fig. 5 draws the client/server boundary.
        match base.find("Clients\n") {
            Some(idx) => format!("{}{}{}", &base[..idx], net, &base[idx..]),
            None => format!("{base}{net}"),
        }
    }

    /// Stops accepting, drains and closes every session (each sends
    /// `Goodbye` after flushing), signs users off, and joins the loops.
    pub fn shutdown(mut self) -> NetStats {
        self.stop_and_join();
        self.stats()
    }

    fn stop_and_join(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        for h in self.handles.iter() {
            h.poller.wake();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Close (with accounting) any connection the accepting loop dealt
        // to a loop that had already exited.
        for h in self.handles.iter() {
            for cmd in h.cmds.drain() {
                if let LoopCmd::NewSession(stream) = cmd {
                    stream.shutdown_stream();
                    self.inner.session_closed();
                }
            }
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Admission control: either counts the session as opened and live
/// (returning `true`), or refuses it with accounting (the caller then
/// shuts the stream down).
fn admit_session(inner: &Inner) -> bool {
    if inner.live_sessions.load(Ordering::Relaxed) as usize >= inner.cfg.max_sessions {
        inner.stats.refused_sessions.inc();
        inner
            .obs
            .flight()
            .record(FlightKind::SessionClose, "refused: max_sessions reached");
        return false;
    }
    inner.stats.sessions_opened.inc();
    inner.obs.flight().record(
        FlightKind::SessionOpen,
        format!("accepted over {}", inner.transport_label),
    );
    inner.live_sessions.fetch_add(1, Ordering::Relaxed);
    true
}

/// Why a session ended.
enum Exit {
    PeerClosed,
    Protocol,
    IdleTimeout,
    Drain,
}

/// The per-session protocol state machine. It performs no I/O: complete
/// inbound frames are fed to [`SessionCore::handle_frame`], and every
/// outbound frame is appended to [`SessionCore::out`] for the owning event
/// loop to write as the stream accepts it.
struct SessionCore {
    inner: Arc<Inner>,
    /// Set by a successful `Hello`.
    user: Option<UserId>,
    viewer: Option<AwarenessViewer>,
    subscribed: bool,
    /// Pushed-but-unacknowledged sequence numbers — the same bounded
    /// [`SendWindow`] the federation data plane uses for its batch and
    /// notify flights.
    in_flight: SendWindow,
    /// Whether the last push pass left notifications parked (the flight
    /// recorder logs only the park/unpark *transitions*, not every pass).
    parked: bool,
    /// Encoded frames awaiting transmission.
    out: Vec<u8>,
}

impl SessionCore {
    fn new(inner: Arc<Inner>) -> SessionCore {
        let in_flight = SendWindow::new(inner.cfg.push_window);
        SessionCore {
            inner,
            user: None,
            viewer: None,
            subscribed: false,
            in_flight,
            parked: false,
            out: Vec::new(),
        }
    }

    /// Encodes a frame into the out-buffer.
    fn queue_frame(&mut self, kind: FrameKind, payload: &[u8]) {
        self.out.extend_from_slice(&encode_frame(kind, payload));
        self.inner.stats.frames_out.inc();
    }

    /// Consumes one inbound frame. Returns `Ok(false)` on client `Goodbye`,
    /// `Err` on fatal conditions.
    fn handle_frame(&mut self, frame: Frame) -> Result<bool, Exit> {
        match frame.kind {
            FrameKind::Ping => {
                self.queue_frame(FrameKind::Pong, &[]);
                Ok(true)
            }
            FrameKind::Goodbye => Ok(false),
            FrameKind::Request => {
                self.inner.stats.requests.inc();
                let response = match Request::decode(&frame.payload) {
                    Ok(req) => self.dispatch(req),
                    Err(e) => {
                        self.inner.stats.protocol_errors.inc();
                        self.inner.obs.flight().record(
                            FlightKind::ProtocolError,
                            format!("undecodable request: {e}"),
                        );
                        Response::Err {
                            message: e.to_string(),
                        }
                    }
                };
                self.queue_frame(FrameKind::Response, &response.encode());
                Ok(true)
            }
            // Clients never send Response/Push/Pong; treat as protocol abuse.
            FrameKind::Response | FrameKind::Push | FrameKind::Pong => Err(Exit::Protocol),
        }
    }

    /// Queues pending notifications up to the window. Notifications stay in
    /// the persistent queue until acknowledged, so nothing here can lose
    /// data: a full window or a dead socket just leaves them parked.
    fn push_pending(&mut self) {
        if !self.subscribed {
            return;
        }
        let Some(user) = self.user else {
            return;
        };
        if !self.in_flight.has_room() {
            return;
        }
        let queue = self.inner.cmi.awareness().queue();
        // Everything pending for the user, oldest first; the in-flight
        // window filters what this session already sent and awaits acks for.
        let pending = queue.fetch(user, self.in_flight.capacity() + self.in_flight.len());
        let mut parked = false;
        for n in pending {
            if self.in_flight.contains(n.seq) {
                continue;
            }
            if !self.in_flight.claim(n.seq) {
                parked = true;
                break;
            }
            self.queue_frame(FrameKind::Push, &encode_push(&n));
            self.inner.stats.pushes.inc();
            // Extend the notification's detection trace (if any) with the
            // moment it crossed the wire.
            self.inner.obs.tracer().stage_for_seq(n.seq, "push");
        }
        if parked {
            self.inner.stats.slow_consumer_parks.inc();
            if !self.parked {
                self.parked = true;
                self.inner.obs.flight().record(
                    FlightKind::QueuePark,
                    format!("push window full ({} in flight)", self.in_flight.len()),
                );
            }
        } else if self.parked {
            self.parked = false;
            self.inner
                .obs
                .flight()
                .record(FlightKind::QueueUnpark, "push window drained");
        }
    }

    /// Terminal bookkeeping: sign-off, exit-reason counters, flight record.
    fn finish(&mut self, exit: Exit) {
        if let Some(user) = self.user.take() {
            self.inner.sign_off(user);
        }
        let reason = match exit {
            Exit::IdleTimeout => {
                self.inner.stats.idle_timeouts.inc();
                "idle timeout"
            }
            Exit::Protocol => {
                self.inner.stats.protocol_errors.inc();
                self.inner
                    .obs
                    .flight()
                    .record(FlightKind::ProtocolError, "session aborted: bad frame");
                "protocol error"
            }
            Exit::PeerClosed => "peer closed",
            Exit::Drain => "server drain",
        };
        self.inner
            .obs
            .flight()
            .record(FlightKind::SessionClose, reason);
    }

    fn dispatch(&mut self, req: Request) -> Response {
        let cmi = &self.inner.cmi;
        let fail = |message: String| Response::Err { message };
        // A federated node sees every request first: the hooks service the
        // peer protocol (`Fed*`) and intercept `ExternalEvent` to forward
        // events whose routing instances this node does not own.
        if let Some(fed) = &self.inner.fed {
            if let Some(resp) = fed.handle(&req) {
                return resp;
            }
        }
        match req {
            Request::Hello { user, resume: _ } => {
                let Some(id) = cmi.directory().user_by_name(&user) else {
                    return fail(format!("unknown participant {user:?}"));
                };
                if let Some(prev) = self.user.take() {
                    self.inner.sign_off(prev);
                }
                self.inner.sign_on(id);
                match AwarenessViewer::sign_on(
                    cmi.awareness().queue().clone(),
                    cmi.directory().clone(),
                    id,
                ) {
                    Ok(viewer) => {
                        self.user = Some(id);
                        self.viewer = Some(viewer);
                        Response::HelloOk { user: id.raw() }
                    }
                    Err(e) => {
                        self.inner.sign_off(id);
                        fail(e.to_string())
                    }
                }
            }
            Request::SignOff => {
                if let Some(user) = self.user.take() {
                    self.inner.sign_off(user);
                }
                self.viewer = None;
                self.subscribed = false;
                self.in_flight.clear();
                Response::Ok
            }
            Request::WorklistForUser => match self.user {
                Some(user) => match Worklist::new(cmi.coordination().clone()).for_user(user) {
                    Ok(items) => Response::WorkItems(items),
                    Err(e) => fail(e.to_string()),
                },
                None => fail("not signed on".into()),
            },
            Request::WorklistAllOpen => {
                match Worklist::new(cmi.coordination().clone()).all_open() {
                    Ok(items) => Response::WorkItems(items),
                    Err(e) => fail(e.to_string()),
                }
            }
            Request::Claim { instance } => match self.user {
                Some(user) => match Worklist::new(cmi.coordination().clone())
                    .claim(user, cmi_core::ids::ActivityInstanceId(instance))
                {
                    Ok(()) => Response::Ok,
                    Err(e) => fail(e.to_string()),
                },
                None => fail("not signed on".into()),
            },
            Request::Complete { instance } => match self.user {
                Some(user) => match Worklist::new(cmi.coordination().clone())
                    .complete(user, cmi_core::ids::ActivityInstanceId(instance))
                {
                    Ok(()) => Response::Ok,
                    Err(e) => fail(e.to_string()),
                },
                None => fail("not signed on".into()),
            },
            Request::Peek { max } => match &self.viewer {
                Some(v) => Response::Notifications(v.peek(max as usize)),
                None => fail("not signed on".into()),
            },
            Request::Take { max } => match &self.viewer {
                Some(v) => Response::Notifications(v.take(max as usize)),
                None => fail("not signed on".into()),
            },
            Request::TakePrioritized { max } => match &self.viewer {
                Some(v) => Response::Notifications(v.take_prioritized(max as usize)),
                None => fail("not signed on".into()),
            },
            Request::Digest => match &self.viewer {
                Some(v) => Response::DigestEntries(v.digest()),
                None => fail("not signed on".into()),
            },
            Request::Unread => match &self.viewer {
                Some(v) => Response::Count(v.unread() as u64),
                None => fail("not signed on".into()),
            },
            Request::ExternalEvent { source, fields } => {
                Response::Count(cmi.external_event(&source, fields) as u64)
            }
            Request::Subscribe => match self.user {
                Some(_) => {
                    self.subscribed = true;
                    Response::Ok
                }
                None => fail("not signed on".into()),
            },
            Request::AckNotifs { seqs } => {
                let Some(user) = self.user else {
                    return fail("not signed on".into());
                };
                // Free the push window for anything this session had in
                // flight; acknowledgement itself goes through `ack_exact`,
                // which only removes seqs actually pending — so a replayed
                // ack (reconnect race) is a no-op and the load figure is
                // decremented exactly once per notification. Acks for seqs
                // this session never pushed are also honored: a reconnecting
                // client flushes acks for deliveries made over its previous
                // session.
                for s in &seqs {
                    self.in_flight.release(*s);
                }
                match cmi.awareness().queue().ack_exact(user, &seqs) {
                    Ok(n) => {
                        let _ = cmi.directory().adjust_load(user, -(n as i32));
                        self.inner.stats.acked.add(n as u64);
                        let tracer = self.inner.obs.tracer();
                        for s in &seqs {
                            // No-op for seqs without a bound trace (replays,
                            // evicted traces, untraced detections).
                            tracer.stage_for_seq(*s, "ack");
                        }
                        Response::Count(n as u64)
                    }
                    Err(e) => fail(e.to_string()),
                }
            }
            Request::MonitorStats { root } => {
                let monitor = ProcessMonitor::new(cmi.store().clone(), cmi.contexts().clone());
                match monitor.stats(cmi_core::ids::ProcessInstanceId(root)) {
                    Ok(stats) => Response::Stats(stats),
                    Err(e) => fail(e.to_string()),
                }
            }
            Request::MonitorRender { root } => {
                let monitor = ProcessMonitor::new(cmi.store().clone(), cmi.contexts().clone());
                match monitor.render(cmi_core::ids::ProcessInstanceId(root)) {
                    Ok(text) => Response::Text(text),
                    Err(e) => fail(e.to_string()),
                }
            }
            Request::Telemetry {
                trace_seq,
                include_flight,
                // Cluster-wide merges are intercepted by the federation
                // hooks before dispatch reaches here; a standalone server
                // answers from local state regardless.
                cluster: _,
            } => {
                let obs = &self.inner.obs;
                Response::Telemetry {
                    exposition: obs.render_prometheus(),
                    trace: trace_seq
                        .and_then(|seq| obs.tracer().trace_for_seq(seq))
                        .map(|t| t.render()),
                    flight: include_flight.then(|| obs.flight().render()),
                }
            }
            // Standalone swap path: bump the local generation by one. On a
            // federated server the hooks intercepted this request above and
            // assigned a cluster generation instead.
            Request::SchemaSwap { source } => match cmi.hot_swap_awareness(&source) {
                Ok(report) => Response::Swapped {
                    generation: report.generation,
                    preserved: report.diff.preserved_nodes as u32,
                    added: report.diff.added_nodes as u32,
                    retired: report.diff.retired_nodes as u32,
                    moved: report.diff.partitions_moved as u64,
                    pause_us: report.pause.as_micros() as u64,
                },
                Err(e) => fail(e.to_string()),
            },
            Request::FetchLog { binary } => match cmi.mine_log() {
                Some(log) => Response::Log(if binary {
                    log.export_binary()
                } else {
                    log.export_xes().into_bytes()
                }),
                None => fail("no mining event log is enabled on this server".into()),
            },
            Request::FedHello { .. }
            | Request::FedEvent { .. }
            | Request::FedBatch { .. }
            | Request::FedNotify { .. }
            | Request::FedGossip { .. }
            | Request::FedDirSync { .. }
            | Request::FedViewChange { .. }
            | Request::FedViewFetch
            | Request::FedJoin { .. }
            | Request::FedLeave { .. }
            | Request::FedEvict { .. }
            | Request::FedHandoff { .. }
            | Request::FedMigrateDone { .. }
            | Request::FedTelemetry { .. }
            | Request::FedSchemaSwap { .. } => {
                fail("federation is not enabled on this server".into())
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The event loops: a fixed pool multiplexing all sessions
// ---------------------------------------------------------------------------

/// Timer-wheel entry kind: per-session idle deadline.
const TIMER_IDLE: u32 = 0;

/// Upper bound on a loop's park time, so a lost wakeup degrades to a
/// short stall instead of a hang.
const MAX_PARK: Duration = Duration::from_millis(500);

/// Poller token reserved for the listener's accept readiness (the
/// poller itself reserves `u64::MAX` for wakeups; session tokens count
/// up from zero and can never collide).
const ACCEPT_TOKEN: u64 = u64::MAX - 1;

/// Cross-thread work submitted to one event loop.
enum LoopCmd {
    /// A freshly accepted connection (already counted as opened/live).
    NewSession(Box<dyn NetStream>),
    /// The persistent queue enqueued a notification for this user; any
    /// subscribed session of theirs owned by this loop should push.
    PushWork(UserId, Instant),
    /// A loopback pipe's readable-edge waker fired for this session.
    PipeReady(u64, Instant),
    /// The listener's accept waker fired (descriptor-less transports).
    AcceptReady(Instant),
}

/// The submission side of one event loop (shared with the accepting loop
/// and the queue's enqueue hook).
struct LoopHandle {
    cmds: Arc<WakeQueue<LoopCmd>>,
    poller: Arc<Poller>,
}

impl LoopHandle {
    fn submit(&self, cmd: LoopCmd) {
        self.cmds.push(cmd);
        self.poller.wake();
    }
}

/// One session as owned by an event loop.
struct Session {
    core: SessionCore,
    /// The sole stream handle, in non-blocking mode; the loop both
    /// reads and writes it (single-threaded, so no writer lock).
    stream: Box<dyn NetStream>,
    frames: FrameReader,
    /// Kernel-pollable sources register this fd with the poller.
    fd: Option<i32>,
    /// Loopback pipes install a waker instead; kept to clear on close.
    signal: Option<PipeSignal>,
    /// Currently armed interest (fd sources only).
    interest: Interest,
    last_activity: Instant,
    /// The user this session is filed under in the loop's push index.
    indexed_user: Option<UserId>,
}

/// One event-loop thread: readiness events, userspace wakeups and the
/// timer wheel drive every session state machine this loop owns.
struct EventLoop {
    inner: Arc<Inner>,
    poller: Arc<Poller>,
    cmds: Arc<WakeQueue<LoopCmd>>,
    sessions: BTreeMap<u64, Session>,
    /// Sessions by signed-on user, for targeted push wakeups.
    by_user: BTreeMap<UserId, BTreeSet<u64>>,
    wheel: TimerWheel,
    next_token: u64,
    /// This loop's position in `handles` (self-dispatch shortcut).
    index: usize,
    /// Submission handles of every loop, for round-robin accept.
    handles: Arc<Vec<LoopHandle>>,
    /// Readiness accept: the listener this loop owns, if any.
    listener: Option<Box<dyn Listener>>,
    /// Round-robin cursor over `handles` for accepted sessions.
    next_dispatch: usize,
    iterations: Counter,
    ready_batches: Counter,
    ready_events: Counter,
    sessions_gauge: Gauge,
    wakeup_ns: Histogram,
}

impl EventLoop {
    fn new(
        inner: Arc<Inner>,
        handles: Arc<Vec<LoopHandle>>,
        index: usize,
        listener: Option<Box<dyn Listener>>,
    ) -> EventLoop {
        let obs = Arc::clone(&inner.obs);
        let poller = handles[index].poller.clone();
        let cmds = handles[index].cmds.clone();
        let granularity = (inner.cfg.idle_timeout / 8)
            .clamp(Duration::from_millis(1), Duration::from_millis(200));
        let worker = index.to_string();
        EventLoop {
            iterations: obs.counter(series::REACTOR_LOOP_ITERATIONS),
            ready_batches: obs.counter(series::REACTOR_READY_BATCHES),
            ready_events: obs.counter(series::REACTOR_READY_EVENTS),
            sessions_gauge: obs
                .metrics()
                .gauge_with(series::REACTOR_SESSIONS, &[("worker", &worker)]),
            wakeup_ns: obs.histogram(series::REACTOR_WAKEUP_NS, LATENCY_BUCKETS_NS),
            wheel: TimerWheel::new(64, granularity),
            sessions: BTreeMap::new(),
            by_user: BTreeMap::new(),
            next_token: 0,
            index,
            handles,
            listener,
            next_dispatch: 0,
            inner,
            poller,
            cmds,
        }
    }

    /// Registers the owned listener's readiness source: the listening
    /// descriptor with the poller, or — for descriptor-less transports —
    /// an accept waker that submits [`LoopCmd::AcceptReady`].
    fn install_acceptor(&mut self) {
        let Some(listener) = &self.listener else {
            return;
        };
        match listener.accept_fd() {
            Some(fd) => {
                if self.poller.register(fd, ACCEPT_TOKEN, Interest::READ).is_err() {
                    // No accept readiness will ever arrive; fail closed.
                    self.close_listener();
                }
            }
            None => {
                let cmds = self.cmds.clone();
                let poller = self.poller.clone();
                listener.set_accept_waker(Some(Arc::new(move || {
                    cmds.push(LoopCmd::AcceptReady(Instant::now()));
                    poller.wake();
                })));
            }
        }
    }

    fn run(mut self) {
        self.install_acceptor();
        let mut events: Vec<Event> = Vec::new();
        let mut fired: Vec<(u64, u32)> = Vec::new();
        loop {
            self.iterations.inc();
            if self.inner.stop.load(Ordering::SeqCst) {
                self.drain_all();
                return;
            }
            for cmd in self.cmds.drain() {
                match cmd {
                    LoopCmd::NewSession(stream) => self.add_session(stream),
                    LoopCmd::PushWork(user, t0) => {
                        self.observe_wakeup(t0);
                        let toks: Vec<u64> = self
                            .by_user
                            .get(&user)
                            .map(|s| s.iter().copied().collect())
                            .unwrap_or_default();
                        for tok in toks {
                            self.push_and_flush(tok);
                        }
                    }
                    LoopCmd::PipeReady(tok, t0) => {
                        self.observe_wakeup(t0);
                        self.service_readable(tok);
                    }
                    LoopCmd::AcceptReady(t0) => {
                        self.observe_wakeup(t0);
                        self.drain_accept();
                    }
                }
            }
            let now = Instant::now();
            fired.clear();
            self.wheel.advance(now, &mut fired);
            for &(tok, kind) in &fired {
                debug_assert_eq!(kind, TIMER_IDLE);
                self.check_idle(tok);
            }
            self.sessions_gauge.set(self.sessions.len() as i64);
            events.clear();
            let timeout = self
                .wheel
                .next_timeout(Instant::now())
                .unwrap_or(MAX_PARK)
                .min(MAX_PARK);
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                // A dead poller means no more readiness; fail closed.
                self.drain_all();
                return;
            }
            if !events.is_empty() {
                self.ready_batches.inc();
                self.ready_events.add(events.len() as u64);
            }
            for ev in &events {
                if ev.token == ACCEPT_TOKEN {
                    self.drain_accept();
                    continue;
                }
                if ev.readable {
                    self.service_readable(ev.token);
                }
                if ev.writable {
                    self.flush(ev.token);
                }
            }
        }
    }

    fn observe_wakeup(&self, t0: Instant) {
        self.wakeup_ns
            .observe(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Accepts every pending connection (readiness accept), admitting
    /// each and dealing it round-robin across the pool — including this
    /// loop, which adds its share directly.
    fn drain_accept(&mut self) {
        loop {
            let verdict = match &self.listener {
                Some(listener) => listener.try_accept(),
                None => return,
            };
            match verdict {
                Ok(Some(stream)) => {
                    if !admit_session(&self.inner) {
                        stream.shutdown_stream();
                        continue;
                    }
                    let i = self.next_dispatch % self.handles.len();
                    self.next_dispatch = self.next_dispatch.wrapping_add(1);
                    if i == self.index {
                        self.add_session(stream);
                    } else {
                        self.handles[i].submit(LoopCmd::NewSession(stream));
                    }
                }
                Ok(None) => return,
                Err(_) => {
                    // Listener closed under us; release it.
                    self.close_listener();
                    return;
                }
            }
        }
    }

    /// Deregisters and closes the owned listener, if any.
    fn close_listener(&mut self) {
        if let Some(listener) = self.listener.take() {
            if let Some(fd) = listener.accept_fd() {
                let _ = self.poller.deregister(fd);
            }
            listener.set_accept_waker(None);
            listener.close();
        }
    }

    /// Registers a freshly accepted connection with this loop.
    fn add_session(&mut self, stream: Box<dyn NetStream>) {
        let tok = self.next_token;
        self.next_token += 1;
        if stream.set_nonblocking_stream(true).is_err() {
            self.abort_session(stream, "cannot enter non-blocking mode");
            return;
        }
        let (fd, signal) = match stream.event_source() {
            EventSource::Fd(fd) => {
                if self.poller.register(fd, tok, Interest::READ).is_err() {
                    self.abort_session(stream, "poller registration failed");
                    return;
                }
                (Some(fd), None)
            }
            EventSource::Signal(sig) => (None, Some(sig)),
        };
        let now = Instant::now();
        self.sessions.insert(
            tok,
            Session {
                core: SessionCore::new(self.inner.clone()),
                stream,
                frames: FrameReader::new(),
                fd,
                signal: None,
                interest: Interest::READ,
                last_activity: now,
                indexed_user: None,
            },
        );
        self.wheel
            .schedule(now + self.inner.cfg.idle_timeout, tok, TIMER_IDLE);
        if let Some(sig) = signal {
            // Installing the waker fires it immediately if bytes raced
            // ahead of registration, so an eager Hello is never missed.
            // (Kernel sources need no such care: epoll/poll interest is
            // level-triggered.)
            let cmds = self.cmds.clone();
            let poller = self.poller.clone();
            sig.set_waker(Some(Arc::new(move || {
                cmds.push(LoopCmd::PipeReady(tok, Instant::now()));
                poller.wake();
            })));
            self.sessions.get_mut(&tok).expect("just inserted").signal = Some(sig);
        }
    }

    /// Closes a connection this loop could not register.
    fn abort_session(&self, stream: Box<dyn NetStream>, why: &str) {
        stream.shutdown_stream();
        self.inner
            .obs
            .flight()
            .record(FlightKind::SessionClose, format!("refused: {why}"));
        self.inner.session_closed();
    }

    /// Reads until `WouldBlock`, feeding complete frames to the state
    /// machine, then pushes pending work and flushes.
    fn service_readable(&mut self, tok: u64) {
        let exit;
        {
            let Some(s) = self.sessions.get_mut(&tok) else {
                return;
            };
            let mut verdict = None;
            loop {
                match s.frames.poll(&mut *s.stream) {
                    Ok(Some(frame)) => {
                        self.inner.stats.frames_in.inc();
                        s.last_activity = Instant::now();
                        match s.core.handle_frame(frame) {
                            Ok(true) => {}
                            Ok(false) => {
                                verdict = Some(Exit::PeerClosed); // client Goodbye
                                break;
                            }
                            Err(e) => {
                                verdict = Some(e);
                                break;
                            }
                        }
                    }
                    Ok(None) => break, // drained to WouldBlock
                    Err(e) => {
                        verdict = Some(if e.kind() == io::ErrorKind::InvalidData {
                            Exit::Protocol
                        } else {
                            Exit::PeerClosed
                        });
                        break;
                    }
                }
            }
            // Acks freed window space and Subscribe wants its backlog:
            // one push pass per readable batch covers both.
            s.core.push_pending();
            exit = verdict;
        }
        self.reindex(tok);
        match exit {
            Some(e) => self.close_session(tok, e, false),
            None => self.flush(tok),
        }
    }

    /// Queues pending pushes for one session and flushes them.
    fn push_and_flush(&mut self, tok: u64) {
        match self.sessions.get_mut(&tok) {
            Some(s) => s.core.push_pending(),
            None => return,
        }
        self.flush(tok);
    }

    /// Writes the out-buffer until empty or `WouldBlock`, toggling
    /// write interest for kernel sources accordingly.
    fn flush(&mut self, tok: u64) {
        let mut broken = false;
        {
            let Some(s) = self.sessions.get_mut(&tok) else {
                return;
            };
            while !s.core.out.is_empty() {
                match s.stream.write(&s.core.out) {
                    Ok(0) => {
                        broken = true;
                        break;
                    }
                    Ok(n) => {
                        s.core.out.drain(..n);
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        broken = true;
                        break;
                    }
                }
            }
            let _ = s.stream.flush();
            if let Some(fd) = s.fd {
                let want = if s.core.out.is_empty() {
                    Interest::READ
                } else {
                    Interest::READ_WRITE
                };
                if want != s.interest && self.poller.rearm(fd, tok, want).is_ok() {
                    s.interest = want;
                }
            }
        }
        if broken {
            self.close_session(tok, Exit::PeerClosed, false);
        }
    }

    /// Fired idle timer: close a genuinely idle session, or re-arm for
    /// the remainder if there was activity since scheduling.
    fn check_idle(&mut self, tok: u64) {
        let idle = self.inner.cfg.idle_timeout;
        let since = match self.sessions.get(&tok) {
            Some(s) => s.last_activity.elapsed(),
            None => return, // stale timer for a closed session
        };
        if since >= idle {
            self.close_session(tok, Exit::IdleTimeout, true);
        } else {
            self.wheel
                .schedule(Instant::now() + (idle - since), tok, TIMER_IDLE);
        }
    }

    /// Keeps the `by_user` push index in step with the session's
    /// signed-on user (set by Hello, cleared by SignOff).
    fn reindex(&mut self, tok: u64) {
        let Some(s) = self.sessions.get_mut(&tok) else {
            return;
        };
        if s.indexed_user == s.core.user {
            return;
        }
        if let Some(u) = s.indexed_user.take() {
            if let Some(set) = self.by_user.get_mut(&u) {
                set.remove(&tok);
                if set.is_empty() {
                    self.by_user.remove(&u);
                }
            }
        }
        if let Some(u) = s.core.user {
            self.by_user.entry(u).or_default().insert(tok);
            s.indexed_user = Some(u);
        }
    }

    /// Removes a session: optional Goodbye, best-effort flush,
    /// deregistration, sign-off and accounting.
    fn close_session(&mut self, tok: u64, exit: Exit, goodbye: bool) {
        let Some(mut s) = self.sessions.remove(&tok) else {
            return;
        };
        if goodbye {
            s.core.queue_frame(FrameKind::Goodbye, &[]);
        }
        while !s.core.out.is_empty() {
            match s.stream.write(&s.core.out) {
                Ok(0) => break,
                Ok(n) => {
                    s.core.out.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break, // includes WouldBlock: best effort only
            }
        }
        let _ = s.stream.flush();
        if let Some(fd) = s.fd {
            let _ = self.poller.deregister(fd);
        }
        if let Some(sig) = s.signal.take() {
            sig.set_waker(None);
        }
        s.stream.shutdown_stream();
        if let Some(u) = s.indexed_user.take() {
            if let Some(set) = self.by_user.get_mut(&u) {
                set.remove(&tok);
                if set.is_empty() {
                    self.by_user.remove(&u);
                }
            }
        }
        s.core.finish(exit);
        self.inner.session_closed();
    }

    /// Server drain: stop accepting, then Goodbye + close every owned
    /// session.
    fn drain_all(&mut self) {
        self.close_listener();
        let toks: Vec<u64> = self.sessions.keys().copied().collect();
        for tok in toks {
            self.close_session(tok, Exit::Drain, true);
        }
        self.sessions_gauge.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::FrameReader;

    fn raw_call(
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

    #[test]
    fn hello_signs_on_and_disconnect_signs_off() {
        let cmi = Arc::new(CmiServer::new());
        let alice = cmi.directory().add_user("alice");
        let (server, connector) = NetServer::serve_loopback(cmi.clone(), NetConfig::default());

        let mut stream = connector.dial().unwrap();
        let mut frames = FrameReader::new();
        let resp = raw_call(
            &mut stream,
            &mut frames,
            &Request::Hello {
                user: "alice".into(),
                resume: false,
            },
        );
        assert_eq!(resp, Response::HelloOk { user: alice.raw() });
        assert!(cmi.directory().participant(alice).unwrap().signed_on);
        assert_eq!(server.signed_on_users(), vec![alice]);

        stream.shutdown_stream();
        let deadline = Instant::now() + Duration::from_secs(2);
        while cmi.directory().participant(alice).unwrap().signed_on {
            assert!(Instant::now() < deadline, "sign-off after disconnect");
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = server.shutdown();
        assert_eq!(stats.sessions_opened, 1);
        assert_eq!(stats.sessions_closed, 1);
    }

    #[test]
    fn unknown_user_hello_fails() {
        let cmi = Arc::new(CmiServer::new());
        let (server, connector) = NetServer::serve_loopback(cmi, NetConfig::default());
        let mut stream = connector.dial().unwrap();
        let mut frames = FrameReader::new();
        let resp = raw_call(
            &mut stream,
            &mut frames,
            &Request::Hello {
                user: "nobody".into(),
                resume: false,
            },
        );
        assert!(matches!(resp, Response::Err { .. }));
        server.shutdown();
    }

    #[test]
    fn idle_session_is_timed_out() {
        let cmi = Arc::new(CmiServer::new());
        let cfg = NetConfig {
            idle_timeout: Duration::from_millis(50),
            ..NetConfig::default()
        };
        let (server, connector) = NetServer::serve_loopback(cmi, cfg);
        let mut stream = connector.dial().unwrap();
        // Say nothing; the server should Goodbye and close.
        stream
            .set_stream_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut frames = FrameReader::new();
        let goodbye = loop {
            match frames.poll(&mut *stream) {
                Ok(Some(f)) => break Some(f.kind),
                Ok(None) => continue,
                Err(_) => break None,
            }
        };
        assert_eq!(goodbye, Some(FrameKind::Goodbye));
        let deadline = Instant::now() + Duration::from_secs(2);
        while server.stats().idle_timeouts == 0 {
            assert!(Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(5));
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_sessions_gracefully() {
        let cmi = Arc::new(CmiServer::new());
        cmi.directory().add_user("alice");
        let (server, connector) = NetServer::serve_loopback(cmi, NetConfig::default());
        let mut stream = connector.dial().unwrap();
        let mut frames = FrameReader::new();
        raw_call(
            &mut stream,
            &mut frames,
            &Request::Hello {
                user: "alice".into(),
                resume: false,
            },
        );
        let stats = server.shutdown();
        assert_eq!(stats.sessions_opened, 1);
        assert_eq!(stats.sessions_closed, 1);
        // The client's last frame is a Goodbye.
        stream
            .set_stream_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let mut last = None;
        while let Ok(Some(f)) = frames.poll(&mut *stream) {
            last = Some(f.kind);
        }
        assert_eq!(last, Some(FrameKind::Goodbye));
    }

    #[test]
    fn serves_real_tcp_sockets() {
        let cmi = Arc::new(CmiServer::new());
        let alice = cmi.directory().add_user("alice");
        let (server, addr) = NetServer::bind_tcp(cmi.clone(), "127.0.0.1:0", NetConfig::default()).unwrap();
        let tcp = std::net::TcpStream::connect(addr).unwrap();
        let mut stream: Box<dyn NetStream> = Box::new(tcp);
        stream
            .set_stream_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut frames = FrameReader::new();
        let resp = raw_call(
            &mut stream,
            &mut frames,
            &Request::Hello {
                user: "alice".into(),
                resume: false,
            },
        );
        assert_eq!(resp, Response::HelloOk { user: alice.raw() });
        // The epoll path produced loop iterations and readiness batches.
        let snap = cmi.obs().snapshot();
        assert!(snap.counter(series::REACTOR_LOOP_ITERATIONS).unwrap_or(0) >= 1);
        assert!(snap.counter(series::REACTOR_READY_BATCHES).unwrap_or(0) >= 1);
        server.shutdown();
    }

    #[test]
    fn publishes_loop_metrics() {
        let cmi = Arc::new(CmiServer::new());
        cmi.directory().add_user("alice");
        let cfg = NetConfig {
            reactor_threads: 1,
            ..NetConfig::default()
        };
        let (server, connector) = NetServer::serve_loopback(cmi.clone(), cfg);
        let mut stream = connector.dial().unwrap();
        let mut frames = FrameReader::new();
        raw_call(
            &mut stream,
            &mut frames,
            &Request::Hello {
                user: "alice".into(),
                resume: false,
            },
        );
        // The per-loop session gauge reflects the one live session.
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let snap = cmi.obs().snapshot();
            if snap.gauge("cmi_reactor_sessions{worker=\"0\"}") == Some(1) {
                break;
            }
            assert!(Instant::now() < deadline, "sessions gauge reaches 1");
            std::thread::sleep(Duration::from_millis(5));
        }
        let snap = cmi.obs().snapshot();
        assert!(snap.counter(series::REACTOR_LOOP_ITERATIONS).unwrap_or(0) >= 1);
        // The pipe waker's submission-to-pickup latency was recorded.
        let hist = snap
            .histogram(series::REACTOR_WAKEUP_NS)
            .expect("wakeup histogram registered");
        assert!(hist.count >= 1, "pipe readiness wakeups observed");
        server.shutdown();
    }
}
