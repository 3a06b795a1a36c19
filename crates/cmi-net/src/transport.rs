//! Transports: the stream/listener abstraction, its TCP realization, and a
//! deterministic in-memory loopback.
//!
//! Every protocol path (framing, sessions, heartbeats, reconnect) is written
//! against [`NetStream`] / [`Listener`], so the whole subsystem is testable
//! without real sockets: the loopback transport is a pair of byte pipes with
//! condvar wakeups that honors read timeouts and half-close exactly the way
//! a TCP stream does, but with no ports, no ephemeral-address races and no
//! packet non-determinism.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// A readiness-wakeup callback installed by a server event loop. Invoked
/// whenever the source *may* have become readable (data arrived, peer
/// closed); spurious invocations are fine — the loop drains to `WouldBlock`.
pub type ReadinessWaker = Arc<dyn Fn() + Send + Sync>;

/// How a stream signals readiness to the server's event loop. Two
/// realizations cover the in-tree transports:
///
/// * real sockets expose their file descriptor for kernel polling
///   (`epoll`/`poll`),
/// * the in-memory loopback pipes have no descriptor; they expose a
///   [`PipeSignal`] through which the event loop installs a userspace waker
///   fired on every write/close edge. Pipe writes never block (the buffer
///   is unbounded), so write readiness is unconditional for this variant.
pub enum EventSource {
    /// A kernel-pollable file descriptor.
    Fd(i32),
    /// A userspace readable-edge signal (loopback pipes).
    Signal(PipeSignal),
}

/// A bidirectional, cloneable byte stream with read timeouts and a
/// non-blocking / readiness contract.
///
/// `try_clone_stream` exists so one clone can sit in a blocking read while
/// another writes: the client and the federation peer links use exactly two
/// handles (reader + writer). The server instead flips its end into
/// non-blocking mode and drives one handle from readiness events.
pub trait NetStream: Read + Write + Send {
    /// An independently usable handle to the same stream.
    fn try_clone_stream(&self) -> io::Result<Box<dyn NetStream>>;
    /// Bounds how long a `read` may block (`None` = forever).
    fn set_stream_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
    /// Closes both directions; concurrent and future reads/writes fail.
    fn shutdown_stream(&self);
    /// A human-readable peer label for diagnostics.
    fn peer_label(&self) -> String;
    /// Switches the stream between blocking and non-blocking mode. In
    /// non-blocking mode reads (and, for sockets, writes) return
    /// [`io::ErrorKind::WouldBlock`] instead of parking the thread.
    fn set_nonblocking_stream(&self, nonblocking: bool) -> io::Result<()>;
    /// The stream's readiness source, for registration with the server's
    /// event loop (the server, like its reactor, is Unix-only).
    #[cfg(unix)]
    fn event_source(&self) -> EventSource;
}

impl NetStream for TcpStream {
    fn try_clone_stream(&self) -> io::Result<Box<dyn NetStream>> {
        Ok(Box::new(self.try_clone()?))
    }

    fn set_stream_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(timeout)
    }

    fn shutdown_stream(&self) {
        let _ = self.shutdown(std::net::Shutdown::Both);
    }

    fn peer_label(&self) -> String {
        self.peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "tcp(?)".to_owned())
    }

    fn set_nonblocking_stream(&self, nonblocking: bool) -> io::Result<()> {
        self.set_nonblocking(nonblocking)
    }

    #[cfg(unix)]
    fn event_source(&self) -> EventSource {
        use std::os::fd::AsRawFd;
        EventSource::Fd(self.as_raw_fd())
    }
}

/// Accepts inbound connections for a server. The server's first event loop
/// owns the listener and calls [`Listener::try_accept`] on accept readiness,
/// which a transport signals in one of two ways: a pollable descriptor
/// ([`Listener::accept_fd`]) or, without one, a userspace waker
/// ([`Listener::set_accept_waker`]).
pub trait Listener: Send {
    /// Non-blocking accept attempt: `Ok(None)` when no connection is
    /// pending, `Err` once the listener is closed.
    fn try_accept(&self) -> io::Result<Option<Box<dyn NetStream>>>;
    /// Stops accepting; subsequent dials fail.
    fn close(&self);
    /// A label for diagnostics ("127.0.0.1:4000", "loopback").
    fn label(&self) -> String;
    /// The pollable file descriptor of the listening socket; `None` for a
    /// descriptor-less transport, which gets an accept waker instead.
    #[cfg(unix)]
    fn accept_fd(&self) -> Option<i32>;
    /// Installs (or clears) a waker fired whenever a connection may be
    /// pending. Installing while dials are already queued fires the waker
    /// immediately, so edges that raced registration are not lost.
    fn set_accept_waker(&self, waker: Option<ReadinessWaker>);
}

/// TCP listener adapter (non-blocking accept, so draining pending
/// connections on a readable edge never hangs in `accept`).
pub struct TcpAcceptor {
    listener: TcpListener,
    addr: SocketAddr,
}

impl TcpAcceptor {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<TcpAcceptor> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(TcpAcceptor { listener, addr })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Listener for TcpAcceptor {
    fn try_accept(&self) -> io::Result<Option<Box<dyn NetStream>>> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    let _ = stream.set_nodelay(true);
                    return Ok(Some(Box::new(stream)));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn close(&self) {
        // Dropping the std listener closes the socket; the owning event
        // loop drops it right after this call.
    }

    fn label(&self) -> String {
        self.addr.to_string()
    }

    #[cfg(unix)]
    fn accept_fd(&self) -> Option<i32> {
        use std::os::fd::AsRawFd;
        // The listener is already non-blocking (see `bind`), so a readable
        // edge plus `try_accept` drains every pending connection.
        Some(self.listener.as_raw_fd())
    }

    fn set_accept_waker(&self, _waker: Option<ReadinessWaker>) {
        // Accept readiness comes from polling `accept_fd`.
    }
}

// ---------------------------------------------------------------------------
// Loopback transport
// ---------------------------------------------------------------------------

#[derive(Default)]
struct PipeBuf {
    data: VecDeque<u8>,
    closed: bool,
    /// Event-loop waker fired on every write/close edge into this buffer.
    waker: Option<ReadinessWaker>,
}

type Shared = Arc<(Mutex<PipeBuf>, Condvar)>;

/// Notifies the waker (if any) installed on `shared`, outside its lock.
fn notify_buf(shared: &Shared) {
    let (lock, cv) = &**shared;
    let waker = {
        let state = lock.lock();
        cv.notify_all();
        state.waker.clone()
    };
    if let Some(w) = waker {
        w();
    }
}

/// The userspace readiness signal of one pipe direction: the event loop
/// installs a waker on the stream's *receive* buffer, and every write or
/// close edge into that buffer fires it. See [`EventSource::Signal`].
pub struct PipeSignal {
    rx: Shared,
}

impl PipeSignal {
    /// Installs (or clears) the waker. If data is already buffered — or the
    /// pipe is already closed — the waker fires immediately, so edges that
    /// happened before registration are not lost.
    pub fn set_waker(&self, waker: Option<ReadinessWaker>) {
        let (lock, _) = &*self.rx;
        let fire = {
            let mut state = lock.lock();
            let pending = !state.data.is_empty() || state.closed;
            state.waker = waker.clone();
            pending && waker.is_some()
        };
        if fire {
            if let Some(w) = waker {
                w();
            }
        }
    }
}

/// One end of an in-memory duplex byte pipe.
pub struct PipeStream {
    rx: Shared,
    tx: Shared,
    read_timeout: Arc<Mutex<Option<Duration>>>,
    nonblocking: Arc<AtomicBool>,
    label: String,
}

/// A connected pair of pipe ends (`a` writes what `b` reads and vice versa).
pub fn pipe_pair(label: &str) -> (PipeStream, PipeStream) {
    let ab: Shared = Arc::new((Mutex::new(PipeBuf::default()), Condvar::new()));
    let ba: Shared = Arc::new((Mutex::new(PipeBuf::default()), Condvar::new()));
    (
        PipeStream {
            rx: ba.clone(),
            tx: ab.clone(),
            read_timeout: Arc::new(Mutex::new(None)),
            nonblocking: Arc::new(AtomicBool::new(false)),
            label: format!("{label}:a"),
        },
        PipeStream {
            rx: ab,
            tx: ba,
            read_timeout: Arc::new(Mutex::new(None)),
            nonblocking: Arc::new(AtomicBool::new(false)),
            label: format!("{label}:b"),
        },
    )
}

impl Read for PipeStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let timeout = *self.read_timeout.lock();
        let nonblocking = self.nonblocking.load(Ordering::Relaxed);
        let (lock, cv) = &*self.rx;
        let mut state = lock.lock();
        let deadline = timeout.map(|t| Instant::now() + t);
        while state.data.is_empty() {
            if state.closed {
                return Ok(0);
            }
            if nonblocking {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "pipe empty"));
            }
            match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Err(io::Error::new(io::ErrorKind::TimedOut, "read timeout"));
                    }
                    cv.wait_for(&mut state, d - now);
                }
                None => cv.wait(&mut state),
            }
        }
        // Drain as (up to) two contiguous memcpys rather than per-byte pops:
        // batch frames move tens of KiB per read, and a byte-at-a-time loop
        // dominates the loopback crossing cost.
        let n = buf.len().min(state.data.len());
        let (front, back) = state.data.as_slices();
        let from_front = front.len().min(n);
        buf[..from_front].copy_from_slice(&front[..from_front]);
        if n > from_front {
            buf[from_front..n].copy_from_slice(&back[..n - from_front]);
        }
        state.data.drain(..n);
        Ok(n)
    }
}

impl Write for PipeStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        {
            let (lock, _) = &*self.tx;
            let mut state = lock.lock();
            if state.closed {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe closed"));
            }
            state.data.extend(buf.iter().copied());
        }
        notify_buf(&self.tx);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// All slices land under one buffer lock — a frame written as
    /// `[header][payload]` via `write_frame_vectored` is appended atomically
    /// instead of costing one lock/notify round per slice.
    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        let mut n = 0usize;
        {
            let (lock, _) = &*self.tx;
            let mut state = lock.lock();
            if state.closed {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe closed"));
            }
            for buf in bufs {
                state.data.extend(buf.iter().copied());
                n += buf.len();
            }
        }
        notify_buf(&self.tx);
        Ok(n)
    }
}

impl NetStream for PipeStream {
    fn try_clone_stream(&self) -> io::Result<Box<dyn NetStream>> {
        Ok(Box::new(PipeStream {
            rx: self.rx.clone(),
            tx: self.tx.clone(),
            read_timeout: self.read_timeout.clone(),
            nonblocking: self.nonblocking.clone(),
            label: self.label.clone(),
        }))
    }

    fn set_stream_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        *self.read_timeout.lock() = timeout;
        Ok(())
    }

    fn shutdown_stream(&self) {
        for shared in [&self.rx, &self.tx] {
            {
                let (lock, _) = &**shared;
                lock.lock().closed = true;
            }
            notify_buf(shared);
        }
    }

    fn peer_label(&self) -> String {
        self.label.clone()
    }

    fn set_nonblocking_stream(&self, nonblocking: bool) -> io::Result<()> {
        self.nonblocking.store(nonblocking, Ordering::Relaxed);
        Ok(())
    }

    #[cfg(unix)]
    fn event_source(&self) -> EventSource {
        EventSource::Signal(PipeSignal {
            rx: self.rx.clone(),
        })
    }
}

struct HubState {
    pending: VecDeque<PipeStream>,
    closed: bool,
    dialed: u64,
    /// Accept waker fired on every dial/close edge.
    waker: Option<ReadinessWaker>,
}

/// The shared state behind a loopback listener/connector pair.
pub struct LoopbackHub {
    state: Mutex<HubState>,
}

/// Creates a connected loopback listener + connector.
pub fn loopback() -> (LoopbackListener, LoopbackConnector) {
    let hub = Arc::new(LoopbackHub {
        state: Mutex::new(HubState {
            pending: VecDeque::new(),
            closed: false,
            dialed: 0,
            waker: None,
        }),
    });
    (
        LoopbackListener { hub: hub.clone() },
        LoopbackConnector { hub },
    )
}

/// The server side of the loopback transport.
pub struct LoopbackListener {
    hub: Arc<LoopbackHub>,
}

impl Listener for LoopbackListener {
    fn try_accept(&self) -> io::Result<Option<Box<dyn NetStream>>> {
        let mut state = self.hub.state.lock();
        if let Some(stream) = state.pending.pop_front() {
            return Ok(Some(Box::new(stream)));
        }
        if state.closed {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "loopback closed",
            ));
        }
        Ok(None)
    }

    fn close(&self) {
        let waker = {
            let mut state = self.hub.state.lock();
            state.closed = true;
            // Refuse queued-but-unaccepted dials.
            for s in state.pending.drain(..) {
                s.shutdown_stream();
            }
            state.waker.clone()
        };
        if let Some(w) = waker {
            w();
        }
    }

    fn label(&self) -> String {
        "loopback".to_owned()
    }

    #[cfg(unix)]
    fn accept_fd(&self) -> Option<i32> {
        None
    }

    fn set_accept_waker(&self, waker: Option<ReadinessWaker>) {
        let fire = {
            let mut state = self.hub.state.lock();
            let pending = !state.pending.is_empty() || state.closed;
            state.waker = waker.clone();
            pending && waker.is_some()
        };
        if fire {
            if let Some(w) = waker {
                w();
            }
        }
    }
}

/// The client side of the loopback transport. Cloneable; each `dial` yields
/// a fresh connection.
#[derive(Clone)]
pub struct LoopbackConnector {
    hub: Arc<LoopbackHub>,
}

impl LoopbackConnector {
    /// Dials the listener, producing the client end of a fresh pipe.
    pub fn dial(&self) -> io::Result<Box<dyn NetStream>> {
        let mut state = self.hub.state.lock();
        if state.closed {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "loopback server is down",
            ));
        }
        state.dialed += 1;
        let n = state.dialed;
        let (client, server) = pipe_pair(&format!("loopback-{n}"));
        state.pending.push_back(server);
        let waker = state.waker.clone();
        drop(state);
        if let Some(w) = waker {
            w();
        }
        Ok(Box::new(client))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_carries_bytes_and_honors_timeout() {
        let (mut a, mut b) = pipe_pair("t");
        a.write_all(b"hello").unwrap();
        let mut buf = [0u8; 5];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");

        b.set_stream_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        let err = b.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn pipe_shutdown_unblocks_reader_and_fails_writer() {
        let (mut a, b) = pipe_pair("t");
        let handle = std::thread::spawn(move || {
            let mut b = b;
            let mut buf = [0u8; 1];
            b.read(&mut buf)
        });
        std::thread::sleep(Duration::from_millis(20));
        a.shutdown_stream();
        assert_eq!(handle.join().unwrap().unwrap(), 0, "EOF after shutdown");
        assert!(a.write_all(b"x").is_err());
    }

    #[test]
    fn loopback_dial_accept_roundtrip() {
        let (listener, connector) = loopback();
        let mut client = connector.dial().unwrap();
        let mut server = listener.try_accept().unwrap().unwrap();
        client.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        server.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        server.write_all(b"pong").unwrap();
        client.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn closed_loopback_refuses_dials() {
        let (listener, connector) = loopback();
        listener.close();
        assert!(connector.dial().is_err());
    }

    #[test]
    fn tcp_acceptor_accepts_real_sockets() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr();
        let mut client = TcpStream::connect(addr).unwrap();
        // `connect` returned, so the connection is in the accept queue.
        let mut server = acceptor.try_accept().unwrap().unwrap();
        client.write_all(b"abc").unwrap();
        let mut buf = [0u8; 3];
        server.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"abc");
        assert!(acceptor.try_accept().unwrap().is_none());
    }
}
