//! cmi-net — the wire-protocol client/server subsystem realizing the Fig. 5
//! client/server split.
//!
//! The paper draws the CMI enactment system as a server process (CORE +
//! coordination + awareness engines) with participant tools — worklist,
//! process monitor, awareness viewer — attached as *clients*. Everything in
//! this repository up to now ran those clients in-process; this crate puts a
//! wire between them:
//!
//! * [`codec`] — versioned, length-prefixed, CRC-checksummed binary frames
//!   (the WAL-codec philosophy extended to the wire; no serialization
//!   dependencies),
//! * [`wire`] — the typed request/response/push messages,
//! * [`transport`] — the [`transport::NetStream`] / [`transport::Listener`]
//!   abstraction with a real TCP realization and a deterministic in-memory
//!   loopback for tests,
//! * [`reactor`] — a vendored mini-reactor (epoll on Linux, poll(2)
//!   elsewhere on unix; no external deps, consistent with `crates/shims/`)
//!   providing readiness polling, userspace wake queues, and a hashed
//!   timer wheel,
//! * [`server`] — a session server fronting
//!   [`cmi_awareness::system::CmiServer`]: sign-on drives
//!   `Directory::set_signed_on`, notifications are pushed under a bounded
//!   per-session window (slow consumers degrade to the persistent queue),
//!   idle sessions are reaped, shutdown drains gracefully. One engine: a
//!   small fixed pool of event-loop threads multiplexes every session
//!   (Unix-only, like the reactor; codec, wire, transport and client are
//!   portable),
//! * [`client`] — typed clients ([`client::WorklistClient`],
//!   [`client::MonitorClient`], [`client::ViewerClient`]) mirroring the
//!   in-process APIs, with heartbeats and transparent reconnect-with-resume
//!   (no lost and no duplicated notifications across a mid-delivery crash).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
pub mod wire;
pub mod window;
pub mod transport;
#[cfg(unix)]
pub mod reactor;
#[cfg(unix)]
pub mod server;
pub mod client;

pub use client::{
    ClientConfig, ClientStats, Connection, MonitorClient, ServerTelemetry, SwapOutcome,
    ViewerClient, WorklistClient,
};
#[cfg(unix)]
pub use server::{NetBackend, NetConfig, NetServer, NetStats};
pub use transport::{LoopbackConnector, TcpAcceptor};
