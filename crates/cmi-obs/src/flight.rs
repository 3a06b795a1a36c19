//! The process-wide flight recorder.
//!
//! A fixed-size, lock-protected ring of structured records covering the
//! coarse lifecycle events of the server — session open/close, shard
//! ingest anomalies, queue park/unpark, client reconnects, protocol
//! errors. When something goes wrong in production, the recorder is the
//! post-mortem: dump it and read the last N things the process did.
//!
//! Deliberately **not** written on the per-event hot path; per-event
//! detail belongs to the metrics registry and the detection tracer.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

/// The category of a flight record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A wire session was accepted and signed on.
    SessionOpen,
    /// A wire session ended (any reason).
    SessionClose,
    /// A shard ingest anomaly worth post-mortem attention.
    ShardIngest,
    /// A push path parked on a slow consumer.
    QueuePark,
    /// A parked push path resumed.
    QueueUnpark,
    /// A client reconnected.
    Reconnect,
    /// A protocol error (bad frame, decode failure, unexpected kind).
    ProtocolError,
    /// A process instance's operator state and traces were evicted.
    InstanceEvicted,
    /// A new cluster view epoch was committed (adopted) on this node.
    EpochCommit,
    /// This node fetched an authoritative view from a peer.
    ViewFetch,
    /// An instance hand-off started shipping to its new owner.
    HandoffStart,
    /// An instance hand-off finished (state applied at the new owner).
    HandoffFinish,
    /// A request was fenced for carrying a mismatched view epoch.
    FenceRejected,
    /// A reordered stale gossip frame was dropped (older directory
    /// version than the one already held).
    StaleGossipDrop,
    /// A live awareness-schema hot-swap was adopted at `generation`.
    SchemaSwap {
        /// The swap generation this node now runs.
        generation: u64,
    },
}

impl std::fmt::Display for FlightKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FlightKind::SessionOpen => "session-open",
            FlightKind::SessionClose => "session-close",
            FlightKind::ShardIngest => "shard-ingest",
            FlightKind::QueuePark => "queue-park",
            FlightKind::QueueUnpark => "queue-unpark",
            FlightKind::Reconnect => "reconnect",
            FlightKind::ProtocolError => "protocol-error",
            FlightKind::InstanceEvicted => "instance-evicted",
            FlightKind::EpochCommit => "epoch-commit",
            FlightKind::ViewFetch => "view-fetch",
            FlightKind::HandoffStart => "handoff-start",
            FlightKind::HandoffFinish => "handoff-finish",
            FlightKind::FenceRejected => "fence-rejected",
            FlightKind::StaleGossipDrop => "stale-gossip-drop",
            FlightKind::SchemaSwap { generation } => {
                return write!(f, "schema-swap[g{generation}]");
            }
        };
        f.write_str(s)
    }
}

/// One entry in the flight recorder ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecord {
    /// Monotonic sequence number over the life of the recorder; gaps in a
    /// dump mean the ring wrapped.
    pub seq: u64,
    /// Milliseconds since the recorder was created.
    pub at_ms: u64,
    /// Record category.
    pub kind: FlightKind,
    /// Free-form detail, e.g. `"session=alice"`, `"seq=42"`.
    pub detail: String,
}

/// The flight recorder. See the module docs.
pub struct FlightRecorder {
    enabled: bool,
    cap: usize,
    start: Instant,
    next_seq: AtomicU64,
    inner: Mutex<VecDeque<FlightRecord>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("enabled", &self.enabled)
            .field("cap", &self.cap)
            .field("len", &self.len())
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder retaining the most recent `cap` records.
    pub fn new(cap: usize) -> FlightRecorder {
        FlightRecorder {
            enabled: true,
            cap: cap.max(1),
            start: Instant::now(),
            next_seq: AtomicU64::new(0),
            inner: Mutex::new(VecDeque::new()),
        }
    }

    /// A recorder that drops everything.
    pub fn disabled() -> FlightRecorder {
        FlightRecorder {
            enabled: false,
            cap: 1,
            start: Instant::now(),
            next_seq: AtomicU64::new(0),
            inner: Mutex::new(VecDeque::new()),
        }
    }

    /// True when this recorder records.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Appends a record, evicting the oldest once the ring is full.
    pub fn record(&self, kind: FlightKind, detail: impl Into<String>) {
        if !self.enabled {
            return;
        }
        let detail = detail.into();
        let mut ring = self.inner.lock();
        if ring.len() >= self.cap {
            ring.pop_front();
        }
        // Numbered under the ring lock, so ring order is seq order.
        ring.push_back(FlightRecord {
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            at_ms: self.start.elapsed().as_millis() as u64,
            kind,
            detail,
        });
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total records ever written (including wrapped-out ones).
    pub fn total_recorded(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// The retained records, oldest first.
    pub fn dump(&self) -> Vec<FlightRecord> {
        self.inner.lock().iter().cloned().collect()
    }

    /// Renders the retained records as text, one per line, oldest first.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in self.dump() {
            let _ = writeln!(out, "[{:>8}ms] #{} {}: {}", r.at_ms, r.seq, r.kind, r.detail);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_most_recent_records_on_wraparound() {
        let fr = FlightRecorder::new(3);
        for i in 0..5 {
            fr.record(FlightKind::SessionOpen, format!("s{i}"));
        }
        let dump = fr.dump();
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.total_recorded(), 5);
        let details: Vec<&str> = dump.iter().map(|r| r.detail.as_str()).collect();
        assert_eq!(details, vec!["s2", "s3", "s4"]);
        // Seqs are monotonic and show the wrap (0 and 1 are gone).
        let seqs: Vec<u64> = dump.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn concurrent_writers_never_lose_the_ring_invariants() {
        let fr = std::sync::Arc::new(FlightRecorder::new(64));
        std::thread::scope(|s| {
            for t in 0..8 {
                let fr = fr.clone();
                s.spawn(move || {
                    for i in 0..500 {
                        fr.record(FlightKind::Reconnect, format!("t{t}-{i}"));
                    }
                });
            }
        });
        assert_eq!(fr.total_recorded(), 8 * 500);
        assert_eq!(fr.len(), 64);
        let dump = fr.dump();
        // Retained seqs are strictly increasing (oldest first) and unique.
        assert!(dump.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let fr = FlightRecorder::disabled();
        fr.record(FlightKind::ProtocolError, "x");
        assert!(fr.is_empty());
        assert_eq!(fr.total_recorded(), 0);
        assert_eq!(fr.render(), "");
    }

    #[test]
    fn render_is_one_line_per_record() {
        let fr = FlightRecorder::new(8);
        fr.record(FlightKind::SessionOpen, "session=alice");
        fr.record(FlightKind::QueuePark, "session=alice in_flight=32");
        let text = fr.render();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("session-open: session=alice"));
        assert!(text.contains("queue-park: session=alice in_flight=32"));
    }
}
