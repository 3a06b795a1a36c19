//! Persistent per-participant awareness queues (§6.5).
//!
//! "A persistent queue is necessary because a participant is not assumed to
//! be logged-on to the system when he receives an awareness event." This
//! module provides that queue: notifications are appended to a write-ahead
//! log before being made visible, acknowledgements are logged too, and
//! recovery replays the log — so after a crash every unacknowledged
//! notification is still waiting and acknowledged ones do not reappear.
//!
//! The WAL is JSON-lines: one self-describing record per line. A torn final
//! line (partial write at crash) is detected and dropped during recovery.

use std::collections::{BTreeMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

use parking_lot::Mutex;

use cmi_core::ids::{AwarenessSchemaId, ProcessInstanceId, ProcessSchemaId, UserId};
use cmi_core::time::Timestamp;
use cmi_obs::{Counter, Gauge, ObsRegistry};

/// Notification priority (§6.5 lists priority as under consideration; this
/// implementation provides three levels). Order: `Low < Normal < High`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Background information.
    Low,
    /// The default.
    #[default]
    Normal,
    /// Requires prompt attention (e.g. deadline violations).
    High,
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        })
    }
}

/// One awareness notification queued for one participant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Notification {
    /// Global sequence number (assigned by the queue; total order).
    pub seq: u64,
    /// The recipient.
    pub user: UserId,
    /// Detection time.
    pub time: Timestamp,
    /// The awareness schema that produced it.
    pub schema: AwarenessSchemaId,
    /// The awareness schema's name.
    pub schema_name: String,
    /// The user-friendly description from the output operator.
    pub description: String,
    /// The process schema the detected event is relative to.
    pub process_schema: ProcessSchemaId,
    /// The process instance the detected event is relative to.
    pub process_instance: ProcessInstanceId,
    /// The canonical `intInfo`, if set.
    pub int_info: Option<i64>,
    /// The canonical `strInfo`, if set.
    pub str_info: Option<String>,
    /// Delivery priority (absent in older WALs → `Normal`).
    pub priority: Priority,
}

/// A WAL line, tagged by its `"kind"` field: `event`, `ack` or `ack_one`.
#[derive(Debug)]
enum WalRecord {
    Event(Notification),
    Ack {
        user: UserId,
        /// All notifications for `user` with `seq <= up_to` are acknowledged.
        up_to: u64,
    },
    /// A single notification acknowledged out of order (priority
    /// consumption).
    AckOne { user: UserId, seq: u64 },
}

impl WalRecord {
    /// Serializes the record as one JSON object (no trailing newline).
    fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        match self {
            WalRecord::Event(n) => {
                s.push_str("{\"kind\":\"event\"");
                s.push_str(&format!(",\"seq\":{}", n.seq));
                s.push_str(&format!(",\"user\":{}", n.user.raw()));
                s.push_str(&format!(",\"time\":{}", n.time.millis()));
                s.push_str(&format!(",\"schema\":{}", n.schema.raw()));
                s.push_str(",\"schema_name\":");
                json::write_str(&n.schema_name, &mut s);
                s.push_str(",\"description\":");
                json::write_str(&n.description, &mut s);
                s.push_str(&format!(",\"process_schema\":{}", n.process_schema.raw()));
                s.push_str(&format!(
                    ",\"process_instance\":{}",
                    n.process_instance.raw()
                ));
                match n.int_info {
                    Some(i) => s.push_str(&format!(",\"int_info\":{i}")),
                    None => s.push_str(",\"int_info\":null"),
                }
                s.push_str(",\"str_info\":");
                match &n.str_info {
                    Some(v) => json::write_str(v, &mut s),
                    None => s.push_str("null"),
                }
                s.push_str(&format!(",\"priority\":\"{}\"", n.priority));
                s.push('}');
            }
            WalRecord::Ack { user, up_to } => {
                s.push_str(&format!(
                    "{{\"kind\":\"ack\",\"user\":{},\"up_to\":{up_to}}}",
                    user.raw()
                ));
            }
            WalRecord::AckOne { user, seq } => {
                s.push_str(&format!(
                    "{{\"kind\":\"ack_one\",\"user\":{},\"seq\":{seq}}}",
                    user.raw()
                ));
            }
        }
        s
    }

    /// Parses one WAL line. Returns `None` for torn, corrupt or unknown
    /// records (recovery drops them).
    fn from_json(line: &str) -> Option<WalRecord> {
        let obj = json::parse_object(line)?;
        match obj.get("kind")?.as_str()? {
            "event" => Some(WalRecord::Event(Notification {
                seq: obj.get("seq")?.as_u64()?,
                user: UserId(obj.get("user")?.as_u64()?),
                time: Timestamp::from_millis(obj.get("time")?.as_u64()?),
                schema: AwarenessSchemaId(obj.get("schema")?.as_u64()?),
                schema_name: obj.get("schema_name")?.as_str()?.to_owned(),
                description: obj.get("description")?.as_str()?.to_owned(),
                process_schema: ProcessSchemaId(obj.get("process_schema")?.as_u64()?),
                process_instance: ProcessInstanceId(obj.get("process_instance")?.as_u64()?),
                int_info: match obj.get("int_info") {
                    None | Some(json::Value::Null) => None,
                    Some(v) => Some(v.as_i64()?),
                },
                str_info: match obj.get("str_info") {
                    None | Some(json::Value::Null) => None,
                    Some(v) => Some(v.as_str()?.to_owned()),
                },
                // Absent in older WALs → `Normal` (the default).
                priority: match obj.get("priority") {
                    None => Priority::default(),
                    Some(v) => match v.as_str()? {
                        "low" => Priority::Low,
                        "normal" => Priority::Normal,
                        "high" => Priority::High,
                        _ => return None,
                    },
                },
            })),
            "ack" => Some(WalRecord::Ack {
                user: UserId(obj.get("user")?.as_u64()?),
                up_to: obj.get("up_to")?.as_u64()?,
            }),
            "ack_one" => Some(WalRecord::AckOne {
                user: UserId(obj.get("user")?.as_u64()?),
                seq: obj.get("seq")?.as_u64()?,
            }),
            _ => None,
        }
    }
}

/// Minimal JSON reader/writer for the WAL's flat records. The build
/// environment has no crates registry, so rather than pulling in a JSON
/// dependency the queue serializes its three record shapes by hand. The
/// parser accepts any flat JSON object with string / integer / null values
/// and rejects (returns `None` for) everything else — which is exactly the
/// robustness recovery needs: a torn or corrupt line parses to `None` and
/// is dropped.
mod json {
    use std::collections::BTreeMap;

    /// A parsed field value.
    #[derive(Debug, PartialEq)]
    pub enum Value {
        Null,
        Str(String),
        Int(i64),
    }

    impl Value {
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_i64(&self) -> Option<i64> {
            match self {
                Value::Int(i) => Some(*i),
                _ => None,
            }
        }

        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Int(i) if *i >= 0 => Some(*i as u64),
                _ => None,
            }
        }
    }

    /// Writes `s` as a JSON string literal (with escaping) onto `out`.
    pub fn write_str(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Parses a flat JSON object (string / integer / null values only).
    /// Returns `None` on any syntax error or unsupported construct.
    pub fn parse_object(input: &str) -> Option<BTreeMap<String, Value>> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let obj = p.object()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return None; // trailing garbage
        }
        Some(obj)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn bump(&mut self) -> Option<u8> {
            let b = self.peek()?;
            self.pos += 1;
            Some(b)
        }

        fn expect(&mut self, b: u8) -> Option<()> {
            (self.bump()? == b).then_some(())
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn object(&mut self) -> Option<BTreeMap<String, Value>> {
            self.expect(b'{')?;
            let mut map = BTreeMap::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Some(map);
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value()?;
                map.insert(key, value);
                self.skip_ws();
                match self.bump()? {
                    b',' => continue,
                    b'}' => return Some(map),
                    _ => return None,
                }
            }
        }

        fn value(&mut self) -> Option<Value> {
            match self.peek()? {
                b'"' => Some(Value::Str(self.string()?)),
                b'n' => {
                    self.literal(b"null")?;
                    Some(Value::Null)
                }
                b'-' | b'0'..=b'9' => self.number(),
                _ => None,
            }
        }

        fn literal(&mut self, lit: &[u8]) -> Option<()> {
            for &b in lit {
                self.expect(b)?;
            }
            Some(())
        }

        fn number(&mut self) -> Option<Value> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            let digits_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == digits_start {
                return None;
            }
            std::str::from_utf8(&self.bytes[start..self.pos])
                .ok()?
                .parse()
                .ok()
                .map(Value::Int)
        }

        fn string(&mut self) -> Option<String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.bump()? {
                    b'"' => return Some(out),
                    b'\\' => match self.bump()? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return None;
                            }
                            let hex =
                                std::str::from_utf8(&self.bytes[self.pos..self.pos + 4]).ok()?;
                            self.pos += 4;
                            let code = u32::from_str_radix(hex, 16).ok()?;
                            out.push(char::from_u32(code)?);
                        }
                        _ => return None,
                    },
                    b => {
                        // Re-decode multi-byte UTF-8 sequences from the raw
                        // bytes (strings arrive as valid UTF-8 already).
                        if b < 0x80 {
                            out.push(b as char);
                        } else {
                            let len = match b {
                                0xC0..=0xDF => 2,
                                0xE0..=0xEF => 3,
                                0xF0..=0xF7 => 4,
                                _ => return None,
                            };
                            let start = self.pos - 1;
                            if start + len > self.bytes.len() {
                                return None;
                            }
                            let s = std::str::from_utf8(&self.bytes[start..start + len]).ok()?;
                            out.push_str(s);
                            self.pos = start + len;
                        }
                    }
                }
            }
        }
    }
}

#[derive(Debug, Default)]
struct QueueState {
    next_seq: u64,
    pending: BTreeMap<UserId, VecDeque<Notification>>,
    acked: BTreeMap<UserId, u64>,
    acked_exact: BTreeMap<UserId, std::collections::BTreeSet<u64>>,
}

/// The queue's registry handles (see [`DeliveryQueue::attach_obs`]).
#[derive(Debug)]
struct QueueObs {
    enqueued: Counter,
    acked: Counter,
    pending: Gauge,
}

/// An enqueue subscriber: called (outside the queue's state lock) with the
/// recipient of every newly enqueued notification. Returning `false`
/// unsubscribes the hook — that is how a hook owned by a shut-down consumer
/// (e.g. a reactor event loop holding only a `Weak` back-reference)
/// removes itself.
pub type EnqueueHook = Box<dyn Fn(UserId) -> bool + Send + Sync>;

/// The delivery queue. With a path it is durable (WAL + recovery); without,
/// it is an in-memory queue with identical semantics.
pub struct DeliveryQueue {
    state: Mutex<QueueState>,
    wal: Mutex<Option<File>>,
    path: Option<PathBuf>,
    obs: Mutex<Option<QueueObs>>,
    hooks: Mutex<Vec<EnqueueHook>>,
}

impl std::fmt::Debug for DeliveryQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeliveryQueue")
            .field("durable", &self.path.is_some())
            .field("pending", &self.pending_total())
            .finish()
    }
}

impl DeliveryQueue {
    /// An in-memory (non-durable) queue.
    pub fn in_memory() -> Self {
        DeliveryQueue {
            state: Mutex::new(QueueState {
                next_seq: 1,
                ..QueueState::default()
            }),
            wal: Mutex::new(None),
            path: None,
            obs: Mutex::new(None),
            hooks: Mutex::new(Vec::new()),
        }
    }

    /// Attaches an observability registry: enqueues and acks are counted
    /// (`cmi_queue_enqueued` / `cmi_queue_acked`) and the live depth is
    /// published as the `cmi_queue_pending` gauge, seeded with whatever is
    /// already pending (e.g. after WAL recovery).
    pub fn attach_obs(&self, obs: &ObsRegistry) {
        let q = QueueObs {
            enqueued: obs.counter("cmi_queue_enqueued"),
            acked: obs.counter("cmi_queue_acked"),
            pending: obs.gauge("cmi_queue_pending"),
        };
        q.pending.set(self.pending_total() as i64);
        *self.obs.lock() = Some(q);
    }

    /// Opens (or creates) a durable queue at `path`, replaying any existing
    /// WAL. Unacknowledged notifications become pending again.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let mut state = QueueState {
            next_seq: 1,
            ..QueueState::default()
        };
        if path.exists() {
            let mut reader = BufReader::new(File::open(path)?);
            let mut events: Vec<Notification> = Vec::new();
            let mut buf = Vec::new();
            loop {
                buf.clear();
                if reader.read_until(b'\n', &mut buf)? == 0 {
                    break;
                }
                // Corrupt bytes (torn append, disk damage) must never abort
                // recovery: any line that is not valid UTF-8 JSON of a known
                // record is dropped; it was never acknowledged to a producer.
                let Ok(line) = std::str::from_utf8(&buf) else {
                    continue;
                };
                let Some(rec) = WalRecord::from_json(line.trim_end()) else {
                    continue;
                };
                match rec {
                    WalRecord::Event(n) => {
                        state.next_seq = state.next_seq.max(n.seq + 1);
                        events.push(n);
                    }
                    WalRecord::Ack { user, up_to } => {
                        let e = state.acked.entry(user).or_insert(0);
                        *e = (*e).max(up_to);
                    }
                    WalRecord::AckOne { user, seq } => {
                        state.acked_exact.entry(user).or_default().insert(seq);
                    }
                }
            }
            for n in events {
                let prefix_acked = state.acked.get(&n.user).copied().unwrap_or(0) >= n.seq;
                let exact_acked = state
                    .acked_exact
                    .get(&n.user)
                    .is_some_and(|s| s.contains(&n.seq));
                if !prefix_acked && !exact_acked {
                    state.pending.entry(n.user).or_default().push_back(n);
                }
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(DeliveryQueue {
            state: Mutex::new(state),
            wal: Mutex::new(Some(file)),
            path: Some(path.to_owned()),
            obs: Mutex::new(None),
            hooks: Mutex::new(Vec::new()),
        })
    }

    /// Subscribes `hook` to enqueue notifications: it runs after every
    /// successful [`DeliveryQueue::enqueue`], outside the queue's state
    /// lock, with the recipient's id. Event-driven consumers (the reactor
    /// net backend) use this to get woken on new work instead of
    /// tick-polling [`DeliveryQueue::fetch`].
    pub fn subscribe_enqueue(&self, hook: EnqueueHook) {
        self.hooks.lock().push(hook);
    }

    /// Enqueues a notification for its recipient, assigning the sequence
    /// number and logging before making it visible. Returns the sequence
    /// number.
    pub fn enqueue(&self, n: Notification) -> std::io::Result<u64> {
        self.enqueue_bound(n, |_| {})
    }

    /// [`DeliveryQueue::enqueue`], running `bind` with the assigned sequence
    /// number after it is logged and *before* the notification is visible to
    /// `fetch` or to an enqueue hook: whatever a consumer looks up by
    /// sequence number (the detection's trace id) is in place by the time it
    /// can see the notification. `bind` runs under the queue's state lock and
    /// must not call back into the queue.
    pub fn enqueue_bound(
        &self,
        mut n: Notification,
        bind: impl FnOnce(u64),
    ) -> std::io::Result<u64> {
        let user = n.user;
        let seq = {
            let mut state = self.state.lock();
            n.seq = state.next_seq;
            state.next_seq += 1;
            self.append(&WalRecord::Event(n.clone()))?;
            let seq = n.seq;
            bind(seq);
            state.pending.entry(n.user).or_default().push_back(n);
            seq
        };
        if let Some(o) = self.obs.lock().as_ref() {
            o.enqueued.inc();
            o.pending.add(1);
        }
        // Enqueue hooks run outside the state lock so they may call back
        // into the queue (fetch) or take unrelated locks without deadlock.
        let mut hooks = self.hooks.lock();
        if !hooks.is_empty() {
            hooks.retain(|h| h(user));
        }
        Ok(seq)
    }

    /// Returns (without removing) up to `max` pending notifications for the
    /// user, oldest first.
    pub fn fetch(&self, user: UserId, max: usize) -> Vec<Notification> {
        let state = self.state.lock();
        state
            .pending
            .get(&user)
            .map(|q| q.iter().take(max).cloned().collect())
            .unwrap_or_default()
    }

    /// Acknowledges every notification for `user` with `seq <= up_to`,
    /// removing them from the pending queue (durably, if the queue is).
    pub fn ack(&self, user: UserId, up_to: u64) -> std::io::Result<usize> {
        let mut state = self.state.lock();
        self.append(&WalRecord::Ack { user, up_to })?;
        let e = state.acked.entry(user).or_insert(0);
        *e = (*e).max(up_to);
        let q = state.pending.entry(user).or_default();
        let before = q.len();
        q.retain(|n| n.seq > up_to);
        let removed = before - q.len();
        if let Some(o) = self.obs.lock().as_ref() {
            o.acked.add(removed as u64);
            o.pending.add(-(removed as i64));
        }
        Ok(removed)
    }

    /// Acknowledges exactly the given sequence numbers for `user` (used by
    /// priority-ordered consumption, where acknowledged items need not be a
    /// prefix). Returns how many were removed.
    pub fn ack_exact(&self, user: UserId, seqs: &[u64]) -> std::io::Result<usize> {
        let mut state = self.state.lock();
        for &seq in seqs {
            self.append(&WalRecord::AckOne { user, seq })?;
            state.acked_exact.entry(user).or_default().insert(seq);
        }
        let set: std::collections::BTreeSet<u64> = seqs.iter().copied().collect();
        let q = state.pending.entry(user).or_default();
        let before = q.len();
        q.retain(|n| !set.contains(&n.seq));
        let removed = before - q.len();
        if let Some(o) = self.obs.lock().as_ref() {
            o.acked.add(removed as u64);
            o.pending.add(-(removed as i64));
        }
        Ok(removed)
    }

    /// Returns (without removing) up to `max` pending notifications for the
    /// user ordered by priority (high first), ties broken oldest-first.
    pub fn fetch_prioritized(&self, user: UserId, max: usize) -> Vec<Notification> {
        let state = self.state.lock();
        let Some(q) = state.pending.get(&user) else {
            return Vec::new();
        };
        let mut all: Vec<Notification> = q.iter().cloned().collect();
        all.sort_by(|a, b| b.priority.cmp(&a.priority).then(a.seq.cmp(&b.seq)));
        all.truncate(max);
        all
    }

    /// Number of pending notifications for `user`.
    pub fn pending_for(&self, user: UserId) -> usize {
        self.state
            .lock()
            .pending
            .get(&user)
            .map_or(0, VecDeque::len)
    }

    /// Total pending notifications across users.
    pub fn pending_total(&self) -> usize {
        self.state.lock().pending.values().map(VecDeque::len).sum()
    }

    /// Users with at least one pending notification.
    pub fn users_with_pending(&self) -> Vec<UserId> {
        self.state
            .lock()
            .pending
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(u, _)| *u)
            .collect()
    }

    /// Rewrites the WAL to contain only the currently pending notifications,
    /// dropping acknowledged events and ack records. Returns the number of
    /// records written. The rewrite goes through a temp file + atomic rename
    /// so a crash mid-compaction leaves either the old or the new log intact.
    /// No-op (returning 0) for in-memory queues.
    pub fn compact(&self) -> std::io::Result<usize> {
        let Some(path) = &self.path else {
            return Ok(0);
        };
        // Hold both locks across the swap so no append interleaves.
        let state = self.state.lock();
        let mut wal = self.wal.lock();
        let tmp = path.with_extension("compact");
        let mut written = 0usize;
        {
            let mut f = File::create(&tmp)?;
            for q in state.pending.values() {
                for n in q {
                    let mut line = WalRecord::Event(n.clone()).to_json();
                    line.push('\n');
                    f.write_all(line.as_bytes())?;
                    written += 1;
                }
            }
            f.flush()?;
        }
        std::fs::rename(&tmp, path)?;
        *wal = Some(OpenOptions::new().append(true).open(path)?);
        Ok(written)
    }

    /// Current WAL size in bytes (0 for in-memory queues).
    pub fn wal_bytes(&self) -> u64 {
        self.path
            .as_ref()
            .and_then(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .unwrap_or(0)
    }

    fn append(&self, rec: &WalRecord) -> std::io::Result<()> {
        let mut wal = self.wal.lock();
        if let Some(f) = wal.as_mut() {
            let mut line = rec.to_json();
            line.push('\n');
            f.write_all(line.as_bytes())?;
            f.flush()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn notif(user: u64, desc: &str) -> Notification {
        Notification {
            seq: 0,
            user: UserId(user),
            time: Timestamp::from_millis(1),
            schema: AwarenessSchemaId(1),
            schema_name: "AS".into(),
            description: desc.into(),
            process_schema: ProcessSchemaId(1),
            process_instance: ProcessInstanceId(2),
            int_info: Some(7),
            str_info: None,
            priority: Default::default(),
        }
    }

    #[test]
    fn in_memory_fifo_per_user() {
        let q = DeliveryQueue::in_memory();
        q.enqueue(notif(1, "a")).unwrap();
        q.enqueue(notif(2, "b")).unwrap();
        q.enqueue(notif(1, "c")).unwrap();
        assert_eq!(q.pending_for(UserId(1)), 2);
        assert_eq!(q.pending_for(UserId(2)), 1);
        let got = q.fetch(UserId(1), 10);
        assert_eq!(
            got.iter().map(|n| n.description.as_str()).collect::<Vec<_>>(),
            vec!["a", "c"]
        );
        assert_eq!(got[0].seq, 1);
        assert_eq!(got[1].seq, 3);
        assert_eq!(q.users_with_pending(), vec![UserId(1), UserId(2)]);
    }

    #[test]
    fn fetch_does_not_remove_ack_does() {
        let q = DeliveryQueue::in_memory();
        q.enqueue(notif(1, "a")).unwrap();
        q.enqueue(notif(1, "b")).unwrap();
        assert_eq!(q.fetch(UserId(1), 1).len(), 1);
        assert_eq!(q.pending_for(UserId(1)), 2, "fetch is non-destructive");
        assert_eq!(q.ack(UserId(1), 1).unwrap(), 1);
        assert_eq!(q.pending_for(UserId(1)), 1);
        assert_eq!(q.fetch(UserId(1), 10)[0].description, "b");
    }

    #[test]
    fn durable_queue_survives_restart() {
        let dir = std::env::temp_dir().join(format!("cmi-q-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-restart.jsonl");
        let _ = std::fs::remove_file(&path);

        {
            let q = DeliveryQueue::open(&path).unwrap();
            q.enqueue(notif(1, "a")).unwrap();
            q.enqueue(notif(1, "b")).unwrap();
            q.enqueue(notif(2, "c")).unwrap();
            q.ack(UserId(1), 1).unwrap();
        } // "crash"

        let q = DeliveryQueue::open(&path).unwrap();
        assert_eq!(q.pending_for(UserId(1)), 1, "acked one gone, other kept");
        assert_eq!(q.fetch(UserId(1), 10)[0].description, "b");
        assert_eq!(q.pending_for(UserId(2)), 1);
        // Sequence numbers continue after the recovered maximum.
        let s = q.enqueue(notif(3, "d")).unwrap();
        assert_eq!(s, 4);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_trailing_line_is_dropped() {
        let dir = std::env::temp_dir().join(format!("cmi-q-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-torn.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let q = DeliveryQueue::open(&path).unwrap();
            q.enqueue(notif(1, "a")).unwrap();
        }
        // Simulate a torn append.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"kind\":\"event\",\"seq\":99,").unwrap();
        }
        let q = DeliveryQueue::open(&path).unwrap();
        assert_eq!(q.pending_for(UserId(1)), 1);
        assert_eq!(q.fetch(UserId(1), 10)[0].description, "a");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compaction_shrinks_wal_and_preserves_pending() {
        let dir = std::env::temp_dir().join(format!("cmi-q-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-compact.jsonl");
        let _ = std::fs::remove_file(&path);

        let q = DeliveryQueue::open(&path).unwrap();
        for i in 0..50 {
            q.enqueue(notif(1 + i % 2, &format!("n{i}"))).unwrap();
        }
        q.ack(UserId(1), 40).unwrap();
        q.ack(UserId(2), 30).unwrap();
        let before = q.wal_bytes();
        let kept = q.compact().unwrap();
        assert_eq!(kept, q.pending_total());
        assert!(q.wal_bytes() < before, "compaction shrinks the log");

        // Pending state is unchanged, appends keep working, and the
        // compacted log recovers identically.
        let pending_user2: Vec<String> = q
            .fetch(UserId(2), 100)
            .into_iter()
            .map(|n| n.description)
            .collect();
        q.enqueue(notif(2, "after-compact")).unwrap();
        drop(q);
        let q = DeliveryQueue::open(&path).unwrap();
        let recovered: Vec<String> = q
            .fetch(UserId(2), 100)
            .into_iter()
            .map(|n| n.description)
            .collect();
        assert_eq!(&recovered[..recovered.len() - 1], &pending_user2[..]);
        assert_eq!(recovered.last().map(String::as_str), Some("after-compact"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compact_is_noop_in_memory() {
        let q = DeliveryQueue::in_memory();
        q.enqueue(notif(1, "a")).unwrap();
        assert_eq!(q.compact().unwrap(), 0);
        assert_eq!(q.wal_bytes(), 0);
        assert_eq!(q.pending_for(UserId(1)), 1);
    }

    #[test]
    fn ack_is_idempotent_and_monotonic() {
        let q = DeliveryQueue::in_memory();
        q.enqueue(notif(1, "a")).unwrap();
        q.enqueue(notif(1, "b")).unwrap();
        assert_eq!(q.ack(UserId(1), 2).unwrap(), 2);
        assert_eq!(q.ack(UserId(1), 2).unwrap(), 0);
        assert_eq!(q.ack(UserId(1), 1).unwrap(), 0, "lower ack is a no-op");
        assert_eq!(q.pending_total(), 0);
    }
}
