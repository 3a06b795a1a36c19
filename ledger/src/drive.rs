//! The phase engine: one issuing thread, one receiving thread, and the
//! bookkeeping between them. Load comes from these two harness threads
//! only; every other thread in the process belongs to the program.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cmi::awareness::queue::Notification;

use crate::gen::{fnv1a, Generator, Input, FNV_OFFSET};
use crate::pace::{wait_until, Outstanding, Schedule, WINDOWS};
use crate::span::SpanLog;

/// A `paced` notification later than this counts as failed.
pub const LATE_LIMIT: Duration = Duration::from_millis(250);
/// How long a phase waits for stragglers after its last input.
pub const DRAIN_LIMIT: Duration = Duration::from_secs(5);

/// Issues inputs into the stack (thread 1).
pub trait Injector {
    /// Issues `input`. Every input whose ingest call has fully returned —
    /// this one, or an earlier one a pipelined injector settles now — is
    /// reported through `settled(idx, notifications it produced)`.
    fn issue(
        &mut self,
        input: Input,
        log: &mut SpanLog,
        settled: &mut dyn FnMut(u64, u64),
    ) -> Result<(), String>;

    /// Settles the oldest still-open ingest call, blocking until it returns;
    /// `Ok(false)` when none is open (synchronous injectors never have one).
    fn settle_one(
        &mut self,
        _log: &mut SpanLog,
        _settled: &mut dyn FnMut(u64, u64),
    ) -> Result<bool, String> {
        Ok(false)
    }
}

/// Receives and acknowledges notifications as a recipient (thread 2).
pub trait Receiver {
    /// Blocks up to `timeout` for notifications, acknowledges each, and
    /// hands it to `sink` with the instant the receive call returned.
    fn recv(
        &mut self,
        timeout: Duration,
        log: &mut SpanLog,
        sink: &mut dyn FnMut(&Notification, Instant),
    );
}

/// Order-sensitive fingerprint of everything the recipients received: per
/// `(recipient, process instance)` a hash chain and a count. Equal digests
/// mean equal multisets per recipient and equal per-instance order (the
/// rule `tests/fed_differential.rs` applies), without holding a million
/// notifications in memory.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Digest {
    pairs: HashMap<(u64, u64), (u64, u64)>,
    total: u64,
}

impl Digest {
    /// Identity of a notification independent of queue sequence numbers
    /// (those are node-local and re-assigned on a routed hop).
    fn note_hash(n: &Notification) -> u64 {
        let mut h = FNV_OFFSET;
        fnv1a(&mut h, &n.user.raw().to_le_bytes());
        fnv1a(&mut h, &n.time.millis().to_le_bytes());
        fnv1a(&mut h, n.description.as_bytes());
        fnv1a(&mut h, &n.process_instance.raw().to_le_bytes());
        fnv1a(&mut h, &n.int_info.unwrap_or(i64::MIN).to_le_bytes());
        fnv1a(&mut h, n.str_info.as_deref().unwrap_or("\u{0}").as_bytes());
        h
    }

    pub fn add(&mut self, n: &Notification) {
        let e = self
            .pairs
            .entry((n.user.raw(), n.process_instance.raw()))
            .or_insert((0, 0));
        e.0 = (e.0.rotate_left(5) ^ Self::note_hash(n)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        e.1 += 1;
        self.total += 1;
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    /// Compares what was received (`self`) with what the oracle expects.
    pub fn diff(&self, expected: &Digest) -> DigestDiff {
        let mut d = DigestDiff::default();
        for (k, &(chain, count)) in &expected.pairs {
            match self.pairs.get(k) {
                None => d.missing += count,
                Some(&(c2, n2)) => {
                    if n2 < count {
                        d.missing += count - n2;
                    } else if n2 > count {
                        d.extra += n2 - count;
                    } else if c2 != chain {
                        d.misordered += 1;
                    }
                }
            }
        }
        for (k, &(_, count)) in &self.pairs {
            if !expected.pairs.contains_key(k) {
                d.extra += count;
            }
        }
        d
    }
}

/// Outcome of a differential check.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DigestDiff {
    /// Expected notifications that never arrived.
    pub missing: u64,
    /// Duplicates and notifications nobody expected.
    pub extra: u64,
    /// `(recipient, instance)` sequences with the right count in the wrong
    /// order or with wrong content.
    pub misordered: u64,
}

impl DigestDiff {
    pub fn failures(&self) -> u64 {
        self.missing + self.extra + self.misordered
    }
}

/// The load shape of one phase.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// Closed loop: at most `window` inputs outstanding, for a fixed count
    /// or a fixed time.
    Closed { window: u64, stop: Stop },
    /// Open loop on a fixed schedule.
    Open { schedule: Schedule },
}

#[derive(Debug, Clone, Copy)]
pub enum Stop {
    Count(u64),
    After(Duration),
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct PhaseOut {
    pub issued: u64,
    /// Ingest calls that returned `Err`.
    pub errors: u64,
    pub first_error: Option<String>,
    /// Notifications the ingest calls reported producing.
    pub expected_notes: u64,
    pub received_notes: u64,
    /// Wall time from the first input to the last one issued.
    pub issue_elapsed: Duration,
    /// Closed/After: inputs completed in each window, and the window length.
    pub completed_per_window: [u64; WINDOWS],
    pub window_len: Duration,
    /// Open: due-time → receive latency samples per window (ns).
    pub latency_windows: Vec<Vec<u64>>,
    /// Open: how late each input was issued against its due time (ns).
    pub late_ns: Vec<u64>,
    /// Open: notifications later than [`LATE_LIMIT`].
    pub too_late: u64,
    /// Largest queue depth the probe saw.
    pub queue_depth_max: u64,
}

/// Outstanding inputs a phase can track (ring of per-input counters).
const RING: usize = 1 << 16;

/// Maps a notification back to the input that last contributed to it.
pub type MarkerFn = fn(&Notification) -> u64;

/// Everything a phase runs against.
pub struct Rig<'a> {
    pub injector: &'a mut dyn Injector,
    pub receiver: &'a mut (dyn Receiver + Send),
    pub marker: MarkerFn,
    pub issuer_log: &'a mut SpanLog,
    pub receiver_log: &'a mut SpanLog,
    /// Samples the stack's pending-notification count (traced runs only).
    pub depth_probe: Option<&'a (dyn Fn() -> u64 + Sync)>,
    /// Everything received, across phases.
    pub digest: &'a mut Digest,
}

/// Runs one phase: issues inputs from `gen` in `shape` on the calling
/// thread while a second thread receives, then waits (bounded) until every
/// notification the ingest calls reported has arrived.
pub fn run_phase(rig: &mut Rig<'_>, gen: &mut Generator, shape: Shape) -> PhaseOut {
    let outstanding = Outstanding::new();
    let slots: Vec<AtomicI64> = (0..RING).map(|_| AtomicI64::new(0)).collect();
    let issuer_done = AtomicBool::new(false);
    let expected = AtomicU64::new(0);
    let received = AtomicU64::new(0);
    let window_counts: [AtomicU64; WINDOWS] = std::array::from_fn(|_| AtomicU64::new(0));

    let start = Instant::now();
    let window_len = match shape {
        Shape::Closed {
            stop: Stop::After(d),
            ..
        } => d / WINDOWS as u32,
        _ => Duration::ZERO,
    };
    let complete = |at: Instant| {
        if !window_len.is_zero() {
            let w = (at.duration_since(start).as_nanos() / window_len.as_nanos()) as usize;
            if w < WINDOWS {
                window_counts[w].fetch_add(1, Ordering::Relaxed);
            }
        }
        outstanding.note_completed();
    };

    let mut out = PhaseOut {
        window_len,
        ..PhaseOut::default()
    };
    rig.issuer_log.open_phase();
    rig.receiver_log.open_phase();

    let marker = rig.marker;
    let receiver = &mut *rig.receiver;
    let receiver_log = &mut *rig.receiver_log;
    let digest = &mut *rig.digest;
    let depth_probe = rig.depth_probe;
    let injector = &mut *rig.injector;
    let issuer_log = &mut *rig.issuer_log;

    // the phase's first input: markers below it belong to earlier phases
    let base_idx = {
        let mut peek = gen.clone();
        peek.next_input().idx
    };

    std::thread::scope(|s| {
        // ---- thread 2: receive, acknowledge, account ----
        let rx = s.spawn(|| {
            let mut lat: Vec<Vec<u64>> = vec![Vec::new(); WINDOWS];
            let mut too_late = 0u64;
            let mut depth_max = 0u64;
            let mut last_probe = Instant::now();
            let mut drain_deadline: Option<Instant> = None;
            loop {
                receiver.recv(Duration::from_millis(2), receiver_log, &mut |n, at| {
                    digest.add(n);
                    received.fetch_add(1, Ordering::SeqCst);
                    let idx = marker(n);
                    if idx < base_idx {
                        return; // a straggler of an earlier phase
                    }
                    if let Shape::Open { schedule } = shape {
                        let k = idx - base_idx;
                        let charge =
                            schedule.charge_ns(k, at.duration_since(start).as_nanos() as u64);
                        if charge > LATE_LIMIT.as_nanos() as u64 {
                            too_late += 1;
                        }
                        lat[schedule.window_of(k)].push(charge);
                    }
                    let prev = slots[idx as usize % RING].fetch_sub(1, Ordering::SeqCst);
                    if prev - 1 == 0 {
                        complete(at);
                    }
                });
                if let Some(probe) = depth_probe {
                    if last_probe.elapsed() >= Duration::from_millis(2) {
                        depth_max = depth_max.max(probe());
                        last_probe = Instant::now();
                    }
                }
                if issuer_done.load(Ordering::SeqCst) {
                    if received.load(Ordering::SeqCst) >= expected.load(Ordering::SeqCst) {
                        break;
                    }
                    let deadline =
                        *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_LIMIT);
                    if Instant::now() >= deadline {
                        break;
                    }
                }
            }
            (lat, too_late, depth_max)
        });

        // ---- thread 1 (this one): issue ----
        let expected_local = std::cell::Cell::new(0u64);
        let mut settled = |idx: u64, k: u64| {
            expected_local.set(expected_local.get() + k);
            if k == 0 {
                complete(Instant::now());
            } else {
                let prev = slots[idx as usize % RING].fetch_add(k as i64, Ordering::SeqCst);
                if prev + k as i64 == 0 {
                    complete(Instant::now());
                }
            }
        };
        let fail = |out: &mut PhaseOut, e: String| {
            out.errors += 1;
            out.first_error.get_or_insert(e);
            // a failed ingest produces nothing: the input is done
            outstanding.note_completed();
        };
        let far = start + Duration::from_secs(3600);
        match shape {
            Shape::Closed { window, stop } => {
                let deadline = match stop {
                    Stop::After(d) => start + d,
                    Stop::Count(_) => far,
                };
                let count = match stop {
                    Stop::Count(n) => n,
                    Stop::After(_) => u64::MAX,
                };
                'issue: while out.issued < count && Instant::now() < deadline {
                    while outstanding.issued() - outstanding.completed() >= window {
                        match injector.settle_one(issuer_log, &mut settled) {
                            Ok(true) => {}
                            Ok(false) => {
                                if !outstanding.wait_for_room(window, deadline) {
                                    break 'issue;
                                }
                            }
                            Err(e) => fail(&mut out, e),
                        }
                    }
                    let input = gen.next_input();
                    let idx = input.idx;
                    outstanding.note_issued();
                    out.issued += 1;
                    let root = issuer_log.begin("gen.event", idx);
                    if let Err(e) = injector.issue(input, issuer_log, &mut settled) {
                        fail(&mut out, e);
                    }
                    issuer_log.end(root);
                }
            }
            Shape::Open { schedule } => {
                out.late_ns.reserve(schedule.count() as usize);
                for k in 0..schedule.count() {
                    let due = start + Duration::from_nanos(schedule.due_ns(k));
                    wait_until(due);
                    out.late_ns
                        .push(Instant::now().duration_since(due).as_nanos() as u64);
                    let input = gen.next_input();
                    let idx = input.idx;
                    outstanding.note_issued();
                    out.issued += 1;
                    let root = issuer_log.begin("gen.event", idx);
                    if let Err(e) = injector.issue(input, issuer_log, &mut settled) {
                        fail(&mut out, e);
                    }
                    issuer_log.end(root);
                }
            }
        }
        out.issue_elapsed = start.elapsed();
        loop {
            match injector.settle_one(issuer_log, &mut settled) {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => fail(&mut out, e),
            }
        }
        out.expected_notes = expected_local.get();
        expected.store(expected_local.get(), Ordering::SeqCst);
        issuer_done.store(true, Ordering::SeqCst);

        let (lat, too_late, depth_max) = rx.join().expect("receiver thread");
        out.latency_windows = lat;
        out.too_late = too_late;
        out.queue_depth_max = depth_max;
    });
    out.received_notes = received.load(Ordering::SeqCst);
    for (w, c) in window_counts.iter().enumerate() {
        out.completed_per_window[w] = c.load(Ordering::Relaxed);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmi::awareness::queue::Priority;
    use cmi::core::ids::{AwarenessSchemaId, ProcessInstanceId, ProcessSchemaId, UserId};
    use cmi::core::time::Timestamp;

    fn note(user: u64, inst: u64, info: i64) -> Notification {
        Notification {
            seq: 0,
            user: UserId(user),
            time: Timestamp::from_millis(0),
            schema: AwarenessSchemaId(1),
            schema_name: "AS".into(),
            description: "d".into(),
            process_schema: ProcessSchemaId(1),
            process_instance: ProcessInstanceId(inst),
            int_info: Some(info),
            str_info: None,
            priority: Priority::Normal,
        }
    }

    #[test]
    fn digest_sees_missing_duplicate_and_reordered_notifications() {
        let mut want = Digest::default();
        for (u, i, m) in [(1, 10, 0), (1, 10, 1), (1, 11, 2), (2, 10, 3)] {
            want.add(&note(u, i, m));
        }
        // identical stream, other interleaving across instances: equal
        let mut same = Digest::default();
        for (u, i, m) in [(2, 10, 3), (1, 11, 2), (1, 10, 0), (1, 10, 1)] {
            same.add(&note(u, i, m));
        }
        assert_eq!(same.diff(&want), DigestDiff::default());
        // per-instance order swapped
        let mut swapped = Digest::default();
        for (u, i, m) in [(1, 10, 1), (1, 10, 0), (1, 11, 2), (2, 10, 3)] {
            swapped.add(&note(u, i, m));
        }
        assert_eq!(swapped.diff(&want).misordered, 1);
        // one missing, one duplicated, one nobody expected
        let mut off = Digest::default();
        for (u, i, m) in [(1, 10, 0), (1, 11, 2), (1, 11, 2), (3, 1, 9)] {
            off.add(&note(u, i, m));
        }
        let d = off.diff(&want);
        assert_eq!((d.missing, d.extra), (2, 2));
        assert_eq!(d.failures(), 4);
    }
}
