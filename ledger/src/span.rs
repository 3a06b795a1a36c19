//! Harness-side tracing: a span around every call the harness makes into a
//! layer, kept in memory and written out when the run ends. Nothing here
//! touches the program — each layer is timed from outside.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// `parent` of a span with no parent.
pub const NO_PARENT: u32 = u32::MAX;
/// `parent` of a span recorded on the receiving thread: its parent is the
/// root span of the same `op_id` on the issuing thread, resolved when the
/// trace is written.
pub const PARENT_BY_OP: u32 = u32::MAX - 1;

/// Spans one thread records per traced phase; beyond it only the per-name
/// totals keep counting, so memory and the trace file stay bounded.
pub const SPANS_PER_PHASE: usize = 100_000;

/// One recorded span. Times are nanoseconds since the run's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same thread's log, or a sentinel.
    pub parent: u32,
    /// The input (by stream index) this span worked for.
    pub op_id: u64,
}

/// Count and total duration of every span of one name — kept for all spans,
/// recorded or not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
}

/// An open span handed back by [`SpanLog::begin`].
#[derive(Debug)]
pub struct Open {
    name: &'static str,
    start_ns: u64,
    op_id: u64,
    /// Slot reserved in the log (None once the phase budget is spent).
    slot: Option<u32>,
}

/// One thread's span log. A disabled log costs one branch per call.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Recorded spans may not exceed this; raised per traced phase.
    budget: usize,
    /// Currently open recorded spans, innermost last.
    stack: Vec<u32>,
    totals: BTreeMap<&'static str, NameTotal>,
    /// Parent for root spans: [`NO_PARENT`] on the issuing thread,
    /// [`PARENT_BY_OP`] on the receiving one.
    root_parent: u32,
}

impl SpanLog {
    pub fn new(enabled: bool, origin: Instant, root_parent: u32) -> SpanLog {
        SpanLog {
            enabled,
            origin,
            spans: Vec::new(),
            budget: 0,
            stack: Vec::new(),
            totals: BTreeMap::new(),
            root_parent,
        }
    }

    /// Switches recording (a traced run times one phase untraced to price
    /// the tracing itself).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Grants the next traced phase its recording budget.
    pub fn open_phase(&mut self) {
        if self.enabled {
            self.budget = self.spans.len() + SPANS_PER_PHASE;
            self.spans.reserve(SPANS_PER_PHASE);
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, op_id: u64) -> Option<Open> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        let slot = if self.spans.len() < self.budget {
            let parent = self.stack.last().copied().unwrap_or(self.root_parent);
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op_id,
            });
            let slot = (self.spans.len() - 1) as u32;
            self.stack.push(slot);
            Some(slot)
        } else {
            None
        };
        Some(Open {
            name,
            start_ns,
            op_id,
            slot,
        })
    }

    pub fn end(&mut self, open: Option<Open>) {
        let op_id = open.as_ref().map_or(0, |o| o.op_id);
        self.end_for(open, op_id);
    }

    /// Ends a span whose input became known only when the call returned (a
    /// receive learns which input it served from what it received).
    pub fn end_for(&mut self, open: Option<Open>, op_id: u64) {
        let Some(open) = open else { return };
        let end_ns = self.now_ns();
        let t = self.totals.entry(open.name).or_default();
        t.count += 1;
        t.total_ns += end_ns - open.start_ns;
        if let Some(slot) = open.slot {
            self.spans[slot as usize].end_ns = end_ns;
            self.spans[slot as usize].op_id = op_id;
            // spans close innermost-first on one thread
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(slot));
        }
    }

    /// Drops a span that turned out to cover no work (a receive that timed
    /// out): it is neither recorded nor counted.
    pub fn cancel(&mut self, open: Option<Open>) {
        if let Some(Open {
            slot: Some(slot), ..
        }) = open
        {
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(slot));
            // the cancelled span is the newest recorded one on this thread
            self.spans.truncate(slot as usize);
        }
    }

    /// Times `f` under a span.
    pub fn span<T>(&mut self, name: &'static str, op_id: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, op_id);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn total(&self, name: &str) -> NameTotal {
        self.totals.get(name).copied().unwrap_or_default()
    }

    pub fn totals(&self) -> &BTreeMap<&'static str, NameTotal> {
        &self.totals
    }
}

/// A span's self time: its duration minus the part of its interval its
/// children cover. Children may overlap each other and may stick out of the
/// parent (a receive on another thread outlives the issue that caused it);
/// they are clipped to the parent and their union is subtracted once.
pub fn self_time_ns(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (ps, pe) = parent;
    if pe <= ps {
        return 0;
    }
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(ps), e.min(pe)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (pe - ps) - covered
}

/// The issuing and receiving threads' logs, merged: span ids are positions
/// in the concatenation (issuer first), by-op parents resolved.
#[derive(Debug)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn merge(issuer: &SpanLog, receiver: &SpanLog) -> Trace {
        let mut spans: Vec<Span> = issuer.spans().to_vec();
        let root_of_op: BTreeMap<u64, u32> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == NO_PARENT)
            .map(|(i, s)| (s.op_id, i as u32))
            .collect();
        let shift = spans.len() as u32;
        for s in receiver.spans() {
            let parent = match s.parent {
                PARENT_BY_OP => root_of_op.get(&s.op_id).copied().unwrap_or(NO_PARENT),
                NO_PARENT => NO_PARENT,
                p => p + shift,
            };
            spans.push(Span { parent, ..*s });
        }
        Trace { spans }
    }

    /// Total self time per span name over the recorded spans.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let kids = children.get(&(i as u32)).map_or(&[][..], Vec::as_slice);
            *out.entry(s.name).or_default() += self_time_ns((s.start_ns, s.end_ns), kids);
        }
        out
    }

    /// `{names, spans: [[name, start_ns, end_ns, parent, op_id], …]}` —
    /// parent `-1` for none.
    pub fn to_json(&self, workload: &str) -> Json {
        let mut names: Vec<&'static str> = Vec::new();
        let mut rows = Vec::with_capacity(self.spans.len());
        for s in &self.spans {
            let ni = match names.iter().position(|n| *n == s.name) {
                Some(i) => i,
                None => {
                    names.push(s.name);
                    names.len() - 1
                }
            };
            let parent = if s.parent == NO_PARENT {
                -1.0
            } else {
                f64::from(s.parent)
            };
            rows.push(Json::Arr(vec![
                Json::Num(ni as f64),
                Json::Num(s.start_ns as f64),
                Json::Num(s.end_ns as f64),
                Json::Num(parent),
                Json::Num(s.op_id as f64),
            ]));
        }
        Json::obj([
            ("workload".to_owned(), Json::Str(workload.to_owned())),
            (
                "columns".to_owned(),
                Json::Arr(
                    ["name", "start_ns", "end_ns", "parent", "op_id"]
                        .iter()
                        .map(|c| Json::Str((*c).to_owned()))
                        .collect(),
                ),
            ),
            (
                "names".to_owned(),
                Json::Arr(names.iter().map(|n| Json::Str((*n).to_owned())).collect()),
            ),
            ("spans".to_owned(), Json::Arr(rows)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // parent 0..100; children 10..40 and 30..60 overlap (union 10..60),
        // 80..120 sticks out (clipped to 80..100), 200..300 lies outside
        let s = self_time_ns((0, 100), &[(10, 40), (30, 60), (80, 120), (200, 300)]);
        assert_eq!(s, 100 - 50 - 20);
        assert_eq!(self_time_ns((0, 100), &[]), 100);
        assert_eq!(self_time_ns((0, 100), &[(0, 100), (20, 30)]), 0);
        assert_eq!(self_time_ns((50, 50), &[(0, 100)]), 0);
    }

    #[test]
    fn nested_spans_link_to_their_parent_and_totals_count_everything() {
        let mut log = SpanLog::new(true, Instant::now(), NO_PARENT);
        log.open_phase();
        log.span("gen.event", 7, || ());
        let root = log.begin("gen.event", 8);
        log.span("fed.submit", 8, || ());
        log.span("fed.settle", 8, || ());
        log.end(root);
        let s = log.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, NO_PARENT);
        assert_eq!(s[2].parent, 1);
        assert_eq!(s[3].parent, 1);
        assert!(s[1].end_ns >= s[3].end_ns);
        assert_eq!(log.total("gen.event").count, 2);
        assert_eq!(log.total("fed.submit").count, 1);
    }

    #[test]
    fn cancelled_spans_vanish_and_late_op_ids_stick() {
        let mut log = SpanLog::new(true, Instant::now(), PARENT_BY_OP);
        log.open_phase();
        let idle = log.begin("net.recv", 0);
        log.cancel(idle);
        let o = log.begin("net.recv", 0);
        log.end_for(o, 99);
        assert_eq!(log.spans().len(), 1);
        assert_eq!(log.spans()[0].op_id, 99);
        assert_eq!(log.total("net.recv").count, 1);
    }

    #[test]
    fn budget_caps_recording_but_not_totals() {
        let mut log = SpanLog::new(true, Instant::now(), NO_PARENT);
        log.open_phase();
        for i in 0..(SPANS_PER_PHASE as u64 + 10) {
            log.span("x", i, || ());
        }
        assert_eq!(log.spans().len(), SPANS_PER_PHASE);
        assert_eq!(log.total("x").count, SPANS_PER_PHASE as u64 + 10);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false, Instant::now(), NO_PARENT);
        log.open_phase();
        assert_eq!(log.span("x", 1, || 5), 5);
        assert!(log.spans().is_empty());
        assert_eq!(log.total("x").count, 0);
    }

    #[test]
    fn merge_resolves_receiver_parents_by_op() {
        let origin = Instant::now();
        let mut a = SpanLog::new(true, origin, NO_PARENT);
        let mut b = SpanLog::new(true, origin, PARENT_BY_OP);
        a.open_phase();
        b.open_phase();
        a.span("gen.event", 41, || ());
        a.span("gen.event", 42, || ());
        b.span("net.recv", 42, || ());
        let t = Trace::merge(&a, &b);
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[2].parent, 1);
        let j = t.to_json("w");
        assert_eq!(j.get("spans").unwrap().as_arr().unwrap().len(), 3);
    }
}
