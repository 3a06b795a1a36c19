//! How each workload's stack is driven: the calls thread 1 makes to issue
//! an input, the calls thread 2 makes to receive as a recipient, and how a
//! notification is matched back to the input that caused it.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cmi::awareness::queue::{DeliveryQueue, Notification};
use cmi::awareness::system::CmiServer;
use cmi::core::ids::UserId;
use cmi::core::time::Timestamp;
use cmi::core::value::Value;
use cmi::fed::{FedNode, RouteHandle};
use cmi::net::client::Connection;

use crate::drive::{Injector, Receiver};
use crate::gen::Input;
use crate::span::SpanLog;
use crate::stack::Enact;

/// `detect_local`: inputs are injected at explicit event times `idx + 1`
/// and a composite carries its completing event's time.
pub fn marker_time(n: &Notification) -> u64 {
    n.time.millis().saturating_sub(1)
}

/// `session_push` / `fed_routed`: the stateless filter copies `intInfo`.
pub fn marker_int_info(n: &Notification) -> u64 {
    n.int_info.unwrap_or(0).max(0) as u64
}

/// `enact_lifecycle`: `compare2` reports the moved deadline, `idx + 1` ms.
pub fn marker_deadline(n: &Notification) -> u64 {
    (n.int_info.unwrap_or(1).max(1) - 1) as u64
}

// ---------------------------------------------------------------- in-process

/// `detect_local` thread 1: the synchronous in-process ingest call.
pub struct LocalInjector<'a> {
    pub cmi: &'a CmiServer,
}

impl Injector for LocalInjector<'_> {
    fn issue(
        &mut self,
        input: Input,
        log: &mut SpanLog,
        settled: &mut dyn FnMut(u64, u64),
    ) -> Result<(), String> {
        let idx = input.idx;
        let n = log.span("awareness.ingest", idx, || {
            self.cmi.external_event_at(
                input.source,
                Timestamp::from_millis(input.time_ms),
                input.fields,
            )
        });
        settled(idx, n as u64);
        Ok(())
    }
}

/// Wakes the in-process receiver from the queue's enqueue hook: which
/// recipients have news, and a condition variable to sleep on.
pub struct Wake {
    index: HashMap<UserId, usize>,
    flags: Vec<AtomicBool>,
    sleeping: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Wake {
    /// Subscribes a hook for `users` on `queue`. The hook lives as long as
    /// the queue: one `Wake` per stack.
    pub fn subscribe(queue: &DeliveryQueue, users: &[UserId]) -> Arc<Wake> {
        let wake = Arc::new(Wake {
            index: users.iter().enumerate().map(|(i, u)| (*u, i)).collect(),
            flags: users.iter().map(|_| AtomicBool::new(false)).collect(),
            sleeping: AtomicBool::new(false),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        });
        let hook = wake.clone();
        queue.subscribe_enqueue(Box::new(move |user| {
            if let Some(&i) = hook.index.get(&user) {
                hook.flags[i].store(true, Ordering::SeqCst);
                if hook.sleeping.load(Ordering::SeqCst) {
                    let _g = hook.lock.lock().expect("wake lock");
                    hook.cv.notify_one();
                }
            }
            true
        }));
        wake
    }
}

/// Thread 2 of the in-process workloads: `fetch` woken by the enqueue
/// hook, then `ack_exact`, per recipient with news.
pub struct QueueReceiver<'a> {
    pub queue: &'a DeliveryQueue,
    pub users: &'a [UserId],
    pub wake: &'a Wake,
    pub marker: fn(&Notification) -> u64,
}

/// Notifications one `fetch` takes.
const FETCH_MAX: usize = 256;
/// How long the in-process receiver polls its wake flags before it sleeps
/// on the condition variable.
const SPIN_BEFORE_SLEEP: Duration = Duration::from_millis(2);

impl Receiver for QueueReceiver<'_> {
    fn recv(
        &mut self,
        timeout: Duration,
        log: &mut SpanLog,
        sink: &mut dyn FnMut(&Notification, Instant),
    ) {
        let mut any = false;
        for (i, &user) in self.users.iter().enumerate() {
            if !self.wake.flags[i].swap(false, Ordering::SeqCst) {
                continue;
            }
            loop {
                let f = log.begin("awareness.queue_fetch", 0);
                let batch = self.queue.fetch(user, FETCH_MAX);
                let at = Instant::now();
                let Some(first) = batch.first() else {
                    log.cancel(f);
                    break;
                };
                let op = (self.marker)(first);
                log.end_for(f, op);
                any = true;
                let seqs: Vec<u64> = batch.iter().map(|n| n.seq).collect();
                log.span("awareness.queue_ack", op, || {
                    self.queue.ack_exact(user, &seqs).expect("ack_exact");
                });
                for n in &batch {
                    sink(n, at);
                }
                if batch.len() < FETCH_MAX {
                    break;
                }
            }
        }
        if any {
            return;
        }
        // Spin (politely) before sleeping: under load the next enqueue is
        // microseconds away, and a futex wake-up on a virtualised box costs
        // more than the delivery it would time.
        let spin_until = Instant::now() + SPIN_BEFORE_SLEEP;
        while Instant::now() < spin_until {
            if self.wake.flags.iter().any(|f| f.load(Ordering::SeqCst)) {
                return;
            }
            std::thread::yield_now();
        }
        let guard = self.wake.lock.lock().expect("wake lock");
        self.wake.sleeping.store(true, Ordering::SeqCst);
        // a flag raised before `sleeping` was published would not notify
        if !self.wake.flags.iter().any(|f| f.load(Ordering::SeqCst)) {
            let _ = self
                .wake
                .cv
                .wait_timeout(guard, timeout)
                .expect("wake wait");
        }
        self.wake.sleeping.store(false, Ordering::SeqCst);
    }
}

// ------------------------------------------------------------------ sessions

/// `session_push` thread 1: a synchronous request round trip.
pub struct SessionInjector<'a> {
    pub conn: &'a Connection,
}

impl Injector for SessionInjector<'_> {
    fn issue(
        &mut self,
        input: Input,
        log: &mut SpanLog,
        settled: &mut dyn FnMut(u64, u64),
    ) -> Result<(), String> {
        let idx = input.idx;
        let n = log
            .span("net.ingest_rtt", idx, || {
                self.conn.external_event(input.source, input.fields)
            })
            .map_err(|e| format!("external_event: {e}"))?;
        settled(idx, n);
        Ok(())
    }
}

/// Thread 2 of the networked workloads: a subscribed viewer's `recv`
/// (which acknowledges before it returns).
pub struct ViewerReceiver<'a> {
    pub conn: &'a Connection,
    pub marker: fn(&Notification) -> u64,
}

impl Receiver for ViewerReceiver<'_> {
    fn recv(
        &mut self,
        timeout: Duration,
        log: &mut SpanLog,
        sink: &mut dyn FnMut(&Notification, Instant),
    ) {
        let open = log.begin("net.recv", 0);
        match self.conn.viewer().recv(timeout) {
            Some(n) => {
                let at = Instant::now();
                log.end_for(open, (self.marker)(&n));
                sink(&n, at);
            }
            None => log.cancel(open),
        }
    }
}

// ---------------------------------------------------------------- federation

/// `fed_routed` thread 1: pipelined in-process ingest at the ingress node —
/// submit now, settle when the window fills.
pub struct FedInjector<'a> {
    pub node: &'a FedNode,
    pub window: usize,
    pub open: VecDeque<(u64, RouteHandle)>,
}

impl Injector for FedInjector<'_> {
    fn issue(
        &mut self,
        input: Input,
        log: &mut SpanLog,
        settled: &mut dyn FnMut(u64, u64),
    ) -> Result<(), String> {
        let idx = input.idx;
        let handle = log.span("fed.submit", idx, || {
            self.node.external_event_async(input.source, input.fields)
        });
        self.open.push_back((idx, handle));
        if self.open.len() >= self.window {
            self.settle_one(log, settled)?;
        }
        Ok(())
    }

    fn settle_one(
        &mut self,
        log: &mut SpanLog,
        settled: &mut dyn FnMut(u64, u64),
    ) -> Result<bool, String> {
        let Some((idx, handle)) = self.open.pop_front() else {
            return Ok(false);
        };
        let n = log
            .span("fed.settle", idx, || self.node.wait_external(handle))
            .map_err(|e| format!("wait_external: {e}"))?;
        settled(idx, n);
        Ok(true)
    }
}

// ----------------------------------------------------------------- enactment

/// `enact_lifecycle` thread 1: one §5.4 case per input, start to evict.
pub struct EnactInjector<'a> {
    pub stack: &'a Enact,
}

/// A deadline far beyond any request deadline: no violation yet.
const FAR_DEADLINE_MS: u64 = 1_000_000_000_000;

impl EnactInjector<'_> {
    fn case(&self, input: &Input, log: &mut SpanLog) -> Result<u64, String> {
        let st = self.stack;
        let cmi = &st.cmi;
        let coord = cmi.coordination();
        let contexts = cmi.contexts();
        let idx = input.idx;
        let pick = |v: &Value| match v {
            Value::Int(i) => *i as usize,
            _ => 0,
        };
        let leader = st.leaders[pick(&input.fields[0].1) % st.leaders.len()];
        let e = |what: &str, err: String| format!("case {idx}: {what}: {err}");

        // the leader starts a task force and sets its deadline
        let tf = log
            .span("coord.start_process", idx, || {
                coord.start_process(st.schemas.task_force, Some(leader))
            })
            .map_err(|x| e("start_process", x.to_string()))?;
        let tf_ctx = log
            .span("core.find_context", idx, || {
                contexts.find("TaskForceContext", tf)
            })
            .ok_or_else(|| e("find", "no TaskForceContext".into()))?;
        let far = Value::Time(Timestamp::from_millis(FAR_DEADLINE_MS));
        log.span("core.set_field", idx, || {
            contexts.set_field(tf_ctx, "TaskForceDeadline", far.clone())
        })
        .map_err(|x| e("set_field", x.to_string()))?;

        // members open information requests; each gets the task force
        // context attached, which creates its scoped Requestor role's view
        let mut requests = Vec::new();
        for (_, m) in &input.fields[1..] {
            let member = st.members[pick(m) % st.members.len()];
            let req = log
                .span("coord.start_optional", idx, || {
                    coord.start_optional(tf, "request", Some(member))
                })
                .map_err(|x| e("start_optional", x.to_string()))?;
            log.span("core.attach", idx, || {
                contexts.attach(tf_ctx, (st.schemas.info_request, req))
            })
            .map_err(|x| e("attach", x.to_string()))?;
            log.span("core.set_field", idx, || {
                contexts.set_field(tf_ctx, "TaskForceDeadline", far.clone())
            })
            .map_err(|x| e("set_field", x.to_string()))?;
            requests.push((req, member));
        }

        // the leader moves the deadline before every request's own: one
        // compare2 violation per request, delivered to its Requestor
        let moved = Value::Time(Timestamp::from_millis(idx + 1));
        log.span("core.set_field", idx, || {
            contexts.set_field(tf_ctx, "TaskForceDeadline", moved)
        })
        .map_err(|x| e("set_field", x.to_string()))?;

        // requests finish (their scope ends, the scoped role is destroyed)
        for &(req, member) in &requests {
            let g = log
                .span("core.child_for_var", idx, || {
                    cmi.store().child_for_var(req, st.gather_var)
                })
                .map_err(|x| e("child_for_var", x.to_string()))?
                .ok_or_else(|| e("child_for_var", "no gather activity".into()))?;
            log.span("coord.start_activity", idx, || {
                coord.start_activity(g, Some(member))
            })
            .map_err(|x| e("start_activity", x.to_string()))?;
            log.span("coord.complete_activity", idx, || {
                coord.complete_activity(g, Some(member))
            })
            .map_err(|x| e("complete_activity", x.to_string()))?;
        }
        // the task force completes with its last request; drop the case's
        // detector state
        log.span("awareness.evict", idx, || {
            for &(req, _) in &requests {
                cmi.awareness().evict_instance(req);
            }
            cmi.awareness().evict_instance(tf);
        });
        Ok(requests.len() as u64)
    }
}

impl Injector for EnactInjector<'_> {
    fn issue(
        &mut self,
        input: Input,
        log: &mut SpanLog,
        settled: &mut dyn FnMut(u64, u64),
    ) -> Result<(), String> {
        let n = self.case(&input, log)?;
        settled(input.idx, n);
        Ok(())
    }
}
