//! The correctness gate: the exact prefix of inputs a run issued is replayed
//! into an unsharded, unfederated, sessionless `CmiServer::new()`, and what
//! the recipients actually received must match what that server delivers —
//! the same per-recipient multiset, the same per-instance order.

use std::time::Instant;

use cmi::awareness::system::CmiServer;
use cmi::core::ids::UserId;
use cmi::core::time::Timestamp;

use crate::drive::{Digest, Injector};
use crate::gen::{Generator, Workload};
use crate::span::{SpanLog, NO_PARENT};
use crate::stack;
use crate::workloads::EnactInjector;

/// Inputs between drains of the oracle's queues (bounds its memory).
const DRAIN_EVERY: u64 = 1024;

fn drain(cmi: &CmiServer, users: &[UserId], into: &mut Digest) {
    let queue = cmi.awareness().queue();
    for &u in users {
        loop {
            let batch = queue.fetch(u, 4096);
            let Some(last) = batch.last() else { break };
            for n in &batch {
                into.add(n);
            }
            queue.ack(u, last.seq).expect("oracle ack");
        }
    }
}

/// What the recipients of `workload` must have received after the first
/// `issued` inputs of the seed's stream.
pub fn expected(workload: Workload, seed: u64, issued: u64) -> Digest {
    let mut gen = Generator::new(workload, seed);
    let mut digest = Digest::default();
    match workload {
        Workload::EnactLifecycle => {
            let (st, _) = stack::enact(false);
            let mut inj = EnactInjector { stack: &st };
            let mut log = SpanLog::new(false, Instant::now(), NO_PARENT);
            for i in 0..issued {
                inj.issue(gen.next_input(), &mut log, &mut |_, _| {})
                    .expect("oracle case");
                if i % DRAIN_EVERY == 0 {
                    drain(&st.cmi, &st.members, &mut digest);
                }
            }
            drain(&st.cmi, &st.members, &mut digest);
        }
        _ => {
            let (cmi, recipients) = stack::oracle_world(workload);
            for i in 0..issued {
                let input = gen.next_input();
                if workload == Workload::DetectLocal {
                    cmi.external_event_at(
                        input.source,
                        Timestamp::from_millis(input.time_ms),
                        input.fields,
                    );
                } else {
                    // the networked stacks stamp events with the server's
                    // scenario clock, which nobody advances
                    cmi.external_event(input.source, input.fields);
                }
                if i % DRAIN_EVERY == 0 {
                    drain(&cmi, &recipients, &mut digest);
                }
            }
            drain(&cmi, &recipients, &mut digest);
        }
    }
    digest
}
