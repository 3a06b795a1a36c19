//! Full causal tracing costs no per-event allocation on ingests that detect
//! nothing: the engine records each operator step unformatted and renders
//! the lineage only when a root fires. Proven with a counting global
//! allocator (same technique as `fed_codec_alloc.rs` — the tracked region
//! is gated by a thread-local flag so harness threads stay invisible).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cmi::core::ids::{ProcessSchemaId, SpecId};
use cmi::core::time::Timestamp;
use cmi::core::value::Value;
use cmi::events::event::Event;
use cmi::events::operator::CmpOp;
use cmi::events::operators::{Compare1Op, CountOp, ExternalFilter};
use cmi::events::producers::{external_event, Producer};
use cmi::events::sharded::ShardedEngine;
use cmi::events::spec::SpecBuilder;
use cmi::obs::ObsRegistry;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TRACK: Cell<bool> = const { Cell::new(false) };
}

fn tracked() -> bool {
    TRACK.try_with(|t| t.get()).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if tracked() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if tracked() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if tracked() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Events per instance before `compare1(==, 32, count(s0))` fires.
const QUIET: u64 = 31;

/// The `AS_Burst` shape: `compare1(==, 32, count(external(s0, inst)))`.
fn burst_engine(obs: ObsRegistry) -> ShardedEngine {
    let p = ProcessSchemaId(1);
    let mut b = SpecBuilder::new();
    let leaf = b.producer(Producer::External("s0".into()));
    let a = b
        .operator(Arc::new(ExternalFilter::new(p, "s0", Some("inst"))), &[leaf])
        .unwrap();
    let n = b.operator(Arc::new(CountOp::new(p)), &[a]).unwrap();
    let big = b
        .operator(Arc::new(Compare1Op::new(p, CmpOp::Eq, 32)), &[n])
        .unwrap();
    let spec = b.build(SpecId(1), "AS_Burst", big).unwrap();
    let mut engine = ShardedEngine::new(2);
    engine.add_spec(&spec);
    engine.set_obs(Arc::new(obs));
    engine
}

/// Heap allocations per event while `engine` ingests `events`.
fn allocs_per_event(engine: &ShardedEngine, events: &[Event]) -> f64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    TRACK.with(|t| t.set(true));
    for e in events {
        assert!(engine.ingest(e).is_empty(), "a quiet event detected");
    }
    TRACK.with(|t| t.set(false));
    (ALLOCS.load(Ordering::Relaxed) - before) as f64 / events.len() as f64
}

#[test]
fn tracing_allocates_nothing_extra_on_quiet_ingests() {
    let events: Vec<Event> = (0..QUIET)
        .map(|i| {
            external_event(
                "s0",
                Timestamp::from_millis(1 + i),
                [
                    ("inst".to_owned(), Value::Id(7)),
                    ("intInfo".to_owned(), Value::Int(i as i64)),
                ],
            )
        })
        .collect();
    let traced = allocs_per_event(&burst_engine(ObsRegistry::new()), &events);
    let metrics = allocs_per_event(&burst_engine(ObsRegistry::metrics_only()), &events);
    assert!(
        traced <= metrics + 1.0,
        "full tracing allocates {traced:.1}/event vs {metrics:.1}/event metrics-only"
    );
}
