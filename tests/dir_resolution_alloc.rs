//! Allocation guarantees for the directory hot path, proven with a counting
//! global allocator (same technique as `fed_codec_alloc.rs` — the tracked
//! region is gated by a thread-local flag so harness threads stay
//! invisible):
//!
//! * A **cache-hit** `RoleResolver::resolve` — org or scoped — performs
//!   *zero* heap allocations: the returned [`RoleSnapshot`] shares the
//!   directory's published `Arc`'d member list, never a materialized copy.
//! * The `Identity` and `SignedOn` assignment policies select and enumerate
//!   a 10^4-member fan-out without allocating a member set: they are
//!   iteration strategies over the shared slice, reading per-user atomics.
//!
//! This is the mechanism that keeps million-member resolution flat: the
//! per-delivery cost is one atomic version load plus an `Arc` bump, however
//! large the role is.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cmi::awareness::{RoleAssignment, RoleResolver, Selected};
use cmi::core::context::ContextManager;
use cmi::core::ids::{ProcessInstanceId, ProcessSchemaId};
use cmi::core::participant::Directory;
use cmi::core::roles::RoleSpec;
use cmi::core::time::SimClock;
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

const MEMBERS: usize = 10_000;

fn measured<R>(f: impl FnOnce() -> R) -> (R, u64) {
    // `ALLOCS` is process-wide and the tests of this binary run on parallel
    // threads: one tracked region at a time, or a neighbour's probe lands
    // in this region's delta.
    static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    TRACK.with(|t| t.set(true));
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    let after = ALLOCS.load(Ordering::Relaxed);
    TRACK.with(|t| t.set(false));
    (r, after - before)
}

/// The zero above is a real measurement: the probe must see a `vec!`.
fn probe_counts() {
    let (_, n) = measured(|| std::hint::black_box(vec![0u8; 4096]));
    assert!(n > 0, "allocation probe saw nothing");
}

fn big_directory() -> (Arc<Directory>, cmi::core::ids::RoleId) {
    let dir = Arc::new(Directory::new());
    let role = dir.add_role("legion").unwrap();
    for i in 0..MEMBERS {
        let u = dir.add_user(&format!("u{i}"));
        dir.assign(u, role).unwrap();
        // Every third member signed on, varied loads.
        if i % 3 == 0 {
            dir.set_signed_on(u, true).unwrap();
        }
        dir.set_load(u, (i % 17) as u32).unwrap();
    }
    (dir, role)
}

/// 100 cache-hit org resolutions of a 10^4-member role: zero allocations.
#[test]
fn org_cache_hit_resolution_allocates_nothing() {
    let (dir, _role) = big_directory();
    let contexts = Arc::new(ContextManager::new(Arc::new(SimClock::new())));
    let obs = ObsRegistry::new();
    let resolver = RoleResolver::new(dir, contexts, &obs);
    let spec = RoleSpec::org("legion");

    // Warm: the first resolve misses and builds the cache entry.
    let warm = resolver.resolve(&spec, ProcessInstanceId(0)).unwrap();
    assert_eq!(warm.members.len(), MEMBERS);

    let (total, allocs) = measured(|| {
        let mut total = 0usize;
        for _ in 0..100 {
            let snap = resolver.resolve(&spec, ProcessInstanceId(0)).unwrap();
            total += snap.members.len();
        }
        total
    });
    assert_eq!(total, 100 * MEMBERS);
    assert_eq!(allocs, 0, "org cache hit allocated on the heap");
    probe_counts();
}

/// Cache-hit scoped resolution is equally allocation-free.
#[test]
fn scoped_cache_hit_resolution_allocates_nothing() {
    let dir = Arc::new(Directory::new());
    let contexts = Arc::new(ContextManager::new(Arc::new(SimClock::new())));
    let members: Vec<_> = (0..64).map(|i| dir.add_user(&format!("m{i}"))).collect();
    let inst = ProcessInstanceId(7);
    let ctx = contexts.create("TaskForce", Some((ProcessSchemaId(1), inst)));
    contexts.create_role(ctx, "Members", &members).unwrap();
    let obs = ObsRegistry::new();
    let resolver = RoleResolver::new(dir, contexts, &obs);
    let spec = RoleSpec::Scoped {
        context_name: "TaskForce".to_owned(),
        role: "Members".to_owned(),
    };

    let warm = resolver.resolve(&spec, inst).unwrap();
    assert_eq!(warm.members.len(), 64);

    let (total, allocs) = measured(|| {
        let mut total = 0usize;
        for _ in 0..100 {
            total += resolver.resolve(&spec, inst).unwrap().members.len();
        }
        total
    });
    assert_eq!(total, 100 * 64);
    assert_eq!(allocs, 0, "scoped cache hit allocated on the heap");
    probe_counts();
}

/// `Identity` and `SignedOn` fan-outs over 10^4 members — selection plus
/// full recipient enumeration through the per-user atomics — allocate
/// nothing. (`LeastLoaded` is the *deliberately* materializing policy; its
/// cost is `O(n)` for the `n` selected, asserted here as a contrast.)
#[test]
fn identity_and_signed_on_fanout_allocate_no_member_set() {
    let (dir, role) = big_directory();
    let snap = dir.resolve(role).unwrap();
    let signed_on_expected = MEMBERS.div_ceil(3);

    let ((identity_seen, signed_seen), allocs) = measured(|| {
        let mut identity_seen = 0usize;
        let mut signed_seen = 0usize;
        for _ in 0..10 {
            match RoleAssignment::Identity.select(&snap, &dir) {
                Selected::All => {
                    for &u in snap.members.iter() {
                        std::hint::black_box(u);
                        identity_seen += 1;
                    }
                }
                other => panic!("identity selected {other:?}"),
            }
            match RoleAssignment::SignedOn.select(&snap, &dir) {
                Selected::SignedOnly => {
                    let view = dir.load_view();
                    for &u in snap.members.iter() {
                        if view.signed_on(u) {
                            std::hint::black_box(u);
                            signed_seen += 1;
                        }
                    }
                }
                other => panic!("signed-on selected {other:?}"),
            }
        }
        (identity_seen, signed_seen)
    });
    assert_eq!(identity_seen, 10 * MEMBERS);
    assert_eq!(signed_seen, 10 * signed_on_expected);
    assert_eq!(allocs, 0, "non-materializing fan-out allocated a member set");

    // Contrast: LeastLoaded materializes — but O(n) selected, not O(role).
    let (picked, allocs) = measured(|| {
        match (RoleAssignment::LeastLoaded { n: 8 }).select(&snap, &dir) {
            Selected::Subset(v) => v.len(),
            other => panic!("least-loaded selected {other:?}"),
        }
    });
    assert_eq!(picked, 8);
    assert!(
        allocs <= 8,
        "least-loaded must allocate O(selected), saw {allocs} allocations"
    );
    probe_counts();
}
