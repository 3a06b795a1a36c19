//! Pinning the process to one CPU, for the workloads whose stacks run many
//! threads that wake each other (sessions, federation).
//!
//! On a 2-vCPU virtual machine the guest scheduler places those threads now
//! on one CPU (a wake-up costs a context switch), now on two (a wake-up
//! costs an inter-processor interrupt and an idle exit through the
//! hypervisor), and stays with its choice for seconds. Unpinned, ten runs of
//! `session_push` ranged 20 400–30 000 events/s and 80–119 µs median latency
//! (pinned: 16 000–16 300 and 59–60 µs), and two thirds of `fed_routed`'s
//! 261 µs median latency was that wake-up cost (pinned: 85 µs) while its
//! set-up time ranged 19 % of its median (pinned: 3 %) — `README.md` and
//! `calibration.json` have the series. Pinned, every wake-up is a context
//! switch and the figures measure the work on the path, which is what a
//! change to the program moves; the price is that these two workloads
//! cannot show a gain from running on two cores. The in-process workloads
//! (two busy harness threads, no threads of the program's own) repeat
//! within their bounds on both CPUs and keep them.

/// The process pinned to one CPU; dropping it gives the calling thread its
/// previous CPUs back (`--quick` runs pinned and unpinned workloads in one
/// process).
#[derive(Debug)]
pub struct Pinned {
    pub cpu: usize,
    #[cfg(target_os = "linux")]
    previous: [u64; MASK_WORDS],
}

/// Room for 1024 CPUs, the kernel's default `CONFIG_NR_CPUS` ceiling.
#[cfg(target_os = "linux")]
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts this thread — and every thread spawned after the call — to the
/// highest-numbered CPU it may run on (CPU 0 takes most interrupts).
/// `None` where the call is unavailable or refused (the run then goes ahead
/// unpinned).
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<Pinned> {
    let mut previous = [0u64; MASK_WORDS];
    let bytes = std::mem::size_of_val(&previous);
    // SAFETY: `previous` is a live, writable buffer of exactly `bytes` bytes
    // and pid 0 names the calling thread; the kernel writes at most `bytes`.
    if unsafe { sched_getaffinity(0, bytes, previous.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = previous
        .iter()
        .enumerate()
        .rev()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + (63 - w.leading_zeros() as usize))?;
    let mut only = [0u64; MASK_WORDS];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a live buffer of `bytes` bytes the kernel only reads.
    (unsafe { sched_setaffinity(0, bytes, only.as_ptr()) } == 0).then_some(Pinned { cpu, previous })
}

#[cfg(target_os = "linux")]
impl Drop for Pinned {
    fn drop(&mut self) {
        // SAFETY: `previous` is a live buffer of the size passed, holding the
        // mask the kernel gave us; a refusal only leaves the thread pinned.
        unsafe {
            sched_setaffinity(
                0,
                std::mem::size_of_val(&self.previous),
                self.previous.as_ptr(),
            )
        };
    }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<Pinned> {
    None
}
