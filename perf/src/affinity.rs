//! Pins a measuring process to one CPU.
//!
//! On a small shared virtual machine, a job whose threads may land on
//! either vCPU pays for cross-vCPU wake-ups and cache migration, and the
//! host decides how much. Measured on a 2-vCPU VM: unpinned, the
//! per-second median of `warm_incore` jobs wandered between 4.3 and
//! 6.8 ms inside one process; pinned to one vCPU it stayed within
//! 3.9-4.2 ms. The library sizes its default thread count from the
//! process's CPU set, so a pinned process runs the library's defaults
//! for one core.

/// Restricts the calling thread to the lowest-numbered CPU it may run on
/// and returns that CPU, or `None` where affinity cannot be set. Called
/// before the process starts any thread, it pins the whole process:
/// threads created later inherit the set.
pub fn pin_to_one_cpu() -> Option<usize> {
    imp::pin()
}

#[cfg(target_os = "linux")]
mod imp {
    /// Words of a `cpu_set_t` (1024 CPUs).
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn pin() -> Option<usize> {
        let mut mask = [0u64; WORDS];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a writable buffer of exactly `size` bytes,
        // the `cpu_set_t` size glibc expects; pid 0 is this thread.
        if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = (0..WORDS * 64).find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
        let mut one = [0u64; WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a readable buffer of exactly `size` bytes.
        (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn pin() -> Option<usize> {
        None
    }
}
