//! Thread placement through the C library (Linux): CPU affinity for the
//! host-speed samplers, and a lower priority for the server under test
//! so that the in-process load generator keeps its schedule — as it
//! would on a separate client machine. Elsewhere these are no-ops.

pub use imp::{allowed_cpus, current_cpu, pin_current_thread, set_current_thread_nice};

#[cfg(target_os = "linux")]
mod imp {
    /// A `cpu_set_t` (1,024 CPUs).
    #[repr(C)]
    struct CpuSet {
        bits: [u64; 16],
    }

    /// `PRIO_PROCESS`; with `who = 0` Linux applies it to the calling
    /// thread only (the nice value is a per-thread attribute).
    const PRIO_PROCESS: i32 = 0;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
        fn setpriority(which: i32, who: u32, prio: i32) -> i32;
        fn sched_getcpu() -> i32;
    }

    /// The CPUs this thread may run on (at most 16), or one `None` entry
    /// when they cannot be read.
    pub fn allowed_cpus() -> Vec<Option<usize>> {
        let mut set = CpuSet { bits: [0; 16] };
        // SAFETY: `set` is a valid, writable `cpu_set_t`-sized buffer and
        // `size` is its exact size; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        let cpus: Vec<Option<usize>> = (0..1024)
            .filter(|&c| rc == 0 && set.bits[c / 64] & (1 << (c % 64)) != 0)
            .take(16)
            .map(Some)
            .collect();
        if cpus.is_empty() {
            vec![None]
        } else {
            cpus
        }
    }

    /// Pins the calling thread to `cpu`; failure leaves it unpinned.
    pub fn pin_current_thread(cpu: usize) {
        let mut set = CpuSet { bits: [0; 16] };
        set.bits[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `set` is a valid `cpu_set_t`-sized buffer, read only;
        // pid 0 names the calling thread.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    }

    /// The CPU the calling thread is running on, when known.
    pub fn current_cpu() -> Option<usize> {
        // SAFETY: no arguments; returns -1 on failure.
        usize::try_from(unsafe { sched_getcpu() }).ok()
    }

    /// Sets the calling thread's nice value (threads it spawns inherit
    /// it).
    pub fn set_current_thread_nice(nice: i32) {
        // SAFETY: plain integer arguments; raising the nice value needs
        // no privilege and failure only leaves the priority unchanged.
        let _ = unsafe { setpriority(PRIO_PROCESS, 0, nice) };
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn allowed_cpus() -> Vec<Option<usize>> {
        vec![None]
    }

    pub fn pin_current_thread(_cpu: usize) {}

    pub fn current_cpu() -> Option<usize> {
        None
    }

    pub fn set_current_thread_nice(_nice: i32) {}
}
