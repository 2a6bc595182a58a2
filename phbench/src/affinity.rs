//! CPU pinning for the two query workloads.
//!
//! A closed-loop round trip between a client thread and a server thread on
//! different cores costs two cross-core wake-ups, and which cores the
//! scheduler picks changes from process to process (an unpinned one-connection
//! round trip read p50 43 µs in one process and 104 µs in the next). Pinned to
//! one CPU, the same round trip is two same-core context switches, every time.

/// `cpu_set_t` as the kernel reads it: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Held while the calling thread is pinned; dropping it gives the thread back
/// the CPUs it was allowed before.
pub struct Pinned(CpuSet);

impl Drop for Pinned {
    fn drop(&mut self) {
        apply(&self.0);
    }
}

fn allowed() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable 128-byte buffer and the size passed is
    // its size; pid 0 names the calling thread. The call writes at most that
    // many bytes and keeps no pointer.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    (rc == 0).then_some(set)
}

fn apply(set: &CpuSet) -> bool {
    // SAFETY: `set` is a live 128-byte buffer and the size passed is its
    // size; pid 0 names the calling thread. The call only reads the mask.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
}

/// Pins the calling thread — and every thread it spawns afterwards, which is
/// how the server's loop and executor threads land on the same CPU — to the
/// highest-numbered CPU it is allowed on (CPU 0 takes most interrupts).
/// `None` when the platform refuses; the run then goes ahead unpinned and
/// reports `bench.pinned = 0`.
pub fn pin_to_one_cpu() -> Option<Pinned> {
    let before = allowed()?;
    let (word, bits) = before.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << (63 - bits.leading_zeros());
    apply(&one).then_some(Pinned(before))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_narrows_to_one_cpu_and_restore_widens_back() {
        let Some(start) = allowed() else { return };
        let Some(before) = pin_to_one_cpu() else {
            return;
        };
        assert_eq!(before.0, start);
        let pinned = allowed().expect("readable after pinning");
        assert_eq!(pinned.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        // A thread spawned while pinned inherits the single CPU.
        let child = std::thread::spawn(allowed)
            .join()
            .unwrap()
            .expect("child mask");
        assert_eq!(child, pinned);
        drop(before);
        assert_eq!(allowed().expect("readable after restore"), start);
    }
}
