//! Pins the benchmark to one CPU. Threads and child processes inherit the
//! mask, so the clients and the three servers all run there.
//!
//! On the 2-vCPU VM this benchmark was defined on, the kernel is free to
//! place a client thread and the server thread that answers it on the
//! same vCPU or on different ones, and it settles on either for seconds
//! at a time. A wake-up across vCPUs is an inter-processor interrupt to a
//! halted vCPU — two exits to the hypervisor — and costs several times a
//! local one. A closed-loop client is a chain of such wake-ups, so the same
//! binaries ran `slab_write` at ~240 ops/s or at ~110 ops/s from one round
//! to the next, and `tile_write` drifted between 14 and 20 ops/s. With
//! everything on one CPU there is always a runnable thread, the vCPU never
//! halts inside an op, and both workloads repeat to within ±2.5 %. What the
//! benchmark then measures is the CPU work and the system calls of every
//! layer, in series — which is what a change to the code can move.

use std::io;

/// Words of a 1024-bit `cpu_set_t`.
const WORDS: usize = 16;

mod sys {
    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
}

fn allowed() -> io::Result<[u64; WORDS]> {
    let mut mask = [0u64; WORDS];
    // SAFETY: the kernel writes at most `size_of_val(&mask)` bytes into
    // `mask`; pid 0 is the calling thread.
    let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(mask)
}

/// Restricts the calling thread to the highest-numbered CPU it may run on
/// (CPU 0 tends to take the device interrupts) and returns that CPU. Call
/// it before spawning any thread or process.
pub fn to_one_cpu() -> io::Result<usize> {
    let mask = allowed()?;
    let word = mask
        .iter()
        .rposition(|w| *w != 0)
        .ok_or_else(|| io::Error::other("empty CPU affinity mask"))?;
    let bit = 63 - mask[word].leading_zeros() as usize;
    let mut one = [0u64; WORDS];
    one[word] = 1 << bit;
    // SAFETY: the kernel reads `size_of_val(&one)` bytes from `one`.
    let rc = unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(word * 64 + bit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_the_calling_thread_to_one_allowed_cpu_and_children_inherit_it() {
        // The test harness runs each test on a thread of its own, so the
        // mask set here is gone with it.
        let before = allowed().unwrap();
        let cpu = to_one_cpu().unwrap();
        assert_ne!(
            before[cpu / 64] & (1 << (cpu % 64)),
            0,
            "CPU {cpu} was allowed"
        );
        let mut expected = [0u64; WORDS];
        expected[cpu / 64] = 1 << (cpu % 64);
        assert_eq!(allowed().unwrap(), expected);
        let inherited = std::thread::spawn(allowed).join().unwrap().unwrap();
        assert_eq!(inherited, expected);
        let status = std::process::Command::new("grep")
            .args(["Cpus_allowed_list", "/proc/self/status"])
            .output()
            .unwrap();
        let line = String::from_utf8_lossy(&status.stdout);
        assert_eq!(
            line.split_whitespace().last(),
            Some(cpu.to_string().as_str()),
            "{line}"
        );
    }
}
