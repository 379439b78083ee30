//! How long the host ran the benchmark, and how fast the host is.
//!
//! Process CPU time (Linux `clock_gettime`) leaves out the time the
//! process waited for a CPU, preempted in the guest or stolen by the
//! hypervisor. It keeps the drift of the host's own speed as other
//! tenants' load changes; the host-speed probe measures that drift so
//! that it can be divided out.

use std::sync::{Barrier, OnceLock};
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of the
/// process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time the process has used so far.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock id is a constant the kernel
    // defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Keys the host-speed probe sorts per round, and its rounds.
const PROBE_KEYS: usize = 1 << 12;
const PROBE_ROUNDS: usize = 96;

/// Keys the reference host sorts per CPU second in the probe: a round
/// figure of the order one vCPU of a 2.1 GHz Xeon (Emerald Rapids)
/// reaches. It only sets the scale of host-normalised rates, which are
/// rates in CPU seconds of that reference host.
const REFERENCE_KEYS_PER_S: f64 = 60e6;

/// The host-speed probe: CPU time of a fixed, seed-free job of branchy,
/// cache-resident work, sorting 4 Ki random keys 96 times. The 16 KiB
/// buffer is on the stack, so the probe leaves the heap and the peak
/// resident set alone. On a shared host the simulator's CPU time per
/// pass drifts by a third over minutes; this job drifts with it, while
/// a pure arithmetic loop or a DRAM-bound pointer chase does not. It
/// runs no simulator code, so dividing by it cannot hide a change in
/// the simulator.
/// Runs on `threads` threads at once, as many as the timed unit before
/// it ran on, and returns the mean CPU time per thread.
pub fn probe(threads: usize) -> Duration {
    let t = process_cpu();
    if threads > 1 {
        let h = helpers(threads);
        h.start.wait();
        probe_job();
        h.done.wait();
    } else {
        probe_job();
    }
    (process_cpu() - t) / threads.max(1) as u32
}

/// Threads that run the probe beside the calling thread. They start at
/// the first probe and are kept for the life of the process: threads
/// started for every probe grew `paper-sweep`'s peak resident set by
/// up to a quarter, and by a different amount on every run.
struct Helpers {
    threads: usize,
    start: Barrier,
    done: Barrier,
}

static HELPERS: OnceLock<&'static Helpers> = OnceLock::new();

fn helpers(threads: usize) -> &'static Helpers {
    let h = HELPERS.get_or_init(|| {
        let h: &'static Helpers = Box::leak(Box::new(Helpers {
            threads,
            start: Barrier::new(threads),
            done: Barrier::new(threads),
        }));
        for _ in 1..threads {
            std::thread::spawn(move || loop {
                h.start.wait();
                probe_job();
                h.done.wait();
            });
        }
        h
    });
    assert_eq!(h.threads, threads, "every probe of a process has one width");
    h
}

fn probe_job() {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x as u32
    };
    let mut keys = [0u32; PROBE_KEYS];
    for _ in 0..PROBE_ROUNDS {
        for k in keys.iter_mut() {
            *k ^= next();
        }
        keys.sort_unstable();
    }
    std::hint::black_box(&keys);
}

/// How fast the host ran the probe, relative to the reference host:
/// `reference time / probe time` for a probe CPU time in seconds.
pub fn host_speed(probe_s: f64) -> f64 {
    (PROBE_KEYS * PROBE_ROUNDS) as f64 / REFERENCE_KEYS_PER_S / probe_s
}
