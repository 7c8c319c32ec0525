//! The host record every result carries: a number taken on an unknown
//! machine compares with nothing.

use std::fs;

/// Where and with what a result was measured.
#[derive(Clone, Debug)]
pub struct Host {
    pub cores: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub git_commit: String,
}

impl Host {
    pub fn probe() -> Self {
        Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(),
            rustc: env!("BENCH_RUSTC_VERSION"),
            git_commit: git_commit(),
        }
    }
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; "unknown" outside a repository.
fn git_commit() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(hash) = fs::read_to_string(format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set of this process in MB (`VmHWM`); 0 where `/proc` does
/// not say.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The kernel's per-thread and per-process CPU clocks, to the nanosecond.
/// (`/proc/*/schedstat` and `/proc/self/stat` only advance at scheduler
/// ticks, 4-10 ms apart: too coarse for set-up phases of tens of ms.)
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod cpu_clock {
    /// `struct timespec` of 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }

    /// CPU time of every thread of the process, exited ones included.
    pub const PROCESS: i32 = 2;
    /// CPU time of the calling thread.
    pub const THREAD: i32 = 3;

    pub fn seconds(clock_id: i32) -> Option<f64> {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `timespec` with the layout the
        // 64-bit Linux C library expects, and `clock_gettime` writes
        // nothing but that one struct.
        let rc = unsafe { clock_gettime(clock_id, &mut ts) };
        (rc == 0).then(|| ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9)
    }
}

/// Elsewhere there is no CPU clock to read and [`Stopwatch`] falls back to
/// the wall clock.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod cpu_clock {
    pub const PROCESS: i32 = 2;
    pub const THREAD: i32 = 3;

    pub fn seconds(_clock_id: i32) -> Option<f64> {
        None
    }
}

/// Times a phase on the wall clock and on a CPU clock. Host-speed and
/// set-up metrics use the CPU reading: on an idle host the two agree (the
/// simulator is one busy thread), on a shared one the CPU clock leaves out
/// what the hypervisor and other tenants took.
pub struct Stopwatch {
    wall: std::time::Instant,
    cpu: Option<f64>,
    clock_id: i32,
}

impl Stopwatch {
    /// Clocks the calling thread (the simulator workloads).
    pub fn thread() -> Self {
        Self::start(cpu_clock::THREAD)
    }

    /// Clocks every thread of the process (`par_bank`).
    pub fn process() -> Self {
        Self::start(cpu_clock::PROCESS)
    }

    fn start(clock_id: i32) -> Self {
        Stopwatch {
            wall: std::time::Instant::now(),
            cpu: cpu_clock::seconds(clock_id),
            clock_id,
        }
    }

    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// CPU seconds since the start; the wall reading where no CPU clock
    /// can be read.
    pub fn cpu_s(&self) -> f64 {
        match (self.cpu, cpu_clock::seconds(self.clock_id)) {
            (Some(a), Some(b)) => b - a,
            _ => self.wall_s(),
        }
    }
}

/// Speed of this host right now, as a share of the reference host's speed
/// at rest (the 2-core 2.1 GHz Xeon the sizes were calibrated on): CPU time
/// of a fixed 4 ms loop that mixes what the simulator mixes — hashing,
/// small-map churn and random access to a table that fits the L2 cache
/// (an 8 MB table's speed differed by 60 % from one process to the next).
///
/// A shared host does not run at one speed: while this benchmark was
/// written, bursts of a minute or so halved the CPU-time speed of every
/// workload alike (a busy SMT sibling or a clocked-down core looks the same
/// from inside). Every measured phase is sampled with this probe as it
/// goes (`harness::pump`) and each stretch of its CPU seconds is scaled by
/// the samples around it, so host-time metrics read in CPU seconds of the
/// reference host and a burst moves numerator and denominator together.
pub fn speed() -> f64 {
    /// Loop iterations per CPU second on the reference host at rest, sampled
    /// between slices of a workload (caches cold: 40 % below a tight loop of
    /// nothing but probes).
    const REFERENCE: f64 = 40.0e6;
    const ITERATIONS: u64 = 250_000;
    const TABLE: usize = 1 << 15;
    // Written once before the clock starts, so every page is resident.
    let mut table: Vec<u64> = (0..TABLE as u64).collect();
    let mut map: std::collections::HashMap<u64, u64> =
        std::collections::HashMap::with_capacity(4096);
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let watch = Stopwatch::thread();
    for _ in 0..ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[x as usize & (TABLE - 1)];
        *slot = slot.wrapping_add(x);
        *map.entry(x & 4095).or_insert(0) += *slot & 1;
    }
    std::hint::black_box((&table, &map));
    ITERATIONS as f64 / watch.cpu_s().max(1e-9) / REFERENCE
}
