//! Process readings (CPU time, peak RSS), the host's pace against the
//! reference host, and the provenance block every result carries.

use std::fs;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use uuidp_core::clock;

use crate::stats::median_u64;

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// User + system CPU time of the whole process so far, in nanoseconds
/// (exited threads included), to the nanosecond rather than in
/// scheduler ticks. 0 where the clock is unavailable.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A thread that reads the process's CPU time over each fixed interval
/// of a window, at the interval boundaries. It sleeps in between, so it
/// takes next to nothing from the window.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<u64>>,
}

impl Sampler {
    /// Starts reading intervals of `interval_ns` from `t0_ns` (a
    /// [`clock::monotonic_ns`] reading).
    pub fn start(t0_ns: u64, interval_ns: u64) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let thread = thread::spawn(move || {
            let mut readings = Vec::new();
            let mut cpu = cpu_ns();
            loop {
                let boundary = t0_ns + (readings.len() as u64 + 1) * interval_ns;
                loop {
                    if stopped.load(Ordering::Acquire) {
                        // The interval under way is not whole: not read.
                        return readings;
                    }
                    let now = clock::monotonic_ns();
                    if now >= boundary {
                        break;
                    }
                    thread::park_timeout(Duration::from_nanos(boundary - now));
                }
                let c = cpu_ns();
                readings.push(c.saturating_sub(cpu));
                cpu = c;
            }
        });
        Sampler { stop, thread }
    }

    /// Stops the thread and returns its readings: the process CPU ns of
    /// each whole interval, in order.
    pub fn finish(self) -> Vec<u64> {
        self.stop.store(true, Ordering::Release);
        self.thread.thread().unpark();
        self.thread.join().unwrap_or_default()
    }
}

/// Arithmetic steps and dependent loads of one reference pass, and the
/// passes of one reading.
const REFERENCE_STEPS: u64 = 1 << 13;
const REFERENCE_LOADS: usize = 1 << 10;
const REFERENCE_PASSES: usize = 8;

/// A [`reference_ns`] reading on the reference host (a shared 2-vCPU VM,
/// see `README.md`), in ns: the unit [`pace`] reads the host against.
pub const REFERENCE_NS: f64 = 137_000.0;

/// Entries of the reference pass's pointer-chase table (4 MiB: past a
/// core's private caches, so a neighbour crowding the shared cache or the
/// memory bus shows).
const CHASE_ENTRIES: usize = 1 << 20;

/// One cycle through every entry (Sattolo's shuffle), built once.
fn chase_table() -> &'static [u32] {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t: Vec<u32> = (0..CHASE_ENTRIES as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..CHASE_ENTRIES).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            t.swap(i, (x % i as u64) as usize);
        }
        t
    })
}

/// Where the next reference pass picks up the chase: every pass walks on
/// from where the last one stopped, so it loads lines no recent pass
/// touched, and a reading does not depend on what the workload left in
/// the caches.
static CHASE_AT: AtomicUsize = AtomicUsize::new(0);

/// How fast the host runs a fixed piece of the benchmark's own code right
/// now, in ns: the fastest of a few passes on the calling thread, each
/// arithmetic (four independent xorshift streams) and then a chain of
/// dependent loads that miss the caches. A slowdown that lasts longer than
/// a pass (a busy hyperthread sibling, a neighbour crowding the shared
/// cache or the memory bus, a throttled clock) slows every pass; a pass
/// that lost a time slice is discarded as the slowest.
pub fn reference_ns() -> u64 {
    let table = chase_table();
    let pass = || {
        let t0 = clock::monotonic_ns();
        let mut x = [1u64, 2, 3, 4].map(|k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for _ in 0..REFERENCE_STEPS {
            for v in x.iter_mut() {
                *v ^= *v << 13;
                *v ^= *v >> 7;
                *v ^= *v << 17;
            }
        }
        let mut at = CHASE_AT.load(Ordering::Relaxed);
        for _ in 0..REFERENCE_LOADS {
            at = table[at] as usize;
        }
        CHASE_AT.store(at, Ordering::Relaxed);
        std::hint::black_box(x);
        clock::monotonic_ns() - t0
    };
    (0..REFERENCE_PASSES).map(|_| pass()).min().unwrap_or(0)
}

/// How much slower than the reference host this host ran over a run:
/// the median of the run's [`reference_ns`] readings over
/// [`REFERENCE_NS`]; 1 without readings.
pub fn pace(readings: &[u64]) -> f64 {
    median_u64(readings).map_or(1.0, |ns| ns / REFERENCE_NS)
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn status_kb(key: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Online CPUs as the standard library sees them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn kernel() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The provenance block: workload, seed, source revision, and host.
pub fn provenance(workload: &str, seed: u64, trace: bool, net_backend: &str) -> String {
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"git_commit\": {}, \
         \"source_fnv64\": {}, \"host\": {{\"nproc\": {}, \"cpu_model\": {}, \"kernel\": {}, \
         \"rustc\": {}, \"net_backend\": {}}}}}",
        json_str(workload),
        json_str(env!("PERFBENCH_GIT_COMMIT")),
        json_str(env!("PERFBENCH_SOURCE_FNV64")),
        nproc(),
        json_str(&cpu_model()),
        json_str(&kernel()),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(net_backend),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_readings_are_live() {
        let before = cpu_ns();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(
            cpu_ns() - before >= 1_000_000,
            "50M additions take over 1 ms of CPU"
        );
        assert!(peak_rss_mb() > 0.0);
        assert!(reference_ns() > 0);
    }

    #[test]
    fn pace_is_one_at_the_reference_speed() {
        let r = REFERENCE_NS as u64;
        assert_eq!(pace(&[r, 5 * r, r]), 1.0);
        assert_eq!(pace(&[2 * r]), 2.0);
        assert_eq!(pace(&[]), 1.0);
    }

    #[test]
    fn json_strings_escape_quotes_and_controls() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
