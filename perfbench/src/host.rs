//! The host record printed with every result, and the host-side probes the
//! metrics need: peak RSS, the timer floor and the host speed reference.

use std::hint::black_box;
use std::time::Instant;

/// Worker threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU model name from `/proc/cpuinfo` (`unknown` where there is none).
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// High-water resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0);
    kib / 1024.0
}

/// The ledger's clock: the time-stamp counter where there is one, read
/// after a load fence so the stamp waits for the work before it.
#[cfg(target_arch = "x86_64")]
pub fn ticks() -> u64 {
    // SAFETY: LFENCE and RDTSC have no preconditions and touch no memory
    // (SSE2, which LFENCE needs, is part of the x86-64 baseline).
    unsafe {
        std::arch::x86_64::_mm_lfence();
        std::arch::x86_64::_rdtsc()
    }
}

/// The ledger's clock: monotonic nanoseconds where there is no
/// time-stamp counter.
#[cfg(not(target_arch = "x86_64"))]
pub fn ticks() -> u64 {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The ledger clock's calibration.
#[derive(Debug, Clone, Copy)]
pub struct Timer {
    /// Host nanoseconds per tick, measured against `Instant` over 50 ms.
    pub ns_per_tick: f64,
    /// Host nanoseconds an empty timed region reads: the cost of one
    /// stamp. Median of 31 batch means of 20 000 laps each.
    pub floor_ns: f64,
}

impl Timer {
    pub fn calibrate() -> Timer {
        let (i0, t0) = (Instant::now(), ticks());
        while i0.elapsed().as_millis() < 50 {
            black_box(ticks());
        }
        let (ns, t1) = (i0.elapsed().as_nanos() as f64, ticks());
        let ns_per_tick = ns / t1.wrapping_sub(t0).max(1) as f64;
        const LAPS: u32 = 20_000;
        let means: Vec<f64> = (0..31)
            .map(|_| {
                let mut total = 0u64;
                for _ in 0..LAPS {
                    let a = ticks();
                    let b = black_box(ticks());
                    total += b.wrapping_sub(a);
                }
                total as f64 * ns_per_tick / f64::from(LAPS)
            })
            .collect();
        Timer {
            ns_per_tick,
            floor_ns: median(&means),
        }
    }
}

/// The nominal host speed `norm_accesses_per_s` is scaled to, as a
/// `Reference` reading in ms: a round figure within the 12–30 ms it read on
/// the 2-vCPU Xeon host the benchmark was tuned on.
pub const REFERENCE_NOMINAL_MS: f64 = 20.0;

/// Host speed reference: a fixed kernel of 2M random read-modify-writes
/// into a 32 MiB table, the access pattern of the simulator's oracle and
/// shadow arrays. A shared host changes its memory speed by up to 2x within
/// seconds, and a serial cell's time follows the speed of the vCPU it runs
/// on. So the benchmark reads the reference right before and after each
/// timed run, on as many threads as the run has workers (its own thread for
/// a serial cell), and scales the run's rate by the mean of the two
/// readings. The tables are allocated once and kept.
pub struct Reference {
    tables: Vec<Vec<u64>>,
}

impl Reference {
    /// A reference with one table per worker of the timed run.
    pub fn new(workers: usize) -> Reference {
        Reference {
            tables: (0..workers.max(1)).map(|_| vec![1u64; 1 << 22]).collect(),
        }
    }

    /// Milliseconds per pass, the mean over the workers' tables. One table
    /// is read on this thread; several are read at once, one thread each.
    pub fn pass_ms(&mut self) -> f64 {
        if let [table] = &mut self.tables[..] {
            return warm_pass_ms(table);
        }
        let times: Vec<f64> = std::thread::scope(|s| {
            let workers: Vec<_> = self
                .tables
                .iter_mut()
                .map(|table| s.spawn(|| warm_pass_ms(table)))
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("reference pass"))
                .collect()
        });
        times.iter().sum::<f64>() / times.len() as f64
    }
}

/// One untimed pass brings the table back into cache after the simulator's
/// run evicted it; then the median of three timed passes.
fn warm_pass_ms(table: &mut [u64]) -> f64 {
    pass(table);
    let times: Vec<f64> = (0..3).map(|_| pass(table)).collect();
    median(&times)
}

fn pass(table: &mut [u64]) -> f64 {
    let mask = table.len() - 1;
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..2_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize & mask;
        table[i] = table[i].wrapping_add(x);
    }
    black_box(&table);
    start.elapsed().as_secs_f64() * 1e3
}

/// The reference's reading at the end of the run: the speed a result was
/// taken at.
fn probe_ms() -> f64 {
    Reference::new(1).pass_ms()
}

/// Median of `values` (mean of the middle pair for an even count; 0 for
/// none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One line naming everything a result depends on besides the code.
pub fn record(timer: Timer) -> String {
    format!(
        "host: nproc={} cpu=\"{}\" rustc=\"{}\" profile={} timer_floor_ns={:.2} \
         ns_per_tick={:.4} probe_ms={:.2}",
        nproc(),
        cpu_model(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        timer.floor_ns,
        timer.ns_per_tick,
        probe_ms(),
    )
}
