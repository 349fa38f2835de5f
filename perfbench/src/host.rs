//! The host record printed with every run: enough to tell apart runs
//! that landed in different host modes (see README.md).

use std::time::Instant;

/// Steal and total CPU ticks from the `cpu` line of `/proc/stat`.
#[derive(Clone, Copy, Default)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl std::ops::Add for CpuTicks {
    type Output = CpuTicks;
    fn add(self, other: CpuTicks) -> CpuTicks {
        CpuTicks {
            steal: self.steal + other.steal,
            total: self.total + other.total,
        }
    }
}

impl CpuTicks {
    /// Current counters; zeros where `/proc/stat` is unreadable.
    pub fn now() -> CpuTicks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuTicks::default();
        };
        // user nice system idle iowait irq softirq steal [guest guest_nice]
        let f: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|x| x.parse().unwrap_or(0))
            .collect();
        CpuTicks {
            steal: f.get(7).copied().unwrap_or(0),
            total: f.iter().sum(),
        }
    }

    /// Ticks elapsed since `earlier`.
    pub fn since(self, earlier: CpuTicks) -> CpuTicks {
        CpuTicks {
            steal: self.steal.saturating_sub(earlier.steal),
            total: self.total.saturating_sub(earlier.total),
        }
    }

    /// Share of the ticks the hypervisor gave to other guests.
    pub fn steal_pct(self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            100.0 * self.steal as f64 / self.total as f64
        }
    }
}

/// Cost of one `Instant::now()` call, in nanoseconds.
pub fn timer_ns() -> f64 {
    const N: u32 = 200_000;
    let t0 = Instant::now();
    for _ in 0..N {
        std::hint::black_box(Instant::now());
    }
    t0.elapsed().as_nanos() as f64 / f64::from(N)
}

fn first_line(path: &str, key: Option<&str>) -> String {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let line = match key {
        None => text.lines().next(),
        Some(k) => text.lines().find(|l| l.starts_with(k)),
    };
    let line = line.unwrap_or("unknown");
    let value = match key {
        None => line,
        Some(_) => line.split_once(':').map_or(line, |(_, v)| v),
    };
    value.trim().replace(['"', '\\'], "")
}

/// The host record as one JSON object, given the ticks over the run.
pub fn record(ticks: CpuTicks, timer_ns: f64) -> String {
    let CpuTicks { steal, total } = ticks;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"clocksource\": \"{}\", \"profile\": \"{}\", \
         \"timer_ns\": {timer_ns:.1}, \"steal_ticks\": {steal}, \"total_ticks\": {total}, \
         \"steal_pct\": {:.3}}}",
        first_line("/proc/cpuinfo", Some("model name")),
        first_line(
            "/sys/devices/system/clocksource/clocksource0/current_clocksource",
            None
        ),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        ticks.steal_pct(),
    )
}
