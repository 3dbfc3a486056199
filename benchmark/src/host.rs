//! What the host did while we measured: CPU time, peak memory, steal,
//! and a fixed single-thread calibration kernel run before and after the
//! window. All read from `/proc`; a file that is missing or malformed is
//! an error, not a silent zero, because the end-to-end metrics built on
//! these must never read 0.

use std::time::Instant;

/// Kernel clock ticks per second for `/proc` CPU times. Linux has fixed
/// `USER_HZ` at 100 on every architecture this repo builds for.
const TICKS_PER_S: f64 = 100.0;

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))
}

/// User + system CPU seconds of this process, all threads, including
/// threads that have already exited (`/proc/self/stat` fields 14 and 15).
pub fn process_cpu_s() -> Result<f64, String> {
    let stat = read("/proc/self/stat")?;
    // The command name (field 2) may contain spaces; fields are counted
    // from after its closing parenthesis.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("/proc/self/stat: bad field {}", i + 3))
    };
    // `rest` starts at field 3 (state), so utime (14) is index 11.
    Ok((tick(11)? + tick(12)?) / TICKS_PER_S)
}

/// Peak resident set size in MiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = read("/proc/self/status")?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("malformed VmHWM line")?;
    Ok(kib / 1024.0)
}

/// CPU ticks of the whole host since boot, from `/proc/stat`.
#[derive(Clone, Copy)]
pub struct HostTicks {
    /// Everything except idle, iowait and steal.
    busy: f64,
    /// Time the hypervisor ran other guests while this one wanted to run.
    steal: f64,
}

impl HostTicks {
    pub fn now() -> Result<Self, String> {
        let stat = read("/proc/stat")?;
        let line = stat.lines().next().ok_or("empty /proc/stat")?;
        let v: Vec<f64> = line.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
        if v.len() < 8 {
            return Err("short cpu line in /proc/stat".into());
        }
        // user nice system idle iowait irq softirq steal
        Ok(HostTicks { busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7] })
    }

    /// Steal ÷ (busy + steal) between this snapshot and a `later` one.
    pub fn steal_share_until(&self, later: &HostTicks) -> f64 {
        let (busy, steal) = (later.busy - self.busy, later.steal - self.steal);
        if busy + steal > 0.0 {
            steal / (busy + steal)
        } else {
            0.0
        }
    }
}

/// The calibration kernel: a dependent multiply-add chain long enough
/// (~11 ms on the reference host) to be timed with `Instant`, small enough to stay in
/// registers, so it measures the core's speed and nothing of the memory
/// system or of this repo's code.
fn calib_once() -> f64 {
    let t = Instant::now();
    let mut x = std::hint::black_box(1.000_000_1f64);
    for _ in 0..6_000_000u32 {
        x = x * 1.000_000_01 + 1e-9;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// Best of five: the kernel's undisturbed time right now.
fn calib_ms() -> f64 {
    (0..5).map(|_| calib_once()).fold(f64::INFINITY, f64::min)
}

/// Host state captured at the start of a measured window.
pub struct HostProbe {
    calib_before_ms: f64,
    ticks: HostTicks,
}

/// What the host did over the window.
pub struct HostReport {
    pub cores: usize,
    /// Mean of the calibration kernel before and after the window.
    pub calib_ms: f64,
    /// |after − before| ÷ the smaller: how much the core's speed moved.
    pub calib_spread: f64,
    /// Steal ticks ÷ (busy + steal) ticks of the whole host.
    pub steal_share: f64,
}

impl HostReport {
    /// The window saw a noisy-neighbour burst; its numbers are reported
    /// all the same, flagged.
    pub fn noisy(&self) -> bool {
        self.calib_spread > 0.10 || self.steal_share > 0.10
    }
}

impl HostProbe {
    pub fn start() -> Result<Self, String> {
        Ok(HostProbe { calib_before_ms: calib_ms(), ticks: HostTicks::now()? })
    }

    pub fn finish(self) -> Result<HostReport, String> {
        let steal_share = self.ticks.steal_share_until(&HostTicks::now()?);
        let after = calib_ms();
        let lo = after.min(self.calib_before_ms);
        Ok(HostReport {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            calib_ms: (after + self.calib_before_ms) / 2.0,
            calib_spread: (after - self.calib_before_ms).abs() / lo,
            steal_share,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(process_cpu_s().expect("cpu") >= 0.0);
        assert!(peak_rss_mib().expect("rss") > 0.5);
        let t = HostTicks::now().expect("host ticks");
        assert!(t.busy > 0.0 && t.steal >= 0.0);
        assert_eq!(t.steal_share_until(&t), 0.0);
        let later = HostTicks { busy: t.busy + 90.0, steal: t.steal + 10.0 };
        assert!((t.steal_share_until(&later) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn probe_reports_cores_and_a_positive_calibration() {
        let r = HostProbe::start().expect("start").finish().expect("finish");
        assert!(r.cores >= 1);
        assert!(r.calib_ms > 0.0 && r.calib_spread >= 0.0);
        assert!((0.0..=1.0).contains(&r.steal_share));
    }
}
