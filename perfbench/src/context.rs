//! Run context printed with every result row: which code ran, on what
//! machine, and how much CPU the host took away while it ran.

use std::path::Path;
use std::process::{Command, Stdio};

/// Machine fingerprint and code identity.
#[derive(Debug, Clone)]
pub struct Context {
    /// `git rev-parse HEAD` of `./.git`, or `"none"` where the working
    /// directory holds no git repository. Git is not allowed to search
    /// parent directories, so an enclosing repository is never reported.
    pub git_sha: String,
    /// FNV-1a over the workspace sources (`Cargo.lock` and every file
    /// under `crates/`, in path order), so a row can be tied to the code
    /// even where there is no git metadata.
    pub source_fnv: u64,
    pub nproc: usize,
    pub cpu_model: String,
}

impl Context {
    pub fn collect() -> Context {
        let git_sha = Command::new("git")
            .args(["--git-dir=.git", "rev-parse", "HEAD"])
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "none".into());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Context {
            git_sha,
            source_fnv: source_fnv(),
            nproc: nproc(),
            cpu_model,
        }
    }
}

/// Threads the machine offers; every workload uses at most this many.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn source_fnv() -> u64 {
    let mut files = vec![Path::new("Cargo.lock").to_path_buf()];
    let mut stack = vec![Path::new("crates").to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else {
                files.push(p);
            }
        }
    }
    files.sort();
    let mut h = silent_tracker::wire::Fnv64::new();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            h.write(f.to_string_lossy().as_bytes());
            h.write(&bytes);
        }
    }
    h.finish()
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    pub fn now() -> CpuTimes {
        let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = line
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal (guest time is
        // already inside user/nice).
        CpuTimes {
            total: fields.iter().take(8).sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of all CPU time since `earlier` that the host stole.
    pub fn steal_frac_since(self, earlier: CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// CPU clocks of the calling thread and of the whole process. Both count
/// only time the task was on a CPU: with paravirtual steal accounting
/// (Linux guests on KVM) time the host stole is excluded, which is what
/// keeps these readings steady on a shared machine where wall time is
/// not.
#[derive(Debug, Clone, Copy)]
pub enum CpuClock {
    Thread,
    Process,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

impl CpuClock {
    /// Seconds on this clock.
    pub fn now(self) -> f64 {
        // CLOCK_PROCESS_CPUTIME_ID and CLOCK_THREAD_CPUTIME_ID (Linux).
        let id = match self {
            CpuClock::Process => 2,
            CpuClock::Thread => 3,
        };
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `struct timespec` with the C
        // layout of 64-bit Linux (two 64-bit integers), and
        // clock_gettime writes nothing but that struct.
        let rc = unsafe { clock_gettime(id, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime({id}) failed");
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    }
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
