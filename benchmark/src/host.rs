//! What the benchmark reads about its own process and host: peak RSS,
//! CPU time and involuntary context switches from `/proc/self`, load
//! average, and the host stamp (`nproc`, kernel, `rustc -V`, git commit)
//! written into every suite result — plus the one thing it sets: thread
//! placement for a parallel engine. Linux only, like the engine's CI.

use crate::json::Json;
use std::process::Command;

fn proc_status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_status_kb("VmHWM").unwrap_or(0.0) / 1024.0
}

/// Involuntary context switches of this process so far.
pub fn ctx_switches_invol() -> f64 {
    proc_status_kb("nonvoluntary_ctxt_switches").unwrap_or(0.0)
}

/// `(user, system)` CPU seconds of this process, all threads.
pub fn cpu_seconds() -> (f64, f64) {
    // Fields 14 and 15 of /proc/self/stat, counted after the
    // parenthesised command name; in USER_HZ ticks, 100 on every Linux
    // this runs on.
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after_comm.split_whitespace().skip(11);
    let mut next = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
            / USER_HZ
    };
    let user = next();
    (user, next())
}

/// One-minute load average.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// A CPU set as the kernel takes it: one bit per CPU, 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    // glibc: int sched_{get,set}affinity(pid_t, size_t, cpu_set_t *);
    // pid 0 is the calling thread, any other value a thread id.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

fn affinity(tid: i32) -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(tid, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    (rc == 0).then_some(set)
}

fn set_affinity(tid: i32, set: &CpuSet) -> bool {
    // SAFETY: `set` is a live buffer of exactly the size passed; the call
    // only reads it.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
}

fn only(cpu: usize) -> CpuSet {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] = 1 << (cpu % 64);
    set
}

/// The calling thread on one CPU and the engine's worker threads on
/// another, until dropped.
///
/// Left to itself the scheduler sometimes stacks a 2-thread `WorkerPool`
/// on one core, where the per-dispatch wake-up needs no cross-CPU
/// interrupt and a `sharded_mt` pass runs ~2x faster — a coin toss per
/// pass that has nothing to do with the code. Pinning always measures the
/// placement the pool exists for: one thread per core.
#[derive(Debug)]
pub struct PinnedApart {
    original: CpuSet,
}

impl PinnedApart {
    /// Pin the calling thread to the first allowed CPU and every other
    /// thread of this process — which must be exactly `workers` of them —
    /// to the second. `None`, and nothing pinned, when `workers` is 0,
    /// fewer than two CPUs are allowed, or the thread count is not the
    /// expected one (the pool no longer spawns on construction: better
    /// unpinned than the whole pool pinned onto the caller's CPU).
    pub fn pin(workers: usize) -> Option<PinnedApart> {
        if workers == 0 {
            return None;
        }
        let original = affinity(0)?;
        let mut allowed =
            (0..original.len() * 64).filter(|c| original[c / 64] >> (c % 64) & 1 == 1);
        let (mine, theirs) = (allowed.next()?, allowed.next()?);
        let me = std::fs::read_link("/proc/thread-self").ok()?;
        let me: i32 = me.file_name()?.to_str()?.parse().ok()?;
        let others: Vec<i32> = std::fs::read_dir("/proc/self/task")
            .ok()?
            .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
            .filter(|&tid| tid != me)
            .collect();
        if others.len() != workers {
            eprintln!(
                "note: expected {workers} engine worker thread(s), found {}; not pinning",
                others.len()
            );
            return None;
        }
        let pinned = others.iter().all(|&tid| set_affinity(tid, &only(theirs)))
            && set_affinity(0, &only(mine));
        if !pinned {
            set_affinity(0, &original);
            return None;
        }
        Some(PinnedApart { original })
    }
}

impl Drop for PinnedApart {
    fn drop(&mut self) {
        // The workers die with their pool; only the caller is restored.
        set_affinity(0, &self.original);
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// The host stamp of a suite result.
pub fn stamp() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        ("host", Json::Str(read_trimmed("/proc/sys/kernel/hostname"))),
        ("nproc", Json::Num(nproc as f64)),
        ("cpu", Json::Str(cpu)),
        (
            "kernel",
            Json::Str(read_trimmed("/proc/sys/kernel/osrelease")),
        ),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        (
            "git_commit",
            Json::Str(command_line(
                "git",
                &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
            )),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release (lto=thin, codegen-units=1)"
            }),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(peak_rss_mib() > 0.5, "a running process has resident pages");
        let (user, sys) = cpu_seconds();
        assert!(user >= 0.0 && sys >= 0.0);
        assert!(ctx_switches_invol() >= 0.0);
        assert!(loadavg() >= 0.0);
    }

    #[test]
    fn stamp_carries_every_required_field() {
        let s = stamp();
        for key in ["host", "nproc", "kernel", "rustc", "git_commit", "profile"] {
            assert!(s.get(key).is_some(), "missing {key}");
        }
        assert!(s.get("nproc").and_then(Json::as_f64).unwrap() >= 1.0);
    }
}
