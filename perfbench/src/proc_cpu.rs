//! Per-thread CPU time from `/proc/self/task/*/{comm,stat}`, grouped
//! by thread-name family: the benchmark accounts each layer's CPU from
//! outside the program, by the names its threads already carry.

use std::collections::BTreeMap;
use std::fs;

/// Kernel clock ticks per second for `stat`'s `utime`/`stime` fields
/// (`USER_HZ`, fixed at 100 by the Linux ABI on every mainstream arch).
const TICKS_PER_S: f64 = 100.0;

/// Map a thread name onto its group: a trailing `-<digits>` shard or
/// worker index is dropped (`psd-uring-1` → `psd-uring`), and unnamed
/// threads (whose comm is the program name) fall into `other`.
pub fn group_of(comm: &str, program: &str) -> String {
    let comm = comm.trim_end();
    if comm.is_empty() || comm == program {
        return "other".to_string();
    }
    match comm.rsplit_once('-') {
        Some((head, tail)) if !tail.is_empty() && tail.bytes().all(|b| b.is_ascii_digit()) => {
            head.to_string()
        }
        _ => comm.to_string(),
    }
}

/// `utime + stime` in seconds from one `/proc/<pid>/task/<tid>/stat`
/// line. The comm field may itself hold spaces and parentheses, so the
/// fixed fields are counted from the *last* `)`.
pub fn cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the comm: state(3) ppid … utime(14) stime(15) → indices 11, 12.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_S)
}

/// CPU seconds consumed so far by each thread group of this process.
/// Threads that exited are gone from `/proc` with their time, so take
/// both readings of a delta while the measured threads are alive.
pub fn by_group() -> BTreeMap<String, f64> {
    let program = fs::read_to_string("/proc/self/comm").unwrap_or_default();
    let program = program.trim_end();
    let mut out = BTreeMap::new();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else { return out };
    for task in tasks.flatten() {
        let dir = task.path();
        let (Ok(comm), Ok(stat)) =
            (fs::read_to_string(dir.join("comm")), fs::read_to_string(dir.join("stat")))
        else {
            continue; // the thread exited between listing and reading
        };
        if let Some(s) = cpu_seconds(&stat) {
            *out.entry(group_of(&comm, program)).or_insert(0.0) += s;
        }
    }
    out
}

/// `(steal, total)` jiffies of the whole machine from `/proc/stat`:
/// time the hypervisor ran someone else while the virtual machine
/// wanted the CPU.
pub fn steal() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).map_while(|f| f.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// CPU seconds one group spent between two [`by_group`] readings.
pub fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, group: &str) -> f64 {
    after.get(group).copied().unwrap_or(0.0) - before.get(group).copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn names_group_by_family() {
        assert_eq!(group_of("psd-uring-0\n", "perfbench"), "psd-uring");
        assert_eq!(group_of("psd-reactor-12", "perfbench"), "psd-reactor");
        assert_eq!(group_of("psd-wheel", "perfbench"), "psd-wheel");
        assert_eq!(group_of("perfbench\n", "perfbench"), "other");
        assert_eq!(group_of("", "perfbench"), "other");
        assert_eq!(group_of("bench-x-y", "perfbench"), "bench-x-y");
    }

    #[test]
    fn reads_machine_steal() {
        let (steal, total) = steal().expect("/proc/stat has a cpu line with a steal field");
        assert!(steal <= total && total > 0);
    }

    #[test]
    fn parses_stat_with_awkward_comm() {
        let line = "42 (a) b) (c) S 1 42 42 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 1 0 9 0 0";
        assert_eq!(cpu_seconds(line), Some(3.0));
        assert_eq!(cpu_seconds("garbage"), None);
    }

    #[test]
    fn sees_a_busy_named_thread() {
        let before = by_group();
        let spun = std::thread::Builder::new()
            .name("bench-spin-7".into())
            .spawn(|| {
                let t = Instant::now();
                while t.elapsed() < Duration::from_millis(150) {
                    std::hint::spin_loop();
                }
                let after = by_group();
                delta(&BTreeMap::new(), &after, "bench-spin")
            })
            .expect("spawn")
            .join()
            .expect("join");
        assert!(spun >= 0.05, "150 ms of spinning shows as CPU: {spun}");
        assert!(!before.contains_key("bench-spin"));
    }
}
