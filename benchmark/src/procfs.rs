//! `/proc` readers: per-thread CPU, run-queue wait and wake-ups, process
//! write traffic and peak memory. The kernel keeps these for every process,
//! so they cost the engines nothing and exist in traced and untraced runs
//! alike.

use std::collections::HashMap;
use std::fs;
use std::sync::OnceLock;

/// Scheduler counters of one thread at one instant.
#[derive(Debug, Clone, Default)]
pub struct ThreadSample {
    /// Thread name as the kernel truncates it (15 bytes).
    pub comm: String,
    /// Nanoseconds on a CPU (`schedstat` field 1).
    pub run_ns: u64,
    /// Nanoseconds runnable but waiting for a CPU (`schedstat` field 2).
    pub runq_ns: u64,
    /// Times the thread blocked and was later woken
    /// (`voluntary_ctxt_switches`).
    pub wakeups: u64,
}

/// Kernel thread id of the calling thread.
pub fn current_tid() -> u64 {
    fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .expect("/proc/thread-self names the calling thread")
}

/// Every thread of this process, keyed by tid. A thread that exits between
/// the directory listing and the reads is skipped.
pub fn threads() -> HashMap<u64, ThreadSample> {
    let mut out = HashMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let base = entry.path();
        let (Ok(comm), Ok(sched), Ok(status)) = (
            fs::read_to_string(base.join("comm")),
            fs::read_to_string(base.join("schedstat")),
            fs::read_to_string(base.join("status")),
        ) else {
            continue;
        };
        let mut fields = sched.split_whitespace().map(|f| f.parse().unwrap_or(0));
        out.insert(
            tid,
            ThreadSample {
                comm: comm.trim_end().to_owned(),
                run_ns: fields.next().unwrap_or(0),
                runq_ns: fields.next().unwrap_or(0),
                wakeups: status_field(&status, "voluntary_ctxt_switches:"),
            },
        );
    }
    out
}

/// What a group of threads did between two [`threads`] samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct GroupDelta {
    /// CPU nanoseconds.
    pub run_ns: u64,
    /// Run-queue wait nanoseconds.
    pub runq_ns: u64,
    /// Wake-ups.
    pub wakeups: u64,
}

impl GroupDelta {
    fn add(&mut self, before: Option<&ThreadSample>, after: &ThreadSample) {
        let zero = ThreadSample::default();
        let b = before.unwrap_or(&zero);
        self.run_ns += after.run_ns.saturating_sub(b.run_ns);
        self.runq_ns += after.runq_ns.saturating_sub(b.runq_ns);
        self.wakeups += after.wakeups.saturating_sub(b.wakeups);
    }
}

/// Sums the change of every thread except `generator` (the benchmark's own
/// load generator) into the first group whose `comm` prefix matches; threads
/// matching none land in the returned catch-all, so a renamed engine thread
/// shows up there instead of vanishing from the ledger.
pub fn group_deltas(
    before: &HashMap<u64, ThreadSample>,
    after: &HashMap<u64, ThreadSample>,
    generator: u64,
    prefixes: &[&str],
) -> (Vec<GroupDelta>, GroupDelta) {
    let mut groups = vec![GroupDelta::default(); prefixes.len()];
    let mut other = GroupDelta::default();
    for (tid, sample) in after.iter().filter(|(tid, _)| **tid != generator) {
        let slot = match prefixes.iter().position(|p| sample.comm.starts_with(p)) {
            Some(i) => &mut groups[i],
            None => &mut other,
        };
        slot.add(before.get(tid), sample);
    }
    (groups, other)
}

/// Process write traffic (`/proc/self/io`): bytes passed to write-family
/// syscalls and the number of those syscalls.
#[derive(Debug, Clone, Copy, Default)]
pub struct IoSample {
    /// `wchar`.
    pub write_bytes: u64,
    /// `syscw`.
    pub write_calls: u64,
}

/// Reads `/proc/self/io` (zeros where the kernel does not expose it).
pub fn io() -> IoSample {
    let text = fs::read_to_string("/proc/self/io").unwrap_or_default();
    IoSample {
        write_bytes: status_field(&text, "wchar:"),
        write_calls: status_field(&text, "syscw:"),
    }
}

/// `(stolen, total)` CPU time of the whole guest since boot, in clock ticks
/// (`/proc/stat`): stolen is what the hypervisor gave to somebody else while
/// a vCPU had work to do.
pub fn host_ticks() -> (u64, u64) {
    let text = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is already
    // inside user.
    (
        fields.get(7).copied().unwrap_or(0),
        fields.iter().take(8).sum(),
    )
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let text = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&text, "VmHWM:") as f64 / 1024.0
}

/// The first number after `label` in a `key: value` text file.
fn status_field(text: &str, label: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(label))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// CPUs this thread may run on (`Cpus_allowed_list`), ascending.
fn allowed_cpus() -> Vec<usize> {
    let text = fs::read_to_string("/proc/thread-self/status").unwrap_or_default();
    let Some(list) = text
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let mut ends = part.split('-').map(|n| n.trim().parse::<usize>());
        match (ends.next(), ends.next()) {
            (Some(Ok(a)), None) => cpus.push(a),
            (Some(Ok(a)), Some(Ok(b))) => cpus.extend(a..=b),
            _ => {}
        }
    }
    cpus
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it spawns from now on, to
/// `cpus` (numbers below 1024).
fn pin_current_thread(cpus: &[usize]) {
    let mut mask = [0u64; 16];
    for &cpu in cpus.iter().filter(|&&c| c < 1024) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `sched_setaffinity(2)` reads `cpusetsize` bytes from `mask`,
    // which is a live array of exactly that size; pid 0 is the caller.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity to {cpus:?} refused");
}

/// Which CPUs the load generator and the engine run on.
///
/// Left to itself the scheduler of this 2-vCPU guest flips between packing
/// the engine's threads next to the generator and spreading them, depending
/// on whether the hypervisor has parked the idle vCPU; the two regimes read
/// 350 µs and 440 µs for the same build. So the split is fixed: the first
/// allowed CPU belongs to the client side (generator, loader threads), every
/// other CPU to the engine — the load generator as a component separate from
/// the system under test. With one CPU both share it.
#[derive(Debug, PartialEq, Eq)]
pub struct Placement {
    client: Vec<usize>,
    engine: Vec<usize>,
}

impl Placement {
    /// Splits the CPUs the calling thread may use and moves the calling
    /// thread to the client side. The first call decides for the life of the
    /// process — after it the caller's own affinity is the client side only,
    /// so a second reading would hand the engine the generator's CPU — and
    /// every later call returns that first split. Call it first from the
    /// generator thread, before anything is deployed.
    pub fn split() -> &'static Placement {
        static SPLIT: OnceLock<Placement> = OnceLock::new();
        SPLIT.get_or_init(|| {
            let cpus = allowed_cpus();
            let placement = match cpus.split_first() {
                Some((first, rest)) if !rest.is_empty() => Placement {
                    client: vec![*first],
                    engine: rest.to_vec(),
                },
                _ => Placement {
                    client: cpus.clone(),
                    engine: cpus,
                },
            };
            if !placement.client.is_empty() {
                pin_current_thread(&placement.client);
            }
            placement
        })
    }

    /// Runs `f` with the calling thread on the engine's CPUs: threads
    /// spawned inside inherit that affinity.
    pub fn on_engine<R>(&self, f: impl FnOnce() -> R) -> R {
        if self.engine.is_empty() {
            return f();
        }
        pin_current_thread(&self.engine);
        let result = f();
        pin_current_thread(&self.client);
        result
    }

    /// CPUs the process had before the split (`nproc`): the cap on loader
    /// threads. `available_parallelism` would count the calling thread's
    /// pinned set.
    pub fn cpus(&self) -> usize {
        let mut all = [&self.client[..], &self.engine[..]].concat();
        all.sort_unstable();
        all.dedup();
        all.len().max(1)
    }

    /// Whether the client side and the engine have CPUs of their own.
    pub fn disjoint(&self) -> bool {
        self.client.iter().all(|c| !self.engine.contains(c))
    }

    /// For the report: who runs where.
    pub fn describe(&self) -> String {
        format!(
            "client CPUs {:?}, engine CPUs {:?}",
            self.client, self.engine
        )
    }
}
