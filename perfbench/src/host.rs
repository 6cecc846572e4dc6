//! Host facts recorded next to every result, and the process's memory
//! high-water mark.

use mttkrp_blas::kernels;
use mttkrp_sched::Scheduler;

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Unified/data cache sizes of CPU 0 by level, as the kernel reports
/// them (e.g. `L2=1024K`).
fn cache_sizes() -> String {
    let mut out = Vec::new();
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            break;
        };
        if kind.trim() != "Instruction" && level.trim() != "1" {
            out.push(format!("L{}={}", level.trim(), size.trim()));
        }
    }
    if out.is_empty() {
        "unknown".into()
    } else {
        out.join(" ")
    }
}

/// The host block: CPU, cores, kernel tier per dtype, scheduler
/// workers and caches. Workload code appends the T values, the seed and
/// the fixture sizes.
pub fn block() -> Vec<(String, String)> {
    let f64k = kernels::<f64>();
    let f32k = kernels::<f32>();
    vec![
        ("cpu".into(), cpu_model()),
        ("nproc".into(), nproc().to_string()),
        (
            "tier.f64".into(),
            format!("{} (nr={})", f64k.tier().name(), f64k.nr()),
        ),
        (
            "tier.f32".into(),
            format!("{} (nr={})", f32k.tier().name(), f32k.nr()),
        ),
        (
            "sched.workers".into(),
            Scheduler::global().workers().to_string(),
        ),
        ("caches".into(), cache_sizes()),
    ]
}

/// Reset this process's `VmHWM` to its current resident set size
/// (Linux `clear_refs` value 5).
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", b"5")
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
