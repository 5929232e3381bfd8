//! The environment a result was measured in, and process memory.

use std::path::Path;
use std::process::Command;

use crate::metrics::json_str;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Filesystem type of the mount holding `dir` (longest matching mount
/// point in `/proc/self/mounts`), or `"unknown"`.
pub fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut fields = line.split_whitespace();
        let (Some(_dev), Some(point), Some(fstype)) = (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        // Mount points escape spaces as \040.
        let point = point.replace("\\040", " ");
        if dir.starts_with(&point) && best.as_ref().is_none_or(|(len, _)| point.len() > *len) {
            best = Some((point.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit when the working directory is a git work
/// tree root, else `"unknown"` (git is not asked to search parent
/// directories).
fn git_sha() -> String {
    if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".into()
    }
}

/// A `kB` field of `/proc/self/status`, in bytes.
fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Bytes the allocator currently has handed out. Unlike resident
/// memory this grows with every live allocation even when freed heap is
/// being reused. glibc only; elsewhere it falls back to resident memory.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn heap_bytes() -> u64 {
    /// glibc's `struct mallinfo2` (all fields `size_t`).
    #[repr(C)]
    struct MallInfo2 {
        arena: usize,
        ordblks: usize,
        smblks: usize,
        hblks: usize,
        hblkhd: usize,
        usmblks: usize,
        fsmblks: usize,
        uordblks: usize,
        fordblks: usize,
        keepcost: usize,
    }
    extern "C" {
        fn mallinfo2() -> MallInfo2;
    }
    // SAFETY: `mallinfo2` (glibc ≥ 2.33) takes no arguments, only reads
    // allocator statistics and returns the struct by value; the
    // declaration above matches its C layout field for field.
    let info = unsafe { mallinfo2() };
    // In-use bytes: ordinary heap chunks plus mmap-backed blocks.
    (info.uordblks + info.hblkhd) as u64
}

/// See the glibc variant.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn heap_bytes() -> u64 {
    status_kb("VmRSS:").unwrap_or(0)
}

/// Peak resident set size in bytes (0 where unavailable).
pub fn peak_rss_bytes() -> u64 {
    status_kb("VmHWM:").unwrap_or(0)
}

/// The environment block printed with every result.
pub fn record(workload: &str, seed: u64, trace: bool, store_dir: &Path) -> String {
    let fields = [
        ("workload", json_str(workload)),
        ("seed", seed.to_string()),
        ("trace", trace.to_string()),
        ("nproc", nproc().to_string()),
        ("store_fs", json_str(&filesystem_of(store_dir))),
        ("rustc", json_str(&command_line("rustc", &["--version"]))),
        ("git_sha", json_str(&git_sha())),
        ("obs_enabled", traj_obs::metrics_enabled().to_string()),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}
