//! Host plumbing: the box fingerprint, memory high-water marks, free disk,
//! the scratch-directory guard, and per-thread CPU of a child process.
//! Linux-only (`/proc`), like the daemon's own metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// What a result was measured on. Results from different boxes are never
/// comparable; every run prints this with its numbers.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    format!("nproc={nproc} cpu=\"{cpu}\" kernel={kernel} rustc=\"{rustc}\"")
}

/// Runner threads the workloads may use: `nproc`, at most 2.
pub fn load_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .clamp(1, 2)
}

fn status_kb(pid: Option<u32>, key: &str) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Peak resident set (`VmHWM`) of `pid` (or this process), in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    status_kb(pid, "VmHWM:").map(|kb| kb / 1024.0)
}

/// Reset this process's `VmHWM` to its current resident set (writes `5`
/// to `/proc/self/clear_refs`), so the next peak read covers only what
/// runs after this. Returns whether the kernel accepted it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", b"5").is_ok()
}

/// Free bytes on the filesystem holding `dir`, from `df`.
pub fn free_bytes(dir: &Path) -> Option<u64> {
    let out = Command::new("df").arg("-Pk").arg(dir).output().ok()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let kb: u64 = text
        .lines()
        .nth(1)?
        .split_whitespace()
        .nth(3)?
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// A scratch directory under the working directory, removed when the guard
/// drops — on success, on error returns and while unwinding from a panic.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Create `<base>/<name>` fresh, refusing to start when the filesystem
    /// has less than `need_bytes` free.
    pub fn create(base: &Path, name: &str, need_bytes: u64) -> Result<ScratchDir, String> {
        std::fs::create_dir_all(base).map_err(|e| format!("creating {}: {e}", base.display()))?;
        if let Some(free) = free_bytes(base) {
            if free < need_bytes {
                return Err(format!(
                    "refusing to start: {} MiB free under {}, a run needs {} MiB",
                    free >> 20,
                    base.display(),
                    need_bytes >> 20
                ));
            }
        }
        let path = base.join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Drop the parent too when this was its last occupant.
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// CPU seconds of one task (thread) or process from its `stat` line
/// (`utime + stime`, in clock ticks of 1/100 s).
fn stat_cpu_s(path: &Path) -> Option<(String, f64)> {
    let text = std::fs::read_to_string(path).ok()?;
    let open = text.find('(')?;
    let close = text.rfind(')')?;
    let comm = text[open + 1..close].to_owned();
    let fields: Vec<&str> = text[close + 2..].split_whitespace().collect();
    // After the comm: state is field 0, utime field 11, stime field 12.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((comm, (utime + stime) / 100.0))
}

/// Total CPU seconds of process `pid`, including its exited threads.
pub fn process_cpu_s(pid: u32) -> Option<f64> {
    stat_cpu_s(Path::new(&format!("/proc/{pid}/stat"))).map(|(_, s)| s)
}

/// Last-seen CPU seconds of every thread of a child process, by thread id,
/// with the thread's name. Sampled periodically so threads that exit
/// mid-run are still counted up to their last sample.
#[derive(Debug, Default)]
pub struct ThreadCpu {
    /// `tid -> (name, cpu seconds)`.
    pub threads: BTreeMap<u32, (String, f64)>,
}

impl ThreadCpu {
    /// Read every live thread of `pid` once.
    pub fn sample(&mut self, pid: u32) {
        let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
            return;
        };
        for task in tasks.flatten() {
            let Some(tid) = task.file_name().to_str().and_then(|s| s.parse().ok()) else {
                continue;
            };
            if let Some(entry) = stat_cpu_s(&task.path().join("stat")) {
                self.threads.insert(tid, entry);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dir_is_removed_on_drop_and_on_panic() {
        let base = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        let kept = {
            let dir = ScratchDir::create(&base, "a", 0).unwrap();
            std::fs::write(dir.path().join("f"), b"x").unwrap();
            dir.path().to_owned()
        };
        assert!(!kept.exists());
        let path = std::panic::catch_unwind(|| {
            let dir = ScratchDir::create(&base, "b", 0).unwrap();
            std::fs::write(dir.path().join("f"), b"x").unwrap();
            panic!("{}", dir.path().display());
        })
        .unwrap_err();
        let path = PathBuf::from(path.downcast_ref::<String>().unwrap());
        assert!(!path.exists());
        assert!(ScratchDir::create(&base, "c", u64::MAX).is_err());
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn own_process_reads_back() {
        assert!(peak_rss_mb(None).unwrap() > 0.0);
        if reset_peak_rss() {
            let before = peak_rss_mb(None).unwrap();
            let big = vec![1u8; 64 << 20];
            assert!(big.iter().step_by(4096).all(|&b| b == 1));
            assert!(peak_rss_mb(None).unwrap() >= before + 60.0);
            drop(big);
            assert!(reset_peak_rss());
            assert!(peak_rss_mb(None).unwrap() < before + 30.0);
        }
        assert!(process_cpu_s(std::process::id()).is_some());
        let mut t = ThreadCpu::default();
        t.sample(std::process::id());
        assert!(!t.threads.is_empty());
    }
}
