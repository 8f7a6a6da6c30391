//! The machine the numbers came from, and the directories the run writes to.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::{obj, Json};

/// The benchmark's output directory, `benchmark/out` (git-ignored): the
/// result file, the trace files and the WAL scratch directories all live
/// under it, so a run writes nothing outside its own checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory removed when dropped. WAL files go here — on
/// whatever filesystem holds the checkout, which the fingerprint records:
/// durable workloads therefore include this device's `fsync`.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(label: &str) -> std::io::Result<ScratchDir> {
        let dir = out_dir()
            .join("scratch")
            .join(format!("{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is ignored by git and swept by
        // the next run's own clean-up.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn first_line_of(command: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(command).args(args).output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&output.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split(':').nth(1)?.trim().to_string())
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix
/// in `/proc/mounts`).
fn filesystem_of(path: &Path) -> Option<String> {
    let path = std::fs::canonicalize(path).ok()?;
    let mounts = std::fs::read_to_string("/proc/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_device, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

/// Everything needed to judge whether two result files are comparable.
pub fn fingerprint(seed: u64, quick: bool, trials: usize) -> Json {
    let unknown = || "unknown".to_string();
    let out = out_dir();
    let _ = std::fs::create_dir_all(&out);
    obj([
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, usize::from)),
        ),
        ("cpu_model", Json::from(cpu_model().unwrap_or_else(unknown))),
        (
            "kernel",
            Json::from(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .map_or_else(|_| unknown(), |s| s.trim().to_string()),
            ),
        ),
        (
            "rustc",
            Json::from(first_line_of("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        (
            "git_commit",
            Json::from(
                first_line_of(
                    "git",
                    &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
                )
                .unwrap_or_else(unknown),
            ),
        ),
        ("wal_dir", Json::from(out.display().to_string())),
        (
            "wal_dir_filesystem",
            Json::from(filesystem_of(&out).unwrap_or_else(unknown)),
        ),
        ("driver_threads", Json::from(1usize)),
        ("seed", Json::from(seed)),
        ("quick", Json::from(quick)),
        ("trials", Json::from(trials)),
    ])
}
