//! Process accounting and the machine fingerprint, read from `/proc`
//! and the toolchain. Nothing here touches the program under test.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU32, Ordering};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;

/// User + system CPU time of the whole process so far, all threads, to
/// the nanosecond: the same sum `/proc/self/stat` reports in 10 ms
/// ticks, fine enough to time one pass or one batch on its own.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with C layout
    // (two 64-bit fields on 64-bit Linux), and the clock id is valid.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// What a timing depends on besides the code: absolute timings are only
/// comparable between records whose [`Fingerprint::machine`] agree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Threads available to the process.
    pub nproc: usize,
    /// `rustc -V`.
    pub rustc: String,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu: String,
    /// Commit the benchmark ran against, or `none` outside a git
    /// checkout.
    pub git_rev: String,
    /// Whether the checkout had uncommitted changes.
    pub dirty: bool,
}

impl Fingerprint {
    /// Reads the fingerprint of this process, this toolchain and the
    /// checkout in the current directory.
    pub fn current() -> Fingerprint {
        let nproc = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        // Only ask git about this directory itself, never a repository
        // that happens to enclose it.
        let in_git = Path::new(".git").exists();
        let git_rev = in_git
            .then(|| command_line("git", &["rev-parse", "HEAD"]))
            .flatten()
            .unwrap_or_else(|| "none".into());
        let dirty = in_git
            && command_line("git", &["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
        Fingerprint {
            nproc,
            rustc,
            cpu,
            git_rev,
            dirty,
        }
    }

    /// The part of the fingerprint that absolute timings depend on.
    pub fn machine(&self) -> (usize, &str, &str) {
        (self.nproc, &self.rustc, &self.cpu)
    }

    /// JSON object form.
    pub fn to_json(&self) -> nomc_json::Json {
        use nomc_json::{Json, Number};
        Json::object([
            ("nproc", Json::Num(Number::U64(self.nproc as u64))),
            ("rustc", Json::Str(self.rustc.clone())),
            ("cpu", Json::Str(self.cpu.clone())),
            ("git_rev", Json::Str(self.git_rev.clone())),
            ("dirty", Json::Bool(self.dirty)),
        ])
    }

    /// Parses [`Fingerprint::to_json`] output.
    pub fn from_json(j: &nomc_json::Json) -> Option<Fingerprint> {
        Some(Fingerprint {
            nproc: usize::try_from(j.get("nproc")?.as_u64()?).ok()?,
            rustc: j.get("rustc")?.as_str()?.to_string(),
            cpu: j.get("cpu")?.as_str()?.to_string(),
            git_rev: j.get("git_rev")?.as_str()?.to_string(),
            dirty: j.get("dirty")?.as_bool()?,
        })
    }
}

/// Runs a short command to completion and returns its trimmed stdout.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// A scratch directory under the current directory, removed on drop
/// unless made with [`WorkDir::kept`].
pub struct WorkDir {
    path: PathBuf,
    keep: bool,
}

impl WorkDir {
    /// Creates `.bench_work/<tag>-<pid>-<n>` afresh, `n` counting the
    /// directories this process made.
    pub fn create(tag: &str) -> std::io::Result<WorkDir> {
        static MADE: AtomicU32 = AtomicU32::new(0);
        let n = MADE.fetch_add(1, Ordering::Relaxed);
        let path = PathBuf::from(".bench_work").join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path, keep: false })
    }

    /// Like [`WorkDir::create`], but the directory outlives the run.
    /// Deleting thousands of small fsynced files makes the kernel time of
    /// the next minutes' file writes climb run after run (measured on
    /// ext4: the `serve_mixed` CPU per batch rose 0.32 → 0.42 s over
    /// five back-to-back runs, and stayed flat when nothing was deleted).
    pub fn kept(tag: &str) -> std::io::Result<WorkDir> {
        let mut dir = WorkDir::create(tag)?;
        dir.keep = true;
        Ok(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        if self.keep {
            return;
        }
        let _ = std::fs::remove_dir_all(&self.path);
        // Leaves the parent only if no other run still uses it.
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}
