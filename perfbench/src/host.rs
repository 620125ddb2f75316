//! Host fingerprint and tree state, stamped on every record.

use std::path::Path;
use std::process::Command;

/// What a number depends on besides the code under test.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// The active ZVC kernel tier.
    pub zvc_tier: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Source revision, or `none` outside a git checkout.
    pub git_rev: String,
    /// Uncommitted changes to tracked files (`false` when unknown).
    pub dirty: bool,
}

/// Runs a command to completion and returns its trimmed standard
/// output, or `None` if it could not run or failed.
fn capture(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn git(root: &Path, args: &[&str]) -> Option<String> {
    let mut cmd = Command::new("git");
    cmd.arg("-C").arg(root).args(args);
    // Never let git climb above the benchmark's own checkout.
    if let Some(parent) = root.parent() {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    capture(&mut cmd)
}

impl Fingerprint {
    /// Probes the running host and the source tree the benchmark was
    /// built from.
    pub fn probe() -> Self {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap_or(Path::new("."));
        let git_rev = git(root, &["rev-parse", "--short=12", "HEAD"]);
        let dirty = git_rev.is_some()
            && git(root, &["status", "--porcelain", "--untracked-files=no"])
                .is_some_and(|s| !s.is_empty());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            zvc_tier: cdma_compress::kernel_info().to_string(),
            rustc: capture(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unknown".into()),
            git_rev: git_rev.unwrap_or_else(|| "none".into()),
            dirty,
        }
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "nproc={} zvc={} rustc=\"{}\" rev={}{}",
            self.nproc,
            self.zvc_tier,
            self.rustc,
            self.git_rev,
            if self.dirty { "+dirty" } else { "" }
        )
    }
}
