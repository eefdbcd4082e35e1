//! Host fingerprint and provenance, printed with every result.

use std::process::Command;

/// Where and from what a result was measured.
pub struct Provenance {
    /// Hardware threads available to the benchmark.
    pub nproc: usize,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Commit of the checkout, when it is a git work tree.
    pub commit: String,
    /// Whether the work tree differs from that commit.
    pub dirty: String,
}

impl Provenance {
    /// Collects the fingerprint of this host and checkout.
    pub fn collect() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        let rustc = output("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_owned());
        let commit = output("git", &["rev-parse", "HEAD"]);
        let dirty = match (&commit, output("git", &["status", "--porcelain"])) {
            (Some(_), Some(status)) => (!status.is_empty()).to_string(),
            _ => "unknown".to_owned(),
        };
        Self {
            nproc,
            cpu,
            rustc,
            commit: commit.unwrap_or_else(|| "unknown (not a git checkout)".to_owned()),
            dirty,
        }
    }

    /// One `key: value` line per field, plus the workload and seed.
    pub fn lines(&self, workload: &str, seed: u64, trace: bool) -> Vec<String> {
        vec![
            format!("workload: {workload}  seed: {seed}  trace: {}", u8::from(trace)),
            format!("host: nproc={} cpu={:?}", self.nproc, self.cpu),
            format!("build: {}", self.rustc),
            format!("commit: {} dirty={}", self.commit, self.dirty),
        ]
    }
}

fn output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}
