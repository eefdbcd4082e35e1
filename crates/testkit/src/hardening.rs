//! Crash-loop hardening: prove poison-job quarantine is durable.
//!
//! One request is poison — its executor run always panics. A client
//! that does not know that keeps resubmitting it, and the process
//! restarts between every attempt, so nothing about the failure
//! history survives in memory. The only way the service can stop
//! burning compute on the key is the journal's `attempt` records.
//!
//! Each incarnation submits the poison request once plus a batch of
//! normal requests, then shuts down abruptly (no drain). The scenario
//! runs `threshold + 1` incarnations and checks:
//!
//! 1. **Exactly-N computes** — the poison executor body runs exactly
//!    `quarantine_threshold` times across ALL incarnations; the pin is
//!    recovered from the journal, never re-derived by re-executing.
//! 2. **Attempt counts persist** — incarnation `i < N` ends the poison
//!    job `failed`; incarnation `N` ends it `quarantined` with the
//!    structured error naming all `N` attempts; incarnation `N + 1`
//!    short-circuits at submit (a `quarantine_hits` tick, zero
//!    executor runs) and `/v1/results/:key` serves 503 `quarantined`.
//! 3. **Blast radius is one key** — every normal job completes `done`
//!    in every incarnation with byte-identical output.
//! 4. **Compaction is survivable** — a tiny `journal_compact_bytes`
//!    forces live compactions mid-run (`journal_compactions > 0`), and
//!    the attempt tally and pin still recover afterwards.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use nemfpga::request::{ExperimentKind, ExperimentRequest};
use nemfpga_runtime::ParallelConfig;
use nemfpga_service::json::Value;
use nemfpga_service::{http_request, job_key, HardeningConfig, JobState, Service, ServiceConfig};

use crate::chaos::expected_output;
use crate::plan::FaultScope;

/// Request seed reserved for the poison job; normal jobs use seeds
/// below this, so the marker can never collide.
const POISON_SEED: u64 = 0xDEAD;

/// One crash-loop run's shape.
#[derive(Debug, Clone)]
pub struct CrashLoopConfig {
    /// Seed for the normal-job schedule (the poison job is fixed).
    pub seed: u64,
    /// Abnormal failures before the key is pinned.
    pub quarantine_threshold: u32,
    /// Normal requests submitted per incarnation.
    pub normal_jobs: usize,
    /// Live-compaction byte threshold (small, to force compactions).
    pub journal_compact_bytes: u64,
    /// State root; each run uses `<root>/seed-<seed>` and removes it
    /// afterwards. `None` picks a per-process temp directory.
    pub root: Option<PathBuf>,
}

impl Default for CrashLoopConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            quarantine_threshold: 3,
            normal_jobs: 6,
            journal_compact_bytes: 2048,
            root: None,
        }
    }
}

/// What one crash-loop run did (empty `violations` = survived).
#[derive(Debug, Clone)]
pub struct CrashLoopReport {
    /// Schedule seed.
    pub seed: u64,
    /// Incarnations driven (`quarantine_threshold + 1`).
    pub incarnations: u32,
    /// Executor runs the poison request actually got.
    pub poison_computes: u64,
    /// Live journal compactions observed across all incarnations.
    pub compactions: u64,
    /// Invariant violations.
    pub violations: Vec<String>,
}

impl CrashLoopReport {
    /// One summary line for driver output.
    pub fn summary(&self) -> String {
        format!(
            "seed {:>3}  {} incarnations  {} poison computes  {} compactions  {}",
            self.seed,
            self.incarnations,
            self.poison_computes,
            self.compactions,
            if self.violations.is_empty() {
                "OK".to_owned()
            } else {
                format!("{} VIOLATIONS", self.violations.len())
            }
        )
    }
}

/// Runs one crash-loop experiment. See the module docs for the
/// incarnation schedule and the invariants.
pub fn run_crash_loop(cfg: &CrashLoopConfig) -> CrashLoopReport {
    // Own the fault registry for the whole run: it arms nothing, but a
    // concurrently armed plan would fail the journal appends that carry
    // the attempt tally across incarnations.
    let _scope = FaultScope::begin();
    let threshold = cfg.quarantine_threshold.max(1);
    let root = cfg.root.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("nemfpga-crash-loop-{}", std::process::id()))
    });
    let dir = root.join(format!("seed-{}", cfg.seed));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        parallel: ParallelConfig::with_threads(2),
        cache_dir: Some(dir.join("cache")),
        journal_path: Some(dir.join("journal.log")),
        journal_compact_bytes: cfg.journal_compact_bytes,
        hardening: HardeningConfig {
            quarantine_threshold: threshold,
            ..HardeningConfig::default()
        },
        ..ServiceConfig::default()
    };
    let budget = config.job_timeout + Duration::from_secs(30);
    let mut violations: Vec<String> = Vec::new();

    let mut poison = ExperimentRequest::new(ExperimentKind::Fig4);
    poison.seed = POISON_SEED;
    let poison_key = job_key(&poison).expect("valid request").as_hex().to_owned();

    // One executor-run counter shared across every incarnation: the
    // poison body bumps it and then panics, so the count is exactly the
    // number of times quarantine FAILED to protect the key.
    let computes: Arc<Mutex<HashMap<String, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    let mut compactions = 0u64;

    for incarnation in 1..=threshold + 1 {
        let counter = Arc::clone(&computes);
        let executor: nemfpga_service::Executor = Arc::new(move |req: &ExperimentRequest| {
            let key = job_key(req).map_err(|e| e.to_string())?;
            *counter
                .lock()
                .expect("compute counter poisoned")
                .entry(key.as_hex().to_owned())
                .or_insert(0) += 1;
            if req.seed == POISON_SEED {
                panic!("poison marker request");
            }
            Ok(expected_output(req))
        });
        let service = Service::start(&config, executor).expect("bind crash-loop service");

        // The client that never learns: resubmit the poison key.
        let expected_state =
            if incarnation < threshold { JobState::Failed } else { JobState::Quarantined };
        match service.scheduler().submit(poison) {
            Ok(submission) => {
                let status = service.scheduler().wait_for(submission.status.id, budget);
                match status {
                    Some(status) if status.state == expected_state => {
                        if status.state == JobState::Quarantined {
                            let error = status.error.unwrap_or_default();
                            let want = format!("quarantined after {threshold} failed attempts");
                            if !error.contains(&want) {
                                violations.push(format!(
                                    "incarnation {incarnation}: quarantine error `{error}` does \
                                     not carry the attempt tally"
                                ));
                            }
                        }
                    }
                    other => violations.push(format!(
                        "incarnation {incarnation}: poison job ended as {:?}, expected {:?}",
                        other.map(|s| s.state),
                        expected_state
                    )),
                }
            }
            Err(error) => {
                violations.push(format!("incarnation {incarnation}: poison submit failed: {error}"))
            }
        }

        // Past the threshold the key must be refused at submit time —
        // zero queue slots, zero executor runs, a quarantine_hits tick,
        // and a 503 `quarantined` envelope on the results route.
        if incarnation == threshold + 1 {
            if service.metrics().quarantine_hits.get() == 0 {
                violations
                    .push("final incarnation: submit did not short-circuit on the pin".to_owned());
            }
            let path = format!("/v1/results/{poison_key}");
            match http_request(service.addr(), "GET", &path, None, budget) {
                Ok(resp) => {
                    let code = resp
                        .body
                        .get("error")
                        .and_then(|e| e.get("code"))
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_owned();
                    if resp.status != 503 || code != "quarantined" {
                        violations.push(format!(
                            "results route answered {} `{code}` for a quarantined key",
                            resp.status
                        ));
                    }
                }
                Err(error) => {
                    violations.push(format!("transport failure fetching results: {error}"))
                }
            }
        }

        // Normal traffic rides along untouched: same seeds every
        // incarnation, so byte-identity across restarts is checked too.
        for job in 0..cfg.normal_jobs {
            let kinds = [ExperimentKind::Fig4, ExperimentKind::Table1, ExperimentKind::Fig6];
            let mut request = ExperimentRequest::new(kinds[job % kinds.len()]);
            request.seed = cfg.seed * 1000 + job as u64;
            match service.scheduler().submit(request) {
                Ok(submission) => {
                    match service.scheduler().wait_for(submission.status.id, budget) {
                        Some(status) if status.state == JobState::Done => {
                            if status.output.as_deref() != Some(expected_output(&request).as_str())
                            {
                                violations.push(format!(
                                    "incarnation {incarnation}: normal job {job} diverged from \
                                     the executor's bytes"
                                ));
                            }
                        }
                        other => violations.push(format!(
                            "incarnation {incarnation}: normal job {job} ended as {:?}",
                            other.map(|s| s.state)
                        )),
                    }
                }
                Err(error) => violations.push(format!(
                    "incarnation {incarnation}: normal job {job} submit failed: {error}"
                )),
            }
        }

        compactions += service.metrics().journal_compactions.get();
        // The crash: abrupt shutdown, no drain — only the journal's
        // bytes carry the failure history into the next incarnation.
        service.shutdown();
    }

    // 1. Exactly-N computes for the poison key, full tallies elsewhere.
    let per_key = computes.lock().expect("compute counter poisoned").clone();
    let poison_computes = per_key.get(&poison_key).copied().unwrap_or(0);
    if poison_computes != u64::from(threshold) {
        violations.push(format!(
            "poison key computed {poison_computes} times; the quarantine threshold is {threshold}"
        ));
    }
    // 4. The tiny compaction threshold must actually have fired.
    if compactions == 0 {
        violations.push(format!(
            "no live compaction fired despite a {}-byte threshold",
            cfg.journal_compact_bytes
        ));
    }

    let report = CrashLoopReport {
        seed: cfg.seed,
        incarnations: threshold + 1,
        poison_computes,
        compactions,
        violations,
    };
    let _ = std::fs::remove_dir_all(&dir);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_loop_quarantines_in_exactly_threshold_attempts() {
        let report = run_crash_loop(&CrashLoopConfig {
            seed: 7,
            root: Some(
                std::env::temp_dir()
                    .join(format!("nemfpga-crash-loop-test-{}", std::process::id())),
            ),
            ..CrashLoopConfig::default()
        });
        assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
        assert_eq!(report.poison_computes, 3);
        assert!(report.compactions > 0);
    }
}
