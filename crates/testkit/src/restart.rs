//! Kill-and-restart chaos: crash the serving stack mid-load, restart it
//! on the same cache and journal directories, and check that nothing
//! durably accepted was lost.
//!
//! A process can't un-spawn its own threads, so the "crash" is staged
//! with the fault registry instead of `kill -9`: at a seeded ordinal the
//! journal disk dies ([`FireRule::AfterN`] → every later append fails)
//! and on even seeds the final append lands torn ([`FaultSpec::ShortRead`]).
//! The cache disk dies at an independent ordinal. Everything the process
//! did after those points is exactly what a real crash would lose — it
//! never reached disk — and the abrupt [`Service::shutdown`] discards
//! the rest of the in-memory state.
//!
//! Ground truth is read straight from the journal file with
//! [`JournalRecord::decode_line`], independently of the recovery code
//! under test. The invariants a restart must satisfy:
//!
//! 1. **No durable job lost** — every key the journal shows as accepted,
//!    unfinished, and unexpired reaches `done` after restart, and both
//!    the scheduler and `GET /v1/results/:key` serve bytes identical to
//!    the executor's deterministic output.
//! 2. **Expired jobs shed, not run** — a durable pending job whose wall
//!    deadline passed while the process was down counts in
//!    `jobs_expired` and is never executed.
//! 3. **Single compute per key per process lifetime** — in both
//!    incarnations; and the restarted process computes only keys that
//!    recovery actually replayed.
//! 4. **Metrics reconcile** — `jobs_recovered` equals the durable
//!    pending count and the submission ledger balances.
//! 5. **Clean end state** — orphaned cache tempfiles are collected on
//!    restart, and after a graceful drain a third journal open finds no
//!    open jobs.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use nemfpga::request::{ExperimentKind, ExperimentRequest};
use nemfpga_runtime::{mix_seed, ParallelConfig};
use nemfpga_service::journal::{now_unix_ms, Journal, JournalRecord};
use nemfpga_service::json::Value;
use nemfpga_service::{
    http_request, job_key, JobState, Service, ServiceConfig, SubmitError, SubmitOptions,
};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::chaos::expected_output;
use crate::plan::{FaultPlan, FaultScope, FaultSpec, FireRule};

/// One restart run's shape.
#[derive(Debug, Clone)]
pub struct RestartConfig {
    /// Seed for the request schedule and the crash ordinals.
    pub seed: u64,
    /// Submissions issued before the crash.
    pub jobs: usize,
    /// Distinct request seeds (with 3 experiment kinds: the keyspace).
    pub distinct_seeds: u64,
    /// Worker threads in both incarnations.
    pub worker_threads: usize,
    /// Scheduler queue bound.
    pub queue_capacity: usize,
    /// Per-job deadline.
    pub job_timeout: Duration,
    /// State root; each run uses `<root>/seed-<seed>` and removes it
    /// afterwards. `None` picks a per-process temp directory.
    pub root: Option<PathBuf>,
}

impl Default for RestartConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            jobs: 24,
            distinct_seeds: 4,
            worker_threads: 2,
            queue_capacity: 32,
            job_timeout: Duration::from_secs(5),
            root: None,
        }
    }
}

/// What one kill-and-restart run did (empty `violations` = survived).
#[derive(Debug, Clone)]
pub struct RestartReport {
    /// Schedule seed.
    pub seed: u64,
    /// The armed crash plan's name.
    pub plan: String,
    /// Submissions accepted before the crash.
    pub submissions: usize,
    /// Keys the journal durably shows as accepted and unfinished.
    pub durable_pending: usize,
    /// Durable unfinished keys whose deadline passed while down.
    pub durable_expired: usize,
    /// `jobs_recovered` after restart.
    pub recovered: u64,
    /// Executor invocations in the restarted incarnation.
    pub recomputed: u64,
    /// Whether the crash left a torn record at the journal tail.
    pub torn_tail: bool,
    /// Invariant violations.
    pub violations: Vec<String>,
}

impl RestartReport {
    /// One summary line for driver output.
    pub fn summary(&self) -> String {
        format!(
            "seed {:>3}  {:>3} submitted  {} pending + {} expired durable{}  {} recovered  {} recomputed  {}",
            self.seed,
            self.submissions,
            self.durable_pending,
            self.durable_expired,
            if self.torn_tail { " (torn tail)" } else { "" },
            self.recovered,
            self.recomputed,
            if self.violations.is_empty() {
                "OK".to_owned()
            } else {
                format!("{} VIOLATIONS", self.violations.len())
            }
        )
    }
}

/// The seeded crash plan: the journal disk dies after a seeded ordinal
/// (even seeds tear the final record first), the cache disk dies after
/// an independent one.
pub fn crash_plan(seed: u64) -> FaultPlan {
    let journal_dies = 4 + mix_seed(seed, 1) % 10;
    let cache_dies = 2 + mix_seed(seed, 2) % 8;
    let mut plan = FaultPlan::named(&format!("crash-j{journal_dies}-c{cache_dies}"))
        .with_rule("journal.append", FireRule::AfterN(journal_dies), FaultSpec::IoError)
        .with_rule("cache.write_disk", FireRule::AfterN(cache_dies), FaultSpec::IoError);
    if seed.is_multiple_of(2) {
        plan = plan.with_rule("journal.append", FireRule::Nth(journal_dies), FaultSpec::ShortRead);
    }
    plan
}

/// A job the journal file durably records as accepted but unfinished.
struct DurableJob {
    request: ExperimentRequest,
    expired: bool,
}

/// Reads ground truth from the journal file with the same fold the
/// recovery scan uses — but implemented here, against the public
/// [`JournalRecord::decode_line`], so the scenario does not trust the
/// code it is checking. Returns (key → job, torn_tail).
fn ground_truth(path: &Path, now_ms: u64) -> (BTreeMap<String, DurableJob>, bool) {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let mut torn = false;
    let mut submitted: BTreeMap<String, (ExperimentRequest, Option<u64>)> = BTreeMap::new();
    let mut done: Vec<String> = Vec::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        let Some(record) = JournalRecord::decode_line(line) else {
            torn = true;
            break;
        };
        match record {
            JournalRecord::Submitted {
                key,
                experiment,
                scale_bits,
                benchmarks,
                seed,
                deadline_unix_ms,
                ..
            } => {
                let Some(kind) = ExperimentKind::from_name(&experiment) else { continue };
                let mut request = ExperimentRequest::new(kind);
                request.scale = f64::from_bits(scale_bits);
                request.benchmarks = benchmarks as usize;
                request.seed = seed;
                submitted.insert(key, (request, deadline_unix_ms));
            }
            JournalRecord::Started { .. } | JournalRecord::Attempt { .. } => {}
            // A pinned key never executes again; drop it from ground
            // truth the same way a `done` record would.
            JournalRecord::Quarantined { key, .. } => done.push(key),
            JournalRecord::Done { key, .. } => done.push(key),
        }
    }
    for key in done {
        submitted.remove(&key);
    }
    let jobs = submitted
        .into_iter()
        .map(|(key, (request, deadline))| {
            let expired = deadline.is_some_and(|d| d <= now_ms);
            (key, DurableJob { request, expired })
        })
        .collect();
    (jobs, torn)
}

fn counting_executor() -> (Arc<Mutex<HashMap<String, u64>>>, nemfpga_service::Executor) {
    let computes: Arc<Mutex<HashMap<String, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    let counter = Arc::clone(&computes);
    let executor: nemfpga_service::Executor = Arc::new(move |req: &ExperimentRequest| {
        let key = job_key(req).map_err(|e| e.to_string())?;
        *counter
            .lock()
            .expect("compute counter poisoned")
            .entry(key.as_hex().to_owned())
            .or_insert(0) += 1;
        Ok(expected_output(req))
    });
    (computes, executor)
}

/// Runs one kill-and-restart experiment. See the module docs for the
/// staged-crash mechanics and the invariants.
pub fn run_restart(cfg: &RestartConfig) -> RestartReport {
    let plan = crash_plan(cfg.seed);
    let root = cfg.root.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("nemfpga-restart-{}", std::process::id()))
    });
    let dir = root.join(format!("seed-{}", cfg.seed));
    let _ = std::fs::remove_dir_all(&dir);
    let cache_dir = dir.join("cache");
    let journal_path = dir.join("journal.log");
    let config = ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        parallel: ParallelConfig::with_threads(cfg.worker_threads.max(1)),
        queue_capacity: cfg.queue_capacity,
        job_timeout: cfg.job_timeout,
        cache_capacity: 64,
        cache_dir: Some(cache_dir.clone()),
        journal_path: Some(journal_path.clone()),
        cluster: None,
        qos: Default::default(),
        hardening: Default::default(),
        journal_compact_bytes: 0,
    };
    let budget = cfg.job_timeout + Duration::from_secs(30);
    let mut violations: Vec<String> = Vec::new();

    // ── Incarnation 1: load, then crash ────────────────────────────────
    let (computes, executor) = counting_executor();
    let scope = FaultScope::begin();
    scope.arm_plan(&plan);
    let service = Service::start(&config, executor).expect("bind restart service");

    let kinds = [ExperimentKind::Fig4, ExperimentKind::Table1, ExperimentKind::Fig6];
    let mut rng = ChaCha8Rng::seed_from_u64(mix_seed(cfg.seed, 0xC4A54));
    let mut ids: Vec<u64> = Vec::new();
    for _ in 0..cfg.jobs {
        let mut request = ExperimentRequest::new(*kinds.choose(&mut rng).expect("non-empty"));
        request.seed = rng.gen_range(0..cfg.distinct_seeds.max(1));
        let opts = SubmitOptions { deadline_ms: Some(60_000), ..SubmitOptions::default() };
        match service.scheduler().submit_opts(request, opts) {
            Ok(submission) => ids.push(submission.status.id),
            Err(SubmitError::QueueFull) => {}
            Err(error) => violations.push(format!("pre-crash submit failed: {error}")),
        }
    }
    let submissions = ids.len();
    for &id in &ids {
        if let Some(status) = service.scheduler().wait_for(id, budget) {
            if !status.state.is_terminal() {
                violations.push(format!("pre-crash job {id} never reached a terminal state"));
            }
        }
    }
    let computes_before: BTreeMap<String, u64> =
        computes.lock().expect("compute counter poisoned").clone().into_iter().collect();
    // The crash: no drain, no flush — whatever the frozen disks dropped
    // stays dropped.
    service.shutdown();
    // Disarm the crash plan but keep owning the fault registry: a
    // sibling scenario's journal faults must not reach incarnation 2.
    scope.disarm();

    // A job a previous incarnation accepted whose deadline passed while
    // everything was down: durable, and outside the live keyspace so any
    // execution of it is unmistakable.
    let mut stale = ExperimentRequest::new(ExperimentKind::Table1);
    stale.seed = cfg.distinct_seeds + 17;
    let stale_key = job_key(&stale).expect("valid request").as_hex().to_owned();
    {
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&journal_path)
            .expect("append stale record");
        let record = JournalRecord::submitted(
            &stale_key,
            &stale,
            Some(now_unix_ms().saturating_sub(10_000)),
        );
        writeln!(file, "{}", record.encode_line()).expect("write stale record");
    }
    // And a half-written cache tempfile the crash stranded.
    let orphan = cache_dir.join(".orphan.json.tmp-12345");
    let _ = std::fs::create_dir_all(&cache_dir);
    std::fs::write(&orphan, b"half-written").expect("plant orphan tempfile");

    // Ground truth, read from the bytes on disk.
    let (durable, torn_tail) = ground_truth(&journal_path, now_unix_ms());
    let pending: Vec<(&String, &DurableJob)> = durable.iter().filter(|(_, j)| !j.expired).collect();
    let expired: Vec<&String> = durable.iter().filter(|(_, j)| j.expired).map(|(k, _)| k).collect();

    // ── Incarnation 2: restart on the same directories ─────────────────
    let (computes, executor) = counting_executor();
    let service = Service::start(&config, executor).expect("restart on the same state");
    let metrics = service.metrics();

    // 4. jobs_recovered must equal the durable pending count.
    let recovered = metrics.jobs_recovered.get();
    if recovered != pending.len() as u64 {
        violations.push(format!(
            "jobs_recovered = {recovered} but the journal holds {} pending job(s)",
            pending.len()
        ));
    }
    // 2. Deadlines that passed while down expire without running.
    if metrics.jobs_expired.get() != expired.len() as u64 {
        violations.push(format!(
            "jobs_expired = {} but the journal holds {} expired job(s)",
            metrics.jobs_expired.get(),
            expired.len()
        ));
    }
    // 5. Startup GC collects crash-stranded cache tempfiles.
    if orphan.exists() {
        violations.push("orphaned cache tempfile survived restart GC".to_owned());
    }

    // 1. Every durable pending job lands, byte-identical, on both the
    // scheduler and the wire. Resubmitting the same request coalesces
    // onto the recovered job (or hits its cached result) — it never
    // computes again — and hands us an id to block on.
    let addr = service.addr();
    for (key, job) in &pending {
        match service.scheduler().submit(job.request) {
            Ok(submission) => match service.scheduler().wait_for(submission.status.id, budget) {
                Some(status) if status.state == JobState::Done => {
                    if status.output.as_deref() != Some(expected_output(&job.request).as_str()) {
                        violations.push(format!(
                            "recovered job {}… diverged from the executor's bytes",
                            &key[..12]
                        ));
                    }
                }
                other => violations.push(format!(
                    "recovered job {}… ended as {:?}, not done",
                    &key[..12],
                    other.map(|s| s.state)
                )),
            },
            Err(error) => {
                violations.push(format!("post-restart submit of {}… failed: {error}", &key[..12]));
            }
        }
        match http_request(addr, "GET", &format!("/v1/results/{key}"), None, budget) {
            Ok(resp) if resp.status == 200 => {
                if resp.body.get("output").and_then(Value::as_str)
                    != Some(expected_output(&job.request).as_str())
                {
                    violations
                        .push(format!("/v1/results/{}… served non-canonical bytes", &key[..12]));
                }
            }
            Ok(resp) => violations.push(format!(
                "/v1/results/{}… answered {} for a recovered job",
                &key[..12],
                resp.status
            )),
            Err(error) => violations.push(format!("transport failure fetching results: {error}")),
        }
    }

    // 3. Single compute per key per process lifetime, and the restarted
    // process computes nothing recovery didn't replay.
    let computes_after: BTreeMap<String, u64> =
        computes.lock().expect("compute counter poisoned").clone().into_iter().collect();
    for (phase, per_key) in [("pre-crash", &computes_before), ("post-restart", &computes_after)] {
        for (key, count) in per_key {
            if *count > 1 {
                violations.push(format!(
                    "{phase}: key {}… computed {count} times in one process lifetime",
                    &key[..12]
                ));
            }
        }
    }
    for key in computes_after.keys() {
        if durable.get(key).is_none_or(|j| j.expired) {
            violations.push(format!(
                "post-restart computed {}…, which recovery never replayed",
                &key[..12]
            ));
        }
    }
    if computes_after.contains_key(&stale_key) {
        violations.push("the expired job was executed after restart".to_owned());
    }

    // 4b. The submission ledger balances in the restarted incarnation.
    let submitted = metrics.jobs_submitted.get();
    let ledger = metrics.admission_ledger();
    if submitted != ledger {
        violations.push(format!(
            "post-restart submission ledger leaks: {submitted} submitted != {ledger} booked"
        ));
    }
    let recomputed = computes_after.values().sum();

    // 5b. Graceful exit this time; a third open finds a quiet journal.
    if !service.drain(Duration::from_secs(10)) {
        violations.push("post-restart drain did not quiesce".to_owned());
    }
    match Journal::open(&journal_path) {
        Ok((_journal, report)) => {
            if !report.pending.is_empty() || !report.expired.is_empty() {
                violations.push(format!(
                    "journal still holds {} open job(s) after a clean drain",
                    report.pending.len() + report.expired.len()
                ));
            }
        }
        Err(error) => violations.push(format!("third journal open failed: {error}")),
    }

    let report = RestartReport {
        seed: cfg.seed,
        plan: plan.name.clone(),
        submissions,
        durable_pending: pending.len(),
        durable_expired: expired.len(),
        recovered,
        recomputed,
        torn_tail,
        violations,
    };
    let _ = std::fs::remove_dir_all(&dir);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(seed: u64) -> RestartConfig {
        RestartConfig {
            seed,
            root: Some(
                std::env::temp_dir().join(format!("nemfpga-restart-test-{}", std::process::id())),
            ),
            ..RestartConfig::default()
        }
    }

    #[test]
    fn crash_plans_replay_from_their_seed() {
        for seed in 0..8 {
            assert_eq!(crash_plan(seed), crash_plan(seed));
        }
        // Even seeds tear the tail, odd seeds freeze cleanly.
        assert_eq!(crash_plan(2).rules.len(), 3);
        assert_eq!(crash_plan(3).rules.len(), 2);
    }

    #[test]
    fn restart_recovers_a_torn_tail_crash() {
        let report = run_restart(&config(2));
        assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
        assert_eq!(report.durable_expired, if report.torn_tail { 0 } else { 1 });
    }

    #[test]
    fn restart_recovers_a_clean_freeze_crash() {
        let report = run_restart(&config(3));
        assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
        assert!(!report.torn_tail, "odd seeds freeze without tearing");
        assert_eq!(report.durable_expired, 1, "the stale record must surface as expired");
    }
}
