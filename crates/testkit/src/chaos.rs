//! The chaos engine: a live serve loop under a seeded fault plan.
//!
//! One chaos run stands up a real [`Service`] (scheduler + cache + HTTP
//! over TCP), arms a [`FaultPlan`], fires a seeded mix of concurrent
//! clients at it — valid jobs over a small keyspace (to force cache hits
//! and coalescing), invalid jobs, polls, result fetches, metrics — then
//! drains and checks the invariants that must survive *any* fault
//! sequence:
//!
//! 1. **Protocol sanity** — every response is well-formed with a status
//!    the request could legally produce.
//! 2. **Byte identity** — every output served (inline or via
//!    `/results/:key`) equals the executor's deterministic output for
//!    that request; corruption degrades to a miss, never a wrong answer.
//! 3. **No wedged state** — after every job reaches a terminal state,
//!    the in-flight table and queue are empty.
//! 4. **Coalescing coherence** — all responses naming one job id agree
//!    on its terminal outcome.
//! 5. **Metrics honesty** — counters reconcile exactly with the
//!    responses the clients observed.
//! 6. **Single compute per key** — unless the plan injects faults that
//!    legitimately force recomputation ([`FaultPlan::allows_recompute`]).
//!
//! Thread interleavings vary between runs; the invariants are
//! interleaving-independent, and the request schedule + plan replay
//! exactly from the seed.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use nemfpga::request::{ExperimentKind, ExperimentRequest};
use nemfpga_runtime::{mix_seed, ParallelConfig};
use nemfpga_service::json::Value;
use nemfpga_service::{http_request, job_key, ClientResponse, Service, ServiceConfig};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::plan::{FaultPlan, FaultScope, FaultSpec, FireRule};

/// Guarded bugs the chaos driver can deliberately reintroduce, to prove
/// the chaos invariants would catch their removal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BugSwitch {
    /// Drop the under-lock cache double-check in `Scheduler::submit`
    /// (the completion-race guard): identical concurrent submissions can
    /// then compute twice.
    SkipCacheDoubleCheck,
    /// Leak the in-flight table entry when a job completes: the
    /// in-flight table wedges.
    LeakInflight,
}

impl BugSwitch {
    /// The `bug.*` fault point implementing the switch.
    pub fn site(self) -> &'static str {
        match self {
            Self::SkipCacheDoubleCheck => "bug.skip_cache_double_check",
            Self::LeakInflight => "bug.leak_inflight",
        }
    }

    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Self::SkipCacheDoubleCheck => "skip-double-check",
            Self::LeakInflight => "leak-inflight",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "skip-double-check" => Some(Self::SkipCacheDoubleCheck),
            "leak-inflight" => Some(Self::LeakInflight),
            _ => None,
        }
    }
}

/// One chaos run's shape. The seed drives both the per-client request
/// streams and (via [`FaultPlan::randomized`]) usually the plan.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for the request schedule.
    pub seed: u64,
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Distinct request seeds (small keyspace → hits + coalescing).
    pub distinct_seeds: u64,
    /// Scheduler queue bound (small → exercises 429).
    pub queue_capacity: usize,
    /// Worker threads.
    pub worker_threads: usize,
    /// Per-job deadline.
    pub job_timeout: Duration,
    /// Disk-tier root; each run uses `<root>/plan-<seed>` and removes it
    /// afterwards. `None` disables the disk tier (and its fault sites).
    pub cache_root: Option<PathBuf>,
    /// Reintroduce a guarded bug for this run.
    pub bug: Option<BugSwitch>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            clients: 4,
            requests_per_client: 12,
            distinct_seeds: 3,
            queue_capacity: 16,
            worker_threads: 2,
            job_timeout: Duration::from_secs(5),
            cache_root: Some(
                std::env::temp_dir().join(format!("nemfpga-chaos-{}", std::process::id())),
            ),
            bug: None,
        }
    }
}

/// What one run did and every invariant it broke (empty = survived).
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The armed plan's name.
    pub plan: String,
    /// Schedule seed.
    pub seed: u64,
    /// Requests issued across all clients.
    pub requests: usize,
    /// Responses per HTTP status.
    pub responses_by_status: BTreeMap<u16, usize>,
    /// Executor invocations per job key.
    pub computes_per_key: BTreeMap<String, u64>,
    /// Invariant violations (empty means the stack survived the storm).
    pub violations: Vec<String>,
}

impl ChaosReport {
    /// Total executor invocations.
    pub fn computes(&self) -> u64 {
        self.computes_per_key.values().sum()
    }

    /// One summary line for driver output.
    pub fn summary(&self) -> String {
        let statuses: Vec<String> =
            self.responses_by_status.iter().map(|(s, n)| format!("{n}×{s}")).collect();
        format!(
            "seed {:>3}  {:>3} requests [{}]  {} computes / {} keys  {}",
            self.seed,
            self.requests,
            statuses.join(" "),
            self.computes(),
            self.computes_per_key.len(),
            if self.violations.is_empty() {
                "OK".to_owned()
            } else {
                format!("{} VIOLATIONS", self.violations.len())
            }
        )
    }
}

/// The deterministic output the chaos executor produces for a request —
/// the reference for every byte-identity check.
pub fn expected_output(request: &ExperimentRequest) -> String {
    format!(
        "chaos experiment {}\nscale {:.6}\nbenchmarks {}\nseed {}\nend\n",
        request.experiment.name(),
        request.scale,
        request.benchmarks,
        request.seed
    )
}

/// The plan the `--with-bug skip-double-check` demonstration arms: a
/// deterministic widening of the first-cache-miss → table-lock race.
/// Every 2nd submission sleeps in the window while the executor runs a
/// few ms, so with the double-check disabled the sleeper reliably
/// recomputes a result that was published while it slept.
pub fn double_check_race_plan() -> FaultPlan {
    FaultPlan::named("double-check-race")
        .with_rule("scheduler.pre_table_lock", FireRule::EveryNth(2), FaultSpec::DelayMillis(30))
        .with_rule("scheduler.execute", FireRule::Always, FaultSpec::DelayMillis(3))
}

enum Action {
    /// A `POST /v1/jobs`; `expect_valid` records whether the body passes
    /// validation (driving the legal-status check).
    Post {
        body: Value,
        request: Option<ExperimentRequest>,
    },
    GetJob(u64),
    GetResult(String),
    GetMetrics,
    Healthz,
}

fn random_request(rng: &mut ChaCha8Rng, distinct_seeds: u64) -> ExperimentRequest {
    let kinds = [ExperimentKind::Fig4, ExperimentKind::Table1, ExperimentKind::Fig6];
    let mut request = ExperimentRequest::new(*kinds.choose(rng).expect("non-empty"));
    request.seed = rng.gen_range(0..distinct_seeds.max(1));
    request
}

fn request_body(request: &ExperimentRequest, wait: bool) -> Value {
    Value::obj(vec![
        ("experiment", Value::Str(request.experiment.name().to_owned())),
        ("seed", Value::U64(request.seed)),
        ("wait", Value::Bool(wait)),
    ])
}

fn random_action(rng: &mut ChaCha8Rng, cfg: &ChaosConfig) -> Action {
    let roll = rng.gen_range(0u32..1000);
    if roll < 650 {
        let request = random_request(rng, cfg.distinct_seeds);
        let body = request_body(&request, rng.gen_bool(0.7));
        Action::Post { body, request: Some(request) }
    } else if roll < 750 {
        // Invalid submissions: each fails validation or decoding, so the
        // server must answer 400 and count nothing as submitted.
        let body = match rng.gen_range(0u32..3) {
            0 => Value::obj(vec![
                ("experiment", Value::Str("fig4".to_owned())),
                ("scale", Value::F64(2.0)),
            ]),
            1 => Value::obj(vec![
                ("experiment", Value::Str("fig4".to_owned())),
                ("benchmarks", Value::U64(0)),
            ]),
            _ => Value::obj(vec![("experiment", Value::Str("no-such-experiment".to_owned()))]),
        };
        Action::Post { body, request: None }
    } else if roll < 820 {
        Action::GetJob(rng.gen_range(1u64..60))
    } else if roll < 890 {
        let request = random_request(rng, cfg.distinct_seeds);
        let key = job_key(&request).expect("valid request has a key");
        Action::GetResult(key.as_hex().to_owned())
    } else if roll < 950 {
        Action::GetMetrics
    } else {
        Action::Healthz
    }
}

struct Observation {
    /// What was asked.
    action: Action,
    /// What came back (or the transport failure).
    outcome: Result<ClientResponse, String>,
}

/// Runs one chaos experiment. See the module docs for the invariants.
pub fn run_chaos(cfg: &ChaosConfig, plan: &FaultPlan) -> ChaosReport {
    let scope = FaultScope::begin();
    scope.arm_plan(plan);
    if let Some(bug) = cfg.bug {
        scope.arm_trigger(bug.site());
    }

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

    let cache_dir = cfg.cache_root.as_ref().map(|root| root.join(format!("plan-{}", cfg.seed)));
    if let Some(dir) = &cache_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let service = Service::start(
        &ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            parallel: ParallelConfig::with_threads(cfg.worker_threads.max(1)),
            queue_capacity: cfg.queue_capacity,
            job_timeout: cfg.job_timeout,
            cache_capacity: 64,
            cache_dir: cache_dir.clone(),
            journal_path: None,
            cluster: None,
            qos: Default::default(),
            // Default hardening: quarantine + watchdog armed. Plans that
            // panic `scheduler.execute` repeatedly on one key drive real
            // quarantines mid-storm, and the invariants below must hold
            // through them.
            hardening: Default::default(),
            journal_compact_bytes: 0,
        },
        executor,
    )
    .expect("bind chaos service");
    let addr = service.addr();

    // Storm phase: seeded concurrent clients.
    let observations: Vec<Observation> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|client| {
                s.spawn(move || {
                    let mut rng = ChaCha8Rng::seed_from_u64(mix_seed(cfg.seed, client as u64));
                    let mut seen: Vec<Observation> = Vec::new();
                    for _ in 0..cfg.requests_per_client {
                        let action = random_action(&mut rng, cfg);
                        let timeout = cfg.job_timeout + Duration::from_secs(30);
                        let outcome = match &action {
                            Action::Post { body, .. } => {
                                http_request(addr, "POST", "/v1/jobs", Some(body), timeout)
                            }
                            Action::GetJob(id) => {
                                http_request(addr, "GET", &format!("/v1/jobs/{id}"), None, timeout)
                            }
                            Action::GetResult(key) => http_request(
                                addr,
                                "GET",
                                &format!("/v1/results/{key}"),
                                None,
                                timeout,
                            ),
                            Action::GetMetrics => {
                                http_request(addr, "GET", "/v1/metrics", None, timeout)
                            }
                            Action::Healthz => {
                                http_request(addr, "GET", "/v1/healthz", None, timeout)
                            }
                        };
                        seen.push(Observation { action, outcome });
                    }
                    seen
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("chaos client panicked")).collect()
    });

    let mut violations: Vec<String> = Vec::new();
    let mut responses_by_status: BTreeMap<u16, usize> = BTreeMap::new();

    // Drain phase: every job named in a response must reach a terminal
    // state. wait_for blocks on the scheduler's condvar — no polling.
    let drain_budget = cfg.job_timeout + Duration::from_secs(30);
    let mut job_ids: Vec<u64> = Vec::new();
    for obs in &observations {
        if let (Action::Post { request: Some(_), .. }, Ok(resp)) = (&obs.action, &obs.outcome) {
            if let Some(id) = resp.body.get("job").and_then(Value::as_u64) {
                job_ids.push(id);
            }
        }
    }
    job_ids.sort_unstable();
    job_ids.dedup();
    for &id in &job_ids {
        // None = the record was evicted from the finished ring, which is
        // itself terminal; a live non-terminal record is a wedge.
        if let Some(status) = service.scheduler().wait_for(id, drain_budget) {
            if !status.state.is_terminal() {
                violations
                    .push(format!("job {id} still {:?} after the drain budget", status.state));
            }
        }
    }

    // Invariant checks.
    let mut by_job: HashMap<u64, Vec<(String, Option<String>)>> = HashMap::new();
    let mut coalesced_responses = 0u64;
    let mut accepted_posts = 0u64;
    let mut rejected_posts = 0u64;
    for obs in &observations {
        let resp = match &obs.outcome {
            Ok(resp) => resp,
            Err(e) => {
                violations.push(format!("transport failure: {e}"));
                continue;
            }
        };
        *responses_by_status.entry(resp.status).or_insert(0) += 1;
        let legal: &[u16] = match &obs.action {
            Action::Post { request: Some(_), .. } => &[200, 202, 429],
            Action::Post { request: None, .. } => &[400],
            Action::GetJob(_) => &[200, 404],
            // 503: the key was quarantined mid-storm; the structured
            // `quarantined` error replaces an indistinguishable 404.
            Action::GetResult(_) => &[200, 404, 503],
            Action::GetMetrics | Action::Healthz => &[200],
        };
        if !legal.contains(&resp.status) {
            violations.push(format!("illegal status {} for {}", resp.status, obs.describe()));
        }
        match &obs.action {
            Action::Post { request: Some(request), .. } => {
                match resp.status {
                    200 | 202 => accepted_posts += 1,
                    429 => {
                        accepted_posts += 1;
                        rejected_posts += 1;
                    }
                    _ => {}
                }
                if resp.body.get("coalesced").and_then(Value::as_bool) == Some(true) {
                    coalesced_responses += 1;
                }
                let state = resp.body.get("state").and_then(Value::as_str);
                let output = resp.body.get("output").and_then(Value::as_str).map(str::to_owned);
                if state == Some("done") {
                    match &output {
                        None => violations
                            .push(format!("done response without output: {}", obs.describe())),
                        Some(out) if *out != expected_output(request) => violations.push(format!(
                            "served bytes diverge from the executor's for {}",
                            obs.describe()
                        )),
                        Some(_) => {}
                    }
                }
                if let (Some(id), Some(state)) =
                    (resp.body.get("job").and_then(Value::as_u64), state)
                {
                    if matches!(state, "done" | "failed" | "timed_out" | "quarantined") {
                        by_job.entry(id).or_default().push((state.to_owned(), output));
                    }
                }
            }
            Action::GetResult(key) if resp.status == 200 => {
                let served = resp.body.get("output").and_then(Value::as_str);
                let expected = expected_for_key(key, cfg);
                if served.map(str::to_owned) != expected {
                    violations.push(format!("/v1/results/{key} served non-canonical bytes"));
                }
            }
            _ => {}
        }
    }

    // 4. Coalescing coherence: one terminal outcome per job id.
    for (id, outcomes) in &by_job {
        let first = &outcomes[0];
        if outcomes.iter().any(|o| o != first) {
            violations.push(format!("job {id} reported conflicting terminal outcomes"));
        }
    }

    // 3. No wedged state at quiescence.
    let inflight = service.scheduler().inflight_len();
    if inflight != 0 {
        violations.push(format!("{inflight} in-flight entries wedged after drain"));
    }
    let queued = service.scheduler().queue_depth();
    if queued != 0 {
        violations.push(format!("{queued} jobs still queued after drain"));
    }

    // 5. Metrics honesty (read before shutdown). The typed handles and
    // the `/v1/metrics` exporters share one registry, so reconciling
    // against the handles reconciles the wire too.
    let m = service.metrics();
    let submitted = m.jobs_submitted.get();
    let misses = m.cache_misses.get();
    let hits = m.cache_hits();
    let coalesced = m.coalesced.get();
    let quarantine_hits = m.quarantine_hits.get();
    let settled = m.jobs_completed.get()
        + m.jobs_failed.get()
        + m.jobs_timed_out.get()
        + m.jobs_rejected.get()
        + m.jobs_quarantined.get();
    if submitted != accepted_posts {
        violations.push(format!(
            "jobs_submitted = {submitted} but clients saw {accepted_posts} accepted posts"
        ));
    }
    let ledger = m.admission_ledger();
    if submitted != ledger {
        violations.push(format!(
            "submission ledger leaks: {submitted} submitted != {ledger} booked ({hits} hits + {coalesced} coalesced + {misses} misses + {quarantine_hits} quarantine hits + sheds)"
        ));
    }
    // A miss that ends pinned settles as `jobs_quarantined`, not failed.
    if misses != settled {
        violations.push(format!(
            "miss ledger leaks: {misses} misses != {settled} completed+failed+timed_out+rejected+quarantined"
        ));
    }
    if m.jobs_rejected.get() != rejected_posts {
        violations.push(format!(
            "jobs_rejected = {} but clients saw {rejected_posts} 429s",
            m.jobs_rejected.get()
        ));
    }
    if coalesced != coalesced_responses {
        violations.push(format!(
            "coalesced = {coalesced} but clients saw {coalesced_responses} coalesced responses"
        ));
    }

    // 6. Single compute per key, when the plan permits no recomputation.
    let computes_per_key: BTreeMap<String, u64> =
        computes.lock().expect("compute counter poisoned").clone().into_iter().collect();
    if !plan.allows_recompute() && cfg.bug != Some(BugSwitch::LeakInflight) {
        for (key, n) in &computes_per_key {
            if *n > 1 {
                violations.push(format!(
                    "key {}… computed {n} times under a plan that permits one",
                    &key[..12.min(key.len())]
                ));
            }
        }
    }

    service.shutdown();
    if let Some(dir) = &cache_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    drop(scope);

    ChaosReport {
        plan: plan.name.clone(),
        seed: cfg.seed,
        requests: cfg.clients * cfg.requests_per_client,
        responses_by_status,
        computes_per_key,
        violations,
    }
}

fn expected_for_key(key_hex: &str, cfg: &ChaosConfig) -> Option<String> {
    // Reconstruct the request space the clients draw from and find the
    // one hashing to this key (the space is tiny by construction).
    for kind in [ExperimentKind::Fig4, ExperimentKind::Table1, ExperimentKind::Fig6] {
        for seed in 0..cfg.distinct_seeds.max(1) {
            let mut request = ExperimentRequest::new(kind);
            request.seed = seed;
            if let Ok(key) = job_key(&request) {
                if key.as_hex() == key_hex {
                    return Some(expected_output(&request));
                }
            }
        }
    }
    None
}

impl Observation {
    fn describe(&self) -> String {
        match &self.action {
            Action::Post { request: Some(r), .. } => {
                format!("POST /v1/jobs ({} seed {})", r.experiment.name(), r.seed)
            }
            Action::Post { request: None, .. } => "POST /v1/jobs (invalid)".to_owned(),
            Action::GetJob(id) => format!("GET /v1/jobs/{id}"),
            Action::GetResult(key) => format!("GET /v1/results/{}…", &key[..12.min(key.len())]),
            Action::GetMetrics => "GET /v1/metrics".to_owned(),
            Action::Healthz => "GET /v1/healthz".to_owned(),
        }
    }
}
