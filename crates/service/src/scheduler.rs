//! Job scheduler: bounded queue, in-flight dedup, timeouts, worker pool.
//!
//! Every submission is keyed by its canonical [`JobKey`]. A valid
//! submission is decided in this order, and the first step that answers
//! it wins:
//!
//! 1. **Brownout** — at overload stage 3 every submission is shed, and
//!    from stage 1 the batch lane is ([`SubmitError::Overloaded`]).
//! 2. **Result cache** (memory, then disk), looked up without the table
//!    lock — no job runs at all.
//! 3. **In-flight coalescing** — an identical job is already queued or
//!    running; the submission attaches to it and no second computation
//!    ever starts. This is what keeps a thundering herd of identical
//!    requests at exactly one compute.
//! 4. **Cache re-check under the table lock** — the identical job may
//!    have finished between steps 2 and 3.
//! 5. **Quarantine pin** — a poison key lands on a born-terminal
//!    `quarantined` record and never executes.
//! 6. **Cached-only shed** — from overload stage 2 a fresh compute is
//!    refused ([`SubmitError::Overloaded`]).
//! 7. **Tenant quota** — [`SubmitError::QuotaExceeded`] when the tenant
//!    already has its quota of jobs waiting.
//! 8. **Fresh execution** on the [`WorkerPool`], behind a bounded queue
//!    (submission fails fast with [`SubmitError::QueueFull`] when the
//!    backlog is at capacity — HTTP turns that into 429).
//!
//! Each of these outcomes books exactly one admission-ledger term (see
//! [`Metrics::admission_ledger`]), and every job leaves `queued` or
//! `running` through one terminal transition.
//!
//! Timeouts are cooperative: a job that waited in the queue past its
//! deadline is dropped without running (`TimedOut`); a job already
//! running cannot be preempted, so waiters stop blocking at the deadline
//! while the computation finishes and lands in the cache for the next
//! asker.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use nemfpga::request::ExperimentRequest;
use nemfpga_runtime::budget::{self, BudgetCell};
use nemfpga_runtime::cancel::{self, CancelToken};
use nemfpga_runtime::faults::{FaultAction, FaultPoint};
use nemfpga_runtime::watchdog::{self, Watchdog, WatchdogFired};
use nemfpga_runtime::{ParallelConfig, WorkerPool};

use crate::cache::{CacheTier, CachedResult, ResultCache};
use crate::events::{EventHub, EventKind, JobChannel};
use crate::journal::{now_unix_ms, Journal, JournalRecord};
use crate::key::{job_key, JobKey};
use crate::metrics::{Metrics, TenantMetrics};
use crate::overload::{self, OverloadController, OverloadPolicy};
use crate::qos::{FairQueue, Lane, QosPolicy, QuotaExceeded, TenantStats, DEFAULT_TENANT};

/// Fires once per valid submission, before any tier is consulted. A
/// pure probe/jitter point (the testkit's deterministic "all N clients
/// have entered submit" notification hangs off it).
static FAULT_SUBMIT: FaultPoint = FaultPoint::new("scheduler.submit");

/// Fires between the first (lock-free) cache miss and taking the table
/// lock — exactly the race window the under-lock cache double-check
/// exists for. A `Delay` here makes the race deterministic.
static FAULT_PRE_TABLE_LOCK: FaultPoint = FaultPoint::new("scheduler.pre_table_lock");

/// Fires when a fresh job's deadline is computed; `SkewMillis(n)` pulls
/// the deadline `n` ms earlier (injected clock skew), driving the
/// queued-past-deadline timeout path.
static FAULT_DEADLINE: FaultPoint = FaultPoint::new("scheduler.deadline");

/// Fires on the worker immediately before the executor runs, *inside*
/// the panic guard: `Delay` slows the job, `Panic` fails it via the
/// panic path, `Err` fails it via the error path.
static FAULT_EXECUTE: FaultPoint = FaultPoint::new("scheduler.execute");

/// One of these fires (after the table lock is released) on every
/// submission outcome; the testkit counts them to wait for states like
/// "all N submissions resolved" without sleeping.
static OUTCOME_CACHED: FaultPoint = FaultPoint::new("scheduler.outcome.cached");
static OUTCOME_COALESCED: FaultPoint = FaultPoint::new("scheduler.outcome.coalesced");
static OUTCOME_FRESH: FaultPoint = FaultPoint::new("scheduler.outcome.fresh");
static OUTCOME_REJECTED: FaultPoint = FaultPoint::new("scheduler.outcome.rejected");
static OUTCOME_QUARANTINED: FaultPoint = FaultPoint::new("scheduler.outcome.quarantined");

/// Bug-reintroduction switch: `Trigger` disables the under-lock cache
/// double-check. Exists so the chaos suite can prove the guard is
/// load-bearing (arming this must make a chaos plan fail).
static BUG_SKIP_DOUBLE_CHECK: FaultPoint = FaultPoint::new("bug.skip_cache_double_check");

/// Bug-reintroduction switch: `Trigger` leaks the in-flight entry when
/// a job settles, the "wedged in-flight table" failure mode.
static BUG_LEAK_INFLIGHT: FaultPoint = FaultPoint::new("bug.leak_inflight");

/// The function that actually computes an experiment. Must be
/// deterministic: equal requests must produce equal bytes (the cache and
/// dedup layers assume it).
pub type Executor = Arc<dyn Fn(&ExperimentRequest) -> Result<String, String> + Send + Sync>;

/// Finished job records kept for `GET /jobs/:id` before eviction.
const MAX_FINISHED_JOBS: usize = 1024;

/// The watchdog polls ten times per quiet limit, but never less often
/// than this.
const WATCHDOG_MAX_POLL: Duration = Duration::from_millis(50);

/// Scheduler knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Worker threads executing jobs (0 = one per core).
    pub parallel: ParallelConfig,
    /// Maximum jobs waiting in the queue (running jobs excluded).
    pub queue_capacity: usize,
    /// Per-job deadline, measured from submission.
    pub job_timeout: Duration,
    /// Multi-tenant fair-share policy (weights, lanes, quotas). The
    /// default policy is single-tenant-neutral: weight 1 for everyone,
    /// no quotas.
    pub qos: QosPolicy,
    /// Execution-hardening knobs (quarantine, watchdog, budgets,
    /// brownout).
    pub hardening: HardeningConfig,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            parallel: ParallelConfig::with_threads(2),
            queue_capacity: 256,
            job_timeout: Duration::from_secs(300),
            qos: QosPolicy::default(),
            hardening: HardeningConfig::default(),
        }
    }
}

/// Defense-in-depth execution hardening: how the scheduler contains
/// jobs that panic, stall, or eat memory, and how it degrades under
/// sustained overload.
#[derive(Debug, Clone)]
pub struct HardeningConfig {
    /// Abnormal failures (executor panic, watchdog kill, budget breach)
    /// a key may accumulate — journaled, so the count survives
    /// restarts — before the key is quarantined and never executed
    /// again. `0` disables quarantine.
    pub quarantine_threshold: u32,
    /// Watchdog quiet limit as a multiple of `job_timeout`: a running
    /// job that goes `watchdog_factor × job_timeout` without a
    /// heartbeat (cancel checkpoint or progress tick) is hard-failed.
    /// `0` disables the watchdog thread entirely.
    pub watchdog_factor: u32,
    /// Per-job peak tracked-bytes ceiling, enforced at checkpoints and
    /// observed by the watchdog. `0` = track only, never enforce.
    pub job_budget_bytes: usize,
    /// Adaptive brownout thresholds (disabled by default).
    pub overload: OverloadPolicy,
}

impl Default for HardeningConfig {
    fn default() -> Self {
        Self {
            quarantine_threshold: 3,
            watchdog_factor: 4,
            job_budget_bytes: 0,
            overload: OverloadPolicy::default(),
        }
    }
}

/// Lifecycle of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a worker.
    Queued,
    /// Executing.
    Running,
    /// Finished; output available.
    Done,
    /// Executor returned an error (or panicked).
    Failed,
    /// Dropped after waiting in the queue past its deadline.
    TimedOut,
    /// Shed: the client's `deadline_ms` passed before a worker picked
    /// the job up, so running it could only produce a stale answer.
    Expired,
    /// Cancelled by the client (`DELETE /v1/jobs/:id`) or by a drain.
    Cancelled,
    /// Pinned as poison: the key reached the quarantine threshold of
    /// abnormal failures and will never execute again. Sticky across
    /// restarts (journaled); resubmissions short-circuit to this state.
    Quarantined,
}

impl JobState {
    /// Whether the job will make no further transitions.
    pub fn is_terminal(self) -> bool {
        !matches!(self, Self::Queued | Self::Running)
    }

    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Queued => "queued",
            Self::Running => "running",
            Self::Done => "done",
            Self::Failed => "failed",
            Self::TimedOut => "timed_out",
            Self::Expired => "expired",
            Self::Cancelled => "cancelled",
            Self::Quarantined => "quarantined",
        }
    }

    /// Inverse of [`JobState::name`] (used by the typed client).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "queued" => Some(Self::Queued),
            "running" => Some(Self::Running),
            "done" => Some(Self::Done),
            "failed" => Some(Self::Failed),
            "timed_out" => Some(Self::TimedOut),
            "expired" => Some(Self::Expired),
            "cancelled" => Some(Self::Cancelled),
            "quarantined" => Some(Self::Quarantined),
            _ => None,
        }
    }
}

/// A point-in-time snapshot of one job.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Scheduler-assigned id (monotonic).
    pub id: u64,
    /// Content address of the request.
    pub key: JobKey,
    /// The request itself.
    pub request: ExperimentRequest,
    /// Current state.
    pub state: JobState,
    /// Output bytes, once `Done`.
    pub output: Option<String>,
    /// Error message, when `Failed` or `TimedOut`.
    pub error: Option<String>,
    /// Whether this job was answered from the cache without computing.
    pub cached: bool,
    /// How many later submissions coalesced onto this job.
    pub coalesced_submissions: u64,
    /// Tenant that first submitted the job.
    pub tenant: String,
    /// Priority lane it was scheduled in.
    pub lane: Lane,
}

/// Outcome of one submission.
#[derive(Debug, Clone)]
pub struct Submission {
    /// Snapshot of the job the submission landed on.
    pub status: JobStatus,
    /// True when this submission attached to an existing in-flight job.
    pub coalesced: bool,
    /// Which cache tier answered, if any.
    pub cache_tier: Option<CacheTier>,
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The request failed validation or has no canonical key.
    Invalid(String),
    /// The bounded queue is full; retry later.
    QueueFull,
    /// The submitting tenant is over its per-tenant queue quota; retry
    /// later (HTTP 429, like [`SubmitError::QueueFull`], but scoped to
    /// one tenant instead of the whole service).
    QuotaExceeded(QuotaExceeded),
    /// The scheduler is draining for shutdown; retry against a
    /// replacement instance.
    Draining,
    /// The brownout controller shed this submission (HTTP 503 with a
    /// `Retry-After`). Carries the stage that refused it.
    Overloaded(u8),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Invalid(m) => write!(f, "invalid request: {m}"),
            Self::QueueFull => f.write_str("job queue is full"),
            Self::QuotaExceeded(q) => write!(f, "{q}"),
            Self::Draining => f.write_str("service is draining"),
            Self::Overloaded(stage) => {
                write!(f, "service is overloaded (stage {})", overload::stage_name(*stage))
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Per-submission knobs beyond the request itself.
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// Client completion deadline, relative milliseconds from now. A
    /// job still queued when it passes is shed as [`JobState::Expired`]
    /// instead of executed. Deliberately *not* part of the job key —
    /// identical requests with different deadlines still coalesce.
    pub deadline_ms: Option<u64>,
    /// Absolute wall-clock deadline (ms since the Unix epoch); used by
    /// journal recovery, where the original relative deadline is gone.
    /// Ignored when `deadline_ms` is set.
    pub deadline_unix_ms: Option<u64>,
    /// The journal already holds this job's `submitted` record (it is a
    /// recovery replay); do not append a second one.
    pub already_journaled: bool,
    /// Submitting tenant; `None` = the default tenant. Names are
    /// `[a-z0-9_-]`, at most 64 bytes. Like deadlines, deliberately
    /// *not* part of the job key — identical requests from different
    /// tenants still coalesce onto one computation.
    pub tenant: Option<String>,
    /// Priority lane (interactive by default).
    pub lane: Lane,
}

struct Record {
    status: JobStatus,
    deadline: Instant,
    /// When the submission entered the scheduler; anchors the
    /// queue-wait and submit→terminal latency histograms.
    submitted_at: Instant,
    /// Client-requested completion deadline; `None` = none given.
    client_deadline: Option<Instant>,
    /// Cooperative cancellation flag the worker enters for the job.
    cancel: CancelToken,
    /// Memory accounting for the job's worker thread; summed across
    /// running jobs by the overload controller's memory signal.
    budget: Arc<BudgetCell>,
}

struct Table {
    next_id: u64,
    records: HashMap<u64, Record>,
    /// key-hex → job id, for every non-terminal job.
    inflight: HashMap<String, u64>,
    /// key-hex → (abnormal failures so far, last reason). Cleared by a
    /// successful completion; promoted to `quarantined` at the
    /// threshold. Preloaded from the journal on recovery.
    attempts: HashMap<String, (u32, String)>,
    /// key-hex → structured error, for keys pinned as poison.
    quarantined: HashMap<String, String>,
    finished_order: VecDeque<u64>,
    /// Fair-share queue deciding which accepted job each pool tick runs.
    qos: FairQueue,
    /// Pool ticks that found nothing eligible to run (see [`run_next`]).
    /// A finishing job repays one whenever eligible work exists, so work
    /// blocked behind an inflight cap is always revived.
    lost_ticks: usize,
}

struct Shared {
    table: Mutex<Table>,
    job_done: Condvar,
    cache: Arc<ResultCache>,
    metrics: Arc<Metrics>,
    executor: Executor,
    /// Per-job progress event channels, keyed by job id.
    events: EventHub,
    /// Write-ahead journal; `None` = durability off.
    journal: Option<Arc<Journal>>,
    /// Set by [`Scheduler::begin_drain`]: refuse new submissions and
    /// skip terminal journal records for force-cancelled jobs (so a
    /// restart resumes them).
    draining: AtomicBool,
    /// Hardening knobs (quarantine threshold, budgets, …).
    hardening: HardeningConfig,
    /// The pool's watchdog monitor handle, when `watchdog_factor > 0`.
    watchdog: Option<Watchdog>,
    /// Maximum heartbeat silence before the watchdog fires
    /// (`watchdog_factor × job_timeout`).
    watchdog_quiet: Duration,
    /// Staged brownout state machine (see [`crate::overload`]).
    overload: OverloadController,
}

/// Publishes `kind` on `job`'s event channel (creating it on first use)
/// and keeps the emission/drop counters honest. Ring and hub locks are
/// leaf locks: safe to call with or without the table lock held.
fn publish_event(shared: &Shared, job: u64, kind: EventKind) {
    let channel = shared.events.create(job);
    let evicted = channel.publish(kind);
    shared.metrics.events_emitted.inc();
    if evicted > 0 {
        shared.metrics.events_dropped.add(evicted);
    }
}

/// Publishes the terminal `state` event for `job`, then closes its
/// channel: subscribers drain the buffered tail and finish instead of
/// wedging on a stream that will never produce another event.
fn publish_terminal(shared: &Shared, job: u64, state: JobState) {
    publish_event(shared, job, EventKind::State { state: state.name().to_owned() });
    if let Some(channel) = shared.events.channel(job) {
        channel.close();
    }
}

/// Tenant names are lowercase `[a-z0-9_-]`, 1–64 bytes — safe to embed
/// verbatim in Prometheus label values and journal records.
fn validate_tenant(name: &str) -> Result<(), String> {
    if name.is_empty() || name.len() > 64 {
        return Err(format!("tenant name must be 1-64 bytes, got {} bytes", name.len()));
    }
    if let Some(bad) = name.chars().find(|c| !matches!(c, 'a'..='z' | '0'..='9' | '_' | '-')) {
        return Err(format!("tenant name may only contain [a-z0-9_-], got `{bad}`"));
    }
    Ok(())
}

/// Appends to the journal (when one is configured), folding failures
/// into `disk_write_errors` — a broken journal disk degrades durability,
/// never serving.
fn journal_append(shared: &Shared, record: &JournalRecord) {
    if let Some(journal) = &shared.journal {
        if let Err(error) = journal.append(record) {
            shared.metrics.disk_write_errors.inc();
            eprintln!("nemfpga-service: journal append failed: {error}");
        }
    }
}

/// The scheduler. Dropping it finishes in-flight jobs and joins workers.
pub struct Scheduler {
    shared: Arc<Shared>,
    pool: WorkerPool,
    job_timeout: Duration,
}

impl Scheduler {
    /// Builds a scheduler around `cache` and `executor`, no journal.
    pub fn new(
        config: &SchedulerConfig,
        cache: ResultCache,
        metrics: Arc<Metrics>,
        executor: Executor,
    ) -> Self {
        Self::with_journal(config, cache, metrics, executor, None)
    }

    /// [`Scheduler::new`] plus a write-ahead journal: every accepted job
    /// is durably recorded before the submission returns, and terminal
    /// transitions are recorded as they happen.
    pub fn with_journal(
        config: &SchedulerConfig,
        cache: ResultCache,
        metrics: Arc<Metrics>,
        executor: Executor,
        journal: Option<Arc<Journal>>,
    ) -> Self {
        let mut pool = WorkerPool::new(&config.parallel, config.queue_capacity);
        let watchdog_quiet =
            config.job_timeout.saturating_mul(config.hardening.watchdog_factor.max(1));
        let watchdog = (config.hardening.watchdog_factor > 0)
            .then(|| pool.enable_watchdog(WATCHDOG_MAX_POLL.min(watchdog_quiet / 10)));
        let shared = Arc::new(Shared {
            table: Mutex::new(Table {
                next_id: 1,
                records: HashMap::new(),
                inflight: HashMap::new(),
                attempts: HashMap::new(),
                quarantined: HashMap::new(),
                finished_order: VecDeque::new(),
                qos: FairQueue::new(&config.qos),
                lost_ticks: 0,
            }),
            job_done: Condvar::new(),
            cache: Arc::new(cache),
            metrics,
            executor,
            events: EventHub::new(crate::events::DEFAULT_EVENT_BUFFER),
            journal,
            draining: AtomicBool::new(false),
            watchdog,
            watchdog_quiet,
            overload: OverloadController::new(config.hardening.overload.clone()),
            hardening: config.hardening.clone(),
        });
        Self { shared, pool, job_timeout: config.job_timeout }
    }

    /// Submits a request with default options: no client deadline.
    ///
    /// # Errors
    ///
    /// See [`Scheduler::submit_opts`].
    pub fn submit(&self, request: ExperimentRequest) -> Result<Submission, SubmitError> {
        self.submit_opts(request, SubmitOptions::default())
    }

    /// Submits a request, deciding it in the admission order of the
    /// module docs: brownout, cache, coalescing, the under-lock cache
    /// re-check, the quarantine pin, the cached-only shed, the tenant
    /// quota, and the queue.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] for malformed requests or tenant names,
    /// [`SubmitError::Draining`] once a drain has begun,
    /// [`SubmitError::Overloaded`] when the brownout sheds the
    /// submission, [`SubmitError::QuotaExceeded`] when the tenant is
    /// over its queue quota, and [`SubmitError::QueueFull`] when the
    /// backlog is at capacity.
    pub fn submit_opts(
        &self,
        request: ExperimentRequest,
        opts: SubmitOptions,
    ) -> Result<Submission, SubmitError> {
        request.validate().map_err(|e| SubmitError::Invalid(e.to_string()))?;
        let key = job_key(&request).map_err(|e| SubmitError::Invalid(e.to_string()))?;
        let tenant = match opts.tenant.as_deref() {
            None | Some("") => DEFAULT_TENANT.to_owned(),
            Some(name) => {
                validate_tenant(name).map_err(SubmitError::Invalid)?;
                name.to_owned()
            }
        };
        if self.shared.draining.load(AtomicOrdering::SeqCst) {
            return Err(SubmitError::Draining);
        }
        let _ = FAULT_SUBMIT.fire().apply_basic();
        let metrics = &self.shared.metrics;
        metrics.jobs_submitted.inc();
        let tenant_metrics = metrics.tenant(&tenant);
        tenant_metrics.submitted.inc();
        let (admission, result) = self.admit(request, &opts, key, tenant);
        book(metrics, &tenant_metrics, admission);
        result
    }

    /// Decides one valid submission (see [`Scheduler::submit_opts`]) and
    /// names the ledger term it books. Returns with the table lock
    /// released.
    fn admit(
        &self,
        request: ExperimentRequest,
        opts: &SubmitOptions,
        key: JobKey,
        tenant: String,
    ) -> (Admission, Result<Submission, SubmitError>) {
        let lane = opts.lane;
        // Brownout admission: re-evaluate the controller against the
        // live signals, then shed by stage. Stage 3 refuses everything;
        // stage 1+ refuses the batch lane before any tier is consulted.
        let stage = evaluate_overload(&self.shared);
        if stage >= overload::STAGE_REJECT {
            return (Admission::ShedReject, Err(SubmitError::Overloaded(stage)));
        }
        if stage >= overload::STAGE_SHED_BATCH && lane == Lane::Batch {
            return (Admission::ShedBatch, Err(SubmitError::Overloaded(stage)));
        }

        // Tier 1/2: the cache. A hit satisfies any deadline.
        let mut hit = self.shared.cache.get(&key);
        if hit.is_none() {
            let _ = FAULT_PRE_TABLE_LOCK.fire().apply_basic();
        }
        // Everything below holds the table lock, so two identical
        // concurrent submissions cannot both decide to compute.
        let mut table = self.shared.table.lock().expect("job table poisoned");
        if hit.is_none() {
            if let Some(&id) = table.inflight.get(key.as_hex()) {
                let record = table.records.get_mut(&id).expect("in-flight job has a record");
                record.status.coalesced_submissions += 1;
                let status = record.status.clone();
                return (
                    Admission::Coalesced,
                    Ok(Submission { status, coalesced: true, cache_tier: None }),
                );
            }
            // The first cache lookup can race with completion: the
            // identical in-flight job may finish between that miss and
            // taking the table lock, leaving the key in neither
            // `inflight` nor (yet) this submission's view of the cache.
            // `run_job` publishes to the cache *before* deregistering
            // from `inflight`, so re-checking the cache under the table
            // lock is decisive — without it the loser of the race would
            // recompute a result it could have served.
            if BUG_SKIP_DOUBLE_CHECK.fire() != FaultAction::Trigger {
                hit = self.shared.cache.get(&key);
            }
        }
        // A cache hit, else the poison short-circuit: a quarantined key
        // (or one that crossed the threshold in a previous incarnation
        // and is pinned on this resubmission) never executes again. Both
        // land on a born-terminal record. The pin is checked under the
        // table lock, after coalescing, so a key's last in-flight attempt
        // and its pin cannot race.
        let answer = match hit {
            Some((hit, tier)) => Some((Admission::Hit(tier), Some(tier), Ok(hit.output))),
            None if self.shared.hardening.quarantine_threshold > 0 => table
                .quarantined
                .get(key.as_hex())
                .cloned()
                .or_else(|| pin_if_due(&mut table, &self.shared, key.as_hex()))
                .map(|error| (Admission::Quarantined, None, Err(error))),
            None => None,
        };
        if let Some((admission, cache_tier, result)) = answer {
            let status =
                insert_born_terminal(&mut table, &self.shared, key, request, tenant, opts, result);
            return (admission, Ok(Submission { status, coalesced: false, cache_tier }));
        }

        // Stage 2 (cached-only): everything above — hits, coalesces,
        // quarantine answers — still serves; a fresh compute does not.
        if stage >= overload::STAGE_CACHED_ONLY {
            return (Admission::ShedFresh, Err(SubmitError::Overloaded(stage)));
        }

        let id = table.next_id;
        table.next_id += 1;
        // Per-tenant admission: the queue quota rejects before any record
        // exists, so a rejected submission leaves no trace but counters.
        if let Err(quota) = table.qos.enqueue(&tenant, lane, id) {
            return (Admission::Refused, Err(SubmitError::QuotaExceeded(quota)));
        }
        let status = JobStatus {
            id,
            key: key.clone(),
            request,
            state: JobState::Queued,
            output: None,
            error: None,
            cached: false,
            coalesced_submissions: 0,
            tenant: tenant.clone(),
            lane,
        };
        let submitted_at = Instant::now();
        let mut deadline = submitted_at + self.job_timeout;
        if let FaultAction::SkewMillis(ms) = FAULT_DEADLINE.fire() {
            deadline = deadline.checked_sub(Duration::from_millis(ms)).unwrap_or_else(Instant::now);
        }
        let (client_deadline, client_deadline_unix_ms) =
            match (opts.deadline_ms, opts.deadline_unix_ms) {
                (Some(ms), _) => (
                    Some(submitted_at + Duration::from_millis(ms)),
                    Some(now_unix_ms().saturating_add(ms)),
                ),
                (None, Some(unix_ms)) => {
                    // Recovery: re-anchor the wall deadline on the monotonic
                    // clock; one already in the past expires at pickup.
                    let remaining = unix_ms.saturating_sub(now_unix_ms());
                    (Some(submitted_at + Duration::from_millis(remaining)), Some(unix_ms))
                }
                (None, None) => (None, None),
            };
        table.records.insert(
            id,
            Record {
                status: status.clone(),
                deadline,
                submitted_at,
                client_deadline,
                cancel: CancelToken::new(),
                budget: Arc::new(BudgetCell::new(self.shared.hardening.job_budget_bytes)),
            },
        );
        table.inflight.insert(key.as_hex().to_owned(), id);
        // The `queued` event goes out under the table lock, so it always
        // precedes the `running` transition published by the worker.
        publish_event(
            &self.shared,
            id,
            EventKind::State { state: JobState::Queued.name().to_owned() },
        );

        let shared = Arc::clone(&self.shared);
        if self.pool.try_submit(move || run_next(&shared)).is_err() {
            // Roll the record back; the submission never happened.
            table.records.remove(&id);
            table.inflight.remove(key.as_hex());
            table.qos.remove(&tenant, lane, id);
            self.shared.events.remove(id);
            return (Admission::Refused, Err(SubmitError::QueueFull));
        }
        // Write-ahead of the client's ack: the accepted job is durable
        // before `submit` returns. Appended under the table lock so the
        // journal's record order matches the scheduler's.
        if !opts.already_journaled {
            journal_append(
                &self.shared,
                &JournalRecord::submitted(key.as_hex(), &request, client_deadline_unix_ms)
                    .with_class(&tenant, lane),
            );
        }
        (Admission::Fresh, Ok(Submission { status, coalesced: false, cache_tier: None }))
    }

    /// Requests cancellation of job `id`, returning its post-cancel
    /// snapshot (`None` when no such job exists). Terminal jobs are
    /// untouched; queued jobs become [`JobState::Cancelled`] immediately;
    /// running jobs get their token cancelled and stop at the engine's
    /// next cancellation checkpoint (PathFinder iteration or Monte Carlo
    /// chunk boundary).
    pub fn cancel(&self, id: u64) -> Option<JobStatus> {
        let mut table = self.shared.table.lock().expect("job table poisoned");
        let record = table.records.get_mut(&id)?;
        if record.status.state.is_terminal() {
            return Some(record.status.clone());
        }
        record.cancel.cancel();
        if record.status.state == JobState::Running {
            return Some(record.status.clone());
        }
        // Queued: cancel in place — the worker's pickup sees a terminal
        // record and returns without running anything. Release the
        // tenant's queue slot first. The job may already have been
        // dequeued (its worker will see the terminal record and back
        // off), in which case the remove is a no-op.
        let (tenant, lane) = (record.status.tenant.clone(), record.status.lane);
        table.qos.remove(&tenant, lane, id);
        settle(&mut table, &self.shared, id, JobState::Cancelled, Err("cancelled".to_owned()));
        table.records.get(&id).map(|r| r.status.clone())
    }

    /// Enters drain mode: every subsequent submission fails with
    /// [`SubmitError::Draining`]. Jobs already accepted keep running.
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, AtomicOrdering::SeqCst);
    }

    /// Whether [`Scheduler::begin_drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(AtomicOrdering::SeqCst)
    }

    /// Blocks until no job is in flight (queued or running) or `timeout`
    /// elapses; true means quiesced.
    pub fn await_quiesce(&self, timeout: Duration) -> bool {
        self.wait_until(timeout, |table| table.inflight.is_empty()).inflight.is_empty()
    }

    /// Blocks on `job_done` until `ready` holds or `timeout` elapses,
    /// returning the table lock either way.
    fn wait_until(
        &self,
        timeout: Duration,
        ready: impl Fn(&Table) -> bool,
    ) -> MutexGuard<'_, Table> {
        let deadline = Instant::now() + timeout;
        let mut table = self.shared.table.lock().expect("job table poisoned");
        while !ready(&table) {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            table = self
                .shared
                .job_done
                .wait_timeout(table, deadline - now)
                .expect("job table poisoned")
                .0;
        }
        table
    }

    /// Cancels every non-terminal job (the drain's force phase). During
    /// a drain the cancelled jobs' journal records stay open, so a
    /// restart resumes them. Returns how many jobs were asked to stop.
    pub fn cancel_all(&self) -> usize {
        let ids: Vec<u64> = {
            let table = self.shared.table.lock().expect("job table poisoned");
            table
                .records
                .iter()
                .filter(|(_, r)| !r.status.state.is_terminal())
                .map(|(&id, _)| id)
                .collect()
        };
        for &id in &ids {
            self.cancel(id);
        }
        ids.len()
    }

    /// Snapshot of one job, if its record still exists.
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        let table = self.shared.table.lock().expect("job table poisoned");
        table.records.get(&id).map(|r| r.status.clone())
    }

    /// Filtered, stably-ordered page of job snapshots (`GET /v1/jobs`).
    ///
    /// Jobs sort by ascending id — ids are monotonic, so this is
    /// submission order and stable across calls. `after` is the
    /// exclusive lower bound (decoded from the wire cursor); the
    /// returned cursor is the last id of a full page, `None` once the
    /// listing is exhausted. Records evicted between pages simply drop
    /// out; ids never reorder.
    pub fn list_jobs(
        &self,
        tenant: Option<&str>,
        state: Option<JobState>,
        after: Option<u64>,
        limit: usize,
    ) -> (Vec<JobStatus>, Option<u64>) {
        let table = self.shared.table.lock().expect("job table poisoned");
        let floor = after.map_or(0, |a| a.saturating_add(1));
        let mut ids: Vec<u64> = table
            .records
            .iter()
            .filter(|(id, r)| {
                **id >= floor
                    && tenant.is_none_or(|t| r.status.tenant == t)
                    && state.is_none_or(|s| r.status.state == s)
            })
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        let has_more = ids.len() > limit;
        ids.truncate(limit);
        let next = if has_more { ids.last().copied() } else { None };
        let page = ids.iter().map(|id| table.records[id].status.clone()).collect();
        (page, next)
    }

    /// Blocks until job `id` reaches a terminal state or `max_wait`
    /// elapses, returning the final snapshot either way.
    pub fn wait_for(&self, id: u64, max_wait: Duration) -> Option<JobStatus> {
        let table = self.wait_until(max_wait, |table| {
            table.records.get(&id).is_none_or(|r| r.status.state.is_terminal())
        });
        table.records.get(&id).map(|r| r.status.clone())
    }

    /// Jobs waiting in the queue right now (accepted, not yet picked by
    /// a worker) — the fair queue's count, which stays exact even when a
    /// worker repays lost ticks by looping in place.
    pub fn queue_depth(&self) -> usize {
        self.shared.table.lock().expect("job table poisoned").qos.queued_len()
    }

    /// Per-tenant fair-share accounting (queue depths, inflight counts,
    /// high-water marks, dequeue/rejection totals).
    pub fn tenant_stats(&self) -> Vec<TenantStats> {
        self.shared.table.lock().expect("job table poisoned").qos.tenant_stats()
    }

    /// The progress event channel for job `id`, if its record is still
    /// alive. Subscribers poll it with a cursor ([`JobChannel::next_after`]).
    pub fn event_channel(&self, id: u64) -> Option<Arc<JobChannel>> {
        self.shared.events.channel(id)
    }

    /// Keys registered as in-flight (queued or running) right now.
    ///
    /// Invariant the chaos suite leans on: once every submitted job has
    /// reached a terminal state, this must be zero — a non-empty
    /// in-flight table at quiescence means wedged entries that would
    /// coalesce future submissions onto a job that will never finish.
    pub fn inflight_len(&self) -> usize {
        self.shared.table.lock().expect("job table poisoned").inflight.len()
    }

    /// Direct cache access for `GET /results/:key` (does not touch the
    /// hit/miss counters — only submissions are sampled for the ratio).
    pub fn cached_result(&self, key: &JobKey) -> Option<CachedResult> {
        self.shared.cache.get(key).map(|(v, _)| v)
    }

    /// The configured per-job deadline.
    pub fn job_timeout(&self) -> Duration {
        self.job_timeout
    }

    /// A shared handle on the result cache. The cluster layer uses this
    /// to admit peer-fetched entries and to answer digest/entry-frame
    /// requests against the same store the scheduler serves from.
    pub fn cache_handle(&self) -> Arc<ResultCache> {
        Arc::clone(&self.shared.cache)
    }

    /// Seeds the quarantine state from a journal recovery report so
    /// attempt counts and pins survive restarts. Call before replaying
    /// pending jobs — a replayed poison job must short-circuit.
    pub fn preload_hardening(
        &self,
        attempts: &[(String, u32, String)],
        quarantined: &[(String, String)],
    ) {
        let mut table = self.shared.table.lock().expect("job table poisoned");
        for (key, count, reason) in attempts {
            table.attempts.insert(key.clone(), (*count, reason.clone()));
        }
        for (key, error) in quarantined {
            table.quarantined.insert(key.clone(), error.clone());
        }
    }

    /// The structured error for a quarantined key, if it is pinned
    /// (`GET /v1/results/:key` serves this as `503 quarantined`).
    pub fn quarantine_error(&self, key: &JobKey) -> Option<String> {
        self.shared.table.lock().expect("job table poisoned").quarantined.get(key.as_hex()).cloned()
    }

    /// Keys currently pinned as poison.
    pub fn quarantined_len(&self) -> usize {
        self.shared.table.lock().expect("job table poisoned").quarantined.len()
    }

    /// The brownout controller's current stage (0 normal … 3 reject).
    pub fn overload_stage(&self) -> u8 {
        self.shared.overload.stage()
    }
}

/// The structured error a quarantined key serves forever after.
fn quarantine_message(attempts: u32, last_reason: &str) -> String {
    format!("quarantined after {attempts} failed attempts; last failure: {last_reason}")
}

/// The admission-ledger term one valid submission books: exactly one
/// per submission, so `jobs_submitted` always equals
/// [`Metrics::admission_ledger`] once every submission has returned.
#[derive(Debug, Clone, Copy)]
enum Admission {
    Hit(CacheTier),
    Coalesced,
    Fresh,
    Quarantined,
    ShedBatch,
    ShedFresh,
    ShedReject,
    /// A miss the queue refused, over the tenant quota or with the queue
    /// full: it never gets a record.
    Refused,
}

/// Books `admission`: its ledger term, the tenant's matching counter,
/// and its `scheduler.outcome.*` probe. Runs after the table lock is
/// released, so a probe may block.
fn book(m: &Metrics, t: &TenantMetrics, admission: Admission) {
    let (term, tenant_term, probe) = match admission {
        Admission::Hit(CacheTier::Memory) => {
            (&m.cache_hits_memory, Some(&t.cache_hits), &OUTCOME_CACHED)
        }
        Admission::Hit(CacheTier::Disk) => {
            (&m.cache_hits_disk, Some(&t.cache_hits), &OUTCOME_CACHED)
        }
        Admission::Coalesced => (&m.coalesced, Some(&t.coalesced), &OUTCOME_COALESCED),
        // The tenant books a fresh job when it settles.
        Admission::Fresh => (&m.cache_misses, None, &OUTCOME_FRESH),
        Admission::Quarantined => (&m.quarantine_hits, Some(&t.errored), &OUTCOME_QUARANTINED),
        Admission::ShedBatch => (&m.overload_shed_batch, Some(&t.rejected), &OUTCOME_REJECTED),
        Admission::ShedFresh => (&m.overload_shed_fresh, Some(&t.rejected), &OUTCOME_REJECTED),
        Admission::ShedReject => (&m.overload_shed_reject, Some(&t.rejected), &OUTCOME_REJECTED),
        Admission::Refused => {
            m.jobs_rejected.inc();
            (&m.cache_misses, Some(&t.rejected), &OUTCOME_REJECTED)
        }
    };
    term.inc();
    if let Some(counter) = tenant_term {
        counter.inc();
    }
    let _ = probe.fire().apply_basic();
}

/// Re-evaluates the brownout controller against the live signals (queue
/// waits already sampled; running-job memory summed here) and exports
/// any transition. Returns the current stage. Takes the table lock
/// briefly; callers must not hold it.
fn evaluate_overload(shared: &Shared) -> u8 {
    if !shared.overload.enabled() {
        return overload::STAGE_NORMAL;
    }
    let memory: usize = {
        let table = shared.table.lock().expect("job table poisoned");
        table
            .inflight
            .values()
            .filter_map(|id| table.records.get(id))
            .map(|r| r.budget.current_bytes())
            .sum()
    };
    let (old, new) = shared.overload.evaluate(memory);
    if old != new {
        shared.metrics.overload_transitions.inc();
        shared.metrics.overload_stage.set(u64::from(new));
    }
    new
}

/// Moves `id` into the finished ring, evicting the oldest record (and
/// its event channel) beyond the cap. Caller holds the table lock.
fn finish_bookkeeping(table: &mut Table, shared: &Shared, id: u64) {
    table.finished_order.push_back(id);
    while table.finished_order.len() > MAX_FINISHED_JOBS {
        if let Some(old) = table.finished_order.pop_front() {
            table.records.remove(&old);
            shared.events.remove(old);
        }
    }
}

/// Inserts a record that is terminal from birth: a cache answer
/// (`Ok(output)`, state `done`) or a quarantine short-circuit
/// (`Err(error)`, state `quarantined`). Its event stream is the single
/// terminal frame, so subscribers finish at once. A recovery replay
/// (`already_journaled`) also closes its journaled submission out, so
/// it is not replayed again. Caller holds the table lock.
fn insert_born_terminal(
    table: &mut Table,
    shared: &Shared,
    key: JobKey,
    request: ExperimentRequest,
    tenant: String,
    opts: &SubmitOptions,
    result: Result<String, String>,
) -> JobStatus {
    let state = if result.is_ok() { JobState::Done } else { JobState::Quarantined };
    if opts.already_journaled {
        journal_append(
            shared,
            &JournalRecord::Done { key: key.as_hex().to_owned(), state: state.name().to_owned() },
        );
    }
    let id = table.next_id;
    table.next_id += 1;
    let (output, error) = match result {
        Ok(output) => (Some(output), None),
        Err(error) => (None, Some(error)),
    };
    let status = JobStatus {
        id,
        key,
        request,
        state,
        output,
        error,
        cached: state == JobState::Done,
        coalesced_submissions: 0,
        tenant,
        lane: opts.lane,
    };
    let now = Instant::now();
    table.records.insert(
        id,
        Record {
            status: status.clone(),
            deadline: now,
            submitted_at: now,
            client_deadline: None,
            cancel: CancelToken::new(),
            budget: Arc::new(BudgetCell::new(0)),
        },
    );
    publish_terminal(shared, id, state);
    finish_bookkeeping(table, shared, id);
    status
}

/// The one terminal transition: moves queued or running job `id` to
/// terminal `state`, with `result` as its output (`Ok`) or error
/// (`Err`). Books the state's counter, the tenant's `completed` or
/// `errored`, and the submit→terminal latency; frees the key's in-flight
/// entry; publishes the terminal event; and journals `done{state}` —
/// except for a cancel during a drain, whose record stays open so the
/// restarted service resumes the job. Caller holds the table lock.
fn settle(
    table: &mut Table,
    shared: &Shared,
    id: u64,
    state: JobState,
    result: Result<String, String>,
) {
    let metrics = &shared.metrics;
    let record = table.records.get_mut(&id).expect("a queued or running job keeps its record");
    record.status.state = state;
    match result {
        Ok(output) => record.status.output = Some(output),
        Err(error) => record.status.error = Some(error),
    }
    match state {
        JobState::Done => metrics.jobs_completed.inc(),
        JobState::Failed => metrics.jobs_failed.inc(),
        JobState::TimedOut => metrics.jobs_timed_out.inc(),
        JobState::Expired => metrics.jobs_expired.inc(),
        JobState::Cancelled => metrics.jobs_cancelled.inc(),
        // Counted once, as `jobs_quarantined`, when the key was pinned.
        JobState::Quarantined => {}
        JobState::Queued | JobState::Running => unreachable!("settle takes a terminal state"),
    }
    let tenant_metrics = metrics.tenant(&record.status.tenant);
    if state == JobState::Done {
        tenant_metrics.completed.inc();
    } else {
        tenant_metrics.errored.inc();
    }
    let latency = record.submitted_at.elapsed();
    metrics.job_latency_us.record_duration(latency);
    tenant_metrics.latency_us.record_duration(latency);
    let key_hex = record.status.key.as_hex().to_owned();
    if BUG_LEAK_INFLIGHT.fire() != FaultAction::Trigger {
        table.inflight.remove(&key_hex);
    }
    publish_terminal(shared, id, state);
    finish_bookkeeping(table, shared, id);
    if !(state == JobState::Cancelled && shared.draining.load(AtomicOrdering::SeqCst)) {
        journal_append(
            shared,
            &JournalRecord::Done { key: key_hex, state: state.name().to_owned() },
        );
    }
    shared.job_done.notify_all();
}

/// Pins `key` as poison once its abnormal-failure tally has reached the
/// quarantine threshold, journaling the pin. Returns the structured
/// error it now serves, or `None` while the key is below the threshold.
/// Caller holds the table lock.
fn pin_if_due(table: &mut Table, shared: &Shared, key: &str) -> Option<String> {
    let threshold = shared.hardening.quarantine_threshold;
    let (count, reason) =
        table.attempts.get(key).filter(|(count, _)| threshold > 0 && *count >= threshold)?;
    let error = quarantine_message(*count, reason);
    table.attempts.remove(key);
    table.quarantined.insert(key.to_owned(), error.clone());
    shared.metrics.jobs_quarantined.inc();
    journal_append(
        shared,
        &JournalRecord::Quarantined { key: key.to_owned(), error: error.clone() },
    );
    Some(error)
}

/// One worker-pool tick. Ticks are submitted 1:1 with accepted jobs but
/// are *not* bound to a specific job — the fair queue decides what each
/// tick runs. A tick that finds nothing eligible (every backlogged
/// tenant at its inflight cap, or the queue momentarily empty after a
/// cancel) records itself in `lost_ticks`; a finishing job repays one
/// lost tick by looping in place whenever eligible work exists, so
/// capped work is always revived without spawning anything.
fn run_next(shared: &Arc<Shared>) {
    loop {
        let dequeued = {
            let mut table = shared.table.lock().expect("job table poisoned");
            match table.qos.dequeue() {
                Some(d) => d,
                None => {
                    table.lost_ticks += 1;
                    return;
                }
            }
        };
        run_job(shared, dequeued.job);
        let mut table = shared.table.lock().expect("job table poisoned");
        table.qos.finish(&dequeued.tenant);
        if table.lost_ticks > 0 && table.qos.has_eligible() {
            table.lost_ticks -= 1;
            continue;
        }
        return;
    }
}

/// Worker-side execution of job `id`.
fn run_job(shared: &Arc<Shared>, id: u64) {
    let (request, key, submitted_at, cancel, budget) = {
        let mut table = shared.table.lock().expect("job table poisoned");
        let Some(record) = table.records.get_mut(&id) else { return };
        if record.status.state.is_terminal() {
            // Cancelled while still queued; the cancel path already did
            // the bookkeeping and (maybe) journaled.
            return;
        }
        let now = Instant::now();
        let dropped = if now > record.deadline {
            Some((JobState::TimedOut, "timed out waiting in queue"))
        } else if record.client_deadline.is_some_and(|d| now > d) {
            // Deadline shedding: if the client's deadline already passed,
            // executing could only produce an answer nobody is waiting for.
            Some((JobState::Expired, "deadline_ms exceeded before execution"))
        } else {
            None
        };
        if let Some((state, error)) = dropped {
            settle(&mut table, shared, id, state, Err(error.to_owned()));
            return;
        }
        record.status.state = JobState::Running;
        publish_event(shared, id, EventKind::State { state: JobState::Running.name().to_owned() });
        journal_append(
            shared,
            &JournalRecord::Started { key: record.status.key.as_hex().to_owned() },
        );
        (
            record.status.request,
            record.status.key.clone(),
            record.submitted_at,
            record.cancel.clone(),
            Arc::clone(&record.budget),
        )
    };
    // Running jobs are not preempted by the queue deadline (see module
    // docs); they *are* stopped cooperatively via the cancel token.
    let queue_wait = submitted_at.elapsed();
    shared.metrics.job_queue_wait_us.record_duration(queue_wait);
    // Every pickup feeds the brownout controller a queue-wait sample and
    // re-evaluates it — this is what drains the stages back down once
    // the backlog clears.
    if shared.overload.enabled() {
        shared.overload.record_wait(queue_wait.as_millis() as u64);
        evaluate_overload(shared);
    }

    // Non-cooperative supervision: the watchdog observes this job's
    // heartbeat (fed by every cancel checkpoint and progress tick) and
    // its budget cell, and cancels the token when either trips.
    let watch = shared
        .watchdog
        .as_ref()
        .map(|dog| dog.watch(shared.watchdog_quiet, cancel.clone(), Arc::clone(&budget)));

    let started = Instant::now();
    let executor = Arc::clone(&shared.executor);
    let mut exec_span = nemfpga_obs::span("service", "job.execute");
    exec_span.set_arg("job", id);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // The executor runs with this job's cancel token current, so
        // engine-level checkpoints (PathFinder iterations, Monte Carlo
        // chunks) can abort it mid-computation.
        let _guard = cancel::enter(cancel.clone());
        // Its allocations are accounted against the job's budget cell,
        // and every checkpoint doubles as a watchdog heartbeat.
        let _budget_guard = budget::enter(Arc::clone(&budget));
        let _beat_guard = watch.as_ref().map(|w| watchdog::enter(w.heartbeat()));
        // And with this job's event channel as the progress sink, so
        // engine announcements (flow stages, router iteration ticks)
        // stream out to subscribers while the job runs.
        let sink_shared = Arc::clone(shared);
        let _progress =
            nemfpga_obs::progress::install(Arc::new(move |event: &nemfpga_obs::ProgressEvent| {
                // A progress tick is proof of life even between cancel
                // checkpoints.
                watchdog::beat();
                let kind = match event {
                    nemfpga_obs::ProgressEvent::Stage { name } => {
                        EventKind::Stage { stage: (*name).to_owned() }
                    }
                    nemfpga_obs::ProgressEvent::Tick { name, value } => {
                        EventKind::Tick { tick: (*name).to_owned(), value: *value }
                    }
                };
                publish_event(&sink_shared, id, kind);
            }));
        // Injected executor faults land inside the panic guard, so a
        // `Panic` action takes the same road a real executor panic would.
        match FAULT_EXECUTE.fire().apply_basic() {
            FaultAction::Err(msg) => Err(msg),
            _ => executor(&request),
        }
    }));
    // Post-unwind classification. A cancel-payload unwind is only a user
    // cancellation when the watchdog did NOT fire — the watchdog kills
    // jobs *through* the cancel token, and those must be booked as
    // abnormal failures (they feed the quarantine tally), never as
    // cancellations.
    let fired = watch.as_ref().and_then(|w| w.fired());
    let budget_error = |peak: usize, limit: usize| {
        format!("budget exceeded: peak {peak} bytes over {limit}-byte limit")
    };
    let (outcome, abnormal) = match caught {
        Ok(result) => (result, false),
        Err(panic) => {
            if let Some(breach) = panic.downcast_ref::<budget::BudgetPanic>() {
                shared.metrics.budget_breached.inc();
                (Err(budget_error(breach.peak_bytes, breach.limit_bytes)), true)
            } else if cancel::is_cancel_payload(panic.as_ref()) {
                match fired {
                    Some(WatchdogFired::Stalled) => {
                        shared.metrics.watchdog_fired.inc();
                        let quiet_ms = shared.watchdog_quiet.as_millis();
                        (Err(format!("watchdog: no progress within {quiet_ms} ms")), true)
                    }
                    Some(WatchdogFired::BudgetBreached) => {
                        shared.metrics.budget_breached.inc();
                        (Err(budget_error(budget.peak_bytes(), budget.limit())), true)
                    }
                    None => (Err("cancelled".to_owned()), false),
                }
            } else {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic".to_owned());
                (Err(format!("executor panicked: {msg}")), true)
            }
        }
    };
    drop(watch);
    drop(exec_span);
    let elapsed = started.elapsed();
    shared.metrics.job_exec_us.record_duration(elapsed);
    shared.metrics.job_peak_bytes.record(budget.peak_bytes() as u64);

    if let Ok(output) = &outcome {
        // Cache before publishing the state so a waiter that sees `Done`
        // can always fetch `/results/:key`.
        shared.cache.put(
            &key,
            CachedResult {
                experiment: request.experiment.name().to_owned(),
                output: output.clone(),
            },
        );
    }

    // A completed computation counts as Done even if a cancel raced in —
    // the result is valid and cached. An error with the token cancelled
    // is a cancellation *only* when the unwind was not abnormal — the
    // watchdog kills jobs through that same token.
    let (mut state, mut result) = match outcome {
        Ok(output) => (JobState::Done, Ok(output)),
        Err(_) if !abnormal && cancel.is_cancelled() => {
            (JobState::Cancelled, Err("cancelled".to_owned()))
        }
        Err(error) => (JobState::Failed, Err(error)),
    };

    let mut table = shared.table.lock().expect("job table poisoned");
    // Poison accounting. A success clears the key's tally (it is
    // provably not poison); an abnormal failure — panic, watchdog kill,
    // budget breach — journals an `attempt` and, at the threshold, pins
    // the key so it never executes again.
    if state == JobState::Done {
        // The trailing `Done{done}` journal record also clears the key's
        // durable attempt tally on replay.
        table.attempts.remove(key.as_hex());
    } else if abnormal && shared.hardening.quarantine_threshold > 0 {
        let reason = result.as_ref().expect_err("an abnormal end is a failure").clone();
        let entry = table.attempts.entry(key.as_hex().to_owned()).or_insert((0, String::new()));
        entry.0 += 1;
        entry.1 = reason.clone();
        let attempt = entry.0;
        journal_append(
            shared,
            &JournalRecord::Attempt { key: key.as_hex().to_owned(), attempt, reason },
        );
        if let Some(error) = pin_if_due(&mut table, shared, key.as_hex()) {
            state = JobState::Quarantined;
            result = Err(error);
        }
    }
    settle(&mut table, shared, id, state, result);
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemfpga::request::ExperimentKind;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn counting_executor(delay: Duration) -> (Executor, Arc<AtomicUsize>) {
        let count = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&count);
        let exec: Executor = Arc::new(move |req: &ExperimentRequest| {
            std::thread::sleep(delay);
            c.fetch_add(1, Ordering::SeqCst);
            Ok(format!("output for {} seed {}\n", req.experiment, req.seed))
        });
        (exec, count)
    }

    fn scheduler(executor: Executor, cfg: &SchedulerConfig) -> Scheduler {
        Scheduler::new(cfg, ResultCache::new(64, None), Arc::new(Metrics::default()), executor)
    }

    fn request(seed: u64) -> ExperimentRequest {
        ExperimentRequest { seed, ..ExperimentRequest::new(ExperimentKind::Fig4) }
    }

    #[test]
    fn executes_and_caches() {
        let (exec, count) = counting_executor(Duration::ZERO);
        let s = scheduler(exec, &SchedulerConfig::default());
        let sub = s.submit(request(1)).unwrap();
        assert!(!sub.coalesced);
        let done = s.wait_for(sub.status.id, Duration::from_secs(30)).unwrap();
        assert_eq!(done.state, JobState::Done);
        assert_eq!(done.output.as_deref(), Some("output for fig4 seed 1\n"));
        // Second submission: cache hit, no second computation.
        let again = s.submit(request(1)).unwrap();
        assert_eq!(again.cache_tier, Some(CacheTier::Memory));
        assert_eq!(again.status.output.as_deref(), Some("output for fig4 seed 1\n"));
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_identical_submissions_coalesce_to_one_compute() {
        let (exec, count) = counting_executor(Duration::from_millis(200));
        let s = Arc::new(scheduler(exec, &SchedulerConfig::default()));
        let ids: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let s = Arc::clone(&s);
                    scope.spawn(move || s.submit(request(2)).unwrap().status.id)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // All submissions landed on the same job.
        assert!(ids.windows(2).all(|w| w[0] == w[1]), "ids: {ids:?}");
        let done = s.wait_for(ids[0], Duration::from_secs(30)).unwrap();
        assert_eq!(done.state, JobState::Done);
        assert_eq!(done.coalesced_submissions, 7);
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn distinct_requests_do_not_coalesce() {
        let (exec, count) = counting_executor(Duration::ZERO);
        let s = scheduler(exec, &SchedulerConfig::default());
        let a = s.submit(request(10)).unwrap();
        let b = s.submit(request(11)).unwrap();
        assert_ne!(a.status.key, b.status.key);
        for sub in [a, b] {
            assert_eq!(
                s.wait_for(sub.status.id, Duration::from_secs(30)).unwrap().state,
                JobState::Done
            );
        }
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn invalid_requests_are_rejected_up_front() {
        let (exec, count) = counting_executor(Duration::ZERO);
        let s = scheduler(exec, &SchedulerConfig::default());
        let mut bad = request(1);
        bad.scale = f64::NAN;
        assert!(matches!(s.submit(bad), Err(SubmitError::Invalid(_))));
        assert_eq!(count.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn full_queue_rejects_with_queue_full() {
        let (exec, _) = counting_executor(Duration::from_millis(300));
        let cfg = SchedulerConfig {
            parallel: ParallelConfig::with_threads(1),
            queue_capacity: 1,
            ..SchedulerConfig::default()
        };
        let s = scheduler(exec, &cfg);
        // First fills the worker, second fills the queue; the rest of the
        // distinct submissions must bounce.
        let mut rejected = 0;
        for seed in 0..8 {
            if matches!(s.submit(request(100 + seed)), Err(SubmitError::QueueFull)) {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "expected at least one QueueFull");
    }

    #[test]
    fn queued_jobs_past_deadline_time_out_without_running() {
        let (exec, count) = counting_executor(Duration::from_millis(250));
        let cfg = SchedulerConfig {
            parallel: ParallelConfig::with_threads(1),
            queue_capacity: 4,
            job_timeout: Duration::from_millis(100),
            ..SchedulerConfig::default()
        };
        let s = scheduler(exec, &cfg);
        let first = s.submit(request(20)).unwrap();
        let second = s.submit(request(21)).unwrap();
        let done = s.wait_for(second.status.id, Duration::from_secs(30)).unwrap();
        assert_eq!(done.state, JobState::TimedOut, "queued past its 100ms deadline");
        assert_eq!(
            s.wait_for(first.status.id, Duration::from_secs(30)).unwrap().state,
            JobState::Done
        );
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn executor_panic_becomes_failed_job() {
        let exec: Executor = Arc::new(|_| panic!("boom"));
        let s = scheduler(exec, &SchedulerConfig::default());
        let sub = s.submit(request(30)).unwrap();
        let done = s.wait_for(sub.status.id, Duration::from_secs(30)).unwrap();
        assert_eq!(done.state, JobState::Failed);
        assert!(done.error.unwrap().contains("boom"));
        // The scheduler survives: the next job still runs.
        let sub2 = s.submit(request(31)).unwrap();
        assert_eq!(sub2.status.state, JobState::Queued);
    }

    #[test]
    fn queued_jobs_past_client_deadline_are_shed_as_expired() {
        let (exec, count) = counting_executor(Duration::from_millis(250));
        let cfg = SchedulerConfig {
            parallel: ParallelConfig::with_threads(1),
            queue_capacity: 4,
            ..SchedulerConfig::default()
        };
        let s = scheduler(exec, &cfg);
        let first = s.submit(request(40)).unwrap();
        // The second job's 50ms deadline passes while the first hogs the
        // single worker; it must be shed, never computed.
        let second = s
            .submit_opts(
                request(41),
                SubmitOptions { deadline_ms: Some(50), ..SubmitOptions::default() },
            )
            .unwrap();
        let done = s.wait_for(second.status.id, Duration::from_secs(30)).unwrap();
        assert_eq!(done.state, JobState::Expired);
        assert!(done.error.unwrap().contains("deadline_ms"));
        assert_eq!(
            s.wait_for(first.status.id, Duration::from_secs(30)).unwrap().state,
            JobState::Done
        );
        assert_eq!(count.load(Ordering::SeqCst), 1, "expired job must not execute");
    }

    #[test]
    fn cancel_of_a_queued_job_is_immediate_and_skips_execution() {
        let (exec, count) = counting_executor(Duration::from_millis(250));
        let cfg = SchedulerConfig {
            parallel: ParallelConfig::with_threads(1),
            queue_capacity: 4,
            ..SchedulerConfig::default()
        };
        let s = scheduler(exec, &cfg);
        let first = s.submit(request(50)).unwrap();
        let second = s.submit(request(51)).unwrap();
        let snapshot = s.cancel(second.status.id).expect("job exists");
        assert_eq!(snapshot.state, JobState::Cancelled);
        assert_eq!(
            s.wait_for(first.status.id, Duration::from_secs(30)).unwrap().state,
            JobState::Done
        );
        assert_eq!(count.load(Ordering::SeqCst), 1, "cancelled job must not execute");
        assert_eq!(s.inflight_len(), 0, "cancelled entry must leave the in-flight table");
        // Cancelling a terminal job is a no-op returning the snapshot.
        assert_eq!(s.cancel(second.status.id).unwrap().state, JobState::Cancelled);
        assert!(s.cancel(999_999).is_none());
    }

    #[test]
    fn cancel_of_a_running_job_stops_it_at_a_checkpoint() {
        nemfpga_runtime::cancel::silence_cancel_panics();
        let exec: Executor = Arc::new(|_| {
            // A long computation with per-iteration checkpoints, like
            // the PathFinder negotiation loop.
            for _ in 0..1000 {
                cancel::checkpoint();
                std::thread::sleep(Duration::from_millis(5));
            }
            Ok("finished uninterrupted".to_owned())
        });
        let s = scheduler(exec, &SchedulerConfig::default());
        let sub = s.submit(request(60)).unwrap();
        // Wait until it is actually running, then cancel.
        for _ in 0..200 {
            if s.status(sub.status.id).unwrap().state == JobState::Running {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        s.cancel(sub.status.id);
        let done = s.wait_for(sub.status.id, Duration::from_secs(30)).unwrap();
        assert_eq!(done.state, JobState::Cancelled);
        assert_eq!(done.error.as_deref(), Some("cancelled"));
        assert!(done.output.is_none());
    }

    #[test]
    fn draining_refuses_new_submissions_and_quiesces() {
        let (exec, _) = counting_executor(Duration::from_millis(50));
        let s = scheduler(exec, &SchedulerConfig::default());
        let accepted = s.submit(request(70)).unwrap();
        s.begin_drain();
        assert!(matches!(s.submit(request(71)), Err(SubmitError::Draining)));
        assert!(s.await_quiesce(Duration::from_secs(30)), "accepted job finishes the drain");
        assert_eq!(
            s.wait_for(accepted.status.id, Duration::from_secs(1)).unwrap().state,
            JobState::Done
        );
    }

    #[test]
    fn jobs_carry_tenant_and_lane_tags() {
        let (exec, _) = counting_executor(Duration::ZERO);
        let s = scheduler(exec, &SchedulerConfig::default());
        let default = s.submit(request(200)).unwrap();
        assert_eq!(default.status.tenant, DEFAULT_TENANT);
        assert_eq!(default.status.lane, Lane::Interactive);
        let tagged = s
            .submit_opts(
                request(201),
                SubmitOptions {
                    tenant: Some("acme".to_owned()),
                    lane: Lane::Batch,
                    ..SubmitOptions::default()
                },
            )
            .unwrap();
        assert_eq!(tagged.status.tenant, "acme");
        assert_eq!(tagged.status.lane, Lane::Batch);
        let done = s.wait_for(tagged.status.id, Duration::from_secs(30)).unwrap();
        assert_eq!(done.tenant, "acme");
        // Bad tenant names are rejected before any accounting.
        let err = s
            .submit_opts(
                request(202),
                SubmitOptions {
                    tenant: Some("Bad Tenant!".to_owned()),
                    ..SubmitOptions::default()
                },
            )
            .expect_err("invalid tenant name");
        assert!(matches!(err, SubmitError::Invalid(_)));
    }

    #[test]
    fn tenant_queue_quota_rejects_with_quota_exceeded() {
        let (exec, _) = counting_executor(Duration::from_millis(300));
        let cfg = SchedulerConfig {
            parallel: ParallelConfig::with_threads(1),
            queue_capacity: 16,
            qos: QosPolicy { max_queued: 1, ..QosPolicy::default() },
            ..SchedulerConfig::default()
        };
        let s = scheduler(exec, &cfg);
        let opts = |tenant: &str| SubmitOptions {
            tenant: Some(tenant.to_owned()),
            ..SubmitOptions::default()
        };
        // First occupies the single worker (dequeued ≠ queued), second
        // waits, third exceeds tenant `a`'s quota of one *waiting* job.
        let first = s.submit_opts(request(210), opts("a")).unwrap();
        let mut rejected = None;
        for seed in 211..216 {
            match s.submit_opts(request(seed), opts("a")) {
                Ok(_) => {}
                Err(SubmitError::QuotaExceeded(q)) => {
                    rejected = Some(q);
                    break;
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        let quota = rejected.expect("tenant quota must trip");
        assert_eq!(quota.tenant, "a");
        assert_eq!(quota.limit, 1);
        // A different tenant still gets in: the quota is scoped.
        s.submit_opts(request(220), opts("b")).expect("tenant b under its own quota");
        assert_eq!(
            s.wait_for(first.status.id, Duration::from_secs(30)).unwrap().state,
            JobState::Done
        );
    }

    #[test]
    fn inflight_cap_blocks_dispatch_until_a_job_finishes() {
        let (exec, _) = counting_executor(Duration::from_millis(50));
        let cfg = SchedulerConfig {
            parallel: ParallelConfig::with_threads(4),
            queue_capacity: 16,
            qos: QosPolicy { max_inflight: 1, ..QosPolicy::default() },
            ..SchedulerConfig::default()
        };
        let s = scheduler(exec, &cfg);
        let subs: Vec<_> = (0..4).map(|i| s.submit(request(230 + i)).unwrap()).collect();
        // All four finish despite 4 workers being throttled to one
        // concurrent job: finishing jobs repay the lost ticks.
        for sub in subs {
            assert_eq!(
                s.wait_for(sub.status.id, Duration::from_secs(30)).unwrap().state,
                JobState::Done
            );
        }
        let stats = s.tenant_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].peak_inflight, 1, "inflight cap must never be exceeded");
        assert_eq!(stats[0].dequeued, 4);
    }

    #[test]
    fn event_stream_records_the_job_lifecycle() {
        let (exec, _) = counting_executor(Duration::ZERO);
        let s = scheduler(exec, &SchedulerConfig::default());
        let sub = s.submit(request(240)).unwrap();
        let done = s.wait_for(sub.status.id, Duration::from_secs(30)).unwrap();
        assert_eq!(done.state, JobState::Done);
        let channel = s.event_channel(sub.status.id).expect("live record has a channel");
        let mut states = Vec::new();
        let mut cursor = 0;
        loop {
            match channel.next_after(cursor, Duration::from_secs(5)) {
                crate::events::Poll::Event(event) => {
                    cursor = event.seq;
                    if let EventKind::State { state } = event.kind {
                        states.push(state);
                    }
                }
                crate::events::Poll::Closed => break,
                crate::events::Poll::Timeout => panic!("terminal job stream must close"),
            }
        }
        assert_eq!(states, vec!["queued", "running", "done"]);
        // A cached answer's stream is a single terminal frame.
        let cached = s.submit(request(240)).unwrap();
        assert_eq!(cached.cache_tier, Some(CacheTier::Memory));
        let channel = s.event_channel(cached.status.id).expect("cached record has a channel");
        let crate::events::Poll::Event(event) = channel.next_after(0, Duration::from_secs(5))
        else {
            panic!("expected the done event")
        };
        assert_eq!(event.kind, EventKind::State { state: "done".to_owned() });
        assert_eq!(
            channel.next_after(event.seq, Duration::from_secs(5)),
            crate::events::Poll::Closed
        );
    }

    #[test]
    fn cancel_of_a_queued_job_emits_terminal_event_and_closes_stream() {
        let (exec, _) = counting_executor(Duration::from_millis(250));
        let cfg = SchedulerConfig {
            parallel: ParallelConfig::with_threads(1),
            queue_capacity: 4,
            ..SchedulerConfig::default()
        };
        let s = scheduler(exec, &cfg);
        let _first = s.submit(request(250)).unwrap();
        let second = s.submit(request(251)).unwrap();
        let channel = s.event_channel(second.status.id).expect("queued job has a channel");
        s.cancel(second.status.id).expect("job exists");
        let mut cursor = 0;
        let mut last_state = String::new();
        loop {
            match channel.next_after(cursor, Duration::from_secs(5)) {
                crate::events::Poll::Event(event) => {
                    cursor = event.seq;
                    if let EventKind::State { state } = event.kind {
                        last_state = state;
                    }
                }
                crate::events::Poll::Closed => break,
                crate::events::Poll::Timeout => panic!("cancelled job stream must close"),
            }
        }
        assert_eq!(last_state, "cancelled");
    }

    #[test]
    fn journaled_jobs_close_out_and_do_not_replay() {
        let path = std::env::temp_dir()
            .join(format!("nemfpga-sched-journal-{}", std::process::id()))
            .join("closeout.log");
        let _ = std::fs::remove_file(&path);
        {
            let (journal, report) = Journal::open(&path).unwrap();
            assert!(report.pending.is_empty());
            let (exec, _) = counting_executor(Duration::ZERO);
            let s = Scheduler::with_journal(
                &SchedulerConfig::default(),
                ResultCache::new(64, None),
                Arc::new(Metrics::default()),
                exec,
                Some(Arc::new(journal)),
            );
            let sub = s.submit(request(80)).unwrap();
            assert_eq!(
                s.wait_for(sub.status.id, Duration::from_secs(30)).unwrap().state,
                JobState::Done
            );
        }
        let (_journal, report) = Journal::open(&path).unwrap();
        assert!(report.pending.is_empty(), "finished job must not replay");
        assert!(report.records_scanned >= 3, "submitted + started + done");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn poison_job_is_quarantined_at_the_threshold_and_never_reruns() {
        nemfpga_runtime::cancel::silence_cancel_panics();
        let count = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&count);
        let exec: Executor = Arc::new(move |_| {
            c.fetch_add(1, Ordering::SeqCst);
            panic!("poison");
        });
        let cfg = SchedulerConfig {
            hardening: HardeningConfig { quarantine_threshold: 2, ..HardeningConfig::default() },
            ..SchedulerConfig::default()
        };
        let metrics = Arc::new(Metrics::default());
        let s = Scheduler::new(&cfg, ResultCache::new(64, None), Arc::clone(&metrics), exec);
        // Attempt 1: a plain failure, below the threshold.
        let first = s.submit(request(300)).unwrap();
        let done = s.wait_for(first.status.id, Duration::from_secs(30)).unwrap();
        assert_eq!(done.state, JobState::Failed);
        // Attempt 2: crosses the threshold — the job itself lands
        // `quarantined` with the structured error.
        let second = s.submit(request(300)).unwrap();
        let done = s.wait_for(second.status.id, Duration::from_secs(30)).unwrap();
        assert_eq!(done.state, JobState::Quarantined);
        let error = done.error.expect("quarantined jobs carry the structured error");
        assert!(error.contains("quarantined after 2"), "error: {error}");
        assert!(error.contains("poison"), "error: {error}");
        // Attempt 3: short-circuits at submission; the executor never
        // runs a third time.
        let third = s.submit(request(300)).unwrap();
        assert_eq!(third.status.state, JobState::Quarantined);
        assert!(third.status.error.is_some());
        assert_eq!(count.load(Ordering::SeqCst), 2, "pinned key must not execute");
        assert_eq!(metrics.jobs_quarantined.get(), 1);
        assert_eq!(metrics.quarantine_hits.get(), 1);
        assert_eq!(s.quarantined_len(), 1);
        let key = job_key(&request(300)).unwrap();
        assert!(s.quarantine_error(&key).is_some());
        // An unrelated key is unaffected.
        assert!(s.quarantine_error(&job_key(&request(301)).unwrap()).is_none());
    }

    #[test]
    fn budget_breach_fails_the_job_with_a_structured_error() {
        nemfpga_runtime::cancel::silence_cancel_panics();
        let exec: Executor = Arc::new(|_| {
            // Allocate well past the 1 MiB ceiling, then hit a normal
            // engine checkpoint — enforcement is cooperative. `black_box`
            // keeps an optimized build from eliding the allocation.
            let buf = std::hint::black_box(vec![7u8; 4 << 20]);
            cancel::checkpoint();
            Ok(format!("never returned ({})", buf.len()))
        });
        let cfg = SchedulerConfig {
            hardening: HardeningConfig {
                quarantine_threshold: 0,
                job_budget_bytes: 1 << 20,
                ..HardeningConfig::default()
            },
            ..SchedulerConfig::default()
        };
        let metrics = Arc::new(Metrics::default());
        let s = Scheduler::new(&cfg, ResultCache::new(64, None), Arc::clone(&metrics), exec);
        let sub = s.submit(request(310)).unwrap();
        let done = s.wait_for(sub.status.id, Duration::from_secs(30)).unwrap();
        assert_eq!(done.state, JobState::Failed, "a breach is a job failure, not an OOM");
        let error = done.error.expect("budget breaches carry an error");
        assert!(error.contains("budget exceeded"), "error: {error}");
        assert_eq!(metrics.budget_breached.get(), 1);
        // The next job (under budget) runs normally on the same workers.
        let ok: Executor = Arc::new(|_| Ok("fine\n".to_owned()));
        let s2 = Scheduler::new(&cfg, ResultCache::new(64, None), Arc::new(Metrics::default()), ok);
        let sub = s2.submit(request(311)).unwrap();
        assert_eq!(
            s2.wait_for(sub.status.id, Duration::from_secs(30)).unwrap().state,
            JobState::Done
        );
    }

    #[test]
    fn watchdog_kills_a_stalled_job_without_cooperation() {
        nemfpga_runtime::cancel::silence_cancel_panics();
        let exec: Executor = Arc::new(|_| {
            // Stall far past the quiet limit without a single heartbeat,
            // then reach a checkpoint: the watchdog has already
            // cancelled the token, so the job unwinds here.
            std::thread::sleep(Duration::from_millis(500));
            cancel::checkpoint();
            Ok("survived".to_owned())
        });
        let cfg = SchedulerConfig {
            job_timeout: Duration::from_millis(50),
            hardening: HardeningConfig {
                quarantine_threshold: 0,
                watchdog_factor: 1,
                ..HardeningConfig::default()
            },
            ..SchedulerConfig::default()
        };
        let metrics = Arc::new(Metrics::default());
        let s = Scheduler::new(&cfg, ResultCache::new(64, None), Arc::clone(&metrics), exec);
        let sub = s.submit(request(320)).unwrap();
        let done = s.wait_for(sub.status.id, Duration::from_secs(30)).unwrap();
        assert_eq!(done.state, JobState::Failed, "a watchdog kill is a failure, not a cancel");
        let error = done.error.expect("watchdog kills carry an error");
        assert!(error.contains("watchdog"), "error: {error}");
        assert_eq!(metrics.watchdog_fired.get(), 1);
    }

    #[test]
    fn overload_sheds_in_stages_and_recovers_when_the_backlog_drains() {
        let (exec, _) = counting_executor(Duration::from_millis(100));
        let cfg = SchedulerConfig {
            parallel: ParallelConfig::with_threads(1),
            queue_capacity: 64,
            hardening: HardeningConfig {
                overload: OverloadPolicy {
                    enter_wait_ms: 30,
                    sample_ttl: Duration::from_millis(300),
                    min_dwell: Duration::from_millis(1),
                    ..OverloadPolicy::default()
                },
                ..HardeningConfig::default()
            },
            ..SchedulerConfig::default()
        };
        let metrics = Arc::new(Metrics::default());
        let s = Scheduler::new(&cfg, ResultCache::new(64, None), Arc::clone(&metrics), exec);
        // Flood one slow worker with distinct jobs: queue waits build,
        // the p99 crosses the enter threshold, and later submissions are
        // shed with `Overloaded`.
        let mut shed = 0;
        for seed in 0..30 {
            match s.submit(request(400 + seed)) {
                Ok(_) => {}
                Err(SubmitError::Overloaded(stage)) => {
                    assert!(
                        stage >= overload::STAGE_CACHED_ONLY,
                        "interactive fresh computes shed at stage 2+"
                    );
                    shed += 1;
                }
                Err(other) => panic!("unexpected error {other}"),
            }
            std::thread::sleep(Duration::from_millis(30));
        }
        assert!(shed > 0, "sustained backlog must trip the brownout");
        assert!(metrics.overload_shed_fresh.get() > 0);
        assert!(metrics.overload_transitions.get() >= 2);
        assert!(s.overload_stage() >= overload::STAGE_SHED_BATCH);
        // Recovery: the backlog drains, the stale wait samples age out,
        // and repeated evaluations walk the stage back to normal.
        let deadline = Instant::now() + Duration::from_secs(20);
        while s.overload_stage() != overload::STAGE_NORMAL {
            assert!(Instant::now() < deadline, "brownout must recover hysteretically");
            // Cache-hit submissions still evaluate the controller.
            let _ = s.submit(request(400));
            std::thread::sleep(Duration::from_millis(25));
        }
        let after = s.submit(request(777)).expect("recovered service accepts fresh work");
        assert_eq!(
            s.wait_for(after.status.id, Duration::from_secs(30)).unwrap().state,
            JobState::Done
        );
    }

    /// Terminal `state` events on `id`'s channel, read until it closes.
    fn terminal_events(s: &Scheduler, id: u64) -> usize {
        let channel = s.event_channel(id).expect("live record has a channel");
        let mut cursor = 0;
        let mut terminal = 0;
        loop {
            match channel.next_after(cursor, Duration::from_secs(5)) {
                crate::events::Poll::Event(event) => {
                    cursor = event.seq;
                    if let EventKind::State { state } = event.kind {
                        let state = JobState::from_name(&state).expect("known state name");
                        terminal += usize::from(state.is_terminal());
                    }
                }
                crate::events::Poll::Closed => return terminal,
                crate::events::Poll::Timeout => panic!("job {id}'s stream must close"),
            }
        }
    }

    #[test]
    fn every_admission_outcome_books_exactly_one_ledger_term() {
        // One worker, held inside the executor until `gate` is released,
        // so the queue states below are exact rather than timed.
        let gate = Arc::new(Mutex::new(()));
        let (started_tx, started_rx) = std::sync::mpsc::channel::<u64>();
        let exec_gate = Arc::clone(&gate);
        let exec: Executor = Arc::new(move |req: &ExperimentRequest| {
            started_tx.send(req.seed).expect("test is listening");
            let _open = exec_gate.lock().expect("gate poisoned");
            Ok(format!("output for seed {}\n", req.seed))
        });
        let cfg = SchedulerConfig {
            parallel: ParallelConfig::with_threads(1),
            queue_capacity: 2,
            qos: QosPolicy { max_queued: 1, ..QosPolicy::default() },
            hardening: HardeningConfig {
                // Real queue waits never reach a minute; the test trips
                // the brownout by injecting one such sample.
                overload: OverloadPolicy {
                    enter_wait_ms: 60_000,
                    sample_ttl: Duration::from_secs(3600),
                    min_dwell: Duration::ZERO,
                    ..OverloadPolicy::default()
                },
                ..HardeningConfig::default()
            },
            ..SchedulerConfig::default()
        };
        let metrics = Arc::new(Metrics::default());
        let s = Scheduler::new(&cfg, ResultCache::new(64, None), Arc::clone(&metrics), exec);
        let tenant = |name: &str| SubmitOptions {
            tenant: Some(name.to_owned()),
            ..SubmitOptions::default()
        };
        let balanced = |step: &str| {
            assert_eq!(
                metrics.jobs_submitted.get(),
                metrics.admission_ledger(),
                "ledger leaks after {step}"
            );
        };
        let held = gate.lock().expect("gate poisoned");

        // Miss: the single worker picks it up and blocks in the executor.
        let running = s.submit(request(500)).unwrap();
        assert_eq!(started_rx.recv().unwrap(), 500);
        balanced("a miss");
        let coalesced = s.submit(request(500)).unwrap();
        assert!(coalesced.coalesced);
        assert_eq!(coalesced.status.id, running.status.id);
        balanced("a coalesce");
        // The default tenant's one queue slot fills, then its quota trips.
        let queued = s.submit(request(501)).unwrap();
        balanced("a queued miss");
        assert!(matches!(s.submit(request(502)), Err(SubmitError::QuotaExceeded(_))));
        balanced("a quota refusal");
        // A second tenant takes the pool's last slot; a third finds it full.
        let other = s.submit_opts(request(503), tenant("t2")).unwrap();
        balanced("a second tenant's miss");
        assert!(matches!(s.submit_opts(request(504), tenant("t3")), Err(SubmitError::QueueFull)));
        balanced("a queue-full refusal");
        assert_eq!(metrics.cache_misses.get(), 5, "quota and queue-full refusals are misses");
        assert_eq!(metrics.jobs_rejected.get(), 2);

        drop(held);
        for sub in [&running, &queued, &other] {
            let done = s.wait_for(sub.status.id, Duration::from_secs(30)).unwrap();
            assert_eq!(done.state, JobState::Done);
        }
        let hit = s.submit(request(500)).unwrap();
        assert_eq!(hit.cache_tier, Some(CacheTier::Memory));
        balanced("a memory hit");

        let poison = job_key(&request(505)).unwrap();
        s.preload_hardening(&[], &[(poison.as_hex().to_owned(), "pinned".to_owned())]);
        let pinned = s.submit(request(505)).unwrap();
        assert_eq!(pinned.status.state, JobState::Quarantined);
        balanced("a quarantine hit");

        // Brownout: each submission evaluates the controller, which
        // climbs one stage per evaluation with no dwell.
        s.shared.overload.record_wait(60_000);
        let batch = SubmitOptions { lane: Lane::Batch, ..SubmitOptions::default() };
        assert_eq!(s.submit_opts(request(506), batch).unwrap_err(), SubmitError::Overloaded(1));
        balanced("a batch shed");
        assert_eq!(s.submit(request(507)).unwrap_err(), SubmitError::Overloaded(2));
        balanced("a fresh shed");
        assert_eq!(s.submit(request(500)).unwrap_err(), SubmitError::Overloaded(3));
        balanced("a reject shed");

        for (term, value) in [
            ("cache_hits_memory", metrics.cache_hits_memory.get()),
            ("coalesced", metrics.coalesced.get()),
            ("quarantine_hits", metrics.quarantine_hits.get()),
            ("overload_shed_batch", metrics.overload_shed_batch.get()),
            ("overload_shed_fresh", metrics.overload_shed_fresh.get()),
            ("overload_shed_reject", metrics.overload_shed_reject.get()),
        ] {
            assert_eq!(value, 1, "{term}");
        }
        assert_eq!(metrics.jobs_submitted.get(), 11);
        for id in [running.status.id, queued.status.id, other.status.id, hit.status.id] {
            assert_eq!(terminal_events(&s, id), 1, "job {id}");
        }
        assert_eq!(terminal_events(&s, pinned.status.id), 1);
    }
}
