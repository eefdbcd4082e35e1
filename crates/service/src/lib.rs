//! # nemfpga-service
//!
//! The experiment-serving subsystem of the nemfpga workspace: a
//! long-running server that turns the one-shot `repro` CLI experiments
//! into cached, deduplicated, batched jobs behind an HTTP/JSON API.
//!
//! Layered bottom-up:
//!
//! * [`key`] — canonical job keys: a normalized request encoding
//!   (exact float bit patterns; NaN/−0.0 rejected) hashed with [`sha`]
//!   into a content address.
//! * [`cache`] — two-tier result cache: in-memory LRU over an on-disk
//!   JSON store, keyed by content address.
//! * [`scheduler`] — bounded job queue with in-flight request
//!   deduplication, per-job timeouts, and a persistent worker pool
//!   (`nemfpga_runtime::WorkerPool`).
//! * [`http`] — a pure-`std` HTTP/1.1 JSON API mounted under `/v1/`
//!   (schemas and error taxonomy in `API.md`).
//! * [`client`] — the typed [`client::ServiceClient`] that `loadgen`,
//!   `serve --self-test`, and the integration tests use.
//! * [`json`] — the deterministic JSON encoder/parser everything above
//!   shares (the workspace's serde is an offline marker shim).
//!
//! The serving contract extends PR 1's determinism guarantee across the
//! cache and the wire: for any thread count, a served result is
//! **byte-identical** to what a direct `repro` run of the same
//! experiment prints to stdout. The executor is injected (the service
//! crate never depends on the experiment harness), so the contract is
//! pinned where the harness lives: `nemfpga-bench` wires
//! `render_experiment` in and its integration tests assert byte
//! equality end to end.
//!
//! ```no_run
//! use std::sync::Arc;
//! use nemfpga_service::{Service, ServiceConfig};
//!
//! let executor = Arc::new(|req: &nemfpga::ExperimentRequest| {
//!     Ok(format!("rendered {}\n", req.experiment))
//! });
//! let service = Service::start(&ServiceConfig::default(), executor).unwrap();
//! println!("serving on http://{}", service.addr());
//! service.shutdown();
//! ```

pub mod cache;
pub mod client;
pub mod cluster;
pub mod codec;
pub mod events;
pub mod http;
pub mod journal;
pub mod json;
pub mod key;
pub mod metrics;
pub mod overload;
pub mod qos;
pub mod scheduler;
pub mod sha;
pub mod sse;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use nemfpga_runtime::ParallelConfig;

pub use cache::{gc_orphan_tmp, CacheTier, CachedResult, ResultCache};
pub use client::{
    ArchView, ClientError, EventStream, HistogramView, JobView, JobsIter, JobsPage, MetricsView,
    RetryPolicy, ServiceClient,
};
pub use cluster::{Cluster, ClusterSettings};
pub use codec::{decode_entry, encode_entry, DecodedEntry};
pub use events::{EventHub, EventKind, JobChannel, JobEvent, Poll};
pub use http::{http_request, ClientResponse, ServerHandle};
pub use journal::{Journal, JournalRecord, PendingJob, RecoveryReport};
pub use key::{canonical_encoding, canonical_f64, job_key, JobKey, KeyError};
pub use metrics::{Metrics, TenantMetrics, METRICS_SCHEMA};
pub use overload::{OverloadController, OverloadPolicy};
pub use qos::{FairQueue, Lane, QosPolicy, QuotaExceeded, TenantStats, DEFAULT_TENANT};
pub use scheduler::{
    Executor, HardeningConfig, JobState, JobStatus, Scheduler, SchedulerConfig, Submission,
    SubmitError, SubmitOptions,
};
pub use sse::{SseEvent, SseParser};

/// Everything needed to stand the service up.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads executing jobs (0 = one per core).
    pub parallel: ParallelConfig,
    /// Bounded submission queue length.
    pub queue_capacity: usize,
    /// Per-job deadline.
    pub job_timeout: Duration,
    /// In-memory cache capacity (entries).
    pub cache_capacity: usize,
    /// On-disk cache directory; `None` disables the disk tier.
    pub cache_dir: Option<PathBuf>,
    /// Write-ahead job journal file; `None` disables crash recovery.
    pub journal_path: Option<PathBuf>,
    /// Multi-node clustering; `None` runs a plain single node.
    pub cluster: Option<ClusterSettings>,
    /// Multi-tenant fair-share policy (weights, quotas, lanes). The
    /// default is single-tenant-neutral.
    pub qos: QosPolicy,
    /// Execution hardening: poison-job quarantine, non-cooperative
    /// watchdog, per-job memory budgets, and overload brownout.
    pub hardening: HardeningConfig,
    /// Rewrite the journal in place once it grows past this many bytes
    /// since the last compaction (`0` disables live compaction; the
    /// journal is still compacted once at every startup).
    pub journal_compact_bytes: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            parallel: ParallelConfig::with_threads(2),
            queue_capacity: 256,
            job_timeout: Duration::from_secs(300),
            cache_capacity: 256,
            cache_dir: Some(PathBuf::from("target/service-cache")),
            journal_path: None,
            cluster: None,
            qos: QosPolicy::default(),
            hardening: HardeningConfig::default(),
            journal_compact_bytes: 4 << 20,
        }
    }
}

/// A running service: scheduler + cache + HTTP front end.
pub struct Service {
    scheduler: Arc<Scheduler>,
    metrics: Arc<Metrics>,
    server: ServerHandle,
    cluster: Option<Arc<Cluster>>,
}

impl Service {
    /// Builds the cache, scheduler, and HTTP server and starts serving.
    /// With a `journal_path` configured, first runs crash recovery:
    /// orphaned cache tempfiles are collected, the journal is scanned
    /// and compacted, and every durably accepted but unfinished job is
    /// resubmitted (`jobs_recovered`); pending jobs whose wall-clock
    /// deadline passed while the process was down close out as
    /// `expired` without executing.
    ///
    /// # Errors
    ///
    /// Propagates the TCP bind failure and journal open failures.
    pub fn start(config: &ServiceConfig, executor: Executor) -> std::io::Result<Self> {
        // Cancellation unwinds are normal control flow here; keep the
        // default panic hook from screaming about them.
        nemfpga_runtime::cancel::silence_cancel_panics();
        let metrics = Arc::new(Metrics::default());
        if let Some(dir) = &config.cache_dir {
            let removed = cache::gc_orphan_tmp(dir);
            if removed > 0 {
                eprintln!("nemfpga-service: removed {removed} orphaned cache tempfile(s)");
            }
        }
        // The architecture graph store persists CSR snapshots next to
        // the result cache; a restarted service then loads each graph
        // from disk instead of re-deriving it from params. The store
        // itself is process-global — this only points its disk tier.
        nemfpga_arch::GraphStore::global()
            .set_snapshot_dir(config.cache_dir.as_ref().map(|d| d.join("archs")));
        let cache = ResultCache::new(config.cache_capacity, config.cache_dir.clone())
            .with_write_error_counter(metrics.disk_write_errors.clone());

        let (journal, recovery) = match &config.journal_path {
            None => (None, RecoveryReport::default()),
            Some(path) => {
                let (journal, recovery) = Journal::open(path)?;
                let journal = journal
                    .with_compact_bytes(config.journal_compact_bytes)
                    .with_compaction_counter(metrics.journal_compactions.clone());
                (Some(Arc::new(journal)), recovery)
            }
        };

        let scheduler_cfg = SchedulerConfig {
            parallel: config.parallel,
            queue_capacity: config.queue_capacity,
            job_timeout: config.job_timeout,
            qos: config.qos.clone(),
            hardening: config.hardening.clone(),
        };
        let scheduler = Arc::new(Scheduler::with_journal(
            &scheduler_cfg,
            cache,
            Arc::clone(&metrics),
            executor,
            journal.clone(),
        ));
        // Attempt tallies and quarantine pins are durable: seed the live
        // table with what the journal recovered so a crash-looping key
        // cannot reset its count by crashing the whole process.
        scheduler.preload_hardening(&recovery.attempts, &recovery.quarantined);

        // Close out jobs whose client deadline passed while we were down.
        for job in &recovery.expired {
            metrics.jobs_expired.inc();
            if let (Some(journal), Ok(key)) = (&journal, key::job_key(&job.request)) {
                if let Err(error) = journal.append(&JournalRecord::Done {
                    key: key.as_hex().to_owned(),
                    state: JobState::Expired.name().to_owned(),
                }) {
                    metrics.disk_write_errors.inc();
                    eprintln!("nemfpga-service: journal append failed: {error}");
                }
            }
        }
        // Replay the still-live pending jobs. Replays are fire-and-forget
        // (`wait` semantics belong to clients); a full queue backs off
        // briefly rather than dropping a durably accepted job.
        for job in &recovery.pending {
            let opts = SubmitOptions {
                deadline_ms: None,
                deadline_unix_ms: job.deadline_unix_ms,
                already_journaled: true,
                tenant: job.tenant.clone(),
                lane: job.lane,
            };
            for attempt in 0..50 {
                match scheduler.submit_opts(job.request, opts.clone()) {
                    Ok(_) => {
                        metrics.jobs_recovered.inc();
                        break;
                    }
                    Err(SubmitError::QueueFull) if attempt < 49 => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(error) => {
                        eprintln!("nemfpga-service: could not replay journaled job: {error}");
                        break;
                    }
                }
            }
        }
        if !recovery.pending.is_empty() || recovery.torn_tail {
            eprintln!(
                "nemfpga-service: journal recovery replayed {} job(s){}",
                recovery.pending.len(),
                if recovery.torn_tail { " (torn tail ignored)" } else { "" }
            );
        }

        let cluster = config.cluster.as_ref().map(|settings| {
            let mut settings = settings.clone();
            if settings.forward_timeout.is_none() {
                // Cover a proxied `wait: true` long-poll: the owner may
                // hold the connection for a full job timeout.
                settings.forward_timeout = Some(config.job_timeout + Duration::from_secs(15));
            }
            let cluster = Cluster::new(settings, scheduler.cache_handle(), Arc::clone(&metrics));
            cluster.start_sync();
            cluster
        });

        let server = http::serve(
            &config.addr,
            Arc::clone(&scheduler),
            Arc::clone(&metrics),
            cluster.clone(),
        )?;
        Ok(Self { scheduler, metrics, server, cluster })
    }

    /// The bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.addr()
    }

    /// Direct (in-process) access to the scheduler, bypassing HTTP.
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.scheduler
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The cluster runtime, when this node is clustered. The testkit
    /// uses this to drive deterministic sync rounds and partitions.
    pub fn cluster(&self) -> Option<&Arc<Cluster>> {
        self.cluster.as_ref()
    }

    /// Graceful drain: stop accepting new submissions, stop the HTTP
    /// listener, give in-flight jobs `grace` to finish, then force-
    /// cancel stragglers (their journal records stay open so a restart
    /// resumes them). Returns true when everything finished within the
    /// grace period.
    pub fn drain(self, grace: Duration) -> bool {
        self.scheduler.begin_drain();
        self.server.shutdown();
        if let Some(cluster) = &self.cluster {
            cluster.stop_sync();
        }
        let quiesced = self.scheduler.await_quiesce(grace);
        if !quiesced {
            let cancelled = self.scheduler.cancel_all();
            eprintln!("nemfpga-service: drain grace expired; force-cancelled {cancelled} job(s)");
            // Cancellation is cooperative — give the checkpoints a
            // moment so workers are idle before the pool joins.
            self.scheduler.await_quiesce(Duration::from_secs(5));
        }
        quiesced
        // Dropping the scheduler joins the worker pool.
    }

    /// Abrupt stop: kills the HTTP server, then drops the scheduler
    /// (which still joins in-flight workers). Use [`Service::drain`]
    /// for the graceful path.
    pub fn shutdown(self) {
        self.server.shutdown();
        if let Some(cluster) = &self.cluster {
            cluster.stop_sync();
        }
        // Dropping the scheduler joins the worker pool.
    }
}
