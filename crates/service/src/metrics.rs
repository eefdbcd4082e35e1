//! Service metrics: typed handles over an `nemfpga_obs` registry.
//!
//! [`Metrics`] owns no state of its own — every counter, gauge, and
//! histogram lives in one [`Registry`], and the struct's public fields
//! are shared handles into it. That makes `/v1/metrics` (JSON and
//! Prometheus), in-process assertions (the chaos suite's reconciliation
//! invariant), and the scheduler's recording paths read and write the
//! *same* atomics: there is exactly one source of truth and no way for
//! an exporter to drift from the counters the code actually bumps.
//!
//! Latency is kept as three log-bucketed histograms in integer
//! microseconds (exact counts, mergeable, honest quantiles) instead of
//! the old 4096-sample window with a 2-point percentile estimate:
//!
//! * `job_queue_wait_us` — submission → worker pickup,
//! * `job_exec_us` — executor wall time,
//! * `job_latency_us` — submission → terminal state (computed jobs;
//!   cache hits are terminal at submit and are counted, not timed).

use std::sync::Arc;

use nemfpga_obs::{Counter, Gauge, Histogram, Registry, RegistrySnapshot};

use crate::json::Value;

/// Version tag served as the `schema` field of the `/v1/metrics` JSON
/// body. Bump only with an additive or breaking schema change (API.md).
pub const METRICS_SCHEMA: &str = "nemfpga.metrics.v1";

/// One tenant's accounting ledger: typed handles into the shared
/// registry, named `tenant_*{tenant="..."}`. See [`Metrics::tenant`].
pub struct TenantMetrics {
    /// Valid submissions attributed to the tenant (every outcome).
    pub submitted: Counter,
    /// Submissions bounced by the queue (full or over tenant quota).
    pub rejected: Counter,
    /// Submissions answered from the cache (either tier).
    pub cache_hits: Counter,
    /// Submissions that coalesced onto an in-flight job.
    pub coalesced: Counter,
    /// Fresh jobs that ran to `done`.
    pub completed: Counter,
    /// Fresh jobs that ended `failed`, `timed_out`, `expired`, or
    /// `cancelled`.
    pub errored: Counter,
    /// Submission → terminal latency for the tenant's fresh jobs.
    pub latency_us: Histogram,
}

/// Typed handles into the service's metric registry. All operations are
/// lock-free; the registry mutex is only touched at construction and
/// export time.
pub struct Metrics {
    registry: Arc<Registry>,
    /// Jobs accepted by `POST /v1/jobs` (including cache hits and coalesced).
    pub jobs_submitted: Counter,
    /// Jobs that ran to successful completion.
    pub jobs_completed: Counter,
    /// Jobs whose executor failed.
    pub jobs_failed: Counter,
    /// Jobs that hit their deadline (before or during execution).
    pub jobs_timed_out: Counter,
    /// Jobs shed because the client's `deadline_ms` passed before a
    /// worker picked them up.
    pub jobs_expired: Counter,
    /// Jobs cancelled (client `DELETE` or drain) before finishing.
    pub jobs_cancelled: Counter,
    /// Journaled jobs replayed into the scheduler after a restart.
    pub jobs_recovered: Counter,
    /// Submissions rejected because the queue was full.
    pub jobs_rejected: Counter,
    /// Jobs pinned as poison: they reached the quarantine threshold of
    /// abnormal failures (panic, watchdog kill, budget breach) and
    /// finished `quarantined` instead of being retried forever.
    pub jobs_quarantined: Counter,
    /// Submissions refused without executing because their key is
    /// already quarantined.
    pub quarantine_hits: Counter,
    /// Jobs hard-failed by the watchdog for making no progress within
    /// their quiet limit.
    pub watchdog_fired: Counter,
    /// Jobs hard-failed for exceeding their per-job memory budget.
    pub budget_breached: Counter,
    /// Live journal rewrites triggered by the size threshold.
    pub journal_compactions: Counter,
    /// Batch-lane submissions shed at overload stage ≥ 1.
    pub overload_shed_batch: Counter,
    /// Fresh computes shed at overload stage ≥ 2 (cached-only).
    pub overload_shed_fresh: Counter,
    /// Submissions rejected outright at overload stage 3.
    pub overload_shed_reject: Counter,
    /// Brownout stage changes, either direction.
    pub overload_transitions: Counter,
    /// Failed durable writes (cache spill or journal append). The write
    /// is dropped and serving continues; nonzero means degraded
    /// persistence, not lost results.
    pub disk_write_errors: Counter,
    /// Submissions that coalesced onto an identical in-flight job.
    pub coalesced: Counter,
    /// Submissions answered from the in-memory cache tier.
    pub cache_hits_memory: Counter,
    /// Submissions answered from the on-disk cache tier.
    pub cache_hits_disk: Counter,
    /// Submissions that had to compute.
    pub cache_misses: Counter,
    /// HTTP requests served (any route, any status).
    pub http_requests: Counter,
    /// Progress events published to job event channels (state
    /// transitions, flow stages, router ticks).
    pub events_emitted: Counter,
    /// Events evicted from full per-job rings. Slow subscribers see the
    /// loss as an explicit `dropped` gap event, never silently.
    pub events_dropped: Counter,
    /// Local misses answered by fetching the entry from a peer.
    pub cluster_peer_fetch_hits: Counter,
    /// Local misses no reachable peer could answer (the job computes).
    pub cluster_peer_fetch_misses: Counter,
    /// Anti-entropy rounds completed (background thread or `sync_now`).
    pub cluster_antientropy_rounds: Counter,
    /// Entries admitted from peers by anti-entropy pulls.
    pub cluster_antientropy_entries_pulled: Counter,
    /// Submits proxied to the key's HRW owner on another node.
    pub cluster_proxied_jobs: Counter,
    /// Jobs waiting in the queue (sampled at export time).
    pub queue_depth: Gauge,
    /// Peers currently believed reachable (0 when clustering is off).
    pub cluster_peers_up: Gauge,
    /// Current brownout stage (0 normal … 3 reject).
    pub overload_stage: Gauge,
    /// Submission → worker pickup, microseconds.
    pub job_queue_wait_us: Histogram,
    /// Executor wall time, microseconds.
    pub job_exec_us: Histogram,
    /// Submission → terminal state for computed jobs, microseconds.
    pub job_latency_us: Histogram,
    /// Peak tracked bytes per computed job (from its budget cell).
    pub job_peak_bytes: Histogram,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new(Arc::new(Registry::new()))
    }
}

impl Metrics {
    /// Registers every service metric in `registry` and keeps handles.
    ///
    /// Also pre-registers the engine metrics (the router's, recorded by
    /// `nemfpga-pnr`, and the architecture graph store's `graph_*`
    /// counters, recorded by `nemfpga-arch`, into
    /// [`nemfpga_obs::engine_registry`]) so the `/v1/metrics` document
    /// always carries the full schema — zeros before the first job
    /// routes, real effort counts after.
    pub fn new(registry: Arc<Registry>) -> Self {
        let engine = nemfpga_obs::engine_registry();
        for name in [
            "route_calls",
            "route_iterations",
            "route_reroutes",
            "route_heap_pushes",
            "route_conflict_groups",
            "graph_builds",
            "graph_store_hits",
            "graph_store_bytes",
        ] {
            engine.counter(name);
        }
        engine.histogram("route_conflict_group_size");
        let metrics = Self {
            jobs_submitted: registry.counter("jobs_submitted"),
            jobs_completed: registry.counter("jobs_completed"),
            jobs_failed: registry.counter("jobs_failed"),
            jobs_timed_out: registry.counter("jobs_timed_out"),
            jobs_expired: registry.counter("jobs_expired"),
            jobs_cancelled: registry.counter("jobs_cancelled"),
            jobs_recovered: registry.counter("jobs_recovered"),
            jobs_rejected: registry.counter("jobs_rejected"),
            jobs_quarantined: registry.counter("jobs_quarantined"),
            quarantine_hits: registry.counter("quarantine_hits"),
            watchdog_fired: registry.counter("watchdog_fired"),
            budget_breached: registry.counter("budget_breached"),
            journal_compactions: registry.counter("journal_compactions"),
            overload_shed_batch: registry.counter("overload_shed_batch"),
            overload_shed_fresh: registry.counter("overload_shed_fresh"),
            overload_shed_reject: registry.counter("overload_shed_reject"),
            overload_transitions: registry.counter("overload_transitions"),
            disk_write_errors: registry.counter("disk_write_errors"),
            coalesced: registry.counter("coalesced"),
            cache_hits_memory: registry.counter("cache_hits_memory"),
            cache_hits_disk: registry.counter("cache_hits_disk"),
            cache_misses: registry.counter("cache_misses"),
            http_requests: registry.counter("http_requests"),
            events_emitted: registry.counter("events_emitted"),
            events_dropped: registry.counter("events_dropped"),
            cluster_peer_fetch_hits: registry.counter("cluster_peer_fetch_hits"),
            cluster_peer_fetch_misses: registry.counter("cluster_peer_fetch_misses"),
            cluster_antientropy_rounds: registry.counter("cluster_antientropy_rounds"),
            cluster_antientropy_entries_pulled: registry
                .counter("cluster_antientropy_entries_pulled"),
            cluster_proxied_jobs: registry.counter("cluster_proxied_jobs"),
            queue_depth: registry.gauge("queue_depth"),
            cluster_peers_up: registry.gauge("cluster_peers_up"),
            overload_stage: registry.gauge("overload_stage"),
            job_queue_wait_us: registry.histogram("job_queue_wait_us"),
            job_exec_us: registry.histogram("job_exec_us"),
            job_latency_us: registry.histogram("job_latency_us"),
            job_peak_bytes: registry.histogram("job_peak_bytes"),
            registry,
        };
        // Pre-register the default tenant's ledger so the metrics
        // document always carries the per-tenant schema (zeros before
        // the first job, like the engine counters above).
        let _ = metrics.tenant(crate::qos::DEFAULT_TENANT);
        metrics
    }

    /// The backing registry (shared; snapshots see every handle's writes).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Typed handles for one tenant's accounting ledger. Series are
    /// created on first use; names embed the tenant as a Prometheus
    /// label (`tenant_jobs_submitted{tenant="acme"}`), which both
    /// exporters pass through verbatim — tenant names are validated to
    /// `[a-z0-9_-]` at submission so no escaping is ever needed.
    ///
    /// The ledger balances at quiescence:
    /// `submitted == rejected + cache_hits + coalesced + completed + errored`
    /// (the chaos `tenants` scenario asserts exactly this).
    pub fn tenant(&self, tenant: &str) -> TenantMetrics {
        let counter = |family: &str| {
            self.registry.counter(&format!("tenant_{family}{{tenant=\"{tenant}\"}}"))
        };
        TenantMetrics {
            submitted: counter("jobs_submitted"),
            rejected: counter("jobs_rejected"),
            cache_hits: counter("cache_hits"),
            coalesced: counter("coalesced"),
            completed: counter("jobs_completed"),
            errored: counter("jobs_errored"),
            latency_us: self
                .registry
                .histogram(&format!("tenant_job_latency_us{{tenant=\"{tenant}\"}}")),
        }
    }

    /// Cache hits across both tiers.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits_memory.get() + self.cache_hits_disk.get()
    }

    /// The admission ledger: every valid submission books exactly one of
    /// a cache hit (either tier), a coalesce, a miss, a quarantine hit,
    /// or a brownout shed (batch, fresh, reject). Quota and queue-full
    /// refusals are misses. Once every submission has returned, this
    /// equals `jobs_submitted`.
    pub fn admission_ledger(&self) -> u64 {
        self.cache_hits()
            + self.coalesced.get()
            + self.cache_misses.get()
            + self.quarantine_hits.get()
            + self.overload_shed_batch.get()
            + self.overload_shed_fresh.get()
            + self.overload_shed_reject.get()
    }

    /// Hit ratio over all cache lookups so far (0 when none).
    pub fn hit_ratio(&self) -> f64 {
        let hits = self.cache_hits();
        let total = hits + self.cache_misses.get();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// The service registry's snapshot merged with the engine
    /// registry's — one export surface for both service counters and
    /// in-kernel router effort. Name sets are disjoint by convention
    /// (engine names carry a subsystem prefix); on a collision the
    /// engine value wins, which the tests forbid ever mattering.
    fn merged_snapshot(&self) -> RegistrySnapshot {
        let mut snap = self.registry.snapshot();
        let engine = nemfpga_obs::engine_registry().snapshot();
        snap.counters.extend(engine.counters);
        snap.gauges.extend(engine.gauges);
        snap.histograms.extend(engine.histograms);
        snap
    }

    /// Renders the registry as the `/v1/metrics` JSON body (schema
    /// [`METRICS_SCHEMA`], documented in API.md). `queue_depth` is
    /// sampled by the caller — the scheduler owns the queue.
    pub fn to_json(&self, queue_depth: usize) -> Value {
        self.queue_depth.set(queue_depth as u64);
        let snap = self.merged_snapshot();
        let counters = snap
            .counters
            .iter()
            .map(|(name, &v)| (name.clone(), Value::U64(v)))
            .collect::<Vec<_>>();
        let gauges =
            snap.gauges.iter().map(|(name, &v)| (name.clone(), Value::U64(v))).collect::<Vec<_>>();
        let histograms = snap
            .histograms
            .iter()
            .map(|(name, h)| {
                let buckets = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, &c)| {
                        Value::obj(vec![
                            ("le", Value::U64(nemfpga_obs::metrics::bucket_upper_bound(i))),
                            ("count", Value::U64(c)),
                        ])
                    })
                    .collect::<Vec<_>>();
                let body = Value::obj(vec![
                    ("count", Value::U64(h.count())),
                    ("sum", Value::U64(h.sum)),
                    ("p50", Value::U64(h.quantile(0.50))),
                    ("p95", Value::U64(h.quantile(0.95))),
                    ("buckets", Value::Arr(buckets)),
                ]);
                (name.clone(), body)
            })
            .collect::<Vec<_>>();
        Value::obj(vec![
            ("schema", Value::Str(METRICS_SCHEMA.to_owned())),
            ("counters", Value::Obj(counters)),
            ("gauges", Value::Obj(gauges)),
            ("derived", Value::obj(vec![("cache_hit_ratio", Value::F64(self.hit_ratio()))])),
            ("histograms", Value::Obj(histograms)),
        ])
    }

    /// Renders the registry as Prometheus text exposition format
    /// (`GET /v1/metrics?format=prometheus`).
    pub fn to_prometheus(&self, queue_depth: usize) -> String {
        self.queue_depth.set(queue_depth as u64);
        self.merged_snapshot().to_prometheus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn hit_ratio_counts_both_tiers() {
        let m = Metrics::default();
        m.cache_hits_memory.add(6);
        m.cache_hits_disk.add(2);
        m.cache_misses.add(8);
        assert!((m.hit_ratio() - 0.5).abs() < 1e-12);
        let doc = m.to_json(3);
        let gauges = doc.get("gauges").unwrap();
        assert_eq!(gauges.get("queue_depth").unwrap().as_u64(), Some(3));
        let counters = doc.get("counters").unwrap();
        assert_eq!(counters.get("cache_hits_memory").unwrap().as_u64(), Some(6));
    }

    #[test]
    fn histograms_render_with_exact_counts_and_quantiles() {
        let m = Metrics::default();
        for ms in 1..=100u64 {
            m.job_exec_us.record_duration(Duration::from_millis(ms));
        }
        let doc = m.to_json(0);
        let h = doc.get("histograms").unwrap().get("job_exec_us").unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(100));
        // True p50 is 50 ms = 50 000 µs; the log-bucket bound is the
        // enclosing power-of-two upper edge, within 2x.
        let p50 = h.get("p50").unwrap().as_u64().unwrap();
        assert!((50_000..=100_000).contains(&p50), "p50 = {p50}");
        let buckets = h.get("buckets").unwrap();
        assert!(matches!(buckets, Value::Arr(b) if !b.is_empty()));
    }

    #[test]
    fn engine_router_metrics_appear_in_the_export() {
        let m = Metrics::default();
        let doc = m.to_json(0);
        let counters = doc.get("counters").unwrap();
        for name in ["route_calls", "route_iterations", "route_reroutes", "route_heap_pushes"] {
            assert!(counters.get(name).is_some(), "missing engine counter {name}");
        }
        assert!(doc.get("histograms").unwrap().get("route_conflict_group_size").is_some());
        // And on the Prometheus surface too.
        assert!(m.to_prometheus(0).contains("route_heap_pushes"));
    }

    #[test]
    fn exporters_and_handles_share_one_registry() {
        let m = Metrics::default();
        m.jobs_submitted.inc();
        // The registry view (what /v1/metrics reads) sees the handle's
        // write — same atomics, one source of truth.
        assert_eq!(m.registry().snapshot().counters["jobs_submitted"], 1);
        let prom = m.to_prometheus(5);
        assert!(prom.contains("jobs_submitted 1\n"), "{prom}");
        assert!(prom.contains("queue_depth 5\n"), "{prom}");
    }
}
