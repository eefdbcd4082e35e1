//! The traced run: an in-process service whose executor is the layer-
//! composed flow, the counters the program already exports, and the
//! per-layer metric set every workload reports with `--trace 1`.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nemfpga::request::ExperimentRequest;
use nemfpga_runtime::ParallelConfig;
use nemfpga_service::{job_key, MetricsView, Service, ServiceClient, ServiceConfig};

use crate::flow::{self, Totals};
use crate::report::{metric, Metric};
use crate::stats::median;

/// Hit round trips timed each way after the workload.
const PROBES: usize = 400;

/// `job_key` calls timed after the workload.
const KEY_CALLS: usize = 4000;

/// Engine counters read from `nemfpga_obs::engine_registry()`.
const ENGINE_COUNTERS: [&str; 7] = [
    "route_calls",
    "route_iterations",
    "route_reroutes",
    "route_heap_pushes",
    "graph_builds",
    "graph_store_hits",
    "graph_store_bytes",
];

/// A snapshot of [`ENGINE_COUNTERS`].
pub fn engine_counters() -> BTreeMap<&'static str, u64> {
    let snap = nemfpga_obs::engine_registry().snapshot();
    ENGINE_COUNTERS.iter().map(|&n| (n, snap.counters.get(n).copied().unwrap_or(0))).collect()
}

/// `after - before`, counter by counter.
pub fn delta(
    before: &BTreeMap<&'static str, u64>,
    after: &BTreeMap<&'static str, u64>,
) -> BTreeMap<&'static str, u64> {
    after.iter().map(|(&n, &v)| (n, v - before.get(n).copied().unwrap_or(0))).collect()
}

/// The service as `serve --threads 2` configures it, on fresh cache and
/// journal paths under `dir`, executing through [`flow::traced_render`].
pub fn start_service(dir: &Path) -> std::io::Result<Service> {
    let parallel = ParallelConfig::with_threads(2);
    let config = ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        parallel,
        cache_dir: Some(dir.join("cache")),
        journal_path: Some(dir.join("journal.log")),
        ..ServiceConfig::default()
    };
    Service::start(
        &config,
        Arc::new(move |r: &ExperimentRequest| flow::traced_render(r, &parallel)),
    )
}

/// A client for `addr` with a timeout long enough for a whole suite.
pub fn client(addr: std::net::SocketAddr) -> ServiceClient {
    ServiceClient::new(addr)
        .expect("a socket address is a valid client target")
        .with_timeout(Duration::from_secs(170))
}

/// What the service itself exported after the workload.
pub struct ServiceStats {
    metrics: MetricsView,
    journal_bytes: u64,
    cache_disk_bytes: u64,
}

impl ServiceStats {
    /// Reads `/v1/metrics` and the sizes of the service's files.
    pub fn read(service: &Service, dir: &Path) -> Result<Self, String> {
        let metrics = client(service.addr()).metrics().map_err(|e| e.to_string())?;
        Ok(Self {
            metrics,
            journal_bytes: std::fs::metadata(dir.join("journal.log")).map_or(0, |m| m.len()),
            cache_disk_bytes: crate::child::dir_bytes(&dir.join("cache"), Some("archs")),
        })
    }

    fn counter(&self, name: &str) -> f64 {
        self.metrics.counter(name).unwrap_or(0) as f64
    }

    /// Exact mean of a histogram in its own unit (0 without samples).
    fn mean(&self, name: &str) -> f64 {
        self.metrics
            .histogram(name)
            .filter(|h| h.count > 0)
            .map_or(0.0, |h| h.sum as f64 / h.count as f64)
    }
}

/// Hit-path latency with and without HTTP, and the key derivation cost.
pub struct Probes {
    http_p50_us: f64,
    submit_p50_us: f64,
    job_key_us: f64,
}

impl Probes {
    /// Re-submits `requests` (all cached by now) alternately over HTTP
    /// and straight to the scheduler, and times `job_key` over them.
    pub fn run(service: &Service, requests: &[ExperimentRequest]) -> Result<Self, String> {
        let client = client(service.addr());
        let scheduler = service.scheduler();
        let mut http = Vec::with_capacity(PROBES);
        let mut direct = Vec::with_capacity(PROBES);
        for request in requests.iter().cycle().take(PROBES) {
            let t = Instant::now();
            client.submit(request, true).map_err(|e| e.to_string())?;
            http.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let submission = scheduler.submit(*request).map_err(|e| e.to_string())?;
            scheduler
                .wait_for(submission.status.id, Duration::from_secs(60))
                .ok_or("in-process job vanished")?;
            direct.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let t = Instant::now();
        for request in requests.iter().cycle().take(KEY_CALLS) {
            std::hint::black_box(
                job_key(std::hint::black_box(request)).map_err(|e| e.to_string())?,
            );
        }
        let job_key_us = t.elapsed().as_secs_f64() * 1e6 / KEY_CALLS as f64;
        Ok(Self { http_p50_us: median(&http), submit_p50_us: median(&direct), job_key_us })
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn layer_metrics(
    totals: &Totals,
    engine: &BTreeMap<&'static str, u64>,
    service: &ServiceStats,
    probes: &Probes,
    overhead_frac: f64,
) -> Vec<Metric> {
    let l = &totals.layers;
    let e = |n: &str| engine[n] as f64;
    let feasible_ratio = if l.attempts == 0 { 0.0 } else { l.feasible as f64 / l.attempts as f64 };
    let executor_mean_ms =
        if totals.executed == 0 { 0.0 } else { totals.executor_s * 1e3 / totals.executed as f64 };
    vec![
        metric("pnr.channel.search_s", "s", l.search_s),
        metric("pnr.channel.attempts", "count", l.attempts as f64),
        metric("pnr.channel.feasible_ratio", "ratio", feasible_ratio),
        metric("pnr.route.calls", "count", e("route_calls")),
        metric("pnr.route.iterations", "count", e("route_iterations")),
        metric("pnr.route.reroutes", "count", e("route_reroutes")),
        metric("pnr.route.heap_pushes", "count", e("route_heap_pushes")),
        metric("pnr.flow.operating_route_s", "s", l.operating_s),
        metric("runtime.pool.busy_s", "s", totals.pool.busy_s),
        metric("runtime.pool.idle_s", "s", totals.pool.idle_s),
        metric("runtime.pool.longest_item_s", "s", totals.pool.longest_item_s),
        metric("pnr.place_s", "s", l.place_s),
        metric("netlist.synth_s", "s", l.synth_s),
        metric("pnr.pack_s", "s", l.pack_s),
        metric("arch.store.graph_builds", "count", e("graph_builds")),
        metric("arch.store.hits", "count", e("graph_store_hits")),
        metric("arch.store.bytes", "bytes", e("graph_store_bytes")),
        metric("core.model_s", "s", l.model_s),
        metric("pnr.timing.sta_s", "s", l.sta_s),
        metric("power.eval_s", "s", l.power_s),
        metric("service.http.roundtrip_p50_us", "us", probes.http_p50_us),
        metric("service.scheduler.submit_p50_us", "us", probes.submit_p50_us),
        metric("service.http.overhead_us", "us", probes.http_p50_us - probes.submit_p50_us),
        metric("service.key.job_key_us", "us", probes.job_key_us),
        metric("service.cache.hit_ratio", "ratio", service.metrics.cache_hit_ratio),
        metric("service.cache.misses", "count", service.counter("cache_misses")),
        metric("service.scheduler.coalesced", "count", service.counter("coalesced")),
        metric("service.http.requests", "count", service.counter("http_requests")),
        metric("service.scheduler.queue_wait_ms", "ms", service.mean("job_queue_wait_us") / 1e3),
        metric("service.scheduler.exec_ms", "ms", service.mean("job_exec_us") / 1e3),
        metric("service.executor_s", "s", totals.executor_s),
        metric(
            "service.overhead_ms",
            "ms",
            service.mean("job_latency_us") / 1e3 - executor_mean_ms,
        ),
        metric("service.journal.bytes", "bytes", service.journal_bytes as f64),
        metric("service.cache.disk_bytes", "bytes", service.cache_disk_bytes as f64),
        metric("trace.overhead_frac", "frac", overhead_frac),
    ]
}

/// The per-layer seconds as a "where the time goes" line.
pub fn layer_line(l: &flow::Layers) -> String {
    format!(
        "synth {:.3}s  pack {:.3}s  place {:.3}s  wmin-search {:.3}s  operating-route {:.3}s  model {:.3}s  sta {:.3}s  power {:.3}s",
        l.synth_s, l.pack_s, l.place_s, l.search_s, l.operating_s, l.model_s, l.sta_s, l.power_s
    )
}
