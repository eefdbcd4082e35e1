//! Criterion benches for the serving subsystem: the content-address key,
//! the JSON codec, and — the headline numbers — a cache-hit submission
//! vs. a cold compute through the scheduler, plus the same hit path end
//! to end over HTTP. Results land in `BENCH_pnr.json` alongside the CAD
//! benches.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, Criterion};
use nemfpga::request::{ExperimentKind, ExperimentRequest};
use nemfpga_runtime::ParallelConfig;
use nemfpga_service::json::{self, Value};
use nemfpga_service::{
    job_key, Executor, Metrics, ResultCache, Scheduler, SchedulerConfig, Service, ServiceConfig,
};

/// A scheduler with a cheap synthetic executor: timings measure the
/// service machinery (key, queue, dedup, cache), not an experiment.
fn scheduler() -> Scheduler {
    let executor: Executor =
        Arc::new(|request: &ExperimentRequest| Ok(format!("output for seed {}\n", request.seed)));
    let config = SchedulerConfig {
        parallel: ParallelConfig::with_threads(2),
        queue_capacity: 256,
        job_timeout: Duration::from_secs(30),
        qos: Default::default(),
        hardening: Default::default(),
    };
    // Memory-only cache: the bench isolates the hit path from disk I/O.
    Scheduler::new(&config, ResultCache::new(1024, None), Arc::new(Metrics::default()), executor)
}

fn request_with_seed(seed: u64) -> ExperimentRequest {
    let mut request = ExperimentRequest::new(ExperimentKind::Table1);
    request.seed = seed;
    request
}

fn bench_job_key(c: &mut Criterion) {
    let request = ExperimentRequest::default();
    c.bench_function("service/job_key", |b| b.iter(|| job_key(&request).expect("valid request")));
}

fn bench_json_roundtrip(c: &mut Criterion) {
    let doc = Value::obj(vec![
        ("experiment", Value::Str("fig12".to_owned())),
        ("scale", Value::F64(0.05)),
        ("benchmarks", Value::U64(24)),
        ("seed", Value::U64(42)),
        ("output", Value::Str("line one\nline two \"quoted\"\n".repeat(20))),
    ]);
    c.bench_function("service/json_roundtrip", |b| {
        b.iter(|| json::parse(&doc.to_json()).expect("round trips"))
    });
}

/// Submitting a request whose result is already cached: the served-hot
/// path every repeat client takes.
fn bench_submit_cache_hit(c: &mut Criterion) {
    let scheduler = scheduler();
    let request = request_with_seed(1);
    let warm = scheduler.submit(request).expect("submits");
    if !warm.status.state.is_terminal() {
        scheduler.wait_for(warm.status.id, Duration::from_secs(30)).expect("completes");
    }
    c.bench_function("service/submit_cache_hit", |b| {
        b.iter(|| {
            let submission = scheduler.submit(request).expect("submits");
            assert!(submission.status.cached, "expected a cache hit");
            submission
        })
    });
}

/// Submitting a never-seen request: key + enqueue + worker handoff +
/// cache insert (the executor itself is trivial).
fn bench_submit_cold(c: &mut Criterion) {
    let scheduler = scheduler();
    // Distinct seed per iteration keeps every submission a cache miss.
    let seed = Cell::new(1_000_000u64);
    let mut group = c.benchmark_group("service");
    group.sample_size(10);
    group.bench_function("submit_cold", |b| {
        b.iter(|| {
            seed.set(seed.get() + 1);
            let submission = scheduler.submit(request_with_seed(seed.get())).expect("submits");
            if submission.status.state.is_terminal() {
                submission.status
            } else {
                scheduler
                    .wait_for(submission.status.id, Duration::from_secs(30))
                    .expect("completes")
            }
        })
    });
    group.finish();
}

/// The cache-hit path end to end: TCP connect, HTTP parse, scheduler
/// lookup, JSON response.
fn bench_http_cache_hit(c: &mut Criterion) {
    let executor: Executor =
        Arc::new(|request: &ExperimentRequest| Ok(format!("output for seed {}\n", request.seed)));
    let config = ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        cache_dir: None,
        ..ServiceConfig::default()
    };
    let service = Service::start(&config, executor).expect("starts");
    let addr = service.addr();
    let body =
        Value::obj(vec![("experiment", Value::Str("table1".to_owned())), ("seed", Value::U64(1))]);
    let timeout = Duration::from_secs(30);
    let warm = nemfpga_service::http_request(addr, "POST", "/v1/jobs", Some(&body), timeout)
        .expect("warms the cache");
    assert_eq!(warm.status, 200);

    let mut group = c.benchmark_group("service");
    group.sample_size(10);
    group.bench_function("http_cache_hit", |b| {
        b.iter(|| {
            let response =
                nemfpga_service::http_request(addr, "POST", "/v1/jobs", Some(&body), timeout)
                    .expect("responds");
            assert_eq!(response.status, 200);
            response
        })
    });
    group.finish();
    service.shutdown();
}

criterion_group!(
    benches,
    bench_job_key,
    bench_json_roundtrip,
    bench_submit_cache_hit,
    bench_submit_cold,
    bench_http_cache_hit,
);

fn main() {
    benches();
    // `BENCH_OUT` redirects the summary so multi-harness runs (the
    // check.sh --bench stage) can merge per-harness files instead of
    // last-writer-wins clobbering one path.
    let path = std::env::var("BENCH_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pnr.json").into());
    criterion::write_summary_json(&path);
}
