//! `loadgen` — synthetic concurrent client for the nemfpga service.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--requests N] [--concurrency C] [--unique K]
//!         [--passes P] [--threads T] [--seed S]
//!         [--chaos-restart] [--drain-grace-ms MS]
//!         [--cluster] [--peers A,B,C]
//! ```
//!
//! Drives `N` requests per pass (default 128) drawn from a pool of `K`
//! unique experiment requests (default 16) through `C` concurrent TCP
//! clients (default 64, all released by a barrier), for `P` passes
//! (default 2) — so the first pass exercises cold computes plus in-flight
//! coalescing and the second pass exercises the result cache.
//!
//! Without `--addr` it stands up an in-process service (ephemeral port,
//! throwaway cache directory) wired to the real experiment executor; with
//! `--addr` it targets an already-running `serve`.
//!
//! After each pass it reports client-side p50/p95 latency plus the
//! server's `/v1/metrics` deltas (cache hit ratio, coalesced
//! submissions), and at the end it verifies every served output
//! byte-for-byte against a direct in-process `render_experiment` call.
//! Exits nonzero if any response mismatches, if no submissions
//! coalesced, or if the final pass's cache hit ratio is not above 50%.
//!
//! All traffic goes through the typed
//! [`nemfpga_service::ServiceClient`] — loadgen is also a soak test of
//! the same client API other tooling uses.
//!
//! `--chaos-restart` runs the drain/restart scenario instead: it floods
//! an in-process journaled service with fire-and-forget submissions,
//! drains it mid-load (`--drain-grace-ms`, default 50, then cooperative
//! cancellation), restarts on the same cache + journal directories, and
//! asserts zero lost jobs — after recovery quiesces, every accepted
//! request's result must be served from `/v1/results/:key`,
//! byte-identical to a direct render, without any resubmission. All
//! waiting is condvar- or long-poll-based; there are no fixed sleeps to
//! tune.
//!
//! `--tenants` runs the fair-share scenario: three tenants with
//! weights 3:2:1 flood an in-process service with equal backlogs of
//! unique (uncacheable, uncoalescable) jobs, and mid-flood — while every
//! tenant is still backlogged — the per-tenant completion counters from
//! `/v1/metrics` must split within tolerance of the configured 1/2 :
//! 1/3 : 1/6 shares. At quiescence every tenant's ledger must balance
//! (all submitted jobs completed, zero rejections) and sampled results
//! must be byte-identical to a direct render.
//!
//! `--overload` runs the brownout scenario: a single slow worker is
//! flooded far past its capacity, and the adaptive overload controller
//! must degrade in stages — batch-lane sheds first, then fresh
//! computes, then a full 503 `overloaded` reject — before recovering
//! hysteretically once the backlog drains and a cached-only trickle
//! re-evaluates it back to normal. The run reconciles the ledger
//! exactly: every POST is either admitted (a hit, coalesce, or miss)
//! or shed (one of the three `overload_shed_*` counters); nothing is
//! double-counted and nothing vanishes.
//!
//! `--cluster` runs the multi-node scenario: a rendezvous-routing
//! client (the servers' own HRW hash, client-side) floods `--unique`
//! keys twice across a 3-node cluster — `--peers A,B,C` targets live
//! `serve --peers` nodes, otherwise an in-process trio is stood up.
//! Pass 1 must cost exactly one compute per key cluster-wide (the sum
//! of every node's cache misses equals the unique-key count); the
//! caches must then converge (byte-identical `/v1/cluster/digest` on
//! every node); and pass 2 must add zero misses anywhere — every
//! resubmission is a cross-node cache hit, so the aggregate pass-2 hit
//! ratio must clear 50%.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use nemfpga::request::{ExperimentKind, ExperimentRequest};
use nemfpga_bench::render::render_experiment;
use nemfpga_runtime::ParallelConfig;
use nemfpga_service::{
    http_request, job_key, ClusterSettings, Executor, JobState, Lane, QosPolicy, Service,
    ServiceClient, ServiceConfig,
};

const USAGE: &str = "usage: loadgen [--addr HOST:PORT] [--requests N] [--concurrency C] [--unique K]\n               [--passes P] [--threads T] [--seed S] [--chaos-restart]\n               [--drain-grace-ms MS] [--cluster] [--peers A,B,C] [--tenants]\n               [--overload]";

/// Experiments cheap enough to fan out by the dozen. The point of the
/// load test is queue/cache/dedup behavior, not experiment runtime.
const POOL_KINDS: [ExperimentKind; 4] =
    [ExperimentKind::Table1, ExperimentKind::Fig2b, ExperimentKind::Fig4, ExperimentKind::Fig11];

struct Options {
    addr: Option<String>,
    requests: usize,
    concurrency: usize,
    unique: usize,
    passes: usize,
    threads: usize,
    seed: u64,
    chaos_restart: bool,
    drain_grace: Duration,
    cluster: bool,
    peers: Option<Vec<String>>,
    tenants: bool,
    overload: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            addr: None,
            requests: 128,
            concurrency: 64,
            unique: 16,
            passes: 2,
            threads: 2,
            seed: 42,
            chaos_restart: false,
            drain_grace: Duration::from_millis(50),
            cluster: false,
            peers: None,
            tenants: false,
            overload: false,
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let options = match parse_args(&args) {
        Ok(o) => o,
        Err(message) => {
            eprintln!("loadgen: {message}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    if options.chaos_restart {
        std::process::exit(run_chaos_restart(&options));
    }
    if options.cluster {
        std::process::exit(run_cluster_mode(&options));
    }
    if options.tenants {
        std::process::exit(run_tenants_mode(&options));
    }
    if options.overload {
        std::process::exit(run_overload_mode(&options));
    }
    std::process::exit(run(&options));
}

/// The fair-share scenario behind `--tenants`: equal per-tenant
/// backlogs, weighted 3:2:1 service, completion shares checked
/// mid-flood against the configured weights.
fn run_tenants_mode(options: &Options) -> i32 {
    const TENANTS: [(&str, u32); 3] = [("alpha", 3), ("beta", 2), ("gamma", 1)];
    let weight_sum: u32 = TENANTS.iter().map(|(_, w)| w).sum();
    let per_tenant = options.requests;

    let parallel = ParallelConfig::with_threads(options.threads);
    // A few milliseconds per job keeps every tenant backlogged through
    // the measurement window without making the run slow.
    let executor: Executor = Arc::new(move |request: &ExperimentRequest| {
        std::thread::sleep(Duration::from_millis(3));
        Ok(render_experiment(request, &parallel))
    });
    let config = ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        parallel,
        // Hold all three backlogs at once: fairness is measured on the
        // scheduler, so admission must not clip the load first. The
        // memory cache must also keep every result so the byte
        // spot-check at the end can still see the earliest keys.
        queue_capacity: TENANTS.len() * per_tenant + 16,
        cache_capacity: TENANTS.len() * per_tenant + 16,
        cache_dir: None,
        qos: QosPolicy {
            weights: TENANTS.iter().map(|(t, w)| ((*t).to_owned(), *w)).collect(),
            ..QosPolicy::default()
        },
        ..ServiceConfig::default()
    };
    let service = match Service::start(&config, executor) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("loadgen: cannot start in-process service: {e}");
            return 1;
        }
    };
    let client = match ServiceClient::new(service.addr()) {
        Ok(c) => c.with_timeout(Duration::from_secs(300)),
        Err(e) => {
            eprintln!("loadgen: bad address: {e}");
            return 1;
        }
    };
    println!(
        "loadgen: tenants mode — {} jobs each for {} (weights {}) -> http://{}",
        per_tenant,
        TENANTS.map(|(t, _)| t).join("/"),
        TENANTS.map(|(_, w)| w.to_string()).join(":"),
        service.addr()
    );

    // Every submission is a fresh key (per-tenant seed bands), so
    // nothing coalesces or hits the cache — each one crosses the fair
    // queue. Fire-and-forget keeps the backlogs deep.
    let failures = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|s| {
        for (index, (tenant, _)) in TENANTS.iter().enumerate() {
            let client = client.clone();
            let failures = Arc::clone(&failures);
            s.spawn(move || {
                for i in 0..per_tenant {
                    let mut request = ExperimentRequest::new(ExperimentKind::Fig4);
                    request.seed = (index * 1_000_000 + i) as u64;
                    if let Err(e) = client.submit_as(&request, false, tenant, Lane::Interactive) {
                        failures.fetch_add(1, Ordering::Relaxed);
                        eprintln!("loadgen: submit as {tenant} failed: {e}");
                    }
                }
            });
        }
    });
    if failures.load(Ordering::Relaxed) > 0 {
        eprintln!("loadgen: FAIL: {} submissions rejected", failures.load(Ordering::Relaxed));
        service.shutdown();
        return 1;
    }

    // Sample completion shares mid-flood: once a third of the total
    // work is done, the heaviest tenant has finished at most half its
    // backlog, so all three are still queued and the weighted shares
    // must show. Long-poll /v1/metrics (no fixed sleeps to tune).
    let completed = |view: &nemfpga_service::MetricsView, tenant: &str| {
        view.counter(&format!("tenant_jobs_completed{{tenant=\"{tenant}\"}}")).unwrap_or(0)
    };
    let deadline = Instant::now() + Duration::from_secs(120);
    let mid: Vec<u64> = loop {
        let view = match client.metrics() {
            Ok(v) => v,
            Err(e) => {
                eprintln!("loadgen: GET /v1/metrics failed: {e}");
                service.shutdown();
                return 1;
            }
        };
        let counts: Vec<u64> = TENANTS.iter().map(|(t, _)| completed(&view, t)).collect();
        if counts.iter().sum::<u64>() >= per_tenant as u64 {
            break counts;
        }
        if Instant::now() > deadline {
            eprintln!("loadgen: FAIL: flood never reached the measurement point");
            service.shutdown();
            return 1;
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    let mid_total: u64 = mid.iter().sum();
    let mut failed = false;
    for ((tenant, weight), count) in TENANTS.iter().zip(&mid) {
        let share = *count as f64 / mid_total as f64;
        let expected = f64::from(*weight) / f64::from(weight_sum);
        println!(
            "  mid-flood: {tenant} completed {count} ({:.0}% of {mid_total}; weight says {:.0}%)",
            share * 100.0,
            expected * 100.0
        );
        // The pinned simulator test proves the dequeue pattern is
        // exactly periodic; the slack here only covers sampling at an
        // arbitrary point plus in-flight jobs.
        if (share - expected).abs() > 0.10 {
            eprintln!(
                "loadgen: FAIL: {tenant} mid-flood share {:.0}% is more than 10 points from \
                 its weighted {:.0}%",
                share * 100.0,
                expected * 100.0
            );
            failed = true;
        }
    }

    // Drain, then the ledgers must balance: everything submitted ran to
    // completion, nothing was rejected, nothing wedged.
    if !service.scheduler().await_quiesce(Duration::from_secs(120)) {
        eprintln!("loadgen: FAIL: tenant backlogs did not drain");
        service.shutdown();
        return 1;
    }
    let view = match client.metrics() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("loadgen: GET /v1/metrics failed: {e}");
            service.shutdown();
            return 1;
        }
    };
    for (tenant, _) in &TENANTS {
        let done = completed(&view, tenant);
        let rejected =
            view.counter(&format!("tenant_jobs_rejected{{tenant=\"{tenant}\"}}")).unwrap_or(0);
        if done != per_tenant as u64 || rejected != 0 {
            eprintln!(
                "loadgen: FAIL: {tenant} ledger off at quiescence: {done}/{per_tenant} \
                 completed, {rejected} rejected"
            );
            failed = true;
        }
    }

    // Spot-check served bytes against a direct render — fairness must
    // not have crossed any results between tenants.
    for (index, (tenant, _)) in TENANTS.iter().enumerate() {
        let mut request = ExperimentRequest::new(ExperimentKind::Fig4);
        request.seed = (index * 1_000_000) as u64;
        let key = job_key(&request).expect("pool requests are valid");
        match client.result(&key) {
            Ok(output) if output == render_experiment(&request, &ParallelConfig::serial()) => {}
            Ok(_) => {
                eprintln!("loadgen: BYTE MISMATCH for {tenant}'s seed {}", request.seed);
                failed = true;
            }
            Err(e) => {
                eprintln!("loadgen: {tenant}'s first result is missing: {e}");
                failed = true;
            }
        }
    }
    service.shutdown();
    if failed {
        return 1;
    }
    println!(
        "loadgen: OK — completion shares tracked the 3:2:1 weights mid-flood and every \
         tenant's {per_tenant} jobs completed with zero rejections"
    );
    0
}

/// The brownout scenario behind `--overload`: flood one slow worker,
/// watch the controller shed in stages up to a full reject, then prove
/// hysteretic recovery and reconcile the admission ledger exactly.
fn run_overload_mode(options: &Options) -> i32 {
    use nemfpga_service::json::Value;
    use nemfpga_service::{HardeningConfig, OverloadPolicy};

    // One worker, 25ms per job: a back-to-back flood outruns capacity
    // immediately, so queue waits blow through the 20ms enter threshold
    // within a handful of pickups.
    let executor: Executor = Arc::new(|request: &ExperimentRequest| {
        std::thread::sleep(Duration::from_millis(25));
        Ok(format!("overload-{}", request.seed))
    });
    let config = ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        parallel: ParallelConfig::with_threads(1),
        queue_capacity: 4096,
        cache_capacity: 4096,
        cache_dir: None,
        hardening: HardeningConfig {
            overload: OverloadPolicy {
                enter_wait_ms: 20,
                sample_ttl: Duration::from_millis(1200),
                min_dwell: Duration::from_millis(40),
                ..OverloadPolicy::default()
            },
            ..HardeningConfig::default()
        },
        ..ServiceConfig::default()
    };
    let service = match Service::start(&config, executor) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("loadgen: cannot start in-process service: {e}");
            return 1;
        }
    };
    let addr = service.addr();
    println!("loadgen: overload mode — flooding 1 worker at http://{addr} until stage reject");

    // Raw POSTs, not the typed client: the client's retry loop would
    // honor Retry-After on 503s and hide the sheds being measured.
    let post = |seed: u64, lane: &str, wait: bool| {
        let body = Value::obj(vec![
            ("experiment", Value::Str("fig4".to_owned())),
            ("seed", Value::U64(seed)),
            ("priority", Value::Str(lane.to_owned())),
            ("wait", Value::Bool(wait)),
        ]);
        http_request(addr, "POST", "/v1/jobs", Some(&body), Duration::from_secs(300))
    };
    let shed_message = |resp: &nemfpga_service::ClientResponse| {
        resp.body
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_owned()
    };

    // ── Flood: alternate lanes until the reject stage answers ─────────
    let mut posts = 0u64;
    let mut admitted = 0u64;
    let mut shed = 0u64;
    let mut saw_reject = false;
    let flood_cap = (options.requests as u64).max(64) * 10;
    for seed in 0..flood_cap {
        let lane = if seed % 2 == 0 { "interactive" } else { "batch" };
        let resp = match post(seed, lane, false) {
            Ok(resp) => resp,
            Err(e) => {
                eprintln!("loadgen: flood POST failed: {e}");
                service.shutdown();
                return 1;
            }
        };
        posts += 1;
        match resp.status {
            s if s < 300 => admitted += 1,
            503 => {
                shed += 1;
                if shed_message(&resp).contains("stage reject") {
                    saw_reject = true;
                    if seed + 1 >= options.requests as u64 {
                        break;
                    }
                }
            }
            other => {
                eprintln!("loadgen: FAIL: flood POST answered unexpected {other}");
                service.shutdown();
                return 1;
            }
        }
        std::thread::sleep(Duration::from_millis(3));
    }
    let peak_stage = service.scheduler().overload_stage();
    println!(
        "flood: {posts} posts -> {admitted} admitted, {shed} shed (stage {peak_stage} at peak)"
    );
    if !saw_reject {
        eprintln!("loadgen: FAIL: the flood never drove the controller to its reject stage");
        service.shutdown();
        return 1;
    }

    // ── Recovery: drain the backlog, then trickle cached requests ─────
    if !service.scheduler().await_quiesce(Duration::from_secs(120)) {
        eprintln!("loadgen: FAIL: the flooded backlog did not drain");
        service.shutdown();
        return 1;
    }
    // With the queue idle nothing re-evaluates the controller on its
    // own; a cached-key trickle supplies the heartbeat while the hot
    // wait samples age out and the stage steps back down one dwell at
    // a time.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let resp = match post(0, "interactive", false) {
            Ok(resp) => resp,
            Err(e) => {
                eprintln!("loadgen: trickle POST failed: {e}");
                service.shutdown();
                return 1;
            }
        };
        posts += 1;
        match resp.status {
            s if s < 300 => admitted += 1,
            503 => shed += 1,
            other => {
                eprintln!("loadgen: FAIL: trickle POST answered unexpected {other}");
                service.shutdown();
                return 1;
            }
        }
        if service.scheduler().overload_stage() == 0 {
            break;
        }
        if Instant::now() > deadline {
            eprintln!(
                "loadgen: FAIL: controller stuck at stage {} after the backlog drained",
                service.scheduler().overload_stage()
            );
            service.shutdown();
            return 1;
        }
        std::thread::sleep(Duration::from_millis(30));
    }

    // Back to normal: a fresh compute must be admitted end-to-end.
    let resp = match post(999_999, "interactive", true) {
        Ok(resp) => resp,
        Err(e) => {
            eprintln!("loadgen: post-recovery POST failed: {e}");
            service.shutdown();
            return 1;
        }
    };
    posts += 1;
    let mut failed = false;
    if resp.status < 300
        && resp.body.get("state").and_then(Value::as_str) == Some("done")
        && resp.body.get("output").and_then(Value::as_str) == Some("overload-999999")
    {
        admitted += 1;
    } else {
        eprintln!(
            "loadgen: FAIL: post-recovery submit answered {} (state {:?})",
            resp.status,
            resp.body.get("state").and_then(Value::as_str)
        );
        failed = true;
    }

    // ── Ledger reconciliation: exact, not approximate ─────────────────
    let metrics = service.metrics();
    let shed_batch = metrics.overload_shed_batch.get();
    let shed_fresh = metrics.overload_shed_fresh.get();
    let shed_reject = metrics.overload_shed_reject.get();
    let shed_total = shed_batch + shed_fresh + shed_reject;
    let transitions = metrics.overload_transitions.get();
    let submitted = metrics.jobs_submitted.get();
    let served = metrics.cache_hits() + metrics.coalesced.get() + metrics.cache_misses.get();
    println!(
        "ledger: {submitted} submitted = {served} served + {shed_total} shed \
         ({shed_batch} batch / {shed_fresh} fresh / {shed_reject} reject), \
         {transitions} stage transitions"
    );
    let checks: [(&str, bool); 6] = [
        ("every POST reached the scheduler", submitted == posts),
        ("server sheds match client 503s", shed_total == shed),
        ("admitted = hits + coalesced + misses", served == admitted),
        ("the ledger splits without loss", submitted == metrics.admission_ledger()),
        ("batch lane shed before fresh computes", shed_batch > 0 && shed_fresh > 0),
        ("the controller both climbed and recovered", transitions >= 2),
    ];
    for (what, ok) in checks {
        if !ok {
            eprintln!("loadgen: FAIL: {what}");
            failed = true;
        }
    }
    service.shutdown();
    if failed {
        return 1;
    }
    println!(
        "loadgen: OK — staged brownout shed {shed_total} of {posts} posts, recovered to \
         normal, and the admission ledger reconciled exactly"
    );
    0
}

/// The drain/restart scenario: flood, drain mid-load, restart on the
/// same state, prove no accepted job was lost.
fn run_chaos_restart(options: &Options) -> i32 {
    if options.addr.is_some() {
        eprintln!("loadgen: --chaos-restart drives its own in-process service, not --addr");
        return 2;
    }
    let scratch =
        std::env::temp_dir().join(format!("nemfpga-loadgen-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let config = ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        parallel: ParallelConfig::with_threads(options.threads),
        cache_dir: Some(scratch.join("cache")),
        journal_path: Some(scratch.join("journal.log")),
        ..ServiceConfig::default()
    };
    let parallel = config.parallel;
    let computes = Arc::new(AtomicU64::new(0));
    let executor: Executor = {
        let computes = Arc::clone(&computes);
        Arc::new(move |request: &ExperimentRequest| {
            computes.fetch_add(1, Ordering::Relaxed);
            Ok(render_experiment(request, &parallel))
        })
    };

    let service = match Service::start(&config, Arc::clone(&executor)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("loadgen: cannot start in-process service: {e}");
            return 1;
        }
    };
    let client = match ServiceClient::new(service.addr()) {
        Ok(c) => c.with_timeout(Duration::from_secs(300)),
        Err(e) => {
            eprintln!("loadgen: bad address: {e}");
            return 1;
        }
    };

    // Flood with fire-and-forget submissions (wait=false returns on
    // enqueue) while a drainer thread pulls the plug halfway through the
    // schedule — the drain genuinely lands mid-load, so late submitters
    // see 503/refused (legal rejections) and queued jobs get cancelled
    // with their journal records left open.
    let pool = Arc::new(request_pool(options.unique));
    let schedule = workload(&pool, options.requests, options.seed);
    let next = Arc::new(AtomicUsize::new(0));
    let gate = Arc::new(Barrier::new(options.concurrency + 1));
    let accepted: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let rejected = Arc::new(AtomicUsize::new(0));
    let halfway = schedule.len() / 2;
    let clean = std::thread::scope(|s| {
        for _ in 0..options.concurrency {
            let (next, gate) = (Arc::clone(&next), Arc::clone(&gate));
            let (accepted, rejected) = (Arc::clone(&accepted), Arc::clone(&rejected));
            let (schedule, pool, client) = (schedule.clone(), Arc::clone(&pool), client.clone());
            s.spawn(move || {
                gate.wait();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&pool_index) = schedule.get(i) else { break };
                    match client.submit(&pool[pool_index], false) {
                        Ok(_) => accepted.lock().expect("accepted lock").push(pool_index),
                        // Backpressure (429) and draining (503 or a
                        // refused connection) are legal answers here;
                        // acceptance is what creates the obligation the
                        // restart must honor.
                        Err(_) => {
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
        let drainer = {
            let (next, gate) = (Arc::clone(&next), Arc::clone(&gate));
            s.spawn(move || {
                gate.wait();
                while next.load(Ordering::Relaxed) < halfway {
                    std::thread::yield_now();
                }
                service.drain(options.drain_grace)
            })
        };
        drainer.join().expect("drainer panicked")
    });
    let mut accepted: Vec<usize> = accepted.lock().expect("accepted lock").clone();
    accepted.sort_unstable();
    accepted.dedup();
    let computes_before = computes.load(Ordering::Relaxed);
    println!(
        "chaos-restart: {} accepted ({} rejected), {} computed before the mid-load drain \
         ({}ms grace)",
        accepted.len(),
        rejected.load(Ordering::Relaxed),
        computes_before,
        options.drain_grace.as_millis()
    );
    if accepted.is_empty() {
        eprintln!("loadgen: FAIL: nothing was accepted before the drain");
        return 1;
    }

    // Restart on the same directories.
    let service = match Service::start(&config, executor) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("loadgen: restart on the same state failed: {e}");
            return 1;
        }
    };
    let recovered = service.metrics().jobs_recovered.get();
    println!(
        "chaos-restart: drain {}; restart recovered {} journaled job(s)",
        if clean { "finished within grace" } else { "cancelled stragglers" },
        recovered
    );

    // Recovery replays run on the scheduler's own workers; block on its
    // condvar (not a sleep) until every replayed job is terminal.
    if !service.scheduler().await_quiesce(Duration::from_secs(120)) {
        eprintln!("loadgen: FAIL: recovered jobs did not quiesce");
        return 1;
    }

    // Zero lost jobs: every accepted request must now be served from
    // /v1/results — no resubmission — byte-identical to a direct render.
    let client = match ServiceClient::new(service.addr()) {
        Ok(c) => c.with_timeout(Duration::from_secs(300)),
        Err(e) => {
            eprintln!("loadgen: bad address: {e}");
            return 1;
        }
    };
    let mut lost = 0usize;
    let mut mismatches = 0usize;
    for &pool_index in &accepted {
        let request = &pool[pool_index];
        let key = job_key(request).expect("pool requests are valid");
        match client.result(&key) {
            Ok(output) => {
                if output != render_experiment(request, &ParallelConfig::serial()) {
                    mismatches += 1;
                    eprintln!("loadgen: BYTE MISMATCH for {}", request.experiment);
                }
            }
            Err(e) => {
                lost += 1;
                eprintln!("loadgen: LOST JOB {}: {e}", request.experiment);
            }
        }
    }
    let recomputed = computes.load(Ordering::Relaxed) - computes_before;
    service.shutdown();
    let _ = std::fs::remove_dir_all(&scratch);

    if lost > 0 || mismatches > 0 {
        eprintln!("loadgen: FAIL: {lost} lost jobs, {mismatches} byte mismatches after restart");
        return 1;
    }
    println!(
        "loadgen: OK — zero lost jobs: all {} accepted keys served byte-identical after \
         drain+restart ({recovered} recovered, {recomputed} recomputed)",
        accepted.len()
    );
    0
}

/// The multi-node scenario behind `--cluster`: two passes of unique
/// keys through a rendezvous-routing client against a 3-node cluster,
/// asserting single-compute, convergence, and cross-node cache hits.
fn run_cluster_mode(options: &Options) -> i32 {
    let scratch =
        std::env::temp_dir().join(format!("nemfpga-loadgen-cluster-{}", std::process::id()));
    let mut services: Vec<Service> = Vec::new();
    let labels: Vec<String> = match &options.peers {
        Some(peers) => peers.clone(),
        None => {
            let _ = std::fs::remove_dir_all(&scratch);
            // Cluster labels must be known before any node binds, so
            // reserve ephemeral ports up front.
            let addrs: Vec<std::net::SocketAddr> = (0..3)
                .map(|_| {
                    let listener =
                        std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port");
                    listener.local_addr().expect("reserved port")
                })
                .collect();
            let labels: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
            for (i, label) in labels.iter().enumerate() {
                let mut settings = ClusterSettings::new(label.clone(), labels.clone());
                // Convergence is driven explicitly below, keeping the
                // pass boundaries deterministic.
                settings.sync_interval = Duration::from_secs(3600);
                settings.seed = options.seed.wrapping_add(i as u64);
                settings.max_pull_per_round = 1024;
                let parallel = ParallelConfig::with_threads(options.threads);
                let executor: Executor = Arc::new(move |request: &ExperimentRequest| {
                    Ok(render_experiment(request, &parallel))
                });
                let config = ServiceConfig {
                    addr: label.clone(),
                    parallel,
                    cache_dir: Some(scratch.join(format!("node-{i}/cache"))),
                    journal_path: Some(scratch.join(format!("node-{i}/journal.log"))),
                    cluster: Some(settings),
                    ..ServiceConfig::default()
                };
                match Service::start(&config, executor) {
                    Ok(s) => services.push(s),
                    Err(e) => {
                        eprintln!("loadgen: cannot start cluster node {label}: {e}");
                        return 1;
                    }
                }
            }
            labels
        }
    };
    println!(
        "loadgen: cluster mode — {} unique keys x 2 passes over {} nodes [{}]",
        options.unique,
        labels.len(),
        labels.join(", ")
    );

    let client = match ServiceClient::new(labels[0].as_str())
        .and_then(|c| c.with_timeout(Duration::from_secs(300)).with_peers(&labels))
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("loadgen: cannot arm cluster routing: {e}");
            return 1;
        }
    };
    let node_clients: Vec<ServiceClient> = match labels
        .iter()
        .map(|label| {
            ServiceClient::new(label.as_str()).map(|c| c.with_timeout(Duration::from_secs(30)))
        })
        .collect::<Result<_, _>>()
    {
        Ok(clients) => clients,
        Err(e) => {
            eprintln!("loadgen: bad peer address: {e}");
            return 1;
        }
    };

    let pool = Arc::new(request_pool(options.unique));
    let expected: Vec<String> =
        pool.iter().map(|request| render_experiment(request, &ParallelConfig::serial())).collect();

    let mut failed = false;
    for pass in 1..=2usize {
        let before = match cluster_metrics(&node_clients) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("loadgen: {e}");
                return 1;
            }
        };
        let next = Arc::new(AtomicUsize::new(0));
        let concurrency = options.concurrency.min(pool.len()).max(1);
        let mismatches = Arc::new(AtomicUsize::new(0));
        let failures = Arc::new(AtomicUsize::new(0));
        let pass_start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..concurrency {
                let next = Arc::clone(&next);
                let (pool, client) = (Arc::clone(&pool), client.clone());
                let (mismatches, failures) = (Arc::clone(&mismatches), Arc::clone(&failures));
                let expected = &expected;
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= pool.len() {
                        break;
                    }
                    match submit(&client, i, &pool[i]).output {
                        Ok(output) if output == expected[i] => {}
                        Ok(_) => {
                            mismatches.fetch_add(1, Ordering::Relaxed);
                            eprintln!("loadgen: BYTE MISMATCH for {}", pool[i].experiment);
                        }
                        Err(e) => {
                            failures.fetch_add(1, Ordering::Relaxed);
                            eprintln!("loadgen: request failed: {e}");
                        }
                    }
                });
            }
        });
        let wall = pass_start.elapsed();
        let after = match cluster_metrics(&node_clients) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("loadgen: {e}");
                return 1;
            }
        };
        let hits = after.hits - before.hits;
        let misses = after.misses - before.misses;
        let lookups = hits + misses;
        let hit_ratio = if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 };
        println!(
            "pass {pass}: {} keys in {:.1}ms  cluster-wide: {hits} hits / {misses} misses \
             (hit ratio {:.0}%)",
            pool.len(),
            wall.as_secs_f64() * 1e3,
            hit_ratio * 100.0,
        );
        if mismatches.load(Ordering::Relaxed) > 0 || failures.load(Ordering::Relaxed) > 0 {
            eprintln!(
                "loadgen: FAIL: {} byte mismatches, {} request failures in pass {pass}",
                mismatches.load(Ordering::Relaxed),
                failures.load(Ordering::Relaxed)
            );
            failed = true;
        }
        if pass == 1 {
            if misses != pool.len() as u64 {
                eprintln!(
                    "loadgen: FAIL: pass 1 cost {misses} computes across the cluster for {} \
                     unique keys (wanted exactly one each)",
                    pool.len()
                );
                failed = true;
            }
            // Converge before pass 2: drive sync rounds directly for the
            // in-process trio, wait out the background cadence for a
            // live fleet; either way the digests must end byte-equal.
            for _ in 0..2 {
                for service in &services {
                    service.cluster().expect("node is clustered").sync_now();
                }
            }
            if let Err(e) = await_digest_convergence(&labels, services.is_empty()) {
                eprintln!("loadgen: FAIL: {e}");
                failed = true;
            }
        } else {
            if misses != 0 {
                eprintln!(
                    "loadgen: FAIL: pass 2 recomputed {misses} keys (every resubmission must \
                     be a cache hit somewhere in the cluster)"
                );
                failed = true;
            }
            if hit_ratio <= 0.5 {
                eprintln!(
                    "loadgen: FAIL: pass 2 cross-node hit ratio {:.0}% (expected > 50%)",
                    hit_ratio * 100.0
                );
                failed = true;
            }
        }
    }

    for service in services {
        service.shutdown();
    }
    let _ = std::fs::remove_dir_all(&scratch);
    if failed {
        return 1;
    }
    println!(
        "loadgen: OK — {} unique keys computed once cluster-wide, caches converged, \
         second pass served entirely from cache",
        options.unique
    );
    0
}

/// Sums every node's cache counters (hits = memory + disk).
struct ClusterSnapshot {
    hits: u64,
    misses: u64,
}

fn cluster_metrics(node_clients: &[ServiceClient]) -> Result<ClusterSnapshot, String> {
    let mut total = ClusterSnapshot { hits: 0, misses: 0 };
    for client in node_clients {
        let snapshot = fetch_metrics(client)?;
        total.hits += snapshot.hits;
        total.misses += snapshot.misses;
    }
    Ok(total)
}

/// Blocks until every node serves a byte-identical `/v1/cluster/digest`
/// entry list. `poll` = retry on a live fleet whose background sync
/// runs on its own cadence; an in-process trio was synced explicitly
/// and must already agree.
fn await_digest_convergence(labels: &[String], poll: bool) -> Result<(), String> {
    let attempts = if poll { 100 } else { 1 };
    let mut last = String::new();
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(100));
        }
        let mut digests = Vec::with_capacity(labels.len());
        for label in labels {
            use std::net::ToSocketAddrs;
            let addr = label
                .to_socket_addrs()
                .map_err(|e| format!("peer `{label}`: {e}"))?
                .next()
                .ok_or_else(|| format!("peer `{label}` resolves to nothing"))?;
            let resp =
                http_request(addr, "GET", "/v1/cluster/digest", None, Duration::from_secs(30))?;
            if resp.status != 200 {
                return Err(format!("{label} answered {} for /v1/cluster/digest", resp.status));
            }
            let entries = resp
                .body
                .get("entries")
                .ok_or_else(|| format!("{label} digest body missing `entries`"))?;
            digests.push(entries.to_json());
        }
        if digests.windows(2).all(|pair| pair[0] == pair[1]) {
            return Ok(());
        }
        last = format!("digests still diverge across [{}]", labels.join(", "));
    }
    Err(format!("caches did not converge: {last}"))
}

fn run(options: &Options) -> i32 {
    // Stand up an in-process service unless one was pointed at.
    let service = if options.addr.is_none() {
        let parallel = ParallelConfig::with_threads(options.threads);
        let executor: Executor =
            Arc::new(move |request: &ExperimentRequest| Ok(render_experiment(request, &parallel)));
        let config = ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            parallel,
            cache_dir: Some(
                std::env::temp_dir().join(format!("nemfpga-loadgen-{}", std::process::id())),
            ),
            ..ServiceConfig::default()
        };
        match Service::start(&config, executor) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("loadgen: cannot start in-process service: {e}");
                return 1;
            }
        }
    } else {
        None
    };
    let addr = match &service {
        Some(s) => s.addr().to_string(),
        None => options.addr.clone().expect("external addr"),
    };
    println!(
        "loadgen: {} requests/pass x {} passes, {} concurrent clients, {} unique requests -> http://{addr}",
        options.requests, options.passes, options.concurrency, options.unique
    );

    let pool = Arc::new(request_pool(options.unique));
    let workload = workload(&pool, options.requests, options.seed);
    let client = match ServiceClient::new(addr.as_str()) {
        Ok(c) => c.with_timeout(Duration::from_secs(300)),
        Err(e) => {
            eprintln!("loadgen: bad address {addr}: {e}");
            return 1;
        }
    };

    // Expected outputs, computed the way `repro` would print them.
    let expected: Vec<String> =
        pool.iter().map(|request| render_experiment(request, &ParallelConfig::serial())).collect();

    let mut mismatches = 0usize;
    let mut failures = 0usize;
    let mut total_coalesced = 0u64;
    let mut last_pass_hit_ratio = 0.0f64;

    for pass in 1..=options.passes {
        let before = match fetch_metrics(&client) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("loadgen: GET /v1/metrics failed: {e}");
                return 1;
            }
        };

        let next = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new(Barrier::new(options.concurrency));
        let outcomes: Arc<Mutex<Vec<Outcome>>> = Arc::new(Mutex::new(Vec::new()));
        let pass_start = Instant::now();
        let mut clients = Vec::new();
        for _ in 0..options.concurrency {
            let next = Arc::clone(&next);
            let gate = Arc::clone(&gate);
            let outcomes = Arc::clone(&outcomes);
            let workload = workload.clone();
            let pool = Arc::clone(&pool);
            let client = client.clone();
            clients.push(std::thread::spawn(move || {
                gate.wait();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&pool_index) = workload.get(i) else { break };
                    let outcome = submit(&client, pool_index, &pool[pool_index]);
                    outcomes.lock().expect("outcome lock").push(outcome);
                }
            }));
        }
        for client in clients {
            let _ = client.join();
        }
        let wall = pass_start.elapsed();

        let after = match fetch_metrics(&client) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("loadgen: GET /v1/metrics failed: {e}");
                return 1;
            }
        };

        let outcomes = outcomes.lock().expect("outcome lock");
        let mut latencies: Vec<f64> = Vec::with_capacity(outcomes.len());
        for outcome in outcomes.iter() {
            latencies.push(outcome.latency.as_secs_f64() * 1e3);
            match &outcome.output {
                Ok(output) if *output == expected[outcome.pool_index] => {}
                Ok(_) => {
                    mismatches += 1;
                    eprintln!("loadgen: BYTE MISMATCH for {}", pool[outcome.pool_index].experiment);
                }
                Err(e) => {
                    failures += 1;
                    eprintln!("loadgen: request failed: {e}");
                }
            }
        }
        let (p50, p95) = percentiles(&latencies);

        let hits = after.hits - before.hits;
        let misses = after.misses - before.misses;
        let coalesced = after.coalesced - before.coalesced;
        let lookups = hits + misses;
        let hit_ratio = if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 };
        total_coalesced += coalesced;
        last_pass_hit_ratio = hit_ratio;

        println!(
            "pass {pass}: {} responses in {:.1}ms  p50={p50:.1}ms p95={p95:.1}ms",
            outcomes.len(),
            wall.as_secs_f64() * 1e3,
        );
        println!(
            "         cache: {hits} hits / {misses} misses (hit ratio {:.0}%), {coalesced} coalesced",
            hit_ratio * 100.0,
        );
    }

    if let Some(s) = service {
        s.shutdown();
    }

    let mut failed = false;
    if mismatches > 0 || failures > 0 {
        eprintln!("loadgen: FAIL: {mismatches} byte mismatches, {failures} request failures");
        failed = true;
    }
    if total_coalesced == 0 {
        eprintln!(
            "loadgen: FAIL: no submissions coalesced (expected concurrent duplicates to dedup)"
        );
        failed = true;
    }
    if options.passes >= 2 && last_pass_hit_ratio <= 0.5 {
        eprintln!(
            "loadgen: FAIL: final pass hit ratio {:.0}% (expected > 50%)",
            last_pass_hit_ratio * 100.0
        );
        failed = true;
    }
    if failed {
        return 1;
    }
    println!(
        "loadgen: OK — every response byte-identical to direct repro, {total_coalesced} coalesced, final hit ratio {:.0}%",
        last_pass_hit_ratio * 100.0
    );
    0
}

struct Outcome {
    pool_index: usize,
    latency: Duration,
    /// Served output, or a request-level error.
    output: Result<String, String>,
}

fn submit(client: &ServiceClient, pool_index: usize, request: &ExperimentRequest) -> Outcome {
    let start = Instant::now();
    let output = client.submit(request, true).map_err(|e| e.to_string()).and_then(|job| {
        if job.state != JobState::Done {
            return Err(format!("job {} ended {}", job.id, job.state.name()));
        }
        job.output.ok_or_else(|| "done job has no output".to_owned())
    });
    Outcome { pool_index, latency: start.elapsed(), output }
}

/// The first `unique` requests of the deterministic pool: cheap
/// experiment kinds cycled against distinct seeds.
fn request_pool(unique: usize) -> Vec<ExperimentRequest> {
    (0..unique)
        .map(|i| {
            let mut request = ExperimentRequest::new(POOL_KINDS[i % POOL_KINDS.len()]);
            request.seed = 42 + (i / POOL_KINDS.len()) as u64;
            request
        })
        .collect()
}

/// `requests` pool indices, each unique request repeated ~evenly, then
/// deterministically shuffled so duplicates land close together in time
/// across concurrent clients (that is what exercises coalescing).
fn workload(pool: &[ExperimentRequest], requests: usize, seed: u64) -> Vec<usize> {
    let mut indices: Vec<usize> = (0..requests).map(|i| i % pool.len()).collect();
    // Fisher-Yates with a SplitMix64 stream (no external RNG dep).
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..indices.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        indices.swap(i, j);
    }
    indices
}

struct MetricsSnapshot {
    hits: u64,
    misses: u64,
    coalesced: u64,
}

fn fetch_metrics(client: &ServiceClient) -> Result<MetricsSnapshot, String> {
    let view = client.metrics().map_err(|e| e.to_string())?;
    let counter = |name: &str| {
        view.counter(name).ok_or_else(|| format!("/v1/metrics has no `{name}` counter"))
    };
    Ok(MetricsSnapshot {
        hits: counter("cache_hits_memory")? + counter("cache_hits_disk")?,
        misses: counter("cache_misses")?,
        coalesced: counter("coalesced")?,
    })
}

fn percentiles(samples: &[f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let pick = |q: f64| {
        let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    };
    (pick(0.50), pick(0.95))
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => options.addr = Some(it.next().ok_or("--addr needs HOST:PORT")?.clone()),
            "--requests" => {
                options.requests = parse_value(it.next(), "--requests", "a count")?;
            }
            "--concurrency" => {
                options.concurrency = parse_value(it.next(), "--concurrency", "a count")?;
            }
            "--unique" => options.unique = parse_value(it.next(), "--unique", "a count")?,
            "--passes" => options.passes = parse_value(it.next(), "--passes", "a count")?,
            "--threads" => options.threads = parse_value(it.next(), "--threads", "a count")?,
            "--seed" => options.seed = parse_value(it.next(), "--seed", "an integer")?,
            "--chaos-restart" => options.chaos_restart = true,
            "--cluster" => options.cluster = true,
            "--tenants" => options.tenants = true,
            "--overload" => options.overload = true,
            "--peers" => {
                let list = it.next().ok_or("--peers needs a comma-separated node list")?;
                let parsed: Vec<String> = list
                    .split(',')
                    .map(str::trim)
                    .filter(|p| !p.is_empty())
                    .map(Into::into)
                    .collect();
                if parsed.len() < 2 {
                    return Err("--peers needs at least two nodes".to_owned());
                }
                options.peers = Some(parsed);
            }
            "--drain-grace-ms" => {
                options.drain_grace = Duration::from_millis(parse_value(
                    it.next(),
                    "--drain-grace-ms",
                    "milliseconds",
                )?);
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if options.requests == 0
        || options.concurrency == 0
        || options.unique == 0
        || options.passes == 0
    {
        return Err("--requests, --concurrency, --unique, and --passes must be positive".to_owned());
    }
    if options.peers.is_some() && !options.cluster {
        return Err("--peers only applies with --cluster".to_owned());
    }
    if options.cluster && (options.chaos_restart || options.addr.is_some()) {
        return Err("--cluster is its own scenario (no --addr / --chaos-restart)".to_owned());
    }
    if options.tenants && (options.cluster || options.chaos_restart || options.addr.is_some()) {
        return Err(
            "--tenants is its own scenario (no --addr / --cluster / --chaos-restart)".to_owned()
        );
    }
    if options.overload
        && (options.tenants || options.cluster || options.chaos_restart || options.addr.is_some())
    {
        return Err("--overload is its own scenario (it drives an in-process service)".to_owned());
    }
    Ok(options)
}

fn parse_value<T: std::str::FromStr>(
    value: Option<&String>,
    flag: &str,
    expected: &str,
) -> Result<T, String> {
    let text = value.ok_or_else(|| format!("{flag} needs {expected}"))?;
    text.parse().map_err(|_| format!("{flag} needs {expected}, got '{text}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_and_covers_the_pool() {
        let pool = request_pool(8);
        let a = workload(&pool, 64, 7);
        let b = workload(&pool, 64, 7);
        assert_eq!(a, b);
        for index in 0..pool.len() {
            assert!(a.contains(&index), "pool entry {index} never scheduled");
        }
    }

    #[test]
    fn pool_entries_are_unique_requests() {
        let pool = request_pool(16);
        for (i, a) in pool.iter().enumerate() {
            for b in &pool[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
