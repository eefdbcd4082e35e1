//! `served_hot` and `served_cold`: jobs through `serve` from a closed
//! loop of two clients, each submitting with `wait=true` and sending its
//! next request only after the previous response arrived.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use nemfpga::request::ExperimentRequest;
use nemfpga_bench::render::render_experiment;
use nemfpga_runtime::{parallel_map, ParallelConfig};
use nemfpga_service::sha::sha256_hex;
use nemfpga_service::{JobState, ServiceClient};

use crate::child::{self, Server};
use crate::flow;
use crate::report::{metric, Outcome};
use crate::stats::{least_half, median, minimum, tail, Tail};
use crate::stream::{cold_request, hot_index, mix, warm_set};
use crate::trace;
use crate::Ctx;

/// Client threads (and so connections open at once): the host's 2 CPUs.
const CLIENTS: usize = 2;

/// Rounds per run at the least.
const MIN_ROUNDS: usize = 3;

/// Rounds of the traced run and of its untraced comparison: a fixed
/// count, so the traced counters repeat exactly for a seed.
const TRACE_ROUNDS: usize = 2;

/// Cold jobs whose digests are recorded for the default seed.
pub const RECORDED_COLD_JOBS: u64 = 2000;

/// Cold jobs re-rendered directly after every run, whatever the seed.
const COLD_SAMPLE: u64 = 4;

/// Which served workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Every job a cache hit on the warm set.
    Hot,
    /// Every job a unique CAD computation.
    Cold,
}

impl Kind {
    /// Jobs per round: the unit `wall_s`, `cpu_s` and `job_tail_ms` take
    /// their medians over.
    fn round_jobs(self) -> u64 {
        match self {
            Kind::Hot => 4000,
            // Six passes over the seven-entry cold mix.
            Kind::Cold => 42,
        }
    }

    /// Server set-ups per run: `setup_s` is the fastest of them. The
    /// first serves the timed section; the others are spares, started
    /// and stopped between rounds so that they sample the host over the
    /// whole run. A hot set-up (with its warm-up) takes 0.3 s, a cold
    /// one 2 ms.
    fn setups(self) -> usize {
        match self {
            Kind::Hot => 8,
            Kind::Cold => 100,
        }
    }

    /// Spare set-ups between two rounds: the set-ups spread over about
    /// ten cold rounds, or one per hot round.
    fn spares_per_round(self) -> usize {
        match self {
            Kind::Hot => 1,
            Kind::Cold => 10,
        }
    }
}

/// The requests of one run, and the responses kept for checking after
/// the timed section. Checking inline is one string comparison (hot) or
/// one digest (cold) per job.
struct Traffic {
    kind: Kind,
    seed: u64,
    warm: Vec<ExperimentRequest>,
    /// Hot: the first output served for each warm-set entry.
    first: Vec<OnceLock<String>>,
    /// Hot: responses served per warm-set entry.
    per_entry: Vec<AtomicU64>,
    /// Cold: output digest per stream index.
    digests: Mutex<BTreeMap<u64, String>>,
}

impl Traffic {
    fn new(kind: Kind, seed: u64) -> Self {
        let warm = warm_set();
        Self {
            kind,
            seed,
            first: warm.iter().map(|_| OnceLock::new()).collect(),
            per_entry: warm.iter().map(|_| AtomicU64::new(0)).collect(),
            warm,
            digests: Mutex::new(BTreeMap::new()),
        }
    }

    /// Job `i` of the stream.
    fn request(&self, i: u64) -> ExperimentRequest {
        match self.kind {
            Kind::Hot => self.warm[hot_index(self.seed, i, self.warm.len())],
            Kind::Cold => cold_request(self.seed, i),
        }
    }

    /// Records job `i`'s output; false when it already disagrees with
    /// an earlier response to the same request.
    fn accept(&self, i: u64, output: &str) -> bool {
        match self.kind {
            Kind::Hot => {
                let entry = hot_index(self.seed, i, self.first.len());
                self.per_entry[entry].fetch_add(1, Ordering::Relaxed);
                self.first[entry].get_or_init(|| output.to_owned()) == output
            }
            Kind::Cold => {
                self.digests
                    .lock()
                    .expect("no client panics holding it")
                    .insert(i, sha256_hex(output.as_bytes()));
                true
            }
        }
    }

    /// Checks what was kept against direct renders (and, for the recorded
    /// seed, the recorded cold digests). Returns the failed job count.
    fn verify(&self, ctx: &Ctx) -> Result<u64, String> {
        let parallel = ParallelConfig::with_threads(2);
        match self.kind {
            Kind::Hot => {
                let rendered =
                    parallel_map(&parallel, &self.warm, |_, r| render_experiment(r, &parallel));
                Ok(self
                    .first
                    .iter()
                    .zip(&rendered)
                    .zip(&self.per_entry)
                    .filter(|((first, want), _)| first.get().is_some_and(|got| got != *want))
                    .map(|(_, served)| served.load(Ordering::Relaxed))
                    .sum())
            }
            Kind::Cold => {
                let digests = self.digests.lock().expect("clients have finished");
                let mut bad: Vec<u64> = Vec::new();
                if ctx.seed == crate::RECORDED_SEED {
                    let path = ctx.expected.join("cold_seed42.digests");
                    let text = std::fs::read_to_string(&path)
                        .map_err(|e| format!("{}: {e}", path.display()))?;
                    for (i, want) in text.lines().enumerate() {
                        if digests.get(&(i as u64)).is_some_and(|got| !got.starts_with(want)) {
                            bad.push(i as u64);
                        }
                    }
                }
                let n = digests.len() as u64;
                let sample: Vec<u64> =
                    (0..COLD_SAMPLE.min(n)).map(|k| mix(self.seed.wrapping_add(k)) % n).collect();
                let rendered = parallel_map(&parallel, &sample, |_, &i| {
                    sha256_hex(render_experiment(&cold_request(self.seed, i), &parallel).as_bytes())
                });
                for (i, want) in sample.iter().zip(rendered) {
                    if digests.get(i) != Some(&want) {
                        bad.push(*i);
                    }
                }
                bad.sort_unstable();
                bad.dedup();
                Ok(bad.len() as u64)
            }
        }
    }
}

/// What a closed loop measured.
#[derive(Default)]
struct Loop {
    /// Each round's job latencies (ms).
    round_latencies: Vec<Vec<f64>>,
    attempted: u64,
    failed: u64,
    round_walls: Vec<f64>,
    round_cpu: Vec<f64>,
    /// Host steal (s, over all CPUs) during each round: time the
    /// hypervisor gave the machine's CPUs to someone else while they
    /// wanted to run.
    round_steal: Vec<f64>,
    /// Peak resident memory (MiB) of the measured process once
    /// [`MIN_ROUNDS`] rounds have run. A cold server's caches grow with
    /// every job, so the peak at the end of a timed run would grow with
    /// the host's speed; after a fixed number of rounds it measures a
    /// fixed amount of work.
    peak_rss_mb: f64,
}

/// When a closed loop stops starting rounds.
#[derive(Clone, Copy)]
enum Stop {
    /// After exactly this many rounds.
    Rounds(usize),
    /// After one untimed warm-up round, once this many seconds have
    /// passed and [`MIN_ROUNDS`] timed rounds ran. The warm-up's jobs are
    /// checked like the others.
    Seconds(f64),
}

/// Runs rounds of `round_jobs()` jobs of `traffic` against `addr` from
/// [`CLIENTS`] closed-loop clients until `stop`, calling `between` after
/// each timed round. With `pid`, each round's CPU is read from that
/// process.
fn closed_loop(
    addr: SocketAddr,
    traffic: &Traffic,
    stop: Stop,
    pid: Option<u32>,
    between: &mut dyn FnMut() -> std::io::Result<()>,
) -> std::io::Result<Loop> {
    let round_jobs = traffic.kind.round_jobs();
    let mut out = Loop::default();
    let mut t0 = Instant::now();
    for round in 0.. {
        let warm_up = matches!(stop, Stop::Seconds(_)) && round == 0;
        let done = match stop {
            Stop::Rounds(n) => round >= n,
            Stop::Seconds(s) => {
                out.round_walls.len() >= MIN_ROUNDS && t0.elapsed().as_secs_f64() >= s
            }
        };
        if done {
            break;
        }
        let base = round as u64 * round_jobs;
        let next = AtomicU64::new(base);
        let cpu0 = pid.map(child::cpu_seconds);
        let steal0 = child::host_steal_seconds();
        let start = Instant::now();
        let per_client: Vec<(Vec<f64>, u64)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    scope.spawn(|| {
                        let client = ServiceClient::new(addr)
                            .expect("a socket address is a valid client target")
                            .with_timeout(Duration::from_secs(120));
                        let mut latencies = Vec::new();
                        let mut failed = 0u64;
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= base + round_jobs {
                                break;
                            }
                            let request = traffic.request(i);
                            let t = Instant::now();
                            let result = client.submit(&request, true);
                            latencies.push(t.elapsed().as_secs_f64() * 1e3);
                            let ok = result.is_ok_and(|job| {
                                job.state == JobState::Done
                                    && job.output.as_deref().is_some_and(|o| traffic.accept(i, o))
                            });
                            failed += u64::from(!ok);
                        }
                        (latencies, failed)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("client threads never panic")).collect()
        });
        if warm_up {
            for (latencies, failed) in per_client {
                out.attempted += latencies.len() as u64;
                out.failed += failed;
            }
            t0 = Instant::now();
            continue;
        }
        out.round_walls.push(start.elapsed().as_secs_f64());
        out.round_steal.push(child::host_steal_seconds() - steal0);
        if let (Some(pid), Some(cpu0)) = (pid, cpu0) {
            out.round_cpu.push(child::cpu_seconds(pid) - cpu0);
            if out.round_walls.len() == MIN_ROUNDS {
                out.peak_rss_mb = child::peak_rss_mb(pid);
            }
        }
        let mut round = Vec::new();
        for (latencies, failed) in per_client {
            out.attempted += latencies.len() as u64;
            round.extend(latencies);
            out.failed += failed;
        }
        out.round_latencies.push(round);
        between()?;
    }
    Ok(out)
}

/// Submits the warm set once, in order, from one client.
fn warm_up(addr: SocketAddr) -> std::io::Result<()> {
    let client = trace::client(addr);
    for request in warm_set() {
        let job =
            client.submit(&request, true).map_err(|e| std::io::Error::other(e.to_string()))?;
        if job.state != JobState::Done {
            return Err(std::io::Error::other(format!(
                "warm-up {} ended {:?}",
                request.experiment, job.state
            )));
        }
    }
    Ok(())
}

/// Spawns `serve` on fresh paths, waits for health, warms it for the hot
/// workload, and returns it with the seconds that took.
fn set_up(ctx: &Ctx, kind: Kind, name: &str) -> std::io::Result<(Server, f64)> {
    let dir = child::fresh_dir(&ctx.work, name)?;
    let t0 = Instant::now();
    let server = Server::start(&ctx.bin_dir, &dir)?;
    if kind == Kind::Hot {
        warm_up(server.addr)?;
    }
    Ok((server, t0.elapsed().as_secs_f64()))
}

/// Runs up to `n` spare set-ups (each started, timed into `setups`, and
/// stopped), short of [`Kind::setups`] in all.
fn spare_set_ups(ctx: &Ctx, kind: Kind, setups: &mut Vec<f64>, n: usize) -> std::io::Result<()> {
    let n = n.min(kind.setups().saturating_sub(setups.len()));
    if n == 0 {
        return Ok(());
    }
    let _awake = child::KeepAwake::start();
    for _ in 0..n {
        let (spare, setup_s) = set_up(ctx, kind, &format!("serve-{}", setups.len()))?;
        drop(spare);
        setups.push(setup_s);
    }
    Ok(())
}

/// The untraced run.
pub fn run(ctx: &Ctx, kind: Kind) -> std::io::Result<Outcome> {
    let awake = child::KeepAwake::start();
    let (server, first) = set_up(ctx, kind, "serve-0")?;
    drop(awake);
    let mut setups = vec![first];
    let traffic = Traffic::new(kind, ctx.seed);
    let measured = closed_loop(
        server.addr,
        &traffic,
        Stop::Seconds(ctx.seconds),
        Some(server.pid()),
        &mut || spare_set_ups(ctx, kind, &mut setups, kind.spares_per_round()),
    )?;
    drop(server);
    spare_set_ups(ctx, kind, &mut setups, kind.setups())?;

    let mut outcome =
        Outcome { attempted: measured.attempted, failed: measured.failed, ..Outcome::default() };
    // A job may fail both inline and in the check; count it once at most.
    outcome.failed = (outcome.failed + traffic.verify(ctx).map_err(std::io::Error::other)?)
        .min(outcome.attempted);
    // Rounds in which the hypervisor took the CPUs away time the host,
    // not the program: on a 2-CPU host, a round's wall time and tail
    // followed its steal with correlations of 0.96 and 0.98 (4 runs,
    // 97 rounds). So the metrics are taken over the half of the rounds
    // with the least steal, picked by that host signal alone, never by
    // the program's own figures.
    let quiet = least_half(&measured.round_steal);
    let pick = |values: &[f64]| -> Vec<f64> { quiet.iter().map(|&r| values[r]).collect() };
    let round_tails: Vec<Tail> = measured
        .round_latencies
        .iter()
        .map(|l| tail(l).expect("a round has at least 20 jobs"))
        .collect();
    let tails: Vec<f64> = round_tails.iter().map(|t| t.value).collect();
    let p50s: Vec<f64> = measured.round_latencies.iter().map(|l| median(l)).collect();
    let rounded = |values: &[f64], scale: f64| -> Vec<f64> {
        values.iter().map(|v| (v * scale).round() / scale).collect()
    };
    outcome.notes.push(format!(
        "rounds: {} of {} jobs after one warm-up round, {CLIENTS} closed-loop clients",
        measured.round_walls.len(),
        kind.round_jobs(),
    ));
    outcome.notes.push(format!(
        "per round: wall {:?} s, cpu {:?} s, host steal {:?} s",
        rounded(&measured.round_walls, 1e3),
        rounded(&measured.round_cpu, 1e2),
        rounded(&measured.round_steal, 1e2),
    ));
    outcome.notes.push(format!(
        "per round: p50 {:?} ms, tail {:?} ms",
        rounded(&p50s, 1e4),
        rounded(&tails, 1e4),
    ));
    outcome.notes.push(format!(
        "taken over the {} rounds with the least host steal {quiet:?}: wall_s, job_tail_ms and cpu_s as medians of their per-round values, job_p50_ms as the median of their jobs",
        quiet.len()
    ));
    outcome.notes.push(format!(
        "setup_s is the fastest of {} set-ups (median {:.6} s)",
        setups.len(),
        median(&setups)
    ));
    let t = round_tails[0];
    outcome.notes.push(format!(
        "job_tail_ms is each round's p{} ({} samples a round, {} beyond it)",
        t.percentile, t.samples, t.beyond
    ));
    let quiet_latencies: Vec<f64> =
        quiet.iter().flat_map(|&r| measured.round_latencies[r].iter().copied()).collect();
    // Jobs that passed their check per second of a median round.
    let passed = (outcome.attempted - outcome.failed) as f64 / outcome.attempted as f64;
    let wall = median(&pick(&measured.round_walls));
    outcome.metrics = vec![
        metric("wall_s", "s", wall),
        metric("jobs_per_s", "1/s", passed * kind.round_jobs() as f64 / wall),
        metric("job_p50_ms", "ms", median(&quiet_latencies)),
        metric("job_tail_ms", "ms", median(&pick(&tails))),
        metric("cpu_s", "s", median(&pick(&measured.round_cpu))),
        metric("peak_rss_mb", "MB", measured.peak_rss_mb),
        metric("setup_s", "s", minimum(&setups)),
    ];
    Ok(outcome)
}

/// The traced run: the same rounds through an in-process service whose
/// executor composes the CAD flow from timed layer calls, then through
/// `serve` untraced for the overhead comparison.
pub fn run_traced(ctx: &Ctx, kind: Kind) -> std::io::Result<Outcome> {
    let dir = child::fresh_dir(&ctx.work, "traced")?;
    let engine_before = trace::engine_counters();
    flow::take_totals();
    let service = trace::start_service(&dir)?;
    if kind == Kind::Hot {
        warm_up(service.addr())?;
    }
    let traced_traffic = Traffic::new(kind, ctx.seed);
    let traced = closed_loop(
        service.addr(),
        &traced_traffic,
        Stop::Rounds(TRACE_ROUNDS),
        None,
        &mut || Ok(()),
    )?;
    let engine = trace::delta(&engine_before, &trace::engine_counters());
    let totals = flow::take_totals();
    let stats = trace::ServiceStats::read(&service, &dir).map_err(std::io::Error::other)?;
    let stream: Vec<ExperimentRequest> =
        (0..traced.attempted).map(|i| traced_traffic.request(i)).collect();
    let probes = trace::Probes::run(&service, &stream).map_err(std::io::Error::other)?;
    service.shutdown();

    let (server, _) = set_up(ctx, kind, "untraced")?;
    let untraced_traffic = Traffic::new(kind, ctx.seed);
    let untraced =
        closed_loop(server.addr, &untraced_traffic, Stop::Rounds(TRACE_ROUNDS), None, &mut || {
            Ok(())
        })?;
    drop(server);

    let mut outcome = Outcome {
        attempted: traced.attempted + untraced.attempted,
        failed: traced.failed + untraced.failed,
        ..Outcome::default()
    };
    for traffic in [&traced_traffic, &untraced_traffic] {
        outcome.failed += traffic.verify(ctx).map_err(std::io::Error::other)?;
    }
    outcome.failed = outcome.failed.min(outcome.attempted);
    let traced_wall: f64 = traced.round_walls.iter().sum();
    let untraced_wall: f64 = untraced.round_walls.iter().sum();
    outcome.notes.push(format!(
        "{} jobs: traced {traced_wall:.3} s vs untraced serve {untraced_wall:.3} s",
        traced.attempted
    ));
    outcome.notes.push(format!(
        "where the time goes (executor {:.3} s over {} computed jobs): {}",
        totals.executor_s,
        totals.executed,
        trace::layer_line(&totals.layers)
    ));
    let overhead = (traced_wall - untraced_wall) / untraced_wall;
    outcome.metrics = trace::layer_metrics(&totals, &engine, &stats, &probes, overhead);
    std::fs::remove_dir_all(&dir)?;
    Ok(outcome)
}

/// Writes `expected/cold_seed42.digests`: the first 16 hex digits of the
/// output digest of each of the first [`RECORDED_COLD_JOBS`] cold jobs of
/// the default seed, rendered directly.
pub fn record(ctx: &Ctx) -> std::io::Result<()> {
    let parallel = ParallelConfig::with_threads(2);
    let indices: Vec<u64> = (0..RECORDED_COLD_JOBS).collect();
    let lines = parallel_map(&parallel, &indices, |_, &i| {
        let output = render_experiment(&cold_request(crate::RECORDED_SEED, i), &parallel);
        format!("{}\n", &sha256_hex(output.as_bytes())[..16])
    });
    std::fs::write(ctx.expected.join("cold_seed42.digests"), lines.concat())
}
