//! `fig12_suite`: the paper's Fig. 12 study over the 24-circuit suite,
//! run as `repro fig12 --scale 0.02 --benchmarks 24 --threads 2`.

use std::collections::BTreeMap;
use std::time::Instant;

use nemfpga::request::{ExperimentKind, ExperimentRequest};

use crate::child::{self, ReproRun};
use crate::flow;
use crate::report::{metric, Outcome};
use crate::stats::{median, minimum, tail};
use crate::trace;
use crate::Ctx;

/// Circuits in the suite.
pub const CIRCUITS: usize = 24;

/// Suite scale: at 0.02 a pass takes seconds, not minutes.
pub const SCALE: f64 = 0.02;

/// Set-up-only spawns before each pass; `setup_s` is the fastest of
/// all of them, so its samples spread over the whole run.
const SETUP_SPAWNS: usize = 10;

/// Passes per run at the least, so the tail has samples beyond it.
const MIN_PASSES: usize = 4;

/// The CAD seed of every pass, whatever the workload seed. Pass cost
/// depends strongly on the CAD seed (15 s to 27 s over seeds 1 to 12 on
/// a 2-CPU host), far beyond any bound a run-to-run comparison can use,
/// so the suite always runs the seed whose outputs are recorded under
/// `expected/`, and every pass is checked byte for byte.
pub const SUITE_SEED: u64 = 42;

/// `repro` arguments of the workload.
pub fn repro_args() -> Vec<String> {
    ["fig12", "--scale", "0.02", "--benchmarks", "24", "--threads", "2", "--seed", "42"]
        .iter()
        .map(|s| (*s).to_owned())
        .collect()
}

/// The request the service sees for the same work.
pub fn request() -> ExperimentRequest {
    ExperimentRequest {
        experiment: ExperimentKind::Fig12,
        scale: SCALE,
        benchmarks: CIRCUITS,
        seed: SUITE_SEED,
    }
}

/// Fig. 12 stdout split into its per-circuit blocks and the rest.
#[derive(Debug, PartialEq)]
pub struct Parsed {
    /// `(name, W_min, block text)` per circuit, in suite order.
    pub circuits: Vec<(String, Option<usize>, String)>,
    /// The header and the headline/no-technique trailer.
    pub rest: String,
}

/// Splits `repro fig12` stdout into circuit blocks (the `name (N LUTs,
/// Wmin …):` line, the column header and one line per divisor).
pub fn parse(stdout: &str) -> Parsed {
    let mut circuits: Vec<(String, Option<usize>, String)> = Vec::new();
    let mut rest = String::new();
    let mut in_block = false;
    for line in stdout.lines() {
        if let Some((name, w_min)) = circuit_header(line) {
            circuits.push((name, w_min, format!("{line}\n")));
            in_block = true;
        } else if in_block && line.starts_with("    ") {
            circuits.last_mut().expect("inside a block").2.push_str(&format!("{line}\n"));
        } else {
            in_block = false;
            rest.push_str(line);
            rest.push('\n');
        }
    }
    Parsed { circuits, rest }
}

/// `  alu4 (30 LUTs, Wmin Some(8)):` → `("alu4", Some(8))`.
fn circuit_header(line: &str) -> Option<(String, Option<usize>)> {
    let body = line.strip_prefix("  ")?.strip_suffix("):")?;
    let (name, rest) = body.split_once(" (")?;
    let (_, wmin) = rest.split_once(" LUTs, Wmin ")?;
    let w_min = wmin.strip_prefix("Some(").and_then(|w| w.strip_suffix(')')?.parse().ok());
    Some((name.to_owned(), w_min))
}

/// Checks one pass against the reference: a circuit fails when its block
/// is missing, has no W_min or seven curve points, or differs from the
/// reference; a differing trailer fails circuit 0 (whose no-technique
/// row it carries). Returns the failed circuit count.
pub fn failed_circuits(run: &Parsed, reference: &Parsed) -> u64 {
    let mut failed = [false; CIRCUITS];
    for (i, slot) in failed.iter_mut().enumerate() {
        *slot = match (run.circuits.get(i), reference.circuits.get(i)) {
            (Some(got), Some(want)) => got != want || got.1.is_none() || got.2.lines().count() != 9,
            _ => true,
        };
    }
    if run.rest != reference.rest {
        failed[0] = true;
    }
    failed.iter().filter(|&&f| f).count() as u64
}

/// `(circuit tag, latency in ms)` from the `[fig12 i/24] … done`
/// progress lines, each timed from the circuit's start line.
fn circuit_latencies(progress: &[(f64, String)]) -> Vec<(String, f64)> {
    let mut started: BTreeMap<String, f64> = BTreeMap::new();
    let mut latencies = Vec::new();
    for (t, line) in progress {
        let Some(tag) = line.strip_prefix("[fig12 ").and_then(|l| l.split_once(']')) else {
            continue;
        };
        if tag.1.contains(" done in ") {
            if let Some(t0) = started.remove(tag.0) {
                latencies.push((tag.0.to_owned(), (t - t0) * 1e3));
            }
        } else {
            started.insert(tag.0.to_owned(), *t);
        }
    }
    latencies
}

/// W_min and operating width per circuit, recorded for [`SUITE_SEED`].
fn recorded_widths(ctx: &Ctx) -> std::io::Result<Vec<(String, usize, usize)>> {
    let text = std::fs::read_to_string(ctx.expected.join("fig12_seed42.widths"))?;
    text.lines()
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            Some((f.first()?.to_string(), f.get(1)?.parse().ok()?, f.get(2)?.parse().ok()?))
        })
        .collect::<Option<_>>()
        .ok_or_else(|| std::io::Error::other("malformed fig12_seed42.widths"))
}

/// The recorded stdout every pass must reproduce, after checking that
/// the recorded widths agree with it.
fn reference(ctx: &Ctx) -> std::io::Result<Parsed> {
    let parsed = parse(&std::fs::read_to_string(ctx.expected.join("fig12_seed42.stdout"))?);
    let recorded: Vec<_> =
        recorded_widths(ctx)?.into_iter().map(|(n, w, _)| (n, Some(w))).collect();
    let printed: Vec<_> = parsed.circuits.iter().map(|(n, w, _)| (n.clone(), *w)).collect();
    if recorded != printed || printed.len() != CIRCUITS {
        return Err(std::io::Error::other("recorded fig12 stdout and widths disagree"));
    }
    Ok(parsed)
}

/// Checks a finished pass and counts it into `outcome`.
fn check_pass(run: &ReproRun, reference: &Parsed, outcome: &mut Outcome) {
    outcome.attempted += CIRCUITS as u64;
    if !run.usage.success {
        outcome.failed += CIRCUITS as u64;
        return;
    }
    let parsed = parse(&run.stdout);
    outcome.failed += failed_circuits(&parsed, reference);
    // The progress lines must agree with stdout on every W_min.
    for (name, w_min, _) in &parsed.circuits {
        let done = format!("] {name} done in ");
        let agrees = run
            .progress
            .iter()
            .any(|(_, l)| l.contains(&done) && l.ends_with(&format!("(Wmin {w_min:?})")));
        if !agrees {
            outcome.errors.push(format!("{name}: stderr W_min disagrees with stdout"));
        }
    }
}

/// The untraced run: passes of `repro` until `--seconds` is used up.
pub fn run(ctx: &Ctx) -> std::io::Result<Outcome> {
    let args = repro_args();
    let reference = reference(ctx)?;
    let mut outcome = Outcome::default();
    let mut setups = Vec::new();
    let t0 = Instant::now();
    let mut passes: Vec<ReproRun> = Vec::new();
    while passes.len() < MIN_PASSES || t0.elapsed().as_secs_f64() < ctx.seconds {
        let awake = child::KeepAwake::start();
        for _ in 0..SETUP_SPAWNS {
            setups.push(child::repro_setup(&ctx.bin_dir, &args)?);
        }
        drop(awake);
        let run = child::run_repro(&ctx.bin_dir, &args)?;
        check_pass(&run, &reference, &mut outcome);
        passes.push(run);
    }
    let mut per_circuit: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (circuit, latency) in passes.iter().flat_map(|p| circuit_latencies(&p.progress)) {
        per_circuit.entry(circuit).or_default().push(latency);
    }
    let latencies: Vec<f64> = per_circuit.values().flatten().copied().collect();
    // The suite's circuits differ in size by more than the passes differ
    // in speed, so a median over all latencies jumps between neighbouring
    // circuits as one pass or another runs slow. The median over circuits
    // of each circuit's median latency keeps the circuits in their order.
    let circuit_medians: Vec<f64> = per_circuit.values().map(|l| median(l)).collect();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let tail = tail(&latencies);
    outcome.notes.push(format!(
        "passes: {} (wall {:?} s)",
        passes.len(),
        walls.iter().map(|w| (w * 1e3).round() / 1e3).collect::<Vec<_>>()
    ));
    outcome.notes.push(format!(
        "setup_s is the fastest of {} set-ups (median {:.6} s)",
        setups.len(),
        median(&setups)
    ));
    outcome.notes.push(match tail {
        Some(t) => format!(
            "job_tail_ms is p{} of {} circuit latencies ({} beyond it)",
            t.percentile, t.samples, t.beyond
        ),
        None => format!(
            "job_tail_ms: only {} circuit latencies, reporting the maximum",
            latencies.len()
        ),
    });
    outcome.notes.push(format!(
        "job_p50_ms is the median over {} circuits of each circuit's median latency over {} passes",
        circuit_medians.len(),
        passes.len()
    ));
    if latencies.len() != passes.len() * CIRCUITS {
        outcome.errors.push(format!(
            "{} circuit latencies from {} passes",
            latencies.len(),
            passes.len()
        ));
    }
    // `jobs_per_s` is listed for the served workloads; every workload
    // reports every listed metric, so here it counts the circuits that
    // passed their check per second of a median pass.
    let passed = (outcome.attempted - outcome.failed) as f64 / outcome.attempted as f64;
    let wall = median(&walls);
    outcome.metrics = vec![
        metric("wall_s", "s", wall),
        metric("jobs_per_s", "1/s", passed * CIRCUITS as f64 / wall),
        metric("job_p50_ms", "ms", median(&circuit_medians)),
        metric(
            "job_tail_ms",
            "ms",
            tail.map_or_else(|| latencies.iter().copied().fold(0.0, f64::max), |t| t.value),
        ),
        metric("cpu_s", "s", median(&passes.iter().map(|p| p.usage.cpu_s).collect::<Vec<_>>())),
        metric(
            "peak_rss_mb",
            "MB",
            median(&passes.iter().map(|p| p.usage.peak_rss_mb).collect::<Vec<_>>()),
        ),
        metric("setup_s", "s", minimum(&setups)),
    ];
    Ok(outcome)
}

/// The traced run: the suite served once as a job by an in-process
/// service whose executor composes the flow from timed layer calls, then
/// one untraced `repro` pass to compare against.
pub fn run_traced(ctx: &Ctx) -> std::io::Result<Outcome> {
    let reference = reference(ctx)?;
    let recorded = recorded_widths(ctx)?;
    let mut outcome = Outcome::default();
    let dir = child::fresh_dir(&ctx.work, "traced")?;
    let request = request();
    let engine_before = trace::engine_counters();
    flow::take_totals();
    let service = trace::start_service(&dir)?;
    let t0 = Instant::now();
    let job = trace::client(service.addr()).submit(&request, true);
    let traced_wall = t0.elapsed().as_secs_f64();
    let engine = trace::delta(&engine_before, &trace::engine_counters());
    let totals = flow::take_totals();
    let stats = trace::ServiceStats::read(&service, &dir).map_err(std::io::Error::other)?;
    let probes = trace::Probes::run(&service, &[request]).map_err(std::io::Error::other)?;
    service.shutdown();

    let untraced = child::run_repro(&ctx.bin_dir, &repro_args())?;
    check_pass(&untraced, &reference, &mut outcome);

    // Faithfulness: the composed flow must print what `repro` printed.
    outcome.attempted += CIRCUITS as u64;
    match job.as_ref().ok().and_then(|j| j.output.as_deref()) {
        Some(traced) => {
            let traced = parse(traced);
            outcome.failed += failed_circuits(&traced, &parse(&untraced.stdout));
        }
        None => outcome.failed += CIRCUITS as u64,
    }
    let mut rows = totals.circuits.clone();
    rows.sort_by_key(|r| r.index);
    let untraced_w: Vec<Option<usize>> =
        parse(&untraced.stdout).circuits.iter().map(|c| c.1).collect();
    for row in &rows {
        if untraced_w.get(row.index) != Some(&row.w_min) {
            outcome
                .errors
                .push(format!("{}: traced W_min {:?} differs from repro", row.name, row.w_min));
        }
        if recorded.get(row.index).map(|w| (w.1, w.2)) != row.w_min.map(|w| (w, row.operating)) {
            outcome.errors.push(format!("{}: traced widths differ from the recording", row.name));
        }
    }
    if rows.len() != CIRCUITS {
        outcome.errors.push(format!("traced run recorded {} circuits", rows.len()));
    }

    outcome.notes.push("where the time goes (traced fig12 job, seconds per circuit):".into());
    outcome.notes.push(format!(
        "  {:<18} {:>5} {:>5} {:>4} {:>8} {:>6} {:>8}  layers",
        "circuit", "LUTs", "Wmin", "W", "attempts", "iters", "wall_s"
    ));
    for r in &rows {
        outcome.notes.push(format!(
            "  {:<18} {:>5} {:>5} {:>4} {:>8} {:>6} {:>8.3}  {}",
            r.name,
            r.luts,
            r.w_min.map_or_else(|| "-".to_owned(), |w| w.to_string()),
            r.operating,
            r.layers.attempts,
            r.iterations,
            r.seconds,
            trace::layer_line(&r.layers)
        ));
    }
    outcome.notes.push(format!("  total: {}", trace::layer_line(&totals.layers)));
    outcome.notes.push(format!(
        "traced job {traced_wall:.3} s vs untraced repro pass {:.3} s",
        untraced.wall_s
    ));
    let overhead = (traced_wall - untraced.wall_s) / untraced.wall_s;
    outcome.metrics = trace::layer_metrics(&totals, &engine, &stats, &probes, overhead);
    std::fs::remove_dir_all(&dir)?;
    Ok(outcome)
}

/// Writes `expected/fig12_seed42.{stdout,widths}` from the current build:
/// stdout from `repro`, widths from the library's own `tradeoff_sweep`.
pub fn record(ctx: &Ctx) -> std::io::Result<()> {
    use nemfpga::flow::EvaluationConfig;
    use nemfpga::sweep::{tradeoff_sweep, PAPER_DIVISORS};
    use nemfpga_runtime::{parallel_map, ParallelConfig};
    let run = child::run_repro(&ctx.bin_dir, &repro_args())?;
    if !run.usage.success {
        return Err(std::io::Error::other("repro failed while recording"));
    }
    std::fs::write(ctx.expected.join("fig12_seed42.stdout"), &run.stdout)?;
    let suite = nemfpga_bench::experiments::benchmark_suite(SCALE, CIRCUITS);
    let rows = parallel_map(&ParallelConfig::with_threads(2), &suite, |_, b| {
        let netlist = b.generate().expect("preset generates");
        let cfg = EvaluationConfig::paper_defaults(SUITE_SEED);
        let (_, eval) = tradeoff_sweep(netlist, &cfg, &PAPER_DIVISORS).expect("sweep runs");
        format!("{} {} {}\n", b.name, eval.w_min.expect("low-stress searches"), eval.channel_width)
    });
    std::fs::write(ctx.expected.join("fig12_seed42.widths"), rows.concat())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\n==== Fig. 12 ====\n  2 benchmarks at scale 0.02\n  alu4 (30 LUTs, Wmin Some(8)):\n    div   speedup\n     1.0     1.50\n  apex2 (38 LUTs, Wmin None):\n    div   speedup\n     1.0     1.40\n\n==== Headline ====\n  speedup 1.00x\n";

    #[test]
    fn parse_splits_circuit_blocks_from_the_rest() {
        let p = parse(SAMPLE);
        assert_eq!(p.circuits.len(), 2);
        assert_eq!(p.circuits[0].0, "alu4");
        assert_eq!(p.circuits[0].1, Some(8));
        assert_eq!(p.circuits[1].1, None);
        assert_eq!(p.circuits[0].2.lines().count(), 3);
        assert!(p.rest.contains("Headline") && p.rest.contains("2 benchmarks"));
        assert!(!p.rest.contains("alu4"));
    }

    fn suite_stdout(points: &str) -> String {
        let mut s = String::from("header\n");
        for i in 0..CIRCUITS {
            s.push_str(&format!("  c{i} (10 LUTs, Wmin Some(7)):\n    div\n"));
            for _ in 0..7 {
                s.push_str(&format!("    {points}\n"));
            }
        }
        s.push_str("trailer\n");
        s
    }

    #[test]
    fn failed_circuits_counts_each_mismatch_once() {
        let good = parse(&suite_stdout("1.00"));
        assert_eq!(failed_circuits(&good, &good), 0);
        // One changed curve point fails exactly that circuit.
        let text = suite_stdout("1.00").replacen("    1.00\n", "    1.01\n", 1);
        assert_eq!(failed_circuits(&parse(&text), &good), 1);
        // A changed trailer fails circuit 0 only.
        let text = suite_stdout("1.00").replace("trailer", "other");
        assert_eq!(failed_circuits(&parse(&text), &good), 1);
        // Missing circuits and an empty output fail all of them.
        assert_eq!(failed_circuits(&parse(""), &good), CIRCUITS as u64);
        // A block without W_min fails even against itself.
        let text = suite_stdout("1.00").replacen("Some(7)", "None", 1);
        assert_eq!(failed_circuits(&parse(&text), &parse(&text)), 1);
    }

    #[test]
    fn latencies_pair_start_and_done_lines() {
        let progress = vec![
            (0.010, "[fig12 1/24] alu4 (30 LUTs)...".to_owned()),
            (0.012, "[fig12 9/24] elliptic (72 LUTs)...".to_owned()),
            (0.090, "[fig12 1/24] alu4 done in 0s (Wmin Some(8))".to_owned()),
            (0.900, "[fig12 9/24] elliptic done in 1s (Wmin Some(13))".to_owned()),
        ];
        let l = circuit_latencies(&progress);
        assert_eq!(l.len(), 2);
        assert_eq!((l[0].0.as_str(), l[1].0.as_str()), ("1/24", "9/24"));
        assert!((l[0].1 - 80.0).abs() < 1e-9 && (l[1].1 - 888.0).abs() < 1e-9);
    }
}
