//! `perfbench` — the end-to-end benchmark of the nemfpga workspace.
//!
//! ```text
//! perfbench --workload fig12_suite|served_hot|served_cold [--seed N]
//!           [--seconds S] [--trace 0|1] [--bin-dir DIR]
//! perfbench --record [--bin-dir DIR]
//! ```
//!
//! Runs one workload against the release `repro` and `serve` binaries
//! in `--bin-dir` and prints a report whose last line is the JSON result.
//! `--trace 0` measures the end-to-end metrics; `--trace 1` makes the
//! traced run and reports the per-layer metrics. `--record` rewrites the
//! expected outputs under `perfbench/expected/` from the current build.
//! Run it through `perfbench/run.py`, which builds everything first.

mod child;
mod flow;
mod host;
mod report;
mod served;
mod stats;
mod stream;
mod suite;
mod trace;

use std::path::PathBuf;

const USAGE: &str = "usage: perfbench --workload fig12_suite|served_hot|served_cold [--seed N] [--seconds S] [--trace 0|1] [--bin-dir DIR]\n       perfbench --record [--bin-dir DIR]";

/// The workload seed whose served outputs are recorded under `expected/`.
pub const RECORDED_SEED: u64 = 42;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["fig12_suite", "served_hot", "served_cold"];

/// Settings of one run.
pub struct Ctx {
    /// Directory holding the release `repro` and `serve`.
    pub bin_dir: PathBuf,
    /// Scratch space for server caches and journals, fresh per run.
    pub work: PathBuf,
    /// Recorded expected outputs.
    pub expected: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Seconds the untraced run measures for.
    pub seconds: f64,
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
    bin_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| ".bench_build".into(), PathBuf::from);
    let mut parsed = Args {
        workload: None,
        seed: RECORDED_SEED,
        seconds: 10.0,
        trace: false,
        record: false,
        bin_dir: target.join("release"),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}"));
                }
                parsed.workload = Some(w.clone());
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--bin-dir" => parsed.bin_dir = value()?.into(),
            "--record" => parsed.record = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.workload.is_none() && !parsed.record {
        return Err("--workload is required".to_owned());
    }
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let name = args.workload.clone().unwrap_or_else(|| "record".to_owned());
    let work = PathBuf::from(".bench_build")
        .join("perfbench-work")
        .join(format!("{name}-{}", std::process::id()));
    let ctx = Ctx {
        bin_dir: args.bin_dir,
        work,
        expected: PathBuf::from("perfbench").join("expected"),
        seed: args.seed,
        seconds: args.seconds,
    };
    let result = std::fs::create_dir_all(&ctx.work).and_then(|()| {
        if args.record {
            suite::record(&ctx).and_then(|()| served::record(&ctx)).map(|()| None)
        } else {
            run(&ctx, &name, args.trace).map(Some)
        }
    });
    let _ = std::fs::remove_dir_all(&ctx.work);
    match result {
        Ok(Some(outcome)) => {
            let mut report =
                host::Provenance::collect().lines(&name, ctx.seed, args.trace).join("\n");
            report.push('\n');
            report.push_str(&outcome.render());
            print!("{report}");
        }
        Ok(None) => println!("recorded expected outputs under {}", ctx.expected.display()),
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            std::process::exit(1);
        }
    }
}

fn run(ctx: &Ctx, workload: &str, trace: bool) -> std::io::Result<report::Outcome> {
    match (workload, trace) {
        ("fig12_suite", false) => suite::run(ctx),
        ("fig12_suite", true) => suite::run_traced(ctx),
        ("served_hot", false) => served::run(ctx, served::Kind::Hot),
        ("served_hot", true) => served::run_traced(ctx, served::Kind::Hot),
        ("served_cold", false) => served::run(ctx, served::Kind::Cold),
        ("served_cold", true) => served::run_traced(ctx, served::Kind::Cold),
        _ => unreachable!("parse_args admits only the listed workloads"),
    }
}
