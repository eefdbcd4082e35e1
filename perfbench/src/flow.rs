//! The traced run's CAD flow.
//!
//! The experiments the workloads run (`fig12`, `wmin`, `fig9`) are
//! composed here from each layer's public functions — synth, pack,
//! place, the W_min search, the operating-width route, the electrical
//! model, STA, and power — so the benchmark times every layer call from
//! its own code. The program itself gains no spans. The composition
//! mirrors `nemfpga::flow::evaluate`, `nemfpga_pnr::flow::implement`,
//! and `nemfpga_bench::render` step for step; the traced run checks that
//! it renders the same bytes.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use nemfpga::context::ModelContext;
use nemfpga::electrical::ElectricalModel;
use nemfpga::flow::{Evaluation, EvaluationConfig, VariantEvaluation};
use nemfpga::request::{ExperimentKind, ExperimentRequest};
use nemfpga::sweep::{TradeoffCurve, TradeoffPoint, PAPER_DIVISORS};
use nemfpga::variant::FpgaVariant;
use nemfpga::CoreError;
use nemfpga_arch::{shared_rr_graph, ArchParams, Grid};
use nemfpga_bench::experiments::{self as exp, Fig12Entry};
use nemfpga_bench::render::render_experiment;
use nemfpga_netlist::netlist::Netlist;
use nemfpga_obs::progress::{self, ProgressEvent, ProgressSink};
use nemfpga_pnr::channel::find_min_channel_width;
use nemfpga_pnr::flow::{Implementation, WidthPolicy, WidthSearchSummary};
use nemfpga_pnr::pack::pack;
use nemfpga_pnr::place::{place, PlaceConfig};
use nemfpga_pnr::route::{route_with_scratch, RouteConfig, RouterScratch};
use nemfpga_pnr::timing::analyze_timing;
use nemfpga_pnr::PnrError;
use nemfpga_power::activity::compute_activities;
use nemfpga_power::breakdown::PowerReport;
use nemfpga_power::dynamic::dynamic_power;
use nemfpga_power::leakage::leakage_power;
use nemfpga_power::usage::{FabricInventory, FabricUsage};
use nemfpga_runtime::{parallel_map, ParallelConfig};
use nemfpga_tech::units::{Hertz, Seconds};

/// Seconds spent in each layer, summed over calls on every thread, plus
/// the W_min search's attempt counts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layers {
    /// `netlist::synth` (`SynthConfig::generate`).
    pub synth_s: f64,
    /// `pnr::pack`.
    pub pack_s: f64,
    /// `pnr::place`.
    pub place_s: f64,
    /// `pnr::channel::find_min_channel_width`.
    pub search_s: f64,
    /// The operating-width walk of `pnr::flow` at 1.2 × W_min.
    pub operating_s: f64,
    /// `ModelContext` plus `ElectricalModel::build`.
    pub model_s: f64,
    /// `pnr::timing::analyze_timing`.
    pub sta_s: f64,
    /// Activities, fabric usage and inventory, dynamic and leakage power.
    pub power_s: f64,
    /// Channel widths the W_min searches tried.
    pub attempts: u64,
    /// Of those, the ones that routed.
    pub feasible: u64,
}

impl Layers {
    const ZERO: Self = Self {
        synth_s: 0.0,
        pack_s: 0.0,
        place_s: 0.0,
        search_s: 0.0,
        operating_s: 0.0,
        model_s: 0.0,
        sta_s: 0.0,
        power_s: 0.0,
        attempts: 0,
        feasible: 0,
    };

    fn add(&mut self, o: &Layers) {
        self.synth_s += o.synth_s;
        self.pack_s += o.pack_s;
        self.place_s += o.place_s;
        self.search_s += o.search_s;
        self.operating_s += o.operating_s;
        self.model_s += o.model_s;
        self.sta_s += o.sta_s;
        self.power_s += o.power_s;
        self.attempts += o.attempts;
        self.feasible += o.feasible;
    }
}

/// `runtime::pool` as seen by a wrapping closure around each item.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Pool {
    /// Seconds workers spent inside items.
    pub busy_s: f64,
    /// Threads × wall of each fan-out, minus its busy time.
    pub idle_s: f64,
    /// The longest single item.
    pub longest_item_s: f64,
}

/// One suite circuit of a traced Fig. 12 run.
#[derive(Debug, Clone)]
pub struct CircuitRow {
    /// Position in the suite.
    pub index: usize,
    /// Benchmark name.
    pub name: String,
    /// LUTs after scaling.
    pub luts: usize,
    /// Minimum channel width.
    pub w_min: Option<usize>,
    /// Width the fabric was routed at.
    pub operating: usize,
    /// PathFinder iterations over every route call of the circuit.
    pub iterations: u64,
    /// Per-layer seconds of the circuit.
    pub layers: Layers,
    /// Wall seconds of the whole circuit.
    pub seconds: f64,
}

/// Everything the traced flow recorded since the last [`take_totals`].
#[derive(Debug, Clone)]
pub struct Totals {
    /// Per-layer seconds and search counts.
    pub layers: Layers,
    /// Fan-out accounting.
    pub pool: Pool,
    /// Fig. 12 circuits, in completion order.
    pub circuits: Vec<CircuitRow>,
    /// Seconds inside [`traced_render`].
    pub executor_s: f64,
    /// Calls of [`traced_render`].
    pub executed: u64,
}

static TOTALS: Mutex<Totals> = Mutex::new(Totals {
    layers: Layers::ZERO,
    pool: Pool { busy_s: 0.0, idle_s: 0.0, longest_item_s: 0.0 },
    circuits: Vec::new(),
    executor_s: 0.0,
    executed: 0,
});

fn totals() -> std::sync::MutexGuard<'static, Totals> {
    TOTALS.lock().expect("no thread panics while holding the totals")
}

/// Returns what was recorded so far and starts over.
pub fn take_totals() -> Totals {
    let mut t = totals();
    let taken = t.clone();
    t.layers = Layers::ZERO;
    t.pool = Pool::default();
    t.circuits.clear();
    t.executor_s = 0.0;
    t.executed = 0;
    taken
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *slot += t.elapsed().as_secs_f64();
    out
}

thread_local! {
    /// Set while this thread runs a timed fan-out item, so nested
    /// fan-outs are not counted twice.
    static IN_ITEM: Cell<bool> = const { Cell::new(false) };
}

/// `parallel_map` with each item timed by a wrapping closure. Only the
/// outermost fan-out of a thread is recorded.
fn timed_parallel_map<T, U, F>(cfg: &ParallelConfig, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    if IN_ITEM.with(Cell::get) {
        return parallel_map(cfg, items, f);
    }
    let threads = cfg.effective_threads(items.len());
    let items_time = Mutex::new((0.0f64, 0.0f64));
    let t0 = Instant::now();
    let out = parallel_map(cfg, items, |i, item| {
        IN_ITEM.with(|c| c.set(true));
        let t = Instant::now();
        let out = f(i, item);
        let d = t.elapsed().as_secs_f64();
        IN_ITEM.with(|c| c.set(false));
        let mut time = items_time.lock().expect("no item panics holding the lock");
        time.0 += d;
        time.1 = time.1.max(d);
        out
    });
    let wall = t0.elapsed().as_secs_f64();
    let (busy, longest) = items_time.into_inner().expect("all items finished");
    let mut t = totals();
    t.pool.busy_s += busy;
    t.pool.idle_s += threads as f64 * wall - busy;
    t.pool.longest_item_s = t.pool.longest_item_s.max(longest);
    out
}

/// Runs `f` with a progress sink that counts PathFinder iterations on
/// this thread (forwarding every event to the sink it displaces).
fn count_route_iterations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let count = Arc::new(AtomicU64::new(0));
    let previous = progress::current();
    let sink: ProgressSink = {
        let count = Arc::clone(&count);
        Arc::new(move |event: &ProgressEvent| {
            if matches!(event, ProgressEvent::Tick { name: "route.iteration", .. }) {
                count.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(previous) = &previous {
                previous(event);
            }
        })
    };
    let out = {
        let _guard = progress::install(sink);
        f()
    };
    (out, count.load(Ordering::Relaxed))
}

/// `nemfpga_pnr::flow::implement` for the low-stress width policy.
fn implement(
    netlist: Netlist,
    params: &ArchParams,
    place_cfg: &PlaceConfig,
    route_cfg: &RouteConfig,
    width: WidthPolicy,
    lt: &mut Layers,
) -> Result<Implementation, PnrError> {
    let WidthPolicy::LowStress { hint, max } = width else {
        unreachable!("every traced experiment searches W_min");
    };
    progress::stage("pack");
    let design = timed(&mut lt.pack_s, || pack(netlist, params))?;
    let grid = Grid::for_design(design.num_logic_blocks(), design.num_pads(), params.io_rate)
        .map_err(|e| PnrError::BadNetlist { message: e.to_string() })?;
    progress::stage("place");
    let placement = timed(&mut lt.place_s, || place(&design, grid, place_cfg))?;
    progress::stage("route");
    let search = timed(&mut lt.search_s, || {
        find_min_channel_width(params, &design, &placement, route_cfg, hint, max)
    })?;
    lt.attempts += search.attempts.len() as u64;
    lt.feasible += search.attempts.iter().filter(|(_, ok)| *ok).count() as u64;

    let t = Instant::now();
    let mut summary = WidthSearchSummary::from(&search);
    let mut scratch = RouterScratch::new();
    let mut found = None;
    for w in [0usize, 2, 4, 8].map(|d| summary.operating_width + d) {
        if let Ok(rr) = shared_rr_graph(params, grid, w) {
            if let Ok(routing) =
                route_with_scratch(&rr, &design, &placement, route_cfg, &mut scratch)
            {
                summary.operating_width = w;
                found = Some((rr, routing));
                break;
            }
        }
    }
    let (rr, routing) = match found {
        Some(found) => found,
        None => {
            summary.operating_width = search.w_min;
            let rr = shared_rr_graph(params, grid, search.w_min)
                .map_err(|e| PnrError::BadNetlist { message: e.to_string() })?;
            (rr, search.routing)
        }
    };
    lt.operating_s += t.elapsed().as_secs_f64();
    Ok(Implementation { design, placement, rr, routing, width_search: Some(summary) })
}

/// `nemfpga::flow::evaluate` without the timing-driven second pass.
fn evaluate(
    netlist: Netlist,
    config: &EvaluationConfig,
    variants: &[FpgaVariant],
    lt: &mut Layers,
) -> Result<Evaluation, CoreError> {
    assert!(!config.timing_driven, "the traced flow composes the wirelength-driven flow only");
    let benchmark = netlist.name().to_owned();
    progress::stage("evaluate");
    let activities =
        timed(&mut lt.power_s, || compute_activities(&netlist, config.input_activity))?;
    let imp = implement(netlist, &config.params, &config.place, &config.route, config.width, lt)?;
    let ctx = timed(&mut lt.model_s, || {
        ModelContext::from_rr_graph(config.node.clone(), config.interconnect.clone(), &imp.rr)
    });
    let usage =
        timed(&mut lt.power_s, || FabricUsage::from_routing(&imp.rr, &imp.design, &imp.routing));

    let built = timed_parallel_map(&config.parallel, variants, |_, v| {
        let t = Instant::now();
        (ElectricalModel::build(&ctx, v), t.elapsed().as_secs_f64())
    });
    let models: Vec<ElectricalModel> = built
        .into_iter()
        .map(|(m, s)| {
            lt.model_s += s;
            m
        })
        .collect();
    progress::stage("sta");
    let analysed = timed_parallel_map(&config.parallel, &models, |_, model| {
        let t = Instant::now();
        let report =
            analyze_timing(&imp.rr, &imp.design, &imp.placement, &imp.routing, &model.timing);
        (report.map(|r| r.critical_path), t.elapsed().as_secs_f64())
    });
    let mut critical_paths: Vec<Seconds> = Vec::with_capacity(analysed.len());
    for (cp, s) in analysed {
        lt.sta_s += s;
        critical_paths.push(cp?);
    }
    let clock = config.clock.unwrap_or_else(|| Hertz::new(1.0 / critical_paths[0].value()));

    progress::stage("power");
    let t = Instant::now();
    let lb_tiles = (imp.placement.grid.width * imp.placement.grid.height) as f64;
    let mut evaluations = Vec::with_capacity(models.len());
    for (model, cp) in models.iter().zip(&critical_paths) {
        let inventory = FabricInventory::from_rr_graph(&imp.rr, model.variant.sram_per_switch());
        let power = PowerReport {
            dynamic: dynamic_power(&usage, &activities, &model.dynamic_costs, ctx.node.vdd, clock),
            leakage: leakage_power(&inventory, &model.leakage_costs),
        };
        evaluations.push(VariantEvaluation {
            variant: model.variant.clone(),
            critical_path: *cp,
            power,
            tile: model.tile,
            total_area: model.tile.footprint() * lb_tiles,
        });
    }
    lt.power_s += t.elapsed().as_secs_f64();

    Ok(Evaluation {
        benchmark,
        w_min: imp.width_search.as_ref().map(|w| w.w_min),
        channel_width: imp.rr.channel_width,
        grid: (imp.placement.grid.width, imp.placement.grid.height),
        wirelength_tiles: imp.routing.wirelength_tiles,
        clock,
        variants: evaluations,
    })
}

/// `nemfpga::sweep::tradeoff_sweep` over [`PAPER_DIVISORS`].
fn tradeoff_sweep(
    netlist: Netlist,
    config: &EvaluationConfig,
    lt: &mut Layers,
) -> Result<(TradeoffCurve, Evaluation), CoreError> {
    let mut variants = vec![FpgaVariant::cmos_baseline(&config.node)];
    variants.extend(PAPER_DIVISORS.iter().map(|&d| FpgaVariant::cmos_nem(d)));
    let eval = evaluate(netlist, config, &variants, lt)?;
    let base = &eval.variants[0];
    let points = eval
        .variants
        .iter()
        .skip(1)
        .zip(PAPER_DIVISORS)
        .map(|(v, divisor)| TradeoffPoint {
            divisor,
            speedup: base.critical_path / v.critical_path,
            dynamic_reduction: base.power.dynamic.total() / v.power.dynamic.total(),
            leakage_reduction: base.power.leakage.total() / v.power.leakage.total(),
            area_reduction: base.total_area / v.total_area,
        })
        .collect();
    Ok((TradeoffCurve { benchmark: eval.benchmark.clone(), points }, eval))
}

fn record(lt: &Layers) {
    totals().layers.add(lt);
}

/// Infallible `writeln!` onto a `String`, as `nemfpga_bench::render`.
macro_rules! wln {
    ($out:expr) => { let _ = writeln!($out); };
    ($out:expr, $($arg:tt)*) => { let _ = writeln!($out, $($arg)*); };
}

fn banner(out: &mut String, title: &str) {
    wln!(out);
    wln!(out, "==== {title} ====");
}

/// The executor of the traced run: `render_experiment`, with `fig12`,
/// `wmin` and `fig9` composed from timed layer calls.
///
/// # Errors
///
/// The CAD error of a composed experiment, as text.
pub fn traced_render(
    request: &ExperimentRequest,
    parallel: &ParallelConfig,
) -> Result<String, String> {
    let t = Instant::now();
    let mut out = String::new();
    let result = match request.experiment {
        ExperimentKind::Fig12 => fig12(&mut out, request, parallel),
        ExperimentKind::Wmin => wmin(&mut out, request, parallel),
        ExperimentKind::Fig9 => fig9(&mut out, request, parallel),
        _ => {
            out = render_experiment(request, parallel);
            Ok(())
        }
    };
    let mut totals = totals();
    totals.executor_s += t.elapsed().as_secs_f64();
    totals.executed += 1;
    result.map(|()| out).map_err(|e| e.to_string())
}

fn fig12(
    out: &mut String,
    request: &ExperimentRequest,
    parallel: &ParallelConfig,
) -> Result<(), CoreError> {
    banner(out, "Fig. 12: CMOS-NEM power/speed trade-off (per-benchmark curves)");
    let suite = exp::benchmark_suite(request.scale, request.benchmarks);
    wln!(
        out,
        "  {} benchmarks at scale {} (use --scale 1.0 --benchmarks 24 for paper size)",
        suite.len(),
        request.scale
    );
    let results = timed_parallel_map(parallel, &suite, |index, b| {
        let t0 = Instant::now();
        let mut lt = Layers::default();
        let (result, iterations) = count_route_iterations(|| -> Result<_, CoreError> {
            let netlist = timed(&mut lt.synth_s, || b.generate())?;
            let luts = netlist.num_luts();
            let cfg = EvaluationConfig::paper_defaults(request.seed);
            let (curve, eval) = tradeoff_sweep(netlist, &cfg, &mut lt)?;
            Ok((Fig12Entry { curve, w_min: eval.w_min, luts }, eval.channel_width))
        });
        let (entry, operating) = result?;
        let row = CircuitRow {
            index,
            name: b.name.clone(),
            luts: entry.luts,
            w_min: entry.w_min,
            operating,
            iterations,
            layers: lt,
            seconds: t0.elapsed().as_secs_f64(),
        };
        let mut totals = totals();
        totals.layers.add(&lt);
        totals.circuits.push(row);
        Ok(entry)
    });
    let entries = results.into_iter().collect::<Result<Vec<_>, CoreError>>()?;
    for (cfg, e) in suite.iter().zip(&entries) {
        wln!(out, "  {} ({} LUTs, Wmin {:?}):", cfg.name, e.luts, e.w_min);
        wln!(out, "    div   speedup  dyn-red  leak-red  area-red");
        for p in &e.curve.points {
            wln!(
                out,
                "    {:>4.1}  {:>7.2}  {:>7.2}  {:>8.2}  {:>8.2}",
                p.divisor,
                p.speedup,
                p.dynamic_reduction,
                p.leakage_reduction,
                p.area_reduction
            );
        }
    }
    let corner = exp::headline_corner(&entries, 1.0);
    banner(out, "Headline (geometric mean of iso-delay corners)");
    wln!(
        out,
        "  speedup {:.2}x | dynamic {:.2}x | leakage {:.2}x | area {:.2}x",
        corner.speedup,
        corner.dynamic_reduction,
        corner.leakage_reduction,
        corner.area_reduction
    );
    wln!(out, "  (paper: 1.0x speed, 2x dynamic, 10x leakage, 2x area)");

    banner(out, "CMOS-NEM without the buffer technique ([Chen 10b] comparison)");
    let mut cfg = EvaluationConfig::paper_defaults(request.seed);
    cfg.parallel = *parallel;
    let mut lt = Layers::default();
    let netlist = timed(&mut lt.synth_s, || suite[0].generate())?;
    let variants =
        vec![FpgaVariant::cmos_baseline(&cfg.node), FpgaVariant::cmos_nem_without_technique()];
    let eval = evaluate(netlist, &cfg, &variants, &mut lt)?;
    record(&lt);
    let (base, nem) = (&eval.variants[0], &eval.variants[1]);
    wln!(
        out,
        "  speedup {:.2}x | dynamic {:.2}x | leakage {:.2}x | area {:.2}x",
        base.critical_path / nem.critical_path,
        base.power.dynamic.total() / nem.power.dynamic.total(),
        base.power.leakage.total() / nem.power.leakage.total(),
        base.total_area / nem.total_area
    );
    wln!(out, "  (paper: similar delay, 1.3x dynamic, 2x leakage, 1.8x area)");
    Ok(())
}

fn wmin(
    out: &mut String,
    request: &ExperimentRequest,
    parallel: &ParallelConfig,
) -> Result<(), CoreError> {
    banner(out, "Sec. 3.3: minimum channel width (paper: Wmin +20% -> W = 118)");
    let suite = exp::benchmark_suite(request.scale, request.benchmarks.min(8));
    let rows = timed_parallel_map(parallel, &suite, |_, b| -> Result<_, CoreError> {
        let mut lt = Layers::default();
        let netlist = timed(&mut lt.synth_s, || b.generate())?;
        let luts = netlist.num_luts();
        let imp = implement(
            netlist,
            &ArchParams::paper_table1(),
            &PlaceConfig::new(request.seed),
            &RouteConfig::new(),
            WidthPolicy::LowStress { hint: 32, max: 512 },
            &mut lt,
        )?;
        record(&lt);
        let ws = imp.width_search.expect("the low-stress policy searches");
        Ok((b.name.clone(), luts, ws.w_min, ws.operating_width))
    });
    let rows = rows.into_iter().collect::<Result<Vec<_>, CoreError>>()?;
    wln!(out, "  {:<18} {:>7} {:>6} {:>10}", "benchmark", "LUTs", "Wmin", "operating");
    let mut worst = 0;
    for (name, luts, w_min, operating) in &rows {
        wln!(out, "  {:<18} {:>7} {:>6} {:>10}", name, luts, w_min, operating);
        worst = worst.max(*w_min);
    }
    wln!(out, "  suite-wide W = 1.2 x max(Wmin) = {}", (worst as f64 * 1.2).ceil() as usize);
    Ok(())
}

fn fig9(
    out: &mut String,
    request: &ExperimentRequest,
    parallel: &ParallelConfig,
) -> Result<(), CoreError> {
    banner(out, "Fig. 9: baseline CMOS-only power breakdown");
    let mut cfg = EvaluationConfig::paper_defaults(request.seed);
    cfg.parallel = *parallel;
    cfg.route.parallel = *parallel;
    let mut lt = Layers::default();
    let preset = nemfpga_netlist::synth::preset_by_name("frisc").expect("frisc is a preset");
    let netlist =
        timed(&mut lt.synth_s, || exp::scaled(preset, request.scale.max(0.02)).generate())?;
    let variants = vec![FpgaVariant::cmos_baseline(&cfg.node)];
    let eval = evaluate(netlist, &cfg, &variants, &mut lt)?;
    record(&lt);
    let v = &eval.variants[0];
    let d = v.power.dynamic.fractions().map(|x| (x * 100.0).round());
    let l = v.power.leakage.fractions().map(|x| (x * 100.0).round());
    wln!(out, "  benchmark: {} (scaled)", eval.benchmark);
    wln!(
        out,
        "  dynamic:  wires {}%, routing buffers {}%, LUTs {}%, clocking {}%",
        d[0],
        d[1],
        d[2],
        d[3]
    );
    wln!(out, "            (paper: 40 / 30 / 20 / 10)");
    wln!(
        out,
        "  leakage:  routing buffers {}%, routing SRAM {}%, pass transistors {}%, logic {}%",
        l[0],
        l[1],
        l[2],
        l[3]
    );
    wln!(out, "            (paper: 70 / 12 / 10 / 8)");
    Ok(())
}
