//! Host-throughput benchmark of the AQUA simulator, with a per-layer ledger.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <aqua-lbm|baseline-lbm|gate-matrix|all> \
//!     [--seed 42] [--seconds 35] [--trace 0|1]
//! ```
//!
//! Every workload simulates one 64 ms epoch per cell at `T_RH` = 1000 on
//! one channel of the paper's Table I system, with the workload seed given
//! by `--seed` (default 42, as in every committed BENCH file; 7 is held out
//! from tuning for later claims).
//!
//! - `aqua-lbm`: aqua-sram on lbm, serial, no telemetry hub. lbm is the most
//!   mitigation-heavy Table II workload, so the engine does most of the
//!   per-access work.
//! - `baseline-lbm`: no mitigation on the same streams. Ground truth
//!   (oracle, shadow memory), the core model and `dram` dominate; an engine
//!   or tracker change is predicted flat here.
//! - `gate-matrix`: `Harness::run_matrix_instrumented` over {baseline,
//!   aqua-sram, aqua-mapped, rrs} × {mcf, povray} with a telemetry hub, at
//!   `min(2, nproc)` jobs: the regression gate's cells. It loads the pool,
//!   the hub, RRS swaps, mapped-table translation and uneven cell lengths.
//!
//! With `--trace 0` the benchmark repeats the workload while the next
//! repeat fits in `--seconds` and reports `norm_accesses_per_s` (median over
//! repeats of the rate scaled to a nominal host speed, see
//! `host::Reference`), `setup_s` (median over `SETUP_SAMPLES` builds,
//! timed before the first repeat) and `peak_rss_mb`. With `--trace 1` it
//! runs each cell with and without a hub, replays it through the layers'
//! public calls (see `replay`), and reports the per-layer ledger. Every
//! simulated cell passes the output checks of `cells::check` and must
//! repeat its first report exactly; a cell that does not counts as failed.

mod cells;
mod host;
mod replay;

use aqua_bench::{Harness, Scheme};
use aqua_dram::BaselineConfig;
use aqua_sim::CostAblation;
use aqua_telemetry::{Telemetry, TelemetryConfig};
use cells::{Cell, Checker, TimedOut};
use replay::{Layer, Ledger, Replay, ReplayOut};
use std::time::Instant;

const T_RH: u64 = 1000;
const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: f64 = 35.0;
/// Builds timed per run for the `setup_s` median.
const SETUP_SAMPLES: usize = 31;
const GATE_SCHEMES: [Scheme; 4] = [
    Scheme::Baseline,
    Scheme::AquaSram,
    Scheme::AquaMapped,
    Scheme::Rrs,
];
const GATE_WORKLOADS: [&str; 2] = ["mcf", "povray"];
/// The cell the hub's cost is read on: the regression gate's throughput canary.
const HUB_CELL: Cell = Cell {
    scheme: Scheme::AquaSram,
    workload: "mcf",
};
/// Fig. 7's lbm reading, from EXPERIMENTS.md.
const PAPER_FIG7_LBM: f64 = 0.84;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    AquaLbm,
    BaselineLbm,
    GateMatrix,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::AquaLbm,
        Workload::BaselineLbm,
        Workload::GateMatrix,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::AquaLbm => "aqua-lbm",
            Workload::BaselineLbm => "baseline-lbm",
            Workload::GateMatrix => "gate-matrix",
        }
    }

    /// The cells, in `run_matrix`'s workload-major order.
    fn cells(self) -> Vec<Cell> {
        let lbm = |scheme| Cell {
            scheme,
            workload: "lbm",
        };
        match self {
            Workload::AquaLbm => vec![lbm(Scheme::AquaSram)],
            Workload::BaselineLbm => vec![lbm(Scheme::Baseline)],
            Workload::GateMatrix => GATE_WORKLOADS
                .iter()
                .flat_map(|&workload| GATE_SCHEMES.map(|scheme| Cell { scheme, workload }))
                .collect(),
        }
    }
}

struct Args {
    /// `None` runs every workload, each in a process of its own.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a number of seconds"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" {
        args.workload = Some(
            Workload::ALL
                .into_iter()
                .find(|w| w.name() == workload)
                .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        );
    }
    Ok(args)
}

/// The harness every cell runs under, with each field the benchmark depends
/// on set here rather than read from the environment. A journal would
/// replay cells from disk and a metrics plane or alert rules would add
/// host work, so their variables make the benchmark refuse to run.
fn harness(seed: u64, jobs: usize) -> Result<Harness, String> {
    for var in [
        "AQUA_BENCH_JOURNAL",
        "AQUA_METRICS_ADDR",
        "AQUA_ALERT_RULES",
    ] {
        if std::env::var_os(var).is_some_and(|v| !v.is_empty()) {
            return Err(format!("{var} is set; unset it to benchmark"));
        }
    }
    let mut h = Harness::new(T_RH);
    h.base = BaselineConfig::paper_table1().with_channels(1);
    h.t_rh = T_RH;
    h.epochs = 1;
    h.seed = seed;
    h.jobs = jobs;
    h.shard_workers = 1;
    h.faults = None;
    h.watchdog = None;
    h.deadline = None;
    h.retries = 1;
    h.journal = None;
    h.chaos = None;
    h.ablate = CostAblation::NONE;
    h.metrics = None;
    Ok(h)
}

/// Metrics in print order, each `(name, value, unit)`.
#[derive(Default)]
struct Output {
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Output {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Prints one `metric` line per metric, then the result object as the
    /// last line. A non-finite value makes the result incorrect.
    fn print(&self, correct: bool, attempted: u64, failed: u64) {
        let mut correct = correct;
        let mut fields = Vec::new();
        for &(name, value, unit) in &self.metrics {
            println!("metric {name} {value} {unit}");
            if !value.is_finite() {
                eprintln!("metric {name} is not finite");
                correct = false;
            }
            let value = if value.is_finite() { value } else { 0.0 };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            fields.join(", ")
        );
    }
}

/// The untraced run: repeats the workload while the next repeat still fits
/// in `seconds`, with a `host::Reference` pass before and after each.
fn measure(h: &Harness, wl: Workload, seconds: f64, out: &mut Output) -> Checker {
    let cells = wl.cells();
    let mut checker = Checker::default();
    let mut rates = Vec::new();
    let mut raw_rates = Vec::new();
    // Set-up is timed first, so every run times it after the same history
    // of allocations. Timed after the repeats, the same builds read about
    // twice as long in some runs, depending on what the repeats had left
    // in the allocator.
    let setups: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| cells.iter().map(|&c| cells::setup_s(h, c)).sum())
        .collect();
    let mut peak_rss_mb = None;
    // Allocated after the first repeat, so `peak_rss_mb` is the workload's.
    let mut reference: Option<host::Reference> = None;
    let mut before_ms = None;
    let start = Instant::now();
    let mut repeat = 0;
    let mut last_s = 0.0;
    while repeat == 0 || start.elapsed().as_secs_f64() + last_s <= seconds {
        repeat += 1;
        let t_repeat = Instant::now();
        // Simulated accesses and the seconds they took, if every cell passed.
        let timed = if wl == Workload::GateMatrix {
            let hub = Telemetry::new(TelemetryConfig::default());
            let t0 = Instant::now();
            let results = h.run_matrix_instrumented(
                &GATE_SCHEMES,
                &GATE_WORKLOADS.map(String::from),
                Some(&hub),
            );
            let wall = t0.elapsed().as_secs_f64();
            let mut accesses = 0;
            let mut ok = true;
            for (&cell, mc) in cells.iter().zip(results.cells()) {
                let outcome = mc.outcome.as_ref().map_err(ToString::to_string);
                accesses += outcome.as_ref().map_or(0, |r| r.requests_done);
                ok &= checker.note(cell, outcome);
            }
            eprintln!("# repeat {repeat}: matrix {wall:.3} s, {accesses} accesses");
            ok.then_some((accesses, wall))
        } else {
            let cell = cells[0];
            let outcome = cells::run(h, cell, None);
            if let Ok(t) = &outcome {
                eprintln!(
                    "# repeat {repeat}: {} setup {:.4} s, run {:.3} s, {} accesses",
                    cell.label(),
                    t.setup_s,
                    t.run_s,
                    t.report.requests_done
                );
            }
            let report = outcome.as_ref().map(|t| &t.report).map_err(Clone::clone);
            checker
                .note(cell, report)
                .then(|| outcome.as_ref().expect("a passing cell has a report"))
                .map(|t| (t.report.requests_done, t.run_s))
        };
        // The high-water mark of one repeat: later repeats add allocator
        // retention, and a faster host fits more of them into a run.
        peak_rss_mb.get_or_insert_with(host::peak_rss_mb);
        let reference = reference.get_or_insert_with(|| host::Reference::new(h.jobs));
        let after_ms = reference.pass_ms();
        let ref_ms = before_ms.map_or(after_ms, |b| (b + after_ms) / 2.0);
        before_ms = Some(after_ms);
        if let Some((accesses, run_s)) = timed {
            let raw = accesses as f64 / run_s;
            eprintln!("# reference {ref_ms:.2} ms");
            raw_rates.push(raw);
            rates.push(raw * ref_ms / host::REFERENCE_NOMINAL_MS);
        }
        last_s = t_repeat.elapsed().as_secs_f64();
    }
    println!(
        "# {repeat} repeats, unscaled accesses_per_s {}",
        host::median(&raw_rates)
    );
    out.push("norm_accesses_per_s", host::median(&rates), "1/s");
    out.push("setup_s", host::median(&setups), "s");
    out.push("peak_rss_mb", peak_rss_mb.unwrap_or(0.0), "MB");
    checker
}

/// Sums over the replayed cells.
#[derive(Default)]
struct Totals {
    ledger: Ledger,
    accesses: u64,
    activations: u64,
    bank_accesses: u64,
    actions: u64,
    row_migrations: u64,
    dram_table_reads: u64,
    /// Untraced `Simulation::run` seconds, no hub.
    run_s: f64,
    untraced_s: f64,
    traced_s: f64,
    faithful: bool,
}

/// Replays `cell` untraced and traced and checks both against `reference`.
fn replay_cell(h: &Harness, cell: Cell, reference: &TimedOut, totals: &mut Totals) {
    let untraced: ReplayOut = cells::with_engine(
        h,
        cell.scheme,
        Replay::<false> {
            h,
            workload: cell.workload,
        },
    );
    let traced: ReplayOut = cells::with_engine(
        h,
        cell.scheme,
        Replay::<true> {
            h,
            workload: cell.workload,
        },
    );
    let r = &reference.report;
    let faithful = [&untraced, &traced].iter().all(|o| {
        o.per_core == r.per_core
            && o.row_migrations == r.mitigation.row_migrations
            && o.oracle == r.oracle
            && o.integrity_violations == r.integrity_violations
    });
    if !faithful {
        eprintln!(
            "UNFAITHFUL replay of {}: run {:?} migrations {}, replay {:?} migrations {}",
            cell.label(),
            r.per_core,
            r.mitigation.row_migrations,
            traced.per_core,
            traced.row_migrations
        );
    }
    eprintln!(
        "# replay {}: run {:.3} s, untraced replay {:.3} s, traced replay {:.3} s",
        cell.label(),
        reference.run_s,
        untraced.wall_s,
        traced.wall_s
    );
    totals.ledger.add(&traced.ledger);
    totals.accesses += traced.accesses;
    totals.activations += traced.activations;
    totals.bank_accesses += traced.bank_accesses;
    totals.actions += traced.actions;
    totals.row_migrations += traced.row_migrations;
    totals.dram_table_reads += traced.dram_table_reads;
    totals.run_s += reference.run_s;
    totals.untraced_s += untraced.wall_s;
    totals.traced_s += traced.wall_s;
    totals.faithful &= faithful;
}

/// What the pool metrics are computed from: the workers, the whole wall
/// (set-up to merge), the wall of the run stage alone, and each cell's
/// `sim.run` seconds.
struct Pool {
    jobs: usize,
    wall_s: f64,
    run_wall_s: f64,
    cell_s: Vec<f64>,
}

/// The traced run: hub on and off, replays, ledger.
fn trace(h: &Harness, wl: Workload, timer: host::Timer, out: &mut Output) -> (Checker, bool) {
    let cells = wl.cells();
    let mut checker = Checker::default();
    let mut totals = Totals {
        faithful: true,
        ..Totals::default()
    };
    // Untraced, hub-less runs: the reference for the replays and the wall
    // the ledger must account for.
    let mut references = Vec::new();
    for &cell in &cells {
        match cells::run(h, cell, None) {
            Ok(t) => {
                checker.note(cell, Ok(&t.report));
                references.push((cell, t));
            }
            Err(msg) => {
                checker.note(cell, Err(msg));
                totals.faithful = false;
            }
        }
    }
    let hub_cell = if wl == Workload::GateMatrix {
        HUB_CELL
    } else {
        cells[0]
    };
    let off = references
        .iter()
        .find(|(c, _)| *c == hub_cell)
        .map(|(_, t)| t.run_s)
        .unwrap_or(f64::NAN);
    let hub = Telemetry::new(TelemetryConfig::default());
    let on = cells::run(h, hub_cell, Some(&hub));
    checker.note(
        hub_cell,
        on.as_ref().map(|t| &t.report).map_err(Clone::clone),
    );
    let (hub_ns, cell_rate) = match &on {
        Ok(t) => (
            (t.run_s - off) * 1e9 / t.report.requests_done as f64,
            t.report.requests_done as f64 / t.run_s,
        ),
        Err(_) => (f64::NAN, f64::NAN),
    };

    let (pool, merge_ms, reported_rate, measured_rate) = if wl == Workload::GateMatrix {
        let parent = Telemetry::new(TelemetryConfig::default());
        let t0 = Instant::now();
        let results = h.run_matrix_instrumented(
            &GATE_SCHEMES,
            &GATE_WORKLOADS.map(String::from),
            Some(&parent),
        );
        let wall_s = t0.elapsed().as_secs_f64();
        let mut accesses = 0;
        let mut cell_s = Vec::new();
        for (&cell, mc) in cells.iter().zip(results.cells()) {
            checker.note(cell, mc.outcome.as_ref().map_err(ToString::to_string));
            if let Ok(r) = &mc.outcome {
                accesses += r.requests_done;
                let run_ns = r
                    .telemetry
                    .as_ref()
                    .and_then(|s| s.wallclock.as_ref())
                    .and_then(|w| w.path("sim.run"))
                    .map_or(0, |p| p.total_ns);
                cell_s.push(run_ns as f64 / 1e9);
            }
        }
        let wallclock = parent.summary().and_then(|s| s.wallclock);
        let phase_s = |name: &str| {
            wallclock
                .as_ref()
                .and_then(|w| w.path(name))
                .map_or(f64::NAN, |p| p.total_ns as f64 / 1e9)
        };
        let reported = wallclock.as_ref().map_or(f64::NAN, |w| w.accesses_per_sec);
        let pool = Pool {
            jobs: h.jobs,
            wall_s,
            run_wall_s: phase_s("bench.run"),
            cell_s,
        };
        (
            pool,
            phase_s("bench.merge") * 1e3,
            reported,
            accesses as f64 / wall_s,
        )
    } else {
        let parent = Telemetry::new(TelemetryConfig::default());
        let t0 = Instant::now();
        parent.merge_from(&hub);
        let merge_ms = t0.elapsed().as_secs_f64() * 1e3;
        let reported = hub
            .summary()
            .and_then(|s| s.wallclock)
            .map_or(f64::NAN, |w| w.accesses_per_sec);
        let (wall_s, cell_s) = references.first().map_or((f64::NAN, f64::NAN), |(_, t)| {
            (t.setup_s + t.run_s, t.run_s)
        });
        let pool = Pool {
            jobs: 1,
            wall_s,
            run_wall_s: wall_s,
            cell_s: vec![cell_s],
        };
        (pool, merge_ms, reported, cell_rate)
    };

    for (cell, reference) in &references {
        replay_cell(h, *cell, reference, &mut totals);
    }
    if references.len() != cells.len() {
        totals.faithful = false;
    }
    if wl == Workload::AquaLbm {
        accuracy_note(h, references.first().map(|(_, t)| t));
    }

    let l = &totals.ledger;
    let scale = l.scale(timer, totals.untraced_s);
    let layer_ns = |layer| l.fenced_ns(layer, timer) / scale;
    let a = totals.accesses.max(1) as f64;
    let per_access = |layer| layer_ns(layer) / a;
    let per_call = |layer: Layer| {
        let calls = l.calls[layer as usize];
        if calls == 0 {
            0.0
        } else {
            layer_ns(layer) / calls as f64
        }
    };
    out.push("mitigation.activate_ns", per_call(Layer::Activate), "ns");
    out.push(
        "mitigation.translate_ns",
        per_access(Layer::Translate),
        "ns",
    );
    out.push("mitigation.tick_ns", per_call(Layer::Tick), "ns");
    out.push(
        "mitigation.end_epoch_ms",
        per_call(Layer::EndEpoch) / 1e6,
        "ms",
    );
    out.push(
        "sim.oracle_record_ns",
        per_access(Layer::OracleRecord),
        "ns",
    );
    out.push(
        "sim.oracle_end_epoch_ms",
        per_call(Layer::OracleEndEpoch) / 1e6,
        "ms",
    );
    out.push(
        "sim.shadow_verify_ns",
        per_access(Layer::ShadowVerify),
        "ns",
    );
    out.push("sim.sched_ns", per_access(Layer::Sched), "ns");
    out.push("sim.core_commit_ns", per_access(Layer::Commit), "ns");
    out.push(
        "workload.next_request_ns",
        per_access(Layer::NextRequest),
        "ns",
    );
    out.push("dram.bank_access_ns", per_access(Layer::Bank), "ns");
    out.push("dram.channel_ns", per_access(Layer::Channel), "ns");
    out.push("dram.refresh_ns", per_access(Layer::Refresh), "ns");
    out.push("sim.apply_actions_ns", per_call(Layer::ApplyAction), "ns");
    out.push("sim.run_ns_per_access", totals.run_s * 1e9 / a, "ns");
    out.push("telemetry.hub_ns_per_access", hub_ns, "ns");
    out.push("telemetry.merge_ms", merge_ms, "ms");
    out.push(
        "telemetry.reported_throughput_ratio",
        reported_rate / measured_rate,
        "ratio",
    );
    let busy: f64 = pool.cell_s.iter().sum();
    out.push(
        "pool.efficiency",
        busy / (pool.jobs as f64 * pool.wall_s),
        "ratio",
    );
    out.push(
        "pool.tail_idle_s",
        pool.jobs as f64 * pool.run_wall_s - busy,
        "s",
    );
    out.push(
        "pool.cell_s_max",
        pool.cell_s.iter().copied().fold(0.0, f64::max),
        "s",
    );
    out.push("sim.accesses", totals.accesses as f64, "count");
    out.push("sim.activations", totals.activations as f64, "count");
    out.push(
        "dram.row_hit_ratio",
        1.0 - totals.activations as f64 / totals.bank_accesses.max(1) as f64,
        "ratio",
    );
    out.push("mitigation.actions", totals.actions as f64, "count");
    out.push(
        "mitigation.row_migrations",
        totals.row_migrations as f64,
        "count",
    );
    out.push(
        "mitigation.dram_table_reads",
        totals.dram_table_reads as f64,
        "count",
    );
    let layers_s: f64 = replay::ALL
        .iter()
        .map(|&layer| layer_ns(layer))
        .sum::<f64>()
        / 1e9;
    out.push("probe.timer_floor_ns", timer.floor_ns, "ns");
    out.push("probe.fence_scale", scale, "ratio");
    out.push(
        "probe.overhead_pct",
        (totals.traced_s - totals.untraced_s) / totals.untraced_s * 100.0,
        "%",
    );
    out.push(
        "probe.residual_pct",
        (totals.run_s - layers_s) / totals.run_s * 100.0,
        "%",
    );
    out.push(
        "probe.faithful",
        f64::from(u8::from(totals.faithful)),
        "bool",
    );
    print_ledger(&totals, timer, scale);
    (checker, totals.faithful)
}

/// The ledger as a table: each layer's host time per simulated access and
/// its share of the untraced `Simulation::run` wall.
fn print_ledger(totals: &Totals, timer: host::Timer, scale: f64) {
    let a = totals.accesses.max(1) as f64;
    let wall_ns = totals.run_s * 1e9;
    println!("ledger (ns per access, share of untraced Simulation::run wall):");
    let mut covered = 0.0;
    for layer in replay::ALL {
        let ns = totals.ledger.fenced_ns(layer, timer) / scale;
        covered += ns;
        println!(
            "  {:<16} {:>8.2} ns {:>6.1}%",
            format!("{layer:?}"),
            ns / a,
            ns / wall_ns * 100.0
        );
    }
    println!(
        "  {:<16} {:>8.2} ns {:>6.1}%",
        "residual",
        (wall_ns - covered) / a,
        (wall_ns - covered) / wall_ns * 100.0
    );
    println!("  {:<16} {:>8.2} ns", "run wall", wall_ns / a);
}

/// Model-accuracy information that no gate reads: aqua-lbm's simulated
/// normalized performance next to the paper's reading.
fn accuracy_note(h: &Harness, aqua: Option<&TimedOut>) {
    let base = cells::run(
        h,
        Cell {
            scheme: Scheme::Baseline,
            workload: "lbm",
        },
        None,
    );
    if let (Some(aqua), Ok(base)) = (aqua, base) {
        println!(
            "model accuracy (no gate reads this; the model is calibrated on Table II only): \
             aqua-lbm normalized perf {:.4} = {} / {} accesses; paper Fig. 7 lbm ~{PAPER_FIG7_LBM}",
            aqua.report.requests_done as f64 / base.report.requests_done as f64,
            aqua.report.requests_done,
            base.report.requests_done
        );
    }
}

/// Runs every workload in a child process of its own (each has its own
/// peak RSS) and prints a combined result keyed `workload/metric`.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut fields = Vec::new();
    for wl in Workload::ALL {
        let out = std::process::Command::new(&exe)
            .args(["--workload", wl.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or("");
        correct &= out.status.success() && last.starts_with("{\"correct\": true");
        let count = |key: &str| {
            last.split(&format!("\"{key}\": "))
                .nth(1)
                .and_then(|s| s.split(',').next())
                .and_then(|s| s.parse::<u64>().ok())
                .unwrap_or(0)
        };
        attempted += count("attempted");
        failed += count("failed");
        for line in stdout.lines() {
            let parts: Vec<&str> = line.split(' ').collect();
            if let ["metric", name, value, unit] = parts[..] {
                fields.push(format!(
                    "\"{}/{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                    wl.name()
                ));
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    Ok(())
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --workload <aqua-lbm|baseline-lbm|gate-matrix|all> \
             [--seed N] [--seconds S] [--trace 0|1]"
        );
        std::process::exit(2);
    });
    let Some(wl) = args.workload else {
        if let Err(e) = run_all(&args) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    };
    let jobs = if wl == Workload::GateMatrix {
        host::nproc().min(2)
    } else {
        1
    };
    let h = harness(args.seed, jobs).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} jobs={jobs}",
        wl.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let timer = host::Timer::calibrate();
    let mut out = Output::default();
    let (checker, faithful) = if args.trace {
        trace(&h, wl, timer, &mut out)
    } else {
        (measure(&h, wl, args.seconds, &mut out), true)
    };
    // After the workload, so the probe's table stays out of `peak_rss_mb`.
    println!("{}", host::record(timer));
    println!("ops {} ops_failed {}", checker.attempted, checker.failed);
    out.print(
        checker.failed == 0 && faithful,
        checker.attempted,
        checker.failed,
    );
}
