//! One simulated cell — a `(scheme, workload)` pair — built through the
//! public harness API, timed, and checked.

use aqua::AquaEngine;
use aqua_bench::{Harness, Scheme};
use aqua_dram::mitigation::{Mitigation, NoMitigation};
use aqua_rrs::{RrsConfig, RrsEngine};
use aqua_sim::{OracleSummary, RunReport, Simulation};
use aqua_telemetry::Telemetry;
use std::time::Instant;

/// A `(scheme, workload)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    pub scheme: Scheme,
    pub workload: &'static str,
}

impl Cell {
    pub fn label(self) -> String {
        format!("{}/{}", self.scheme.name(), self.workload)
    }
}

/// Work that needs the cell's engine type: `run` receives a builder for a
/// fresh engine, so callers can time its construction as set-up.
pub trait WithEngine {
    type Out;
    fn run<M: Mitigation>(self, build: impl FnOnce() -> M) -> Self::Out;
}

/// Calls `work` with the engine builder of `scheme`, configured exactly as
/// `Harness::run_instrumented` configures it.
pub fn with_engine<W: WithEngine>(h: &Harness, scheme: Scheme, work: W) -> W::Out {
    match scheme {
        Scheme::Baseline => work.run(|| NoMitigation::new(h.base.geometry)),
        Scheme::AquaSram => {
            work.run(|| AquaEngine::new(h.aqua_config()).expect("valid AQUA config"))
        }
        Scheme::AquaMapped => work.run(|| {
            AquaEngine::new(h.aqua_config().with_mapped_tables()).expect("valid AQUA config")
        }),
        Scheme::Rrs => {
            work.run(|| RrsEngine::new(RrsConfig::for_rowhammer_threshold(h.t_rh, &h.base)))
        }
        other => panic!("scheme {} is not part of the benchmark", other.name()),
    }
}

/// Builds the cell's `Simulation` — engine, generators, `Simulation::new`
/// (which allocates the oracle and shadow arrays) — and returns it with the
/// seconds that took.
fn build<M: Mitigation>(
    h: &Harness,
    workload: &str,
    engine: impl FnOnce() -> M,
) -> (Simulation<M>, f64) {
    let start = Instant::now();
    let engine = engine();
    let cfg = h.sim_config(engine.name(), workload);
    let sim = Simulation::new(cfg, engine, h.generators(workload));
    (sim, start.elapsed().as_secs_f64())
}

/// Set-up only: builds the cell and drops it.
struct Setup<'a> {
    h: &'a Harness,
    workload: &'a str,
}

impl WithEngine for Setup<'_> {
    type Out = f64;
    fn run<M: Mitigation>(self, engine: impl FnOnce() -> M) -> f64 {
        build(self.h, self.workload, engine).1
    }
}

/// A timed `Simulation::run` of the cell, with an optional telemetry hub.
struct Timed<'a> {
    h: &'a Harness,
    workload: &'a str,
    hub: Option<&'a Telemetry>,
}

pub struct TimedOut {
    pub setup_s: f64,
    pub run_s: f64,
    pub report: RunReport,
}

impl WithEngine for Timed<'_> {
    type Out = TimedOut;
    fn run<M: Mitigation>(self, engine: impl FnOnce() -> M) -> TimedOut {
        let (mut sim, setup_s) = build(self.h, self.workload, engine);
        if let Some(hub) = self.hub {
            sim.attach_telemetry(hub.clone());
        }
        let start = Instant::now();
        let mut report = sim.run();
        let run_s = start.elapsed().as_secs_f64();
        report.workload = self.workload.to_string();
        TimedOut {
            setup_s,
            run_s,
            report,
        }
    }
}

/// Runs `cell` with an optional hub, turning a panic into an `Err`.
pub fn run(h: &Harness, cell: Cell, hub: Option<&Telemetry>) -> Result<TimedOut, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        with_engine(
            h,
            cell.scheme,
            Timed {
                h,
                workload: cell.workload,
                hub,
            },
        )
    }))
    .map_err(aqua_bench::pool::panic_message)
}

/// Set-up seconds of one build of `cell`.
pub fn setup_s(h: &Harness, cell: Cell) -> f64 {
    with_engine(
        h,
        cell.scheme,
        Setup {
            h,
            workload: cell.workload,
        },
    )
}

/// The simulated outcome that must repeat exactly across repeats of a cell.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    requests_done: u64,
    per_core: Vec<u64>,
    row_migrations: u64,
    oracle: OracleSummary,
}

impl Fingerprint {
    fn of(r: &RunReport) -> Self {
        Fingerprint {
            requests_done: r.requests_done,
            per_core: r.per_core.clone(),
            row_migrations: r.mitigation.row_migrations,
            oracle: r.oracle,
        }
    }
}

/// The output checks every timed cell must pass: data integrity, no scheme
/// violation, and — for the mitigations — no row past `T_RH` and no row
/// open to a bit flip.
fn check(scheme: Scheme, r: &RunReport) -> Result<(), String> {
    if r.integrity_violations != 0 {
        return Err(format!("{} integrity violations", r.integrity_violations));
    }
    if r.mitigation.violations != 0 {
        return Err(format!("{} scheme violations", r.mitigation.violations));
    }
    if scheme != Scheme::Baseline && (r.oracle.rows_over_trh != 0 || r.oracle.rows_flippable != 0) {
        return Err(format!(
            "oracle: {} rows over T_RH, {} rows flippable",
            r.oracle.rows_over_trh, r.oracle.rows_flippable
        ));
    }
    Ok(())
}

/// Checks of many repeats of many cells: each cell's first fingerprint is
/// the reference every later repeat must equal.
#[derive(Default)]
pub struct Checker {
    reference: Vec<(String, Fingerprint)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    /// Records one attempted cell; returns whether it passed.
    pub fn note(&mut self, cell: Cell, outcome: Result<&RunReport, String>) -> bool {
        self.attempted += 1;
        let verdict = outcome.and_then(|r| {
            check(cell.scheme, r)?;
            let fp = Fingerprint::of(r);
            let label = cell.label();
            match self.reference.iter().find(|(l, _)| *l == label) {
                Some((_, first)) if *first != fp => Err(format!(
                    "report differs from the first repeat: {fp:?} vs {first:?}"
                )),
                Some(_) => Ok(()),
                None => {
                    self.reference.push((label, fp));
                    Ok(())
                }
            }
        });
        match verdict {
            Ok(()) => true,
            Err(msg) => {
                eprintln!("FAILED {}: {msg}", cell.label());
                self.failed += 1;
                false
            }
        }
    }
}
