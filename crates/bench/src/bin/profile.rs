//! Host-time profiler over a canary simulation matrix.
//!
//! ```text
//! profile [--scheme NAME] [--workload NAME] [--trh N] [--epochs N]
//!         [--channels N] [--shard-workers N] [--folded FILE] [--jsonl FILE]
//! ```
//!
//! Runs the selected `(scheme, workload)` cell through the instrumented
//! matrix runner with a telemetry hub attached, then reports **where the
//! host wallclock went** — not simulated time, see DESIGN.md §12 — across
//! the coarse phases the stack instruments (`bench.setup`/`run`/`merge`,
//! `sim.run` > `sim.epoch`, `sim.refresh_drain`, `sim.epoch_end` >
//! `aqua.end_epoch`, `bench.csv`):
//!
//! - a per-phase table on stdout: call count, total/self time, min/max,
//!   and share of the total host wallclock;
//! - **folded-stacks** text (default `target/experiments/profile.folded`),
//!   one `path self_ns` line per phase path, directly consumable by
//!   `flamegraph.pl` or `inferno-flamegraph`;
//! - the same data as JSONL (default `target/experiments/profile.jsonl`)
//!   plus a trailer record with the throughput metrics;
//! - a CSV via the instrumented writer, so the CSV write itself lands in
//!   the hub as a `bench.csv` phase.
//!
//! The cell's own phases nest under the coordinator's `bench.run`
//! (`bench.run;sim.run;…`). With `--channels N > 1` the cell runs through
//! the sharded engine (`--shard-workers` caps the worker pool, 0 = one per
//! core) and every shard's phases come back under
//! `bench.run;sim.sharded;shard<i>;…`, so the table
//! shows each channel's hot loop separately. A **shard-imbalance summary**
//! follows: per-shard wallclock (summed over that shard's merged root
//! phases), min/median/max, and the max/median ratio — the number that says
//! whether a parallel run is gated on one slow channel.
//!
//! Defaults: aqua-sram on mcf, `T_RH=1000`, 1 epoch, 1 channel.

use std::fs::File;
use std::io::{BufWriter, Write};

use aqua_bench::output::write_csv_instrumented;
use aqua_bench::{Harness, Scheme};
use aqua_telemetry::{PhaseStats, Telemetry};

fn arg(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Nesting depth of a `;`-joined phase path (root = 0).
fn depth(path: &str) -> usize {
    path.matches(';').count()
}

/// The leaf phase name of a `;`-joined path.
fn leaf(path: &str) -> &str {
    path.rsplit(';').next().unwrap_or(path)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn print_phase_table(paths: &[(String, PhaseStats)], host_ns: u64) {
    println!(
        "\n{:<34} {:>8} {:>12} {:>12} {:>11} {:>11} {:>7}",
        "phase", "count", "total(ms)", "self(ms)", "min(us)", "max(us)", "self%"
    );
    for (path, stats) in paths {
        let label = format!("{}{}", "  ".repeat(depth(path)), leaf(path));
        let share = if host_ns > 0 {
            stats.self_ns() as f64 / host_ns as f64 * 100.0
        } else {
            0.0
        };
        println!(
            "{:<34} {:>8} {:>12.3} {:>12.3} {:>11.1} {:>11.1} {:>6.1}%",
            label,
            stats.count,
            ms(stats.total_ns),
            ms(stats.self_ns()),
            stats.min_ns as f64 / 1e3,
            stats.max_ns as f64 / 1e3,
            share
        );
    }
}

fn main() {
    let scheme = match arg("--scheme").as_deref().unwrap_or("aqua-sram") {
        "baseline" => Scheme::Baseline,
        "aqua-sram" => Scheme::AquaSram,
        "aqua-mapped" => Scheme::AquaMapped,
        "rrs" => Scheme::Rrs,
        "victim-refresh" => Scheme::VictimRefresh,
        "blockhammer" => Scheme::Blockhammer,
        other => {
            eprintln!("unknown scheme {other}");
            std::process::exit(2);
        }
    };
    let workload = arg("--workload").unwrap_or_else(|| "mcf".into());
    let t_rh: u64 = arg("--trh").and_then(|v| v.parse().ok()).unwrap_or(1000);
    let folded_path = arg("--folded").unwrap_or_else(|| "target/experiments/profile.folded".into());
    let jsonl_path = arg("--jsonl").unwrap_or_else(|| "target/experiments/profile.jsonl".into());

    let channels: u32 = arg("--channels").and_then(|v| v.parse().ok()).unwrap_or(1);
    if channels == 0 {
        eprintln!("--channels takes a positive channel count");
        std::process::exit(2);
    }

    let mut harness = Harness::new(t_rh);
    harness.epochs = arg("--epochs").and_then(|v| v.parse().ok()).unwrap_or(1);
    harness.base = harness.base.with_channels(channels);
    harness.shard_workers = arg("--shard-workers")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);

    let hub = Telemetry::new(Default::default());
    println!(
        "profiling {} on {workload} at T_RH={t_rh} for {} epoch(s), {channels} channel(s)...",
        scheme.name(),
        harness.epochs
    );
    let results =
        harness.run_matrix_instrumented(&[scheme], std::slice::from_ref(&workload), Some(&hub));
    let report = results
        .expect_complete()
        .reports()
        .next()
        .expect("one cell");
    println!(
        "simulation done: {} requests completed",
        report.requests_done
    );

    let wall = hub
        .summary()
        .and_then(|summary| summary.wallclock)
        .expect("a live hub profiles at least the sim.run phase");

    print_phase_table(&wall.paths, wall.host_wallclock_ns);
    // Per-job sim phases merge back nested under the coordinator's
    // bench.run, so the root totals are the coordinator's elapsed time.
    println!(
        "\nhost time      : {:.3} ms across {} phase paths",
        ms(wall.host_wallclock_ns),
        wall.paths.len()
    );
    println!("accesses       : {}", wall.accesses_simulated);
    println!(
        "throughput     : {:.0} accesses per host-second",
        wall.accesses_per_sec
    );
    print_shard_imbalance(&wall.paths);

    // CSV through the instrumented writer: the write itself records a
    // `bench.csv` phase into the hub (visible on the *next* profile run or
    // to any longer-lived consumer of this hub).
    let rows: Vec<Vec<String>> = wall
        .paths
        .iter()
        .map(|(path, s)| {
            vec![
                path.clone(),
                s.count.to_string(),
                s.total_ns.to_string(),
                s.self_ns().to_string(),
                s.min_ns.to_string(),
                s.max_ns.to_string(),
            ]
        })
        .collect();
    write_csv_instrumented(
        &hub,
        "profile",
        &["path", "count", "total_ns", "self_ns", "min_ns", "max_ns"],
        &rows,
    );

    let mut folded = create_output(&folded_path);
    wall.write_folded(&mut folded).expect("write folded stacks");
    folded.flush().expect("flush folded stacks");
    println!("wrote {folded_path}");

    let mut jsonl = create_output(&jsonl_path);
    wall.write_jsonl(&mut jsonl).expect("write profile JSONL");
    jsonl.flush().expect("flush profile JSONL");
    println!("wrote {jsonl_path}");

    println!("render a flamegraph with: flamegraph.pl {folded_path} > profile.svg");
}

/// Per-shard wallclock and imbalance from the merged phase tree.
///
/// Each shard's phases come back under `…;sim.sharded;shard<i>;…`; a shard's
/// wallclock is the sum of its merged *root* phases (direct children of the
/// shard prefix), which is how the coordinator's own `sim.sharded` span
/// would see it if the shards ran serially. Prints nothing on a
/// single-channel profile (no shard prefixes in the tree).
fn print_shard_imbalance(paths: &[(String, PhaseStats)]) {
    let mut per_shard: Vec<(String, u64)> = Vec::new();
    for (path, stats) in paths {
        let Some((_, rest)) = path.split_once("sim.sharded;") else {
            continue;
        };
        let Some((shard, tail)) = rest.split_once(';') else {
            continue;
        };
        if tail.contains(';') {
            continue; // not a shard-root phase; already counted in its root
        }
        match per_shard.iter_mut().find(|(name, _)| name == shard) {
            Some((_, ns)) => *ns += stats.total_ns,
            None => per_shard.push((shard.to_string(), stats.total_ns)),
        }
    }
    if per_shard.is_empty() {
        return;
    }
    println!("\nshard imbalance ({} shards):", per_shard.len());
    for (shard, ns) in &per_shard {
        println!("  {:<10} {:>12.3} ms", shard, ms(*ns));
    }
    let mut sorted: Vec<u64> = per_shard.iter().map(|&(_, ns)| ns).collect();
    sorted.sort_unstable();
    let median = sorted[sorted.len() / 2];
    let min = sorted[0];
    let max = sorted[sorted.len() - 1];
    let ratio = if median > 0 {
        max as f64 / median as f64
    } else {
        0.0
    };
    println!(
        "  min {:.3} ms, median {:.3} ms, max {:.3} ms -> max/median {:.2}x",
        ms(min),
        ms(median),
        ms(max),
        ratio
    );
}

fn create_output(path: &str) -> BufWriter<File> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    BufWriter::new(File::create(path).expect("create profile output file"))
}
