//! General-purpose simulation CLI.
//!
//! ```text
//! simulate [--scheme NAME] [--workload NAME] [--trh N] [--epochs N]
//!          [--trace-out FILE] [--timeseries-out FILE] [--histograms FILE]
//!          [--spans-out FILE] [--trace-activates] [--trace-capacity N]
//!          [--metrics-addr HOST:PORT]
//! ```
//!
//! - `--scheme`: baseline | aqua-sram | aqua-mapped | rrs | victim-refresh |
//!   blockhammer (default aqua-sram)
//! - `--workload`: any Table II name or `mixNN` (default mcf)
//! - `--trh`: Rowhammer threshold (default 1000)
//! - `--epochs`: 64 ms epochs to simulate (default 2)
//! - `--trace-out`: write the event trace **and causal migration spans** as
//!   a Chrome-loadable JSON file (open in `chrome://tracing` or Perfetto;
//!   spans render as duration bars, events as instants)
//! - `--spans-out`: write the completed spans as JSONL (one record per
//!   span: id, parent, name, start/end/duration in ps)
//! - `--timeseries-out`: write the per-epoch time series as JSONL (one
//!   record per epoch: migrations, RQA occupancy, FPT-cache hit rate, ...)
//! - `--histograms`: write the latency histograms (memory access, migration
//!   stall, table lookup) as JSONL
//! - `--trace-activates`: include per-access `Activate` events in the trace
//!   (high volume; off by default)
//! - `--trace-capacity`: ring-buffer size of the event trace (default 65536;
//!   oldest events are dropped first)
//! - `--metrics-addr`: serve live `/metrics` (Prometheus text) and
//!   `/healthz` on this address while the run is in flight (port 0 binds an
//!   ephemeral port; equivalent to setting `AQUA_METRICS_ADDR`). Watch it
//!   with the `monitor` binary. Deterministic outputs are byte-identical
//!   with the plane on or off.
//!
//! Prints the full run report, including the security-oracle verdict, the
//! shadow-memory integrity check, and — when a hub is attached — a
//! host-throughput section (accesses per wallclock second; see DESIGN.md
//! §12 on host vs simulated time). Without a telemetry flag no hub is
//! attached and the run records nothing.

use std::fs::File;
use std::io::BufWriter;

use aqua_bench::{Harness, Scheme};
use aqua_telemetry::export::{
    write_chrome_trace_full, write_epochs_jsonl, write_histogram_jsonl, write_spans_jsonl,
};
use aqua_telemetry::{Telemetry, TelemetryConfig};

fn arg(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// The histogram names `Simulation::attach_telemetry` registers.
const HISTOGRAMS: [&str; 3] = ["mem.access_ps", "migration.stall_ps", "table.lookup_ps"];

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
    let mut harness = Harness::new(t_rh);
    if let Some(e) = arg("--epochs").and_then(|v| v.parse().ok()) {
        harness.epochs = e;
    }
    if harness.metrics.is_none() {
        if let Some(addr) = arg("--metrics-addr") {
            match aqua_telemetry::MetricsPlane::bind(&addr) {
                Ok(plane) => harness.metrics = Some(plane),
                Err(e) => {
                    eprintln!("cannot bind --metrics-addr {addr}: {e}");
                    std::process::exit(2);
                }
            }
        }
    }

    let trace_out = arg("--trace-out");
    let timeseries_out = arg("--timeseries-out");
    let histograms_out = arg("--histograms");
    let spans_out = arg("--spans-out");
    // A live plane needs an enabled hub to snapshot, so it implies one
    // even when no export file was asked for.
    let want_telemetry = trace_out.is_some()
        || timeseries_out.is_some()
        || histograms_out.is_some()
        || spans_out.is_some()
        || harness.metrics.is_some();
    let telemetry = if want_telemetry {
        let mut cfg = TelemetryConfig {
            trace_activates: flag("--trace-activates"),
            ..TelemetryConfig::default()
        };
        if let Some(cap) = arg("--trace-capacity").and_then(|v| v.parse().ok()) {
            cfg.trace_capacity = cap;
        }
        Some(Telemetry::new(cfg))
    } else {
        None
    };

    println!(
        "running {} on {workload} at T_RH={t_rh} for {} epochs...",
        scheme.name(),
        harness.epochs
    );
    let baseline = harness.run(Scheme::Baseline, &workload);
    let report = if scheme == Scheme::Baseline && telemetry.is_none() {
        baseline.clone()
    } else {
        harness.run_instrumented(scheme, &workload, telemetry.as_ref())
    };

    println!("\nworkload             : {}", report.workload);
    println!("scheme               : {}", report.scheme);
    println!("requests completed   : {}", report.requests_done);
    println!(
        "normalized perf      : {:.4}",
        report.normalized_perf(&baseline)
    );
    println!(
        "row migrations/epoch : {:.1}",
        report.migrations_per_epoch()
    );
    println!(
        "victim refreshes     : {}",
        report.mitigation.victim_refreshes
    );
    println!("throttled requests   : {}", report.mitigation.throttled);
    println!("channel busy (data)  : {}", report.data_busy);
    println!("channel busy (migr.) : {}", report.migration_busy);
    println!("channel busy (table) : {}", report.table_busy);
    println!(
        "max row acts (window): {}",
        report.oracle.max_window_activations
    );
    println!("rows over T_RH       : {}", report.oracle.rows_over_trh);
    println!("rows flippable       : {}", report.oracle.rows_flippable);
    println!("scheme violations    : {}", report.mitigation.violations);
    println!("integrity violations : {}", report.integrity_violations);

    let Some(hub) = telemetry else { return };

    if let Some(summary) = &report.telemetry {
        println!("\n-- telemetry --");
        println!(
            "events               : {} recorded, {} dropped (ring full)",
            summary.events_recorded, summary.events_dropped
        );
        for (name, h) in &summary.histograms {
            if h.count == 0 {
                continue;
            }
            println!(
                "{name:<21}: n={} p50={:.0} p95={:.0} p99={:.0} max={} (ps)",
                h.count, h.p50, h.p95, h.p99, h.max
            );
        }
        // Host-time throughput (wallclock seconds, not simulated time —
        // see DESIGN.md §12). Present whenever the run opened phases.
        if let Some(w) = &summary.wallclock {
            println!("\n-- host throughput --");
            println!("accesses simulated   : {}", w.accesses_simulated);
            println!(
                "host wallclock       : {:.3} ms",
                w.host_wallclock_ns as f64 / 1e6
            );
            println!("accesses/sec (host)  : {:.0}", w.accesses_per_sec);
        }
    }

    if let Some(path) = trace_out {
        let events = hub.trace_events();
        let spans = hub.spans();
        let mut w = BufWriter::new(File::create(&path).expect("create --trace-out file"));
        write_chrome_trace_full(&mut w, events.iter(), &spans).expect("write Chrome trace");
        println!(
            "wrote {} trace events and {} spans to {path}",
            events.len(),
            spans.len()
        );
    }
    if let Some(path) = spans_out {
        let spans = hub.spans();
        let mut w = BufWriter::new(File::create(&path).expect("create --spans-out file"));
        write_spans_jsonl(&mut w, &spans).expect("write spans JSONL");
        println!("wrote {} span records to {path}", spans.len());
    }
    if let Some(path) = timeseries_out {
        let series = hub.epochs();
        let mut w = BufWriter::new(File::create(&path).expect("create --timeseries-out file"));
        write_epochs_jsonl(&mut w, &series).expect("write epoch time series");
        println!("wrote {} epoch records to {path}", series.len());
    }
    if let Some(path) = histograms_out {
        let mut w = BufWriter::new(File::create(&path).expect("create --histograms file"));
        for name in HISTOGRAMS {
            let data = hub.histogram(name).snapshot();
            write_histogram_jsonl(&mut w, name, &data).expect("write histogram");
        }
        println!("wrote {} histograms to {path}", HISTOGRAMS.len());
    }
    // Keep the endpoint up for late scrapers (AQUA_METRICS_LINGER_MS).
    if let Some(plane) = &harness.metrics {
        plane.linger_from_env();
    }
}
