//! Console watcher for a live AQUA metrics plane.
//!
//! ```text
//! monitor --addr HOST:PORT [--interval-ms N] [--once] [--raw]
//! ```
//!
//! Tails the `/healthz` endpoint that a run exposes via
//! `AQUA_METRICS_ADDR` (or `--metrics-addr` on `simulate` /
//! `fault_campaign`) and redraws a per-scheme, per-channel table every
//! `--interval-ms` (default 1000) until interrupted:
//!
//! ```text
//! aqua monitor — up 12.4s, 3 scrapes, 0 alerts
//! cells: 12 planned, 4 done, 2 in flight, 0 failed (0 retried, 0 resumed, 0 stragglers)
//! source                         ch     seq    requests     req/s  escapes  degraded
//! aqua-sram/mcf                   0      17     1048576    215000        0         0
//! ```
//!
//! - `--once`: print a single table and exit (0 on success, 1 when the
//!   endpoint is unreachable or replies garbage)
//! - `--raw`: fetch `/metrics` instead and dump the Prometheus text
//!   exposition verbatim to stdout — a curl substitute for scripts
//!   (ci.sh scrapes mid-run through this)
//!
//! The monitor is a pure observer: it talks only to the scrape endpoint,
//! never to the run, so attaching or detaching it cannot change any
//! deterministic output.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use aqua_telemetry::json::{self, JsonValue};

fn arg(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// One HTTP/1.1 GET with `Connection: close`; returns the body.
fn get(addr: &str, path: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| format!("send request: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("read response: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| "malformed HTTP response (no header terminator)".to_string())?;
    let status = head.lines().next().unwrap_or_default();
    if !status.contains(" 200 ") {
        return Err(format!("{path} returned {status:?}"));
    }
    Ok(body.to_string())
}

/// Splits `scheme/workload;ch3` into the base label and channel column.
fn split_channel(source: &str) -> (&str, &str) {
    if let Some(idx) = source.rfind(";ch") {
        let channel = &source[idx + 3..];
        if !channel.is_empty() && channel.bytes().all(|b| b.is_ascii_digit()) {
            return (&source[..idx], channel);
        }
    }
    (source, "-")
}

fn num(obj: &[(String, JsonValue)], name: &str) -> f64 {
    json::get(obj, name)
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
}

/// Renders one `/healthz` document as the console table.
fn render(doc: &JsonValue) -> Result<String, String> {
    let root = doc.as_obj().ok_or("healthz root is not an object")?;
    let mut out = format!(
        "aqua monitor — up {:.1}s, {} scrapes, {} alerts\n",
        num(root, "uptime_ms") / 1e3,
        num(root, "scrapes"),
        num(root, "alerts_fired"),
    );
    if let Some(cells) = json::get(root, "cells").and_then(JsonValue::as_obj) {
        out.push_str(&format!(
            "cells: {} planned, {} done, {} in flight, {} failed \
             ({} retried, {} resumed, {} stragglers)\n",
            num(cells, "planned"),
            num(cells, "completed"),
            num(cells, "in_flight"),
            num(cells, "failed"),
            num(cells, "retried"),
            num(cells, "resumed"),
            num(cells, "stragglers"),
        ));
    }
    out.push_str(&format!(
        "{:<30} {:>3} {:>7} {:>11} {:>9} {:>8} {:>9}\n",
        "source", "ch", "seq", "requests", "req/s", "escapes", "degraded"
    ));
    let sources = json::get(root, "sources")
        .and_then(JsonValue::as_obj)
        .ok_or("healthz carries no sources object")?;
    for (source, snap) in sources {
        let Some(s) = snap.as_obj() else { continue };
        let (base, channel) = split_channel(source);
        out.push_str(&format!(
            "{:<30} {:>3} {:>7} {:>11} {:>9.0} {:>8} {:>9}\n",
            base,
            channel,
            num(s, "seq"),
            num(s, "requests"),
            num(s, "requests_per_sec"),
            num(s, "integrity_escapes"),
            num(s, "degraded_epochs"),
        ));
    }
    if let Some(alerts) = json::get(root, "alerts").and_then(JsonValue::as_arr) {
        for alert in alerts {
            let Some(a) = alert.as_obj() else { continue };
            out.push_str(&format!(
                "ALERT {} on {}: observed {} vs threshold {}{}\n",
                json::get(a, "rule")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?"),
                json::get(a, "source")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?"),
                num(a, "value"),
                num(a, "threshold"),
                if json::get(a, "host_time").and_then(JsonValue::as_bool) == Some(true) {
                    " (host-time)"
                } else {
                    ""
                },
            ));
        }
    }
    Ok(out)
}

fn tick(addr: &str, raw: bool) -> Result<(), String> {
    if raw {
        print!("{}", get(addr, "/metrics")?);
        return Ok(());
    }
    let body = get(addr, "/healthz")?;
    let doc = json::parse(&body).map_err(|e| format!("parse healthz JSON: {e}"))?;
    print!("{}", render(&doc)?);
    Ok(())
}

fn main() {
    let Some(addr) = arg("--addr") else {
        eprintln!("usage: monitor --addr HOST:PORT [--interval-ms N] [--once] [--raw]");
        std::process::exit(2);
    };
    let interval: u64 = arg("--interval-ms")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
    let once = flag("--once");
    let raw = flag("--raw");

    loop {
        match tick(&addr, raw) {
            Ok(()) => {
                if once {
                    return;
                }
            }
            Err(e) => {
                eprintln!("monitor: {e}");
                if once {
                    std::process::exit(1);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(interval));
        println!();
    }
}
