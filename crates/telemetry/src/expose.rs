//! Live metrics plane: a hand-rolled Prometheus-text scrape endpoint.
//!
//! [`MetricsPlane`] is a thread-safe board that live producers publish
//! into — per-source [`Snapshot`]s from simulation epoch hooks, cell
//! health from the bench supervisor, alert notices from both — and one
//! listener thread serves out of, over plain `std::net::TcpListener`
//! (no dependencies, in the same hand-rolled spirit as the bench gate's
//! JSON parser):
//!
//! * `GET /metrics` — Prometheus text exposition (version 0.0.4)
//! * `GET /healthz` — a JSON health view (sources, cells, alerts)
//!
//! Determinism rules (DESIGN.md section 16): the plane is strictly an
//! *observer*. Producers only ever copy already-recorded data into it;
//! the listener thread reads the board and writes sockets — it never
//! touches a telemetry hub, a journal (or its cell keys), or any
//! simulator state. Every byte of CSV/journal/span output is therefore
//! identical with the plane on or off. All plane fields are host-time
//! and excluded from any determinism comparison.
//!
//! Opt-in: nothing binds unless `AQUA_METRICS_ADDR` is set (or a binary
//! passes `--metrics-addr`). Port 0 binds an ephemeral port; the chosen
//! address is printed to stderr and, when `AQUA_METRICS_PORT_FILE` is
//! set, written to that file so scripts (ci.sh) can discover it.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::json;
use crate::snapshot::Snapshot;

/// Live host-side rollup of supervised experiment cells.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellHealth {
    /// Cells the current matrix (or campaign) planned.
    pub total: u64,
    /// Cells whose first attempt has started.
    pub started: u64,
    /// Cells currently running.
    pub in_flight: u64,
    /// Cells concluded with a trustworthy result.
    pub completed: u64,
    /// Cells concluded with a typed failure.
    pub failed: u64,
    /// Extra attempts spent beyond each cell's first.
    pub retried: u64,
    /// Cells replayed from a checkpoint journal.
    pub resumed: u64,
    /// Cells quarantined as nondeterministic.
    pub quarantined: u64,
    /// Soft-deadline straggler escalations.
    pub stragglers: u64,
}

/// One alert surfaced on the plane (mirrors
/// [`crate::alerts::AlertFiring`], plus the source that tripped it).
#[derive(Debug, Clone, PartialEq)]
pub struct AlertNotice {
    /// Rule name.
    pub rule: String,
    /// Observed value at the firing.
    pub value: f64,
    /// Rule threshold.
    pub threshold: f64,
    /// Which publisher fired it (`scheme/workload;chN`, or `bench`).
    pub source: String,
    /// Whether it came from a host-time (`rate`) rule.
    pub host_time: bool,
}

/// Retained alert notices (newest kept; the total survives in
/// `alerts_fired_total`).
const ALERT_RETENTION: usize = 64;

#[derive(Debug, Default)]
struct Board {
    sources: BTreeMap<String, Snapshot>,
    cells: CellHealth,
    alerts: Vec<AlertNotice>,
}

/// The shared metrics board plus its listener (see the module docs).
#[derive(Debug)]
pub struct MetricsPlane {
    board: Mutex<Board>,
    addr: SocketAddr,
    shutdown: AtomicBool,
    scrapes: AtomicU64,
    alerts_fired: AtomicU64,
    started: Instant,
}

impl MetricsPlane {
    /// Binds `addr` (`host:port`; port 0 = ephemeral) and spawns the
    /// listener thread. Prints the bound address to stderr and writes it
    /// to `AQUA_METRICS_PORT_FILE` when that variable is set.
    pub fn bind(addr: &str) -> std::io::Result<Arc<MetricsPlane>> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let plane = Arc::new(MetricsPlane {
            board: Mutex::new(Board::default()),
            addr,
            shutdown: AtomicBool::new(false),
            scrapes: AtomicU64::new(0),
            alerts_fired: AtomicU64::new(0),
            started: Instant::now(),
        });
        eprintln!("[metrics] serving /metrics and /healthz on http://{addr}");
        if let Ok(path) = std::env::var("AQUA_METRICS_PORT_FILE") {
            if !path.trim().is_empty() {
                if let Err(e) = std::fs::write(&path, addr.to_string()) {
                    eprintln!("warning: [metrics] cannot write port file {path}: {e}");
                }
            }
        }
        let server = Arc::clone(&plane);
        std::thread::Builder::new()
            .name("aqua-metrics".into())
            .spawn(move || serve_loop(&server, &listener))?;
        Ok(plane)
    }

    /// A plane bound to `AQUA_METRICS_ADDR`, or `None` when the variable
    /// is unset or empty. A bind failure warns and returns `None` (a
    /// broken observer must never fail the run it observes).
    pub fn from_env() -> Option<Arc<MetricsPlane>> {
        let addr = std::env::var("AQUA_METRICS_ADDR").ok()?;
        let addr = addr.trim();
        if addr.is_empty() {
            return None;
        }
        match Self::bind(addr) {
            Ok(plane) => Some(plane),
            Err(e) => {
                eprintln!("warning: [metrics] cannot bind {addr}: {e}; metrics plane disabled");
                None
            }
        }
    }

    /// The bound listen address (with the real port when 0 was asked).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Publishes a source's latest snapshot (last write wins per label).
    pub fn publish(&self, source: &str, snapshot: Snapshot) {
        let mut board = self.lock();
        board.sources.insert(source.to_string(), snapshot);
    }

    /// Applies a mutation to the live cell-health rollup.
    pub fn update_cells(&self, f: impl FnOnce(&mut CellHealth)) {
        f(&mut self.lock().cells);
    }

    /// Current cell-health rollup (a copy).
    pub fn cells(&self) -> CellHealth {
        self.lock().cells.clone()
    }

    /// Records an alert notice (bounded retention, total counted forever).
    pub fn note_alert(&self, notice: AlertNotice) {
        self.alerts_fired.fetch_add(1, Ordering::Relaxed);
        let mut board = self.lock();
        if board.alerts.len() >= ALERT_RETENTION {
            board.alerts.remove(0);
        }
        board.alerts.push(notice);
    }

    /// Total alert notices ever recorded on this plane.
    pub fn alerts_fired(&self) -> u64 {
        self.alerts_fired.load(Ordering::Relaxed)
    }

    /// Sums a counter's current value across every published source.
    pub fn aggregate_counter(&self, name: &str) -> u64 {
        self.lock()
            .sources
            .values()
            .filter_map(|s| s.counter(name))
            .sum()
    }

    /// Successful `/metrics` scrapes served so far.
    pub fn scrapes(&self) -> u64 {
        self.scrapes.load(Ordering::Relaxed)
    }

    /// Asks the listener thread to exit (best-effort: pokes the socket so
    /// a blocked `accept` wakes up).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
    }

    /// Holds the process alive for `AQUA_METRICS_LINGER_MS` milliseconds
    /// (0 / unset = return immediately) so late scrapers — ci.sh racing a
    /// short campaign — still find the endpoint up after the run's work is
    /// done.
    pub fn linger_from_env(&self) {
        let ms: u64 = std::env::var("AQUA_METRICS_LINGER_MS")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        if ms > 0 {
            eprintln!("[metrics] lingering {ms} ms for late scrapers");
            std::thread::sleep(Duration::from_millis(ms));
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Board> {
        // An observer poisoned by a panicking scraper must not take the
        // run down with it.
        self.board.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Renders the Prometheus text exposition body (`/metrics`).
    pub fn render_metrics(&self) -> String {
        let board = self.lock();
        let mut out = String::new();
        let mut typed: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();

        // Plane self-metrics.
        push_type(&mut out, &mut typed, "aqua_up", "gauge");
        out.push_str("aqua_up 1\n");
        push_type(&mut out, &mut typed, "aqua_uptime_seconds", "gauge");
        out.push_str(&format!(
            "aqua_uptime_seconds {}\n",
            json::num_trimmed(self.started.elapsed().as_secs_f64())
        ));
        push_type(&mut out, &mut typed, "aqua_scrapes_total", "counter");
        out.push_str(&format!(
            "aqua_scrapes_total {}\n",
            self.scrapes.load(Ordering::Relaxed)
        ));
        push_type(&mut out, &mut typed, "aqua_alerts_fired_total", "counter");
        out.push_str(&format!(
            "aqua_alerts_fired_total {}\n",
            self.alerts_fired.load(Ordering::Relaxed)
        ));

        // Supervisor cell health.
        let c = &board.cells;
        for (name, kind, v) in [
            ("aqua_cells_planned", "gauge", c.total),
            ("aqua_cells_started_total", "counter", c.started),
            ("aqua_cells_in_flight", "gauge", c.in_flight),
            ("aqua_cells_completed_total", "counter", c.completed),
            ("aqua_cells_failed_total", "counter", c.failed),
            ("aqua_cells_retried_total", "counter", c.retried),
            ("aqua_cells_resumed_total", "counter", c.resumed),
            ("aqua_cells_quarantined_total", "counter", c.quarantined),
            ("aqua_straggler_reports_total", "counter", c.stragglers),
        ] {
            push_type(&mut out, &mut typed, name, kind);
            out.push_str(&format!("{name} {v}\n"));
        }

        // Per-source registry series.
        for (source, snap) in &board.sources {
            let label = format!("{{source=\"{}\"}}", escape_label(source));
            push_type(&mut out, &mut typed, "aqua_snapshot_seq", "counter");
            out.push_str(&format!("aqua_snapshot_seq{label} {}\n", snap.seq));
            for (name, v) in &snap.summary.counters {
                let metric = format!("aqua_{}_total", sanitize(name));
                push_type(&mut out, &mut typed, &metric, "counter");
                out.push_str(&format!("{metric}{label} {v}\n"));
            }
            for (name, v) in &snap.summary.gauges {
                let metric = format!("aqua_{}", sanitize(name));
                push_type(&mut out, &mut typed, &metric, "gauge");
                out.push_str(&format!("{metric}{label} {}\n", json::num_trimmed(*v)));
            }
            // Registered histograms render from full bucket data (exact
            // sums); folded span.* stats render from their summaries.
            for (name, data) in &snap.histogram_data {
                let metric = format!("aqua_{}", sanitize(name));
                push_type(&mut out, &mut typed, &metric, "summary");
                for (q, v) in [
                    (0.5, data.percentile(0.5)),
                    (0.95, data.percentile(0.95)),
                    (0.99, data.percentile(0.99)),
                ] {
                    out.push_str(&format!(
                        "{metric}{{source=\"{}\",quantile=\"{q}\"}} {}\n",
                        escape_label(source),
                        json::num_trimmed(v)
                    ));
                }
                out.push_str(&format!(
                    "{metric}_sum{label} {}\n{metric}_count{label} {}\n",
                    data.sum(),
                    data.count()
                ));
            }
        }

        // Per-channel shard rollups: requests by channel, plus a max/min
        // imbalance ratio per multi-channel cell.
        let mut by_cell: BTreeMap<&str, Vec<(&str, u64)>> = BTreeMap::new();
        for (source, snap) in &board.sources {
            if let Some((cell, channel)) = split_channel(source) {
                let requests = snap.counter("sim.requests").unwrap_or(0);
                by_cell.entry(cell).or_default().push((channel, requests));
            }
        }
        for (cell, channels) in &by_cell {
            push_type(&mut out, &mut typed, "aqua_channel_requests", "gauge");
            for (channel, requests) in channels {
                out.push_str(&format!(
                    "aqua_channel_requests{{cell=\"{}\",channel=\"{}\"}} {requests}\n",
                    escape_label(cell),
                    escape_label(channel)
                ));
            }
            if channels.len() > 1 {
                let max = channels.iter().map(|&(_, r)| r).max().unwrap_or(0);
                let min = channels.iter().map(|&(_, r)| r).min().unwrap_or(0);
                let ratio = if min > 0 {
                    max as f64 / min as f64
                } else {
                    0.0
                };
                push_type(
                    &mut out,
                    &mut typed,
                    "aqua_channel_imbalance_ratio",
                    "gauge",
                );
                out.push_str(&format!(
                    "aqua_channel_imbalance_ratio{{cell=\"{}\"}} {}\n",
                    escape_label(cell),
                    json::num_trimmed(ratio)
                ));
            }
        }
        out
    }

    /// Renders the `/healthz` JSON body.
    pub fn render_healthz(&self) -> String {
        let board = self.lock();
        let mut out = String::from("{\"status\":\"ok\"");
        out.push_str(&format!(
            ",\"uptime_ms\":{}",
            self.started.elapsed().as_millis()
        ));
        out.push_str(&format!(
            ",\"scrapes\":{}",
            self.scrapes.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            ",\"alerts_fired\":{}",
            self.alerts_fired.load(Ordering::Relaxed)
        ));
        let c = &board.cells;
        out.push_str(&format!(
            ",\"cells\":{{\"planned\":{},\"started\":{},\"in_flight\":{},\"completed\":{},\
             \"failed\":{},\"retried\":{},\"resumed\":{},\"quarantined\":{},\"stragglers\":{}}}",
            c.total,
            c.started,
            c.in_flight,
            c.completed,
            c.failed,
            c.retried,
            c.resumed,
            c.quarantined,
            c.stragglers
        ));
        out.push_str(",\"alerts\":[");
        for (i, a) in board.alerts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"rule\":");
            json::push_str(&mut out, &a.rule);
            out.push_str(&format!(
                ",\"value\":{},\"threshold\":{},\"host_time\":{},\"source\":",
                json::num_trimmed(a.value),
                json::num_trimmed(a.threshold),
                a.host_time
            ));
            json::push_str(&mut out, &a.source);
            out.push('}');
        }
        out.push_str("],\"sources\":{");
        for (i, (source, snap)) in board.sources.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str(&mut out, source);
            out.push_str(&format!(
                ":{{\"seq\":{},\"requests\":{},\"activations\":{},\"integrity_escapes\":{},\
                 \"degraded_epochs\":{},\"epochs_recorded\":{},\"requests_per_sec\":{}}}",
                snap.seq,
                snap.counter("sim.requests").unwrap_or(0),
                snap.counter("sim.activations").unwrap_or(0),
                snap.counter("sim.integrity_escapes").unwrap_or(0),
                snap.counter("sim.degraded_epochs").unwrap_or(0),
                snap.summary.epochs_recorded,
                json::num_trimmed(snap.rate_per_sec("sim.requests"))
            ));
        }
        out.push_str("}}");
        out
    }
}

/// Splits `scheme/workload;ch3` into `("scheme/workload", "3")`.
fn split_channel(source: &str) -> Option<(&str, &str)> {
    let idx = source.rfind(";ch")?;
    let channel = &source[idx + 3..];
    if channel.is_empty() || !channel.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some((&source[..idx], channel))
}

/// Emits a `# TYPE` header once per metric name.
fn push_type(
    out: &mut String,
    typed: &mut std::collections::BTreeSet<String>,
    name: &str,
    kind: &str,
) {
    if typed.insert(name.to_string()) {
        out.push_str(&format!("# TYPE {name} {kind}\n"));
    }
}

/// Maps a registry name onto the Prometheus name charset
/// (`[a-zA-Z0-9_:]`): `sim.requests` → `sim_requests`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Escapes a label value per the exposition format.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn serve_loop(plane: &MetricsPlane, listener: &TcpListener) {
    for stream in listener.incoming() {
        if plane.shutdown.load(Ordering::SeqCst) {
            break;
        }
        if let Ok(mut stream) = stream {
            let _ = handle(plane, &mut stream);
        }
    }
}

/// Serves one HTTP exchange. Minimal by design: read the request line,
/// route on the path, answer, close.
fn handle(plane: &MetricsPlane, stream: &mut TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(1000)))?;
    let mut buf = [0u8; 2048];
    let mut len = 0;
    // Read until the request line is complete (or the buffer fills).
    while !buf[..len].windows(2).any(|w| w == b"\r\n") && len < buf.len() {
        let n = stream.read(&mut buf[len..])?;
        if n == 0 {
            break;
        }
        len += n;
    }
    let request = String::from_utf8_lossy(&buf[..len]);
    let path = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");
    let (status, content_type, body) = match path {
        "/metrics" => {
            plane.scrapes.fetch_add(1, Ordering::Relaxed);
            (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                plane.render_metrics(),
            )
        }
        "/healthz" => ("200 OK", "application/json", plane.render_healthz()),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found; try /metrics or /healthz\n".to_string(),
        ),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotTracker;
    use crate::{Telemetry, TelemetryConfig};

    fn plane() -> Arc<MetricsPlane> {
        MetricsPlane::bind("127.0.0.1:0").expect("bind ephemeral port")
    }

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_metrics_and_healthz_over_http() {
        let p = plane();
        let hub = Telemetry::new(TelemetryConfig::default());
        hub.counter("sim.requests").add(42);
        let snap = SnapshotTracker::new().capture(&hub).unwrap();
        p.publish("aqua-sram/mcf;ch0", snap);
        p.update_cells(|c| {
            c.total = 4;
            c.in_flight = 2;
        });
        let (head, body) = get(p.local_addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("text/plain"), "{head}");
        assert!(body.contains("aqua_up 1"), "{body}");
        assert!(body.contains("aqua_cells_in_flight 2"), "{body}");
        assert!(
            body.contains("aqua_sim_requests_total{source=\"aqua-sram/mcf;ch0\"} 42"),
            "{body}"
        );
        assert!(
            body.contains("# TYPE aqua_sim_requests_total counter"),
            "{body}"
        );
        let (head, body) = get(p.local_addr(), "/healthz");
        assert!(head.contains("application/json"), "{head}");
        assert!(body.starts_with("{\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"in_flight\":2"), "{body}");
        let (head, _) = get(p.local_addr(), "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        assert_eq!(p.scrapes(), 1, "only /metrics counts as a scrape");
        p.shutdown();
    }

    #[test]
    fn channel_rollups_compute_imbalance() {
        let p = plane();
        let hub = Telemetry::new(TelemetryConfig::default());
        let c = hub.counter("sim.requests");
        c.add(100);
        let mut t = SnapshotTracker::new();
        p.publish("aqua-sram/mcf;ch0", t.capture(&hub).unwrap());
        c.add(300); // total 400 on ch1
        p.publish(
            "aqua-sram/mcf;ch1",
            SnapshotTracker::new().capture(&hub).unwrap(),
        );
        let body = p.render_metrics();
        assert!(
            body.contains("aqua_channel_requests{cell=\"aqua-sram/mcf\",channel=\"0\"} 100"),
            "{body}"
        );
        assert!(
            body.contains("aqua_channel_imbalance_ratio{cell=\"aqua-sram/mcf\"} 4"),
            "{body}"
        );
        p.shutdown();
    }

    #[test]
    fn alerts_are_bounded_and_counted() {
        let p = plane();
        for i in 0..(ALERT_RETENTION + 10) {
            p.note_alert(AlertNotice {
                rule: format!("r{i}"),
                value: 1.0,
                threshold: 0.0,
                source: "bench".into(),
                host_time: false,
            });
        }
        assert_eq!(p.alerts_fired(), (ALERT_RETENTION + 10) as u64);
        assert_eq!(p.lock().alerts.len(), ALERT_RETENTION);
        let healthz = p.render_healthz();
        assert!(healthz.contains("\"alerts_fired\":74"), "{healthz}");
        p.shutdown();
    }

    #[test]
    fn label_values_and_names_are_escaped() {
        assert_eq!(sanitize("mem.access_ps"), "mem_access_ps");
        assert_eq!(sanitize("span.sim.run"), "span_sim_run");
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(
            split_channel("aqua-sram/mcf;ch12"),
            Some(("aqua-sram/mcf", "12"))
        );
        assert_eq!(split_channel("bench"), None);
        assert_eq!(split_channel("x;chx"), None);
    }
}
