//! Live ops plane for `repro --serve ADDR`: a dependency-free HTTP/1.1
//! endpoint exposing the run's metrics and health while it executes.
//!
//! [`OpsServer`] is a hand-rolled `std::net::TcpListener` server (the
//! workspace is offline/vendored-only, so no hyper/axum) serving:
//!
//! - `GET /metrics` — Prometheus text exposition of the global
//!   [`anneal_core::metrics`] registry, including the suite, worker and
//!   breaker gauges set where their events happen;
//! - `GET /healthz` — `200 ok` while the suite is healthy, `503` with the
//!   reasons once it is degraded: a cell failed or a telemetry record was
//!   lost (the predicate behind exit status 2), with any open circuit
//!   breakers named;
//! - `GET /progress` — JSON: per-table cell counts, retries, supervisor
//!   worker liveness (heartbeat ages), and the ETA the `--progress` ticker
//!   shows.
//!
//! `/healthz` and `/progress` are views of the run's [`TelemetryLog`], the
//! only count of a run, and of the supervisor attached to it, so they
//! count the same cells as the ticker, the WAL and the end-of-suite
//! summary.
//!
//! Under `repro serve` the same server additionally routes the job API
//! (`POST /jobs`, `GET /jobs`, `GET /jobs/:id`, `DELETE /jobs/:id`) to a
//! [`crate::jobs::JobServer`] — see [`crate::jobs`] for the
//! queueing, journaling and determinism contracts; its log stays empty.
//! Without a job server those paths answer `404` with a JSON error body.
//!
//! Without `--serve` nothing binds and results stay bitwise-identical.

use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use anneal_core::metrics;

use crate::jobs::{error_body, JobServer};
use crate::telemetry::TelemetryLog;

/// Largest request body `POST /jobs` accepts (a generous bound for an
/// inline netlist; anything larger is a `413`).
const MAX_BODY: usize = 1 << 20;

/// The `--serve` HTTP server: a background thread blocked in
/// [`TcpListener::accept`], shut down when the handle drops (end of the
/// run). One request per connection (`Connection: close`), which is all a
/// scraper needs; each is served inline on that thread.
pub struct OpsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for OpsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpsServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl OpsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9090`; port 0 picks a free port) and
    /// starts serving the run `log` records in a background thread, with
    /// the job API routed to `jobs` (the `repro serve` daemon mode). Without
    /// `jobs`, the `/jobs` paths answer `404`.
    pub fn start(
        addr: &str,
        log: Arc<TelemetryLog>,
        jobs: Option<Arc<JobServer>>,
    ) -> Result<OpsServer, String> {
        let listener =
            TcpListener::bind(addr).map_err(|e| format!("--serve: cannot bind {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("--serve: cannot read bound address: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || loop {
                let accepted = listener.accept();
                // Drop wakes this `accept` with a connection of its own.
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                match accepted {
                    Ok((stream, _)) => handle(stream, &log, jobs.as_deref()),
                    // Out of descriptors, say: back off rather than spin.
                    Err(_) => std::thread::sleep(Duration::from_millis(20)),
                }
            })
        };
        Ok(OpsServer {
            addr: local,
            stop,
            thread: Some(thread),
        })
    }

    /// The actually-bound address (resolves `:0` to the chosen port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for OpsServer {
    /// Stops the accept loop: sets the flag, then wakes the blocked
    /// `accept` by connecting to the server, over loopback when it is bound
    /// to an unspecified address. If that connection fails the thread is
    /// left to end with the process rather than joined forever.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let woken = TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok();
        if let Some(t) = self.thread.take().filter(|_| woken) {
            t.join().ok();
        }
    }
}

/// The HTTP reason phrase for the status codes the ops plane emits.
fn status_line(status: u16) -> String {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    format!("{status} {reason}")
}

/// Reads one request off `stream`: request line, headers, and (for the
/// job API) up to `Content-Length` bytes of body, bounded by [`MAX_BODY`].
/// Returns `(method, path, body)`; `Err(413)` when the declared body is
/// oversized, `Err(400)` on an unreadable request.
fn read_request(stream: &mut TcpStream) -> Result<(String, String, String), u16> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    let header_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        if buf.len() > 16 * 1024 {
            return Err(400);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(400),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return Err(400),
        }
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).into_owned();
    let mut parts = head.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    let content_length = head
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse::<usize>().ok())?
        })
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(413);
    }
    let mut body = buf[header_end..].to_vec();
    while body.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(_) => return Err(400),
        }
    }
    body.truncate(content_length);
    Ok((method, path, String::from_utf8_lossy(&body).into_owned()))
}

/// Serves one request on `stream`. Any parse or I/O problem just drops
/// the connection — the ops plane must never take down the run.
fn handle(stream: TcpStream, log: &TelemetryLog, jobs: Option<&JobServer>) {
    let mut stream = stream;
    stream
        .set_read_timeout(Some(Duration::from_millis(500)))
        .ok();
    const JSON: &str = "application/json; charset=utf-8";
    const TEXT: &str = "text/plain; charset=utf-8";
    let (method, path, request_body) = match read_request(&mut stream) {
        Ok(parsed) => parsed,
        Err(status) => {
            let why = match status {
                413 => "request body too large",
                _ => "bad request",
            };
            respond(&mut stream, &status_line(status), JSON, &error_body(why));
            return;
        }
    };
    let job_id = path.strip_prefix("/jobs/");
    let (list_path, query) = path.split_once('?').unwrap_or((path.as_str(), ""));
    let (status, content_type, body) = match (method.as_str(), path.as_str()) {
        ("GET", "/metrics") => (
            "200 OK".to_string(),
            "text/plain; version=0.0.4; charset=utf-8",
            metrics::global().render_prometheus(),
        ),
        ("GET", "/healthz") => match log.degradation() {
            None => ("200 OK".to_string(), TEXT, "ok\n".to_string()),
            Some(why) => (status_line(503), TEXT, format!("degraded: {why}\n")),
        },
        ("GET", "/progress") => ("200 OK".to_string(), JSON, log.progress_json()),
        // The job API: delegate verb by verb, JSON all the way down.
        _ if list_path == "/jobs" || job_id.is_some() => match jobs {
            None => (
                status_line(404),
                JSON,
                error_body("job API not enabled; run `repro serve`"),
            ),
            Some(jobs) => {
                let (status, body) = match (method.as_str(), job_id) {
                    ("POST", None) if query.is_empty() => jobs.submit(&request_body),
                    ("GET", None) => jobs.list(query),
                    ("GET", Some(id)) => jobs.get(id),
                    ("DELETE", Some(id)) => jobs.cancel(id),
                    _ => (405, error_body("method not allowed")),
                };
                (status_line(status), JSON, body)
            }
        },
        ("GET", _) => (status_line(404), TEXT, "not found\n".into()),
        _ => (status_line(405), TEXT, "method not allowed\n".into()),
    };
    respond(&mut stream, &status, content_type, &body);
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes()).ok();
    stream.flush().ok();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SuiteConfig;
    use crate::supervisor::{signals, Supervisor, DEFAULT_BREAKER_THRESHOLD};
    use crate::telemetry::{CellFailure, CellKey, CellRecord, SupervisorEvent};
    use anneal_core::Budget;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        request(addr, "GET", path, None)
    }

    fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        match body {
            Some(body) => write!(
                stream,
                "{method} {path} HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .unwrap(),
            None => write!(stream, "{method} {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap(),
        }
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let (head, body) = response.split_once("\r\n\r\n").expect("header split");
        let status = head.lines().next().unwrap_or("").to_string();
        (status, body.to_string())
    }

    /// A record of a cell of `table`, failed or not, that took `attempts`.
    fn cell(table: &str, column: &str, ok: bool, attempts: u32) -> CellRecord {
        let key = CellKey::new(table, "g = 1", column);
        let mut record = CellRecord::empty(key, "Figure1".into(), Budget::evaluations(100), 7);
        record.attempts = attempts;
        if !ok {
            let message = "boom".to_string();
            record.failures.push(CellFailure {
                instance: 0,
                seed: 7,
                message,
            });
        }
        record
    }

    fn supervisor() -> Arc<Supervisor> {
        let config = SuiteConfig::paper();
        let sup = Supervisor::new(&config, None, None, DEFAULT_BREAKER_THRESHOLD);
        Arc::new(sup.expect("supervisor"))
    }

    #[test]
    fn progress_and_health_read_the_log_and_the_supervisor() {
        signals::reset_for_test();
        let sup = supervisor();
        let log = TelemetryLog::in_memory()
            .with_expected(Some(4))
            .with_supervisor(Some(Arc::clone(&sup)));
        assert_eq!(log.degradation(), None);
        log.record(cell("table4.1", "6 sec", true, 1));
        log.record(cell("table4.1", "9 sec", true, 3));
        assert_eq!(log.degradation(), None);
        sup.worker_spawned(false);
        sup.worker_beat(Duration::from_millis(40));
        let json = log.progress_json();
        assert!(json.contains("\"done\":2"), "{json}");
        assert!(json.contains("\"retried\":1"), "{json}");
        assert!(json.contains("\"expected\":4"), "{json}");
        assert!(json.contains("\"eta_s\":"), "{json}");
        assert!(json.contains("\"table4.1\":{\"done\":2"), "{json}");
        assert!(json.contains("\"slot\":0,\"state\":\"live\""), "{json}");
        let ticker = sup.live().ticker_fragment().expect("worker fragment");
        assert!(ticker.contains("1 worker(s) live"), "{ticker}");
        assert!(ticker.contains("oldest hb"), "{ticker}");

        log.record(cell("table4.2b", "Figure 1", false, 2));
        for _ in 0..DEFAULT_BREAKER_THRESHOLD {
            if sup.hard_failure("table4.2b") {
                let detail = "circuit breaker for table4.2b opened";
                log.log_event(SupervisorEvent::new("breaker", None, detail));
            }
        }
        let health = log.degradation().expect("degraded");
        assert!(health.contains("1 cell(s) failed"), "{health}");
        assert!(
            health.contains("circuit breaker open for table4.2b"),
            "{health}"
        );
        sup.worker_exited();
        assert_eq!(sup.live().ticker_fragment().unwrap(), "0 worker(s) live");
        // The whole document, with its two clock-dependent lexemes masked.
        let json = log.progress_json();
        let masked = mask_seconds(&mask_seconds(&json, "elapsed_s"), "eta_s");
        assert_eq!(
            masked,
            r#"{"elapsed_s":S,"expected":4,"done":3,"failed":1,"retried":2,"eta_s":S,"degraded":true,"draining":false,"lost":0,"respawns":0,"tables":{"table4.1":{"done":2,"failed":0,"retried":1},"table4.2b":{"done":1,"failed":1,"retried":1}},"workers":[{"slot":0,"state":"idle","heartbeat_age_ms":40}],"breakers":["table4.2b"]}"#
        );
    }

    /// `json` with the value of `"key":` replaced by `S`, after checking
    /// it is printed with three decimals.
    fn mask_seconds(json: &str, key: &str) -> String {
        let (head, rest) = json.split_once(&format!("\"{key}\":")).expect("member");
        let (value, tail) = rest.split_at(rest.find([',', '}']).expect("value ends"));
        let decimals = value.split_once('.').map(|(_, f)| f.len());
        assert_eq!(decimals, Some(3), "{json}");
        format!("{head}\"{key}\":S{tail}")
    }

    #[test]
    fn ticker_fragment_is_absent_without_workers() {
        let sup = supervisor();
        let log = TelemetryLog::in_memory().with_supervisor(Some(Arc::clone(&sup)));
        log.record(cell("table4.1", "6 sec", true, 1));
        assert_eq!(sup.live().ticker_fragment(), None);
        // No expected total: no ETA, expected is null.
        let json = log.progress_json();
        assert!(json.contains("\"expected\":null"), "{json}");
        assert!(json.contains("\"eta_s\":null"), "{json}");
    }

    #[test]
    fn server_serves_all_three_endpoints() {
        signals::reset_for_test();
        let log = Arc::new(TelemetryLog::in_memory().with_expected(Some(2)));
        log.record(cell("table4.1", "6 sec", true, 1));
        let server = OpsServer::start("127.0.0.1:0", Arc::clone(&log), None).expect("bind");
        let addr = server.local_addr();

        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, "ok\n");

        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains("# TYPE suite_cells_done gauge"), "{body}");

        let (status, body) = get(addr, "/progress");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.starts_with("{\"elapsed_s\":"), "{body}");

        let (status, _) = get(addr, "/nope");
        assert_eq!(status, "HTTP/1.1 404 Not Found");

        log.record(cell("table4.1", "9 sec", false, 1));
        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, "HTTP/1.1 503 Service Unavailable");
        assert_eq!(body, "degraded: 1 cell(s) failed\n");
    }

    fn empty_log() -> Arc<TelemetryLog> {
        Arc::new(TelemetryLog::in_memory())
    }

    #[test]
    fn sequential_requests_are_answered_without_polling() {
        // A polling accept loop that sleeps 20 ms whenever it finds no
        // connection takes 17-20 ms per sequential round trip.
        let server = OpsServer::start("127.0.0.1:0", empty_log(), None).expect("bind");
        let addr = server.local_addr();
        get(addr, "/healthz");
        let started = std::time::Instant::now();
        for _ in 0..10 {
            assert_eq!(get(addr, "/healthz").0, "HTTP/1.1 200 OK");
        }
        let took = started.elapsed();
        assert!(
            took < Duration::from_millis(100),
            "ten round trips: {took:?}"
        );
    }

    #[test]
    fn dropping_a_server_bound_to_an_unspecified_address_returns() {
        let server = OpsServer::start("0.0.0.0:0", empty_log(), None).expect("bind");
        let port = server.local_addr().port();
        let started = std::time::Instant::now();
        drop(server);
        assert!(started.elapsed() < Duration::from_secs(1));
        assert!(
            TcpStream::connect(("127.0.0.1", port)).is_err(),
            "the listener closed with its thread"
        );
    }

    #[test]
    fn jobs_paths_answer_404_without_a_job_server() {
        let server = OpsServer::start("127.0.0.1:0", empty_log(), None).expect("bind");
        let addr = server.local_addr();
        for (method, path) in [
            ("POST", "/jobs"),
            ("GET", "/jobs"),
            ("GET", "/jobs/1"),
            ("DELETE", "/jobs/1"),
        ] {
            let (status, body) = request(addr, method, path, Some("{}"));
            assert_eq!(status, "HTTP/1.1 404 Not Found", "{method} {path}");
            assert_eq!(
                body,
                r#"{"error":"job API not enabled; run `repro serve`"}"#
            );
        }
    }

    #[test]
    fn oversized_requests_get_a_json_error_body() {
        let server = OpsServer::start("127.0.0.1:0", empty_log(), None).expect("bind");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        let length = MAX_BODY + 1;
        let head = format!("POST /jobs HTTP/1.1\r\nContent-Length: {length}\r\n\r\n");
        stream.write_all(head.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 413 Payload Too Large\r\n"));
        assert!(response.ends_with("\r\n\r\n{\"error\":\"request body too large\"}"));
    }

    #[test]
    fn jobs_api_routes_end_to_end_over_http() {
        let jobs = Arc::new(crate::jobs::JobServer::start(1, 4, None).expect("jobs"));
        let server = OpsServer::start("127.0.0.1:0", empty_log(), Some(jobs)).expect("bind");
        let addr = server.local_addr();

        let spec = "{\"problem\":\"gola\",\"instances\":1,\"scale\":2000}";
        let (status, body) = request(addr, "POST", "/jobs", Some(spec));
        assert_eq!(status, "HTTP/1.1 202 Accepted", "{body}");
        assert!(body.contains("\"id\":1"), "{body}");

        let (status, body) = request(addr, "POST", "/jobs", Some("{\"problem\":\"warp\"}"));
        assert_eq!(status, "HTTP/1.1 400 Bad Request");
        assert!(body.contains("error"), "{body}");

        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        loop {
            let (status, body) = get(addr, "/jobs/1");
            assert_eq!(status, "HTTP/1.1 200 OK");
            if body.contains("\"state\":\"done\"") {
                break;
            }
            assert!(
                !body.contains("\"state\":\"failed\"") && std::time::Instant::now() < deadline,
                "{body}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }

        let (status, body) = get(addr, "/jobs?limit=1");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains("\"total\":"), "{body}");

        let (status, _) = get(addr, "/jobs/99");
        assert_eq!(status, "HTTP/1.1 404 Not Found");

        let (status, body) = request(addr, "DELETE", "/jobs/1", None);
        assert_eq!(status, "HTTP/1.1 409 Conflict", "{body}");

        let (status, body) = request(addr, "PATCH", "/jobs/1", None);
        assert_eq!(status, "HTTP/1.1 405 Method Not Allowed");
        assert_eq!(body, r#"{"error":"method not allowed"}"#);

        // `jobs_state` gauges ride the shared exposition.
        let (_, metrics_body) = get(addr, "/metrics");
        assert!(
            metrics_body.contains("jobs_state{state=\"done\"}"),
            "{metrics_body}"
        );
    }
}
