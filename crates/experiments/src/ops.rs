//! Live ops plane for `repro --serve ADDR`: a dependency-free HTTP/1.1
//! endpoint exposing the run's metrics and health while it executes.
//!
//! Two pieces:
//!
//! * [`OpsBoard`] — shared run state fed by the telemetry log (cell
//!   completions), the supervisor (worker heartbeats, respawns, breaker
//!   trips) and the WAL writer (lost records). It also mirrors the hot
//!   facts into the global [`anneal_core::metrics`] registry as
//!   labeled gauges/counters so `/metrics` and `--metrics PATH` see them.
//! * [`OpsServer`] — a hand-rolled `std::net::TcpListener` server (the
//!   workspace is offline/vendored-only, so no hyper/axum) serving:
//!   - `GET /metrics` — Prometheus text exposition of the global registry;
//!   - `GET /healthz` — `200 ok` while the suite is healthy, `503` with
//!     the reasons once it is degraded (cell failure, lost telemetry,
//!     circuit breaker open);
//!   - `GET /progress` — JSON: per-table cell states, retries, supervisor
//!     worker liveness (heartbeat ages), and an ETA from the same
//!     estimator the `--progress` ticker uses.
//!
//! Under `repro serve` the same server additionally routes the job API
//! (`POST /jobs`, `GET /jobs`, `GET /jobs/:id`, `DELETE /jobs/:id`) to a
//! [`crate::jobs::JobServer`] — see [`crate::jobs`] for the
//! queueing, journaling and determinism contracts. Without a job server
//! attached ([`OpsServer::start`]) those paths answer `404` with a JSON
//! error body.
//!
//! Both are created only when `--serve` (or, for the board, `--progress`
//! under process isolation) is on: with the flags absent nothing binds,
//! nothing is shared, and results stay bitwise-identical. Updates happen
//! at cell boundaries and supervisor wait-loop ticks — never inside chain
//! hot loops.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use anneal_core::json::Json;
use anneal_core::{json_object, metrics};

use crate::jobs::{error_body, JobServer};
use crate::supervisor::signals;

/// Largest request body `POST /jobs` accepts (a generous bound for an
/// inline netlist; anything larger is a `413`).
const MAX_BODY: usize = 1 << 20;

/// A supervised worker slot's lifecycle state, as shown by `/progress`
/// and the `--progress` ticker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// A child process is running and heartbeating.
    Live,
    /// The previous child died abnormally; a replacement was spawned.
    Respawning,
    /// The slot's last child exited; nothing is running in it.
    Idle,
}

impl WorkerState {
    fn as_str(self) -> &'static str {
        match self {
            WorkerState::Live => "live",
            WorkerState::Respawning => "respawning",
            WorkerState::Idle => "idle",
        }
    }
}

#[derive(Debug, Clone)]
struct WorkerSlot {
    state: WorkerState,
    /// Heartbeat age as last reported by the supervisor wait loop, plus
    /// when it was reported — scrape-time age adds the elapsed gap.
    beat_age: Duration,
    reported: Instant,
}

#[derive(Debug, Default)]
struct TableState {
    done: usize,
    failed: usize,
    retried: usize,
}

#[derive(Debug)]
struct BoardState {
    tables: BTreeMap<String, TableState>,
    workers: BTreeMap<usize, WorkerSlot>,
    /// Tables whose circuit breaker has tripped.
    breakers: Vec<String>,
    respawns: u64,
    /// Telemetry records lost to write errors.
    lost: u64,
    done: usize,
    failed: usize,
    retried: usize,
}

/// Shared live-run state behind `/healthz`, `/progress` and the worker
/// fragment of the `--progress` ticker. Cheap to update (one mutex, cell
/// boundaries and 5 ms supervisor ticks only) and safe to share across
/// the runner's worker threads.
pub struct OpsBoard {
    started: Instant,
    expected: Option<usize>,
    degraded: AtomicBool,
    state: Mutex<BoardState>,
}

impl std::fmt::Debug for OpsBoard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpsBoard")
            .field("expected", &self.expected)
            .field("degraded", &self.degraded.load(Ordering::Relaxed))
            .finish()
    }
}

impl OpsBoard {
    /// A fresh board expecting `expected` cells (`None` when the suite
    /// mix makes the total unknown; `/progress` then omits the ETA).
    pub fn new(expected: Option<usize>) -> Arc<Self> {
        Arc::new(OpsBoard {
            started: Instant::now(),
            expected: expected.filter(|&t| t > 0),
            degraded: AtomicBool::new(false),
            state: Mutex::new(BoardState {
                tables: BTreeMap::new(),
                workers: BTreeMap::new(),
                breakers: Vec::new(),
                respawns: 0,
                lost: 0,
                done: 0,
                failed: 0,
                retried: 0,
            }),
        })
    }

    fn lock(&self) -> MutexGuard<'_, BoardState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Notes one completed cell (both execution paths land here via
    /// [`TelemetryLog::record`](crate::TelemetryLog::record)).
    pub fn cell_done(&self, table: &str, ok: bool, attempts: u32) {
        let mut state = self.lock();
        {
            let t = state.tables.entry(table.to_string()).or_default();
            t.done += 1;
            if attempts > 1 {
                t.retried += 1;
            }
            if !ok {
                t.failed += 1;
            }
        }
        state.done += 1;
        if attempts > 1 {
            state.retried += 1;
        }
        if !ok {
            state.failed += 1;
            self.degraded.store(true, Ordering::Relaxed);
        }
        let done = state.done as f64;
        drop(state);
        metrics::global().gauge("suite.cells_done").set(done);
        if !ok {
            metrics::global().gauge("suite.degraded").set(1.0);
        }
    }

    /// Notes one telemetry record lost to a WAL write error — the suite
    /// will exit degraded, so `/healthz` flips immediately.
    pub fn note_lost(&self) {
        self.lock().lost += 1;
        self.degraded.store(true, Ordering::Relaxed);
        metrics::global().gauge("suite.degraded").set(1.0);
    }

    /// Notes a worker child spawned into `slot` (`respawn` when it
    /// replaces an abnormal death).
    pub fn worker_spawned(&self, slot: usize, respawn: bool) {
        let mut state = self.lock();
        state.workers.insert(
            slot,
            WorkerSlot {
                state: if respawn {
                    WorkerState::Respawning
                } else {
                    WorkerState::Live
                },
                beat_age: Duration::ZERO,
                reported: Instant::now(),
            },
        );
        if respawn {
            state.respawns += 1;
        }
        let (live, respawns) = (count_live(&state), state.respawns);
        drop(state);
        metrics::global().gauge("workers.live").set(live as f64);
        if respawn {
            metrics::global().counter("supervisor.respawns").inc();
            metrics::global()
                .gauge("supervisor.respawns_total")
                .set(respawns as f64);
        }
    }

    /// Notes the worker in `slot`'s current heartbeat age, from the
    /// supervisor's wait loop. A beating worker is live, whatever it was.
    pub fn worker_beat(&self, slot: usize, beat_age: Duration) {
        let mut state = self.lock();
        if let Some(w) = state.workers.get_mut(&slot) {
            w.state = WorkerState::Live;
            w.beat_age = beat_age;
            w.reported = Instant::now();
        }
        drop(state);
        metrics::global()
            .gauge_with("worker_heartbeat_age_ms", &[("slot", &slot.to_string())])
            .set(beat_age.as_secs_f64() * 1e3);
    }

    /// Notes the worker in `slot` exited (cleanly or not).
    pub fn worker_exited(&self, slot: usize) {
        let mut state = self.lock();
        if let Some(w) = state.workers.get_mut(&slot) {
            w.state = WorkerState::Idle;
            w.reported = Instant::now();
        }
        let live = count_live(&state);
        drop(state);
        metrics::global().gauge("workers.live").set(live as f64);
    }

    /// Notes `table`'s circuit breaker tripping: the suite is degraded
    /// from here on.
    pub fn breaker_tripped(&self, table: &str) {
        let mut state = self.lock();
        if !state.breakers.iter().any(|t| t == table) {
            state.breakers.push(table.to_string());
        }
        drop(state);
        self.degraded.store(true, Ordering::Relaxed);
        metrics::global().gauge("suite.degraded").set(1.0);
        metrics::global()
            .gauge_with("breaker_open", &[("table", table)])
            .set(1.0);
    }

    /// Whether the suite has degraded (cell failure, lost record, or open
    /// breaker) — the `/healthz` predicate.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// The `/healthz` body: `ok` or the degradation reasons.
    fn health_body(&self) -> String {
        if !self.is_degraded() {
            return "ok\n".to_string();
        }
        let state = self.lock();
        let mut reasons = Vec::new();
        if state.failed > 0 {
            reasons.push(format!("{} cell(s) failed", state.failed));
        }
        if state.lost > 0 {
            reasons.push(format!("{} telemetry record(s) lost", state.lost));
        }
        for table in &state.breakers {
            reasons.push(format!("circuit breaker open for {table}"));
        }
        if reasons.is_empty() {
            reasons.push("degraded".to_string());
        }
        format!("degraded: {}\n", reasons.join("; "))
    }

    /// The `/progress` JSON document. Seconds print with three decimals
    /// and heartbeat ages in whole milliseconds.
    pub fn progress_json(&self) -> String {
        let elapsed = self.started.elapsed().as_secs_f64();
        let state = self.lock();
        let eta = match self.expected {
            Some(total) if state.done > 0 && state.done < total => {
                Some(elapsed / state.done as f64 * (total - state.done) as f64)
            }
            _ => None,
        };
        let seconds = |s: f64| Json::Num(format!("{s:.3}"));
        let tables = state.tables.iter().map(|(table, t)| {
            let counts = json_object! { "done": t.done, "failed": t.failed, "retried": t.retried };
            (table.clone(), counts)
        });
        let workers = state.workers.iter().map(|(&slot, w)| {
            // A live worker's age keeps growing between supervisor ticks.
            let age = match w.state {
                WorkerState::Idle => w.beat_age,
                _ => w.beat_age + w.reported.elapsed(),
            };
            let age_ms = Json::Num(format!("{:.0}", age.as_secs_f64() * 1e3));
            json_object! { "slot": slot, "state": w.state.as_str(), "heartbeat_age_ms": age_ms }
        });
        let breakers = state.breakers.iter().map(|t| Json::from(t.as_str()));
        json_object! {
            "elapsed_s": seconds(elapsed), "expected": self.expected.map_or(Json::Null, Json::from),
            "done": state.done, "failed": state.failed, "retried": state.retried,
            "eta_s": eta.map_or(Json::Null, seconds), "degraded": self.is_degraded(),
            "draining": signals::draining(), "lost": state.lost, "respawns": state.respawns,
            "tables": Json::Obj(tables.collect()), "workers": Json::Arr(workers.collect()),
            "breakers": Json::Arr(breakers.collect()),
        }
        .to_string()
    }

    /// The worker-liveness fragment for the `--progress` ticker, e.g.
    /// `2 workers live, oldest hb 40ms` — `None` until a worker has been
    /// seen (in-process runs never show it).
    pub fn ticker_fragment(&self) -> Option<String> {
        let state = self.lock();
        if state.workers.is_empty() {
            return None;
        }
        let live = count_live(&state);
        let respawning = state
            .workers
            .values()
            .filter(|w| w.state == WorkerState::Respawning)
            .count();
        let oldest = state
            .workers
            .values()
            .filter(|w| w.state != WorkerState::Idle)
            .map(|w| w.beat_age + w.reported.elapsed())
            .max();
        let mut s = format!("{live} worker(s) live");
        if respawning > 0 {
            s.push_str(&format!(", {respawning} respawning"));
        }
        if signals::draining() {
            s.push_str(", draining");
        }
        if let Some(age) = oldest {
            s.push_str(&format!(", oldest hb {:.0}ms", age.as_secs_f64() * 1e3));
        }
        Some(s)
    }
}

fn count_live(state: &BoardState) -> usize {
    state
        .workers
        .values()
        .filter(|w| w.state != WorkerState::Idle)
        .count()
}

/// The `--serve` HTTP server: a background accept loop over a
/// non-blocking [`TcpListener`], shut down when the handle drops (end of
/// the run). One request per connection (`Connection: close`), which is
/// all a scraper needs.
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
    /// starts serving `board` in a background thread. The job API is off;
    /// `/jobs` paths answer `404`.
    pub fn start(addr: &str, board: Arc<OpsBoard>) -> Result<OpsServer, String> {
        Self::start_with_jobs(addr, board, None)
    }

    /// [`start`](OpsServer::start), plus the job API routed to `jobs`
    /// (the `repro serve` daemon mode).
    pub fn start_with_jobs(
        addr: &str,
        board: Arc<OpsBoard>,
        jobs: Option<Arc<JobServer>>,
    ) -> Result<OpsServer, String> {
        let listener =
            TcpListener::bind(addr).map_err(|e| format!("--serve: cannot bind {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("--serve: cannot read bound address: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("--serve: cannot set non-blocking: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => handle(stream, &board, jobs.as_deref()),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(20));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(20)),
                    }
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
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
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
fn handle(stream: TcpStream, board: &OpsBoard, jobs: Option<&JobServer>) {
    let mut stream = stream;
    stream.set_nonblocking(false).ok();
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
        ("GET", "/healthz") => {
            let body = board.health_body();
            let status = if board.is_degraded() {
                "503 Service Unavailable"
            } else {
                "200 OK"
            };
            (status.to_string(), TEXT, body)
        }
        ("GET", "/progress") => ("200 OK".to_string(), JSON, board.progress_json()),
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

    #[test]
    fn board_tracks_cells_workers_and_degradation() {
        signals::reset_for_test();
        let board = OpsBoard::new(Some(4));
        assert!(!board.is_degraded());
        board.cell_done("table4.1", true, 1);
        board.cell_done("table4.1", true, 3);
        assert!(!board.is_degraded());
        board.worker_spawned(0, false);
        board.worker_beat(0, Duration::from_millis(40));
        let json = board.progress_json();
        assert!(json.contains("\"done\":2"), "{json}");
        assert!(json.contains("\"retried\":1"), "{json}");
        assert!(json.contains("\"expected\":4"), "{json}");
        assert!(json.contains("\"eta_s\":"), "{json}");
        assert!(json.contains("\"table4.1\":{\"done\":2"), "{json}");
        assert!(json.contains("\"slot\":0,\"state\":\"live\""), "{json}");
        let ticker = board.ticker_fragment().expect("worker fragment");
        assert!(ticker.contains("1 worker(s) live"), "{ticker}");
        assert!(ticker.contains("oldest hb"), "{ticker}");

        board.cell_done("table4.2b", false, 2);
        board.breaker_tripped("table4.2b");
        assert!(board.is_degraded());
        let health = board.health_body();
        assert!(health.contains("1 cell(s) failed"), "{health}");
        assert!(
            health.contains("circuit breaker open for table4.2b"),
            "{health}"
        );
        board.worker_exited(0);
        assert_eq!(board.ticker_fragment().unwrap(), "0 worker(s) live");
        // The whole document, with its two clock-dependent lexemes masked.
        let json = board.progress_json();
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
        let board = OpsBoard::new(None);
        board.cell_done("table4.1", true, 1);
        assert_eq!(board.ticker_fragment(), None);
        // No expected total: no ETA, expected is null.
        let json = board.progress_json();
        assert!(json.contains("\"expected\":null"), "{json}");
        assert!(json.contains("\"eta_s\":null"), "{json}");
    }

    #[test]
    fn server_serves_all_three_endpoints() {
        signals::reset_for_test();
        let board = OpsBoard::new(Some(2));
        board.cell_done("table4.1", true, 1);
        let server = OpsServer::start("127.0.0.1:0", Arc::clone(&board)).expect("bind");
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

        board.cell_done("table4.1", false, 1);
        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, "HTTP/1.1 503 Service Unavailable");
        assert!(body.starts_with("degraded:"), "{body}");
    }

    #[test]
    fn jobs_paths_answer_404_without_a_job_server() {
        let board = OpsBoard::new(None);
        let server = OpsServer::start("127.0.0.1:0", board).expect("bind");
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
        let server = OpsServer::start("127.0.0.1:0", OpsBoard::new(None)).expect("bind");
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
        let board = OpsBoard::new(None);
        let jobs = Arc::new(crate::jobs::JobServer::start(1, 4, None).expect("jobs"));
        let server = OpsServer::start_with_jobs("127.0.0.1:0", board, Some(jobs)).expect("bind");
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
