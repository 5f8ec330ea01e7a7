//! Building and driving the real `repro` binary: the checkout it lives in,
//! a scratch directory inside that checkout, spawning with set-up timing,
//! peak-RSS polling, WAL tailing and the HTTP client for `repro serve`.

use std::cell::Cell;
use std::fs::File;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The checkout this benchmark was built in: the parent of its package.
pub fn checkout_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the checkout")
        .to_path_buf()
}

/// Where the benchmark reads and writes: the built `repro` binary and a
/// scratch directory under the checkout, removed on drop.
pub struct Env {
    /// The `repro` binary under test.
    repro: PathBuf,
    /// Scratch directory for WALs, journals and shards.
    work: PathBuf,
    files: Cell<u64>,
}

impl Env {
    /// Builds this package's `repro` target from the checkout's sources
    /// into the target directory this driver was built in (a no-op when it
    /// is up to date), and creates a fresh scratch directory named after
    /// `tag`.
    pub fn prepare(tag: &str) -> Result<Env, String> {
        let root = checkout_root();
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate the driver: {e}"))?;
        // The driver runs from `<target>/<profile>/`.
        let target = exe
            .parent()
            .and_then(Path::parent)
            .ok_or_else(|| format!("no target directory above {}", exe.display()))?;
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let status = Command::new(cargo)
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--bin",
                "repro",
            ])
            .arg("--manifest-path")
            .arg(root.join("e2ebench").join("Cargo.toml"))
            .arg("--target-dir")
            .arg(target)
            .current_dir(&root)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building repro failed: {status}"));
        }
        let repro = target.join("release").join("repro");
        if !repro.is_file() {
            return Err(format!("no repro binary at {}", repro.display()));
        }
        let work = root
            .join(".e2ebench_work")
            .join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&work)
            .map_err(|e| format!("cannot create {}: {e}", work.display()))?;
        Ok(Env {
            repro,
            work,
            files: Cell::new(0),
        })
    }

    /// A `repro` command with silent standard streams whose temporary
    /// files stay inside the scratch directory.
    pub fn repro_cmd(&self, args: &[String]) -> Command {
        let mut cmd = Command::new(&self.repro);
        cmd.args(args)
            .env("TMPDIR", &self.work)
            .env_remove("ANNEAL_FAULTS")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        cmd
    }

    /// A path inside the scratch directory that no earlier call returned.
    /// Every invocation gets fresh files: `repro` appends to existing WAL
    /// shards and journals, so a reused path would carry one run's state
    /// into the next.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let n = self.files.get();
        self.files.set(n + 1);
        self.work.join(format!("{n}-{name}"))
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

/// Sends SIGTERM to a child that has not been reaped yet.
pub fn terminate(child: &Child) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    let pid = i32::try_from(child.id()).expect("pids fit in i32");
    // SAFETY: kill(2) takes plain integers and touches no memory of ours.
    // The child is unreaped, so its pid cannot have been recycled.
    unsafe {
        kill(pid, SIGTERM);
    }
}

/// The peak resident set size (`VmHWM`) of a live process, in KiB; 0 once
/// it has exited.
pub fn vm_hwm_kb(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// One supervised `repro` suite process.
pub struct WalRun {
    /// Spawn to exit.
    pub wall: Duration,
    /// Spawn to the WAL header line being on disk.
    pub setup: Duration,
    /// Peak RSS of the process, polled every 10 ms.
    pub peak_rss_kb: u64,
    /// How the process ended.
    pub status: ExitStatus,
    /// WAL lines after the header, with their arrival time since spawn
    /// (only when tailed).
    pub lines: Vec<(Duration, String)>,
}

/// Runs `cmd`, which writes its WAL to `wal`, to completion. `tail` reads
/// the WAL every millisecond and timestamps each line; otherwise the
/// process is left alone once its header is on disk. `stop_at_header`
/// sends SIGTERM at that point (a set-up probe).
pub fn run_wal_child(
    mut cmd: Command,
    wal: &Path,
    tail: bool,
    stop_at_header: bool,
) -> Result<WalRun, String> {
    let t0 = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot spawn repro: {e}"))?;
    let pid = child.id();
    let exited = AtomicBool::new(false);
    let peak = AtomicU64::new(0);
    let watched = std::thread::scope(|s| {
        // Sampled on its own thread so the main one can block in wait().
        s.spawn(|| {
            while !exited.load(Ordering::SeqCst) {
                peak.fetch_max(vm_hwm_kb(pid), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        let watched = watch(&mut child, wal, t0, tail, stop_at_header);
        if watched.is_err() {
            let _ = child.kill();
            let _ = child.wait();
        }
        exited.store(true, Ordering::SeqCst);
        watched
    });
    let (status, wall, setup, lines) = watched?;
    Ok(WalRun {
        wall,
        setup: setup
            .ok_or_else(|| format!("repro exited ({status}) before writing its WAL header"))?,
        peak_rss_kb: peak.load(Ordering::Relaxed),
        status,
        lines,
    })
}

/// Exit status, spawn-to-exit wall, set-up and tailed lines.
type Watched = (
    ExitStatus,
    Duration,
    Option<Duration>,
    Vec<(Duration, String)>,
);

/// How often a tailed WAL is read. The shortest cells take about 3 ms, so
/// every cell line arrives in a poll of its own.
const TAIL_POLL: Duration = Duration::from_millis(1);

/// Polls `wal` without sleeping until its header line is on disk, then
/// either tails it every [`TAIL_POLL`] or blocks until the process exits.
fn watch(
    child: &mut Child,
    wal: &Path,
    t0: Instant,
    tail: bool,
    stop_at_header: bool,
) -> Result<Watched, String> {
    let mut file: Option<File> = None;
    let mut pending = Vec::new();
    let mut setup = None;
    let mut lines = Vec::new();
    loop {
        let now = Instant::now();
        let exited = child
            .try_wait()
            .map_err(|e| format!("cannot wait for repro: {e}"))?;
        if file.is_none() {
            file = File::open(wal).ok();
        }
        if let Some(f) = file.as_mut() {
            f.read_to_end(&mut pending)
                .map_err(|e| format!("cannot read {}: {e}", wal.display()))?;
            while let Some(end) = pending.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = pending.drain(..=end).collect();
                if setup.is_none() {
                    setup = Some(now - t0);
                } else if tail {
                    lines.push((now - t0, String::from_utf8_lossy(&line[..end]).into_owned()));
                }
            }
        }
        if let Some(status) = exited {
            return Ok((status, t0.elapsed(), setup, lines));
        }
        if setup.is_some() && !tail {
            if stop_at_header {
                terminate(child);
            }
            let status = child
                .wait()
                .map_err(|e| format!("cannot wait for repro: {e}"))?;
            return Ok((status, t0.elapsed(), setup, lines));
        }
        if setup.is_none() {
            // Set-up takes about a millisecond; a sleeping poll would
            // quantise it.
            std::thread::yield_now();
        } else {
            std::thread::sleep(TAIL_POLL);
        }
    }
}

/// A running `repro serve` daemon.
pub struct Server {
    child: Child,
    // Held open until the daemon exits: it reports its drain on stderr.
    _stderr: BufReader<ChildStderr>,
    /// The bound address.
    pub addr: SocketAddr,
    /// Spawn to the first `GET /healthz` answering 200.
    pub setup: Duration,
}

impl Server {
    /// Starts `repro serve 127.0.0.1:0 --job-threads 2 --journal JOURNAL`
    /// and waits until it is healthy.
    pub fn start(env: &Env, journal: &Path) -> Result<Server, String> {
        let args: Vec<String> = ["serve", "127.0.0.1:0", "--job-threads", "2", "--journal"]
            .iter()
            .map(|s| s.to_string())
            .chain([journal.display().to_string()])
            .collect();
        let mut cmd = env.repro_cmd(&args);
        cmd.stderr(Stdio::piped());
        let t0 = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn repro serve: {e}"))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let n = stderr
                .read_line(&mut line)
                .map_err(|e| format!("cannot read repro serve output: {e}"))?;
            if n == 0 {
                let _ = child.wait();
                return Err("repro serve exited before binding".into());
            }
            if let Some(addr) = line.trim().strip_prefix("ops: serving on ") {
                break addr
                    .parse::<SocketAddr>()
                    .map_err(|e| format!("bad serve address `{addr}`: {e}"))?;
            }
        };
        let mut server = Server {
            child,
            _stderr: stderr,
            addr,
            setup: Duration::ZERO,
        };
        loop {
            if let Ok((200, _)) = http(addr, "GET", "/healthz", None) {
                break;
            }
            if t0.elapsed() > Duration::from_secs(30) {
                server.stop()?;
                return Err("repro serve never became healthy".into());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        server.setup = t0.elapsed();
        Ok(server)
    }

    /// The daemon's pid (for RSS polling).
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGTERM-drains the daemon and waits for it; a drained daemon exits
    /// 128 + 15.
    pub fn stop(mut self) -> Result<(), String> {
        terminate(&self.child);
        let status = self
            .child
            .wait()
            .map_err(|e| format!("cannot wait for repro serve: {e}"))?;
        match status.code() {
            Some(143) => Ok(()),
            _ => Err(format!(
                "repro serve ended with {status}, not a clean drain"
            )),
        }
    }
}

/// One HTTP/1.1 request on a fresh connection (the server answers with
/// `Connection: close`). Returns the status code and body.
pub fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let body = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let text = String::from_utf8_lossy(&response);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: truncated response"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    Ok((status, body.to_string()))
}
