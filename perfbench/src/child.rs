//! The measured child processes: `repro` runs and `serve` instances.

use std::fs::File;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use nemfpga_service::ServiceClient;

/// Linux reports `/proc/<pid>/stat` CPU times in USER_HZ ticks, which
/// is 100 on every architecture the workspace builds for.
const TICKS_PER_SECOND: f64 = 100.0;

/// What a reaped child used, from `wait4(2)`.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// Whether it exited with status 0.
    pub success: bool,
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set in MiB.
    pub peak_rss_mb: f64,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
}

/// Linux's `SCHED_IDLE` policy: runs only when nothing else wants the CPU,
/// and any other task that wakes preempts it at once.
const SCHED_IDLE: i32 = 5;

/// Keeps every CPU out of its idle state while alive, with one
/// `SCHED_IDLE` spinning thread pinned to each CPU.
///
/// A set-up takes 1 ms to 2 ms of work, and a virtual machine adds the
/// time its host takes to wake a halted virtual CPU to every thread
/// that starts on one: about 2.6 ms on a busy 2-CPU host, and how often
/// that happens drifts over minutes. With the CPUs kept busy the delay
/// is gone, and the spinners give way to the measured process as soon
/// as it runs.
pub struct KeepAwake {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    spinners: Vec<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    /// Starts one spinner per CPU the process may run on, and returns
    /// once all of them spin.
    pub fn start() -> Self {
        use std::sync::atomic::{AtomicBool, Ordering};
        let mut allowed = [0u64; 16];
        // SAFETY: pid 0 names the calling thread and `allowed` is a live,
        // writable 1024-bit `cpu_set_t`.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) }
            != 0
        {
            allowed = [0; 16];
        }
        let cpus: Vec<usize> =
            (0..1024).filter(|&cpu| allowed[cpu / 64] & (1 << (cpu % 64)) != 0).collect();
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let started = std::sync::Arc::new(std::sync::Barrier::new(cpus.len() + 1));
        let spinners = cpus
            .into_iter()
            .map(|cpu| {
                let stop = std::sync::Arc::clone(&stop);
                let started = std::sync::Arc::clone(&started);
                std::thread::spawn(move || {
                    let mut mask = [0u64; 16];
                    mask[cpu / 64] |= 1 << (cpu % 64);
                    let priority = 0i32;
                    // SAFETY: pid 0 names the calling thread; `mask` is a
                    // live `cpu_set_t` and `priority` a live `struct
                    // sched_param` (one int). A thread whose calls fail
                    // does not spin, since at normal priority it would
                    // take CPU from the measured process.
                    let idle = unsafe {
                        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0
                            && sched_setscheduler(0, SCHED_IDLE, &priority) == 0
                    };
                    started.wait();
                    while idle && !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        started.wait();
        Self { stop, spinners }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for spinner in self.spinners.drain(..) {
            let _ = spinner.join();
        }
    }
}

/// Reaps `child` and returns its exit status and resource usage. The
/// `Child` must not be waited on afterwards.
pub fn reap(child: &Child) -> std::io::Result<Usage> {
    let pid = i32::try_from(child.id()).expect("pids fit in i32");
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable, and laid out
        // as the C `int` and `struct rusage` of x86-64/aarch64 Linux
        // (two timevals of two i64 each, then fourteen longs).
        let ret = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if ret == pid {
            break;
        }
        let error = std::io::Error::last_os_error();
        if error.kind() != std::io::ErrorKind::Interrupted {
            return Err(error);
        }
    }
    let seconds = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Ok(Usage {
        // Exited normally (low 7 bits clear) with code 0.
        success: status == 0,
        cpu_s: seconds(&usage.utime) + seconds(&usage.stime),
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
    })
}

/// User plus system CPU seconds `pid` has used so far.
pub fn cpu_seconds(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / TICKS_PER_SECOND
}

/// Seconds the hypervisor has run something else while this machine's
/// CPUs wanted to run (the `steal` column of `/proc/stat`), summed over
/// all CPUs since boot.
pub fn host_steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|f| f.parse::<f64>().ok())
        .map_or(0.0, |t| t / TICKS_PER_SECOND)
}

/// Peak resident set of `pid` in MiB (`VmHWM`).
pub fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One `repro` run: stdout, the stderr progress lines with their arrival
/// times, and the process's usage.
pub struct ReproRun {
    /// Spawn until exit.
    pub wall_s: f64,
    /// Everything printed on stdout.
    pub stdout: String,
    /// Stderr lines, each with seconds since spawn.
    pub progress: Vec<(f64, String)>,
    /// What the process used.
    pub usage: Usage,
}

fn repro_command(bin_dir: &Path, args: &[String]) -> Command {
    let mut cmd = Command::new(bin_dir.join("repro"));
    cmd.args(args).stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::piped());
    cmd
}

/// Runs `repro args…` to completion.
pub fn run_repro(bin_dir: &Path, args: &[String]) -> std::io::Result<ReproRun> {
    let t0 = Instant::now();
    let mut child = repro_command(bin_dir, args).spawn()?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        stdout.read_to_string(&mut out).map(|_| out)
    });
    let mut progress = Vec::new();
    let mut read_error = None;
    for line in BufReader::new(child.stderr.take().expect("stderr is piped")).lines() {
        match line {
            Ok(line) => progress.push((t0.elapsed().as_secs_f64(), line)),
            Err(e) => {
                // Never leave the child running: stop it, then reap it.
                let _ = child.kill();
                read_error = Some(e);
                break;
            }
        }
    }
    let usage = reap(&child);
    let wall_s = t0.elapsed().as_secs_f64();
    let stdout = reader.join().expect("stdout reader never panics");
    if let Some(e) = read_error {
        return Err(e);
    }
    let (usage, stdout) = (usage?, stdout?);
    Ok(ReproRun { wall_s, stdout, progress, usage })
}

/// Spawns `repro args…`, times it to its first progress line, then
/// stops it: one set-up sample without the run behind it.
pub fn repro_setup(bin_dir: &Path, args: &[String]) -> std::io::Result<f64> {
    let t0 = Instant::now();
    let mut child = repro_command(bin_dir, args).stdout(Stdio::null()).spawn()?;
    let mut line = String::new();
    let read = BufReader::new(child.stderr.take().expect("stderr is piped")).read_line(&mut line);
    let setup_s = t0.elapsed().as_secs_f64();
    child.kill()?;
    child.wait()?;
    read?;
    Ok(setup_s)
}

/// A running `serve` child on fresh cache and journal paths. Dropping it
/// kills the process and waits for it.
pub struct Server {
    child: Child,
    /// Where it listens.
    pub addr: std::net::SocketAddr,
    stdout: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts `serve --threads 2` on an ephemeral port with its cache and
    /// journal under `dir` (which must be fresh: a reused cache turns
    /// cold jobs into hits), and waits until it is healthy.
    pub fn start(bin_dir: &Path, dir: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let mut child = Command::new(bin_dir.join("serve"))
            .args(["--addr", "127.0.0.1:0", "--threads", "2", "--cache-dir"])
            .arg(dir.join("cache"))
            .arg("--journal")
            .arg(dir.join("journal.log"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(File::create(dir.join("serve.stderr"))?))
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (addr, drain) = match read_addr(stdout) {
            Ok(found) => found,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let server = Self { child, addr, stdout: Some(drain) };
        wait_healthy(addr)?;
        Ok(server)
    }

    /// The process id, for `/proc` sampling.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.stdout.take() {
            let _ = drain.join();
        }
    }
}

/// Reads `serving on http://ADDR` from a starting server's stdout, then
/// keeps draining the pipe on a thread so the server never blocks on it.
fn read_addr(
    stdout: ChildStdout,
) -> std::io::Result<(std::net::SocketAddr, std::thread::JoinHandle<()>)> {
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let addr = line
        .trim()
        .strip_prefix("serving on http://")
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("unexpected serve banner {line:?}")))?;
    let drain = std::thread::spawn(move || {
        let _ = std::io::copy(&mut reader, &mut std::io::sink());
    });
    Ok((addr, drain))
}

/// Polls `/v1/healthz` until it answers (30 s at most).
fn wait_healthy(addr: std::net::SocketAddr) -> std::io::Result<()> {
    let client = ServiceClient::new(addr)
        .map_err(|e| std::io::Error::other(e.to_string()))?
        .with_timeout(Duration::from_secs(5));
    let t0 = Instant::now();
    while client.healthz().is_err() {
        if t0.elapsed() > Duration::from_secs(30) {
            return Err(std::io::Error::other("server never became healthy"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

/// A fresh, empty directory `name` under `root`.
pub fn fresh_dir(root: &Path, name: &str) -> std::io::Result<PathBuf> {
    let dir = root.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Total bytes of the regular files under `dir`, skipping `skip`.
pub fn dir_bytes(dir: &Path, skip: Option<&str>) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if skip.is_some_and(|s| e.file_name() == s) {
                0
            } else if path.is_dir() {
                dir_bytes(&path, None)
            } else {
                e.metadata().map_or(0, |m| m.len())
            }
        })
        .sum()
}
