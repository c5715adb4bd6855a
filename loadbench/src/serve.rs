//! The server side of a run: spawning the real `wwt-serve` binary as a
//! child process, timing its boot, reading its CPU and memory from
//! `/proc`, and killing it.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use wwt_server::HttpClient;

use crate::plan::SHARDS;

/// The admin token the harness boots the server with.
pub const ADMIN_TOKEN: &str = "loadbench";
/// A body outside the query universe: answering it proves the engine is
/// up without touching a cache entry the workloads use.
pub const READY_BODY: &str = r#"{"query":"loadbench readiness | probe"}"#;
/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, 100 on
/// every Linux the sandbox runs).
const TICKS_PER_S: f64 = 100.0;
/// Client-side timeout on every socket read: longer than a compaction
/// can hold the mutation lock, far shorter than the 180 s run limit.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Where the server binary and the run's files live.
pub struct Paths {
    pub server_bin: PathBuf,
    pub scratch: PathBuf,
}

impl Paths {
    /// `wwt-serve` sits beside this executable (both are built into one
    /// target directory); scratch files go under that target directory
    /// too, so they are never inside the source tree.
    pub fn discover() -> Result<Paths, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let bin_dir = exe.parent().ok_or("executable has no parent directory")?;
        let server_bin = bin_dir.join("wwt-serve");
        if !server_bin.is_file() {
            return Err(format!(
                "{} not found; build it with `cargo build --release -p wwt-server --bin wwt-serve` \
                 from loadbench/ (loadbench/run.sh does)",
                server_bin.display()
            ));
        }
        let scratch = bin_dir
            .join("loadbench-scratch")
            .join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
        Ok(Paths {
            server_bin,
            scratch,
        })
    }
}

/// A running `wwt-serve` child.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Spawns `wwt-serve --index-path <index_dir>` with the benchmark's
    /// pinned shape (2 workers, journal with fsync always, manual
    /// compaction) and waits for its first 200 on `POST /query`. Returns
    /// the server and the seconds from spawn to that response.
    pub fn boot(paths: &Paths, index_dir: &Path, journal: &Path) -> Result<(Server, f64), String> {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(paths.scratch.join("server.log"))
            .map_err(|e| format!("server.log: {e}"))?;
        let t0 = Instant::now();
        let mut child = Command::new(&paths.server_bin)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--index-path")
            .arg(index_dir)
            .arg("--workers")
            .arg(SHARDS.to_string())
            .arg("--admin-token")
            .arg(ADMIN_TOKEN)
            .arg("--journal")
            .arg(journal)
            .args(["--journal-fsync", "always", "--max-delta-tables", "0"])
            .args(["--log-level", "warn"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", paths.server_bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut lines = BufReader::new(stdout).lines();
        let addr = match read_listen_addr(&mut lines) {
            Ok(addr) => addr,
            Err(e) => {
                drop(child_reap(&mut child));
                return Err(e);
            }
        };
        // Keep draining the banner so the child never blocks on a full
        // pipe; the thread ends when the child's stdout closes.
        let drain = std::thread::spawn(move || lines.for_each(drop));
        let mut server = Server {
            child,
            addr,
            drain: Some(drain),
        };
        let ready = HttpClient::connect_with_timeout(server.addr, CLIENT_TIMEOUT)
            .and_then(|mut c| c.post("/query", READY_BODY));
        match ready {
            Ok(resp) if resp.status == 200 => Ok((server, t0.elapsed().as_secs_f64())),
            Ok(resp) => {
                server.kill();
                Err(format!("readiness query answered {}", resp.status))
            }
            Err(e) => {
                server.kill();
                Err(format!("readiness query failed: {e}"))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `SIGKILL`, then reap: nothing the server buffered in user space
    /// survives, which is what the durability check relies on.
    pub fn kill(&mut self) {
        drop(child_reap(&mut self.child));
        if let Some(drain) = self.drain.take() {
            drop(drain.join());
        }
    }

    /// CPU seconds (user + system) the server has used so far.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.pid());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        parse_stat_cpu_ticks(&stat)
            .map(|ticks| ticks as f64 / TICKS_PER_S)
            .ok_or_else(|| format!("{path}: unexpected format"))
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        parse_status_kb(&status, "VmHWM")
            .map(|kb| kb as f64 / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// The address in the server's `listening on http://ADDR` banner line.
fn read_listen_addr(
    lines: &mut impl Iterator<Item = std::io::Result<String>>,
) -> Result<SocketAddr, String> {
    for line in lines {
        let line = line.map_err(|e| format!("reading the server banner: {e}"))?;
        if let Some(rest) = line.strip_prefix("listening on http://") {
            return rest
                .trim()
                .parse()
                .map_err(|e| format!("bad listen address {rest:?}: {e}"));
        }
    }
    Err("wwt-serve exited before listening (see server.log)".to_string())
}

fn child_reap(child: &mut Child) -> std::io::Result<std::process::ExitStatus> {
    drop(child.kill());
    child.wait()
}

/// `utime + stime` in clock ticks from a `/proc/<pid>/stat` line. The
/// command name (field 2) may itself contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command: state is field 3, utime field 14, stime field 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The kB value of `key` in `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_spaces_and_parens_in_the_command() {
        let stat = "4242 (wwt serve) (x) S 1 4242 4242 0 -1 4194304 1503 0 0 0 \
                    731 209 0 0 20 0 5 0 1234567 345678901 8123 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(731 + 209));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_reads_the_named_kb_line_only() {
        let status =
            "Name:\twwt-serve\nVmPeak:\t  900000 kB\nVmHWM:\t  312345 kB\nVmRSS:\t  300000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(312_345));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(300_000));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        assert_eq!(parse_status_kb("VmHWMX:\t1 kB\n", "VmHWM"), None);
    }

    #[test]
    fn own_process_is_readable() {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
        assert!(parse_stat_cpu_ticks(&stat).is_some());
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        assert!(parse_status_kb(&status, "VmHWM").unwrap() > 0);
    }
}
