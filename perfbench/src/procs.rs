//! The processes under test: `trajlib-cli serve` shards and the
//! `trajlib-cli cluster` router, run as children so the load
//! generator's CPU and memory never mix with theirs.

use crate::load;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running child; killed and reaped on drop.
pub struct Proc {
    child: Child,
    /// Held open so the child's later banner lines never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// Where it listens (read from its startup banner).
    pub addr: SocketAddr,
}

impl Proc {
    /// Spawns `cli args…` and waits for its `… on http://ADDR …` banner,
    /// which both subcommands print once they accept connections.
    pub fn spawn(cli: &Path, args: &[&str]) -> Result<Proc, String> {
        let mut child = Command::new(cli)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", cli.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            if !matches!(stdout.read_line(&mut line), Ok(n) if n > 0) {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "`trajlib-cli {}` exited before announcing its address",
                    args.join(" ")
                ));
            }
            if let Some(addr) = banner_addr(&line) {
                return Ok(Proc {
                    child,
                    _stdout: stdout,
                    addr,
                });
            }
        }
    }

    /// Peak resident set of the child, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The listen address in a `… on http://ADDR …` banner line.
pub fn banner_addr(line: &str) -> Option<SocketAddr> {
    let rest = line.split_once("on http://")?.1;
    rest.split_whitespace().next()?.parse().ok()
}

/// `VmHWM` (peak resident set) of a `/proc/<pid>/status` file, MiB.
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Polls `GET /readyz` until it answers 200.
pub fn wait_ready(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok((200, _)) = load::request(addr, "GET", "/readyz", None) {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!("{addr} did not become ready"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banners_of_both_subcommands_yield_the_address() {
        let serve = "serving 1 model(s) [rf] on http://127.0.0.1:40123 (adaptive scheduler, slo 50ms, queue cap 1024)\n";
        let cluster = "routing 2 shard(s) [127.0.0.1:1, 127.0.0.1:2] on http://127.0.0.1:40999\n";
        assert_eq!(banner_addr(serve), Some("127.0.0.1:40123".parse().unwrap()));
        assert_eq!(
            banner_addr(cluster),
            Some("127.0.0.1:40999".parse().unwrap())
        );
        assert_eq!(banner_addr("endpoints: POST /predict"), None);
    }

    #[test]
    fn own_peak_rss_is_positive() {
        assert!(peak_rss_mb("/proc/self/status") > 0.0);
    }
}
