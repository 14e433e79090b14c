//! Running the `tind` binary as a subprocess: one-shot verbs (wall time +
//! peak RSS) and the `tind serve` daemon (boot, address, stop).

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::loadgen::http_call;
use crate::trace::span;
use crate::util::vm_hwm_mib;

pub struct VerbRun {
    pub wall_s: f64,
    pub rss_mib: f64,
    pub stdout: String,
}

/// Runs `tind <args>` to completion. Peak RSS is the last `VmHWM` read
/// while the process was alive (polled every 2 ms; the counter is
/// monotone, so only a peak reached in the final poll interval is missed).
pub fn run_verb(tind: &Path, args: &[&str]) -> Result<VerbRun, String> {
    let start = Instant::now();
    let mut child = Command::new(tind)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", tind.display()))?;
    let pid = child.id().to_string();
    // Verb outputs are a few lines; the pipes cannot fill while we poll.
    let mut rss_mib = 0.0f64;
    let status = loop {
        // The read fails once the process is gone: keep the last peak seen.
        if let Ok(hwm) = vm_hwm_mib(&pid) {
            rss_mib = rss_mib.max(hwm);
        }
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => std::thread::sleep(Duration::from_millis(2)),
            Err(e) => return Err(format!("wait for tind {}: {e}", args[0])),
        }
    };
    let wall_s = start.elapsed().as_secs_f64();
    let output = child.wait_with_output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if !status.success() {
        return Err(format!(
            "tind {} exited with {status}: {}",
            args.join(" "),
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    Ok(VerbRun {
        wall_s,
        rss_mib,
        stdout,
    })
}

/// The files one workload's set-up generates under its scratch directory.
pub struct Fixture {
    pub data: PathBuf,
    pub truth: PathBuf,
    pub store: PathBuf,
}

impl Fixture {
    pub fn new(scratch: &Path) -> Fixture {
        Fixture {
            data: scratch.join("data.tind"),
            truth: scratch.join("truth.csv"),
            store: scratch.join("store"),
        }
    }

    /// `tind generate --preset paper` into `data`, planted pairs into `truth`.
    pub fn generate(&self, tind: &Path, attrs: usize, seed: u64) -> Result<VerbRun, String> {
        span("setup.generate", || {
            run_verb(
                tind,
                &[
                    "generate",
                    "--attributes",
                    &attrs.to_string(),
                    "--seed",
                    &seed.to_string(),
                    "--preset",
                    "paper",
                    "--out",
                    &self.data.display().to_string(),
                    "--truth-out",
                    &self.truth.display().to_string(),
                ],
            )
        })
    }

    /// `tind store pack --format arena` of `data` into a fresh `store`.
    pub fn pack_store(&self, tind: &Path) -> Result<VerbRun, String> {
        let _ = std::fs::remove_dir_all(&self.store);
        span("setup.store_pack", || {
            run_verb(
                tind,
                &[
                    "store",
                    "pack",
                    "--data",
                    &self.data.display().to_string(),
                    "--out",
                    &self.store.display().to_string(),
                    "--format",
                    "arena",
                ],
            )
        })
    }

    /// Planted genuine pairs, from the `--truth-out` CSV.
    pub fn genuine_pairs(&self) -> Vec<(u32, u32)> {
        let Ok(text) = std::fs::read_to_string(&self.truth) else {
            return Vec::new();
        };
        text.lines()
            .skip(1)
            .filter_map(|l| {
                let mut f = l.split(',');
                Some((f.next()?.parse().ok()?, f.next()?.parse().ok()?))
            })
            .collect()
    }
}

/// A running `tind serve`; killed and reaped on drop, so no early return
/// or panic in the harness leaves a daemon behind.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    /// Spawn → `/healthz` reports `serving`.
    pub boot_s: f64,
    /// Spawn → first HTTP 200 on a query.
    pub first_200_s: f64,
}

impl Server {
    /// Spawns `tind serve <args> --port 0 --port-file F --quiet` and waits
    /// until it answers a first query.
    pub fn spawn(tind: &Path, args: &[String], scratch: &Path) -> Result<Server, String> {
        let port_file: PathBuf = scratch.join("serve.port");
        let _ = std::fs::remove_file(&port_file);
        let start = Instant::now();
        let child = Command::new(tind)
            .arg("serve")
            .args(args)
            .args(["--port", "0", "--port-file"])
            .arg(&port_file)
            .arg("--quiet")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn tind serve: {e}"))?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            boot_s: 0.0,
            first_200_s: 0.0,
        };
        let deadline = start + Duration::from_secs(60);
        let port: u16 = server.poll(deadline, |_| {
            std::fs::read_to_string(&port_file)
                .ok()
                .and_then(|s| s.trim().parse().ok())
        })?;
        server.addr = SocketAddr::from(([127, 0, 0, 1], port));
        server.poll(deadline, |s| {
            match http_call(s.addr, "GET", "/healthz", "") {
                Ok((200, body)) if body.contains("\"status\":\"serving\"") => Some(()),
                _ => None,
            }
        })?;
        server.boot_s = start.elapsed().as_secs_f64();
        server.poll(deadline, |s| {
            match http_call(s.addr, "POST", "/search", "{\"query\":\"0\"}") {
                Ok((200, _)) => Some(()),
                _ => None,
            }
        })?;
        server.first_200_s = start.elapsed().as_secs_f64();
        Ok(server)
    }

    /// Retries `probe` every millisecond until it yields, the daemon dies,
    /// or the start-up deadline passes.
    fn poll<T>(
        &mut self,
        deadline: Instant,
        probe: impl Fn(&Server) -> Option<T>,
    ) -> Result<T, String> {
        loop {
            if let Some(found) = probe(self) {
                return Ok(found);
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("tind serve exited during start-up with {status}"));
            }
            if Instant::now() > deadline {
                return Err("tind serve did not come up within 60 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn rss_mib(&self) -> Result<f64, String> {
        vm_hwm_mib(&self.child.id().to_string())
    }

    /// The server's own metrics registry (`GET /metrics`), parsed.
    pub fn metrics(&self) -> Option<tind_obs::json::Value> {
        match http_call(self.addr, "GET", "/metrics", "") {
            Ok((200, body)) => tind_obs::json::parse(&body).ok(),
            _ => None,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
