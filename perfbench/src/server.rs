//! The system under test: `oasis index build` + `oasis serve` as child
//! processes, set up, observed and shut down from outside.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use oasis_net::Client;

/// A running `oasis serve` child. Dropping it kills the child.
pub struct Server {
    child: Child,
    /// Kept open: the server may still write to its stdout.
    _stdout: BufReader<ChildStdout>,
    /// The address the server listens on.
    pub addr: SocketAddr,
}

/// Build an artifact from `fasta` into `index` with 4 shards, the way the
/// README deploys it.
pub fn build(oasis: &Path, fasta: &Path, index: &Path) -> Result<(), String> {
    let status = Command::new(oasis)
        .args(["index", "build"])
        .arg(fasta)
        .arg("--out")
        .arg(index)
        .args(["--shards", "4"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("spawning {}: {e}", oasis.display()))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("oasis index build failed: {status}"))
    }
}

/// Build an artifact from `fasta` into `index` and start serving it; the
/// returned seconds run from the start of `index build` until the server
/// prints `listening on`.
pub fn start(
    oasis: &Path,
    fasta: &Path,
    index: &Path,
    serve_args: &[String],
    log: &Path,
) -> Result<(Server, f64), String> {
    let t0 = Instant::now();
    build(oasis, fasta, index)?;
    let server = serve(oasis, index, serve_args, log)?;
    Ok((server, t0.elapsed().as_secs_f64()))
}

/// Start `oasis serve` on the artifact in `index` and wait until it
/// prints `listening on`.
pub fn serve(
    oasis: &Path,
    index: &Path,
    serve_args: &[String],
    log: &Path,
) -> Result<Server, String> {
    let log = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
    let mut child = Command::new(oasis)
        .arg("serve")
        .arg("--index")
        .arg(index)
        .args(["--addr", "127.0.0.1:0"])
        .args(serve_args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(log)
        .spawn()
        .map_err(|e| format!("spawning oasis serve: {e}"))?;
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut line = String::new();
    let addr = loop {
        line.clear();
        match stdout.read_line(&mut line) {
            Ok(0) | Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err("oasis serve exited before listening".to_string());
            }
            Ok(_) => {
                if let Some(rest) = line.trim().strip_prefix("listening on ") {
                    break rest
                        .parse::<SocketAddr>()
                        .map_err(|e| format!("{rest}: {e}"));
                }
            }
        }
    };
    Ok(Server {
        child,
        _stdout: stdout,
        addr: addr?,
    })
}

impl Server {
    /// The child's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }

    /// An admin connection.
    pub fn client(&self) -> Result<Client, String> {
        Client::connect_timeout(self.addr, Duration::from_secs(10)).map_err(|e| e.to_string())
    }

    /// Ask the server to shut down and wait for it to exit (it joins any
    /// running compaction first). Kills it if it does not exit in time.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = self
            .client()
            .and_then(|mut c| c.shutdown_server().map_err(|e| e.to_string()));
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if asked.is_ok() && status.success() => return Ok(()),
                Ok(Some(status)) => {
                    return Err(format!("server exit {status}, shutdown request {asked:?}"))
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("server did not exit after shutdown".to_string()),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let meta = entry.metadata().map_err(|e| e.to_string())?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Copy the artifact in `from` (a flat directory) to a new directory `to`.
pub fn copy_artifact(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir(to).map_err(|e| format!("{}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        if !entry.file_type().map_err(|e| e.to_string())?.is_file() {
            return Err(format!("{}: not a regular file", entry.path().display()));
        }
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("{}: {e}", entry.path().display()))?;
    }
    Ok(())
}
