//! Runs the `bepi` binary from outside: `bepi preprocess` to completion
//! and `bepi serve` as a child that is always stopped and waited for.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// The `bepi` binary under test: `$BEPI_BIN`, else the sibling of this
/// executable (`run.sh` builds both into one target directory).
pub fn bepi_bin() -> Result<PathBuf, String> {
    if let Some(path) = std::env::var_os("BEPI_BIN") {
        return Ok(PathBuf::from(path));
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut dir = exe.parent().map(Path::to_path_buf).unwrap_or_default();
    // Test binaries live one level down, in `deps/`.
    if dir.ends_with("deps") {
        dir.pop();
    }
    let sibling = dir.join("bepi");
    if sibling.is_file() {
        Ok(sibling)
    } else {
        Err(format!(
            "no bepi binary at {} (run benchmark/run.sh, or set BEPI_BIN)",
            sibling.display()
        ))
    }
}

/// `bepi preprocess EDGES INDEX FLAGS…`; returns the process wall time.
pub fn preprocess(edges: &Path, index: &Path, flags: &[String]) -> Result<Duration, String> {
    let start = Instant::now();
    let output = Command::new(bepi_bin()?)
        .arg("preprocess")
        .arg(edges)
        .arg(index)
        .args(flags)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("spawn bepi preprocess: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "bepi preprocess failed: {}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(start.elapsed())
}

/// A running `bepi serve` daemon. Dropping it stops the process and waits
/// for it, so no error path can leave a daemon behind.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// `bepi serve INDEX --listen 127.0.0.1:0 FLAGS…`.
    pub fn spawn(index: &Path, flags: &[String]) -> Result<Daemon, String> {
        let mut child = Command::new(bepi_bin()?)
            .arg("serve")
            .arg(index)
            .args(["--listen", "127.0.0.1:0"])
            .args(flags)
            // The daemon runs until EOF on stdin: holding the pipe open is
            // what keeps it alive, closing it is the graceful stop.
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn bepi serve: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = match read {
            Ok(n) if n > 0 => parse_listening(&line),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("bepi serve did not report an address: {line:?}"));
        };
        Ok(Daemon { child, stdin, addr })
    }

    /// Graceful stop: EOF on stdin, then wait; a daemon still alive after
    /// ten seconds is killed.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => break,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Address out of `bepi-server listening on http://ADDR (…)`.
fn parse_listening(line: &str) -> Option<SocketAddr> {
    let rest = line.split("http://").nth(1)?;
    rest.split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listening_line_yields_the_address() {
        let line = "bepi-server listening on http://127.0.0.1:40123 (2048 nodes, heap index)\n";
        assert_eq!(
            parse_listening(line),
            Some("127.0.0.1:40123".parse().unwrap())
        );
        assert_eq!(parse_listening("error: no such file"), None);
    }
}
