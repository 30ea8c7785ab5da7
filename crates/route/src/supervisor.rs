//! Shard process supervision: spawning `bepi serve` children, health
//! probing, crash detection, respawn, and epoch-gated re-admission.
//!
//! The supervisor owns the fleet's failure story:
//!
//! * **Detection** — a periodic `/version` probe per shard; a probe
//!   failure (or, in spawn mode, the child process having exited) takes
//!   the shard out of rotation immediately.
//! * **Restart** — in spawn mode a dead child is relaunched; the
//!   replacement binds a fresh ephemeral port, so the shard's address
//!   and connection pool are swapped wholesale
//!   ([`ShardState::replace_process`]).
//! * **Re-admission** — a shard re-enters rotation only once it answers
//!   `/version` with a graph version at or beyond the fleet's expected
//!   epoch. For a static index every process reports version 1 and the
//!   gate reduces to "answers at all"; in a live fleet mid-rollout it
//!   keeps a restarted shard that came back on the *old* epoch from
//!   serving stale answers as if nothing happened.

use crate::shard::{quorum_version, ShardState};
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How to launch one shard daemon.
#[derive(Debug, Clone)]
pub struct SpawnSpec {
    /// The `bepi` binary.
    pub program: PathBuf,
    /// The index every shard serves (all share it via `--mmap`).
    pub index: PathBuf,
    /// Extra `bepi serve` flags appended verbatim (e.g. `--mmap`,
    /// `--cache-entries N`).
    pub extra_args: Vec<String>,
}

/// A spawned shard child plus the stdin handle whose EOF is the
/// daemon's graceful-shutdown signal. The stdout pipe is kept open so
/// the child's few post-announce startup prints land in the (never
/// read again) pipe buffer instead of hitting EPIPE.
struct ChildProc {
    child: Child,
    stdin: Option<ChildStdin>,
    #[allow(dead_code)]
    stdout: std::process::ChildStdout,
}

/// Fleet supervisor: health loop plus (in spawn mode) process lifecycle.
pub struct Supervisor {
    shards: Vec<Arc<ShardState>>,
    /// `Some` in spawn mode; `None` when attached to externally managed
    /// daemons (attach mode never restarts anything).
    spec: Option<SpawnSpec>,
    children: Mutex<Vec<Option<ChildProc>>>,
    /// The graph version a (re)joining shard must reach before it is
    /// re-admitted. Set to the fleet quorum version after boot and
    /// ratcheted up as rollouts complete.
    expected_epoch: AtomicU64,
    stop: AtomicBool,
}

impl Supervisor {
    /// Supervisor over already-running daemons (attach mode).
    pub fn attach(shards: Vec<Arc<ShardState>>) -> Supervisor {
        let n = shards.len();
        Supervisor {
            shards,
            spec: None,
            children: Mutex::new((0..n).map(|_| None).collect()),
            expected_epoch: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        }
    }

    /// Spawns `count` shard daemons and returns the supervisor over
    /// them. Fails if any child cannot be launched or never reports a
    /// listen address.
    pub fn spawn(
        spec: SpawnSpec,
        count: usize,
        per_request_timeout: Duration,
    ) -> std::io::Result<Supervisor> {
        let mut shards = Vec::with_capacity(count);
        let mut children = Vec::with_capacity(count);
        for id in 0..count {
            let (proc_, addr) = launch(&spec, id)?;
            shards.push(Arc::new(ShardState::new(id, addr, per_request_timeout)));
            children.push(Some(proc_));
        }
        Ok(Supervisor {
            shards,
            spec: Some(spec),
            children: Mutex::new(children),
            expected_epoch: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        })
    }

    /// The supervised shards (shared with the router's request paths).
    pub fn shards(&self) -> &[Arc<ShardState>] {
        &self.shards
    }

    /// OS process ids of the spawned children (empty in attach mode).
    /// Drills use these to SIGKILL a shard mid-load.
    pub fn child_pids(&self) -> Vec<u32> {
        self.lock_children()
            .iter()
            .flatten()
            .map(|c| c.child.id())
            .collect()
    }

    /// The epoch gate for re-admission.
    pub fn expected_epoch(&self) -> u64 {
        self.expected_epoch.load(Ordering::SeqCst)
    }

    /// One supervision pass: crash detection + respawn (spawn mode),
    /// then a `/version` probe per shard deciding health and epoch
    /// re-admission. Called by the health thread every interval, and
    /// once synchronously at router boot.
    pub fn tick(&self) {
        if self.spec.is_some() {
            self.reap_and_respawn();
        }
        for shard in &self.shards {
            self.probe(shard);
        }
        // Ratchet the gate to the fleet quorum: once a rollout completes
        // on a majority, a shard restarting on the *previous* epoch is
        // no longer good enough to rejoin.
        self.expected_epoch
            .fetch_max(quorum_version(&self.shards), Ordering::SeqCst);
    }

    /// Probes one shard's `/version`; marks it healthy iff the probe
    /// answers 200 with a graph version at or beyond the expected epoch.
    fn probe(&self, shard: &ShardState) {
        match shard.client().get("/version") {
            Ok(resp) if resp.status == 200 => {
                shard.record_probe();
                if let Some(v) = resp.graph_version() {
                    shard.observe_version(v);
                }
                if let Some(v) = resp.json_str("variant") {
                    shard.observe_variant(v);
                }
                shard.mark(shard.version() >= self.expected_epoch());
            }
            Ok(_) | Err(_) => shard.mark(false),
        }
    }

    /// Detects exited children (a SIGKILLed shard shows up here) and
    /// relaunches them. The replacement is *not* marked healthy — the
    /// next probe re-admits it once it answers with the expected epoch.
    fn reap_and_respawn(&self) {
        let Some(spec) = &self.spec else { return };
        for (id, slot) in self.lock_children().iter_mut().enumerate() {
            let exited = match slot {
                Some(proc_) => proc_.child.try_wait().map(|s| s.is_some()).unwrap_or(true),
                None => true,
            };
            if !exited {
                continue;
            }
            self.shards[id].mark(false);
            bepi_obs::warn!("route", "shard process exited; respawning", shard = id);
            match launch(spec, id) {
                Ok((proc_, addr)) => {
                    bepi_obs::info!("route", "shard respawned", shard = id, addr = addr);
                    self.shards[id].replace_process(addr);
                    *slot = Some(proc_);
                }
                Err(e) => {
                    bepi_obs::warn!(
                        "route",
                        "shard respawn failed; will retry",
                        shard = id,
                        error = e
                    );
                    *slot = None;
                }
            }
        }
    }

    /// Runs the supervision loop until [`Supervisor::shutdown`].
    pub fn run(&self, interval: Duration) {
        while !self.stop.load(Ordering::SeqCst) {
            self.tick();
            // Sleep in small slices so shutdown is prompt even with a
            // long probe interval.
            let mut remaining = interval;
            while !self.stop.load(Ordering::SeqCst) && remaining > Duration::ZERO {
                let slice = remaining.min(Duration::from_millis(25));
                std::thread::sleep(slice);
                remaining = remaining.saturating_sub(slice);
            }
        }
    }

    /// Stops the supervision loop and shuts the children down
    /// gracefully (stdin EOF, then a bounded wait, then SIGKILL).
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for slot in self.lock_children().iter_mut() {
            let Some(mut proc_) = slot.take() else {
                continue;
            };
            // Closing stdin is the daemon's SIGTERM equivalent.
            drop(proc_.stdin.take());
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            loop {
                match proc_.child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if std::time::Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    _ => {
                        let _ = proc_.child.kill();
                        let _ = proc_.child.wait();
                        break;
                    }
                }
            }
        }
    }

    fn lock_children(&self) -> std::sync::MutexGuard<'_, Vec<Option<ChildProc>>> {
        self.children.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Launches one shard daemon and waits for its "listening on" line.
fn launch(spec: &SpawnSpec, id: usize) -> std::io::Result<(ChildProc, String)> {
    let mut cmd = Command::new(&spec.program);
    cmd.arg("serve")
        .arg(&spec.index)
        .arg("--listen")
        .arg("127.0.0.1:0")
        .arg("--shard-id")
        .arg(id.to_string())
        .args(&spec.extra_args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let mut child = cmd.spawn()?;
    let stdin = child.stdin.take();
    let stdout = child.stdout.take().expect("stdout was piped");
    match read_listen_addr(stdout) {
        Ok((addr, stdout)) => Ok((
            ChildProc {
                child,
                stdin,
                stdout,
            },
            addr,
        )),
        Err(e) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(e)
        }
    }
}

/// Reads the child's stdout until the daemon's
/// `... listening on http://ADDR ...` startup line and extracts `ADDR`,
/// handing the stdout pipe back so the caller keeps it open. A child
/// that exits without printing it (bad flags, unreadable index) yields
/// an error at EOF.
fn read_listen_addr(
    stdout: std::process::ChildStdout,
) -> std::io::Result<(String, std::process::ChildStdout)> {
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "shard exited before reporting a listen address",
            ));
        }
        if let Some(addr) = parse_listen_line(&line) {
            // The child prints a few more startup lines and then goes
            // quiet; the pipe stays open but is never read again.
            return Ok((addr, reader.into_inner()));
        }
    }
}

/// Extracts `ADDR` from a `... listening on http://ADDR ...` line.
fn parse_listen_line(line: &str) -> Option<String> {
    let rest = line.split("listening on http://").nth(1)?;
    let addr: String = rest
        .chars()
        .take_while(|c| !c.is_whitespace() && *c != '/' && *c != '(')
        .collect();
    if addr.is_empty() {
        None
    } else {
        Some(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listen_line_parsing() {
        assert_eq!(
            parse_listen_line(
                "bepi-server listening on http://127.0.0.1:7462 (100 nodes, heap index)"
            ),
            Some("127.0.0.1:7462".to_string())
        );
        assert_eq!(parse_listen_line("endpoints: /query ..."), None);
        assert_eq!(parse_listen_line("listening on http://"), None);
    }

    #[test]
    fn attach_mode_has_no_children() {
        let shards = vec![Arc::new(ShardState::new(
            0,
            "127.0.0.1:1",
            Duration::from_millis(50),
        ))];
        let sup = Supervisor::attach(shards);
        assert!(sup.child_pids().is_empty());
        // A tick against a dead address marks the shard unhealthy and
        // never panics.
        sup.tick();
        assert!(!sup.shards()[0].is_healthy());
        sup.shutdown();
    }
}
