//! Per-shard runtime state shared between the router's request paths
//! and the supervisor's health loop.

use crate::client::ShardClient;
use bepi_obs::telemetry::Histogram;
use bepi_obs::trace::clock_us;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Latency buckets for the per-shard request histograms (seconds).
pub const LATENCY_BOUNDS: &[f64] = &[
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
];

/// The mutable part of a shard that changes when its process is
/// replaced: the address (respawned shards bind a fresh ephemeral port),
/// the connection pool pointing at it, and the BePI variant its
/// `/version` last reported.
struct ShardRuntime {
    addr: String,
    client: Arc<ShardClient>,
    variant: Option<String>,
}

/// One shard as the router sees it.
pub struct ShardState {
    /// Stable shard id (also the daemon's `--shard-id` / `X-Shard`).
    pub id: usize,
    runtime: Mutex<ShardRuntime>,
    /// Serving state: `true` once the shard answers probes, `false`
    /// after a request or probe failure. Request routing prefers
    /// healthy shards; the supervisor flips this back on re-admission.
    healthy: AtomicBool,
    /// Highest `X-Graph-Version` seen from this shard.
    version: AtomicU64,
    /// Process generation: bumped by every respawn, so request paths
    /// can tell "same process recovered" from "replacement process".
    generation: AtomicU64,
    /// Trace-clock millisecond of the last completed health probe,
    /// biased by one so `0` means "never probed".
    last_probe: AtomicU64,
    /// Latency of successful requests to this shard.
    pub latency: Histogram,
    /// Requests answered by this shard (any status).
    pub requests_total: AtomicU64,
    /// Transport failures talking to this shard.
    pub errors_total: AtomicU64,
    per_request_timeout: Duration,
}

impl ShardState {
    /// A shard at `addr`, initially unhealthy until the first probe or
    /// successful request proves otherwise.
    pub fn new(id: usize, addr: impl Into<String>, per_request_timeout: Duration) -> ShardState {
        let addr = addr.into();
        let client = Arc::new(ShardClient::new(addr.clone(), per_request_timeout));
        ShardState {
            id,
            runtime: Mutex::new(ShardRuntime {
                addr,
                client,
                variant: None,
            }),
            healthy: AtomicBool::new(false),
            version: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            last_probe: AtomicU64::new(0),
            latency: Histogram::new(LATENCY_BOUNDS),
            requests_total: AtomicU64::new(0),
            errors_total: AtomicU64::new(0),
            per_request_timeout,
        }
    }

    /// The pooled client for the shard's *current* process.
    pub fn client(&self) -> Arc<ShardClient> {
        Arc::clone(&self.lock().client)
    }

    /// The shard's current address.
    pub fn addr(&self) -> String {
        self.lock().addr.clone()
    }

    /// Swaps in a replacement process at `addr`: the old connection
    /// pool is dropped wholesale (its sockets point at a dead process)
    /// and the generation is bumped. The shard stays unhealthy until
    /// the supervisor re-admits it.
    pub fn replace_process(&self, addr: impl Into<String>) {
        let addr = addr.into();
        let client = Arc::new(ShardClient::new(addr.clone(), self.per_request_timeout));
        let mut rt = self.lock();
        rt.client.clear();
        rt.addr = addr;
        rt.client = client;
        rt.variant = None;
        drop(rt);
        self.generation.fetch_add(1, Ordering::SeqCst);
        self.healthy.store(false, Ordering::SeqCst);
    }

    /// Serving state (see [`ShardState::mark`]).
    pub fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::SeqCst)
    }

    /// Flips the health bit.
    pub fn mark(&self, healthy: bool) {
        self.healthy.store(healthy, Ordering::SeqCst);
    }

    /// Highest graph version observed from this shard.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// Records an observed `X-Graph-Version` (kept monotone: a late
    /// response from before a rollout cannot roll the shard back).
    pub fn observe_version(&self, v: u64) {
        self.version.fetch_max(v, Ordering::SeqCst);
    }

    /// The BePI variant (`BePI-S`, `BePI`, `BePI-B`) the shard's index
    /// runs, as its last `/version` reported; `None` before the first
    /// probe of the current process.
    pub fn variant(&self) -> Option<String> {
        self.lock().variant.clone()
    }

    /// Records the variant a `/version` probe reported.
    pub fn observe_variant(&self, variant: &str) {
        self.lock().variant = Some(variant.to_string());
    }

    /// Process generation (0 = the original process).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Stamps "a health probe just completed against this shard".
    pub fn record_probe(&self) {
        self.last_probe
            .store(clock_us() / 1000 + 1, Ordering::Relaxed);
    }

    /// Milliseconds since the last completed health probe, or `None` if
    /// the shard has never been probed.
    pub fn last_probe_age_ms(&self) -> Option<u64> {
        let stamped = self.last_probe.load(Ordering::Relaxed).checked_sub(1)?;
        Some((clock_us() / 1000).saturating_sub(stamped))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ShardRuntime> {
        self.runtime.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// The advertised fleet version: the highest graph version that a
/// *quorum* (strict majority) of shards has reached. During an epoch
/// rollout the advertised version switches only once most of the fleet
/// serves the new epoch, so a router client never sees the fleet
/// version flap as individual shards rebuild.
pub fn quorum_version(shards: &[Arc<ShardState>]) -> u64 {
    let mut versions: Vec<u64> = shards.iter().map(|s| s.version()).collect();
    versions.sort_unstable_by(|a, b| b.cmp(a));
    let quorum = shards.len() / 2 + 1;
    versions.get(quorum - 1).copied().unwrap_or(0)
}

/// The fleet's BePI variant: the one every shard that has reported a
/// variant agrees on, or `None` if none has reported or two disagree
/// (an `--attach` fleet may mix indexes).
pub fn fleet_variant(shards: &[Arc<ShardState>]) -> Option<String> {
    let mut reported = shards.iter().filter_map(|s| s.variant());
    let first = reported.next()?;
    reported.all(|v| v == first).then_some(first)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(id: usize) -> Arc<ShardState> {
        Arc::new(ShardState::new(
            id,
            "127.0.0.1:1",
            Duration::from_millis(100),
        ))
    }

    #[test]
    fn replace_process_bumps_generation_and_resets_health() {
        let s = shard(0);
        s.mark(true);
        assert_eq!(s.generation(), 0);
        s.replace_process("127.0.0.1:2");
        assert_eq!(s.generation(), 1);
        assert!(!s.is_healthy());
        assert_eq!(s.addr(), "127.0.0.1:2");
    }

    #[test]
    fn probe_age_is_none_until_first_probe() {
        let s = shard(0);
        assert_eq!(s.last_probe_age_ms(), None);
        s.record_probe();
        assert!(s.last_probe_age_ms().unwrap() < 1000);
    }

    #[test]
    fn version_is_monotone() {
        let s = shard(0);
        s.observe_version(5);
        s.observe_version(3);
        assert_eq!(s.version(), 5);
    }

    #[test]
    fn quorum_version_needs_a_majority() {
        let shards: Vec<Arc<ShardState>> = (0..3).map(shard).collect();
        shards[0].observe_version(2);
        // 1 of 3 on the new epoch: still advertising the old one.
        assert_eq!(quorum_version(&shards), 0);
        shards[1].observe_version(2);
        // 2 of 3: quorum reached.
        assert_eq!(quorum_version(&shards), 2);
        // A straggler cannot drag the version back down.
        assert_eq!(shards[2].version(), 0);
        assert_eq!(quorum_version(&shards), 2);
    }

    #[test]
    fn fleet_variant_is_reported_only_where_shards_agree() {
        let shards: Vec<Arc<ShardState>> = (0..3).map(shard).collect();
        assert_eq!(fleet_variant(&shards), None);
        // Shards not yet probed do not veto the ones that were.
        shards[0].observe_variant("BePI-S");
        shards[1].observe_variant("BePI-S");
        assert_eq!(fleet_variant(&shards).as_deref(), Some("BePI-S"));
        shards[2].observe_variant("BePI");
        assert_eq!(fleet_variant(&shards), None);
        // A respawned process has not reported yet.
        shards[2].replace_process("127.0.0.1:2");
        assert_eq!(shards[2].variant(), None);
        assert_eq!(fleet_variant(&shards).as_deref(), Some("BePI-S"));
    }

    #[test]
    fn quorum_version_single_shard_is_its_version() {
        let shards = vec![shard(0)];
        shards[0].observe_version(9);
        assert_eq!(quorum_version(&shards), 9);
    }
}
