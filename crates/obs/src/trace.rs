//! Distributed-tracing primitives: request ids, the trace clock, and
//! the Chrome trace-event exporter.
//!
//! The correlation story is one identifier per request:
//!
//! - [`RequestId`] is a 128-bit id, adopted from a client's valid
//!   `X-Request-Id` header or minted by the daemon. It is echoed on the
//!   response and stamped into the slowlog, the trace ring, the trace
//!   export and structured log lines, so one grep for the hex id finds
//!   the request everywhere it left a record.
//! - [`clock_us`] is a process-wide monotonic microsecond clock
//!   anchored at its first call; exported trace events timestamp
//!   against it so events from one process share a consistent axis.
//! - [`TraceExporter`] appends Chrome trace-event JSON (the
//!   `chrome://tracing` / Perfetto "JSON array" format) to a file, one
//!   flushed event at a time, so the file is inspectable while the
//!   process is still running and survives an abrupt kill.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A 128-bit request identifier, rendered as 32 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestId {
    /// High 64 bits.
    pub hi: u64,
    /// Low 64 bits.
    pub lo: u64,
}

impl RequestId {
    /// Mints a fresh id.
    ///
    /// Std-only entropy: wall-clock nanos, the pid, a per-process
    /// counter, and the std hasher's per-process random keys, each
    /// diffused through a SplitMix64 finalizer. Not cryptographic —
    /// collision-resistant enough for correlation, which is all the id
    /// is for.
    pub fn mint() -> RequestId {
        use std::collections::hash_map::RandomState;
        use std::hash::{BuildHasher, Hasher};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        static SALT: OnceLock<u64> = OnceLock::new();
        let salt = *SALT.get_or_init(|| {
            let mut h = RandomState::new().build_hasher();
            h.write_u32(std::process::id());
            h.finish()
        });
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        RequestId {
            hi: splitmix(nanos ^ salt),
            lo: splitmix(n.wrapping_add(salt.rotate_left(32)) ^ nanos.rotate_left(17)),
        }
    }

    /// The 32-digit lowercase hex form used in headers and log lines.
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Parses the 32-hex-digit wire form; `None` for anything else.
    /// A peer sending a malformed id gets a freshly minted one instead
    /// of an echo, so responses never reflect arbitrary header bytes.
    pub fn parse(s: &str) -> Option<RequestId> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        Some(RequestId {
            hi: u64::from_str_radix(&s[..16], 16).ok()?,
            lo: u64::from_str_radix(&s[16..], 16).ok()?,
        })
    }
}

/// SplitMix64 finalizer: full-avalanche diffusion of one word.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Microseconds since the process's trace epoch (anchored at first call).
pub fn clock_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// One complete-duration (`"ph":"X"`) Chrome trace event.
#[derive(Debug)]
pub struct TraceEvent<'a> {
    /// Event name (shown on the track).
    pub name: &'a str,
    /// Category string.
    pub cat: &'a str,
    /// Start timestamp in microseconds ([`clock_us`] domain).
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Thread lane: the serving thread's ordinal.
    pub tid: u64,
    /// Extra `args` key/value pairs (values rendered as JSON strings).
    pub args: &'a [(&'a str, &'a str)],
}

/// Appends Chrome trace-event JSON to a file, one event per call.
///
/// The file opens with `[` and each event is flushed as soon as it is
/// written, so drills (and operators) can grep the file while the
/// process is live. [`TraceExporter::close`] terminates the JSON array;
/// a file from a killed process lacks the closing `]`, which the
/// Perfetto JSON importer tolerates.
#[derive(Debug)]
pub struct TraceExporter {
    out: Mutex<ExportState>,
}

#[derive(Debug)]
struct ExportState {
    writer: std::io::BufWriter<std::fs::File>,
    events: u64,
    closed: bool,
}

impl TraceExporter {
    /// Creates (truncating) the export file and writes the opening
    /// bracket plus the `process_name` metadata event naming the one
    /// process lane (`pid` 0) every event is exported under.
    pub fn create(path: &Path, process_name: &str) -> std::io::Result<TraceExporter> {
        let file = std::fs::File::create(path)?;
        let mut writer = std::io::BufWriter::new(file);
        writer.write_all(b"[")?;
        let exporter = TraceExporter {
            out: Mutex::new(ExportState {
                writer,
                events: 0,
                closed: false,
            }),
        };
        exporter.write_raw(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{{\"name\":{}}}}}",
            json_escape(process_name)
        ))?;
        Ok(exporter)
    }

    /// Appends one complete event and flushes. Errors are swallowed —
    /// export is diagnostics, never worth failing a request over.
    pub fn emit(&self, ev: &TraceEvent<'_>) {
        let mut args = String::new();
        for (k, v) in ev.args {
            if !args.is_empty() {
                args.push(',');
            }
            args.push_str(&format!("{}:{}", json_escape(k), json_escape(v)));
        }
        let line = format!(
            "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":0,\"tid\":{},\"args\":{{{}}}}}",
            json_escape(ev.name),
            json_escape(ev.cat),
            ev.ts_us,
            ev.dur_us,
            ev.tid,
            args
        );
        let _ = self.write_raw(&line);
    }

    /// Terminates the JSON array. Idempotent; also called on drop.
    pub fn close(&self) {
        let mut state = self.lock();
        if state.closed {
            return;
        }
        state.closed = true;
        let _ = state.writer.write_all(b"\n]\n");
        let _ = state.writer.flush();
    }

    fn write_raw(&self, event_json: &str) -> std::io::Result<()> {
        let mut state = self.lock();
        if state.closed {
            return Ok(());
        }
        let sep = if state.events == 0 { "\n" } else { ",\n" };
        state.events += 1;
        state.writer.write_all(sep.as_bytes())?;
        state.writer.write_all(event_json.as_bytes())?;
        state.writer.flush()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ExportState> {
        self.out.lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl Drop for TraceExporter {
    fn drop(&mut self) {
        self.close();
    }
}

/// Escapes a string into a JSON string literal (minimal, export-local).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minted_ids_are_distinct_and_round_trip() {
        let a = RequestId::mint();
        let b = RequestId::mint();
        assert_ne!(a, b, "two mints must differ");
        assert!(a.hi != 0 || a.lo != 0, "a minted id is never all zero");
        let hex = a.to_hex();
        assert_eq!(hex.len(), 32);
        assert!(hex.bytes().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(RequestId::parse(&hex), Some(a));
    }

    #[test]
    fn parse_rejects_non_wire_forms() {
        assert_eq!(RequestId::parse(""), None);
        assert_eq!(RequestId::parse("abc"), None);
        assert_eq!(RequestId::parse(&"g".repeat(32)), None);
        assert_eq!(RequestId::parse(&"0".repeat(33)), None);
        let zero = RequestId::parse(&"0".repeat(32)).unwrap();
        assert_eq!((zero.hi, zero.lo), (0, 0));
    }

    #[test]
    fn concurrent_mints_stay_distinct() {
        use std::collections::HashSet;
        let handles: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(|| (0..200).map(|_| RequestId::mint()).collect::<Vec<_>>()))
            .collect();
        let mut seen = HashSet::new();
        for h in handles {
            for id in h.join().unwrap() {
                assert!(seen.insert((id.hi, id.lo)), "duplicate id {}", id.to_hex());
            }
        }
    }

    #[test]
    fn clock_is_monotone() {
        let a = clock_us();
        let b = clock_us();
        assert!(b >= a);
    }

    #[test]
    fn exporter_writes_parseable_event_stream() {
        let dir = std::env::temp_dir().join(format!("bepi_trace_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        let exporter = TraceExporter::create(&path, "bepi-server").unwrap();
        exporter.emit(&TraceEvent {
            name: "query seed=5",
            cat: "serve",
            ts_us: 10,
            dur_us: 250,
            tid: 3,
            args: &[("request_id", "00ff"), ("cache", "miss")],
        });
        // The file is valid-prefix while open: events flushed eagerly.
        let live = std::fs::read_to_string(&path).unwrap();
        assert!(live.contains("\"request_id\":\"00ff\""), "{live}");
        exporter.close();
        exporter.close(); // idempotent
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.trim_start().starts_with('['), "{text}");
        assert!(text.trim_end().ends_with(']'), "{text}");
        assert!(text.contains("\"process_name\""));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"dur\":250"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
