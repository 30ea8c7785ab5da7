//! Leveled, structured line logger.
//!
//! Log lines go to stderr in a `level=.. target=.. msg=".." key=value` format
//! that is grep-friendly and cheap to produce. The active level is a single
//! process-global atomic, so the disabled-path cost of a log statement is one
//! relaxed load and a branch — no locks, no allocation.

use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Unrecoverable or data-affecting problems.
    Error = 0,
    /// Suspicious conditions the process survives.
    Warn = 1,
    /// High-level lifecycle events (startup, rebuilds, swaps).
    Info = 2,
    /// Per-operation detail useful when debugging.
    Debug = 3,
    /// Very chatty tracing.
    Trace = 4,
}

impl Level {
    /// Lower-case name as rendered in log lines.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parses a level name (case-insensitive). Accepts `off` as a synonym
    /// for filtering everything but errors out; returns `None` on junk.
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "error" | "off" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Error,
            1 => Level::Warn,
            2 => Level::Info,
            3 => Level::Debug,
            _ => Level::Trace,
        }
    }
}

/// Default level: warnings and errors only, so library users and the CLI see
/// nothing new unless they opt in.
static LEVEL: AtomicU8 = AtomicU8::new(Level::Warn as u8);

/// Sets the process-global log level.
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Returns the current process-global log level.
pub fn level() -> Level {
    Level::from_u8(LEVEL.load(Ordering::Relaxed))
}

/// Returns `true` when a record at `level` would be emitted. One relaxed
/// atomic load — safe to call on hot paths.
#[inline]
pub fn enabled(level: Level) -> bool {
    (level as u8) <= LEVEL.load(Ordering::Relaxed)
}

/// Initialises the level from the `BEPI_LOG` environment variable when set
/// and valid. Returns the resulting level.
pub fn init_from_env() -> Level {
    if let Ok(v) = std::env::var("BEPI_LOG") {
        if let Some(l) = Level::parse(&v) {
            set_level(l);
        }
    }
    level()
}

/// Emits one log line. Prefer the [`crate::log!`] family of macros, which
/// skip all formatting when the level is disabled.
///
/// Values containing whitespace, `"` or `=` are quoted with `{:?}` so the
/// line stays machine-splittable on spaces.
pub fn emit(level: Level, target: &str, msg: &str, kvs: &[(&str, String)]) {
    let ts = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default();
    let mut line = String::with_capacity(64 + msg.len());
    let _ = write!(
        line,
        "ts={}.{:06} level={} target={} msg={:?}",
        ts.as_secs(),
        ts.subsec_micros(),
        level.as_str(),
        target,
        msg
    );
    for (k, v) in kvs {
        if v.is_empty() || v.contains(|c: char| c.is_whitespace() || c == '"' || c == '=') {
            let _ = write!(line, " {}={:?}", k, v);
        } else {
            let _ = write!(line, " {}={}", k, v);
        }
    }
    line.push('\n');
    // Single write per record so concurrent threads do not interleave lines.
    let _ = std::io::stderr().write_all(line.as_bytes());
}

/// Logs at an explicit level: `log!(Level::Info, "target", "msg", key = value, ...)`.
///
/// Key/value arguments are only evaluated and formatted when the level is
/// enabled.
#[macro_export]
macro_rules! log {
    ($lvl:expr, $target:expr, $msg:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::log::enabled($lvl) {
            $crate::log::emit(
                $lvl,
                $target,
                &$msg.to_string(),
                &[$((stringify!($k), format!("{}", $v))),*],
            );
        }
    };
}

/// Logs at [`Level::Error`].
#[macro_export]
macro_rules! error {
    ($target:expr, $($rest:tt)*) => { $crate::log!($crate::Level::Error, $target, $($rest)*) };
}

/// Logs at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($target:expr, $($rest:tt)*) => { $crate::log!($crate::Level::Warn, $target, $($rest)*) };
}

/// Logs at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($target:expr, $($rest:tt)*) => { $crate::log!($crate::Level::Info, $target, $($rest)*) };
}

/// Logs at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($target:expr, $($rest:tt)*) => { $crate::log!($crate::Level::Debug, $target, $($rest)*) };
}

/// Logs at [`Level::Trace`].
#[macro_export]
macro_rules! trace {
    ($target:expr, $($rest:tt)*) => { $crate::log!($crate::Level::Trace, $target, $($rest)*) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The level is process-wide and `cargo test` runs tests on parallel
    /// threads: every test that sets it holds this lock.
    static LEVEL_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn parse_accepts_known_names() {
        assert_eq!(Level::parse("info"), Some(Level::Info));
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("Trace"), Some(Level::Trace));
        assert_eq!(Level::parse("off"), Some(Level::Error));
        assert_eq!(Level::parse("nope"), None);
    }

    #[test]
    fn level_filtering_is_ordered() {
        let _guard = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = level();
        set_level(Level::Warn);
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        assert!(!enabled(Level::Trace));
        set_level(Level::Trace);
        assert!(enabled(Level::Debug));
        set_level(prev);
    }

    #[test]
    fn macros_compile_with_and_without_kvs() {
        let _guard = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = level();
        set_level(Level::Error);
        // Disabled level: the $v expressions must not be evaluated.
        let mut evaluated = false;
        crate::debug!(
            "test",
            "never emitted",
            flag = {
                evaluated = true;
                1
            }
        );
        assert!(!evaluated);
        crate::error!("test", "emitted", code = 7, detail = "has spaces");
        crate::error!("test", "no kvs");
        set_level(prev);
    }
}
