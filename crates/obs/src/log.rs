//! Structured leveled logging: one line per event on stderr, plain or
//! JSON, filtered by a process-global level, optionally stamped with
//! the request id of the query being served.
//!
//! Deliberately tiny — no registries, no targets hierarchy. The
//! [`log!`] macro guards on [`log_enabled`] *before* formatting its
//! arguments, so suppressed levels cost one relaxed atomic load.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use wwt_json::Json;

/// Severity, most to least severe. The global filter admits events at
/// or above the configured level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum LogLevel {
    /// Something failed and the operator should know.
    Error = 0,
    /// Degraded but serving.
    Warn = 1,
    /// Lifecycle events (startup, reload, compaction). The default.
    Info = 2,
    /// Per-request noise for debugging sessions.
    Debug = 3,
}

impl LogLevel {
    /// Stable lowercase name (`"info"`, …).
    pub fn label(self) -> &'static str {
        match self {
            LogLevel::Error => "error",
            LogLevel::Warn => "warn",
            LogLevel::Info => "info",
            LogLevel::Debug => "debug",
        }
    }

    /// Parses a case-insensitive level name.
    pub fn parse(s: &str) -> Option<LogLevel> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(LogLevel::Error),
            "warn" | "warning" => Some(LogLevel::Warn),
            "info" => Some(LogLevel::Info),
            "debug" => Some(LogLevel::Debug),
            _ => None,
        }
    }
}

static LEVEL: AtomicU8 = AtomicU8::new(LogLevel::Info as u8);
static JSON: AtomicBool = AtomicBool::new(false);

/// Sets the process-global level filter.
pub fn set_log_level(level: LogLevel) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current level filter.
pub fn log_level() -> LogLevel {
    match LEVEL.load(Ordering::Relaxed) {
        0 => LogLevel::Error,
        1 => LogLevel::Warn,
        2 => LogLevel::Info,
        _ => LogLevel::Debug,
    }
}

/// Switches between plain (`[target] message`) and JSON lines.
pub fn set_log_json(on: bool) {
    JSON.store(on, Ordering::Relaxed);
}

/// Whether JSON lines are enabled.
pub fn log_json() -> bool {
    JSON.load(Ordering::Relaxed)
}

/// Whether an event at `level` would be emitted.
pub fn log_enabled(level: LogLevel) -> bool {
    (level as u8) <= LEVEL.load(Ordering::Relaxed)
}

/// Emits one event line to stderr (already-formatted message). Prefer
/// the [`log!`](crate::log!) macro, which skips formatting for
/// suppressed levels.
pub fn log_event(level: LogLevel, target: &str, request_id: Option<&str>, message: &str) {
    if !log_enabled(level) {
        return;
    }
    let line = if log_json() {
        let mut fields = vec![
            ("level".to_string(), Json::from(level.label())),
            ("target".to_string(), Json::from(target)),
            ("msg".to_string(), Json::from(message)),
        ];
        if let Some(id) = request_id {
            fields.push(("request_id".to_string(), Json::from(id)));
        }
        Json::Obj(fields).encode()
    } else {
        // Info keeps the historical `[target] message` shape the
        // serve binary always printed; other levels carry their name.
        let prefix = match level {
            LogLevel::Info => String::new(),
            other => format!("{}: ", other.label()),
        };
        match request_id {
            Some(id) => format!("[{target}] {prefix}{message} (request_id={id})"),
            None => format!("[{target}] {prefix}{message}"),
        }
    };
    let mut err = std::io::stderr().lock();
    let _ = writeln!(err, "{line}");
}

/// Logs one event: `log!(LogLevel::Info, "wwt-serve", "up on {addr}")`,
/// or with a request id:
/// `log!(LogLevel::Debug, "wwt-server", id = rid; "answered")`.
#[macro_export]
macro_rules! log {
    ($level:expr, $target:expr, id = $id:expr; $($arg:tt)*) => {
        if $crate::log_enabled($level) {
            $crate::log_event($level, $target, Some(&$id), &format!($($arg)*));
        }
    };
    ($level:expr, $target:expr, $($arg:tt)*) => {
        if $crate::log_enabled($level) {
            $crate::log_event($level, $target, None, &format!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_parse_and_order() {
        assert_eq!(LogLevel::parse("INFO"), Some(LogLevel::Info));
        assert_eq!(LogLevel::parse("warning"), Some(LogLevel::Warn));
        assert_eq!(LogLevel::parse("nope"), None);
        assert!(LogLevel::Error < LogLevel::Debug);
    }

    #[test]
    fn filter_is_inclusive_of_more_severe_levels() {
        // Note: the filter statics are process-global; this test owns
        // them transiently and restores the default.
        set_log_level(LogLevel::Warn);
        assert!(log_enabled(LogLevel::Error));
        assert!(log_enabled(LogLevel::Warn));
        assert!(!log_enabled(LogLevel::Info));
        assert!(!log_enabled(LogLevel::Debug));
        set_log_level(LogLevel::Info);
        assert_eq!(log_level(), LogLevel::Info);
    }
}
