//! Structured wide-event logging, std-only like everything else.
//!
//! A log record is a *wide event*: a level, a `target` (the subsystem
//! emitting it), a human message, and typed key/value fields — plus
//! whatever correlation fields (`req_id`, `job_id`) are on the calling
//! thread's context stack at emit time. Timestamps are monotonic and
//! run-relative, microseconds since the process epoch
//! ([`crate::process_epoch`]), so log lines, span traces, and metrics
//! all sit on one timeline.
//!
//! Sinks, all optional and all cheap when off:
//!
//! * a bounded in-memory [`Ring`] (always on) that `GET /debug/snapshot`
//!   serves, with overwritten records counted;
//! * human-readable stderr, enabled by `DPR_LOG=trace|debug|info|warn|error`;
//! * JSON-lines to a file, enabled by `DPR_LOG_JSON=<path>` — one JSON
//!   object per line, flushed per record so `grep job-000042` over the
//!   file reconstructs a job's full story even after a crash;
//! * dynamic [`LogSink`] taps, added and removed at runtime — this is
//!   how `dpr-serve` follows one job's stages and streams its records
//!   to `GET /jobs/<id>/events` subscribers without the logger knowing
//!   the service exists.
//!
//! The correlation context is a thread-local stack ([`push_context`])
//! with an explicit snapshot/re-enter API ([`context_snapshot`],
//! [`with_context`]) so thread pools (`dpr-par`) can carry the
//! submitting thread's `job_id` onto their workers.
//!
//! Logging must never change analysis output: nothing in this module
//! feeds back into the pipeline, and `tests/log_identity.rs` pins the
//! canonical result JSON byte-identical with logging on and off.

mod ring;

pub use ring::{Ring, RingEntry};

use crate::json::Value;
use parking_lot::{Mutex, RwLock};
use serde::ser::{Serialize, SerializeMap, SerializeStruct, Serializer};
use std::cell::RefCell;
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Environment variable selecting the stderr sink level
/// (`trace|debug|info|warn|error`, or `off`/unset for none).
pub const LOG_ENV: &str = "DPR_LOG";

/// Environment variable naming the JSON-lines sink file.
pub const LOG_JSON_ENV: &str = "DPR_LOG_JSON";

/// How many records the in-memory ring retains by default.
pub const DEFAULT_RING_CAPACITY: usize = 512;

/// Severity of a record, ordered `Trace < Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Finest-grained tracing.
    Trace = 0,
    /// Diagnostic detail (per-request HTTP access lines live here).
    Debug = 1,
    /// Normal operational events (job lifecycle, stage transitions).
    Info = 2,
    /// Something surprising but survivable.
    Warn = 3,
    /// Something failed.
    Error = 4,
}

/// The stderr sink's "disabled" sentinel, one past [`Level::Error`].
pub(crate) const LEVEL_OFF: u8 = 5;

impl Level {
    /// The lowercase name JSON lines and stderr use.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Trace => "trace",
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses a `DPR_LOG`-style level name (case-insensitive).
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "trace" => Some(Level::Trace),
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" | "warning" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }

    /// The level with this discriminant (`0..=4`), `None` otherwise.
    pub fn from_u8(v: u8) -> Option<Level> {
        match v {
            0 => Some(Level::Trace),
            1 => Some(Level::Debug),
            2 => Some(Level::Info),
            3 => Some(Level::Warn),
            4 => Some(Level::Error),
            _ => None,
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed field value. Every variant round-trips through the
/// JSON-lines sink (`tests/json_roundtrip.rs` holds the property test).
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A string.
    Str(String),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float (non-finite values serialize as JSON `null`).
    F64(f64),
    /// A boolean.
    Bool(bool),
}

impl Serialize for FieldValue {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            FieldValue::Str(s) => serializer.serialize_str(s),
            FieldValue::U64(n) => serializer.serialize_u64(*n),
            FieldValue::I64(n) => serializer.serialize_i64(*n),
            FieldValue::F64(f) => serializer.serialize_f64(*f),
            FieldValue::Bool(b) => serializer.serialize_bool(*b),
        }
    }
}

impl FieldValue {
    /// Reads a field back from parsed JSON (signed/unsigned integers
    /// normalize to whichever variant the JSON number landed in).
    pub fn from_value(value: &Value) -> Option<FieldValue> {
        match value {
            Value::Str(s) => Some(FieldValue::Str(s.clone())),
            Value::UInt(n) => Some(FieldValue::U64(*n)),
            Value::Int(n) => Some(FieldValue::I64(*n)),
            Value::Float(f) => Some(FieldValue::F64(*f)),
            Value::Bool(b) => Some(FieldValue::Bool(*b)),
            _ => None,
        }
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> FieldValue {
        FieldValue::I64(v)
    }
}

impl From<i32> for FieldValue {
    fn from(v: i32) -> FieldValue {
        FieldValue::I64(v as i64)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> FieldValue {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}

/// One structured log record: the wide event.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Microseconds since [`crate::process_epoch`].
    pub t_us: u64,
    /// Severity.
    pub level: Level,
    /// The emitting subsystem (`http`, `serve.worker`, `pipeline`, …).
    pub target: String,
    /// Human message.
    pub message: String,
    /// Context fields (innermost last) followed by call-site fields.
    pub fields: Vec<(String, FieldValue)>,
}

impl Serialize for Record {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        /// The context and call-site fields as one JSON object.
        struct Fields<'a>(&'a [(String, FieldValue)]);

        impl Serialize for Fields<'_> {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                let mut map = serializer.serialize_map(Some(self.0.len()))?;
                for (key, value) in self.0 {
                    map.serialize_entry(key, value)?;
                }
                map.end()
            }
        }

        let mut record = serializer.serialize_struct("Record", 5)?;
        record.serialize_field("t_us", &self.t_us)?;
        record.serialize_field("level", self.level.as_str())?;
        record.serialize_field("target", &self.target)?;
        record.serialize_field("msg", &self.message)?;
        record.serialize_field("fields", &Fields(&self.fields))?;
        record.end()
    }
}

impl Record {
    /// The first field with this key (context fields included).
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// One compact JSON line (no trailing newline) — the JSON-lines
    /// sink's grammar: keys `t_us`, `level`, `target`, `msg`, `fields`.
    pub fn to_json(&self) -> String {
        crate::json::to_string(self).expect("a log record always serializes")
    }

    /// Parses a JSON line back into a record (used by tests and the
    /// snapshot pretty-printer; unknown field value shapes are skipped).
    pub fn from_json(line: &str) -> Option<Record> {
        let Value::Object(entries) = crate::json::parse(line).ok()? else {
            return None;
        };
        let get = |key: &str| entries.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let t_us = match get("t_us")? {
            Value::UInt(n) => *n,
            _ => return None,
        };
        let level = match get("level")? {
            Value::Str(s) => Level::parse(s)?,
            _ => return None,
        };
        let (Some(Value::Str(target)), Some(Value::Str(message))) = (get("target"), get("msg"))
        else {
            return None;
        };
        let fields = match get("fields") {
            Some(Value::Object(pairs)) => pairs
                .iter()
                .filter_map(|(k, v)| FieldValue::from_value(v).map(|fv| (k.clone(), fv)))
                .collect(),
            _ => Vec::new(),
        };
        Some(Record {
            t_us,
            level,
            target: target.clone(),
            message: message.clone(),
            fields,
        })
    }
}

/// Microseconds since the process epoch — the timestamp every record
/// carries, shared with the span timelines.
pub fn now_us() -> u64 {
    crate::process_epoch().elapsed().as_micros() as u64
}

// ———————————————————————— correlation context ————————————————————————

thread_local! {
    static CONTEXT: RefCell<Vec<(&'static str, String)>> = const { RefCell::new(Vec::new()) };
}

/// Pops the pushed context frame on drop.
#[must_use = "the context pops when this guard drops"]
#[derive(Debug)]
pub struct ContextGuard {
    restore_len: usize,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CONTEXT.with(|ctx| ctx.borrow_mut().truncate(self.restore_len));
    }
}

/// Pushes one correlation field (e.g. `("job_id", "job-000042")`) onto
/// this thread's context stack; every record emitted on this thread
/// carries it until the returned guard drops.
pub fn push_context(key: &'static str, value: impl Into<String>) -> ContextGuard {
    CONTEXT.with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        let guard = ContextGuard {
            restore_len: ctx.len(),
        };
        ctx.push((key, value.into()));
        guard
    })
}

/// A copy of this thread's current context stack, outermost first —
/// hand it to [`with_context`] on another thread to inherit it
/// (`dpr-par` does this for its pool workers).
pub fn context_snapshot() -> Vec<(&'static str, String)> {
    CONTEXT.with(|ctx| ctx.borrow().clone())
}

/// Runs `f` with `inherited` appended to this thread's context stack.
pub fn with_context<R>(inherited: &[(&'static str, String)], f: impl FnOnce() -> R) -> R {
    let restore_len = CONTEXT.with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        let len = ctx.len();
        ctx.extend(inherited.iter().cloned());
        len
    });
    let _guard = ContextGuard { restore_len };
    f()
}

// ———————————————————————————— sinks ————————————————————————————

/// A dynamic record tap: added and removed at runtime, called for
/// every accepted record at [`Level::Debug`] or above. Must not block —
/// taps run on the emitting thread.
pub trait LogSink: Send + Sync {
    /// Observe one record.
    fn record(&self, record: &Arc<Record>);
}

/// Tuning for a standalone [`Logger`] (the global one configures
/// itself from `DPR_LOG` / `DPR_LOG_JSON`).
#[derive(Debug, Default)]
pub struct LogConfig {
    /// Stderr sink level, `None` for off.
    pub stderr: Option<Level>,
    /// JSON-lines sink path, `None` for off.
    pub json_path: Option<std::path::PathBuf>,
    /// Ring capacity; 0 means [`DEFAULT_RING_CAPACITY`].
    pub ring_capacity: usize,
}

/// The logging pipeline: level gate, ring, static sinks, dynamic taps.
pub struct Logger {
    ring: Ring,
    /// Records below this never enter the ring (Info by default).
    ring_level: Level,
    /// Stderr sink level, [`LEVEL_OFF`] when disabled.
    stderr_level: AtomicU8,
    /// JSON-lines sink level as a gate: presence of the file enables it.
    json: Mutex<Option<File>>,
    json_active: AtomicU8,
    taps: RwLock<Vec<(u64, Arc<dyn LogSink>)>>,
    next_tap: AtomicU64,
    tap_count: AtomicUsize,
}

impl Logger {
    /// A logger with explicit configuration (tests; the process-global
    /// [`logger`] reads the environment instead).
    pub fn new(config: LogConfig) -> Logger {
        let capacity = if config.ring_capacity == 0 {
            DEFAULT_RING_CAPACITY
        } else {
            config.ring_capacity
        };
        let logger = Logger {
            ring: Ring::new(capacity),
            ring_level: Level::Info,
            stderr_level: AtomicU8::new(config.stderr.map_or(LEVEL_OFF, |l| l as u8)),
            json: Mutex::new(None),
            json_active: AtomicU8::new(0),
            taps: RwLock::new(Vec::new()),
            next_tap: AtomicU64::new(1),
            tap_count: AtomicUsize::new(0),
        };
        if let Some(path) = &config.json_path {
            let _ = logger.set_json_path(Some(path));
        }
        logger
    }

    /// A logger configured from `DPR_LOG` and `DPR_LOG_JSON`.
    pub fn from_env() -> Logger {
        Logger::new(LogConfig {
            stderr: std::env::var(LOG_ENV).ok().and_then(|v| Level::parse(&v)),
            json_path: std::env::var(LOG_JSON_ENV)
                .ok()
                .filter(|v| !v.trim().is_empty())
                .map(std::path::PathBuf::from),
            ring_capacity: 0,
        })
    }

    /// The always-on record ring.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// Changes the stderr sink level at runtime (`None` disables).
    pub fn set_stderr_level(&self, level: Option<Level>) {
        self.stderr_level
            .store(level.map_or(LEVEL_OFF, |l| l as u8), Ordering::Relaxed);
    }

    /// Points the JSON-lines sink at `path` (truncating), or disables
    /// it with `None`.
    pub fn set_json_path(&self, path: Option<&Path>) -> std::io::Result<()> {
        let file = match path {
            Some(p) => Some(File::create(p)?),
            None => None,
        };
        self.json_active
            .store(u8::from(file.is_some()), Ordering::Relaxed);
        *self.json.lock() = file;
        Ok(())
    }

    /// Whether a record at `level` would go anywhere. The ring accepts
    /// Info and above, so only Trace/Debug records can be gated out
    /// entirely.
    pub fn enabled(&self, level: Level) -> bool {
        if level >= self.ring_level {
            return true;
        }
        if (level as u8) >= self.stderr_level.load(Ordering::Relaxed) {
            return true;
        }
        if self.json_active.load(Ordering::Relaxed) != 0 {
            return true;
        }
        self.tap_count.load(Ordering::Relaxed) > 0
    }

    /// Attaches a dynamic tap; returns the id [`Logger::remove_sink`]
    /// takes.
    pub fn add_sink(&self, sink: Arc<dyn LogSink>) -> u64 {
        let id = self.next_tap.fetch_add(1, Ordering::Relaxed);
        let mut taps = self.taps.write();
        taps.push((id, sink));
        self.tap_count.store(taps.len(), Ordering::Relaxed);
        id
    }

    /// Detaches a tap added by [`Logger::add_sink`].
    pub fn remove_sink(&self, id: u64) {
        let mut taps = self.taps.write();
        taps.retain(|(tap_id, _)| *tap_id != id);
        self.tap_count.store(taps.len(), Ordering::Relaxed);
    }

    /// Emits one record: context fields are prepended, the timestamp is
    /// taken now, and every enabled sink sees it.
    pub fn log(&self, level: Level, target: &str, message: &str, fields: &[(&str, FieldValue)]) {
        if !self.enabled(level) {
            return;
        }
        let mut all = CONTEXT.with(|ctx| {
            ctx.borrow()
                .iter()
                .map(|(k, v)| ((*k).to_string(), FieldValue::Str(v.clone())))
                .collect::<Vec<_>>()
        });
        all.extend(
            fields
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone())),
        );
        let record = Arc::new(Record {
            t_us: now_us(),
            level,
            target: target.to_string(),
            message: message.to_string(),
            fields: all,
        });
        if level >= self.ring_level {
            self.ring.push(Arc::clone(&record));
        }
        if (level as u8) >= self.stderr_level.load(Ordering::Relaxed) {
            let mut line = format!(
                "[{:>10.3}ms {:>5} {}] {}",
                record.t_us as f64 / 1000.0,
                level.as_str(),
                record.target,
                record.message
            );
            for (k, v) in &record.fields {
                match v {
                    FieldValue::Str(s) => line.push_str(&format!(" {k}={s}")),
                    other => line.push_str(&format!(
                        " {k}={}",
                        crate::json::to_string(other).expect("a field value always serializes")
                    )),
                }
            }
            eprintln!("{line}");
        }
        if self.json_active.load(Ordering::Relaxed) != 0 {
            let line = record.to_json();
            let mut json = self.json.lock();
            if let Some(file) = json.as_mut() {
                // Write-plus-flush per record: the file is greppable
                // mid-run and survives an abrupt kill.
                let _ = writeln!(file, "{line}").and_then(|()| file.flush());
            }
        }
        if self.tap_count.load(Ordering::Relaxed) > 0 {
            for (_, tap) in self.taps.read().iter() {
                tap.record(&record);
            }
        }
    }
}

impl std::fmt::Debug for Logger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Logger")
            .field("ring", &self.ring)
            .field("stderr_level", &self.stderr_level.load(Ordering::Relaxed))
            .field("json", &(self.json_active.load(Ordering::Relaxed) != 0))
            .field("taps", &self.tap_count.load(Ordering::Relaxed))
            .finish()
    }
}

// ———————————————————————— process-global logger ————————————————————————

static GLOBAL: OnceLock<Logger> = OnceLock::new();

/// The process-global logger, configured from the environment on first
/// use. Runtime changes go through [`set_stderr_level`] /
/// [`set_json_path`].
pub fn logger() -> &'static Logger {
    GLOBAL.get_or_init(Logger::from_env)
}

/// Whether a record at `level` would reach any sink of the global
/// logger (cheap pre-check for call sites that format eagerly).
pub fn enabled(level: Level) -> bool {
    logger().enabled(level)
}

/// Emits a record through the global logger.
pub fn log(level: Level, target: &str, message: &str, fields: &[(&str, FieldValue)]) {
    logger().log(level, target, message, fields);
}

/// [`log`] at [`Level::Trace`].
pub fn trace(target: &str, message: &str, fields: &[(&str, FieldValue)]) {
    log(Level::Trace, target, message, fields);
}

/// [`log`] at [`Level::Debug`].
pub fn debug(target: &str, message: &str, fields: &[(&str, FieldValue)]) {
    log(Level::Debug, target, message, fields);
}

/// [`log`] at [`Level::Info`].
pub fn info(target: &str, message: &str, fields: &[(&str, FieldValue)]) {
    log(Level::Info, target, message, fields);
}

/// [`log`] at [`Level::Warn`].
pub fn warn(target: &str, message: &str, fields: &[(&str, FieldValue)]) {
    log(Level::Warn, target, message, fields);
}

/// [`log`] at [`Level::Error`].
pub fn error(target: &str, message: &str, fields: &[(&str, FieldValue)]) {
    log(Level::Error, target, message, fields);
}

/// Attaches a dynamic tap to the global logger.
pub fn add_sink(sink: Arc<dyn LogSink>) -> u64 {
    logger().add_sink(sink)
}

/// Detaches a global-logger tap.
pub fn remove_sink(id: u64) {
    logger().remove_sink(id);
}

/// Changes the global stderr sink level at runtime.
pub fn set_stderr_level(level: Option<Level>) {
    logger().set_stderr_level(level);
}

/// Points the global JSON-lines sink at a new path (or disables it).
pub fn set_json_path(path: Option<&Path>) -> std::io::Result<()> {
    logger().set_json_path(path)
}
