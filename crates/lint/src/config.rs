//! `lint.toml` — declared lock hierarchy, rule parameters and the
//! justified-suppression allowlist.
//!
//! The parser handles the TOML subset the config actually uses: `[table]`
//! and `[[array-of-table]]` headers, `key = "string"`, `key = integer`,
//! `key = ["a", "b"]` (single line), and `#` comments. Anything else is
//! a hard error — a config typo must not silently disable a rule.

use std::collections::BTreeMap;
use std::fmt;

/// One level of the declared lock hierarchy.
#[derive(Debug, Clone)]
pub struct Level {
    /// Human name ("store", "engine", …).
    pub name: String,
    /// Rank; locks may only be acquired in strictly increasing rank.
    pub rank: i64,
    /// Qualified lock ids (`file-stem.field`) at this level.
    pub locks: Vec<String>,
}

/// A justified suppression of one diagnostic pattern.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rule name the suppression applies to.
    pub rule: String,
    /// Path suffix the diagnostic's file must end with.
    pub file: String,
    /// Optional: only suppress inside this function.
    pub function: Option<String>,
    /// Optional: only suppress diagnostics whose message contains this.
    pub contains: Option<String>,
    /// Mandatory human justification (empty reasons are rejected).
    pub reason: String,
    /// Optional expiry (`YYYY-MM-DD`); after this date the allow stops
    /// suppressing and `stale-suppression` flags it.
    pub expires: Option<String>,
    /// Line of the `[[allow]]` header in lint.toml (0 for built-ins).
    pub line: usize,
}

/// One trait-dispatch fan-out entry: calls of `method` through a trait
/// object may reach any of `targets` (`file-stem.fn_name`).
#[derive(Debug, Clone)]
pub struct TraitTarget {
    /// Trait method name as it appears at call sites.
    pub method: String,
    /// `stem.fn` implementation targets.
    pub targets: Vec<String>,
}

/// Full analyzer configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Declared lock hierarchy, lowest rank first.
    pub levels: Vec<Level>,
    /// Method names treated as remote calls by `guard-across-rpc`.
    pub rpc_methods: Vec<String>,
    /// `receiver.method` pairs additionally treated as remote calls
    /// (for generic method names like `send`).
    pub rpc_qualified: Vec<String>,
    /// Function names whose bodies run on a poll loop: loops, drains, ticks.
    pub poll_fns: Vec<String>,
    /// Callee names forbidden inside poll-loop functions.
    pub poll_forbidden: Vec<String>,
    /// Workspace-relative path of the metric-name registry.
    pub registry_path: String,
    /// Registry accessor methods whose first argument is a metric name.
    pub metric_methods: Vec<String>,
    /// Tracer methods whose first argument is a span kind — span kinds
    /// share the metric-name registry (`syd_telemetry::names`).
    pub span_methods: Vec<String>,
    /// Path prefixes exempt from the counter-registry rule.
    pub registry_exempt: Vec<String>,
    /// §4.3 protocol method-name literals (`"mark"`, …).
    pub protocol_methods: Vec<String>,
    /// LockManager mutation methods gated by coordination-boundary.
    pub lock_manager_methods: Vec<String>,
    /// Path suffixes allowed to touch the coordination boundary.
    pub boundary_allowed: Vec<String>,
    /// Trait-dispatch fan-out for the call graph.
    pub trait_targets: Vec<TraitTarget>,
    /// Fully qualified blocking callees (`thread::sleep`) for the
    /// transitive effect analysis.
    pub blocking_qualified: Vec<String>,
    /// Method names that only block when called with no arguments
    /// (`.recv()`, `.join()` — excludes `path.join("x")`).
    pub blocking_zero_arg: Vec<String>,
    /// Method names that block regardless of arguments.
    pub blocking_any_arg: Vec<String>,
    /// Methods that register closures on shared infrastructure
    /// (runtime loop, worker pool) for `strong-capture-cycle`.
    pub registration_methods: Vec<String>,
    /// Types whose strong `Arc` must not be captured at a registration
    /// point (they transitively own the runtime).
    pub runtime_owning: Vec<String>,
    /// Justified suppressions.
    pub allows: Vec<Allow>,
    /// Today's date (`YYYY-MM-DD`) for `expires` checks; injected by the
    /// CLI so tests and library callers stay deterministic.
    pub today: Option<String>,
}

impl Default for Config {
    /// The built-in configuration, mirrored by the checked-in
    /// `lint.toml` (which can extend it with suppressions).
    fn default() -> Self {
        let s = |xs: &[&str]| xs.iter().map(|s| (*s).to_string()).collect::<Vec<_>>();
        Config {
            levels: vec![
                Level {
                    name: "store".into(),
                    rank: 1,
                    locks: s(&["lock.state", "store.tables", "store.triggers"]),
                },
                Level {
                    name: "engine".into(),
                    rank: 2,
                    locks: s(&["engine.cache", "engine.opts", "directory.state"]),
                },
                Level {
                    name: "node".into(),
                    rank: 3,
                    locks: s(&[
                        "node.pending",
                        "node.handler",
                        "node.events",
                        "node.identity",
                        "pool.tx",
                    ]),
                },
                Level {
                    name: "transport".into(),
                    rank: 4,
                    locks: s(&[
                        "tcp.state",
                        "tcp.tap",
                        "tcp.thread",
                        "tcp.notifier",
                        "sim.state",
                    ]),
                },
                Level {
                    name: "runtime".into(),
                    rank: 5,
                    locks: s(&["runtime.state", "runtime.nodes", "runtime.thread"]),
                },
            ],
            rpc_methods: s(&[
                "invoke",
                "invoke_with_deadline",
                "invoke_batch",
                "invoke_group",
                "invoke_group_by_name",
                "call",
                "call_with",
                "call_many",
                "call_async",
                "call_async_to",
                "publish_event",
                "dispatch_event",
                "drain_events",
            ]),
            rpc_qualified: s(&["net.send", "transport.send", "endpoint.send", "ep.send"]),
            poll_fns: s(&[
                "poll_loop",
                "flush_on_close",
                "finish_dial",
                "reactor_loop",
                "drain_events",
                "dispatch_event",
                "expiry_tick",
                "sweep_sessions",
                "kick",
            ]),
            poll_forbidden: s(&[
                "sleep",
                "recv",
                "recv_timeout",
                "connect",
                "connect_timeout",
                "join",
            ]),
            registry_path: "crates/telemetry/src/names.rs".into(),
            metric_methods: s(&[
                "counter",
                "gauge",
                "histogram",
                "get_counter",
                "get_gauge",
                "get_histogram",
            ]),
            span_methods: s(&["span", "span_root", "record_span", "finish_handle"]),
            registry_exempt: s(&["crates/telemetry/"]),
            protocol_methods: s(&["mark", "commit", "abort"]),
            lock_manager_methods: s(&["acquire", "try_acquire", "release", "release_all"]),
            boundary_allowed: s(&[
                "crates/core/src/negotiate.rs",
                "crates/core/src/device.rs",
                "crates/store/src/lock.rs",
            ]),
            trait_targets: vec![TraitTarget {
                // `node.set_handler(Arc<dyn RequestHandler>)` dispatches
                // through `handle`; the workspace's only impl forwards to
                // the listener.
                method: "handle".into(),
                targets: s(&["listener.handle"]),
            }],
            blocking_qualified: s(&["thread::sleep", "TcpStream::connect"]),
            blocking_zero_arg: s(&["recv", "join"]),
            blocking_any_arg: s(&["recv_timeout", "recv_deadline", "connect_timeout"]),
            registration_methods: s(&["register_periodic", "schedule_periodic", "execute"]),
            runtime_owning: s(&["DeviceInner", "RuntimeInner", "NodeShared"]),
            allows: Vec::new(),
            today: None,
        }
    }
}

impl Config {
    /// Rank of a qualified lock id in the declared hierarchy, if any.
    pub fn rank_of(&self, lock_id: &str) -> Option<(i64, &str)> {
        self.levels.iter().find_map(|l| {
            l.locks
                .iter()
                .any(|x| x == lock_id)
                .then_some((l.rank, l.name.as_str()))
        })
    }

    /// Parses `lint.toml` text and merges it over the defaults:
    /// scalar/array keys replace the default value; `[[allow]]` and
    /// `[[level]]` tables replace the default set when present.
    pub fn from_toml(text: &str) -> Result<Config, ConfigError> {
        let doc = parse_toml(text)?;
        let mut cfg = Config::default();

        if let Some(levels) = doc.tables.get("level") {
            cfg.levels = levels
                .iter()
                .map(|t| {
                    Ok(Level {
                        name: t.need_str("name")?,
                        rank: t.need_int("rank")?,
                        locks: t.strs("locks"),
                    })
                })
                .collect::<Result<_, ConfigError>>()?;
        }
        let scalars: &mut [(&str, &mut Vec<String>)] = &mut [
            ("rules.guard_across_rpc.methods", &mut cfg.rpc_methods),
            ("rules.guard_across_rpc.qualified", &mut cfg.rpc_qualified),
            (
                "rules.no_blocking_in_poll_loop.functions",
                &mut cfg.poll_fns,
            ),
            (
                "rules.no_blocking_in_poll_loop.forbidden",
                &mut cfg.poll_forbidden,
            ),
            ("rules.counter_registry.methods", &mut cfg.metric_methods),
            ("rules.counter_registry.span_methods", &mut cfg.span_methods),
            ("rules.counter_registry.exempt", &mut cfg.registry_exempt),
            (
                "rules.coordination_boundary.protocol_methods",
                &mut cfg.protocol_methods,
            ),
            (
                "rules.coordination_boundary.lock_manager_methods",
                &mut cfg.lock_manager_methods,
            ),
            (
                "rules.coordination_boundary.allowed",
                &mut cfg.boundary_allowed,
            ),
            (
                "rules.transitive_blocking.qualified",
                &mut cfg.blocking_qualified,
            ),
            (
                "rules.transitive_blocking.zero_arg",
                &mut cfg.blocking_zero_arg,
            ),
            (
                "rules.transitive_blocking.any_arg",
                &mut cfg.blocking_any_arg,
            ),
            (
                "rules.strong_capture.registration_methods",
                &mut cfg.registration_methods,
            ),
            (
                "rules.strong_capture.runtime_owning",
                &mut cfg.runtime_owning,
            ),
        ];
        for (key, slot) in scalars.iter_mut() {
            if let Some(Value::Array(xs)) = doc.keys.get(*key) {
                **slot = xs.clone();
            }
        }
        if let Some(Value::Str(p)) = doc.keys.get("rules.counter_registry.registry") {
            cfg.registry_path.clone_from(p);
        }
        if let Some(targets) = doc.tables.get("trait_target") {
            cfg.trait_targets = targets
                .iter()
                .map(|t| {
                    Ok(TraitTarget {
                        method: t.need_str("method")?,
                        targets: t.strs("targets"),
                    })
                })
                .collect::<Result<_, ConfigError>>()?;
        }
        if let Some(allows) = doc.tables.get("allow") {
            for t in allows {
                let allow = Allow {
                    rule: t.need_str("rule")?,
                    file: t.need_str("file")?,
                    function: t.get_str("function"),
                    contains: t.get_str("contains"),
                    reason: t.need_str("reason")?,
                    expires: t.get_str("expires"),
                    line: t.line,
                };
                if allow.reason.trim().is_empty() {
                    return Err(ConfigError::new(
                        t.line,
                        "allow entry requires a non-empty `reason` justification",
                    ));
                }
                if let Some(exp) = &allow.expires {
                    if !is_iso_date(exp) {
                        return Err(ConfigError::new(
                            t.line,
                            format!("allow `expires` must be YYYY-MM-DD, got `{exp}`"),
                        ));
                    }
                }
                cfg.allows.push(allow);
            }
        }
        Ok(cfg)
    }
}

/// `YYYY-MM-DD` shape check (enough for lexicographic comparison).
fn is_iso_date(s: &str) -> bool {
    let b = s.as_bytes();
    b.len() == 10
        && b[4] == b'-'
        && b[7] == b'-'
        && b.iter()
            .enumerate()
            .all(|(i, c)| i == 4 || i == 7 || c.is_ascii_digit())
}

/// Today's civil date as `YYYY-MM-DD`, derived from the system clock
/// (days since the Unix epoch → proleptic Gregorian; no external crate).
pub fn civil_today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let days = (secs / 86_400) as i64;
    // Howard Hinnant's civil_from_days algorithm.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// A config parse/validation error with its line.
#[derive(Debug)]
pub struct ConfigError {
    /// 1-indexed line in lint.toml.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl ConfigError {
    fn new(line: usize, msg: impl Into<String>) -> Self {
        ConfigError {
            line,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.msg)
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Int(i64),
    Array(Vec<String>),
}

#[derive(Debug, Default)]
struct Table {
    line: usize,
    entries: BTreeMap<String, Value>,
}

impl Table {
    fn need_str(&self, key: &str) -> Result<String, ConfigError> {
        match self.entries.get(key) {
            Some(Value::Str(s)) => Ok(s.clone()),
            _ => Err(ConfigError::new(
                self.line,
                format!("missing required string key `{key}`"),
            )),
        }
    }
    fn get_str(&self, key: &str) -> Option<String> {
        match self.entries.get(key) {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        }
    }
    fn need_int(&self, key: &str) -> Result<i64, ConfigError> {
        match self.entries.get(key) {
            Some(Value::Int(n)) => Ok(*n),
            _ => Err(ConfigError::new(
                self.line,
                format!("missing required integer key `{key}`"),
            )),
        }
    }
    fn strs(&self, key: &str) -> Vec<String> {
        match self.entries.get(key) {
            Some(Value::Array(xs)) => xs.clone(),
            _ => Vec::new(),
        }
    }
}

#[derive(Debug, Default)]
struct Doc {
    /// Dotted `section.key` → value for plain `[section]` tables.
    keys: BTreeMap<String, Value>,
    /// `[[name]]` array-of-tables.
    tables: BTreeMap<String, Vec<Table>>,
}

fn parse_value(raw: &str, lineno: usize) -> Result<Value, ConfigError> {
    let raw = raw.trim();
    if let Some(inner) = raw.strip_prefix('"') {
        let Some(s) = inner.strip_suffix('"') else {
            return Err(ConfigError::new(lineno, "unterminated string"));
        };
        return Ok(Value::Str(s.to_string()));
    }
    if let Some(inner) = raw.strip_prefix('[') {
        let Some(body) = inner.strip_suffix(']') else {
            return Err(ConfigError::new(
                lineno,
                "arrays must open and close on one line",
            ));
        };
        let mut items = Vec::new();
        for part in body.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match parse_value(part, lineno)? {
                Value::Str(s) => items.push(s),
                _ => {
                    return Err(ConfigError::new(
                        lineno,
                        "only arrays of strings are supported",
                    ))
                }
            }
        }
        return Ok(Value::Array(items));
    }
    raw.parse::<i64>().map(Value::Int).map_err(|_| {
        ConfigError::new(
            lineno,
            format!("unsupported value `{raw}` (string, integer or [array] expected)"),
        )
    })
}

fn parse_toml(text: &str) -> Result<Doc, ConfigError> {
    let mut doc = Doc::default();
    // (array-table name, index) or plain section prefix.
    enum Section {
        None,
        Plain(String),
        Array(String),
    }
    let mut section = Section::None;

    for (idx, raw_line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw_line).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
            let name = name.trim().to_string();
            doc.tables.entry(name.clone()).or_default().push(Table {
                line: lineno,
                entries: BTreeMap::new(),
            });
            section = Section::Array(name);
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = Section::Plain(name.trim().to_string());
            continue;
        }
        let Some((key, val)) = line.split_once('=') else {
            return Err(ConfigError::new(
                lineno,
                format!("expected `key = value`, got `{line}`"),
            ));
        };
        let key = key.trim();
        let value = parse_value(val, lineno)?;
        match &section {
            Section::None => {
                doc.keys.insert(key.to_string(), value);
            }
            Section::Plain(prefix) => {
                doc.keys.insert(format!("{prefix}.{key}"), value);
            }
            Section::Array(name) => {
                if let Some(t) = doc.tables.get_mut(name).and_then(|v| v.last_mut()) {
                    t.entries.insert(key.to_string(), value);
                }
            }
        }
    }
    Ok(doc)
}

/// Strips a `#` comment, respecting `"…#…"` strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;

    #[test]
    fn parses_levels_and_allows() {
        let toml = r#"
            # comment
            [[level]]
            name = "store"
            rank = 1
            locks = ["lock.state"]

            [[level]]
            name = "transport"
            rank = 4
            locks = ["tcp.state", "sim.state"]

            [rules.guard_across_rpc]
            methods = ["invoke"]

            [[allow]]
            rule = "guard-across-rpc"
            file = "crates/transport/src/sim.rs"
            function = "deliver"
            reason = "unbounded channel send cannot block"
        "#;
        let cfg = Config::from_toml(toml).unwrap();
        assert_eq!(cfg.levels.len(), 2);
        assert_eq!(cfg.rank_of("sim.state"), Some((4, "transport")));
        assert_eq!(cfg.rank_of("unknown.lock"), None);
        assert_eq!(cfg.rpc_methods, vec!["invoke".to_string()]);
        assert_eq!(cfg.allows.len(), 1);
        assert_eq!(cfg.allows[0].function.as_deref(), Some("deliver"));
    }

    #[test]
    fn empty_reason_is_rejected() {
        let toml = r#"
            [[allow]]
            rule = "lock-order"
            file = "x.rs"
            reason = "  "
        "#;
        let err = Config::from_toml(toml).unwrap_err();
        assert!(err.msg.contains("reason"), "{err}");
    }

    #[test]
    fn defaults_survive_empty_config() {
        let cfg = Config::from_toml("").unwrap();
        assert_eq!(cfg.levels.len(), 5);
        assert!(cfg.rpc_methods.contains(&"invoke_group".to_string()));
    }

    #[test]
    fn bad_syntax_is_an_error_not_a_silent_skip() {
        assert!(Config::from_toml("key = what").is_err());
        assert!(Config::from_toml("just a line").is_err());
    }

    #[test]
    fn trait_targets_parse_and_replace_defaults() {
        let toml = r#"
            [[trait_target]]
            method = "handle"
            targets = ["listener.handle", "acceptor.handle"]
        "#;
        let cfg = Config::from_toml(toml).unwrap();
        assert_eq!(cfg.trait_targets.len(), 1);
        assert_eq!(cfg.trait_targets[0].method, "handle");
        assert_eq!(cfg.trait_targets[0].targets.len(), 2);
    }

    #[test]
    fn allow_expires_is_validated() {
        let good = r#"
            [[allow]]
            rule = "lock-order"
            file = "x.rs"
            reason = "temporary"
            expires = "2026-12-31"
        "#;
        let cfg = Config::from_toml(good).unwrap();
        assert_eq!(cfg.allows[0].expires.as_deref(), Some("2026-12-31"));
        assert!(cfg.allows[0].line > 0);

        let bad = r#"
            [[allow]]
            rule = "lock-order"
            file = "x.rs"
            reason = "temporary"
            expires = "soonish"
        "#;
        let err = Config::from_toml(bad).unwrap_err();
        assert!(err.msg.contains("YYYY-MM-DD"), "{err}");
    }

    #[test]
    fn civil_today_is_iso_shaped() {
        let today = civil_today();
        assert!(is_iso_date(&today), "{today}");
        assert!(today.as_str() >= "2024-01-01", "{today}");
    }
}
