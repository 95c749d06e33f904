//! Diagnostics and the machine-readable report.

use crate::config::Config;
use std::collections::BTreeMap;
use std::fmt;

/// The rules syd-lint enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Nested lock acquisitions must respect the declared hierarchy and
    /// the global acquisition graph must stay acyclic (including edges
    /// discovered through call chains).
    LockOrder,
    /// No lock guard may be live across an RPC / transport send —
    /// directly or through a helper that transitively performs one.
    GuardAcrossRpc,
    /// No blocking call inside a poll-loop / loop-tick function.
    NoBlockingInPollLoop,
    /// A poll-loop function transitively reaches a blocking call through
    /// its helpers (the interprocedural companion of
    /// [`Rule::NoBlockingInPollLoop`]).
    TransitiveBlocking,
    /// A closure registered on shared infrastructure (runtime loop,
    /// worker pool) captures a strong `Arc` of a runtime-owning type,
    /// pinning the runtime after the last external handle drops.
    StrongCaptureCycle,
    /// An `[[allow]]` entry is expired or no longer matches anything.
    StaleSuppression,
    /// Metric names must come from the central `names` registry.
    CounterRegistry,
    /// §4.3 mark/lock entry points only from the negotiation core.
    CoordinationBoundary,
}

impl Rule {
    /// Stable kebab-case rule name (used in config and output).
    pub fn name(self) -> &'static str {
        match self {
            Rule::LockOrder => "lock-order",
            Rule::GuardAcrossRpc => "guard-across-rpc",
            Rule::NoBlockingInPollLoop => "no-blocking-in-poll-loop",
            Rule::TransitiveBlocking => "transitive-blocking",
            Rule::StrongCaptureCycle => "strong-capture-cycle",
            Rule::StaleSuppression => "stale-suppression",
            Rule::CounterRegistry => "counter-registry",
            Rule::CoordinationBoundary => "coordination-boundary",
        }
    }
}

/// One finding, anchored to `file:line`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path.
    pub file: String,
    /// 1-indexed line.
    pub line: u32,
    /// Enclosing function, when known.
    pub function: Option<String>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// Result of one analyzer run.
#[derive(Debug, Default)]
pub struct Report {
    /// Diagnostics that survived the allowlist.
    pub diagnostics: Vec<Diagnostic>,
    /// Diagnostics suppressed by `[[allow]]` entries, with the reason.
    pub suppressed: Vec<(Diagnostic, String)>,
    /// Indices into `config.allows` that suppressed at least one
    /// diagnostic (input to `stale-suppression`).
    pub allow_hits: std::collections::BTreeSet<usize>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when no diagnostic survived.
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Applies the config's allowlist, moving matches to `suppressed`.
    /// An entry whose `expires` date is on or before `config.today` has
    /// lapsed: it stops suppressing (and `stale-suppression` flags it).
    pub fn apply_allowlist(&mut self, config: &Config) {
        let expired = |idx: usize| -> bool {
            match (&config.allows[idx].expires, &config.today) {
                (Some(exp), Some(today)) => exp.as_str() <= today.as_str(),
                _ => false,
            }
        };
        let mut kept = Vec::new();
        for d in self.diagnostics.drain(..) {
            let hit = config.allows.iter().enumerate().find(|(i, a)| {
                !expired(*i)
                    && a.rule == d.rule.name()
                    && d.file.ends_with(&a.file)
                    && a.function
                        .as_ref()
                        .is_none_or(|f| d.function.as_deref() == Some(f.as_str()))
                    && a.contains.as_ref().is_none_or(|c| d.message.contains(c))
            });
            match hit {
                Some((i, a)) => {
                    self.allow_hits.insert(i);
                    self.suppressed.push((d, a.reason.clone()));
                }
                None => kept.push(d),
            }
        }
        self.diagnostics = kept;
        self.sort();
    }

    /// Deterministic order: file, line, rule.
    pub fn sort(&mut self) {
        self.diagnostics
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }

    /// Per-rule counts of surviving diagnostics.
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut m = BTreeMap::new();
        for d in &self.diagnostics {
            *m.entry(d.rule.name()).or_insert(0) += 1;
        }
        m
    }

    /// Human-readable rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        for (d, reason) in &self.suppressed {
            out.push_str(&format!("{d} (allowed: {reason})\n"));
        }
        out.push_str(&format!(
            "syd-lint: {} file(s), {} violation(s), {} suppressed\n",
            self.files_scanned,
            self.diagnostics.len(),
            self.suppressed.len()
        ));
        out
    }

    /// Machine-readable JSON rendering.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"tool\":\"syd-lint\",\"violations\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"function\":{},\"message\":\"{}\"}}",
                d.rule.name(),
                esc(&d.file),
                d.line,
                d.function
                    .as_ref()
                    .map_or("null".to_string(), |f| format!("\"{}\"", esc(f))),
                esc(&d.message)
            ));
        }
        out.push_str("],\"counts\":{");
        for (i, (rule, n)) in self.counts().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{rule}\":{n}"));
        }
        out.push_str(&format!(
            "}},\"files_scanned\":{},\"suppressed\":{},\"clean\":{}}}",
            self.files_scanned,
            self.suppressed.len(),
            self.clean()
        ));
        out.push('\n');
        out
    }

    /// GitHub Actions workflow-command rendering: one
    /// `::error file=…,line=…::…` annotation per diagnostic (shown
    /// inline on the PR diff), followed by the plain summary line.
    pub fn render_github(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!(
                "::error file={},line={},title={}::{}\n",
                esc_gh_prop(&d.file),
                d.line,
                esc_gh_prop(d.rule.name()),
                esc_gh_msg(&d.message)
            ));
        }
        out.push_str(&format!(
            "syd-lint: {} file(s), {} violation(s), {} suppressed\n",
            self.files_scanned,
            self.diagnostics.len(),
            self.suppressed.len()
        ));
        out
    }
}

/// Escapes a workflow-command message (`%`, CR, LF).
fn esc_gh_msg(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Escapes a workflow-command property (message escapes plus `,` / `:`).
fn esc_gh_prop(s: &str) -> String {
    esc_gh_msg(s).replace(',', "%2C").replace(':', "%3A")
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use crate::config::{Allow, Config};

    fn diag(rule: Rule, file: &str, function: &str, msg: &str) -> Diagnostic {
        Diagnostic {
            rule,
            file: file.into(),
            line: 1,
            function: Some(function.into()),
            message: msg.into(),
        }
    }

    #[test]
    fn allowlist_matches_rule_file_and_function() {
        let mut cfg = Config::default();
        cfg.allows.push(Allow {
            rule: "guard-across-rpc".into(),
            file: "sim.rs".into(),
            function: Some("deliver".into()),
            contains: None,
            reason: "channel send cannot block".into(),
            expires: None,
            line: 10,
        });
        let mut report = Report {
            diagnostics: vec![
                diag(
                    Rule::GuardAcrossRpc,
                    "crates/transport/src/sim.rs",
                    "deliver",
                    "m",
                ),
                diag(
                    Rule::GuardAcrossRpc,
                    "crates/transport/src/sim.rs",
                    "other_fn",
                    "m",
                ),
                diag(
                    Rule::LockOrder,
                    "crates/transport/src/sim.rs",
                    "deliver",
                    "m",
                ),
            ],
            suppressed: vec![],
            allow_hits: Default::default(),
            files_scanned: 1,
        };
        report.apply_allowlist(&cfg);
        assert_eq!(report.suppressed.len(), 1);
        assert_eq!(report.diagnostics.len(), 2);
        assert!(report.allow_hits.contains(&0));
    }

    #[test]
    fn expired_allow_stops_suppressing() {
        let mut cfg = Config {
            today: Some("2026-08-08".into()),
            ..Default::default()
        };
        cfg.allows.push(Allow {
            rule: "lock-order".into(),
            file: "sim.rs".into(),
            function: None,
            contains: None,
            reason: "pending refactor".into(),
            expires: Some("2026-01-01".into()),
            line: 3,
        });
        let mut report = Report {
            diagnostics: vec![diag(Rule::LockOrder, "crates/t/src/sim.rs", "f", "m")],
            ..Report::default()
        };
        report.apply_allowlist(&cfg);
        assert_eq!(report.diagnostics.len(), 1, "expired allow must not fire");
        assert!(report.allow_hits.is_empty());

        // Same entry with a future expiry still suppresses.
        cfg.allows[0].expires = Some("2027-01-01".into());
        let mut report = Report {
            diagnostics: vec![diag(Rule::LockOrder, "crates/t/src/sim.rs", "f", "m")],
            ..Report::default()
        };
        report.apply_allowlist(&cfg);
        assert!(report.diagnostics.is_empty());
        assert!(report.allow_hits.contains(&0));
    }

    #[test]
    fn github_annotations_escape_workflow_metacharacters() {
        let report = Report {
            diagnostics: vec![diag(
                Rule::LockOrder,
                "crates/a,b/src/x.rs",
                "f",
                "cycle: a -> b\n100% held",
            )],
            suppressed: vec![],
            allow_hits: Default::default(),
            files_scanned: 1,
        };
        let gh = report.render_github();
        assert!(
            gh.contains("::error file=crates/a%2Cb/src/x.rs,line=1,title=lock-order::"),
            "{gh}"
        );
        assert!(gh.contains("100%25 held"), "{gh}");
        assert!(gh.contains("a -> b%0A"), "{gh}");
        assert!(gh.contains("1 violation(s)"), "{gh}");
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let report = Report {
            diagnostics: vec![diag(Rule::CounterRegistry, "a\"b.rs", "f", "use \"names\"")],
            suppressed: vec![],
            allow_hits: Default::default(),
            files_scanned: 3,
        };
        let json = report.render_json();
        assert!(json.contains("\"clean\":false"), "{json}");
        assert!(json.contains("a\\\"b.rs"), "{json}");
        assert!(json.contains("\"counter-registry\":1"), "{json}");
    }
}
