//! Statistics, run identity and a small JSON writer for the result line
//! and the run record.

use std::fmt::Write as _;
use std::process::Command;

/// Median of `v` (mean of the middle pair for even lengths); 0 if empty.
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The highest percentile of `v` with at least ten samples beyond it,
/// as `(percentile, value)`; with fewer than eleven samples only the
/// maximum is defined and is returned as percentile 100.
#[must_use]
pub fn top_percentile(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 11 {
        return (100.0, s.last().copied().unwrap_or(0.0));
    }
    let idx = n - 11;
    (100.0 * (idx + 1) as f64 / n as f64, s[idx])
}

/// A JSON value.
#[derive(Clone, Debug)]
pub enum Json {
    /// A number (non-finite values are written as `null`).
    Num(f64),
    /// An unsigned integer.
    Int(u64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An array.
    Arr(Vec<Json>),
    /// An object with keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    #[must_use]
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    #[must_use]
    pub fn s(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// Render compactly on one line.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(x) => {
                let _ = write!(out, "{x}");
            }
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// `{"name": {"value": v, "unit": u}, ...}`.
#[must_use]
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::s(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// Who and where a run was: everything a record needs to be attributed.
#[derive(Clone, Debug)]
pub struct Identity {
    /// `git rev-parse HEAD` when the working directory is the top of a git
    /// checkout, or why it is unknown.
    pub git_rev: String,
    /// Cores available to this process.
    pub nproc: usize,
    /// `rustc --version` of the toolchain on `PATH`.
    pub rustc: String,
    /// `release` or `debug`.
    pub profile: &'static str,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!s.is_empty()).then_some(s)
}

/// HEAD of the git checkout whose top is the working directory; `None`
/// elsewhere, so a benchmark copied into another repository's subtree is
/// not attributed to that repository's revision.
fn git_rev() -> Option<String> {
    let top = command_line("git", &["rev-parse", "--show-toplevel"])?;
    let cwd = std::env::current_dir().ok()?.canonicalize().ok()?;
    if std::path::Path::new(&top).canonicalize().ok()? != cwd {
        return None;
    }
    command_line("git", &["rev-parse", "HEAD"])
}

impl Identity {
    /// Probe the current process and working directory.
    #[must_use]
    pub fn probe() -> Identity {
        Identity {
            git_rev: git_rev().unwrap_or_else(|| "unknown (not a git checkout)".to_string()),
            nproc: std::thread::available_parallelism().map_or(1, |p| p.get()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_top_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(top_percentile(&[1.0, 5.0]), (100.0, 5.0));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        // Ten samples (11..=20) lie beyond the 50th percentile's 10.
        assert_eq!(top_percentile(&v), (50.0, 10.0));
    }

    #[test]
    fn json_renders_on_one_line() {
        let j = Json::obj(vec![
            ("a", Json::Num(1.5)),
            ("b", Json::s("x\"y")),
            ("c", Json::Arr(vec![Json::Int(2), Json::Bool(true)])),
        ]);
        assert_eq!(j.render(), r#"{"a": 1.5, "b": "x\"y", "c": [2, true]}"#);
    }
}
