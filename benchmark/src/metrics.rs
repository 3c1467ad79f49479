//! The metric vocabulary, read from `BENCHMARK.json` (compiled in, so the
//! spec and the binary cannot disagree), the run outcome every workload
//! fills in, and its printed and written forms.

use std::path::Path;
use std::sync::OnceLock;

use crate::json::{self, Json};

/// One metric of the spec.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether a lower value is better.
    pub lower_is_better: bool,
    /// Share of the base median by which the metric may worsen; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`: the workloads and the metrics they report.
#[derive(Debug)]
pub struct Spec {
    /// Workload names, in run order.
    pub workloads: Vec<String>,
    /// Reported by every workload in untraced runs.
    pub end_to_end: Vec<Metric>,
    /// Reported by every workload in traced runs; a layer a workload does
    /// not exercise reads 0.
    pub per_layer: Vec<Metric>,
}

const SPEC_TEXT: &str = include_str!("../../BENCHMARK.json");

/// The compiled-in spec.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse_spec(SPEC_TEXT).expect("BENCHMARK.json is well-formed"))
}

/// Parses the spec's workloads and metric lists.
///
/// # Errors
///
/// Malformed JSON or a list entry without its required keys.
pub fn parse_spec(text: &str) -> Result<Spec, String> {
    let doc = json::parse(text)?;
    let list = |key: &str| -> Result<&[Json], String> {
        doc.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("no {key} list"))
    };
    let metrics = |key: &str, bounded: bool| -> Result<Vec<Metric>, String> {
        list(key)?
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("a {key} entry has no {f}"))
                };
                let name = field("name")?;
                let bound = if bounded {
                    Some(
                        m.get("bound")
                            .and_then(Json::as_f64)
                            .ok_or_else(|| format!("{name} has no bound"))?,
                    )
                } else {
                    None
                };
                Ok(Metric {
                    name: name.to_owned(),
                    unit: field("unit")?.to_owned(),
                    lower_is_better: field("better")? == "lower",
                    bound,
                })
            })
            .collect()
    };
    let workloads = list("workloads")?
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| "a workload has no name".to_owned())
        })
        .collect::<Result<_, _>>()?;
    Ok(Spec {
        workloads,
        end_to_end: metrics("end_to_end", true)?,
        per_layer: metrics("per_layer", false)?,
    })
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check (wrong answer, non-OK code, lost).
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Workload-specific records for the result file.
    pub extra: Vec<(String, Json)>,
}

/// Failure messages kept per run; the count is always exact.
const KEPT_FAILURES: usize = 20;

impl Outcome {
    /// Records one failed operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(what.into());
        }
    }

    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// Value of metric `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// True when every operation and run-level check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Process exit code: non-zero whenever any check failed.
    pub fn exit_code(&self) -> u8 {
        u8::from(!self.correct())
    }

    /// The metrics this run reports with their values: the end-to-end set
    /// untraced (NaN if unset, which prints as `null`), the per-layer set
    /// traced (0 if unset: the workload does not exercise that layer).
    pub fn reported<'s>(&self, spec: &'s Spec, traced: bool) -> Vec<(&'s Metric, f64)> {
        let (list, unset) = if traced {
            (&spec.per_layer, 0.0)
        } else {
            (&spec.end_to_end, f64::NAN)
        };
        list.iter()
            .map(|m| (m, self.get(&m.name).unwrap_or(unset)))
            .collect()
    }

    /// The one-line result object the benchmark prints last.
    pub fn result_line(&self, spec: &Spec, traced: bool) -> Json {
        let metrics = self
            .reported(spec, traced)
            .into_iter()
            .map(|(m, value)| {
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::Str(m.unit.clone())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    /// Human-readable metric table.
    pub fn table(&self, spec: &Spec, workload: &str, seed: u64, traced: bool) -> String {
        let mut out = format!(
            "workload {workload}  seed {seed}  trace {}  attempted {}  failed {}  correct {}\n",
            u8::from(traced),
            self.attempted,
            self.failed,
            self.correct()
        );
        for (m, value) in self.reported(spec, traced) {
            let better = if m.lower_is_better { "lower" } else { "higher" };
            let bound = m
                .bound
                .map_or_else(String::new, |b| format!(", bound {}%", b * 100.0));
            out.push_str(&format!(
                "  {:<30} {value:>14.6} {:<6} ({better} is better{bound})\n",
                m.name, m.unit
            ));
        }
        for f in &self.failures {
            out.push_str(&format!("  FAILED: {f}\n"));
        }
        out
    }
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MB; 0 where `/proc` is unavailable.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host and build facts recorded in every result file.
pub fn host_fingerprint(repo_root: &Path) -> Vec<(String, Json)> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        );
    vec![
        ("nproc".into(), Json::Num(nproc as f64)),
        ("rustc".into(), Json::Str(rustc)),
        ("git_commit".into(), Json::Str(git_commit(repo_root))),
    ]
}

/// The checked-out commit, read from `.git` without running git; "unknown"
/// outside a git checkout.
fn git_commit(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_compiled_in_spec_parses() {
        let s = spec();
        assert!(!s.workloads.is_empty());
        assert!(s.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(s.end_to_end.iter().any(|m| m.name == "setup_s"));
    }

    #[test]
    fn a_metric_without_its_bound_is_refused() {
        let text = r#"{"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "a_ms", "unit": "ms", "better": "lower"}],
            "per_layer": []}"#;
        assert!(parse_spec(text).unwrap_err().contains("a_ms has no bound"));
    }

    #[test]
    fn failures_are_counted_and_fail_the_exit_code() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        assert!(o.correct());
        assert_eq!(o.exit_code(), 0);
        o.fail("mismatch");
        assert!(!o.correct());
        assert_eq!(o.exit_code(), 1);
        let line = o.result_line(spec(), false);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn traced_lines_carry_every_per_layer_metric() {
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        o.set("lp.mip_ms", 2.5);
        let line = o.result_line(spec(), true);
        let metrics = line.get("metrics").unwrap();
        for m in &spec().per_layer {
            assert!(metrics.get(&m.name).is_some(), "{} missing", m.name);
        }
        let value = |name: &str| {
            metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        assert_eq!(value("lp.mip_ms"), Some(2.5));
        assert_eq!(value("db.bytes"), Some(0.0));
    }
}
