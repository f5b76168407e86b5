//! Metric records, the human-readable report and the one-line JSON summary.

use serde::Value;

use crate::env::HostSpeed;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see `stats::valid_metric_name`).
    pub name: String,
    /// The measured value, unrounded.
    pub value: f64,
    /// Unit, e.g. `ms`, `s`, `1/s`, `count`.
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement).
    pub samples: usize,
}

impl Metric {
    /// A metric from `samples` observations.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// Result of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Units of work attempted.
    pub attempted: usize,
    /// Units that failed: an error, `ok: false`, a degraded answer, or a
    /// failed output check.
    pub failed: usize,
    /// Failed output checks, described.
    pub check_failures: Vec<String>,
    /// The metrics the run reports.
    pub metrics: Vec<Metric>,
    /// Raw timing samples in nanoseconds, by case, for the perf runner's
    /// median/MAD summary and history ledger.
    pub samples: Vec<(String, Vec<f64>)>,
    /// Workload-specific numbers: printed with the metrics, but not part
    /// of the summary, whose metric set is the same for every workload.
    pub notes: Vec<Metric>,
}

impl Outcome {
    /// Records a check: a false `ok` counts as a failure with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            let what = what();
            if self.check_failures.len() < 20 {
                eprintln!("check failed: {what}");
            }
            self.check_failures.push(what);
        }
    }

    /// Adds a metric.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric::new(name, value, unit, samples));
    }

    /// Adds a workload-specific number (printed, not summarized).
    pub fn note(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.notes.push(Metric::new(name, value, unit, samples));
    }

    /// Notes how fast the host ran: the median calibration kernel time and
    /// the scale the run's host times were put at the reference speed with.
    pub fn note_host(&mut self, speed: &HostSpeed) {
        self.note(
            "env.calibration_ms",
            speed.kernel_ms(),
            "ms",
            speed.samples(),
        );
        self.note("env.host_scale", speed.scale(), "x", speed.samples());
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// Prints each metric and note on its own line: name, value, unit,
    /// samples.
    pub fn print(&self) {
        for (kind, list) in [("metric", &self.metrics), ("note", &self.notes)] {
            for m in list {
                println!(
                    "{kind:<6} {:<34} {:>16.6} {:<6} n={}",
                    m.name, m.value, m.unit, m.samples
                );
            }
        }
    }

    /// The summary object: `correct`, `attempted`, `failed`, and `metrics`
    /// keyed by name with `value` and `unit`.
    pub fn summary(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Object(vec![
                        ("value".into(), Value::Float(m.value)),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::UInt(self.attempted as u64)),
            ("failed".into(), Value::UInt(self.failed as u64)),
            ("metrics".into(), Value::Object(metrics)),
        ])
    }
}
