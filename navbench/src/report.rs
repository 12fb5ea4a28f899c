//! The result every workload produces, and how it is printed.

use crate::stats::{valid_metric_name, Samples};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, for percentiles and means.
    pub samples: Option<usize>,
}

/// What one run of one workload measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output matched its sequential reference.
    pub correct: bool,
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed (error, shed or deadline).
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// `key=value` provenance facts, in insertion order.
    pub provenance: Vec<(&'static str, String)>,
    /// Why the run is not correct, one line each.
    pub problems: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples: None,
        });
    }

    pub fn counted(&mut self, name: &'static str, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples: Some(n),
        });
    }

    /// Percentile `q` of `s` over the faster half of `units` units, in
    /// milliseconds; a missing one (too few samples) is a problem, since
    /// every metric must be reported.
    pub fn unit_ms(&mut self, name: &'static str, s: &Samples, q: f64, units: usize) {
        match s.unit_pct(q, units) {
            Some(ns) => self.counted(name, ns / 1e6, "ms", s.len()),
            None => self.problems.push(format!(
                "{name}: {} samples leave fewer than 10 beyond the percentile",
                s.len()
            )),
        }
    }

    pub fn prov(&mut self, key: &'static str, value: impl ToString) {
        self.provenance.push((key, value.to_string()));
    }

    pub fn problem(&mut self, p: impl Into<String>) {
        self.problems.push(p.into());
    }

    /// Prints the metric table and provenance, then the result object as
    /// the last line of standard output.
    pub fn print(&self) {
        for m in &self.metrics {
            let n = m.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
            println!("{:<34} {:>16.6} {}{}", m.name, m.value, m.unit, n);
        }
        let prov: Vec<String> = self
            .provenance
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
            .collect();
        println!("provenance {{{}}}", prov.join(", "));
        for p in &self.problems {
            println!("problem: {p}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }

    /// Final correctness: no problem recorded and every metric printable.
    pub fn finish(&mut self) {
        for m in &self.metrics {
            if !valid_metric_name(m.name) {
                self.problems.push(format!("bad metric name {:?}", m.name));
            }
            if !m.value.is_finite() {
                self.problems
                    .push(format!("{} is not a finite number", m.name));
            }
        }
        self.correct = self.problems.is_empty();
    }
}

/// Peak resident set of process `pid` (`"self"` for this one), in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_count_against_attempts() {
        let mut r = Report {
            attempted: 10,
            failed: 2,
            ..Report::default()
        };
        r.metric(
            "ok_frac",
            (r.attempted - r.failed) as f64 / r.attempted as f64,
            "ratio",
        );
        r.finish();
        assert!(r.correct);
        assert_eq!(r.metrics[0].value, 0.8);
    }

    #[test]
    fn missing_percentiles_and_bad_names_make_a_run_incorrect() {
        let mut r = Report::default();
        r.unit_ms("expand_p99_ms", &Samples::new(), 0.99, 1);
        r.finish();
        assert!(!r.correct);
        let mut r = Report::default();
        r.metric("bad name", 1.0, "ms");
        r.finish();
        assert!(!r.correct);
    }
}
