//! The result line and the human-readable report around it.

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Shorthand for a [`Metric`].
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What one benchmark run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (circuits or jobs).
    pub attempted: u64,
    /// Of those, the ones that failed or returned wrong output.
    pub failed: u64,
    /// Other correctness failures (the traced flow disagreeing with the
    /// untraced run, a malformed output), one line each.
    pub errors: Vec<String>,
    /// The metrics of this run's mode.
    pub metrics: Vec<Metric>,
    /// Lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every output checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    /// The report: notes, one line per metric, then the JSON result as
    /// the last line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            out.push_str(note);
            out.push('\n');
        }
        for error in &self.errors {
            out.push_str(&format!("error: {error}\n"));
        }
        out.push_str(&format!(
            "failed_frac = {} ({} of {} operations)\n",
            crate::stats::failed_frac(self.failed, self.attempted),
            self.failed,
            self.attempted
        ));
        for m in &self.metrics {
            out.push_str(&format!("{} = {} {}\n", m.name, m.value, m.unit));
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect();
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ));
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a JSON number");
    let s = format!("{v}");
    if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_line_is_the_result_object() {
        let outcome = Outcome {
            attempted: 48,
            failed: 0,
            metrics: vec![metric("wall_s", "s", 13.25), metric("setup_s", "s", 0.009)],
            notes: vec!["workload: fig12_suite".to_owned()],
            ..Outcome::default()
        };
        let text = outcome.render();
        assert_eq!(
            text.lines().last().unwrap(),
            "{\"correct\": true, \"attempted\": 48, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 13.25, \"unit\": \"s\"}, \"setup_s\": {\"value\": 0.009, \"unit\": \"s\"}}}"
        );
        assert!(text.contains("failed_frac = 0 (0 of 48 operations)"));
    }

    #[test]
    fn any_failure_makes_the_run_incorrect() {
        let failed = Outcome { attempted: 10, failed: 1, ..Outcome::default() };
        assert!(!failed.correct());
        let mismatch = Outcome { attempted: 10, errors: vec!["x".into()], ..Outcome::default() };
        assert!(!mismatch.correct());
        assert!(!Outcome::default().correct());
    }

    #[test]
    fn whole_numbers_stay_json_floats() {
        assert_eq!(number(3.0), "3.0");
        assert_eq!(number(0.25), "0.25");
        assert_eq!(number(1e-7), "0.0000001");
    }
}
