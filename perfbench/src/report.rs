//! What a plane hands back, and the one-line JSON result.

use std::fmt::Write as _;

use crate::spans::Tracer;

/// One named measurement with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// An output check: a failed check counts as `ops` failed operations.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// Operations the check covers, counted as failed when it does not hold.
    pub ops: u64,
    /// Human-readable evidence.
    pub detail: String,
}

impl Check {
    /// A check covering one operation.
    pub fn new(name: &'static str, ok: bool, detail: String) -> Self {
        Self { name, ok, ops: 1, detail }
    }
}

/// The result of one plane of a run.
#[derive(Default)]
pub struct PlaneOut {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, before checks are added.
    pub failed: u64,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
    /// Traced run: per-operation time of traced over untraced
    /// operations of this plane, minus one, in percent.
    pub overhead: Option<f64>,
    /// Traced run: the recorders, by thread, to write out at the end.
    pub spans: Vec<(&'static str, Tracer)>,
}

impl PlaneOut {
    /// Failed operations including failed checks.
    pub fn failed_total(&self) -> u64 {
        self.failed + self.checks.iter().filter(|c| !c.ok).map(|c| c.ops).sum::<u64>()
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
/// Values are printed with Rust's shortest round-trip formatting, so
/// every digit measured is kept.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, x) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if x.value.is_finite() { x.value } else { 0.0 };
        let _ =
            write!(out, "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", x.name, x.unit);
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use psd_obs::JsonValue;

    #[test]
    fn result_line_parses_and_keeps_digits() {
        let line = result_json(true, 3, 1, &[m("a_ms", 1.234_567_891_2, "ms"), m("b", 7.0, "s")]);
        let v = JsonValue::parse(&line).expect("valid JSON");
        assert_eq!(v.get("attempted").and_then(JsonValue::as_u64), Some(3));
        let a = v.get("metrics").and_then(|x| x.get("a_ms")).expect("metric");
        assert_eq!(a.get("value").and_then(JsonValue::as_f64), Some(1.234_567_891_2));
        assert_eq!(a.get("unit").and_then(JsonValue::as_str), Some("ms"));
    }

    #[test]
    fn failed_checks_count_their_operations() {
        let mut p = PlaneOut { failed: 2, ..PlaneOut::default() };
        p.checks.push(Check::new("fine", true, String::new()));
        p.checks.push(Check { ops: 5, ..Check::new("bad", false, String::new()) });
        assert_eq!(p.failed_total(), 7);
        assert!(!p.correct());
    }
}
