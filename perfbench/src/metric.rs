//! Named metrics with units and time bases, and their printed forms.

use std::fmt::Write as _;

/// Which clock a metric's value is measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Base {
    /// How long the simulator takes on the machine running it.
    Host,
    /// What the modelled hardware would take.
    Sim,
    /// Not a time: a count, ratio or size.
    Untimed,
}

impl Base {
    /// Label printed beside the metric.
    pub fn label(self) -> &'static str {
        match self {
            Base::Host => "host",
            Base::Sim => "simulated",
            Base::Untimed => "-",
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value, with all its digits.
    pub value: f64,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// Time base of the value.
    pub base: Base,
}

/// An ordered list of metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, base: Base) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            base,
        });
    }

    /// Value of the metric `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Aligned text table: name, value, unit, time base.
    pub fn table(&self) -> String {
        let mut out = format!("{:<34} {:>22} {:<6} time base\n", "metric", "value", "unit");
        for m in &self.0 {
            let _ = writeln!(
                out,
                "{:<34} {:>22} {:<6} {}",
                m.name,
                m.value,
                m.unit,
                m.base.label()
            );
        }
        out
    }

    /// The `"metrics"` JSON object: `{"name": {"value": v, "unit": u}}`.
    /// Non-finite values are an error: JSON has no spelling for them.
    pub fn to_json(&self) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push('}');
        Ok(out)
    }
}

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_keeps_every_digit_and_rejects_nan() {
        let mut m = Metrics::default();
        m.push("a", 0.1234567890123, "s", Base::Host);
        assert_eq!(
            m.to_json().unwrap(),
            "{\"a\": {\"value\": 0.1234567890123, \"unit\": \"s\"}}"
        );
        m.push("b", f64::NAN, "s", Base::Host);
        assert!(m.to_json().is_err());
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
