//! Order statistics over raw samples, and the JSON result line.

use std::collections::BTreeMap;

use libseal_httpx::json::Json;

/// The `q`-quantile of `xs` by linear interpolation between closest
/// ranks (sorts `xs`); 0 for an empty sample.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer idle on this workload).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Named metrics with units, in output order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Records `name = value unit`. Values must be finite.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name.to_string(), (value, unit));
    }

    /// Human-readable table, one metric per line.
    pub fn table(&self) -> String {
        self.0
            .iter()
            .map(|(k, (v, u))| format!("  {k:<34} {v:>14.4} {u}\n"))
            .collect()
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics = self
            .0
            .iter()
            .map(|(k, (v, u))| {
                let mut m = BTreeMap::new();
                m.insert("value".to_string(), Json::Number(*v));
                m.insert("unit".to_string(), Json::String(u.to_string()));
                (k.clone(), Json::Object(m))
            })
            .collect();
        Json::object([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::num(attempted as f64)),
            ("failed", Json::num(failed as f64)),
            ("metrics", Json::Object(metrics)),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let mut xs = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut xs, 0.0), 1.0);
        assert_eq!(quantile(&mut xs, 1.0), 4.0);
        assert!((quantile(&mut xs, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.put("p50_ms", 1.25, "ms");
        let j = Json::parse(&m.result_line(true, 10, 0)).unwrap();
        assert_eq!(j.get("attempted").and_then(Json::as_i64), Some(10));
        let v = j.get("metrics").and_then(|m| m.get("p50_ms")).unwrap();
        assert_eq!(v.get("value").and_then(Json::as_f64), Some(1.25));
    }
}
