//! Order statistics, the metric list, and the one-line JSON result.

use std::time::Duration;

use mrs_server::Json;

/// Nearest-rank quantile of `values` (sorted in place); `0.0` when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// A round trip as stored for the latency quantiles: milliseconds in an
/// `f32`, so a run's samples cost little memory of their own.
pub fn sample(d: Duration) -> f32 {
    ms(d) as f32
}

/// Nearest-rank quantile of latency samples, in milliseconds.
pub fn quantile_ms(samples: &[f32], q: f64) -> f64 {
    let mut ms: Vec<f64> = samples.iter().map(|&v| f64::from(v)).collect();
    quantile(&mut ms, q)
}

/// Slices a latency quantile is taken over, when every slice holds at
/// least `SLICE_MIN` samples.
const SLICES: usize = 10;
/// Fewest samples per slice: a p99 then has ten samples beyond it.
const SLICE_MIN: usize = 1_000;

/// The reported latency quantile, in milliseconds.  With enough samples it
/// is the median over ten consecutive slices (samples are stored per
/// connection in send order) of each slice's quantile, so a few noisy
/// seconds of the machine move it less; otherwise it is the quantile of
/// all samples.
pub fn latency_ms(samples: &[f32], q: f64) -> f64 {
    if samples.len() < SLICES * SLICE_MIN {
        return quantile_ms(samples, q);
    }
    let per_slice = samples.len() / SLICES;
    let mut slices: Vec<f64> =
        samples.chunks_exact(per_slice).take(SLICES).map(|s| quantile_ms(s, q)).collect();
    quantile(&mut slices, 0.5)
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Mean of `values`; `0.0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or `0.0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Named metrics in the order they were pushed.
#[derive(Default)]
pub struct Metrics(Vec<(String, &'static str, f64)>);

impl Metrics {
    /// Appends one metric.  Non-finite values are a bug in the benchmark.
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push((name, unit, value));
    }

    /// The value of a metric pushed earlier.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|(_, _, v)| *v)
    }

    /// Iterates `(name, unit, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &'static str, f64)> {
        self.0.iter().map(|(n, u, v)| (n.as_str(), *u, *v))
    }
}

/// The result of one benchmark run.
pub struct Outcome {
    /// `false` if any served exact value was wrong or a trace consistency
    /// check failed.
    pub correct: bool,
    /// Requests attempted in the timed phases.
    pub attempted: u64,
    /// Of those, requests that failed (see `Tally`).
    pub failed: u64,
    /// The metrics the result line reports.
    pub metrics: Metrics,
}

impl Outcome {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                let entry = Json::Obj(vec![
                    ("value".into(), Json::num(value)),
                    ("unit".into(), Json::str(unit)),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::num(self.attempted as f64)),
            ("failed".into(), Json::num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render()
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&mut v, 0.5), 3.0);
        assert_eq!(quantile(&mut v, 0.99), 5.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut metrics = Metrics::default();
        metrics.push("latency_ms", "ms", 1.25);
        let line = Outcome { correct: true, attempted: 3, failed: 0, metrics }.json_line();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"latency_ms":{"value":1.25,"unit":"ms"}}}"#
        );
    }
}
