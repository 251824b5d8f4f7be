//! What one run reports: named metrics, the failure tally, and the
//! deterministic counts that must repeat exactly across runs and modes.

use std::fmt::Write as _;
use std::time::Duration;

/// One named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Counts that do not depend on timing. A drift in any of them between
/// two runs of the same workload (any seed, traced or not) is a bug.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    /// Metered tuple cost of one seeded pass over the workload.
    pub model_cost: f64,
    /// Communication rounds of one pass over the query mix.
    pub rounds: usize,
    /// Backend supersteps of one pass over the query mix.
    pub supersteps: usize,
    /// Output rows of one pass over the query mix.
    pub rows_out: usize,
    /// Fraction of reads served from the plan cache.
    pub cache_hit_ratio: f64,
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: &'static str,
    /// Operations attempted in the timed loop.
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// One line per failure, printed after the metric table.
    pub failures: Vec<String>,
    /// Measured untraced; printed as the result with `--trace 0`.
    pub end_to_end: Vec<Metric>,
    /// Measured on traced operations; printed as the result with
    /// `--trace 1`.
    pub per_layer: Vec<Metric>,
    /// Workload-specific figures for the human-readable table only.
    pub notes: Vec<Metric>,
    pub counts: Counts,
}

impl Report {
    /// Record a failed operation with its reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Look a metric up by name in either list.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .chain(&self.notes)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The human-readable table: every metric with its unit, then the
    /// failures (capped) and the exact counts.
    pub fn render(&self, traced: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.workload);
        let failed_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        let mut rows: Vec<&Metric> = Vec::new();
        rows.extend(if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        });
        rows.extend(&self.notes);
        for m in rows {
            let _ = writeln!(out, "  {:<28} {:>18.6} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(
            out,
            "  {:<28} {:>18.6} ratio ({} of {} operations)",
            "failed_ratio", failed_ratio, self.failed, self.attempted
        );
        let c = &self.counts;
        let _ = writeln!(
            out,
            "  exact counts: model_cost={} rounds={} supersteps={} rows_out={} cache_hit_ratio={}",
            c.model_cost, c.rounds, c.supersteps, c.rows_out, c.cache_hit_ratio
        );
        for f in self.failures.iter().take(20) {
            let _ = writeln!(out, "  FAILED: {f}");
        }
        if self.failures.len() > 20 {
            let _ = writeln!(out, "  ... and {} more", self.failures.len() - 20);
        }
        out
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and the metrics of the mode.
    pub fn json(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let named = metrics.iter().map(|m| (m.name.to_string(), m));
        json_line(self.correct(), self.attempted, self.failed, named)
    }
}

/// One JSON object with `correct`, `attempted`, `failed` and the
/// `(key, metric)` pairs as `metrics`.
pub fn json_line<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (String, &'a Metric)>,
) -> String {
    let body: Vec<String> = metrics
        .map(|(key, m)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                key,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Shortest round-trip decimal form; JSON has no NaN or infinity, so
/// those (which no metric should produce) become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of each kind of operation, averaged with weights
/// equal to each kind's sample count. On a host whose speed switches
/// between modes, a quantile of one kind stays inside one mode, where a
/// quantile of the pooled sample falls wherever the kinds' latencies
/// meet and jumps with the kinds' shares.
pub fn mix_quantile(kinds: &[Vec<f64>], q: f64) -> f64 {
    let n: usize = kinds.iter().map(Vec::len).sum();
    let weighted: f64 = kinds.iter().map(|k| quantile(k, q) * k.len() as f64).sum();
    weighted / n.max(1) as f64
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A uniform sample of at most `capacity` values (Vitter's algorithm
/// R). Its memory is written up front, so the process's peak RSS does
/// not depend on how many values arrive; below capacity it keeps every
/// value and its quantiles are exact.
#[derive(Clone, Debug)]
pub struct Reservoir {
    values: Vec<f32>,
    seen: u64,
    rng: SplitMix,
}

impl Reservoir {
    pub fn new(capacity: usize, seed: u64) -> Self {
        let mut values = vec![f32::NAN; capacity.max(1)];
        values.clear();
        Reservoir {
            values,
            seen: 0,
            rng: SplitMix::new(seed),
        }
    }

    pub fn push(&mut self, v: f32) {
        self.seen += 1;
        if self.values.len() < self.values.capacity() {
            self.values.push(v);
        } else {
            let j = self.rng.below(self.seen) as usize;
            if j < self.values.len() {
                self.values[j] = v;
            }
        }
    }

    /// Values offered so far (kept or not).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.values.iter().map(|&v| f64::from(v))
    }
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn a_mix_quantile_weights_each_kinds_quantile_by_its_count() {
        let fast = vec![1.0, 2.0, 3.0];
        let slow = vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0];
        // Medians 2 and 35, weighted 3 : 6.
        assert_eq!(
            mix_quantile(&[fast, slow], 0.5),
            (2.0 * 3.0 + 35.0 * 6.0) / 9.0
        );
        assert_eq!(mix_quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let m = [metric("a_us", "us", 1.25), metric("b", "count", 3.0)];
        let line = json_line(true, 7, 0, m.iter().map(|m| (m.name.to_string(), m)));
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": \
             {\"a_us\": {\"value\": 1.25, \"unit\": \"us\"}, \"b\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn a_reservoir_keeps_everything_below_capacity_and_samples_above() {
        let mut r = Reservoir::new(4, 1);
        for v in 0..3 {
            r.push(v as f32);
        }
        assert_eq!(r.values().collect::<Vec<_>>(), vec![0.0, 1.0, 2.0]);
        for v in 3..1000 {
            r.push(v as f32);
        }
        assert_eq!(r.seen(), 1000);
        assert_eq!(r.values().count(), 4);
        assert!(r.values().any(|v| v >= 4.0));
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 0.0);
    }
}
