//! Order statistics, the seeded generator and the metric record.
//!
//! Every timing the benchmark reports is computed per pass and then
//! reduced across passes by the *quiet quartile*: the 25th percentile of
//! a cost, the 75th of a rate. Interference on a shared host only ever
//! adds time, so the quiet quartile estimates what the program costs by
//! itself, while the per-pass percentiles it is taken over still show
//! stalls the program causes (fsync, eviction).

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`).
/// With 200 samples `p = 0.95` picks index 189, leaving ten beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Percentile of an unsorted slice.
pub fn percentile_of(values: &[f64], p: f64) -> f64 {
    percentile(&sorted(values), p)
}

/// Quiet quartile of per-pass costs (lower is better): the 25th percentile.
pub fn quiet_cost(per_pass: &[f64]) -> f64 {
    percentile_of(per_pass, 0.25)
}

/// Quiet quartile of per-pass rates (higher is better): the 75th
/// percentile, counted from the top so that a rate and its reciprocal
/// cost pick the same pass.
pub fn quiet_rate(per_pass: &[f64]) -> f64 {
    let negated: Vec<f64> = per_pass.iter().map(|v| -v).collect();
    -quiet_cost(&negated)
}

/// Median (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    percentile_of(values, 0.5)
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// SplitMix64: the only source of randomness in the benchmark, so the
/// same `--seed` always produces the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One reported number: its name, unit, value and how many samples the
/// value was reduced from.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples,
        }
    }
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`, every value with all its digits. The caller
/// has checked that every value is finite (JSON has no other numbers).
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_vectors() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 100.0);
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(v.iter().filter(|&&x| x > percentile(&v, 0.95)).count(), 10);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 200.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quiet_quartile_ignores_interference_on_the_slow_side() {
        // Eight passes; three were disturbed. Costs take the 25th
        // percentile, rates the 75th: both land on undisturbed passes.
        let cost = [10.0, 10.1, 10.2, 10.3, 10.4, 14.0, 19.0, 25.0];
        assert_eq!(quiet_cost(&cost), 10.1);
        let rate = [100.0, 99.0, 98.0, 97.0, 96.0, 70.0, 50.0, 40.0];
        assert_eq!(quiet_rate(&rate), 99.0);
        let reciprocal: Vec<f64> = cost.iter().map(|c| 1.0 / c).collect();
        assert_eq!(quiet_rate(&reciprocal), 1.0 / quiet_cost(&cost));
        // Adding more disturbance on the slow side does not move it far.
        let worse = [10.0, 10.1, 10.2, 10.3, 10.4, 40.0, 90.0, 250.0];
        assert_eq!(quiet_cost(&worse), quiet_cost(&cost));
    }

    #[test]
    fn rng_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.below(10) < 10);
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            200,
            0,
            &[
                Metric::new("op_p50_ms", "ms", 2.5, 12),
                Metric::new("setup_s", "s", 1.25, 3),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 200, \"failed\": 0, \"metrics\": \
             {\"op_p50_ms\": {\"value\": 2.5, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert!(result_line(1, 1, &[]).starts_with("{\"correct\": false"));
    }
}
