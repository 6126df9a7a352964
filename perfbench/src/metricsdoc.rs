//! Phase deltas of the server's `/metrics` documents.
//!
//! The server renders each histogram as `{"count", "mean", …,
//! "buckets": [{"le": bound, "count": n}, …, {"le": "inf", …}]}`. A
//! phase's distribution is the bucket-wise difference of the documents
//! scraped before and after it; its percentiles place every observation
//! at its bucket's upper bound (the overflow bucket at the last finite
//! bound, as the server does) and rank them with
//! `traj_sim::report::percentile_us`.

use serde::Value;

/// Looks up a nested object field.
pub fn lookup<'a>(doc: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(doc, |v, key| match v {
        Value::Map(m) => serde::map_get(m, key),
        _ => None,
    })
}

/// A JSON number as `f64`.
pub fn num(v: &Value) -> Option<f64> {
    match *v {
        Value::Int(i) => Some(i as f64),
        Value::UInt(u) => Some(u as f64),
        Value::Float(f) => Some(f),
        _ => None,
    }
}

/// A numeric field, 0 when absent.
pub fn field(doc: &Value, path: &[&str]) -> f64 {
    lookup(doc, path).and_then(num).unwrap_or(0.0)
}

/// One histogram section.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Hist {
    /// `(upper bound, count)`; the overflow bucket carries the last
    /// finite bound.
    pub buckets: Vec<(u64, u64)>,
    /// Observations.
    pub count: u64,
    /// Sum of observations (`mean × count`).
    pub sum: f64,
}

impl Hist {
    /// Parses the histogram object at `path`.
    pub fn at(doc: &Value, path: &[&str]) -> Option<Hist> {
        let h = lookup(doc, path)?;
        let count = lookup(h, &["count"]).and_then(num)? as u64;
        let mean = lookup(h, &["mean"]).and_then(num)?;
        let Some(Value::Seq(raw)) = lookup(h, &["buckets"]) else {
            return None;
        };
        let mut buckets = Vec::with_capacity(raw.len());
        let mut last_bound = 0u64;
        for b in raw {
            let n = lookup(b, &["count"]).and_then(num)? as u64;
            let bound = match lookup(b, &["le"])? {
                Value::Str(_) => last_bound,
                v => num(v)? as u64,
            };
            last_bound = bound;
            buckets.push((bound, n));
        }
        Some(Hist {
            buckets,
            count,
            sum: mean * count as f64,
        })
    }

    /// `self − before`, bucket by bucket.
    pub fn since(&self, before: &Hist) -> Hist {
        Hist {
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .map(|(i, &(bound, n))| {
                    let prior = before.buckets.get(i).map_or(0, |b| b.1);
                    (bound, n.saturating_sub(prior))
                })
                .collect(),
            count: self.count.saturating_sub(before.count),
            sum: (self.sum - before.sum).max(0.0),
        }
    }

    /// Adds another histogram of the same layout (shards of a cluster).
    pub fn add(&mut self, other: &Hist) {
        if self.buckets.is_empty() {
            self.buckets = other.buckets.clone();
        } else {
            for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
                mine.1 += theirs.1;
            }
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Nearest-rank percentile at bucket resolution.
    pub fn percentile(&self, p: f64) -> u64 {
        let mut values: Vec<u64> = self
            .buckets
            .iter()
            .flat_map(|&(bound, n)| std::iter::repeat_n(bound, n as usize))
            .collect();
        traj_sim::percentile_us(&mut values, p)
    }

    /// Mean observation, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// What a phase did on one shard (or the sum over shards).
#[derive(Debug, Clone, Default)]
pub struct ShardDelta {
    /// Server-side request latency, µs.
    pub latency_us: Hist,
    /// Batch-queue wait, µs.
    pub queue_wait_us: Hist,
    /// Rows per flushed prediction batch.
    pub batch_rows: Hist,
    /// WAL fsync duration, µs (empty without a WAL).
    pub fsync_us: Hist,
    /// Admission sheds, all classes.
    pub shed: u64,
    /// Flushes finishing past their SLO deadline.
    pub deadline_misses: u64,
}

fn counter(doc: &Value, path: &[&str]) -> u64 {
    field(doc, path) as u64
}

fn shed_total(doc: &Value) -> u64 {
    ["shed_interactive", "shed_close", "shed_bulk"]
        .iter()
        .map(|k| counter(doc, &["scheduler", k]))
        .sum()
}

impl ShardDelta {
    /// The delta between two `/metrics` documents of one shard.
    pub fn between(before: &Value, after: &Value) -> ShardDelta {
        let hist = |path: &[&str]| match (Hist::at(after, path), Hist::at(before, path)) {
            (Some(a), Some(b)) => a.since(&b),
            _ => Hist::default(),
        };
        ShardDelta {
            latency_us: hist(&["latency_us"]),
            queue_wait_us: hist(&["scheduler", "queue_wait_us"]),
            batch_rows: hist(&["batch_size"]),
            fsync_us: hist(&["durability", "fsync_us"]),
            shed: shed_total(after).saturating_sub(shed_total(before)),
            deadline_misses: counter(after, &["scheduler", "deadline_misses"])
                .saturating_sub(counter(before, &["scheduler", "deadline_misses"])),
        }
    }

    /// Sums shard deltas.
    pub fn add(&mut self, other: &ShardDelta) {
        self.latency_us.add(&other.latency_us);
        self.queue_wait_us.add(&other.queue_wait_us);
        self.batch_rows.add(&other.batch_rows);
        self.fsync_us.add(&other.fsync_us);
        self.shed += other.shed;
        self.deadline_misses += other.deadline_misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One shard scrape, in the server's own rendering.
    fn doc(latency: [u64; 4], count: u64, mean: f64, shed: u64) -> Value {
        let text = format!(
            r#"{{
  "requests_total": {count},
  "latency_us": {{"count": {count}, "mean": {mean:.1}, "p50": 0, "p95": 0, "p99": 0, "buckets": [{{"le": 100, "count": {}}}, {{"le": 200, "count": {}}}, {{"le": 500, "count": {}}}, {{"le": "inf", "count": {}}}]}},
  "batch_size": {{"count": 2, "mean": 1.50, "p50": 1, "p95": 2, "p99": 2, "buckets": [{{"le": 1, "count": 1}}, {{"le": 2, "count": 1}}, {{"le": "inf", "count": 0}}]}},
  "scheduler": {{"queue_wait_us": {{"count": 0, "mean": 0.0, "p50": 0, "p95": 0, "p99": 0, "buckets": [{{"le": 50, "count": 0}}, {{"le": "inf", "count": 0}}]}}, "deadline_misses": 1, "shed_interactive": {shed}, "shed_close": 0, "shed_bulk": 0, "shutdown_rejects": 0}},
  "durability": {{"enabled": false}}
}}"#,
            latency[0], latency[1], latency[2], latency[3]
        );
        serde_json::parse_value(&text).expect("captured document parses")
    }

    #[test]
    fn deltas_come_from_bucket_counts() {
        let before = doc([5, 1, 0, 0], 6, 90.0, 0);
        let after = doc([5, 8, 3, 1], 17, 190.0, 2);
        let d = ShardDelta::between(&before, &after);
        assert_eq!(
            d.latency_us.buckets,
            vec![(100, 0), (200, 7), (500, 3), (500, 1)]
        );
        assert_eq!(d.latency_us.count, 11);
        assert!((d.latency_us.sum - (17.0 * 190.0 - 6.0 * 90.0)).abs() < 1e-9);
        assert_eq!(d.latency_us.percentile(50.0), 200);
        assert_eq!(d.latency_us.percentile(90.0), 500);
        assert_eq!(d.shed, 2);
        assert_eq!(d.deadline_misses, 0);
        assert_eq!(d.batch_rows.count, 0);
        assert_eq!(d.fsync_us, Hist::default());

        let mut sum = d.clone();
        sum.add(&d);
        assert_eq!(sum.latency_us.count, 22);
        assert_eq!(sum.latency_us.percentile(50.0), 200);
    }

    #[test]
    fn lookup_walks_nested_objects() {
        let d = doc([0; 4], 0, 0.0, 3);
        assert_eq!(field(&d, &["scheduler", "shed_interactive"]), 3.0);
        assert_eq!(field(&d, &["scheduler", "missing"]), 0.0);
        assert!(Hist::at(&d, &["durability", "fsync_us"]).is_none());
    }
}
