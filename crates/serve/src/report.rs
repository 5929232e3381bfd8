//! Run reports: a dependency-free latency histogram and the JSON
//! summary `trajc serve --report-json` writes (the format
//! `BENCH_PR10.json` aggregates).
//!
//! The histogram deliberately duplicates the shape of
//! `traj_obs::Histogram` (log₂ buckets) *without* atomics or the `obs`
//! feature: each shard worker owns one, records plain integers on its
//! own thread, and the service merges them at shutdown — so the report
//! carries real tail latencies even in a `--no-default-features` build
//! where all instrumentation compiles out.

use std::time::Duration;

/// Log₂-bucketed latency histogram (nanoseconds). Bucket `i ≥ 1` holds
/// values in `[2^(i-1), 2^i)`; bucket 0 holds zero.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHist {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHist { buckets: [0; 64], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    fn bucket_index(v: u64) -> usize {
        // 0 → bucket 0; otherwise one bucket per bit length, capped.
        (64 - v.leading_zeros() as usize).min(63)
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        if let Some(b) = self.buckets.get_mut(Self::bucket_index(v)) {
            *b += 1;
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records a duration in nanoseconds (saturating).
    pub fn record_duration(&mut self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Folds `other` into `self` (shutdown-time shard merge).
    pub fn merge(&mut self, other: &LatencyHist) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded values (0 when empty).
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) as the midpoint of the
    /// bucket holding that rank, clamped into the observed `[min, max]`
    /// range. Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max; // tracked exactly, no bucket estimate needed
        }
        let rank = {
            let r = (q * self.count as f64).ceil();
            if r < 1.0 {
                1
            } else if r >= self.count as f64 {
                self.count
            } else {
                // In-range by the guards above.
                r as u64
            }
        };
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                let est = if i == 0 {
                    0
                } else {
                    let lo = 1u64 << (i - 1);
                    let hi = if i >= 63 { u64::MAX } else { (1u64 << i) - 1 };
                    lo / 2 + hi / 2 + 1
                };
                return est.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// The configuration block echoed at the head of a serve report, so a
/// result file is self-describing.
#[derive(Debug, Clone)]
pub struct ReportConfig {
    /// Store shard count.
    pub shards: usize,
    /// Session codec name (`raw`, `op-cone`, …).
    pub algo: String,
    /// Session SED tolerance, metres (unused by `raw`).
    pub eps: f64,
    /// Group commit batch bound.
    pub max_batch: usize,
    /// Group commit delay bound, microseconds.
    pub max_delay_us: u64,
    /// Per-shard queue capacity.
    pub queue_cap: usize,
    /// Load-generator fleet size.
    pub movers: u64,
    /// Fixes per mover.
    pub fixes_per_mover: u64,
    /// Open-loop offered rate, fixes/s over the whole fleet (0 = as
    /// fast as possible).
    pub rate: f64,
    /// Load-generator submitter threads.
    pub threads: usize,
}

/// Everything one `trajc serve --load-gen` run measured.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// The configuration that produced these numbers.
    pub config: ReportConfig,
    /// Wall-clock seconds from first submit to full shutdown (all
    /// sessions finished, all shards committed).
    pub duration_s: f64,
    /// Fixes offered to the service.
    pub submitted: u64,
    /// Fixes shed with typed backpressure.
    pub rejected: u64,
    /// Fixes a session codec rejected (non-finite / non-monotone).
    pub invalid: u64,
    /// Fixes acknowledged after their covering fsync.
    pub acked: u64,
    /// Compressed points actually written to the WALs.
    pub emitted: u64,
    /// Fsync batches across all shards.
    pub commits: u64,
    /// Total WAL bytes on disk after shutdown (absent for in-memory
    /// test backends).
    pub wal_bytes: Option<u64>,
    /// Submit→fsync ack latency, nanoseconds.
    pub ack: LatencyHist,
}

impl ServeReport {
    /// Acknowledged fixes per wall-clock second.
    #[must_use]
    pub fn acks_per_sec(&self) -> f64 {
        if self.duration_s > 0.0 {
            self.acked as f64 / self.duration_s
        } else {
            0.0
        }
    }

    /// Mean fixes per fsync (the group-commit amortization factor).
    #[must_use]
    pub fn mean_group_size(&self) -> f64 {
        if self.commits > 0 {
            self.emitted as f64 / self.commits as f64
        } else {
            0.0
        }
    }

    /// Renders the report as a self-contained JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let wal_bytes =
            self.wal_bytes.map_or_else(|| "null".to_string(), |b| b.to_string());
        format!(
            "{{\n  \"config\": {{\n    \"shards\": {},\n    \"algo\": \"{}\",\n    \
             \"eps_m\": {},\n    \"max_batch\": {},\n    \
             \"max_delay_us\": {},\n    \"queue_cap\": {},\n    \"movers\": {},\n    \
             \"fixes_per_mover\": {},\n    \"rate_fixes_per_s\": {},\n    \"threads\": {}\n  }},\n  \
             \"duration_s\": {:.6},\n  \"submitted\": {},\n  \"rejected\": {},\n  \
             \"invalid\": {},\n  \"acked\": {},\n  \"emitted\": {},\n  \"commits\": {},\n  \
             \"wal_bytes\": {},\n  \"acks_per_sec\": {:.1},\n  \"mean_group_size\": {:.2},\n  \
             \"ack_latency_ns\": {{\n    \"count\": {},\n    \"mean\": {},\n    \"p50\": {},\n    \
             \"p90\": {},\n    \"p99\": {},\n    \"p999\": {},\n    \"max\": {}\n  }}\n}}\n",
            c.shards,
            c.algo,
            c.eps,
            c.max_batch,
            c.max_delay_us,
            c.queue_cap,
            c.movers,
            c.fixes_per_mover,
            c.rate,
            c.threads,
            self.duration_s,
            self.submitted,
            self.rejected,
            self.invalid,
            self.acked,
            self.emitted,
            self.commits,
            wal_bytes,
            self.acks_per_sec(),
            self.mean_group_size(),
            self.ack.count(),
            self.ack.mean(),
            self.ack.quantile(0.50),
            self.ack.quantile(0.90),
            self.ack.quantile(0.99),
            self.ack.quantile(0.999),
            if self.ack.count() == 0 { 0 } else { self.ack.quantile(1.0) },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_reach_the_tail() {
        let mut h = LatencyHist::new();
        for _ in 0..998 {
            h.record(100);
        }
        h.record(90_000);
        h.record(100_000);
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5);
        assert!((64..=128).contains(&p50), "p50 {p50}");
        let p999 = h.quantile(0.999);
        assert!((65_536..=100_000).contains(&p999), "p999 {p999}");
        assert_eq!(h.quantile(1.0), 100_000, "max is exact");
        assert!(h.mean() > 100 && h.mean() < 1_000);
    }

    #[test]
    fn merge_combines_shards() {
        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        a.record(10);
        b.record(1_000_000);
        b.record_duration(Duration::from_nanos(20));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        let p99 = a.quantile(0.99);
        assert!(p99 > 100_000, "tail from the merged shard: {p99}");
        assert_eq!(LatencyHist::new().quantile(0.99), 0, "empty histogram");
    }

    #[test]
    fn report_json_is_parseable_and_complete() {
        let mut ack = LatencyHist::new();
        for i in 1..=100u64 {
            ack.record(i * 1_000);
        }
        let report = ServeReport {
            config: ReportConfig {
                shards: 2,
                algo: "op-cone".into(),
                eps: 30.0,
                max_batch: 256,
                max_delay_us: 500,
                queue_cap: 1024,
                movers: 100,
                fixes_per_mover: 50,
                rate: 0.0,
                threads: 1,
            },
            duration_s: 2.5,
            submitted: 5_000,
            rejected: 10,
            invalid: 0,
            acked: 4_990,
            emitted: 800,
            commits: 40,
            wal_bytes: Some(32_800),
            ack,
        };
        let json = report.to_json();
        let doc = traj_obs::json::parse(&json).expect("report must be valid JSON");
        let get = |k: &str| doc.get(k).expect(k);
        assert_eq!(get("acked").as_f64(), Some(4_990.0));
        assert_eq!(
            doc.get("config").and_then(|c| c.get("shards")).and_then(|v| v.as_f64()),
            Some(2.0)
        );
        assert_eq!(get("acks_per_sec").as_f64(), Some(1996.0));
        assert_eq!(get("mean_group_size").as_f64(), Some(20.0));
        let tail = doc.get("ack_latency_ns").and_then(|h| h.get("p999")).unwrap();
        assert!(tail.as_f64().unwrap() > 0.0);
        assert_eq!(get("wal_bytes").as_f64(), Some(32_800.0));
    }
}
