//! The metric catalogue, the correctness tally and the result line.
//!
//! Every name here is also listed in `BENCHMARK.json` (the smoke test
//! diffs the two). End-to-end metrics come from untraced runs
//! (`--trace 0`), per-layer metrics from traced runs (`--trace 1`).

use std::collections::BTreeMap;

/// One metric: its name and unit.
pub type MetricDef = (&'static str, &'static str);

/// End-to-end metrics, emitted by every workload with `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    ("fixes_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("kept_pct", "%"),
];

/// The grid's compressors by catalog `cli_name`, in first-appearance
/// order over Figs 7–11 and the one-pass figure.
pub const GRID_CLI_NAMES: [&str; 9] = [
    "ndp", "td-tr", "bopw", "nopw", "opw-tr", "td-sp", "opw-sp", "op-fit", "op-cone",
];

/// `Algo::run` busy time per [`GRID_CLI_NAMES`] entry, same order.
pub const COMPRESS_METRICS: [&str; 9] = [
    "core.compress_s.ndp",
    "core.compress_s.td-tr",
    "core.compress_s.bopw",
    "core.compress_s.nopw",
    "core.compress_s.opw-tr",
    "core.compress_s.td-sp",
    "core.compress_s.opw-sp",
    "core.compress_s.op-fit",
    "core.compress_s.op-cone",
];

/// Per-layer metrics, emitted by every workload with `--trace 1`.
pub const PER_LAYER: &[MetricDef] = &[
    ("gen.dataset_s", "s"),
    ("gen.fix_ns", "ns"),
    ("gen.driver_busy_share", "ratio"),
    ("geom.sed_scan_ns_per_fix", "ns"),
    ("geom.perp_scan_ns_per_fix", "ns"),
    ("model.columns_ns_per_fix", "ns"),
    ("core.compress_s.ndp", "s"),
    ("core.compress_s.td-tr", "s"),
    ("core.compress_s.bopw", "s"),
    ("core.compress_s.nopw", "s"),
    ("core.compress_s.opw-tr", "s"),
    ("core.compress_s.td-sp", "s"),
    ("core.compress_s.opw-sp", "s"),
    ("core.compress_s.op-fit", "s"),
    ("core.compress_s.op-cone", "s"),
    ("core.kept_points", "count"),
    ("eval.evaluate_sweep_s", "s"),
    ("eval.alpha_m", "m"),
    ("serve.submit_ns", "ns"),
    ("serve.backpressure_per_kfix", "count"),
    ("serve.queue_ns", "ns"),
    ("serve.session_push_ns", "ns"),
    ("serve.worker_residual_ns", "ns"),
    ("serve.session_bytes", "B"),
    ("serve.batch_fixes_mean", "count"),
    ("serve.drain_s", "s"),
    ("serve.ack_mean_ms", "ms"),
    ("serve.ack_p99_ms", "ms"),
    ("store.buffer_ns", "ns"),
    ("store.commit_us", "us"),
    ("store.fsyncs_per_kfix", "count"),
    ("store.wal_bytes_per_record", "B"),
    ("store.wal_bytes_per_fix", "B"),
    ("store.replay_records_per_s", "1/s"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.unattributed_pct", "%"),
];

/// The metric set a run emits.
pub fn catalogue(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Collected metric values of one run.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `name`; panics on a name outside the catalogue (a bug in
    /// this benchmark, not in the measured program).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// The `"metrics"` JSON object over `defs`, in catalogue order.
    ///
    /// # Errors
    /// A missing or non-finite value.
    pub fn to_json(&self, defs: &[MetricDef]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(defs.len());
        for (name, unit) in defs {
            let v = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// Correctness tally: units of work checked and units that failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Units checked.
    pub attempted: u64,
    /// Units that failed their check.
    pub failed: u64,
    /// One line per failure kind, for the log.
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts `n` units, `bad` of which failed; `what` describes a
    /// failure.
    pub fn units(&mut self, n: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        if bad > 0 {
            self.failed += bad;
            self.notes.push(what());
        }
    }

    /// Counts one whole-run check.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.units(1, u64::from(!ok), what);
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn json_refuses_missing_and_non_finite_values() {
        let mut m = Metrics::default();
        m.set("fixes_per_s", 1.5);
        assert!(m.to_json(END_TO_END).is_err());
        for (name, _) in END_TO_END {
            m.set(name, 2.0);
        }
        let json = m.to_json(END_TO_END).unwrap();
        assert!(
            json.contains("\"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}"),
            "{json}"
        );
        m.set("kept_pct", f64::NAN);
        assert!(m.to_json(END_TO_END).is_err());
    }

    #[test]
    fn compress_family_follows_grid_names() {
        for (cli, name) in GRID_CLI_NAMES.iter().zip(COMPRESS_METRICS) {
            assert_eq!(name, format!("core.compress_s.{cli}"));
            assert!(PER_LAYER.contains(&(name, "s")), "{name}");
        }
    }
}
