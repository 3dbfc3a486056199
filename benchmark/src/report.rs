//! The metric names this benchmark emits, and the two lines it prints.
//!
//! `BENCHMARK.json` declares every name with its unit; the tables here
//! are the code's copy of that declaration. [`Report::print`] refuses to
//! emit a name that is not in the table or to omit one that is, and a
//! unit test holds the tables equal to `BENCHMARK.json`, so the file,
//! the tables and the output cannot drift apart.

use crate::host::HostReport;
use crate::stats::Summary;
use embrace_obs::json::escape;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of the end-to-end metrics, printed with `--trace 0`.
/// The sixth, `failed_share`, is expected to read exactly 0, which the
/// driver's contract forbids of a declared metric: it is the result line's
/// own `failed` ÷ `attempted`, and the detail line spells it out.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("tokens_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("cpu_ms_per_step", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// `(name, unit)` of the per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.cores", "count"),
    ("host.calib_ms", "ms"),
    ("host.calib_spread", "ratio"),
    ("host.steal_share", "ratio"),
    ("host.rounds", "count"),
    ("tensor.add_assign_gbps", "GB/s"),
    ("tensor.add_assign_scalar_gbps", "GB/s"),
    ("tensor.add_assign_both_gbps", "GB/s"),
    ("tensor.coalesce_us", "us"),
    ("tensor.merge_rowsparse_us", "us"),
    ("tensor.alloc_events_per_step", "count"),
    ("tensor.alloc_bytes_per_step", "B"),
    ("transport.pingpong_us", "us"),
    ("transport.slot_pingpong_us", "us"),
    ("transport.stream_gbps", "GB/s"),
    ("transport.slot_stream_gbps", "GB/s"),
    ("transport.msgs_per_step", "count"),
    ("transport.bytes_per_step", "B"),
    ("transport.copied_bytes_per_step", "B"),
    ("transport.control_msgs_per_step", "count"),
    ("transport.recv_retries", "count"),
    ("ops.barrier_us", "us"),
    ("ops.ring_allreduce_4m_ms", "ms"),
    ("ops.ring_allreduce_4m_bound_frac", "ratio"),
    ("ops.ring_allreduce_64b_us", "us"),
    ("ops.allgather_tokens_us", "us"),
    ("ops.alltoall_dense_us", "us"),
    ("ops.alltoallv_sparse_us", "us"),
    ("ops.alltoallv_tokens_us", "us"),
    ("ops.sparse_allreduce_us", "us"),
    ("ops.collective_share", "ratio"),
    ("scheduler.noop_us", "us"),
    ("scheduler.chunked_allreduce_256k_ms", "ms"),
    ("scheduler.chunk_overhead_ratio", "ratio"),
    ("scheduler.queue_wait_us_p50", "us"),
    ("scheduler.exec_us_p50", "us"),
    ("scheduler.train_step_ratio", "ratio"),
    ("core.vertical_split_us", "us"),
    ("core.forward_us", "us"),
    ("core.exchange_grad_us", "us"),
    ("dlsim.adam_sparse_us", "us"),
    ("dlsim.adam_dense_ms", "ms"),
    ("models.zipf_batch_us", "us"),
    ("ps.lookup_us_p50", "us"),
    ("ps.lookup_us_p99", "us"),
    ("ps.push_us_p50", "us"),
    ("ps.push_us_p99", "us"),
    ("ps.cache_hit_rate", "ratio"),
    ("ps.wire_savings", "ratio"),
    ("ps.rows_fetched_per_lookup", "count"),
    ("ps.service_new_ms", "ms"),
    ("trainer.step_ms_p50", "ms"),
    ("trainer.step_ms_p99", "ms"),
    ("trainer.compute_share", "ratio"),
    ("trainer.construct_ms", "ms"),
    ("trainer.final_loss", "loss"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("obs.spans_per_step", "count"),
];

/// How much work a run's rounds did, for the detail line: `compare`
/// refuses to set runs of different shapes side by side.
pub struct RunShape {
    pub rounds: usize,
    pub steps_per_round: usize,
}

/// One run's results, keyed by metric name.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<String, (Summary, Option<String>)>,
    /// Operations attempted and failed (typed errors, caught panics,
    /// failed output checks).
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct, one line per failed check.
    pub problems: Vec<String>,
}

impl Report {
    /// Record a distribution (median is the reported value).
    pub fn put(&mut self, name: &str, s: Summary) {
        self.values.insert(name.to_string(), (s, None));
    }

    /// Record a plain number.
    pub fn put_value(&mut self, name: &str, v: f64) {
        self.put(name, Summary::single(v));
    }

    /// Record a distribution with a remark for the detail line (which
    /// percentile a tail was actually taken at).
    pub fn put_noted(&mut self, name: &str, s: Summary, note: String) {
        self.values.insert(name.to_string(), (s, Some(note)));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(s, _)| s.median)
    }

    /// Count one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// The names recorded that `table` does not declare, and the names it
    /// declares that were not recorded.
    fn mismatch(&self, table: &[(&str, &str)]) -> Vec<String> {
        let mut out = Vec::new();
        for name in self.values.keys() {
            if !table.iter().any(|(n, _)| n == name) {
                out.push(format!("emitted but not declared: {name}"));
            }
        }
        for (n, _) in table {
            match self.values.get(*n) {
                None => out.push(format!("declared but not emitted: {n}")),
                Some((s, _)) if !s.median.is_finite() => {
                    out.push(format!("not a finite number: {n}"))
                }
                Some(_) => {}
            }
        }
        out
    }

    /// Render the detail line (medians with quartiles and n, for people
    /// and for `compare`) and the result line (the driver's contract).
    /// A name mismatch against `table` is a failed check like any other.
    pub fn render(
        mut self,
        table: &[(&str, &str)],
        workload: &str,
        seed: u64,
        trace: bool,
        host: &HostReport,
        shape: &RunShape,
    ) -> (String, String, bool) {
        for m in self.mismatch(table) {
            self.check(false, || m);
        }
        let unit = |name: &str| table.iter().find(|(n, _)| *n == name).map_or("", |(_, u)| u);
        let attempted = self.attempted.max(1);
        let mut detail = String::new();
        let _ = write!(
            detail,
            "{{\"workload\":\"{}\",\"seed\":{seed},\"trace\":{},\"steps_per_round\":{},\"failed_share\":{},\"noisy_host\":{},\"host\":{{\"cores\":{},\"calib_ms\":{},\"calib_spread\":{},\"steal_share\":{},\"rounds\":{}}},\"problems\":[{}],\"detail\":{{",
            escape(workload),
            u8::from(trace),
            shape.steps_per_round,
            self.failed as f64 / attempted as f64,
            host.noisy(),
            host.cores,
            host.calib_ms,
            host.calib_spread,
            host.steal_share,
            shape.rounds,
            self.problems.iter().map(|p| format!("\"{}\"", escape(p))).collect::<Vec<_>>().join(",")
        );
        let mut metrics = String::new();
        let mut first = true;
        for (name, (s, note)) in &self.values {
            if !s.median.is_finite() || unit(name).is_empty() {
                continue;
            }
            let sep = if first { "" } else { "," };
            first = false;
            let _ = write!(
                detail,
                "{sep}\"{name}\":{{\"median\":{},\"q1\":{},\"q3\":{},\"n\":{},\"unit\":\"{}\"",
                s.median,
                s.q1,
                s.q3,
                s.n,
                unit(name)
            );
            if let Some(note) = note {
                let _ = write!(detail, ",\"note\":\"{}\"", escape(note));
            }
            detail.push('}');
            let _ = write!(
                metrics,
                "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
                s.median,
                unit(name)
            );
        }
        detail.push_str("}}");
        let correct = self.failed == 0;
        let result = format!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.failed
        );
        (detail, result, correct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embrace_obs::json::{self, Value};

    const CALM: HostReport =
        HostReport { cores: 2, calib_ms: 20.0, calib_spread: 0.01, steal_share: 0.0 };
    const ROUNDS: RunShape = RunShape { rounds: 9, steps_per_round: 150 };

    fn full(table: &[(&str, &str)]) -> Report {
        let mut r = Report::default();
        for (i, (n, _)) in table.iter().enumerate() {
            r.put_value(n, 1.5 + i as f64);
        }
        r.attempted = 10;
        r
    }

    /// `BENCHMARK.json` and the tables declare the same names and units,
    /// and every name fits the contract's alphabet.
    #[test]
    fn tables_match_benchmark_json() {
        let v = json::parse(crate::compare::DECLARATION).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = v
                .get(key)
                .and_then(Value::as_arr)
                .unwrap_or_else(|| panic!("{key} array"))
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Value::as_str).expect("string field").to_string();
                    assert!(matches!(s("better").as_str(), "higher" | "lower"), "{key} better");
                    (s("name"), s("unit"))
                })
                .collect();
            for (n, u) in &declared {
                assert!(
                    table.iter().any(|(tn, tu)| tn == n && tu == u),
                    "{key}: declared but never emitted (or unit differs): {n} [{u}]"
                );
            }
            for (n, _) in table {
                assert!(
                    declared.iter().any(|(dn, _)| dn == n),
                    "{key}: emitted but not declared: {n}"
                );
                assert!(
                    n.len() <= 64
                        && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                        && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "{key}: name outside the contract's alphabet: {n}"
                );
            }
            assert_eq!(declared.len(), table.len(), "{key}: a name is declared twice");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let (detail, result, correct) =
            full(END_TO_END).render(END_TO_END, "w", 3, false, &CALM, &ROUNDS);
        assert!(correct);
        let v = json::parse(&result).expect("result parses");
        let keys: Vec<&str> = v.as_obj().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(10.0));
        let m = v.get("metrics").and_then(Value::as_obj).expect("metrics");
        assert_eq!(m.len(), END_TO_END.len());
        let d = json::parse(&detail).expect("detail parses");
        assert_eq!(d.get("workload").and_then(Value::as_str), Some("w"));
        assert_eq!(d.get("noisy_host"), Some(&Value::Bool(false)));
        assert_eq!(d.get("host").and_then(|h| h.get("rounds")).and_then(Value::as_f64), Some(9.0));
        assert_eq!(d.get("steps_per_round").and_then(Value::as_f64), Some(150.0));
        assert_eq!(d.get("failed_share").and_then(Value::as_f64), Some(0.0));
        assert_eq!(
            d.get("detail")
                .and_then(|x| x.get("setup_s"))
                .and_then(|x| x.get("n"))
                .and_then(Value::as_f64),
            Some(1.0)
        );
    }

    #[test]
    fn undeclared_missing_and_non_finite_names_fail_the_run() {
        let mut r = full(END_TO_END);
        r.put_value("not.declared", 1.0);
        let (_, result, correct) = r.render(END_TO_END, "w", 0, false, &CALM, &ROUNDS);
        assert!(!correct);
        assert!(json::parse(&result).expect("still valid json").get("metrics").is_some());

        let mut r = Report::default();
        r.put_value("setup_s", 1.0);
        let (detail, _, correct) = r.render(END_TO_END, "w", 0, false, &CALM, &ROUNDS);
        assert!(!correct && detail.contains("declared but not emitted: tokens_per_s"));

        let mut r = full(END_TO_END);
        r.put_value("setup_s", f64::NAN);
        let (detail, result, correct) = r.render(END_TO_END, "w", 0, false, &CALM, &ROUNDS);
        assert!(!correct && detail.contains("not a finite number: setup_s"));
        json::parse(&result).expect("NaN never reaches the output");
    }
}
