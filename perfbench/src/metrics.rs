//! The metric registry and the result line.
//!
//! Every workload reports every metric of the set its mode asks for:
//! the end-to-end set without tracing, the per-layer set with it. The
//! names here must match `BENCHMARK.json` (a test pins that).

use serde_json::Value;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. All are lower-is-better.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("final_cost", "cost"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. A layer a workload does not
/// exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("topology.generate_ms", "ms"),
    ("greedy.reference_ms", "ms"),
    ("rl.train_s", "s"),
    ("rl.agent_s", "s"),
    ("rl.env_s", "s"),
    ("rl.epochs", "count"),
    ("rl.env_steps", "count"),
    ("rl.trajectories_completed", "count"),
    ("rl.trajectories_truncated", "count"),
    ("rl.completed_ratio", "ratio"),
    ("eval.scenario_checks", "count"),
    ("eval.stateful_skips", "count"),
    ("eval.mwu_calls", "count"),
    ("eval.lp_calls", "count"),
    ("eval.cut_reuse_hits", "count"),
    ("eval.witness_reuse_hits", "count"),
    ("eval.greedy_hit_ratio", "ratio"),
    ("eval.solver_per_check", "ratio"),
    ("eval.validate_ms", "ms"),
    ("eval.cert_retained_ratio", "ratio"),
    ("master.solve_s", "s"),
    ("master.cut_rounds", "count"),
    ("master.cuts_added", "count"),
    ("lp.bb_nodes", "count"),
    ("lp.simplex_iterations", "count"),
    ("lp.refactorizations", "count"),
    ("lp.warm_start_pivots", "count"),
    ("lp.cold_solves", "count"),
    ("supervisor.retries", "count"),
    ("supervisor.degrades", "count"),
    ("serve.submit_ack_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_evictions", "count"),
    ("serve.shed", "count"),
    ("serve.journal_bytes_per_request", "bytes"),
    ("serve.generator_late_ms", "ms"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.layer_coverage", "ratio"),
];

/// The metric set a mode reports.
pub fn registry(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Measured values by metric name, plus the run's verdict.
#[derive(Debug, Default)]
pub struct Outcome {
    pub values: BTreeMap<String, f64>,
    /// Operations attempted and how many of them failed (errors,
    /// refusals, timeouts, invalid outputs).
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations; any entry makes `correct` false.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Record a correctness violation.
    pub fn error(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        println!("CHECK FAILED: {msg}");
        self.errors.push(msg);
    }

    /// Require `cond`, recording `msg` as a violation otherwise.
    pub fn check(&mut self, cond: bool, msg: impl FnOnce() -> String) {
        if !cond {
            self.error(msg());
        }
    }

    /// The result line: exactly the registry's metrics for this mode,
    /// in registry order. A metric the workload failed to measure is a
    /// correctness violation, never a silently missing key.
    pub fn result_line(&mut self, trace: bool) -> String {
        let mut metrics = Vec::new();
        for &(name, unit) in registry(trace) {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                other => {
                    self.error(format!("metric {name} not measured ({other:?})"));
                    0.0
                }
            };
            metrics.push((
                name.to_string(),
                Value::Object(vec![
                    ("value".to_string(), Value::Num(value)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ]),
            ));
        }
        let line = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.errors.is_empty())),
            ("attempted".to_string(), Value::Num(self.attempted as f64)),
            ("failed".to_string(), Value::Num(self.failed as f64)),
            ("metrics".to_string(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("result line serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
        let Some(Value::Array(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no `{key}` list");
        };
        items
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(|v| v.as_str()).expect("name");
                let unit = m.get("unit").and_then(|v| v.as_str()).expect("unit");
                (name.to_string(), unit.to_string())
            })
            .collect()
    }

    fn registered(set: &[(&str, &str)]) -> Vec<(String, String)> {
        set.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(declared(&doc, "end_to_end"), registered(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), registered(PER_LAYER));
    }

    #[test]
    fn result_line_carries_exactly_the_registry() {
        for trace in [false, true] {
            let mut out = Outcome {
                attempted: 3,
                ..Outcome::default()
            };
            for (i, &(name, _)) in registry(trace).iter().enumerate() {
                out.set(name, i as f64 + 0.5);
            }
            out.set("not.a.metric", 1.0);
            let line: Value = serde_json::from_str(&out.result_line(trace)).unwrap();
            assert_eq!(line.get("correct").and_then(|v| v.as_bool()), Some(true));
            let Some(Value::Object(metrics)) = line.get("metrics") else {
                panic!("metrics object");
            };
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let want: Vec<&str> = registry(trace).iter().map(|&(n, _)| n).collect();
            assert_eq!(names, want);
        }
    }

    #[test]
    fn a_missing_metric_fails_the_run() {
        let mut out = Outcome::default();
        out.set("setup_s", 1.0);
        let line: Value = serde_json::from_str(&out.result_line(false)).unwrap();
        assert_eq!(line.get("correct").and_then(|v| v.as_bool()), Some(false));
    }
}
