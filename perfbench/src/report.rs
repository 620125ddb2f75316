//! Metric names, units and the one-line JSON result.
//!
//! The two name lists below are the benchmark's contract with
//! `BENCHMARK.json` (a test keeps them in step): a timed run prints every
//! end-to-end metric, a traced run every per-layer one.

use std::collections::BTreeMap;

use crate::stats::Outcomes;

/// End-to-end metrics: reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("capacity_rps", "1/s"),
    ("offload_gbps", "GB/s"),
    ("sim_host_ms", "ms"),
    ("modelled_step_ms", "ms"),
    ("wire_ratio", "x"),
];

/// Serve-layer figures reported once per fixed offered rate.
const SERVE_RATE_METRICS: &[(&str, &str)] = &[
    ("serve.submit_ns.p50", "ns"),
    ("serve.submit_ns.p99", "ns"),
    ("serve.pacer_lag_us.p50", "us"),
    ("serve.pacer_lag_us.p99", "us"),
    ("serve.in_server_us.p50", "us"),
    ("serve.in_server_us.p99", "us"),
    ("serve.drain_lag_us.p50", "us"),
    ("serve.drain_lag_us.p99", "us"),
    ("serve.completions_per_drain", "count"),
    ("serve.attempted", "count"),
    ("serve.completed", "count"),
    ("serve.shed", "count"),
    ("serve.failed", "count"),
];

/// The fixed offered rates of `serve_mixed`, as metric-name suffixes.
pub const SERVE_RATES: &[(&str, f64)] = &[("r5k", 5_000.0), ("r20k", 20_000.0)];

/// Per-layer metrics: reported by every workload with tracing on. A
/// layer a workload does not exercise reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![("compress.memcpy_gbps".into(), "GB/s")];
    for c in ["zv", "ad", "hf"] {
        for dir in ["compress", "decompress"] {
            v.push((format!("compress.{c}.{dir}_gbps"), "GB/s"));
            v.push((format!("compress.{c}.{dir}_x_memcpy"), "x"));
        }
        v.push((format!("compress.{c}.ratio"), "x"));
    }
    for tag in ["rle", "zvc", "deflate"] {
        v.push((format!("compress.ad.tag_share.{tag}"), "frac"));
    }
    v.push(("compress.zv.compress_4k_us".into(), "us"));
    v.push(("compress.zv.decompress_4k_us".into(), "us"));
    v.push(("core.compress_lines_ms".into(), "ms"));
    v.push(("core.lines".into(), "count"));
    for (m, u) in [
        ("host_ns_per_line", "ns"),
        ("lines", "count"),
        ("modelled_ms", "ms"),
        ("link_util", "frac"),
    ] {
        v.push((format!("gpusim.dma.{m}"), u));
    }
    for (m, u) in [
        ("host_ms", "ms"),
        ("events", "count"),
        ("ns_per_event", "ns"),
        ("modelled_compute_ms", "ms"),
        ("modelled_stall_ms", "ms"),
    ] {
        v.push((format!("vdnn.timeline.{m}"), u));
    }
    for (rate, _) in SERVE_RATES {
        for (m, u) in SERVE_RATE_METRICS {
            v.push((format!("{m}.{rate}"), u));
        }
    }
    for (rate, _) in SERVE_RATES {
        v.push((format!("p50_us.{rate}"), "us"));
        v.push((format!("p99_us.{rate}"), "us"));
    }
    v.push(("fail_frac".into(), "frac"));
    for m in ["codec", "sim", "serve", "bench"] {
        v.push((format!("selftime.{m}_share"), "frac"));
    }
    v.push(("trace.overhead_frac".into(), "frac"));
    v.push(("trace.spans".into(), "count"));
    v.push(("e2e.latency_samples".into(), "count"));
    v.push(("e2e.tail_pct".into(), "pct"));
    v
}

/// Per-layer metrics of the cluster and fabric simulators. Only the
/// `cluster_fabric` workload reports them, after the `per_layer` ones;
/// that workload is not listed in `BENCHMARK.json`.
pub fn cluster_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for case in ["flat_g1024", "node8_g1024", "flat_rr_g8"] {
        for (m, u) in [
            ("host_ms", "ms"),
            ("events", "count"),
            ("ns_per_event", "ns"),
        ] {
            v.push((format!("vdnn.cluster.{case}.{m}"), u));
        }
    }
    v.push(("vdnn.fabric.churn.host_ms".into(), "ms"));
    v.push(("vdnn.fabric.churn.events".into(), "count"));
    v
}

/// Named metric values of one run.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Attempt accounting across the run's measured operations.
    pub outcomes: Outcomes,
    /// End-to-end metrics (timed run) or per-layer ones (traced run).
    pub metrics: Metrics,
    /// Failed correctness gates, one message each.
    pub gates: Vec<String>,
    /// Human-readable detail (ledgers, tables) for standard error.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a failed correctness gate.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.gates.push(what());
        }
    }
}

/// Formats a metric value: full precision, and finite (JSON has no NaN).
fn number(v: f64) -> String {
    if v.is_finite() {
        // `+ 0.0` turns an empty sum's -0.0 into 0.0.
        format!("{:?}", v + 0.0)
    } else {
        "0.0".into()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`,
/// where `metrics` holds exactly the names of `names` (a name the run
/// did not set reports 0).
pub fn result_line(
    correct: bool,
    outcomes: &Outcomes,
    metrics: &Metrics,
    names: &[(String, &str)],
) -> String {
    let body: Vec<String> = names
        .iter()
        .map(|(n, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                number(metrics.get(n).unwrap_or(0.0))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcomes.attempted.max(1),
        outcomes.failures(),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn listed(section: &str) -> Vec<String> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{section}\""))
            .expect("section present");
        let rest = &BENCHMARK_JSON[start..];
        let end = rest.find(']').expect("section closes");
        rest[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(listed("per_layer"), layers);
        assert!(layers.len() <= 128);
        for (n, u) in per_layer() {
            assert!(
                BENCHMARK_JSON.contains(&format!("\"name\": \"{n}\", \"unit\": \"{u}\"")),
                "{n} [{u}]"
            );
        }
    }

    #[test]
    fn result_line_reports_every_name_with_its_unit() {
        let mut m = Metrics::default();
        m.set("a", 1.5);
        let names = vec![("a".to_string(), "ms"), ("b".to_string(), "x")];
        let o = Outcomes {
            attempted: 3,
            completed: 2,
            shed: 1,
            ..Outcomes::default()
        };
        assert_eq!(
            result_line(true, &o, &m, &names),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0.0, \"unit\": \"x\"}}}"
        );
    }
}
