//! The metric catalogue and the result the benchmark prints.

use crate::stats::Percentile;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
    ("train_per_s", "1/s"),
    ("train_p50_ms", "ms"),
    ("sim_tflops", "TFLOPS"),
    ("req_per_s", "1/s"),
    ("req_p50_ms", "ms"),
    ("req_p95_ms", "ms"),
    ("hot_p50_ms", "ms"),
    ("hot_p95_ms", "ms"),
    ("cold_p50_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pipeline.lower_ms", "ms"),
    ("core.profile_ms", "ms"),
    ("core.plan_self_ms", "ms"),
    ("core.ms_per_emulation", "ms"),
    ("core.search.emulator_runs", "count"),
    ("core.search.bounds_pruned", "count"),
    ("core.search.bound_aborts", "count"),
    ("core.search.cache_hits", "count"),
    ("core.search.refinement_rounds", "count"),
    ("core.search.steals", "count"),
    ("core.search.delta_replays", "count"),
    ("core.search.prune_frac", "frac"),
    ("core.search.spec_useful_frac", "frac"),
    ("core.search.windows_replayed_frac", "frac"),
    ("par.pool_width", "count"),
    ("par.peak_workers", "count"),
    ("sim.simulate_ms", "ms"),
    ("sim.ns_per_op", "ns"),
    ("analyze.verify_ms", "ms"),
    ("analyze.certify_ms", "ms"),
    ("cache.plan_hit_frac", "frac"),
    ("cache.plan_lookups", "count"),
    ("cache.emu_hit_frac", "frac"),
    ("cache.emu_lookups", "count"),
    ("cache.plan_evictions", "count"),
    ("api.exec_hot_ms.plan", "ms"),
    ("api.exec_hot_ms.check", "ms"),
    ("api.exec_hot_ms.train", "ms"),
    ("api.exec_hot_ms.compare", "ms"),
    ("api.exec_cold_ms", "ms"),
    ("api.wire.encode_req_us", "us"),
    ("api.wire.decode_req_us", "us"),
    ("api.wire.encode_resp_us", "us"),
    ("api.wire.decode_resp_us", "us"),
    ("serve.rtt_stats_ms", "ms"),
    ("serve.rtt_stats_first_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.hot_wait_ms", "ms"),
    ("serve.batches", "count"),
    ("serve.batch_size_mean", "count"),
    ("serve.dedup_hits", "count"),
    ("serve.overloaded", "count"),
    ("loadgen.lag_p95_ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("trace.accounted_frac", "frac"),
];

/// Facts about the run recorded beside its metrics.
#[derive(Debug, Clone)]
pub struct Env {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests whose outputs were checked.
    pub attempted: u64,
    /// Errors, protocol failures, mismatches and out-of-memory plans.
    pub failed: u64,
    /// Byte mismatches, unstable digests and lost responses; any of
    /// them makes the run incorrect.
    pub mismatches: u64,
    /// Digest of every distinct response body, in canonical order.
    pub digest: u64,
    metrics: BTreeMap<&'static str, f64>,
    /// Percentiles with the sample counts they rest on.
    samples: Vec<(&'static str, Percentile)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not in the metric catalogue"
        );
        self.metrics.insert(name, value);
    }

    /// Sets `name` to the percentile and keeps its sample count.
    pub fn set_pct(&mut self, name: &'static str, pct: Option<Percentile>) {
        match pct {
            Some(p) => {
                self.set(name, p.value);
                self.samples.push((name, p));
            }
            None => self.set(name, 0.0),
        }
    }

    /// `ok_frac`: the share of attempted requests that did not fail.
    pub fn set_ok_frac(&mut self) {
        self.set(
            "ok_frac",
            1.0 - self.failed as f64 / self.attempted.max(1) as f64,
        );
    }

    pub fn metric(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    pub fn correct(&self) -> bool {
        self.mismatches == 0 && self.attempted > 0
    }

    /// The catalogue this run prints; panics if the run left one of its
    /// metrics unset, which is a bug in the benchmark.
    fn catalogue(&self, trace: bool) -> &'static [(&'static str, &'static str)] {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        for (name, _) in catalogue {
            assert!(
                self.metrics.contains_key(name),
                "metric {name} was not measured"
            );
        }
        catalogue
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_line(&self, trace: bool) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in self.catalogue(trace).iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                metrics,
                "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(self.metric(name))
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }

    /// Human-readable lines: every metric with its unit, the sample
    /// counts behind each percentile, and the response digest.
    pub fn summary(&self, trace: bool) -> String {
        let mut out = String::new();
        for (name, unit) in self.catalogue(trace) {
            let _ = writeln!(out, "{name:<36} {:>16.6} {unit}", self.metric(name));
        }
        for (name, p) in &self.samples {
            let _ = writeln!(out, "samples {name}: n={} beyond={}", p.samples, p.beyond);
        }
        let _ = writeln!(out, "response digest {:016x}", self.digest);
        out
    }

    /// The run record written next to the spans: environment, metrics,
    /// sample counts and correctness.
    pub fn record_json(&self, env: &Env) -> String {
        let mut samples = String::new();
        for (i, (name, p)) in self.samples.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                samples,
                "{sep}\"{name}\":{{\"samples\":{},\"beyond\":{}}}",
                p.samples, p.beyond
            );
        }
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
             \"env\":{{\"nproc\":{nproc},\"pool_width\":{},\"git_commit\":\"{}\",\"build_profile\":\"{profile}\"}},\
             \"digest\":\"{:016x}\",\"mismatches\":{},\"samples\":{{{samples}}},\"result\":{}}}\n",
            env.workload,
            env.seed,
            env.seconds,
            env.trace,
            mpress_par::pool_width(),
            git_commit(),
            self.digest,
            self.mismatches,
            self.result_line(env.trace)
        )
    }
}

/// JSON has no NaN or infinity; a metric that came out non-finite is
/// printed as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The commit under test, when the benchmark runs inside a git checkout.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// `BENCHMARK.json` at the repository root names exactly the
    /// metrics this catalogue prints, with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_owned();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r.set("setup_s", f64::NAN);
        let doc = serde_json::from_str(&r.result_line(false)).unwrap();
        let Value::Object(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
        let metrics = doc.get("metrics").unwrap();
        let setup = metrics.get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(0.0));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    }
}
