//! Helpers shared by the workloads: timing, response checks, digests.

use mpress_api::{decode_response_line, execute, ApiContext, Request, Response, ServeError};
use serde_json::Value;
use std::time::{Duration, Instant};

/// How many times a serve run sets up, so `setup_s` is a median
/// (`train-cold` sets up more often, see `train_cold.rs`). The timed
/// phase runs on the first set-up; the others run after it (and after
/// `peak_rss_mb` is read), so their threads and allocations do not blur
/// the memory figure.
pub const SETUP_REPS: usize = 5;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn since_ms(t: Instant) -> f64 {
    ms(t.elapsed())
}

/// Executes `req` on a fresh context, as one `mpress-cli … --json` call
/// does, and returns the result with the time taken.
pub fn cold_execute(req: &Request) -> (f64, Result<Response, ServeError>) {
    let ctx = ApiContext::new();
    let t = Instant::now();
    let result = execute(req, &ctx);
    (since_ms(t), result)
}

/// Why a response counts as failed, if it does: a protocol failure, an
/// error response, or a plan that does not fit in memory.
pub fn failure(line: &str) -> Option<&'static str> {
    let Ok(decoded) = decode_response_line(line) else {
        return Some("protocol");
    };
    let Ok((kind, body)) = decoded.result else {
        return Some("error");
    };
    let oom = match kind.as_str() {
        "train" => body.get("succeeded").and_then(Value::as_bool) != Some(true),
        "check" => body.get("bounds_verdict").and_then(Value::as_str) == Some("certified-oom"),
        "compare" => {
            body.get("rows")
                .and_then(Value::as_array)
                .and_then(|rows| {
                    rows.iter()
                        .find(|r| r.get("system").and_then(Value::as_str) == Some("mpress"))
                })
                .and_then(|r| r.get("fits"))
                .and_then(Value::as_bool)
                != Some(true)
        }
        _ => false,
    };
    oom.then_some("oom")
}

/// Simulated TFLOPS of a successful `train` response line.
pub fn train_tflops(line: &str) -> Option<f64> {
    let decoded = decode_response_line(line).ok()?;
    let (kind, body) = decoded.result.ok()?;
    (kind == "train").then(|| body.get("tflops").and_then(Value::as_f64))?
}

/// 64-bit FNV-1a over `parts`, each followed by a newline.
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for b in part.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Peak resident set size of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Load-generator connections: two, or one on a single-core machine.
pub fn connections() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpress_api::{encode_response_line, PlanRequest};

    #[test]
    fn failures_are_classified() {
        let err = encode_response_line(1, &Err::<Response, _>(ServeError::Overloaded { queue: 1 }));
        assert_eq!(failure(&err), Some("error"));
        assert_eq!(failure("not json"), Some("protocol"));
        let (_, result) = cold_execute(&Request::Train(
            PlanRequest::new("bert-0.35b").microbatches(4),
        ));
        let ok = encode_response_line(9, &result);
        assert_eq!(failure(&ok), None);
        assert!(train_tflops(&ok).unwrap() > 0.0);
    }

    #[test]
    fn digest_separates_parts() {
        assert_ne!(digest(["ab", "c"]), digest(["a", "bc"]));
        assert_eq!(digest(["x"]), digest(["x"]));
    }
}
