//! Deterministic load generator for `mpress-serve`; writes
//! `BENCH_serve.json`.
//!
//! Drives a daemon with a fixed menu of mixed requests (plan, check,
//! train, compare over several models) from several concurrent client
//! connections, then verifies the service contract end to end:
//!
//! * every response body for a given menu entry is **byte-identical**
//!   across clients and repetitions,
//! * each body is byte-identical to executing the same request
//!   **locally** through `mpress_api::exec` with a cold context,
//! * repeats were **served, not re-searched**: the plan cache missed at
//!   most once per distinct plan on the menu, and the response memo or
//!   the plan cache answered at least one repeat,
//! * the daemon counted **zero protocol errors**.
//!
//! Output schema:
//!
//! ```json
//! {"clients": 4, "requests": 240, "p50_ms": 1.2, "p99_ms": 40.0,
//!  "response_hits": 234, "plan_cache_hits": 1, "plan_cache_misses": 5,
//!  "overloaded": 0, "protocol_errors": 0, "byte_identical": true}
//! ```
//!
//! Flags: `--out PATH` (default `BENCH_serve.json`), `--addr HOST:PORT`
//! (drive an external daemon; default starts one in-process on an
//! ephemeral port), `--clients N` (default 4), `--requests N` (total,
//! default 240), `--max-p99-ms MS` (gate: exit 1 when exceeded),
//! `--shutdown` (send a `shutdown` request when done — for external
//! daemons started by scripts).

use mpress_api::{execute, ApiContext, PlanRequest, Request, ServeError};
use mpress_serve::{Client, ServeConfig};
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Distinct plans behind [`menu`]: its `plan` and `check` of
/// `bert-0.64b` on DGX-1 share one, so a daemon that searches each plan
/// once misses the plan cache at most this often.
const DISTINCT_PLANS: u64 = 5;

/// The fixed request menu every client cycles through. Weighted toward
/// `plan` (the plan cache's path) with one of each other kind.
fn menu() -> Vec<Request> {
    vec![
        Request::Plan(PlanRequest::new("bert-0.64b").microbatches(8)),
        Request::Plan(PlanRequest::new("bert-1.67b").microbatches(8)),
        Request::Plan(
            PlanRequest::new("bert-0.64b")
                .microbatches(8)
                .opts("recompute"),
        ),
        Request::Check(PlanRequest::new("bert-0.64b").microbatches(8)),
        Request::Train(PlanRequest::new("bert-0.35b").microbatches(8)),
        Request::Plan(
            PlanRequest::new("bert-0.64b")
                .microbatches(8)
                .machine("dgx2"),
        ),
    ]
}

struct Flags {
    out: String,
    addr: Option<String>,
    clients: usize,
    requests: usize,
    max_p99_ms: Option<f64>,
    shutdown: bool,
}

fn parse_flags() -> Flags {
    let mut flags = Flags {
        out: "BENCH_serve.json".to_owned(),
        addr: None,
        clients: 4,
        requests: 240,
        max_p99_ms: None,
        shutdown: false,
    };
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().unwrap_or_else(|| {
            eprintln!("error: {flag} expects a value");
            std::process::exit(2);
        })
    };
    fn number<T: std::str::FromStr>(text: String, flag: &str) -> T {
        text.parse().unwrap_or_else(|_| {
            eprintln!("error: {flag} expects a number");
            std::process::exit(2);
        })
    }
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        match flag {
            "--out" => flags.out = value(&mut args, flag),
            "--addr" => flags.addr = Some(value(&mut args, flag)),
            "--clients" => flags.clients = number(value(&mut args, flag), flag),
            "--requests" => flags.requests = number(value(&mut args, flag), flag),
            "--max-p99-ms" => flags.max_p99_ms = Some(number(value(&mut args, flag), flag)),
            "--shutdown" => flags.shutdown = true,
            "--help" | "-h" => {
                println!(
                    "usage: exp_bench_serve [--out PATH] [--addr HOST:PORT] [--clients N]\n\
                     \x20                      [--requests N] [--max-p99-ms MS] [--shutdown]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("error: unknown flag {other:?} (see --help)");
                std::process::exit(2);
            }
        }
    }
    flags.clients = flags.clients.max(1);
    flags
}

fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * pct / 100.0).ceil() as usize).saturating_sub(1);
    sorted[idx.min(sorted.len() - 1)]
}

fn body_string(result: &Result<(String, Value), ServeError>) -> String {
    match result {
        Ok((_, body)) => serde_json::to_string(body).expect("body reserializes"),
        Err(e) => format!("error:{}", e.code()),
    }
}

fn counter(stats: &Value, section: &str, name: &str) -> u64 {
    stats
        .get(section)
        .and_then(|s| s.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .or_else(|| {
            stats
                .get(section)
                .and_then(|s| s.get(name))
                .and_then(Value::as_u64)
        })
        .unwrap_or(0)
}

fn main() {
    let flags = parse_flags();
    // Started when no --addr was given; kept alive until the end.
    let mut local_server = None;
    let addr = match &flags.addr {
        Some(a) => a.clone(),
        None => {
            let handle = mpress_serve::start(ServeConfig::default()).unwrap_or_else(|e| {
                eprintln!("error: starting in-process daemon: {e}");
                std::process::exit(1);
            });
            let addr = handle.addr().to_string();
            local_server = Some(handle);
            addr
        }
    };

    let menu = menu();
    let per_client = flags.requests.div_ceil(flags.clients);
    // menu index → response-body bytes seen, across all clients.
    let seen: Mutex<BTreeMap<usize, Vec<String>>> = Mutex::new(BTreeMap::new());
    let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for client_idx in 0..flags.clients {
            let (menu, addr) = (&menu, addr.as_str());
            let (seen, latencies) = (&seen, &latencies);
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap_or_else(|e| {
                    eprintln!("error: connecting to {addr}: {e}");
                    std::process::exit(1);
                });
                for i in 0..per_client {
                    // Offset by client index so concurrent clients hit
                    // different entries at the same instant — and the
                    // same entries at other instants (memo + cache).
                    let entry = (client_idx + i) % menu.len();
                    // Latency is measured client-side: the daemon itself
                    // is clock-free by design.
                    #[allow(clippy::disallowed_methods)]
                    let start = std::time::Instant::now();
                    let decoded = client.request(&menu[entry]).unwrap_or_else(|e| {
                        eprintln!("error: request failed: {e}");
                        std::process::exit(1);
                    });
                    let ms = start.elapsed().as_secs_f64() * 1e3;
                    latencies.lock().expect("latency lock").push(ms);
                    seen.lock()
                        .expect("seen lock")
                        .entry(entry)
                        .or_default()
                        .push(body_string(&decoded.result));
                }
            });
        }
    });

    // Contract 1: byte identity across clients and repetitions.
    let seen = seen.into_inner().expect("seen lock");
    let mut byte_identical = true;
    for (entry, bodies) in &seen {
        if bodies.windows(2).any(|w| w[0] != w[1]) {
            eprintln!("FAIL: menu entry {entry} produced differing response bodies");
            byte_identical = false;
        }
    }
    // Contract 2: byte identity against local execution (cold context).
    let local_ctx = ApiContext::new();
    for (entry, bodies) in &seen {
        let local = execute(&menu[*entry], &local_ctx)
            .map(|r| serde_json::to_string(&r.body_value()).expect("body reserializes"))
            .unwrap_or_else(|e| format!("error:{}", e.code()));
        if let Some(first) = bodies.first() {
            if *first != local {
                eprintln!("FAIL: menu entry {entry} daemon body differs from local execution");
                byte_identical = false;
            }
        }
    }

    // Service counters + cache statistics.
    let mut stats_client = Client::connect(&addr).unwrap_or_else(|e| {
        eprintln!("error: connecting for stats: {e}");
        std::process::exit(1);
    });
    let (_, stats) = stats_client
        .request(&Request::Stats)
        .and_then(|d| d.result)
        .unwrap_or_else(|e| {
            eprintln!("error: stats query failed: {e}");
            std::process::exit(1);
        });
    let response_hits = counter(&stats, "responses", "hits");
    let plan_cache_hits = counter(&stats, "cache", "plan_hits");
    let plan_cache_misses = counter(&stats, "cache", "plan_misses");
    let overloaded = counter(&stats, "service", "serve.rejected.overloaded");
    let protocol_errors = counter(&stats, "service", "serve.request_errors.protocol");

    if flags.shutdown {
        let _ = stats_client.request(&Request::Shutdown);
    }
    if let Some(mut handle) = local_server.take() {
        handle.shutdown();
    }

    let mut lat = latencies.into_inner().expect("latency lock");
    lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let p50 = percentile(&lat, 50.0);
    let p99 = percentile(&lat, 99.0);

    let json = format!(
        "{{\"clients\": {}, \"requests\": {}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
         \"response_hits\": {response_hits}, \"plan_cache_hits\": {plan_cache_hits}, \
         \"plan_cache_misses\": {plan_cache_misses}, \"overloaded\": {overloaded}, \
         \"protocol_errors\": {protocol_errors}, \"byte_identical\": {byte_identical}}}\n",
        flags.clients,
        lat.len(),
        p50,
        p99,
    );
    std::fs::write(&flags.out, &json).unwrap_or_else(|e| {
        eprintln!("error: writing {}: {e}", flags.out);
        std::process::exit(1);
    });
    print!("{json}");

    let mut failed = false;
    if !byte_identical {
        eprintln!("FAIL: responses were not byte-identical");
        failed = true;
    }
    if plan_cache_misses > DISTINCT_PLANS {
        eprintln!(
            "FAIL: {plan_cache_misses} plan-cache misses for {DISTINCT_PLANS} distinct plans: \
             repeats were searched again"
        );
        failed = true;
    }
    if response_hits + plan_cache_hits == 0 {
        eprintln!("FAIL: neither the response memo nor the plan cache answered a repeat");
        failed = true;
    }
    if protocol_errors > 0 {
        eprintln!("FAIL: daemon counted {protocol_errors} protocol errors");
        failed = true;
    }
    if let Some(max) = flags.max_p99_ms {
        if p99 > max {
            eprintln!("FAIL: p99 {p99:.3} ms exceeds the {max:.3} ms gate");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
