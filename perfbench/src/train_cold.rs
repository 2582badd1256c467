//! `train-cold`: every request pays for the whole planning stack.
//!
//! Each request is `mpress_api::execute` of a `train` request on a fresh
//! `ApiContext`, which is what one `mpress-cli train --json` call does.
//! Passes visit the 20 zoo jobs in a seeded order, and only whole passes
//! run; after each cold request the same request is repeated a few times
//! on its still-warm context, which gives the hot-path figures without
//! entering the throughput.
//!
//! The latency figures are taken over the 20 jobs, each at its median
//! over passes (and, hot, over its repeats), so a pass or a repeat slowed
//! by something outside the program moves one sample, not the figure.
//! The jobs' costs span three orders of magnitude and each varies from
//! pass to pass with the speculative search, so the percentiles are
//! Harrell–Davis estimates, which do not jump when two neighbouring jobs
//! trade places.

use crate::common::{cold_execute, digest, failure, peak_rss_mb, since_ms, train_tflops};
use crate::inputs::{self, Rng};
use crate::report::Report;
use crate::stats::{geomean, hd_quantile, median};
use mpress_api::{encode_response_line, execute, ApiContext, Request};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Hot repeats after each cold request.
const HOT_REPEATS: usize = 5;
/// Set-ups per run. One takes tens of milliseconds and varies with the
/// speculative search, so this workload sets up more often than the
/// serve workloads for a steady median.
const SET_UPS: usize = 15;
/// Passes always run whole, and at least this many, so every job's
/// response digest can be compared across passes.
const MIN_PASSES: u64 = 2;

/// Set-up: generate the inputs and let lazy process set-up (pool
/// threads, page faults, first-use tables) finish before timing by
/// planning the four cheapest jobs cold.
fn set_up() -> (f64, Vec<Request>) {
    let t = Instant::now();
    let requests: Vec<Request> = inputs::train_cold_jobs()
        .into_iter()
        .map(Request::Train)
        .collect();
    for job in inputs::warmup_jobs() {
        let _ = black_box(cold_execute(&Request::Train(job)));
    }
    (t.elapsed().as_secs_f64(), requests)
}

pub fn run(seed: u64, seconds: u64) -> Report {
    let mut report = Report::default();
    let (first_setup, requests) = set_up();

    let budget = Duration::from_secs(seconds);
    let mut pass_rate = Vec::new();
    let mut cold_ms = vec![Vec::new(); requests.len()];
    let mut hot_ms = vec![Vec::new(); requests.len()];
    let mut passes: Vec<Vec<String>> = Vec::new();
    let start = Instant::now();
    loop {
        let mut lines = vec![String::new(); requests.len()];
        let mut pass_ms = 0.0;
        for i in Rng::new(seed, passes.len() as u64).permutation(requests.len()) {
            let ctx = ApiContext::new();
            let t = Instant::now();
            let result = execute(&requests[i], &ctx);
            let cold = since_ms(t);
            pass_ms += cold;
            cold_ms[i].push(cold);
            let line = encode_response_line(0, &result);
            let mut repeats = [0.0; HOT_REPEATS];
            for slot in &mut repeats {
                let t = Instant::now();
                let hot = execute(&requests[i], &ctx);
                *slot = since_ms(t);
                report.attempted += 1;
                if encode_response_line(0, &hot) != line {
                    report.mismatches += 1;
                    report.failed += 1;
                }
            }
            hot_ms[i].push(median(&repeats));
            lines[i] = line;
        }
        pass_rate.push(requests.len() as f64 / (pass_ms / 1e3));
        passes.push(lines);
        let n = passes.len() as u64;
        let elapsed = start.elapsed();
        if n >= MIN_PASSES && elapsed + elapsed / n as u32 > budget {
            break;
        }
    }
    report.set("peak_rss_mb", peak_rss_mb());
    let mut setups = vec![first_setup];
    setups.extend((1..SET_UPS).map(|_| set_up().0));

    // Checks, untimed: every pass answers every job byte-identically, and
    // no answer is an error or an out-of-memory plan.
    let first = &passes[0];
    for pass in &passes {
        for (line, expect) in pass.iter().zip(first) {
            report.attempted += 1;
            if line != expect {
                report.mismatches += 1;
                report.failed += 1;
            } else if failure(line).is_some() {
                report.failed += 1;
            }
        }
    }
    report.digest = digest(first.iter().map(String::as_str));
    let tflops: Vec<f64> = first.iter().filter_map(|l| train_tflops(l)).collect();

    let throughput = median(&pass_rate);
    let per_job = |ms: &[Vec<f64>]| ms.iter().map(|job| median(job)).collect::<Vec<_>>();
    let (cold, hot) = (per_job(&cold_ms), per_job(&hot_ms));
    let quantile = |jobs: &[f64], p: f64| hd_quantile(jobs, p).unwrap_or(0.0);
    let cold_p50 = quantile(&cold, 0.5);
    report.set("setup_s", median(&setups));
    report.set("train_per_s", throughput);
    report.set("train_p50_ms", cold_p50);
    report.set("sim_tflops", geomean(&tflops).unwrap_or(0.0));
    report.set("req_per_s", throughput);
    report.set("req_p50_ms", cold_p50);
    report.set("req_p95_ms", quantile(&cold, 0.95));
    report.set("hot_p50_ms", quantile(&hot, 0.5));
    report.set("hot_p95_ms", quantile(&hot, 0.95));
    report.set("cold_p50_ms", cold_p50);
    report.set_ok_frac();
    report
}
