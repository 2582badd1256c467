//! The repository benchmark: one command for every workload, untraced
//! for end-to-end figures and traced for per-layer ones.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train-cold|serve-hot|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is the result: `correct`,
//! `attempted`, `failed` and `metrics`. A record of the run (environment,
//! sample counts, digest) and, for traced runs, every span go under
//! `.bench_out/`. See `README.md` for the workloads and metrics.

// The repository's clippy.toml bans wall clocks to keep planning
// deterministic; a benchmark exists to read one.
#![allow(clippy::disallowed_methods)]

mod common;
mod inputs;
mod layers;
mod report;
mod serve_load;
mod stats;
mod trace;
mod train_cold;

use report::Env;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrainCold,
    ServeHot,
    ServeMixed,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "train-cold" => Some(Workload::TrainCold),
            "serve-hot" => Some(Workload::ServeHot),
            "serve-mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }
}

const USAGE: &str =
    "usage: mpress-perfbench --workload train-cold|serve-hot|serve-mixed --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<(Workload, Env), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| *s > 0)
                    .ok_or_else(|| bad("a positive integer"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let name = match workload {
        Workload::TrainCold => "train-cold",
        Workload::ServeHot => "serve-hot",
        Workload::ServeMixed => "serve-mixed",
    };
    Ok((
        workload,
        Env {
            workload: name.to_owned(),
            seed,
            seconds,
            trace,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, env) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (report, spans) = if env.trace {
        let (report, trace) = layers::run(workload, env.seed, env.seconds);
        (report, Some(trace))
    } else {
        let report = match workload {
            Workload::TrainCold => train_cold::run(env.seed, env.seconds),
            Workload::ServeHot => serve_load::run_hot(env.seed, env.seconds),
            Workload::ServeMixed => serve_load::run_mixed(env.seed, env.seconds),
        };
        (report, None)
    };

    let out = std::path::Path::new(".bench_out");
    let stem = format!(
        "{}-seed{}-trace{}",
        env.workload,
        env.seed,
        u8::from(env.trace)
    );
    let written = std::fs::create_dir_all(out)
        .and_then(|()| std::fs::write(out.join(format!("{stem}.json")), report.record_json(&env)))
        .and_then(|()| match &spans {
            Some(t) => std::fs::write(out.join(format!("{stem}-spans.jsonl")), t.to_jsonl()),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!(
            "warning: could not write the run record under {}: {e}",
            out.display()
        );
    }
    print!("{}", report.summary(env.trace));
    println!("{}", report.result_line(env.trace));
    ExitCode::SUCCESS
}
