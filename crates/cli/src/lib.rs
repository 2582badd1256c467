//! Library backing the `mpress-cli` binary.
//!
//! All command logic lives here (testable); `main.rs` only forwards
//! `std::env::args`. Subcommands:
//!
//! * `zoo` — list the paper's model variants and their parameter counts;
//! * `demands` — per-stage memory demands of a job (Table II rows);
//! * `plan` — run MPress's planner, print the Table-IV-style breakdown,
//!   optionally persist the plan as JSON;
//! * `check` — run the planner, then the static plan verifier
//!   (`mpress-analyze`): MP0xx diagnostics as a table or `--json`;
//! * `train` — plan and simulate, print throughput/TFLOPS and optional
//!   memory/Gantt charts;
//! * `compare` — every Figs. 7/8 system plus Megatron/ZeRO on one job;
//! * `insights` — the §V Grace-Hopper projection.

#![forbid(unsafe_code)]

pub mod args;
pub mod commands;

use std::fmt;

/// A CLI failure: a structured reason, rendered as a user-facing message
/// by `Display`, non-zero exit.
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// Invoked without a command — the message is the usage text.
    Usage,
    /// Unrecognized subcommand.
    UnknownCommand(String),
    /// A flag failed to parse or carried an invalid value (full message).
    BadFlag(String),
    /// A required flag was absent (the flag name, without `--`).
    MissingArg(String),
    /// Writing or serializing an output artifact failed (full message).
    Output(String),
    /// `check` found plan diagnostics — the message is the rendered
    /// report (table or JSON), and the exit code is non-zero.
    Check(String),
    /// The underlying plan/train run failed.
    Run(mpress::MpressError),
    /// A request executed through the versioned API (or a daemon it was
    /// sent to) failed.
    Serve(mpress_api::ServeError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage => write!(f, "{}", usage()),
            CliError::UnknownCommand(c) => {
                write!(f, "unknown command `{c}`\n\n{}", usage())
            }
            CliError::BadFlag(msg) | CliError::Output(msg) | CliError::Check(msg) => {
                write!(f, "{msg}")
            }
            CliError::MissingArg(flag) => write!(f, "missing required flag --{flag}"),
            CliError::Run(e) => write!(f, "{e}"),
            CliError::Serve(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Run(e) => Some(e),
            CliError::Serve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mpress::MpressError> for CliError {
    fn from(e: mpress::MpressError) -> Self {
        CliError::Run(e)
    }
}

impl From<mpress_api::ServeError> for CliError {
    fn from(e: mpress_api::ServeError) -> Self {
        CliError::Serve(e)
    }
}

/// Runs the CLI on pre-split arguments (without the program name),
/// returning the full stdout text.
///
/// # Errors
///
/// Returns [`CliError`] with a user-facing message for unknown commands,
/// bad flags or failed runs.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let (command, rest) = argv.split_first().ok_or(CliError::Usage)?;
    let parsed = args::Args::parse(rest)?;
    // Worker threads for parallel plan search (0 = auto; MPRESS_JOBS is
    // the env equivalent). Applies to every planning command.
    mpress_par::set_jobs(parsed.usize_or("jobs", 0)?);
    match command.as_str() {
        "zoo" => commands::zoo(),
        "demands" => commands::demands(&parsed),
        "plan" => commands::plan(&parsed),
        "check" => commands::check(&parsed),
        "train" => commands::train(&parsed),
        "compare" => commands::compare(&parsed),
        "insights" => commands::insights(&parsed),
        "serve" => commands::serve(&parsed),
        "client" => commands::client(&parsed),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(CliError::UnknownCommand(other.to_owned())),
    }
}

/// The help text.
pub fn usage() -> String {
    "mpress-cli — MPress (HPCA 2023) reproduction\n\
     \n\
     USAGE: mpress-cli <command> [--flag value]...\n\
     \n\
     COMMANDS:\n\
     \x20 zoo                         list the paper's model variants\n\
     \x20 demands   --model M         per-stage memory demands (Table II)\n\
     \x20 plan      --model M         generate a memory-saving plan (Table IV)\n\
     \x20 check     --model M         statically verify the plan (MP0xx codes;\n\
     \x20                             --json prints the diagnostics document)\n\
     \x20 train     --model M         plan + simulate a training window\n\
     \x20 compare   --model M         all systems of Figs. 7/8 on one job\n\
     \x20 insights                    the Sec. V Grace-Hopper projection\n\
     \x20 serve                       run the planning daemon (newline-delimited\n\
     \x20                             v1 JSON over TCP; --addr HOST:PORT, default\n\
     \x20                             127.0.0.1:7077; --queue N admission slots;\n\
     \x20                             --batch N requests per wave)\n\
     \x20 client    --kind K          send one request to a running daemon and\n\
     \x20                             print the response body (K = plan|train|\n\
     \x20                             check|compare|stats|shutdown; --addr as above)\n\
     \n\
     COMMON FLAGS:\n\
     \x20 --model       bert-0.35b|bert-0.64b|bert-1.67b|bert-4.0b|bert-6.2b|\n\
     \x20               gpt-5.3b|gpt-10.3b|gpt-15.4b|gpt-20.4b|gpt-25.5b\n\
     \x20 --machine     dgx1|dgx2|commodity (default dgx1)\n\
     \x20 --schedule    pipedream|dapple|gpipe (default: paper pairing)\n\
     \x20 --microbatch  samples per microbatch (default: paper value)\n\
     \x20 --microbatches window length (default 16)\n\
     \x20 --opts        all|recompute|hostswap|d2d|none (default all)\n\
     \x20 --jobs        worker threads for parallel plan search (0 = auto;\n\
     \x20               MPRESS_JOBS env var is equivalent)\n\
     \x20 --json        print the versioned v1 response body (plan/compare) or\n\
     \x20               the diagnostics document (check) as JSON\n\
     \x20 --out         write the plan as JSON (plan) or report (train)\n\
     \x20 --chart       render per-device memory lanes (train)\n\
     \x20 --gantt       render the execution timeline (train)\n\
     \x20 --trace       write a chrome://tracing JSON (train)\n\
     \x20 --metrics[=table|json]\n\
     \x20               collect telemetry (stall attribution, link traffic,\n\
     \x20               search counters); json mode prints only the JSON\n\
     \x20               document (plan/train/compare)\n"
        .to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(args: &[&str]) -> Result<String, CliError> {
        run(&args.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn no_args_prints_usage_error() {
        let err = call(&[]).unwrap_err();
        assert!(matches!(err, CliError::Usage));
        assert!(err.to_string().contains("USAGE"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        let err = call(&["frobnicate"]).unwrap_err();
        assert!(matches!(&err, CliError::UnknownCommand(c) if c == "frobnicate"));
        assert!(err.to_string().contains("unknown command"));
    }

    #[test]
    fn help_prints_usage() {
        let out = call(&["help"]).unwrap();
        assert!(out.contains("COMMANDS"));
    }

    #[test]
    fn zoo_lists_all_variants() {
        let out = call(&["zoo"]).unwrap();
        for name in ["Bert-0.35B", "Bert-6.2B", "GPT-5.3B", "GPT-25.5B"] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
    }

    #[test]
    fn demands_matches_table2_shape() {
        let out = call(&["demands", "--model", "gpt-5.3b"]).unwrap();
        assert!(out.contains("total"), "{out}");
        assert!(out.contains("stage 0"), "{out}");
    }

    #[test]
    fn demands_requires_model() {
        let err = call(&["demands"]).unwrap_err();
        assert!(matches!(&err, CliError::MissingArg(flag) if flag == "model"));
        assert!(err.to_string().contains("--model"), "{err}");
    }

    #[test]
    fn bad_flag_is_reported() {
        let err = call(&["demands", "--model"]).unwrap_err();
        assert!(matches!(err, CliError::BadFlag(_)));
        assert!(err.to_string().contains("expects a value"), "{err}");
    }

    #[test]
    fn insights_reports_projection() {
        let out = call(&["insights"]).unwrap();
        assert!(out.contains("GPT-3 175B"), "{out}");
        assert!(out.contains("GB/s"), "{out}");
    }
}
