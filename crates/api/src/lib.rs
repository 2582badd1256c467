//! **mpress-api** — the versioned request/response API.
//!
//! One set of `v1` wire types shared by every front end:
//!
//! * the **CLI** (`mpress-cli plan/train/check/compare`) builds a
//!   [`PlanRequest`]/[`CompareRequest`] from its flags and executes it
//!   through [`exec`];
//! * the **daemon** (`mpress-serve`) decodes the same types from
//!   newline-delimited JSON ([`wire`]) and executes them through the
//!   same entry points;
//! * the **load generator** (`exp_bench_serve`) replays them over TCP
//!   and byte-compares daemon responses against local execution.
//!
//! Because all three share one entry point, "same request ⇒ same
//! response" is a testable contract, not a convention.
//!
//! # Versioning policy
//!
//! Every envelope and request/response body carries an explicit schema
//! version field `v` (currently [`SCHEMA_VERSION`] = 1).
//!
//! * **`v1` may gain fields.** Decoders ignore unknown fields (manual
//!   tree-walking decode — tolerance falls out of `Value::get`), so
//!   adding an optional request field or a new response field is
//!   backward compatible. All request/response structs are
//!   `#[non_exhaustive]` with builder-style setters for the same
//!   reason on the Rust side.
//! * **`v2` is required** when an existing field changes meaning,
//!   type, unit or default — anything that would make an old reader
//!   silently misinterpret a new document. Servers reject any other
//!   major version with [`ServeError::UnsupportedVersion`] rather than
//!   guessing.

#![forbid(unsafe_code)]

pub mod exec;
pub mod names;
pub mod wire;

pub use exec::{
    execute, execute_and_remember, request_key, run_check, run_compare, run_plan, run_train,
    ApiContext, CheckOutcome, CompareOutcome, PlanOutcome, ResponseMemoStats, TrainOutcome,
};
pub use wire::{
    decode_request_line, decode_response_line, encode_request_line, encode_response_line,
    CheckResponse, CompareRequest, CompareResponse, CompareRow, DecodedResponse, PlanRequest,
    PlanResponse, Request, Response, SavingsRow, ServeError, TrainResponse, SCHEMA_VERSION,
};
