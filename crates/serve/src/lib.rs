//! **mpress-serve** — planning-as-a-service.
//!
//! A std-only, long-running daemon that serves the MPress planner over
//! TCP as newline-delimited versioned JSON (the `v1` envelope from
//! [`mpress_api::wire`]). No async runtime: one OS thread per
//! connection plus a fixed set of worker threads.
//!
//! The request path is admission → memo → queue → worker → respond:
//!
//! 1. **Admission** — the connection thread decodes each line.
//! 2. **Memo** — a request that already succeeded is answered here
//!    from the context's response memo, without queueing.
//! 3. **Queue** — other requests enter a bounded queue; when it is full
//!    the request is rejected *immediately* with an explicit
//!    [`Overloaded`](mpress_api::ServeError::Overloaded) error rather
//!    than queued into unbounded latency.
//! 4. **Worker** — [`mpress_par::pool_width`] worker threads each pop
//!    one request and execute it. All share the simulator arena pool
//!    and the process-global [`PlanCache`](mpress::PlanCache), keyed by
//!    the planner's structural digest, which runs one search per plan:
//!    a request whose plan is being searched waits for that search.
//! 5. **Respond** — the worker sends the response to its connection at
//!    once, tagged with the request id (a client may therefore pipeline
//!    requests; responses carry ids because they can complete out of
//!    order).
//!
//! Determinism contract: for any request, the daemon's response body is
//! byte-identical to what `mpress-cli` prints for the same request with
//! `--json`, whether the plan came from a cold search, the plan cache or
//! the response memo. The integration suite enforces this.
//!
//! `stats`, `shutdown` and memo hits are answered inline on the
//! connection thread: they need no planner work, and must keep working
//! even when the admission queue is full.

#![forbid(unsafe_code)]

pub mod client;
pub mod server;

pub use client::Client;
pub use server::{start, ServeConfig, ServerHandle};
