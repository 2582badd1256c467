//! **mpress-serve** — planning-as-a-service.
//!
//! A std-only, long-running daemon that serves the MPress planner over
//! TCP as newline-delimited versioned JSON (the `v1` envelope from
//! [`mpress_api::wire`]). No async runtime: one OS thread per
//! connection on top of the workspace's own [`mpress_par`] pool.
//!
//! The request path is a fixed five-stage pipeline:
//!
//! 1. **Admission** — a request that already succeeded is answered
//!    here from the context's response memo, without queueing. Others
//!    enter a bounded queue; when it is full the request is rejected
//!    *immediately* with an explicit
//!    [`Overloaded`](mpress_api::ServeError::Overloaded) error rather
//!    than queued into unbounded latency.
//! 2. **Batching** — a single batcher thread drains up to a configured
//!    number of queued requests into one wave.
//! 3. **Dedup + cache** — identical requests within a wave collapse to
//!    one execution; across waves (and across clients) the
//!    process-global [`PlanCache`](mpress::PlanCache) keyed by the
//!    planner's structural digest serves repeat plans without search.
//! 4. **Plan** — unique requests execute concurrently in one
//!    [`mpress_par::par_map`] wave, all sharing the cache and the
//!    simulator arena pool.
//! 5. **Respond** — each response is routed back to its connection by
//!    request id (a client may therefore pipeline requests; responses
//!    carry ids precisely because waves can complete out of order).
//!
//! Determinism contract: for any request, the daemon's response body is
//! byte-identical to what `mpress-cli` prints for the same request with
//! `--json`, whether the plan came from a cold search, the plan cache,
//! in-wave dedup or the response memo. The integration suite enforces
//! this.
//!
//! `stats`, `shutdown` and memo hits are answered inline on the
//! connection thread: they need no planner work, and must keep working
//! even when the admission queue is full.

#![forbid(unsafe_code)]

pub mod client;
pub mod server;

pub use client::Client;
pub use server::{start, ServeConfig, ServerHandle};
