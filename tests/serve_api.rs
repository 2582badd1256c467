//! Cross-crate tests for the planning service: the versioned wire API
//! (`mpress-api`) and the daemon (`mpress-serve`).
//!
//! Three contracts anchor the service design:
//!
//! * **Byte identity** — a daemon response body for a request is
//!   byte-identical to the CLI's `--json` output for the same request,
//!   whether the plan came from a cold search, the process-global plan
//!   cache (directly or by waiting for another request's search), or
//!   the response memo. This is what makes the daemon a drop-in back
//!   end for existing tooling.
//! * **Versioned compatibility** — `v1` decoders tolerate unknown
//!   fields (additive evolution) but reject foreign major versions
//!   loudly rather than misinterpreting them.
//! * **Admission control** — a full queue rejects with an explicit
//!   `overloaded` error while `stats`/`shutdown` (served inline on the
//!   connection thread) keep working.

use mpress_api::{decode_response_line, encode_request_line, PlanRequest, Request, ServeError};
use mpress_serve::{Client, ServeConfig};
use proptest::prelude::*;
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};

fn start_server(config: ServeConfig) -> mpress_serve::ServerHandle {
    mpress_serve::start(config).expect("daemon binds an ephemeral port")
}

fn plan_request() -> Request {
    Request::Plan(PlanRequest::new("bert-0.64b").microbatches(8))
}

fn body_bytes(client: &mut Client, req: &Request) -> String {
    let decoded = client.request(req).expect("roundtrip succeeds");
    let (_, body) = decoded.result.expect("request succeeds");
    serde_json::to_string(&body).expect("body reserializes")
}

#[test]
fn daemon_response_is_byte_identical_to_cli_json() {
    let mut server = start_server(ServeConfig::default());
    let mut client = Client::connect(server.addr()).expect("connects");
    let daemon_body = body_bytes(&mut client, &plan_request());

    let cli_args: Vec<String> = [
        "plan",
        "--model",
        "bert-0.64b",
        "--microbatches",
        "8",
        "--json",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    let cli_out = mpress_cli::run(&cli_args).expect("CLI plan succeeds");
    assert_eq!(
        format!("{daemon_body}\n"),
        cli_out,
        "daemon body and CLI --json output must be the same bytes"
    );
    server.shutdown();
}

#[test]
fn concurrent_identical_clients_get_identical_bytes_and_cache_hits() {
    let mut server = start_server(ServeConfig::default());
    let addr = server.addr();
    let bodies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connects");
                    // Two identical requests per client: the repeats
                    // must come from the response memo or the plan
                    // cache.
                    let first = body_bytes(&mut client, &plan_request());
                    let second = body_bytes(&mut client, &plan_request());
                    assert_eq!(first, second, "repeat on one connection diverged");
                    first
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect()
    });
    assert!(
        bodies.windows(2).all(|w| w[0] == w[1]),
        "responses diverged across clients"
    );

    let mut client = Client::connect(addr).expect("connects");
    let decoded = client.request(&Request::Stats).expect("stats roundtrip");
    let (_, stats) = decoded.result.expect("stats succeeds");
    let field = |section: &str, name: &str| {
        stats
            .get(section)
            .and_then(|c| c.get(name))
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("stats body carries {section}.{name}"))
    };
    let (misses, hits) = (field("cache", "plan_misses"), field("cache", "plan_hits"));
    let memo_hits = field("responses", "hits");
    // Each request is answered exactly one way: from the memo at
    // admission, or by a run that looks its plan up (a request that
    // waited for another's search counts as a plan hit).
    assert_eq!(misses, 1, "8 identical requests must run one search");
    assert_eq!(
        memo_hits + hits,
        7,
        "the other 7 share that search (memo {memo_hits}, plan cache {hits})"
    );
    server.shutdown();
}

#[test]
fn pipelined_plan_and_check_of_one_job_run_one_search() {
    // Different requests, hence different memo keys, but one plan: the
    // second to reach the plan cache takes the first one's plan, even
    // when both run at once on two workers.
    let mut server = start_server(ServeConfig::default());
    let mut client = Client::connect(server.addr()).expect("connects");
    let check = Request::Check(PlanRequest::new("bert-0.64b").microbatches(8));
    let ids = [
        client.send(&plan_request()).expect("sends plan"),
        client.send(&check).expect("sends check"),
    ];
    let mut answered = Vec::new();
    for _ in ids {
        let decoded = client.recv().expect("answered");
        assert!(decoded.result.is_ok(), "{:?}", decoded.result);
        answered.push(decoded.id);
    }
    answered.sort_unstable();
    assert_eq!(answered, ids);
    let (_, stats) = client
        .request(&Request::Stats)
        .expect("stats roundtrip")
        .result
        .expect("stats succeeds");
    let misses = stats
        .get("cache")
        .and_then(|c| c.get("plan_misses"))
        .and_then(Value::as_u64);
    assert_eq!(misses, Some(1), "a plan and a check of one job search once");
    server.shutdown();
}

#[test]
fn wrong_major_version_is_rejected_unknown_fields_are_not() {
    let mut server = start_server(ServeConfig::default());
    let mut client = Client::connect(server.addr()).expect("connects");

    // A v2 envelope is refused with the dedicated code.
    client
        .send_raw(r#"{"v":2,"id":7,"kind":"plan","body":{"model":"bert-0.64b"}}"#)
        .expect("send");
    let decoded = client.recv().expect("decodable error response");
    assert_eq!(decoded.id, 7, "errors echo the request id");
    assert_eq!(decoded.result.unwrap_err().code(), "unsupported_version");

    // Unknown fields anywhere in a v1 document are ignored: this is the
    // documented additive-evolution path.
    client
        .send_raw(
            r#"{"v":1,"id":8,"kind":"plan","future_envelope_flag":true,
                "body":{"model":"bert-0.64b","microbatches":8,"carbon_budget":12}}"#
                .replace('\n', " ")
                .as_str(),
        )
        .expect("send");
    let decoded = client.recv().expect("decodable response");
    assert_eq!(decoded.id, 8);
    let (kind, body) = decoded.result.expect("unknown fields must not fail");
    assert_eq!(kind, "plan");
    assert_eq!(body.get("v").and_then(Value::as_u64), Some(1));

    // Unknown kinds and unparseable lines have distinct, stable codes.
    client
        .send_raw(r#"{"v":1,"id":9,"kind":"frobnicate"}"#)
        .expect("send");
    assert_eq!(
        client.recv().expect("response").result.unwrap_err().code(),
        "unknown_kind"
    );
    client.send_raw("not json at all").expect("send");
    assert_eq!(
        client.recv().expect("response").result.unwrap_err().code(),
        "protocol"
    );
    server.shutdown();
}

#[test]
fn full_queue_overloads_but_stats_and_shutdown_stay_inline() {
    // queue_cap 0: admission rejects every plannable request.
    let mut server = start_server(ServeConfig::default().queue_cap(0));
    let mut client = Client::connect(server.addr()).expect("connects");

    let decoded = client.request(&plan_request()).expect("roundtrip");
    match decoded.result {
        Err(ServeError::Overloaded { .. }) => {}
        other => panic!("expected overloaded rejection, got {other:?}"),
    }

    // Inline kinds are unaffected by the full queue.
    let stats = client.request(&Request::Stats).expect("stats roundtrip");
    let (kind, _) = stats.result.expect("stats succeeds");
    assert_eq!(kind, "stats");

    let ack = client.request(&Request::Shutdown).expect("shutdown ack");
    let (kind, _) = ack.result.expect("shutdown succeeds");
    assert_eq!(kind, "shutdown");
    // The daemon stops on its own after the ack.
    server.wait();
}

#[test]
fn cancelled_shutdown_answers_queued_requests() {
    // Shut down while work is queued and confirm every request still
    // gets *an* answer (either a result or an internal shutdown error)
    // instead of a hang.
    let mut server = start_server(ServeConfig::default());
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connects");
    let id_a = client.send(&plan_request()).expect("send a");
    let id_b = client
        .send(&Request::Train(
            PlanRequest::new("bert-0.35b").microbatches(8),
        ))
        .expect("send b");
    let mut shutdown_client = Client::connect(addr).expect("connects");
    let ack = shutdown_client
        .request(&Request::Shutdown)
        .expect("shutdown ack");
    assert!(ack.result.is_ok());

    let mut answered = std::collections::BTreeSet::new();
    for _ in 0..2 {
        // Either outcome is legal; silence (an Io error) is not.
        match client.recv() {
            Ok(decoded) => {
                answered.insert(decoded.id);
            }
            Err(ServeError::Io(_)) => break,
            Err(other) => panic!("unexpected protocol failure: {other}"),
        }
    }
    // At least the first request (already admitted before shutdown) is
    // answered; both ids must be from our requests when present.
    for id in &answered {
        assert!([id_a, id_b].contains(id), "unexpected response id {id}");
    }
    server.shutdown();
}

/// The daemon's request-line cap (`MAX_LINE_BYTES` in `mpress-serve`).
const LINE_CAP: usize = 1 << 20;

/// One fuzzed request line (newline excluded) built from `kind` and
/// random bytes `raw`, with the id its answer carries: `Some(id)` for a
/// `stats` request, `None` where the answer is an error.
fn fuzz_line(kind: u8, raw: &[u16], id: u64) -> (Vec<u8>, Option<u64>) {
    let bytes = raw.iter().map(|&b| match b as u8 {
        b'\n' => b'{',
        b => b,
    });
    let line = match kind {
        // Random bytes.
        0 => bytes.collect(),
        // A valid request cut short.
        1 => {
            let full = encode_request_line(id, &plan_request());
            full.as_bytes()[..raw.len() % full.len()].to_vec()
        }
        // Blank: whitespace only, or nothing.
        2 => raw
            .iter()
            .map(|&b| [b' ', b'\t', b'\r'][b as usize % 3])
            .collect(),
        // Not UTF-8: 0xFF never appears in UTF-8.
        3 => std::iter::once(0xFF).chain(bytes).collect(),
        _ => {
            return (
                encode_request_line(id, &Request::Stats).into_bytes(),
                Some(id),
            )
        }
    };
    (line, None)
}

/// Whether the daemon skips `line` unanswered: after one trailing `'\r'`
/// is dropped, it is UTF-8 and only whitespace.
fn is_blank(line: &[u8]) -> bool {
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    std::str::from_utf8(line).is_ok_and(|text| text.trim().is_empty())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Random, truncated, blank, non-UTF-8 and over-long lines, mixed
    /// with `stats` requests on one raw connection: every non-blank line
    /// gets exactly one response line, in order (an error for each bad
    /// line, the matching answer for each `stats`), and the connection
    /// still answers `stats` afterwards.
    #[test]
    fn codec_fuzz_answers_every_line_once_in_order(
        kinds in proptest::collection::vec(0u8..5, 1..12),
        raws in proptest::collection::vec(proptest::collection::vec(0u16..256, 0..48), 12..13),
        long_at in 0usize..12,
    ) {
        let mut lines: Vec<(Vec<u8>, Option<u64>)> = kinds
            .iter()
            .zip(&raws)
            .enumerate()
            .map(|(i, (&kind, raw))| fuzz_line(kind, raw, 100 + i as u64))
            .collect();
        lines.insert(long_at % (lines.len() + 1), (vec![b'x'; LINE_CAP + 1], None));
        let expected: Vec<Option<u64>> = lines
            .iter()
            .filter(|(line, _)| !is_blank(line))
            .map(|&(_, id)| id)
            .collect();

        let mut server = start_server(ServeConfig::default());
        let mut stream = std::net::TcpStream::connect(server.addr()).expect("connects");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .expect("read timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clones"));
        let mut payload = Vec::new();
        for (line, _) in &lines {
            payload.extend_from_slice(line);
            payload.push(b'\n');
        }
        stream.write_all(&payload).expect("sends the fuzzed lines");
        let mut recv = || {
            let mut answer = String::new();
            reader.read_line(&mut answer).expect("one response line");
            decode_response_line(answer.trim_end()).expect("a decodable response")
        };
        for (i, want) in expected.iter().enumerate() {
            let got = recv();
            match want {
                Some(id) => {
                    prop_assert_eq!(got.id, *id, "response {} answers the wrong line", i);
                    prop_assert!(got.result.is_ok(), "stats failed: {:?}", got.result);
                }
                None => prop_assert!(got.result.is_err(), "response {} is not an error", i),
            }
        }
        let last = encode_request_line(999, &Request::Stats);
        stream.write_all(format!("{last}\n").as_bytes()).expect("sends stats");
        let after = recv();
        prop_assert_eq!(after.id, 999);
        prop_assert!(after.result.is_ok(), "stats after the fuzz: {:?}", after.result);
        server.shutdown();
    }
}
