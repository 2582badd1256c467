//! The daemon: admission queue, worker threads, connection threads.

use mpress::CancelToken;
use mpress_api::{
    decode_request_line, encode_response_line, execute_and_remember, request_key, ApiContext,
    Request, Response, ServeError,
};
use mpress_obs::MetricsRecorder;
use serde::Serialize as _;
use serde_json::Value;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read as _, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// Longest request line the daemon reads, newline excluded. Fixed, not
/// a knob: a request envelope is a few hundred bytes, and the cap only
/// stops one client from making the daemon buffer without limit.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Daemon configuration, with builder-style setters.
///
/// `#[non_exhaustive]`: construct with [`ServeConfig::default`] and
/// chain overrides, so new knobs can be added compatibly.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServeConfig {
    addr: String,
    queue_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            queue_cap: 64,
        }
    }
}

impl ServeConfig {
    /// Sets the listen address (default `127.0.0.1:0`, an ephemeral
    /// port — read the bound address from [`ServerHandle::addr`]).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the admission-queue capacity (default 64). Requests
    /// arriving while the queue holds this many are rejected with
    /// [`ServeError::Overloaded`]. A capacity of zero rejects every
    /// plannable request — useful for testing admission control.
    pub fn queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap;
        self
    }
}

/// One admitted request waiting for a worker.
struct Job {
    id: u64,
    /// Canonical request encoding ([`request_key`]): the response
    /// memo's key.
    key: String,
    request: Request,
    reply: mpsc::Sender<String>,
}

/// State shared by the accept loop, the workers and every connection.
struct Shared {
    ctx: ApiContext,
    cancel: CancelToken,
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
    stop: AtomicBool,
    metrics: Mutex<MetricsRecorder>,
    queue_cap: usize,
    addr: SocketAddr,
}

impl Shared {
    fn record(&self, f: impl FnOnce(&mut MetricsRecorder)) {
        f(&mut recover(&self.metrics));
    }
}

/// Locks `lock`, taking the guard back from a poisoned mutex: a panic
/// while it was held (a request body runs under `catch_unwind`, but a
/// connection thread can still die mid-update) must not take every
/// later request down with it. The queue is a plain `VecDeque` and the
/// recorder a set of counters, so a cut-short update leaves at worst
/// one job or one increment missing, never a broken structure.
fn recover<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A running daemon. Dropping the handle shuts the daemon down.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Blocks until the daemon stops on its own — i.e. until a client
    /// sends a `shutdown` request. Does not trigger a shutdown itself.
    pub fn wait(&mut self) {
        for t in self.accept.take().into_iter().chain(self.workers.drain(..)) {
            let _ = t.join();
        }
    }

    /// Triggers a graceful shutdown and waits for the accept loop and
    /// every worker to finish. In-flight planning is cancelled through
    /// the context's [`CancelToken`]; still-queued requests are
    /// answered with an internal error.
    pub fn shutdown(&mut self) {
        trigger_shutdown(&self.shared);
        self.wait();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.shared.addr)
            .finish_non_exhaustive()
    }
}

/// Starts the daemon.
///
/// # Errors
///
/// Propagates socket bind failures.
pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let cancel = CancelToken::new();
    let shared = Arc::new(Shared {
        ctx: ApiContext::new().with_cancel(cancel.clone()),
        cancel,
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        stop: AtomicBool::new(false),
        metrics: Mutex::new(MetricsRecorder::new()),
        queue_cap: config.queue_cap,
        addr,
    });
    // Plain threads, not `par_run` lanes: each request's own search
    // still fans out at full pool width.
    let workers = (0..mpress_par::pool_width())
        .map(|_| {
            let shared = Arc::clone(&shared);
            thread::spawn(move || run_worker(&shared))
        })
        .collect();
    let accept = {
        let shared = Arc::clone(&shared);
        thread::spawn(move || {
            for stream in listener.incoming() {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let shared = Arc::clone(&shared);
                thread::spawn(move || handle_connection(&shared, stream));
            }
        })
    };
    Ok(ServerHandle {
        shared,
        accept: Some(accept),
        workers,
    })
}

/// Flips the stop flag once, cancels in-flight planning, wakes the
/// workers, and unblocks the accept loop with a self-connection.
fn trigger_shutdown(shared: &Shared) {
    if shared.stop.swap(true, Ordering::SeqCst) {
        return;
    }
    shared.cancel.cancel();
    // A worker checks the flag and parks under the queue lock: taking
    // it here means none is between the two when the wake-up is sent.
    drop(recover(&shared.queue));
    shared.ready.notify_all();
    let _ = TcpStream::connect(shared.addr);
}

/// One worker: pops one queued job at a time, runs it and sends its
/// response at once. Identical requests need no coordination here: the
/// plan cache runs one search per plan and the planner is deterministic.
/// On shutdown the first worker to wake answers every queued job with
/// an `internal` error.
fn run_worker(shared: &Shared) {
    loop {
        let job = {
            let mut q = recover(&shared.queue);
            loop {
                if shared.stop.load(Ordering::SeqCst) {
                    for job in q.drain(..) {
                        let err = Err(ServeError::Internal(
                            "server shut down before this request ran".to_owned(),
                        ));
                        let _ = job.reply.send(encode_response_line(job.id, &err));
                    }
                    return;
                }
                if let Some(job) = q.pop_front() {
                    break job;
                }
                q = shared.ready.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let result = execute_caught(&job.request, &job.key, &shared.ctx);
        let _ = job.reply.send(encode_response_line(job.id, &result));
    }
}

/// Runs one queued request through the memo's miss path (its admission
/// lookup under `key` missed), answering a panic with an `internal`
/// error so a bad request cannot take its worker, and every later
/// request that worker would run, down with it.
fn execute_caught(req: &Request, key: &str, ctx: &ApiContext) -> Result<Response, ServeError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        #[cfg(test)]
        tests::inject_fault(req);
        execute_and_remember(req, key, ctx)
    }))
    .unwrap_or_else(|payload| {
        let what = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(ServeError::Internal(format!("request panicked: {what}")))
    })
}

/// One request line as [`read_line_capped`] leaves it in the buffer.
enum Line {
    /// A whole line, newline stripped.
    Complete,
    /// Longer than [`MAX_LINE_BYTES`]: consumed through its newline and
    /// dropped; the buffer is empty.
    TooLong,
}

/// Reads the next line into `buf` (cleared first) without buffering
/// more than [`MAX_LINE_BYTES`] of it. `None` at end of stream.
fn read_line_capped(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> std::io::Result<Option<Line>> {
    buf.clear();
    let n = reader
        .by_ref()
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        return Ok(Some(Line::Complete));
    }
    if n <= MAX_LINE_BYTES {
        return Ok(Some(Line::Complete)); // last line, no newline
    }
    // Over the cap: discard the rest of the line, then release the
    // oversized buffer.
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            break;
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => {
                reader.consume(i + 1);
                break;
            }
            None => {
                let len = chunk.len();
                reader.consume(len);
            }
        }
    }
    *buf = Vec::new();
    Ok(Some(Line::TooLong))
}

/// The `stats` response body: service counters plus plan-cache and
/// response-memo statistics.
fn stats_body(shared: &Shared) -> Value {
    let depth = recover(&shared.queue).len();
    let mut m = recover(&shared.metrics);
    m.set_gauge("serve.queue_depth", depth as f64);
    m.set_gauge("serve.arenas_idle", shared.ctx.arenas.idle() as f64);
    let service = m.snapshot().to_json();
    drop(m);
    Value::Object(vec![
        ("service".to_owned(), service),
        ("cache".to_owned(), shared.ctx.cache.stats().to_json()),
        (
            "responses".to_owned(),
            shared.ctx.response_stats().to_json(),
        ),
    ])
}

/// Writes queued response lines to `out` until the channel closes or a
/// write fails. It blocks for one line, drains every line already
/// queued behind it into one reused buffer, each with its `'\n'`, and
/// sends the batch with a single `write_all`. Two writes per line
/// would leave the newline to Nagle's algorithm, which holds it until
/// the client's delayed ACK (about 40 ms on Linux loopback).
fn write_responses(rx: &mpsc::Receiver<String>, out: &mut impl Write) {
    let mut batch = Vec::new();
    while let Ok(first) = rx.recv() {
        batch.clear();
        for line in std::iter::once(first).chain(rx.try_iter()) {
            batch.extend_from_slice(line.as_bytes());
            batch.push(b'\n');
        }
        if out.write_all(&batch).is_err() {
            break;
        }
    }
}

/// One connection: a reader loop on this thread plus a writer thread
/// fed over a channel (the workers send responses into the same
/// channel, so writes never interleave mid-line).
fn handle_connection(shared: &Shared, stream: TcpStream) {
    // Each batch is one whole write: send it now rather than wait for
    // the ACK of the previous one. Without it the connection still
    // works, only slower, so a failure here is not fatal.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let (tx, rx) = mpsc::channel::<String>();
    let writer = thread::spawn(move || {
        let mut stream = stream;
        write_responses(&rx, &mut stream);
        let _ = stream.shutdown(Shutdown::Both);
    });
    let mut buf = Vec::new();
    while let Ok(Some(line)) = read_line_capped(&mut reader, &mut buf) {
        let (id, decoded) = match line {
            Line::TooLong => (
                0,
                Err(ServeError::BadRequest(format!(
                    "request line exceeds {MAX_LINE_BYTES} bytes"
                ))),
            ),
            Line::Complete => match std::str::from_utf8(&buf) {
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => decode_request_line(text),
                Err(_) => (
                    0,
                    Err(ServeError::Protocol("request line is not UTF-8".to_owned())),
                ),
            },
        };
        match decoded {
            Err(e) => {
                shared.record(|m| m.inc(&format!("serve.request_errors.{}", e.code())));
                let _ = tx.send(encode_response_line(id, &Err(e)));
            }
            Ok(Request::Stats) => {
                shared.record(|m| m.inc("serve.requests.stats"));
                let body = stats_body(shared);
                let _ = tx.send(encode_response_line(id, &Ok(Response::Stats(body))));
            }
            Ok(Request::Shutdown) => {
                shared.record(|m| m.inc("serve.requests.shutdown"));
                let _ = tx.send(encode_response_line(id, &Ok(Response::Shutdown)));
                trigger_shutdown(shared);
                break;
            }
            Ok(request) => {
                shared.record(|m| m.inc(&format!("serve.requests.{}", request.kind())));
                // A request that already succeeded is answered here from
                // the memo, like `stats`: it never waits behind a cold
                // search and is never overloaded. Once shutdown starts,
                // every request gets the shutdown error below instead.
                let key = request_key(&request);
                if !shared.stop.load(Ordering::SeqCst) {
                    if let Some(response) = shared.ctx.remembered(&key) {
                        let _ = tx.send(encode_response_line(id, &Ok(response)));
                        continue;
                    }
                }
                let verdict = {
                    let mut q = recover(&shared.queue);
                    if shared.stop.load(Ordering::SeqCst) {
                        Some(ServeError::Internal("server is shutting down".to_owned()))
                    } else if q.len() >= shared.queue_cap {
                        Some(ServeError::Overloaded {
                            queue: shared.queue_cap,
                        })
                    } else {
                        q.push_back(Job {
                            id,
                            key,
                            request,
                            reply: tx.clone(),
                        });
                        shared.ready.notify_one();
                        None
                    }
                };
                if let Some(e) = verdict {
                    shared.record(|m| m.inc(&format!("serve.rejected.{}", e.code())));
                    let _ = tx.send(encode_response_line(id, &Err(e)));
                }
            }
        }
    }
    drop(tx);
    let _ = writer.join();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use mpress_api::{encode_request_line, PlanRequest};

    /// Model name that makes [`execute_caught`] panic, so a test can
    /// check that a panicking request is answered and the worker
    /// survives.
    const PANIC_MODEL: &str = "test-panic";

    /// Model name that makes [`execute_caught`] hold its worker until a
    /// test releases [`STALL`], so a test can fill the queue behind
    /// busy workers.
    const STALL_MODEL: &str = "test-stall";

    /// `(requests held, held requests may go on)`, and the condvar that
    /// signals either change.
    static STALL: (Mutex<(usize, bool)>, Condvar) = (Mutex::new((0, false)), Condvar::new());

    /// Runs before every queued request: panics for [`PANIC_MODEL`] and
    /// holds the worker for [`STALL_MODEL`].
    pub(super) fn inject_fault(req: &Request) {
        let Request::Plan(r) = req else { return };
        if r.model == PANIC_MODEL {
            panic!("injected panic for {PANIC_MODEL}");
        }
        if r.model == STALL_MODEL {
            let mut state = recover(&STALL.0);
            state.0 += 1;
            STALL.1.notify_all();
            while !state.1 {
                state = STALL.1.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    fn plan(model: &str) -> Request {
        Request::Plan(PlanRequest::new(model).microbatches(4))
    }

    /// Runs `f` on its own thread and fails the test if it does not
    /// finish in 60 s: a daemon that stops answering hangs the client.
    fn within(f: impl FnOnce() + Send + 'static) {
        let (done, finished) = mpsc::channel();
        let worker = thread::spawn(move || {
            f();
            let _ = done.send(());
        });
        match finished.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(()) => worker.join().expect("test body"),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(worker.join().expect_err("body panicked"))
            }
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("daemon stopped answering"),
        }
    }

    #[test]
    fn panicking_request_is_answered_and_the_worker_survives() {
        within(panicking_request_body);
    }

    fn panicking_request_body() {
        let mut server = start(ServeConfig::default()).expect("binds");
        let mut client = Client::connect(server.addr()).expect("connects");
        let panicked = client.send(&plan(PANIC_MODEL)).expect("sends");
        let answer = client.recv().expect("the panicking request is answered");
        assert_eq!(answer.id, panicked);
        match answer.result {
            Err(ServeError::Internal(msg)) => assert!(msg.contains("panicked"), "{msg}"),
            other => panic!("expected an internal error, got {other:?}"),
        }
        // Exactly one line: the next one on the connection answers the
        // next request.
        let planned = client.request(&plan("bert-0.35b")).expect("later plan");
        assert!(planned.result.is_ok(), "{:?}", planned.result);
        let stats = client.request(&Request::Stats).expect("stats");
        assert!(stats.result.is_ok(), "{:?}", stats.result);
        server.shutdown();
    }

    #[test]
    fn memo_hits_are_answered_while_workers_stall_behind_a_full_queue() {
        within(memo_hit_under_stall_body);
    }

    fn memo_hit_under_stall_body() {
        let mut server = start(ServeConfig::default().queue_cap(1)).expect("binds");
        let addr = server.addr();
        let mut warm = Client::connect(addr).expect("connects");
        let (_, first) = warm
            .request(&plan("bert-0.35b"))
            .expect("plan")
            .result
            .expect("plans");
        // One connection's requests hold every worker, one at a time so
        // none of them finds the one-slot queue full ...
        let mut stalled = Client::connect(addr).expect("connects");
        let mut held = Vec::new();
        for n in 1..=server.workers.len() {
            held.push(stalled.send(&plan(STALL_MODEL)).expect("sends"));
            let mut state = recover(&STALL.0);
            while state.0 < n {
                state = STALL.1.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
        }
        // ... another's fills the queue behind them ...
        let mut queued = Client::connect(addr).expect("connects");
        let waiting = queued.send(&plan("bert-0.64b")).expect("sends");
        {
            // Every worker is held, so this test is the only thread
            // waiting for the push's notification.
            let mut q = recover(&server.shared.queue);
            while q.is_empty() {
                q = server
                    .shared
                    .ready
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        // ... so a third connection's new request is overloaded, while
        // its repeat of an answered request still gets the answer.
        let mut repeat = Client::connect(addr).expect("connects");
        match repeat
            .request(&plan("bert-1.67b"))
            .expect("answered")
            .result
        {
            Err(e) => assert_eq!(e.code(), "overloaded", "{e}"),
            Ok(ok) => panic!("expected overloaded, got {ok:?}"),
        }
        let (_, again) = repeat
            .request(&plan("bert-0.35b"))
            .expect("answered")
            .result
            .expect("memo hit");
        assert_eq!(again, first);
        assert_eq!(server.shared.ctx.response_stats().hits, 1);
        // Released, the held and the queued requests finish.
        {
            let mut state = recover(&STALL.0);
            state.1 = true;
            STALL.1.notify_all();
        }
        let mut answered = Vec::new();
        for _ in &held {
            let answer = stalled.recv().expect("a held request is answered");
            assert_eq!(
                answer.result.expect_err("no such model").code(),
                "bad_request"
            );
            answered.push(answer.id);
        }
        answered.sort_unstable();
        assert_eq!(answered, held);
        let answer = queued.recv().expect("the queued request is answered");
        assert_eq!(answer.id, waiting);
        assert!(answer.result.is_ok(), "{:?}", answer.result);
        server.shutdown();
    }

    #[test]
    fn over_long_line_is_rejected_and_the_connection_keeps_serving() {
        within(over_long_line_body);
    }

    fn over_long_line_body() {
        let mut server = start(ServeConfig::default()).expect("binds");
        let mut client = Client::connect(server.addr()).expect("connects");
        client.send_raw(&"x".repeat(2 << 20)).expect("sends 2 MiB");
        let rejected = client.recv().expect("the long line is answered");
        assert_eq!(rejected.id, 0);
        match rejected.result {
            Err(e) => assert_eq!(e.code(), "bad_request", "{e}"),
            Ok(ok) => panic!("expected bad_request, got {ok:?}"),
        }
        let stats = client.request(&Request::Stats).expect("stats after it");
        assert!(stats.result.is_ok(), "{:?}", stats.result);
        server.shutdown();
    }

    #[test]
    fn poisoned_locks_do_not_silence_the_daemon() {
        within(poisoned_locks_body);
    }

    fn poisoned_locks_body() {
        let mut server = start(ServeConfig::default()).expect("binds");
        // One thread dies holding the metrics lock, another the queue
        // lock (the workers are parked on the queue's condvar meanwhile).
        for hold_metrics in [true, false] {
            let shared = Arc::clone(&server.shared);
            let died = thread::spawn(move || {
                let _held = if hold_metrics {
                    (Some(shared.metrics.lock()), None)
                } else {
                    (None, Some(shared.queue.lock()))
                };
                panic!("dies holding a daemon lock");
            })
            .join();
            assert!(died.is_err());
        }
        assert!(server.shared.metrics.is_poisoned());
        assert!(server.shared.queue.is_poisoned());
        let mut client = Client::connect(server.addr()).expect("connects");
        let stats = client.request(&Request::Stats).expect("stats");
        assert!(stats.result.is_ok(), "{:?}", stats.result);
        let planned = client.request(&plan("bert-0.35b")).expect("plan");
        assert!(planned.result.is_ok(), "{:?}", planned.result);
        server.shutdown();
    }

    /// A `Write` that records the bytes of every `write` call.
    #[derive(Default)]
    struct Recorder(Vec<Vec<u8>>);

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn queued_lines_leave_in_one_write() {
        let (tx, rx) = mpsc::channel();
        for line in ["a", "b", "c"] {
            tx.send(line.to_owned()).expect("queued");
        }
        drop(tx);
        let mut out = Recorder::default();
        write_responses(&rx, &mut out);
        assert_eq!(out.0, [b"a\nb\nc\n".to_vec()]);
    }

    #[test]
    fn warm_round_trips_do_not_wait_for_delayed_acks() {
        within(warm_round_trips_body);
    }

    /// A client that sends each request line in one write on a
    /// `TCP_NODELAY` socket sees only the daemon's own latency: a
    /// response split over two writes stalls each round trip for a
    /// delayed ACK (about 40 ms on Linux loopback). The wall clock is
    /// what this test measures.
    #[allow(clippy::disallowed_methods)]
    fn warm_round_trips_body() {
        let mut server = start(ServeConfig::default()).expect("binds");
        let mut stream = TcpStream::connect(server.addr()).expect("connects");
        stream.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(stream.try_clone().expect("clones"));
        let mut round_trip = |id: u64| {
            let line = format!("{}\n", encode_request_line(id, &Request::Stats));
            let t0 = std::time::Instant::now();
            stream.write_all(line.as_bytes()).expect("sends");
            let mut answer = String::new();
            reader.read_line(&mut answer).expect("answered");
            let decoded = mpress_api::decode_response_line(answer.trim_end()).expect("decodes");
            assert_eq!(decoded.id, id);
            assert!(decoded.result.is_ok(), "{:?}", decoded.result);
            t0.elapsed()
        };
        for id in 1..=3 {
            round_trip(id);
        }
        let mut rtts: Vec<_> = (4..24).map(&mut round_trip).collect();
        rtts.sort();
        let median = rtts[rtts.len() / 2];
        assert!(
            median < std::time::Duration::from_millis(20),
            "median stats round trip {median:?}"
        );
        server.shutdown();
    }

    #[test]
    fn capped_reader_keeps_lines_up_to_the_cap() {
        let at_cap = "y".repeat(MAX_LINE_BYTES);
        let input = format!("{at_cap}\n{at_cap}z\r\nshort\r\nlast");
        let mut reader = std::io::Cursor::new(input.into_bytes());
        let mut buf = Vec::new();
        let mut lines = Vec::new();
        while let Some(line) = read_line_capped(&mut reader, &mut buf).expect("reads") {
            lines.push(match line {
                Line::Complete => String::from_utf8(buf.clone()).expect("utf-8"),
                Line::TooLong => "<too long>".to_owned(),
            });
        }
        assert_eq!(lines, [at_cap.as_str(), "<too long>", "short", "last"]);
    }
}
