//! `serve-hot` and `serve-mixed`: load against an in-process daemon on
//! loopback, started with `mpress_serve::start` and driven with
//! pre-encoded request lines, so the daemon receives only the generated
//! inputs.

use crate::common::{
    cold_execute, connections, digest, failure, peak_rss_mb, train_tflops, SETUP_REPS,
};
use crate::inputs::{self, Item, MixedSchedule, Rng};
use crate::report::Report;
use crate::stats::{geomean, median, percentile};
use mpress_api::{encode_request_line, encode_response_line, Request, Response, ServeError};
use mpress_serve::{Client, ServeConfig, ServerHandle};
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// `serve-mixed` arrivals per second. At this rate the daemon keeps up
/// with the load (no backlog grows over a run: cold searches take about
/// a quarter of the batcher's time), and cold searches still share waves
/// with hot requests.
pub const MIXED_RATE: f64 = 16.0;
/// How long the open-loop receiver waits for stragglers after the last
/// send before it counts them as lost.
const GRACE: Duration = Duration::from_secs(30);

/// One request a load generator sent.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index into the generator's request lines.
    pub slot: usize,
    /// When the request was due: its scheduled time in an open loop,
    /// the previous response (or the start) in a closed loop.
    pub due: Instant,
    pub sent: Instant,
    /// When its response arrived; `None` if it never did.
    pub recv: Option<Instant>,
    /// Digest of the response line.
    pub response: u64,
}

impl Sample {
    pub fn latency_ms(&self) -> Option<f64> {
        self.recv
            .map(|r| r.duration_since(self.due).as_secs_f64() * 1e3)
    }

    pub fn lag_ms(&self) -> f64 {
        self.sent.duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// What a load generator saw: its samples and every distinct response
/// line, keyed by digest.
#[derive(Debug)]
pub struct Load {
    pub samples: Vec<Sample>,
    pub lines: BTreeMap<u64, String>,
    pub start: Instant,
}

impl Load {
    fn new(start: Instant) -> Self {
        Load {
            samples: Vec::new(),
            lines: BTreeMap::new(),
            start,
        }
    }

    fn push(&mut self, sample: Sample, line: String) {
        self.lines.entry(sample.response).or_insert(line);
        self.samples.push(sample);
    }

    fn extend(&mut self, other: Load) {
        self.samples.extend(other.samples);
        self.lines.extend(other.lines);
    }

    /// Seconds from the start of the load to its last response.
    pub fn wall_s(&self) -> f64 {
        self.samples
            .iter()
            .filter_map(|s| s.recv)
            .max()
            .map_or(0.0, |end| end.duration_since(self.start).as_secs_f64())
    }

    /// Latencies of the samples whose slot passes `keep`.
    pub fn latencies(&self, keep: impl Fn(usize) -> bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| keep(s.slot))
            .filter_map(Sample::latency_ms)
            .collect()
    }

    /// Counts each sample against `expected(slot)`: a lost or different
    /// response is a mismatch, and an error or out-of-memory answer a
    /// failure.
    pub fn check(&self, report: &mut Report, expected: impl Fn(usize) -> String) {
        for s in &self.samples {
            report.attempted += 1;
            let line = s.recv.and_then(|_| self.lines.get(&s.response));
            match line {
                Some(line) if *line == expected(s.slot) => {
                    if failure(line).is_some() {
                        report.failed += 1;
                    }
                }
                _ => {
                    report.mismatches += 1;
                    report.failed += 1;
                }
            }
        }
    }
}

pub fn start_daemon() -> ServerHandle {
    mpress_serve::start(ServeConfig::default()).expect("the daemon binds a loopback port")
}

pub fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr).expect("the daemon accepts connections")
}

/// Request lines for the menu; entry `i` carries id `i + 1`.
pub fn menu_lines(menu: &[Request]) -> Vec<String> {
    menu.iter()
        .enumerate()
        .map(|(i, r)| encode_request_line(i as u64 + 1, r))
        .collect()
}

/// Sends each line once, in order, waiting for each response.
pub fn warm_up(client: &mut Client, lines: &[String]) -> Load {
    closed_run(client, lines, 0..lines.len(), None)
}

/// Closed-loop round trips over `order` until it ends or `deadline`.
fn closed_run(
    client: &mut Client,
    lines: &[String],
    order: impl IntoIterator<Item = usize>,
    deadline: Option<Instant>,
) -> Load {
    let mut load = Load::new(Instant::now());
    let mut due = load.start;
    for slot in order {
        let sent = Instant::now();
        if deadline.is_some_and(|d| sent >= d) {
            break;
        }
        let reply = client
            .send_raw(&lines[slot])
            .and_then(|()| client.recv_raw());
        let recv = Instant::now();
        let (recv, line) = match reply {
            Ok(line) => (Some(recv), line),
            Err(e) => (None, e.to_string()),
        };
        let lost = recv.is_none();
        load.push(
            Sample {
                slot,
                due,
                sent,
                recv,
                response: digest([line.as_str()]),
            },
            line,
        );
        if lost {
            break;
        }
        due = recv.unwrap_or(sent);
    }
    load
}

/// A closed loop: each client sends its next request as soon as the
/// previous one is answered, cycling seeded permutations of the menu
/// until `duration` has passed.
pub fn closed_loop(clients: Vec<Client>, lines: &[String], seed: u64, duration: Duration) -> Load {
    let mut load = Load::new(Instant::now());
    let deadline = load.start + duration;
    std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                scope.spawn(move || {
                    let mut rng = Rng::new(seed, 100 + c as u64);
                    let order =
                        std::iter::repeat_with(move || rng.permutation(lines.len())).flatten();
                    closed_run(&mut client, lines, order, Some(deadline))
                })
            })
            .collect();
        for w in workers {
            load.extend(w.join().expect("load-generator thread"));
        }
    });
    load
}

/// An open loop on one pipelined connection: a sender thread writes
/// each line (newline included, in one write) when it is due, whatever
/// the backlog, and a receiver thread matches responses to requests by
/// id (line `k` carries id `k + 1`). Latency counts from the due time.
pub fn open_loop(addr: SocketAddr, lines: &[String], due_s: &[f64]) -> Load {
    let stream = TcpStream::connect(addr).expect("the daemon accepts connections");
    let reader = stream.try_clone().expect("socket clones");
    reader
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("read timeout");
    let mut load = Load::new(Instant::now());
    let due: Vec<Instant> = due_s
        .iter()
        .map(|s| load.start + Duration::from_secs_f64(*s))
        .collect();
    let give_up = due.last().copied().unwrap_or(load.start) + GRACE;
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut stream = stream;
            let mut sent = Vec::with_capacity(lines.len());
            for (line, at) in lines.iter().zip(&due) {
                let now = Instant::now();
                if *at > now {
                    std::thread::sleep(*at - now);
                }
                sent.push(Instant::now());
                let ok = stream
                    .write_all(line.as_bytes())
                    .and_then(|()| stream.flush());
                if ok.is_err() {
                    break;
                }
            }
            sent
        });
        let mut reader = BufReader::new(reader);
        let mut recv: Vec<Option<(Instant, String)>> = vec![None; lines.len()];
        let mut received = 0;
        let mut buf = String::new();
        while received < lines.len() {
            match reader.read_line(&mut buf) {
                Ok(0) => break,
                Ok(_) => {
                    let now = Instant::now();
                    let line = buf.trim_end_matches(['\r', '\n']).to_owned();
                    buf.clear();
                    let id = mpress_api::decode_response_line(&line).map_or(0, |d| d.id);
                    if let Some(slot) = (id as usize).checked_sub(1).filter(|s| *s < lines.len()) {
                        if recv[slot].is_none() {
                            received += 1;
                        }
                        recv[slot] = Some((now, line));
                    }
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    // A partial line stays in `buf`; keep reading.
                    if sender.is_finished() && Instant::now() > give_up {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
        let sent = sender.join().expect("sender thread");
        // A request the sender never wrote counts as lost, like one the
        // daemon never answered.
        for (slot, got) in recv.into_iter().enumerate() {
            let (recv, line) = match got {
                Some((t, line)) => (Some(t), line),
                None => (None, String::new()),
            };
            load.push(
                Sample {
                    slot,
                    due: due[slot],
                    sent: sent.get(slot).copied().unwrap_or(due[slot]),
                    recv,
                    response: digest([line.as_str()]),
                },
                line,
            );
        }
    });
    load
}

/// Counters from the daemon's `stats` endpoint.
pub fn daemon_stats(client: &mut Client) -> Value {
    match client.request(&Request::Stats).map(|d| d.result) {
        Ok(Ok((_, body))) => body,
        _ => Value::Null,
    }
}

/// A counter under `stats.service`.
pub fn service_counter(stats: &Value, name: &str) -> f64 {
    let service = stats.get("service");
    service
        .and_then(|s| s.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

pub fn service_histogram_mean(stats: &Value, name: &str) -> f64 {
    let h = stats
        .get("service")
        .and_then(|s| s.get("histograms"))
        .and_then(|h| h.get(name));
    let field = |f: &str| {
        h.and_then(|h| h.get(f))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    if field("count") > 0.0 {
        field("sum") / field("count")
    } else {
        0.0
    }
}

/// Geometric mean of the simulated TFLOPS of the `train` answers in
/// `results`.
fn train_geomean(results: &[Result<Response, ServeError>]) -> f64 {
    let tflops: Vec<f64> = results
        .iter()
        .filter_map(|r| train_tflops(&encode_response_line(0, r)))
        .collect();
    geomean(&tflops).unwrap_or(0.0)
}

/// Cold local executions of `requests`, the reference every daemon
/// response is compared with.
pub fn local_results(requests: &[Request]) -> Vec<Result<Response, ServeError>> {
    requests.iter().map(|r| cold_execute(r).1).collect()
}

/// `serve-hot` set-up: a daemon, its connections and one warm-up pass
/// over the menu, which fills the plan cache.
fn set_up_hot(lines: &[String]) -> (f64, ServerHandle, Vec<Client>, Load) {
    let t = Instant::now();
    let daemon = start_daemon();
    let mut clients: Vec<Client> = (0..connections()).map(|_| connect(daemon.addr())).collect();
    let warm = warm_up(&mut clients[0], lines);
    (t.elapsed().as_secs_f64(), daemon, clients, warm)
}

pub fn run_hot(seed: u64, seconds: u64) -> Report {
    let menu = inputs::serve_menu();
    let lines = menu_lines(&menu);
    let mut report = Report::default();
    let (first_setup, daemon, clients, mut warm) = set_up_hot(&lines);
    let load = closed_loop(clients, &lines, seed, Duration::from_secs(seconds));
    report.set("peak_rss_mb", peak_rss_mb());
    drop(daemon);
    let mut setups = vec![first_setup];
    for _ in 1..SETUP_REPS {
        let (took, _, _, w) = set_up_hot(&lines);
        setups.push(took);
        warm.extend(w);
    }

    let local = local_results(&menu);
    let expected: Vec<String> = local
        .iter()
        .enumerate()
        .map(|(i, r)| encode_response_line(i as u64 + 1, r))
        .collect();
    load.check(&mut report, |slot| expected[slot].clone());
    warm.check(&mut report, |slot| expected[slot].clone());
    report.digest = digest(expected.iter().map(String::as_str));

    let all = load.latencies(|_| true);
    let train = load.latencies(|s| menu[s].kind() == "train");
    let wall = load.wall_s();
    report.set("setup_s", median(&setups));
    report.set("train_per_s", train.len() as f64 / wall);
    report.set_pct("train_p50_ms", percentile(&train, 50.0));
    report.set("sim_tflops", train_geomean(&local));
    report.set("req_per_s", all.len() as f64 / wall);
    report.set_pct("req_p50_ms", percentile(&all, 50.0));
    report.set_pct("req_p95_ms", percentile(&all, 95.0));
    report.set_pct("hot_p50_ms", percentile(&all, 50.0));
    report.set_pct("hot_p95_ms", percentile(&all, 95.0));
    report.set_pct("cold_p50_ms", percentile(&warm.latencies(|_| true), 50.0));
    report.set_ok_frac();
    report
}

/// The `serve-mixed` inputs: the schedule and one request line per
/// arrival, newline-terminated (arrival `k` carries id `k + 1`).
pub struct MixedInputs {
    pub menu: Vec<Request>,
    pub schedule: MixedSchedule,
    pub lines: Vec<String>,
    pub due_s: Vec<f64>,
}

impl MixedInputs {
    pub fn generate(seed: u64, seconds: u64) -> Self {
        let menu = inputs::serve_menu();
        let schedule = inputs::mixed_schedule(seed, seconds as f64, MIXED_RATE);
        let lines = schedule
            .arrivals
            .iter()
            .enumerate()
            .map(|(k, a)| {
                let req = match a.item {
                    Item::Hot(i) => &menu[i],
                    Item::Cold(i) => &schedule.cold[i],
                };
                encode_request_line(k as u64 + 1, req) + "\n"
            })
            .collect();
        let due_s = schedule.arrivals.iter().map(|a| a.due_s).collect();
        MixedInputs {
            menu,
            schedule,
            lines,
            due_s,
        }
    }

    pub fn item(&self, slot: usize) -> Item {
        self.schedule.arrivals[slot].item
    }

    pub fn is_hot(&self, slot: usize) -> bool {
        matches!(self.item(slot), Item::Hot(_))
    }

    pub fn kind(&self, slot: usize) -> &'static str {
        match self.item(slot) {
            Item::Hot(i) => self.menu[i].kind(),
            Item::Cold(i) => self.schedule.cold[i].kind(),
        }
    }

    /// Checks the load against cold local executions of every hot and
    /// cold request; returns the menu's local results.
    pub fn check(&self, load: &Load, report: &mut Report) -> Vec<Result<Response, ServeError>> {
        let menu = local_results(&self.menu);
        let cold = local_results(&self.schedule.cold);
        load.check(report, |slot| {
            let result = match self.item(slot) {
                Item::Hot(i) => &menu[i],
                Item::Cold(i) => &cold[i],
            };
            encode_response_line(slot as u64 + 1, result)
        });
        // Sorted, so the digest does not depend on the seeded cold order.
        let mut bodies: Vec<String> = menu
            .iter()
            .chain(&cold)
            .map(|r| encode_response_line(0, r))
            .collect();
        bodies.sort();
        report.digest = digest(bodies.iter().map(String::as_str));
        menu
    }
}

/// `serve-mixed` set-up: the schedule and request lines, a daemon, and
/// one warm-up pass over the hot menu.
fn set_up_mixed(seed: u64, seconds: u64) -> (f64, ServerHandle, MixedInputs, Load) {
    let t = Instant::now();
    let inputs = MixedInputs::generate(seed, seconds);
    let daemon = start_daemon();
    let warm = warm_up(&mut connect(daemon.addr()), &menu_lines(&inputs.menu));
    (t.elapsed().as_secs_f64(), daemon, inputs, warm)
}

pub fn run_mixed(seed: u64, seconds: u64) -> Report {
    let mut report = Report::default();
    let (first_setup, daemon, inputs, mut warm) = set_up_mixed(seed, seconds);
    let load = open_loop(daemon.addr(), &inputs.lines, &inputs.due_s);
    report.set("peak_rss_mb", peak_rss_mb());
    drop(daemon);
    let mut setups = vec![first_setup];
    for _ in 1..SETUP_REPS {
        let (took, _, _, w) = set_up_mixed(seed, seconds);
        setups.push(took);
        warm.extend(w);
    }

    let menu = inputs.check(&load, &mut report);
    warm.check(&mut report, |slot| {
        encode_response_line(slot as u64 + 1, &menu[slot])
    });
    let all = load.latencies(|_| true);
    let hot = load.latencies(|s| inputs.is_hot(s));
    let cold = load.latencies(|s| !inputs.is_hot(s));
    let train = load.latencies(|s| inputs.kind(s) == "train");
    let wall = load.wall_s();
    report.set("setup_s", median(&setups));
    report.set("train_per_s", train.len() as f64 / wall);
    report.set_pct("train_p50_ms", percentile(&train, 50.0));
    report.set("sim_tflops", train_geomean(&menu));
    report.set("req_per_s", all.len() as f64 / wall);
    report.set_pct("req_p50_ms", percentile(&all, 50.0));
    report.set_pct("req_p95_ms", percentile(&all, 95.0));
    report.set_pct("hot_p50_ms", percentile(&hot, 50.0));
    report.set_pct("hot_p95_ms", percentile(&hot, 95.0));
    report.set_pct("cold_p50_ms", percentile(&cold, 50.0));
    report.set_ok_frac();
    report
}
