#!/usr/bin/env bash
# Full verification gate: formatting, release build, test suite, lint,
# high-worker-count determinism, the telemetry JSON contract, the
# certified-bounds soundness oracle, and the planner/emulator/
# service smoke-runs (write BENCH_planner.json, BENCH_sim.json,
# BENCH_serve.json and BENCH_bounds.json at the repo root).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== rustfmt (check) =="
cargo fmt --check

echo "== build (release) =="
# --workspace: the root manifest is also the suite package, and a bare
# `cargo build` would skip the member-only binaries (mpress-cli, exp_*).
cargo build --release --workspace

echo "== tests =="
# --workspace: member crates carry their own unit and integration tests
# (the planner's frontier tie-order pin, the plan cache's poisoning
# test, the service's panic/line-cap tests, the mpress-par watchdogs)
# that a bare `cargo test` on the root package never runs.
cargo test -q --workspace

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== determinism source lints (mpress-lint) =="
# Token-level wall-clock / hash-container / panic-site lints over the
# workspace sources, ratcheted by lint_allowlist.txt (counts may only
# go down; regenerate with `mpress-lint --update`).
./target/release/mpress-lint --root .

echo "== static plan verifier (mpress-cli check) =="
# The planner's chosen plan must verify clean on a pressured job, and
# the --json document must round-trip through the JSON parser.
./target/release/mpress-cli check --model bert-1.67b --json \
    | ./target/release/json_roundtrip_check
./target/release/mpress-cli check --model gpt-10.3b --machine dgx2 --json \
    | ./target/release/json_roundtrip_check
# --bounds nests the certified-bounds document next to the report; the
# combined document must still round-trip.
./target/release/mpress-cli check --model bert-1.67b --bounds --json \
    | ./target/release/json_roundtrip_check

echo "== certified-bounds soundness oracle (exp_bench_bounds) =="
# Zoo x {DGX-1, DGX-2} x five directive mutations per case: every
# emulated makespan and per-device peak must lie inside its certified
# interval, certified-oom must be confirmed by the engine, and
# certified-fit forbids device-pool OOM. Exits nonzero on any escape.
./target/release/exp_bench_bounds --out BENCH_bounds.json

echo "== determinism at MPRESS_JOBS=8 =="
# The jobs=1 vs jobs=4 contract is in the suite; re-check the planner and
# telemetry fingerprints under a wider pool than CI's default.
MPRESS_JOBS=8 cargo test -q --test determinism

echo "== telemetry JSON round trip =="
# `train --metrics=json` must emit a single machine-readable document.
./target/release/mpress-cli train --model bert-1.67b --metrics=json \
    | ./target/release/json_roundtrip_check

echo "== planner timing smoke-run + zoo plan table =="
# The reference case runs at MPRESS_JOBS if set, else auto-detected; the
# JSON records the effective value alongside wall-clock and cache
# counters. The 20 zoo jobs always run at jobs=1, and --check fails on
# any deterministic field (per-job emulator runs, refinement rounds,
# makespan, TFLOPS, plan digest, and the search work counts) that differs from the
# checked-in table. A change
# that is meant to move plans regenerates the table without --check and
# lists every changed row.
./target/release/exp_bench_planner --check BENCH_planner.json --out BENCH_planner.json

echo "== emulator fast-path smoke-run =="
# Steady-state emulation throughput, plan wall at jobs=1/8, and two hard
# gates (each exits nonzero on failure): the jobs=8 wall sanity gate and
# --min-eps, which pins from-scratch throughput to a generous fraction of
# the checked-in baseline — wall clocks on small shared boxes swing ~2x,
# so this only catches order-of-magnitude regressions.
min_eps=$(awk -F'"emulations_per_sec": ' '{split($2, a, ","); printf "%.0f", a[1] * 0.3}' BENCH_sim.json)
./target/release/exp_bench_sim --out BENCH_sim.json --min-eps "${min_eps:-0}"

echo "== planning-service smoke-run (mpress-serve) =="
# Boot the daemon through the real CLI entry point, then drive it with
# the deterministic load generator: 4 clients, 240 mixed requests. The
# generator exits nonzero unless every response is byte-identical to
# local execution, the process-global plan cache reports hits, and the
# daemon counted zero protocol errors. --shutdown stops the daemon when
# done; `wait` confirms it exits cleanly. The p99 gate is generous —
# wall clocks on small shared boxes swing, so it only catches hangs.
./target/release/mpress-cli serve --addr 127.0.0.1:7077 &
serve_pid=$!
for _ in $(seq 1 50); do
    if ./target/release/mpress-cli client --addr 127.0.0.1:7077 --kind stats \
        >/dev/null 2>&1; then break; fi
    sleep 0.1
done
./target/release/exp_bench_serve --addr 127.0.0.1:7077 --shutdown \
    --max-p99-ms 5000 --out BENCH_serve.json
wait "$serve_pid"
