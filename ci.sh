#!/bin/sh
# Hermetic CI gate: everything must build, test, and lint cleanly
# without touching the network or a crates.io registry. The workspace
# has no external dependencies (see tests/hermetic.rs), so an offline
# build failing means a regression.
set -eu

export CARGO_NET_OFFLINE=true

cargo build --release
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc must build without warnings, so intra-doc links cannot
# dangle after an item is renamed or deleted.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Invariant checking must stay near-linear in log size (2k vs 20k
# entries, one soundness invariant per service); exits non-zero if a
# 10x log costs more than 20x the time.
cargo run --release -p libseal-bench --bin scaling_gate

# Crash matrix: simulate a crash / transient error / torn write at
# every failpoint on the audited write path, restart, and check the
# recovery contract (durable prefix, verifying chain, reconciled
# counter). Bounded: one fixed workload per (site, fault) pair.
cargo run --release -p libseal-bench --bin crash_matrix

# Telemetry must stay near-free on the hottest audited path: compare
# audited-append throughput with the registry enabled vs disabled
# (no-op handles) and fail on a >5% regression.
cargo run --release -p libseal-bench --bin telemetry_overhead

# Group commit must amortise counter binds and fsyncs across
# concurrent requests: 8 audited clients must push >= 3x the
# single-client throughput, with telemetry confirming batches formed
# (>= 2 appends per counter bind and per fsync).
cargo run --release -p libseal-bench --bin group_commit_gate

# The event-driven service core must hold >= 5000 concurrent idle
# STLS sessions on one reactor thread (all still serviceable under
# active load) and cross the enclave boundary measurably less often
# per request than the threaded baseline (sgxsim transition counters,
# event/threaded ratio <= 0.9).
ulimit -n 16384 2>/dev/null || true
cargo run --release -p libseal-bench --bin event_loop_gate

# Incremental invariant checking must cost O(rows touched since the
# last check): the per-append check cost on a 1M-entry Git log may be
# at most 2x the 1k-entry log's, the incremental verdicts must match
# the full-scan reference exactly (including injected violations),
# and the background verifier pool must drain with its lag gauge and
# alarm counter live in /metrics.
cargo run --release -p libseal-bench --bin check_scaling_gate

# Hostile-network hardening: a deterministic chaos matrix (resets,
# truncation, short reads, delays at every phase, both serving modes)
# must leave the server serving and the audit chain verifiable; at 2x
# the connection cap the excess must be refused fast while established
# connections keep p99 within budget; and a graceful drain under load
# must answer the in-flight request within its deadline.
cargo run --release -p libseal-bench --bin overload_chaos_gate

# Attestation must be load-bearing: an attested apache+squid fleet
# (quotes pinned on both legs) must serve a load run with zero errors
# and verify clean, a wrong-MRENCLAVE server must be rejected by every
# client during the handshake (zero requests served), and the attested
# handshake may cost at most 15% extra median latency over a plain
# CA-verified one.
cargo run --release -p libseal-bench --bin attestation_gate
