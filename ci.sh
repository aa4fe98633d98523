#!/usr/bin/env bash
# Workspace CI gate. Run from the repository root:
#
#   ./ci.sh          # format check, clippy, perfbench build, bench-target
#                    # compile check, xylem-lint audit, duplicate
#                    # test-registration check, full test suite
#   ./ci.sh lint     # determinism audit only: xylem-lint text + --json modes
#   ./ci.sh sanitize # sanitizer lane: miri (if installed) over the pure
#                    # crates + thread-count determinism digests (DTM on
#                    # the default GMG solver, scenario solve, sweep)
#   ./ci.sh bench    # regenerate BENCH_thermal.json: steady scaling up to
#                    # 128x128, GMG setup/apply per grid, stencil-vs-CSR
#                    # matvec microbench, matched-accuracy adaptive
#                    # comparison
#   ./ci.sh faults   # fault-injection sweep: seeded sensor faults, forced
#                    # solver failures, checkpoint/resume bit-identity,
#                    # and the crash-consistency suites (checkpoint and
#                    # shared-journal truncation at every byte)
#   ./ci.sh golden   # fast paper-claims suite (EXPERIMENTS.md ✅ rows) +
#                    # observability invariants, in release mode
#   ./ci.sh adaptive # adaptive-stepping convergence vs fixed-step reference
#                    # + 50-scenario divergence-injection sweep, release mode
#   ./ci.sh sweep    # sweep-engine resilience lane: a 3x3 journaled sweep
#                    # SIGKILLed mid-run must resume to 100% completion with
#                    # zero duplicate journal entries, and a seeded chaos
#                    # campaign (panics, non-convergence, deadline blowouts)
#                    # must end every task ok|quarantined and replay
#                    # bit-identically
#   ./ci.sh serve    # service lane: admission/backpressure + fairness +
#                    # crash acceptance tests (SIGKILL mid-run must resume
#                    # bit-identically with zero duplicate frames), then the
#                    # full chaos/load selftest campaign — 1000 clients, 8
#                    # tenants, seeded panics/errors/deadline misses, and a
#                    # kill drill — merging latency percentiles into
#                    # BENCH_thermal.json
#   ./ci.sh scenario # .stk DSL lane: conformance corpus (every valid file
#                    # lowers+solves, every invalid file matches its locked
#                    # .stderr snapshot), parser totality fuzz, print/parse
#                    # round-trip, golden equivalence vs the hard-wired
#                    # paper builder, and the scenario determinism digest
#
# The lint audit fails on any new finding AND on stale allowlist/baseline
# entries (the ratchet: fixing an exempted finding requires deleting its
# entry). Each stage fails fast; the whole script passing is the merge bar.
set -euo pipefail
cd "$(dirname "$0")"

if [[ "${1:-}" == "lint" ]]; then
  shift
  echo "==> xylem-lint determinism audit"
  cargo run -q -p xylem-lint -- "$@"
  exit 0
fi

if [[ "${1:-}" == "sanitize" ]]; then
  # Pure crates first: no threads, no FFI — miri-friendly if a miri
  # toolchain is installed, plain `cargo test` otherwise. The container
  # image does not bake miri in, so its absence is a skip, not a failure.
  if cargo miri --version >/dev/null 2>&1; then
    echo "==> miri (pure crates: lint, obs, workloads)"
    cargo miri test -q -p xylem-lint -p xylem-obs -p xylem-workloads
  else
    echo "==> miri not installed; falling back to plain tests for pure crates"
    cargo test -q -p xylem-lint -p xylem-obs -p xylem-workloads
  fi
  echo "==> thread-count determinism digests (DTM, scenario, sweep; 1 vs 4 threads)"
  cargo test -q --release -p xylem-core --test thread_determinism
  echo "Sanitize lane green."
  exit 0
fi

if [[ "${1:-}" == "bench" ]]; then
  echo "==> solver smoke bench (BENCH_thermal.json: scaling to 128x128, GMG setup/apply, stencil matvec)"
  # One pool thread, as perfbench pins it: the README reads these rows
  # as single-core, and an unpinned pool sizes itself to the core count.
  RAYON_NUM_THREADS=1 cargo run --release -q -p xylem-bench --bin bench_thermal_smoke
  exit 0
fi

if [[ "${1:-}" == "faults" ]]; then
  echo "==> fault-injection sweep (50 seeded scenarios + checkpoint/resume)"
  cargo test -q -p xylem-core --test fault_injection
  echo "==> DTM fault/checkpoint property tests"
  cargo test -q -p xylem-core --test proptest_dtm
  echo "==> crash consistency (checkpoint every-byte truncation, shared journal every-byte truncation)"
  cargo test -q -p xylem-core --test checkpoint_truncation
  cargo test -q -p xylem-core --test journal_crash
  echo "Fault sweep green."
  exit 0
fi

if [[ "${1:-}" == "adaptive" ]]; then
  echo "==> adaptive convergence (error vs rtol, solve-count saving)"
  cargo test -q --release -p xylem-thermal --test adaptive_convergence
  echo "==> divergence injection (50 seeded scenarios, rollback/hold/budget)"
  cargo test -q --release -p xylem-thermal --test adaptive_divergence
  echo "==> adaptive DTM integration (summary, v1 compat, bit-identical resume)"
  cargo test -q --release -p xylem-core --test adaptive_dtm
  echo "Adaptive suite green."
  exit 0
fi

if [[ "${1:-}" == "sweep" ]]; then
  echo "==> sweep resilience (SIGKILL + resume, chaos campaign, 3x3 grid)"
  cargo test -q --release -p xylem-sweep --test resilience
  echo "==> sweep engine unit tests (backoff, journal, spec, chaos rolls)"
  cargo test -q --release -p xylem-sweep --lib
  echo "==> sweep thread/shard-count determinism digest (1 vs 4)"
  cargo test -q --release -p xylem-core --test thread_determinism sweep_is_bit
  echo "Sweep lane green."
  exit 0
fi

if [[ "${1:-}" == "serve" ]]; then
  echo "==> serve admission control (backpressure, quotas, shedding, restart)"
  cargo test -q --release -p xylem-serve --test backpressure
  echo "==> serve load smoke + tenant-fairness regression (tick-metered p99 bound)"
  cargo test -q --release -p xylem-serve --test load
  echo "==> serve SIGKILL drill (kill -9 mid-run; bit-identical resume, zero dup frames)"
  cargo test -q --release -p xylem-serve --test crash
  echo "==> serve unit + protocol tests"
  cargo test -q --release -p xylem-serve --lib
  echo "==> chaos/load selftest campaign (1000 clients, kill drill, bench row)"
  cargo run -q --release -p xylem-sweep --bin xylem -- serve --selftest \
    --sessions 1000 --kill-drill --spool target/serve-selftest \
    --bench-out BENCH_thermal.json
  echo "Serve lane green."
  exit 0
fi

if [[ "${1:-}" == "scenario" ]]; then
  echo "==> .stk conformance corpus (valid lowers+solves, invalid snapshot-locked)"
  cargo test -q -p xylem-scenario --test conformance
  echo "==> parser totality fuzz (every-byte truncation, mutation, byte soup)"
  cargo test -q -p xylem-scenario --test fuzz_totality
  echo "==> print/parse round-trip (corpus + generated IRs)"
  cargo test -q -p xylem-scenario --test roundtrip
  echo "==> golden equivalence vs the hard-wired paper builder (bit-for-bit)"
  cargo test -q --release -p xylem-scenario --test golden_equivalence
  echo "==> scenario sweep + unit tests"
  cargo test -q -p xylem-scenario --lib
  cargo test -q -p xylem-sweep --lib scenario
  echo "==> scenario thread-count determinism digest (1 vs 4)"
  cargo test -q --release -p xylem-core --test thread_determinism scenario_solve
  echo "Scenario lane green."
  exit 0
fi

if [[ "${1:-}" == "golden" ]]; then
  echo "==> golden paper-claims suite (EXPERIMENTS.md rows, 32x32, release)"
  cargo test -q --release -p xylem-core --test golden_paper_claims
  echo "==> thread-count determinism (bit-identical runs, 1 vs 4 threads)"
  cargo test -q --release -p xylem-core --test thread_determinism
  echo "==> xylem-obs unit + property tests"
  cargo test -q --release -p xylem-obs
  echo "Golden suite green."
  exit 0
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

# Lints only lib/bin targets: test code is allowed to unwrap (the
# [workspace.lints] clippy::unwrap_used policy is for library code).
echo "==> cargo clippy (libs + bins, warnings are errors)"
cargo clippy --workspace --lib --bins -- -D warnings

# perfbench/ is a package of its own outside the workspace, so the
# workspace build never compiles it; it still calls the library crates'
# public API, and this step catches an API change that breaks it.
# `--locked` fails on a stale perfbench/Cargo.lock instead of letting
# cargo rewrite it (a changed crate dependency edge stales it).
echo "==> perfbench build (compile-only)"
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml --target-dir target/perfbench

# Neither `cargo test` nor the steps above build a `[[bench]]` target,
# so a library change could break one unseen until `./ci.sh bench`.
echo "==> bench targets (compile-only)"
cargo check --workspace --benches --offline

echo "==> xylem-lint determinism audit (nine rules, baseline ratchet, stale check)"
cargo run -q -p xylem-lint
echo "==> xylem-lint --json (machine-readable findings, schema-locked JSONL)"
cargo run -q -p xylem-lint -- --json

echo "==> test registration (no test binary lists the same test twice)"
# `--list` prints each binary's tests after its `Running`/`Doc-tests`
# header; a name seen twice under one header is registered twice and
# would run as two racing copies.
dups=$(cargo test --workspace -- --list 2>&1 | awk '
  /^ *(Running|Doc-tests) / { bin = $0; next }
  /: (test|bench)$/ { if (seen[bin SUBSEP $0]++ == 1) print bin ": " $0 }')
if [[ -n "$dups" ]]; then
  echo "duplicate test registrations:"
  echo "$dups"
  exit 1
fi

# The vendored stand-ins under vendor/ are path dependencies inside the
# workspace root, so they are implicit workspace members and their own
# unit tests (serde_json, rand, rayon) run here too.
echo "==> cargo test"
cargo test -q --workspace

echo "CI green."
