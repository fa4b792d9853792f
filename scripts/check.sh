#!/usr/bin/env bash
# Repo-wide gate: build, tests, lints, and the benchmark still builds
# (and, in full mode, still runs and checks its own answers).
#
# Offline-friendly: every external dependency is vendored under
# shims/, so --offline is the default; pass --online to let cargo
# touch the network (e.g. on a developer machine with a warm index).
#
# Usage: scripts/check.sh [--online] [--quick]
#   --quick  skip the release build, the benchmark smoke run, the
#            overhead guards and the experiment-table tripwire

set -euo pipefail
cd "$(dirname "$0")/.."

NET=--offline
QUICK=0
for arg in "$@"; do
    case "$arg" in
        --online) NET= ;;
        --quick) QUICK=1 ;;
        *) echo "unknown flag: $arg" >&2; exit 2 ;;
    esac
done

run() {
    echo "==> $*"
    "$@"
}

# Tier 1: the seed gate — debug build + the full test suite.
run cargo build $NET
run cargo test -q $NET --workspace

# Every evaluation layer can be turned off through one feature set
# (`xqeval::Features`, read from XQSE_FEATURES), and each layer must be
# semantically transparent: re-run the semantic suites — conformance,
# chaos (staleness matrix), the paper's use cases and Figure 3 — with
# each layer removed in turn, then with all of them off (`none`, the
# plain reference evaluator).
for spec in -opt -batch -graft -lazy none; do
    echo "==> XQSE_FEATURES=$spec cargo test -q $NET --test conformance --test chaos --test use_cases --test figure3"
    XQSE_FEATURES=$spec cargo test -q $NET --test conformance --test chaos \
        --test use_cases --test figure3
done

# Crash-recovery chaos matrix: the journaled-2PC acceptance gate.
# Crashes the coordinator at every protocol point (FaultKind::CrashPoint
# on the Op::Xa* ops), asserts divergent source state before recover()
# and the atomicity invariant after, and counter-asserts that recovery
# is a no-op on a clean journal and idempotent on a dirty one.
run cargo test -q $NET --test chaos xa_

# Serving-pool concurrency gate: the canonical shard-lock-order
# regression (two workers submitting overlapping table sets in
# opposite declaration order), the 4-worker mixed read/write/XA soak
# under a fault plan (timeouts + breaker trip + coordinator crash,
# with post-recovery atomicity and monotonic table versions), and the
# pooled-vs-sequential read-equivalence property.
run cargo test -q $NET --test chaos serve_

# Request-budget gate (PR 8): the cancel-at-every-XA-protocol-point
# stall matrix (a budget must never split a distributed transaction),
# the pool admission books (completed + shed + cancelled = offered),
# fuel/deadline/memory enforcement, worker-panic containment, and the
# no-partial-writes property under random interruption.
run cargo test -q $NET --test chaos budget_

# Lints. Clippy may be absent in minimal toolchains; warn, don't fail.
# Note: the optimizer-layer modules (xqeval/engine.rs, aldsp/rel.rs,
# aldsp/introspect.rs) carry in-source `#![deny(clippy::unwrap_used)]`,
# so this pass also rejects panicking unwraps on those read paths.
if cargo clippy --version >/dev/null 2>&1; then
    run cargo clippy $NET --workspace --all-targets -- -D warnings
else
    echo "==> cargo clippy unavailable; skipping lint pass" >&2
fi

# The repository benchmark (perfbench/, its own workspace) calls the
# library API directly: type-check it against the current tree so an
# API break fails here rather than in a benchmark run. --locked fails
# instead of rewriting perfbench/Cargo.lock; the build output stays in
# the repository's target directory.
run cargo check -q $NET --locked --manifest-path perfbench/Cargo.toml \
    --target-dir target/perfbench

if [ "$QUICK" -eq 0 ]; then
    run cargo build $NET --release

    # Benchmark smoke run: every perfbench workload for 5 s. The
    # benchmark checks its own output (the pages, the EMP2 rows), so a
    # wrong answer fails here rather than first in a benchmark run.
    # Fail on a non-zero exit, or when the last (JSON) line is not
    # `correct` or counts failed requests. Not shorter than 5 s:
    # etl_copy needs 100 batches for its p90 check and stops at 4x
    # --seconds, which a slow host (~110 ms per batch) misses at 2 s.
    if command -v python3 >/dev/null 2>&1; then
        for w in profile_update page_query etl_copy; do
            echo "==> perfbench/run.py --workload $w --seconds 5 --trace 0"
            last=$(CARGO_TARGET_DIR=target/perfbench python3 perfbench/run.py \
                --workload "$w" --seconds 5 --trace 0 | tail -n 1)
            python3 -c '
import json, sys
w, r = sys.argv[1], json.loads(sys.argv[2])
if r.get("correct") is not True or r.get("failed", 1) > 0:
    sys.exit("perfbench %s: correct=%s failed=%s" % (w, r.get("correct"), r.get("failed")))
print("perfbench %s: correct, %d attempted, 0 failed" % (w, r["attempted"]))
' "$w" "$last"
        done
    else
        echo "==> python3 unavailable; skipping the benchmark smoke run" >&2
    fi

    # Journal-overhead guard: the journaled coordinator must stay
    # within 5% of the same protocol driven through the branch calls
    # with no journal, on the no-fault path. Wall-clock on shared
    # hardware is noisy: warn, don't fail.
    echo "==> cargo test -q $NET --release --test chaos xa_journal_overhead_guard -- --ignored"
    cargo test -q $NET --release --test chaos xa_journal_overhead_guard -- --ignored \
        || echo "==> xa journal overhead guard exceeded its 5% budget (warning only)" >&2

    # Budget-overhead guard: a fully armed budget that never trips
    # must stay within 5% of the unbudgeted evaluator.
    # Same noise caveat: warn, don't fail.
    echo "==> cargo test -q $NET --release --test chaos budget_overhead_guard -- --ignored"
    cargo test -q $NET --release --test chaos budget_overhead_guard -- --ignored \
        || echo "==> budget overhead guard exceeded its 5% budget (warning only)" >&2

    # Bench-regression tripwire: run the quick experiment table
    # (including E14, the serving-pool throughput curve, and E16, the
    # zero-copy construction ablation — which self-asserts byte-equal
    # graft/copy serialization on every run), compare against the
    # checked-in BENCH_E*.json baselines. Timing-column
    # regressions beyond 25 % WARN (quick mode on shared hardware is
    # noisy); a >15 % QPS drop on the E14 pool-4 row is a HARD FAIL —
    # that is the whole point of this PR and it must not quietly rot.
    BENCH_TMP=$(mktemp -d)
    trap 'rm -rf "$BENCH_TMP"' EXIT
    echo "==> exptab quick --json --out $BENCH_TMP"
    cargo run -q $NET --release -p xqse-bench --bin exptab -- \
        quick --json --out "$BENCH_TMP"
    if command -v python3 >/dev/null 2>&1; then
        set +e
        python3 scripts/bench_diff.py "$BENCH_TMP" . --warn-pct 25 --qps-fail-pct 15
        BENCH_RC=$?
        set -e
        if [ "$BENCH_RC" -eq 2 ]; then
            echo "==> 4-worker serving-pool QPS regressed beyond the 15% tripwire" >&2
            exit 1
        elif [ "$BENCH_RC" -ne 0 ]; then
            echo "==> bench baseline check reported regressions (warning only)" >&2
        fi
    else
        echo "==> python3 unavailable; skipping bench baseline diff" >&2
    fi
fi

echo "OK"
