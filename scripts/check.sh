#!/usr/bin/env bash
# Full local gate: format, lints, tests, a service smoke test, a smoke
# pass over every Criterion bench, and the perfbench harness's own
# tests. Run before pushing.
#
# `--chaos` appends the adversarial stage: the chaos driver over 20
# fixed seeds, both guarded-bug detection runs (which must FAIL loudly,
# proving the invariants have teeth), 8 seeded multi-tenant floods plus
# the weighted fair-share load test, the differential matrix at two
# thread counts, and an audit that every `#[ignore]`d test is accounted
# for in TESTING.md.
#
# `--chaos` also appends the hardening stage: 4 seeded crash loops
# proving journal-persisted poison-job quarantine, plus the staged
# overload brownout run of `loadgen --overload` with its exact
# admission ledger.
#
# `--recovery` appends the kill-and-restart stage: 12 seeded staged
# crashes mid-load, each restarted on the same journal + cache, with
# every recovery invariant checked (no accepted job lost, byte-identical
# results, one compute per key per process, reconciled metrics), plus a
# drain-mid-flood run of the load generator over real HTTP. `--chaos`
# implies `--recovery`.
#
# `--cluster` appends the multi-node stage: the 3-node kill + partition
# + rejoin chaos scenario over 6 seeds, then a real 3-process fleet
# (`serve --peers` on fixed ports) flooded twice by `loadgen --cluster`,
# which requires exactly one compute per key cluster-wide, byte-equal
# digests on every node, and a second pass served entirely from cache.
# `--chaos` implies `--cluster`.
#
# `--obs` appends the observability stage: the obs crate's tests with
# the `trace` feature armed, a traced `repro` run whose chrome://tracing
# file must cover all five flow stages with stdout byte-identical to an
# untraced run, and a smoke pass over the obs_overhead bench.
#
# `--bench` appends the performance stage: the route/sweep/service
# Criterion groups run *for real* (measured, release), their medians are
# merged into BENCH_pnr.json, and benchgate fails the build on any
# median more than 10% worse than the committed BENCH_baseline.json.
# The route group includes `route/graph_store_wmin`, pinning the
# graph-store speedup of the W_min binary search (its baseline entry
# was measured store-less, so a store regression shows up as a miss of
# the committed ≥20% win, not just noise).
set -euo pipefail
cd "$(dirname "$0")/.."

RUN_CHAOS=0
RUN_RECOVERY=0
RUN_CLUSTER=0
RUN_OBS=0
RUN_BENCH=0
for arg in "$@"; do
    case "$arg" in
        --chaos) RUN_CHAOS=1; RUN_RECOVERY=1; RUN_CLUSTER=1 ;;
        --recovery) RUN_RECOVERY=1 ;;
        --cluster) RUN_CLUSTER=1 ;;
        --obs) RUN_OBS=1 ;;
        --bench) RUN_BENCH=1 ;;
        *) echo "usage: scripts/check.sh [--chaos] [--recovery] [--cluster] [--obs] [--bench]" >&2; exit 2 ;;
    esac
done

# Fail fast, with an actionable message, when a required cargo component
# is missing — a bare `cargo fmt` failure on a fresh toolchain is cryptic.
require_component() {
    local subcommand="$1" component="$2"
    if ! cargo "$subcommand" --version >/dev/null 2>&1; then
        echo "error: \`cargo $subcommand\` is not available." >&2
        echo "       Install it with: rustup component add $component" >&2
        exit 1
    fi
}
require_component fmt rustfmt
require_component clippy clippy

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test --workspace -q

echo "==> service smoke test (serve --self-test)"
cargo run -q -p nemfpga-bench --bin serve -- --self-test

echo "==> cargo bench -- --test (smoke)"
cargo bench --workspace -- --test

# perfbench is its own workspace, so the workspace-wide steps above
# never build it; a library API change could break it unnoticed.
echo "==> perfbench harness tests"
CARGO_TARGET_DIR=.bench_build cargo test -q --manifest-path perfbench/Cargo.toml

if [[ "$RUN_CHAOS" -eq 1 ]]; then
    echo "==> chaos: 20 seeded fault plans against the live serve loop"
    cargo run -q --release -p nemfpga-testkit --bin chaos -- --seeds 0..20

    echo "==> chaos: guarded bugs must be caught when reintroduced"
    cargo run -q --release -p nemfpga-testkit --bin chaos -- \
        --seeds 0..3 --with-bug skip-double-check
    cargo run -q --release -p nemfpga-testkit --bin chaos -- \
        --seeds 0..3 --with-bug leak-inflight

    echo "==> chaos: 8 seeded multi-tenant floods, every QoS invariant required"
    cargo run -q --release -p nemfpga-testkit --bin chaos -- --tenants --seeds 0..8

    echo "==> qos: weighted fair-share under load (loadgen --tenants)"
    cargo run -q --release -p nemfpga-bench --bin loadgen -- --tenants

    echo "==> hardening: 4 seeded crash loops, poison keys quarantined on schedule"
    cargo run -q --release -p nemfpga-testkit --bin chaos -- --crash-loop --seeds 0..4

    echo "==> hardening: staged overload brownout with exact ledger (loadgen --overload)"
    cargo run -q --release -p nemfpga-bench --bin loadgen -- --overload

    echo "==> differential: CAD equivalence matrix at 2 thread counts"
    cargo run -q --release -p nemfpga-testkit --bin differential -- --cases 56 --threads 4
    cargo run -q --release -p nemfpga-testkit --bin differential -- --cases 56 --threads 7

    echo "==> differential: injected divergence must shrink to the minimal case"
    cargo run -q --release -p nemfpga-testkit --bin differential -- --inject-divergence 5

    echo "==> audit: every #[ignore]d test must be documented in TESTING.md"
    ignored=$(grep -rn '#\[ignore' --include='*.rs' crates/ shims/ | grep -v 'TESTING.md' || true)
    if [[ -n "$ignored" ]]; then
        while IFS= read -r line; do
            test_name=$(sed -n "$(( $(echo "$line" | cut -d: -f2) + 1 )),+3p" \
                "$(echo "$line" | cut -d: -f1)" | grep -o 'fn [a-z_0-9]*' | head -1 | cut -d' ' -f2)
            if [[ -z "$test_name" ]] || ! grep -q "$test_name" TESTING.md; then
                echo "error: ignored test not referenced in TESTING.md: $line" >&2
                exit 1
            fi
        done <<< "$ignored"
    fi
fi

if [[ "$RUN_RECOVERY" -eq 1 ]]; then
    echo "==> recovery: 12 seeded kill-and-restart crashes, zero violations required"
    cargo run -q --release -p nemfpga-testkit --bin chaos -- --restart --seeds 0..12

    echo "==> recovery: drain mid-flood over HTTP, zero lost jobs required"
    cargo run -q --release -p nemfpga-bench --bin loadgen -- --chaos-restart \
        --requests 256 --unique 64 --concurrency 48 --threads 1 --drain-grace-ms 0
fi

if [[ "$RUN_CLUSTER" -eq 1 ]]; then
    echo "==> cluster: 6 seeded kill+partition+rejoin schedules, zero violations required"
    cargo run -q --release -p nemfpga-testkit --bin chaos -- --cluster --seeds 0..6

    echo "==> cluster: 3-process fleet over real HTTP, flooded twice by loadgen --cluster"
    cluster_dir=$(mktemp -d)
    PEERS="127.0.0.1:17871,127.0.0.1:17872,127.0.0.1:17873"
    declare -a cluster_pids=()
    cleanup_cluster() {
        for pid in "${cluster_pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
        for pid in "${cluster_pids[@]:-}"; do wait "$pid" 2>/dev/null || true; done
        rm -rf "$cluster_dir"
    }
    trap cleanup_cluster EXIT
    cargo build -q --release -p nemfpga-bench --bin serve --bin loadgen
    for i in 1 2 3; do
        port=$((17870 + i))
        target/release/serve --addr "127.0.0.1:$port" \
            --peers "$PEERS" --sync-interval-ms 200 --cluster-seed "$i" \
            --cache-dir "$cluster_dir/node-$i/cache" \
            --journal "$cluster_dir/node-$i/journal.log" \
            > "$cluster_dir/node-$i.log" 2>&1 &
        cluster_pids+=($!)
    done
    for i in 1 2 3; do
        port=$((17870 + i))
        for _ in $(seq 1 100); do
            if (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then exec 3>&-; break; fi
            sleep 0.1
        done
    done
    target/release/loadgen --cluster --peers "$PEERS" --unique 24 --concurrency 12 || {
        echo "error: loadgen --cluster failed against the serve fleet" >&2
        for i in 1 2 3; do echo "--- node $i log ---" >&2; cat "$cluster_dir/node-$i.log" >&2; done
        exit 1
    }
    cleanup_cluster
    cluster_pids=()
    trap - EXIT
fi

if [[ "$RUN_OBS" -eq 1 ]]; then
    echo "==> obs: span recorder tests with the trace feature armed"
    cargo test -q -p nemfpga-obs --features trace

    echo "==> obs: traced repro covers all five flow stages, stdout unchanged"
    trace_dir=$(mktemp -d)
    trap 'rm -rf "$trace_dir"' EXIT
    cargo run -q -p nemfpga-bench --bin repro -- fig9 > "$trace_dir/plain.txt"
    cargo run -q -p nemfpga-bench --features obs --bin repro -- \
        fig9 --trace-out "$trace_dir/trace.json" \
        > "$trace_dir/traced.txt" 2> "$trace_dir/summary.txt"
    cmp "$trace_dir/plain.txt" "$trace_dir/traced.txt" || {
        echo "error: traced repro output diverged from the untraced run" >&2; exit 1; }
    for stage in pack place route sta power; do
        grep -q "\"name\":\"$stage\"" "$trace_dir/trace.json" || {
            echo "error: trace is missing the $stage stage" >&2
            cat "$trace_dir/summary.txt" >&2
            exit 1
        }
    done
    cat "$trace_dir/summary.txt"

    echo "==> obs: obs_overhead bench (smoke, trace feature on)"
    cargo bench -q -p nemfpga-bench --features obs --bench obs_benches -- --test
fi

if [[ "$RUN_BENCH" -eq 1 ]]; then
    echo "==> bench: route/sweep/cad and service groups, measured for real"
    bench_dir=$(mktemp -d)
    # ${trace_dir:+…} keeps the --obs stage's temp dir covered: a second
    # `trap … EXIT` replaces the first.
    trap 'rm -rf "$bench_dir" ${trace_dir:+"$trace_dir"}' EXIT
    BENCH_OUT="$bench_dir/cad.json" \
        cargo bench -q -p nemfpga-bench --bench cad_benches -- route sweep cad
    BENCH_OUT="$bench_dir/service.json" \
        cargo bench -q -p nemfpga-bench --bench service_benches

    echo "==> bench: merging medians into BENCH_pnr.json"
    cargo run -q --release -p nemfpga-bench --bin benchgate -- merge \
        BENCH_pnr.json "$bench_dir/cad.json" "$bench_dir/service.json"

    echo "==> bench: gating against BENCH_baseline.json (>10% median regression fails)"
    cargo run -q --release -p nemfpga-bench --bin benchgate -- compare \
        BENCH_baseline.json BENCH_pnr.json --max-regress 0.10 --groups route,sweep,service
fi

echo "All checks passed."
