#!/usr/bin/env bash
# The smoke gate a CI job can call: every workload at reduced size with
# every reply checked, once untraced and once traced, in under a minute
# after the build. Fails unless
#   - BENCHMARK.json is byte for byte what the program defines,
#   - the emitted workload and metric names equal those in BENCHMARK.json,
#   - every name matches [A-Za-z0-9_.-]+ and every value is finite,
#   - failed_share is 0 on every run.
set -euo pipefail
cd "$(dirname "$0")/.."

bench() {
    cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- "$@"
}

out=benchmark/out
mkdir -p "$out"
bench manifest | cmp - BENCHMARK.json
bench run --smoke --out "$out/smoke-e2e.json"
bench trace --smoke --out "$out/smoke-trace.json"
bench check "$out/smoke-e2e.json" BENCHMARK.json
bench check "$out/smoke-trace.json" BENCHMARK.json
echo "benchmark smoke: ok"
