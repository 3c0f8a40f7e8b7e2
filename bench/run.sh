#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source
# (first call) and runs it, keeping the Go build cache inside the
# checkout so nothing is read or written outside it.
set -euo pipefail
cd "$(dirname "$0")"
export GOCACHE="$PWD/../.bench_build/go-cache"
exec go run . "$@"
