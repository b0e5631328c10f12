#!/usr/bin/env bash
# Tier-2 verification gate. Tier-1 (go build ./... && go test ./...) is
# the minimum bar for every commit; this script adds what tier 1 does
# not run:
#   - gofmt and go vet;
#   - the race detector over every package (go test -race ./...), which
#     runs every test once: no step below reruns a test by name;
#   - 10s fuzz smokes of six fuzz targets beyond their seed corpora;
#   - the perfbench module (its own go.mod), vetted and tested;
#   - repro's paper-scale stdout, compared with its golden at
#     -concurrency 1 and 4;
#   - six benchmark suites, each gated on timing and throughput only
#     against its baseline in scripts/bench/ (5x tolerance);
#   - reprolint, the repository's own linter.
#
# Usage: ./scripts/check.sh   (from the repository root)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "gofmt: these files are not formatted:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> snapshot apply fuzz smoke: Apply of a delta serializes exactly as a Build of the merged set over the seed corpus + 10s of new inputs"
go test -count=1 -run=NONE -fuzz 'FuzzSnapshotApply' -fuzztime 10s ./internal/screen/

# perfbench is its own module, so the root `go vet ./...` skips it.
echo "==> perfbench module: vet, then tests of metric lists, traced-vs-untraced radar and study exports"
(cd perfbench && GOPROXY=off GOFLAGS= GOWORK=off go vet ./... && GOPROXY=off GOFLAGS= GOWORK=off go test -count=1 ./...)

echo "==> integrity fuzz smoke: validators are total over the seed corpus + 10s of new inputs"
go test -count=1 -run=NONE -fuzz 'FuzzValidateRecord' -fuzztime 10s ./internal/integrity/

echo "==> script-src fuzz smoke: the crawler's script scanner returns exactly the reference regexp's submatches over the seed corpus + 10s of new inputs"
go test -count=1 -run=NONE -fuzz 'FuzzScriptSrcs' -fuzztime 10s ./internal/crawler/

echo "==> fingerprint fuzz smoke: the static engine is total over the template corpus + 10s of new inputs"
go test -count=1 -run=NONE -fuzz 'FuzzFingerprints' -fuzztime 10s ./internal/evmstatic/

echo "==> rpc fuzz smoke: hardened ServeHTTP is total over the malformed corpus + 10s of new inputs"
go test -count=1 -run=NONE -fuzz 'FuzzServeHTTP' -fuzztime 10s ./internal/rpc/

echo "==> rpc codec fuzz smoke: the daas_screenBatch codec matches encoding/json byte for byte over the seed corpus + 10s of new inputs"
go test -count=1 -run=NONE -fuzz 'FuzzScreenBatchCodec' -fuzztime 10s ./internal/rpc/

# The paper-scale numbers: repro's stdout at chain scale 1.0 (seed 1910)
# must equal the golden at any -concurrency, minus the three lines that
# carry wall times ("[world] ... in", "[study] ... in" and the "phishing
# websites detected ... in" row), which $walltime strips. Regenerate
# only for an intended output change, and list the changed lines:
#   go run ./cmd/repro -scale 1.0 -sites 200 | grep -vE "$walltime" \
#     > cmd/repro/testdata/paper_scale.golden
walltime='^(\[world\]|\[study\]|  phishing websites detected) .* in [0-9][0-9.hms]*$'
mkdir -p .bench_build
go build -o .bench_build/repro ./cmd/repro
for c in 1 4; do
  echo "==> paper-scale golden: repro -scale 1.0 -sites 200 -concurrency $c matches cmd/repro/testdata/paper_scale.golden"
  .bench_build/repro -scale 1.0 -sites 200 -concurrency "$c" > .bench_build/paper_scale.out
  grep -vE "$walltime" .bench_build/paper_scale.out | diff -u cmd/repro/testdata/paper_scale.golden -
done

# ---- Benchmark artifacts + regression gates ------------------------
# tee_err copies its input to stdout and to this script's own stderr.
# `tee /dev/stderr` reopens the file behind fd 2: plain, it truncates a
# redirected log; with -a, writes through a `>`-opened stdout overwrite
# its appends. Writing through the inherited descriptor keeps both.
tee_err() {
  while IFS= read -r line || [ -n "$line" ]; do
    printf '%s\n' "$line"
    printf '%s\n' "$line" >&2
  done
}

# Each suite is emitted as a daas-bench/v1 JSON artifact under the
# ignored $bench_dir, so a run leaves the tree clean, and gated against
# the committed baseline in scripts/bench/. Timing and throughput
# metrics get a generous 5x tolerance (CI machines vary); the counts
# the workloads yield are asserted by ordinary tests, so benchdiff
# fails on any other metric. A missing baseline fails the gate; record
# a new suite or an intentional change with
#   go run ./cmd/benchdiff gate -current .bench_build/bench/BENCH_x.json \
#     -baseline scripts/bench/BENCH_x.baseline.json -update
bench_dir=.bench_build/bench
mkdir -p "$bench_dir"

# BenchmarkLoadgenSource and BenchmarkLoadgenOpenLoop time 1,000-2,000
# sub-microsecond ops per run, so one GC pause moves their p99 by 5-25x:
# they run 5 times, and emit records each metric's median.
echo "==> bench: pipeline suite -> $bench_dir/BENCH_pipeline.json"
{
  go test -run=NONE -bench 'BenchmarkPipelineConcurrency|BenchmarkLoadgenPipeline' \
    -benchtime=1x . ./internal/loadgen/
  go test -run=NONE -bench '^(BenchmarkLoadgenSource|BenchmarkLoadgenOpenLoop)$' \
    -benchtime=1x -count 5 ./internal/loadgen/
} \
  | tee_err \
  | go run ./cmd/benchdiff emit -suite pipeline -o "$bench_dir/BENCH_pipeline.json"
go run ./cmd/benchdiff gate -current "$bench_dir/BENCH_pipeline.json" \
  -baseline scripts/bench/BENCH_pipeline.baseline.json -tolerance 5

echo "==> bench: rpc suite -> $bench_dir/BENCH_rpc.json"
go test -run=NONE -bench 'BenchmarkLoadgenRPC' -benchtime=1x ./internal/loadgen/ \
  | tee_err \
  | go run ./cmd/benchdiff emit -suite rpc -o "$bench_dir/BENCH_rpc.json"
go run ./cmd/benchdiff gate -current "$bench_dir/BENCH_rpc.json" \
  -baseline scripts/bench/BENCH_rpc.baseline.json -tolerance 5

echo "==> bench: static suite -> $bench_dir/BENCH_static.json"
go test -run=NONE -bench 'BenchmarkStaticAnalyze' -benchtime=50x ./internal/evmstatic/ \
  | tee_err \
  | go run ./cmd/benchdiff emit -suite static -o "$bench_dir/BENCH_static.json"
go run ./cmd/benchdiff gate -current "$bench_dir/BENCH_static.json" \
  -baseline scripts/bench/BENCH_static.baseline.json -tolerance 5

echo "==> bench: screen suite -> $bench_dir/BENCH_screen.json"
go test -run=NONE -bench 'BenchmarkScreenBatch' -benchtime=1x ./internal/loadgen/ \
  | tee_err \
  | go run ./cmd/benchdiff emit -suite screen -o "$bench_dir/BENCH_screen.json"
go run ./cmd/benchdiff gate -current "$bench_dir/BENCH_screen.json" \
  -baseline scripts/bench/BENCH_screen.baseline.json -tolerance 5

echo "==> bench: radar suite -> $bench_dir/BENCH_radar.json"
go test -run=NONE -bench 'BenchmarkRadarStream' -benchtime=1x ./internal/loadgen/ \
  | tee_err \
  | go run ./cmd/benchdiff emit -suite radar -o "$bench_dir/BENCH_radar.json"
go run ./cmd/benchdiff gate -current "$bench_dir/BENCH_radar.json" \
  -baseline scripts/bench/BENCH_radar.baseline.json -tolerance 5

echo "==> bench: chaos suite -> $bench_dir/BENCH_chaos.json"
go test -run=NONE -bench 'BenchmarkChaos' -benchtime=1x ./internal/loadgen/ \
  | tee_err \
  | go run ./cmd/benchdiff emit -suite chaos -o "$bench_dir/BENCH_chaos.json"
go run ./cmd/benchdiff gate -current "$bench_dir/BENCH_chaos.json" \
  -baseline scripts/bench/BENCH_chaos.baseline.json -tolerance 5

echo "==> reprolint ./..."
go run ./cmd/reprolint ./...

echo "All tier-2 checks passed."
