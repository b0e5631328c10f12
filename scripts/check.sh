#!/usr/bin/env bash
# Tier-2 verification gate. Tier-1 (go build ./... && go test ./...) is
# the minimum bar for every commit; this script layers the slower checks
# on top: vet, the race detector, and the repo's own linter.
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

echo "==> go test -race ./internal/obs/..."
go test -race ./internal/obs/...

echo "==> go test -race ./internal/core/... ./internal/fetchcache/... ./internal/rpc/..."
go test -race ./internal/core/... ./internal/fetchcache/... ./internal/rpc/...

echo "==> go test -race ./..."
go test -race ./...

echo "==> loadgen smoke: fixed-seed schedules are deterministic, exports stay byte-identical"
go test -count=1 -run 'TestScheduleDeterministic|TestPipelineByteIdentical' ./internal/loadgen/

echo "==> screen race: zero-lock engine and wallet guard under concurrent snapshot swaps"
go test -race -count=1 -run 'TestEngineSwapUnderConcurrentReads|TestGuardConcurrentReload' ./internal/screen/ ./internal/walletguard/

echo "==> snapshot apply fuzz smoke: Apply of a delta serializes exactly as a Build of the merged set over the seed corpus + 10s of new inputs"
go test -count=1 -run=NONE -fuzz 'FuzzSnapshotApply' -fuzztime 10s ./internal/screen/

echo "==> screen loadgen: batch schedule deterministic, verdicts byte-identical under swap churn"
go test -count=1 -run 'TestScreenScheduleDeterministic|TestScreenSwapUnderLoadByteIdentical' ./internal/loadgen/

echo "==> cluster truth: §7.1 recovers worldgen's planted families; both edge kinds are load-bearing"
go test -count=1 -run 'TestClusterMatchesTruth|TestClusterEdgeAblation' ./internal/cluster/

echo "==> radar stream: dataset shape deterministic under concurrent screening load"
go test -count=1 -run 'TestRadarStreamDeterministic' ./internal/loadgen/

# perfbench is its own module, so the root `go vet ./...` skips it.
echo "==> perfbench module: vet, then tests of metric lists, traced-vs-untraced radar and study exports"
(cd perfbench && GOPROXY=off GOFLAGS= GOWORK=off go vet ./... && GOPROXY=off GOFLAGS= GOWORK=off go test -count=1 ./...)

echo "==> benchdiff self-test: the gate demonstrably fails on an injected slowdown"
go test -count=1 ./cmd/benchdiff/

echo "==> fault-matrix smoke: seeded transport faults under a retrying JSON-RPC client must not change the dataset"
go test -count=1 -run 'TestFaultMatrixBuildIsByteIdentical' ./daas/

echo "==> corruption-matrix smoke: injected corruption is quarantined, export stays byte-identical"
go test -count=1 -run 'TestCorruptionMatrixBuildIsByteIdentical' ./daas/

echo "==> checkpoint/resume round trip: killed build resumes byte-identical"
go test -count=1 -run 'TestCheckpointResumeByteIdentical|TestFaultedCheckpointResumeThroughClient' ./internal/core/ ./daas/

echo "==> quarantined checkpoint round trip: resume preserves quarantine and coverage"
go test -count=1 -run 'TestQuarantinedCheckpointResumeRoundTrip' ./daas/

echo "==> integrity fuzz smoke: validators are total over the seed corpus + 10s of new inputs"
go test -count=1 -run=NONE -fuzz 'FuzzValidateRecord' -fuzztime 10s ./internal/integrity/

echo "==> fingerprint agreement: static fingerprints match dynamic prober verdicts for every style x family"
go test -count=1 -run 'TestFingerprintAgreementMatrix|TestStaticDynamicAgreement' ./internal/contracts/

echo "==> static screen race: concurrent fingerprint screening over a generated world"
go test -race -count=1 -run 'TestStaticScreen|TestAnnotateFingerprints' ./internal/core/

echo "==> pathological bytecode: adversarial jump-dense contracts stay inside the visit budget"
go test -count=1 -run 'TestAnalyzeBudgetedPathological' ./internal/evmstatic/

echo "==> fingerprint fuzz smoke: the static engine is total over the template corpus + 10s of new inputs"
go test -count=1 -run=NONE -fuzz 'FuzzFingerprints' -fuzztime 10s ./internal/evmstatic/

echo "==> rpc hardening: body/batch caps, shedding, deadlines, panic recovery, health probes under race"
go test -race -count=1 -run 'TestBodyCap|TestBatchCap|TestOverloadShed|TestRequestDeadline|TestRadarDeadlineWhileMutexHeld|TestPanicRecovery|TestWriteErrorCounted|TestHealthEndpoints|TestSlowLorisEvicted|TestGracefulServe' ./internal/rpc/

echo "==> rpc fuzz smoke: hardened ServeHTTP is total over the malformed corpus + 10s of new inputs"
go test -count=1 -run=NONE -fuzz 'FuzzServeHTTP' -fuzztime 10s ./internal/rpc/

echo "==> rpc codec fuzz smoke: the daas_screenBatch codec matches encoding/json byte for byte over the seed corpus + 10s of new inputs"
go test -count=1 -run=NONE -fuzz 'FuzzScreenBatchCodec' -fuzztime 10s ./internal/rpc/

echo "==> chaos soak: race-checked hardened server under hostile traffic with a mid-run upstream outage"
go test -race -count=1 -run 'TestChaosSoak' ./internal/loadgen/

# ---- Benchmark artifacts + regression gates ------------------------
# Each suite is emitted as a daas-bench/v1 JSON artifact and gated
# against the committed baseline in scripts/bench/. Timing metrics get
# a generous 5x tolerance (CI machines vary); shape metrics (profit-txs
# and friends) are deterministic and gate tight. A missing baseline
# bootstraps itself; record intentional changes with
#   go run ./cmd/benchdiff gate -current BENCH_x.json \
#     -baseline scripts/bench/BENCH_x.baseline.json -update

echo "==> bench: pipeline suite -> BENCH_pipeline.json"
go test -run=NONE -bench 'BenchmarkPipelineConcurrency|BenchmarkLoadgenSource|BenchmarkLoadgenOpenLoop|BenchmarkLoadgenPipeline' \
  -benchtime=1x . ./internal/loadgen/ \
  | tee /dev/stderr \
  | go run ./cmd/benchdiff emit -suite pipeline -o BENCH_pipeline.json
go run ./cmd/benchdiff gate -current BENCH_pipeline.json \
  -baseline scripts/bench/BENCH_pipeline.baseline.json -tolerance 5

echo "==> bench: rpc suite -> BENCH_rpc.json"
go test -run=NONE -bench 'BenchmarkLoadgenRPC' -benchtime=1x ./internal/loadgen/ \
  | tee /dev/stderr \
  | go run ./cmd/benchdiff emit -suite rpc -o BENCH_rpc.json
go run ./cmd/benchdiff gate -current BENCH_rpc.json \
  -baseline scripts/bench/BENCH_rpc.baseline.json -tolerance 5

echo "==> bench: static suite -> BENCH_static.json"
go test -run=NONE -bench 'BenchmarkStaticAnalyze' -benchtime=50x ./internal/evmstatic/ \
  | tee /dev/stderr \
  | go run ./cmd/benchdiff emit -suite static -o BENCH_static.json
go run ./cmd/benchdiff gate -current BENCH_static.json \
  -baseline scripts/bench/BENCH_static.baseline.json -tolerance 5

echo "==> bench: screen suite -> BENCH_screen.json"
go test -run=NONE -bench 'BenchmarkScreenBatch' -benchtime=1x ./internal/loadgen/ \
  | tee /dev/stderr \
  | go run ./cmd/benchdiff emit -suite screen -o BENCH_screen.json
go run ./cmd/benchdiff gate -current BENCH_screen.json \
  -baseline scripts/bench/BENCH_screen.baseline.json -tolerance 5

echo "==> bench: radar suite -> BENCH_radar.json"
go test -run=NONE -bench 'BenchmarkRadarStream' -benchtime=1x ./internal/loadgen/ \
  | tee /dev/stderr \
  | go run ./cmd/benchdiff emit -suite radar -o BENCH_radar.json
go run ./cmd/benchdiff gate -current BENCH_radar.json \
  -baseline scripts/bench/BENCH_radar.baseline.json -tolerance 5

echo "==> bench: chaos suite -> BENCH_chaos.json"
go test -run=NONE -bench 'BenchmarkChaos' -benchtime=1x ./internal/loadgen/ \
  | tee /dev/stderr \
  | go run ./cmd/benchdiff emit -suite chaos -o BENCH_chaos.json
go run ./cmd/benchdiff gate -current BENCH_chaos.json \
  -baseline scripts/bench/BENCH_chaos.baseline.json -tolerance 5

echo "==> reprolint ./..."
go run ./cmd/reprolint ./...

echo "All tier-2 checks passed."
