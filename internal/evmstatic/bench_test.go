package evmstatic_test

import (
	"fmt"
	"testing"

	"repro/internal/evmstatic"
)

// BenchmarkStaticAnalyze measures the full static engine —
// disassembly, CFG, abstract interpretation, and all three fingerprint
// analyzers — over the static corpus. scripts/check.sh captures the
// results as BENCH_static.json.
func BenchmarkStaticAnalyze(b *testing.B) {
	for _, c := range staticCorpus(b) {
		b.Run(fmt.Sprintf("%s/%dB", c.name, len(c.code)), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(c.code)))
			for i := 0; i < b.N; i++ {
				evmstatic.AnalyzeRuntime(c.code, nil)
			}
		})
	}
}
