package worldgen

import "testing"

// BenchmarkGenerate builds the perfbench study and screen world
// (DefaultConfig(1) at scale 0.05), the setup those workloads pay.
func BenchmarkGenerate(b *testing.B) {
	cfg := DefaultConfig(1)
	cfg.Scale = 0.05
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
