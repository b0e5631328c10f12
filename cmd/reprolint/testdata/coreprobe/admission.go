package coreprobe

import "repro/internal/core"

// Batches probes outside stack.go: one rule-7 finding.
func Batches(src core.ChainSource) bool {
	_, ok := src.(core.BatchSource)
	return ok || batches(src)
}
