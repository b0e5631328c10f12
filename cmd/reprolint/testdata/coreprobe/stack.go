// Package coreprobe is linted as if it were internal/core: its
// stack.go may probe capabilities and call a source directly, and
// every other file may do neither.
package coreprobe

import (
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/ethtypes"
)

// batches is the leaf adapter's probe, which rule 7 allows here.
func batches(src core.ChainSource) bool {
	_, ok := src.(core.BatchSource)
	return ok
}

// read is the leaf adapter's direct call, which rule 5 allows here.
func read(src core.ChainSource, h ethtypes.Hash) (*chain.Transaction, error) {
	return src.Transaction(h)
}
