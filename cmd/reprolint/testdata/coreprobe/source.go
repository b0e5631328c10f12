package coreprobe

import (
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/ethtypes"
)

// Receipt calls the source directly outside stack.go: one rule-5
// finding.
func Receipt(src core.ChainSource, h ethtypes.Hash) (*chain.Receipt, error) {
	if _, err := read(src, h); err != nil {
		return nil, err
	}
	return src.Receipt(h)
}
