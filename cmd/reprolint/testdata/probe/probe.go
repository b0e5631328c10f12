// Package probe plants exactly one rule-7 finding: a capability probe
// on a chain source outside internal/core.
package probe

import "repro/internal/core"

// Batches reports whether src can batch.
func Batches(src core.ChainSource) bool {
	_, ok := src.(core.BatchSource)
	return ok
}

// Local is a concrete assertion, which rule 7 leaves alone.
func Local(src core.ChainSource) bool {
	_, ok := src.(core.LocalSource)
	return ok
}
