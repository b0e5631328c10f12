package cluster

import "repro/internal/core"

// Feed runs the batch Clusterer's history walk over ds and returns the
// fed Incremental before rollup, so tests drive an Incremental through
// the one feeding loop instead of a copy of it.
func Feed(c *Clusterer, ds *core.Dataset) (*Incremental, error) { return c.feed(ds) }
