package core

// ReviewVisits reports the split entries every §5.2 review so far has
// read (see reviewVisits).
func ReviewVisits() int64 { return reviewVisits.Load() }
