package radar

import "repro/internal/core"

// Update kinds, in the order a consumer typically sees them: dataset
// admissions, family membership changes, then the control-plane events
// (reorg rollbacks and snapshot swaps).
const (
	KindContract       = string(core.RoleContract)
	KindOperator       = string(core.RoleOperator)
	KindAffiliate      = string(core.RoleAffiliate)
	KindFamilyContract = "family_contract"
	KindReorg          = "reorg"
	KindSwap           = "swap"
)

// Update is one entry in the radar's cursor-ordered event feed.
// Cursors are monotonically increasing and survive checkpoint/resume,
// so a consumer polling daas_radarUpdates with its last cursor never
// sees an entry twice. A "reorg" entry carries the fork block: a
// consumer drops the entries it holds of later blocks, and the radar
// then emits the admissions of the canonical blocks after the fork,
// never one at or below it.
type Update struct {
	Cursor uint64 `json:"cursor"`
	Block  uint64 `json:"block"`
	Kind   string `json:"kind"`
	// Address is the admitted contract/operator/affiliate, hex-encoded
	// (empty for reorg/swap events).
	Address string `json:"address,omitempty"`
	// Family names the cluster a family_contract event joined.
	Family string `json:"family,omitempty"`
	// Discovery is "seed" or "expansion" for admission events.
	Discovery string `json:"discovery,omitempty"`
}

// Status is a point-in-time summary of the daemon, served by
// daas_radarStatus.
type Status struct {
	Head         uint64     `json:"head"`
	Cursor       uint64     `json:"cursor"`
	Stats        core.Stats `json:"stats"`
	SeedStats    core.Stats `json:"seed_stats"`
	Families     int        `json:"families"`
	Pending      int        `json:"pending_txs"`
	Reorgs       int        `json:"reorgs"`
	Swaps        uint64     `json:"swaps"`
	UpdateCursor uint64     `json:"update_cursor"`
}

// updateRingCap bounds the in-memory update feed; consumers further
// behind than this see Dropped=true and should resync from a full
// export.
const updateRingCap = 1024

// emitLocked appends an update to the ring, assigning its cursor.
func (r *Radar) emitLocked(u Update) {
	r.updateCursor++
	u.Cursor = r.updateCursor
	r.updates = append(r.updates, u)
	if len(r.updates) > updateRingCap {
		r.updates = r.updates[len(r.updates)-updateRingCap:]
	}
	r.m.updates.Inc()
}

// Updates returns feed entries with cursor > after, at most limit
// (limit <= 0 means no limit), the current cursor, and whether entries
// between after and the ring's oldest entry have been dropped.
func (r *Radar) Updates(after uint64, limit int) ([]Update, uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	dropped := len(r.updates) > 0 && after+1 < r.updates[0].Cursor
	if len(r.updates) == 0 && after < r.updateCursor {
		dropped = true
	}
	out := []Update{}
	for _, u := range r.updates {
		if u.Cursor <= after {
			continue
		}
		out = append(out, u)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out, r.updateCursor, dropped
}

// Status reports the daemon's current head, cursor, dataset sizes, and
// feed position.
func (r *Radar) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Status{
		Head:         r.lastHead,
		Cursor:       r.cursor,
		Stats:        r.adm.DS.Stats(),
		SeedStats:    r.adm.DS.SeedStats,
		Families:     r.familyCount,
		Pending:      len(r.pending),
		Reorgs:       r.reorgs,
		Swaps:        r.swaps,
		UpdateCursor: r.updateCursor,
	}
}
