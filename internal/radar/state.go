package radar

import (
	"encoding/json"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ethtypes"
)

// stateExt is the radar's opaque extension blob inside a version-3
// checkpoint: everything beyond the dataset and classified set that
// the daemon needs to continue exactly where it stopped. All slices
// are emitted in deterministic order so identical states serialize to
// identical bytes.
type stateExt struct {
	// Cluster is the incremental clusterer's snapshot.
	Cluster json.RawMessage `json:"cluster"`
	// Pending lists transactions parked at the expansion gate; they are
	// re-fetched and re-classified after restore, which reproduces the
	// in-memory rich entries deterministically.
	Pending []pendingJSON `json:"pending,omitempty"`
	// Ring is the reorg ring of recently processed block hashes.
	Ring []ringJSON `json:"ring"`
	// Reorgs, Swaps, and UpdateCursor keep the daemon's counters (and
	// the update feed's monotonic cursor) continuous across resume.
	Reorgs       int    `json:"reorgs"`
	Swaps        uint64 `json:"swaps"`
	UpdateCursor uint64 `json:"update_cursor"`
}

type pendingJSON struct {
	Tx    string `json:"tx"`
	Block uint64 `json:"block"`
}

type ringJSON struct {
	Number uint64 `json:"number"`
	Hash   string `json:"hash"`
}

// marshalStateLocked serializes the daemon's full persisted state to
// the on-disk checkpoint's bytes. Reorg rollback does not go through
// it: the undo journal restores the live state in place.
func (r *Radar) marshalStateLocked() ([]byte, error) {
	cblob, err := r.inc.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("radar: snapshotting clusterer: %w", err)
	}
	ext := stateExt{
		Cluster:      json.RawMessage(cblob),
		Reorgs:       r.reorgs,
		Swaps:        r.swaps,
		UpdateCursor: r.updateCursor,
	}
	for _, h := range r.sortedPendingLocked() {
		ext.Pending = append(ext.Pending, pendingJSON{Tx: h.Hex(), Block: r.pending[h].block})
	}
	for _, e := range r.ring {
		ext.Ring = append(ext.Ring, ringJSON{Number: e.Number, Hash: e.Hash.Hex()})
	}
	blob, err := json.Marshal(ext)
	if err != nil {
		return nil, fmt.Errorf("radar: serializing state extension: %w", err)
	}
	return core.MarshalRadarCheckpoint(&core.RadarCheckpoint{
		Dataset:    r.adm.DS,
		Classified: r.adm.Classified,
		Head:       r.cursor,
		Radar:      blob,
	})
}

// applyCheckpointLocked installs a decoded checkpoint as the live
// state, counters and update cursor included, with an empty undo
// journal: a fork below the checkpoint's head resets to genesis.
func (r *Radar) applyCheckpointLocked(cp *core.RadarCheckpoint) error {
	var ext stateExt
	if len(cp.Radar) == 0 {
		return fmt.Errorf("radar: checkpoint has no radar state extension")
	}
	if err := json.Unmarshal(cp.Radar, &ext); err != nil {
		return fmt.Errorf("radar: decoding state extension: %w", err)
	}
	if len(ext.Ring) == 0 {
		return fmt.Errorf("radar: checkpoint ring is empty")
	}

	inc := cluster.NewIncremental(r.cfg.Labels, r.cfg.Metrics)
	if len(ext.Cluster) > 0 {
		if err := inc.Restore(ext.Cluster); err != nil {
			return fmt.Errorf("radar: restoring clusterer: %w", err)
		}
	}
	pending := make(map[ethtypes.Hash]*pendingTx, len(ext.Pending))
	for _, p := range ext.Pending {
		h, err := ethtypes.HexToHash(p.Tx)
		if err != nil {
			return fmt.Errorf("radar: checkpoint pending tx: %w", err)
		}
		pending[h] = &pendingTx{block: p.Block}
	}
	ring := make([]ringEntry, 0, len(ext.Ring))
	for _, e := range ext.Ring {
		h, err := ethtypes.HexToHash(e.Hash)
		if err != nil {
			return fmt.Errorf("radar: checkpoint ring hash: %w", err)
		}
		ring = append(ring, ringEntry{Number: e.Number, Hash: h})
	}

	r.adm.DS = cp.Dataset
	r.adm.Classified = cp.Classified
	r.cursor = cp.Head
	r.inc = inc
	r.pending = pending
	r.ring = ring
	r.famOf = make(map[ethtypes.Address]string)
	r.familyCount = 0
	r.dirty = true // recompile (and re-announce families) after restore
	r.rebuild = true
	r.reorgs = ext.Reorgs
	r.swaps = ext.Swaps
	r.updateCursor = ext.UpdateCursor
	r.startJournalLocked()
	return nil
}
