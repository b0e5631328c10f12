package core

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/ethtypes"
)

// radarCheckpointVersion is the on-disk format of a head-following
// radar checkpoint. Version 3 extends the pipeline's version-2 shape
// with a head cursor and an opaque daemon-state blob; the pipeline
// loader keeps refusing anything but version 2, so the two consumers
// can never resume from each other's files by accident.
const radarCheckpointVersion = 3

// RadarCheckpoint is the persisted state of a head-following radar at
// a block boundary: the dataset so far, the classified-transaction
// set, the last block number folded in, and the daemon's own extension
// blob (incremental cluster snapshot, pending retries, reorg ring) —
// opaque to core. Together with the (replayable) chain these determine
// the radar's entire future output, which is what makes resume
// byte-identical to an uninterrupted run.
type RadarCheckpoint struct {
	Dataset    *Dataset
	Classified map[ethtypes.Hash]bool
	Head       uint64
	Radar      json.RawMessage
}

// MarshalRadarCheckpoint serializes cp to its on-disk byte form, from
// which a resume must continue exactly where the checkpointed radar
// stopped.
func MarshalRadarCheckpoint(cp *RadarCheckpoint) ([]byte, error) {
	head := cp.Head
	return encodeCheckpoint(checkpointJSON{Version: radarCheckpointVersion, Head: &head, Radar: cp.Radar},
		cp.Dataset, cp.Classified)
}

// ReadRadarCheckpoint decodes a radar checkpoint from r.
func ReadRadarCheckpoint(r io.Reader) (*RadarCheckpoint, error) {
	in, ds, classified, err := decodeCheckpoint(r, radarCheckpointVersion)
	if err != nil {
		return nil, err
	}
	if in.Head == nil {
		return nil, fmt.Errorf("core: radar checkpoint missing head_cursor")
	}
	return &RadarCheckpoint{Dataset: ds, Classified: classified, Head: *in.Head, Radar: in.Radar}, nil
}

// LoadRadarCheckpoint opens path and decodes it; a missing file
// returns (nil, nil) so a resume run with no checkpoint starts fresh.
func LoadRadarCheckpoint(path string) (*RadarCheckpoint, error) {
	return loadCheckpointFile(path, ReadRadarCheckpoint)
}
