package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/ethtypes"
)

// checkpointVersion guards the on-disk format; a mismatch refuses the
// resume rather than silently building on a different state shape.
// Version 2 added the integrity quarantine snapshot and the coverage
// ledger — without them a resumed build would re-admit records the
// interrupted run had already proven rotten and under-report its gaps.
const checkpointVersion = 2

// checkpointJSON is the serialized expansion state at an iteration
// boundary: the dataset so far plus exactly the loop-carried state of
// Build (scanned accounts, classified hashes, the frontier tracker's
// pending accounts, and the completed-iteration count). Restoring it
// and continuing the loop is byte-for-byte equivalent to never having
// stopped, because every admission decision depends only on this
// state and the (immutable) chain.
type checkpointJSON struct {
	Version    int             `json:"version"`
	Iterations int             `json:"iterations_done"`
	Dataset    json.RawMessage `json:"dataset"`
	Scanned    []string        `json:"scanned_accounts"`
	Classified []string        `json:"classified_txs"`
	// PendingOperators/PendingAffiliates are the frontier tracker's
	// not-yet-drained discoveries, preserved in the role split the
	// tracker's ordering contract requires.
	PendingOperators  []string `json:"pending_operators"`
	PendingAffiliates []string `json:"pending_affiliates"`
	// Quarantine is the integrity layer's store (QuarantineState
	// snapshot); empty when the build ran without one.
	Quarantine json.RawMessage `json:"quarantine,omitempty"`
	// Coverage is the completeness ledger at the checkpoint boundary.
	Coverage *coverageJSON `json:"coverage,omitempty"`
	// Head and Radar are the version-3 radar extension: the last block
	// number folded into the dataset, and the daemon's opaque state blob
	// (incremental cluster snapshot, pending retries, reorg ring). Both
	// absent in pipeline (version-2) checkpoints.
	Head  *uint64         `json:"head_cursor,omitempty"`
	Radar json.RawMessage `json:"radar,omitempty"`
}

// coverageJSON serializes a CoverageStats with hex-keyed degraded
// accounts (Go's JSON encoder sorts map keys, keeping the bytes
// deterministic).
type coverageJSON struct {
	TxFetched       int64            `json:"tx_fetched"`
	TxQuarantined   int64            `json:"tx_quarantined"`
	AccountsScanned int64            `json:"accounts_scanned"`
	Degraded        map[string]int64 `json:"degraded_accounts"`
}

// buildState is the restartable portion of one Build run.
type buildState struct {
	ds         *Dataset
	scanned    map[ethtypes.Address]bool
	classified map[ethtypes.Hash]bool
	tracker    *frontierTracker
	iterations int // completed expansion iterations (seed phase = 0)

	// quarantine and cov are the pipeline's live stores, serialized into
	// each checkpoint; on restore their decoded counterparts land in
	// quarantineBlob/coverage for the pipeline to re-apply.
	quarantine     QuarantineState
	cov            *Coverage
	quarantineBlob []byte
	coverage       CoverageStats
}

// WriteCheckpointFile publishes checkpoint bytes at path atomically:
// they are written to a temp file in the same directory, synced, and
// renamed into place, so a crash mid-write leaves either the previous
// checkpoint or none — never a torn file. It returns the byte count.
func WriteCheckpointFile(path string, buf []byte) (int64, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("core: creating checkpoint temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return 0, fmt.Errorf("core: writing checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return 0, fmt.Errorf("core: syncing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("core: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("core: publishing checkpoint: %w", err)
	}
	return int64(len(buf)), nil
}

func marshalCheckpoint(st *buildState) ([]byte, error) {
	cp := checkpointJSON{
		Version:           checkpointVersion,
		Iterations:        st.iterations,
		Scanned:           sortedHex(st.scanned),
		PendingOperators:  sortedHex(st.tracker.ops),
		PendingAffiliates: sortedHex(st.tracker.affs),
	}
	if st.quarantine != nil {
		blob, err := st.quarantine.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("core: serializing checkpoint quarantine: %w", err)
		}
		cp.Quarantine = json.RawMessage(blob)
	}
	if st.cov != nil {
		stats := st.cov.Stats()
		cov := &coverageJSON{
			TxFetched:       stats.TxFetched,
			TxQuarantined:   stats.TxQuarantined,
			AccountsScanned: stats.AccountsScanned,
			Degraded:        make(map[string]int64, len(stats.Degraded)),
		}
		for a, n := range stats.Degraded {
			cov.Degraded[a.Hex()] = n
		}
		cp.Coverage = cov
	}
	return encodeCheckpoint(cp, st.ds, st.classified)
}

// encodeCheckpoint serializes cp after filling in the two parts every
// checkpoint version carries: the dataset and the classified set.
func encodeCheckpoint(cp checkpointJSON, ds *Dataset, classified map[ethtypes.Hash]bool) ([]byte, error) {
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("core: serializing checkpoint dataset: %w", err)
	}
	cp.Dataset = json.RawMessage(buf.Bytes())
	cp.Classified = sortedHex(classified)
	out, err := json.MarshalIndent(cp, "", " ")
	if err != nil {
		return nil, fmt.Errorf("core: serializing checkpoint: %w", err)
	}
	return out, nil
}

// decodeCheckpoint decodes a checkpoint, refusing any version but
// want, and returns it with its dataset and classified set decoded.
func decodeCheckpoint(r io.Reader, want int) (*checkpointJSON, *Dataset, map[ethtypes.Hash]bool, error) {
	var cp checkpointJSON
	if err := json.NewDecoder(r).Decode(&cp); err != nil {
		return nil, nil, nil, fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	if cp.Version != want {
		return nil, nil, nil, fmt.Errorf("core: checkpoint version %d, want %d", cp.Version, want)
	}
	ds, err := ReadJSON(bytes.NewReader(cp.Dataset))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: checkpoint dataset: %w", err)
	}
	classified := make(map[ethtypes.Hash]bool, len(cp.Classified))
	for _, s := range cp.Classified {
		h, err := ethtypes.HexToHash(s)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("core: checkpoint classified tx: %w", err)
		}
		classified[h] = true
	}
	return &cp, ds, classified, nil
}

// loadCheckpointFile opens path and decodes it with read; a missing
// file returns the zero value and no error, so a resume run with no
// checkpoint starts fresh.
func loadCheckpointFile[T any](path string, read func(io.Reader) (T, error)) (T, error) {
	var zero T
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return zero, nil
	}
	if err != nil {
		return zero, fmt.Errorf("core: opening checkpoint: %w", err)
	}
	defer f.Close()
	return read(f)
}

// readCheckpoint loads and validates a pipeline checkpoint.
func readCheckpoint(r io.Reader) (*buildState, error) {
	cp, ds, classified, err := decodeCheckpoint(r, checkpointVersion)
	if err != nil {
		return nil, err
	}
	st := &buildState{
		ds:         ds,
		classified: classified,
		tracker:    newFrontierTracker(),
		iterations: cp.Iterations,
	}
	if st.scanned, err = parseAddrSet(cp.Scanned, "scanned account"); err != nil {
		return nil, err
	}
	if st.tracker.ops, err = parseAddrSet(cp.PendingOperators, "pending operator"); err != nil {
		return nil, err
	}
	if st.tracker.affs, err = parseAddrSet(cp.PendingAffiliates, "pending affiliate"); err != nil {
		return nil, err
	}
	st.quarantineBlob = []byte(cp.Quarantine)
	st.coverage = CoverageStats{Degraded: make(map[ethtypes.Address]int64)}
	if cp.Coverage != nil {
		st.coverage.TxFetched = cp.Coverage.TxFetched
		st.coverage.TxQuarantined = cp.Coverage.TxQuarantined
		st.coverage.AccountsScanned = cp.Coverage.AccountsScanned
		for hex, n := range cp.Coverage.Degraded {
			a, err := ethtypes.HexToAddress(hex)
			if err != nil {
				return nil, fmt.Errorf("core: checkpoint degraded account: %w", err)
			}
			st.coverage.Degraded[a] = n
		}
	}
	return st, nil
}

// parseAddrSet decodes hex addresses into a set; what names the list
// in errors.
func parseAddrSet(hexes []string, what string) (map[ethtypes.Address]bool, error) {
	out := make(map[ethtypes.Address]bool, len(hexes))
	for _, s := range hexes {
		a, err := ethtypes.HexToAddress(s)
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint %s: %w", what, err)
		}
		out[a] = true
	}
	return out, nil
}

// sortedHex returns the hex forms of a set's members, sorted.
func sortedHex[K interface {
	comparable
	Hex() string
}](m map[K]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k.Hex())
	}
	sort.Strings(out)
	return out
}
