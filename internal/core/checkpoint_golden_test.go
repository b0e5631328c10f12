package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/ethtypes"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// fixedQuarantine is a QuarantineState with a constant snapshot.
type fixedQuarantine []byte

func (q fixedQuarantine) Snapshot() ([]byte, error) { return q, nil }
func (q fixedQuarantine) Restore([]byte) error      { return nil }

func goldenAddr(b byte) ethtypes.Address { return ethtypes.Address{19: b} }

// goldenDataset is a one-contract dataset with a single split.
func goldenDataset() (*Dataset, map[ethtypes.Hash]bool) {
	t0 := time.Date(2023, 5, 1, 12, 0, 0, 0, time.UTC)
	h := ethtypes.Hash{31: 0xaa}
	ds := NewDataset()
	ds.Contracts[goldenAddr(1)] = &ContractRecord{Address: goldenAddr(1), Found: DiscoverySeed,
		Sources: []string{"chainabuse"}, FirstSeen: t0, LastSeen: t0, TxCount: 1}
	ds.Operators[goldenAddr(2)] = &AccountRecord{Address: goldenAddr(2), Found: DiscoverySeed, FirstSeen: t0, LastSeen: t0}
	ds.Affiliates[goldenAddr(3)] = &AccountRecord{Address: goldenAddr(3), Found: DiscoverySeed, FirstSeen: t0, LastSeen: t0}
	ds.Splits[h] = []Split{{TxHash: h, Time: t0, Contract: goldenAddr(1), Payer: goldenAddr(4),
		Operator: goldenAddr(2), Affiliate: goldenAddr(3),
		OperatorAmount: ethtypes.NewWei(200), AffiliateAmount: ethtypes.NewWei(800), RatioPM: 200}}
	ds.SeedStats = ds.Stats()
	return ds, map[ethtypes.Hash]bool{h: true}
}

// checkGolden compares got with testdata/name, rewriting it under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoded bytes differ from the pinned format\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestCheckpointBytesPinned pins the on-disk bytes of both checkpoint
// versions, and checks that decoding a pinned file and encoding it
// again reproduces it.
func TestCheckpointBytesPinned(t *testing.T) {
	ds, classified := goldenDataset()
	cov := NewCoverage()
	cov.NoteFetched(3)
	cov.NoteScanned(2)
	cov.NoteQuarantined(goldenAddr(9), 1)
	tracker := newFrontierTracker()
	tracker.ops[goldenAddr(5)] = true
	tracker.affs[goldenAddr(6)] = true
	q := fixedQuarantine(`{"records":[]}`)
	v2, err := marshalCheckpoint(&buildState{
		ds:         ds,
		scanned:    map[ethtypes.Address]bool{goldenAddr(2): true},
		classified: classified,
		tracker:    tracker,
		iterations: 1,
		quarantine: q,
		cov:        cov,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "checkpoint_v2.golden", v2)

	v3, err := MarshalRadarCheckpoint(&RadarCheckpoint{Dataset: ds, Classified: classified, Head: 42,
		Radar: json.RawMessage(`{"ring":[{"number":42,"hash":"0x01"}]}`)})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "checkpoint_v3.golden", v3)

	st, err := readCheckpoint(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	st.quarantine = fixedQuarantine(st.quarantineBlob)
	st.cov = NewCoverage()
	st.cov.restore(st.coverage)
	again, err := marshalCheckpoint(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, v2) {
		t.Fatal("version-2 decode + encode does not reproduce the pinned bytes")
	}
	cp, err := ReadRadarCheckpoint(bytes.NewReader(v3))
	if err != nil {
		t.Fatal(err)
	}
	again, err = MarshalRadarCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, v3) {
		t.Fatal("version-3 decode + encode does not reproduce the pinned bytes")
	}
}
