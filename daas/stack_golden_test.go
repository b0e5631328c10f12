package daas_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/daas"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/worldgen"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// countingLeaf is core.LocalSource with a per-method call count: what
// the chain itself sees.
type countingLeaf struct {
	core.LocalSource
	mu    sync.Mutex
	calls map[string]int
}

func (s *countingLeaf) count(method string) {
	s.mu.Lock()
	s.calls[method]++
	s.mu.Unlock()
}

func (s *countingLeaf) TransactionsOf(a ethtypes.Address) ([]ethtypes.Hash, error) {
	s.count("TransactionsOf")
	return s.LocalSource.TransactionsOf(a)
}

func (s *countingLeaf) IsContract(a ethtypes.Address) (bool, error) {
	s.count("IsContract")
	return s.LocalSource.IsContract(a)
}

func (s *countingLeaf) Code(a ethtypes.Address) ([]byte, error) {
	s.count("Code")
	return s.LocalSource.Code(a)
}

func (s *countingLeaf) Transaction(h ethtypes.Hash) (*chain.Transaction, error) {
	s.count("Transaction")
	return s.LocalSource.Transaction(h)
}

func (s *countingLeaf) Receipt(h ethtypes.Hash) (*chain.Receipt, error) {
	s.count("Receipt")
	return s.LocalSource.Receipt(h)
}

// goldenCounterPrefixes are the counter families the golden pins.
var goldenCounterPrefixes = []string{"daas_chain_", "daas_integrity_", "daas_cache_", "daas_quarantine_"}

// TestStackCallsGolden pins what the chain sees under a serial study
// (build, validate, cluster, measure) through the daas source stack:
// per-method leaf calls, the non-zero daas_chain_*, daas_integrity_*,
// daas_cache_* and daas_quarantine_* counters, and the dataset export
// hash — over a clean counting leaf and over the corruption matrix's
// faulted source, each with and without the fetch cache. The faulted
// source rolls its schedule once per call that reaches it, and every
// such call is one daas_chain_requests_total sample, so the method
// counters double as fault rolls per op (their sum is checked against
// the injector's op count).
func TestStackCallsGolden(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TestConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, faulted := range []bool{false, true} {
		for _, cacheSize := range []int{0, 1 << 12} {
			name := fmt.Sprintf("clean cache=%d", cacheSize)
			if faulted {
				name = fmt.Sprintf("faulted cache=%d", cacheSize)
			}
			fmt.Fprintf(&out, "== %s\n", name)
			reg := obs.NewRegistry()
			leaf := &countingLeaf{LocalSource: core.LocalSource{Chain: w.Chain}, calls: make(map[string]int)}
			var src core.ChainSource = leaf
			var inj *faults.Injector
			if faulted {
				inj = faults.NewInjector(faults.Plan{Seed: 1, Rate: 0.05, Kinds: corruptionKinds}, nil)
				src = faults.WrapSource(leaf, inj)
			}
			c := daas.New(src, w.Labels, w.Oracle)
			c.Metrics = reg
			c.CacheSize = cacheSize
			study, err := c.StudyWith(daas.StudyOptions{DatasetEnd: worldgen.DatasetEnd, PrimaryContractTxs: 2})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}

			var lines []string
			for m, n := range leaf.calls {
				lines = append(lines, fmt.Sprintf("leaf %s %d", m, n))
			}
			var requests uint64
			for _, f := range reg.Snapshot().Families {
				if f.Kind != "counter" || !hasAnyPrefix(f.Name, goldenCounterPrefixes) {
					continue
				}
				for _, smp := range f.Samples {
					if smp.Counter == 0 {
						continue
					}
					if f.Name == "daas_chain_requests_total" {
						requests += smp.Counter
					}
					lines = append(lines, fmt.Sprintf("counter %s{%s} %d", f.Name, strings.Join(smp.LabelValues, ","), smp.Counter))
				}
			}
			sort.Strings(lines)
			for _, l := range lines {
				fmt.Fprintln(&out, l)
			}
			if inj != nil && uint64(inj.Ops()) != requests {
				t.Errorf("%s: injector rolled %d times, chain requests %d", name, inj.Ops(), requests)
			}
			var export bytes.Buffer
			if err := study.Dataset.WriteJSON(&export); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "export sha256:%x\n", sha256.Sum256(export.Bytes()))
		}
	}

	path := filepath.Join("testdata", "stack_calls.golden")
	if *updateGolden {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("what the leaf sees changed (rerun with -update only if intended):\n%s", lineDiff(string(want), out.String()))
	}
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := make(map[string]bool)
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	return b.String()
}

// TestStackBuildsCacheOnFirstRead pins that a stack read only through
// Checked (the radar daemon's) has no fetch cache, so its /metrics
// show no cache counters, while the first Cached call makes one.
func TestStackBuildsCacheOnFirstRead(t *testing.T) {
	cacheFamilies := func(reg *obs.Registry) int {
		n := 0
		for _, f := range reg.Snapshot().Families {
			if strings.HasPrefix(f.Name, "daas_cache_") {
				n++
			}
		}
		return n
	}
	w, err := worldgen.Generate(worldgen.TestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	st := daas.NewStack(core.LocalSource{Chain: w.Chain}, daas.StackConfig{Metrics: reg})
	h := w.Chain.TransactionsOf(w.Chain.AccountsWithHistory()[0])[0]
	if _, err := st.Checked.Transaction(h); err != nil {
		t.Fatal(err)
	}
	if n := cacheFamilies(reg); n != 0 {
		t.Fatalf("a stack read only through Checked registered %d cache families", n)
	}
	if st.Cached() != st.Cached() {
		t.Fatal("Cached returned two different stores")
	}
	if n := cacheFamilies(reg); n == 0 {
		t.Fatal("Cached made no cache counters")
	}
}
