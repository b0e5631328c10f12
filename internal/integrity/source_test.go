package integrity_test

import (
	"errors"
	"testing"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/faults"
	"repro/internal/integrity"
	"repro/internal/obs"
)

// scriptedSource serves one transaction and receipt, corrupting the
// first corruptTx/corruptRec responses, and counts fetches.
type scriptedSource struct {
	h   ethtypes.Hash
	tx  *chain.Transaction
	rec *chain.Receipt

	corruptTx  int
	corruptRec int
	reorgAfter int // after this many receipt fetches, answer from a different block

	txFetches  int
	recFetches int
}

func newScriptedSource() *scriptedSource {
	h, tx, rec := validPair()
	return &scriptedSource{h: h, tx: tx, rec: rec}
}

func (s *scriptedSource) TransactionsOf(ethtypes.Address) ([]ethtypes.Hash, error) {
	return []ethtypes.Hash{s.h}, nil
}

func (s *scriptedSource) Transaction(h ethtypes.Hash) (*chain.Transaction, error) {
	s.txFetches++
	cp := *s.tx
	if s.corruptTx > 0 {
		s.corruptTx--
		_ = cp.Hash() // memoize before mutating, as wire corruption would
		cp.From[0] ^= 0xff
	}
	return &cp, nil
}

func (s *scriptedSource) Receipt(h ethtypes.Hash) (*chain.Receipt, error) {
	s.recFetches++
	cp := *s.rec
	if s.corruptRec > 0 {
		s.corruptRec--
		cp.TxHash[0] ^= 0xff
	}
	if s.reorgAfter > 0 && s.recFetches > s.reorgAfter {
		cp.BlockNumber++
	}
	return &cp, nil
}

func (s *scriptedSource) IsContract(ethtypes.Address) (bool, error) { return false, nil }

func TestSourceRefetchesPastCorruption(t *testing.T) {
	src := newScriptedSource()
	src.corruptTx = 2
	is := integrity.Wrap(src, nil, nil)

	tx, err := is.Transaction(src.h)
	if err != nil {
		t.Fatalf("corrupt-then-clean source not recovered: %v", err)
	}
	if tx.RecomputeHash() != src.h {
		t.Error("admitted transaction does not match requested identity")
	}
	if src.txFetches != 3 {
		t.Errorf("fetches = %d, want 3 (two corrupt, one clean)", src.txFetches)
	}
	if got := is.Quarantine().Total(); got != 2 {
		t.Errorf("quarantine total = %d, want 2", got)
	}
	if got := is.Quarantine().PermanentCount(); got != 0 {
		t.Errorf("recovered record marked permanent (%d)", got)
	}
}

func TestSourceQuarantinesPermanentlyAndShortCircuits(t *testing.T) {
	src := newScriptedSource()
	src.corruptTx = 1 << 30 // never clean
	is := integrity.Wrap(src, nil, nil)
	is.MaxRefetch = 3

	_, err := is.Transaction(src.h)
	if !errors.Is(err, core.ErrQuarantined) {
		t.Fatalf("error = %v, want ErrQuarantined", err)
	}
	if src.txFetches != 4 {
		t.Errorf("fetches = %d, want 4 (initial + MaxRefetch)", src.txFetches)
	}
	if reason, ok := is.Quarantine().Permanent(src.h); !ok || reason != integrity.ReasonTxHashMismatch {
		t.Errorf("Permanent = %q, %v; want %q, true", reason, ok, integrity.ReasonTxHashMismatch)
	}

	// A permanently quarantined hash never reaches the wire again.
	before := src.txFetches
	if _, err := is.Transaction(src.h); !errors.Is(err, core.ErrQuarantined) {
		t.Fatalf("second fetch error = %v, want ErrQuarantined", err)
	}
	if src.txFetches != before {
		t.Errorf("permanent quarantine still fetched (%d -> %d)", before, src.txFetches)
	}
}

func TestSourceDetectsReorgAcrossRefetches(t *testing.T) {
	src := newScriptedSource()
	src.reorgAfter = 1 // first receipt answer pins; every later one moved blocks
	is := integrity.Wrap(src, nil, nil)
	is.MaxRefetch = 2

	if _, err := is.Receipt(src.h); err != nil {
		t.Fatalf("first fetch rejected: %v", err)
	}
	_, err := is.Receipt(src.h)
	if !errors.Is(err, core.ErrQuarantined) {
		t.Fatalf("reorged re-fetch error = %v, want ErrQuarantined", err)
	}
	if reason, ok := is.Quarantine().Permanent(src.h); !ok || reason != integrity.ReasonReorgPin {
		t.Errorf("Permanent = %q, %v; want %q, true", reason, ok, integrity.ReasonReorgPin)
	}
}

func TestSourceReceiptCrossCheckedAgainstPinnedTransaction(t *testing.T) {
	src := newScriptedSource()
	// The receipt passes its own checks but contradicts the transaction:
	// drop the mandatory top-level value transfer.
	src.rec.Transfers = nil
	is := integrity.Wrap(src, nil, nil)
	is.MaxRefetch = 1

	if _, err := is.Transaction(src.h); err != nil {
		t.Fatal(err)
	}
	_, err := is.Receipt(src.h)
	if !errors.Is(err, core.ErrQuarantined) {
		t.Fatalf("pair-violating receipt error = %v, want ErrQuarantined", err)
	}
	if reason, _ := is.Quarantine().Permanent(src.h); reason != integrity.ReasonMissingValueTransfer {
		t.Errorf("reason = %q, want %q", reason, integrity.ReasonMissingValueTransfer)
	}
}

func TestSourceBudgetAbortsRottenSource(t *testing.T) {
	src := newScriptedSource()
	src.corruptTx = 1 << 30
	is := integrity.Wrap(src, nil, nil)
	is.MaxQuarantine = 2

	_, err := is.Transaction(src.h)
	if !errors.Is(err, integrity.ErrBudgetExceeded) {
		t.Fatalf("error = %v, want ErrBudgetExceeded", err)
	}
}

func TestBatchEntriesDegradeToNil(t *testing.T) {
	src := newScriptedSource()
	src.corruptTx = 1 << 30
	is := integrity.Wrap(src, nil, nil)
	is.MaxRefetch = 1

	out, err := is.BatchTransactions([]ethtypes.Hash{src.h})
	if err != nil {
		t.Fatalf("batch aborted instead of degrading: %v", err)
	}
	if len(out) != 1 || out[0] != nil {
		t.Fatalf("corrupt batch entry = %v, want nil placeholder", out)
	}

	// The now-permanent hash is pre-filtered from later batches.
	before := src.txFetches
	out, err = is.BatchTransactions([]ethtypes.Hash{src.h})
	if err != nil || len(out) != 1 || out[0] != nil {
		t.Fatalf("second batch = %v, %v; want one nil entry", out, err)
	}
	if src.txFetches != before {
		t.Errorf("permanently quarantined hash hit the wire in a batch (%d -> %d)", before, src.txFetches)
	}
}

// batchScripted adds native batching to scriptedSource and counts
// batch calls. The scripted hash costs one fetch, corrupted exactly
// like a single fetch; the clean hash is served a valid pair of its
// own and is not counted.
type batchScripted struct {
	*scriptedSource
	clean    ethtypes.Hash
	cleanTx  *chain.Transaction
	cleanRec *chain.Receipt
	batches  int
}

func newBatchScripted() *batchScripted {
	_, tx, rec := validPair()
	cleanTx := &chain.Transaction{Nonce: tx.Nonce + 1, From: tx.From, To: tx.To, Value: tx.Value, GasLimit: tx.GasLimit}
	clean := cleanTx.RecomputeHash()
	cleanRec := *rec
	cleanRec.TxHash = clean
	return &batchScripted{scriptedSource: newScriptedSource(), clean: clean, cleanTx: cleanTx, cleanRec: &cleanRec}
}

func (s *batchScripted) BatchTransactions(hs []ethtypes.Hash) ([]*chain.Transaction, error) {
	s.batches++
	out := make([]*chain.Transaction, len(hs))
	for i, h := range hs {
		if h == s.clean {
			cp := *s.cleanTx
			out[i] = &cp
			continue
		}
		out[i], _ = s.Transaction(h)
	}
	return out, nil
}

func (s *batchScripted) BatchReceipts(hs []ethtypes.Hash) ([]*chain.Receipt, error) {
	s.batches++
	out := make([]*chain.Receipt, len(hs))
	for i, h := range hs {
		if h == s.clean {
			cp := *s.cleanRec
			out[i] = &cp
			continue
		}
		out[i], _ = s.Receipt(h)
	}
	return out, nil
}

// TestRefetchAllowanceSingleAndBatch pins the one admission loop: a
// record gets exactly 1 + MaxRefetch fetches, every re-fetch counts,
// and a record that validates after a rejection counts as recovered,
// whether it was read alone or in a two-hash batch whose first attempt
// goes through the source's batch method.
func TestRefetchAllowanceSingleAndBatch(t *testing.T) {
	cases := []struct {
		name                          string
		corrupt                       int
		fetches, refetches, recovered uint64
	}{
		{"never valid", 1 << 30, 6, 5, 0},
		{"corrupt once", 1, 2, 1, 1},
	}
	for _, tc := range cases {
		for _, object := range []string{"tx", "receipt"} {
			for _, batch := range []bool{false, true} {
				src := newBatchScripted()
				reg := obs.NewRegistry()
				is := integrity.Wrap(src, nil, reg)
				is.MaxRefetch = 5
				var err error
				pair := []ethtypes.Hash{src.h, src.clean}
				fetches := &src.txFetches
				switch {
				case object == "tx" && batch:
					src.corruptTx = tc.corrupt
					var out []*chain.Transaction
					out, err = is.BatchTransactions(pair)
					if err == nil && (out[1] == nil || out[1].RecomputeHash() != src.clean) {
						t.Errorf("%s tx batch: clean entry = %v", tc.name, out[1])
					}
				case object == "tx":
					src.corruptTx = tc.corrupt
					_, err = is.Transaction(src.h)
				case batch:
					src.corruptRec, fetches = tc.corrupt, &src.recFetches
					var out []*chain.Receipt
					out, err = is.BatchReceipts(pair)
					if err == nil && (out[1] == nil || out[1].TxHash != src.clean) {
						t.Errorf("%s receipt batch: clean entry = %v", tc.name, out[1])
					}
				default:
					src.corruptRec, fetches = tc.corrupt, &src.recFetches
					_, err = is.Receipt(src.h)
				}
				if err != nil && !errors.Is(err, core.ErrQuarantined) {
					t.Fatalf("%s %s batch=%v: %v", tc.name, object, batch, err)
				}
				got := [3]uint64{
					uint64(*fetches),
					reg.Counter("daas_integrity_refetches_total", "").Value(),
					reg.Counter("daas_integrity_recovered_total", "").Value(),
				}
				if want := [3]uint64{tc.fetches, tc.refetches, tc.recovered}; got != want {
					t.Errorf("%s %s batch=%v: fetches/refetches/recovered = %v, want %v", tc.name, object, batch, got, want)
				}
				wantBatches := 0
				if batch {
					wantBatches = 1
				}
				if src.batches != wantBatches {
					t.Errorf("%s %s batch=%v: source batch calls = %d, want %d", tc.name, object, batch, src.batches, wantBatches)
				}
			}
		}
	}
}

// TestPermanentQuarantineSkipsTheSource: once a hash is permanently
// quarantined, reading it (alone or in a batch) returns without any
// call reaching the source, so it rolls no fault schedule either.
func TestPermanentQuarantineSkipsTheSource(t *testing.T) {
	src := newBatchScripted()
	src.corruptTx = 1 << 30
	inj := faults.NewInjector(faults.Plan{Seed: 1}, nil)
	is := integrity.Wrap(faults.WrapSource(src, inj), nil, nil)
	is.MaxRefetch = 1
	if _, err := is.Transaction(src.h); !errors.Is(err, core.ErrQuarantined) {
		t.Fatalf("first read = %v, want ErrQuarantined", err)
	}
	fetches, batches, ops := src.txFetches, src.batches, inj.Ops()
	if _, err := is.Transaction(src.h); !errors.Is(err, core.ErrQuarantined) {
		t.Fatalf("single read = %v, want ErrQuarantined", err)
	}
	if out, err := is.BatchTransactions([]ethtypes.Hash{src.h}); err != nil || len(out) != 1 || out[0] != nil {
		t.Fatalf("batch read = %v, %v; want one nil entry", out, err)
	}
	if src.txFetches != fetches || src.batches != batches || inj.Ops() != ops {
		t.Errorf("quarantined reads reached the source: fetches %d -> %d, batches %d -> %d, injector ops %d -> %d",
			fetches, src.txFetches, batches, src.batches, ops, inj.Ops())
	}
}
