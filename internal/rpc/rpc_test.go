package rpc_test

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/rpc"
	"repro/internal/worldgen"
)

var world = func() *worldgen.World {
	w, err := worldgen.Generate(worldgen.TestConfig(404))
	if err != nil {
		panic(err)
	}
	return w
}()

func newPair(t *testing.T) (*rpc.Client, func()) {
	t.Helper()
	srv := httptest.NewServer(rpc.NewServer(world.Chain, world.Labels))
	return rpc.NewClient(srv.URL), srv.Close
}

func TestBlockNumberAndLookups(t *testing.T) {
	client, done := newPair(t)
	defer done()

	n, err := client.BlockNumber()
	if err != nil {
		t.Fatal(err)
	}
	if n != world.Chain.BlockCount()-1 {
		t.Errorf("blockNumber = %d, want %d", n, world.Chain.BlockCount()-1)
	}
}

func TestTransactionRoundTrip(t *testing.T) {
	client, done := newPair(t)
	defer done()

	// Pick a planted profit tx and check field fidelity.
	var h ethtypes.Hash
	for hash := range world.Truth.ProfitTxs {
		h = hash
		break
	}
	want, err := world.Chain.Transaction(h)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.Transaction(h)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != want.From || got.Nonce != want.Nonce || got.Value.Cmp(want.Value) != 0 {
		t.Errorf("tx fields differ: %+v vs %+v", got, want)
	}
	if (got.To == nil) != (want.To == nil) || (got.To != nil && *got.To != *want.To) {
		t.Error("tx To differs")
	}
	if got.Hash() != want.Hash() {
		t.Errorf("tx hash differs after round trip: %s vs %s", got.Hash(), want.Hash())
	}
}

func TestReceiptRoundTrip(t *testing.T) {
	client, done := newPair(t)
	defer done()

	var h ethtypes.Hash
	for hash := range world.Truth.ProfitTxs {
		h = hash
		break
	}
	want, _ := world.Chain.Receipt(h)
	got, err := client.Receipt(h)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != want.Status || got.BlockNumber != want.BlockNumber {
		t.Error("receipt header differs")
	}
	if !got.Timestamp.Equal(want.Timestamp.UTC().Truncate(1e9)) {
		t.Errorf("timestamp differs: %v vs %v", got.Timestamp, want.Timestamp)
	}
	if len(got.Transfers) != len(want.Transfers) {
		t.Fatalf("transfers %d vs %d", len(got.Transfers), len(want.Transfers))
	}
	for i := range got.Transfers {
		g, w := got.Transfers[i], want.Transfers[i]
		if g.From != w.From || g.To != w.To || g.Amount.Cmp(w.Amount) != 0 || g.Asset != w.Asset {
			t.Errorf("transfer %d differs: %+v vs %+v", i, g, w)
		}
	}
}

func TestErrorPaths(t *testing.T) {
	client, done := newPair(t)
	defer done()

	if _, err := client.Transaction(ethtypes.Hash{0xde, 0xad}); err == nil {
		t.Error("unknown tx lookup succeeded")
	}
	if _, err := client.Receipt(ethtypes.Hash{0xbe, 0xef}); err == nil {
		t.Error("unknown receipt lookup succeeded")
	}
	bad := rpc.NewClient("http://127.0.0.1:1") // nothing listens
	if _, err := bad.BlockNumber(); err == nil {
		t.Error("unreachable server succeeded")
	}
}

func TestFetchLabels(t *testing.T) {
	client, done := newPair(t)
	defer done()

	dir, err := client.FetchLabels()
	if err != nil {
		t.Fatal(err)
	}
	if len(dir.AllPhishing()) == 0 {
		t.Fatal("no labels over RPC")
	}
	// The remote directory carries the same phishing report set.
	want := world.Labels.AllPhishing()
	got := dir.AllPhishing()
	if len(got) != len(want) {
		t.Errorf("phishing reports: %d vs %d", len(got), len(want))
	}
}

// TestPipelineOverRPC is the integration test: the full snowball
// pipeline against the HTTP endpoint must reproduce the in-process
// result exactly.
func TestPipelineOverRPC(t *testing.T) {
	client, done := newPair(t)
	defer done()

	remoteLabels, err := client.FetchLabels()
	if err != nil {
		t.Fatal(err)
	}
	remote := &core.Pipeline{Source: client, Labels: remoteLabels}
	remoteDS, err := remote.Build()
	if err != nil {
		t.Fatal(err)
	}
	local := &core.Pipeline{Source: core.LocalSource{Chain: world.Chain}, Labels: world.Labels}
	localDS, err := local.Build()
	if err != nil {
		t.Fatal(err)
	}
	if remoteDS.Stats() != localDS.Stats() {
		t.Errorf("remote stats %+v != local %+v", remoteDS.Stats(), localDS.Stats())
	}
	if remoteDS.SeedStats != localDS.SeedStats {
		t.Errorf("remote seed %+v != local %+v", remoteDS.SeedStats, localDS.SeedStats)
	}
}

func TestStaticCallAndCode(t *testing.T) {
	client, done := newPair(t)
	defer done()

	// Any planted profit-sharing contract has code.
	var contract ethtypes.Address
	for addr := range world.Truth.ContractFamily {
		contract = addr
		break
	}
	code, err := client.Code(contract)
	if err != nil {
		t.Fatal(err)
	}
	if len(code) == 0 {
		t.Error("contract code empty over RPC")
	}
	ok, err := client.IsContract(contract)
	if err != nil || !ok {
		t.Errorf("IsContract = %v, %v", ok, err)
	}
	bal, err := client.Balance(contract)
	if err != nil {
		t.Fatal(err)
	}
	_ = bal
}

func TestServerRejectsGarbage(t *testing.T) {
	srv := httptest.NewServer(rpc.NewServer(world.Chain, world.Labels))
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL, "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Parse errors come back as JSON-RPC errors, not HTTP failures.
	if resp.StatusCode != 200 {
		t.Errorf("status = %d", resp.StatusCode)
	}
	get, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	if get.StatusCode != 405 {
		t.Errorf("GET status = %d, want 405", get.StatusCode)
	}
}

// TestConcurrentPipelineOverRPC checks that parallel fetching changes
// neither dataset contents nor determinism, only wall-clock.
func TestConcurrentPipelineOverRPC(t *testing.T) {
	client, done := newPair(t)
	defer done()
	remoteLabels, err := client.FetchLabels()
	if err != nil {
		t.Fatal(err)
	}
	seq := &core.Pipeline{Source: client, Labels: remoteLabels}
	seqDS, err := seq.Build()
	if err != nil {
		t.Fatal(err)
	}
	par := &core.Pipeline{Source: client, Labels: remoteLabels, Concurrency: 8}
	parDS, err := par.Build()
	if err != nil {
		t.Fatal(err)
	}
	if seqDS.Stats() != parDS.Stats() || seqDS.SeedStats != parDS.SeedStats {
		t.Errorf("concurrent build differs: %+v vs %+v", parDS.Stats(), seqDS.Stats())
	}
	for h := range seqDS.Splits {
		if len(parDS.Splits[h]) != len(seqDS.Splits[h]) {
			t.Fatalf("split records differ at %s", h)
		}
	}
}

// TestBatchRoundTrip fetches a pile of transactions and receipts in
// one round trip each and checks fidelity against single-item calls.
func TestBatchRoundTrip(t *testing.T) {
	client, done := newPair(t)
	defer done()

	var hs []ethtypes.Hash
	for h := range world.Truth.ProfitTxs {
		hs = append(hs, h)
		if len(hs) == 5 {
			break
		}
	}
	txs, err := client.BatchTransactions(hs)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := client.BatchReceipts(hs)
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != len(hs) || len(recs) != len(hs) {
		t.Fatalf("batch sizes: %d txs, %d receipts for %d hashes", len(txs), len(recs), len(hs))
	}
	for i, h := range hs {
		single, err := client.Transaction(h)
		if err != nil {
			t.Fatal(err)
		}
		if txs[i].Hash() != single.Hash() || txs[i].Hash() != h {
			t.Errorf("batch tx %d hash mismatch: %s vs %s", i, txs[i].Hash(), h)
		}
		if recs[i].TxHash != h {
			t.Errorf("batch receipt %d for wrong tx: %s", i, recs[i].TxHash)
		}
		if len(recs[i].Transfers) == 0 {
			t.Errorf("batch receipt %d lost its transfers", i)
		}
	}
	// Empty batch: no HTTP call, no error, empty result.
	empty, err := client.BatchTransactions(nil)
	if err != nil || len(empty) != 0 {
		t.Errorf("empty batch: %v, %d results", err, len(empty))
	}
}

// TestBatchItemError ensures one unknown hash fails the whole batch
// with an attributable error.
func TestBatchItemError(t *testing.T) {
	client, done := newPair(t)
	defer done()

	var known ethtypes.Hash
	for h := range world.Truth.ProfitTxs {
		known = h
		break
	}
	_, err := client.BatchTransactions([]ethtypes.Hash{known, {0xde, 0xad}})
	if err == nil {
		t.Fatal("batch with unknown hash succeeded")
	}
	if !strings.Contains(err.Error(), "item 1") {
		t.Errorf("error does not attribute the failing item: %v", err)
	}
}

// TestMalformedBatches exercises the server's array-body error paths:
// unparsable arrays and empty batches earn a single JSON-RPC error
// object, not an array.
func TestMalformedBatches(t *testing.T) {
	srv := httptest.NewServer(rpc.NewServer(world.Chain, world.Labels))
	defer srv.Close()

	post := func(body string) map[string]any {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("response is not a single object: %v", err)
		}
		return out
	}
	errCode := func(out map[string]any) float64 {
		t.Helper()
		e, ok := out["error"].(map[string]any)
		if !ok {
			t.Fatalf("no error object in %v", out)
		}
		return e["code"].(float64)
	}
	if code := errCode(post(`[{"jsonrpc":"2.0","id":1,`)); code != -32700 {
		t.Errorf("truncated batch: code %v, want -32700", code)
	}
	if code := errCode(post(`[]`)); code != -32600 {
		t.Errorf("empty batch: code %v, want -32600", code)
	}
	if code := errCode(post(`[1,2]`)); code != -32700 {
		t.Errorf("non-object batch items: code %v, want -32700", code)
	}
	// A batch with an unknown method still answers per item, inside an
	// array.
	resp, err := srv.Client().Post(srv.URL, "application/json",
		strings.NewReader(`[{"jsonrpc":"2.0","id":7,"method":"no_such_method","params":[]}]`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var arr []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&arr); err != nil {
		t.Fatalf("batch response is not an array: %v", err)
	}
	if len(arr) != 1 || arr[0]["id"].(float64) != 7 {
		t.Fatalf("unexpected batch response: %v", arr)
	}
	if errCode(arr[0]) != -32601 {
		t.Errorf("unknown method in batch: code %v, want -32601", errCode(arr[0]))
	}
}

// TestStorageAtOverRPC reads profit-sharing contract configuration
// remotely (the disasm workflow).
func TestStorageAtOverRPC(t *testing.T) {
	client, done := newPair(t)
	defer done()
	var contract ethtypes.Address
	for addr := range world.Truth.ContractFamily {
		contract = addr
		break
	}
	// Slot 2 holds the operator per-mille ratio in every template.
	var slot ethtypes.Hash
	slot[31] = 2
	v, err := client.StorageAt(contract, slot)
	if err != nil {
		t.Fatal(err)
	}
	ratio := int64(v[30])<<8 | int64(v[31])
	valid := false
	for _, pm := range core.DefaultRatiosPM {
		if ratio == pm {
			valid = true
		}
	}
	if !valid {
		t.Errorf("remote storage ratio = %d, not in the documented set", ratio)
	}
}
