package rpc_test

import (
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/radar"
	"repro/internal/rpc"
	"repro/internal/screen"
)

// TestServedMethodSet pins the methods the server answers: each one,
// called with valid parameters on a server with every backend, gets a
// result and is counted under its own metric label, while a method the
// server does not serve answers -32601 and is counted as "unknown".
func TestServedMethodSet(t *testing.T) {
	b := screen.NewBuilder()
	b.Add(screen.Record{Address: screenAddr(1), Kind: screen.KindContract, Reason: screen.ReasonContract})
	b.AddDomain("drainer.example")
	eng := screen.NewEngine(nil)
	eng.Swap(b.Build())
	reg := obs.NewRegistry()
	srv := httptest.NewServer(&rpc.Server{
		Chain:   world.Chain,
		Labels:  world.Labels,
		Screen:  eng,
		Radar:   &stubRadar{status: radar.Status{Head: 10, Cursor: 10}},
		Metrics: reg,
	})
	defer srv.Close()

	blk, err := world.Chain.BlockByNumber(1)
	if err != nil || len(blk.TxHashes) == 0 {
		t.Fatalf("block 1: %v (%d txs)", err, len(blk.TxHashes))
	}
	tx := `"` + blk.TxHashes[0].Hex() + `"`
	token := `"` + world.TokenAddrs[0].Hex() + `"`
	addr := `"` + screenAddr(1).Hex() + `"`
	served := map[string]string{
		"eth_blockNumber":          `[]`,
		"eth_getBlockByNumber":     `[1]`,
		"eth_getTransactionByHash": `[` + tx + `]`,
		"repro_getReceipt":         `[` + tx + `]`,
		"eth_getBalance":           `[` + addr + `]`,
		"eth_getCode":              `[` + token + `]`,
		"eth_call":                 `[` + token + `,"0x70a08231` + strings.Repeat("00", 32) + `"]`, // balanceOf(0x0)
		"repro_getStorageAt":       `[` + token + `,"0x` + strings.Repeat("00", 32) + `"]`,
		"repro_isContract":         `[` + token + `]`,
		"repro_transactionsOf":     `[` + token + `]`,
		"repro_labels":             `[]`,
		"daas_screen":              `[` + addr + `]`,
		"daas_screenBatch":         `[` + addr + `,` + token + `]`,
		"daas_screenDomain":        `["drainer.example"]`,
		"daas_radarStatus":         `[]`,
		"daas_radarUpdates":        `{"after":0,"limit":5}`,
	}
	call := func(method, params string) (int, bool) {
		_, rpcErr := postRaw(t, srv.URL, `{"jsonrpc":"2.0","id":1,"method":"`+method+`","params":`+params+`}`)
		if rpcErr == nil {
			return 0, true
		}
		return rpcErr.Code, false
	}
	for method, params := range served {
		if code, ok := call(method, params); !ok {
			t.Errorf("%s answered error %d, want a result", method, code)
		}
	}
	if code, _ := call("repro_getLogs", `{"fromBlock":0,"toBlock":1}`); code != -32601 {
		t.Errorf("repro_getLogs answered code %d, want -32601 (method not found)", code)
	}

	snap := reg.Snapshot()
	for method := range served {
		if s := snap.Find("daas_rpc_server_requests_total", method); s == nil || s.Counter != 1 {
			t.Errorf("%s not counted under its own method label: %+v", method, s)
		}
	}
	if s := snap.Find("daas_rpc_server_requests_total", "unknown"); s == nil || s.Counter != 1 {
		t.Errorf("repro_getLogs not counted as unknown: %+v", s)
	}
}
