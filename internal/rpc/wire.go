// Package rpc exposes the simulated chain over JSON-RPC 2.0 / HTTP and
// provides a client that satisfies core.ChainSource, so the dataset
// pipeline runs against a remote node exactly as the paper's collector
// ran against an archive node. The method set mirrors the subset of
// the Ethereum/trace API the collector needs, under the "repro_"
// namespace where the standard API has no equivalent (indexed account
// history, fund-flow receipts, label queries).
package rpc

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/chain"
	"repro/internal/ethtypes"
	"repro/internal/labels"
)

// request and response are JSON-RPC 2.0 envelopes.
type request struct {
	JSONRPC string          `json:"jsonrpc"`
	ID      int64           `json:"id"`
	Method  string          `json:"method"`
	Params  json.RawMessage `json:"params"`
}

type response struct {
	JSONRPC string          `json:"jsonrpc"`
	ID      int64           `json:"id"`
	Result  json.RawMessage `json:"result,omitempty"`
	Error   *rpcError       `json:"error,omitempty"`
}

type rpcError struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
}

func (e *rpcError) Error() string { return fmt.Sprintf("rpc error %d: %s", e.Code, e.Message) }

// JSON-RPC error codes.
const (
	codeParse          = -32700
	codeInvalidRequest = -32600
	codeMethodNotFound = -32601
	codeInvalidParams  = -32602
	codeInternal       = -32603
	codeOverloaded     = -32005
	codeTimeout        = -32008
)

// Exported error codes for the server's overload-control contract, so
// callers can distinguish "back off and retry" from a hard failure.
const (
	// CodeOverloaded is returned (with HTTP 503 + Retry-After) when the
	// admission gate sheds a request instead of queueing it.
	CodeOverloaded = codeOverloaded
	// CodeTimeout is returned when the per-request deadline expires
	// before (or while) the request is dispatched.
	CodeTimeout = codeTimeout
)

// Wire DTOs.

type txJSON struct {
	Hash     string `json:"hash"`
	Nonce    uint64 `json:"nonce"`
	From     string `json:"from"`
	To       string `json:"to,omitempty"`
	Value    string `json:"value"`
	Data     string `json:"input"`
	GasLimit uint64 `json:"gas"`
}

type transferJSON struct {
	AssetKind string `json:"assetKind"`
	Token     string `json:"token,omitempty"`
	TokenID   uint64 `json:"tokenId,omitempty"`
	From      string `json:"from"`
	To        string `json:"to"`
	Amount    string `json:"amount"`
	Depth     int    `json:"depth"`
}

type approvalJSON struct {
	Token   string `json:"token"`
	Kind    string `json:"kind"`
	Owner   string `json:"owner"`
	Spender string `json:"spender"`
	Amount  string `json:"amount"`
	All     bool   `json:"all,omitempty"`
}

type logJSON struct {
	Address string   `json:"address"`
	Topics  []string `json:"topics"`
	Data    string   `json:"data"`
}

type receiptJSON struct {
	TxHash          string         `json:"transactionHash"`
	BlockNumber     uint64         `json:"blockNumber"`
	Timestamp       int64          `json:"timestamp"`
	Status          bool           `json:"status"`
	GasUsed         uint64         `json:"gasUsed"`
	ContractAddress string         `json:"contractAddress,omitempty"`
	Transfers       []transferJSON `json:"transfers"`
	Approvals       []approvalJSON `json:"approvals,omitempty"`
	Logs            []logJSON      `json:"logs,omitempty"`
	Err             string         `json:"error,omitempty"`
}

type blockJSON struct {
	Number    uint64   `json:"number"`
	Timestamp int64    `json:"timestamp"`
	Hash      string   `json:"hash"`
	Parent    string   `json:"parentHash"`
	TxHashes  []string `json:"transactions"`
}

// screenResultJSON is one daas_screen/daas_screenBatch verdict. The
// record fields are omitted for clean addresses, so a mostly-clean
// batch response stays compact. SnapshotAge is the whole seconds since
// the serving snapshot was last confirmed fresh (installed, or
// re-confirmed by a successful radar step); it is 0 — and omitted —
// while the upstream is healthy, so degraded-mode answers are
// self-describing without widening the common case.
type screenResultJSON struct {
	Address       string `json:"address"`
	Listed        bool   `json:"listed"`
	Kind          string `json:"kind,omitempty"`
	Reason        string `json:"reason,omitempty"`
	Family        string `json:"family,omitempty"`
	Tainted       bool   `json:"tainted,omitempty"`
	StaticFlagged bool   `json:"staticFlagged,omitempty"`
	SnapshotAge   uint64 `json:"snapshotAge,omitempty"`
}

type labelJSON struct {
	Address  string `json:"address"`
	Source   string `json:"source"`
	Category string `json:"category"`
	Name     string `json:"name"`
}

// Conversions.

func toTxJSON(tx *chain.Transaction) txJSON {
	out := txJSON{
		Hash:     tx.Hash().Hex(),
		Nonce:    tx.Nonce,
		From:     tx.From.Hex(),
		Value:    tx.Value.String(),
		Data:     "0x" + hex.EncodeToString(tx.Data),
		GasLimit: tx.GasLimit,
	}
	if tx.To != nil {
		out.To = tx.To.Hex()
	}
	return out
}

func fromTxJSON(in txJSON) (*chain.Transaction, error) {
	from, err := ethtypes.HexToAddress(in.From)
	if err != nil {
		return nil, err
	}
	tx := &chain.Transaction{
		Nonce:    in.Nonce,
		From:     from,
		GasLimit: in.GasLimit,
	}
	if in.To != "" {
		to, err := ethtypes.HexToAddress(in.To)
		if err != nil {
			return nil, err
		}
		tx.To = &to
	}
	if tx.Value, err = parseWei(in.Value); err != nil {
		return nil, err
	}
	raw := strings.TrimPrefix(in.Data, "0x")
	if tx.Data, err = hex.DecodeString(raw); err != nil {
		return nil, fmt.Errorf("rpc: bad input data: %w", err)
	}
	return tx, nil
}

func assetKindFromString(s string) (chain.AssetKind, error) {
	switch s {
	case "ETH":
		return chain.AssetETH, nil
	case "ERC20":
		return chain.AssetERC20, nil
	case "ERC721":
		return chain.AssetERC721, nil
	default:
		return 0, fmt.Errorf("rpc: unknown asset kind %q", s)
	}
}

func toReceiptJSON(r *chain.Receipt) receiptJSON {
	out := receiptJSON{
		TxHash:      r.TxHash.Hex(),
		BlockNumber: r.BlockNumber,
		Timestamp:   r.Timestamp.Unix(),
		Status:      r.Status,
		GasUsed:     r.GasUsed,
		Err:         r.Err,
		Transfers:   []transferJSON{},
	}
	if !r.ContractAddress.IsZero() {
		out.ContractAddress = r.ContractAddress.Hex()
	}
	for _, tr := range r.Transfers {
		tj := transferJSON{
			AssetKind: tr.Asset.Kind.String(),
			From:      tr.From.Hex(),
			To:        tr.To.Hex(),
			Amount:    tr.Amount.String(),
			Depth:     tr.Depth,
		}
		if tr.Asset.Kind != chain.AssetETH {
			tj.Token = tr.Asset.Token.Hex()
			tj.TokenID = tr.Asset.TokenID
		}
		out.Transfers = append(out.Transfers, tj)
	}
	for _, ap := range r.Approvals {
		out.Approvals = append(out.Approvals, approvalJSON{
			Token:   ap.Token.Hex(),
			Kind:    ap.Kind.String(),
			Owner:   ap.Owner.Hex(),
			Spender: ap.Spender.Hex(),
			Amount:  ap.Amount.String(),
			All:     ap.All,
		})
	}
	for _, lg := range r.Logs {
		lj := logJSON{Address: lg.Address.Hex(), Data: "0x" + hex.EncodeToString(lg.Data)}
		for _, tp := range lg.Topics {
			lj.Topics = append(lj.Topics, tp.Hex())
		}
		out.Logs = append(out.Logs, lj)
	}
	return out
}

func fromReceiptJSON(in receiptJSON) (*chain.Receipt, error) {
	h, err := ethtypes.HexToHash(in.TxHash)
	if err != nil {
		return nil, err
	}
	r := &chain.Receipt{
		TxHash:      h,
		BlockNumber: in.BlockNumber,
		Timestamp:   time.Unix(in.Timestamp, 0).UTC(),
		Status:      in.Status,
		GasUsed:     in.GasUsed,
		Err:         in.Err,
	}
	if in.ContractAddress != "" {
		if r.ContractAddress, err = ethtypes.HexToAddress(in.ContractAddress); err != nil {
			return nil, err
		}
	}
	for _, tj := range in.Transfers {
		kind, err := assetKindFromString(tj.AssetKind)
		if err != nil {
			return nil, err
		}
		tr := chain.Transfer{Asset: chain.Asset{Kind: kind, TokenID: tj.TokenID}, Depth: tj.Depth}
		if tj.Token != "" {
			if tr.Asset.Token, err = ethtypes.HexToAddress(tj.Token); err != nil {
				return nil, err
			}
		}
		if tr.From, err = ethtypes.HexToAddress(tj.From); err != nil {
			return nil, err
		}
		if tr.To, err = ethtypes.HexToAddress(tj.To); err != nil {
			return nil, err
		}
		if tr.Amount, err = parseWei(tj.Amount); err != nil {
			return nil, err
		}
		r.Transfers = append(r.Transfers, tr)
	}
	for _, aj := range in.Approvals {
		kind, err := assetKindFromString(aj.Kind)
		if err != nil {
			return nil, err
		}
		ap := chain.Approval{Kind: kind, All: aj.All}
		if ap.Token, err = ethtypes.HexToAddress(aj.Token); err != nil {
			return nil, err
		}
		if ap.Owner, err = ethtypes.HexToAddress(aj.Owner); err != nil {
			return nil, err
		}
		if ap.Spender, err = ethtypes.HexToAddress(aj.Spender); err != nil {
			return nil, err
		}
		if ap.Amount, err = parseWei(aj.Amount); err != nil {
			return nil, err
		}
		r.Approvals = append(r.Approvals, ap)
	}
	for _, lj := range in.Logs {
		lg := chain.Log{}
		if lg.Address, err = ethtypes.HexToAddress(lj.Address); err != nil {
			return nil, err
		}
		for _, tp := range lj.Topics {
			topic, err := ethtypes.HexToHash(tp)
			if err != nil {
				return nil, err
			}
			lg.Topics = append(lg.Topics, topic)
		}
		raw := strings.TrimPrefix(lj.Data, "0x")
		if lg.Data, err = hex.DecodeString(raw); err != nil {
			return nil, err
		}
		r.Logs = append(r.Logs, lg)
	}
	return r, nil
}

func toLabelJSON(l labels.Label) labelJSON {
	return labelJSON{
		Address:  l.Address.Hex(),
		Source:   string(l.Source),
		Category: string(l.Category),
		Name:     l.Name,
	}
}

func fromLabelJSON(in labelJSON) (labels.Label, error) {
	addr, err := ethtypes.HexToAddress(in.Address)
	if err != nil {
		return labels.Label{}, err
	}
	return labels.Label{
		Address:  addr,
		Source:   labels.Source(in.Source),
		Category: labels.Category(in.Category),
		Name:     in.Name,
	}, nil
}

func parseWei(s string) (ethtypes.Wei, error) {
	if s == "" {
		return ethtypes.Wei{}, nil
	}
	w, ok := weiFromDecimal(s)
	if !ok {
		return ethtypes.Wei{}, fmt.Errorf("rpc: bad wei amount %q", s)
	}
	return w, nil
}
