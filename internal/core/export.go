package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"time"

	"repro/internal/chain"
	"repro/internal/ethtypes"
)

// The JSON shapes below are the release format of the dataset (the
// paper open-sources its dataset in a comparable layout).

type datasetJSON struct {
	Generated  time.Time         `json:"generated,omitempty"`
	SeedStats  Stats             `json:"seed_stats"`
	Contracts  []contractJSON    `json:"contracts"`
	Operators  []accountJSON     `json:"operators"`
	Affiliates []accountJSON     `json:"affiliates"`
	Splits     []splitRecordJSON `json:"profit_sharing_transactions"`
}

type contractJSON struct {
	Address   string   `json:"address"`
	Found     string   `json:"found_via"`
	Sources   []string `json:"sources,omitempty"`
	FirstSeen string   `json:"first_seen"`
	LastSeen  string   `json:"last_seen"`
	TxCount   int      `json:"tx_count"`
}

type accountJSON struct {
	Address   string `json:"address"`
	Found     string `json:"found_via"`
	FirstSeen string `json:"first_seen"`
	LastSeen  string `json:"last_seen"`
}

type splitRecordJSON struct {
	Tx     string      `json:"tx"`
	Splits []splitJSON `json:"splits"`
}

type splitJSON struct {
	Time      string `json:"time"`
	Contract  string `json:"contract"`
	Payer     string `json:"payer"`
	Operator  string `json:"operator"`
	Affiliate string `json:"affiliate"`
	AssetKind string `json:"asset_kind"`
	Token     string `json:"token,omitempty"`
	OpAmount  string `json:"operator_amount"`
	AffAmount string `json:"affiliate_amount"`
	RatioPM   int64  `json:"operator_ratio_pm"`
}

// WriteJSON serializes the dataset.
func (d *Dataset) WriteJSON(w io.Writer) error {
	out := datasetJSON{SeedStats: d.SeedStats}
	for _, c := range d.SortedContracts() {
		out.Contracts = append(out.Contracts, contractJSON{
			Address:   c.Address.Hex(),
			Found:     string(c.Found),
			Sources:   c.Sources,
			FirstSeen: c.FirstSeen.Format(time.RFC3339),
			LastSeen:  c.LastSeen.Format(time.RFC3339),
			TxCount:   c.TxCount,
		})
	}
	for _, a := range d.SortedOperators() {
		out.Operators = append(out.Operators, toAccountJSON(a))
	}
	for _, a := range d.SortedAffiliates() {
		out.Affiliates = append(out.Affiliates, toAccountJSON(a))
	}
	for _, h := range d.SortedSplitTxs() {
		rec := splitRecordJSON{Tx: h.Hex()}
		for _, sp := range d.Splits[h] {
			sj := splitJSON{
				Time:      sp.Time.Format(time.RFC3339),
				Contract:  sp.Contract.Hex(),
				Payer:     sp.Payer.Hex(),
				Operator:  sp.Operator.Hex(),
				Affiliate: sp.Affiliate.Hex(),
				AssetKind: sp.Asset.Kind.String(),
				OpAmount:  sp.OperatorAmount.String(),
				AffAmount: sp.AffiliateAmount.String(),
				RatioPM:   sp.RatioPM,
			}
			if sp.Asset.Kind != chain.AssetETH {
				sj.Token = sp.Asset.Token.Hex()
			}
			rec.Splits = append(rec.Splits, sj)
		}
		out.Splits = append(out.Splits, rec)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadJSON deserializes a dataset written by WriteJSON. Split amounts
// and timestamps round-trip; receipts are not needed.
func ReadJSON(r io.Reader) (*Dataset, error) {
	var in datasetJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("core: decoding dataset: %w", err)
	}
	ds := NewDataset()
	ds.SeedStats = in.SeedStats
	for _, c := range in.Contracts {
		addr, err := ethtypes.HexToAddress(c.Address)
		if err != nil {
			return nil, err
		}
		first, err := time.Parse(time.RFC3339, c.FirstSeen)
		if err != nil {
			return nil, err
		}
		last, err := time.Parse(time.RFC3339, c.LastSeen)
		if err != nil {
			return nil, err
		}
		ds.Contracts[addr] = &ContractRecord{
			Address: addr, Found: Discovery(c.Found), Sources: c.Sources,
			FirstSeen: first, LastSeen: last, TxCount: c.TxCount,
		}
	}
	readAccounts := func(list []accountJSON, into map[ethtypes.Address]*AccountRecord) error {
		for _, a := range list {
			addr, err := ethtypes.HexToAddress(a.Address)
			if err != nil {
				return err
			}
			first, err := time.Parse(time.RFC3339, a.FirstSeen)
			if err != nil {
				return err
			}
			last, err := time.Parse(time.RFC3339, a.LastSeen)
			if err != nil {
				return err
			}
			into[addr] = &AccountRecord{Address: addr, Found: Discovery(a.Found), FirstSeen: first, LastSeen: last}
		}
		return nil
	}
	if err := readAccounts(in.Operators, ds.Operators); err != nil {
		return nil, err
	}
	if err := readAccounts(in.Affiliates, ds.Affiliates); err != nil {
		return nil, err
	}
	for _, rec := range in.Splits {
		h, err := ethtypes.HexToHash(rec.Tx)
		if err != nil {
			return nil, err
		}
		for _, sj := range rec.Splits {
			sp, err := fromSplitJSON(h, sj)
			if err != nil {
				return nil, err
			}
			ds.Splits[h] = append(ds.Splits[h], sp)
		}
	}
	return ds, nil
}

func toAccountJSON(a *AccountRecord) accountJSON {
	return accountJSON{
		Address:   a.Address.Hex(),
		Found:     string(a.Found),
		FirstSeen: a.FirstSeen.Format(time.RFC3339),
		LastSeen:  a.LastSeen.Format(time.RFC3339),
	}
}

func fromSplitJSON(h ethtypes.Hash, sj splitJSON) (Split, error) {
	sp := Split{TxHash: h, RatioPM: sj.RatioPM}
	var err error
	if sp.Time, err = time.Parse(time.RFC3339, sj.Time); err != nil {
		return sp, err
	}
	if sp.Contract, err = ethtypes.HexToAddress(sj.Contract); err != nil {
		return sp, err
	}
	if sp.Payer, err = ethtypes.HexToAddress(sj.Payer); err != nil {
		return sp, err
	}
	if sp.Operator, err = ethtypes.HexToAddress(sj.Operator); err != nil {
		return sp, err
	}
	if sp.Affiliate, err = ethtypes.HexToAddress(sj.Affiliate); err != nil {
		return sp, err
	}
	switch sj.AssetKind {
	case "ETH":
		sp.Asset = chain.ETHAsset
	case "ERC20", "ERC721":
		kind := chain.AssetERC20
		if sj.AssetKind == "ERC721" {
			kind = chain.AssetERC721
		}
		token, err := ethtypes.HexToAddress(sj.Token)
		if err != nil {
			return sp, err
		}
		sp.Asset = chain.Asset{Kind: kind, Token: token}
	default:
		return sp, fmt.Errorf("core: unknown asset kind %q", sj.AssetKind)
	}
	var opAmt, affAmt weiText
	if err := opAmt.parse(sj.OpAmount); err != nil {
		return sp, err
	}
	if err := affAmt.parse(sj.AffAmount); err != nil {
		return sp, err
	}
	sp.OperatorAmount = opAmt.wei
	sp.AffiliateAmount = affAmt.wei
	return sp, nil
}

// weiText parses decimal wei strings.
type weiText struct{ wei ethtypes.Wei }

func (w *weiText) parse(s string) error {
	var ok bool
	w.wei, ok = parseWei(s)
	if !ok {
		return fmt.Errorf("core: bad amount %q", s)
	}
	return nil
}

func parseWei(s string) (ethtypes.Wei, bool) {
	b, ok := newBigFromDecimal(s)
	if !ok {
		return ethtypes.Wei{}, false
	}
	return ethtypes.WeiFromBig(b), true
}

// newBigFromDecimal parses a base-10 integer.
func newBigFromDecimal(s string) (*big.Int, bool) {
	return new(big.Int).SetString(s, 10)
}
