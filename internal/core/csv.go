package core

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/chain"
)

// WriteCSV emits the dataset as three CSV sections concatenated into
// one stream (accounts, contracts, splits), the flat release format
// analysts import into spreadsheets and SQL. Sections are separated by
// a blank line and each carries its own header.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)

	// Section 1: accounts.
	if err := cw.Write([]string{"role", "address", "found_via", "first_seen", "last_seen"}); err != nil {
		return err
	}
	for _, rec := range d.SortedOperators() {
		if err := cw.Write([]string{"operator", rec.Address.Hex(), string(rec.Found),
			rec.FirstSeen.Format(time.RFC3339), rec.LastSeen.Format(time.RFC3339)}); err != nil {
			return err
		}
	}
	for _, rec := range d.SortedAffiliates() {
		if err := cw.Write([]string{"affiliate", rec.Address.Hex(), string(rec.Found),
			rec.FirstSeen.Format(time.RFC3339), rec.LastSeen.Format(time.RFC3339)}); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}

	// Section 2: contracts.
	cw = csv.NewWriter(w)
	if err := cw.Write([]string{"contract", "found_via", "sources", "first_seen", "last_seen", "tx_count"}); err != nil {
		return err
	}
	for _, rec := range d.SortedContracts() {
		sources := ""
		for i, s := range rec.Sources {
			if i > 0 {
				sources += "|"
			}
			sources += s
		}
		if err := cw.Write([]string{rec.Address.Hex(), string(rec.Found), sources,
			rec.FirstSeen.Format(time.RFC3339), rec.LastSeen.Format(time.RFC3339),
			strconv.Itoa(rec.TxCount)}); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}

	// Section 3: profit-sharing transactions, one row per split.
	cw = csv.NewWriter(w)
	if err := cw.Write([]string{"tx", "time", "contract", "payer", "operator", "affiliate",
		"asset", "token", "operator_amount", "affiliate_amount", "operator_ratio_pm"}); err != nil {
		return err
	}
	for _, h := range d.SortedSplitTxs() {
		for _, sp := range d.Splits[h] {
			token := ""
			if sp.Asset.Kind != chain.AssetETH {
				token = sp.Asset.Token.Hex()
			}
			if err := cw.Write([]string{
				h.Hex(), sp.Time.Format(time.RFC3339), sp.Contract.Hex(), sp.Payer.Hex(),
				sp.Operator.Hex(), sp.Affiliate.Hex(), sp.Asset.Kind.String(), token,
				sp.OperatorAmount.String(), sp.AffiliateAmount.String(),
				strconv.FormatInt(sp.RatioPM, 10),
			}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
