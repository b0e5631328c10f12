package labels

import (
	"testing"

	"repro/internal/ethtypes"
)

var (
	a1 = ethtypes.Addr("0x1111111111111111111111111111111111111111")
	a2 = ethtypes.Addr("0x2222222222222222222222222222222222222222")
	a3 = ethtypes.Addr("0x3333333333333333333333333333333333333333")
)

func TestAddAndQuery(t *testing.T) {
	d := New()
	d.Add(Label{Address: a1, Source: SourceEtherscan, Category: CategoryPhishing, Name: "Fake_Phishing1"})
	d.Add(Label{Address: a1, Source: SourceChainabuse, Category: CategoryPhishing, Name: "reported"})
	d.Add(Label{Address: a2, Source: SourceEtherscan, Category: CategoryExchange, Name: "CEX 1"})

	if !d.Has(a1, SourceEtherscan) || !d.Has(a1, SourceChainabuse) {
		t.Error("Has failed for labeled address")
	}
	if d.Has(a1, SourceScamSniffer) {
		t.Error("Has true for absent source")
	}
	if got := d.AllPhishing(); len(got) != 1 || got[0] != a1 {
		t.Errorf("AllPhishing = %v, want only %s (the exchange is not phishing)", got, a1)
	}
	if d.Count() != 2 {
		t.Errorf("Count = %d", d.Count())
	}
	if got := d.Of(a1); len(got) != 2 {
		t.Errorf("Of returned %d labels", len(got))
	}
	if got := d.Of(a3); len(got) != 0 {
		t.Error("Of for unlabeled returned labels")
	}
}

func TestEtherscanName(t *testing.T) {
	d := New()
	d.Add(Label{Address: a1, Source: SourceChainabuse, Category: CategoryPhishing, Name: "nope"})
	d.Add(Label{Address: a1, Source: SourceEtherscan, Category: CategoryPhishing, Name: "Angel Drainer"})
	name, ok := d.EtherscanName(a1)
	if !ok || name != "Angel Drainer" {
		t.Errorf("EtherscanName = %q, %v", name, ok)
	}
	if _, ok := d.EtherscanName(a2); ok {
		t.Error("EtherscanName for unlabeled succeeded")
	}
}

func TestPhishingReportsSortedAndUnion(t *testing.T) {
	d := New()
	d.Add(Label{Address: a2, Source: SourceEtherscan, Category: CategoryPhishing})
	d.Add(Label{Address: a1, Source: SourceEtherscan, Category: CategoryPhishing})
	d.Add(Label{Address: a3, Source: SourceTxPhishScope, Category: CategoryPhishing})
	d.Add(Label{Address: a1, Source: SourceTxPhishScope, Category: CategoryPhishing})

	es := d.PhishingReports(SourceEtherscan)
	if len(es) != 2 || es[0] != a1 || es[1] != a2 {
		t.Errorf("etherscan reports = %v", es)
	}
	all := d.AllPhishing()
	if len(all) != 3 {
		t.Errorf("union = %d addresses", len(all))
	}
	for i := 1; i < len(all); i++ {
		for k := range all[i] {
			if all[i-1][k] != all[i][k] {
				if all[i-1][k] > all[i][k] {
					t.Fatal("AllPhishing not sorted")
				}
				break
			}
		}
	}
}

func TestOfReturnsCopy(t *testing.T) {
	d := New()
	d.Add(Label{Address: a1, Source: SourceEtherscan, Category: CategoryPhishing, Name: "x"})
	got := d.Of(a1)
	got[0].Name = "mutated"
	if d.Of(a1)[0].Name != "x" {
		t.Error("Of exposes internal state")
	}
}
