package screen_test

import (
	"bytes"
	"testing"

	"repro/internal/ethtypes"
	"repro/internal/screen"
)

// fuzzBytes draws small numbers from fuzz input, zeros once it runs
// out.
type fuzzBytes []byte

func (b *fuzzBytes) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// The draws come from small pools, so upserts and removals hit base
// records and family names appear in the delta only, or vanish from
// the base.
var (
	fuzzFamilies = []string{"", "Inferno", "Angel", "Pink", "0x1a2b3c", "Monkey"}
	fuzzReasons  = []string{screen.ReasonContract, screen.ReasonOperator, screen.ReasonAffiliate, "reported by victim"}
	fuzzDomains  = []string{"evil-drainer.example", "Claim.Airdrop.example.", "mint.example:443", "x.example", ""}
)

func (b *fuzzBytes) record() screen.Record {
	var a ethtypes.Address
	a[0] = byte(b.next(48))
	a[19] = byte(b.next(2))
	return screen.Record{
		Address:       a,
		Kind:          screen.Kind(b.next(4)),
		Reason:        fuzzReasons[b.next(len(fuzzReasons))],
		Family:        fuzzFamilies[b.next(len(fuzzFamilies))],
		Tainted:       b.next(2) == 1,
		StaticFlagged: b.next(2) == 1,
	}
}

// FuzzSnapshotApply is the differential gate for Apply: a random base
// snapshot with a random delta applied must serialize exactly as a
// Build of the merged record set, and look up every record it lists.
func FuzzSnapshotApply(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 4, 0, 1, 2, 3, 4, 5, 6, 1, 9, 9})
	f.Add(bytes.Repeat([]byte{31, 7, 200, 3}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		merged := make(map[ethtypes.Address]screen.Record)
		base := screen.NewBuilder()
		for n := in.next(40); n > 0; n-- {
			r := in.record()
			base.Add(r)
			merged[r.Address] = r
		}
		var domains []string
		for n := in.next(3); n > 0; n-- {
			d := fuzzDomains[in.next(len(fuzzDomains))]
			base.AddDomain(d)
			domains = append(domains, d)
		}
		snap := base.Build()

		// Removals apply before upserts, and a later upsert of an
		// address wins over an earlier one.
		var d screen.Delta
		var upserts []screen.Record
		for n := in.next(40); n > 0; n-- {
			r := in.record()
			if in.next(3) == 0 {
				d.Removals = append(d.Removals, r.Address)
				delete(merged, r.Address)
			} else {
				upserts = append(upserts, r)
			}
		}
		for _, r := range upserts {
			merged[r.Address] = r
		}
		d.Upserts = upserts
		for n := in.next(3); n > 0; n-- {
			dom := fuzzDomains[in.next(len(fuzzDomains))]
			d.Domains = append(d.Domains, dom)
			domains = append(domains, dom)
		}

		want := screen.NewBuilder()
		for _, r := range merged {
			want.Add(r)
		}
		for _, dom := range domains {
			want.AddDomain(dom)
		}
		gotBytes, _ := snap.Apply(d).MarshalBinary()
		wantBytes, _ := want.Build().MarshalBinary()
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("Apply differs from a Build of the merged set:\n%q\nvs\n%q", gotBytes, wantBytes)
		}
		applied := snap.Apply(d)
		if applied.Len() != len(merged) {
			t.Fatalf("applied snapshot lists %d records, want %d", applied.Len(), len(merged))
		}
		for a, r := range merged {
			if got, ok := applied.Lookup(a); !ok || got != r {
				t.Fatalf("Lookup(%s) = %+v, %v; want %+v", a, got, ok, r)
			}
		}
	})
}
