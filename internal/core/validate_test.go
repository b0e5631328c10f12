package core_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/worldgen"
)

// TestValidateReviewIsLinear guards the §5.2 review against a
// per-account rescan of ds.Splits. On two world sizes the review may
// read each recorded split entry once to index it and once more for
// each of its (at most three) accounts, so the entries it visits stay
// within four per split entry; a scan of every split per reviewed
// account visits about one per split entry and account.
func TestValidateReviewIsLinear(t *testing.T) {
	for _, scale := range []float64{0.01, 0.03} {
		cfg := worldgen.TestConfig(1910)
		cfg.Scale = scale
		w, err := worldgen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ds := buildDataset(t, w)
		entries := 0
		for _, splits := range ds.Splits {
			entries += len(splits)
		}
		v := core.Validator{Source: core.LocalSource{Chain: w.Chain}}
		before := core.ReviewVisits()
		report, err := v.Validate(ds)
		if err != nil {
			t.Fatal(err)
		}
		visits := core.ReviewVisits() - before
		accounts := report.ContractsReviewed + report.OperatorsReviewed + report.AffiliatesReviewed
		t.Logf("scale %.2f: %d split entries, %d accounts, %d visits", scale, entries, accounts, visits)
		if entries == 0 || accounts < 20 {
			t.Fatalf("scale %.2f: world too small to tell (%d split entries, %d accounts)", scale, entries, accounts)
		}
		if visits > int64(4*entries) {
			t.Errorf("scale %.2f: the review visited %d split entries for %d recorded (more than 4 per entry)", scale, visits, entries)
		}
	}
}

// TestValidateLeavesValidatorUnchanged: Validate applies its default
// sample size without writing it into the Validator, so concurrent
// calls on one Validator do not race and the zero value keeps meaning
// "the default".
func TestValidateLeavesValidatorUnchanged(t *testing.T) {
	w := sharedWorld
	ds := buildDataset(t, w)
	v := core.Validator{Source: core.LocalSource{Chain: w.Chain}}
	want := v
	var wg sync.WaitGroup
	reports := make([]*core.ValidationReport, 2)
	for i := range reports {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := v.Validate(ds)
			if err != nil {
				t.Error(err)
			}
			reports[i] = r
		}()
	}
	wg.Wait()
	if v != want {
		t.Errorf("Validate changed the Validator: %+v, want %+v", v, want)
	}
	explicit := core.Validator{Source: core.LocalSource{Chain: w.Chain}, SamplePerAccount: 10}
	wantReport, err := explicit.Validate(ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if !reflect.DeepEqual(r, wantReport) {
			t.Errorf("zero sample size reviewed %+v, want the default of 10: %+v", r, wantReport)
		}
	}
}
