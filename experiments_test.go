package repro

import (
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// experimentRows maps each chain-side section of EXPERIMENTS.md to the
// golden section that pins it, and each row of the section's table to
// the label of its golden line. These sections do not depend on
// -sites, so the golden's -sites 200 run prints the same numbers as the
// -sites 8000 run EXPERIMENTS.md was produced with; §8.2 and Table 4
// do, and are not checked.
var experimentRows = []struct {
	doc, golden string
	rows        map[string]string
}{
	{"Table 1", "Table 1", map[string]string{
		"profit-sharing contracts (seed → expanded)": "profit-sharing contracts (seed → expanded)",
		"operator accounts":                          "operator accounts",
		"affiliate accounts":                         "affiliate accounts",
		"profit-sharing transactions":                "profit-sharing transactions",
		"expansion factor (contracts)":               "expansion factor (contracts)",
	}},
	{"§5.2", "§5.2", map[string]string{
		"operator profits":           "operator profits",
		"affiliate profits":          "affiliate profits",
		"operator share of profits":  "operator share of all profits",
		"victim accounts":            "victim accounts",
		"validation false positives": "validation false positives",
	}},
	{"Figure 6", "Figure 6", map[string]string{
		"< $100":          "less than $100",
		"$100 – $1,000":   "between $100 and $1,000",
		"$1,000 – $5,000": "between $1,000 and $5,000",
		"> $5,000":        "more than $5,000",
		"below $1,000":    "losses below $1,000",
	}},
	{"§6.1", "§6.1", map[string]string{
		"victims per day":                             "victims per day (average)",
		"multi-phished victims":                       "multi-phished victims",
		"signed multiple phishing txs simultaneously": "signed multiple phishing txs simultaneously",
		"never revoked approvals":                     "never revoked approvals",
	}},
	{"§6.2", "§6.2", map[string]string{
		"top 25% of operators' profit share": "top 25% of operators' profit share",
		"top operator account":               "top operator account earnings",
		"inactive-operator lifecycles":       "inactive-operator lifecycles",
	}},
	{"Figure 7", "Figure 7", map[string]string{
		"affiliates earning > $1,000":  "affiliates earning over $1,000",
		"affiliates earning > $10,000": "affiliates earning over $10,000",
	}},
	{"§6.3", "§6.3", map[string]string{
		"affiliates with > 10 victims": "affiliates with >10 victims",
		"single-operator affiliates":   "affiliates tied to a single operator",
		"≤ 3 operators":                "affiliates tied to at most 3 operators",
	}},
	{"§4.3", "§4.3", map[string]string{
		"20%":   "operator share 20.0%",
		"15%":   "operator share 15.0%",
		"17.5%": "operator share 17.5%",
		// The sum of the six other ratios' lines.
		"remaining six ratios": "operator share 10.0% + operator share 12.5% + operator share 25.0% + " +
			"operator share 30.0% + operator share 33.0% + operator share 40.0%",
	}},
	{"Table 2", "Table 2", map[string]string{
		"Angel Drainer":      "Angel Drainer",
		"Inferno Drainer":    "Inferno Drainer",
		"Pink Drainer":       "Pink Drainer",
		"Ace Drainer":        "Ace Drainer",
		"Pussy Drainer":      "Pussy Drainer",
		"Venom Drainer":      "Venom Drainer",
		"Medusa Drainer":     "Medusa Drainer",
		"0x0000b6":           "0x0000b6",
		"Spawn Drainer":      "Spawn Drainer",
		"top-3 profit share": "top-3 families' profit share",
	}},
	{"§8.1", "§8.1", map[string]string{
		"DaaS accounts labeled": "DaaS accounts labeled on Etherscan",
	}},
	{"§8.1 extension", "§8.1 extension", map[string]string{
		"cashed-out DaaS accounts traced":               "cashed-out DaaS accounts traced",
		"dominant sink: mixing service":                 "dominant sink: mixing service",
		"dominant sink: centralized exchange":           "dominant sink: centralized exchange",
		"Etherscan-labeled accounts routing via mixers": "labeled accounts routing via mixers",
	}},
}

var numberRE = regexp.MustCompile(`\d[\d,]*(\.\d+)?`)

// numbers returns the numbers in s, thousands separators removed.
func numbers(s string) []string {
	var out []string
	for _, n := range numberRE.FindAllString(s, -1) {
		out = append(out, strings.ReplaceAll(n, ",", ""))
	}
	return out
}

// matches reports whether the document's number doc is the golden's
// number g, or g rounded to doc's decimal places ("$53.4M" for the
// golden's "$53.42M").
func matches(doc, g string) bool {
	if doc == g {
		return true
	}
	d, err1 := strconv.ParseFloat(doc, 64)
	v, err2 := strconv.ParseFloat(g, 64)
	if err1 != nil || err2 != nil {
		return false
	}
	places := 0
	if i := strings.IndexByte(doc, '.'); i >= 0 {
		places = len(doc) - i - 1
	}
	scale := math.Pow(10, float64(places))
	return math.Round(v*scale) == math.Round(d*scale)
}

// TestExperimentsMatchGolden checks that every measured cell of
// EXPERIMENTS.md's study sections appears on its line of the pinned
// paper-scale output, so the document cannot drift from the program.
func TestExperimentsMatchGolden(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("cmd/repro/testdata/paper_scale.golden")
	if err != nil {
		t.Fatal(err)
	}
	docTables := parseDocTables(string(doc))
	goldenLines := parseGoldenLines(string(golden))
	for _, sec := range experimentRows {
		rows, ok := docTables[sec.doc]
		if !ok {
			t.Errorf("EXPERIMENTS.md has no %q section", sec.doc)
			continue
		}
		lines := goldenLines[sec.golden]
		if len(rows) != len(sec.rows) {
			t.Errorf("%s: EXPERIMENTS.md has %d rows, the test maps %d", sec.doc, len(rows), len(sec.rows))
		}
		for label, measured := range rows {
			target, ok := sec.rows[label]
			if !ok {
				t.Errorf("%s: row %q is not mapped to a golden line", sec.doc, label)
				continue
			}
			var want []string
			if parts := strings.Split(target, " + "); len(parts) > 1 {
				sum := 0.0
				for _, p := range parts {
					ns := numbers(lines[p])
					if len(ns) == 0 {
						t.Fatalf("%s: golden line %q not found", sec.golden, p)
					}
					v, _ := strconv.ParseFloat(ns[0], 64)
					sum += v
				}
				want = []string{strconv.FormatFloat(sum, 'f', -1, 64)}
			} else if line, ok := lines[target]; ok {
				want = numbers(line)
			} else {
				t.Errorf("%s: golden line %q not found", sec.golden, target)
				continue
			}
			for _, n := range numbers(measured) {
				found := false
				for _, g := range want {
					if matches(n, g) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("%s / %s: measured %s is not on the golden line (numbers %v)", sec.doc, label, n, want)
				}
			}
		}
	}
}

// parseDocTables returns, per "## " section of EXPERIMENTS.md, the last
// cell of each table row keyed by its first cell, markup removed.
func parseDocTables(doc string) map[string]map[string]string {
	out := make(map[string]map[string]string)
	var rows map[string]string
	header := false
	for _, line := range strings.Split(doc, "\n") {
		if title, ok := strings.CutPrefix(line, "## "); ok {
			name, _, _ := strings.Cut(title, " — ")
			rows = make(map[string]string)
			out[name] = rows
			header = true
			continue
		}
		if rows == nil || !strings.HasPrefix(line, "|") {
			continue
		}
		if header || strings.HasPrefix(line, "|---") {
			header = false // the column names, then the separator
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		clean := func(s string) string { return strings.TrimSpace(strings.ReplaceAll(s, "**", "")) }
		rows[clean(cells[0])] = clean(cells[len(cells)-1])
	}
	return out
}

// parseGoldenLines returns, per "== " section of the golden, the text
// after "measured:" of each line keyed by its label.
func parseGoldenLines(golden string) map[string]map[string]string {
	out := make(map[string]map[string]string)
	var lines map[string]string
	for _, line := range strings.Split(golden, "\n") {
		if title, ok := strings.CutPrefix(line, "== "); ok {
			name, _, _ := strings.Cut(strings.TrimSuffix(title, " =="), ":")
			lines = make(map[string]string)
			out[name] = lines
			continue
		}
		label, rest, ok := strings.Cut(line, " paper: ")
		if lines == nil || !ok {
			continue
		}
		if _, measured, ok := strings.Cut(rest, "measured: "); ok {
			lines[strings.TrimSpace(label)] = measured
		}
	}
	return out
}
