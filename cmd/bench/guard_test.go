package main

import (
	"strings"
	"testing"
)

// guardCase builds committed and measured spec seconds for every guarded
// pole at 0.400 s, with one pole measured at factor times its committed
// value.
func guardCase(pole string, factor float64) (committed, measured map[string]float64) {
	committed = map[string]float64{}
	measured = map[string]float64{}
	for _, p := range poleBaseline {
		committed[p.ID] = 0.4
		measured[p.ID] = 0.4
	}
	measured[pole] = 0.4 * factor
	return committed, measured
}

func TestGuardVerdict(t *testing.T) {
	pole := poleBaseline[0].ID
	cases := []struct {
		name   string
		factor float64
		suite  float64
		want   []string // substrings, one per expected failure
	}{
		{"pole 24% slower passes", 1.24, 1.5, nil},
		{"pole 26% slower fails", 1.26, 1.5, []string{pole + " regressed"}},
		{"suite over budget fails", 1.0, 2.1, []string{"exceeds budget"}},
		{"both fail", 1.26, 2.1, []string{pole + " regressed", "exceeds budget"}},
	}
	for _, c := range cases {
		committed, measured := guardCase(pole, c.factor)
		got := guardVerdict(committed, measured, c.suite, suiteBudgetSeconds)
		if len(got) != len(c.want) {
			t.Errorf("%s: %d failures %q, want %d", c.name, len(got), got, len(c.want))
			continue
		}
		for i, w := range c.want {
			if !strings.Contains(got[i], w) {
				t.Errorf("%s: failure %d = %q, want it to mention %q", c.name, i, got[i], w)
			}
		}
	}
}

// A spec missing from the committed report has no baseline to regress
// against; only the budget applies.
func TestGuardVerdictSkipsUncommittedPoles(t *testing.T) {
	measured := map[string]float64{poleBaseline[0].ID: 9}
	if got := guardVerdict(map[string]float64{}, measured, 1.5, suiteBudgetSeconds); len(got) != 0 {
		t.Fatalf("failures %q for a pole with no committed baseline", got)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		vals []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{1.19, 1.69, 1.2}, 1.2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.vals); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.vals, got, c.want)
		}
	}
}
