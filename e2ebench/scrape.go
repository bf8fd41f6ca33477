package main

import (
	"fmt"
	"sort"

	"ofmf/internal/obsv"
)

// scrape is one snapshot of a metrics registry, by family name. The
// benchmark reads only what the program already exports.
type scrape map[string]obsv.Family

func gather(reg *obsv.Registry) scrape {
	s := scrape{}
	for _, f := range reg.Gather() {
		s[f.Name] = f
	}
	return s
}

// total sums a counter or gauge family over every label set.
func (s scrape) total(name string) float64 {
	var v float64
	for _, smp := range s[name].Samples {
		v += smp.Value
	}
	return v
}

// hist sums a histogram family's sum and count over the label sets
// keep admits (every label set when keep is nil).
func (s scrape) hist(name string, keep func(labels []string) bool) (sum float64, count uint64) {
	for _, smp := range s[name].Samples {
		if keep == nil || keep(smp.LabelValues) {
			sum += smp.Sum
			count += smp.Count
		}
	}
	return sum, count
}

// delta is a counter family's growth over the window.
func (w *windowInfo) delta(name string) float64 {
	return w.after.total(name) - w.before.total(name)
}

// histDelta is a histogram family's growth over the window.
func (w *windowInfo) histDelta(name string, keep func([]string) bool) (sum float64, count uint64) {
	s1, c1 := w.after.hist(name, keep)
	s0, c0 := w.before.hist(name, keep)
	return s1 - s0, c1 - c0
}

// histMeanUS is the mean observation of a histogram family over the
// window, in microseconds (the program records seconds).
func (w *windowInfo) histMeanUS(name string) float64 {
	sum, n := w.histDelta(name, nil)
	if n == 0 {
		return 0
	}
	return sum / float64(n) * 1e6
}

// printSpans lists the program's own span histogram
// (ofmf_span_seconds{op}) over the window: count and mean per op.
func printSpans(w *windowInfo) {
	type row struct {
		op   string
		n    uint64
		mean float64
	}
	var rows []row
	for _, smp := range w.after.Samples("ofmf_span_seconds") {
		op := smp.LabelValues[0]
		sum, n := w.histDelta("ofmf_span_seconds", func(l []string) bool { return l[0] == op })
		if n > 0 {
			rows = append(rows, row{op, n, sum / float64(n) * 1e6})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].op < rows[j].op })
	for _, r := range rows {
		fmt.Printf("span %-24s count %8d mean %10.1fus\n", r.op, r.n, r.mean)
	}
}

// Samples returns a family's samples (nil when absent).
func (s scrape) Samples(name string) []obsv.Sample { return s[name].Samples }
