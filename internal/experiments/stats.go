// Package experiments reproduces every table and figure of the paper's
// evaluation (§5). Each runner returns a structured result that the tebench
// CLI, the one entry point for the paper's figures, renders as the
// rows/series the paper reports. DESIGN.md carries the experiment index;
// EXPERIMENTS.md records paper-vs-measured outcomes.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Distribution summarizes a sample of NormMLU (or any) values.
type Distribution struct {
	Values []float64 // sorted ascending
}

// NewDistribution copies and sorts the values.
func NewDistribution(values []float64) Distribution {
	cp := append([]float64(nil), values...)
	sort.Float64s(cp)
	return Distribution{Values: cp}
}

// Quantile returns the q∈[0,1] quantile by linear interpolation.
func (d Distribution) Quantile(q float64) float64 {
	n := len(d.Values)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return d.Values[0]
	}
	if q >= 1 {
		return d.Values[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return d.Values[n-1]
	}
	return d.Values[lo]*(1-frac) + d.Values[lo+1]*frac
}

// Median returns the 50th percentile.
func (d Distribution) Median() float64 { return d.Quantile(0.5) }

// Max returns the largest value.
func (d Distribution) Max() float64 {
	if len(d.Values) == 0 {
		return math.NaN()
	}
	return d.Values[len(d.Values)-1]
}

// Mean returns the arithmetic mean.
func (d Distribution) Mean() float64 {
	if len(d.Values) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range d.Values {
		s += v
	}
	return s / float64(len(d.Values))
}

// Std returns the population standard deviation.
func (d Distribution) Std() float64 {
	if len(d.Values) == 0 {
		return math.NaN()
	}
	m := d.Mean()
	var s float64
	for _, v := range d.Values {
		s += (v - m) * (v - m)
	}
	return math.Sqrt(s / float64(len(d.Values)))
}

// FractionBelow returns the empirical CDF at x.
func (d Distribution) FractionBelow(x float64) float64 {
	if len(d.Values) == 0 {
		return math.NaN()
	}
	i := sort.SearchFloat64s(d.Values, x)
	// Include equal values.
	for i < len(d.Values) && d.Values[i] <= x {
		i++
	}
	return float64(i) / float64(len(d.Values))
}

// CDFRow renders the canonical quantile row used across figures.
func (d Distribution) CDFRow() string {
	return fmt.Sprintf("n=%d p50=%.3f p90=%.3f p98=%.3f p99=%.3f max=%.3f",
		len(d.Values), d.Quantile(0.5), d.Quantile(0.9), d.Quantile(0.98),
		d.Quantile(0.99), d.Max())
}

// BoxStats are the per-scenario statistics of the paper's boxplots
// (Figures 9 and 17: median box, dashed 90th percentile, top whisker = max).
type BoxStats struct {
	Label                  string
	Median, P90, Max, Mean float64
	N                      int
}

// Box computes BoxStats for one scenario.
func Box(label string, values []float64) BoxStats {
	d := NewDistribution(values)
	return BoxStats{
		Label:  label,
		Median: d.Median(),
		P90:    d.Quantile(0.9),
		Max:    d.Max(),
		Mean:   d.Mean(),
		N:      len(values),
	}
}

// Table is a generic experiment output: a title, column headers and rows,
// rendered as aligned text.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// F formats a float for table cells.
func F(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	if math.IsInf(v, 0) {
		return "inf"
	}
	return fmt.Sprintf("%.3f", v)
}
