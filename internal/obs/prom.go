package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4). Families are emitted in sorted name
// order so output is deterministic; within a family, instruments appear in
// registration order. Safe to call concurrently with metric writes: each
// instrument is snapshotted individually (atomics for counters/gauges, a
// short mutex for histograms). A nil receiver writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	// Families and their metrics slices are append-only and the registry
	// lock was held while copying the family pointers; reading
	// fam.metrics below races only with appends, so re-lock per family
	// to snapshot the slice header.
	for _, fam := range fams {
		r.mu.Lock()
		metrics := fam.metrics[:len(fam.metrics):len(fam.metrics)]
		fns := make([]func() float64, len(metrics))
		for i, m := range metrics {
			fns[i] = m.fn
		}
		r.mu.Unlock()
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			fam.name, escapeHelp(fam.help), fam.name, fam.typ); err != nil {
			return err
		}
		for i, m := range metrics {
			if err := writeMetric(w, fam, m, fns[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeMetric renders one instrument; fn is its scrape-time function
// (nil for most), added to a counter's or gauge's own value.
func writeMetric(w io.Writer, fam *family, m *metric, fn func() float64) error {
	var v float64
	if fn != nil {
		v = fn()
	}
	switch fam.typ {
	case typeCounter:
		return writeSample(w, fam.name, m.sig, float64(m.counter.Value())+v)
	case typeGauge:
		return writeSample(w, fam.name, m.sig, m.gauge.Value()+v)
	case typeHistogram:
		counts, sum, count := m.hist.snapshot()
		var cum uint64
		for i, upper := range fam.buckets {
			cum += counts[i]
			le := strconv.FormatFloat(upper, 'g', -1, 64)
			if err := writeSample(w, fam.name+"_bucket", joinSig(m.sig, `le="`+le+`"`), float64(cum)); err != nil {
				return err
			}
		}
		cum += counts[len(fam.buckets)]
		if err := writeSample(w, fam.name+"_bucket", joinSig(m.sig, `le="+Inf"`), float64(cum)); err != nil {
			return err
		}
		if err := writeSample(w, fam.name+"_sum", m.sig, sum); err != nil {
			return err
		}
		return writeSample(w, fam.name+"_count", m.sig, float64(count))
	}
	return nil
}

// joinSig appends one rendered label pair to an existing signature.
func joinSig(sig, extra string) string {
	if sig == "" {
		return extra
	}
	return sig + "," + extra
}

func writeSample(w io.Writer, name, sig string, v float64) error {
	var err error
	if sig == "" {
		_, err = fmt.Fprintf(w, "%s %s\n", name, formatValue(v))
	} else {
		_, err = fmt.Fprintf(w, "%s{%s} %s\n", name, sig, formatValue(v))
	}
	return err
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
