package obs

import (
	"io"
	"strings"
)

// WriteProm writes the registry snapshot in the Prometheus text
// exposition format (version 0.0.4): one `name value` line per series,
// sorted by name. Histograms appear as `_bucket{le=...}`, `_sum` and
// `_count` series. The output is deterministic for a given set of
// instrument values.
func (r *Registry) WriteProm(w io.Writer) error {
	for _, s := range r.Snapshot() {
		if _, err := io.WriteString(w, s.Name+" "+formatValue(s.Value)+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// RenderSamples renders an already-taken snapshot in the same text
// format; harness reports embed per-stage snapshots this way.
func RenderSamples(samples []Sample) string {
	var b strings.Builder
	for _, s := range samples {
		b.WriteString(s.Name + " " + formatValue(s.Value) + "\n")
	}
	return b.String()
}
