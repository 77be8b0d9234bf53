// Package analysis is the Go equivalent of the paper's Python analysis
// modules: figure-specific modules query DSOS and derive exactly the
// datasets behind Figures 5-9, and queried objects can be loaded into a
// small column-oriented dataframe.
package analysis

import (
	"sort"

	"darshanldms/internal/sos"
)

// Frame is a column-oriented table (a pandas-dataframe-lite): ordered
// column names, each column a []any of one sos value type.
type Frame struct {
	names []string
	cols  map[string][]any
	rows  int
}

// FromObjects builds a frame from store objects using the schema's
// attribute names as columns.
func FromObjects(schema *sos.Schema, objs []sos.Object) *Frame {
	f := &Frame{names: make([]string, len(schema.Attrs)), cols: map[string][]any{}, rows: len(objs)}
	for i, a := range schema.Attrs {
		f.names[i] = a.Name
	}
	for _, o := range objs {
		for i, n := range f.names {
			f.cols[n] = append(f.cols[n], o.Value(i))
		}
	}
	return f
}

// Len returns the number of rows.
func (f *Frame) Len() int { return f.rows }

// SortedKeys returns map keys in sorted order (stable report output).
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
