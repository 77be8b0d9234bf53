// Package analysis is the Go equivalent of the paper's Python analysis
// modules: queried DSOS objects are converted into a small typed dataframe
// for filtering/grouping/aggregation, and figure-specific modules derive
// exactly the datasets behind Figures 5-9.
package analysis

import (
	"fmt"
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

// NewFrame creates an empty frame with the given column names.
func NewFrame(names ...string) *Frame {
	f := &Frame{names: names, cols: map[string][]any{}}
	for _, n := range names {
		f.cols[n] = nil
	}
	return f
}

// FromObjects builds a frame from store objects using the schema's
// attribute names as columns.
func FromObjects(schema *sos.Schema, objs []sos.Object) *Frame {
	names := make([]string, len(schema.Attrs))
	for i, a := range schema.Attrs {
		names[i] = a.Name
	}
	f := NewFrame(names...)
	for _, o := range objs {
		for i, n := range names {
			f.cols[n] = append(f.cols[n], o.Value(i))
		}
	}
	f.rows = len(objs)
	return f
}

// Len returns the number of rows.
func (f *Frame) Len() int { return f.rows }

// Columns returns the column names in order.
func (f *Frame) Columns() []string { return f.names }

// AppendRow adds one row; values must align with the column order.
func (f *Frame) AppendRow(vals ...any) {
	if len(vals) != len(f.names) {
		panic(fmt.Sprintf("analysis: row arity %d vs %d columns", len(vals), len(f.names)))
	}
	for i, n := range f.names {
		f.cols[n] = append(f.cols[n], vals[i])
	}
	f.rows++
}

// Value returns the cell at (row, col).
func (f *Frame) Value(row int, col string) any { return f.cols[col][row] }

// Float64s extracts a column as float64 (int64/uint64 are widened).
func (f *Frame) Float64s(col string) []float64 {
	raw, ok := f.cols[col]
	if !ok {
		panic("analysis: unknown column " + col)
	}
	out := make([]float64, len(raw))
	for i, v := range raw {
		switch x := v.(type) {
		case float64:
			out[i] = x
		case int64:
			out[i] = float64(x)
		case uint64:
			out[i] = float64(x)
		default:
			panic(fmt.Sprintf("analysis: column %s: non-numeric %T", col, v))
		}
	}
	return out
}

// Strings extracts a column as strings.
func (f *Frame) Strings(col string) []string {
	raw, ok := f.cols[col]
	if !ok {
		panic("analysis: unknown column " + col)
	}
	out := make([]string, len(raw))
	for i, v := range raw {
		out[i] = v.(string)
	}
	return out
}

// Filter returns the rows for which keep is true.
func (f *Frame) Filter(keep func(row int) bool) *Frame {
	out := NewFrame(f.names...)
	for i := 0; i < f.rows; i++ {
		if !keep(i) {
			continue
		}
		for _, n := range f.names {
			out.cols[n] = append(out.cols[n], f.cols[n][i])
		}
		out.rows++
	}
	return out
}

// GroupKey is a composite group identifier rendered as a string.
type GroupKey string

// GroupBy partitions row indices by the values of the given columns.
func (f *Frame) GroupBy(cols ...string) map[GroupKey][]int {
	groups := map[GroupKey][]int{}
	for i := 0; i < f.rows; i++ {
		key := ""
		for _, c := range cols {
			key += fmt.Sprintf("%v|", f.cols[c][i])
		}
		groups[GroupKey(key)] = append(groups[GroupKey(key)], i)
	}
	return groups
}

// GroupCount returns per-group row counts keyed by the (single) group
// column's rendered value, sorted output via SortedKeys.
func (f *Frame) GroupCount(col string) map[string]int {
	out := map[string]int{}
	for i := 0; i < f.rows; i++ {
		out[fmt.Sprintf("%v", f.cols[col][i])]++
	}
	return out
}

// GroupMean returns the mean of valueCol per group of byCol.
func (f *Frame) GroupMean(byCol, valueCol string) map[string]float64 {
	sums := map[string]float64{}
	counts := map[string]int{}
	vals := f.Float64s(valueCol)
	for i := 0; i < f.rows; i++ {
		k := fmt.Sprintf("%v", f.cols[byCol][i])
		sums[k] += vals[i]
		counts[k]++
	}
	out := map[string]float64{}
	for k, s := range sums {
		out[k] = s / float64(counts[k])
	}
	return out
}

// GroupSum returns the sum of valueCol per group of byCol.
func (f *Frame) GroupSum(byCol, valueCol string) map[string]float64 {
	out := map[string]float64{}
	vals := f.Float64s(valueCol)
	for i := 0; i < f.rows; i++ {
		out[fmt.Sprintf("%v", f.cols[byCol][i])] += vals[i]
	}
	return out
}

// SortedKeys returns map keys in sorted order (stable report output).
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
