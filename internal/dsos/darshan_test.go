package dsos

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"darshanldms/internal/rng"
	"darshanldms/internal/sos"
)

// formatValue is how dsosd rendered a CSV cell before AppendCSVRow: fmt's
// %v, with fixed-point floats.
func formatValue(v any) string {
	if f, ok := v.(float64); ok {
		return strconv.FormatFloat(f, 'f', 6, 64)
	}
	return fmt.Sprintf("%v", v)
}

// TestAppendCSVRowMatchesFormatValue: the renderer's bytes equal the old
// per-cell fmt rendering over seeded darshan rows, extreme values
// included.
func TestAppendCSVRowMatchesFormatValue(t *testing.T) {
	sch := DarshanSchema()
	r := rng.New(27)
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -0.5, 1e-9, 1.6e9 + 0.123456789, 1e300, -1e21}
	ints := []int64{0, -1, math.MinInt64, math.MaxInt64, 42}
	uints := []uint64{0, 1, math.MaxUint64, 1 << 63}
	strs := []string{"", "N/A", "/nscratch/f,with,commas", "nid00040", "héllo"}
	var dst []byte
	for i := 0; i < 500; i++ {
		o := make([]any, len(sch.Attrs))
		for j, a := range sch.Attrs {
			switch a.Type {
			case sos.TypeFloat64:
				if r.Intn(3) == 0 {
					o[j] = floats[r.Intn(len(floats))]
				} else {
					o[j] = (r.Float64() - 0.5) * 1e10
				}
			case sos.TypeInt64:
				if r.Intn(3) == 0 {
					o[j] = ints[r.Intn(len(ints))]
				} else {
					o[j] = int64(r.Uint64())
				}
			case sos.TypeUint64:
				if r.Intn(3) == 0 {
					o[j] = uints[r.Intn(len(uints))]
				} else {
					o[j] = r.Uint64()
				}
			default:
				o[j] = strs[r.Intn(len(strs))]
			}
		}
		cells := make([]string, len(o))
		for j, v := range o {
			cells[j] = formatValue(v)
		}
		dst = AppendCSVRow(dst[:0], sos.NewObject(o...))
		if want := strings.Join(cells, ","); string(dst) != want {
			t.Fatalf("row %d:\n got %s\nwant %s", i, dst, want)
		}
	}
}

func TestDarshanBounds(t *testing.T) {
	job, rank, max := int64(3), int64(5), int64(math.MaxInt64)
	for _, c := range []struct {
		index     string
		job, rank *int64
		from, to  sos.Key
		err       bool
	}{
		{"job_rank_time", nil, nil, nil, nil, false},
		{"job_rank_time", nil, &rank, nil, nil, false},
		{"job_rank_time", &job, nil, sos.Key{job}, sos.Key{job + 1}, false},
		{"job_rank_time", &job, &rank, sos.Key{job, rank}, sos.Key{job, rank + 1}, false},
		{"job_time_rank", &job, &rank, sos.Key{job}, sos.Key{job + 1}, false},
		{"time_job_rank", nil, nil, nil, nil, false},
		{"time_job_rank", &job, nil, nil, nil, true},
		{"custom", &job, nil, sos.Key{job}, sos.Key{job + 1}, false},
		// At math.MaxInt64 the bound is carried, or open when it cannot be.
		{"job_rank_time", &max, nil, sos.Key{max}, nil, false},
		{"job_time_rank", &max, &rank, sos.Key{max}, nil, false},
		{"job_rank_time", &job, &max, sos.Key{job, max}, sos.Key{job + 1}, false},
		{"job_rank_time", &max, &max, sos.Key{max, max}, nil, false},
	} {
		from, to, err := DarshanBounds(c.index, c.job, c.rank)
		if (err != nil) != c.err || fmt.Sprint(from) != fmt.Sprint(c.from) || fmt.Sprint(to) != fmt.Sprint(c.to) || (to == nil) != (c.to == nil) {
			t.Errorf("DarshanBounds(%s, %v, %v) = %v, %v, %v", c.index, c.job, c.rank, from, to, err)
		}
		if err != nil && !strings.Contains(err.Error(), c.index) {
			t.Errorf("error %q does not name the index", err)
		}
	}
}
