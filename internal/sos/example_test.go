package sos_test

import (
	"fmt"

	"darshanldms/internal/sos"
)

// A container with a joint job_rank_time index, queried the way the paper
// describes: "order the data by job, rank then timestamp and then search
// the data by a specific rank within a specific job over time".
func Example() {
	c := sos.NewContainer("darshan_data")
	schema, _ := sos.NewSchema("event", []sos.AttrSpec{
		{Name: "job_id", Type: sos.TypeInt64},
		{Name: "rank", Type: sos.TypeInt64},
		{Name: "timestamp", Type: sos.TypeFloat64},
		{Name: "op", Type: sos.TypeString},
	})
	c.AddSchema(schema)
	c.AddIndex(sos.IndexSpec{Name: "job_rank_time", Schema: "event",
		Attrs: []string{"job_id", "rank", "timestamp"}})

	c.Insert("event", sos.NewObject(int64(7), int64(3), 2.0, "write"))
	c.Insert("event", sos.NewObject(int64(7), int64(3), 1.0, "open"))
	c.Insert("event", sos.NewObject(int64(7), int64(4), 1.5, "open")) // other rank
	c.Insert("event", sos.NewObject(int64(8), int64(3), 0.5, "open")) // other job

	// Rank 3 of job 7, in time order.
	c.Iter("job_rank_time", sos.Key{int64(7), int64(3)}, func(o sos.Object) bool {
		if o.Int(0) != 7 || o.Int(1) != 3 {
			return false
		}
		fmt.Printf("t=%.1f %s\n", o.Float(2), o.Str(3))
		return true
	})
	// Output:
	// t=1.0 open
	// t=2.0 write
}
