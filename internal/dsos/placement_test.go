package dsos

import (
	"testing"

	"darshanldms/internal/sos"
)

// TestSuccessiveRules pins the round-robin strategy: R=1 writes origin 0
// (the unreplicated record format, so WAL bytes per event do not move),
// R=2 stamps origins and puts object k on daemons k and k+1, and planning
// an object allocates nothing.
func TestSuccessiveRules(t *testing.T) {
	for _, repl := range []int{1, 2} {
		c, cl := newDarshanCluster(t, 4)
		c.SetReplication(repl)
		var batch []sos.Object
		for i := 0; i < 8; i++ {
			batch = append(batch, sampleObject(1, int64(i), float64(i), "write"))
		}
		if err := cl.InsertBatch(DarshanSchemaName, batch); err != nil {
			t.Fatal(err)
		}
		for di, d := range c.Daemons() {
			var ranks []int64
			err := d.IterOrigins("job_rank_time", nil, func(o sos.Object, origin uint64) bool {
				rank := o[ColRank].(int64)
				ranks = append(ranks, rank)
				if want := uint64(rank+1) * uint64(repl-1); origin != want {
					t.Errorf("R=%d: %s holds rank %d under origin %d, want %d", repl, d.Name, rank, origin, want)
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(ranks) != 2*repl {
				t.Fatalf("R=%d: %s holds %v, want %d objects", repl, d.Name, ranks, 2*repl)
			}
			for _, rank := range ranks {
				if off := (di - int(rank) + 8) % 4; off >= repl {
					t.Errorf("R=%d: object %d landed on daemon %d", repl, rank, di)
				}
			}
		}
		p := c.Placement()
		if allocs := testing.AllocsPerRun(100, func() { p.Owners(DarshanSchemaName, batch[0], 5) }); allocs != 0 {
			t.Errorf("R=%d: planning one object allocates %v times", repl, allocs)
		}
		if got := c.Replication(); got != repl {
			t.Errorf("Replication() = %d, want %d", got, repl)
		}
	}
}
