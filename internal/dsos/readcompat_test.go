package dsos_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"darshanldms/internal/dsos"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/rng"
	"darshanldms/internal/sos"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/threetrees.* (only from a commit whose answers are known good)")

// threeTreesSnap is a darshan shard's SNAP3 file written by a build that
// kept a B+tree for each of the three indices; threeTreesGolden holds
// what each query in readCompatQueries answered on that build.
const (
	threeTreesSnap   = "testdata/threetrees.snap3"
	threeTreesGolden = "testdata/threetrees.golden"
)

// threeTreesShard builds the shard the snapshot froze: 3000 rows of three
// jobs and 16 ranks in 256-row pages, mostly in time order, with every
// tenth run of 64 rows 30 s late, timestamps that repeat across ranks and
// jobs (ties broken by position), and a last page left open.
func threeTreesShard(t *testing.T) *sos.Container {
	c := sos.NewContainer("darshan_data")
	if err := c.AddSchema(dsos.DarshanSchema()); err != nil {
		t.Fatal(err)
	}
	for _, spec := range dsos.DarshanIndices() {
		if _, err := c.AddIndex(spec); err != nil {
			t.Fatal(err)
		}
	}
	r := rng.New(52)
	for i := 0; i < 3000; i++ {
		ts := 1.6e9 + float64(i/4)*0.5
		if i/64%10 == 9 {
			ts -= 30
		}
		m := &jsonmsg.Message{
			UID: 99066, Exe: "/projects/hacc/hacc-io", JobID: int64(1 + r.Intn(3)),
			Rank: r.Intn(16), ProducerName: "nid00040", File: "/lscratch/out.dat",
			Module: "POSIX", Type: jsonmsg.TypeMOD, Cnt: 1, Op: "write",
			Seg: []jsonmsg.Segment{{DataSet: jsonmsg.NA, PtSel: -1, IrregHSlab: -1, RegHSlab: -1,
				NDims: -1, NPoints: -1, Off: int64(i) * 4096, Len: 4096, Timestamp: ts}},
		}
		for _, o := range dsos.ObjectsFromMessage(m) {
			if err := c.Insert(dsos.DarshanSchemaName, o); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

// readCompatQueries are the head, window and per-job queries of the two
// orders that are not job_rank_time.
var readCompatQueries = []struct {
	name, index string
	from, to    sos.Key
	limit       int
}{
	{"time head", "time_job_rank", nil, nil, 40},
	{"time window 1s", "time_job_rank", sos.Key{1.6e9 + 200}, sos.Key{1.6e9 + 201}, 0},
	{"time window 30s", "time_job_rank", sos.Key{1.6e9 + 150}, sos.Key{1.6e9 + 180, int64(2)}, 0},
	{"time all", "time_job_rank", nil, nil, 0},
	{"job 2", "job_time_rank", sos.Key{int64(2)}, sos.Key{int64(3)}, 0},
	{"job 3 window", "job_time_rank", sos.Key{int64(3), 1.6e9 + 100}, sos.Key{int64(3), 1.6e9 + 130, int64(8)}, 0},
	{"job head", "job_time_rank", nil, nil, 40},
}

// readCompatAnswers renders each query's rows as their tree keys in hex,
// each followed by the row as /query prints it. A query of more than 50
// rows is rendered as its row count and the SHA-256 of that listing.
func readCompatAnswers(t *testing.T, c *sos.Container) []byte {
	var out, list, key []byte
	for _, q := range readCompatQueries {
		cur, err := c.Cursor(q.index, q.from, q.to)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for list = list[:0]; (q.limit == 0 || n < q.limit) && cur.Next(); n++ {
			key = cur.AppendKey(key[:0])
			list = append(hex.AppendEncode(list, key), ' ')
			list = append(dsos.AppendCSVRow(list, cur.Object()), '\n')
		}
		out = fmt.Appendf(out, "# %s: %d rows\n", q.name, n)
		if n > 50 {
			out = fmt.Appendf(out, "sha256 %x\n", sha256.Sum256(list))
		} else {
			out = append(out, list...)
		}
	}
	return out
}

// TestThreeTreesSnapshotReadCompat restores a snapshot written by the
// three-tree build: it must answer every query byte for byte as that build
// did and write the same snapshot bytes again.
func TestThreeTreesSnapshotReadCompat(t *testing.T) {
	if *updateGolden {
		var snap bytes.Buffer
		c := threeTreesShard(t)
		if err := c.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(threeTreesSnap), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(threeTreesSnap, snap.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(threeTreesGolden, readCompatAnswers(t, c), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := os.ReadFile(threeTreesSnap)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(threeTreesGolden)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sos.Restore(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if got := readCompatAnswers(t, c); !bytes.Equal(got, want) {
		t.Errorf("restored answers differ from %s (%d bytes, want %d)", threeTreesGolden, len(got), len(want))
	}
	var again bytes.Buffer
	if err := c.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), snap) {
		t.Errorf("re-snapshot writes %d bytes unlike %s's %d", again.Len(), threeTreesSnap, len(snap))
	}
}
