package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"darshanldms/internal/dsos"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/sos"
)

// testCluster stores n events of jobs 1-3 round-robin over shards.
func testCluster(t *testing.T, shards, n int) (*dsos.Cluster, *dsos.Client) {
	t.Helper()
	c := dsos.NewCluster(shards, "darshan_data")
	if err := dsos.SetupDarshan(c); err != nil {
		t.Fatal(err)
	}
	c.EnableWAL(nil)
	cl := dsos.Connect(c)
	for i := 0; i < n; i++ {
		m := jsonmsg.Message{
			UID: 1, Exe: jsonmsg.NA, JobID: int64(1 + i%3), Rank: i % 16, ProducerName: "nid00041",
			File: jsonmsg.NA, Module: "POSIX", Type: jsonmsg.TypeMOD, Op: "write",
			Seg: []jsonmsg.Segment{{DataSet: jsonmsg.NA, Len: int64(i), Dur: 0.1, Timestamp: 1.6e9 + float64(i%50)}},
		}
		if err := cl.InsertBatch(dsos.DarshanSchemaName, dsos.ObjectsFromMessage(&m)); err != nil {
			t.Fatal(err)
		}
	}
	return c, cl
}

// TestQueryStreamsMergedRows: /query's body is the header and then the
// merged rows, cut at limit, for each query shape.
func TestQueryStreamsMergedRows(t *testing.T) {
	_, cl := testCluster(t, 4, 3000)
	top := jsonmsg.Message{
		UID: 1, Exe: jsonmsg.NA, JobID: math.MaxInt64, Rank: 0, ProducerName: "nid00041",
		File: jsonmsg.NA, Module: "POSIX", Type: jsonmsg.TypeMOD, Op: "write",
		Seg: []jsonmsg.Segment{{DataSet: jsonmsg.NA, Len: 1, Dur: 0.1, Timestamp: 1.6e9}},
	}
	if err := cl.InsertBatch(dsos.DarshanSchemaName, dsos.ObjectsFromMessage(&top)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(queryHandler(cl))
	defer srv.Close()
	for _, q := range []struct {
		params   string
		index    string
		from, to sos.Key
		limit    int
	}{
		{"", "job_rank_time", nil, nil, 0},
		// The largest job has no job+1: the range is open above.
		{"?job=9223372036854775807", "job_rank_time", sos.Key{int64(math.MaxInt64)}, nil, 0},
		{"?job=2&rank=7", "job_rank_time", sos.Key{int64(2), int64(7)}, sos.Key{int64(2), int64(8)}, 0},
		{"?index=job_time_rank&job=3&rank=7&limit=40", "job_time_rank", sos.Key{int64(3)}, sos.Key{int64(4)}, 40},
		{"?index=time_job_rank&limit=1000", "time_job_rank", nil, nil, 1000},
	} {
		objs, err := cl.Query(q.index, q.from, q.to)
		if err != nil {
			t.Fatal(err)
		}
		if q.limit > 0 {
			objs = objs[:q.limit]
		}
		if q.to == nil && q.from != nil && len(objs) != 1 {
			t.Fatalf("%s: the store holds %d rows of the largest job, want 1", q.params, len(objs))
		}
		want := []byte(jsonmsg.CSVHeader + "\n")
		for _, o := range objs {
			want = append(dsos.AppendCSVRow(want, o), '\n')
		}
		resp, err := http.Get(srv.URL + q.params)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %v", q.params, resp.StatusCode, err)
		}
		if string(body) != string(want) {
			t.Fatalf("GET %s: %d body bytes, want %d", q.params, len(body), len(want))
		}
	}
}

// crashOnWrite crashes a shard the first time the handler's output
// reaches the connection, so the crash lands while the cursor is paused
// between chunks.
type crashOnWrite struct {
	http.ResponseWriter
	crash func()
}

func (w crashOnWrite) Write(p []byte) (int, error) {
	w.crash()
	return w.ResponseWriter.Write(p)
}

// TestQueryAbortsWhenAMemberFailsMidStream: a shard that crashes after
// the response has started makes the result partial; the handler aborts
// the response, so the client reads an error, never a silently short body.
// The next request is partial from the start and is a 400 naming the dark
// group.
func TestQueryAbortsWhenAMemberFailsMidStream(t *testing.T) {
	c, cl := testCluster(t, 2, 4000)
	h := queryHandler(cl)
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h(crashOnWrite{w, func() { once.Do(c.Daemons()[1].Crash) }}, r)
	}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil {
		t.Fatalf("the response ended cleanly after %d rows of 4000", strings.Count(string(body), "\n")-1)
	}
	resp, err = http.Get(srv.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "dsosd1") {
		t.Fatalf("partial query = %d %q, want a 400 naming dsosd1", resp.StatusCode, body)
	}
}

// TestShardFactoryTruncatesStaleLog: a grown shard's log file left by an
// earlier run must not be appended to. The new shard's first record
// starts its string dictionary at zero, so behind a stale record that
// already carries one a replay would stop before it; replay must give back
// exactly what the new shard stored.
func TestShardFactoryTruncatesStaleLog(t *testing.T) {
	dir := t.TempDir()
	row := func(file string) sos.Object {
		m := jsonmsg.Message{
			UID: 1, Exe: "/bin/stale", JobID: 7, Rank: 3, ProducerName: "nid00041",
			File: file, Module: "POSIX", Type: jsonmsg.TypeMOD, Op: "write",
			Seg: []jsonmsg.Segment{{DataSet: jsonmsg.NA, Len: 4096, Dur: 0.1, Timestamp: 1.6e9}},
		}
		return dsos.ObjectsFromMessage(&m)[0]
	}
	stale, err := sos.OpenFileWAL(filepath.Join(dir, "s9.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sos.NewWAL(stale).Append(dsos.DarshanSchemaName, row("/old/run.dat"), 1); err != nil {
		t.Fatal(err)
	}
	stale.Close()

	d, err := shardFactory("darshan_data", dir)("s9")
	if err != nil {
		t.Fatal(err)
	}
	want := row("/new/run.dat")
	if err := d.InsertOrigin(dsos.DarshanSchemaName, want, 2); err != nil {
		t.Fatal(err)
	}
	fw, err := sos.OpenFileWAL(filepath.Join(dir, "s9.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	var got [][]any
	if _, err := sos.ReplayWALTo(fw, ^uint64(0), func(_ string, obj sos.Object, _ uint64) error {
		got = append(got, obj.Values())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], want.Values()) {
		t.Fatalf("replayed %d rows %v, want the one row the new shard stored: %v", len(got), got, want.Values())
	}
}

// TestCountMatchesSniffedReply: /count answers with the headers and bytes
// it did when its type was sniffed from a fmt.Fprintln body, so a poller
// sees no change.
func TestCountMatchesSniffedReply(t *testing.T) {
	for _, n := range []int{0, 3000} {
		_, cl := testCluster(t, 2, n)
		mux := http.NewServeMux()
		mux.Handle("/count", countHandler(cl))
		mux.HandleFunc("/sniffed", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, cl.Count(dsos.DarshanSchemaName))
		})
		srv := httptest.NewServer(mux)
		get := func(path string) (http.Header, string) {
			resp, err := http.Get(srv.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			resp.Header.Del("Date")
			return resp.Header, string(body)
		}
		h, body := get("/count")
		wantH, wantBody := get("/sniffed")
		srv.Close()
		if body != wantBody || body != fmt.Sprintf("%d\n", n) || !reflect.DeepEqual(h, wantH) {
			t.Fatalf("/count %q %v, want %q %v", body, h, wantBody, wantH)
		}
		if ct := h.Get("Content-Type"); ct != "text/plain; charset=utf-8" {
			t.Fatalf("Content-Type %q", ct)
		}
	}
}
