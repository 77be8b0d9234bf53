package jsonmsg_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"darshanldms/internal/darshan"
	"darshanldms/internal/dsos"
	"darshanldms/internal/event"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/ldms"
	"darshanldms/internal/replay"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ (and the schema document) from this tree")

// goldenCorpus is the message corpus every Table I layout is pinned on:
// MET and MOD messages built by FromEvent, an HDF5 segment, several
// segments and none, JSON-special and invalid-UTF-8 strings, and the
// extreme integers and floats each column kind can hold.
func goldenCorpus() []jsonmsg.Message {
	meta := jsonmsg.JobMeta{UID: 99066, JobID: 259903, Exe: "/projects/mpi-io-test"}
	open := jsonmsg.FromEvent(&darshan.Event{
		Module: darshan.ModPOSIX, Op: darshan.OpOpen, Rank: 3, Producer: "nid00046",
		File: "/nscratch/mpi-io-test.dat", RecordID: darshan.RecordID("/nscratch/mpi-io-test.dat"),
		Cnt: 1, MaxByte: -1, Switches: -1, Flushes: -1,
		Start: 10 * time.Second, End: 10*time.Second + 300*time.Millisecond,
	}, meta)
	write := jsonmsg.FromEvent(&darshan.Event{
		Module: darshan.ModPOSIX, Op: darshan.OpWrite, Rank: 1, Producer: "nid00041",
		File: "/nscratch/mpi-io-test.dat", RecordID: 7, Offset: 4096, Length: 65536,
		MaxByte: 69631, Switches: 2, Flushes: 0, Cnt: 9,
		Start: 11 * time.Second, End: 11*time.Second + 1234567*time.Nanosecond,
	}, meta)
	h5 := jsonmsg.FromEvent(&darshan.Event{
		Module: darshan.ModH5D, Op: darshan.OpWrite, Rank: 0, Producer: "nid00040",
		File: "/lscratch/out.h5", RecordID: 9, Offset: 1 << 20, Length: 8000,
		Start: 12 * time.Second, End: 12*time.Second + 5*time.Millisecond,
		H5: &darshan.H5Info{DataSet: "temp", NDims: 3, NPoints: 1000, PtSel: 2, IrregHSlab: 4, RegHSlab: 1},
	}, meta)
	multi := write
	multi.Rank, multi.Op = 2, "read"
	multi.Seg = []jsonmsg.Segment{
		{DataSet: "a", PtSel: 1, IrregHSlab: 2, RegHSlab: 3, NDims: 4, NPoints: 5, Off: 6, Len: 7, Dur: 0.25, Timestamp: jsonmsg.EpochBase + 13},
		{DataSet: "b", PtSel: -1, IrregHSlab: -2, RegHSlab: -3, NDims: -4, NPoints: -5, Off: 60, Len: 70, Dur: 0.5, Timestamp: jsonmsg.EpochBase + 13.5},
		{DataSet: jsonmsg.NA, Off: 600, Len: 700, Dur: 1e-6, Timestamp: jsonmsg.EpochBase + 14},
	}
	none := write
	none.Seg = nil
	empty := write
	empty.Seg = []jsonmsg.Segment{}
	special := open
	special.Exe = `/bin/"quoted" \back\slash`
	special.File = "ctl\x00\x01\x1f\x7f nl\n cr\r tab\t <&> comma,here"
	special.ProducerName = "控制 é \u2028\u2029"
	special.Module, special.Type, special.Op = "", "MET", "open"
	special.Seg = []jsonmsg.Segment{{DataSet: `{"json":[1]}`, Off: 1, Len: 2, Timestamp: jsonmsg.EpochBase + 15}}
	invalid := write
	invalid.File = "bad\xff\xfeutf8"
	invalid.ProducerName = "a\xc3("
	invalid.Seg = []jsonmsg.Segment{{DataSet: "\xed\xa0\x80", Off: 3, Len: 4, Timestamp: jsonmsg.EpochBase + 16}}
	ints := jsonmsg.Message{
		UID: math.MinInt64, Exe: jsonmsg.NA, JobID: math.MinInt64 + 1, Rank: math.MaxInt32,
		ProducerName: "nid99999", File: jsonmsg.NA, RecordID: math.MaxUint64, Module: "MPIIO",
		Type: jsonmsg.TypeMOD, MaxByte: math.MaxInt64, Switches: math.MinInt64, Flushes: -1,
		Cnt: math.MaxInt64, Op: "write", Seq: math.MaxUint64,
		Seg: []jsonmsg.Segment{{
			DataSet: jsonmsg.NA, PtSel: math.MinInt64, IrregHSlab: math.MaxInt64, RegHSlab: -1,
			NDims: math.MinInt64, NPoints: math.MaxInt64, Off: math.MaxInt64, Len: math.MinInt64,
			Dur: 0, Timestamp: jsonmsg.EpochBase + 17,
		}},
	}
	floats := write
	floats.JobID, floats.Rank = -3, -1
	floats.Seq = 42
	floats.Seg = []jsonmsg.Segment{
		{DataSet: jsonmsg.NA, Dur: math.MaxFloat64, Timestamp: -math.MaxFloat64},
		{DataSet: jsonmsg.NA, Dur: math.SmallestNonzeroFloat64, Timestamp: math.Copysign(0, -1)},
		{DataSet: jsonmsg.NA, Dur: 5e-7, Timestamp: 4.9999999e-7},
		{DataSet: jsonmsg.NA, Dur: -1.0000005, Timestamp: 123456789.123456789},
		{DataSet: jsonmsg.NA, Dur: 1e21, Timestamp: 1.6e9 + 0.0000015},
	}
	nonFinite := write
	nonFinite.JobID = -4
	nonFinite.Seg = []jsonmsg.Segment{
		{DataSet: jsonmsg.NA, Dur: math.Inf(1), Timestamp: math.Inf(-1)},
		{DataSet: jsonmsg.NA, Dur: math.NaN(), Timestamp: math.NaN()},
	}
	return []jsonmsg.Message{open, write, h5, multi, none, empty, special, invalid, ints, floats, nonFinite}
}

// replayable reports whether m's rows can be stored and replayed: every
// timestamp is finite, so the time index orders them.
func replayable(m *jsonmsg.Message) bool {
	for _, s := range m.Seg {
		if math.IsNaN(s.Timestamp) || math.IsInf(s.Timestamp, 0) {
			return false
		}
	}
	return len(m.Seg) > 0
}

// appendObject renders a row as each attribute's type and Go value.
func appendObject(b []byte, o sos.Object) []byte {
	for i := 0; i < o.Len(); i++ {
		b = fmt.Appendf(b, "%s:%#v ", o.Type(i), o.Value(i))
	}
	return append(b, '\n')
}

// goldenOutputs renders the corpus through every Table I layout, by the
// exported paths that existed before the layouts were derived from one
// table: the two JSON encoders, the CSV store, the store schema, both row
// builders, and replay's message reconstruction.
func goldenOutputs(t *testing.T) map[string][]byte {
	t.Helper()
	corpus := goldenCorpus()
	out := map[string][]byte{}
	var sprintf, fast, schema, replayed bytes.Buffer
	for i := range corpus {
		sprintf.Write(jsonmsg.SprintfEncoder{}.Encode(&corpus[i]))
		sprintf.WriteByte('\n')
		fast.Write(jsonmsg.FastEncoder{}.Encode(&corpus[i]))
		fast.WriteByte('\n')
	}
	out["sprintf.jsonl"], out["fast.jsonl"] = sprintf.Bytes(), fast.Bytes()

	var csv bytes.Buffer
	store := ldms.NewCSVStore(&csv)
	for i := range corpus {
		if err := store.Store(streams.Message{Record: event.NewRecord(&corpus[i], nil)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	out["store-csv.txt"] = csv.Bytes()

	for _, a := range dsos.DarshanSchema().Attrs {
		fmt.Fprintf(&schema, "%s %s\n", a.Name, a.Type)
	}
	out["schema.txt"] = schema.Bytes()

	arena := dsos.NewRowArena()
	var b []byte
	for i := range corpus {
		b = fmt.Appendf(b, "# message %d: AppendObjects\n", i)
		for _, o := range dsos.AppendObjects(nil, &corpus[i]) {
			b = appendObject(b, o)
		}
		b = fmt.Appendf(b, "# message %d: RowArena.AppendObjects\n", i)
		for _, o := range arena.AppendObjects(nil, &corpus[i]) {
			b = appendObject(b, o)
		}
	}
	out["objects.txt"] = b

	cluster := dsos.NewCluster(1, "golden")
	if err := dsos.SetupDarshan(cluster); err != nil {
		t.Fatal(err)
	}
	client := dsos.Connect(cluster)
	jobs := map[int64]bool{}
	for i := range corpus {
		if !replayable(&corpus[i]) {
			continue
		}
		if err := client.InsertBatch(dsos.DarshanSchemaName, dsos.AppendObjects(nil, &corpus[i])); err != nil {
			t.Fatal(err)
		}
		jobs[corpus[i].JobID] = true
	}
	var ids []int64
	for j := range jobs {
		ids = append(ids, j)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	bus := streams.NewBus()
	bus.Subscribe("golden", func(m streams.Message) {
		replayed.Write(m.Data)
		replayed.WriteByte('\n')
	})
	for _, j := range ids {
		fmt.Fprintf(&replayed, "# job %d\n", j)
		if _, err := replay.Job(context.Background(), client, j, bus, replay.Options{Tag: "golden"}); err != nil {
			t.Fatal(err)
		}
	}
	out["replay.jsonl"] = replayed.Bytes()
	return out
}

// TestTableIGolden holds every Table I layout to golden bytes recorded
// before the layouts were derived from jsonmsg.Table: both JSON encoders,
// the CSV header and rows, the store schema's names, types and order, the
// rows of both builders, and replayed messages. -update rewrites them.
func TestTableIGolden(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	got := goldenOutputs(t)
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(dir, name)
		if *update {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got[name], 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[name], want) {
			gl, wl := bytes.Split(got[name], []byte("\n")), bytes.Split(want, []byte("\n"))
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if !bytes.Equal(gl[i], wl[i]) {
					t.Errorf("%s line %d:\n got  %q\n want %q", name, i+1, gl[i], wl[i])
					break
				}
			}
			t.Errorf("%s: %d bytes differ from the golden %d", name, len(got[name]), len(want))
		}
	}
}

// TestStoreCSVReceivePathGolden: ldmsd -store-csv stores what it receives
// (ldms.Daemon.StoreReceived), a batch frame walked from the bytes it
// arrived as, and writes the CSV the golden store-csv.txt holds, byte for
// byte.
func TestStoreCSVReceivePathGolden(t *testing.T) {
	corpus := goldenCorpus()
	msgs := make([]streams.Message, len(corpus))
	for i := range corpus {
		msgs[i] = streams.Message{Tag: "darshanConnector", Type: streams.TypeJSON, Record: event.NewRecord(&corpus[i], nil)}
	}
	d := ldms.NewDaemon("ldmsd", "golden")
	var csv bytes.Buffer
	store := ldms.NewCSVStore(&csv)
	h := d.StoreReceived("darshanConnector", store)
	srv, err := ldms.ListenTCP(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := ldms.WriteBatchFrame(conn, msgs); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	for deadline := time.Now().Add(5 * time.Second); h.Received() < uint64(len(msgs)); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("stored %d of %d messages", h.Received(), len(msgs))
		}
	}
	srv.Close()
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "store-csv.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv.Bytes(), want) {
		t.Errorf("the receive path wrote %d CSV bytes that differ from the golden %d:\n%s", csv.Len(), len(want), csv.Bytes())
	}
}
