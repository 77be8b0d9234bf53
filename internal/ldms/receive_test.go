package ldms

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"

	"darshanldms/internal/dsos"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/obs"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
)

// receiveHop is one storing daemon fed over TCP, over a 4-shard cluster
// at R=2 logging to memory: either the wiring dsosd and ldmsd had before
// the receive path, a bus handler (AttachStore), or the receive path
// itself (StoreReceived) behind dsosd's chain, DedupStore over DSOSStore.
type receiveHop struct {
	t       *testing.T
	cluster *dsos.Cluster
	client  *dsos.Client
	wals    []*sos.MemWAL
	reg     *obs.Registry
	h       *StoreHandle
	dedup   *DedupStore // the receive path's
	srv     *TCPServer
}

const receiveTag = "darshanConnector"

func newReceiveHop(t *testing.T, receive bool) *receiveHop {
	t.Helper()
	p := &receiveHop{t: t, cluster: dsos.NewCluster(4, "darshan_data"), reg: obs.NewRegistry()}
	if err := dsos.SetupDarshan(p.cluster); err != nil {
		t.Fatal(err)
	}
	p.cluster.SetReplication(2)
	p.cluster.EnableWAL(func(string) sos.WALStore {
		w := sos.NewMemWAL()
		p.wals = append(p.wals, w)
		return w
	})
	p.client = dsos.Connect(p.cluster)
	store := NewDSOSStore(p.client)
	store.Instrument(p.reg)
	d := NewDaemon("dsosd-ingest", "dsosd")
	if receive {
		p.dedup = NewDedupStore(store)
		p.h = d.StoreReceived(receiveTag, p.dedup)
	} else {
		p.h = d.AttachStore(receiveTag, store)
	}
	var err error
	if p.srv, err = ListenTCP(d, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.srv.Close() })
	return p
}

// feed writes wire on one connection and waits until the store has taken
// stored records of the tag and the server has counted received messages
// besides heartbeats: the last frame of every script holds some of the
// tag, and a connection is read in order, so every frame before it is
// done with.
func (p *receiveHop) feed(wire []byte, stored, received uint64) {
	p.t.Helper()
	conn, err := net.Dial("tcp", p.srv.Addr())
	if err != nil {
		p.t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(wire); err != nil {
		p.t.Fatal(err)
	}
	waitFor(p.t, "every frame stored", func() bool { return p.h.Received() == stored && p.srv.Received() == received })
}

// state renders what the hop stored: every shard's snapshot bytes, each
// shard log replayed into a fresh shard and snapshotted, every darshan
// index's rows as /query renders them, the store's series, the handle's
// books and dead letters, and the server's books.
func (p *receiveHop) state() (snaps, replays [][]byte, rows, books string) {
	p.t.Helper()
	snap := func(d *dsos.Daemon) []byte {
		var b bytes.Buffer
		if err := d.Snapshot(&b); err != nil {
			p.t.Fatal(err)
		}
		return b.Bytes()
	}
	for i, d := range p.cluster.Daemons() {
		snaps = append(snaps, snap(d))
		fresh, err := dsos.NewDarshanShard(d.Name, "darshan_data", nil)
		if err != nil {
			p.t.Fatal(err)
		}
		if _, err := fresh.RecoverWAL(p.wals[i], math.MaxUint64, math.MaxUint64); err != nil {
			p.t.Fatal(err)
		}
		replays = append(replays, snap(fresh))
	}
	var q strings.Builder
	for _, spec := range dsos.DarshanIndices() {
		cur, err := p.client.Cursor(context.Background(), spec.Name, nil, nil, 0)
		if err != nil {
			p.t.Fatal(err)
		}
		fmt.Fprintf(&q, "# %s\n", spec.Name)
		var row []byte
		for cur.Next() {
			row = append(dsos.AppendCSVRow(row[:0], cur.Object()), '\n')
			q.Write(row)
		}
		if cur.Err() != nil {
			p.t.Fatal(cur.Err())
		}
	}
	var series []string
	for k, v := range scrape(p.t, p.reg) {
		if strings.HasPrefix(k, "dlc_store_dsos_") {
			series = append(series, k+"="+v)
		}
	}
	slices.Sort(series)
	n, last := p.h.Errors()
	books = fmt.Sprintf("series=%v received=%d dead=%d last=%v tcp: received=%d heartbeats=%d literal=%d",
		series, p.h.Received(), n, last, p.srv.Received(), p.srv.Heartbeats(), p.srv.LiteralBytes())
	return snaps, replays, q.String(), books
}

// receiveScript is the traffic both hops take, as wire bytes, and how
// many records of the tag and messages besides heartbeats it holds:
// benchmark-shaped version-2 frames;
// legacy JSON frames, stamped and not; a version-1 frame; a frame mixing
// the tag with another tag's typed records and string records; a frame of
// opaque JSON beside typed records, one of them a record that never
// decodes; heartbeats, alone as a batch, as a legacy frame and inside a
// batch of the tag; and last a plain frame.
func receiveScript(t *testing.T) (wire []byte, stored, received uint64) {
	t.Helper()
	f := genFrames(51, 9*RoundSize, RoundSize)
	var w bytes.Buffer
	batch := func(msgs []streams.Message) {
		if err := WriteBatchFrame(&w, msgs); err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			if m.Tag == receiveTag {
				stored++
			}
			if m.Tag != HeartbeatTag {
				received++
			}
		}
	}
	for _, fr := range f[:4] {
		batch(fr)
	}
	for i, m := range f[4][:6] {
		legacy := streams.Message{Tag: receiveTag, Type: streams.TypeJSON, Data: m.Payload()}
		if i%2 == 0 {
			legacy.Producer, legacy.Seq = m.Producer, m.Seq
		}
		if err := WriteFrame(&w, legacy); err != nil {
			t.Fatal(err)
		}
		stored++
		received++
	}
	w.Write(appendFrameV1(nil, f[4][6:40]))
	stored += 34
	received += 34

	mixed := slices.Clone(f[5])
	for i := 0; i < len(mixed); i += 4 {
		mixed[i].Tag = "darshan.other"
	}
	mixed[9] = streams.Message{Tag: "str", Type: streams.TypeString, Data: []byte("hello")}
	batch(mixed)

	opaque := slices.Clone(f[6])
	for i := 0; i < len(opaque); i += 3 {
		m := opaque[i]
		opaque[i] = streams.Message{Tag: m.Tag, Type: m.Type, Producer: m.Producer, Seq: m.Seq, Data: m.Payload()}
	}
	opaque[7] = streams.Message{Tag: receiveTag, Type: streams.TypeJSON, Producer: opaque[7].Producer, Seq: opaque[7].Seq, Data: []byte(`{"uid":`)}
	batch(opaque)

	batch([]streams.Message{heartbeat})
	if err := WriteFrame(&w, heartbeat); err != nil {
		t.Fatal(err)
	}
	beat := slices.Clone(f[7])
	beat[20] = heartbeat
	batch(beat)
	batch(f[8])
	return w.Bytes(), stored, received
}

// TestReceiveStoreMatchesBusHandler is the differential test of the
// receive path: a daemon that stores each received frame as one run
// (StoreReceived, behind DedupStore) leaves byte for byte the shard
// snapshots the bus-handler wiring it replaced leaves (AttachStore), the
// same rows on every index, the same store series, handle books, dead
// letters and server books, and shard logs that replay to the same
// shards — over benchmark-shaped frames, legacy frames, a version-1
// frame, mixed-tag and opaque frames, a record that never decodes and
// heartbeats. The logs' bytes differ: one record per frame, not one per
// message.
func TestReceiveStoreMatchesBusHandler(t *testing.T) {
	wire, stored, received := receiveScript(t)
	recv, ref := newReceiveHop(t, true), newReceiveHop(t, false)
	recv.feed(wire, stored, received)
	ref.feed(wire, stored, received)
	rsnaps, rreplays, rrows, rbooks := recv.state()
	hsnaps, hreplays, hrows, hbooks := ref.state()
	for i := range hsnaps {
		if !bytes.Equal(rsnaps[i], hsnaps[i]) {
			t.Errorf("shard %d: snapshots differ at byte %d of %d", i, firstDiff(rsnaps[i], hsnaps[i]), len(hsnaps[i]))
		}
		if !bytes.Equal(rreplays[i], hreplays[i]) || !bytes.Equal(rreplays[i], rsnaps[i]) {
			t.Errorf("shard %d: the logs do not replay to the shards stored", i)
		}
	}
	if rrows != hrows {
		t.Errorf("rows differ at byte %d", firstDiff([]byte(rrows), []byte(hrows)))
	}
	if rbooks != hbooks {
		t.Errorf("books differ:\n receive %s\n handler %s", rbooks, hbooks)
	}
	// Every case happened: the other tag left out, a dead letter, three
	// heartbeats; and the receive path's logs hold one record per frame.
	t.Log(hbooks)
	if n, _ := ref.h.Errors(); n != 1 || ref.srv.Heartbeats() != 3 {
		t.Errorf("%d dead letters and %d heartbeats, want 1 and 3", n, ref.srv.Heartbeats())
	}
	if want := int(2 * (stored - 1)); recv.client.Count(dsos.DarshanSchemaName) != want {
		t.Errorf("%d rows stored, want %d", recv.client.Count(dsos.DarshanSchemaName), want)
	}
	if recv.dedup.Duplicates() != 0 || recv.dedup.Unstamped() != 3 {
		t.Errorf("dedup saw %d duplicates and %d unstamped, want 0 and 3", recv.dedup.Duplicates(), recv.dedup.Unstamped())
	}
	for i := range recv.wals {
		if r, h := walLen(t, recv.wals[i]), walLen(t, ref.wals[i]); r >= h {
			t.Errorf("shard %d: the receive path logged %d bytes, the handler %d: want fewer, one record per frame", i, r, h)
		}
	}
}

func walLen(t *testing.T, w *sos.MemWAL) int {
	t.Helper()
	r, err := w.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return len(b)
}

// TestReceiveStoreConcurrentConnections: two connections store into one
// receive store at once, half their frames the same, and the books come
// out exact — every frame counted, every duplicate absorbed once.
func TestReceiveStoreConcurrentConnections(t *testing.T) {
	f := genFrames(53, 12*RoundSize, RoundSize)
	p := newReceiveHop(t, true)
	var wg sync.WaitGroup
	for _, frames := range [][][]streams.Message{f[:8], f[4:]} {
		conn, err := net.Dial("tcp", p.srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, fr := range frames {
				if err := WriteBatchFrame(conn, fr); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, "both connections stored", func() bool { return p.h.Received() == 16*RoundSize && p.srv.Received() == 16*RoundSize })
	if got := p.client.Count(dsos.DarshanSchemaName); got != 2*12*RoundSize {
		t.Errorf("%d rows at R=2, want %d", got, 2*12*RoundSize)
	}
	if p.dedup.Duplicates() != 4*RoundSize || p.dedup.Stored() != 12*RoundSize || p.dedup.Unstamped() != 0 {
		t.Errorf("dedup: %d duplicates, %d stored, %d unstamped; want %d, %d, 0",
			p.dedup.Duplicates(), p.dedup.Stored(), p.dedup.Unstamped(), 4*RoundSize, 12*RoundSize)
	}
	if n, err := p.h.Errors(); n != 0 {
		t.Errorf("%d store errors: %v", n, err)
	}
}

// spelledOut returns the version-2 batch frame of opaque JSON records of
// tag, seqs 1.., that spells every string out on each use. It is valid,
// but not what AppendRecords writes for the same records, which names a
// string by its id after its first use: only a receiver that keeps the
// bytes it was given passes it on unchanged.
func spelledOut(tag, producer string, payloads [][]byte) []byte {
	b := binary.AppendUvarint(nil, uint64(len(payloads)))
	n := 0 // strings spelled out so far: the next one's id
	str := func(s string) {
		b = binary.AppendUvarint(b, uint64(n+len(s)))
		b = append(b, s...)
		n++
	}
	for i, p := range payloads {
		b = append(b, streams.RecOpaque)
		str(tag)
		b = binary.AppendUvarint(b, uint64(streams.TypeJSON))
		str(producer)
		if i == 0 {
			b = binary.AppendUvarint(b, 1)
		} else {
			b = binary.AppendVarint(b, int64(i)) // zigzag, against record 0's
		}
		b = binary.AppendUvarint(b, uint64(len(p)))
		b = append(b, p...)
	}
	frame := binary.BigEndian.AppendUint32([]byte{batchMagic, streams.BodyV2}, uint32(len(b)))
	return append(frame, b...)
}

// TestCSVReceiveStoreKeepsBody: ldmsd -store-csv -forward stores a
// received frame as CSV rows and appends it to its window as the body it
// arrived as, byte for byte — never decoded and encoded again.
func TestCSVReceiveStoreKeepsBody(t *testing.T) {
	var payloads [][]byte
	for _, m := range genFrames(54, 3, 3)[0] {
		payloads = append(payloads, m.Payload())
	}
	frame := spelledOut(receiveTag, "nid00040", payloads)
	body := frame[6:]
	decoded, err := streams.DecodeRecords(streams.BodyV2, body)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(streams.AppendRecords(nil, decoded), body) {
		t.Fatal("the hand-spelled body is canonical: it cannot tell a kept body from a re-encoded one")
	}

	d := NewDaemon("ldmsd", "nid00040")
	var csv bytes.Buffer
	store := NewCSVStore(&csv)
	h := d.StoreReceived(receiveTag, store)
	window, err := bindWindow(d.Bus(), d.Name, receiveTag, 1024, streams.Block)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ListenTCP(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the frame stored", func() bool { return h.Received() == 3 && window.Stats().Appended == 3 })

	cons, err := window.Consumer(streams.ConsumerConfig{Name: "uplink"})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := cons.FetchBodies(RoundSize)
	if err != nil || len(ds) != 3 {
		t.Fatalf("the window delivers %d messages (%v), want 3", len(ds), err)
	}
	if !bytes.Equal(ds[0].Body, body) {
		t.Fatalf("the window holds a %d-byte body that differs from the %d bytes received at byte %d", len(ds[0].Body), len(body), firstDiff(ds[0].Body, body))
	}

	// The rows are the ones the CSV store writes for the messages.
	var want bytes.Buffer
	ref := NewCSVStore(&want)
	for _, m := range decoded {
		if err := ref.Store(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := errors.Join(store.Flush(), ref.Flush()); err != nil {
		t.Fatal(err)
	}
	if csv.String() != want.String() || !strings.HasPrefix(want.String(), jsonmsg.CSVHeader+"\n") || strings.Count(want.String(), "\n") != 4 {
		t.Errorf("CSV through the receive path:\n%s\nwant the header and 3 rows:\n%s", csv.String(), want.String())
	}
}

// TestPlainReceiveWalksBody: a receiver that stores nothing and whose bus
// has nothing on it (ldmsd with neither -forward nor -store-csv) books a
// batch body by walking it, never decoding it: about no allocation a
// record, and the books a decode keeps — the server's received,
// heartbeat and literal-byte counts, and each tag's published and dropped
// messages.
func TestPlainReceiveWalksBody(t *testing.T) {
	msgs := genFrames(52, 64, 64)[0]
	msgs = append(msgs, streams.Message{Tag: HeartbeatTag, Type: streams.TypeString, Data: []byte("hb")},
		streams.Message{Tag: "other", Type: streams.TypeJSON, Data: []byte(`{"x":1}`)})
	body := streams.AppendRecords(nil, msgs)
	d := NewDaemon("ldmsd", "nid00040")
	srv, err := ListenTCP(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	in, kind := NewBatchDecoder().in, &srv.batchFrames
	const runs = 20
	allocs := testing.AllocsPerRun(runs, func() {
		if !srv.receive(Run{Body: body}, in, kind) {
			t.Fatal("the body was refused")
		}
	})
	// The walk's scratch comes from a sync.Pool, which the race detector
	// empties at random: there a body costs a few allocations, never the
	// ≈3 a record a decode costs.
	if perRecord := allocs / float64(len(msgs)); perRecord > 0.25 {
		t.Errorf("%.0f allocations a body of %d records (%.2f a record); want about none", allocs, len(msgs), perRecord)
	}
	frames := uint64(runs + 1) // AllocsPerRun runs once more to warm up
	if got, want := srv.Received(), frames*uint64(len(msgs)-1); got != want {
		t.Errorf("received %d messages, want %d", got, want)
	}
	if got := srv.Heartbeats(); got != frames {
		t.Errorf("%d heartbeats, want %d", got, frames)
	}
	if got, want := srv.LiteralBytes(), frames*uint64(len(`{"x":1}`)); got != want {
		t.Errorf("%d literal bytes, want %d", got, want)
	}
	for tag, n := range map[string]uint64{receiveTag: 64, "other": 1, HeartbeatTag: 0} {
		if st := d.Bus().Stats(tag); st.Published != frames*n || st.Dropped != frames*n || st.Delivered != 0 {
			t.Errorf("%s: %+v, want %d published and dropped", tag, st, frames*n)
		}
	}
}
