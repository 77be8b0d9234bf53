package ldms

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"darshanldms/internal/dsos"
	"darshanldms/internal/obs"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
)

// ingestPath is one dsosd store hop under test: a receive side (a bus
// bound to a retention-bounded stream), the ingest consumer's round step,
// and DedupStore over DSOSStore over a 4-shard cluster logging to memory.
// bodies picks how the cursor fetches: whole stored batches as their
// bodies (NewStoreCursor, what IngestStream runs) or every run decoded.
type ingestPath struct {
	t       *testing.T
	bus     *streams.Bus
	s       *streams.DurableStream
	cur     *Cursor
	cluster *dsos.Cluster
	wals    []*sos.MemWAL
	reg     *obs.Registry
	dedup   *DedupStore
	store   *bodyCounter
	dead    []string
}

// bodyCounter counts the runs that reach the store as bodies.
type bodyCounter struct {
	RoundStore
	bodies int
}

func (b *bodyCounter) StoreRound(run Run, token uint64, dead func(error)) error {
	if run.Body != nil {
		b.bodies++
	}
	return b.RoundStore.StoreRound(run, token, dead)
}

// ingestRetain bounds the paths' streams, so a backlog trims a batch.
const ingestRetain = 4 * RoundSize

func newIngestPath(t *testing.T, bodies bool) *ingestPath {
	t.Helper()
	p := &ingestPath{t: t, bus: streams.NewBus(), reg: obs.NewRegistry()}
	var err error
	p.s, err = streams.OpenStream(streams.StreamConfig{
		Name: "hop", Retention: streams.RetentionPolicy{MaxMsgs: ingestRetain},
	}, sos.NewMemWAL())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.bus.BindStream(p.s); err != nil {
		t.Fatal(err)
	}
	cons, err := p.s.Consumer(streams.ConsumerConfig{Name: "ingest"})
	if err != nil {
		t.Fatal(err)
	}
	p.cur = NewCursor(cons, RoundSize)
	if bodies {
		p.cur = NewStoreCursor(cons)
	}
	p.cluster = dsos.NewCluster(4, "darshan_data")
	if err := dsos.SetupDarshan(p.cluster); err != nil {
		t.Fatal(err)
	}
	p.cluster.EnableWAL(func(string) sos.WALStore {
		w := sos.NewMemWAL()
		p.wals = append(p.wals, w)
		return w
	})
	ds := NewDSOSStore(dsos.Connect(p.cluster))
	ds.Instrument(p.reg)
	p.dedup = NewDedupStore(ds)
	p.store = &bodyCounter{RoundStore: p.dedup}
	return p
}

// frame receives msgs as dsosd does a batch frame: its payload is
// appended as the stream's batch body (PublishBody).
func (p *ingestPath) frame(msgs []streams.Message) {
	p.t.Helper()
	var w bytes.Buffer
	if err := WriteBatchFrame(&w, msgs); err != nil {
		p.t.Fatal(err)
	}
	d := NewBatchDecoder()
	version, payload, err := d.readBatchPayload(&w)
	if err != nil {
		p.t.Fatal(err)
	}
	if _, ok := p.bus.PublishBody(version, payload, d.in, HeartbeatTag); !ok {
		p.t.Fatal("the receive path refused a frame")
	}
}

// alone appends msgs one at a time, each a batch of one.
func (p *ingestPath) alone(msgs []streams.Message) {
	p.t.Helper()
	for _, m := range msgs {
		if _, err := p.s.Append(m); err != nil {
			p.t.Fatal(err)
		}
	}
}

func (p *ingestPath) deadLetter(err error) { p.dead = append(p.dead, err.Error()) }

// drain commits round after round until nothing is deliverable.
func (p *ingestPath) drain() {
	p.t.Helper()
	for {
		msgs, _, err := p.cur.Next()
		if err != nil {
			p.t.Fatal(err)
		}
		if len(msgs) == 0 {
			return
		}
		if err := p.cur.Commit(p.store, p.deadLetter); err != nil {
			p.t.Fatal(err)
		}
	}
}

// crash stores the next round as Commit does and loses its ack: the
// process died in the ack gap, and its successor has the stream redeliver
// the round (Redeliver) at once.
func (p *ingestPath) crash() {
	p.t.Helper()
	if _, _, err := p.cur.Next(); err != nil {
		p.t.Fatal(err)
	}
	lo := 0
	for i, end := range p.cur.ends {
		run := Run{Msgs: p.cur.msgs[lo:end], Body: p.cur.stored[i]}
		if err := p.store.StoreRound(run, p.cur.round[end-1].Seq, p.deadLetter); err != nil {
			p.t.Fatal(err)
		}
		lo = end
	}
	p.cur.cons.Redeliver()
}

// state renders what the path stored: every shard's log and snapshot
// bytes, the dedup counters, the store's series and the dead letters.
func (p *ingestPath) state() (logs, snaps [][]byte, books string) {
	p.t.Helper()
	for i, d := range p.cluster.Daemons() {
		r, err := p.wals[i].Open()
		if err != nil {
			p.t.Fatal(err)
		}
		b, err := io.ReadAll(r)
		r.Close()
		if err != nil {
			p.t.Fatal(err)
		}
		logs = append(logs, b)
		var snap bytes.Buffer
		if err := d.Snapshot(&snap); err != nil {
			p.t.Fatal(err)
		}
		snaps = append(snaps, snap.Bytes())
	}
	var series []string
	for k, v := range scrape(p.t, p.reg) {
		if strings.HasPrefix(k, "dlc_store_dsos_") {
			series = append(series, k+"="+v)
		}
	}
	slices.Sort(series)
	books = fmt.Sprintf("duplicates=%d stored=%d unstamped=%d series=%v dead=%q",
		p.dedup.Duplicates(), p.dedup.Stored(), p.dedup.Unstamped(), series, p.dead)
	return logs, snaps, books
}

// ingestScript is the traffic both paths take, step for step: whole
// frames, and every shape that falls back to decoding — messages appended
// alone, a batch cut by the round and acked in part, a batch trimmed by
// retention, a redelivered round that splits a batch — and, as bodies, a
// whole batch redelivered after a crash in the ack gap, a batch that
// partly overlaps stored identities, one that holds an identity twice, a
// message alone in its round (a batch of one) and a batch that mixes
// opaque JSON records, one of them undecodable, with typed ones.
func ingestScript(p *ingestPath, f [][]streams.Message) {
	p.frame(f[0])
	p.frame(f[1])
	p.drain()

	// Three messages alone, then a frame: the round is the three and the
	// frame's first 61, and the next round the frame's last 3.
	p.alone(f[2][:3])
	p.frame(f[3])
	p.drain()

	// A backlog past retention: the oldest frame loses its first 10.
	for _, fr := range f[4:8] {
		p.frame(fr)
	}
	p.alone(f[2][3:13])
	p.drain()

	// A whole batch stored, its ack lost, and redelivered whole.
	p.frame(f[8])
	p.crash()
	p.drain()

	// Two alone and a frame, stored with the ack lost: the redelivered
	// round splits the frame again.
	p.alone(f[2][13:15])
	p.frame(f[9])
	p.crash()
	p.drain()

	// Half stored already, and an identity twice in one batch.
	p.frame(append(slices.Clone(f[8][32:]), f[10][:32]...))
	dup := slices.Clone(f[11])
	dup[20] = dup[10]
	p.frame(dup)
	p.drain()

	// A message appended alone, and alone in its round: a whole stored
	// batch of one, so a body.
	p.alone(f[2][15:16])
	p.drain()

	// Opaque JSON beside typed records, and one that never decodes.
	mixed := slices.Clone(f[12])
	for i := 0; i < len(mixed); i += 5 {
		m := mixed[i]
		mixed[i] = streams.Message{Tag: m.Tag, Type: m.Type, Producer: m.Producer, Seq: m.Seq, Data: m.Payload()}
	}
	mixed[7] = streams.Message{Tag: mixed[7].Tag, Type: streams.TypeJSON, Producer: mixed[7].Producer, Seq: mixed[7].Seq, Data: []byte(`{"uid":`)}
	p.frame(mixed)
	p.drain()
}

// TestStoredBodyIngestIdentity is the differential test of the one decode
// at ingest: for benchmark-shaped 64-event frames received, streamed and
// ingested by dsosd's store hop, storing each whole stored batch from its
// body leaves byte for byte the shard logs and snapshots that storing
// every run decoded leaves, with the same dedup counters, store series
// and dead letters.
func TestStoredBodyIngestIdentity(t *testing.T) {
	f := genFrames(38, 13*RoundSize, RoundSize)
	body, dec := newIngestPath(t, true), newIngestPath(t, false)
	ingestScript(body, f)
	ingestScript(dec, f)
	if dec.store.bodies != 0 || body.store.bodies != 8 {
		t.Fatalf("%d runs stored as bodies, %d on the decode path; want 8 and 0", body.store.bodies, dec.store.bodies)
	}
	blogs, bsnaps, bbooks := body.state()
	dlogs, dsnaps, dbooks := dec.state()
	for i := range dlogs {
		if !bytes.Equal(blogs[i], dlogs[i]) {
			t.Errorf("shard %d: logs differ at byte %d of %d", i, firstDiff(blogs[i], dlogs[i]), len(dlogs[i]))
		}
		if !bytes.Equal(bsnaps[i], dsnaps[i]) {
			t.Errorf("shard %d: snapshots differ at byte %d of %d", i, firstDiff(bsnaps[i], dsnaps[i]), len(dsnaps[i]))
		}
	}
	if bbooks != dbooks {
		t.Errorf("books differ:\n body   %s\n decode %s", bbooks, dbooks)
	}
	// Every case happened: replays absorbed, a trim missed, a dead letter.
	t.Log(dbooks)
	if dec.dedup.Duplicates() != 64+64+32+1 || len(dec.dead) != 1 {
		t.Errorf("%d duplicates and %d dead letters; want %d and 1", dec.dedup.Duplicates(), len(dec.dead), 64+64+32+1)
	}
	if st := dec.cur.cons.Stats(); st.Missed != 10 {
		t.Errorf("%d messages trimmed before delivery, want 10", st.Missed)
	}
}
