package streams

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
	"time"

	"darshanldms/internal/rng"
	"darshanldms/internal/sos"
)

// readBackWAL is a MemWAL that counts read-backs and fails them while
// fail is set.
type readBackWAL struct {
	*sos.MemWAL
	mu    sync.Mutex
	reads int
	fail  error
}

func (w *readBackWAL) ReadAt(p []byte, off int64) (int, error) {
	w.mu.Lock()
	w.reads++
	fail := w.fail
	w.mu.Unlock()
	if fail != nil {
		return 0, fail
	}
	return w.MemWAL.ReadAt(p, off)
}

func (w *readBackWAL) readBacks() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.reads
}

// model drives one seeded op schedule into two streams, each over its own
// segment: ss[0] keeps only what a consumer still owes in memory, and
// ss[1] is the memory-resident reference, where a pinned consumer whose
// floor sits at 1, inside the first batch of seven, keeps every batch
// unsettled. Every delivery, Body, Stats() and ConsumerStats() of the two
// must agree, and every delivery must carry what was appended.
type model struct {
	t     *testing.T
	r     *rng.Stream
	clock *testClock
	cfg   StreamConfig
	segs  [2]*readBackWAL
	ss    [2]*DurableStream
	cons  map[string]*[2]*Consumer
	ccfg  map[string]ConsumerConfig
	names []string
	held  map[string][]Delivery // fetched, not yet acked or nakked
	sent  map[uint64]Message    // every appended message, by sequence
	pseq  uint64
	late  int // late joiners so far; none join once it reaches maxLate
	// maxLate bounds the late joiners; 0 leaves the live consumer alone,
	// which then never reads history back.
	maxLate    int
	maxSettled int // coverage: the most messages s held as settled history
}

func newModel(t *testing.T, seed uint64, pol RetentionPolicy, maxLate int) *model {
	m := &model{
		t: t, r: rng.New(seed), clock: &testClock{}, maxLate: maxLate,
		cons: map[string]*[2]*Consumer{}, ccfg: map[string]ConsumerConfig{},
		held: map[string][]Delivery{}, sent: map[uint64]Message{},
	}
	m.cfg = StreamConfig{Name: "model", Retention: pol, Clock: m.clock.fn()}
	for i := range m.segs {
		m.segs[i] = &readBackWAL{MemWAL: sos.NewMemWAL()}
	}
	m.open()
	m.append(7)
	pin, err := m.ss[1].Consumer(ConsumerConfig{Name: "~pin"})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := pin.Fetch(1)
	if err != nil || len(ds) != 1 || pin.AckBatch(ds) != nil || pin.AckFloor() != 1 {
		t.Fatalf("pin: %v %v", ds, err)
	}
	m.join(ConsumerConfig{Name: "live", MaxInflight: 96, AckWait: 100 * time.Millisecond})
	return m
}

// open (re)opens both streams from their segments and re-claims every
// consumer; what was inflight is redelivered.
func (m *model) open() {
	for i := range m.ss {
		s, err := OpenStream(m.cfg, m.segs[i])
		if err != nil {
			m.t.Fatalf("open: %v", err)
		}
		m.ss[i] = s
	}
	for _, name := range m.names {
		m.claim(m.ccfg[name])
	}
	clear(m.held)
}

func (m *model) claim(cfg ConsumerConfig) {
	var pair [2]*Consumer
	for i, s := range m.ss {
		c, err := s.Consumer(cfg)
		if err != nil {
			m.t.Fatal(err)
		}
		pair[i] = c
	}
	m.cons[cfg.Name] = &pair
	m.held[cfg.Name] = nil
}

func (m *model) join(cfg ConsumerConfig) {
	m.ccfg[cfg.Name] = cfg
	m.names = append(m.names, cfg.Name)
	m.claim(cfg)
}

func (m *model) append(n int) {
	tags := []string{"darshan.nid00040.posix", "darshan.nid00041.mpiio", "note"}
	msgs := make([]Message, n)
	for i := range msgs {
		m.pseq++
		msgs[i] = Message{
			Tag: tags[m.r.Intn(len(tags))], Type: TypeJSON, Producer: fmt.Sprintf("nid%05d", 40+m.r.Intn(3)), Seq: m.pseq,
			Data: []byte(fmt.Sprintf(`{"n":%d,"pad":"%s"}`, m.pseq, strings.Repeat("x", m.r.Intn(40)))),
		}
		if m.r.Intn(8) == 0 {
			msgs[i].Type, msgs[i].Producer, msgs[i].Seq = TypeString, "", 0
		}
	}
	var first [2]uint64
	for i, s := range m.ss {
		var err error
		if first[i], err = s.AppendBatch(msgs); err != nil {
			m.t.Fatal(err)
		}
	}
	if first[0] != first[1] {
		m.t.Fatalf("append at %d and %d", first[0], first[1])
	}
	for i, msg := range msgs {
		m.sent[first[0]+uint64(i)] = msg
	}
}

func sameEnvelope(a, b Message) bool {
	return a.Tag == b.Tag && a.Type == b.Type && a.Producer == b.Producer && a.Seq == b.Seq &&
		bytes.Equal(a.Data, b.Data) && a.Record == nil && b.Record == nil
}

// fetch runs one Fetch or FetchBodies on both instances of a consumer.
func (m *model) fetch(name string, max int, bodies bool) []Delivery {
	var got [2][]Delivery
	for i, c := range m.cons[name] {
		var ds []Delivery
		var err error
		if bodies {
			ds, err = c.FetchBodies(max)
		} else {
			ds, err = c.Fetch(max)
		}
		if err != nil {
			m.t.Fatalf("%s fetch: %v", name, err)
		}
		got[i] = append([]Delivery(nil), ds...)
	}
	if len(got[0]) != len(got[1]) {
		m.t.Fatalf("%s fetched %v, reference %v", name, seqsOf(got[0]), seqsOf(got[1]))
	}
	for i, d := range got[0] {
		e := got[1][i]
		if d.Seq != e.Seq || d.Deliveries != e.Deliveries || d.Batch != e.Batch || !bytes.Equal(d.Body, e.Body) ||
			(d.Body == nil) != (e.Body == nil) || !sameEnvelope(d.Msg, e.Msg) {
			m.t.Fatalf("%s delivery %d: %+v, reference %+v", name, i, d, e)
		}
	}
	for i := 0; i < len(got[0]); i++ {
		d := got[0][i]
		if d.Body == nil {
			if !sameEnvelope(d.Msg, m.sent[d.Seq]) {
				m.t.Fatalf("%s seq %d: %+v, appended %+v", name, d.Seq, d.Msg, m.sent[d.Seq])
			}
			continue
		}
		msgs, err := DecodeRecords(BodyV2, d.Body)
		if err != nil {
			m.t.Fatal(err)
		}
		for j, msg := range msgs {
			if got[0][i+j].Seq != d.Seq+uint64(j) || !sameEnvelope(msg, m.sent[d.Seq+uint64(j)]) {
				m.t.Fatalf("%s body at %d, record %d: %+v, appended %+v", name, d.Seq, j, msg, m.sent[d.Seq+uint64(j)])
			}
		}
		i += len(msgs) - 1
	}
	m.held[name] = append(m.held[name], got[0]...)
	return got[0]
}

// each applies op to both instances of a consumer; the errors must agree.
func (m *model) each(name string, op func(c *Consumer) error) {
	var errs [2]string
	for i, c := range m.cons[name] {
		errs[i] = fmt.Sprint(op(c))
	}
	if errs[0] != errs[1] {
		m.t.Fatalf("%s: %s, reference %s", name, errs[0], errs[1])
	}
}

func (m *model) ackAll(name string) {
	held := m.held[name]
	m.each(name, func(c *Consumer) error { return c.AckBatch(held) })
	m.held[name] = nil
}

func (m *model) drain(name string) {
	for {
		ds := m.fetch(name, 64, m.r.Intn(2) == 0)
		m.ackAll(name)
		if len(ds) == 0 {
			return
		}
	}
}

func (m *model) check() {
	st := [2]StreamStats{m.ss[0].Stats(), m.ss[1].Stats()}
	if windowStats(st[0]) != windowStats(st[1]) {
		m.t.Fatalf("stats %+v, reference %+v", st[0], st[1])
	}
	var ref []ConsumerStats
	for _, cs := range m.ss[1].ConsumerStats() {
		if cs.Name != "~pin" {
			ref = append(ref, cs)
		}
	}
	if cs := m.ss[0].ConsumerStats(); !reflect.DeepEqual(cs, ref) {
		m.t.Fatalf("consumer stats %+v, reference %+v", cs, ref)
	}
	checkConservation(m.t, m.ss[0])
	s := m.ss[0]
	s.mu.Lock()
	m.maxSettled = max(m.maxSettled, s.sizes.n)
	// Compaction is complete: no whole batch every consumer has settled
	// is left in memory.
	if s.slots.n > 0 && s.slots.at(0).ctx.held.last() <= s.settledLocked() {
		m.t.Fatalf("batch %+v is settled through %d and still in memory", s.slots.at(0).ctx.held, s.settledLocked())
	}
	s.mu.Unlock()
	m.ss[1].mu.Lock()
	defer m.ss[1].mu.Unlock()
	if m.ss[1].sizes.n != 0 {
		m.t.Fatalf("the reference holds %d settled messages", m.ss[1].sizes.n)
	}
}

func (m *model) step() {
	r := m.r
	name := m.names[r.Intn(len(m.names))]
	switch op := r.Intn(20); {
	case op < 6:
		m.append([]int{1, 7, 64}[r.Intn(3)])
	case op < 10:
		m.fetch(name, 1+r.Intn(80), r.Intn(2) == 0)
	case op < 12:
		m.ackAll(name)
	case op < 14: // out of order: a random half, one by one, backwards
		held := m.held[name]
		var keep []Delivery
		for i := len(held) - 1; i >= 0; i-- {
			if r.Intn(2) == 0 {
				keep = append(keep, held[i])
				continue
			}
			seq := held[i].Seq
			m.each(name, func(c *Consumer) error { return c.Ack(seq) })
		}
		m.held[name] = keep
	case op < 15:
		for _, d := range m.held[name] {
			seq := d.Seq
			m.each(name, func(c *Consumer) error { return c.Nak(seq) })
		}
		m.held[name] = nil
	case op < 17:
		m.clock.Advance(time.Duration(r.Intn(80)) * time.Millisecond)
	case op < 18: // a late joiner reads history from a random sequence
		if m.late == m.maxLate {
			m.claim(m.ccfg[name]) // or a successor reattaches
			break
		}
		m.late++
		last := m.ss[0].Stats().LastSeq
		cfg := ConsumerConfig{Name: fmt.Sprintf("late-%d", m.late), StartSeq: uint64(r.Intn(int(last) + 2)), AckWait: 100 * time.Millisecond}
		m.join(cfg)
		m.drain(cfg.Name)
	case op < 19:
		m.open()
	default: // everyone catches up
		for _, n := range m.names {
			m.drain(n)
		}
	}
	m.check()
}

// TestSettledHistoryMatchesMemory: over seeded schedules of appends in
// batches of 1, 7 and 64, in- and out-of-order acks, naks and redelivery,
// late joiners, count, byte and age trims and reopens, a stream that keeps
// settled history on its segment delivers, reports and accounts exactly
// as one that keeps everything in memory, and reads that history back.
func TestSettledHistoryMatchesMemory(t *testing.T) {
	for i, pol := range []RetentionPolicy{
		{MaxMsgs: 400},
		{MaxBytes: 12 << 10},
		{MaxAge: 300 * time.Millisecond},
		{MaxMsgs: 250, MaxBytes: 10 << 10, MaxAge: 500 * time.Millisecond},
	} {
		t.Run(fmt.Sprintf("%+v", pol), func(t *testing.T) {
			m := newModel(t, uint64(i+1), pol, 10)
			for step := 0; step < 1500; step++ {
				m.step()
			}
			if m.maxSettled == 0 || m.segs[0].readBacks() == 0 || m.segs[1].readBacks() != 0 {
				t.Fatalf("the schedule held at most %d settled messages and read back %d batches (reference %d)",
					m.maxSettled, m.segs[0].readBacks(), m.segs[1].readBacks())
			}
			t.Logf("at most %d settled messages; %d read-backs", m.maxSettled, m.segs[0].readBacks())
		})
	}
	// With no late joiner, every delivery is served from memory: history
	// is only what the one consumer settled, and it never looks back.
	t.Run("live only", func(t *testing.T) {
		m := newModel(t, 9, RetentionPolicy{MaxMsgs: 300}, 0)
		for step := 0; step < 1500; step++ {
			m.step()
		}
		if m.maxSettled == 0 || m.segs[0].readBacks() != 0 {
			t.Fatalf("held at most %d settled messages, read back %d batches", m.maxSettled, m.segs[0].readBacks())
		}
	})
}

// settledStream appends batches of seven until a consumer has settled
// all of them, and returns the stream, its segment and a late joiner that
// has not fetched yet.
func settledStream(t *testing.T, batches int) (*DurableStream, *readBackWAL, *Consumer) {
	t.Helper()
	seg := &readBackWAL{MemWAL: sos.NewMemWAL()}
	s := mustOpenStream(t, StreamConfig{Name: "s"}, seg)
	var seq uint64
	live, err := s.Consumer(ConsumerConfig{Name: "live"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < batches; i++ {
		if _, err := s.AppendBatch(memBatch(7, &seq)); err != nil {
			t.Fatal(err)
		}
		if err := live.AckBatch(mustFetch(t, live, 7)); err != nil {
			t.Fatal(err)
		}
	}
	late, err := s.Consumer(ConsumerConfig{Name: "late", StartSeq: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sizes.n != 7*batches || s.slots.n != 0 {
		t.Fatalf("%d settled, %d in memory; want all %d settled", s.sizes.n, s.slots.n, 7*batches)
	}
	return s, seg, late
}

// TestSettledReadBackFailureIsAnError: a settled batch that cannot be
// read back — an I/O error, a frame whose CRC does not match, a frame of
// another batch — makes Fetch return an error once nothing precedes it,
// and is never settled as missed: once the read succeeds, every message
// is delivered.
func TestSettledReadBackFailureIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(s *DurableStream, seg *readBackWAL) (mend func())
	}{
		{"io error", func(s *DurableStream, seg *readBackWAL) func() {
			seg.fail = io.ErrUnexpectedEOF
			return func() { seg.fail = nil }
		}},
		{"crc mismatch", func(s *DurableStream, seg *readBackWAL) func() {
			h := s.held.at(1)
			seg.MemWAL = flipByte(seg.MemWAL, h.off+sos.FrameHeader+int64(h.size)-1)
			return func() { seg.MemWAL = flipByte(seg.MemWAL, h.off+sos.FrameHeader+int64(h.size)-1) }
		}},
		{"sequence mismatch", func(s *DurableStream, seg *readBackWAL) func() {
			h1, h2 := s.held.at(1), s.held.at(2)
			saved := *h1
			h1.off, h1.size = h2.off, h2.size // a clean frame, of the next batch
			return func() { *h1 = saved }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, seg, late := settledStream(t, 4)
			mend := tc.damage(s, seg)
			ds, err := late.Fetch(64)
			if tc.name == "io error" {
				if err == nil || len(ds) != 0 {
					t.Fatalf("fetch: %v, %v; want an error", seqsOf(ds), err)
				}
			} else {
				// The first batch reads back; the round stops before the second.
				if err != nil || len(ds) != 7 {
					t.Fatalf("fetch: %v, %v; want the first batch", seqsOf(ds), err)
				}
				if err := late.AckBatch(ds); err != nil {
					t.Fatal(err)
				}
				if ds, err = late.Fetch(64); err == nil || len(ds) != 0 {
					t.Fatalf("fetch: %v, %v; want an error", seqsOf(ds), err)
				}
			}
			if st := late.Stats(); st.Missed != 0 {
				t.Fatalf("a failed read settled %d as missed", st.Missed)
			}
			mend()
			var got []uint64
			for {
				ds, err := late.Fetch(64)
				if err != nil {
					t.Fatal(err)
				}
				if len(ds) == 0 {
					break
				}
				got = append(got, seqsOf(ds)...)
				if err := late.AckBatch(ds); err != nil {
					t.Fatal(err)
				}
			}
			if st := late.Stats(); st.Missed != 0 || late.AckFloor() != 28 || (tc.name == "io error") != (len(got) == 28) {
				t.Fatalf("after mending: %+v, delivered %v", st, got)
			}
		})
	}
}

// flipByte returns a copy of w with the byte at off inverted.
func flipByte(w *sos.MemWAL, off int64) *sos.MemWAL {
	b := make([]byte, w.Len())
	_, _ = w.ReadAt(b, 0)
	b[off] ^= 0xFF
	out := sos.NewMemWAL()
	_, _ = out.Write(b)
	return out
}

// TestLateJoinerReadsHistoryWhileLiveAcks: a late joiner reads the
// settled history from the first sequence on while the live consumer
// appends, fetches and acks beside it (run it under -race), and gets every
// message, in order, as appended.
func TestLateJoinerReadsHistoryWhileLiveAcks(t *testing.T) {
	seg := &readBackWAL{MemWAL: sos.NewMemWAL()}
	s := mustOpenStream(t, StreamConfig{Name: "s"}, seg)
	live, err := s.Consumer(ConsumerConfig{Name: "live", MaxInflight: 128})
	if err != nil {
		t.Fatal(err)
	}
	const batches, size = 300, 16
	var seq uint64
	round := func() {
		if _, err := s.AppendBatch(memBatch(size, &seq)); err != nil {
			t.Error(err)
		}
		ds, err := live.FetchBodies(size)
		if err == nil {
			err = live.AckBatch(ds)
		}
		if err != nil {
			t.Error(err)
		}
	}
	for i := 0; i < batches/2; i++ {
		round()
	}
	late, err := s.Consumer(ConsumerConfig{Name: "late", StartSeq: 1, MaxInflight: 40})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := batches / 2; i < batches; i++ {
			round()
		}
	}()
	var next uint64 = 1
	for next <= batches*size {
		ds, err := late.Fetch(1 + int(next%40))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			if want := fmt.Sprintf(`{"seq":%d}`, next); d.Seq != next || string(d.Msg.Data) != want {
				t.Fatalf("late joiner got %d %q, want %d %q", d.Seq, d.Msg.Data, next, want)
			}
			next++
		}
		if err := late.AckBatch(ds); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if seg.readBacks() == 0 || late.Stats().Missed != 0 {
		t.Fatalf("%d read-backs, %+v", seg.readBacks(), late.Stats())
	}
}

func liveHeapBytes() uint64 {
	runtime.GC()
	runtime.GC() // and what sync.Pools kept through the first
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// TestSettledHistoryHeap: a file-backed stream whose one consumer keeps up
// holds a retained message in a few bytes — its payload size and its share
// of its batch's segment position — whatever the retention bound. The
// fixed cost, measured on a stream that carried two batches, is taken
// out.
func TestSettledHistoryHeap(t *testing.T) {
	msgs := func(n int) []Message {
		out := make([]Message, n)
		for i := range out {
			out[i] = Message{Tag: "darshan.nid00040.posix", Type: TypeJSON, Producer: "nid00040", Data: bytes.Repeat([]byte("x"), 120)}
		}
		return out
	}
	run := func(path string, batch []Message, maxMsgs, total int) (*DurableStream, *sos.FileWAL) {
		fw, err := sos.OpenFileWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fw.Close() })
		s, err := OpenStream(StreamConfig{Name: "ingest", Retention: RetentionPolicy{MaxMsgs: maxMsgs}}, fw)
		if err != nil {
			t.Fatal(err)
		}
		c, err := s.Consumer(ConsumerConfig{Name: "ingest", MaxInflight: len(batch)})
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < total; n += len(batch) {
			for i := range batch {
				batch[i].Seq = uint64(n + i + 1)
			}
			if _, err := s.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
			ds, err := c.Fetch(len(batch))
			if err == nil {
				err = c.AckBatch(ds)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if st := s.Stats(); st.Msgs != min(maxMsgs, total) {
			t.Fatalf("holding %d messages", st.Msgs)
		}
		return s, fw
	}
	dir := t.TempDir()
	for _, size := range []int{16, 64} {
		var perMsg []float64
		for _, maxMsgs := range []int{10000, 100000} {
			batch := msgs(size)
			before := liveHeapBytes()
			small, _ := run(filepath.Join(dir, fmt.Sprintf("fixed-%d-%d", size, maxMsgs)), batch, maxMsgs, 2*size)
			mid := liveHeapBytes()
			full, _ := run(filepath.Join(dir, fmt.Sprintf("full-%d-%d", size, maxMsgs)), batch, maxMsgs, 2*maxMsgs)
			after := liveHeapBytes()
			runtime.KeepAlive(small)
			runtime.KeepAlive(full)
			fixed := float64(mid) - float64(before)
			per := (float64(after) - float64(mid) - fixed) / float64(maxMsgs)
			t.Logf("batches of %d, MaxMsgs %d: %.1f B per retained message (fixed %.0f KB)", size, maxMsgs, per, fixed/1024)
			perMsg = append(perMsg, per)
		}
		for _, per := range perMsg {
			if per > 16 {
				t.Errorf("batches of %d: %.1f B per retained message, want <= 16", size, per)
			}
		}
		if d := math.Abs(perMsg[0] - perMsg[1]); d > 4 {
			t.Errorf("batches of %d: %.1f B per message at 10k, %.1f at 100k", size, perMsg[0], perMsg[1])
		}
	}
}
