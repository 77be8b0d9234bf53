package ldms

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"darshanldms/internal/dsos"
	"darshanldms/internal/event"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
)

func batchSample(seq uint64) *jsonmsg.Message {
	return &jsonmsg.Message{
		UID: 99066, Exe: jsonmsg.NA, JobID: 1, Rank: int(seq % 8),
		ProducerName: "nid00040", File: jsonmsg.NA, RecordID: 9,
		Module: "POSIX", Type: jsonmsg.TypeMOD, MaxByte: -1, Op: "write",
		Seg: []jsonmsg.Segment{{
			DataSet: jsonmsg.NA, PtSel: -1, IrregHSlab: -1, RegHSlab: -1,
			NDims: -1, NPoints: -1, Off: int64(seq) * 4096, Len: 4096,
			Dur: jsonmsg.Quant6(0.000125), Timestamp: jsonmsg.Quant6(1.6e9 + float64(seq)),
		}},
		Seq: seq,
	}
}

func typedMsg(seq uint64) streams.Message {
	return streams.Message{
		Tag: "darshanConnector", Type: streams.TypeJSON,
		Record:   event.NewRecord(batchSample(seq), jsonmsg.FastEncoder{}),
		Producer: "nid00040", Seq: seq,
	}
}

// readAnyFrameHeap is the independent reference the slab decoder is
// compared against: the frame header read here, then decodeRecordsHeap.
func readAnyFrameHeap(br *bufio.Reader) ([]streams.Message, error) {
	first, err := br.Peek(1)
	if err != nil {
		return nil, err
	}
	if first[0] != batchMagic {
		m, err := ReadFrame(br)
		return []streams.Message{m}, err
	}
	var hdr [6]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[2:6])
	if (hdr[1] != streams.BodyV1 && hdr[1] != streams.BodyV2) || n == 0 || n > maxFrame {
		return nil, fmt.Errorf("bad batch frame header % x", hdr)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, err
	}
	return decodeRecordsHeap(hdr[1], payload)
}

// heapWalk is decodeRecordsHeap's cursor over one batch body: its own
// string table and record-0 base, so the production walker, string table
// and typed decoder are checked against code they do not share.
type heapWalk struct {
	b    []byte
	off  int
	err  error
	v1   bool
	raw  bool // v1, or record 0: numbers stand as they are
	strs []string
	base [streams.BaseCols]uint64
}

func (w *heapWalk) uvarint() uint64 {
	if w.err != nil {
		return 0
	}
	v, n := binary.Uvarint(w.b[w.off:])
	if n <= 0 {
		w.err = streams.ErrTruncated
		return 0
	}
	w.off += n
	return v
}

// str reads a string: a length and the bytes in a version-1 body; in a
// version-2 one an id below the table's size, or the table's size plus
// the length of a literal that joins the table.
func (w *heapWalk) str() string {
	v := w.uvarint()
	if !w.v1 {
		if v < uint64(len(w.strs)) {
			return w.strs[v]
		}
		v -= uint64(len(w.strs))
	}
	if w.err == nil && v > uint64(len(w.b)-w.off) {
		w.err = streams.ErrTruncated
	}
	if w.err != nil {
		return ""
	}
	s := string(w.b[w.off : w.off+int(v)])
	w.off += int(v)
	if !w.v1 {
		w.strs = append(w.strs, s)
	}
	return s
}

// num reads column col: as it stands in a raw record (signed columns as
// zigzag varints), else as the zigzag varint of its difference from
// record 0's.
func (w *heapWalk) num(col int, signed bool) uint64 {
	u := w.uvarint()
	var v uint64
	switch {
	case !w.raw:
		v = w.base[col] + (u>>1 ^ -(u & 1))
	case signed:
		v = u>>1 ^ -(u & 1)
	default:
		v = u
	}
	if w.raw {
		w.base[col] = v
	}
	return v
}

func (w *heapWalk) int(col int) int64 { return int64(w.num(col, true)) }

// float reads column col: raw big-endian bits, else a uvarint XORed with
// record 0's bits.
func (w *heapWalk) float(col int) float64 {
	var v uint64
	switch {
	case !w.raw:
		v = w.uvarint() ^ w.base[col]
	case w.err != nil:
	case len(w.b)-w.off < 8:
		w.err = streams.ErrTruncated
	default:
		v = binary.BigEndian.Uint64(w.b[w.off:])
		w.off += 8
	}
	if w.raw {
		w.base[col] = v
	}
	return math.Float64frombits(v)
}

// typed reads a typed body: the Table I record's fields in their fixed
// order, column numbers as in the base.
func (w *heapWalk) typed() (*jsonmsg.Message, error) {
	m := &jsonmsg.Message{}
	m.UID = w.int(0)
	m.Exe = w.str()
	m.JobID = w.int(1)
	m.Rank = int(w.int(2))
	m.ProducerName = w.str()
	m.File = w.str()
	m.RecordID = w.num(3, false)
	m.Module = w.str()
	m.Type = w.str()
	m.MaxByte = w.int(4)
	m.Switches = w.int(5)
	m.Flushes = w.int(6)
	m.Cnt = w.int(7)
	m.Op = w.str()
	m.Seq = w.num(8, false)
	nseg := w.uvarint()
	if w.err != nil {
		return nil, w.err
	}
	if nseg > uint64(len(w.b)-w.off)/10+1 { // a segment is at least ten bytes
		return nil, streams.ErrTruncated
	}
	for i := uint64(0); i < nseg; i++ {
		var s jsonmsg.Segment
		s.DataSet = w.str()
		s.PtSel = w.int(9)
		s.IrregHSlab = w.int(10)
		s.RegHSlab = w.int(11)
		s.NDims = w.int(12)
		s.NPoints = w.int(13)
		s.Off = w.int(14)
		s.Len = w.int(15)
		s.Dur = w.float(16)
		s.Timestamp = w.float(17)
		if w.err != nil {
			return nil, w.err
		}
		m.Seg = append(m.Seg, s)
	}
	return m, nil
}

// decodeRecordsHeap decodes a batch payload of the given version into
// freshly allocated messages, opaque payloads aliasing body.
func decodeRecordsHeap(version byte, body []byte) ([]streams.Message, error) {
	w := &heapWalk{b: body, v1: version == streams.BodyV1}
	count := w.uvarint()
	if w.err != nil {
		return nil, w.err
	}
	if count == 0 || count > uint64(len(body)-w.off)/streams.MinBatchRecord+1 {
		return nil, fmt.Errorf("batch declares %d records in %d bytes", count, len(body))
	}
	var out []streams.Message
	var seq0 uint64
	for i := uint64(0); i < count; i++ {
		if w.off >= len(body) {
			return nil, streams.ErrTruncated
		}
		w.raw = w.v1 || i == 0
		kind := body[w.off]
		w.off++
		var m streams.Message
		m.Tag = w.str()
		m.Type = streams.MsgType(w.uvarint())
		m.Producer = w.str()
		m.Seq = w.uvarint()
		if w.raw {
			seq0 = m.Seq
		} else {
			m.Seq = seq0 + (m.Seq>>1 ^ -(m.Seq & 1))
		}
		if w.err != nil {
			return nil, w.err
		}
		switch kind {
		case streams.RecTyped:
			msg, err := w.typed()
			if err != nil {
				return nil, err
			}
			m.Record = event.NewRecord(msg, jsonmsg.FastEncoder{})
		case streams.RecOpaque:
			n := w.uvarint()
			if w.err == nil && n > uint64(len(body)-w.off) {
				w.err = streams.ErrTruncated
			}
			if w.err != nil {
				return nil, w.err
			}
			if n > 0 {
				m.Data = body[w.off : w.off+int(n)]
			}
			w.off += int(n)
		default:
			return nil, fmt.Errorf("unknown batch record kind %d", kind)
		}
		out = append(out, m)
	}
	if w.off != len(body) {
		return nil, fmt.Errorf("%d trailing bytes after batch", len(body)-w.off)
	}
	return out, nil
}

// readAnyFrame reads one frame as TCPServer does: a legacy frame with
// ReadFrame, a batch frame's payload through dec and decodeFrame, into
// messages that own their memory.
func readAnyFrame(dec *BatchDecoder, br *bufio.Reader) ([]streams.Message, error) {
	first, err := br.Peek(1)
	if err != nil {
		return nil, err
	}
	if first[0] != batchMagic {
		m, err := ReadFrame(br)
		if err != nil {
			return nil, err
		}
		return []streams.Message{m}, nil
	}
	version, payload, err := dec.readBatchPayload(br)
	if err != nil {
		return nil, err
	}
	return decodeFrame(version, payload)
}

func TestBatchFrameRoundTripMixed(t *testing.T) {
	in := []streams.Message{
		typedMsg(1),
		{Tag: "raw", Type: streams.TypeJSON, Data: []byte(`{"op":"open"}`), Producer: "p", Seq: 2},
		{Tag: "str", Type: streams.TypeString, Data: []byte("hello")},
		typedMsg(3),
	}
	var buf bytes.Buffer
	if err := WriteBatchFrame(&buf, in); err != nil {
		t.Fatalf("WriteBatchFrame: %v", err)
	}
	out, err := readAnyFrame(NewBatchDecoder(), bufio.NewReader(&buf))
	if err != nil {
		t.Fatalf("readAnyFrame: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d messages, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Tag != in[i].Tag || out[i].Type != in[i].Type ||
			out[i].Producer != in[i].Producer || out[i].Seq != in[i].Seq {
			t.Fatalf("envelope %d mismatch: %+v vs %+v", i, out[i], in[i])
		}
	}
	// Typed records must arrive as typed records (no JSON round trip) with
	// value-identical fields.
	for _, i := range []int{0, 3} {
		r, ok := out[i].Record.(*event.Record)
		if !ok || r.TypedFields() == nil {
			t.Fatalf("message %d did not arrive typed", i)
		}
		want, _ := event.Fields(in[i])
		if !reflect.DeepEqual(r.TypedFields(), want) {
			t.Fatalf("typed fields %d mismatch:\n got %+v\nwant %+v", i, r.TypedFields(), want)
		}
	}
	if !bytes.Equal(out[1].Data, in[1].Data) || !bytes.Equal(out[2].Data, in[2].Data) {
		t.Fatalf("opaque payload mismatch")
	}
	// The typed wire form must render the exact same JSON the sender
	// would have shipped eagerly.
	wantJSON := jsonmsg.FastEncoder{}.Encode(batchSample(1))
	if got := out[0].Payload(); !bytes.Equal(got, wantJSON) {
		t.Fatalf("lazy JSON after wire crossing differs:\n got %s\nwant %s", got, wantJSON)
	}
}

func TestBatchFrameInterleavesWithLegacy(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, streams.Message{Tag: "a", Type: streams.TypeJSON, Data: []byte(`{}`)}); err != nil {
		t.Fatal(err)
	}
	if err := WriteBatchFrame(&buf, []streams.Message{typedMsg(1), typedMsg(2)}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, streams.Message{Tag: "b", Type: streams.TypeJSON, Data: []byte(`{}`)}); err != nil {
		t.Fatal(err)
	}
	br, dec := bufio.NewReader(&buf), NewBatchDecoder()
	var tags []string
	for i := 0; i < 3; i++ {
		msgs, err := readAnyFrame(dec, br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		for _, m := range msgs {
			tags = append(tags, m.Tag)
		}
	}
	want := []string{"a", "darshanConnector", "darshanConnector", "b"}
	if !reflect.DeepEqual(tags, want) {
		t.Fatalf("tags = %v, want %v", tags, want)
	}
}

func TestBatchFrameRejectsEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBatchFrame(&buf, nil); err == nil {
		t.Fatalf("empty batch accepted by writer")
	}
	// A hand-built frame declaring zero records must be rejected too.
	frame := []byte{batchMagic, batchVersion, 0, 0, 0, 1, 0}
	if _, err := readAnyFrame(NewBatchDecoder(), bufio.NewReader(bytes.NewReader(frame))); err == nil {
		t.Fatalf("zero-record batch frame accepted by reader")
	}
}

func TestBatchFrameRejectsOversizedDeclaredCount(t *testing.T) {
	// Declares 1<<30 records in a few bytes: must error before allocating.
	payload := binary.AppendUvarint(nil, 1<<30)
	var frame []byte
	frame = append(frame, batchMagic, batchVersion, 0, 0, 0, 0)
	frame = append(frame, payload...)
	binary.BigEndian.PutUint32(frame[2:6], uint32(len(payload)))
	if _, err := readAnyFrame(NewBatchDecoder(), bufio.NewReader(bytes.NewReader(frame))); err == nil {
		t.Fatalf("hostile declared count accepted")
	}
}

func TestBatchFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBatchFrame(&buf, []streams.Message{typedMsg(1), typedMsg(2)}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for n := 0; n < len(full); n++ {
		if _, err := readAnyFrame(NewBatchDecoder(), bufio.NewReader(bytes.NewReader(full[:n]))); err == nil {
			t.Fatalf("truncated frame (%d/%d bytes) accepted", n, len(full))
		}
	}
}

func TestPublishBatchOverTCP(t *testing.T) {
	remote := NewDaemon("agg", "head")
	store := &CountStore{}
	h := remote.AttachStore("darshanConnector", store)
	defer h.Close()
	srv, err := ListenTCP(remote, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	batch := []streams.Message{typedMsg(1), typedMsg(2), typedMsg(3)}
	if err := client.PublishBatch(batch); err != nil {
		t.Fatalf("PublishBatch: %v", err)
	}
	waitFor(t, "batch delivery", func() bool { return store.Count() == 3 })
}

// TestForwarderBatchDrain is the batch path under -race: concurrent
// publishers fan into one bus; the forwarder drains its memory-only
// stream in rounds of 16 over TCP, a partial round lingering 2ms to
// fill; a store counts the typed records. Afterwards every frame buffer
// pool Get must be balanced by a Put.
func TestForwarderBatchDrain(t *testing.T) {
	remote := NewDaemon("agg", "head")
	store := &CountStore{}
	h := remote.AttachStore("darshanConnector", store)
	defer h.Close()
	srv, err := ListenTCP(remote, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	local := NewDaemon("node", "nid00040")
	cfg := fastBackoff(srv.Addr())
	cfg.BatchSize, cfg.Linger = 16, 2*time.Millisecond
	fwd, _ := spoolUplink(t, local, cfg, 1024, streams.Block)

	const publishers, per = 8, 50
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq := uint64(p*per + i + 1)
				m := typedMsg(seq)
				m.Producer = fmt.Sprintf("nid%05d", p)
				local.Bus().Publish(m)
			}
		}(p)
	}
	wg.Wait()
	if err := fwd.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "all messages stored", func() bool { return store.Count() == publishers*per })
	if err := fwd.Close(); err != nil {
		t.Fatal(err)
	}
	st := fwd.Stats()
	if st.Sent != publishers*per {
		t.Fatalf("sent %d, want %d", st.Sent, publishers*per)
	}
	if gets, puts := FramePoolCounters(); gets != puts {
		t.Fatalf("frame buffer pool leak: %d gets, %d puts", gets, puts)
	}
}

// FuzzReadBatchFrame hardens the batch frame codec the way FuzzReadFrame
// hardens the legacy framing: truncation, zero-length batches and
// oversized declared counts must error, never panic or over-allocate.
func FuzzReadBatchFrame(f *testing.F) {
	var typed bytes.Buffer
	_ = WriteBatchFrame(&typed, []streams.Message{typedMsg(1), typedMsg(2)})
	f.Add(typed.Bytes())
	var mixed bytes.Buffer
	_ = WriteBatchFrame(&mixed, []streams.Message{
		{Tag: "raw", Type: streams.TypeJSON, Data: []byte(`{"op":"open"}`), Producer: "p", Seq: 1},
		{Tag: "s", Type: streams.TypeString, Data: []byte("x")},
	})
	f.Add(mixed.Bytes())
	f.Add(appendFrameV1(nil, []streams.Message{typedMsg(1), typedMsg(2)}))
	f.Add([]byte{batchMagic, batchVersion, 0, 0, 0, 1, 0})             // zero records
	f.Add([]byte{batchMagic, batchVersion, 0xFF, 0xFF, 0xFF, 0xFF})    // oversized frame
	f.Add([]byte{batchMagic, batchVersion, 0, 0, 0, 3, 0x80, 0x80, 1}) // hostile count varint
	f.Add([]byte{batchMagic, 99, 0, 0, 0, 1, 1})                       // bad version
	f.Add(typed.Bytes()[:8])                                           // truncated
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		msgs, err := readAnyFrameHeap(bufio.NewReader(bytes.NewReader(data)))
		// The receive path's reader, and the arena-pooled decoder the
		// benchmark times, must make the same accept/reject decision on
		// every input and yield the same messages: equal batches re-encode
		// to equal bytes (float bits included, where NaN defeats
		// DeepEqual).
		agree := func(name string, got []streams.Message, gerr error) {
			if (err == nil) != (gerr == nil) {
				t.Fatalf("decoders disagree on validity: heap err=%v, %s err=%v", err, name, gerr)
			}
			if gerr != nil {
				return
			}
			if len(got) != len(msgs) {
				t.Fatalf("%s path decoded %d messages, heap %d", name, len(got), len(msgs))
			}
			if g, w := streams.AppendRecords(nil, got), streams.AppendRecords(nil, msgs); !bytes.Equal(g, w) {
				t.Fatalf("%s and heap decodes differ:\n %s % x\n heap % x", name, name, g, w)
			}
		}
		rmsgs, rerr := readAnyFrame(NewBatchDecoder(), bufio.NewReader(bytes.NewReader(data)))
		agree("receive", rmsgs, rerr)
		// A receive store walks a version-2 payload without decoding it,
		// and must refuse exactly the payloads the decoders refuse.
		if version, payload, perr := NewBatchDecoder().readBatchPayload(bytes.NewReader(data)); perr == nil && version == streams.BodyV2 {
			var w rowStore
			w.init(func(int, uint64) error { return nil })
			if berr := w.StoreRound(Run{Body: payload}, 0, func(error) {}); (berr == nil) != (err == nil) {
				t.Fatalf("the receive store's walk and the decoders disagree on validity: walk err=%v, heap err=%v", berr, err)
			}
		}
		if len(data) > 0 && data[0] == batchMagic {
			smsgs, slab, serr := NewBatchDecoder().ReadBatchFrameSlab(bytes.NewReader(data))
			agree("slab", smsgs, serr)
			if serr == nil {
				slab.Release()
			}
		}
		bodyLeg(t, data)
		if err != nil {
			return
		}
		// A parsed batch must reserialize: every message must be writable
		// as part of a fresh batch frame.
		if len(msgs) > 0 {
			var out bytes.Buffer
			if werr := WriteBatchFrame(&out, msgs); werr != nil {
				t.Fatalf("reserialize failed: %v", werr)
			}
		}
	})
}

// bodyLeg is FuzzReadBatchFrame's body-path leg. A payload PublishBody
// refuses leaves the stream — stats, segment, window — untouched. One it
// takes must deliver the messages the decode path delivers, to the same
// ack floor and with the same retained Bytes once it is canonical (it
// re-encodes to itself; the body path keeps the bytes it was given), and
// a stream uplink must forward it as the stored body it is.
func bodyLeg(t *testing.T, data []byte) {
	d := NewBatchDecoder()
	version, payload, err := d.readBatchPayload(bytes.NewReader(data))
	if err != nil {
		return
	}
	body, dec := newHopStream(t), newHopStream(t)
	if _, ok := body.bus.PublishBody(version, payload, d.in, HeartbeatTag); !ok {
		if st := body.s.Stats(); st.Appended != 0 || st.Msgs != 0 || st.Bytes != 0 || body.wal.Len() != 0 {
			t.Fatalf("a refused payload reached the stream: %+v, %d segment bytes", st, body.wal.Len())
		}
		return
	}
	msgs, err := decodeFrame(version, payload)
	if err != nil {
		t.Fatalf("the body path took a payload the decoder refuses: %v", err)
	}
	canonical := bytes.Equal(streams.AppendRecords(nil, msgs), payload)
	dec.bus.PublishBatch(msgs)
	fetch := func(h hopStream) ([]streams.Delivery, uint64) {
		c, err := h.s.Consumer(streams.ConsumerConfig{Name: "leg", MaxInflight: len(msgs)})
		if err != nil {
			t.Fatal(err)
		}
		ds, err := c.Fetch(len(msgs))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AckBatch(ds); err != nil {
			t.Fatal(err)
		}
		return ds, c.AckFloor()
	}
	bds, bfloor := fetch(body)
	dds, dfloor := fetch(dec)
	if len(bds) != len(dds) || bfloor != dfloor {
		t.Fatalf("body path delivered %d to floor %d, decode path %d to floor %d", len(bds), bfloor, len(dds), dfloor)
	}
	for i := range bds {
		one, two := []streams.Message{bds[i].Msg}, []streams.Message{dds[i].Msg}
		if bds[i].Seq != dds[i].Seq || !bytes.Equal(streams.AppendRecords(nil, one), streams.AppendRecords(nil, two)) {
			t.Fatalf("delivery %d differs: %+v / %+v", i, bds[i], dds[i])
		}
	}
	if canonical && body.s.Stats() != dec.s.Stats() {
		t.Fatalf("stats differ: body path %+v, decode path %+v", body.s.Stats(), dec.s.Stats())
	}
	c, err := body.s.Consumer(streams.ConsumerConfig{Name: "fwd", MaxInflight: len(msgs)})
	if err != nil {
		t.Fatal(err)
	}
	if ds, err := c.FetchBodies(len(msgs)); err != nil || !bytes.Equal(ds[0].Body, payload) {
		t.Fatalf("forwarded % x (%v), want the payload % x", ds[0].Body, err, payload)
	}
	ingestLeg(t, version, payload)
}

// ingestLeg is bodyLeg's store step: a body the stream took, stored as
// the body it rests as, builds the rows and dead letters that decoding
// it (DecodeRecords, event.Fields, dsos.ObjectsFromMessage) does.
func ingestLeg(t *testing.T, version byte, payload []byte) {
	msgs, err := streams.DecodeRecords(version, payload)
	if err != nil {
		t.Fatalf("a body the stream took does not decode: %v", err)
	}
	var want []string
	var wantDead []string
	for _, m := range msgs {
		msg, err := event.Fields(m)
		if err != nil {
			wantDead = append(wantDead, err.Error())
			continue
		}
		for _, o := range dsos.ObjectsFromMessage(msg) {
			want = append(want, rowBits(o))
		}
	}
	c := dsos.NewCluster(1, "darshan_data")
	if err := dsos.SetupDarshan(c); err != nil {
		t.Fatal(err)
	}
	store := NewDSOSStore(dsos.Connect(c))
	var dead []string
	run := Run{Msgs: make([]streams.Message, len(msgs)), Body: payload}
	if err := store.StoreRound(run, 0, func(err error) { dead = append(dead, err.Error()) }); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, o := range store.objs {
		got = append(got, rowBits(o))
	}
	if !slices.Equal(got, want) || !slices.Equal(dead, wantDead) {
		t.Fatalf("body ingest built rows %q, dead letters %q; decoding built %q, %q", got, dead, want, wantDead)
	}
}

// rowBits renders a row with its floats as their bits, NaNs included.
func rowBits(o sos.Object) string {
	var b strings.Builder
	for i := 0; i < o.Len(); i++ {
		switch o.Type(i) {
		case sos.TypeFloat64:
			fmt.Fprintf(&b, "%x|", math.Float64bits(o.Float(i)))
		case sos.TypeInt64:
			fmt.Fprintf(&b, "%d|", o.Int(i))
		case sos.TypeUint64:
			fmt.Fprintf(&b, "%d|", o.Uint(i))
		default:
			fmt.Fprintf(&b, "%q|", o.Str(i))
		}
	}
	return b.String()
}

// TestBatchDecoderSlabMatchesLegacy: the receive path's decode, and the
// arena-pooled one the benchmark times, must be observationally identical
// to the allocating one (readAnyFrameHeap: the decoder durable streams
// read segments with) — same envelopes, same typed fields, same opaque
// payloads — for a mixed batch and for a legacy single-message frame.
func TestBatchDecoderSlabMatchesLegacy(t *testing.T) {
	in := []streams.Message{
		typedMsg(1),
		{Tag: "raw", Type: streams.TypeJSON, Data: []byte(`{"op":"open"}`), Producer: "p", Seq: 2},
		{Tag: "str", Type: streams.TypeString, Data: []byte("hello")},
		typedMsg(3),
	}
	var buf bytes.Buffer
	if err := WriteBatchFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, streams.Message{
		Tag: "legacy", Type: streams.TypeJSON, Data: []byte(`{"op":"close"}`), Producer: "q", Seq: 9,
	}); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()

	same := func(frame int, via string, got, want []streams.Message) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("frame %d: %d messages via %s, %d via heap", frame, len(got), via, len(want))
		}
		for i := range want {
			if got[i].Tag != want[i].Tag || got[i].Type != want[i].Type ||
				got[i].Producer != want[i].Producer || got[i].Seq != want[i].Seq {
				t.Fatalf("frame %d msg %d envelope mismatch via %s:\n got %+v\nwant %+v", frame, i, via, got[i], want[i])
			}
			wantFields, wantErr := event.Fields(want[i])
			gotFields, gotErr := event.Fields(got[i])
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("frame %d msg %d parse disagreement via %s: %v vs %v", frame, i, via, gotErr, wantErr)
			}
			if wantErr == nil && !reflect.DeepEqual(gotFields, wantFields) {
				t.Fatalf("frame %d msg %d fields mismatch via %s:\n got %+v\nwant %+v", frame, i, via, gotFields, wantFields)
			}
			if !bytes.Equal(got[i].Data, want[i].Data) {
				t.Fatalf("frame %d msg %d payload mismatch via %s", frame, i, via)
			}
		}
	}

	heapBR := bufio.NewReader(bytes.NewReader(wire))
	recvBR := bufio.NewReader(bytes.NewReader(wire))
	dec := NewBatchDecoder()
	var prev []streams.Message
	var prevRaw []byte
	for frame := 0; frame < 2; frame++ {
		want, err := readAnyFrameHeap(heapBR)
		if err != nil {
			t.Fatalf("frame %d heap: %v", frame, err)
		}
		got, err := readAnyFrame(dec, recvBR)
		if err != nil {
			t.Fatalf("frame %d receive: %v", frame, err)
		}
		same(frame, "receive", got, want)
		// Opaque payloads must be self-owned copies: decoding the next
		// frame into the same decoder must not disturb them (a bound
		// stream or a handler may keep these bytes).
		if prev != nil && !bytes.Equal(prev[1].Data, prevRaw) {
			t.Fatalf("frame %d: the previous frame's opaque payload changed", frame)
		}
		prev, prevRaw = got, append([]byte(nil), got[1%len(got)].Data...)
	}

	// The slab decoder reads the batch frame.
	want, err := readAnyFrameHeap(bufio.NewReader(bytes.NewReader(wire)))
	if err != nil {
		t.Fatal(err)
	}
	got, slab, err := NewBatchDecoder().ReadBatchFrameSlab(bytes.NewReader(wire))
	if err != nil {
		t.Fatalf("slab: %v", err)
	}
	same(0, "slab", got, want)
	// Releasing the slab must not disturb its opaque payloads either.
	rawBefore := append([]byte(nil), got[1].Data...)
	slab.Release()
	if !bytes.Equal(got[1].Data, rawBefore) {
		t.Fatal("opaque payload changed after slab release")
	}
}
