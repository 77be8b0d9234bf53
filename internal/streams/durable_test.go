package streams

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"darshanldms/internal/sos"
)

// testClock is a hand-cranked clock for driving retention ages and
// redelivery deadlines deterministically.
type testClock struct{ now time.Duration }

func (c *testClock) Now() time.Duration       { return c.now }
func (c *testClock) Advance(d time.Duration)  { c.now += d }
func (c *testClock) fn() func() time.Duration { return func() time.Duration { return c.now } }

func mustOpenStream(t *testing.T, cfg StreamConfig, store sos.WALStore) *DurableStream {
	t.Helper()
	if store == nil {
		store = sos.NewMemWAL()
	}
	s, err := OpenStream(cfg, store)
	if err != nil {
		t.Fatalf("OpenStream(%q): %v", cfg.Name, err)
	}
	return s
}

func mustAppend(t *testing.T, s *DurableStream, subject, payload string) uint64 {
	t.Helper()
	seq, err := s.Append(Message{Tag: subject, Type: TypeJSON, Data: []byte(payload)})
	if err != nil {
		t.Fatalf("Append(%s): %v", subject, err)
	}
	return seq
}

// checkConservation asserts the stream accounting invariants that the
// chaos soak audits globally: Appended == Msgs + Dropped + Released, the
// dropped and released total equals the window shift (both only trim the
// head), and the per-reason counts sum to the total.
func checkConservation(t *testing.T, s *DurableStream) {
	t.Helper()
	st := s.Stats()
	if st.Appended != uint64(st.Msgs)+st.Dropped+st.Released {
		t.Fatalf("conservation violated: appended %d != msgs %d + dropped %d + released %d",
			st.Appended, st.Msgs, st.Dropped, st.Released)
	}
	if st.Dropped+st.Released != st.FirstSeq-1 {
		t.Fatalf("drop accounting violated: dropped %d + released %d != firstSeq-1 %d",
			st.Dropped, st.Released, st.FirstSeq-1)
	}
	var sum uint64
	for _, n := range st.DroppedFor {
		sum += n
	}
	if sum != st.Dropped {
		t.Fatalf("per-reason drops sum to %d, total says %d", sum, st.Dropped)
	}
}

func TestStreamAppendAssignsSequences(t *testing.T) {
	s := mustOpenStream(t, StreamConfig{Name: "darshan"}, nil)
	for i := 1; i <= 5; i++ {
		if seq := mustAppend(t, s, "darshan.n.posix", fmt.Sprintf("m%d", i)); seq != uint64(i) {
			t.Fatalf("append %d assigned seq %d", i, seq)
		}
	}
	st := s.Stats()
	if st.FirstSeq != 1 || st.LastSeq != 5 || st.Msgs != 5 || st.Dropped != 0 {
		t.Fatalf("stats %+v", st)
	}
	checkConservation(t, s)
}

func TestStreamPersistsAcrossReopen(t *testing.T) {
	wal := sos.NewMemWAL()
	cfg := StreamConfig{Name: "darshan"}
	s := mustOpenStream(t, cfg, wal)
	mustAppend(t, s, "darshan.n.posix", `{"op":"open"}`)
	mustAppend(t, s, "darshan.n.mpiio", `{"op":"write"}`)

	// "Crash": drop the stream object, reopen from the same segment.
	s2 := mustOpenStream(t, cfg, wal)
	st := s2.Stats()
	if st.LastSeq != 2 || st.Msgs != 2 {
		t.Fatalf("reopened stats %+v", st)
	}
	c, err := s2.Consumer(ConsumerConfig{Name: "reader"})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := c.Fetch(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 2 || ds[0].Msg.Tag != "darshan.n.posix" || string(ds[1].Msg.Data) != `{"op":"write"}` {
		t.Fatalf("recovered deliveries %+v", ds)
	}
	if ds[0].Msg.Type != TypeJSON {
		t.Fatalf("payload type not recovered: %v", ds[0].Msg.Type)
	}
}

func TestStreamOpaqueCarrierPersisted(t *testing.T) {
	// A carrier the typed plane's codec does not know has only its bytes
	// to offer: it is stored opaque and survives a reopen byte-for-byte.
	// (A typed record is NOT forced — TestStreamLazyPayloadNotForced.)
	wal := sos.NewMemWAL()
	s := mustOpenStream(t, StreamConfig{Name: "darshan"}, wal)
	if _, err := s.Append(Message{Tag: "t", Type: TypeJSON, Record: carrierFunc(`{"lazy":true}`)}); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpenStream(t, StreamConfig{Name: "darshan"}, wal)
	c, _ := s2.Consumer(ConsumerConfig{Name: "r"})
	ds, _ := c.Fetch(1)
	if len(ds) != 1 || string(ds[0].Msg.Payload()) != `{"lazy":true}` {
		t.Fatalf("lazy payload not persisted: %+v", ds)
	}
}

// carrierFunc adapts a literal string into a lazy payload Carrier.
type carrierFunc string

func (c carrierFunc) Payload() []byte { return []byte(c) }

func TestRetentionByCount(t *testing.T) {
	s := mustOpenStream(t, StreamConfig{
		Name: "darshan", Retention: RetentionPolicy{MaxMsgs: 3},
	}, nil)
	for i := 1; i <= 10; i++ {
		mustAppend(t, s, "t", fmt.Sprintf("m%d", i))
	}
	st := s.Stats()
	if st.Msgs != 3 || st.FirstSeq != 8 || st.Dropped != 7 || st.DroppedFor[DropByCount] != 7 {
		t.Fatalf("stats %+v", st)
	}
	checkConservation(t, s)
}

func TestRetentionByBytes(t *testing.T) {
	s := mustOpenStream(t, StreamConfig{
		Name: "darshan", Retention: RetentionPolicy{MaxBytes: 10},
	}, nil)
	for i := 0; i < 6; i++ {
		mustAppend(t, s, "t", "aaaa") // 4 bytes each; bound admits 2
	}
	st := s.Stats()
	if st.Msgs != 2 || st.Bytes != 8 || st.DroppedFor[DropByBytes] != 4 {
		t.Fatalf("stats %+v", st)
	}
	checkConservation(t, s)
}

func TestRetentionByAge(t *testing.T) {
	clk := &testClock{}
	s := mustOpenStream(t, StreamConfig{
		Name: "darshan", Clock: clk.fn(),
		Retention: RetentionPolicy{MaxAge: 10 * time.Second},
	}, nil)
	mustAppend(t, s, "t", "old1")
	mustAppend(t, s, "t", "old2")
	clk.Advance(11 * time.Second)
	mustAppend(t, s, "t", "new") // the append's retention pass evicts both
	st := s.Stats()
	if st.Msgs != 1 || st.DroppedFor[DropByAge] != 2 {
		t.Fatalf("stats %+v", st)
	}
	checkConservation(t, s)
}

func TestRetentionAgeAppliedAtReopen(t *testing.T) {
	// Messages that expired while the process was down are trimmed by the
	// reopen itself, with the drop accounted durably.
	clk := &testClock{}
	wal := sos.NewMemWAL()
	cfg := StreamConfig{
		Name: "darshan", Clock: clk.fn(),
		Retention: RetentionPolicy{MaxAge: 5 * time.Second},
	}
	s := mustOpenStream(t, cfg, wal)
	mustAppend(t, s, "t", "doomed")
	clk.Advance(time.Hour)
	s2 := mustOpenStream(t, cfg, wal)
	st := s2.Stats()
	if st.Msgs != 0 || st.DroppedFor[DropByAge] != 1 || st.FirstSeq != 2 {
		t.Fatalf("stats after expired reopen %+v", st)
	}
	checkConservation(t, s2)
}

func TestDropAccountingSurvivesReopen(t *testing.T) {
	wal := sos.NewMemWAL()
	cfg := StreamConfig{Name: "darshan", Retention: RetentionPolicy{MaxMsgs: 2}}
	s := mustOpenStream(t, cfg, wal)
	for i := 0; i < 9; i++ {
		mustAppend(t, s, "t", strings.Repeat("x", i+1))
	}
	before := s.Stats()

	s2 := mustOpenStream(t, cfg, wal)
	after := s2.Stats()
	if after.Dropped != before.Dropped || after.DroppedFor != before.DroppedFor ||
		after.FirstSeq != before.FirstSeq || after.LastSeq != before.LastSeq ||
		after.Bytes != before.Bytes {
		t.Fatalf("accounting drifted across reopen:\n before %+v\n after  %+v", before, after)
	}
	checkConservation(t, s2)
}

func TestTornTailTruncated(t *testing.T) {
	wal := sos.NewMemWAL()
	cfg := StreamConfig{Name: "darshan"}
	s := mustOpenStream(t, cfg, wal)
	mustAppend(t, s, "t", "whole")
	clean := wal.Len()
	mustAppend(t, s, "t", "torn-away")
	_ = wal.Reset(int64(clean + 3)) // crash mid-write of the second record

	s2 := mustOpenStream(t, cfg, wal)
	st := s2.Stats()
	if st.LastSeq != 1 || st.Msgs != 1 {
		t.Fatalf("torn tail not discarded: %+v", st)
	}
	// Appends resume with the lost sequence number reassigned.
	if seq := mustAppend(t, s2, "t", "resumed"); seq != 2 {
		t.Fatalf("resumed append got seq %d, want 2", seq)
	}
}

func TestStreamConfigValidation(t *testing.T) {
	if _, err := OpenStream(StreamConfig{}, sos.NewMemWAL()); err == nil {
		t.Fatal("nameless stream accepted")
	}
	// A window that keeps acked entries could never make room for Block
	// or DropNewest; only a memory-only stream releases them.
	for _, p := range []OverflowPolicy{DropNewest, Block} {
		if _, err := OpenStream(StreamConfig{Name: "s", Overflow: p}, sos.NewMemWAL()); err == nil {
			t.Fatalf("overflow %s on a segment-backed stream accepted", p)
		}
	}
	if _, err := OpenStream(StreamConfig{Name: "s", Subjects: []string{">.bad"}}, sos.NewMemWAL()); err == nil {
		t.Fatal("invalid subject filter accepted")
	}
}

func TestStreamSubjectFiltering(t *testing.T) {
	s := mustOpenStream(t, StreamConfig{
		Name: "darshan", Subjects: []string{"darshan.*.posix", "meta"},
	}, nil)
	for _, c := range []struct {
		subject string
		want    bool
	}{
		{"darshan.n.posix", true},
		{"meta", true},
		{"darshan.n.mpiio", false},
		{"slurm", false},
	} {
		if got := s.Matches(c.subject); got != c.want {
			t.Errorf("Matches(%q) = %v, want %v", c.subject, got, c.want)
		}
	}
	if got := s.Subjects(); len(got) != 2 {
		t.Fatalf("Subjects() = %v", got)
	}
}

func TestBusBindStreamRoutesMatching(t *testing.T) {
	b := NewBus()
	s := mustOpenStream(t, StreamConfig{Name: "darshan", Subjects: []string{"darshan.>"}}, nil)
	if err := b.BindStream(s); err != nil {
		t.Fatal(err)
	}
	if err := b.BindStream(s); err == nil {
		t.Fatal("double bind accepted")
	}
	// No handler subscribed: the stream alone counts as a receiver.
	if n := b.Publish(Message{Tag: "darshan.n.posix", Type: TypeString, Data: []byte("kept")}); n != 1 {
		t.Fatalf("publish reached %d receivers, want 1 (the stream)", n)
	}
	if n := b.Publish(Message{Tag: "slurm.job", Type: TypeString, Data: []byte("dropped")}); n != 0 {
		t.Fatalf("non-matching publish reached %d receivers", n)
	}
	if st := s.Stats(); st.Appended != 1 {
		t.Fatalf("stream appended %d, want 1", st.Appended)
	}
	bus := b.Stats("darshan.n.posix")
	if bus.Delivered != 1 || bus.Dropped != 0 {
		t.Fatalf("bus stats %+v", bus)
	}
	if st := b.Stats("slurm.job"); st.Dropped != 1 {
		t.Fatalf("non-matching publish not counted dropped: %+v", st)
	}
	if !b.UnbindStream("darshan") || b.UnbindStream("darshan") {
		t.Fatal("unbind bookkeeping")
	}
	b.Publish(Message{Tag: "darshan.n.posix", Type: TypeString, Data: []byte("after-unbind")})
	if st := s.Stats(); st.Appended != 1 {
		t.Fatalf("unbound stream still appended: %+v", st)
	}
}

func TestStreamStringAndName(t *testing.T) {
	s := mustOpenStream(t, StreamConfig{Name: "darshan"}, nil)
	if s.Name() != "darshan" {
		t.Fatal("name")
	}
	if got := s.String(); !strings.Contains(got, "darshan") {
		t.Fatalf("String() = %q", got)
	}
	for _, r := range []DropReason{DropByCount, DropByBytes, DropByAge, DropReason(9)} {
		if r.String() == "" {
			t.Fatal("empty reason name")
		}
	}
}
