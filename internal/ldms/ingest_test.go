package ldms

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"darshanldms/internal/dsos"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
)

// Tests of the store hop (IngestStream): a fetched round settles with one
// ack and one commit — one insert, one log record per shard — per stored
// batch in it, and the consumer's durable ack floor is the commit point a
// restart cuts the shard logs back to.

// ingestCluster is a two-shard cluster whose logs live on the given
// backings, recovered up to floor as dsosd recovers its own.
func ingestCluster(t *testing.T, logs []sos.WALStore, floor, last uint64) (*dsos.Cluster, []sos.WALReplay) {
	t.Helper()
	c := dsos.NewCluster(len(logs), "darshan_data")
	if err := dsos.SetupDarshan(c); err != nil {
		t.Fatal(err)
	}
	var rs []sos.WALReplay
	for i, d := range c.Daemons() {
		r, err := d.RecoverWAL(logs[i], floor, last)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	return c, rs
}

// runIngest starts IngestStream and returns a stop function that closes
// the consumer and returns what the loop returned.
func runIngest(t *testing.T, cons *streams.Consumer, store RoundStore, onErr func(error)) (stop func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- IngestStream(cons, store, onErr) }()
	return func() error {
		cons.Close()
		select {
		case err := <-done:
			return err
		case <-time.After(5 * time.Second):
			t.Fatal("IngestStream did not return after Close")
			return nil
		}
	}
}

// segOffsets counts the stored rows by seg offset, the per-message
// identity of typedMsg: a count above one is a duplicate.
func segOffsets(t *testing.T, cl *dsos.Client) map[int64]int {
	t.Helper()
	objs, err := cl.Query("job_rank_time", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]int{}
	for _, o := range objs {
		seen[o.Int(jsonmsg.ColSegOff)]++
	}
	return seen
}

// TestIngestStreamSettlesByRound: a round is one commit. Ten messages plus
// a second copy of one identity inside the same round land as one log
// record on each shard and one cursor checkpoint; the copy is absorbed,
// and every record carries the round's token, so a replay bounded below it
// applies nothing.
func TestIngestStreamSettlesByRound(t *testing.T) {
	seg := &writeCounter{MemWAL: sos.NewMemWAL()}
	s := openTestStream(t, seg)
	const n = 10
	batch := make([]streams.Message, 0, n+1)
	for i := 1; i <= n; i++ {
		batch = append(batch, typedMsg(uint64(i)))
	}
	batch = append(batch, typedMsg(3)) // a replay inside the round
	if _, err := s.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	logs := []*writeCounter{{MemWAL: sos.NewMemWAL()}, {MemWAL: sos.NewMemWAL()}}
	c, _ := ingestCluster(t, []sos.WALStore{logs[0], logs[1]}, math.MaxUint64, math.MaxUint64)
	cl := dsos.Connect(c)
	dedup := NewDedupStore(NewDSOSStore(cl))
	cons, err := s.Consumer(streams.ConsumerConfig{Name: "ingest"})
	if err != nil {
		t.Fatal(err)
	}
	stop := runIngest(t, cons, dedup, func(err error) { t.Errorf("ingest: %v", err) })
	waitFor(t, "round settled", func() bool { return cons.AckFloor() == n+1 })
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if got := seg.writes.Load(); got != 2 {
		t.Errorf("%d segment writes, want 1 append + 1 checkpoint", got)
	}
	for i, l := range logs {
		if got := l.writes.Load(); got != 1 {
			t.Errorf("shard %d: %d log writes for one round, want 1", i, got)
		}
		r, err := sos.ReplayWALTo(l, n, func(string, sos.Object, uint64) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if r.Rows != 0 || r.Consumed != 0 || r.Above != n+1 || r.Dropped != n/2 {
			t.Errorf("shard %d replayed below the round's token: %+v, want everything past floor %d under token %d", i, r, n, n+1)
		}
	}
	offs := segOffsets(t, cl)
	if len(offs) != n || dedup.Duplicates() != 1 || dedup.Stored() != n {
		t.Fatalf("%d distinct rows, %d duplicates absorbed, %d stored; want %d, 1, %d", len(offs), dedup.Duplicates(), dedup.Stored(), n, n)
	}
	for off, k := range offs {
		if k != 1 {
			t.Fatalf("row at offset %d stored %d times", off, k)
		}
	}
}

// roundStub is a RoundStore whose next rounds fail with chosen errors.
type roundStub struct {
	mu     sync.Mutex
	fail   []error
	rounds [][]uint64 // the producer seqs of every committed round
	tokens []uint64   // and its token
	bodies []bool     // and whether it came as a stored body
}

func (s *roundStub) Name() string { return "store_round_stub" }
func (s *roundStub) Store(m streams.Message) error {
	return s.StoreRound(Run{Msgs: []streams.Message{m}}, 0, nil)
}
func (s *roundStub) StoreRound(run Run, token uint64, _ func(error)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.fail) > 0 {
		err := s.fail[0]
		s.fail = s.fail[1:]
		if err != nil {
			return err
		}
	}
	ms := run.Msgs
	if run.Body != nil {
		var err error
		if ms, err = streams.DecodeRecords(streams.BodyV2, run.Body); err != nil {
			return err
		}
	}
	var seqs []uint64
	for _, m := range ms {
		seqs = append(seqs, m.Seq)
	}
	s.rounds = append(s.rounds, seqs)
	s.tokens = append(s.tokens, token)
	s.bodies = append(s.bodies, run.Body != nil)
	return nil
}

// TestIngestStreamCommitsByStoredBatch: a round that spans stored batches
// is one commit per batch — messages appended alone share one — each
// tagged with its own highest sequence, and one ack. Each whole stored
// batch reaches the store as its stored body, the messages appended alone
// as messages. A batch refused inside a round leaves the batches before
// it acked and is retried with the rest, still as its body.
func TestIngestStreamCommitsByStoredBatch(t *testing.T) {
	s := openTestStream(t, sos.NewMemWAL())
	var msgs []streams.Message
	for i := 1; i <= 11; i++ {
		msgs = append(msgs, typedMsg(uint64(i)))
	}
	for _, b := range [][]streams.Message{msgs[:3], msgs[3:5], msgs[5:6], msgs[6:7], msgs[7:9], msgs[9:]} {
		if _, err := s.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	refused := fmt.Errorf("owner down: %w", dsos.ErrNothingWritten)
	store := &roundStub{fail: []error{nil, nil, nil, refused}}
	cons, err := s.Consumer(streams.ConsumerConfig{Name: "ingest"})
	if err != nil {
		t.Fatal(err)
	}
	stop := runIngest(t, cons, store, func(err error) {
		if !errors.Is(err, dsos.ErrNothingWritten) {
			t.Errorf("reported %v, want the refusal", err)
		}
	})
	waitFor(t, "all settled", func() bool { return cons.AckFloor() == 11 })
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprint(store.rounds, store.tokens, store.bodies)
	if want := "[[1 2 3] [4 5] [6 7] [8 9] [10 11]] [3 5 7 9 11] [true true false true true]"; got != want {
		t.Fatalf("batches of 3 and 2, two singles and two batches of 2 committed as %s, want %s", got, want)
	}
	if cs := cons.Stats(); cs.Naks != 4 || cs.Acked != 11 {
		t.Fatalf("consumer %+v, want the refused batch and the one behind it (4) naked, all 11 acked", cs)
	}
}

// TestIngestStreamRefusedRoundRetriesWhole: a round the store refused
// before writing anything is naked whole and committed whole on the
// retry; a round that failed after a partial write stops the loop with
// its error and leaves the floor where it was.
func TestIngestStreamRefusedRoundRetriesWhole(t *testing.T) {
	s := openTestStream(t, sos.NewMemWAL())
	for i := 1; i <= 5; i++ {
		appendSeq(t, s, i)
	}
	refused := fmt.Errorf("owner down: %w", dsos.ErrNothingWritten)
	store := &roundStub{fail: []error{refused, refused}}
	cons, err := s.Consumer(streams.ConsumerConfig{Name: "ingest"})
	if err != nil {
		t.Fatal(err)
	}
	var reported atomic.Int64
	stop := runIngest(t, cons, store, func(err error) {
		if !errors.Is(err, dsos.ErrNothingWritten) {
			t.Errorf("reported %v, want the refusal", err)
		}
		reported.Add(1)
	})
	waitFor(t, "refused round committed", func() bool { return cons.AckFloor() == 5 })
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	cs := cons.Stats()
	if reported.Load() != 2 || cs.Naks != 10 || cs.Acked != 5 || len(store.rounds) != 1 || len(store.rounds[0]) != 5 {
		t.Fatalf("%d refusals reported, consumer %+v, committed %v; want 2, 10 naks, 5 acked, one round of 5",
			reported.Load(), cs, store.rounds)
	}

	// A partial write: the loop stops, naks the round, and the floor holds.
	for i := 6; i <= 8; i++ {
		appendSeq(t, s, i)
	}
	partial := errors.New("shard log write failed")
	store.fail = []error{partial}
	cons, err = s.Consumer(streams.ConsumerConfig{Name: "ingest"})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- IngestStream(cons, store, func(err error) { t.Errorf("reported %v", err) }) }()
	select {
	case err := <-done:
		if !errors.Is(err, partial) {
			t.Fatalf("IngestStream returned %v, want the partial round's error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a partly stored round did not stop the loop")
	}
	if cs := cons.Stats(); cs.AckFloor != 5 || cs.Naks != 3 {
		t.Fatalf("consumer after the partial round: %+v, want floor 5 and the round of 3 naked", cs)
	}
}

// TestIngestStreamDeadLettersUndecodable: a message that can never decode
// is dead-lettered — one store error, acked with its round — instead of
// naked forever: the floor moves past it and the valid message behind it
// is stored.
func TestIngestStreamDeadLettersUndecodable(t *testing.T) {
	s := openTestStream(t, sos.NewMemWAL())
	if _, err := s.Append(streams.Message{Tag: "darshanConnector", Type: streams.TypeJSON, Data: []byte(`{"op":`), Producer: "nid00040", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(typedMsg(2)); err != nil {
		t.Fatal(err)
	}
	c, _ := ingestCluster(t, []sos.WALStore{sos.NewMemWAL(), sos.NewMemWAL()}, math.MaxUint64, math.MaxUint64)
	cl := dsos.Connect(c)
	cons, err := s.Consumer(streams.ConsumerConfig{Name: "ingest"})
	if err != nil {
		t.Fatal(err)
	}
	var storeErrs atomic.Int64
	stop := runIngest(t, cons, NewDedupStore(NewDSOSStore(cl)), func(error) { storeErrs.Add(1) })
	time.Sleep(300 * time.Millisecond) // idle: a spinning loop would nak and redeliver here
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	cs := cons.Stats()
	if storeErrs.Load() > 1 || cs.AckFloor != 2 || cs.Naks != 0 || cs.Redelivered != 0 {
		t.Fatalf("%d store errors, consumer %+v; want at most 1 and the floor at 2 with no redelivery", storeErrs.Load(), cs)
	}
	if got := cl.Count(dsos.DarshanSchemaName); got != 1 {
		t.Fatalf("%d rows stored, want the valid message's 1", got)
	}
}

// crashDisk is a log backing on which one chosen write freezes its writer,
// before or after the bytes land: a process killed at that point. The
// test then copies every disk as it stands.
type crashDisk struct {
	*sos.MemWAL
	writes  atomic.Int64
	at      int64 // the write that freezes (0: none)
	after   bool  // freeze once the write has landed
	frozen  chan struct{}
	release chan struct{}
}

func newCrashDisk() *crashDisk {
	return &crashDisk{MemWAL: sos.NewMemWAL(), frozen: make(chan struct{}), release: make(chan struct{})}
}

func (d *crashDisk) Write(p []byte) (int, error) {
	n := d.writes.Add(1)
	if n == d.at && !d.after {
		d.freeze()
	}
	w, err := d.MemWAL.Write(p)
	if n == d.at && d.after {
		d.freeze()
	}
	return w, err
}

func (d *crashDisk) freeze() {
	close(d.frozen)
	<-d.release
}

// image copies the disk's bytes as they stand.
func (d *crashDisk) image(t *testing.T) *sos.MemWAL {
	t.Helper()
	r, err := d.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	img := sos.NewMemWAL()
	if _, err := img.Write(b); err != nil {
		t.Fatal(err)
	}
	return img
}

// TestIngestStreamKilledAtEachPoint kills the store hop at each point of
// a round — before any share is written, between the shards' shares,
// after every share but before the checkpoint, after the checkpoint —
// reopens the stream and the shard logs as they stood, and ingests the
// rest. Every point must store each message exactly once: a log record
// past the recovered floor is cut and redelivered, one at or below it is
// kept and not redelivered.
func TestIngestStreamKilledAtEachPoint(t *testing.T) {
	// 100 messages: round 1 is 64 (32 rows per shard, one record each, one
	// checkpoint), round 2 the last 36 (18 per shard). Disk writes: the
	// segment takes the append and one checkpoint per round; each shard
	// log one record per round. Every kill lands in round 2.
	const n = 100
	for _, tc := range []struct {
		name      string
		disk      int // 0, 1: the shard logs; 2: the segment
		at        int64
		after     bool
		floor     uint64
		dropped   int
		recovered int
	}{
		{"before any share", 0, 2, false, 64, 0, 64},
		{"between shares", 1, 2, false, 64, 18, 64},
		{"before the checkpoint", 2, 3, false, 64, 36, 64},
		{"after the checkpoint", 2, 3, true, 100, 0, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			disks := []*crashDisk{newCrashDisk(), newCrashDisk(), newCrashDisk()}
			victim := disks[tc.disk]
			victim.at, victim.after = tc.at, tc.after
			s := openTestStream(t, disks[2])
			batch := make([]streams.Message, n)
			for i := range batch {
				batch[i] = typedMsg(uint64(i + 1))
			}
			if _, err := s.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
			c, _ := ingestCluster(t, []sos.WALStore{disks[0], disks[1]}, math.MaxUint64, math.MaxUint64)
			cons, err := s.Consumer(streams.ConsumerConfig{Name: "ingest"})
			if err != nil {
				t.Fatal(err)
			}
			stop := runIngest(t, cons, NewDedupStore(NewDSOSStore(dsos.Connect(c))), func(err error) { t.Errorf("ingest: %v", err) })
			select {
			case <-victim.frozen:
			case <-time.After(10 * time.Second):
				t.Fatal("the crash point was never reached")
			}
			images := []*sos.MemWAL{disks[0].image(t), disks[1].image(t), disks[2].image(t)}
			close(victim.release) // the killed incarnation's disks are not read again
			if err := stop(); err != nil {
				t.Fatal(err)
			}

			// Restart on the images: the stream and cursor first, then each
			// shard log up to the floor they recovered.
			s2 := openTestStream(t, images[2])
			cons2, err := s2.Consumer(streams.ConsumerConfig{Name: "ingest"})
			if err != nil {
				t.Fatal(err)
			}
			floor := cons2.AckFloor()
			c2, rs := ingestCluster(t, []sos.WALStore{images[0], images[1]}, floor, s2.Stats().LastSeq)
			cl2 := dsos.Connect(c2)
			if got := rs[0].Rows + rs[1].Rows; floor != tc.floor || got != tc.recovered || rs[0].Dropped+rs[1].Dropped != tc.dropped {
				t.Errorf("recovered floor %d, %d rows, %d dropped (%+v); want %d, %d, %d", floor, got, rs[0].Dropped+rs[1].Dropped, rs, tc.floor, tc.recovered, tc.dropped)
			}
			stop2 := runIngest(t, cons2, NewDedupStore(NewDSOSStore(cl2)), func(err error) { t.Errorf("ingest: %v", err) })
			waitFor(t, "the rest ingested", func() bool { return cons2.AckFloor() == n })
			if err := stop2(); err != nil {
				t.Fatal(err)
			}
			offs := segOffsets(t, cl2)
			for i := 1; i <= n; i++ {
				if k := offs[int64(i)*4096]; k != 1 {
					t.Errorf("message %d stored %d times", i, k)
				}
			}
			if len(offs) != n {
				t.Errorf("%d distinct rows stored, want %d", len(offs), n)
			}
		})
	}
}

// TestRecoverRefusesAnotherIncarnationsLog: a shard log tagged past the
// stream's last sequence was not written against this stream, and
// recovery refuses it without cutting a byte.
func TestRecoverRefusesAnotherIncarnationsLog(t *testing.T) {
	log := sos.NewMemWAL()
	w := sos.NewWAL(log)
	rows := []sos.Object{dsos.ObjectsFromMessage(batchSample(1))[0], dsos.ObjectsFromMessage(batchSample(2))[0]}
	if err := w.AppendBatch(dsos.DarshanSchemaName, rows, nil, 40); err != nil {
		t.Fatal(err)
	}
	before := log.Len()
	c := dsos.NewCluster(1, "darshan_data")
	if err := dsos.SetupDarshan(c); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Daemons()[0].RecoverWAL(log, 0, 10); err == nil {
		t.Fatal("recovered a log tagged 40 against a stream whose last sequence is 10")
	}
	if log.Len() != before {
		t.Fatalf("refused recovery cut the log from %d to %d bytes", before, log.Len())
	}
}
