package ldms

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"darshanldms/internal/rng"
	"darshanldms/internal/streams"
)

// The -reconnect uplink's source used to be a bounded in-memory spool
// (the reference in spool_test.go); it is now a memory-only stream
// behind the same Cursor as the durable uplink. These tests hold the
// stream to the spool under each overflow policy: on a seeded schedule
// both deliver the same messages, in the same order, with the same drop
// counts. The two differences there are are pinned by
// TestSpoolStreamDifferences.

// diffSource is one side of the differential: publish puts messages on
// the daemon's bus, round takes up to a round, reports whether the send
// failed (fail) and returns what it delivered, and dropped is what the
// source counted lost.
type diffSource struct {
	publish func(ms ...streams.Message)
	round   func(fail bool) []uint64
	dropped func() uint64
}

func diffMsg(seq uint64) streams.Message {
	return streams.Message{
		Tag: "darshanConnector", Type: streams.TypeJSON,
		Data: []byte(fmt.Sprintf(`{"seq":%d}`, seq)), Producer: "nid00040", Seq: seq,
	}
}

func seqsOf(ms []streams.Message) []uint64 {
	out := make([]uint64, len(ms))
	for i, m := range ms {
		out[i] = m.Seq
	}
	return out
}

func spoolSource(t *testing.T, size, round int, policy streams.OverflowPolicy) diffSource {
	bus := streams.NewBus()
	s := newRefSpool(bus, "darshanConnector", size, round, policy)
	t.Cleanup(s.stop)
	return diffSource{
		publish: func(ms ...streams.Message) { bus.PublishBatch(ms) },
		round: func(fail bool) []uint64 {
			if s.drained() {
				return nil
			}
			if fail {
				s.take()
				s.settle(false) // the round stays in hand
			}
			msgs, _ := s.take()
			got := seqsOf(msgs)
			s.settle(true)
			return got
		},
		dropped: func() uint64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.dropped
		},
	}
}

// memStream opens the -reconnect source on bus: the spool, with the
// uplink's consumer on it.
func memStream(t *testing.T, bus *streams.Bus, size int, policy streams.OverflowPolicy) (*streams.DurableStream, *streams.Consumer) {
	t.Helper()
	s := openSpool(t, bus, size, policy)
	cons, err := s.Consumer(streams.ConsumerConfig{Name: "uplink", MaxInflight: 2 * RoundSize})
	if err != nil {
		t.Fatal(err)
	}
	return s, cons
}

func streamSource(t *testing.T, size, round int, policy streams.OverflowPolicy) diffSource {
	bus := streams.NewBus()
	s, cons := memStream(t, bus, size, policy)
	t.Cleanup(cons.Close)
	cur := NewStoreCursor(cons)
	cur.max = round
	next := func() []uint64 {
		msgs, ends, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		var got []uint64
		for i, lo := 0, 0; i < len(ends); lo, i = ends[i], i+1 {
			if cur.stored[i] == nil {
				got = append(got, seqsOf(msgs[lo:ends[i]])...)
				continue
			}
			ms, err := streams.DecodeRecords(streams.BodyV2, cur.stored[i])
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, seqsOf(ms)...)
		}
		return got
	}
	return diffSource{
		publish: func(ms ...streams.Message) { bus.PublishBatch(ms) },
		round: func(fail bool) []uint64 {
			if fail && len(next()) > 0 {
				cur.Settle(0) // naked whole, due at once
			}
			got := next()
			cur.Settle(len(cur.round))
			return got
		},
		dropped: func() uint64 {
			st := s.Stats()
			return st.Dropped + st.Refused
		},
	}
}

// TestSpoolStreamDifferential: for drop-oldest and drop-newest, a seeded
// schedule of single-message publishes and rounds — some failing once and
// retried — sends the same sequence with the same drop count through the
// spool and through the memory-only stream, compared after every step.
// Block is concurrent by nature: a publisher of batches, some larger
// than the window, that outruns a small window is held back by each, and
// both deliver everything, in order, dropping nothing.
func TestSpoolStreamDifferential(t *testing.T) {
	for _, policy := range []streams.OverflowPolicy{streams.DropOldest, streams.DropNewest} {
		var drops uint64
		for seed := uint64(1); seed <= 25; seed++ {
			r := rng.New(seed)
			size, round := 1+r.Intn(12), 1+r.Intn(8)
			ref, got := spoolSource(t, size, round, policy), streamSource(t, size, round, policy)
			var sent [2][]uint64
			next := uint64(1)
			for step := 0; step < 200; step++ {
				switch k := r.Intn(10); {
				case k < 5:
					for n := 1 + r.Intn(6); n > 0; n-- {
						ref.publish(diffMsg(next))
						got.publish(diffMsg(next))
						next++
					}
				default:
					// A retried round may differ in shape — the spool resends
					// the round it kept, the cursor refetches the naked
					// deliveries and whatever new fits beside them — so the
					// sequences are compared sent so far, not round by round.
					fail := k == 9
					sent[0] = append(sent[0], ref.round(fail)...)
					sent[1] = append(sent[1], got.round(fail)...)
				}
				if n := min(len(sent[0]), len(sent[1])); !slices.Equal(sent[0][:n], sent[1][:n]) {
					t.Fatalf("%s seed %d step %d: spool sent %v, stream %v", policy, seed, step, sent[0], sent[1])
				}
				if a, b := ref.dropped(), got.dropped(); a != b {
					t.Fatalf("%s seed %d step %d: spool dropped %d, stream %d", policy, seed, step, a, b)
				}
			}
			for {
				a, b := ref.round(false), got.round(false)
				if len(a)+len(b) == 0 {
					break
				}
				sent[0], sent[1] = append(sent[0], a...), append(sent[1], b...)
			}
			if !slices.Equal(sent[0], sent[1]) {
				t.Fatalf("%s seed %d: spool sent %v, stream %v", policy, seed, sent[0], sent[1])
			}
			drops += ref.dropped()
		}
		if drops == 0 {
			t.Fatalf("%s: no schedule overflowed its window", policy)
		}
	}

	t.Run("block", func(t *testing.T) {
		const total = 300
		for name, src := range map[string]diffSource{
			"spool":  spoolSource(t, 4, 3, streams.Block),
			"stream": blockingStreamSource(t, 4, 3),
		} {
			r := rng.New(7)
			go func() {
				// Batches of up to 7 against a window of 4: a batch larger
				// than the window waits for it to empty, then goes in whole.
				pr := rng.New(11)
				for i := uint64(1); i <= total; {
					var batch []streams.Message
					for n := 1 + pr.Intn(7); n > 0 && i <= total; n, i = n-1, i+1 {
						batch = append(batch, diffMsg(i))
					}
					src.publish(batch...)
				}
			}()
			var got []uint64
			for deadline := time.Now().Add(10 * time.Second); len(got) < total; {
				if time.Now().After(deadline) {
					t.Fatalf("%s delivered %d of %d: %v", name, len(got), total, got)
				}
				got = append(got, src.round(r.Intn(4) == 0)...)
			}
			for i, seq := range got {
				if seq != uint64(i+1) {
					t.Fatalf("%s delivered %v, want 1..%d in order", name, got, total)
				}
			}
			if d := src.dropped(); d != 0 {
				t.Fatalf("%s dropped %d under block", name, d)
			}
		}
	})
}

// blockingStreamSource is streamSource whose round sleeps on the stream
// for up to 100ms when it is empty, as the uplink's take does, rather
// than returning nothing at once: a Block publisher fills the window
// concurrently.
func blockingStreamSource(t *testing.T, size, round int) diffSource {
	src := streamSource(t, size, round, streams.Block)
	inner := src.round
	src.round = func(fail bool) []uint64 {
		for i := 0; i < 100; i++ {
			if got := inner(fail); len(got) > 0 {
				return got
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	}
	return src
}

// TestSpoolStreamDifferences pins the three ways the stream's window is
// not the spool's queue. All come from the stream holding what it has
// not yet sent as one window of stored batches:
//   - the window counts the round in hand, which the spool kept beside
//     its bound, so while a round is out the stream holds a round fewer
//     of what follows;
//   - a batch that does not fit whole is refused whole under
//     drop-newest, where the spool filled its last slots from it;
//   - a batch larger than the whole window goes into an empty one whole
//     under drop-newest, where the spool kept its first size messages.
func TestSpoolStreamDifferences(t *testing.T) {
	t.Run("round in hand", func(t *testing.T) {
		for _, policy := range []streams.OverflowPolicy{streams.DropOldest, streams.DropNewest} {
			bus := streams.NewBus()
			spool := newRefSpool(bus, "darshanConnector", 4, 2, policy)
			s, cons := memStream(t, bus, 4, policy)
			cur := NewStoreCursor(cons)
			cur.max = 2
			for i := uint64(1); i <= 2; i++ {
				bus.Publish(diffMsg(i))
			}
			spool.take()
			if msgs, _, _ := cur.Next(); len(msgs) != 2 {
				t.Fatalf("%s: stream round of %d, want 2", policy, len(msgs))
			}
			for i := uint64(3); i <= 8; i++ {
				bus.Publish(diffMsg(i))
			}
			st := s.Stats()
			if spool.dropped != 2 || st.Dropped+st.Refused != 4 {
				t.Fatalf("%s: spool dropped %d, stream %d; want 2 and 4 (the round in hand is in the window)",
					policy, spool.dropped, st.Dropped+st.Refused)
			}
			spool.stop()
			cons.Close()
		}
	})
	t.Run("batch that does not fit", func(t *testing.T) {
		bus := streams.NewBus()
		spool := newRefSpool(bus, "darshanConnector", 4, 4, streams.DropNewest)
		s, cons := memStream(t, bus, 4, streams.DropNewest)
		defer cons.Close()
		defer spool.stop()
		bus.PublishBatch([]streams.Message{diffMsg(1), diffMsg(2)})
		bus.PublishBatch([]streams.Message{diffMsg(3), diffMsg(4), diffMsg(5)})
		if st := s.Stats(); spool.dropped != 1 || st.Refused != 3 || st.Msgs != 2 {
			t.Fatalf("spool dropped %d; stream refused %d and holds %d; want 1, 3 and 2", spool.dropped, st.Refused, st.Msgs)
		}
	})
	t.Run("batch larger than the window", func(t *testing.T) {
		bus := streams.NewBus()
		spool := newRefSpool(bus, "darshanConnector", 4, 4, streams.DropNewest)
		s, cons := memStream(t, bus, 4, streams.DropNewest)
		defer cons.Close()
		defer spool.stop()
		bus.PublishBatch([]streams.Message{diffMsg(1), diffMsg(2), diffMsg(3), diffMsg(4), diffMsg(5), diffMsg(6)})
		if st := s.Stats(); spool.dropped != 2 || st.Refused+st.Dropped != 0 || st.Msgs != 6 {
			t.Fatalf("spool dropped %d; stream lost %d and holds %d; want 2, 0 and 6", spool.dropped, st.Refused+st.Dropped, st.Msgs)
		}
	})
}
