package streams

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"darshanldms/internal/rng"
)

func openMemory(t *testing.T, size int, policy OverflowPolicy) (*DurableStream, *Consumer) {
	t.Helper()
	s, err := OpenStream(StreamConfig{
		Name: "ldmsd", Retention: RetentionPolicy{MaxMsgs: size}, Overflow: policy,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Consumer(ConsumerConfig{Name: "uplink", MaxInflight: 4})
	if err != nil {
		t.Fatal(err)
	}
	return s, c
}

func memBatch(n int, seq *uint64) []Message {
	msgs := make([]Message, n)
	for i := range msgs {
		*seq++
		msgs[i] = Message{Tag: "darshanConnector", Type: TypeJSON, Data: []byte(fmt.Sprintf(`{"seq":%d}`, *seq))}
	}
	return msgs
}

// checkBooks is checkConservation plus what a memory-only window adds:
// every published message was appended or refused, and the window holds
// at most bound messages.
func checkBooks(t *testing.T, s *DurableStream, published uint64, bound int) {
	t.Helper()
	checkConservation(t, s)
	st := s.Stats()
	if published != st.Appended+st.Refused {
		t.Fatalf("published %d != appended %d + refused %d", published, st.Appended, st.Refused)
	}
	if st.Msgs > bound {
		t.Fatalf("window holds %d, bound %d", st.Msgs, bound)
	}
}

// TestMemoryStreamBooks: a memory-only stream keeps its books after every
// step of a seeded schedule — single and batch appends, some larger than
// the window, fetches, acks, naks and drains — under each overflow policy: an
// acked entry leaves the window as released, drop-oldest trims the head
// as a drop by count, drop-newest refuses whole appends, block and
// drop-newest take a batch larger than the window whole into an empty
// one and never drop by count, and nothing breaks
// Appended == Msgs + Dropped + Released. Under block, a publisher held by
// the full window is woken by the ack that makes room, and refused once
// the consumer is gone.
func TestMemoryStreamBooks(t *testing.T) {
	const size, over = 8, 4 // a batch is at most size+over long
	for _, policy := range []OverflowPolicy{DropOldest, DropNewest, Block} {
		t.Run(policy.String(), func(t *testing.T) {
			s, c := openMemory(t, size, policy)
			bound := size + over
			if policy == DropOldest {
				bound = size
			}
			r := rng.New(uint64(policy) + 1)
			var published, seq, whole uint64
			var held []Delivery
			for step := 0; step < 2000; step++ {
				switch r.Intn(6) {
				case 0, 1:
					n := 1 + r.Intn(4)
					if r.Intn(8) == 0 {
						n = size + 1 + r.Intn(over)
					}
					before := s.Stats()
					if policy == Block && before.Msgs > 0 && before.Msgs+n > size {
						break // would wait for an ack this schedule has not made
					}
					published += uint64(n)
					if _, err := s.AppendBatch(memBatch(n, &seq)); err != nil && !errors.Is(err, ErrWindowFull) {
						t.Fatal(err)
					}
					if n > size && before.Msgs == 0 && policy != DropOldest {
						if st := s.Stats(); st.Msgs != n {
							t.Fatalf("a batch of %d into an empty window left %d", n, st.Msgs)
						}
						whole++
					}
				case 2:
					ds, err := c.Fetch(1 + r.Intn(3))
					if err != nil {
						t.Fatal(err)
					}
					held = append(held, ds...)
				case 3:
					if err := c.AckBatch(held); err != nil {
						t.Fatal(err)
					}
					held = nil
				case 4:
					for _, d := range held {
						if err := c.Nak(d.Seq); err != nil {
							t.Fatal(err)
						}
					}
					held = nil
				case 5: // drain: the window empties
					for {
						ds, err := c.Fetch(4)
						if err != nil {
							t.Fatal(err)
						}
						held = append(held, ds...)
						if err := c.AckBatch(held); err != nil {
							t.Fatal(err)
						}
						held = nil
						if len(ds) == 0 {
							break
						}
					}
				}
				checkBooks(t, s, published, bound)
			}
			st := s.Stats()
			if st.Released == 0 || (policy == DropOldest) != (st.DroppedFor[DropByCount] > 0) ||
				(policy == DropNewest) != (st.Refused > 0) || (policy == DropOldest) != (whole == 0) {
				t.Fatalf("the schedule did not exercise the policy: %+v, %d whole oversized batches", st, whole)
			}
		})
	}

	t.Run("a batch larger than the window", func(t *testing.T) {
		for _, policy := range []OverflowPolicy{DropNewest, Block} {
			s, c := openMemory(t, 2, policy)
			var published, seq uint64
			published += 5
			if _, err := s.AppendBatch(memBatch(5, &seq)); err != nil {
				t.Fatalf("%s: %v", policy, err)
			}
			if st := s.Stats(); st.Msgs != 5 || st.Dropped != 0 {
				t.Fatalf("%s: holding %d, dropped %d; want 5 and 0", policy, st.Msgs, st.Dropped)
			}
			if policy == DropNewest {
				published++
				if _, err := s.AppendBatch(memBatch(1, &seq)); !errors.Is(err, ErrWindowFull) {
					t.Fatalf("append past an oversized batch: %v, want ErrWindowFull", err)
				}
			}
			ds, err := c.Fetch(4)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.AckBatch(ds); err != nil {
				t.Fatal(err)
			}
			checkBooks(t, s, published, 5)
			if st := s.Stats(); st.Msgs != 1 || st.Released != 4 || st.Dropped != 0 || st.Refused != published-5 {
				t.Fatalf("%s: %+v; want 1 held, 4 released, none dropped, %d refused", policy, st, published-5)
			}
			c.Close()
		}
	})

	t.Run("block publisher woken by an ack", func(t *testing.T) {
		s, c := openMemory(t, 2, Block)
		var published, seq uint64
		published += 2
		if _, err := s.AppendBatch(memBatch(2, &seq)); err != nil {
			t.Fatal(err)
		}
		ds, err := c.Fetch(2)
		if err != nil || len(ds) != 2 {
			t.Fatalf("fetched %d, %v", len(ds), err)
		}
		appendOne := func() chan error {
			done := make(chan error, 1)
			go func() {
				_, err := s.AppendBatch(memBatch(1, &seq))
				done <- err
			}()
			select {
			case err := <-done:
				t.Fatalf("append to a full window returned %v, want it held", err)
			case <-time.After(20 * time.Millisecond):
			}
			published++
			return done
		}
		done := appendOne()
		checkBooks(t, s, published-1, 2)
		if err := c.AckBatch(ds[:1]); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatalf("append woken by the ack: %v", err)
		}
		checkBooks(t, s, published, 2)
		if st := s.Stats(); st.Released != 1 || st.Msgs != 2 {
			t.Fatalf("released %d, holding %d; want 1 and 2", st.Released, st.Msgs)
		}
		done = appendOne()
		c.Close()
		if err := <-done; !errors.Is(err, ErrWindowFull) {
			t.Fatalf("append with no consumer left: %v, want ErrWindowFull", err)
		}
		checkBooks(t, s, published, 2)
		if st := s.Stats(); st.Refused != 1 {
			t.Fatalf("refused %d, want 1", st.Refused)
		}
	})
}

func TestParseOverflowPolicy(t *testing.T) {
	cases := map[string]OverflowPolicy{
		"": DropOldest, "drop-oldest": DropOldest,
		"drop-newest": DropNewest, "block": Block,
	}
	for in, want := range cases {
		got, err := ParseOverflowPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseOverflowPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
		if in != "" && got.String() != in {
			t.Fatalf("round trip %q -> %q", in, got)
		}
	}
	if _, err := ParseOverflowPolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}
