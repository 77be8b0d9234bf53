package ldms

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
)

// hopStream is one daemon's receive side: a bus binding a stream on a
// memory segment, its clock pinned so two of them write the same bytes.
type hopStream struct {
	bus *streams.Bus
	s   *streams.DurableStream
	wal *sos.MemWAL
}

func newHopStream(t testing.TB) hopStream {
	t.Helper()
	h := hopStream{bus: streams.NewBus(), wal: sos.NewMemWAL()}
	var err error
	if h.s, err = streams.OpenStream(streams.StreamConfig{Name: "hop"}, h.wal); err != nil {
		t.Fatal(err)
	}
	if err := h.bus.BindStream(h.s); err != nil {
		t.Fatal(err)
	}
	return h
}

func (h hopStream) segment(t testing.TB) []byte {
	t.Helper()
	r, err := h.wal.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// receive feeds one batch frame to both receive paths: the body path
// (PublishBody) to body and the decode path (decode, then PublishBatch)
// to dec. It reports whether the body path took the frame.
func receive(t testing.TB, frame []byte, body, dec hopStream) bool {
	t.Helper()
	d := NewBatchDecoder()
	version, payload, err := d.readBatchPayload(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	_, ok := body.bus.PublishBody(version, payload, d.in, HeartbeatTag)
	msgs, err := readAnyFrame(NewBatchDecoder(), bufio.NewReader(bytes.NewReader(frame)))
	if err != nil {
		t.Fatal(err)
	}
	dec.bus.PublishBatch(msgs)
	return ok
}

// forward drains s through the stream uplink's round step and returns the
// frames it would write, and how many of them were stored bodies.
func forward(t testing.TB, s *streams.DurableStream, name string, bodies bool) ([]byte, int) {
	t.Helper()
	cons, err := s.Consumer(streams.ConsumerConfig{Name: name})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCursor(cons, RoundSize)
	c.bodies = bodies
	var out bytes.Buffer
	verbatim := 0
	for {
		msgs, ends, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) == 0 {
			return out.Bytes(), verbatim
		}
		lo := 0
		for i, hi := range ends {
			if bodies && c.stored[i] != nil {
				err = writeBatchBody(&out, c.stored[i])
				verbatim++
			} else {
				err = WriteBatchFrame(&out, msgs[lo:hi])
			}
			if err != nil {
				t.Fatal(err)
			}
			lo = hi
		}
		c.Settle(len(msgs))
	}
}

// TestStoredBodyIdentity is the differential test of forwarding bytes:
// for frames shaped like the benchmark generator's, the body path stores
// byte for byte what decoding and AppendBatch store, and the frames a
// stream uplink writes from stored bodies are byte for byte the frames
// WriteBatchFrame writes over the decoded rounds. With 64-event frames
// every round is one whole stored batch; 50-event frames are cut by the
// 64-message round, so every other run falls back to decoding.
func TestStoredBodyIdentity(t *testing.T) {
	for _, per := range []int{64, 50} {
		body, dec := newHopStream(t), newHopStream(t)
		frames := genFrames(2022, 1000, per)
		for _, f := range frames {
			var w bytes.Buffer
			if err := WriteBatchFrame(&w, f); err != nil {
				t.Fatal(err)
			}
			if !receive(t, w.Bytes(), body, dec) {
				t.Fatalf("%d-event frames: the body path refused a frame", per)
			}
		}
		if got, want := body.segment(t), dec.segment(t); !bytes.Equal(got, want) {
			t.Fatalf("%d-event frames: segments differ at byte %d of %d", per, firstDiff(got, want), len(want))
		}
		got, verbatim := forward(t, body.s, "bodies", true)
		want, _ := forward(t, dec.s, "decoded", false)
		if !bytes.Equal(got, want) {
			t.Fatalf("%d-event frames: forwarded frames differ at byte %d of %d", per, firstDiff(got, want), len(want))
		}
		wantVerbatim := len(frames)
		if per == 50 {
			wantVerbatim = 0 // whole only where a round happens to start and end on a batch
			for i := 0; i < 1000; i += RoundSize {
				for lo := i + (per-i%per)%per; lo+per <= min(i+RoundSize, 1000); lo += per {
					wantVerbatim++
				}
			}
		}
		if verbatim != wantVerbatim {
			t.Errorf("%d-event frames: %d frames written from stored bodies, want %d", per, verbatim, wantVerbatim)
		}
	}
}
