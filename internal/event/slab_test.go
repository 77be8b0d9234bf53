package event

import (
	"bytes"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/streams"
)

// TestSlabPoolLifecycle pins the ref-count contract: Get holds one
// reference, Retain adds one, the final Release resets the slab and
// returns it to the pool, and the pool's Get/return counters balance.
func TestSlabPoolLifecycle(t *testing.T) {
	var p SlabPool
	s := p.Get()
	if !s.Retained() {
		t.Fatal("fresh Get is not retained")
	}
	s.Retain() // refs=2
	s.Release()
	if !s.Retained() {
		t.Fatal("slab released to the pool while a reference was still held")
	}
	if _, puts := p.Counters(); puts != 0 {
		t.Fatalf("pool saw a return with a reference outstanding (puts=%d)", puts)
	}
	s.Release()
	if s.Retained() {
		t.Fatal("slab still retained after the last Release")
	}
	gets, puts := p.Counters()
	if gets != 1 || puts != 1 {
		t.Fatalf("counters = (%d gets, %d puts), want balanced (1, 1)", gets, puts)
	}
}

func TestSlabRetainAfterFinalReleasePanics(t *testing.T) {
	s := &Slab{}
	s.refs.Store(1)
	s.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Retain of a released slab did not panic")
		}
	}()
	s.Retain()
}

func TestSlabOverReleasePanics(t *testing.T) {
	s := &Slab{}
	s.refs.Store(1)
	s.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Release past zero did not panic")
		}
	}()
	s.Release()
}

// TestSlabArenaRewinds pins the reuse that makes the pool worthwhile: after
// a full release the next checkout hands back the same arena memory
// instead of growing new chunks.
func TestSlabArenaRewinds(t *testing.T) {
	s := &Slab{}
	s.refs.Store(1)
	m1 := s.Msg()
	seg1 := s.Segments(3)
	s.Release()

	s.refs.Store(1)
	if m2 := s.Msg(); m2 != m1 {
		t.Fatal("message arena did not rewind: second life allocated a new chunk")
	}
	if seg2 := s.Segments(3); &seg2[0] != &seg1[0] {
		t.Fatal("segment arena did not rewind")
	}
	s.Release()
}

// decodeHeap is the independent reference the slab decoder is compared
// against: the production heap decoder (recordCodec.DecodeTyped, what a
// durable stream reads its typed records with), which owns every byte it
// returns.
func decodeHeap(b []byte) (*jsonmsg.Message, int, error) {
	c, n, err := recordCodec{}.DecodeTyped(b)
	if err != nil {
		return nil, 0, err
	}
	return c.(*Record).TypedFields(), n, nil
}

// TestDecodeMessageSlabMatchesHeap is the inline differential check the
// fuzz target generalizes: both decoders agree on a valid record.
func TestDecodeMessageSlabMatchesHeap(t *testing.T) {
	enc := AppendMessage(nil, sampleMessage())
	heap, n1, err := decodeHeap(enc)
	if err != nil {
		t.Fatal(err)
	}
	s := &Slab{}
	s.refs.Store(1)
	defer s.Release()
	slabbed, n2, err := DecodeMessageSlab(enc, s, NewInterner())
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 {
		t.Fatalf("consumed %d bytes on the slab path, %d on the heap path", n2, n1)
	}
	if !reflect.DeepEqual(heap, slabbed) {
		t.Fatalf("slab decode diverged:\n got %+v\nwant %+v", slabbed, heap)
	}
	if !reflect.DeepEqual(slabbed, sampleMessage()) {
		t.Fatalf("round trip lost fields: %+v", slabbed)
	}
}

// TestInternerDedups: repeated content returns the identical string with
// no new table entry; the front cache serves exact content only.
func TestInternerDedups(t *testing.T) {
	in := NewInterner()
	a := in.Intern([]byte("POSIX"))
	b := in.Intern([]byte("POSIX"))
	if a != "POSIX" || b != "POSIX" {
		t.Fatalf("interned %q, %q", a, b)
	}
	if in.Len() != 1 {
		t.Fatalf("table holds %d entries after two identical interns, want 1", in.Len())
	}
	// Two values that collide in the direct-mapped front cache (same
	// length, same first and last byte) must still intern correctly.
	c1 := in.Intern([]byte("axb"))
	c2 := in.Intern([]byte("ayb"))
	if c1 != "axb" || c2 != "ayb" {
		t.Fatalf("front-cache collision corrupted values: %q, %q", c1, c2)
	}
	if got := in.Intern(nil); got != "" {
		t.Fatalf("Intern(nil) = %q, want empty", got)
	}
}

// TestInternerBounded: past maxInterned entries the table stops growing
// but Intern still returns correct strings.
func TestInternerBounded(t *testing.T) {
	in := NewInterner()
	for i := 0; i < maxInterned+16; i++ {
		s := "k" + strconv.Itoa(i)
		if got := in.Intern([]byte(s)); got != s {
			t.Fatalf("Intern(%q) = %q", s, got)
		}
	}
	if in.Len() != maxInterned {
		t.Fatalf("table grew to %d entries, want capped at %d", in.Len(), maxInterned)
	}
	if got := in.Intern([]byte("straggler")); got != "straggler" {
		t.Fatalf("full interner mangled a new string: %q", got)
	}
}

// TestDetachCarrierDeepCopies: a detached record must survive its slab
// being released and the arena memory rewound for the next frame.
func TestDetachCarrierDeepCopies(t *testing.T) {
	enc := AppendMessage(nil, sampleMessage())
	s := &Slab{}
	s.refs.Store(1)
	m, _, err := DecodeMessageSlab(enc, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := s.Wrap(m, nil)
	det, ok := streams.Detach(streams.Message{Record: rec}).Record.(*Record)
	if !ok {
		t.Fatalf("detached carrier is %T, want *Record", det)
	}
	if det == rec {
		t.Fatal("slab-owned record detached to itself")
	}
	s.Release()

	// Second life of the same arenas: overwrite everything the first
	// frame decoded.
	s.refs.Store(1)
	hostile := sampleMessage()
	hostile.Module = "CLOBBER"
	hostile.Seg[0].Off = -777
	if _, _, err := DecodeMessageSlab(AppendMessage(nil, hostile), s, nil); err != nil {
		t.Fatal(err)
	}
	got, err := det.Fields()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sampleMessage()) {
		t.Fatalf("detached record changed when its slab was reused:\n got %+v\nwant %+v", got, sampleMessage())
	}
	s.Release()

	// A heap record detaches to itself — no copy tax off the slab path.
	heap := NewRecord(sampleMessage(), nil)
	if streams.Detach(streams.Message{Record: heap}).Record.(*Record) != heap {
		t.Fatal("heap record was needlessly copied by Detach")
	}
}

// TestSlabConcurrentDecodeNoReuseWhileRetained is the -race leg of the
// lifecycle contract: decoders on several goroutines share one pool, each
// hands its decoded batch to a consumer goroutine holding its own
// reference, and every consumer must observe exactly the frame it was
// given — a slab recycled while still retained shows up as a clobbered
// Seq (and as a data race under -race).
func TestSlabConcurrentDecodeNoReuseWhileRetained(t *testing.T) {
	const workers = 4
	const frames = 200
	var pool SlabPool
	var wg sync.WaitGroup
	errs := make(chan string, workers*frames)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			in := NewInterner()
			var consumers sync.WaitGroup
			for i := 0; i < frames; i++ {
				seq := uint64(w*frames + i)
				msg := sampleMessage()
				msg.Seq = seq
				enc := AppendMessage(nil, msg)

				s := pool.Get()
				m, _, err := DecodeMessageSlab(enc, s, in)
				if err != nil {
					errs <- err.Error()
					s.Release()
					continue
				}
				s.Retain() // consumer's reference
				consumers.Add(1)
				go func(m *jsonmsg.Message, s *Slab, want uint64) {
					defer consumers.Done()
					defer s.Release()
					if m.Seq != want {
						errs <- "slab reused while retained: seq " +
							strconv.FormatUint(m.Seq, 10) + " != " + strconv.FormatUint(want, 10)
					}
				}(m, s, seq)
				s.Release() // decoder's reference
			}
			consumers.Wait()
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	gets, puts := pool.Counters()
	if gets != puts {
		t.Fatalf("pool counters drifted after quiesce: %d gets, %d puts", gets, puts)
	}
}

// FuzzSlabCodec differentially fuzzes the two binary decoders: for any
// input the heap path (decodeHeap) and the arena path
// (DecodeMessageSlab + Interner) must agree byte-for-byte — same
// accept/reject decision, same consumed length, same decoded record — and
// any accepted record must re-encode identically from both.
func FuzzSlabCodec(f *testing.F) {
	f.Add(AppendMessage(nil, sampleMessage()))
	multi := sampleMessage()
	multi.Seg = append(multi.Seg, multi.Seg[0], multi.Seg[0])
	f.Add(AppendMessage(nil, multi))
	empty := &jsonmsg.Message{}
	f.Add(AppendMessage(nil, empty))
	valid := AppendMessage(nil, sampleMessage())
	f.Add(valid[:len(valid)/2])
	f.Add(bytes.Repeat([]byte{0xFF}, 32))

	f.Fuzz(func(t *testing.T, data []byte) {
		heap, n1, err1 := decodeHeap(data)
		s := &Slab{}
		s.refs.Store(1)
		defer s.Release()
		slabbed, n2, err2 := DecodeMessageSlab(data, s, NewInterner())

		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("decoders disagree on validity: heap err=%v, slab err=%v", err1, err2)
		}
		if err1 != nil {
			return
		}
		if n1 != n2 {
			t.Fatalf("consumed %d (heap) vs %d (slab) bytes", n1, n2)
		}
		// Records are compared through their canonical encoding, which
		// carries every field and the float bits verbatim: DeepEqual would
		// call a record holding a NaN different from itself.
		re1 := AppendMessage(nil, heap)
		re2 := AppendMessage(nil, slabbed)
		if !bytes.Equal(re1, re2) {
			t.Fatalf("decoded records diverge:\n heap %+v\n slab %+v", heap, slabbed)
		}
		// The canonical re-encoding must itself round-trip.
		again, _, err := decodeHeap(re1)
		if err != nil {
			t.Fatalf("re-encoding of an accepted record rejected: %v", err)
		}
		if !bytes.Equal(AppendMessage(nil, again), re1) {
			t.Fatalf("re-encode round trip drifted:\n got %+v\nwant %+v", again, heap)
		}
	})
}
