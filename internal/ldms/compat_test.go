package ldms

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"darshanldms/internal/event"
	"darshanldms/internal/streams"
)

var update = flag.Bool("update", false, "rewrite the frozen batch frame in testdata")

// appendFrameV1 is a version-1 batch frame of msgs, built by hand: every
// string spelled out, every number as it stands, typed bodies by
// event.AppendMessage.
func appendFrameV1(b []byte, msgs []streams.Message) []byte {
	str := func(b []byte, s string) []byte {
		return append(binary.AppendUvarint(b, uint64(len(s))), s...)
	}
	b = append(b, batchMagic, streams.BodyV1, 0, 0, 0, 0)
	at := len(b)
	b = binary.AppendUvarint(b, uint64(len(msgs)))
	for _, m := range msgs {
		kind := byte(streams.RecOpaque)
		if m.Record != nil {
			kind = streams.RecTyped
		}
		b = append(b, kind)
		b = str(b, m.Tag)
		b = binary.AppendUvarint(b, uint64(m.Type))
		b = str(b, m.Producer)
		b = binary.AppendUvarint(b, m.Seq)
		if kind == streams.RecTyped {
			f, _ := event.Fields(m)
			b = event.AppendMessage(b, f)
		} else {
			b = str(b, string(m.Data))
		}
	}
	binary.BigEndian.PutUint32(b[at-4:at], uint32(len(b)-at))
	return b
}

// TestV1BatchFrameReadCompat: a batch frame from a version-1 sender still
// decodes through BatchDecoder to the messages it was built from, and so
// does the frame the version-2 writer makes of them. The version-1 bytes
// are frozen in testdata/batch-frame-v1.bin (go test -run
// V1BatchFrameReadCompat -update rewrites them).
func TestV1BatchFrameReadCompat(t *testing.T) {
	in := []streams.Message{
		typedMsg(1),
		{Tag: "raw", Type: streams.TypeJSON, Data: []byte(`{"op":"open"}`), Producer: "p", Seq: 2},
		typedMsg(3),
		{Tag: "str", Type: streams.TypeString, Data: []byte("hello")},
	}
	built := appendFrameV1(nil, in)
	golden := filepath.Join("testdata", "batch-frame-v1.bin")
	if *update {
		if err := os.WriteFile(golden, built, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	frozen, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frozen, built) {
		t.Fatal("the hand-built version-1 frame no longer matches testdata/batch-frame-v1.bin")
	}
	var v2 bytes.Buffer
	if err := WriteBatchFrame(&v2, in); err != nil {
		t.Fatal(err)
	}
	if v2.Bytes()[1] != streams.BodyV2 || v2.Len() >= len(frozen) {
		t.Fatalf("version-2 frame: version %d, %d bytes against version 1's %d", v2.Bytes()[1], v2.Len(), len(frozen))
	}
	dec := NewBatchDecoder()
	for _, wire := range [][]byte{frozen, v2.Bytes(), frozen} {
		got, slab, err := dec.ReadAnyFrameSlab(bufio.NewReader(bytes.NewReader(wire)))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(in) {
			t.Fatalf("decoded %d messages, want %d", len(got), len(in))
		}
		for i := range in {
			if got[i].Tag != in[i].Tag || got[i].Type != in[i].Type || got[i].Producer != in[i].Producer ||
				got[i].Seq != in[i].Seq || !bytes.Equal(got[i].Data, in[i].Data) {
				t.Fatalf("message %d: got %+v, want %+v", i, got[i], in[i])
			}
			if in[i].Record != nil {
				wf, _ := event.Fields(in[i])
				gf, err := event.Fields(got[i])
				if err != nil || !bytes.Equal(event.AppendMessage(nil, gf), event.AppendMessage(nil, wf)) {
					t.Fatalf("message %d fields: got %+v, want %+v", i, gf, wf)
				}
			}
		}
		slab.Release()
	}
}
