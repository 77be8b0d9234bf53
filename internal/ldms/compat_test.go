package ldms

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"

	"darshanldms/internal/event"
	"darshanldms/internal/streams"
)

var update = flag.Bool("update", false, "rewrite the frozen version-1 batch frame in testdata")

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
		got, err := readAnyFrame(dec, bufio.NewReader(bytes.NewReader(wire)))
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
	}
}

// legacyFrames are the messages frozen in testdata/legacy-frame.bin, as
// WriteFrame wrote them while daemons still sent legacy frames: a stamped
// connector message, an unstamped one and a heartbeat.
func legacyFrames() []streams.Message {
	const job7 = `{"uid":99066,"exe":"/projects/mpi-io-test","job_id":7,"rank":3,"ProducerName":"nid00040","file":"/nscratch/mpi-io-test.dat","record_id":9,"module":"POSIX","type":"MOD","max_byte":-1,"switches":-1,"flushes":-1,"cnt":1,"op":"write","seg":[{"data_set":"N/A","pt_sel":-1,"irreg_hslab":-1,"reg_hslab":-1,"ndims":-1,"npoints":-1,"off":12288,"len":4096,"dur":0.000125,"timestamp":1600000000.003000}]}`
	return []streams.Message{
		{Tag: "darshanConnector", Type: streams.TypeJSON, Data: []byte(job7), Producer: "nid00040", Seq: 7},
		{Tag: "darshanConnector", Type: streams.TypeJSON, Data: []byte(`{"op":"open"}`)},
		{Tag: HeartbeatTag, Type: streams.TypeString, Data: []byte("ping")},
	}
}

// TestLegacyFrameReadCompat: no daemon writes legacy frames any more, but
// older peers and raw publishers still send them. The frozen capture
// decodes through ReadFrame to the messages it was written from, and a
// live TCPServer takes it off a connection: both messages published with
// their identity, the heartbeat counted and never published.
func TestLegacyFrameReadCompat(t *testing.T) {
	frozen, err := os.ReadFile(filepath.Join("testdata", "legacy-frame.bin"))
	if err != nil {
		t.Fatal(err)
	}
	want := legacyFrames()
	r := bytes.NewReader(frozen)
	for i, w := range want {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Tag != w.Tag || got.Type != w.Type || !bytes.Equal(got.Data, w.Data) || got.Producer != w.Producer || got.Seq != w.Seq {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, w)
		}
	}
	if _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("after three frames: %v, want EOF", err)
	}

	d := NewDaemon("agg", "head")
	ids := &identStore{}
	d.AttachStore("darshanConnector", ids)
	srv, err := ListenTCP(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frozen); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitFor(t, "the capture received", func() bool { return srv.Received() == 2 && srv.Heartbeats() == 1 })
	if got := fmt.Sprint(ids.ids()); got != "[nid00040/7 /0]" {
		t.Errorf("stored identities %s, want [nid00040/7 /0]", got)
	}
	if got, want := srv.LiteralBytes(), uint64(len(want[0].Data)+len(want[1].Data)); got != want || srv.frames.Load() != 3 {
		t.Errorf("%d literal bytes in %d legacy frames, want %d in 3", got, srv.frames.Load(), want)
	}
}
