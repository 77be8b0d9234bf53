package ldms

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"darshanldms/internal/event"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/rng"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
)

// genFrames draws n events shaped like the benchmark generator's (bench/
// gen.go): eight producers with their own sequences, sixteen jobs of 64
// ranks, 32 files, one segment per event and a timestamp that grows with
// every event. It returns them in frames of per events, each frame's
// messages as WriteBatchFrame takes them.
func genFrames(seed uint64, n, per int) [][]streams.Message {
	r := rng.New(seed)
	modules := [...]string{"POSIX", "POSIX", "POSIX", "MPIIO", "STDIO"}
	ops := [...]string{"write", "write", "read", "read", "open", "close"}
	var seqs [8]uint64
	var frames [][]streams.Message
	for i := 0; i < n; i++ {
		if i%per == 0 {
			frames = append(frames, make([]streams.Message, 0, per))
		}
		job, rank, file := int64(1+r.Intn(16)), r.Intn(64), r.Intn(32)
		prod := (int(job)*64 + rank) % len(seqs)
		seqs[prod]++
		op := ops[r.Intn(len(ops))]
		var length int64
		if op == "read" || op == "write" {
			length = int64(4096 * (1 + r.Intn(4)))
		}
		m := &jsonmsg.Message{
			UID: 99066, Exe: fmt.Sprintf("/projects/bench/app-%d", job%4), JobID: job, Rank: rank,
			ProducerName: fmt.Sprintf("nid%05d", 40+prod), File: fmt.Sprintf("/lscratch/bench/out.%02d.dat", file),
			RecordID: uint64(file) + 1, Module: modules[r.Intn(len(modules))], Type: jsonmsg.TypeMOD,
			MaxByte: int64(r.Intn(1 << 24)), Switches: int64(r.Intn(2)), Flushes: int64(r.Intn(3)),
			Cnt: 1, Op: op, Seq: seqs[prod],
			Seg: []jsonmsg.Segment{{
				DataSet: jsonmsg.NA, PtSel: -1, IrregHSlab: -1, RegHSlab: -1, NDims: -1, NPoints: -1,
				Off: int64(i) * 4096, Len: length,
				Dur:       jsonmsg.Quant6(r.Float64() * 0.01),
				Timestamp: jsonmsg.Quant6(jsonmsg.EpochBase + float64(i)*0.001 + r.Float64()*0.0005),
			}},
		}
		f := &frames[len(frames)-1]
		*f = append(*f, streams.Message{
			Tag: "darshanConnector", Type: streams.TypeJSON,
			Record:   event.NewRecord(m, jsonmsg.FastEncoder{}),
			Producer: m.ProducerName, Seq: m.Seq,
		})
	}
	return frames
}

// frameCounter is the far end of a benchmarked hop: it reads batch
// frames off every connection and counts the records they declare,
// decoding nothing else.
type frameCounter struct {
	ln      net.Listener
	records atomic.Uint64
}

func listenFrameCounter(tb testing.TB) *frameCounter {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	c := &frameCounter{ln: ln}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				var hdr [6]byte
				var payload []byte
				for {
					if _, err := io.ReadFull(br, hdr[:]); err != nil || hdr[0] != batchMagic {
						return
					}
					if n := int(binary.BigEndian.Uint32(hdr[2:])); cap(payload) < n {
						payload = make([]byte, n)
					} else {
						payload = payload[:n]
					}
					if _, err := io.ReadFull(br, payload); err != nil {
						return
					}
					n, _ := binary.Uvarint(payload)
					c.records.Add(n)
				}
			}()
		}
	}()
	tb.Cleanup(func() { ln.Close() })
	return c
}

// BenchmarkDurableHop times one durable ldmsd hop end to end: 64-event
// version-2 batch frames written over loopback to a TCPServer whose bus
// binds a file-backed stream (as ldmsd -stream binds it), and the stream
// uplink forwarding them to a counter that reads frame headers only. One
// op is one frame; ns/event and allocs/event cover both daemons' halves
// of the hop, the sender's writes excluded.
func BenchmarkDurableHop(b *testing.B) {
	const per = 64
	frames := genFrames(2022, 64*per, per)
	wire := make([][]byte, len(frames))
	for i, f := range frames {
		var buf bytes.Buffer
		if err := WriteBatchFrame(&buf, f); err != nil {
			b.Fatal(err)
		}
		wire[i] = buf.Bytes()
	}
	counter := listenFrameCounter(b)
	wal, err := sos.OpenFileWAL(filepath.Join(b.TempDir(), "hop.stream"))
	if err != nil {
		b.Fatal(err)
	}
	defer wal.Close()
	s, err := streams.OpenStream(streams.StreamConfig{
		Name: "ldmsd", Subjects: []string{"darshanConnector"},
		Retention: streams.RetentionPolicy{MaxMsgs: 100000},
		Clock:     func() time.Duration { return time.Duration(time.Now().UnixNano()) },
	}, wal)
	if err != nil {
		b.Fatal(err)
	}
	d := NewDaemon("ldmsd", "hop")
	if err := d.Bus().BindStream(s); err != nil {
		b.Fatal(err)
	}
	srv, err := ListenTCP(d, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	up, err := NewStreamUplink(s, UplinkConfig{Addr: counter.ln.Addr().String(), Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer up.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bw.Write(wire[i%len(wire)]); err != nil {
			b.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		b.Fatal(err)
	}
	want := uint64(b.N * per)
	for counter.records.Load() < want {
		time.Sleep(50 * time.Microsecond)
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	events := float64(want)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/events, "allocs/event")
}
