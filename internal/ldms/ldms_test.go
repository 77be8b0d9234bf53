package ldms

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"darshanldms/internal/dsos"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/rng"
	"darshanldms/internal/sim"
	"darshanldms/internal/streams"
)

func TestSamplersProduceSets(t *testing.T) {
	d := NewDaemon("ldmsd0", "nid00040")
	r := rng.New(1)
	d.AddSampler(NewMeminfoSampler(64<<20, r.Derive("mem")))
	d.AddSampler(NewVMStatSampler(r.Derive("vm")))
	sets := d.SampleOnce(5 * time.Second)
	if len(sets) != 2 {
		t.Fatalf("sets %d", len(sets))
	}
	if sets[0].Producer != "nid00040" || sets[0].Timestamp != 5*time.Second {
		t.Fatalf("set %+v", sets[0])
	}
	if len(d.Sets()) != 2 {
		t.Fatalf("retained %d", len(d.Sets()))
	}
}

func TestMeminfoBounded(t *testing.T) {
	s := NewMeminfoSampler(1000, rng.New(2))
	for i := 0; i < 5000; i++ {
		set := s.Sample("n", 0)
		free := set.Metrics["MemFree"]
		if free < 0 || free > 1000 {
			t.Fatalf("MemFree out of bounds: %v", free)
		}
	}
}

func TestVMStatMonotone(t *testing.T) {
	s := NewVMStatSampler(rng.New(3))
	last := 0.0
	for i := 0; i < 100; i++ {
		set := s.Sample("n", 0)
		if set.Metrics["ctxt"] < last {
			t.Fatal("ctxt decreased")
		}
		last = set.Metrics["ctxt"]
	}
}

func TestSimSamplingLoop(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	d := NewDaemon("ldmsd0", "nid00040")
	s := &countingSampler{Sampler: NewMeminfoSampler(64<<20, rng.New(4))}
	d.AddSampler(s)
	d.StartSampling(e, time.Second)
	e.Spawn("app", func(p *sim.Proc) { p.Sleep(10 * time.Second) })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if s.n < 9 || s.n > 10 {
		t.Fatalf("samples %d", s.n)
	}
}

// countingSampler counts the samples its daemon takes.
type countingSampler struct {
	Sampler
	n int
}

func (c *countingSampler) Sample(producer string, now time.Duration) MetricSet {
	c.n++
	return c.Sampler.Sample(producer, now)
}

func TestMultiHopRelayDeliversWithLatency(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	nodeD := NewDaemon("node", "nid00040")
	headD := NewDaemon("head", "voltrino-login")
	remoteD := NewDaemon("remote", "shirley")
	Relay(e, nodeD, headD, "darshanConnector", 500*time.Microsecond)
	Relay(e, headD, remoteD, "darshanConnector", 500*time.Microsecond)
	var arrival time.Duration
	count := &CountStore{}
	remoteD.AttachStore("darshanConnector", count)
	remoteD.Bus().Subscribe("darshanConnector", func(streams.Message) { arrival = e.Now() })
	e.Spawn("rank", func(p *sim.Proc) {
		p.Sleep(time.Second)
		nodeD.Bus().PublishJSON("darshanConnector", []byte(`{"op":"open"}`))
		p.Sleep(time.Second)
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if count.Count() != 1 {
		t.Fatalf("store received %d", count.Count())
	}
	if arrival != time.Second+time.Millisecond {
		t.Fatalf("arrival %v, want 1s + 2 hops x 500us", arrival)
	}
}

func TestRelayTagFiltering(t *testing.T) {
	a := NewDaemon("a", "n1")
	b := NewDaemon("b", "n2")
	Relay(nil, a, b, "darshanConnector", 0)
	got := &CountStore{}
	b.AttachStore("darshanConnector", got)
	a.Bus().PublishJSON("darshanConnector", []byte(`{}`))
	a.Bus().PublishJSON("otherTag", []byte(`{}`))
	if got.Count() != 1 {
		t.Fatalf("relayed %d", got.Count())
	}
}

func sampleConnectorMessage() []byte {
	m := jsonmsg.Message{
		UID: 1, Exe: jsonmsg.NA, JobID: 7, Rank: 2, ProducerName: "nid00041",
		File: jsonmsg.NA, RecordID: 99, Module: "POSIX", Type: jsonmsg.TypeMOD,
		MaxByte: 1023, Op: "write",
		Seg: []jsonmsg.Segment{{DataSet: jsonmsg.NA, PtSel: -1, IrregHSlab: -1,
			RegHSlab: -1, NDims: -1, NPoints: -1, Off: 0, Len: 1024, Dur: 0.1, Timestamp: 1.6e9}},
	}
	return jsonmsg.FastEncoder{}.Encode(&m)
}

func TestCSVStore(t *testing.T) {
	d := NewDaemon("agg", "head")
	var buf bytes.Buffer
	store := NewCSVStore(&buf)
	d.AttachStore("darshanConnector", store)
	d.Bus().PublishJSON("darshanConnector", sampleConnectorMessage())
	d.Bus().PublishJSON("darshanConnector", sampleConnectorMessage())
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // header + 2 rows
		t.Fatalf("lines %d:\n%s", len(lines), buf.String())
	}
	if lines[0] != jsonmsg.CSVHeader {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.Contains(lines[1], "POSIX,1,nid00041") {
		t.Fatalf("row %q", lines[1])
	}
}

func TestCSVStoreRejectsGarbage(t *testing.T) {
	d := NewDaemon("agg", "head")
	var buf bytes.Buffer
	h := d.AttachStore("darshanConnector", NewCSVStore(&buf))
	d.Bus().PublishJSON("darshanConnector", []byte("{broken"))
	if n, err := h.Errors(); n != 1 || err == nil {
		t.Fatalf("errors %d %v", n, err)
	}
}

func TestDSOSStore(t *testing.T) {
	cluster := dsos.NewCluster(2, "darshan_data")
	if err := dsos.SetupDarshan(cluster); err != nil {
		t.Fatal(err)
	}
	client := dsos.Connect(cluster)
	d := NewDaemon("agg", "head")
	d.AttachStore("darshanConnector", NewDSOSStore(client))
	for i := 0; i < 10; i++ {
		d.Bus().PublishJSON("darshanConnector", sampleConnectorMessage())
	}
	if got := client.Count(dsos.DarshanSchemaName); got != 10 {
		t.Fatalf("stored %d", got)
	}
	objs, err := client.Query("job_rank_time", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 10 || objs[0].Str(jsonmsg.ColProducerName) != "nid00041" {
		t.Fatalf("query %d objects", len(objs))
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	server := NewDaemon("agg", "head")
	count := &CountStore{}
	server.AttachStore("darshanConnector", count)
	srv, err := ListenTCP(server, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 50; i++ {
		if err := client.Publish(streams.Message{Tag: "darshanConnector", Type: streams.TypeJSON, Data: sampleConnectorMessage()}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for count.Count() < 50 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if count.Count() != 50 {
		t.Fatalf("received %d of 50", count.Count())
	}
	if srv.Received() != 50 {
		t.Fatalf("server counter %d", srv.Received())
	}
}

func TestTCPForwardChain(t *testing.T) {
	// node daemon --TCP--> aggregator: the real two-level topology.
	agg := NewDaemon("agg", "head")
	count := &CountStore{}
	agg.AttachStore("darshanConnector", count)
	srv, err := ListenTCP(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	node := NewDaemon("node", "nid00040")
	client, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ForwardTCP(node, "darshanConnector", client)

	node.Bus().PublishJSON("darshanConnector", sampleConnectorMessage())
	deadline := time.Now().Add(5 * time.Second)
	for count.Count() < 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if count.Count() != 1 {
		t.Fatalf("forwarded %d", count.Count())
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := streams.Message{Tag: "t", Type: streams.TypeJSON, Data: []byte(`{"a":1}`)}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Tag != in.Tag || out.Type != in.Type || string(out.Data) != string(in.Data) {
		t.Fatalf("round trip %+v", out)
	}
}

func TestFrameRejectsOversized(t *testing.T) {
	var hdr bytes.Buffer
	hdr.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&hdr); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestClientPublishAfterClose(t *testing.T) {
	server := NewDaemon("agg", "head")
	srv, err := ListenTCP(server, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	client.Close()
	if err := client.Publish(streams.Message{Tag: "t"}); err == nil {
		t.Fatal("publish after close should fail")
	}
}
