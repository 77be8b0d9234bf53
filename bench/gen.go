package main

import (
	"bytes"
	"fmt"

	"darshanldms/internal/connector"
	"darshanldms/internal/event"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/ldms"
	"darshanldms/internal/rng"
	"darshanldms/internal/streams"
)

// The generated load is Table I shaped: jobsPerStream jobs of ranksPerJob
// ranks spread over numProducers node daemons (each its own
// (producer,seq) delivery stream), numFiles files, one segment per
// message, and a timestamp that grows with every event so the time index
// is append-mostly, as it is for a running job.
const (
	jobsPerStream = 16
	ranksPerJob   = 64
	numProducers  = 8
	numFiles      = 32
	streamTag     = connector.DefaultTag
)

var (
	genModules = [10]string{"POSIX", "POSIX", "POSIX", "POSIX", "POSIX", "POSIX", "POSIX", "MPIIO", "MPIIO", "STDIO"}
	genOps     = [20]string{
		"write", "write", "write", "write", "write", "write", "write", "write", "write",
		"read", "read", "read", "read", "read", "read", "read", "read", "read",
		"open", "close",
	}
)

// rankKey names one rank of one job, the unit the paper's per-rank query
// returns.
type rankKey struct {
	job  int64
	rank int
}

// rankRef is what the store must hold for one rank if nothing was lost,
// duplicated or altered on the way.
type rankRef struct {
	rows    int
	sumLen  int64
	firstTS float64
	lastTS  float64
}

// frame is one pre-encoded batch frame: the bytes the timed loop writes
// and the number of events published once it has been written.
type frame struct {
	lo, hi int // offsets into eventStream.buf
	cum    int // events in this stream up to and including this frame
}

// eventStream is a seeded, pre-encoded run of events together with the
// reference figures the verifier compares the store against.
type eventStream struct {
	buf     []byte
	frames  []frame
	events  int
	jobBase int64
	ranks   map[rankKey]*rankRef
	jobRows map[int64]int
}

func (s *eventStream) bytes(f frame) []byte { return s.buf[f.lo:f.hi] }

// generator draws events from one seed. Successive streams continue the
// same timestamp and per-producer sequence counters, so a preload stream
// and the timed stream that follows it never collide in the dedup set or
// in the time index.
type generator struct {
	r     *rng.Stream
	index int
	seq   [numProducers]uint64
	files [numFiles]string
	exes  [4]string
	prods [numProducers]string
}

func newGenerator(seed uint64) *generator {
	g := &generator{r: rng.New(seed).Derive("bench-load")}
	for i := range g.files {
		g.files[i] = fmt.Sprintf("/lscratch/bench/out.%02d.dat", i)
	}
	for i := range g.exes {
		g.exes[i] = fmt.Sprintf("/projects/bench/app-%d", i)
	}
	for i := range g.prods {
		g.prods[i] = fmt.Sprintf("nid%05d", 40+i)
	}
	return g
}

// fill overwrites m (and its single segment) with the next event and
// returns the producer slot that publishes it.
func (g *generator) fill(m *jsonmsg.Message, jobBase int64) int {
	r := g.r
	job := jobBase + int64(r.Intn(jobsPerStream))
	rank := r.Intn(ranksPerJob)
	prod := (int(job)*ranksPerJob + rank) % numProducers
	file := r.Intn(numFiles)
	op := genOps[r.Intn(len(genOps))]
	var length int64
	if op == "read" || op == "write" {
		length = int64(4096 * (1 + r.Intn(4)))
	}
	i := g.index
	g.index++
	seg := m.Seg[:1]
	seg[0] = jsonmsg.Segment{
		DataSet: jsonmsg.NA, PtSel: -1, IrregHSlab: -1, RegHSlab: -1, NDims: -1, NPoints: -1,
		Off:       int64(i) * 4096,
		Len:       length,
		Dur:       jsonmsg.Quant6(r.Float64() * 0.01),
		Timestamp: jsonmsg.Quant6(jsonmsg.EpochBase + float64(i)*0.001 + r.Float64()*0.0005),
	}
	g.seq[prod]++
	*m = jsonmsg.Message{
		UID: 99066, Exe: g.exes[int(job)%len(g.exes)], JobID: job, Rank: rank,
		ProducerName: g.prods[prod], File: g.files[file], RecordID: uint64(file) + 1,
		Module: genModules[r.Intn(len(genModules))], Type: jsonmsg.TypeMOD,
		MaxByte: int64(r.Intn(1 << 24)), Switches: int64(r.Intn(2)), Flushes: int64(r.Intn(3)),
		Cnt: 1, Op: op, Seg: seg, Seq: g.seq[prod],
	}
	return prod
}

// stream generates and pre-encodes n events for jobs
// [jobBase, jobBase+jobsPerStream) in frames of frameEvents, using the
// repo's own batch frame writer so the bytes are exactly what a batching
// LDMS peer would put on the wire.
func (g *generator) stream(n, frameEvents int, jobBase int64) (*eventStream, error) {
	s := &eventStream{
		events:  n,
		jobBase: jobBase,
		ranks:   make(map[rankKey]*rankRef, jobsPerStream*ranksPerJob),
		jobRows: make(map[int64]int, jobsPerStream),
		frames:  make([]frame, 0, (n+frameEvents-1)/frameEvents),
	}
	msgs := make([]jsonmsg.Message, frameEvents)
	for i := range msgs {
		msgs[i].Seg = make([]jsonmsg.Segment, 1)
	}
	batch := make([]streams.Message, 0, frameEvents)
	var out bytes.Buffer
	out.Grow(n * 160)
	for done := 0; done < n; {
		k := frameEvents
		if n-done < k {
			k = n - done
		}
		batch = batch[:0]
		for i := 0; i < k; i++ {
			m := &msgs[i]
			g.fill(m, jobBase)
			ref := s.ranks[rankKey{m.JobID, m.Rank}]
			if ref == nil {
				ref = &rankRef{firstTS: m.Seg[0].Timestamp}
				s.ranks[rankKey{m.JobID, m.Rank}] = ref
			}
			ref.rows++
			ref.sumLen += m.Seg[0].Len
			ref.lastTS = m.Seg[0].Timestamp
			s.jobRows[m.JobID]++
			batch = append(batch, streams.Message{
				Tag: streamTag, Type: streams.TypeJSON,
				Record:   event.NewRecord(m, jsonmsg.FastEncoder{}),
				Producer: m.ProducerName, Seq: m.Seq,
			})
		}
		lo := out.Len()
		if err := ldms.WriteBatchFrame(&out, batch); err != nil {
			return nil, fmt.Errorf("pre-encode frame: %w", err)
		}
		done += k
		s.frames = append(s.frames, frame{lo: lo, hi: out.Len(), cum: done})
	}
	s.buf = out.Bytes()
	return s, nil
}

// messages generates n events as heap messages (one record each), for
// the in-process layer measurements that need typed input, not bytes.
func (g *generator) messages(n int, jobBase int64) []*jsonmsg.Message {
	out := make([]*jsonmsg.Message, n)
	for i := range out {
		m := &jsonmsg.Message{Seg: make([]jsonmsg.Segment, 1)}
		g.fill(m, jobBase)
		out[i] = m
	}
	return out
}

// wrap turns typed messages into stream messages ready to publish.
func wrap(msgs []*jsonmsg.Message) []streams.Message {
	out := make([]streams.Message, len(msgs))
	for i, m := range msgs {
		out[i] = streams.Message{
			Tag: streamTag, Type: streams.TypeJSON,
			Record:   event.NewRecord(m, jsonmsg.FastEncoder{}),
			Producer: m.ProducerName, Seq: m.Seq,
		}
	}
	return out
}
