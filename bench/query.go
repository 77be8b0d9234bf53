package main

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"darshanldms/internal/dsos"
	"darshanldms/internal/rng"
)

// queryKind is one of the paper's three query shapes.
type queryKind int

const (
	queryRank queryKind = iota // one rank within a job
	queryJob                   // a whole job in time order
	queryTime                  // the time-ordered head of the store
	numQueryKinds
)

var queryKindNames = [numQueryKinds]string{"rank", "job", "time"}

// timeHeadLimit is the row limit of the time-ordered head query.
const timeHeadLimit = 1000

// query is one request with the row count a correct store returns.
type query struct {
	kind queryKind
	path string
	rows int
}

func rankQuery(k rankKey, rows int) query {
	return query{queryRank, "/query?job=" + strconv.FormatInt(k.job, 10) + "&rank=" + strconv.Itoa(k.rank), rows}
}

func jobQuery(job int64, rows int) query {
	return query{queryJob, "/query?index=job_time_rank&job=" + strconv.FormatInt(job, 10), rows}
}

// drawRank and drawJob pick a seeded target among the stream's jobs; the
// expected row count comes from the generator's tallies (0 for a rank
// that happened to publish nothing).
func (s *eventStream) drawRank(r *rng.Stream) query {
	k := rankKey{s.jobBase + int64(r.Intn(jobsPerStream)), r.Intn(ranksPerJob)}
	rows := 0
	if ref := s.ranks[k]; ref != nil {
		rows = ref.rows
	}
	return rankQuery(k, rows)
}

func (s *eventStream) drawJob(r *rng.Stream) query {
	job := s.jobBase + int64(r.Intn(jobsPerStream))
	return jobQuery(job, s.jobRows[job])
}

func timeQuery(stored int) query {
	rows := stored
	if rows > timeHeadLimit {
		rows = timeHeadLimit
	}
	return query{queryTime, "/query?index=time_job_rank&limit=" + strconv.Itoa(timeHeadLimit), rows}
}

// queryLog accumulates per-shape latencies and the failure count.
type queryLog struct {
	mu        sync.Mutex
	ms        [numQueryKinds][]float64
	attempted int
	failed    int
	firstErr  error
}

// do issues q, checks the reply's row count, and records the time from
// request to the last body byte as a latency sample of q's shape.
func (l *queryLog) do(t *topology, q query) []byte { return l.issue(t, q, true) }

// check is do without the latency sample, for a query whose timing says
// nothing about the shape (the first one a cold store serves).
func (l *queryLog) check(t *topology, q query) []byte { return l.issue(t, q, false) }

func (l *queryLog) issue(t *topology, q query, sample bool) []byte {
	start := time.Now()
	body, err := t.get(q.path)
	elapsed := time.Since(start)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if err == nil {
		if rows := csvRows(body); rows != q.rows {
			err = fmt.Errorf("GET %s: %d rows, want %d", q.path, rows, q.rows)
		}
	}
	if err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = err
		}
		return nil
	}
	if sample {
		l.ms[q.kind] = append(l.ms[q.kind], ms(elapsed))
	}
	return body
}

// csvRows counts data rows in a /query reply (every line but the header).
func csvRows(body []byte) int {
	lines := bytes.Count(body, []byte{'\n'})
	if len(body) > 0 && body[len(body)-1] != '\n' {
		lines++
	}
	if lines == 0 {
		return 0
	}
	return lines - 1
}

// readerMix is the dashboard refresh the reader replays: 18 per-rank
// panels, one whole-job panel and one time-ordered head, back to back.
const (
	mixRank = 18
	mixJob  = 1
	mixTime = 1
)

// runReader replays refresh cycles against the store until stop closes:
// a cycle falls due every period (open loop), and issues its queries back
// to back on one connection (a dashboard waits for each panel). It
// returns how late each cycle started.
func runReader(t *topology, cycles [][]query, period time.Duration, start time.Time, log *queryLog, stop <-chan struct{}) []time.Duration {
	late, _ := wallSchedule(start, period).run(len(cycles), func(i int, _ time.Duration) error {
		select {
		case <-stop:
			return errStopped
		default:
		}
		for _, q := range cycles[i] {
			log.do(t, q)
		}
		return nil
	})
	return late
}

var errStopped = errors.New("stopped")

// verifyRank fetches one seeded rank of the run's stream and compares it
// with the generator's reference: row count (through the query log),
// the sum of seg_len and the first and last seg_timestamp.
func verifyRank(t *topology, s *eventStream, seed uint64, log *queryLog, res *runResult) {
	r := rng.New(seed).Derive("bench-verify")
	key := rankKey{s.jobBase + int64(r.Intn(jobsPerStream)), r.Intn(ranksPerJob)}
	ref := s.ranks[key]
	if ref == nil {
		ref = &rankRef{}
	}
	body := log.check(t, rankQuery(key, ref.rows))
	if body == nil || ref.rows == 0 {
		return // the row count was wrong (already counted) or there is nothing to compare
	}
	var sum int64
	var first, last float64
	lines := bytes.Split(bytes.TrimRight(body, "\n"), []byte{'\n'})[1:]
	for i, line := range lines {
		cells := strings.Split(string(line), ",")
		if len(cells) != dsos.ColSegTimestamp+1 {
			res.fail(1, "job %d rank %d: row %d has %d cells", key.job, key.rank, i, len(cells))
			return
		}
		n, err1 := strconv.ParseInt(cells[dsos.ColSegLen], 10, 64)
		ts, err2 := strconv.ParseFloat(cells[dsos.ColSegTimestamp], 64)
		if err1 != nil || err2 != nil {
			res.fail(1, "job %d rank %d: row %d does not parse", key.job, key.rank, i)
			return
		}
		sum += n
		if i == 0 {
			first = ts
		}
		last = ts
	}
	if sum != ref.sumLen || first != ref.firstTS || last != ref.lastTS {
		res.fail(1, "job %d rank %d: got sum(seg_len)=%d first=%.6f last=%.6f, generator has %d %.6f %.6f",
			key.job, key.rank, sum, first, last, ref.sumLen, ref.firstTS, ref.lastTS)
	}
}

// readerCycles draws n refresh cycles whose targets all lie in the
// preloaded jobs, so every reply's size is fixed by the seed whatever the
// concurrent writer has stored so far.
func readerCycles(pre *eventStream, seed uint64, n int) [][]query {
	r := rng.New(seed).Derive("bench-reader")
	cycles := make([][]query, n)
	for c := range cycles {
		qs := make([]query, 0, mixRank+mixJob+mixTime)
		for i := 0; i < mixRank; i++ {
			qs = append(qs, pre.drawRank(r))
		}
		for i := 0; i < mixJob; i++ {
			qs = append(qs, pre.drawJob(r))
		}
		for i := 0; i < mixTime; i++ {
			qs = append(qs, timeQuery(pre.events))
		}
		cycles[c] = qs
	}
	return cycles
}
