package main

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"
)

// pollPoint is one /count observation, timed when the reply was read.
type pollPoint struct {
	at    time.Duration // since the run's epoch
	count int
}

// poller samples dsosd's /count on a fixed interval from its own
// goroutine. The latest count feeds the firehose window gate; the whole
// series feeds the watermark matcher.
type poller struct {
	latest atomic.Int64
	series []pollPoint
	err    error
	stop   chan struct{}
	done   chan struct{}
}

func startPoller(t *topology, epoch time.Time, every time.Duration) *poller {
	p := &poller{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			n, err := t.count()
			if err != nil {
				p.err = err
				p.latest.Store(-1)
				return
			}
			p.series = append(p.series, pollPoint{at: time.Since(epoch), count: n})
			p.latest.Store(int64(n))
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// finish stops the poller and returns its series.
func (p *poller) finish() ([]pollPoint, error) {
	close(p.stop)
	<-p.done
	return p.series, p.err
}

// pubPoint records that, at time at, the generator had published cum
// events in total (the moment the frame holding event cum was due, for an
// open loop; the moment its write began, for a closed loop).
type pubPoint struct {
	at  time.Duration
	cum int
}

// matchWatermarks returns, for every publish point, how long after it the
// store first reported at least that many events: event k is queryable at
// the first poll whose count is >= k. Both inputs are in time order and
// counts never decrease, so one forward sweep suffices. Publish points
// the polls never cover are reported in unmatched, not given a latency.
func matchWatermarks(pubs []pubPoint, polls []pollPoint) (lat []time.Duration, unmatched int) {
	lat = make([]time.Duration, 0, len(pubs))
	j := 0
	for _, p := range pubs {
		for j < len(polls) && polls[j].count < p.cum {
			j++
		}
		if j == len(polls) {
			unmatched++
			continue
		}
		d := polls[j].at - p.at
		if d < 0 {
			d = 0 // stored before its due time: the generator ran early, never the store
		}
		lat = append(lat, d)
	}
	return lat, unmatched
}

// countAt interpolates nothing: it returns the last count observed at or
// before at (0 before the first poll).
func countAt(polls []pollPoint, at time.Duration) int {
	n := 0
	for _, p := range polls {
		if p.at > at {
			break
		}
		n = p.count
	}
	return n
}

// firstReached returns when the count first reached n.
func firstReached(polls []pollPoint, n int) (time.Duration, bool) {
	for _, p := range polls {
		if p.count >= n {
			return p.at, true
		}
	}
	return 0, false
}

// pollGaps returns the intervals between consecutive polls in ms.
func pollGaps(polls []pollPoint) []float64 {
	if len(polls) < 2 {
		return nil
	}
	g := make([]float64, 0, len(polls)-1)
	for i := 1; i < len(polls); i++ {
		g = append(g, ms(polls[i].at-polls[i-1].at))
	}
	return g
}

// gateOpen is the closed-loop window: the next frame of n events may go
// out only if that leaves at most window events published but not yet
// stored. A negative stored count (the poller failed) keeps it shut.
func gateOpen(published, stored, n, window int) bool {
	return stored >= 0 && published+n-stored <= window
}

// schedule is an open-loop send plan: item i is due at i*period after the
// start, whatever happened to the items before it.
type schedule struct {
	period time.Duration
	now    func() time.Duration // time since start
	sleep  func(time.Duration)
}

// run sends n items on schedule and returns how late each one went out,
// measured from its due time. A stall delays the items that fall due
// during it but never shifts the plan, so the lateness (and any latency
// measured from the due time) carries the full cost of the stall.
func (s schedule) run(n int, send func(i int, due time.Duration) error) ([]time.Duration, error) {
	late := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		due := time.Duration(i) * s.period
		if wait := due - s.now(); wait > 0 {
			s.sleep(wait)
		}
		late = append(late, s.now()-due)
		if err := send(i, due); err != nil {
			return late, err
		}
	}
	return late, nil
}

func wallSchedule(start time.Time, period time.Duration) schedule {
	return schedule{period: period, now: func() time.Duration { return time.Since(start) }, sleep: time.Sleep}
}

// writeResult is what one writer pass over a stream observed.
type writeResult struct {
	pubs     []pubPoint      // one per frame
	lateness []time.Duration // open loop only
	gateWait time.Duration   // closed loop only: time spent with the window shut
}

// firehose writes every frame of s as fast as the window allows. base is
// the number of events already published on this topology (preload), so
// the gate and the publish points count in the store's terms.
func firehose(t *topology, conn net.Conn, s *eventStream, base, window int, p *poller, epoch time.Time) (writeResult, error) {
	res := writeResult{pubs: make([]pubPoint, 0, len(s.frames))}
	published := base
	for _, f := range s.frames {
		n := f.cum + base - published
		if !gateOpen(published, int(p.latest.Load()), n, window) {
			shut := time.Now()
			for !gateOpen(published, int(p.latest.Load()), n, window) {
				if p.latest.Load() < 0 {
					<-p.done
					return res, fmt.Errorf("count poller: %w", p.err)
				}
				if time.Since(shut) > 60*time.Second {
					return res, fmt.Errorf("window shut for 60s at %d published, %d stored: pipeline stalled", published, p.latest.Load())
				}
				time.Sleep(200 * time.Microsecond)
			}
			res.gateWait += time.Since(shut)
		}
		res.pubs = append(res.pubs, pubPoint{at: time.Since(epoch), cum: f.cum + base})
		if _, err := conn.Write(s.bytes(f)); err != nil {
			if aerr := t.checkAlive(); aerr != nil {
				return res, aerr
			}
			return res, fmt.Errorf("write frame: %w", err)
		}
		published = f.cum + base
	}
	return res, nil
}

// paced writes the frames of s on an open-loop schedule of rate events
// per second, starting at epoch. Publish points carry the due time.
func paced(t *topology, conn net.Conn, s *eventStream, base, rate int, epoch time.Time) (writeResult, error) {
	res := writeResult{pubs: make([]pubPoint, 0, len(s.frames))}
	perFrame := s.frames[0].cum
	period := time.Duration(float64(time.Second) * float64(perFrame) / float64(rate))
	var err error
	res.lateness, err = wallSchedule(epoch, period).run(len(s.frames), func(i int, due time.Duration) error {
		f := s.frames[i]
		res.pubs = append(res.pubs, pubPoint{at: due, cum: f.cum + base})
		if _, err := conn.Write(s.bytes(f)); err != nil {
			if aerr := t.checkAlive(); aerr != nil {
				return aerr
			}
			return fmt.Errorf("write frame: %w", err)
		}
		return nil
	})
	return res, err
}

// waitCount blocks until the poller has seen n stored events. The store
// overshooting n (duplicates) ends the wait too; the verifier fails it.
func waitCount(t *topology, p *poller, n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		got := p.latest.Load()
		if got >= int64(n) {
			return nil
		}
		if got < 0 {
			<-p.done
			return fmt.Errorf("count poller: %w", p.err)
		}
		if err := t.checkAlive(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("store reached %d of %d events after %s: events were lost or the pipeline stalled", got, n, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
