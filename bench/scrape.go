package main

import (
	"bufio"
	"bytes"
	"io"
	"strconv"
	"strings"
	"time"
)

// scrapeResult is what the traced pass reads off both daemons' /metrics:
// the deepest backlog each stage reached and, at the end, how many
// messages dsosd's ingest stream was handed in total. The stage whose lag
// grows while the next one's stays flat is the bottleneck.
type scrapeResult struct {
	scrapes        int
	uplinkLagMax   float64 // ldmsd: durable consumer lag, or forwarder spool depth
	ingestLagMax   float64 // dsosd: ingest consumer lag (0 without -stream)
	ingestAppended float64 // dsosd: dlc_stream_appended_total at the last scrape
}

// scraper polls both /metrics endpoints from its own goroutine.
type scraper struct {
	res  scrapeResult
	stop chan struct{}
	done chan struct{}
}

func startScraper(t *topology, every time.Duration) *scraper {
	s := &scraper{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			s.scrapeOnce(t)
			select {
			case <-s.stop:
				s.scrapeOnce(t) // the final totals
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *scraper) finish() scrapeResult {
	close(s.stop)
	<-s.done
	return s.res
}

// scrapeOnce reads both endpoints; a failed scrape is skipped (a dead
// daemon is reported by the run itself, with its stderr).
func (s *scraper) scrapeOnce(t *topology) {
	if m, err := fetchMetrics(t, t.ldmsdHTTP); err == nil {
		lag := m[`dlc_stream_consumer_lag{stream="ldmsd",consumer="uplink"}`]
		if d := m[`dlc_fwd_spool_depth{fwd="uplink"}`]; d > lag {
			lag = d
		}
		if lag > s.res.uplinkLagMax {
			s.res.uplinkLagMax = lag
		}
	}
	if m, err := fetchMetrics(t, t.dsosdHTTP); err == nil {
		if lag := m[`dlc_stream_consumer_lag{stream="dsosd-ingest",consumer="ingest"}`]; lag > s.res.ingestLagMax {
			s.res.ingestLagMax = lag
		}
		s.res.ingestAppended = m[`dlc_stream_appended_total{stream="dsosd-ingest"}`]
		s.res.scrapes++
	}
}

func fetchMetrics(t *topology, addr string) (map[string]float64, error) {
	resp, err := t.http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(body), nil
}

// parseProm reads Prometheus text exposition into series -> value; the
// series key is the name with its label set exactly as exposed.
func parseProm(body []byte) map[string]float64 {
	m := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m
}
