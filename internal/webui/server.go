package webui

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"darshanldms/internal/analysis"
	"darshanldms/internal/dsos"
	"darshanldms/internal/ldms"
	"darshanldms/internal/obs"
	"darshanldms/internal/streams"
)

// Server is the dashboard: Grafana-like panels over the DSOS store plus a
// JSON API the panels (or external tools) query. It optionally also exposes
// LDMS metric sets for side-by-side system-behaviour correlation and, via
// AttachObs, the pipeline's own telemetry (a health panel + /metrics).
type Server struct {
	client  *dsos.Client
	ldms    []*ldms.Daemon
	obs     *obs.Registry
	streams []*streams.DurableStream
	mux     *http.ServeMux
}

// NewServer builds a dashboard over the store; ldmsDaemons may be nil.
func NewServer(client *dsos.Client, ldmsDaemons []*ldms.Daemon) *Server {
	s := &Server{client: client, ldms: ldmsDaemons, mux: http.NewServeMux()}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("/api/jobs", s.handleJobs)
	s.mux.HandleFunc("/api/job/", s.handleJobAPI)
	s.mux.HandleFunc("/chart/job/", s.handleJobChart)
	s.mux.HandleFunc("/api/metrics", s.handleMetrics)
	s.mux.HandleFunc("/api/streams", s.handleStreams)
	s.mux.HandleFunc("/metrics", s.handlePromMetrics)
	s.mux.HandleFunc("/api/grafana-dashboard", s.handleGrafanaExport)
	return s
}

// AttachObs wires the pipeline's telemetry registry into the dashboard:
// the index page gains a pipeline-health panel and /metrics serves the
// registry in Prometheus text format. A nil registry detaches.
func (s *Server) AttachObs(reg *obs.Registry) { s.obs = reg }

// AttachStreams wires durable streams into the dashboard: the index page
// gains a consumer-lag panel (per stream: retained window and drop
// accounting; per consumer: acked floor, lag behind the head, inflight
// window, redeliveries) and /api/streams serves the same as JSON.
func (s *Server) AttachStreams(ss ...*streams.DurableStream) { s.streams = ss }

// streamView is the /api/streams JSON shape: one stream's accounting
// snapshot with its consumers'.
type streamView struct {
	Stream    streams.StreamStats     `json:"stream"`
	Consumers []streams.ConsumerStats `json:"consumers"`
}

func (s *Server) streamViews() []streamView {
	out := make([]streamView, 0, len(s.streams))
	for _, st := range s.streams {
		out = append(out, streamView{Stream: st.Stats(), Consumers: st.ConsumerStats()})
	}
	return out
}

func (s *Server) handleStreams(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.streamViews())
}

func (s *Server) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	if s.obs == nil {
		http.NotFound(w, r)
		return
	}
	obs.Handler(s.obs).ServeHTTP(w, r)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	jobs, err := s.client.DistinctJobs()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	var b strings.Builder
	b.WriteString(`<!DOCTYPE html><html><head><title>Darshan-LDMS Dashboard</title>` +
		`<style>body{font-family:sans-serif;margin:2em}img{border:1px solid #ccc;margin:4px 0;display:block}</style>` +
		`</head><body><h1>Darshan-LDMS run time I/O dashboard</h1>`)
	fmt.Fprintf(&b, "<p>%d events stored across %d jobs.</p>", s.client.Count(dsos.DarshanSchemaName), len(jobs))
	if anoms, err := analysis.DetectAnomalies(s.client, jobs, 3); err == nil && len(anoms) > 0 {
		b.WriteString(`<div style="border:2px solid #c33;padding:0.5em 1em;margin:1em 0"><b>anomalous jobs detected:</b><ul>`)
		for _, a := range anoms {
			fmt.Fprintf(&b, "<li>job %d: %s</li>", a.JobID, a.Reason)
		}
		b.WriteString("</ul></div>")
	}
	if s.obs != nil {
		// Pipeline health panel: the store chain's own telemetry, so a
		// stalled ingest or a backed-up spool shows up on the same page
		// as the jobs it is starving.
		b.WriteString(`<h2>pipeline health</h2><div style="border:1px solid #ccc;padding:0.5em 1em;margin:1em 0">`)
		b.WriteString(`<p><a href="/metrics">raw /metrics (Prometheus text)</a></p><pre>`)
		for _, sm := range s.obs.Snapshot() {
			fmt.Fprintf(&b, "%s %g\n", sm.Name, sm.Value)
		}
		b.WriteString("</pre></div>")
	}
	if len(s.streams) > 0 {
		// Consumer-lag panel: how far each durable consumer trails its
		// stream's head. A growing lag is the early warning that a store
		// or uplink is falling behind (and, once it exceeds the retained
		// window, will start missing messages to retention).
		b.WriteString(`<h2>durable streams</h2><div style="border:1px solid #ccc;padding:0.5em 1em;margin:1em 0">`)
		b.WriteString(`<p><a href="/api/streams">raw /api/streams (JSON)</a></p>`)
		for _, v := range s.streamViews() {
			st := v.Stream
			fmt.Fprintf(&b, "<h3>%s</h3><p>seqs [%d,%d] · %d retained (%d bytes) · %d appended · %d dropped by retention · %d wal errors</p>",
				st.Name, st.FirstSeq, st.LastSeq, st.Msgs, st.Bytes, st.Appended, st.Dropped, st.WALErrors)
			if len(v.Consumers) == 0 {
				b.WriteString("<p>no consumers</p>")
				continue
			}
			b.WriteString(`<table border="1" cellpadding="4" style="border-collapse:collapse">` +
				`<tr><th>consumer</th><th>ack floor</th><th>lag</th><th>inflight</th>` +
				`<th>delivered</th><th>redelivered</th><th>missed</th></tr>`)
			for _, c := range v.Consumers {
				lagStyle := ""
				if c.Lag > 0 && st.Msgs >= 0 && c.Lag >= uint64(st.Msgs) && st.Dropped > 0 {
					lagStyle = ` style="background:#fdd"` // lagging past retention
				}
				fmt.Fprintf(&b, `<tr%s><td>%s</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td></tr>`,
					lagStyle, c.Name, c.AckFloor, c.Lag, c.Inflight, c.Delivered, c.Redelivered, c.Missed)
			}
			b.WriteString("</table>")
		}
		b.WriteString("</div>")
	}
	for _, j := range jobs {
		fmt.Fprintf(&b, `<h2>job_id %d</h2>`, j)
		fmt.Fprintf(&b, `<img src="/chart/job/%d/timeline.svg" alt="timeline">`, j)
		fmt.Fprintf(&b, `<img src="/chart/job/%d/scatter.svg" alt="scatter">`, j)
		fmt.Fprintf(&b, `<img src="/chart/job/%d/ops.svg" alt="ops">`, j)
		fmt.Fprintf(&b, `<p><a href="/chart/job/%d/heatmap.svg">rank-time heatmap</a> · <a href="/chart/job/%d/pernode.svg?op=open">per-node opens</a> · <a href="/api/job/%d/timeline">timeline json</a> · <a href="/api/job/%d/scatter">scatter json</a> · <a href="/api/job/%d/ops">ops json</a> · <a href="/api/job/%d/topfiles">top files json</a></p>`, j, j, j, j, j, j)
	}
	b.WriteString("</body></html>")
	fmt.Fprint(w, b.String())
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs, err := s.client.DistinctJobs()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, jobs)
}

// jobFromPath parses "/api/job/<id>/<what>" and returns (id, what).
func jobFromPath(path, prefix string) (int64, string, error) {
	rest := strings.TrimPrefix(path, prefix)
	parts := strings.SplitN(rest, "/", 2)
	if len(parts) != 2 {
		return 0, "", fmt.Errorf("bad path %q", path)
	}
	id, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil {
		return 0, "", fmt.Errorf("bad job id %q", parts[0])
	}
	return id, parts[1], nil
}

func (s *Server) handleJobAPI(w http.ResponseWriter, r *http.Request) {
	job, what, err := jobFromPath(r.URL.Path, "/api/job/")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	switch what {
	case "timeline":
		bins := queryInt(r, "bins", 24)
		data, err := analysis.BytesTimeline(s.client, job, bins)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, data)
	case "scatter":
		data, err := analysis.TimelineScatter(s.client, job)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, data)
	case "ops":
		data, err := analysis.OpCounts(s.client, []int64{job})
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, data)
	case "pernode":
		ops := strings.Split(queryStr(r, "ops", "open,close"), ",")
		data, err := analysis.PerNodeOps(s.client, []int64{job}, ops)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, data)
	case "topfiles":
		data, err := analysis.TopFiles(s.client, job, queryInt(r, "n", 10))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, data)
	default:
		http.NotFound(w, r)
	}
}

func (s *Server) handleJobChart(w http.ResponseWriter, r *http.Request) {
	job, what, err := jobFromPath(r.URL.Path, "/chart/job/")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var svg string
	switch what {
	case "timeline.svg":
		bins, err := analysis.BytesTimeline(s.client, job, queryInt(r, "bins", 24))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		ts := TimelineSeries{Title: fmt.Sprintf("job %d: bytes per window (aggregated across ranks)", job), YLabel: "bytes"}
		for _, b := range bins {
			ts.Starts = append(ts.Starts, b.Start)
			ts.Ends = append(ts.Ends, b.End)
			ts.Write = append(ts.Write, b.WriteBytes)
			ts.Read = append(ts.Read, b.ReadBytes)
		}
		svg = RenderTimeline(ts)
	case "scatter.svg":
		pts, err := analysis.TimelineScatter(s.client, job)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		sc := ScatterSeries{Title: fmt.Sprintf("job %d: op duration over execution time", job)}
		for _, p := range pts {
			sc.T = append(sc.T, p.Time)
			sc.D = append(sc.D, p.Dur)
			sc.IsWrite = append(sc.IsWrite, p.Op == "write")
		}
		svg = RenderScatter(sc)
	case "ops.svg":
		stats, err := analysis.OpCounts(s.client, []int64{job})
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		var bars []BarGroup
		for _, st := range stats {
			bars = append(bars, BarGroup{Label: st.Op, Value: st.Mean, Err: st.CI95})
		}
		svg = RenderBars(fmt.Sprintf("job %d: I/O operation counts", job), "occurrences", bars)
	case "heatmap.svg":
		pts, err := analysis.TimelineScatter(s.client, job)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		nbins := queryInt(r, "bins", 48)
		maxRank := int64(0)
		tMax := 0.0
		for _, p := range pts {
			if p.Rank > maxRank {
				maxRank = p.Rank
			}
			if p.Time > tMax {
				tMax = p.Time
			}
		}
		if tMax <= 0 {
			tMax = 1
		}
		grid := HeatmapGrid{
			Title: fmt.Sprintf("job %d: write volume per rank over time", job),
			TMax:  tMax,
			Cells: make([][]float64, maxRank+1),
		}
		for i := range grid.Cells {
			grid.Cells[i] = make([]float64, nbins)
		}
		for _, p := range pts {
			if p.Op != "write" {
				continue
			}
			bin := int(p.Time / tMax * float64(nbins))
			if bin >= nbins {
				bin = nbins - 1
			}
			grid.Cells[p.Rank][bin] += float64(p.Len)
		}
		svg = RenderHeatmap(grid)
	case "pernode.svg":
		op := queryStr(r, "op", "open")
		rows, err := analysis.PerNodeOps(s.client, []int64{job}, []string{op})
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		var bars []BarGroup
		for _, row := range rows {
			bars = append(bars, BarGroup{Label: row.Node, Value: float64(row.Count)})
		}
		svg = RenderBars(fmt.Sprintf("job %d: %s requests per node", job, op), "requests", bars)
	default:
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	fmt.Fprint(w, svg)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	type set struct {
		Schema    string             `json:"schema"`
		Producer  string             `json:"producer"`
		Timestamp float64            `json:"timestamp"`
		Metrics   map[string]float64 `json:"metrics"`
	}
	var out []set
	for _, d := range s.ldms {
		for _, ms := range d.Sets() {
			out = append(out, set{Schema: ms.Schema, Producer: ms.Producer, Timestamp: ms.Timestamp.Seconds(), Metrics: ms.Metrics})
		}
	}
	writeJSON(w, out)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

func queryInt(r *http.Request, key string, def int) int {
	if v := r.URL.Query().Get(key); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

func queryStr(r *http.Request, key, def string) string {
	if v := r.URL.Query().Get(key); v != "" {
		return v
	}
	return def
}
