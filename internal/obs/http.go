package obs

import (
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
)

// MountPprof mounts the runtime profiling endpoints under /debug/pprof/
// on a daemon's own telemetry mux, so a performance claim can carry a
// profile of the real process (go tool pprof http://HOST/debug/pprof/profile).
// Nothing is served unless the daemon serves the mux.
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Handler serves the registry in Prometheus text format; mount it at
// /metrics on a daemon's HTTP mux. A nil registry serves an empty body.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteProm(w)
	})
}

// Health aggregates named liveness probes for a /healthz endpoint. A
// probe returns nil when healthy; any failing probe degrades the whole
// endpoint to HTTP 503. The zero value is unusable — use NewHealth.
type Health struct {
	mu     sync.Mutex
	probes map[string]func() error
}

// NewHealth returns an empty probe set.
func NewHealth() *Health {
	return &Health{probes: map[string]func() error{}}
}

// Register adds (or replaces) a named probe. Nil-safe.
func (h *Health) Register(name string, probe func() error) {
	if h == nil || probe == nil {
		return
	}
	h.mu.Lock()
	h.probes[name] = probe
	h.mu.Unlock()
}

// Check runs every probe and returns per-probe status lines (sorted by
// name) and whether all probes passed.
func (h *Health) Check() (lines []string, ok bool) {
	ok = true
	if h == nil {
		return []string{"ok"}, true
	}
	h.mu.Lock()
	names := make([]string, 0, len(h.probes))
	for name := range h.probes {
		names = append(names, name)
	}
	probes := make(map[string]func() error, len(h.probes))
	for name, p := range h.probes {
		probes[name] = p
	}
	h.mu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		if err := probes[name](); err != nil {
			lines = append(lines, name+": "+err.Error())
			ok = false
		} else {
			lines = append(lines, name+": ok")
		}
	}
	if len(lines) == 0 {
		lines = []string{"ok"}
	}
	return lines, ok
}

// Handler serves the probe set as /healthz: HTTP 200 with per-probe
// lines when everything passes, 503 otherwise. A nil *Health always
// reports ok (a daemon with no probes is trivially live).
func (h *Health) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		lines, ok := h.Check()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		for _, line := range lines {
			_, _ = w.Write([]byte(line + "\n"))
		}
	})
}
