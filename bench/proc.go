package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"darshanldms/internal/ldms"
)

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux port Go supports.
const clockTick = 100

// findRoot walks up from dir to the repository root: the directory whose
// go.mod declares the darshanldms module and that holds both daemons.
func findRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(mod, []byte("module darshanldms\n")) {
			for _, d := range []string{"cmd/ldmsd", "cmd/dsosd"} {
				if _, err := os.Stat(filepath.Join(dir, d, "main.go")); err != nil {
					return "", fmt.Errorf("repository root %s has no %s", dir, d)
				}
			}
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the darshanldms repository (no go.mod declaring module darshanldms above the working directory)")
		}
		dir = parent
	}
}

// buildDaemons compiles the real daemons from the repository at root into
// binDir and reports how long that took (build time is reported beside
// the metrics, never inside setup_s).
func buildDaemons(root, binDir string) (time.Duration, error) {
	start := time.Now()
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return 0, err
	}
	for _, name := range []string{"ldmsd", "dsosd"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, name), "./cmd/"+name)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			return 0, fmt.Errorf("go build ./cmd/%s: %v\n%s", name, err, out)
		}
	}
	return time.Since(start), nil
}

// daemon is one spawned ldmsd or dsosd.
type daemon struct {
	name   string
	args   []string
	cmd    *exec.Cmd
	stderr string // path of the captured stderr
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// usage is what a daemon cost up to the moment it was asked: CPU from
// /proc/<pid>/stat and the resident-set high-water mark from
// /proc/<pid>/status. It is read before SIGTERM so dsosd's shutdown
// snapshot is not billed to ingest.
type usage struct {
	CPUSeconds float64
	PeakRSSMB  float64
}

func spawn(name, bin, dir string, args []string) (*daemon, error) {
	errPath := filepath.Join(dir, name+".stderr")
	errFile, err := os.Create(errPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.Stderr = errFile
	if err := cmd.Start(); err != nil {
		errFile.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, args: args, cmd: cmd, stderr: errPath, exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		errFile.Close()
		close(d.exited)
	}()
	return d, nil
}

// flagLine is the exact command line, recorded in every output file.
func (d *daemon) flagLine() string { return d.name + " " + strings.Join(d.args, " ") }

func (d *daemon) dead() bool {
	select {
	case <-d.exited:
		return true
	default:
		return false
	}
}

// died describes an unexpected exit with the tail of the daemon's stderr.
func (d *daemon) died() error {
	return fmt.Errorf("%s exited unexpectedly (%v); stderr tail:\n%s", d.name, d.err, tailFile(d.stderr, 20))
}

func tailFile(path string, lines int) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "(no stderr: " + err.Error() + ")"
	}
	all := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(all) > lines {
		all = all[len(all)-lines:]
	}
	return strings.Join(all, "\n")
}

// usage reads the daemon's CPU and peak RSS from /proc.
func (d *daemon) usage() (usage, error) {
	pid := strconv.Itoa(d.cmd.Process.Pid)
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return usage{}, err
	}
	// The command name is parenthesised and may hold spaces; the numeric
	// fields start after the last ')': state is field 3, utime 14, stime 15.
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return usage{}, fmt.Errorf("short /proc/%s/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return usage{}, fmt.Errorf("bad cpu fields in /proc/%s/stat", pid)
	}
	u := usage{CPUSeconds: (ut + st) / clockTick}
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return usage{}, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			kb, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			if err != nil {
				return usage{}, fmt.Errorf("bad VmHWM in /proc/%s/status", pid)
			}
			u.PeakRSSMB = kb / 1024
		}
	}
	return u, nil
}

// stop sends SIGTERM and waits; a daemon that ignores it for grace is
// killed. Stopping an already dead daemon is a no-op.
func (d *daemon) stop(grace time.Duration) {
	if d.dead() {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // a just-exited process is fine
	select {
	case <-d.exited:
	case <-time.After(grace):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// freeAddrs asks the kernel for n unused loopback ports. The listeners are
// all held until the last port is known: closing one before asking for
// the next lets the kernel hand the same port out twice.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	for len(addrs) < n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// waitReady polls probe until it succeeds, the daemon dies, or timeout
// passes. There are no fixed sleeps on the way to ready: the 2 ms pause
// only spaces the probes.
func waitReady(d *daemon, timeout time.Duration, probe func() error) error {
	deadline := time.Now().Add(timeout)
	for {
		err := probe()
		if err == nil {
			return nil
		}
		if d.dead() {
			return d.died()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %s: %v; stderr tail:\n%s", d.name, timeout, err, tailFile(d.stderr, 20))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// topology is one running generator → ldmsd → dsosd pipeline in its own
// directory.
type topology struct {
	dir       string
	ldmsd     *daemon
	dsosd     *daemon
	ldmsdAddr string
	ldmsdHTTP string // empty unless traced
	dsosdHTTP string
	http      *http.Client
}

// topoConfig selects the daemon flag sets of the issue's two topologies.
type topoConfig struct {
	durable bool // -stream/-wal path; otherwise the batched best-effort path
	traced  bool // ldmsd gets -http so its /metrics can be scraped
}

// startTopology spawns dsosd then ldmsd under parent and waits until both
// answer. Every file either daemon writes lands in the run directory:
// dsosd writes its snapshot temporaries into its working directory.
func startTopology(binDir, parent string, cfg topoConfig) (t *topology, err error) {
	dir, err := os.MkdirTemp(parent, "run-")
	if err != nil {
		return nil, err
	}
	t = &topology{dir: dir, http: &http.Client{Timeout: 30 * time.Second}}
	live.add(t)
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	addrs, err := freeAddrs(4)
	if err != nil {
		return nil, err
	}
	dsosdAddr := addrs[0]
	t.dsosdHTTP, t.ldmsdAddr = addrs[1], addrs[2]
	dsosdArgs := []string{"-listen", dsosdAddr, "-http", t.dsosdHTTP, "-daemons", "4", "-snapshot-every", "1h"}
	ldmsdArgs := []string{"-listen", t.ldmsdAddr, "-producer", "bench-ldmsd", "-forward", dsosdAddr}
	if cfg.durable {
		dsosdArgs = append(dsosdArgs, "-stream", "dsosd.stream", "-wal", "wal")
		ldmsdArgs = append(ldmsdArgs, "-stream", "ldmsd.stream")
	} else {
		ldmsdArgs = append(ldmsdArgs, "-reconnect", "-spool", "100000", "-spool-policy", "block", "-batch", "64", "-batch-age", "5ms")
	}
	if cfg.traced {
		t.ldmsdHTTP = addrs[3]
		ldmsdArgs = append(ldmsdArgs, "-http", t.ldmsdHTTP)
	}
	if t.dsosd, err = spawn("dsosd", filepath.Join(binDir, "dsosd"), dir, dsosdArgs); err != nil {
		return nil, err
	}
	err = waitReady(t.dsosd, 10*time.Second, func() error {
		if err := ldms.PingTCP(dsosdAddr, 200*time.Millisecond); err != nil {
			return err
		}
		return t.healthz(t.dsosdHTTP)
	})
	if err != nil {
		return nil, err
	}
	if t.ldmsd, err = spawn("ldmsd", filepath.Join(binDir, "ldmsd"), dir, ldmsdArgs); err != nil {
		return nil, err
	}
	err = waitReady(t.ldmsd, 10*time.Second, func() error {
		if err := ldms.PingTCP(t.ldmsdAddr, 200*time.Millisecond); err != nil {
			return err
		}
		if t.ldmsdHTTP != "" {
			return t.healthz(t.ldmsdHTTP)
		}
		return nil
	})
	return t, err
}

func (t *topology) healthz(addr string) error {
	resp, err := t.http.Get("http://" + addr + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// usage reads both daemons' cost so far.
func (t *topology) usage() (ldmsd, dsosd usage, err error) {
	if ldmsd, err = t.ldmsd.usage(); err != nil {
		return
	}
	dsosd, err = t.dsosd.usage()
	return
}

// checkAlive reports the first daemon that died, with its stderr tail.
func (t *topology) checkAlive() error {
	for _, d := range []*daemon{t.ldmsd, t.dsosd} {
		if d != nil && d.dead() {
			return d.died()
		}
	}
	return nil
}

// get fetches path from dsosd's HTTP API and returns the body.
func (t *topology) get(path string) ([]byte, error) {
	resp, err := t.http.Get("http://" + t.dsosdHTTP + path)
	if err != nil {
		if aerr := t.checkAlive(); aerr != nil {
			return nil, aerr
		}
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// count returns dsosd's stored object count.
func (t *topology) count() (int, error) {
	body, err := t.get("/count")
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(string(bytes.TrimSpace(body)))
}

// diskUsage is what the daemons left on disk, by kind.
type diskUsage struct {
	LdmsdStream int64
	DsosdStream int64
	DsosdWAL    int64
	Snapshot    int64
}

func (u diskUsage) total() int64 { return u.LdmsdStream + u.DsosdStream + u.DsosdWAL + u.Snapshot }

// disk sizes the run directory's stream segments, WALs and snapshots.
func (t *topology) disk() (diskUsage, error) {
	var u diskUsage
	err := filepath.Walk(t.dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(t.dir, path)
		switch {
		case rel == "ldmsd.stream":
			u.LdmsdStream += info.Size()
		case rel == "dsosd.stream":
			u.DsosdStream += info.Size()
		case strings.HasPrefix(rel, "wal"+string(filepath.Separator)):
			u.DsosdWAL += info.Size()
		case strings.HasPrefix(rel, "darshan_data.sos"):
			u.Snapshot += info.Size()
		}
		return nil
	})
	return u, err
}

// stopDaemons terminates ldmsd first (it flushes its uplink), then dsosd
// (it snapshots its shards), leaving the run directory for disk().
func (t *topology) stopDaemons() {
	if t.ldmsd != nil {
		t.ldmsd.stop(15 * time.Second)
	}
	if t.dsosd != nil {
		t.dsosd.stop(60 * time.Second)
	}
}

// close stops both daemons and removes the run directory. It is safe to
// call more than once and from the signal handler.
func (t *topology) close() {
	if !live.remove(t) {
		return
	}
	t.stopDaemons()
	t.http.CloseIdleConnections()
	os.RemoveAll(t.dir)
}

// liveSet tracks the running topologies so that every exit path — normal
// return, fatal error, SIGINT/SIGTERM — kills the daemons and removes
// their directories.
type liveSet struct {
	mu   sync.Mutex
	open []*topology
}

var live liveSet

func (l *liveSet) add(t *topology) {
	l.mu.Lock()
	l.open = append(l.open, t)
	l.mu.Unlock()
}

// remove reports whether t was still open.
func (l *liveSet) remove(t *topology) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, o := range l.open {
		if o == t {
			l.open = append(l.open[:i], l.open[i+1:]...)
			return true
		}
	}
	return false
}

func (l *liveSet) closeAll() {
	l.mu.Lock()
	open := append([]*topology(nil), l.open...)
	l.mu.Unlock()
	for _, t := range open {
		t.close()
	}
}

// cleanupOnSignal tears everything down on SIGINT/SIGTERM and exits with
// the conventional 128+signal status.
func cleanupOnSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "bench: %v: stopping daemons and removing run directories\n", s)
		live.closeAll()
		code := 130
		if s == syscall.SIGTERM {
			code = 143
		}
		os.Exit(code)
	}()
}
