package darshanldms_test

import (
	"context"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"darshanldms/internal/event"
	"darshanldms/internal/ldms"
	"darshanldms/internal/streams"
)

// CLI tests of the forward every daemon runs (ldmsd -forward, dlc-run
// -forward): one redialing uplink over a memory-only window.

// sendJob7 writes job 7's events with sequences [from, to) to addr as
// 64-event batch frames, as a connector's stream reaches ldmsd.
func sendJob7(t *testing.T, addr string, from, to int) {
	t.Helper()
	var msgs []streams.Message
	for seq := from; seq < to; seq++ {
		m := job7Event(seq % 64)
		m.Seq = uint64(seq)
		msgs = append(msgs, streams.Message{
			Tag: "darshanConnector", Type: streams.TypeJSON,
			Record: event.NewRecord(&m, nil), Producer: m.ProducerName, Seq: m.Seq,
		})
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for len(msgs) > 0 {
		n := min(64, len(msgs))
		if err := ldms.WriteBatchFrame(conn, msgs[:n]); err != nil {
			t.Fatal(err)
		}
		msgs = msgs[n:]
	}
}

// storeCount reads dsosd's /count.
func storeCount(t *testing.T, api string) int {
	_, body := httpDo(t, http.MethodGet, "http://"+api+"/count")
	n, _ := strconv.Atoi(strings.TrimSpace(body))
	return n
}

// lastStatsLine returns the daemon's most recent stats line.
func lastStatsLine(stderr string) string {
	i := strings.LastIndex(stderr, " received=")
	if i < 0 {
		return ""
	}
	line, _, _ := strings.Cut(stderr[i:], "\n")
	return line
}

// TestCLIForwardSurvivesUpstreamRestart: ldmsd -forward, with no other
// uplink flag, redials a dsosd that was killed and restarted on its
// address, and delivers what it held while dsosd was down and everything
// sent after the restart.
func TestCLIForwardSurvivesUpstreamRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	ldmsdBin, dsosdBin := buildDaemons(t)
	storeAddr, storeAPI, nodeAddr := freeAddr(t), freeAddr(t), freeAddr(t)
	startDsosd := func() (*exec.Cmd, *lockedBuffer) {
		cmd := exec.Command(dsosdBin, "-listen", storeAddr, "-http", storeAPI, "-snapshot-every", "1h")
		cmd.Dir = t.TempDir()
		stderr := &lockedBuffer{}
		cmd.Stderr = stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cmd.Process.Kill(); _ = cmd.Wait() })
		waitStderr(t, "dsosd listening", stderr, func() bool { return ldms.PingTCP(storeAddr, 200*time.Millisecond) == nil })
		return cmd, stderr
	}
	dsosd, dsosdErr := startDsosd()
	ldmsdErr := startDaemon(t, ldmsdBin, "-listen", nodeAddr, "-forward", storeAddr, "-stats", "20ms")
	waitStderr(t, "ldmsd listening", ldmsdErr, func() bool { return ldms.PingTCP(nodeAddr, 200*time.Millisecond) == nil })

	sendJob7(t, nodeAddr, 1, 201)
	waitStderr(t, "the first 200 stored", dsosdErr, func() bool { return storeCount(t, storeAPI) == 200 })
	waitStderr(t, "the uplink connected", ldmsdErr, func() bool {
		return strings.Contains(lastStatsLine(ldmsdErr.String()), "connected=true")
	})
	if err := dsosd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = dsosd.Wait()
	waitStderr(t, "the uplink to see dsosd go", ldmsdErr, func() bool {
		return strings.Contains(lastStatsLine(ldmsdErr.String()), "connected=false")
	})
	sendJob7(t, nodeAddr, 201, 301) // held in the window while dsosd is down
	_, restartedErr := startDsosd()
	sendJob7(t, nodeAddr, 301, 401)
	waitStderr(t, "the restarted dsosd to store all 200", restartedErr, func() bool { return storeCount(t, storeAPI) == 200 })
	if line := lastStatsLine(ldmsdErr.String()); lastStat(line, "retries") < 1 {
		t.Errorf("ldmsd never retried a round across the restart: %s", line)
	}
}

// TestCLILdmsdShutdownWithBlockedPublisher: SIGTERM stops ldmsd while a
// block window is full and a receive is parked in its append. The uplink
// is flushed and closed first, which refuses the parked append, and only
// then the listener.
func TestCLILdmsdShutdownWithBlockedPublisher(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	bin := filepath.Join(t.TempDir(), "ldmsd")
	runCmd(t, "build", "-o", bin, "./cmd/ldmsd")
	nodeAddr := freeAddr(t)
	cmd := exec.Command(bin, "-listen", nodeAddr, "-forward", "127.0.0.1:1", "-reconnect",
		"-spool", "128", "-spool-policy", "block", "-stats", "20ms")
	stderr := &lockedBuffer{}
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	t.Cleanup(func() { _ = cmd.Process.Kill() })
	waitStderr(t, "ldmsd listening", stderr, func() bool { return ldms.PingTCP(nodeAddr, 200*time.Millisecond) == nil })

	// Two frames fill the window; the third parks in the append.
	sendJob7(t, nodeAddr, 1, 257)
	waitStderr(t, "a full window", stderr, func() bool { return lastStat(stderr.String(), "stream-msgs") == 128 })
	time.Sleep(100 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
	case <-time.After(15 * time.Second):
		t.Fatalf("ldmsd still running 15s after SIGTERM with a blocked publisher:\n%s", stderr)
	}
	if !strings.Contains(stderr.String(), "128 messages unsent") {
		t.Errorf("ldmsd did not name what its window still held:\n%s", stderr)
	}
}

// TestCLIRunForward: dlc-run -forward sends the connector's stream through
// the same uplink, refuses to start against a dead upstream, and fails
// when its window does not drain before exit.
func TestCLIRunForward(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	bin := filepath.Join(t.TempDir(), "dlc-run")
	runCmd(t, "build", "-o", bin, "./cmd/dlc-run")
	_, dsosdBin := buildDaemons(t)
	run := func(addr string, args ...string) (string, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		out, err := exec.CommandContext(ctx, bin, append(args, "-connector", "-forward", addr)...).CombinedOutput()
		return string(out), err
	}
	events := regexp.MustCompile(`, (\d+) events`)

	t.Run("live dsosd", func(t *testing.T) {
		storeAddr, storeAPI := freeAddr(t), freeAddr(t)
		dsosdErr := startDaemon(t, dsosdBin, "-listen", storeAddr, "-http", storeAPI, "-snapshot-every", "1h")
		waitStderr(t, "dsosd listening", dsosdErr, func() bool { return ldms.PingTCP(storeAddr, 200*time.Millisecond) == nil })
		out, err := run(storeAddr, "-app", "hacc", "-scale", "0.002", "-encoder", "fast", "-seed", "3")
		if err != nil {
			t.Fatalf("dlc-run: %v\n%s", err, out)
		}
		m := events.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("dlc-run reported no event count:\n%s", out)
		}
		n, _ := strconv.Atoi(m[1])
		waitStderr(t, "every event stored", dsosdErr, func() bool { return storeCount(t, storeAPI) == n })
	})

	t.Run("two jobs into dsosd -stream", func(t *testing.T) {
		// Each dlc-run's connector numbers its messages from 1: the second
		// job from the same nodes must be stored, not absorbed as replays
		// of the first.
		storeAddr, storeAPI := freeAddr(t), freeAddr(t)
		dsosdErr := startDaemon(t, dsosdBin, "-listen", storeAddr, "-http", storeAPI, "-snapshot-every", "1h", "-stream", "dsosd.stream")
		waitStderr(t, "dsosd listening", dsosdErr, func() bool { return ldms.PingTCP(storeAddr, 200*time.Millisecond) == nil })
		total := 0
		for _, job := range []string{"100", "101"} {
			out, err := run(storeAddr, "-app", "hacc", "-scale", "0.002", "-encoder", "fast", "-seed", "3", "-job", job)
			if err != nil {
				t.Fatalf("dlc-run -job %s: %v\n%s", job, err, out)
			}
			m := events.FindStringSubmatch(out)
			if m == nil {
				t.Fatalf("dlc-run -job %s reported no event count:\n%s", job, out)
			}
			n, _ := strconv.Atoi(m[1])
			total += n
			waitStderr(t, "job "+job+"'s events stored", dsosdErr, func() bool { return storeCount(t, storeAPI) == total })
		}
		_, metrics := httpDo(t, http.MethodGet, "http://"+storeAPI+"/metrics")
		if !strings.Contains(metrics, "\ndlc_dedup_duplicates_total 0\n") {
			t.Errorf("dsosd /metrics: want dlc_dedup_duplicates_total 0 in\n%s", metrics)
		}
	})

	t.Run("nothing listening", func(t *testing.T) {
		start := time.Now()
		out, err := run(freeAddr(t), "-app", "sw4", "-scale", "0.001")
		if err == nil {
			t.Fatalf("dlc-run exited zero with nothing listening:\n%s", out)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("dlc-run took %v to give up on a dead upstream", d)
		}
	})

	t.Run("window does not drain", func(t *testing.T) {
		// The upstream answers dlc-run's startup probe and never takes an
		// uplink connection: its accept queue holds one connection and is
		// never drained, so the probe fills it and the kernel drops every
		// later SYN until the uplink's dial times out.
		ln := unacceptedListener(t)
		out, err := run(ln.Addr().String(), "-app", "sw4", "-scale", "0.001")
		if err == nil {
			t.Fatalf("dlc-run exited zero with its window undrained:\n%s", out)
		}
		m := events.FindStringSubmatch(out)
		if m == nil || !strings.Contains(out, m[1]+" messages unsent") {
			t.Fatalf("dlc-run did not name its unsent messages:\n%s", out)
		}
	})
}

// unacceptedListener listens on a loopback port with a backlog of zero (an
// accept queue of one connection) and is never accepted from.
func unacceptedListener(t *testing.T) net.Listener {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := os.NewFile(uintptr(fd), "listener")
	defer f.Close()
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	ln, err := net.FileListener(f)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}
