package ldms

import (
	"bytes"
	"fmt"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"darshanldms/internal/streams"
)

// forwardPath wires node's forward to the upstream at addr and returns
// how to tear it down.
type forwardPath func(t *testing.T, node *Daemon, addr string) (stop func())

// forwardTCP is the reference: the paper's best-effort hop that was
// ldmsd's default -forward and dlc-run's -forward until every real-wire
// forward became an Uplink. It relays a tag from a local daemon's bus
// over one TCPClient, one legacy frame per message, flushed alone, with
// no redial or resend.
func forwardTCP(from *Daemon, tag string, client *TCPClient) *streams.Subscription {
	return from.Bus().Subscribe(tag, func(m streams.Message) {
		// Best-effort: a failed send is dropped, as LDMS Streams does.
		_ = client.Publish(m)
	})
}

// bestEffort wires the reference over one dialed TCPClient.
func bestEffort(t *testing.T, node *Daemon, addr string) func() {
	client, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	sub := forwardTCP(node, "darshanConnector", client)
	return func() { sub.Close(); client.Close() }
}

// forwardWindow is ldmsd -forward: NewForward over a block window of the
// flag defaults.
func forwardWindow(t *testing.T, node *Daemon, addr string) func() {
	u, _, err := NewForward(node, "darshanConnector", 1024, streams.Block, UplinkConfig{Addr: addr, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return func() { u.Close() }
}

// forwardRun sends frames into a node daemon's TCP listener, as a
// connector's frames reach ldmsd, forwards them with path to an upstream
// daemon and returns what the upstream stored: every (producer, seq) and
// the CSV rows (dsos.AppendCSVRow, through CSVStore), both sorted.
func forwardRun(t *testing.T, frames [][]streams.Message, path forwardPath) (ids, rows []string) {
	t.Helper()
	agg := NewDaemon("agg", "head")
	idents := &identStore{}
	var csv bytes.Buffer
	csvStore := NewCSVStore(&csv)
	// Handlers run in order: once idents holds a message, so does the CSV.
	agg.AttachStore("darshanConnector", csvStore)
	agg.AttachStore("darshanConnector", idents)
	up, err := ListenTCP(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()

	node := NewDaemon("ldmsd", "nid00040")
	stop := path(t, node, up.Addr())
	defer stop()
	srv, err := ListenTCP(node, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, f := range frames {
		if err := WriteBatchFrame(conn, f); err != nil {
			t.Fatal(err)
		}
		n += len(f)
	}
	conn.Close()
	waitFor(t, "every message stored upstream", func() bool { return len(idents.ids()) >= n })
	if err := csvStore.Flush(); err != nil {
		t.Fatal(err)
	}
	ids = idents.ids()
	slices.Sort(ids)
	rows = strings.Split(strings.TrimSuffix(csv.String(), "\n"), "\n")
	slices.Sort(rows)
	return ids, rows
}

// TestForwardMatchesBestEffort is the differential that let the
// reference go: on seeded genFrames schedules with the upstream up, the forward
// every daemon runs now (NewForward: a block window, batch frames of
// stored bodies) delivers the same (producer, seq) set, each once, and
// the upstream stores the same rows as the reference best-effort hop.
func TestForwardMatchesBestEffort(t *testing.T) {
	for _, per := range []int{1, 7, 64} {
		t.Run(fmt.Sprintf("frames of %d", per), func(t *testing.T) {
			frames := genFrames(uint64(40+per), 1500, per)
			wantIDs, wantRows := forwardRun(t, frames, bestEffort)
			gotIDs, gotRows := forwardRun(t, frames, forwardWindow)
			if len(wantIDs) != 1500 {
				t.Fatalf("reference stored %d messages, want 1500", len(wantIDs))
			}
			if !slices.Equal(gotIDs, wantIDs) {
				t.Errorf("(producer, seq) sets differ: %d against the reference's %d", len(gotIDs), len(wantIDs))
			}
			if len(slices.Compact(slices.Clone(gotIDs))) != len(gotIDs) {
				t.Error("a message was stored twice")
			}
			if !slices.Equal(gotRows, wantRows) {
				for i := range min(len(gotRows), len(wantRows)) {
					if gotRows[i] != wantRows[i] {
						t.Fatalf("row %d differs:\n got %s\nwant %s", i, gotRows[i], wantRows[i])
					}
				}
				t.Fatalf("%d rows, the reference %d", len(gotRows), len(wantRows))
			}
		})
	}
}

// TestForwardFirehose: 200k events written as fast as a socket takes
// them into a daemon wired as ldmsd -forward all reach the upstream. The
// block window holds the receiver back instead of refusing or dropping.
func TestForwardFirehose(t *testing.T) {
	// 125 frames of 64 events, written 25 times over.
	const events, set = 200_000, 8000
	var frames bytes.Buffer
	for _, f := range genFrames(17, set, 64) {
		if err := WriteBatchFrame(&frames, f); err != nil {
			t.Fatal(err)
		}
	}
	up, err := ListenTCP(NewDaemon("agg", "head"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	node := NewDaemon("ldmsd", "nid00040")
	u, window, err := NewForward(node, "darshanConnector", 1024, streams.Block, UplinkConfig{Addr: up.Addr(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	srv, err := ListenTCP(node, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for range events / set {
		if _, err := conn.Write(frames.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()
	const want = events
	waitFor(t, "the firehose upstream", func() bool { return up.Received() >= want })
	if err := u.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	ws := window.Stats()
	if got := up.Received(); got != want || u.Stats().Sent != want || ws.Refused != 0 || ws.Dropped != 0 {
		t.Fatalf("upstream received %d, uplink sent %d, window refused %d and dropped %d; want %d, %d, 0, 0",
			got, u.Stats().Sent, ws.Refused, ws.Dropped, want, want)
	}
}
