package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A bench.json cut down to what the gate reads, with one ungated metric
// of each kind beside the gated ones.
const reportJSON = `{
  "provenance": {"go_version": "go1.24.0", "seed": 42},
  "layers": {
    "ldms.tcp_batch_allocs": 0.06,
    "ldms.tcp_batch_ns": 1133.9,
    "sos.wal_bytes_per_event": 296.505156,
    "streams.bytes_per_event": 460.382344
  },
  "workloads": [{
    "name": "durable-paced",
    "end_to_end": {
      "disk_bytes_per_event": {"unit": "B", "min": 1, "median": 665.2041, "max": 900},
      "rss_mb": {"unit": "MB", "median": 58.5}
    },
    "diagnostic": {
      "ldmsd.stream_bytes_per_event": {"median": 154.2697},
      "ldmsd.rss_mb": {"median": 19.3}
    }
  }]
}`

func ledgerJSON(goMinor string, metrics ...string) string {
	return `{"go": "` + goMinor + `", "metrics": {` + strings.Join(metrics, ",") + `}}`
}

const (
	tcpBatch  = `"layers.ldms.tcp_batch_allocs": 0.0600`
	walBytes  = `"layers.sos.wal_bytes_per_event": 296.5052`
	strBytes  = `"layers.streams.bytes_per_event": 460.3823`
	diskBytes = `"durable-paced.disk_bytes_per_event": 665.2041`
	ldmsdStr  = `"durable-paced.ldmsd.stream_bytes_per_event": 154.2697`
)

func TestGate(t *testing.T) {
	cases := []struct {
		name   string
		ledger string
		fails  bool
		want   []string // substrings of stdout + error
	}{
		{"equal", ledgerJSON("go1.24", tcpBatch, walBytes, strBytes, diskBytes, ldmsdStr), false,
			[]string{"0 of 5 metrics off", "±0.01 allocs/event", "±0.2% bytes/event", "enforced on go1.24"}},
		{"inside the allowances", ledgerJSON("go1.24", `"layers.ldms.tcp_batch_allocs": 0.0690`, walBytes, strBytes,
			`"durable-paced.disk_bytes_per_event": 666.4000`, ldmsdStr), false, []string{"0 of 5 metrics off"}},
		{"allocs worse", ledgerJSON("go1.24", `"layers.ldms.tcp_batch_allocs": 0.0400`, walBytes, strBytes, diskBytes, ldmsdStr), true,
			[]string{"layers.ldms.tcp_batch_allocs", "run     0.0600", "ledger     0.0400", "allowance ±0.0100", "REGRESSION", "1 of 5 metrics off", "make bench-ledger"}},
		{"allocs better", ledgerJSON("go1.24", `"layers.ldms.tcp_batch_allocs": 0.0800`, walBytes, strBytes, diskBytes, ldmsdStr), true,
			[]string{"layers.ldms.tcp_batch_allocs", "STALE", "make bench-ledger"}},
		{"bytes worse", ledgerJSON("go1.24", tcpBatch, walBytes, strBytes, diskBytes, `"durable-paced.ldmsd.stream_bytes_per_event": 153.9000`), true,
			[]string{"durable-paced.ldmsd.stream_bytes_per_event", "run   154.2697", "ledger   153.9000", "allowance ±0.3078", "REGRESSION"}},
		{"bytes better", ledgerJSON("go1.24", tcpBatch, walBytes, strBytes, `"durable-paced.disk_bytes_per_event": 667.0000`, ldmsdStr), true,
			[]string{"durable-paced.disk_bytes_per_event", "STALE", "make bench-ledger"}},
		{"metric only in the run", ledgerJSON("go1.24", tcpBatch, walBytes, diskBytes, ldmsdStr), true,
			[]string{"layers.streams.bytes_per_event", "MISSING (in bench.json: true, in the ledger: false)", "make bench-ledger"}},
		{"metric only in the ledger", ledgerJSON("go1.24", tcpBatch, walBytes, strBytes, diskBytes, ldmsdStr, `"layers.gone_allocs": 1.0000`), true,
			[]string{"layers.gone_allocs", "MISSING (in bench.json: false, in the ledger: true)", "make bench-ledger"}},
		{"another Go minor reports and passes", ledgerJSON("go1.22", `"layers.ldms.tcp_batch_allocs": 0.0400`, walBytes, strBytes, diskBytes, ldmsdStr), false,
			[]string{"REGRESSION", "layers.sos.wal_bytes_per_event", "ok", "1 of 5 metrics off", "enforced on go1.22, the toolchain that wrote it; this is go1.24"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			rep, led := filepath.Join(dir, "bench.json"), filepath.Join(dir, "bench.ledger")
			writeFile(t, rep, reportJSON)
			writeFile(t, led, c.ledger)
			var out bytes.Buffer
			err := gate(&out, rep, led, false)
			if (err != nil) != c.fails {
				t.Fatalf("err = %v, want failure %v\n%s", err, c.fails, out.String())
			}
			text := out.String()
			if err != nil {
				text += err.Error()
			}
			for _, want := range c.want {
				if !strings.Contains(text, want) {
					t.Errorf("output lacks %q:\n%s", want, text)
				}
			}
			// Ungated metrics never appear, whatever the verdict.
			for _, never := range []string{"tcp_batch_ns", "rss_mb"} {
				if strings.Contains(text, never) {
					t.Errorf("output names ungated %q:\n%s", never, text)
				}
			}
		})
	}
}

// TestWriteIsStableAndPasses: the ledger -write produces passes the check
// it was written from, and writing again — also from a run whose floats
// differ below the fourth decimal — reproduces it byte for byte, in sorted
// key order, so a ledger diff shows only the metrics that moved.
func TestWriteIsStableAndPasses(t *testing.T) {
	dir := t.TempDir()
	rep, led := filepath.Join(dir, "bench.json"), filepath.Join(dir, "bench.ledger")
	writeFile(t, rep, reportJSON)
	if err := gate(&bytes.Buffer{}, rep, led, true); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(led)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := gate(&out, rep, led, false); err != nil {
		t.Fatalf("freshly written ledger fails its own report: %v\n%s", err, out.String())
	}
	writeFile(t, rep, strings.Replace(reportJSON, "296.505156", "296.505249", 1))
	if err := gate(&bytes.Buffer{}, rep, led, true); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(led)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("rewrite differs:\n%s\nvs\n%s", first, second)
	}
	text := string(first)
	order := []string{`"go": "go1.24"`, diskBytes, ldmsdStr, tcpBatch, walBytes, strBytes}
	at := -1
	for _, entry := range order {
		i := strings.Index(text, entry)
		if i <= at {
			t.Fatalf("%s missing or out of sorted order in:\n%s", entry, text)
		}
		at = i
	}
}

func TestGateNeedsBothFiles(t *testing.T) {
	dir := t.TempDir()
	rep, led := filepath.Join(dir, "bench.json"), filepath.Join(dir, "bench.ledger")
	if err := gate(&bytes.Buffer{}, rep, led, false); err == nil {
		t.Fatal("missing bench.json accepted")
	}
	writeFile(t, rep, reportJSON)
	if err := gate(&bytes.Buffer{}, rep, led, false); err == nil {
		t.Fatal("missing ledger accepted")
	}
	writeFile(t, led, "{not json")
	if err := gate(&bytes.Buffer{}, rep, led, false); err == nil || !strings.Contains(err.Error(), "bench.ledger") {
		t.Fatalf("malformed ledger: %v", err)
	}
}

func writeFile(t *testing.T, path, text string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
}
