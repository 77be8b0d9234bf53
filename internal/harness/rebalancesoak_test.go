package harness

import (
	"strings"
	"testing"
	"time"
)

// shortRebalanceConfig is the CI-sized soak: fewer schedules and a
// smaller workload, same topology and invariants. Used by
// `make topo-smoke` under the race detector.
func shortRebalanceConfig(seed uint64, static bool) RebalanceSoakConfig {
	return RebalanceSoakConfig{
		Seed: seed, Schedules: 5, EventsPerSchedule: 5,
		Leaves: 8, MsgsPerLeaf: 80, Horizon: 4 * time.Second,
		Shards: 3, Static: static,
	}
}

// The managed configuration (aggregation tree with failover + hash ring
// with live rebalancing) must survive every schedule — aggregator
// crashes, partitions, shard crashes and a grow + shrink mid-soak — with
// zero invariant violations.
func TestRebalanceSoakDurable(t *testing.T) {
	res, err := RebalanceSoak(shortRebalanceConfig(2026, false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("rebalance soak violated invariants:\n%s", RenderRebalanceSoak(res))
	}
	if len(res.Calm.Violations) != 0 {
		t.Fatalf("calm run self-check failed: %v", res.Calm.Violations)
	}
	if res.Calm.Migrations < 2 {
		t.Fatalf("calm run completed %d migrations, want the grow and the shrink", res.Calm.Migrations)
	}
	if res.Calm.Moved == 0 || res.Calm.Acked == 0 || res.Calm.Merged == 0 {
		t.Fatalf("calm run moved/stored nothing: %+v", res.Calm)
	}
	// The soak is only meaningful if the chaos actually bit: across the
	// schedules we need re-homings, heartbeat misses, shard-down
	// backpressure and completed migrations to all have fired.
	var rehomes, misses, naks, migrations uint64
	crashes := 0
	for _, r := range res.Runs {
		rehomes += r.Rehomes
		misses += r.Misses
		naks += r.Naks
		migrations += r.Migrations
		for _, rec := range r.Log {
			if strings.Contains(rec.Msg, "crash daemon") {
				crashes++
			}
		}
	}
	if crashes == 0 {
		t.Fatal("no daemon crash was scheduled across the soak; schedules too tame")
	}
	if rehomes == 0 || misses == 0 {
		t.Fatalf("no failover fired (rehomes %d, misses %d); aggregator faults never bit", rehomes, misses)
	}
	if naks == 0 {
		t.Fatal("no store-head naks; shard-down backpressure never exercised")
	}
	if migrations == 0 {
		t.Fatal("no migration completed under faults")
	}
}

// The static-placement baseline must demonstrably lose acked data under
// the same schedules — that is the gap live rebalancing closes.
func TestRebalanceSoakStaticLosesData(t *testing.T) {
	res, err := RebalanceSoak(shortRebalanceConfig(2026, true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations == 0 {
		t.Fatal("static baseline reported no violations; the harness cannot detect loss")
	}
	lost := false
	for _, r := range res.Runs {
		for _, v := range r.Violations {
			if strings.HasPrefix(v, "acked-but-lost") {
				lost = true
			}
		}
	}
	if !lost {
		t.Fatal("static baseline never lost acked data; the decommission scenario is toothless")
	}
}

// A soak must replay bit-for-bit from its seed: same config, same
// rendered report.
func TestRebalanceSoakDeterministic(t *testing.T) {
	cfg := shortRebalanceConfig(7, false)
	cfg.Schedules = 2
	a, err := RebalanceSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RebalanceSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := RenderRebalanceSoak(a), RenderRebalanceSoak(b)
	if ra != rb {
		t.Fatalf("soak not deterministic:\n--- first\n%s\n--- second\n%s", ra, rb)
	}
}

// Different seeds must produce different fault schedules — the soak
// explores, not repeats.
func TestRebalanceSoakSeedsDiffer(t *testing.T) {
	cfg := shortRebalanceConfig(1, false)
	cfg.Schedules = 1
	a, err := RebalanceSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	b, err := RebalanceSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Runs[0].Log) == len(b.Runs[0].Log) {
		same := true
		for i := range a.Runs[0].Log {
			if a.Runs[0].Log[i] != b.Runs[0].Log[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("two seeds produced identical fault logs")
		}
	}
}
