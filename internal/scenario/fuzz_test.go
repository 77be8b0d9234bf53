package scenario

import (
	"bytes"
	"encoding/json"
	"testing"
)

// canonical is a spec's canonical encoding: deterministic field order,
// zero-valued optional fields omitted. Parse(canonical(s)) must yield a
// spec whose canonical encoding is byte-identical.
func canonical(t testing.TB, s *Spec) []byte {
	t.Helper()
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatalf("canonical encode: %v", err)
	}
	return append(b, '\n')
}

// suiteSources returns the raw embedded scenario files.
func suiteSources(t testing.TB) [][]byte {
	t.Helper()
	ents, err := suiteFS.ReadDir("suite")
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, ent := range ents {
		data, err := suiteFS.ReadFile("suite/" + ent.Name())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// FuzzScenarioSpec feeds arbitrary bytes through the full Parse→Validate→
// canonical→BuildPlan path. Properties: Parse and the reference tree reader
// agree (sameDecoding); no panic or hang on hostile input, planning
// included; a valid spec plans at most MaxNodeSlots node slots and no
// negative latency spike; for any spec that parses, the canonical encoding is a fixed
// point that preserves the validation verdict; and a spec that validates
// has a positive horizon.
func FuzzScenarioSpec(f *testing.F) {
	for _, src := range suiteSources(f) {
		f.Add(src)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name": "a", "name": "b"}`))
	f.Add([]byte(`{"cluster": {"nodes": 1e99}}`))
	f.Add([]byte(`# only a comment`))
	// 10,000 jobs of 1,000 nodes: ten times the planned node slots a
	// spec may ask for.
	f.Add([]byte(`{"name": "wide", "fs": "Lustre", "horizon_s": 1, "cluster": {"nodes": 1000},
		"arrival": {"kind": "poisson", "rate_per_s": 20000, "max_jobs": 10000},
		"jobs": [{"kind": "checkpoint", "weight": 1, "nodes": 1000}]}`))
	f.Add([]byte(`{"name": "spike", "fs": "Lustre", "horizon_s": 1, "cluster": {"nodes": 1},
		"arrival": {"kind": "poisson", "rate_per_s": 1},
		"jobs": [{"kind": "checkpoint", "weight": 1}],
		"faults": {"events": [{"kind": "latency-spike", "target": "uplink", "extra_ms": 1e20}]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sameDecoding(t, data)
		s, err := Parse(data)
		if err != nil {
			if s != nil {
				t.Fatal("Parse returned both a spec and an error")
			}
			return
		}
		verdict := s.Validate()
		if verdict == nil {
			if s.Horizon() <= 0 {
				t.Fatalf("valid spec with horizon_s %v has horizon %v", s.HorizonS, s.Horizon())
			}
			plan := BuildPlan(s, 42)
			slots := 0
			for _, j := range plan.Jobs {
				slots += len(j.NodeIndexes)
			}
			if slots > MaxNodeSlots {
				t.Fatalf("valid spec planned %d node slots, at most %d", slots, MaxNodeSlots)
			}
			for _, ev := range plan.Faults.Events {
				if ev.Extra < 0 {
					t.Fatalf("valid spec planned a latency spike of %v", ev.Extra)
				}
			}
		}

		c := canonical(t, s)
		if len(c) > MaxSpecBytes {
			// Indented canonical form of a near-limit input can exceed the
			// size cap; the round-trip property only applies to re-parseable
			// output.
			return
		}
		s2, err := Parse(c)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\n%s", err, c)
		}
		verdict2 := s2.Validate()
		switch {
		case verdict == nil && verdict2 != nil:
			t.Fatalf("validation verdict flipped valid->invalid: %v", verdict2)
		case verdict != nil && verdict2 == nil:
			t.Fatalf("validation verdict flipped invalid->valid (was: %v)", verdict)
		case verdict != nil && verdict2 != nil && verdict.Error() != verdict2.Error():
			t.Fatalf("validation error changed across round-trip:\n was %q\n now %q", verdict, verdict2)
		}
		if !bytes.Equal(c, canonical(t, s2)) {
			t.Fatalf("canonical encoding is not a fixed point:\n%s\nvs\n%s", c, canonical(t, s2))
		}
	})
}
