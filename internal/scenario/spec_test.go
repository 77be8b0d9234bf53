package scenario

import (
	"bytes"
	"strings"
	"testing"
)

// validSpec is the baseline every golden validation case mutates.
func validSpec() *Spec {
	return &Spec{
		Name:     "base",
		HorizonS: 10,
		FS:       "Lustre",
		Cluster:  ClusterSpec{Nodes: 24, RanksPerNode: 4},
		Arrival:  ArrivalSpec{Kind: ArrivalPoisson, RatePerS: 1, MaxJobs: 8},
		Jobs: []JobSpec{
			{Kind: JobCheckpoint, Weight: 1, Nodes: 2},
		},
	}
}

func TestValidateAcceptsBaseline(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("baseline spec invalid: %v", err)
	}
}

// One golden case per validation error class: the exact message is part of
// the user-facing contract (dlc-experiments prints it verbatim).
var validateGoldenCases = []struct {
	name   string
	mutate func(*Spec)
	want   string
}{
	{"missing name", func(s *Spec) { s.Name = "" },
		`scenario: name: required`},
	{"bad fs", func(s *Spec) { s.FS = "GPFS" },
		`scenario: fs: must be "NFS" or "Lustre", got "GPFS"`},
	{"non-positive horizon", func(s *Spec) { s.HorizonS = 0 },
		`scenario: horizon_s: must be positive, got 0`},
	{"horizon past the cap", func(s *Spec) { s.HorizonS = 1e10 },
		`scenario: horizon_s: must be at most 1000000, got 1e+10`},
	{"cluster too large", func(s *Spec) { s.Cluster.Nodes = 10001 },
		`scenario: cluster.nodes: must be in [1, 10000], got 10001`},
	{"ranks per node over cap", func(s *Spec) { s.Cluster.RanksPerNode = 65 },
		`scenario: cluster.ranks_per_node: must be in [0, 64], got 65`},
	{"unknown arrival kind", func(s *Spec) { s.Arrival.Kind = "uniform" },
		`scenario: arrival.kind: must be one of poisson, diurnal, bursty; got "uniform"`},
	{"poisson needs rate", func(s *Spec) { s.Arrival.RatePerS = 0 },
		`scenario: arrival.rate_per_s: must be positive for poisson arrivals, got 0`},
	{"diurnal needs periods", func(s *Spec) {
		s.Arrival.Kind = ArrivalDiurnal
	}, `scenario: arrival.periods: diurnal arrivals need at least one period`},
	{"period must be positive", func(s *Spec) {
		s.Arrival.Kind = ArrivalDiurnal
		s.Arrival.Periods = []PeriodSpec{{PeriodS: 0, Amplitude: 0.5}}
	}, `scenario: arrival.periods[0].period_s: must be positive, got 0`},
	{"amplitude out of range", func(s *Spec) {
		s.Arrival.Kind = ArrivalDiurnal
		s.Arrival.Periods = []PeriodSpec{{PeriodS: 10, Amplitude: 1.5}}
	}, `scenario: arrival.periods[0].amplitude: must be in [-1, 1], got 1.5`},
	{"bursty needs spacing", func(s *Spec) {
		s.Arrival.Kind = ArrivalBursty
		s.Arrival.BurstSize = 4
	}, `scenario: arrival.burst_every_s: must be positive for bursty arrivals, got 0`},
	{"bursty needs size", func(s *Spec) {
		s.Arrival.Kind = ArrivalBursty
		s.Arrival.BurstEveryS = 5
	}, `scenario: arrival.burst_size: must be at least 1 for bursty arrivals, got 0`},
	{"bursts past the draw cap", func(s *Spec) {
		s.HorizonS = 5
		s.Arrival = ArrivalSpec{Kind: ArrivalBursty, BurstEveryS: 1e-8, BurstSize: 1, BurstJitterS: 1e12}
	}, `scenario: arrival: bursts draw 5e+08 arrivals (horizon_s / burst_every_s × burst_size), at most 1000000`},
	{"thinning past the draw cap", func(s *Spec) {
		s.Arrival = ArrivalSpec{Kind: ArrivalDiurnal, RatePerS: 1e6, Periods: []PeriodSpec{{PeriodS: 10, Amplitude: -1}}}
	}, `scenario: arrival: thinning draws 2e+07 candidate arrivals (rate_per_s × (1 + Σ|amplitude|) × horizon_s), at most 1000000`},
	{"max jobs over cap", func(s *Spec) { s.Arrival.MaxJobs = 10001 },
		`scenario: arrival.max_jobs: must be in [0, 10000], got 10001`},
	{"negative uplink rate", func(s *Spec) { s.Pipeline.UplinkRatePerS = -1 },
		`scenario: pipeline.uplink_rate_per_s: must be non-negative, got -1`},
	{"node latency past the cap", func(s *Spec) { s.Pipeline.NodeLatencyUS = 1e20 },
		`scenario: pipeline.node_latency_us: must be at most 1e+12, got 1e+20`},
	{"uplink latency past the cap", func(s *Spec) { s.Pipeline.UplinkLatencyUS = 1e20 },
		`scenario: pipeline.uplink_latency_us: must be at most 1e+12, got 1e+20`},
	{"no job templates", func(s *Spec) { s.Jobs = nil },
		`scenario: jobs: must list at least one job template`},
	{"unknown job kind", func(s *Spec) { s.Jobs[0].Kind = "mapreduce" },
		`scenario: jobs[0].kind: must be one of checkpoint, shared-file, metadata-storm, small-file, replay; got "mapreduce"`},
	{"non-positive weight", func(s *Spec) { s.Jobs[0].Weight = 0 },
		`scenario: jobs[0].weight: must be positive, got 0`},
	{"job wider than cluster", func(s *Spec) { s.Jobs[0].Nodes = 25 },
		`scenario: jobs[0].nodes: must be in [0, cluster.nodes=24], got 25`},
	{"replay needs trace", func(s *Spec) { s.Jobs[0] = JobSpec{Kind: JobReplay, Weight: 1} },
		`scenario: jobs[0].trace: replay jobs must name a trace`},
	{"trace on non-replay", func(s *Spec) { s.Jobs[0].Trace = "builtin:sample" },
		`scenario: jobs[0].trace: only valid for replay jobs`},
	{"node slots past the cap", func(s *Spec) {
		s.Cluster.Nodes = 10000
		s.Arrival.MaxJobs = 10000
		s.Jobs = append(s.Jobs, JobSpec{Kind: JobSmallFile, Weight: 1, Nodes: 101})
	}, `scenario: jobs: max_jobs × the widest job's nodes plans 1010000 node slots, at most 1000000`},
	{"default max_jobs counts toward node slots", func(s *Spec) {
		s.Cluster.Nodes = 10000
		s.Arrival.MaxJobs = 0
		s.Jobs[0].Nodes = 4000
	}, `scenario: jobs: max_jobs × the widest job's nodes plans 1024000 node slots, at most 1000000`},
	{"unknown fault kind", func(s *Spec) {
		s.Faults.Events = []FaultEventSpec{{Kind: "meteor", Target: "uplink"}}
	}, `scenario: faults.events[0].kind: must be one of link-partition, latency-spike, slow-subscriber, daemon-crash; got "meteor"`},
	{"bad link target", func(s *Spec) {
		s.Faults.Events = []FaultEventSpec{{Kind: FaultLinkPartition, Target: "node-24"}}
	}, `scenario: faults.events[0].target: must be "uplink" or "node-<i>" with i < cluster.nodes, got "node-24"`},
	{"uplink fault vs rate limit", func(s *Spec) {
		s.Pipeline.UplinkRatePerS = 100
		s.Faults.Events = []FaultEventSpec{{Kind: FaultLinkPartition, Target: "uplink"}}
	}, `scenario: faults.events[0].target: uplink faults conflict with pipeline.uplink_rate_per_s (the rate-limited uplink is not fault-addressable)`},
	{"crash targets head only", func(s *Spec) {
		s.Faults.Events = []FaultEventSpec{{Kind: FaultDaemonCrash, Target: "node-0"}}
	}, `scenario: faults.events[0].target: daemon-crash targets "head", got "node-0"`},
	{"extra_ms past the cap", func(s *Spec) {
		s.Faults.Events = []FaultEventSpec{{Kind: FaultLatencySpike, Target: "uplink", ExtraMS: 1e20}}
	}, `scenario: faults.events[0].extra_ms: must be at most 1e+09, got 1e+20`},
	{"at_frac out of range", func(s *Spec) {
		s.Faults.Events = []FaultEventSpec{{Kind: FaultLinkPartition, Target: "uplink", AtFrac: 1.5}}
	}, `scenario: faults.events[0].at_frac: must be in [0, 1], got 1.5`},
	{"random events over cap", func(s *Spec) { s.Faults.RandomEvents = 65 },
		`scenario: faults.random_events: must be in [0, 64], got 65`},
}

func TestValidateGoldenErrors(t *testing.T) {
	for _, tc := range validateGoldenCases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSpec()
			tc.mutate(s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("want error %q, got nil", tc.want)
			}
			if err.Error() != tc.want {
				t.Fatalf("error mismatch:\n got %q\nwant %q", err.Error(), tc.want)
			}
		})
	}
}

// One golden case per parser error class.
var parseGoldenCases = []struct {
	name string
	in   string
	want string // substring of the error
}{
	{"duplicate key", `{"name": "a", "name": "b"}`, `duplicate key "name"`},
	{"unknown field", `{"name": "a", "colour": 3}`, `spec: unknown field "colour"`},
	{"unknown nested field", `{"cluster": {"nodes": 4, "cores": 8}}`, `cluster: unknown field "cores"`},
	{"type mismatch", `{"name": 42}`, `spec.name: expected a string`},
	{"non-integer count", `{"cluster": {"nodes": 4.5}}`, `cluster.nodes: expected an integer`},
	{"number out of range", `{"cluster": {"nodes": 99999999999999999999999999}}`, `cluster.nodes: expected an integer in range`},
	{"trailing content", `{"name": "a"} {"name": "b"}`, `trailing content after spec`},
	{"top level not object", `[1, 2, 3]`, `top level must be an object`},
	{"truncated", `{"name": "a", "cluster": {`, `EOF`},
	{"too deep", strings.Repeat(`{"cluster":`, 20) + `1` + strings.Repeat(`}`, 20), `nesting deeper than 16 levels`},
	{"key differs from its tag in case", `{"Name": "a"}`, `spec: unknown field "Name"`},
	{"null scalar", `{"cluster": {"nodes": null}}`, `cluster.nodes: expected an integer`},
	{"null object", `{"pipeline": null}`, `pipeline: expected an object`},
	{"type error in a list element", `{"jobs": [{}, {}, {"kind": 1}]}`, `jobs[2].kind: expected a string`},
	{"indexed path", `{"arrival": {"periods": [{"period_s": 1}, {"period": 1}]}}`, `arrival.periods[1]: unknown field "period"`},
}

// TestParseGoldenErrors holds Parse, and the reference tree reader, to
// every row's text.
func TestParseGoldenErrors(t *testing.T) {
	for _, tc := range parseGoldenCases {
		t.Run(tc.name, func(t *testing.T) {
			for _, parse := range []func([]byte) (*Spec, error){Parse, refParse} {
				_, err := parse([]byte(tc.in))
				if err == nil {
					t.Fatalf("want error containing %q, got nil", tc.want)
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("error %q does not contain %q", err.Error(), tc.want)
				}
			}
		})
	}
}

func TestParseOversizedSpec(t *testing.T) {
	if _, err := Parse(make([]byte, MaxSpecBytes+1)); err == nil {
		t.Fatal("oversized spec accepted")
	}
}

func TestParseStripsComments(t *testing.T) {
	in := `
# full-line comment
{
  "name": "commented", // trailing comment
  "horizon_s": 5, # another
  "fs": "NFS",
  "cluster": {"nodes": 2},
  "arrival": {"kind": "poisson", "rate_per_s": 1},
  "jobs": [{"kind": "checkpoint", "weight": 1, "nodes": 1}]
}
`
	s, err := Load([]byte(in))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if s.Name != "commented" || s.Cluster.Nodes != 2 {
		t.Fatalf("decoded wrong spec: %+v", s)
	}
}

func TestCommentMarkersInsideStrings(t *testing.T) {
	in := `{"name": "a#b//c", "horizon_s": 5, "fs": "NFS",
		"cluster": {"nodes": 2},
		"arrival": {"kind": "poisson", "rate_per_s": 1},
		"jobs": [{"kind": "checkpoint", "weight": 1}]}`
	s, err := Load([]byte(in))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if s.Name != "a#b//c" {
		t.Fatalf("comment stripping mangled a string: %q", s.Name)
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	for _, s := range Suite() {
		c := canonical(t, s)
		s2, err := Parse(c)
		if err != nil {
			t.Fatalf("%s: canonical form does not re-parse: %v", s.Name, err)
		}
		if err := s2.Validate(); err != nil {
			t.Fatalf("%s: canonical form invalid: %v", s.Name, err)
		}
		if !bytes.Equal(c, canonical(t, s2)) {
			t.Fatalf("%s: canonical encoding is not a fixed point", s.Name)
		}
	}
}

func TestSuiteCurated(t *testing.T) {
	specs := Suite()
	want := []string{
		"diurnal-mix",
		"faulty-shared-contention",
		"flash-crowd-metadata",
		"poisson-checkpoint",
		"replay-dxt",
	}
	if len(specs) != len(want) {
		t.Fatalf("suite has %d scenarios, want %d", len(specs), len(want))
	}
	for i, s := range specs {
		if s.Name != want[i] {
			t.Fatalf("suite[%d] = %q, want %q", i, s.Name, want[i])
		}
	}
	if len(suiteSources(t)) != len(want) {
		t.Fatalf("embedded suite size mismatch")
	}
}

func TestBuildPlanDeterministic(t *testing.T) {
	for _, s := range Suite() {
		a := BuildPlan(s, 42)
		b := BuildPlan(s, 42)
		if len(a.Jobs) == 0 {
			t.Fatalf("%s: plan has no jobs", s.Name)
		}
		if len(a.Jobs) != len(b.Jobs) {
			t.Fatalf("%s: job counts differ across identical plans", s.Name)
		}
		for i := range a.Jobs {
			ja, jb := a.Jobs[i], b.Jobs[i]
			if ja.Start != jb.Start || ja.Kind != jb.Kind || ja.ID != jb.ID {
				t.Fatalf("%s: job %d differs: %+v vs %+v", s.Name, i, ja, jb)
			}
		}
		if len(a.Faults.Events) != len(b.Faults.Events) {
			t.Fatalf("%s: fault schedules differ", s.Name)
		}
	}
}

func TestBuildPlanSeedSensitivity(t *testing.T) {
	s := Suite()[0] // diurnal-mix: no pinned seed
	if s.Seed != 0 {
		t.Fatalf("expected unpinned scenario, got seed %d", s.Seed)
	}
	a := BuildPlan(s, 1)
	b := BuildPlan(s, 2)
	same := len(a.Jobs) == len(b.Jobs)
	if same {
		for i := range a.Jobs {
			if a.Jobs[i].Start != b.Jobs[i].Start {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different campaign seeds produced identical plans")
	}
}

func TestBuildPlanFaultTargetsCovered(t *testing.T) {
	s := validSpec()
	s.Faults.Events = []FaultEventSpec{
		{Kind: FaultLatencySpike, Target: "node-20", AtFrac: 0.5, DurFrac: 0.1, ExtraMS: 2},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("spec invalid: %v", err)
	}
	p := BuildPlan(s, 7)
	found := false
	for _, idx := range p.UsedNodes {
		if idx == 20 {
			found = true
		}
	}
	if !found {
		t.Fatal("fault-targeted node 20 missing from UsedNodes")
	}
}
