// Package scenario is the generative workload engine: a declarative
// scenario spec (JSON with #-comments, a YAML-flow-style subset) is parsed
// and validated into a Spec that composes an arrival process (Poisson,
// diurnal/multi-period, bursty/flash-crowd), a weighted job mix
// (checkpoint-heavy, metadata storm, small-file pathology, shared-file
// contention, DXT trace replay), a cluster scale (1 to 10k simulated
// nodes) and a fault profile over the existing internal/faults kinds.
// Everything is seeded through internal/rng, so a Spec plus a campaign
// seed deterministically expands into a Plan — the exact list of timed
// job launches the harness executes through the full
// connector→streams→ldms→dsos pipeline.
//
// The paper evaluates the connector on three hand-written applications;
// this package is how the chaos, stream, rebalance and bench harnesses go
// wide instead: arrival patterns, job mixes and cluster scales nobody
// hand-wrote, each one a replayable campaign (ROADMAP open item 3;
// Recorder arXiv:2501.04654 motivates trace-driven evaluation, LASSi
// arXiv:1906.03884 diverse contention scenarios).
//
// The Spec structs are the schema: Parse walks the JSON token stream into
// them by their json tags, so a new spec field is one tagged struct line.
// The walk is strict where encoding/json is lenient. A duplicate key, a
// key that matches a tag only case-insensitively, an unknown field, null
// anywhere but a list, nesting deeper than 16 levels, a top level that is
// not an object and trailing content are errors, as are a wrong type and
// an out-of-range number; each names its field path ("jobs[2].weight",
// "arrival.periods[0]").
package scenario

import (
	"cmp"
	"fmt"
	"strconv"
	"time"
)

// Limits enforced by Validate. They bound hostile specs (the fuzz target
// feeds arbitrary bytes through Parse+Validate) and keep planned campaigns
// within what the simulator meaningfully models.
const (
	MaxClusterNodes = 10_000 // the paper's Voltrino is 24; spec scales to 10k
	MaxRanksPerNode = 64
	MaxJobTemplates = 64
	MaxFaultEvents  = 256
	MaxRandomFaults = 64
	MaxPeriods      = 16
	MaxJobsCap      = 10_000
	MaxHorizonS     = 1_000_000 // ≈11.6 days: Horizon() cannot wrap (a time.Duration spans ≈292 years)
	// Latencies are capped at the horizon cap, so their time.Duration
	// conversions cannot wrap either.
	MaxExtraMS   = MaxHorizonS * 1_000     // faults.events[].extra_ms
	MaxLatencyUS = MaxHorizonS * 1_000_000 // pipeline.node_latency_us, pipeline.uplink_latency_us
	// MaxNodeSlots bounds max_jobs × the widest job's nodes: BuildPlan
	// allocates one node slot per planned job per node it spans.
	MaxNodeSlots = 1_000_000
	// MaxArrivalDraws bounds the arrivals a bursty or diurnal process
	// draws while planning, landed or not (see validateArrival).
	MaxArrivalDraws = 1_000_000
	// DefaultMaxJobs caps arrivals when the spec does not set max_jobs.
	DefaultMaxJobs = 256
)

// Arrival process kinds.
const (
	ArrivalPoisson = "poisson"
	ArrivalDiurnal = "diurnal"
	ArrivalBursty  = "bursty"
)

// Job template kinds. The generative kinds parameterize the existing
// internal/apps generators; "replay" converts a recorded DXT trace back
// into a timed workload via internal/replay.
const (
	JobCheckpoint = "checkpoint"
	JobSharedFile = "shared-file"
	JobMetaStorm  = "metadata-storm"
	JobSmallFile  = "small-file"
	JobReplay     = "replay"
)

// Fault kinds a scenario may schedule (a subset of internal/faults: the
// kinds that make sense against the scenario pipeline's links and head
// aggregator).
const (
	FaultLinkPartition  = "link-partition"
	FaultLatencySpike   = "latency-spike"
	FaultSlowSubscriber = "slow-subscriber"
	FaultDaemonCrash    = "daemon-crash"
)

// Spec is one validated scenario. Field order is the canonical encoding
// order: the JSON the tests re-parse to prove Parse a fixed point.
type Spec struct {
	// Name identifies the scenario in reports and artifact diffs.
	Name string `json:"name"`
	// Seed overrides the campaign seed for this scenario when non-zero,
	// so a scenario file can pin its own replay identity.
	Seed uint64 `json:"seed,omitempty"`
	// HorizonS is the arrival window in virtual seconds: jobs arrive in
	// [0, horizon); the campaign runs until the last job finishes.
	HorizonS float64 `json:"horizon_s"`
	// FS selects the file-system model: "NFS" or "Lustre".
	FS       string       `json:"fs"`
	Cluster  ClusterSpec  `json:"cluster"`
	Arrival  ArrivalSpec  `json:"arrival"`
	Pipeline PipelineSpec `json:"pipeline"`
	Jobs     []JobSpec    `json:"jobs"`
	Faults   FaultSpec    `json:"faults"`
}

// ClusterSpec sizes the simulated machine.
type ClusterSpec struct {
	// Nodes is the compute-node count, 1..10000 (the paper's machine: 24).
	Nodes int `json:"nodes"`
	// RanksPerNode is the default MPI ranks per node for job templates
	// that do not override it (default 4).
	RanksPerNode int `json:"ranks_per_node,omitempty"`
}

// ArrivalSpec selects and parameterizes the job arrival process.
type ArrivalSpec struct {
	// Kind is "poisson", "diurnal" or "bursty".
	Kind string `json:"kind"`
	// RatePerS is the mean arrival rate (jobs per virtual second). For
	// "bursty" it is the background rate and may be zero.
	RatePerS float64 `json:"rate_per_s,omitempty"`
	// Periods modulates a diurnal rate: lambda(t) = rate * (1 + sum_i
	// amplitude_i * sin(2*pi*t/period_i)), clamped at zero.
	Periods []PeriodSpec `json:"periods,omitempty"`
	// BurstEveryS spaces flash crowds: bursts fire at every, 2*every, ...
	BurstEveryS float64 `json:"burst_every_s,omitempty"`
	// BurstSize is the number of jobs per flash crowd.
	BurstSize int `json:"burst_size,omitempty"`
	// BurstJitterS spreads each crowd's arrivals over [0, jitter).
	BurstJitterS float64 `json:"burst_jitter_s,omitempty"`
	// MaxJobs caps total arrivals (default DefaultMaxJobs).
	MaxJobs int `json:"max_jobs,omitempty"`
}

// PeriodSpec is one sinusoidal component of a diurnal rate.
type PeriodSpec struct {
	PeriodS   float64 `json:"period_s"`
	Amplitude float64 `json:"amplitude"`
}

// PipelineSpec parameterizes the monitoring pipeline the scenario runs
// through.
type PipelineSpec struct {
	// UplinkRatePerS, when positive, rate-limits the head→remote
	// aggregation hop (ldms.RateLimitedRelay): traffic beyond the budget
	// is shed, which is how a flash-crowd metadata storm overflows the
	// hop. Zero means an unlimited, fault-addressable uplink.
	UplinkRatePerS float64 `json:"uplink_rate_per_s,omitempty"`
	// NodeLatencyUS is the node→head hop latency in microseconds
	// (default 150, matching the paper harness).
	NodeLatencyUS float64 `json:"node_latency_us,omitempty"`
	// UplinkLatencyUS is the head→remote hop latency in microseconds
	// (default 300).
	UplinkLatencyUS float64 `json:"uplink_latency_us,omitempty"`
}

// JobSpec is one weighted job template of the mix.
type JobSpec struct {
	Kind   string  `json:"kind"`
	Weight float64 `json:"weight"`
	// Nodes is how many cluster nodes each instance occupies (default 2).
	Nodes int `json:"nodes,omitempty"`
	// RanksPerNode overrides the cluster default for this template.
	RanksPerNode int `json:"ranks_per_node,omitempty"`
	// BytesPerRank sizes a checkpoint job's per-rank write (default 1 MiB).
	BytesPerRank int64 `json:"bytes_per_rank,omitempty"`
	// BlockBytes and Iterations size a shared-file job (defaults 256 KiB, 4).
	BlockBytes int64 `json:"block_bytes,omitempty"`
	Iterations int   `json:"iterations,omitempty"`
	// FilesPerRank and FileBytes size the metadata-storm and small-file
	// pathologies (defaults 32 files of 256 B).
	FilesPerRank int   `json:"files_per_rank,omitempty"`
	FileBytes    int64 `json:"file_bytes,omitempty"`
	// Trace names a DXT trace for replay jobs: "builtin:sample" for the
	// checked-in sample, otherwise a file path.
	Trace string `json:"trace,omitempty"`
	// Speedup divides the trace's inter-op gaps (replay jobs; default 1).
	Speedup float64 `json:"speedup,omitempty"`
}

// FaultSpec schedules faults against the scenario pipeline.
type FaultSpec struct {
	// RandomEvents draws this many seeded random fault events over the
	// horizon (faults.RandomProfile over the scenario's links).
	RandomEvents int `json:"random_events,omitempty"`
	// Events are explicit scheduled faults.
	Events []FaultEventSpec `json:"events,omitempty"`
}

// FaultEventSpec is one scheduled fault. Times are fractions of the
// horizon so specs stay scale-free.
type FaultEventSpec struct {
	// Kind is one of link-partition, latency-spike, slow-subscriber,
	// daemon-crash.
	Kind string `json:"kind"`
	// Target is "uplink", "node-<i>" (a node link by index) or "head"
	// (daemon-crash only).
	Target  string  `json:"target"`
	AtFrac  float64 `json:"at_frac"`
	DurFrac float64 `json:"dur_frac"`
	// ExtraMS is the added latency of a latency-spike, in milliseconds.
	ExtraMS float64 `json:"extra_ms,omitempty"`
}

// Horizon returns the arrival window as a duration.
func (s *Spec) Horizon() time.Duration {
	return time.Duration(s.HorizonS * float64(time.Second))
}

// EffectiveSeed resolves the seed a campaign run should use: the spec's
// own when pinned, otherwise the campaign's.
func (s *Spec) EffectiveSeed(campaignSeed uint64) uint64 {
	if s.Seed != 0 {
		return s.Seed
	}
	return campaignSeed
}

// ValidationError is a structured validation failure. Err holds the field
// path ("arrival.kind") and a stable message; tests golden-match them.
type ValidationError struct {
	Field string
	Msg   string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("scenario: %s: %s", e.Field, e.Msg)
}

func invalid(field, format string, args ...any) error {
	return &ValidationError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Validate checks the spec against the engine's limits. The first failure
// is returned; a nil error means the spec can be planned and run.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return invalid("name", "required")
	}
	if s.FS != "NFS" && s.FS != "Lustre" {
		return invalid("fs", "must be %q or %q, got %q", "NFS", "Lustre", s.FS)
	}
	if !(s.HorizonS > 0) {
		return invalid("horizon_s", "must be positive, got %v", s.HorizonS)
	}
	if s.HorizonS > MaxHorizonS {
		return invalid("horizon_s", "must be at most %d, got %v", MaxHorizonS, s.HorizonS)
	}
	if s.Cluster.Nodes < 1 || s.Cluster.Nodes > MaxClusterNodes {
		return invalid("cluster.nodes", "must be in [1, %d], got %d", MaxClusterNodes, s.Cluster.Nodes)
	}
	if s.Cluster.RanksPerNode < 0 || s.Cluster.RanksPerNode > MaxRanksPerNode {
		return invalid("cluster.ranks_per_node", "must be in [0, %d], got %d", MaxRanksPerNode, s.Cluster.RanksPerNode)
	}
	if err := s.validateArrival(); err != nil {
		return err
	}
	if err := s.validatePipeline(); err != nil {
		return err
	}
	if err := s.validateJobs(); err != nil {
		return err
	}
	return s.validateFaults()
}

func (s *Spec) validateArrival() error {
	a := s.Arrival
	switch a.Kind {
	case ArrivalPoisson, ArrivalDiurnal:
		if !(a.RatePerS > 0) {
			return invalid("arrival.rate_per_s", "must be positive for %s arrivals, got %v", a.Kind, a.RatePerS)
		}
	case ArrivalBursty:
		if a.RatePerS < 0 {
			return invalid("arrival.rate_per_s", "must be non-negative, got %v", a.RatePerS)
		}
		if !(a.BurstEveryS > 0) {
			return invalid("arrival.burst_every_s", "must be positive for bursty arrivals, got %v", a.BurstEveryS)
		}
		if a.BurstSize < 1 {
			return invalid("arrival.burst_size", "must be at least 1 for bursty arrivals, got %d", a.BurstSize)
		}
		if a.BurstJitterS < 0 {
			return invalid("arrival.burst_jitter_s", "must be non-negative, got %v", a.BurstJitterS)
		}
		if draws := s.HorizonS / a.BurstEveryS * float64(a.BurstSize); draws > MaxArrivalDraws {
			return invalid("arrival", "bursts draw %g arrivals (horizon_s / burst_every_s × burst_size), at most %d", draws, MaxArrivalDraws)
		}
	default:
		return invalid("arrival.kind", "must be one of %s, %s, %s; got %q",
			ArrivalPoisson, ArrivalDiurnal, ArrivalBursty, a.Kind)
	}
	if a.Kind == ArrivalDiurnal && len(a.Periods) == 0 {
		return invalid("arrival.periods", "diurnal arrivals need at least one period")
	}
	if len(a.Periods) > MaxPeriods {
		return invalid("arrival.periods", "at most %d periods, got %d", MaxPeriods, len(a.Periods))
	}
	for i, p := range a.Periods {
		if !(p.PeriodS > 0) {
			return invalid(fmt.Sprintf("arrival.periods[%d].period_s", i), "must be positive, got %v", p.PeriodS)
		}
		if p.Amplitude < -1 || p.Amplitude > 1 {
			return invalid(fmt.Sprintf("arrival.periods[%d].amplitude", i), "must be in [-1, 1], got %v", p.Amplitude)
		}
	}
	if draws := a.peakRate() * s.HorizonS; a.Kind == ArrivalDiurnal && draws > MaxArrivalDraws {
		return invalid("arrival", "thinning draws %g candidate arrivals (rate_per_s × (1 + Σ|amplitude|) × horizon_s), at most %d", draws, MaxArrivalDraws)
	}
	if a.MaxJobs < 0 || a.MaxJobs > MaxJobsCap {
		return invalid("arrival.max_jobs", "must be in [0, %d], got %d", MaxJobsCap, a.MaxJobs)
	}
	return nil
}

func (s *Spec) validatePipeline() error {
	p := s.Pipeline
	if p.UplinkRatePerS < 0 {
		return invalid("pipeline.uplink_rate_per_s", "must be non-negative, got %v", p.UplinkRatePerS)
	}
	if p.NodeLatencyUS < 0 || p.UplinkLatencyUS < 0 {
		return invalid("pipeline", "latencies must be non-negative")
	}
	if p.NodeLatencyUS > MaxLatencyUS {
		return invalid("pipeline.node_latency_us", "must be at most %g, got %v", float64(MaxLatencyUS), p.NodeLatencyUS)
	}
	if p.UplinkLatencyUS > MaxLatencyUS {
		return invalid("pipeline.uplink_latency_us", "must be at most %g, got %v", float64(MaxLatencyUS), p.UplinkLatencyUS)
	}
	return nil
}

func (s *Spec) validateJobs() error {
	if len(s.Jobs) == 0 {
		return invalid("jobs", "must list at least one job template")
	}
	if len(s.Jobs) > MaxJobTemplates {
		return invalid("jobs", "at most %d templates, got %d", MaxJobTemplates, len(s.Jobs))
	}
	widest := 0
	for i, j := range s.Jobs {
		field := func(name string) string { return fmt.Sprintf("jobs[%d].%s", i, name) }
		switch j.Kind {
		case JobCheckpoint, JobSharedFile, JobMetaStorm, JobSmallFile, JobReplay:
		default:
			return invalid(field("kind"), "must be one of %s, %s, %s, %s, %s; got %q",
				JobCheckpoint, JobSharedFile, JobMetaStorm, JobSmallFile, JobReplay, j.Kind)
		}
		if !(j.Weight > 0) {
			return invalid(field("weight"), "must be positive, got %v", j.Weight)
		}
		if j.Nodes < 0 || j.Nodes > s.Cluster.Nodes {
			return invalid(field("nodes"), "must be in [0, cluster.nodes=%d], got %d", s.Cluster.Nodes, j.Nodes)
		}
		if j.RanksPerNode < 0 || j.RanksPerNode > MaxRanksPerNode {
			return invalid(field("ranks_per_node"), "must be in [0, %d], got %d", MaxRanksPerNode, j.RanksPerNode)
		}
		if j.BytesPerRank < 0 || j.BlockBytes < 0 || j.FileBytes < 0 {
			return invalid(field("bytes"), "sizes must be non-negative")
		}
		if j.Iterations < 0 || j.FilesPerRank < 0 {
			return invalid(field("counts"), "counts must be non-negative")
		}
		if j.Speedup < 0 {
			return invalid(field("speedup"), "must be non-negative, got %v", j.Speedup)
		}
		if j.Kind == JobReplay && j.Trace == "" {
			return invalid(field("trace"), "replay jobs must name a trace")
		}
		if j.Kind != JobReplay && j.Trace != "" {
			return invalid(field("trace"), "only valid for replay jobs")
		}
		widest = max(widest, jobNodes(&j, s.Cluster))
	}
	if slots := cmp.Or(s.Arrival.MaxJobs, DefaultMaxJobs) * widest; slots > MaxNodeSlots {
		return invalid("jobs", "max_jobs × the widest job's nodes plans %d node slots, at most %d", slots, MaxNodeSlots)
	}
	return nil
}

func (s *Spec) validateFaults() error {
	f := s.Faults
	if f.RandomEvents < 0 || f.RandomEvents > MaxRandomFaults {
		return invalid("faults.random_events", "must be in [0, %d], got %d", MaxRandomFaults, f.RandomEvents)
	}
	if len(f.Events) > MaxFaultEvents {
		return invalid("faults.events", "at most %d events, got %d", MaxFaultEvents, len(f.Events))
	}
	for i, ev := range f.Events {
		field := func(name string) string { return fmt.Sprintf("faults.events[%d].%s", i, name) }
		switch ev.Kind {
		case FaultLinkPartition, FaultLatencySpike, FaultSlowSubscriber:
			if !validLinkTarget(ev.Target, s.Cluster.Nodes) {
				return invalid(field("target"), "must be %q or %q with i < cluster.nodes, got %q", "uplink", "node-<i>", ev.Target)
			}
			if ev.Target == "uplink" && s.Pipeline.UplinkRatePerS > 0 {
				return invalid(field("target"), "uplink faults conflict with pipeline.uplink_rate_per_s (the rate-limited uplink is not fault-addressable)")
			}
		case FaultDaemonCrash:
			if ev.Target != "head" {
				return invalid(field("target"), "daemon-crash targets %q, got %q", "head", ev.Target)
			}
		default:
			return invalid(field("kind"), "must be one of %s, %s, %s, %s; got %q",
				FaultLinkPartition, FaultLatencySpike, FaultSlowSubscriber, FaultDaemonCrash, ev.Kind)
		}
		if ev.AtFrac < 0 || ev.AtFrac > 1 {
			return invalid(field("at_frac"), "must be in [0, 1], got %v", ev.AtFrac)
		}
		if ev.DurFrac < 0 || ev.DurFrac > 1 {
			return invalid(field("dur_frac"), "must be in [0, 1], got %v", ev.DurFrac)
		}
		if ev.ExtraMS < 0 {
			return invalid(field("extra_ms"), "must be non-negative, got %v", ev.ExtraMS)
		}
		if ev.ExtraMS > MaxExtraMS {
			return invalid(field("extra_ms"), "must be at most %g, got %v", float64(MaxExtraMS), ev.ExtraMS)
		}
	}
	return nil
}

// validLinkTarget accepts "uplink" and "node-<i>" for i in [0, nodes).
func validLinkTarget(t string, nodes int) bool {
	i, ok := nodeTargetIndex(t)
	return t == "uplink" || ok && i >= 0 && i < nodes && t == "node-"+strconv.Itoa(i)
}
