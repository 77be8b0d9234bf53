package scenario

import (
	"cmp"
	"sort"
	"strconv"
	"strings"
	"time"

	"darshanldms/internal/faults"
	"darshanldms/internal/rng"
)

// A Plan is the deterministic expansion of a Spec under one campaign seed:
// the exact timed job launches (template draw, placement, resolved
// parameters) plus the fault profile, ready for the harness to execute.
// Planning is pure — no engine, no I/O — so two plans from the same
// (spec, seed) are deep-equal and the campaign replays bit-for-bit.

// PlannedJob is one job launch.
type PlannedJob struct {
	ID    int64 // 1-based, in arrival order
	Start time.Duration
	Kind  string
	// NodeIndexes are the cluster node slots the job's ranks occupy.
	NodeIndexes  []int
	RanksPerNode int

	// Resolved per-kind parameters (defaults applied).
	BytesPerRank int64  // checkpoint
	BlockBytes   int64  // shared-file
	Iterations   int    // shared-file
	FilesPerRank int    // metadata-storm, small-file
	FileBytes    int64  // metadata-storm, small-file
	Trace        string // replay
	Speedup      float64
}

// Ranks returns the job's world size.
func (j *PlannedJob) Ranks() int { return len(j.NodeIndexes) * j.RanksPerNode }

// Plan is a fully expanded scenario.
type Plan struct {
	Spec *Spec
	Seed uint64 // effective seed the expansion used
	Jobs []PlannedJob
	// UsedNodes are the sorted cluster node indexes any job touches; the
	// harness builds daemons and fault links only for these.
	UsedNodes []int
	// Faults is the scheduled fault profile (explicit events resolved
	// against the horizon, plus any seeded random events).
	Faults faults.Profile
}

// Defaults applied while planning.
const (
	defaultRanksPerNode = 4
	defaultJobNodes     = 2
	defaultBytesPerRank = 1 << 20 // 1 MiB checkpoint slice
	defaultBlockBytes   = 256 << 10
	defaultIterations   = 4
	defaultFilesPerRank = 32
	defaultFileBytes    = 256
)

// BuildPlan expands the spec under the campaign seed. The spec must have
// passed Validate.
func BuildPlan(s *Spec, campaignSeed uint64) *Plan {
	seed := s.EffectiveSeed(campaignSeed)
	root := rng.New(seed).Derive("scenario").Derive(s.Name)
	horizon := s.Horizon()

	arrivals := Arrivals(root.Derive("arrivals"), s.Arrival, horizon)
	mix := root.Derive("mix")

	total := 0.0
	for _, j := range s.Jobs {
		total += j.Weight
	}

	plan := &Plan{Spec: s, Seed: seed}
	used := map[int]bool{}
	cursor := 0
	for i, at := range arrivals {
		tmpl := &s.Jobs[0]
		draw := mix.Float64() * total
		for t := range s.Jobs {
			draw -= s.Jobs[t].Weight
			if draw < 0 {
				tmpl = &s.Jobs[t]
				break
			}
		}
		job := resolveJob(tmpl, s.Cluster)
		job.ID = int64(i + 1)
		job.Start = at
		// Rotating-window placement: each job takes the next n node slots,
		// wrapping around the cluster — jobs overlap on nodes exactly when
		// the machine is oversubscribed, which is the contention a
		// scenario is usually after.
		n := len(job.NodeIndexes)
		for k := 0; k < n; k++ {
			idx := (cursor + k) % s.Cluster.Nodes
			job.NodeIndexes[k] = idx
			used[idx] = true
		}
		cursor = (cursor + n) % s.Cluster.Nodes
		plan.Jobs = append(plan.Jobs, job)
	}

	// Explicit fault events can target node links no job landed on; the
	// harness builds links only for UsedNodes, so fold those targets in.
	for _, ev := range s.Faults.Events {
		if idx, ok := nodeTargetIndex(ev.Target); ok {
			used[idx] = true
		}
	}
	for idx := range used {
		plan.UsedNodes = append(plan.UsedNodes, idx)
	}
	sort.Ints(plan.UsedNodes)
	plan.Faults = buildFaultProfile(s, root.Derive("faults"), horizon, plan.UsedNodes)
	return plan
}

// jobNodes is the number of nodes a job of template t spans.
func jobNodes(t *JobSpec, c ClusterSpec) int {
	return min(cmp.Or(t.Nodes, defaultJobNodes), c.Nodes)
}

// resolveJob applies template and cluster defaults.
func resolveJob(t *JobSpec, c ClusterSpec) PlannedJob {
	return PlannedJob{
		Kind:         t.Kind,
		NodeIndexes:  make([]int, jobNodes(t, c)),
		RanksPerNode: cmp.Or(t.RanksPerNode, c.RanksPerNode, defaultRanksPerNode),
		BytesPerRank: cmp.Or(t.BytesPerRank, defaultBytesPerRank),
		BlockBytes:   cmp.Or(t.BlockBytes, defaultBlockBytes),
		Iterations:   cmp.Or(t.Iterations, defaultIterations),
		FilesPerRank: cmp.Or(t.FilesPerRank, defaultFilesPerRank),
		FileBytes:    cmp.Or(t.FileBytes, defaultFileBytes),
		Trace:        t.Trace,
		Speedup:      cmp.Or(t.Speedup, 1),
	}
}

// buildFaultProfile resolves the spec's explicit fault events against the
// horizon and appends seeded random events drawn over the scenario's
// links (faults.RandomProfile, restricted to links that exist).
func buildFaultProfile(s *Spec, r *rng.Stream, horizon time.Duration, usedNodes []int) faults.Profile {
	p := faults.Profile{Name: s.Name}
	frac := func(f float64) time.Duration {
		return time.Duration(f * float64(horizon))
	}
	for _, ev := range s.Faults.Events {
		fe := faults.Event{
			Target:   ev.Target,
			At:       frac(ev.AtFrac),
			Duration: frac(ev.DurFrac),
		}
		switch ev.Kind {
		case FaultLinkPartition:
			fe.Kind = faults.LinkPartition
		case FaultLatencySpike:
			fe.Kind = faults.LatencySpike
			fe.Extra = time.Duration(ev.ExtraMS * float64(time.Millisecond))
		case FaultSlowSubscriber:
			fe.Kind = faults.SlowSubscriber
		case FaultDaemonCrash:
			fe.Kind = faults.DaemonCrash
		}
		p.Events = append(p.Events, fe)
	}
	if s.Faults.RandomEvents > 0 {
		links := []string{}
		if s.Pipeline.UplinkRatePerS <= 0 {
			links = append(links, "uplink")
		}
		for _, idx := range usedNodes {
			links = append(links, "node-"+strconv.Itoa(idx))
		}
		rp := faults.RandomProfile(r, s.Name+"-random", horizon, s.Faults.RandomEvents, links, nil)
		p.Events = append(p.Events, rp.Events...)
	}
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
	return p
}

// nodeTargetIndex parses a "node-<i>" fault target.
func nodeTargetIndex(t string) (int, bool) {
	const prefix = "node-"
	if !strings.HasPrefix(t, prefix) {
		return 0, false
	}
	i, err := strconv.Atoi(t[len(prefix):])
	return i, err == nil
}
