package analysis

import (
	"fmt"
	"math"

	"darshanldms/internal/dsos"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/stats"
)

// Anomaly detection — the paper's stated purpose: "identify and better
// understand any root cause(s) of application I/O performance variation"
// at run time. Given a set of nominally identical jobs, DetectAnomalies
// compares each job's per-op mean durations against the population and
// flags outliers, the automated version of eyeballing Figure 7.

// Anomaly is one flagged (job, op) pair.
type Anomaly struct {
	JobID   int64
	Op      string
	MeanDur float64 // this job's mean duration (s)
	PopMean float64 // population median of the campaign
	Factor  float64 // MeanDur / PopMean
	Reason  string
}

// DetectAnomalies flags jobs whose mean read or write duration deviates
// from the other jobs' population by more than threshold x (threshold <= 1
// selects the default of 3).
func DetectAnomalies(client *dsos.Client, jobIDs []int64, threshold float64) ([]Anomaly, error) {
	if threshold <= 1 {
		threshold = 3
	}
	durs := map[string]map[int64]float64{"read": {}, "write": {}}
	for _, job := range jobIDs {
		objs, err := QueryJob(client, job)
		if err != nil {
			return nil, err
		}
		sums := map[string]float64{}
		counts := map[string]int{}
		for _, o := range objs {
			op := o.Str(jsonmsg.ColOp)
			if op != "read" && op != "write" {
				continue
			}
			sums[op] += o.Float(jsonmsg.ColSegDur)
			counts[op]++
		}
		for op := range durs {
			if counts[op] > 0 {
				durs[op][job] = sums[op] / float64(counts[op])
			}
		}
	}
	var out []Anomaly
	for _, op := range []string{"read", "write"} {
		perJob := durs[op]
		if len(perJob) < 3 {
			continue // need a population to compare against
		}
		// Global median (self included): robust as long as fewer than half
		// the jobs are anomalous, and stable even for small campaigns where
		// leave-one-out statistics collapse.
		// Iterate jobIDs, not the map, so the collection order is
		// deterministic (Median sorts, but the contract is no map-order
		// leaks into any intermediate sequence).
		var all []float64
		for _, job := range jobIDs {
			if v, ok := perJob[job]; ok {
				all = append(all, v)
			}
		}
		pop := stats.Median(all)
		for _, job := range jobIDs {
			mine, ok := perJob[job]
			if !ok {
				continue
			}
			if pop <= 0 {
				continue
			}
			factor := mine / pop
			if factor >= threshold || (factor > 0 && 1/factor >= threshold) {
				out = append(out, Anomaly{
					JobID:   job,
					Op:      op,
					MeanDur: mine,
					PopMean: pop,
					Factor:  factor,
					Reason: fmt.Sprintf("mean %s duration %.3fs is %.1fx the population median %.3fs",
						op, mine, math.Max(factor, 1/factor), pop),
				})
			}
		}
	}
	return out, nil
}
