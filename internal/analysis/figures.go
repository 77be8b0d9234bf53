package analysis

import (
	"sort"

	"darshanldms/internal/dsos"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/sos"
	"darshanldms/internal/stats"
)

// The figure modules query the DSOS store the same way the paper's Grafana
// back-end does — by job over the joint indices — and compute the datasets
// behind Figures 5 through 9.

// QueryJob fetches every stored event of one job, ordered by
// (rank, timestamp).
func QueryJob(client *dsos.Client, jobID int64) ([]sos.Object, error) {
	return client.Query("job_rank_time", sos.Key{jobID}, sos.Key{jobID + 1})
}

// FrameForJobs fetches several jobs into one dataframe.
func FrameForJobs(client *dsos.Client, jobIDs []int64) (*Frame, error) {
	schema := dsos.DarshanSchema()
	var all []sos.Object
	for _, id := range jobIDs {
		objs, err := QueryJob(client, id)
		if err != nil {
			return nil, err
		}
		all = append(all, objs...)
	}
	return FromObjects(schema, all), nil
}

// OpCountStat is one bar of Figure 5: the mean occurrence count of an
// operation across jobs with its 95% confidence half-width.
type OpCountStat struct {
	Op     string
	Mean   float64
	CI95   float64
	PerJob []float64
}

// OpCounts computes Figure 5's dataset for one application configuration:
// for each operation type, the mean number of occurrences over the given
// jobs and the 95% CI error bar.
func OpCounts(client *dsos.Client, jobIDs []int64) ([]OpCountStat, error) {
	perOpPerJob := map[string][]float64{}
	for _, job := range jobIDs {
		objs, err := QueryJob(client, job)
		if err != nil {
			return nil, err
		}
		counts := map[string]float64{}
		for _, o := range objs {
			counts[o.Str(jsonmsg.ColOp)]++
		}
		for _, op := range []string{"open", "close", "read", "write", "flush"} {
			perOpPerJob[op] = append(perOpPerJob[op], counts[op])
		}
	}
	var out []OpCountStat
	for _, op := range []string{"open", "close", "read", "write", "flush"} {
		vals := perOpPerJob[op]
		if stats.Sum(vals) == 0 {
			continue
		}
		mean, ci := stats.MeanCI(vals)
		out = append(out, OpCountStat{Op: op, Mean: mean, CI95: ci, PerJob: vals})
	}
	return out, nil
}

// NodeOpCount is one bar group of Figure 6: per node, per job, the number
// of requests of one operation type.
type NodeOpCount struct {
	Node  string
	JobID int64
	Op    string
	Count int
}

// PerNodeOps computes Figure 6's dataset: I/O requests per node for the
// given operations and jobs.
func PerNodeOps(client *dsos.Client, jobIDs []int64, ops []string) ([]NodeOpCount, error) {
	wanted := map[string]bool{}
	for _, op := range ops {
		wanted[op] = true
	}
	var out []NodeOpCount
	for _, job := range jobIDs {
		objs, err := QueryJob(client, job)
		if err != nil {
			return nil, err
		}
		counts := map[[2]string]int{} // (node, op) -> count
		for _, o := range objs {
			op := o.Str(jsonmsg.ColOp)
			if !wanted[op] {
				continue
			}
			counts[[2]string{o.Str(jsonmsg.ColProducerName), op}]++
		}
		keys := make([][2]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i][0] != keys[j][0] {
				return keys[i][0] < keys[j][0]
			}
			return keys[i][1] < keys[j][1]
		})
		for _, k := range keys {
			out = append(out, NodeOpCount{Node: k[0], JobID: job, Op: k[1], Count: counts[k]})
		}
	}
	return out, nil
}

// JobOpDuration is one cell of Figure 7: for one job and operation type,
// the mean per-op duration (plus per-rank means for the spatial analysis).
type JobOpDuration struct {
	JobID   int64
	Op      string
	MeanDur float64 // seconds, across all ops of the job
	Count   int
	PerRank []float64 // mean duration per rank (index = rank)
}

// PerRankDurations computes Figure 7's dataset: read and write durations
// per rank for each job of a campaign, exposing anomalous jobs.
func PerRankDurations(client *dsos.Client, jobIDs []int64, nranks int) ([]JobOpDuration, error) {
	var out []JobOpDuration
	for _, job := range jobIDs {
		objs, err := QueryJob(client, job)
		if err != nil {
			return nil, err
		}
		for _, op := range []string{"read", "write"} {
			sumPerRank := make([]float64, nranks)
			cntPerRank := make([]int, nranks)
			var sum float64
			count := 0
			for _, o := range objs {
				if o.Str(jsonmsg.ColOp) != op {
					continue
				}
				rank := int(o.Int(jsonmsg.ColRank))
				dur := o.Float(jsonmsg.ColSegDur)
				sum += dur
				count++
				if rank >= 0 && rank < nranks {
					sumPerRank[rank] += dur
					cntPerRank[rank]++
				}
			}
			jd := JobOpDuration{JobID: job, Op: op, Count: count}
			if count > 0 {
				jd.MeanDur = sum / float64(count)
			}
			jd.PerRank = make([]float64, nranks)
			for r := range jd.PerRank {
				if cntPerRank[r] > 0 {
					jd.PerRank[r] = sumPerRank[r] / float64(cntPerRank[r])
				}
			}
			out = append(out, jd)
		}
	}
	return out, nil
}

// ScatterPoint is one point of Figure 8: an operation plotted at its
// absolute time with its duration.
type ScatterPoint struct {
	Time float64 // seconds since job start
	Dur  float64 // seconds
	Op   string
	Rank int64
	Len  int64
}

// TimelineScatter computes Figure 8's dataset: every read/write of a job
// as (time, duration) points, using the absolute timestamps the connector
// collected. t0 is subtracted so times are job-relative.
func TimelineScatter(client *dsos.Client, jobID int64) ([]ScatterPoint, error) {
	objs, err := QueryJob(client, jobID)
	if err != nil {
		return nil, err
	}
	t0 := 0.0
	for i, o := range objs {
		ts := o.Float(jsonmsg.ColSegTimestamp)
		if i == 0 || ts < t0 {
			t0 = ts
		}
	}
	var out []ScatterPoint
	for _, o := range objs {
		op := o.Str(jsonmsg.ColOp)
		if op != "read" && op != "write" {
			continue
		}
		out = append(out, ScatterPoint{
			Time: o.Float(jsonmsg.ColSegTimestamp) - t0,
			Dur:  o.Float(jsonmsg.ColSegDur),
			Op:   op,
			Rank: o.Int(jsonmsg.ColRank),
			Len:  o.Int(jsonmsg.ColSegLen),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out, nil
}

// FileHotspot summarizes one file's traffic within a job.
type FileHotspot struct {
	File      string
	RecordID  uint64
	Bytes     int64
	Ops       int
	WriteTime float64 // summed seg durations (s)
	ReadTime  float64
}

// TopFiles ranks a job's files by bytes moved — the "busiest files" view.
// MET (open) messages carry the file path; MOD messages are joined to it
// through the record id, so the live stream suffices to name the files.
func TopFiles(client *dsos.Client, jobID int64, n int) ([]FileHotspot, error) {
	objs, err := QueryJob(client, jobID)
	if err != nil {
		return nil, err
	}
	byRec := map[uint64]*FileHotspot{}
	for _, o := range objs {
		rec := o.Uint(jsonmsg.ColRecordID)
		h := byRec[rec]
		if h == nil {
			h = &FileHotspot{RecordID: rec}
			byRec[rec] = h
		}
		if f := o.Str(jsonmsg.ColFile); f != "N/A" && h.File == "" {
			h.File = f
		}
		h.Ops++
		op := o.Str(jsonmsg.ColOp)
		if op == "read" || op == "write" {
			h.Bytes += o.Int(jsonmsg.ColSegLen)
			if op == "write" {
				h.WriteTime += o.Float(jsonmsg.ColSegDur)
			} else {
				h.ReadTime += o.Float(jsonmsg.ColSegDur)
			}
		}
	}
	out := make([]FileHotspot, 0, len(byRec))
	for _, h := range byRec {
		out = append(out, *h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].RecordID < out[j].RecordID
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out, nil
}

// TimelineBin is one bin of Figure 9: bytes read/written and op counts in a
// time window, aggregated across ranks.
type TimelineBin struct {
	Start      float64 // seconds since job start
	End        float64
	ReadBytes  float64
	WriteBytes float64
	Reads      int
	Writes     int
}

// BytesTimeline computes Figure 9's dataset: the Grafana-style aggregated
// byte timeline of a job.
func BytesTimeline(client *dsos.Client, jobID int64, nbins int) ([]TimelineBin, error) {
	pts, err := TimelineScatter(client, jobID)
	if err != nil || len(pts) == 0 {
		return nil, err
	}
	tMax := pts[len(pts)-1].Time
	if tMax <= 0 {
		tMax = 1
	}
	width := tMax / float64(nbins)
	bins := make([]TimelineBin, nbins)
	for i := range bins {
		bins[i].Start = float64(i) * width
		bins[i].End = bins[i].Start + width
	}
	for _, p := range pts {
		idx := int(p.Time / width)
		if idx >= nbins {
			idx = nbins - 1
		}
		if idx < 0 {
			idx = 0
		}
		if p.Op == "read" {
			bins[idx].ReadBytes += float64(p.Len)
			bins[idx].Reads++
		} else {
			bins[idx].WriteBytes += float64(p.Len)
			bins[idx].Writes++
		}
	}
	return bins, nil
}
