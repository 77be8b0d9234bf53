package harness

import (
	"math"
	"strings"
	"testing"

	"darshanldms/internal/analysis"
	"darshanldms/internal/apps"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/simfs"
)

func TestSingleRunProducesMessages(t *testing.T) {
	res, err := Run(RunOptions{
		Seed: 1, JobID: 10, UID: 99066, Exe: "/bin/x", FSKind: simfs.Lustre,
		Connector: true, Encoder: jsonmsg.FastEncoder{},
		App: func(env apps.Env) {
			cfg := apps.DefaultHACCIO(env.M.Nodes()[:2], 50_000)
			cfg.RanksPerNode = 4
			apps.RunHACCIO(env, cfg)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime <= 0 || res.Events == 0 {
		t.Fatalf("result %+v", res)
	}
	// Every instrumented event must arrive at the final store: the
	// connector publishes each one and the Drain flushes the hops.
	if res.Messages != uint64(res.Events) {
		t.Fatalf("messages %d != events %d", res.Messages, res.Events)
	}
	if res.Conn.Published != uint64(res.Events) || res.Conn.Dropped != 0 {
		t.Fatalf("connector stats %+v", res.Conn)
	}
	if res.Rate <= 0 {
		t.Fatal("rate not computed")
	}
}

func TestDarshanOnlyRunHasNoMessages(t *testing.T) {
	res, err := Run(RunOptions{
		Seed: 2, JobID: 11, FSKind: simfs.NFS,
		App: func(env apps.Env) {
			cfg := apps.DefaultHACCIO(env.M.Nodes()[:2], 50_000)
			cfg.RanksPerNode = 4
			apps.RunHACCIO(env, cfg)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 0 {
		t.Fatalf("darshan-only run produced %d messages", res.Messages)
	}
	if res.Events == 0 {
		t.Fatal("darshan should still count events")
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	opts := RunOptions{
		Seed: 42, JobID: 12, FSKind: simfs.Lustre, Connector: true,
		Encoder: jsonmsg.FastEncoder{},
		App: func(env apps.Env) {
			cfg := apps.DefaultHACCIO(env.M.Nodes()[:2], 80_000)
			cfg.RanksPerNode = 4
			apps.RunHACCIO(env, cfg)
		},
	}
	a, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Runtime != b.Runtime || a.Events != b.Events || a.Messages != b.Messages {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestTableIIaShapes(t *testing.T) {
	cells, err := TableIIa(7, 3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("cells %d", len(cells))
	}
	byName := map[string]*CellResult{}
	for _, c := range cells {
		byName[c.Name] = c
	}
	nfsColl := byName["NFS/collective=true"]
	nfsInd := byName["NFS/collective=false"]
	lusColl := byName["Lustre/collective=true"]
	lusInd := byName["Lustre/collective=false"]

	// Runtime ordering of Table IIa: Lustre coll < Lustre indep < NFS
	// indep < NFS coll.
	if !(lusColl.AvgDarshan < lusInd.AvgDarshan) {
		t.Errorf("Lustre: collective (%.1f) should beat independent (%.1f)", lusColl.AvgDarshan, lusInd.AvgDarshan)
	}
	if !(nfsInd.AvgDarshan < nfsColl.AvgDarshan) {
		t.Errorf("NFS: independent (%.1f) should beat collective (%.1f)", nfsInd.AvgDarshan, nfsColl.AvgDarshan)
	}
	if !(lusInd.AvgDarshan < nfsInd.AvgDarshan) {
		t.Errorf("Lustre indep (%.1f) should beat NFS indep (%.1f)", lusInd.AvgDarshan, nfsInd.AvgDarshan)
	}
	// Message ordering: NFS coll > Lustre coll > Lustre indep > NFS indep.
	if !(nfsColl.AvgMessages > lusColl.AvgMessages &&
		lusColl.AvgMessages > lusInd.AvgMessages &&
		lusInd.AvgMessages > nfsInd.AvgMessages) {
		t.Errorf("message ordering violated: %v %v %v %v",
			nfsColl.AvgMessages, lusColl.AvgMessages, lusInd.AvgMessages, nfsInd.AvgMessages)
	}
	// Overheads are small (the rates are <100 msg/s in the paper): all
	// within a modest band, far below HMMER's blowup.
	for _, c := range cells {
		if math.Abs(c.OverheadPct) > 40 {
			t.Errorf("cell %s overhead %.1f%% implausibly large", c.Name, c.OverheadPct)
		}
	}
}

func TestTableIIcHMMERBlowup(t *testing.T) {
	cells, err := TableIIc(11, 2, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells %d", len(cells))
	}
	for _, c := range cells {
		if c.OverheadPct < 100 {
			t.Errorf("HMMER %s overhead %.1f%%, want multi-x blowup", c.Name, c.OverheadPct)
		}
	}
	// Lustre's overhead percentage exceeds NFS's (more messages on a much
	// shorter baseline), and its message count is higher.
	if !(cells[1].OverheadPct > cells[0].OverheadPct) {
		t.Errorf("Lustre blowup (%.0f%%) should exceed NFS (%.0f%%)", cells[1].OverheadPct, cells[0].OverheadPct)
	}
	if !(cells[1].AvgMessages > cells[0].AvgMessages) {
		t.Errorf("Lustre messages (%.0f) should exceed NFS (%.0f)", cells[1].AvgMessages, cells[0].AvgMessages)
	}
}

func TestEncoderAblationShapes(t *testing.T) {
	rows, err := EncoderAblation(13, 1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows %d", len(rows))
	}
	byKey := map[string]*AblationResult{}
	for _, r := range rows {
		byKey[string(r.FSKind)+"/"+r.Encoder] = r
	}
	for _, fs := range []string{"NFS", "Lustre"} {
		sprintf := byKey[fs+"/sprintf"].OverheadPct
		fast := byKey[fs+"/fast"].OverheadPct
		none := byKey[fs+"/none"].OverheadPct
		if !(sprintf > fast && fast > none) {
			t.Errorf("%s: overhead ordering sprintf(%.1f) > fast(%.1f) > none(%.1f) violated", fs, sprintf, fast, none)
		}
		if none > 5 {
			t.Errorf("%s: no-format overhead %.2f%%, want ~0.4%%", fs, none)
		}
	}
}

func TestMPIIOFigureCampaignAnomaly(t *testing.T) {
	camp, err := MPIIOFigureCampaign(17, 3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Figure7(camp)
	if err != nil {
		t.Fatal(err)
	}
	durs := map[int64]map[string]float64{}
	for _, r := range rows {
		if durs[r.JobID] == nil {
			durs[r.JobID] = map[string]float64{}
		}
		durs[r.JobID][r.Op] = r.MeanDur
	}
	// Job 2 ran congested with dropped caches: reads orders of magnitude
	// slower than the cached reads of jobs 1 and 3; writes slower too.
	if durs[2]["read"] < 20*durs[1]["read"] {
		t.Errorf("job2 reads (%.3fs) should dwarf job1 reads (%.3fs)", durs[2]["read"], durs[1]["read"])
	}
	if durs[2]["write"] <= durs[1]["write"] {
		t.Errorf("job2 writes (%.1fs) should exceed job1 (%.1fs)", durs[2]["write"], durs[1]["write"])
	}

	pts, err := Figure8(camp)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no scatter points")
	}
	// Reads cluster at the end of the run.
	var firstRead, lastWrite float64
	firstRead = math.MaxFloat64
	for _, p := range pts {
		if p.Op == "read" && p.Time < firstRead {
			firstRead = p.Time
		}
		if p.Op == "write" && p.Time > lastWrite {
			lastWrite = p.Time
		}
	}
	if firstRead < lastWrite*0.6 {
		t.Errorf("reads (first at %.0fs) should follow the write phases (last at %.0fs)", firstRead, lastWrite)
	}

	bins, err := Figure9(camp, 20)
	if err != nil {
		t.Fatal(err)
	}
	var wBytes, rBytes float64
	for _, b := range bins {
		wBytes += b.WriteBytes
		rBytes += b.ReadBytes
	}
	if wBytes <= rBytes {
		t.Errorf("written bytes (%.0f) should exceed read-back (%.0f)", wBytes, rBytes)
	}

	// The anomaly detector must flag job 2's reads automatically.
	anoms, err := Diagnose(camp)
	if err != nil {
		t.Fatal(err)
	}
	foundJob2Read := false
	for _, a := range anoms {
		if a.JobID == 2 && a.Op == "read" {
			foundJob2Read = true
		}
		if a.JobID != 2 {
			t.Errorf("false positive: %+v", a)
		}
	}
	if !foundJob2Read {
		t.Errorf("job 2 read anomaly not detected: %+v", anoms)
	}
}

func TestFigure6PerNodeVariation(t *testing.T) {
	rows, err := Figure6(23, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	// 16 nodes x 2 jobs x up to 2 ops.
	nodes := map[string]bool{}
	counts := map[int]bool{}
	for _, r := range rows {
		nodes[r.Node] = true
		if r.Op == "open" {
			counts[r.Count] = true
		}
	}
	if len(nodes) != 16 {
		t.Fatalf("nodes %d", len(nodes))
	}
	if len(counts) < 2 {
		t.Errorf("open counts identical across all nodes/jobs: %v (expected per-node variation)", counts)
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	cells, err := TableIIc(29, 1, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	text := RenderTableII("Table IIc: HMMER", cells)
	if !strings.Contains(text, "Overhead") || !strings.Contains(text, "NFS") {
		t.Fatalf("table render:\n%s", text)
	}
	camp, err := MPIIOFigureCampaign(31, 2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	f7, _ := Figure7(camp)
	if out := RenderFigure7(f7); !strings.Contains(out, "Figure 7") {
		t.Fatal("figure 7 render")
	}
	f8, _ := Figure8(camp)
	if out := RenderFigure8(f8); !strings.Contains(out, "Figure 8") {
		t.Fatal("figure 8 render")
	}
	f9, _ := Figure9(camp, 10)
	if out := RenderFigure9(f9); !strings.Contains(out, "Figure 9") {
		t.Fatal("figure 9 render")
	}
	f5 := map[string][]analysis.OpCountStat{"HACC": {{Op: "write", Mean: 10, CI95: 1, PerJob: []float64{9, 11}}}}
	if out := RenderFigure5(f5); !strings.Contains(out, "write") {
		t.Fatal("figure 5 render")
	}
	f6 := []analysis.NodeOpCount{{Node: "nid00040", JobID: 1, Op: "open", Count: 33}}
	if out := RenderFigure6(f6); !strings.Contains(out, "nid00040") {
		t.Fatal("figure 6 render")
	}
	abl := []*AblationResult{{Encoder: "none", FSKind: simfs.NFS, OverheadPct: 0.4}}
	if out := RenderAblation(abl); !strings.Contains(out, "none") {
		t.Fatal("ablation render")
	}
}

func TestSamplingSweepMonotone(t *testing.T) {
	points, err := SamplingSweep(37, 1, 0.005, []int{1, 10, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("points %d", len(points))
	}
	// Within each FS, overhead must fall as sampling thins the stream, and
	// coverage must track 1/N.
	byFS := map[simfs.Kind][]*SweepPoint{}
	for _, p := range points {
		byFS[p.FSKind] = append(byFS[p.FSKind], p)
	}
	for fs, pts := range byFS {
		for i := 1; i < len(pts); i++ {
			if pts[i].OverheadPct >= pts[i-1].OverheadPct {
				t.Errorf("%s: overhead did not fall: every-%d %.1f%% -> every-%d %.1f%%",
					fs, pts[i-1].SampleEvery, pts[i-1].OverheadPct, pts[i].SampleEvery, pts[i].OverheadPct)
			}
		}
		for _, p := range pts {
			want := 1.0 / float64(p.SampleEvery)
			if p.Coverage < want*0.9 || p.Coverage > want*1.1 {
				t.Errorf("%s every-%d: coverage %.3f, want ~%.3f", fs, p.SampleEvery, p.Coverage, want)
			}
		}
	}
}
