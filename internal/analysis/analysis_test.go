package analysis

import (
	"math"
	"testing"

	"darshanldms/internal/dsos"
	"darshanldms/internal/jsonmsg"
)

func insertEvent(t *testing.T, cl *dsos.Client, job int64, rank int64, node, op string, ts, dur float64, length int64) {
	t.Helper()
	m := jsonmsg.Message{
		UID: 1, Exe: jsonmsg.NA, JobID: job, Rank: int(rank), ProducerName: node,
		File: jsonmsg.NA, RecordID: 42, Module: "POSIX", Type: jsonmsg.TypeMOD, Op: op,
		MaxByte: -1,
		Seg: []jsonmsg.Segment{{
			DataSet: jsonmsg.NA, PtSel: -1, IrregHSlab: -1, RegHSlab: -1,
			NDims: -1, NPoints: -1, Off: 0, Len: length, Dur: dur, Timestamp: ts,
		}},
	}
	for _, o := range dsos.ObjectsFromMessage(&m) {
		if err := cl.Insert(dsos.DarshanSchemaName, o); err != nil {
			t.Fatal(err)
		}
	}
}

func testClient(t *testing.T) *dsos.Client {
	t.Helper()
	c := dsos.NewCluster(2, "darshan_data")
	if err := dsos.SetupDarshan(c); err != nil {
		t.Fatal(err)
	}
	return dsos.Connect(c)
}

func TestFrameFromObjects(t *testing.T) {
	cl := testClient(t)
	insertEvent(t, cl, 1, 0, "nid00040", "write", 10, 0.5, 1024)
	insertEvent(t, cl, 1, 1, "nid00040", "read", 11, 0.1, 2048)
	fr, err := FrameForJobs(cl, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	if fr.Len() != 2 {
		t.Fatalf("rows %d", fr.Len())
	}
	ops, lens := fr.cols["op"], fr.cols["seg_len"]
	if len(ops) != 2 || ops[0] != "write" || ops[1] != "read" || lens[0] != int64(1024) || lens[1] != int64(2048) {
		t.Fatalf("columns op=%v seg_len=%v", ops, lens)
	}
}

func TestOpCountsWithCI(t *testing.T) {
	cl := testClient(t)
	// 5 jobs; write counts 10,10,12,8,10 -> mean 10, CI > 0.
	writes := []int{10, 10, 12, 8, 10}
	for j, n := range writes {
		job := int64(j + 1)
		insertEvent(t, cl, job, 0, "nid00040", "open", 0, 0.001, 0)
		for i := 0; i < n; i++ {
			insertEvent(t, cl, job, 0, "nid00040", "write", float64(i+1), 0.2, 4096)
		}
		insertEvent(t, cl, job, 0, "nid00040", "close", 100, 0.001, 0)
	}
	stats, err := OpCounts(cl, []int64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	byOp := map[string]OpCountStat{}
	for _, s := range stats {
		byOp[s.Op] = s
	}
	w := byOp["write"]
	if w.Mean != 10 {
		t.Fatalf("write mean %v", w.Mean)
	}
	if w.CI95 <= 0 {
		t.Fatal("write CI should be positive with varying counts")
	}
	if byOp["open"].CI95 != 0 {
		t.Fatalf("open counts are constant; CI %v", byOp["open"].CI95)
	}
	if len(w.PerJob) != 5 {
		t.Fatalf("per-job %v", w.PerJob)
	}
	if _, has := byOp["flush"]; has {
		t.Fatal("flush never occurred; should be omitted")
	}
}

func TestPerNodeOps(t *testing.T) {
	cl := testClient(t)
	insertEvent(t, cl, 1, 0, "nid00040", "open", 0, 0.01, 0)
	insertEvent(t, cl, 1, 1, "nid00040", "open", 1, 0.01, 0)
	insertEvent(t, cl, 1, 16, "nid00041", "open", 2, 0.01, 0)
	insertEvent(t, cl, 1, 0, "nid00040", "close", 3, 0.01, 0)
	insertEvent(t, cl, 1, 0, "nid00040", "write", 4, 0.01, 100) // not requested
	out, err := PerNodeOps(cl, []int64{1}, []string{"open", "close"})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 { // (nid00040,open) (nid00040,close) (nid00041,open)
		t.Fatalf("rows %+v", out)
	}
	if out[0].Node != "nid00040" || out[0].Op != "close" || out[0].Count != 1 {
		t.Fatalf("first row %+v", out[0])
	}
	if out[1].Op != "open" || out[1].Count != 2 {
		t.Fatalf("second row %+v", out[1])
	}
}

func TestPerRankDurationsFindsAnomaly(t *testing.T) {
	cl := testClient(t)
	// Jobs 1,3: fast reads (0.05s); job 2: slow reads (6.75s).
	for job := int64(1); job <= 3; job++ {
		dur := 0.05
		if job == 2 {
			dur = 6.75
		}
		for rank := int64(0); rank < 4; rank++ {
			insertEvent(t, cl, job, rank, "nid00040", "read", float64(rank), dur, 1<<20)
			insertEvent(t, cl, job, rank, "nid00040", "write", float64(rank)+10, 50, 16<<20)
		}
	}
	out, err := PerRankDurations(cl, []int64{1, 2, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var job2Read, job1Read *JobOpDuration
	for i := range out {
		if out[i].Op == "read" && out[i].JobID == 2 {
			job2Read = &out[i]
		}
		if out[i].Op == "read" && out[i].JobID == 1 {
			job1Read = &out[i]
		}
	}
	if job2Read == nil || job1Read == nil {
		t.Fatal("missing rows")
	}
	if job2Read.MeanDur < 100*job1Read.MeanDur {
		t.Fatalf("anomalous job not visible: job2 %v vs job1 %v", job2Read.MeanDur, job1Read.MeanDur)
	}
	if len(job2Read.PerRank) != 4 || math.Abs(job2Read.PerRank[3]-6.75) > 1e-9 {
		t.Fatalf("per-rank %v", job2Read.PerRank)
	}
}

func TestTimelineScatterRelativeSorted(t *testing.T) {
	cl := testClient(t)
	insertEvent(t, cl, 7, 1, "n", "write", 1000.5, 0.1, 10)
	insertEvent(t, cl, 7, 0, "n", "write", 1000.0, 0.2, 20)
	insertEvent(t, cl, 7, 0, "n", "read", 1010.0, 0.3, 30)
	insertEvent(t, cl, 7, 0, "n", "open", 999.0, 0.0, 0) // sets t0, excluded from points
	pts, err := TimelineScatter(cl, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points %d", len(pts))
	}
	if pts[0].Time != 1.0 || pts[0].Op != "write" {
		t.Fatalf("first point %+v (t0 should come from the open)", pts[0])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Time < pts[i-1].Time {
			t.Fatal("points not time-sorted")
		}
	}
}

func TestBytesTimeline(t *testing.T) {
	cl := testClient(t)
	// Ten write bursts then reads at the end (the Fig 8/9 pattern).
	for phase := 0; phase < 10; phase++ {
		for r := int64(0); r < 4; r++ {
			insertEvent(t, cl, 9, r, "n", "write", float64(phase*10)+float64(r)*0.1, 1, 1<<20)
		}
	}
	for r := int64(0); r < 4; r++ {
		insertEvent(t, cl, 9, r, "n", "read", 100+float64(r)*0.1, 0.05, 512<<10)
	}
	bins, err := BytesTimeline(cl, 9, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 20 {
		t.Fatalf("bins %d", len(bins))
	}
	var wb, rb float64
	var writes, reads int
	for _, b := range bins {
		wb += b.WriteBytes
		rb += b.ReadBytes
		writes += b.Writes
		reads += b.Reads
	}
	if wb != 40<<20 || rb != 4*(512<<10) {
		t.Fatalf("bytes wb=%v rb=%v", wb, rb)
	}
	if writes != 40 || reads != 4 {
		t.Fatalf("counts writes=%d reads=%d", writes, reads)
	}
	// Reads only in the final bins.
	for i, b := range bins[:15] {
		if b.Reads > 0 {
			t.Fatalf("read in early bin %d", i)
		}
	}
}

func TestBytesTimelineEmptyJob(t *testing.T) {
	cl := testClient(t)
	bins, err := BytesTimeline(cl, 404, 10)
	if err != nil || bins != nil {
		t.Fatalf("empty job: %v %v", bins, err)
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	keys := SortedKeys(m)
	if keys[0] != "a" || keys[2] != "c" {
		t.Fatalf("keys %v", keys)
	}
}

func TestTopFiles(t *testing.T) {
	cl := testClient(t)
	// File A: MET open names it; heavy writes. File B: light reads.
	mA := jsonmsg.Message{
		UID: 1, Exe: "/bin/app", JobID: 4, Rank: 0, ProducerName: "n",
		File: "/scratch/heavy.dat", RecordID: 111, Module: "POSIX",
		Type: jsonmsg.TypeMET, Op: "open",
		Seg: []jsonmsg.Segment{{DataSet: jsonmsg.NA, Timestamp: 1}},
	}
	for _, o := range dsos.ObjectsFromMessage(&mA) {
		cl.Insert(dsos.DarshanSchemaName, o)
	}
	for i := 0; i < 5; i++ {
		m := mA
		m.Type, m.Op, m.Exe, m.File = jsonmsg.TypeMOD, "write", jsonmsg.NA, jsonmsg.NA
		m.Seg = []jsonmsg.Segment{{DataSet: jsonmsg.NA, Len: 1 << 20, Dur: 0.5, Timestamp: float64(2 + i)}}
		for _, o := range dsos.ObjectsFromMessage(&m) {
			cl.Insert(dsos.DarshanSchemaName, o)
		}
	}
	mB := mA
	mB.RecordID, mB.File = 222, "/scratch/light.dat"
	for _, o := range dsos.ObjectsFromMessage(&mB) {
		cl.Insert(dsos.DarshanSchemaName, o)
	}
	mBr := mB
	mBr.Type, mBr.Op, mBr.Exe, mBr.File = jsonmsg.TypeMOD, "read", jsonmsg.NA, jsonmsg.NA
	mBr.Seg = []jsonmsg.Segment{{DataSet: jsonmsg.NA, Len: 100, Dur: 0.01, Timestamp: 9}}
	for _, o := range dsos.ObjectsFromMessage(&mBr) {
		cl.Insert(dsos.DarshanSchemaName, o)
	}

	top, err := TopFiles(cl, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 {
		t.Fatalf("files %d", len(top))
	}
	if top[0].File != "/scratch/heavy.dat" || top[0].Bytes != 5<<20 || top[0].Ops != 6 {
		t.Fatalf("top file %+v", top[0])
	}
	if top[0].WriteTime != 2.5 {
		t.Fatalf("write time %v", top[0].WriteTime)
	}
	if top[1].File != "/scratch/light.dat" || top[1].ReadTime != 0.01 {
		t.Fatalf("second %+v", top[1])
	}
	// Limit applies.
	if one, _ := TopFiles(cl, 4, 1); len(one) != 1 {
		t.Fatal("limit")
	}
}
