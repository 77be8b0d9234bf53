package analysis

import (
	"testing"
)

func TestDetectAnomaliesFlagsOutlier(t *testing.T) {
	cl := testClient(t)
	// 5 jobs; job 2's reads are 100x slower (the Fig 7 anomaly).
	for job := int64(1); job <= 5; job++ {
		rd := 0.05
		if job == 2 {
			rd = 5.0
		}
		for i := 0; i < 10; i++ {
			insertEvent(t, cl, job, int64(i), "n", "read", float64(i), rd, 1<<20)
			insertEvent(t, cl, job, int64(i), "n", "write", float64(i)+20, 50, 16<<20)
		}
	}
	anoms, err := DetectAnomalies(cl, []int64{1, 2, 3, 4, 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(anoms) != 1 {
		t.Fatalf("anomalies %+v", anoms)
	}
	a := anoms[0]
	if a.JobID != 2 || a.Op != "read" {
		t.Fatalf("flagged %+v", a)
	}
	if a.Factor < 50 {
		t.Fatalf("factor %.1f", a.Factor)
	}
	if a.Reason == "" {
		t.Fatal("no reason")
	}
}

func TestDetectAnomaliesCleanPopulation(t *testing.T) {
	cl := testClient(t)
	for job := int64(1); job <= 4; job++ {
		for i := 0; i < 10; i++ {
			insertEvent(t, cl, job, int64(i), "n", "write", float64(i), 1.0+0.01*float64(job), 4096)
		}
	}
	anoms, err := DetectAnomalies(cl, []int64{1, 2, 3, 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(anoms) != 0 {
		t.Fatalf("false positives: %+v", anoms)
	}
}

func TestDetectAnomaliesFlagsFastOutlierToo(t *testing.T) {
	cl := testClient(t)
	for job := int64(1); job <= 4; job++ {
		d := 1.0
		if job == 3 {
			d = 0.01 // suspiciously fast (e.g. silent data loss)
		}
		for i := 0; i < 5; i++ {
			insertEvent(t, cl, job, int64(i), "n", "write", float64(i), d, 4096)
		}
	}
	anoms, err := DetectAnomalies(cl, []int64{1, 2, 3, 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(anoms) != 1 || anoms[0].JobID != 3 {
		t.Fatalf("anomalies %+v", anoms)
	}
}

func TestDetectAnomaliesNeedsPopulation(t *testing.T) {
	cl := testClient(t)
	for job := int64(1); job <= 2; job++ {
		insertEvent(t, cl, job, 0, "n", "write", 0, float64(job)*100, 4096)
	}
	anoms, err := DetectAnomalies(cl, []int64{1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(anoms) != 0 {
		t.Fatalf("flagged with too small a population: %+v", anoms)
	}
}
