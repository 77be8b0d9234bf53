// dlc-experiments regenerates every table and figure of the paper's
// evaluation section on the simulated cluster.
//
// Usage:
//
//	dlc-experiments [-seed N] [-reps N] [-scale F] [-out DIR] [-only LIST]
//
// -only selects a comma-separated subset of
// {2a,2b,2c,ablation,sweep,5,6,7,8,9,faults,chaos,topo,scenario};
// the default runs everything except topo (the control-plane soak,
// reported as a CI artifact rather than a golden output) and scenario
// (the declarative scenario campaign, likewise a CI artifact).
// -scenario runs a single ad-hoc scenario spec file through the full
// pipeline instead of a curated suite (see DESIGN.md "Scenario engine").
// -scale shrinks the workloads (1.0 = the paper's full configuration;
// runtimes and message counts scale with it).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"darshanldms/internal/apps"
	"darshanldms/internal/harness"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/obs"
	"darshanldms/internal/scenario"
	"darshanldms/internal/simfs"
	"darshanldms/internal/webui"
)

func main() {
	seed := flag.Uint64("seed", 2022, "root experiment seed")
	reps := flag.Int("reps", 5, "repetitions per configuration (the paper used 5)")
	scale := flag.Float64("scale", 1.0, "workload scale (1.0 = paper's full size)")
	outDir := flag.String("out", "results", "output directory")
	only := flag.String("only", "all", "comma-separated subset of 2a,2b,2c,ablation,sweep,5,6,7,8,9,faults,chaos,topo,scenario")
	scenarioFile := flag.String("scenario", "", "run this ad-hoc scenario spec file instead of a suite (see internal/scenario)")
	bins := flag.Int("bins", 24, "time bins for Figure 9")
	telemetry := flag.Bool("telemetry", false, "enable per-event span tracing and dump a pipeline telemetry snapshot to stderr; the generated tables and figures are bit-identical either way (CI diffs the two modes)")
	flag.Parse()

	if *telemetry {
		obs.SetTracing(true)
	}

	valid := []string{"2a", "2b", "2c", "ablation", "sweep", "5", "6", "7", "8", "9", "faults", "chaos", "topo", "scenario"}
	want := map[string]bool{}
	if *scenarioFile != "" && *only == "all" {
		// An ad-hoc spec file on its own means "run just that scenario".
		*only = "scenario"
	}
	if *only == "all" {
		// topo and scenario are excluded: their reports are CI artifacts,
		// not golden outputs.
		for _, k := range []string{"2a", "2b", "2c", "ablation", "sweep", "5", "6", "7", "8", "9", "faults", "chaos"} {
			want[k] = true
		}
	} else {
		known := map[string]bool{}
		for _, k := range valid {
			known[k] = true
		}
		for _, k := range strings.Split(*only, ",") {
			k = strings.TrimSpace(k)
			if k == "" {
				continue
			}
			if !known[k] {
				fatal(fmt.Errorf("-only: unknown suite %q (valid: %s)", k, strings.Join(valid, ",")))
			}
			want[k] = true
		}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}

	emit := func(name, text string) {
		fmt.Println(text)
		path := filepath.Join(*outDir, name+".txt")
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	emitSVG := func(name, svg string) {
		path := filepath.Join(*outDir, name+".svg")
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}

	if want["2a"] {
		cells, err := harness.TableIIa(*seed, *reps, *scale)
		if err != nil {
			fatal(err)
		}
		emit("table2a", harness.RenderTableII(
			fmt.Sprintf("Table IIa: MPI-IO-TEST (22 nodes, 16 MiB blocks, scale %.2f, %d reps)", *scale, *reps), cells))
	}
	if want["2b"] {
		cells, err := harness.TableIIb(*seed, *reps, *scale)
		if err != nil {
			fatal(err)
		}
		emit("table2b", harness.RenderTableII(
			fmt.Sprintf("Table IIb: HACC-IO (16 nodes, scale %.2f, %d reps)", *scale, *reps), cells))
	}
	if want["2c"] {
		cells, err := harness.TableIIc(*seed, *reps, *scale)
		if err != nil {
			fatal(err)
		}
		emit("table2c", harness.RenderTableII(
			fmt.Sprintf("Table IIc: HMMER hmmbuild (1 node, 32 ranks, scale %.2f, %d reps)", *scale, *reps), cells))
	}
	if want["ablation"] {
		rows, err := harness.EncoderAblation(*seed, *reps, *scale)
		if err != nil {
			fatal(err)
		}
		emit("ablation", harness.RenderAblation(rows))
	}
	if want["sweep"] {
		points, err := harness.SamplingSweep(*seed, *reps, *scale, nil)
		if err != nil {
			fatal(err)
		}
		emit("sweep", harness.RenderSweep(points))
	}
	if want["5"] {
		data, err := harness.Figure5(*seed, *reps, *scale)
		if err != nil {
			fatal(err)
		}
		emit("figure5", harness.RenderFigure5(data))
		for label, stats := range data {
			var bars []webui.BarGroup
			for _, s := range stats {
				bars = append(bars, webui.BarGroup{Label: s.Op, Value: s.Mean, Err: s.CI95})
			}
			safe := strings.NewReplacer(" ", "_", "/", "_").Replace(label)
			emitSVG("figure5-"+safe, webui.RenderBars("Fig 5: "+label+" (mean op occurrences, 95% CI)", "occurrences", bars))
		}
	}
	if want["6"] {
		rows, err := harness.Figure6(*seed, *scale)
		if err != nil {
			fatal(err)
		}
		emit("figure6", harness.RenderFigure6(rows))
	}
	if want["faults"] {
		camp, err := harness.FaultCampaign(*seed, *scale, 5_000_000, simfs.Lustre)
		if err != nil {
			fatal(err)
		}
		emit("faults", harness.RenderFaultCampaign(camp))
	}
	if want["chaos"] {
		// Durable configuration first (WAL + R=2: every invariant must
		// hold), then the legacy configuration under the same schedules to
		// show what the durability layer buys.
		durable := harness.DefaultChaosSoakConfig(*seed)
		durable.Scale = *scale
		soak, err := harness.ChaosSoak(durable)
		if err != nil {
			fatal(err)
		}
		text := harness.RenderChaosSoak(soak)
		legacy := durable
		legacy.Replication = 1
		legacy.WAL = false
		legacySoak, err := harness.ChaosSoak(legacy)
		if err != nil {
			fatal(err)
		}
		text += "\n" + harness.RenderChaosSoak(legacySoak)
		emit("chaos", text)
		if soak.Violations != 0 {
			fatal(fmt.Errorf("chaos soak: durable configuration violated %d invariants", soak.Violations))
		}
	}
	if want["topo"] {
		// Control-plane soak: the managed tree + hash ring must hold every
		// invariant; the static-placement baseline under the same
		// schedules must demonstrably lose acked data. topo is excluded
		// from "all" so the golden output set is unchanged.
		managed := harness.DefaultRebalanceSoakConfig(*seed)
		soak, err := harness.RebalanceSoak(managed)
		if err != nil {
			fatal(err)
		}
		text := harness.RenderRebalanceSoak(soak)
		static := managed
		static.Static = true
		staticSoak, err := harness.RebalanceSoak(static)
		if err != nil {
			fatal(err)
		}
		text += "\n" + harness.RenderRebalanceSoak(staticSoak)
		emit("topo", text)
		if soak.Violations != 0 {
			fatal(fmt.Errorf("rebalance soak: managed configuration violated %d invariants", soak.Violations))
		}
		if staticSoak.Violations == 0 {
			fatal(fmt.Errorf("rebalance soak: static baseline lost nothing; the comparison is vacuous"))
		}
	}
	if want["scenario"] {
		if *scenarioFile != "" {
			// Ad-hoc spec: one scenario end to end through the full
			// connector -> streams -> LDMS -> DSOS pipeline.
			raw, err := os.ReadFile(*scenarioFile)
			if err != nil {
				fatal(err)
			}
			spec, err := scenario.Load(raw)
			if err != nil {
				fatal(err)
			}
			res, err := harness.RunScenarioSpec(spec, *seed)
			if err != nil {
				fatal(err)
			}
			emit("scenario-"+spec.Name, harness.RenderScenarioResult(res))
		} else {
			// Curated suite. Like topo, scenario is excluded from "all" so
			// the golden output set is unchanged; CI diffs two seeded runs
			// for bit-identity and uploads the report as an artifact.
			camp, err := harness.ScenarioCampaign(*seed)
			if err != nil {
				fatal(err)
			}
			emit("scenario", harness.RenderScenarioCampaign(camp))
			// The point of generative scenarios is reaching pathologies the
			// fixed three-app suite cannot: the flash-crowd metadata storm
			// must actually overflow the rate-limited uplink, or the
			// campaign is vacuous.
			shed := false
			for _, r := range camp.Results {
				if r.Name == "flash-crowd-metadata" && r.UplinkShed > 0 {
					shed = true
				}
			}
			if !shed {
				fatal(fmt.Errorf("scenario campaign: flash-crowd-metadata shed nothing on the rate-limited uplink; the pathology demonstration is vacuous"))
			}
		}
	}
	if want["7"] || want["8"] || want["9"] {
		camp, err := harness.MPIIOFigureCampaign(*seed, *reps, *scale)
		if err != nil {
			fatal(err)
		}
		if want["7"] {
			rows, err := harness.Figure7(camp)
			if err != nil {
				fatal(err)
			}
			text := harness.RenderFigure7(rows)
			if anoms, err := harness.Diagnose(camp); err == nil {
				text += "\nautomated diagnosis:\n"
				if len(anoms) == 0 {
					text += "  no anomalous jobs\n"
				}
				for _, a := range anoms {
					text += fmt.Sprintf("  job %d: %s\n", a.JobID, a.Reason)
				}
			}
			emit("figure7", text)
		}
		if want["8"] {
			pts, err := harness.Figure8(camp)
			if err != nil {
				fatal(err)
			}
			emit("figure8", harness.RenderFigure8(pts))
			sc := webui.ScatterSeries{Title: "Fig 8: op duration over execution time, job_id 2"}
			for _, p := range pts {
				sc.T = append(sc.T, p.Time)
				sc.D = append(sc.D, p.Dur)
				sc.IsWrite = append(sc.IsWrite, p.Op == "write")
			}
			emitSVG("figure8", webui.RenderScatter(sc))
		}
		if want["9"] {
			binsData, err := harness.Figure9(camp, *bins)
			if err != nil {
				fatal(err)
			}
			emit("figure9", harness.RenderFigure9(binsData))
			ts := webui.TimelineSeries{Title: "Fig 9: bytes per window aggregated across ranks, job_id 2", YLabel: "bytes"}
			for _, b := range binsData {
				ts.Starts = append(ts.Starts, b.Start)
				ts.Ends = append(ts.Ends, b.End)
				ts.Write = append(ts.Write, b.WriteBytes)
				ts.Read = append(ts.Read, b.ReadBytes)
			}
			emitSVG("figure9", webui.RenderTimeline(ts))
		}
	}

	if *telemetry {
		// Instrumented probe run: the per-stage snapshot goes to stderr
		// only, never into -out, so golden outputs stay byte-identical.
		reg := obs.NewRegistry()
		res, err := harness.Run(harness.RunOptions{
			Seed: *seed, JobID: 1, UID: 99066, Exe: "/bin/probe", FSKind: simfs.Lustre,
			Connector: true, Encoder: jsonmsg.FastEncoder{}, Telemetry: reg,
			App: func(env apps.Env) {
				cfg := apps.DefaultHACCIO(env.M.Nodes()[:2], 50_000)
				cfg.RanksPerNode = 4
				apps.RunHACCIO(env, cfg)
			},
		})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "telemetry probe: %d events, %d messages\n", res.Events, res.Messages)
		fmt.Fprint(os.Stderr, obs.RenderSamples(reg.Snapshot()))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlc-experiments:", err)
	os.Exit(1)
}
