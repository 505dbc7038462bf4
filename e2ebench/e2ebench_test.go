package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"schedsearch"
	"schedsearch/internal/engine"
	"schedsearch/internal/ingest"
	"schedsearch/internal/job"
)

// testScale shrinks every workload so a pass takes well under a second.
var testScale = map[string]float64{
	"replay-search":   0.02,
	"replay-backfill": 0.05,
	"serve":           0.05,
	"serve-fed":       0.05,
}

// spec is BENCHMARK.json at the repository root.
type spec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

type specMetric struct{ Name, Unit string }

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runBench measures w, shrunk to its testScale, with one pass (no
// time budget) and returns the result its JSON line would carry.
func runBench(t *testing.T, w workloadDef, seed uint64, trace bool) result {
	t.Helper()
	w.scale = testScale[w.name]
	o := options{workload: w.name, seed: seed, trace: trace, workdir: t.TempDir()}
	out, err := measure(o, w)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	r := out.result(trace)
	if !r.Correct || r.Failed != 0 {
		var report bytes.Buffer
		out.print(&report, o, w)
		t.Fatalf("%s: correct %v, %d of %d failed:\n%s", w.name, r.Correct, r.Failed, r.Attempted, report.String())
	}
	return r
}

// TestWorkloadsEmitEveryMetric runs each workload once untraced and
// twice traced: every run must pass its checks and emit exactly the
// metrics BENCHMARK.json names, with their units; and two runs of one
// seed must agree exactly on the deterministic work counts and on the
// schedule-quality metrics.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Fatalf("workload %d: BENCHMARK.json %+v, program %q: %q", i, w, workloads[i].name, workloads[i].why)
		}
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			for trace, want := range map[bool][]specMetric{false: s.EndToEnd, true: s.PerLayer} {
				r := runBench(t, w, 7, trace)
				if len(r.Metrics) != len(want) {
					t.Errorf("trace %v: %d metrics, BENCHMARK.json names %d", trace, len(r.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := r.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace %v: metric %s = %+v, want unit %s", trace, m.Name, got, m.Unit)
					}
					if !trace && !(got.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			}
			a, b := runBench(t, w, 9, true), runBench(t, w, 9, true)
			for _, name := range []string{
				"core.nodes_per_decision", "engine.fsyncs_per_1k_jobs", "federation.round_trips_per_job",
				"avg_wait_h", "max_wait_h", "avg_bsld",
			} {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s: %v then %v from the same seed", name, a.Metrics[name], b.Metrics[name])
				}
			}
		})
	}
}

// TestTracedPassMatchesUntraced checks the serving workloads, where
// the timing wrappers sit between layers: a traced pass must commit
// the same records with the same fsyncs and round trips as an
// untraced one, and both must actually fsync and group-commit.
func TestTracedPassMatchesUntraced(t *testing.T) {
	for _, name := range []string{"serve", "serve-fed"} {
		var w workloadDef
		for _, d := range workloads {
			if d.name == name {
				w = d
			}
		}
		rc := &runCtx{seed: 3, suites: 1, scale: 0.05, workdir: t.TempDir()}
		plain, err := w.pass(rc, false)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := w.pass(rc, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []*passResult{plain, traced} {
			if len(p.failures) > 0 {
				t.Fatalf("%s: %v", name, p.failures)
			}
		}
		if plain.counts != traced.counts || plain.fingerprint != traced.fingerprint {
			t.Errorf("%s: untraced %+v, traced %+v (records equal: %v)", name, plain.counts, traced.counts,
				plain.fingerprint == traced.fingerprint)
		}
		switch name {
		case "serve":
			if c := plain.counts; c.Fsyncs == 0 || c.SyncGroups == 0 || c.IngestCommitted != int64(c.Jobs) {
				t.Errorf("serve: no group-committed fsyncs: %+v", c)
			}
		case "serve-fed":
			if c := plain.counts; c.Trips <= int64(c.Jobs) || c.Probes == 0 {
				t.Errorf("serve-fed: round trips not counted: %+v", c)
			}
		}
		if n := traced.spanDur["policy.decide"].N; n != plain.counts.Decisions {
			t.Errorf("%s: %d decide spans for %d decisions", name, n, plain.counts.Decisions)
		}
	}
}

// TestWrappedEngineGroupCommits checks that the timing wrapper keeps
// ingest.Syncer: the committer must sync the journal once per batch
// even though the journal's own group never fills.
func TestWrappedEngineGroupCommits(t *testing.T) {
	fj, err := engine.OpenFileJournal(filepath.Join(t.TempDir(), "j"), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer fj.Close()
	jr := timedJournal{fj, newTracer()}
	pol, err := schedsearch.ParsePolicy("FCFS-backfill", 0)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.Config{Capacity: 8, Policy: pol, Clock: engine.NewVirtualClock(), Journal: jr})
	if err != nil {
		t.Fatal(err)
	}
	q, err := ingest.NewQueue(ingest.Config{Backend: timedEngine{eng, newTracer()}})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	res, err := q.SubmitBatch([]job.Job{{ID: 1, Nodes: 2, Runtime: 60}, {ID: 2, Nodes: 2, Runtime: 60}})
	if err != nil || res[0].Err != nil || res[1].Err != nil {
		t.Fatalf("submit: %v %+v", err, res)
	}
	if st := jr.Stats(); st.Syncs != 1 || st.Appends != 2 {
		t.Fatalf("journal stats %+v, want 2 appends made durable by 1 sync", st)
	}
	if _, ok := any(jr).(engine.SyncLatencyReporter); !ok {
		t.Fatal("journal wrapper lost SyncLatencyReporter")
	}
}

// TestReplayMatchesSchedsim compares replay-search's per-month quality
// metrics with schedsim -json for the same seed, load, policy and
// scale.
func TestReplayMatchesSchedsim(t *testing.T) {
	if testing.Short() {
		t.Skip("builds schedsim")
	}
	bin := filepath.Join(t.TempDir(), "schedsim")
	if out, err := exec.Command("go", "build", "-o", bin, "schedsearch/cmd/schedsim").CombinedOutput(); err != nil {
		t.Fatalf("build schedsim: %v\n%s", err, out)
	}
	rc := &runCtx{seed: 5, suites: 1, scale: 0.05, workdir: t.TempDir()}
	p, err := replayPass(searchPolicy)(rc, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.months) != 10 {
		t.Fatalf("%d months", len(p.months))
	}
	for _, m := range p.months {
		out, err := exec.Command(bin, "-json", "-seed", "5", "-scale", "0.05", "-load", "0.9",
			"-policy", searchPolicy, "-L", "1000", "-month", m.Month).Output()
		if err != nil {
			t.Fatalf("schedsim %s: %v", m.Month, err)
		}
		var got struct {
			Summary struct {
				AvgWaitH float64 `json:"avg_wait_h"`
				MaxWaitH float64 `json:"max_wait_h"`
				AvgBsld  float64 `json:"avg_bounded_slowdown"`
			}
		}
		if err := json.Unmarshal(out, &got); err != nil {
			t.Fatal(err)
		}
		s := m.Summary
		if got.Summary.AvgWaitH != s.AvgWaitH || got.Summary.MaxWaitH != s.MaxWaitH || got.Summary.AvgBsld != s.AvgBoundedSlowdown {
			t.Errorf("%s: schedsim %+v, benchmark %+v", m.Month, got.Summary, s)
		}
	}
}

func TestSummarizeExact(t *testing.T) {
	var big []int64
	for i := 1000; i >= 1; i-- {
		big = append(big, int64(i)*int64(time.Microsecond))
	}
	if d := summarize(big, time.Microsecond); d.N != 1000 || d.P50 != 500 || d.Tail != 990 || d.TailPct != 99 {
		t.Errorf("1..1000: %+v", d)
	}
	// 200 samples leave only two beyond p99: report the value with ten
	// samples above it instead (the 190th, p95).
	if d := summarize(big[800:], time.Microsecond); d.Tail != 190 || d.TailPct != 95 {
		t.Errorf("1..200: %+v", d)
	}
	if d := summarize(nil, time.Microsecond); d.N != 0 {
		t.Errorf("empty: %+v", d)
	}
}

// TestCalibrationLeftOut checks that kernel runs are left out of the
// benchmark's clock and that a unit is calibrated by its own kernel
// runs when it has calMin of them, else by its pass's.
func TestCalibrationLeftOut(t *testing.T) {
	c := newCalibrator()
	t0 := now()
	k := c.maybe(t0 + calEvery)
	if el := now() - t0; k <= 0 || el >= k {
		t.Errorf("kernel took %d ns, benchmark clock moved %d ns", k, el)
	}
	if c.maybe(now()) != 0 {
		t.Error("kernel ran again within calEvery")
	}
	own := make([]int64, calMin)
	for i := range own {
		own[i] = 100
	}
	rel, calNs := calibrated([][]int64{{300, 200, 400}, {50}}, [][]int64{own, {1000, 1000, 1000}})
	// Unit 0: 300/100. Unit 1 has too few kernel runs and takes the
	// pooled median, 100: 50/100. The median of 3 and 0.5 is 1.75.
	if rel != 1.75 || calNs != 100 {
		t.Errorf("calibrated = %v, %v; want 1.75, 100", rel, calNs)
	}
}

func TestRealMainRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve", "--trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(append(args, "--workdir", t.TempDir()), &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
