package workload

import (
	"math"
	"testing"

	"schedsearch/internal/job"
)

func TestSpecTablesAreSane(t *testing.T) {
	if len(Months) != 10 {
		t.Fatalf("%d months, want 10", len(Months))
	}
	for _, spec := range Months {
		if spec.TotalJobs < 1000 || spec.TotalJobs > 5000 {
			t.Errorf("%s: implausible job count %d", spec.Label, spec.TotalJobs)
		}
		if spec.Load < 0.5 || spec.Load > 1 {
			t.Errorf("%s: implausible load %v", spec.Label, spec.Load)
		}
		// Table rows are percentages of the month: they must sum to ~1.
		if s := sumf(spec.JobFrac[:]); math.Abs(s-1) > 0.02 {
			t.Errorf("%s: job fractions sum to %v", spec.Label, s)
		}
		if s := sumf(spec.DemandFrac[:]); math.Abs(s-1) > 0.02 {
			t.Errorf("%s: demand fractions sum to %v", spec.Label, s)
		}
		// Short and long fractions per class cannot exceed the class's
		// job fraction (both are fractions of all jobs).
		for c := 0; c < 5; c++ {
			classFrac := 0.0
			for r := range spec.JobFrac {
				if table4ClassOf(r) == c {
					classFrac += spec.JobFrac[r]
				}
			}
			if spec.ShortFrac[c]+spec.LongFrac[c] > classFrac+0.03 {
				t.Errorf("%s class %d: short %.3f + long %.3f exceeds class jobs %.3f",
					spec.Label, c, spec.ShortFrac[c], spec.LongFrac[c], classFrac)
			}
		}
		// Runtime limit per Table 2.
		wantLimit := Limit12h
		if spec.Year == 2004 || spec.MonthOfYear == 12 {
			wantLimit = Limit24h
		}
		if spec.RuntimeLimit != wantLimit {
			t.Errorf("%s: runtime limit %d, want %d", spec.Label, spec.RuntimeLimit, wantLimit)
		}
	}
}

func TestSpecByLabel(t *testing.T) {
	if SpecByLabel("7/03") == nil {
		t.Error("7/03 not found")
	}
	if SpecByLabel("13/05") != nil {
		t.Error("nonexistent month found")
	}
	if got := len(MonthLabels()); got != 10 {
		t.Errorf("%d labels", got)
	}
}

func TestDaysInMonth(t *testing.T) {
	cases := []struct{ y, m, want int }{
		{2003, 6, 30}, {2003, 7, 31}, {2004, 2, 29}, {2003, 2, 28},
		{2100, 2, 28}, {2000, 2, 29},
	}
	for _, c := range cases {
		if got := daysInMonth(c.y, c.m); got != c.want {
			t.Errorf("daysInMonth(%d, %d) = %d, want %d", c.y, c.m, got, c.want)
		}
	}
}

func TestApportionSumsExactly(t *testing.T) {
	counts := apportion(100, []float64{0.333, 0.333, 0.334})
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 100 {
		t.Errorf("apportion total = %d, want 100", total)
	}
	counts = apportion(7, []float64{1, 1, 1})
	total = 0
	for _, c := range counts {
		total += c
	}
	if total != 7 {
		t.Errorf("apportion total = %d, want 7", total)
	}
	if got := apportion(10, []float64{0, 0}); got[0] != 0 || got[1] != 0 {
		t.Errorf("apportion with zero weights = %v", got)
	}
}

func TestGeneratedSuiteMatchesSpecs(t *testing.T) {
	suite := NewSuite(Config{Seed: 1})
	months := suite.RealMonths()
	if len(months) != 10 {
		t.Fatalf("%d real months", len(months))
	}
	for _, m := range months {
		st := m.Stats(suite.Capacity)
		if st.TotalJobs != m.Spec.TotalJobs {
			t.Errorf("%s: %d jobs generated, spec %d", m.Spec.Label, st.TotalJobs, m.Spec.TotalJobs)
		}
		if math.Abs(st.Load-m.Spec.Load) > 0.06 {
			t.Errorf("%s: load %.3f, spec %.2f", m.Spec.Label, st.Load, m.Spec.Load)
		}
		for r := range st.JobFrac {
			if d := math.Abs(st.JobFrac[r] - m.Spec.JobFrac[r]/sumf(m.Spec.JobFrac[:])); d > 0.015 {
				t.Errorf("%s range %s: job fraction off by %.3f", m.Spec.Label, job.Table3NodeRanges[r], d)
			}
			if d := math.Abs(st.DemandFrac[r] - m.Spec.DemandFrac[r]/sumf(m.Spec.DemandFrac[:])); d > 0.06 {
				t.Errorf("%s range %s: demand fraction off by %.3f", m.Spec.Label, job.Table3NodeRanges[r], d)
			}
		}
		for c := range st.ShortFrac {
			if d := math.Abs(st.ShortFrac[c] - m.Spec.ShortFrac[c]); d > 0.03 {
				t.Errorf("%s class %d: short fraction off by %.3f", m.Spec.Label, c, d)
			}
			if d := math.Abs(st.LongFrac[c] - m.Spec.LongFrac[c]); d > 0.03 {
				t.Errorf("%s class %d: long fraction off by %.3f", m.Spec.Label, c, d)
			}
		}
		// Every job respects the runtime limit and capacity.
		for _, j := range m.Jobs {
			if err := j.Validate(suite.Capacity); err != nil {
				t.Fatalf("%s: %v", m.Spec.Label, err)
			}
			if j.Runtime > m.Spec.RuntimeLimit {
				t.Fatalf("%s: job %d runtime %d beyond limit %d",
					m.Spec.Label, j.ID, j.Runtime, m.Spec.RuntimeLimit)
			}
			if j.Request > m.Spec.RuntimeLimit {
				t.Fatalf("%s: job %d request %d beyond limit %d",
					m.Spec.Label, j.ID, j.Request, m.Spec.RuntimeLimit)
			}
			if j.Submit < m.Start || j.Submit >= m.End {
				t.Fatalf("%s: job %d submitted at %d outside [%d, %d)",
					m.Spec.Label, j.ID, j.Submit, m.Start, m.End)
			}
		}
	}
}

func TestSuiteDeterminism(t *testing.T) {
	a := NewSuite(Config{Seed: 7})
	b := NewSuite(Config{Seed: 7})
	ma, _ := a.Month("9/03")
	mb, _ := b.Month("9/03")
	if len(ma.Jobs) != len(mb.Jobs) {
		t.Fatalf("different job counts: %d vs %d", len(ma.Jobs), len(mb.Jobs))
	}
	for i := range ma.Jobs {
		if ma.Jobs[i] != mb.Jobs[i] {
			t.Fatalf("job %d differs: %+v vs %+v", i, ma.Jobs[i], mb.Jobs[i])
		}
	}
	c := NewSuite(Config{Seed: 8})
	mc, _ := c.Month("9/03")
	same := 0
	for i := range ma.Jobs {
		if i < len(mc.Jobs) && ma.Jobs[i] == mc.Jobs[i] {
			same++
		}
	}
	if same == len(ma.Jobs) {
		t.Error("different seeds produced identical months")
	}
}

func TestSuiteTimelineIDsAndOrder(t *testing.T) {
	suite := NewSuite(Config{Seed: 1, JobScale: 0.1})
	var last job.Time = -1
	seen := map[int]bool{}
	for _, m := range suite.RealMonths() {
		for _, j := range m.Jobs {
			if j.Submit < last {
				t.Fatal("months out of order on the timeline")
			}
			last = j.Submit
			if seen[j.ID] {
				t.Fatalf("duplicate job ID %d", j.ID)
			}
			seen[j.ID] = true
		}
	}
}

func TestInputSlicingAndMeasurement(t *testing.T) {
	suite := NewSuite(Config{Seed: 1, JobScale: 0.1})
	in, m, err := suite.Input("9/03", SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if in.Capacity != 128 {
		t.Errorf("capacity = %d", in.Capacity)
	}
	margin := job.Duration(float64(job.Week) * 0.1)
	measured, unmeasured := 0, 0
	for i, j := range in.Jobs {
		if i > 0 && j.Submit < in.Jobs[i-1].Submit {
			t.Fatal("slice not sorted")
		}
		if j.Submit < m.Start-margin || j.Submit >= m.End+margin {
			t.Fatalf("job %d at %d outside slice window", j.ID, j.Submit)
		}
		inMonth := j.Submit >= m.Start && j.Submit < m.End
		if in.Measured[j.ID] != inMonth {
			t.Fatalf("job %d measured=%v, inMonth=%v", j.ID, in.Measured[j.ID], inMonth)
		}
		if inMonth {
			measured++
		} else {
			unmeasured++
		}
	}
	if measured != len(m.Jobs) {
		t.Errorf("measured %d, month has %d", measured, len(m.Jobs))
	}
	if unmeasured == 0 {
		t.Error("no warm-up/cool-down jobs in slice")
	}
	if in.MeasureStart != m.Start || in.MeasureEnd != m.End {
		t.Errorf("measurement window [%d, %d), want [%d, %d)",
			in.MeasureStart, in.MeasureEnd, m.Start, m.End)
	}
}

func TestInputLoadScaling(t *testing.T) {
	suite := NewSuite(Config{Seed: 1, JobScale: 0.1})
	m, _ := suite.Month("10/03") // lowest original load
	in, _, err := suite.Input("10/03", SimOptions{TargetLoad: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	// Offered load over the compressed measurement window must be ~0.9.
	var demand int64
	for _, j := range in.Jobs {
		if in.Measured[j.ID] {
			demand += j.Demand()
		}
	}
	window := float64(in.MeasureEnd - in.MeasureStart)
	load := float64(demand) / (float64(in.Capacity) * window)
	if math.Abs(load-0.9) > 0.02 {
		t.Errorf("scaled load %.3f, want 0.90 (original %.3f)", load, m.AchievedLoad)
	}
	// Attributes unchanged, only submit times move.
	orig, _, _ := suite.Input("10/03", SimOptions{})
	if len(orig.Jobs) != len(in.Jobs) {
		t.Fatalf("scaling changed job count")
	}
	for i := range in.Jobs {
		a, b := orig.Jobs[i], in.Jobs[i]
		if a.ID != b.ID || a.Nodes != b.Nodes || a.Runtime != b.Runtime || a.Request != b.Request {
			t.Fatalf("scaling changed job attributes: %+v vs %+v", a, b)
		}
	}
}

func TestInputUnknownMonth(t *testing.T) {
	suite := NewSuite(Config{Seed: 1, JobScale: 0.05})
	if _, _, err := suite.Input("5/03", SimOptions{}); err == nil {
		t.Error("unknown month accepted")
	}
}

func TestRequestedRuntimesAreOverestimates(t *testing.T) {
	suite := NewSuite(Config{Seed: 1, JobScale: 0.2})
	m, _ := suite.Month("6/03")
	exact, limit := 0, 0
	for _, j := range m.Jobs {
		if j.Request < j.Runtime {
			t.Fatalf("job %d: request %d < runtime %d", j.ID, j.Request, j.Runtime)
		}
		if j.Request == j.Runtime {
			exact++
		}
		if j.Request == m.Spec.RuntimeLimit {
			limit++
		}
	}
	n := len(m.Jobs)
	if exact == 0 {
		t.Error("no accurate requests generated")
	}
	if limit < n/10 {
		t.Errorf("only %d/%d jobs request the limit, expected a substantial minority", limit, n)
	}
}

func TestJobScalePreservesLoad(t *testing.T) {
	full := NewSuite(Config{Seed: 1})
	small := NewSuite(Config{Seed: 1, JobScale: 0.25})
	mf, _ := full.Month("8/03")
	ms, _ := small.Month("8/03")
	if math.Abs(mf.AchievedLoad-ms.AchievedLoad) > 0.08 {
		t.Errorf("scaled load %.3f deviates from full load %.3f", ms.AchievedLoad, mf.AchievedLoad)
	}
	wantJobs := int(math.Round(float64(mf.Spec.TotalJobs) * 0.25))
	if math.Abs(float64(len(ms.Jobs)-wantJobs)) > 2 {
		t.Errorf("scaled month has %d jobs, want ~%d", len(ms.Jobs), wantJobs)
	}
}

func TestTable4ClassOfCoversRanges(t *testing.T) {
	want := []int{0, 1, 2, 2, 3, 3, 4, 4}
	for r, w := range want {
		if got := table4ClassOf(r); got != w {
			t.Errorf("table4ClassOf(%d) = %d, want %d", r, got, w)
		}
	}
}

func TestPieceBoundsPartitionRuntimes(t *testing.T) {
	limit := Limit24h
	for _, rt := range []job.Duration{minRuntime, shortHi, shortHi + 1, medHi, medHi + 1, limit} {
		hits := 0
		for p := 0; p < 3; p++ {
			lo, hi := pieceBounds(p, limit)
			if rt >= lo && rt <= hi {
				hits++
			}
		}
		if hits != 1 {
			t.Errorf("runtime %d covered by %d pieces", rt, hits)
		}
	}
}

// TestNarrowMachineJobsFit: on a machine narrower than a Table 3 node
// range's lower end (65-128 on 64 nodes, 33-64 and 65-128 on 48), the
// range is clamped to the machine, so generation neither panics nor
// emits a job wider than the machine.
func TestNarrowMachineJobsFit(t *testing.T) {
	for _, capacity := range []int{64, 48} {
		suite := NewSuite(Config{Seed: 1, JobScale: 0.05, Capacity: capacity})
		widest := 0
		for _, m := range suite.months {
			for _, j := range m.Jobs {
				if err := j.Validate(capacity); err != nil {
					t.Fatalf("capacity %d, %s: %v", capacity, m.Spec.Label, err)
				}
				widest = max(widest, j.Nodes)
			}
		}
		if widest != capacity {
			t.Errorf("capacity %d: widest job %d nodes, want whole-machine jobs", capacity, widest)
		}
	}
}
