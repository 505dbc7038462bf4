package schedsearch_test

import (
	"testing"

	"schedsearch"
	"schedsearch/internal/core"
	"schedsearch/internal/sim"
)

// mirrorPolicy drives a month with the parallel scheduler while running
// a sequential twin on every snapshot, failing the test on the first
// decision where the two diverge in committed starts, best cost or
// planned starts. Because the parallel decisions are the ones the
// simulator commits, any divergence would also compound into different
// snapshots — identical month-end stats prove equivalence end to end.
type mirrorPolicy struct {
	t         *testing.T
	seq, par  *core.Scheduler
	decisions int
}

func (m *mirrorPolicy) Name() string { return m.par.Name() }

func (m *mirrorPolicy) Decide(snap *sim.Snapshot) []int {
	m.decisions++
	seqStarts := append([]int(nil), m.seq.Decide(snap)...)
	parStarts := m.par.Decide(snap)
	if len(seqStarts) != len(parStarts) {
		m.t.Fatalf("%s decision %d: parallel starts %v, sequential %v",
			m.par.Name(), m.decisions, parStarts, seqStarts)
	}
	for i := range seqStarts {
		if seqStarts[i] != parStarts[i] {
			m.t.Fatalf("%s decision %d: parallel starts %v, sequential %v",
				m.par.Name(), m.decisions, parStarts, seqStarts)
		}
	}
	if m.seq.LastCost() != m.par.LastCost() {
		m.t.Fatalf("%s decision %d: parallel cost %v, sequential %v",
			m.par.Name(), m.decisions, m.par.LastCost(), m.seq.LastCost())
	}
	seqPlan, parPlan := m.seq.LastPlan(), m.par.LastPlan()
	if len(seqPlan) != len(parPlan) {
		m.t.Fatalf("%s decision %d: plan lengths %d vs %d",
			m.par.Name(), m.decisions, len(parPlan), len(seqPlan))
	}
	for i := range seqPlan {
		if seqPlan[i] != parPlan[i] {
			m.t.Fatalf("%s decision %d: plan[%d] %+v parallel, %+v sequential",
				m.par.Name(), m.decisions, i, parPlan[i], seqPlan[i])
		}
	}
	return parStarts
}

// TestParallelSearchSuiteDifferential is the tentpole acceptance test:
// across every suite month and both discrepancy algorithms, parallel
// Decide must commit bit-identical schedules to sequential Decide on
// every decision point of a closed-loop simulation, with identical
// search-effort accounting. The node budget is kept small enough that
// budget cutoffs (the shard's hardest case) occur routinely. Run with
// -race this also stresses the worker pool.
func TestParallelSearchSuiteDifferential(t *testing.T) {
	suite := schedsearch.NewSuite(schedsearch.SuiteConfig{Seed: 6, JobScale: 0.025})
	totalHits := 0
	for _, algo := range []core.Algorithm{core.DDS, core.LDS} {
		for _, month := range schedsearch.MonthLabels() {
			seq := core.New(algo, core.HeuristicLXF, core.DynamicBound(), 24)
			par := core.New(algo, core.HeuristicLXF, core.DynamicBound(), 24)
			par.Workers = 4
			m := &mirrorPolicy{t: t, seq: seq, par: par}
			sum, _, err := schedsearch.RunMonth(suite, month, schedsearch.SimOptions{TargetLoad: 0.95}, m)
			if err != nil {
				t.Fatalf("%s %s: %v", algo, month, err)
			}
			if sum.Jobs == 0 {
				t.Fatalf("%s %s: no jobs measured", algo, month)
			}
			ss, ps := seq.SearchStats, par.SearchStats
			if ss.Nodes != ps.Nodes || ss.Leaves != ps.Leaves ||
				ss.BudgetHits != ps.BudgetHits || ss.Exhausted != ps.Exhausted {
				t.Fatalf("%s %s: effort nodes/leaves/hits/exhausted %d/%d/%d/%d parallel, %d/%d/%d/%d sequential",
					algo, month, ps.Nodes, ps.Leaves, ps.BudgetHits, ps.Exhausted,
					ss.Nodes, ss.Leaves, ss.BudgetHits, ss.Exhausted)
			}
			totalHits += ps.BudgetHits
		}
	}
	if totalHits == 0 {
		t.Error("no budget cutoffs exercised across the whole suite; the shard's cutoff path went untested")
	}
}

// TestParallelNodesToBestSuiteDifferential pins the parallel merge's
// incumbent replay on closed-loop months: beyond the commits, the
// parallel scheduler's NodesToBest must equal the sequential one's (the
// merge replays the sequential improvement order exactly).
func TestParallelNodesToBestSuiteDifferential(t *testing.T) {
	suite := schedsearch.NewSuite(schedsearch.SuiteConfig{Seed: 6, JobScale: 0.025})
	for _, month := range []string{"7/03", "1/04"} {
		seq := core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), 24)
		par := core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), 24)
		par.Workers = 4
		m := &mirrorPolicy{t: t, seq: seq, par: par}
		if _, _, err := schedsearch.RunMonth(suite, month, schedsearch.SimOptions{TargetLoad: 0.95}, m); err != nil {
			t.Fatalf("%s: %v", month, err)
		}
		if seq.SearchStats.NodesToBest != par.SearchStats.NodesToBest {
			t.Fatalf("%s: nodes-to-best %d parallel, %d sequential",
				month, par.SearchStats.NodesToBest, seq.SearchStats.NodesToBest)
		}
	}
}
