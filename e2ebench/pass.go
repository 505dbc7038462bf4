package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"schedsearch/internal/core"
	"schedsearch/internal/job"
	"schedsearch/internal/metrics"
	"schedsearch/internal/sim"
	"schedsearch/internal/stats"
)

// passResult is one pass: a complete, identical unit of a workload's
// work. A pass sets up and runs one or more units — a unit is one
// month replayed under one policy, or one month served — and checks
// their outcome. A run repeats passes until its time is up. A pass
// keeps its raw samples only until finish has summarized them, so a
// run's memory does not grow with its number of passes.
type passResult struct {
	raw *passRaw

	setupLog
	wallNs int64
	jobs   int
	// rates holds each unit's jobs per wall second.
	rates []float64

	// Per-call latency, in microseconds: exact percentiles of each
	// unit's samples, and their median across the pass's units.
	decide, start, ack, status dist
	// decideCal is the median across units of each unit's Decide
	// median over its median calibration kernel time, and calNs the
	// pass's median kernel time (calib.go).
	decideCal, calNs float64

	// The paper's measured-window metrics, across units: the mean of
	// the averages and the max of the maxima.
	avgWaitH, maxWaitH, avgBsld float64
	months                      []monthSummary

	counts      counts
	fingerprint uint64

	attempted int
	failures  []string

	simSelfNs         int64 // sim.Run wall minus time inside Decide
	searchNs          int64 // time inside Decide of search policies
	backfillNs        int64 // time inside Decide of other policies
	backfillDecisions int

	// Traced passes only.
	spanDur, spanSelf map[string]dist // span durations and self times
	layerSelf         map[string]int64
	covered           int64 // time inside calls into a layer (spanStats)
	wire              dist  // client round trip minus handler time
	allocSearch       float64
	allocOther        float64
	profile           profileCost
}

// setupLog holds set-up wall times: each whole set-up (suite
// generation plus stack start-up) and its generation part.
type setupLog struct {
	setups, generates []int64
}

// setupFunc sets up the stack of a run's suite k, logs its time and
// tears it down again, so a run can sample set-up time more often than
// it runs passes.
type setupFunc func(rc *runCtx, k int, log *setupLog) error

// passRaw is what a pass collects while it runs.
type passRaw struct {
	// Per-call samples in nanoseconds, one slice per unit.
	decide, start, ack, status [][]int64
	// cal holds, per decide unit, the kernel times of its calibrator
	// runs.
	cal     [][]int64
	tr      *tracer  // nil for untraced passes
	samples []sample // Decide snapshots, traced only
}

func newPass(traced bool) *passResult {
	p := &passResult{raw: &passRaw{}}
	if traced {
		p.raw.tr = newTracer()
	}
	return p
}

// finish summarizes the raw samples, spans and snapshots and drops
// them.
func (p *passResult) finish() {
	r := p.raw
	p.decide, p.start = unitDist(r.decide), unitDist(r.start)
	p.decideCal, p.calNs = calibrated(r.decide, r.cal)
	p.ack, p.status = unitDist(r.ack), unitDist(r.status)
	if r.tr != nil {
		st := r.tr.stats()
		p.spanDur, p.spanSelf = make(map[string]dist), make(map[string]dist)
		for name, ds := range st.durs {
			p.spanDur[name] = summarize(ds, time.Microsecond)
			p.spanSelf[name] = summarize(st.selfs[name], time.Microsecond)
		}
		p.layerSelf, p.covered = st.layerSelf, st.covered
		p.wire = summarize(transportTimes(r.tr), time.Microsecond)
		p.allocSearch, p.allocOther = replayAllocs(r.samples)
		p.profile = replayProfiles(r.samples)
	}
	p.raw = nil
}

// unitDist summarizes each unit's samples exactly and returns the
// median across units of their percentiles, in microseconds.
func unitDist(units [][]int64) dist {
	var p50, tail []float64
	d := dist{TailPct: 99}
	for _, samples := range units {
		u := summarize(samples, time.Microsecond)
		if u.N == 0 {
			continue
		}
		p50, tail = append(p50, u.P50), append(tail, u.Tail)
		d.N += u.N
		d.TailPct = math.Min(d.TailPct, u.TailPct)
	}
	d.P50, d.Tail = stats.Percentile(p50, 50), stats.Percentile(tail, 50)
	return d
}

// calMin is how many kernel runs a unit needs to be calibrated by
// its own; a smaller unit is calibrated by its pass's.
const calMin = 8

// calibrated returns the median across units of each unit's Decide
// median over its median kernel time, and the median kernel time
// over all units.
func calibrated(decide, cal [][]int64) (rel, calNs float64) {
	var pooled []int64
	for _, c := range cal {
		pooled = append(pooled, c...)
	}
	calNs = summarize(pooled, time.Nanosecond).P50
	var rels []float64
	for i, samples := range decide {
		d := summarize(samples, time.Nanosecond)
		c := calNs
		if len(cal[i]) >= calMin {
			c = summarize(cal[i], time.Nanosecond).P50
		}
		if d.N > 0 && c > 0 {
			rels = append(rels, d.P50/c)
		}
	}
	return stats.Percentile(rels, 50), calNs
}

// monthSummary is one month's Summary under one policy.
type monthSummary struct {
	Month, Policy string
	Summary       metrics.Summary
}

// sample is a Decide snapshot kept for the profile and allocation
// replays, with the policy that saw it.
type sample struct {
	policy string
	snap   *sim.Snapshot
}

// counts are the deterministic work counters of a pass. Every pass of
// a run, traced or not, must produce the same counts.
type counts struct {
	Jobs, Records, Decisions                            int
	SearchDecisions, BudgetHits                         int
	Nodes, NodesToBest                                  int64
	JournalAppends, Fsyncs, SyncGroups, IngestCommitted int64
	JournalBytes                                        int64
	Trips, Probes, WireBytes, Retries, Migrations       int64
}

func (c *counts) addSearch(st core.Stats) {
	c.SearchDecisions += st.Decisions
	c.BudgetHits += st.BudgetHits
	c.Nodes += st.Nodes
	c.NodesToBest += st.NodesToBest
}

// check records a correctness check's outcome.
func (p *passResult) check(what string, err error) {
	p.attempted++
	if err != nil {
		p.failures = append(p.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

// fail records a failed operation (a non-2xx response, a returned
// error, a refused job).
func (p *passResult) fail(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// addQuality folds the per-unit summaries into the pass's quality
// metrics.
func (p *passResult) addQuality(ms []monthSummary) {
	p.months = ms
	p.maxWaitH = 0
	var w, b float64
	for _, m := range ms {
		w += m.Summary.AvgWaitH
		b += m.Summary.AvgBoundedSlowdown
		if m.Summary.MaxWaitH > p.maxWaitH {
			p.maxWaitH = m.Summary.MaxWaitH
		}
	}
	p.avgWaitH = w / float64(len(ms))
	p.avgBsld = b / float64(len(ms))
}

// fingerprint hashes committed records (ID, start, end, node IDs) in
// job-ID order, so two passes that commit the same schedule hash the
// same.
func fingerprint(h uint64, recs []sim.Record) uint64 {
	rs := append([]sim.Record(nil), recs...)
	sort.Slice(rs, func(i, k int) bool { return rs[i].Job.ID < rs[k].Job.ID })
	f := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		f.Write(b[:])
	}
	put(int64(h))
	for _, r := range rs {
		put(int64(r.Job.ID))
		put(int64(r.Start))
		put(int64(r.End))
		for _, n := range r.NodeIDs {
			put(int64(n))
		}
	}
	return f.Sum64()
}

// startClock is the sim.Observer that measures submit-to-running wall
// time for the jobs that start at their own arrival instant. Replays
// stamp the arrival when the simulator enqueues the job; the serving
// loops stamp it themselves just before the submission call.
type startClock struct {
	base      int
	arrive    []int64
	stampSelf bool
	lat       []int64
}

func newStartClock(jobs []job.Job, stampSelf bool) *startClock {
	return &startClock{base: jobs[0].ID, arrive: make([]int64, len(jobs)), stampSelf: stampSelf}
}

func (c *startClock) stamp(id int) { c.arrive[id-c.base] = now() }

func (c *startClock) ObserveSubmit(j job.Job) {
	if c.stampSelf {
		c.stamp(j.ID)
	}
}

func (c *startClock) ObserveStart(at job.Time, s sim.Started) {
	if at == s.Job.Submit {
		c.lat = append(c.lat, now()-c.arrive[s.Job.ID-c.base])
	}
}

func (c *startClock) ObserveFinish(sim.Finished) {}
