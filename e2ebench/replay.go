package main

import (
	"fmt"

	"schedsearch"
	"schedsearch/internal/core"
	"schedsearch/internal/metrics"
	"schedsearch/internal/oracle"
	"schedsearch/internal/sim"
	"schedsearch/internal/workload"
)

const (
	// searchPolicy and nodeLimit are the paper's headline scheduler:
	// DDS with the LXF heuristic and the dynamic bound, L = 1000.
	searchPolicy = "DDS/lxf/dynB"
	nodeLimit    = 1000
	// replayLoad is the paper's high-load regime (Fig. 4).
	replayLoad = 0.9
	// replayStride keeps every replayStride-th Decide snapshot of a
	// traced replay for the profile and allocation replays.
	replayStride = 128
)

// replayUnit is one month of a suite replayed under one policy.
type replayUnit struct {
	label string
	in    sim.Input
	pol   *timedPolicy
}

// replaySetup generates suite k and builds its units: all ten months
// at ρ = 0.9, once under each policy. It logs the set-up's wall time
// and its generation part.
func replaySetup(rc *runCtx, k int, policies []string, tr *tracer, log *setupLog) ([]replayUnit, error) {
	t0 := now()
	suite := workload.NewSuite(workload.Config{Seed: rc.suiteSeed(k), JobScale: rc.scale})
	log.generates = append(log.generates, now()-t0)
	var units []replayUnit
	for _, label := range workload.MonthLabels() {
		in, _, err := suite.Input(label, workload.SimOptions{TargetLoad: replayLoad})
		if err != nil {
			return nil, err
		}
		for _, name := range policies {
			pol, err := schedsearch.ParsePolicy(name, nodeLimit)
			if err != nil {
				return nil, err
			}
			tp := &timedPolicy{inner: pol, tr: tr, cal: rc.cal}
			if tr != nil {
				tp.stride = replayStride
			}
			units = append(units, replayUnit{label, in, tp})
		}
	}
	log.setups = append(log.setups, now()-t0)
	return units, nil
}

// replaySetups returns the set-up of a replay workload on its own.
func replaySetups(policies ...string) setupFunc {
	return func(rc *runCtx, k int, log *setupLog) error {
		_, err := replaySetup(rc, k, policies, nil, log)
		return err
	}
}

// replayPass returns the pass of a replay workload: the units of every
// suite of the run, each replayed by sim.Run.
func replayPass(policies ...string) passFunc {
	return func(rc *runCtx, traced bool) (*passResult, error) {
		p := newPass(traced)
		var units []replayUnit
		for k := 0; k < rc.suites; k++ {
			us, err := replaySetup(rc, k, policies, p.raw.tr, &p.setupLog)
			if err != nil {
				return nil, err
			}
			units = append(units, us...)
		}

		// Each unit is timed alone and checked outside its timed span,
		// so a pass never holds more than one unit's records.
		var ms []monthSummary
		for _, u := range units {
			sc := newStartClock(u.in.Jobs, true)
			in := u.in
			in.Observer = sc
			p.raw.tr.record(true)
			t1 := now()
			sp := p.raw.tr.begin("sim.run")
			res, err := sim.Run(in, u.pol)
			p.raw.tr.end(sp)
			dur := now() - t1
			p.raw.tr.record(false)
			p.wallNs += dur
			p.rates = append(p.rates, float64(len(in.Jobs))/seconds(dur))
			p.attempted += len(in.Jobs)
			what := fmt.Sprintf("%s %s", u.label, u.pol.Name())
			if err != nil {
				p.fail("%s: %v", what, err)
				continue
			}
			p.simSelfNs += dur - total(u.pol.decide)
			p.raw.start = append(p.raw.start, sc.lat)
			p.check(what+" oracle", oracle.CheckRecords(u.in.Capacity, u.in.Jobs, res.Records))
			p.check(what+" conservation", metrics.CheckConservation(res))
			ms = append(ms, monthSummary{Month: u.label, Policy: u.pol.Name(), Summary: metrics.Summarize(res)})
			p.fingerprint = fingerprint(p.fingerprint, res.Records)

			p.jobs += len(u.in.Jobs)
			p.raw.decide = append(p.raw.decide, u.pol.decide)
			p.raw.cal = append(p.raw.cal, u.pol.calNs)
			p.counts.Jobs += len(u.in.Jobs)
			p.counts.Records += len(res.Records)
			p.counts.Decisions += res.Decisions
			if sch, ok := u.pol.inner.(*core.Scheduler); ok {
				p.counts.addSearch(sch.SearchStats)
				p.searchNs += total(u.pol.decide)
			} else {
				p.backfillNs += total(u.pol.decide)
				p.backfillDecisions += len(u.pol.decide)
			}
			for _, s := range u.pol.snaps {
				p.raw.samples = append(p.raw.samples, sample{u.pol.Name(), s})
			}
		}
		p.finish()
		if len(ms) > 0 {
			p.addQuality(ms)
		}
		return p, nil
	}
}
