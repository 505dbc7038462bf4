package main

import (
	"runtime"

	"schedsearch"
	"schedsearch/internal/cluster"
	"schedsearch/internal/core"
	"schedsearch/internal/job"
	"schedsearch/internal/sim"
)

// profileCost is the cluster layer measured on sampled Decide
// snapshots: the ns per profile build (reset plus one Place per
// running job, as the search does at the root), per EarliestFit and
// per Place+Undo pair, and the mean profile length those calls saw.
type profileCost struct {
	buildNs, fitNs, placeUndoNs, steps float64
}

// replayProfiles replays cluster.Profile operations on each sampled
// snapshot: it builds the availability profile, then lays the queue
// out in queue order, each job at its earliest fit. EarliestFit cost
// is the timed lay-out minus the same placements done without it.
func replayProfiles(samples []sample) profileCost {
	var (
		prof                     *cluster.Profile
		builds, ops              int
		buildNs, fitPlaceNs      int64
		placeNs, undoNs, stepSum int64
		starts                   []job.Time
		pls                      []cluster.Placement
	)
	for _, s := range samples {
		snap := s.snap
		t := now()
		if prof == nil {
			prof = cluster.New(snap.Capacity, snap.Now)
		} else {
			prof.Reset(snap.Capacity, snap.Now)
		}
		for _, r := range snap.Running {
			end := r.PredictedEnd
			if end <= snap.Now {
				end = snap.Now + 1
			}
			prof.Place(snap.Now, r.Nodes, end-snap.Now)
		}
		buildNs += now() - t
		builds++

		starts, pls = starts[:0], pls[:0]
		for _, w := range snap.Queue {
			stepSum += int64(prof.Len())
			at := prof.EarliestFit(snap.Now, w.Job.Nodes, estimate(w))
			starts = append(starts, at)
			pls = append(pls, prof.Place(at, w.Job.Nodes, estimate(w)))
		}
		undoAll(prof, pls)
		ops += len(snap.Queue)

		t = now()
		for i, w := range snap.Queue {
			pls[i] = prof.Place(prof.EarliestFit(snap.Now, w.Job.Nodes, estimate(w)), w.Job.Nodes, estimate(w))
		}
		fitPlaceNs += now() - t
		undoAll(prof, pls)

		t = now()
		for i, w := range snap.Queue {
			pls[i] = prof.Place(starts[i], w.Job.Nodes, estimate(w))
		}
		t2 := now()
		undoAll(prof, pls)
		placeNs += t2 - t
		undoNs += now() - t2
	}
	return profileCost{
		buildNs:     ratio(float64(buildNs), float64(builds)),
		fitNs:       ratio(float64(fitPlaceNs-placeNs), float64(ops)),
		placeUndoNs: ratio(float64(placeNs+undoNs), float64(ops)),
		steps:       ratio(float64(stepSum), float64(ops)),
	}
}

func estimate(w sim.WaitingJob) job.Duration {
	if w.Estimate < 1 {
		return 1
	}
	return w.Estimate
}

func undoAll(p *cluster.Profile, pls []cluster.Placement) {
	for i := len(pls) - 1; i >= 0; i-- {
		p.Undo(pls[i])
	}
}

// replayAllocs re-decides the sampled snapshots on fresh policy
// instances, one per policy name, and returns the heap allocations per
// decision of search policies and of the others. The first snapshot
// of each policy warms its reusable scratch before counting.
func replayAllocs(samples []sample) (search, other float64) {
	byPolicy := make(map[string][]*sim.Snapshot)
	var names []string
	for _, s := range samples {
		if _, ok := byPolicy[s.policy]; !ok {
			names = append(names, s.policy)
		}
		byPolicy[s.policy] = append(byPolicy[s.policy], s.snap)
	}
	var sAllocs, sN, oAllocs, oN uint64
	var ms runtime.MemStats
	for _, name := range names {
		pol, err := schedsearch.ParsePolicy(name, nodeLimit)
		if err != nil {
			continue
		}
		snaps := byPolicy[name]
		pol.Decide(snaps[0])
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for _, snap := range snaps {
			pol.Decide(snap)
		}
		runtime.ReadMemStats(&ms)
		n := ms.Mallocs - before
		if _, ok := pol.(*core.Scheduler); ok {
			sAllocs, sN = sAllocs+n, sN+uint64(len(snaps))
		} else {
			oAllocs, oN = oAllocs+n, oN+uint64(len(snaps))
		}
	}
	return ratio(float64(sAllocs), float64(sN)), ratio(float64(oAllocs), float64(oN))
}
