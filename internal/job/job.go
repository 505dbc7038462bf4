// Package job defines the parallel-job model shared by the workload
// generator, the simulator, the scheduling policies and the metrics:
// a rigid job requesting a number of nodes and a runtime, plus the
// derived per-job performance measures used in the paper (wait,
// slowdown, bounded slowdown, excessive wait).
//
// All times are int64 seconds on the simulation timeline (0 = timeline
// origin); durations are int64 seconds.
package job

import "fmt"

// Time and duration aliases document intent; both are seconds.
type (
	// Time is an absolute instant on the simulation timeline, in seconds.
	Time = int64
	// Duration is a span of simulated time, in seconds.
	Duration = int64
)

// Common duration constants, in seconds.
const (
	Minute Duration = 60
	Hour   Duration = 3600
	Day    Duration = 24 * Hour
	Week   Duration = 7 * Day
)

// MaxSeconds bounds a job's Submit and Request (2^36 s, about 2,177
// years). A start is at most the latest submit plus the requests of the
// jobs planned ahead of it, so with both bounded here start + estimate
// stays below the availability profile's end of time (cluster.Forever,
// 2^60) for any machine holding fewer than 2^24 jobs at once.
const MaxSeconds = 1 << 36

// BoundedSlowdownFloor lower-bounds the runtime used in the bounded
// slowdown measure: jobs shorter than one minute are treated as
// one-minute jobs, following Mu'alem & Feitelson and the paper (Sec. 4).
const BoundedSlowdownFloor Duration = Minute

// Job is one rigid parallel job as submitted by a user.
type Job struct {
	// ID uniquely identifies the job within a trace.
	ID int
	// Submit is the job's arrival (submission) time.
	Submit Time
	// Nodes is the number of whole nodes requested; the node is the
	// smallest allocation unit on the modeled system.
	Nodes int
	// Runtime is the actual runtime T the job will execute for.
	Runtime Duration
	// Request is the user-requested runtime R (the runtime the
	// scheduler is told when it is not given actual runtimes).
	// Request >= Runtime on the modeled system, because jobs are
	// killed at their request limit.
	Request Duration
	// User identifies the submitting user (0 = unknown). User
	// identities feed the runtime-prediction and fairshare extensions;
	// the core policies ignore them.
	User int
}

// Validate reports whether the job is well-formed for a system with the
// given node capacity.
func (j Job) Validate(capacity int) error {
	switch {
	case j.Nodes < 1:
		return fmt.Errorf("job %d: requests %d nodes", j.ID, j.Nodes)
	case j.Nodes > capacity:
		return fmt.Errorf("job %d: requests %d nodes > capacity %d", j.ID, j.Nodes, capacity)
	case j.Runtime < 0:
		return fmt.Errorf("job %d: negative runtime %d", j.ID, j.Runtime)
	case j.Request < j.Runtime:
		return fmt.Errorf("job %d: request %d < runtime %d", j.ID, j.Request, j.Runtime)
	case j.Request > MaxSeconds:
		return fmt.Errorf("job %d: request %d > limit %d", j.ID, j.Request, MaxSeconds)
	case j.Submit < 0:
		return fmt.Errorf("job %d: negative submit time %d", j.ID, j.Submit)
	case j.Submit > MaxSeconds:
		return fmt.Errorf("job %d: submit time %d > limit %d", j.ID, j.Submit, MaxSeconds)
	}
	return nil
}

// Demand returns the job's processor demand N×T in node-seconds.
func (j Job) Demand() int64 { return int64(j.Nodes) * j.Runtime }

// Wait returns the job's wait time given its start time.
func Wait(j Job, start Time) Duration { return start - j.Submit }

// Slowdown returns the job's (unbounded) slowdown given its start time:
// turnaround time divided by actual runtime.
func Slowdown(j Job, start Time) float64 {
	rt := j.Runtime
	if rt <= 0 {
		rt = 1
	}
	return float64(start-j.Submit+j.Runtime) / float64(rt)
}

// BoundedSlowdown returns the job's bounded slowdown given its start
// time, with actual runtime floored at BoundedSlowdownFloor. For a job
// shorter than one minute this equals 1 + wait-in-minutes, as in the
// paper.
func BoundedSlowdown(j Job, start Time) float64 {
	return BoundedSlowdownAt(j.Submit, j.Runtime, start)
}

// BoundedSlowdownAt is BoundedSlowdown over raw fields; policies use it
// with the runtime estimate they are allowed to see (actual or
// requested).
func BoundedSlowdownAt(submit Time, runtime Duration, start Time) float64 {
	rt := runtime
	if rt < BoundedSlowdownFloor {
		rt = BoundedSlowdownFloor
	}
	wait := start - submit
	if wait < 0 {
		wait = 0
	}
	return float64(wait+rt) / float64(rt)
}

// ExcessiveWait returns the job's wait time in excess of the threshold
// bound, or 0 if the wait is within the bound. The paper calls this the
// normalized excessive wait.
func ExcessiveWait(j Job, start Time, bound Duration) Duration {
	ex := Wait(j, start) - bound
	if ex < 0 {
		return 0
	}
	return ex
}

// ByID sorts jobs by ID (stable tiebreak by submit time).
type ByID []Job

func (s ByID) Len() int      { return len(s) }
func (s ByID) Swap(i, k int) { s[i], s[k] = s[k], s[i] }
func (s ByID) Less(i, k int) bool {
	if s[i].ID != s[k].ID {
		return s[i].ID < s[k].ID
	}
	return s[i].Submit < s[k].Submit
}

// BySubmit sorts jobs by submit time (tiebreak by ID), the canonical
// trace order.
type BySubmit []Job

func (s BySubmit) Len() int      { return len(s) }
func (s BySubmit) Swap(i, k int) { s[i], s[k] = s[k], s[i] }
func (s BySubmit) Less(i, k int) bool {
	if s[i].Submit != s[k].Submit {
		return s[i].Submit < s[k].Submit
	}
	return s[i].ID < s[k].ID
}
