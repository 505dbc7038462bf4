package workload

import (
	"fmt"
	"math"
	"sort"

	"schedsearch/internal/job"
	"schedsearch/internal/stats"
)

// Config controls workload synthesis.
type Config struct {
	// Seed makes the whole suite deterministic.
	Seed uint64
	// Capacity overrides the system size (default 128 nodes).
	Capacity int
	// JobScale scales every month's job count AND duration by the same
	// factor, preserving offered load and queueing behaviour while
	// shortening simulations (used by benchmarks). Default 1.
	JobScale float64
}

func (c Config) withDefaults() Config {
	if c.Capacity == 0 {
		c.Capacity = Capacity
	}
	if c.JobScale == 0 {
		c.JobScale = 1
	}
	return c
}

// rng stream purposes, kept disjoint per month.
const (
	streamNodes = iota
	streamRuntime
	streamRequest
	streamArrival
	streamShuffle
	streamCount
)

// runtime piece boundaries (seconds): short <= 1h, medium (1h, 5h],
// long (5h, limit]; these are the class boundaries of Table 4.
const (
	minRuntime = 30
	shortHi    = job.Hour
	medHi      = 5 * job.Hour
)

// generateMonth synthesizes one month of jobs in [start, start+dur),
// matching the spec's job mix, demand mix, runtime classes and load.
// Job IDs are assigned later by the suite.
func generateMonth(spec MonthSpec, cfg Config, monthIdx int, start job.Time, dur job.Duration) []job.Job {
	total := int(math.Round(float64(spec.TotalJobs) * cfg.JobScale))
	if total < 1 {
		total = 1
	}
	nodesRNG := stats.NewRNG(cfg.Seed, uint64(monthIdx*streamCount+streamNodes))
	runRNG := stats.NewRNG(cfg.Seed, uint64(monthIdx*streamCount+streamRuntime))
	reqRNG := stats.NewRNG(cfg.Seed, uint64(monthIdx*streamCount+streamRequest))
	arrRNG := stats.NewRNG(cfg.Seed, uint64(monthIdx*streamCount+streamArrival))
	shufRNG := stats.NewRNG(cfg.Seed, uint64(monthIdx*streamCount+streamShuffle))

	counts := apportion(total, spec.JobFrac[:])
	jobs := make([]job.Job, 0, total)
	for r, cnt := range counts {
		if cnt == 0 {
			continue
		}
		jobs = append(jobs, synthesizeRange(spec, cfg, monthIdx, r, cnt, dur, nodesRNG, runRNG, reqRNG)...)
	}

	// Decouple job attributes from arrival order, then attach sorted
	// arrival times.
	shufRNG.Shuffle(len(jobs), func(i, k int) { jobs[i], jobs[k] = jobs[k], jobs[i] })
	arrivals := sampleArrivals(len(jobs), start, dur, arrRNG)
	for i := range jobs {
		jobs[i].Submit = arrivals[i]
	}
	sort.Sort(job.BySubmit(jobs))
	return jobs
}

// synthesizeRange builds the jobs of one Table 3 node range: node
// counts, actual runtimes calibrated to the range's demand share, and
// requested runtimes.
func synthesizeRange(spec MonthSpec, cfg Config, monthIdx, r, cnt int, dur job.Duration,
	nodesRNG, runRNG, reqRNG *stats.RNG) []job.Job {

	// Clamp the Table 3 range to the machine: on a machine narrower
	// than the range's lower end, its jobs take the whole machine.
	nr := job.Table3NodeRanges[r]
	lo, hi := min(nr.Lo, cfg.Capacity), min(nr.Hi, cfg.Capacity)
	out := make([]job.Job, cnt)
	var sumNodes int64
	for i := range out {
		n := sampleNodes(lo, hi, nodesRNG)
		out[i].Nodes = n
		sumNodes += int64(n)
	}

	// Target mean runtime for the range: its share of the month's
	// processor demand divided by the sampled node mass.
	demandShare := spec.DemandFrac[r] / sumf(spec.DemandFrac[:])
	targetDemand := demandShare * spec.Load * float64(cfg.Capacity) * float64(dur)
	targetMean := targetDemand / float64(sumNodes)

	wS, wM, wL := runtimeClassWeights(spec, r)
	dS, dM, dL := solvePieces(wS, wM, wL, targetMean, spec.RuntimeLimit)

	weights := []float64{wS, wM, wL}
	pieces := []stats.TruncExp{dS, dM, dL}
	pieceIdx := make([]int, cnt)
	for i := range out {
		pieceIdx[i] = runRNG.Choose(weights)
	}

	// Group the range's jobs into users. Users specialize: each user's
	// jobs share a runtime class (so Table 4 fractions are untouched)
	// and cluster around a per-user center runtime, giving history-
	// based runtime predictors a realistic signal. Request behaviour is
	// also a per-user habit.
	users := assignUsers(out, pieceIdx, pieces, monthIdx, r, runRNG, reqRNG)

	for i := range out {
		u := users[i]
		p := pieceIdx[i]
		// Mix the job's sample toward its user's center; the center is
		// drawn from the same distribution, so the class mean is
		// preserved in expectation.
		sample := pieces[p].Sample(runRNG)
		t := job.Duration(0.4*sample + 0.6*u.center)
		if t < minRuntime {
			t = minRuntime
		}
		if t > spec.RuntimeLimit {
			t = spec.RuntimeLimit
		}
		out[i].Runtime = t
		out[i].User = u.id
	}

	// The demand of a range is dominated by its few long wide jobs, so
	// sampling noise can move it far from the Table 3 target. Correct
	// by rescaling runtimes toward the target, clamped within each
	// job's runtime class so the Table 4 class fractions are preserved
	// exactly.
	calibrateDemand(out, pieceIdx, targetDemand, spec.RuntimeLimit)

	for i := range out {
		out[i].Request = users[i].request(out[i].Runtime, spec.RuntimeLimit, reqRNG)
	}
	return out
}

// userProfile is one synthetic user's habits: a runtime center within
// the user's preferred class and a runtime-request style.
type userProfile struct {
	id     int
	center float64
	// style: 0 = accurate requests, 1 = requests the limit, 2 =
	// overestimates by a habitual factor.
	style  int
	factor float64
}

// request models this user's runtime estimate for a job of actual
// runtime t.
func (u *userProfile) request(t, limit job.Duration, r *stats.RNG) job.Duration {
	var req job.Duration
	switch u.style {
	case 0:
		req = t
	case 1:
		req = limit
	default:
		// Habitual factor with mild per-job jitter.
		req = job.Duration(float64(t) * u.factor * r.Uniform(0.9, 1.2))
	}
	const gran = 5 * job.Minute
	req = (req + gran - 1) / gran * gran
	if req < t {
		req = t
	}
	if req > limit {
		req = limit
	}
	return req
}

// assignUsers groups the jobs of one node range into per-class user
// pools (roughly one user per eight jobs, zipf-weighted activity) and
// returns each job's user profile.
func assignUsers(out []job.Job, pieceIdx []int, pieces []stats.TruncExp,
	monthIdx, r int, runRNG, reqRNG *stats.RNG) []*userProfile {

	users := make([]*userProfile, len(out))
	// User IDs: unique per (month, range, class) pool, so prediction
	// history never crosses month boundaries.
	base := 1 + monthIdx*1000000 + r*10000
	for piece := 0; piece < 3; piece++ {
		var jobs []int
		for i, p := range pieceIdx {
			if p == piece {
				jobs = append(jobs, i)
			}
		}
		if len(jobs) == 0 {
			continue
		}
		nUsers := (len(jobs) + 7) / 8
		pool := make([]*userProfile, nUsers)
		zipf := make([]float64, nUsers)
		for u := range pool {
			prof := &userProfile{
				id:     base + piece*1000 + u,
				center: pieces[piece].Sample(runRNG),
			}
			switch {
			case reqRNG.Bool(0.20):
				prof.style = 0
			case reqRNG.Bool(0.30):
				prof.style = 1
			default:
				prof.style = 2
				prof.factor = reqRNG.LogUniform(1.2, 10)
			}
			pool[u] = prof
			zipf[u] = 1 / float64(u+1) // heavy users first
		}
		for _, ji := range jobs {
			users[ji] = pool[runRNG.Choose(zipf)]
		}
	}
	return users
}

// pieceBounds returns the inclusive runtime bounds of a runtime class.
func pieceBounds(piece int, limit job.Duration) (lo, hi job.Duration) {
	switch piece {
	case 0:
		return minRuntime, shortHi
	case 1:
		return shortHi + 1, medHi
	default:
		return medHi + 1, limit
	}
}

// calibrateDemand multiplicatively rescales runtimes toward the target
// node-seconds demand, keeping every job inside its runtime class. A few
// iterations converge unless the class bounds saturate.
func calibrateDemand(out []job.Job, pieceIdx []int, targetDemand float64, limit job.Duration) {
	for iter := 0; iter < 6; iter++ {
		var achieved float64
		for _, j := range out {
			achieved += float64(j.Demand())
		}
		if achieved <= 0 {
			return
		}
		f := targetDemand / achieved
		if f > 0.995 && f < 1.005 {
			return
		}
		for i := range out {
			lo, hi := pieceBounds(pieceIdx[i], limit)
			t := job.Duration(float64(out[i].Runtime) * f)
			if t < lo {
				t = lo
			}
			if t > hi {
				t = hi
			}
			out[i].Runtime = t
		}
	}
}

// sampleNodes draws a node count in [lo, hi], biased toward powers of
// two (and secondarily multiples of eight), matching how users request
// partition sizes in production traces.
func sampleNodes(lo, hi int, r *stats.RNG) int {
	if lo == hi {
		return lo
	}
	weights := make([]float64, hi-lo+1)
	for n := lo; n <= hi; n++ {
		w := 1.0
		if n&(n-1) == 0 { // power of two
			w = 12
		} else if n%8 == 0 {
			w = 3
		}
		weights[n-lo] = w
	}
	return lo + r.Choose(weights)
}

// runtimeClassWeights derives, for Table 3 node range r, the probability
// that a job is short (T <= 1h), medium, or long (T > 5h) from the
// Table 4 fractions of the month.
func runtimeClassWeights(spec MonthSpec, r int) (wS, wM, wL float64) {
	c := table4ClassOf(r)
	classJobFrac := 0.0
	norm := sumf(spec.JobFrac[:])
	for r2 := range spec.JobFrac {
		if table4ClassOf(r2) == c {
			classJobFrac += spec.JobFrac[r2] / norm
		}
	}
	if classJobFrac <= 0 {
		return 0.3, 0.5, 0.2
	}
	wS = clamp01(spec.ShortFrac[c] / classJobFrac)
	wL = clamp01(spec.LongFrac[c] / classJobFrac)
	if s := wS + wL; s > 1 {
		wS /= s
		wL /= s
	}
	wM = 1 - wS - wL
	return wS, wM, wL
}

// solvePieces picks a mean-targeted truncated-exponential distribution
// for each runtime class so that the mixture mean approaches target.
// The long class absorbs most of the adjustment (its upper bound is the
// runtime limit), then the medium, then the short class.
func solvePieces(wS, wM, wL, target float64, limit job.Duration) (dS, dM, dL stats.TruncExp) {
	mS, mM := 600.0, 9000.0 // 10 min, 2.5 h starting points
	mL := (float64(medHi) + float64(limit)) / 2

	residual := target - (wS*mS + wM*mM + wL*mL)
	adjust := func(m *float64, w, lo, hi float64) {
		if w <= 0 {
			return
		}
		next := *m + residual/w
		next = math.Max(lo, math.Min(hi, next))
		residual -= (next - *m) * w
		*m = next
	}
	if residual > 0 {
		adjust(&mL, wL, float64(medHi)*1.02, float64(limit)*0.98)
		adjust(&mM, wM, float64(shortHi)*1.05, float64(medHi)*0.95)
		adjust(&mS, wS, minRuntime*1.5, float64(shortHi)*0.95)
	} else {
		adjust(&mS, wS, minRuntime*1.5, float64(shortHi)*0.95)
		adjust(&mM, wM, float64(shortHi)*1.05, float64(medHi)*0.95)
		adjust(&mL, wL, float64(medHi)*1.02, float64(limit)*0.98)
	}

	dS = mustTruncExp(minRuntime, float64(shortHi), mS)
	dM = mustTruncExp(float64(shortHi), float64(medHi), mM)
	dL = mustTruncExp(float64(medHi), float64(limit), mL)
	return dS, dM, dL
}

func mustTruncExp(lo, hi, mean float64) stats.TruncExp {
	d, err := stats.SolveTruncExp(lo, hi, mean)
	if err != nil {
		panic(fmt.Sprintf("workload: %v", err))
	}
	return d
}

// sampleArrivals draws n arrival times in [start, start+dur) from a
// nonhomogeneous hourly rate with weekday/weekend and time-of-day
// cycles, returned sorted.
func sampleArrivals(n int, start job.Time, dur job.Duration, r *stats.RNG) []job.Time {
	hours := int((dur + job.Hour - 1) / job.Hour)
	if hours < 1 {
		hours = 1
	}
	cum := make([]float64, hours+1)
	startDay := int(start / job.Day)
	for h := 0; h < hours; h++ {
		dow := (startDay + h/24) % 7
		dowF := 1.0
		if dow == 5 {
			dowF = 0.6
		} else if dow == 6 {
			dowF = 0.5
		}
		hod := float64(h % 24)
		bell := (1 + math.Cos(2*math.Pi*(hod-14)/24)) / 2
		cum[h+1] = cum[h] + dowF*(0.35+0.65*bell)
	}
	total := cum[hours]
	out := make([]job.Time, n)
	for i := range out {
		u := r.Float64() * total
		h := sort.SearchFloat64s(cum, u)
		if h > 0 {
			h--
		}
		if h >= hours {
			h = hours - 1
		}
		t := start + job.Time(h)*job.Hour + job.Time(r.Float64()*float64(job.Hour))
		if t >= start+dur {
			t = start + dur - 1
		}
		out[i] = t
	}
	sort.Slice(out, func(i, k int) bool { return out[i] < out[k] })
	return out
}

// apportion distributes total across buckets proportionally to weights
// using the largest-remainder method, so bucket counts sum exactly to
// total.
func apportion(total int, weights []float64) []int {
	norm := sumf(weights)
	counts := make([]int, len(weights))
	if norm <= 0 || total <= 0 {
		return counts
	}
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(weights))
	assigned := 0
	for i, w := range weights {
		exact := float64(total) * w / norm
		counts[i] = int(exact)
		assigned += counts[i]
		rems[i] = rem{idx: i, frac: exact - float64(counts[i])}
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		return rems[a].idx < rems[b].idx
	})
	for i := 0; i < total-assigned; i++ {
		counts[rems[i%len(rems)].idx]++
	}
	return counts
}

func sumf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
