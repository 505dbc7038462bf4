// Command searchbench benchmarks the search scheduler's per-decision
// hot path on synthetic contended decision points and emits a JSON
// report (BENCH_search.json): ns/decision, visited nodes/second and the
// parallel-vs-sequential speedup for each (algorithm, queue depth, node
// budget) combination.
//
// The workload is deterministic, so two runs on the same machine
// measure the same search trees; timings vary with hardware (the report
// records GOMAXPROCS and CPU count). The parallel scheduler commits the
// same schedules as the sequential one — the speedup column is pure
// wall-clock, not a behaviour change.
//
// Usage:
//
//	searchbench -out BENCH_search.json
//	searchbench -limits 1000,10000,100000 -depths 16,32,64 -time 200ms
//
// Federation mode (-federation) instead replays one deterministic
// synthetic workload through a sharded federation
// (internal/federation) at each shard count in -shards and emits
// BENCH_federation.json: wall time, decision latency and throughput
// for 1, 2, 4 shards — the scalability claim of partitioned search,
// measured:
//
//	searchbench -federation -shards 1,2,4 -fedjobs 400 -fedlimit 200
//
// Adding -remote repeats the federation sweep with every shard out of
// process: each shard is a full engine behind its own HTTP server on a
// real TCP loopback listener, driven through federation.RemoteShard
// clients — the report gains a "remote" section measuring the same
// workload over the wire (JSON serialization, HTTP round trips, remote
// load probes), so the scaling curve and the wire tax are separable:
//
//	searchbench -federation -remote -shards 1,4,16
//
// Ingest mode (-ingest) load-tests the accept path (internal/ingest):
// concurrent client fleets push batched submissions from a ~1M-user ID
// space through the accept queue into an engine with a group-commit
// file journal (real fsyncs), and BENCH_ingest.json reports, per load
// level, submission throughput, accept-to-commit latency quantiles,
// backpressure activity and peak heap:
//
//	searchbench -ingest -clients 4,16,64 -ingestjobs 50000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"schedsearch"
	"schedsearch/internal/benchmeta"
	"schedsearch/internal/core"
	"schedsearch/internal/job"
	"schedsearch/internal/sim"
)

// benchResult is one (algorithm, depth, limit) measurement.
type benchResult struct {
	Algo       string `json:"algo"`
	QueueDepth int    `json:"queue_depth"`
	NodeLimit  int    `json:"node_limit"`
	// NodesPerDecision is the search-tree size actually explored (the
	// same for sequential and parallel by construction).
	NodesPerDecision int64 `json:"nodes_per_decision"`

	SeqNsPerDecision int64   `json:"seq_ns_per_decision"`
	SeqNodesPerSec   float64 `json:"seq_nodes_per_sec"`
	ParNsPerDecision int64   `json:"par_ns_per_decision"`
	ParNodesPerSec   float64 `json:"par_nodes_per_sec"`
	// SpeedupVsSeq is sequential over parallel wall time per decision.
	SpeedupVsSeq float64 `json:"speedup_vs_seq"`
}

// report is the BENCH_search.json schema.
type report struct {
	benchmeta.Meta
	Workers   int           `json:"workers"`
	Heuristic string        `json:"heuristic"`
	Bound     string        `json:"bound"`
	Results   []benchResult `json:"results"`
	// MetaBench compares fixed policies against the adaptive portfolio
	// (the -meta sweep).
	MetaBench *metaBenchResult `json:"meta,omitempty"`
}

func main() {
	var (
		out     = flag.String("out", "BENCH_search.json", "output file (- for stdout)")
		limits  = flag.String("limits", "1000,10000,100000", "node budgets L to measure")
		depths  = flag.String("depths", "16,32,64", "queue depths to measure")
		algos   = flag.String("algos", "DDS,LDS", "search algorithms to measure")
		minTime = flag.Duration("time", 200*time.Millisecond, "minimum measurement time per configuration")
		workers = flag.Int("workers", core.AutoWorkers, "parallel worker count (-1 one per CPU)")

		metaMode  = flag.Bool("meta", false, "also sweep the policy-portfolio meta-scheduler against its fixed members (adds the \"meta\" report section)")
		metaSpecs = flag.String("metaspecs", "DDS/lxf/dynB,LDS/fcfs/dynB", "portfolio member policies for the -meta sweep")
		metaLimit = flag.Int("metalimit", 300, "node budget L for the -meta sweep")
		fedMode   = flag.Bool("federation", false, "benchmark the sharded federation instead of the search hot path")
		shards    = flag.String("shards", "1,2,4", "shard counts to measure in -federation mode")
		fedJobs   = flag.Int("fedjobs", 400, "synthetic jobs per federation replay")
		fedLim    = flag.Int("fedlimit", 200, "search node limit per decision in -federation mode")
		fedRemote = flag.Bool("remote", false, "in -federation mode, also sweep out-of-process shards (each an engine behind its own HTTP server on real TCP, driven through federation.RemoteShard) into the report's \"remote\" section")
		fedTrace  = flag.String("trace-out", "", "in -federation -remote mode, write the traced remote replay's spans (submit/route/probe/admit/decide) as Chrome trace-event JSON to this file")

		ingMode    = flag.Bool("ingest", false, "load-test the batched ingest path instead of the search hot path")
		clients    = flag.String("clients", "4,16,64", "client fleet sizes (load levels) in -ingest mode")
		ingJobs    = flag.Int("ingestjobs", 50000, "total jobs per load level in -ingest mode")
		ingBatch   = flag.Int("ingestbatch", 32, "jobs per client batch in -ingest mode")
		ingPending = flag.Int("ingestpending", 4096, "accept-queue bound (MaxPending) in -ingest mode")
		ingUsers   = flag.Int("ingestusers", 1_000_000, "simulated user ID space in -ingest mode")
	)
	flag.Parse()

	outPath := func(def string) string {
		outSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "out" {
				outSet = true
			}
		})
		if outSet {
			return *out
		}
		return def
	}

	if *fedMode {
		shardCounts, err := parseInts(*shards)
		if err != nil {
			fatal(err)
		}
		if err := runFederationBench(outPath("BENCH_federation.json"), shardCounts, *fedJobs, *fedLim, 128, *fedRemote, *fedTrace); err != nil {
			fatal(err)
		}
		return
	}

	if *ingMode {
		fleets, err := parseInts(*clients)
		if err != nil {
			fatal(err)
		}
		if err := runIngestBench(outPath("BENCH_ingest.json"), ingestBenchConfig{
			Fleets:     fleets,
			Jobs:       *ingJobs,
			Batch:      *ingBatch,
			MaxPending: *ingPending,
			Users:      *ingUsers,
		}); err != nil {
			fatal(err)
		}
		return
	}

	ls, err := parseInts(*limits)
	if err != nil {
		fatal(err)
	}
	ds, err := parseInts(*depths)
	if err != nil {
		fatal(err)
	}

	rep := report{
		Meta:      benchmeta.Collect("searchbench"),
		Workers:   *workers,
		Heuristic: core.HeuristicLXF.String(),
		Bound:     core.DynamicBound().String(),
	}
	if rep.Workers == core.AutoWorkers {
		rep.Workers = rep.GOMAXPROCS
	}

	benchAlgos, err := parseAlgos(*algos)
	if err != nil {
		fatal(err)
	}
	for _, algo := range benchAlgos {
		for _, depth := range ds {
			snap := benchSnapshot(depth)
			for _, limit := range ls {
				r := measurePair(algo, snap, depth, limit, *workers, *minTime)
				rep.Results = append(rep.Results, r)
				fmt.Fprintf(os.Stderr, "%s depth=%d L=%d: seq %s/decision, par %s/decision, speedup %.2fx\n",
					r.Algo, depth, limit,
					time.Duration(r.SeqNsPerDecision), time.Duration(r.ParNsPerDecision),
					r.SpeedupVsSeq)
			}
		}
	}

	if *metaMode {
		specs := strings.Split(*metaSpecs, ",")
		meta := runMetaBench(specs, schedsearch.MonthLabels(), *metaLimit)
		rep.MetaBench = &meta
	}

	var w *os.File
	if *out == "-" {
		w = os.Stdout
	} else {
		w, err = os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer w.Close()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "searchbench:", err)
	os.Exit(1)
}

// parseAlgos resolves a comma-separated algorithm list.
func parseAlgos(csv string) ([]core.Algorithm, error) {
	var out []core.Algorithm
	for _, f := range strings.Split(csv, ",") {
		switch strings.TrimSpace(f) {
		case "DDS":
			out = append(out, core.DDS)
		case "LDS":
			out = append(out, core.LDS)
		case "ADDS":
			out = append(out, core.ADDS)
		case "CDDS":
			out = append(out, core.CDDS)
		default:
			return nil, fmt.Errorf("unknown algorithm %q (want DDS, LDS, ADDS or CDDS)", f)
		}
	}
	return out, nil
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad list entry %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// pairRounds is the number of interleaved timing rounds per
// configuration. Each round times both schedulers, alternating which
// goes first, so host speed drift lands on both sides alike instead of
// in the speedup.
const pairRounds = 10

// measurePair measures one configuration sequentially and in parallel
// over pairRounds interleaved rounds of minTime/pairRounds per side. The
// per-decision times are means over all rounds; the speedup is the
// median of the per-round ratios.
func measurePair(algo core.Algorithm, snap *sim.Snapshot, depth, limit, workers int, minTime time.Duration) benchResult {
	seq := core.New(algo, core.HeuristicLXF, core.DynamicBound(), limit)
	par := core.New(algo, core.HeuristicLXF, core.DynamicBound(), limit)
	par.Workers = workers
	var seqT, parT timing
	ratios := make([]float64, 0, pairRounds)
	for r := 0; r < pairRounds; r++ {
		var seqNs, parNs float64
		if r%2 == 0 {
			seqNs = seqT.round(seq, snap, minTime/pairRounds)
			parNs = parT.round(par, snap, minTime/pairRounds)
		} else {
			parNs = parT.round(par, snap, minTime/pairRounds)
			seqNs = seqT.round(seq, snap, minTime/pairRounds)
		}
		ratios = append(ratios, seqNs/parNs)
	}
	nodes, parNodes := seqT.nodes/seqT.reps, parT.nodes/parT.reps
	if nodes != parNodes {
		fatal(fmt.Errorf("%s depth=%d L=%d: parallel explored %d nodes/decision, sequential %d",
			algo, depth, limit, parNodes, nodes))
	}
	r := benchResult{
		Algo:             algo.String(),
		QueueDepth:       depth,
		NodeLimit:        limit,
		NodesPerDecision: nodes,
		SeqNsPerDecision: seqT.ns / seqT.reps,
		ParNsPerDecision: parT.ns / parT.reps,
		SpeedupVsSeq:     median(ratios),
	}
	r.SeqNodesPerSec = float64(seqT.nodes) / float64(seqT.ns) * 1e9
	r.ParNodesPerSec = float64(parT.nodes) / float64(parT.ns) * 1e9
	return r
}

// timing accumulates one scheduler's timing rounds.
type timing struct {
	ns, reps, nodes int64
}

// round runs Decide repeatedly for at least d (and at least once, after
// a warm-up decision on the first round that allocates scratch and
// faults in the tree), adds the round to t and returns its wall
// ns/decision.
func (t *timing) round(sch *core.Scheduler, snap *sim.Snapshot, d time.Duration) float64 {
	if t.reps == 0 {
		sch.Decide(snap)
	}
	startNodes := sch.SearchStats.Nodes
	reps := int64(0)
	t0 := time.Now()
	for reps == 0 || time.Since(t0) < d {
		sch.Decide(snap)
		reps++
	}
	elapsed := time.Since(t0).Nanoseconds()
	t.ns += elapsed
	t.reps += reps
	t.nodes += sch.SearchStats.Nodes - startNodes
	return float64(elapsed) / float64(reps)
}

// median returns the median of xs, reordering xs.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 0 {
		return (xs[m-1] + xs[m]) / 2
	}
	return xs[m]
}

// benchSnapshot builds the deterministic contended decision point: a
// 128-node machine, 30 running jobs holding 100 nodes with staggered
// predicted ends, and queueLen waiting jobs of mixed widths and
// estimates (the same construction the repo's Go benchmarks use).
func benchSnapshot(queueLen int) *sim.Snapshot {
	snap := &sim.Snapshot{Now: 100000, Capacity: 128, FreeNodes: 128}
	used := 0
	for i := 0; i < 30 && used < 100; i++ {
		n := 1 + (i*7)%8
		if used+n > 100 {
			n = 100 - used
		}
		used += n
		snap.Running = append(snap.Running, sim.RunningJob{
			ID: 1000 + i, Nodes: n, Start: 0,
			PredictedEnd: snap.Now + job.Duration(300+i*977%21600),
		})
	}
	snap.FreeNodes = 128 - used
	for i := 0; i < queueLen; i++ {
		est := job.Duration(300 + (i*2311)%43200)
		snap.Queue = append(snap.Queue, sim.WaitingJob{
			Job: job.Job{
				ID:      i + 1,
				Submit:  snap.Now - job.Time(60+(i*3571)%36000),
				Nodes:   1 + (i*13)%64,
				Runtime: est, Request: est,
			},
			Estimate: est,
			QueuePos: i,
		})
	}
	return snap
}
