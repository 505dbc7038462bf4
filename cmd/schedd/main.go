// Command schedd is the online scheduling daemon: it serves the
// paper's policies (backfill baselines and the search schedulers)
// against a live clock, with jobs submitted over an HTTP/JSON API.
//
// Serving mode (default):
//
//	schedd -policy DDS/lxf/dynB -L 1000 -addr :8080
//
// submits go to POST /v1/jobs (a JSON object, or a JSON array for a
// batched submit with per-item results), state is at GET /v1/jobs/{id},
// GET /v1/queue, GET /v1/machine and GET /v1/metrics, liveness and
// readiness at GET /v1/healthz and GET /v1/readyz, and
// POST /v1/drain stops admission, lets the machine empty, and shuts
// the daemon down. -speedup N runs the engine clock N× faster than
// wall time (useful for demos: hours of schedule in seconds).
// GET /v1/metrics also serves the Prometheus text exposition format to
// clients whose Accept header prefers text/plain.
//
// Durability and ingest (serving mode):
//
//	schedd -journal sched.journal -group-commit 64 -compact-every 4096
//
// -journal appends every committed scheduling event to a JSON-lines
// file, fsynced every -group-commit appends (1 = every commit);
// -compact-every N folds the file into a checkpoint snapshot once the
// tail exceeds N events, bounding recovery cost by live state rather
// than history. On start, a non-empty journal is recovered: the engine
// rebuilds its committed state and the clock resumes at the last
// journaled instant (any torn tail from the crash is truncated before
// appending resumes). With -shards > 1 each shard appends to
// <path>.shard-N (write-only durability; crash recovery from shard
// journals is not wired into start-up, so non-empty shard journals are
// rotated to <path>.shard-N.old on start rather than appended to).
//
// Submissions are admitted through a bounded async accept queue:
// -ingest-pending caps accepted-but-uncommitted items (a saturated
// queue answers 503 with Retry-After; 0 disables the queue and admits
// synchronously), -ingest-batch caps how many items the committer
// folds into one journal fsync, and -quota-rate/-quota-burst put a
// per-user token bucket in front of admission (429 per item when
// exhausted; rate 0 disables quotas).
//
// Federation mode:
//
//	schedd -shards 4 -placement least-loaded -policy DDS/lxf/dynB
//
// -shards N > 1 partitions the machine across N engine shards behind a
// routing front-end (internal/federation): each shard runs the full
// policy over its own node partition, -placement picks the routing
// policy (least-loaded, best-fit or hash-by-user), -rebalance T
// migrates still-queued jobs from overloaded to underloaded shards
// every T seconds (0 disables), and -gossip T polls every shard's load
// on a period (with -steal letting idle shards take queued work from
// the most loaded). GET /v1/federation reports the per-shard
// breakdown. Jobs wider than every shard's partition are rejected
// (serving) or skipped with a note (replay). Works in both serving and
// replay modes.
//
// Distributed federation (serving mode):
//
//	schedd -fanout 16 -capacity 512 -policy DDS/lxf/dynB -journal sched.journal
//	schedd -join http://10.0.0.1:8080,http://10.0.0.2:8080
//
// -fanout N spawns N schedd shard child processes on loopback ports —
// each owns its near-even slice of -capacity, runs the forwarded
// policy flags, and (with -journal) appends to its own
// <path>.shard-N journal it recovers independently — then serves as
// the federation front-end over them. -join instead fronts shard
// daemons that are already running (anywhere reachable), discovering
// their capacities over the wire. Either way the shards are driven
// through per-call timeouts with bounded retries; an unreachable
// shard's work is routed around it (GET /v1/readyz answers 503 with
// the per-shard breakdown while any shard is dark), certain-failure
// submissions are rerouted, and wire-uncertain migration steps are
// parked and reconciled on the gossip tick instead of being retried
// blindly. A drain (POST /v1/drain or SIGINT/SIGTERM) propagates to
// every shard; fanout children exit with the supervisor.
//
// Replay mode:
//
//	schedd -virtual -month 7/03 -policy DDS/lxf/dynB
//	schedd -virtual -swf trace.swf.gz -policy LXF-backfill
//
// feeds a generated month or an SWF trace through the engine on a
// deterministic virtual clock (as fast as the hardware allows; -speedup
// has no effect in this mode) and prints the final metrics as JSON —
// the same schema GET /v1/metrics serves, with the same measurement
// window as the offline simulator, so the summary is directly
// comparable with `schedsim -json`.
//
// Observability:
//
//	schedd -policy DDS/lxf/dynB -trace-out trace.json -debug-addr 127.0.0.1:6060
//
// -trace-out enables cross-process tracing — every submission is
// assigned a trace context (or continues the one in an incoming
// X-Schedsearch-Trace header), carried through routing, shard wire
// calls and the decide that starts the job — and writes the collected
// spans on exit as Chrome trace-event JSON, loadable directly in
// Perfetto or chrome://tracing. -debug-addr serves net/http/pprof on a
// separate listener. -flight N keeps a ring of the last N scheduling
// decisions (policy, queue depth, search effort, incumbent-cost
// trajectory, commit summary) served at GET /v1/debug/decisions; the
// recorder is inert — it reads only state the search already produced,
// and never perturbs a schedule. Tracing and the flight recorder are
// both bit-identical-off-vs-on by construction (the engine
// differential tests pin this).
//
// Chaos mode (development):
//
//	schedd -virtual -month 7/03 -policy DDS/lxf/dynB -chaos 3
//
// -chaos SEED wraps the policy in a seeded fault injector (panics and
// artificial latency at seed-dependent decision points — the engine
// recovers each panic on its FCFS fallback) and attaches the
// schedule-invariant oracle; the run fails if any invariant is
// violated, and reports the verdict on stderr. Works in both serving
// and replay modes, federated or not (a federated run is verified by
// the global record sweep instead of the live per-engine oracle,
// because migrations look like re-submissions to a single engine).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"schedsearch"
	"schedsearch/internal/chaos"
	"schedsearch/internal/core"
	"schedsearch/internal/engine"
	"schedsearch/internal/federation"
	"schedsearch/internal/ingest"
	"schedsearch/internal/job"
	"schedsearch/internal/obs"
	"schedsearch/internal/oracle"
	"schedsearch/internal/server"
	"schedsearch/internal/sim"
	"schedsearch/internal/trace"
	"schedsearch/internal/workload"
)

func main() {
	var (
		policyArg = flag.String("policy", "DDS/lxf/dynB", "scheduling policy name (see ParsePolicy)")
		nodeLimit = flag.Int("L", 1000, "search node limit per decision")
		workers   = flag.Int("workers", 1, "parallel search workers for search policies (0 or 1 sequential, -1 one per CPU)")
		slo       = flag.Duration("slo", 0, "per-decision latency SLO; adapts the node budget to the observed ns/node rate (0 = fixed -L)")
		capacity  = flag.Int("capacity", workload.Capacity, "machine size in nodes")
		addr      = flag.String("addr", ":8080", "HTTP listen address (serving mode)")
		requested = flag.Bool("requested", false, "policies plan with requested runtimes (R* = R)")
		speedup   = flag.Float64("speedup", 1, "engine seconds per wall second")
		virtual   = flag.Bool("virtual", false, "replay a workload on a virtual clock instead of serving")
		swfIn     = flag.String("swf", "", "replay this SWF trace file (plain or .gz)")
		month     = flag.String("month", "7/03", "generated month to replay (6/03 .. 3/04)")
		seed      = flag.Uint64("seed", 1, "workload generation seed")
		scale     = flag.Float64("scale", 1, "job-count/duration scale factor for generated months")
		load      = flag.Float64("load", 0, "target offered load for generated months (0 = original)")
		chaosSeed = flag.Uint64("chaos", 0, "dev fault injection: wrap the policy in a seeded panic/latency injector and verify the run against the schedule oracle (0 = off)")
		shards    = flag.Int("shards", 1, "engine shards; >1 federates the machine behind a routing front-end")
		placement = flag.String("placement", "least-loaded", "federation placement policy: least-loaded, best-fit or hash-by-user")
		rebalance = flag.Int64("rebalance", 60, "federation rebalance period in engine seconds (0 = off)")
		gossip    = flag.Int64("gossip", 60, "federation load-gossip period in engine seconds (0 = off); remote federations also reconcile parked wire-uncertain migration steps on this tick")
		steal     = flag.Bool("steal", false, "enable the gossip pass's work-stealing step: a shard with free nodes and an empty queue takes queued work from the most loaded shard")
		join      = flag.String("join", "", "serve as a federation front-end over these already-running out-of-process shard daemons (comma-separated base URLs, e.g. http://10.0.0.1:8080,http://10.0.0.2:8080)")
		fanout    = flag.Int("fanout", 0, "spawn N schedd shard child processes on loopback ports and front them (serving mode; each child owns its slice of -capacity and, with -journal, its own <path>.shard-N journal)")

		journalPath  = flag.String("journal", "", "append committed events to this journal file and recover from it on start (serving mode; federation appends to <path>.shard-N)")
		groupCommit  = flag.Int("group-commit", 64, "journal appends per fsync (1 = fsync every commit)")
		compactEvery = flag.Int("compact-every", 4096, "fold the journal into a checkpoint once the tail exceeds N events (0 = never compact)")
		ingPending   = flag.Int("ingest-pending", 4096, "accept-queue bound on accepted-but-uncommitted submissions; saturated submits get 503 + Retry-After (0 = admit synchronously, no queue)")
		ingBatch     = flag.Int("ingest-batch", 64, "max submissions the ingest committer folds into one commit group (= one journal fsync)")
		quotaRate    = flag.Float64("quota-rate", 0, "per-user admission tokens per engine second (0 = no quotas)")
		quotaBurst   = flag.Float64("quota-burst", 32, "per-user token bucket size")

		traceOut    = flag.String("trace-out", "", "enable cross-process tracing and write the spans as Chrome trace-event JSON (Perfetto-loadable) to this file on exit")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof on this extra listen address (empty = off)")
		flightSize  = flag.Int("flight", 256, "decision flight-recorder ring size, served at GET /v1/debug/decisions (0 = off)")
		cachedLoads = flag.Bool("cached-loads", false, "federation placement probes the gossip-refreshed load cache instead of issuing a live per-shard load call on every submission (loads up to -gossip old)")
	)
	flag.Parse()

	// Validate once up front, then hand shards a factory: every shard
	// (and every post-crash rebuild) gets its own policy instance.
	if _, err := schedsearch.ParsePolicy(*policyArg, *nodeLimit); err != nil {
		fatal(err)
	}
	chaosOn := *chaosSeed > 0
	mkPolicy := func(int) sim.Policy {
		pol, err := schedsearch.ParsePolicy(*policyArg, *nodeLimit)
		if err != nil {
			panic(err) // validated above
		}
		if sch, ok := pol.(*core.Scheduler); ok {
			sch.Workers = *workers
			sch.SLO = *slo
		}
		if mp, ok := pol.(*schedsearch.MetaScheduler); ok {
			mp.SetSearchOptions(*workers)
		}
		if chaosOn {
			// The seed varies the injection cadence, so different seeds
			// exercise different decision points; the oracle rides along
			// and the run fails loudly on any invariant violation.
			pol = &chaos.FlakyPolicy{
				Inner:        pol,
				PanicEvery:   int(5 + *chaosSeed%7),
				LatencyEvery: int(2 + *chaosSeed%3),
				Latency:      100 * time.Microsecond,
			}
		}
		return pol
	}
	if chaosOn {
		logger.Info("chaos mode on: injecting policy panics and latency", "seed", *chaosSeed)
	}
	fed := fedOptions{
		shards:    *shards,
		rebalance: job.Duration(*rebalance),
		gossip:    job.Duration(*gossip),
		steal:     *steal,
		fanout:    *fanout,
	}
	if *join != "" {
		for _, u := range strings.Split(*join, ",") {
			if u = strings.TrimSpace(u); u != "" {
				fed.join = append(fed.join, u)
			}
		}
	}
	remote := len(fed.join) > 0 || fed.fanout > 0
	if remote {
		if len(fed.join) > 0 && fed.fanout > 0 {
			fatal(errors.New("-join and -fanout are mutually exclusive"))
		}
		if fed.fanout == 1 || fed.fanout < 0 {
			fatal(fmt.Errorf("-fanout %d: want at least 2 shard processes", fed.fanout))
		}
		if *shards > 1 {
			fatal(errors.New("-shards federates in process; drop it when using -join or -fanout"))
		}
		if *virtual || *swfIn != "" {
			fatal(errors.New("-join/-fanout are serving-mode only (replay has no remote shards)"))
		}
		if chaosOn {
			fatal(errors.New("-chaos is not supported on a remote federation front-end"))
		}
		// Children re-run this binary with the policy flags forwarded;
		// they admit synchronously (no accept queue) — batching belongs
		// to the front-end, and migration steps bypass ingest anyway.
		fed.childArgs = []string{
			"-policy", *policyArg,
			"-L", strconv.Itoa(*nodeLimit),
			"-workers", strconv.Itoa(*workers),
			"-slo", slo.String(),
			fmt.Sprintf("-requested=%v", *requested),
			"-speedup", strconv.FormatFloat(*speedup, 'g', -1, 64),
			"-ingest-pending", "0",
		}
	}
	if *shards > 1 || remote {
		place, err := federation.ParsePlacement(*placement)
		if err != nil {
			fatal(err)
		}
		fed.placement = place
	}

	obsO := obsOptions{traceOut: *traceOut, debugAddr: *debugAddr, flight: *flightSize, cachedLoads: *cachedLoads}
	if *virtual || *swfIn != "" {
		if err := replay(mkPolicy, *swfIn, *month, *seed, *scale, *load, *capacity, *requested, chaosOn, fed, obsO); err != nil {
			fatal(err)
		}
		return
	}
	dur := durOptions{path: *journalPath, group: *groupCommit, compactEvery: *compactEvery}
	ing := ingOptions{pending: *ingPending, batch: *ingBatch, quotaRate: *quotaRate, quotaBurst: *quotaBurst}
	if err := serve(mkPolicy, *addr, *capacity, *requested, *speedup, chaosOn, fed, dur, ing, obsO); err != nil {
		fatal(err)
	}
}

// logger is the daemon's structured stderr logger; fanout children get
// their own (their stderr is forwarded line-by-line through the
// supervisor's, tagged with the shard index).
var logger = obs.NewLogger(os.Stderr, "schedd")

// obsOptions carry the observability flags. A non-empty traceOut turns
// tracing on; flight <= 0 turns the decision flight recorder off.
type obsOptions struct {
	traceOut    string
	debugAddr   string
	flight      int
	cachedLoads bool
}

// tracer builds the run's tracer, or nil when tracing is off.
func (o obsOptions) tracer(now func() time.Time) *obs.Tracer {
	if o.traceOut == "" {
		return nil
	}
	return obs.NewTracer(obs.TracerOptions{Now: now})
}

// recorder builds the run's flight recorder, or nil when off.
func (o obsOptions) recorder() *obs.FlightRecorder {
	if o.flight <= 0 {
		return nil
	}
	return obs.NewFlightRecorder(o.flight)
}

// writeTraceOut exports the collected spans as Chrome trace-event JSON;
// a no-op unless -trace-out was given.
func (o obsOptions) writeTraceOut(tr *obs.Tracer) error {
	if o.traceOut == "" {
		return nil
	}
	f, err := os.Create(o.traceOut)
	if err != nil {
		return err
	}
	if err := tr.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	logger.Info("wrote trace", "path", o.traceOut, "spans", len(tr.Spans()), "dropped", tr.Dropped())
	return nil
}

// serveDebug mounts net/http/pprof on its own listener, so profiling
// never shares a port (or a mux) with the scheduling API.
func (o obsOptions) serveDebug() (io.Closer, error) {
	if o.debugAddr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", o.debugAddr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() { _ = http.Serve(ln, mux) }()
	logger.Info("pprof debug server listening", "addr", ln.Addr().String())
	return ln, nil
}

// durOptions carry the journal flags; an empty path disables the
// journal.
type durOptions struct {
	path         string
	group        int
	compactEvery int
}

// ingOptions carry the accept-queue flags; pending <= 0 admits
// synchronously without a queue.
type ingOptions struct {
	pending    int
	batch      int
	quotaRate  float64
	quotaBurst float64
}

// fedOptions carry the federation flags; shards <= 1 with neither join
// URLs nor a fanout count means a bare engine.
type fedOptions struct {
	shards    int
	placement federation.Placement
	rebalance job.Duration
	gossip    job.Duration
	steal     bool
	// join lists out-of-process shard base URLs to front; fanout spawns
	// that many shard child processes instead. Either makes serve build
	// a remote federation (RemoteShard clients behind the router).
	join      []string
	fanout    int
	childArgs []string // pass-through flags for fanout children
}

// remote reports whether the federation is out of process.
func (f fedOptions) remote() bool { return len(f.join) > 0 || f.fanout > 0 }

// backend is what both run modes drive: a bare *engine.Engine or a
// *federation.Router.
type backend interface {
	server.Backend
	Records() []sim.Record
	Err() error
	Now() job.Time
}

// verify renders the chaos-mode verdict after a run. A bare engine is
// checked by its live oracle plus the record sweep; a federation by the
// global cross-shard sweep (partition geometry, shard-local node IDs,
// conservation across migrations).
func verify(orc *oracle.Oracle, bk backend, router *federation.Router) error {
	if router != nil {
		shardRecs := make([][]sim.Record, router.NumShards())
		for i := range shardRecs {
			shardRecs[i] = router.ShardRecords(i)
		}
		if err := oracle.CheckFederation(bk.Metrics().Capacity, router.ShardCapacities(), nil, shardRecs); err != nil {
			return err
		}
		fm := router.Federation()
		logger.Info("federation oracle verdict: clean",
			"jobs", len(bk.Records()), "shards", fm.Shards, "migrations", fm.Migrations)
		return nil
	}
	if orc == nil {
		return nil
	}
	if err := orc.Final(); err != nil {
		return err
	}
	if err := oracle.CheckRecords(bk.Metrics().Capacity, nil, bk.Records()); err != nil {
		return err
	}
	logger.Info("chaos oracle verdict: clean",
		"jobs", len(bk.Records()), "recovered_panics", bk.Metrics().Engine.PolicyPanics)
	return nil
}

func fatal(err error) {
	logger.Error(err.Error())
	os.Exit(1)
}

// serve runs the daemon: a real-clock engine (or federation) behind the
// HTTP API. POST /v1/drain (or SIGINT/SIGTERM) triggers a graceful
// shutdown once the machine has emptied.
func serve(mkPolicy func(int) sim.Policy, addr string, capacity int, requested bool,
	speedup float64, chaosOn bool, fed fedOptions, dur durOptions, ing ingOptions, obsO obsOptions) error {
	// A non-empty single-engine journal is recovered before the clock
	// starts: the rebuilt engine resumes at the last journaled instant,
	// so re-armed completion timers fire in the future, never the past.
	var recovered *engine.Checkpoint
	start := job.Time(0)
	if dur.path != "" && fed.shards <= 1 && !fed.remote() {
		if st, err := os.Stat(dur.path); err == nil && st.Size() > 0 {
			// RecoverCheckpoint truncates any torn tail, so the O_APPEND
			// handle opened below starts on a clean line boundary.
			cp, err := engine.RecoverCheckpoint(dur.path)
			if err != nil {
				return err
			}
			recovered = &cp
			if cp.Base != nil && cp.Base.At > start {
				start = cp.Base.At
			}
			for _, ev := range cp.Events {
				if ev.At > start {
					start = ev.At
				}
			}
		}
	}
	clock := engine.NewRealClockAt(start, speedup)
	tr := obsO.tracer(nil)
	flight := obsO.recorder()

	var (
		bk       backend
		router   *federation.Router
		orc      *oracle.Oracle
		journals []*engine.FileJournal
		children []*exec.Cmd
	)
	defer func() {
		// Fanout children normally exit on their own after the drain the
		// router forwards to them; this reap catches error paths (and is
		// a no-op kill on an already-exited child).
		for _, c := range children {
			_ = c.Process.Kill()
			_ = c.Wait()
		}
	}()
	if fed.remote() {
		urls := fed.join
		if fed.fanout > 0 {
			var err error
			urls, children, err = spawnShardProcs(fed.fanout, capacity, fed.childArgs, dur)
			if err != nil {
				return err
			}
		} else if dur.path != "" {
			logger.Warn("-journal is ignored with -join (each shard daemon owns its journal)")
		}
		shardClients := make([]engine.Shard, len(urls))
		for i, u := range urls {
			shardClients[i] = federation.NewRemoteShard(u, federation.RemoteShardOptions{
				Logger: logger,
				Tracer: tr,
			})
		}
		r, err := federation.NewWithShards(federation.Config{
			Clock:          clock,
			Placement:      fed.placement,
			RebalanceEvery: fed.rebalance,
			GossipEvery:    fed.gossip,
			WorkStealing:   fed.steal,
			CachedLoads:    obsO.cachedLoads,
			Tracer:         tr,
			Logger:         obs.NewLogger(os.Stderr, "router"),
		}, shardClients)
		if err != nil {
			return err
		}
		bk, router = r, r
	} else if fed.shards > 1 {
		fcfg := federation.Config{
			Capacity:       capacity,
			Shards:         fed.shards,
			Policy:         mkPolicy,
			Placement:      fed.placement,
			Clock:          clock,
			UseRequested:   requested,
			RebalanceEvery: fed.rebalance,
			GossipEvery:    fed.gossip,
			WorkStealing:   fed.steal,
			CachedLoads:    obsO.cachedLoads,
			Tracer:         tr,
			Flight:         flight,
			Logger:         obs.NewLogger(os.Stderr, "router"),
		}
		if dur.path != "" {
			// Shard journals are opened up front so factory calls (initial
			// construction and any crash-rebuild) cannot fail; a rebuild of
			// shard i keeps appending to the same open file. Federated
			// start-up does not recover from shard journals, so a leftover
			// non-empty file is rotated aside rather than appended to —
			// interleaving a fresh run (restarted clock, reused job IDs)
			// after the old run's events would corrupt both.
			journals = make([]*engine.FileJournal, fed.shards)
			rotated := 0
			for i := range journals {
				spath := fmt.Sprintf("%s.shard-%d", dur.path, i)
				if st, err := os.Stat(spath); err == nil && st.Size() > 0 {
					if err := os.Rename(spath, spath+".old"); err != nil {
						return fmt.Errorf("rotate shard journal %s: %w", spath, err)
					}
					rotated++
				}
				fj, err := engine.OpenFileJournal(spath, dur.group)
				if err != nil {
					return err
				}
				journals[i] = fj
			}
			if rotated > 0 {
				logger.Warn("rotated non-empty shard journals (federated start-up does not recover them)",
					"count", rotated, "to", dur.path+".shard-N.old")
			}
			fcfg.Journal = func(shard int) engine.JournalSink { return journals[shard] }
			fcfg.CompactEvery = dur.compactEvery
			logger.Info("journaling shards (write-only; start-up recovery is single-engine)",
				"shards", fed.shards, "path", dur.path+".shard-N")
		}
		r, err := federation.New(fcfg)
		if err != nil {
			return err
		}
		bk, router = r, r
	} else {
		if chaosOn {
			orc = oracle.New(capacity)
		}
		cfg := engine.Config{
			Capacity:     capacity,
			Policy:       mkPolicy(0),
			Clock:        clock,
			UseRequested: requested,
			Flight:       flight,
			Tracer:       tr,
		}
		if orc != nil {
			// Assigning a nil *Oracle directly would store a typed-nil
			// Observer the ledger's nil check cannot see.
			cfg.Observer = orc
		}
		if dur.path != "" {
			fj, err := engine.OpenFileJournal(dur.path, dur.group)
			if err != nil {
				return err
			}
			journals = append(journals, fj)
			cfg.Journal = fj
			cfg.CompactEvery = dur.compactEvery
		}
		var e *engine.Engine
		var err error
		if recovered != nil {
			e, err = engine.Rebuild(cfg, *recovered)
			if err != nil {
				return fmt.Errorf("recover %s: %w", dur.path, err)
			}
			base := 0
			if recovered.Base != nil {
				base = len(recovered.Base.Done) + len(recovered.Base.Running) + len(recovered.Base.Waiting)
			}
			logger.Info("recovered journal", "path", dur.path,
				"base_jobs", base, "tail_events", len(recovered.Events), "resumed_t", int64(start))
		} else {
			e, err = engine.New(cfg)
			if err != nil {
				return err
			}
		}
		bk = e
	}

	// The accept queue sits between the HTTP layer and the backend:
	// batched submits commit through it in arrival order, one journal
	// fsync per committer group.
	var q *ingest.Queue
	var opts []server.Option
	if ing.pending > 0 {
		qcfg := ingest.Config{
			Backend:    bk,
			MaxPending: ing.pending,
			MaxBatch:   ing.batch,
		}
		if ing.quotaRate > 0 {
			qcfg.Quotas = ingest.NewQuotas(ing.quotaRate, ing.quotaBurst, bk.Now)
		}
		var err error
		q, err = ingest.NewQueue(qcfg)
		if err != nil {
			return err
		}
		opts = append(opts, server.WithIngest(q))
	}
	if flight != nil && !fed.remote() {
		// A remote front-end has no in-process engines to record; each
		// shard daemon serves its own /v1/debug/decisions.
		opts = append(opts, server.WithFlight(flight))
	}
	if tr != nil {
		shard := 0
		if router != nil {
			shard = -1 // the router's lane in the trace timeline
		}
		opts = append(opts, server.WithTracer(tr, shard))
	}
	dbg, err := obsO.serveDebug()
	if err != nil {
		return err
	}
	if dbg != nil {
		defer dbg.Close()
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{}
	// Serve returns as soon as Shutdown closes the listener, but Shutdown
	// itself returns only once in-flight responses (the POST /v1/drain
	// that triggered it, say) are written. serve waits on shutdownDone
	// before tearing down, so the process never exits mid-response.
	shutdownDone := make(chan struct{})
	var shutdownOnce sync.Once
	shutdown := func() {
		shutdownOnce.Do(func() {
			_ = httpSrv.Shutdown(context.Background())
			close(shutdownDone)
		})
	}
	// Drained: stop accepting connections and let main return.
	httpSrv.Handler = server.New(bk, shutdown, opts...)

	// SIGINT/SIGTERM drain like POST /v1/drain does: accepted batches
	// commit first, then admission stops and the machine empties.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		if q != nil {
			q.Flush()
		}
		_ = bk.Drain(context.Background())
		shutdown()
	}()

	// The test harness and shell scripts parse this line for the port.
	if router != nil {
		kind := ""
		if fed.remote() {
			kind = " remote"
		}
		fmt.Printf("schedd: policy %s on %d nodes (%d%s shards, %s placement), listening on %s\n",
			bk.Metrics().Policy, bk.Metrics().Capacity, router.NumShards(), kind, fed.placement.Name(), ln.Addr())
	} else {
		fmt.Printf("schedd: policy %s on %d nodes, listening on %s\n",
			bk.Metrics().Policy, capacity, ln.Addr())
	}
	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	<-shutdownDone
	if q != nil {
		q.Close()
	}
	for _, fj := range journals {
		if err := fj.Close(); err != nil {
			return err
		}
	}
	if err := bk.Err(); err != nil {
		return err
	}
	// A drained fanout child exits by itself once its machine empties;
	// reap them here so their journals are closed before we report. A
	// child that never got the drain (its wire was down during
	// shutdown) is killed after a grace period rather than hanging the
	// supervisor.
	for _, c := range children {
		c := c
		done := make(chan struct{})
		go func() { _ = c.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = c.Process.Kill()
			<-done
		}
	}
	children = nil
	if chaosOn {
		if err := verify(orc, bk, router); err != nil {
			return err
		}
	}
	if err := obsO.writeTraceOut(tr); err != nil {
		return err
	}
	return printMetrics(bk, router)
}

// replay feeds a workload through the engine (or federation) on the
// deterministic virtual clock (as fast as the hardware allows) and
// prints the final metrics. Each job is delivered by a clock timer at
// its submit time, exactly like the engine's differential tests.
func replay(mkPolicy func(int) sim.Policy, swfIn, month string, seed uint64, scale, load float64,
	capacity int, requested bool, chaosOn bool, fed fedOptions, obsO obsOptions) error {
	input, err := replayInput(swfIn, month, seed, scale, load, capacity, requested)
	if err != nil {
		return err
	}
	measured := func(id int) bool {
		if input.Measured == nil {
			return true
		}
		return input.Measured[id]
	}

	vc := engine.NewVirtualClock()
	// Replay span timestamps come from the virtual clock, so the trace
	// timeline reads in engine time (span durations are still wall).
	tr := obsO.tracer(func() time.Time { return time.Unix(int64(vc.Now()), 0) })
	flight := obsO.recorder()
	var (
		bk     backend
		router *federation.Router
		orc    *oracle.Oracle
	)
	if fed.shards > 1 {
		r, err := federation.New(federation.Config{
			Capacity:       input.Capacity,
			Shards:         fed.shards,
			Policy:         mkPolicy,
			Placement:      fed.placement,
			Clock:          vc,
			UseRequested:   input.UseRequested,
			Measured:       measured,
			MeasureStart:   input.MeasureStart,
			MeasureEnd:     input.MeasureEnd,
			RebalanceEvery: fed.rebalance,
			GossipEvery:    fed.gossip,
			WorkStealing:   fed.steal,
			CachedLoads:    obsO.cachedLoads,
			Tracer:         tr,
			Flight:         flight,
			Logger:         obs.NewLogger(os.Stderr, "router"),
		})
		if err != nil {
			return err
		}
		bk, router = r, r
	} else {
		if chaosOn {
			orc = oracle.New(input.Capacity)
		}
		cfg := engine.Config{
			Capacity:     input.Capacity,
			Policy:       mkPolicy(0),
			Clock:        vc,
			UseRequested: input.UseRequested,
			Measured:     measured,
			MeasureStart: input.MeasureStart,
			MeasureEnd:   input.MeasureEnd,
			Flight:       flight,
			Tracer:       tr,
		}
		if orc != nil {
			cfg.Observer = orc
		}
		e, err := engine.New(cfg)
		if err != nil {
			return err
		}
		bk = e
	}
	// The replay loop is the front door, so it mints the traces a live
	// run's HTTP submit handler would (the router then adds route spans;
	// the engine adds decide spans).
	frontShard := 0
	if router != nil {
		frontShard = -1
	}

	var submitErr error
	var once sync.Once
	var skipped int
	for _, j := range input.Jobs {
		j := j
		vc.AfterFunc(j.Submit, func() {
			var tc obs.TraceContext
			var t0 time.Time
			if tr != nil {
				tc = tr.Mint()
				tr.Bind(j.ID, tc)
				t0 = tr.Now()
			}
			err := bk.SubmitJob(j)
			if err == nil {
				if tr != nil {
					tr.Record("submit", tc, j.ID, frontShard, t0, tr.Now().Sub(t0))
				}
				return
			}
			if errors.Is(err, federation.ErrTooWide) {
				// A partitioned machine cannot hold the trace's widest
				// jobs; skip them rather than abort the replay.
				skipped++
				return
			}
			once.Do(func() { submitErr = err })
		})
	}
	vc.Run()
	if skipped > 0 {
		logger.Warn("skipped jobs wider than every shard partition", "count", skipped)
	}
	if submitErr != nil {
		return submitErr
	}
	if err := bk.Err(); err != nil {
		return err
	}
	if chaosOn {
		if err := verify(orc, bk, router); err != nil {
			return err
		}
	}
	if err := obsO.writeTraceOut(tr); err != nil {
		return err
	}
	return printMetrics(bk, router)
}

// replayInput assembles the jobs to replay: an SWF trace, or a
// generated month with warm-up/cool-down margins and measurement
// flags, exactly as the offline simulator would see it.
func replayInput(swfIn, month string, seed uint64, scale, load float64,
	capacity int, requested bool) (sim.Input, error) {
	if swfIn != "" {
		jobs, header, err := trace.ReadSWFFile(swfIn)
		if err != nil {
			return sim.Input{}, err
		}
		if len(jobs) == 0 {
			return sim.Input{}, fmt.Errorf("%s: no usable jobs", swfIn)
		}
		sort.Sort(job.BySubmit(jobs))
		if capacity <= 0 {
			capacity = header.MaxNodes
		}
		for _, j := range jobs {
			if j.Nodes > capacity {
				capacity = j.Nodes
			}
		}
		return sim.Input{Capacity: capacity, Jobs: jobs, UseRequested: requested}, nil
	}
	suite := workload.NewSuite(workload.Config{Seed: seed, JobScale: scale})
	input, _, err := suite.Input(month, workload.SimOptions{TargetLoad: load, UseRequested: requested})
	if err != nil {
		return sim.Input{}, err
	}
	return input, nil
}

// printMetrics emits the final whole-machine metrics on stdout; a
// federated run appends the per-shard federation report.
func printMetrics(bk backend, router *federation.Router) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(bk.Metrics()); err != nil {
		return err
	}
	if router != nil {
		return enc.Encode(router.Federation())
	}
	return nil
}
