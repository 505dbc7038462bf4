package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"schedsearch"
	"schedsearch/internal/core"
	"schedsearch/internal/engine"
	"schedsearch/internal/federation"
	"schedsearch/internal/ingest"
	"schedsearch/internal/job"
	"schedsearch/internal/metrics"
	"schedsearch/internal/oracle"
	"schedsearch/internal/server"
	"schedsearch/internal/sim"
	"schedsearch/internal/wire"
	"schedsearch/internal/workload"
)

const (
	// serveMonth is the month both serving workloads replay.
	serveMonth = "7/03"
	// journalGroup is the FileJournal group-commit size: Commit
	// fsyncs once this many events are buffered.
	journalGroup = 32
	// queueEvery is how many arrival instants pass between two
	// GET /v1/queue reads.
	queueEvery = 64
	// serveStride keeps every serveStride-th Decide snapshot of a
	// traced serving pass.
	serveStride = 16

	// The serve-fed month is generated for the suite's 128-node machine
	// at twice the paper's high load and served by fedShards partitions
	// of that machine's size: every job fits a partition and each shard
	// sees ρ ≈ 0.9. (Generating the month for a 64-node machine instead
	// still yields 65-node jobs, which no 64-node partition can take.)
	fedShards    = 2
	fedPartition = workload.Capacity
	fedLoad      = 1.8
	// fedRebalance is the router's rebalance period in engine seconds,
	// as in the repository's remote federation bench.
	fedRebalance = 600
)

// instant is one arrival instant: the jobs submitted at the same time.
type instant struct {
	at   job.Time
	jobs []job.Job
}

func instants(jobs []job.Job) []instant {
	var out []instant
	for _, j := range jobs {
		if k := len(out); k > 0 && out[k-1].at == j.Submit {
			out[k-1].jobs = append(out[k-1].jobs, j)
			continue
		}
		out = append(out, instant{at: j.Submit, jobs: []job.Job{j}})
	}
	return out
}

// drive is the closed-loop load generator both serving workloads share. For
// each arrival instant it schedules the submission on the virtual
// clock and advances the clock to that instant: completions due by
// then fire first, then the submission callback (which returns only
// after the backend acknowledged), then the decision of that instant.
// after runs once the instant's decision is committed. The clock
// never moves while a submission is in flight.
func drive(vc *engine.VirtualClock, tr *tracer, jobs []job.Job, submit func([]job.Job), after func(k int, it instant)) {
	for k, it := range instants(jobs) {
		it := it
		vc.AfterFunc(it.at-vc.Now(), func() { submit(it.jobs) })
		sp := tr.begin("engine.advance")
		vc.AdvanceTo(it.at)
		tr.end(sp)
		if after != nil {
			after(k, it)
		}
	}
	sp := tr.begin("engine.advance")
	vc.Run()
	tr.end(sp)
}

// httpStack is one loopback HTTP server and its shutdown.
type httpStack struct {
	srv    *http.Server
	served chan struct{}
	base   string
}

func listen(h http.Handler) (*httpStack, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &httpStack{srv: &http.Server{Handler: h}, served: make(chan struct{}), base: "http://" + ln.Addr().String()}
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

func (s *httpStack) close() {
	s.srv.Close()
	<-s.served
}

// newTransport returns a keep-alive transport holding at most one
// connection per host.
func newTransport() *http.Transport {
	return &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
}

// do makes one request and reads the whole response body.
func do(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, r)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// servePass returns the pass of a serving workload: one unit per
// suite of the run, each served by its own freshly started stack.
func servePass(unit func(rc *runCtx, k int, p *passResult) error) passFunc {
	return func(rc *runCtx, traced bool) (*passResult, error) {
		p := newPass(traced)
		for k := 0; k < rc.suites; k++ {
			if err := unit(rc, k, p); err != nil {
				return nil, err
			}
		}
		p.finish()
		return p, nil
	}
}

// serveStack is the serving stack of one suite's month: server.Server
// with an ingest.Queue in front of the engine on a virtual clock,
// journaling to a group-commit FileJournal with real fsyncs, and an
// HTTP client holding one keep-alive connection to it.
type serveStack struct {
	in        sim.Input
	pol       sim.Policy
	tp        *timedPolicy
	sc        *startClock
	vc        *engine.VirtualClock
	jpath     string
	fj        *engine.FileJournal
	eng       *engine.Engine
	q         *ingest.Queue
	hs        *httpStack
	transport *http.Transport
	client    *http.Client
}

// newServeStack generates suite k and starts serve's stack for its
// month 7/03 at original load, logging the set-up time.
func newServeStack(rc *runCtx, k int, tr *tracer, log *setupLog) (*serveStack, error) {
	t0 := now()
	suite := workload.NewSuite(workload.Config{Seed: rc.suiteSeed(k), JobScale: rc.scale})
	log.generates = append(log.generates, now()-t0)
	in, _, err := suite.Input(serveMonth, workload.SimOptions{})
	if err != nil {
		return nil, err
	}
	pol, err := schedsearch.ParsePolicy(searchPolicy, nodeLimit)
	if err != nil {
		return nil, err
	}
	s := &serveStack{in: in, pol: pol, tp: &timedPolicy{inner: pol, tr: tr, cal: rc.cal}, sc: newStartClock(in.Jobs, false),
		vc: engine.NewVirtualClock(), jpath: filepath.Join(rc.workdir, "serve.journal")}
	if tr != nil {
		s.tp.stride = serveStride
	}
	if err := os.Remove(s.jpath); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	if s.fj, err = engine.OpenFileJournal(s.jpath, journalGroup); err != nil {
		return nil, err
	}
	s.eng, err = engine.New(engine.Config{
		Capacity:     in.Capacity,
		Policy:       s.tp,
		Clock:        s.vc,
		Measured:     func(id int) bool { return in.Measured[id] },
		MeasureStart: in.MeasureStart,
		MeasureEnd:   in.MeasureEnd,
		Observer:     s.sc,
		Journal:      timedJournal{s.fj, tr},
	})
	if err != nil {
		s.fj.Close()
		return nil, err
	}
	te := timedEngine{s.eng, tr}
	if s.q, err = ingest.NewQueue(ingest.Config{Backend: te}); err != nil {
		s.fj.Close()
		return nil, err
	}
	if s.hs, err = listen(timedHandler{server.New(te, nil, server.WithIngest(s.q)), tr, serverSpan}); err != nil {
		s.q.Close()
		s.fj.Close()
		return nil, err
	}
	s.transport = newTransport()
	s.client = &http.Client{Transport: s.transport}
	log.setups = append(log.setups, now()-t0)
	return s, nil
}

// close stops the stack and returns the journal's close error.
func (s *serveStack) close() error {
	s.q.Close()
	s.hs.close()
	s.transport.CloseIdleConnections()
	return s.fj.Close()
}

// serveSetup is serve's set-up on its own.
func serveSetup(rc *runCtx, k int, log *setupLog) error {
	s, err := newServeStack(rc, k, nil, log)
	if err != nil {
		return err
	}
	err = s.close()
	if rerr := os.Remove(s.jpath); err == nil {
		err = rerr
	}
	return err
}

// serveUnit serves suite k's month through serve's stack. Each arrival
// instant is one batched POST /v1/jobs over one keep-alive connection,
// followed by a GET /v1/jobs/{id} per job and, every 64th instant, a
// GET /v1/queue.
func serveUnit(rc *runCtx, k int, p *passResult) error {
	tr := p.raw.tr
	s, err := newServeStack(rc, k, tr, &p.setupLog)
	if err != nil {
		return err
	}
	in, client, base, sc := s.in, s.client, s.hs.base, s.sc

	var ack, status []int64
	submit := func(jobs []job.Job) {
		reqs := make([]wire.SubmitRequest, len(jobs))
		for i, j := range jobs {
			reqs[i] = wire.SubmitRequest{ID: j.ID, Nodes: j.Nodes, RuntimeS: j.Runtime, RequestS: j.Request, User: j.User}
		}
		body, err := json.Marshal(reqs)
		if err != nil {
			p.fail("encode batch: %v", err)
			return
		}
		for _, j := range jobs {
			sc.stamp(j.ID)
		}
		sp := tr.begin("client.submit")
		t := now()
		code, data, err := do(client, http.MethodPost, base+"/v1/jobs", body)
		ack = append(ack, now()-t)
		tr.end(sp)
		p.attempted += len(jobs)
		var resp server.BatchResponse
		switch {
		case err != nil:
			p.fail("POST /v1/jobs: %v", err)
		case code != http.StatusOK:
			p.fail("POST /v1/jobs: HTTP %d: %s", code, data)
		case json.Unmarshal(data, &resp) != nil || resp.Accepted != len(jobs):
			p.fail("POST /v1/jobs: accepted %d of %d: %s", resp.Accepted, len(jobs), data)
		}
	}
	read := func(name, path string, samples *[]int64) []byte {
		sp := tr.begin(name)
		t := now()
		code, data, err := do(client, http.MethodGet, base+path, nil)
		if samples != nil {
			*samples = append(*samples, now()-t)
		}
		tr.end(sp)
		p.attempted++
		if err != nil || code != http.StatusOK {
			p.fail("GET %s: HTTP %d: %v", path, code, err)
			return nil
		}
		return data
	}
	after := func(k int, it instant) {
		for _, j := range it.jobs {
			var jr wire.JobResponse
			data := read("client.status", "/v1/jobs/"+strconv.Itoa(j.ID), &status)
			if data != nil && (json.Unmarshal(data, &jr) != nil || jr.ID != j.ID) {
				p.fail("GET /v1/jobs/%d: bad body %s", j.ID, data)
			}
		}
		if k%queueEvery == 0 {
			read("client.queue", "/v1/queue", nil)
		}
	}

	tr.record(true)
	t1 := now()
	drive(s.vc, tr, in.Jobs, submit, after)
	wall := now() - t1
	p.wallNs += wall
	p.rates = append(p.rates, float64(len(in.Jobs))/seconds(wall))
	tr.record(false)

	p.check("journal close", s.close())
	if fi, err := os.Stat(s.jpath); err == nil {
		p.counts.JournalBytes += fi.Size()
	}
	p.check("journal remove", os.Remove(s.jpath))

	eng, tp := s.eng, s.tp
	recs := eng.Records()
	p.check("engine", eng.Err())
	p.check("oracle", oracle.CheckRecords(in.Capacity, in.Jobs, recs))
	p.check("conservation", metrics.CheckConservation(&sim.Result{Records: recs}))
	fp := fingerprint(0, recs)
	p.fingerprint = fingerprint(p.fingerprint, recs)
	sum := eng.Metrics().Summary
	off, err := rc.offlineServe(k, in)
	if err == nil && sum != off.summary {
		err = fmt.Errorf("summary %+v, sim.Run %+v", sum, off.summary)
	}
	if err == nil && fp != off.fingerprint {
		err = errors.New("committed records differ from sim.Run")
	}
	p.check("online==offline", err)
	p.addQuality(append(p.months, monthSummary{Month: serveMonth, Policy: s.pol.Name(), Summary: sum}))

	p.jobs += len(in.Jobs)
	p.raw.decide = append(p.raw.decide, tp.decide)
	p.raw.cal = append(p.raw.cal, tp.calNs)
	p.raw.start = append(p.raw.start, sc.lat)
	p.raw.ack = append(p.raw.ack, ack)
	p.raw.status = append(p.raw.status, status)
	p.searchNs += total(tp.decide)
	for _, snap := range tp.snaps {
		p.raw.samples = append(p.raw.samples, sample{s.pol.Name(), snap})
	}
	js, qs := s.fj.Stats(), s.q.Stats()
	p.counts.Jobs += len(in.Jobs)
	p.counts.Records += len(recs)
	p.counts.Decisions += len(tp.decide)
	p.counts.JournalAppends += js.Appends
	p.counts.Fsyncs += js.Syncs
	p.counts.SyncGroups += qs.SyncGroups
	p.counts.IngestCommitted += qs.Committed
	if sch, ok := s.pol.(*core.Scheduler); ok {
		p.counts.addSearch(sch.SearchStats)
	}
	return nil
}

// offlineRef is sim.Run of a served month: the schedule the online
// stack must reproduce.
type offlineRef struct {
	summary     metrics.Summary
	fingerprint uint64
}

// offlineServe returns suite k's reference, computing it on first use.
func (rc *runCtx) offlineServe(k int, in sim.Input) (*offlineRef, error) {
	if ref := rc.offline[k]; ref != nil {
		return ref, nil
	}
	pol, err := schedsearch.ParsePolicy(searchPolicy, nodeLimit)
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(in, pol)
	if err != nil {
		return nil, err
	}
	if rc.offline == nil {
		rc.offline = make(map[int]*offlineRef)
	}
	rc.offline[k] = &offlineRef{summary: metrics.Summarize(res), fingerprint: fingerprint(0, res.Records)}
	return rc.offline[k], nil
}

// transportTimes pairs every client request span with the handler
// span it caused and returns the differences: time on the wire, in
// the HTTP client and in net/http, outside the handler.
func transportTimes(tr *tracer) []int64 {
	var out []int64
	for _, s := range tr.spans {
		if s.parent < 0 || layerOf(s.name) != "server" {
			continue
		}
		if c := tr.spans[s.parent]; layerOf(c.name) == "client" {
			out = append(out, (c.end-c.start)-(s.end-s.start))
		}
	}
	return out
}

// fedStack is serve-fed's stack for one suite's month: a
// federation.Router over fedShards remote shards. Each shard is an
// engine behind server.Server on its own loopback listener, reached
// through a federation.RemoteShard whose transport counts the round
// trips; the router probes shard loads live on every submission and
// rebalances.
type fedStack struct {
	in        sim.Input
	sc        *startClock
	vc        *engine.VirtualClock
	transport *http.Transport
	wc        *wireCounter
	pols      []*timedPolicy
	stacks    []*httpStack
	router    *federation.Router
}

// newFedStack generates suite k and starts serve-fed's stack for its
// month 7/03, logging the set-up time.
func newFedStack(rc *runCtx, k int, tr *tracer, log *setupLog) (_ *fedStack, err error) {
	t0 := now()
	suite := workload.NewSuite(workload.Config{Seed: rc.suiteSeed(k), JobScale: rc.scale})
	log.generates = append(log.generates, now()-t0)
	in, _, err := suite.Input(serveMonth, workload.SimOptions{TargetLoad: fedLoad})
	if err != nil {
		return nil, err
	}
	s := &fedStack{in: in, sc: newStartClock(in.Jobs, false), vc: engine.NewVirtualClock(), transport: newTransport()}
	s.wc = &wireCounter{base: s.transport, tr: tr}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	var shards []engine.Shard
	for i := 0; i < fedShards; i++ {
		pol, err := schedsearch.ParsePolicy(searchPolicy, nodeLimit)
		if err != nil {
			return nil, err
		}
		tp := &timedPolicy{inner: pol, tr: tr, cal: rc.cal}
		if tr != nil {
			tp.stride = serveStride
		}
		eng, err := engine.New(engine.Config{
			Capacity:     fedPartition,
			Policy:       tp,
			Clock:        s.vc,
			Measured:     func(id int) bool { return in.Measured[id] },
			MeasureStart: in.MeasureStart,
			MeasureEnd:   in.MeasureEnd,
			Observer:     s.sc,
		})
		if err != nil {
			return nil, err
		}
		hs, err := listen(timedHandler{server.New(timedEngine{eng, tr}, nil), tr, shardSpan})
		if err != nil {
			return nil, err
		}
		s.pols = append(s.pols, tp)
		s.stacks = append(s.stacks, hs)
		shards = append(shards, federation.NewRemoteShard(hs.base, federation.RemoteShardOptions{
			Timeout:   30 * time.Second,
			Sleep:     func(time.Duration) {},
			Transport: s.wc,
		}))
	}
	s.router, err = federation.NewWithShards(federation.Config{
		Clock:          s.vc,
		RebalanceEvery: fedRebalance,
		Measured:       func(id int) bool { return in.Measured[id] },
		MeasureStart:   in.MeasureStart,
		MeasureEnd:     in.MeasureEnd,
	}, shards)
	if err != nil {
		return nil, err
	}
	log.setups = append(log.setups, now()-t0)
	return s, nil
}

// close stops the shards' listeners and the client's connections.
func (s *fedStack) close() {
	for _, hs := range s.stacks {
		hs.close()
	}
	s.transport.CloseIdleConnections()
}

// fedSetup is serve-fed's set-up on its own.
func fedSetup(rc *runCtx, k int, log *setupLog) error {
	s, err := newFedStack(rc, k, nil, log)
	if err != nil {
		return err
	}
	s.close()
	return nil
}

// serveFedUnit drives the same closed loop as serveUnit through
// serve-fed's stack for suite k.
func serveFedUnit(rc *runCtx, k int, p *passResult) error {
	tr := p.raw.tr
	s, err := newFedStack(rc, k, tr, &p.setupLog)
	if err != nil {
		return err
	}
	defer s.close()
	in, sc, router, wc := s.in, s.sc, s.router, s.wc

	var ack []int64
	submit := func(jobs []job.Job) {
		for _, j := range jobs {
			sc.stamp(j.ID)
			sp := tr.begin("federation.route")
			t := now()
			err := router.SubmitJob(j)
			ack = append(ack, now()-t)
			tr.end(sp)
			p.attempted++
			if err != nil {
				p.fail("submit job %d: %v", j.ID, err)
			}
		}
	}
	trips0, probes0, bytes0, failed0 := wc.trips.Load(), wc.probes.Load(), wc.bytes.Load(), wc.failed.Load()
	tr.record(true)
	t1 := now()
	drive(s.vc, tr, in.Jobs, submit, nil)
	wall := now() - t1
	p.wallNs += wall
	p.rates = append(p.rates, float64(len(in.Jobs))/seconds(wall))
	tr.record(false)
	p.counts.Trips += wc.trips.Load() - trips0
	p.counts.Probes += wc.probes.Load() - probes0
	p.counts.WireBytes += wc.bytes.Load() - bytes0
	p.counts.Retries += wc.failed.Load() - failed0

	capacity := fedPartition * fedShards
	p.check("router", router.Err())
	recs := router.Records()
	shardRecs := make([][]sim.Record, router.NumShards())
	for i := range shardRecs {
		shardRecs[i] = router.ShardRecords(i)
	}
	p.check("federation oracle", oracle.CheckFederation(capacity, router.ShardCapacities(), in.Jobs, shardRecs))
	res := &sim.Result{Records: recs, Capacity: capacity, MeasureStart: in.MeasureStart, MeasureEnd: in.MeasureEnd}
	p.check("conservation", metrics.CheckConservation(res))
	p.fingerprint = fingerprint(p.fingerprint, recs)
	p.addQuality(append(p.months, monthSummary{Month: serveMonth, Policy: searchPolicy, Summary: metrics.Summarize(res)}))
	p.counts.Migrations += router.Federation().Migrations

	p.jobs += len(in.Jobs)
	p.raw.start = append(p.raw.start, sc.lat)
	p.raw.ack = append(p.raw.ack, ack)
	p.counts.Jobs += len(in.Jobs)
	p.counts.Records += len(recs)
	var decide, cal []int64
	for _, tp := range s.pols {
		decide = append(decide, tp.decide...)
		cal = append(cal, tp.calNs...)
		p.searchNs += total(tp.decide)
		p.counts.Decisions += len(tp.decide)
		if sch, ok := tp.inner.(*core.Scheduler); ok {
			p.counts.addSearch(sch.SearchStats)
		}
		for _, snap := range tp.snaps {
			p.raw.samples = append(p.raw.samples, sample{searchPolicy, snap})
		}
	}
	p.raw.decide = append(p.raw.decide, decide)
	p.raw.cal = append(p.raw.cal, cal)
	return nil
}
