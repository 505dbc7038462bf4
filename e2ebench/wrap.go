package main

import (
	"io"
	"net/http"
	"strings"
	"sync/atomic"

	"schedsearch/internal/engine"
	"schedsearch/internal/ingest"
	"schedsearch/internal/job"
	"schedsearch/internal/server"
	"schedsearch/internal/sim"
)

// The wrappers below time calls into one layer's public functions.
// Each embeds the concrete value it wraps, so every optional interface
// of that value survives wrapping: a wrapper that dropped SyncJournal
// (ingest.Syncer, and the server's single-submit journal syncer) would
// silently turn group commit off.
var (
	_ server.ShardBackend        = timedEngine{}
	_ ingest.Syncer              = timedEngine{}
	_ engine.JournalSink         = timedJournal{}
	_ engine.StatsReporter       = timedJournal{}
	_ engine.SyncLatencyReporter = timedJournal{}
)

// timedPolicy times every Decide and, when stride > 0, keeps a copy of
// every stride-th snapshot for the profile and allocation replays.
// After a call it gives the run's calibrator the chance to run its
// kernel, and keeps the kernel's times.
type timedPolicy struct {
	inner  sim.Policy
	tr     *tracer
	stride int
	cal    *calibrator

	decide []int64 // ns per call
	calNs  []int64 // ns per kernel run after a call
	snaps  []*sim.Snapshot
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Decide(snap *sim.Snapshot) []int {
	if p.stride > 0 && len(p.decide)%p.stride == 0 {
		p.snaps = append(p.snaps, cloneSnapshot(snap))
	}
	sp := p.tr.begin("policy.decide")
	t0 := now()
	starts := p.inner.Decide(snap)
	t1 := now()
	p.decide = append(p.decide, t1-t0)
	if k := p.cal.maybe(t1); k > 0 {
		p.calNs = append(p.calNs, k)
	}
	p.tr.end(sp)
	return starts
}

func cloneSnapshot(s *sim.Snapshot) *sim.Snapshot {
	c := *s
	c.Running = append([]sim.RunningJob(nil), s.Running...)
	c.Queue = append([]sim.WaitingJob(nil), s.Queue...)
	return &c
}

// timedEngine times the engine calls the ingest committer, the HTTP
// handlers and the shard endpoints make.
type timedEngine struct {
	*engine.Engine
	tr *tracer
}

func (e timedEngine) Submit(spec job.Job) (int, error) {
	defer e.tr.end(e.tr.begin("engine.submit"))
	return e.Engine.Submit(spec)
}

func (e timedEngine) SubmitJob(j job.Job) error {
	defer e.tr.end(e.tr.begin("engine.submit"))
	return e.Engine.SubmitJob(j)
}

func (e timedEngine) Admit(j job.Job) error {
	defer e.tr.end(e.tr.begin("engine.admit"))
	return e.Engine.Admit(j)
}

func (e timedEngine) Withdraw(id int) (job.Job, error) {
	defer e.tr.end(e.tr.begin("engine.withdraw"))
	return e.Engine.Withdraw(id)
}

func (e timedEngine) SyncJournal() error {
	defer e.tr.end(e.tr.begin("engine.sync"))
	return e.Engine.SyncJournal()
}

func (e timedEngine) Job(id int) (engine.JobStatus, bool) {
	defer e.tr.end(e.tr.begin("engine.status"))
	return e.Engine.Job(id)
}

func (e timedEngine) Queue() []engine.JobStatus {
	defer e.tr.end(e.tr.begin("engine.queue"))
	return e.Engine.Queue()
}

func (e timedEngine) Load() engine.Load {
	defer e.tr.end(e.tr.begin("engine.load"))
	return e.Engine.Load()
}

// timedJournal times the engine's calls into its journal sink.
type timedJournal struct {
	*engine.FileJournal
	tr *tracer
}

func (j timedJournal) Append(ev engine.Event) error {
	defer j.tr.end(j.tr.begin("journal.append"))
	return j.FileJournal.Append(ev)
}

func (j timedJournal) Commit() error {
	defer j.tr.end(j.tr.begin("journal.commit"))
	return j.FileJournal.Commit()
}

func (j timedJournal) Sync() error {
	defer j.tr.end(j.tr.begin("journal.sync"))
	return j.FileJournal.Sync()
}

// timedHandler times an HTTP handler; name maps a request to its span.
type timedHandler struct {
	h    http.Handler
	tr   *tracer
	name func(*http.Request) string
}

func (h timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sp := h.tr.begin(h.name(r))
	h.h.ServeHTTP(w, r)
	h.tr.end(sp)
}

// serverSpan names the front-end server's handler spans.
func serverSpan(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		return "server.submit"
	case strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
		return "server.status"
	case r.URL.Path == "/v1/queue":
		return "server.queue"
	}
	return "server.other"
}

func shardSpan(*http.Request) string { return "shard.handler" }

// wireCounter is the RemoteShardOptions.Transport of every remote
// shard: it counts round trips (load probes separately), body bytes in
// both directions and failed attempts, always; and times each round
// trip when tracing.
type wireCounter struct {
	base http.RoundTripper
	tr   *tracer

	trips, probes, bytes, failed atomic.Int64
}

func (c *wireCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := c.tr.begin("transport.rt")
	defer c.tr.end(sp)
	c.trips.Add(1)
	if strings.HasSuffix(req.URL.Path, "/shard/load") {
		c.probes.Add(1)
	}
	if req.ContentLength > 0 {
		c.bytes.Add(req.ContentLength)
	}
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		c.failed.Add(1)
		return nil, err
	}
	resp.Body = countingBody{resp.Body, &c.bytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	k, err := b.ReadCloser.Read(p)
	b.n.Add(int64(k))
	return k, err
}
