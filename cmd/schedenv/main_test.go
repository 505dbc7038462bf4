package main

import (
	"bufio"
	"encoding/json"
	"io"
	"reflect"
	"testing"

	"schedsearch"
	"schedsearch/internal/env"
	"schedsearch/internal/metrics"
	"schedsearch/internal/sim"
	"schedsearch/internal/workload"
)

// TestServeStepsMonthEndToEnd drives the stdio protocol over in-memory
// pipes: hello, reset, then "policy" actions until done, for one full
// suite month. The done summary must match a native sim.Run of the same
// policy on the same workload exactly — the wire layer adds no drift.
func TestServeStepsMonthEndToEnd(t *testing.T) {
	const (
		month = "7/03"
		spec  = "DDS/lxf/dynB"
		seed  = 6
		scale = 0.025
		load  = 0.95
	)
	cfg, err := serveConfig(month, seed, scale, load, false, 64, 1)
	if err != nil {
		t.Fatal(err)
	}

	cr, sw := io.Pipe() // server → client
	sr, cw := io.Pipe() // client → server
	serveErr := make(chan error, 1)
	go func() {
		err := env.Serve(cfg, sr, sw)
		sw.Close()
		serveErr <- err
	}()

	enc := json.NewEncoder(cw)
	sc := bufio.NewScanner(cr)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	readLine := func(into interface{}) {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("server closed the stream early: %v", sc.Err())
		}
		if err := json.Unmarshal(sc.Bytes(), into); err != nil {
			t.Fatalf("bad response line %q: %v", sc.Text(), err)
		}
	}

	var hello env.Hello
	readLine(&hello)
	if hello.Type != "hello" || hello.SchemaVersion != env.SchemaVersion {
		t.Fatalf("bad hello: %+v", hello)
	}
	if hello.Capacity <= 0 || hello.Jobs <= 0 {
		t.Fatalf("hello missing workload shape: %+v", hello)
	}

	if err := enc.Encode(env.Request{Type: "reset"}); err != nil {
		t.Fatal(err)
	}
	var done env.DoneMsg
	steps := 0
	for {
		var raw struct {
			Type string `json:"type"`
		}
		var line json.RawMessage
		readLine(&line)
		if err := json.Unmarshal(line, &raw); err != nil {
			t.Fatal(err)
		}
		switch raw.Type {
		case "observe":
			var obs env.ObserveMsg
			if err := json.Unmarshal(line, &obs); err != nil {
				t.Fatal(err)
			}
			if len(obs.Observation.Queue) == 0 {
				t.Fatalf("step %d: observation with empty queue", steps)
			}
			steps++
			if err := enc.Encode(env.Request{
				Type:   "act",
				Action: env.Action{Kind: "policy", Policy: spec},
			}); err != nil {
				t.Fatal(err)
			}
		case "done":
			if err := json.Unmarshal(line, &done); err != nil {
				t.Fatal(err)
			}
		case "error":
			var em env.ErrorMsg
			_ = json.Unmarshal(line, &em)
			t.Fatalf("step %d: server error: %s", steps, em.Error)
		default:
			t.Fatalf("unexpected response type %q", raw.Type)
		}
		if done.Type == "done" {
			break
		}
	}
	if err := enc.Encode(env.Request{Type: "close"}); err != nil {
		t.Fatal(err)
	}
	cw.Close()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}

	if done.Decisions != steps {
		t.Errorf("done reports %d decisions, client acted %d times", done.Decisions, steps)
	}
	if done.Jobs != hello.Jobs {
		t.Errorf("done reports %d jobs, hello announced %d", done.Jobs, hello.Jobs)
	}
	if done.TotalReward >= 0 {
		t.Errorf("total reward %v, want negative cost", done.TotalReward)
	}

	// The wire summary must match a native run of the same policy on the
	// same workload bit for bit.
	suite := workload.NewSuite(workload.Config{Seed: seed, JobScale: scale})
	in, _, err := suite.Input(month, workload.SimOptions{TargetLoad: load})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := schedsearch.ParsePolicy(spec, 64)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(in, pol)
	if err != nil {
		t.Fatal(err)
	}
	native := metrics.Summarize(res)
	// The env reports its episode label, not the delegated policy's name;
	// every measured quantity must still match bit for bit.
	native.Policy = done.Summary.Policy
	if !reflect.DeepEqual(done.Summary, native) {
		t.Errorf("wire summary diverges from native run:\nwire   %+v\nnative %+v", done.Summary, native)
	}
	if res.Decisions != done.Decisions {
		t.Errorf("native run made %d decisions, wire reported %d", res.Decisions, done.Decisions)
	}
}

// TestServeRejectsBadRequests: protocol errors get an error line and
// the session survives them.
func TestServeRejectsBadRequests(t *testing.T) {
	cfg, err := serveConfig("7/03", 6, 0.01, 0.5, false, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	cr, sw := io.Pipe()
	sr, cw := io.Pipe()
	serveErr := make(chan error, 1)
	go func() {
		err := env.Serve(cfg, sr, sw)
		sw.Close()
		serveErr <- err
	}()
	enc := json.NewEncoder(cw)
	sc := bufio.NewScanner(cr)
	readLine := func(into interface{}) {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("server closed the stream early: %v", sc.Err())
		}
		if err := json.Unmarshal(sc.Bytes(), into); err != nil {
			t.Fatalf("bad response line %q: %v", sc.Text(), err)
		}
	}

	var hello env.Hello
	readLine(&hello)

	var em env.ErrorMsg
	// act before reset
	enc.Encode(env.Request{Type: "act", Action: env.Action{Kind: "start"}})
	readLine(&em)
	if em.Type != "error" {
		t.Fatalf("act before reset answered %+v", em)
	}
	// unknown request type
	enc.Encode(env.Request{Type: "bogus"})
	readLine(&em)
	if em.Type != "error" {
		t.Fatalf("bogus request answered %+v", em)
	}
	// session still alive: reset works
	enc.Encode(env.Request{Type: "reset"})
	var obs env.ObserveMsg
	readLine(&obs)
	if obs.Type != "observe" {
		t.Fatalf("reset after errors answered %+v", obs)
	}
	// invalid action: rejected without consuming the decision
	enc.Encode(env.Request{Type: "act", Action: env.Action{Kind: "start", Start: []int{9999}}})
	readLine(&em)
	if em.Type != "error" {
		t.Fatalf("out-of-range start answered %+v", em)
	}
	// the same decision is still pending and accepts a valid action
	enc.Encode(env.Request{Type: "act", Action: env.Action{Kind: "policy", Policy: "FCFS-backfill"}})
	var next struct {
		Type string `json:"type"`
	}
	readLine(&next)
	if next.Type != "observe" && next.Type != "done" {
		t.Fatalf("valid action after rejection answered type %q", next.Type)
	}

	enc.Encode(env.Request{Type: "close"})
	cw.Close()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
}
