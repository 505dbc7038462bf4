package job

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	for _, good := range []Job{
		{ID: 1, Submit: 0, Nodes: 4, Runtime: 100, Request: 200},
		{ID: 1, Submit: MaxSeconds, Nodes: 4, Runtime: 100, Request: MaxSeconds},
	} {
		if err := good.Validate(128); err != nil {
			t.Errorf("valid job rejected: %v", err)
		}
	}
	cases := []Job{
		{ID: 1, Nodes: 0, Runtime: 1, Request: 1},
		{ID: 1, Nodes: 129, Runtime: 1, Request: 1},
		{ID: 1, Nodes: 1, Runtime: -1, Request: 1},
		{ID: 1, Nodes: 1, Runtime: 10, Request: 5},
		{ID: 1, Submit: -1, Nodes: 1, Runtime: 1, Request: 1},
		// Past the limit start + estimate could wrap past the
		// profile's end of time.
		{ID: 1, Nodes: 1, Runtime: 1, Request: MaxSeconds + 1},
		{ID: 1, Nodes: 1, Runtime: 1, Request: math.MaxInt64 - 10},
		{ID: 1, Submit: MaxSeconds + 1, Nodes: 1, Runtime: 1, Request: 1},
	}
	for _, j := range cases {
		if err := j.Validate(128); err == nil {
			t.Errorf("invalid job %+v accepted", j)
		}
	}
}

func TestDemand(t *testing.T) {
	j := Job{Nodes: 16, Runtime: 3600}
	if got := j.Demand(); got != 16*3600 {
		t.Errorf("Demand = %d", got)
	}
}

func TestWaitAndSlowdown(t *testing.T) {
	j := Job{Submit: 100, Runtime: 200}
	if got := Wait(j, 300); got != 200 {
		t.Errorf("Wait = %d", got)
	}
	// slowdown = (wait + runtime)/runtime = (200+200)/200 = 2.
	if got := Slowdown(j, 300); got != 2 {
		t.Errorf("Slowdown = %v", got)
	}
}

func TestBoundedSlowdownFloorRule(t *testing.T) {
	// Paper: jobs under 1 minute have bounded slowdown 1 + wait in
	// minutes, same as 1-minute jobs.
	short := Job{Submit: 0, Runtime: 10}
	oneMin := Job{Submit: 0, Runtime: 60}
	for _, wait := range []Time{0, 60, 300, 3600} {
		a := BoundedSlowdown(short, wait)
		b := BoundedSlowdown(oneMin, wait)
		if a != b {
			t.Errorf("wait %d: sub-minute job bsld %v != 1-minute job bsld %v", wait, a, b)
		}
		want := 1 + float64(wait)/60
		if a != want {
			t.Errorf("wait %d: bsld = %v, want %v", wait, a, want)
		}
	}
}

func TestBoundedSlowdownNeverBelowOne(t *testing.T) {
	prop := func(submit int16, runtime uint16, extra uint16) bool {
		j := Job{Submit: Time(submit), Runtime: Duration(runtime)}
		start := j.Submit + Time(extra)
		return BoundedSlowdown(j, start) >= 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExcessiveWait(t *testing.T) {
	j := Job{Submit: 0, Runtime: 60}
	if got := ExcessiveWait(j, 100, 200); got != 0 {
		t.Errorf("within bound: %d, want 0", got)
	}
	if got := ExcessiveWait(j, 300, 200); got != 100 {
		t.Errorf("past bound: %d, want 100", got)
	}
	if got := ExcessiveWait(j, 200, 200); got != 0 {
		t.Errorf("exactly at bound: %d, want 0", got)
	}
}

func TestSortOrders(t *testing.T) {
	jobs := []Job{
		{ID: 3, Submit: 100},
		{ID: 1, Submit: 300},
		{ID: 2, Submit: 100},
	}
	bySubmit := append([]Job(nil), jobs...)
	sort.Sort(BySubmit(bySubmit))
	if bySubmit[0].ID != 2 || bySubmit[1].ID != 3 || bySubmit[2].ID != 1 {
		t.Errorf("BySubmit order: %v", bySubmit)
	}
	byID := append([]Job(nil), jobs...)
	sort.Sort(ByID(byID))
	if byID[0].ID != 1 || byID[1].ID != 2 || byID[2].ID != 3 {
		t.Errorf("ByID order: %v", byID)
	}
}
