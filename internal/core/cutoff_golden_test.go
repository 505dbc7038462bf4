package core

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"schedsearch/internal/sim"
)

var updateCutoffs = flag.Bool("update", false, "rewrite testdata/cutoffs.golden")

// cutoffSweepMaxNodes caps the full tree size of a swept configuration:
// a sweep runs one search per budget 1..T, so its cost grows with T².
const cutoffSweepMaxNodes = 3000

// cutoffRecord is everything a budgeted decision makes observable.
type cutoffRecord struct {
	nodes    int64
	counters string // Leaves, Pruned, BudgetHit and the leafHook digest
	schedule string // LastCost, committed starts and planned starts
}

// cutoffDecide runs one sequential decision at the given budget and
// formats its observables: committed starts, planned starts, LastCost,
// Leaves, Pruned, BudgetHit and a digest of the leafHook sequence
// (every complete path with its cost, in exploration order).
func cutoffDecide(sch *Scheduler, snap *sim.Snapshot, limit int) cutoffRecord {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	sch.NodeLimit = limit
	sch.s.leafHook = func(path []int, c Cost) {
		for _, oi := range path {
			put(uint64(oi))
		}
		put(math.Float64bits(c[0]))
		put(math.Float64bits(c[1]))
	}
	starts := sch.Decide(snap)
	sch.s.leafHook = nil
	d := sch.LastDecision()
	var b bytes.Buffer
	fmt.Fprintf(&b, "cost=%x,%x starts=%v plan=[",
		math.Float64bits(sch.LastCost()[0]), math.Float64bits(sch.LastCost()[1]), starts)
	for i, p := range sch.LastPlan() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d", p.JobID, p.Planned)
	}
	b.WriteByte(']')
	return cutoffRecord{
		nodes:    d.Nodes,
		counters: fmt.Sprintf("leaves=%d pruned=%d hit=%t leafs=%016x", d.Leaves, d.Pruned, d.BudgetHit, h.Sum64()),
		schedule: b.String(),
	}
}

// cutoffGolden sweeps every node budget from 1 to the full tree size for
// seeded random snapshots (n <= 9) × {LDS, DDS, ADDS, CDDS} × prune
// off/on. It writes a budget's counters only where they, or the node
// count's offset from the budget, differ from the budget before (an
// omitted budget L repeats the line above it with nodes = L + the same
// offset), and a schedule line only where the committed schedule
// changes, so the text pins every budget exactly.
func cutoffGolden(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	rng := rand.New(rand.NewSource(1409))
	for trial := 0; trial < 9; trial++ {
		n := 1 + trial
		snap := randomSnapshot(rng, n)
		for _, algo := range []Algorithm{LDS, DDS, ADDS, CDDS} {
			for _, prune := range []bool{false, true} {
				sch := New(algo, HeuristicLXF, DynamicBound(), 1)
				sch.Prune = prune
				full := cutoffDecide(sch, snap, 1<<30)
				if full.nodes > cutoffSweepMaxNodes {
					continue
				}
				fmt.Fprintf(&out, "# trial %d n=%d %s prune=%t tree=%d\n", trial, n, algo, prune, full.nodes)
				var prev cutoffRecord
				prevOff := int64(-1)
				for limit := 1; limit <= int(full.nodes); limit++ {
					r := cutoffDecide(sch, snap, limit)
					if r.schedule != prev.schedule {
						fmt.Fprintf(&out, "  %s\n", r.schedule)
					}
					off := r.nodes - int64(limit)
					if r.counters != prev.counters || r.schedule != prev.schedule || off != prevOff {
						fmt.Fprintf(&out, "L=%d nodes=%d %s\n", limit, r.nodes, r.counters)
					}
					prev, prevOff = r, off
				}
				if r := cutoffDecide(sch, snap, int(full.nodes)); r != full {
					t.Fatalf("trial %d %s prune=%t: budget = tree size gives %+v, unlimited %+v",
						trial, algo, prune, r, full)
				}
			}
		}
	}
	return out.Bytes()
}

// TestBudgetCutoffGolden pins the budget cutoff at every node position,
// including positions inside heuristic-only path suffixes, against
// goldens recorded before those suffixes became a flat loop.
func TestBudgetCutoffGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("budget sweep")
	}
	got := cutoffGolden(t)
	path := filepath.Join("testdata", "cutoffs.golden")
	if *updateCutoffs {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestBudgetCutoffGolden -update ./internal/core` to create)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("cutoff golden differs at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("cutoff golden differs in length: %d lines, want %d", len(gl), len(wl))
	}
}
