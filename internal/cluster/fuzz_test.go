package cluster

import (
	"slices"
	"testing"
)

// FuzzProfileOps drives the profile with an op sequence decoded from
// fuzz bytes and checks invariants after every operation, cross-checking
// FreeAt against a brute-force reference and the fused PlaceEarliest
// against both the reference and EarliestFit followed by Place. A copy
// op copies the profile into a reused scratch profile and places on the
// copy; from then on source and copy must each match their own Clone
// oracle, whichever of them the later ops mutate.
func FuzzProfileOps(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2, 1})
	// Fits from the origin, one second past it and further on, fused
	// and split, over earlier placements.
	f.Add([]byte{0, 0, 48, 1, 3, 7, 40, 200, 3, 15, 59, 20, 0, 3, 10, 35, 3, 9, 30, 130, 1, 0, 0, 0, 3, 4, 5, 60})
	// Copies taken over placements, placed on, then outlived by source
	// mutations and undos, and recopied into the grown scratch storage.
	f.Add([]byte{0, 5, 30, 10, 0, 3, 12, 0, 4, 7, 20, 5, 0, 2, 50, 0, 1, 0, 0, 0, 4, 15, 9, 40, 4, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		const capacity = 16
		const horizon = 256
		p := New(capacity, 0)
		ref := newNaive(capacity, 0, horizon)
		var cp Profile             // scratch copy, its storage reused by every copy op
		cpWant := New(capacity, 0) // Clone oracle of cp
		type placed struct {
			pl    Placement
			t     Time
			nodes int
			d     Duration
		}
		var stack []placed
		for i := 0; i+3 < len(data); i += 4 {
			op := data[i] % 5
			nodes := int(data[i+1])%capacity + 1
			d := Duration(data[i+2])%60 + 1
			after := Time(data[i+3]) % (horizon / 2)
			if op == 3 && data[i+3] >= horizon/2 {
				after = 0 // the origin, as every search fit asks
			}
			switch op {
			case 0: // place at earliest fit
				got := p.EarliestFit(after, nodes, d)
				want := ref.earliestFit(after, nodes, d)
				if got != want {
					t.Fatalf("EarliestFit(%d, %d, %d) = %d, want %d", after, nodes, d, got, want)
				}
				if int(got)+int(d) >= horizon {
					continue
				}
				stack = append(stack, placed{pl: p.Place(got, nodes, d), t: got, nodes: nodes, d: d})
				ref.place(got, nodes, d)
			case 1: // undo last
				if len(stack) == 0 {
					continue
				}
				last := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				p.Undo(last.pl)
				ref.unplace(last.t, last.nodes, last.d)
			case 2: // check free capacity
				if got, want := p.FreeAt(after), ref.free[after]; got != want {
					t.Fatalf("FreeAt(%d) = %d, want %d", after, got, want)
				}
			case 3: // fused fit and place
				want := ref.earliestFit(after, nodes, d)
				if int(want)+int(d) >= horizon {
					continue
				}
				before := p.Clone()
				split := p.Clone()
				splitAt := split.EarliestFit(after, nodes, d)
				split.Place(splitAt, nodes, d)
				got, pl := p.PlaceEarliest(after, nodes, d)
				if got != want || splitAt != want {
					t.Fatalf("PlaceEarliest(%d, %d, %d) = %d, EarliestFit = %d, want %d",
						after, nodes, d, got, splitAt, want)
				}
				ref.place(got, nodes, d)
				if free, wantFree := p.FreeAt(got), ref.free[got]; free != wantFree {
					t.Fatalf("FreeAt(%d) after PlaceEarliest = %d, want %d", got, free, wantFree)
				}
				if !slices.Equal(p.steps, split.steps) {
					t.Fatalf("PlaceEarliest left %v, EarliestFit+Place %v", p.steps, split.steps)
				}
				p.Undo(pl)
				if !slices.Equal(p.steps, before.steps) {
					t.Fatalf("Undo of PlaceEarliest left %v, want %v", p.steps, before.steps)
				}
				_, pl = p.PlaceEarliest(after, nodes, d)
				stack = append(stack, placed{pl: pl, t: got, nodes: nodes, d: d})
			case 4: // copy, then place on the copy only
				source := p.Clone()
				cp.CopyFrom(p)
				cpWant = p.Clone()
				if cp.capacity != capacity || !slices.Equal(cp.steps, cpWant.steps) {
					t.Fatalf("CopyFrom left %d %v, Clone %d %v", cp.capacity, cp.steps, capacity, cpWant.steps)
				}
				at := cp.EarliestFit(after, nodes, d)
				if int(at)+int(d) >= horizon {
					continue
				}
				cp.Place(at, nodes, d)
				cpWant.Place(at, nodes, d)
				if !slices.Equal(p.steps, source.steps) {
					t.Fatalf("placing on the copy changed the source to %v, want %v", p.steps, source.steps)
				}
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if err := cpWant.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if cp.steps == nil {
				continue // no copy taken yet
			}
			if !slices.Equal(cp.steps, cpWant.steps) {
				t.Fatalf("copy is %v after op %d, want %v", cp.steps, op, cpWant.steps)
			}
			if err := cp.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
