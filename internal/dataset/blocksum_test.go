package dataset

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/xrand"
)

// blockTestTable builds a table whose groups are large enough to draw
// several blocks yet small enough to exhaust deliberately.
func blockTestTable(t *testing.T) *Table {
	t.Helper()
	b := NewTableBuilderColumns("delay", "dist")
	r := xrand.New(0xbeef)
	for _, name := range []string{"a", "b", "c"} {
		for i := 0; i < 300; i++ {
			if err := b.AddRow(name, math.Floor(r.Float64()*100), float64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	tab, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// drawPlan is the block sequence each equivalence case replays: uneven
// sizes, a repeat, and a final oversized block that exhausts every group
// (populations are ≤ 300) and forces the with-replacement fallback.
var drawPlan = []int{5, 64, 7, 64, 512}

// blockCase builds fresh samplers over one group family.
type blockCase struct {
	name  string
	build func(t *testing.T) *Universe
	// finite marks populations a without-replacement plan exhausts.
	finite bool
	// broker feeds the sampler from a shared Broker instead of the
	// groups' own draw paths.
	broker bool
}

// sampler returns a fresh sampler over a freshly built universe; two
// calls yield samplers that draw identical streams.
func (c blockCase) sampler(t *testing.T, without bool) *Sampler {
	u := c.build(t)
	if c.broker {
		return NewSourceSampler(u, NewBroker(u, 0x5eed, without), without)
	}
	return NewStreamSampler(u, 0x5eed, without)
}

func blockCases() []blockCase {
	tableU := func(t *testing.T) *Universe {
		u, err := blockTestTable(t).Universe(100)
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	filteredU := func(p Predicate) func(t *testing.T) *Universe {
		return func(t *testing.T) *Universe {
			v, err := blockTestTable(t).Filter(p)
			if err != nil {
				t.Fatal(err)
			}
			u, err := v.Universe(100)
			if err != nil {
				t.Fatal(err)
			}
			return u
		}
	}
	return []blockCase{
		{name: "slice", finite: true, build: func(t *testing.T) *Universe {
			r := xrand.New(0x51ce)
			mk := func(name string) *SliceGroup {
				vals := make([]float64, 250)
				for i := range vals {
					vals[i] = r.Float64() * 100
				}
				return NewSliceGroup(name, vals)
			}
			return NewUniverse(100, mk("a"), mk("b"), mk("c"))
		}},
		{name: "table", finite: true, build: tableU},
		// A dense predicate keeps the bitmap selection representation; a
		// highly selective one switches to the row-index representation.
		{name: "filtered-bitmap", finite: true, build: filteredU(Predicate{Op: OpLT, Value: 80})},
		{name: "filtered-index", finite: true, build: filteredU(Predicate{Column: "dist", Op: OpLT, Value: 40})},
		{name: "dist", build: func(t *testing.T) *Universe {
			mk := func(name string, mu float64) *DistGroup {
				return NewDistGroup(name, xrand.TruncNormal{Mu: mu, Sigma: 8, Lo: 0, Hi: 100}, 1000)
			}
			return NewUniverse(100, mk("a", 30), mk("b", 50), mk("c", 70))
		}},
		{name: "broker", finite: true, broker: true, build: tableU},
	}
}

// TestKernelMatchesGenericPath holds the block-draw contract: for every
// group family and every sampler kind, DrawBlockSum(i, n) must equal
// DrawBatch into an n-value buffer folded in draw order, bit for bit — the
// same sum, the same RNG stream advance, the same permutation and
// exhaustion state, the same counts and the same Welford moments — with
// and without replacement, across blocks that straddle exhaustion.
func TestKernelMatchesGenericPath(t *testing.T) {
	for _, tc := range blockCases() {
		for _, without := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/without=%v", tc.name, without), func(t *testing.T) {
				fast := tc.sampler(t, without)
				fast.EnableMoments(true)
				slow := tc.sampler(t, without)
				slow.EnableMoments(true)
				if _, ok := fast.DrawBlockSum(0, 0); ok {
					t.Fatal("DrawBlockSum accepted an empty block")
				}

				buf := make([]float64, 512)
				for gi := 0; gi < 3; gi++ {
					for step, n := range drawPlan {
						sum, ok := fast.DrawBlockSum(gi, n)
						if !ok {
							t.Fatalf("group %d: DrawBlockSum declined a block of %d", gi, n)
						}
						dst := buf[:n]
						slow.DrawBatch(gi, dst)
						want := 0.0
						for _, v := range dst {
							want += v
						}
						if math.Float64bits(sum) != math.Float64bits(want) {
							t.Fatalf("group %d step %d (n=%d): block sum %v, folded batch %v",
								gi, step, n, sum, want)
						}
						if fast.Exhausted(gi) != slow.Exhausted(gi) {
							t.Fatalf("group %d step %d: exhaustion flags diverge (%v vs %v)",
								gi, step, fast.Exhausted(gi), slow.Exhausted(gi))
						}
						fm, sm := fast.MomentsFor(gi), slow.MomentsFor(gi)
						if *fm != *sm {
							t.Fatalf("group %d step %d: moments diverge: %+v vs %+v", gi, step, *fm, *sm)
						}
					}
					if fast.Count(gi) != slow.Count(gi) {
						t.Fatalf("group %d: counts diverge: %d vs %d", gi, fast.Count(gi), slow.Count(gi))
					}
					if without && tc.finite && !fast.Exhausted(gi) {
						t.Fatalf("group %d: the plan never crossed the exhaustion boundary", gi)
					}
				}
				if fast.Total() != slow.Total() {
					t.Fatalf("totals diverge: %d vs %d", fast.Total(), slow.Total())
				}
			})
		}
	}
}

// TestDrawBlockSumObservesOnlyWhenAsked: with autoObserve off, the block
// path leaves the moments to the caller, exactly as DrawBatch does.
func TestDrawBlockSumObservesOnlyWhenAsked(t *testing.T) {
	s := blockCases()[0].sampler(t, false)
	s.EnableMoments(false)
	if _, ok := s.DrawBlockSum(0, 16); !ok {
		t.Fatal("DrawBlockSum declined")
	}
	if n := s.MomentsFor(0).N; n != 0 {
		t.Fatalf("moments folded %d values with autoObserve off", n)
	}
	if s.Count(0) != 16 {
		t.Fatalf("count %d, want 16", s.Count(0))
	}
}
