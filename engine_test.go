package rapidviz_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/xrand"
)

// TestWrapperQueryEquivalence pins, bit for bit, the nine query shapes
// that the package's retired free functions (Order, RoundRobin, Refine,
// Exact, Trend, TopT, OrderWithValues, OrderAllowingMistakes, Sum) used to
// run: the paper's one-sample rounds (BatchSize 1) at a fixed seed. The
// constants were recorded from those functions, so any change that moves
// one estimate bit, sample count, or top-t member of these paper-exact
// runs fails here. Groups are rebuilt for each run because materialized
// groups carry without-replacement sampling state.
func TestWrapperQueryEquivalence(t *testing.T) {
	means := []float64{20, 45, 70, 90}
	cases := []struct {
		name  string
		query rapidviz.Query
		want  string
	}{
		{"Order", rapidviz.Query{},
			"total=1629 counts=[272 311 523 523] est=[4033aadb6c3aaaa6 40469dc5a2f1193a 40515f17b3e16487 4056031863253a2e]"},
		{"RoundRobin", rapidviz.Query{Algorithm: rapidviz.AlgoRoundRobin},
			"total=2092 counts=[523 523 523 523] est=[4033b3fb06b847ec 4046b35ce7ff89df 40515f17b3e16487 4056031863253a2e]"},
		{"Refine", rapidviz.Query{Algorithm: rapidviz.AlgoIRefine},
			"total=4139 counts=[281 1286 1286 1286] est=[4033cc6a50b192c3 40468310953eed65 40519501865dbf39 405625764d4d8ef9]"},
		{"Exact", rapidviz.Query{Algorithm: rapidviz.AlgoScan},
			"total=80000 counts=[20000 20000 20000 20000] est=[40341c13376b7709 40467972e60ce920 40517cd2867060f2 4056170043fa0801]"},
		{"Trend", rapidviz.Query{Guarantee: rapidviz.GuaranteeTrend},
			"total=1629 counts=[272 311 523 523] est=[4033aadb6c3aaaa6 40469dc5a2f1193a 40515f17b3e16487 4056031863253a2e]"},
		{"TopT", rapidviz.Query{Guarantee: rapidviz.GuaranteeTopT, T: 2},
			"total=1421 counts=[64 311 523 523] est=[4032fc51af0fc155 40469dc5a2f1193a 40515f17b3e16487 4056031863253a2e] top=[D C]"},
		{"OrderWithValues", rapidviz.Query{Guarantee: rapidviz.GuaranteeValues, MaxError: 3},
			"total=42160 counts=[10540 10540 10540 10540] est=[403417f5d3de08a3 4046856299b272c3 40518220bdc2fc8e 405614effb8ecbed]"},
		{"OrderAllowingMistakes", rapidviz.Query{Guarantee: rapidviz.GuaranteeMistakes, CorrectPairs: 0.8},
			"total=1088 counts=[272 272 272 272] est=[4033aadb6c3aaaa6 4046a313ae8422a5 405150ce18eccc6a 4056100054637413]"},
		{"Sum", rapidviz.Query{Aggregate: rapidviz.AggSum},
			"total=1629 counts=[272 311 523 523] est=[41180210d99d9d50 412b9b97c1674f4b 413534946f14a337 413adec74506f185]"},
	}

	eng, err := rapidviz.NewEngine(rapidviz.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := tc.query
			q.Bound, q.Seed, q.BatchSize = 100, 32, 1
			res, err := eng.Run(context.Background(), q, mkGroups(means, 20_000, 31))
			if err != nil {
				t.Fatal(err)
			}
			if got := pinFingerprint(res); got != tc.want {
				t.Fatalf("result moved:\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}

// TestTopTWrapperEquivalence pins a larger top-t selection at the paper's
// one-sample rounds, and checks that the default auto-batch schedule
// selects the same top groups.
func TestTopTWrapperEquivalence(t *testing.T) {
	means := []float64{10, 80, 30, 90, 50}
	q := rapidviz.Query{Guarantee: rapidviz.GuaranteeTopT, T: 2, Bound: 100, Seed: 13, BatchSize: 1}
	scalar, err := rapidviz.DefaultEngine().Run(context.Background(), q, mkGroups(means, 20_000, 12))
	if err != nil {
		t.Fatal(err)
	}
	const want = "total=5284 counts=[38 2479 71 2479 217] est=[4028f2c573404b5b 4053ecc32846c2d5 403d7f445a41d0a2 405604885bebc37e 40493ea3b3ab16b6] top=[D B]"
	if got := pinFingerprint(scalar); got != want {
		t.Fatalf("result moved:\n got %s\nwant %s", got, want)
	}
	q.BatchSize = 0
	auto, err := rapidviz.DefaultEngine().Run(context.Background(), q, mkGroups(means, 20_000, 12))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(auto.Top) != fmt.Sprint(scalar.Top) {
		t.Fatalf("auto-batch top %v, scalar top %v", auto.Top, scalar.Top)
	}
}

// pinFingerprint renders a result's total, per-group counts, estimate
// bits, and (for top-t queries) the top members.
func pinFingerprint(res *rapidviz.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "total=%d counts=%v est=[", res.TotalSamples, res.SampleCounts)
	for i, e := range res.Estimates {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%016x", math.Float64bits(e))
	}
	b.WriteString("]")
	if res.Top != nil {
		fmt.Fprintf(&b, " top=%v", res.Top)
	}
	return b.String()
}

// TestRunCancellation pins the context contract: a query over groups whose
// means are exactly equal never terminates on its own (with-replacement
// sampling), so only the deadline can end it — and Run must return
// promptly with the context's error.
func TestRunCancellation(t *testing.T) {
	r := xrand.New(40)
	mk := func(name string) rapidviz.Group {
		return rapidviz.GroupFromFunc(name, 1_000_000, func() float64 { return r.Float64() * 100 })
	}
	groups := []rapidviz.Group{mk("a"), mk("b")}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()

	start := time.Now()
	_, err := rapidviz.DefaultEngine().Run(ctx, rapidviz.Query{Bound: 100}, groups)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; want prompt return", elapsed)
	}
}

// TestStream checks the streaming channel: one partial per group as it
// settles, then exactly one terminal event carrying the result.
func TestStream(t *testing.T) {
	means := []float64{10, 40, 70, 95}
	groups := mkGroups(means, 50_000, 41)
	var partials []rapidviz.Partial
	var final *rapidviz.Result
	terminals := 0
	for ev := range rapidviz.DefaultEngine().Stream(context.Background(), rapidviz.Query{Bound: 100, Seed: 42}, groups) {
		switch {
		case ev.Partial != nil:
			partials = append(partials, *ev.Partial)
		default:
			terminals++
			if ev.Err != nil {
				t.Fatal(ev.Err)
			}
			final = ev.Result
		}
	}
	if terminals != 1 || final == nil {
		t.Fatalf("want exactly one terminal result event, got %d", terminals)
	}
	if len(partials) != len(means) {
		t.Fatalf("want %d partials, got %d", len(means), len(partials))
	}
	for _, p := range partials {
		if p.Estimate != final.Estimates[p.Index] {
			t.Fatalf("partial %q (%v) disagrees with final estimate %v", p.Group, p.Estimate, final.Estimates[p.Index])
		}
	}
}

// TestStreamCancellation: a canceled stream must still terminate and close
// the channel.
func TestStreamCancellation(t *testing.T) {
	r := xrand.New(43)
	groups := []rapidviz.Group{
		rapidviz.GroupFromFunc("a", 1_000_000, func() float64 { return r.Float64() * 100 }),
		rapidviz.GroupFromFunc("b", 1_000_000, func() float64 { return r.Float64() * 100 }),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range rapidviz.DefaultEngine().Stream(ctx, rapidviz.Query{Bound: 100}, groups) {
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not terminate after cancellation")
	}
}

// TestQueryValidation pins the public-layer validation errors.
func TestQueryValidation(t *testing.T) {
	groups := mkGroups([]float64{30, 70}, 1000, 44)
	eng := rapidviz.DefaultEngine()
	ctx := context.Background()
	cases := []struct {
		name string
		q    rapidviz.Query
	}{
		{"delta too large", rapidviz.Query{Delta: 2, Bound: 100}},
		{"delta negative", rapidviz.Query{Delta: -0.1, Bound: 100}},
		{"bad correct pairs", rapidviz.Query{Guarantee: rapidviz.GuaranteeMistakes, CorrectPairs: 1.5, Bound: 100}},
		{"zero correct pairs", rapidviz.Query{Guarantee: rapidviz.GuaranteeMistakes, Bound: 100}},
		{"topt without T", rapidviz.Query{Guarantee: rapidviz.GuaranteeTopT, Bound: 100}},
		{"topt T too large", rapidviz.Query{Guarantee: rapidviz.GuaranteeTopT, T: 3, Bound: 100}},
		{"values without MaxError", rapidviz.Query{Guarantee: rapidviz.GuaranteeValues, Bound: 100}},
		{"negative resolution", rapidviz.Query{Resolution: -1, Bound: 100}},
		{"adjacency size mismatch", rapidviz.Query{Guarantee: rapidviz.GuaranteeAdjacency, Adjacency: [][]int{{1}}, Bound: 100}},
		{"cells without cell groups", rapidviz.Query{SubGroups: 2, Bound: 100}},
		{"pair agg without pair groups", rapidviz.Query{Aggregate: rapidviz.AggAvgPair, Bound: 100}},
		{"non-avg aggregate with trend", rapidviz.Query{Aggregate: rapidviz.AggSum, Guarantee: rapidviz.GuaranteeTrend, Bound: 100}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := eng.Run(ctx, tc.q, groups); err == nil {
				t.Fatalf("query %+v accepted", tc.q)
			}
		})
	}
	if _, err := eng.Run(ctx, rapidviz.Query{Bound: 100}, nil); err == nil {
		t.Fatal("empty group list accepted")
	}
}

// TestDeterministicSeedZero pins the Seed==0 sentinel fix: a Deterministic
// query with seed 0 is honored (reproducible, and distinct from the
// default-seeded stream) instead of being silently replaced.
func TestDeterministicSeedZero(t *testing.T) {
	means := []float64{30, 70}
	build := func() []rapidviz.Group { return mkGroups(means, 10_000, 45) }
	eng := rapidviz.DefaultEngine()
	ctx := context.Background()

	a, err := eng.Run(ctx, rapidviz.Query{Bound: 100, Deterministic: true}, build())
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Run(ctx, rapidviz.Query{Bound: 100, Deterministic: true}, build())
	if err != nil {
		t.Fatal(err)
	}
	def, err := eng.Run(ctx, rapidviz.Query{Bound: 100}, build())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Estimates {
		if a.Estimates[i] != b.Estimates[i] {
			t.Fatal("deterministic seed-0 runs disagree")
		}
	}
	same := a.TotalSamples == def.TotalSamples
	for i := range a.Estimates {
		if a.Estimates[i] != def.Estimates[i] {
			same = false
		}
	}
	if same {
		t.Fatal("explicit seed 0 produced the default-seed stream; sentinel still in effect")
	}
}

// TestCountQuery: with known sizes COUNT is exact and free.
func TestCountQuery(t *testing.T) {
	groups := []rapidviz.Group{
		rapidviz.GroupFromValues("x", make([]float64, 300)),
		rapidviz.GroupFromValues("y", make([]float64, 100)),
	}
	res, err := rapidviz.DefaultEngine().Run(context.Background(),
		rapidviz.Query{Aggregate: rapidviz.AggCount, Bound: 1}, groups)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimates[0] != 300 || res.Estimates[1] != 100 {
		t.Fatalf("counts %v", res.Estimates)
	}
	if res.TotalSamples != 0 {
		t.Fatalf("exact counts should take no samples, took %d", res.TotalSamples)
	}
}

// TestNormalizedCountQuery: fractional sizes estimated by membership
// sampling order like the true sizes.
func TestNormalizedCountQuery(t *testing.T) {
	groups := []rapidviz.Group{
		rapidviz.GroupFromValues("big", make([]float64, 60_000)),
		rapidviz.GroupFromValues("small", make([]float64, 20_000)),
	}
	res, err := rapidviz.DefaultEngine().Run(context.Background(),
		rapidviz.Query{Aggregate: rapidviz.AggNormalizedCount, Bound: 1, Seed: 46}, groups)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Estimates[0] > res.Estimates[1]) {
		t.Fatalf("fractional sizes out of order: %v", res.Estimates)
	}
	if math.Abs(res.Estimates[0]-0.75) > 0.15 || math.Abs(res.Estimates[1]-0.25) > 0.15 {
		t.Fatalf("fractional sizes off: %v", res.Estimates)
	}
}

// TestNormalizedSumQuery: normalized sums s_i·µ_i order correctly without
// consuming group sizes.
func TestNormalizedSumQuery(t *testing.T) {
	r := xrand.New(47)
	mk := func(name string, n int, mean float64) rapidviz.Group {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = mean + r.Float64()*4 - 2
		}
		return rapidviz.GroupFromValues(name, vals)
	}
	groups := []rapidviz.Group{mk("heavy", 10_000, 80), mk("light", 10_000, 20)}
	res, err := rapidviz.DefaultEngine().Run(context.Background(),
		rapidviz.Query{Aggregate: rapidviz.AggNormalizedSum, Bound: 100, Seed: 48}, groups)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Estimates[0] > res.Estimates[1]) {
		t.Fatalf("normalized sums out of order: %v", res.Estimates)
	}
}

// TestNoIndexQuery: the whole-table-sampling algorithm is selectable and
// orders well-separated groups correctly.
func TestNoIndexQuery(t *testing.T) {
	groups := mkGroups([]float64{20, 80}, 30_000, 49)
	res, err := rapidviz.DefaultEngine().Run(context.Background(),
		rapidviz.Query{Algorithm: rapidviz.AlgoNoIndex, Bound: 100, Seed: 50}, groups)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Estimates[0] < res.Estimates[1]) {
		t.Fatalf("no-index ordering wrong: %v", res.Estimates)
	}
	if res.TotalSamples == 0 {
		t.Fatal("no samples drawn")
	}
	if res.Rounds == 0 {
		t.Fatal("no-index run reported zero rounds")
	}
}

// TestAvgPairQuery: both aggregates of a pair query come back ordered.
func TestAvgPairQuery(t *testing.T) {
	r := xrand.New(51)
	mk := func(name string, muY, muZ float64) rapidviz.Group {
		ys := make([]float64, 20_000)
		zs := make([]float64, 20_000)
		for i := range ys {
			ys[i] = muY + r.Float64()*10 - 5
			zs[i] = muZ + r.Float64()*10 - 5
		}
		return rapidviz.GroupFromPairs(name, ys, zs)
	}
	groups := []rapidviz.Group{mk("a", 30, 70), mk("b", 70, 30)}
	res, err := rapidviz.DefaultEngine().Run(context.Background(),
		rapidviz.Query{Aggregate: rapidviz.AggAvgPair, Bound: 100, Seed: 52}, groups)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Estimates[0] < res.Estimates[1]) {
		t.Fatalf("Y ordering wrong: %v", res.Estimates)
	}
	if len(res.SecondEstimates) != 2 || !(res.SecondEstimates[0] > res.SecondEstimates[1]) {
		t.Fatalf("Z ordering wrong: %v", res.SecondEstimates)
	}
}

// TestCellQuery: the multiple-group-by setting estimates every (group,
// key) cell in the right relative order.
func TestCellQuery(t *testing.T) {
	r := xrand.New(53)
	cell := func(mu float64) []float64 {
		vals := make([]float64, 10_000)
		for i := range vals {
			vals[i] = mu + r.Float64()*6 - 3
		}
		return vals
	}
	truth := [][]float64{{10, 40}, {70, 95}}
	groups := []rapidviz.Group{
		rapidviz.GroupFromCells("x0", [][]float64{cell(truth[0][0]), cell(truth[0][1])}),
		rapidviz.GroupFromCells("x1", [][]float64{cell(truth[1][0]), cell(truth[1][1])}),
	}
	res, err := rapidviz.DefaultEngine().Run(context.Background(),
		rapidviz.Query{SubGroups: 2, Bound: 100, Seed: 54, MaxDraws: 5_000_000}, groups)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CellEstimates) != 2 || len(res.CellEstimates[0]) != 2 {
		t.Fatalf("cell shape %v", res.CellEstimates)
	}
	for x := 0; x < 2; x++ {
		for z := 0; z < 2; z++ {
			if math.Abs(res.CellEstimates[x][z]-truth[x][z]) > 15 {
				t.Fatalf("cell (%d,%d) estimate %v far from %v", x, z, res.CellEstimates[x][z], truth[x][z])
			}
		}
	}
	bars := res.Bars()
	if len(bars) != 4 {
		t.Fatalf("want one bar per cell, got %d", len(bars))
	}
	if bars[0].Label != "x0/0" || bars[3].Label != "x1/1" {
		t.Fatalf("cell bar labels wrong: %q %q", bars[0].Label, bars[3].Label)
	}
	if bars[2].Value != res.CellEstimates[1][0] {
		t.Fatalf("cell bar values misaligned: %v", bars)
	}
}

// TestAdjacencyQuery: the chloropleth guarantee is reachable with a custom
// neighbour graph.
func TestAdjacencyQuery(t *testing.T) {
	means := []float64{20, 40, 60, 80}
	groups := mkGroups(means, 50_000, 55)
	adj := [][]int{{1}, {0, 2}, {1, 3}, {2}}
	res, err := rapidviz.DefaultEngine().Run(context.Background(),
		rapidviz.Query{Guarantee: rapidviz.GuaranteeAdjacency, Adjacency: adj, Bound: 100, Seed: 56}, groups)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(means); i++ {
		if !(res.Estimates[i] < res.Estimates[i+1]) {
			t.Fatalf("adjacent pair %d out of order: %v", i, res.Estimates)
		}
	}
}

// TestConcurrentRuns exercises the bounded worker pool: many concurrent
// queries on a small engine must all complete and agree (each goroutine
// samples its own freshly built groups).
func TestConcurrentRuns(t *testing.T) {
	eng, err := rapidviz.NewEngine(rapidviz.EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	means := []float64{25, 75}
	const parallel = 8
	totals := make([]int64, parallel)
	errs := make([]error, parallel)
	var wg sync.WaitGroup
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := eng.Run(context.Background(), rapidviz.Query{Bound: 100, Seed: 57}, mkGroups(means, 10_000, 58))
			if err != nil {
				errs[i] = err
				return
			}
			totals[i] = res.TotalSamples
		}(i)
	}
	wg.Wait()
	for i := 0; i < parallel; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if totals[i] != totals[0] {
			t.Fatalf("concurrent runs disagree: %v", totals)
		}
	}
}
