package rapidviz

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// endlessGroups returns func-backed groups whose estimates can never
// separate (every draw returns the same value), so a query over them runs
// until its context is canceled.
func endlessGroups(k int) []Group {
	groups := make([]Group, k)
	for i := range groups {
		groups[i] = GroupFromFunc(fmt.Sprintf("g%d", i), 1_000_000, func() float64 { return 50 })
	}
	return groups
}

// waitGoroutines polls until the goroutine count drops back to at most
// want, failing with a stack dump if it does not within the deadline.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines did not drain: have %d, want <= %d\n%s",
				runtime.NumGoroutine(), want, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamCancelNoGoroutineLeak pins Engine.Stream's abandonment
// contract: canceling the context mid-stream must close every channel
// promptly and release all query goroutines and worker slots — both for
// consumers that keep draining and for consumers that abandoned the
// channel without reading a single event.
func TestStreamCancelNoGoroutineLeak(t *testing.T) {
	eng, err := NewEngine(EngineConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	const streams = 8 // twice the pool: half run, half wait in admission
	ctx, cancel := context.WithCancel(context.Background())
	chans := make([]<-chan Event, streams)
	for i := range chans {
		// Odd streams are abandoned outright: nobody ever reads them.
		chans[i] = eng.Stream(ctx, Query{Bound: 100}, endlessGroups(3))
	}
	// Let the admitted queries reach their sampling loops.
	time.Sleep(50 * time.Millisecond)
	cancel()

	for i, ch := range chans {
		if i%2 == 1 {
			continue // abandoned: the buffered channel absorbs the terminal
		}
		var terminal *Event
		for ev := range ch {
			ev := ev
			terminal = &ev
		}
		if terminal == nil {
			t.Fatalf("stream %d closed without a terminal event", i)
		}
		if !errors.Is(terminal.Err, context.Canceled) {
			t.Fatalf("stream %d terminal error = %v, want context.Canceled", i, terminal.Err)
		}
	}

	// Every query goroutine — including those serving abandoned channels —
	// must exit once the context is gone.
	waitGoroutines(t, baseline)
	if got := eng.InFlight(); got != 0 {
		t.Fatalf("InFlight() = %d after cancellation, want 0", got)
	}
}

// TestViewCacheStats pins the hit/miss/eviction counters on the
// predicate-view cache: the first Where query with a given fingerprint is
// a miss, repeats are hits, and overflowing the cache evicts (flushes) the
// stored entries.
func TestViewCacheStats(t *testing.T) {
	table := whereTestTable(t, 200)
	eng, err := NewEngine(EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run := func(preds ...Predicate) {
		t.Helper()
		q := Query{Algorithm: AlgoScan, Bound: table.MaxValue(), Where: preds}
		if _, err := eng.Run(ctx, q, table.View()); err != nil {
			t.Fatal(err)
		}
	}

	run(Where("qty", OpGE, 5))
	if s := eng.ViewCacheStats(); s.Hits != 0 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("after first filtered query: %+v, want 0 hits / 1 miss / 1 entry", s)
	}
	// Same predicate, written in a different conjunct order: one
	// fingerprint, so a hit.
	run(Where("qty", OpGE, 5))
	run(WhereValue(OpGE, 0), Where("qty", OpGE, 5))
	run(Where("qty", OpGE, 5), WhereValue(OpGE, 0))
	s := eng.ViewCacheStats()
	if s.Hits != 2 || s.Misses != 2 || s.Evictions != 0 || s.Entries != 2 {
		t.Fatalf("stats = %+v, want 2 hits / 2 misses / 0 evictions / 2 entries", s)
	}

	// Overflow the 64-entry bound: the store path flushes everything, and
	// the flush is accounted as evictions.
	for i := 0; i < maxCachedViews+1; i++ {
		run(Where("qty", OpGE, float64(i)/1000))
	}
	s = eng.ViewCacheStats()
	if s.Evictions != maxCachedViews {
		t.Fatalf("evictions = %d after overflow, want %d", s.Evictions, maxCachedViews)
	}
	if s.Entries < 1 || s.Entries > maxCachedViews {
		t.Fatalf("entries = %d after flush, want within (0, %d]", s.Entries, maxCachedViews)
	}
}

// TestAdmissionHookAndInFlight pins the serving observability surface: the
// OnAdmission hook fires once per admitted query with its slot wait, a
// query that queues behind a full pool reports a positive wait, and
// InFlight tracks slot occupancy back down to zero.
func TestAdmissionHookAndInFlight(t *testing.T) {
	var mu sync.Mutex
	var waits []time.Duration
	eng, err := NewEngine(EngineConfig{
		Workers: 1,
		OnAdmission: func(w time.Duration) {
			mu.Lock()
			waits = append(waits, w)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Capacity() != 1 {
		t.Fatalf("Capacity() = %d, want 1", eng.Capacity())
	}

	ctx, cancel := context.WithCancel(context.Background())
	first := eng.Stream(ctx, Query{Bound: 100}, endlessGroups(2))
	deadline := time.Now().Add(5 * time.Second)
	for eng.InFlight() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first query never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	done := make(chan error, 1)
	go func() {
		groups := []Group{GroupFromValues("a", []float64{1, 2, 3})}
		_, err := eng.Run(context.Background(), Query{Algorithm: AlgoScan, Bound: 10}, groups)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the second query queue
	cancel()                          // frees the slot
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for range first {
	}

	mu.Lock()
	defer mu.Unlock()
	if len(waits) != 2 {
		t.Fatalf("OnAdmission fired %d times, want 2", len(waits))
	}
	if waits[1] <= 0 {
		t.Fatalf("queued query reported wait %v, want > 0", waits[1])
	}
	if got := eng.InFlight(); got != 0 {
		t.Fatalf("InFlight() = %d after both queries, want 0", got)
	}
}

// TestQueryFingerprint pins the canonicalization contract behind the
// whole-query result cache: engine defaults resolve before encoding,
// result-neutral knobs are excluded, and every result-bearing knob changes
// the fingerprint.
func TestQueryFingerprint(t *testing.T) {
	eng, err := NewEngine(EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	base := eng.Fingerprint(Query{})

	same := []Query{
		{Delta: 0.05},                  // explicit engine default
		{ConfidenceBound: "hoeffding"}, // explicit default bound
		{Workers: 8},                   // worker invariance: excluded
		{Workers: 1},
		{Seed: 0x5eedf00d}, // the engine's default seed, spelled out
		{OnRound: func(RoundTrace) {}},
	}
	for i, q := range same {
		if got := eng.Fingerprint(q); got != base {
			t.Fatalf("same[%d]: fingerprint diverged\n got %s\nwant %s", i, got, base)
		}
	}

	diff := []Query{
		{Delta: 0.01},
		{Seed: 7},
		{Deterministic: true}, // resolved seed 0, not the default seed
		{BatchSize: 64},
		{MaxRounds: 10},
		{MaxDraws: 1000},
		{Bound: 100},
		{Resolution: 0.5},
		{WithReplacement: true},
		{ConfidenceBound: "bernstein"},
		{Algorithm: AlgoRoundRobin},
		{Aggregate: AggSum},
		{Guarantee: GuaranteeTrend},
		{Guarantee: GuaranteeTopT, T: 2},
		{Where: []Predicate{Where("qty", OpGE, 5)}},
	}
	seen := map[string]int{base: -1}
	for i, q := range diff {
		fp := eng.Fingerprint(q)
		if j, dup := seen[fp]; dup {
			t.Fatalf("diff[%d] collides with case %d: %s", i, j, fp)
		}
		seen[fp] = i
	}

	// Where conjunct order is canonicalized away.
	a := eng.Fingerprint(Query{Where: []Predicate{Where("qty", OpGE, 5), WhereValue(OpLT, 9)}})
	b := eng.Fingerprint(Query{Where: []Predicate{WhereValue(OpLT, 9), Where("qty", OpGE, 5)}})
	if a != b {
		t.Fatalf("predicate order changed the fingerprint:\n%s\n%s", a, b)
	}

	// An engine with different defaults fingerprints the zero query
	// differently — the defaults are part of the resolved query.
	eng2, err := NewEngine(EngineConfig{Delta: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if eng2.Fingerprint(Query{}) == base {
		t.Fatal("engine defaults did not resolve into the fingerprint")
	}
}
