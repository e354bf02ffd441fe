package rapidviz

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestBrokerMatchesSolo is the sharing acceptance pin: for every shareable
// algorithm × confidence bound × batch size × filter shape, eight
// concurrent broker-fed queries return bit-for-bit the result of a solo
// run — sharing changes who pays for the draws, never their values. Run
// under -race this also exercises the broker's concurrent fan-out.
func TestBrokerMatchesSolo(t *testing.T) {
	tab := whereTestTable(t, 2000)
	solo, shared := sharingEngines(t, 16)

	type shape struct {
		name  string
		query Query
	}
	var shapes []shape
	for _, algo := range []Algorithm{AlgoAuto, AlgoRoundRobin} {
		for _, bound := range []string{BoundHoeffding, BoundBernstein} {
			for _, batch := range []int{1, 64} {
				for _, where := range []bool{false, true} {
					q := Query{
						Algorithm:       algo,
						ConfidenceBound: bound,
						BatchSize:       batch,
						Seed:            42,
						Bound:           100,
						Resolution:      2,
					}
					if where {
						q.Where = []Predicate{Where("qty", OpGE, 5)}
					}
					shapes = append(shapes, shape{
						name:  fmt.Sprintf("algo=%v/bound=%s/batch=%d/where=%t", algo, bound, batch, where),
						query: q,
					})
				}
			}
		}
	}

	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			res := mustRun(t, solo, sh.query, tab)
			if res.Shared {
				t.Fatal("solo run reported Shared")
			}
			want := resultFingerprint(res)

			const concurrent = 8
			results := make([]*Result, concurrent)
			errs := make([]error, concurrent)
			var wg sync.WaitGroup
			for i := 0; i < concurrent; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					results[i], errs[i] = shared.Run(context.Background(), sh.query, tab.View())
				}(i)
			}
			wg.Wait()
			for i := 0; i < concurrent; i++ {
				if errs[i] != nil {
					t.Fatalf("shared run %d: %v", i, errs[i])
				}
				if !results[i].Shared {
					t.Fatalf("shared run %d did not attach to a broker", i)
				}
				if got := resultFingerprint(results[i]); got != want {
					t.Fatalf("shared run %d diverged from solo:\n got %s\nwant %s", i, got, want)
				}
			}
		})
	}

	stats := shared.BrokerStats()
	if stats.Active != 0 {
		t.Fatalf("brokers leaked: %d still active", stats.Active)
	}
	if stats.Attached == 0 || stats.SamplesServed < stats.SamplesDrawn {
		t.Fatalf("implausible broker stats: %+v", stats)
	}
}

// TestShareSamplesLateSubscriber pins engine-level catch-up: a query that
// subscribes after another already drove the broker's streams deep folds
// the retained prefix and still matches its solo result exactly.
func TestShareSamplesLateSubscriber(t *testing.T) {
	tab := whereTestTable(t, 2000)
	solo, shared := sharingEngines(t, 4)
	// An early long-running query (tight resolution → many rounds) holds
	// the broker open while a quick late query attaches mid-stream.
	early := Query{Seed: 9, Bound: 100, Resolution: 0.5, BatchSize: 64}
	late := Query{Seed: 9, Bound: 100, Resolution: 4, BatchSize: 64}

	soloLate := mustRun(t, solo, late, tab)

	var wg sync.WaitGroup
	wg.Add(1)
	started := make(chan struct{})
	var earlyErr error
	go func() {
		defer wg.Done()
		close(started)
		_, earlyErr = shared.Run(context.Background(), early, tab.View())
	}()
	<-started
	sharedLate, err := shared.Run(context.Background(), late, tab.View())
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if earlyErr != nil {
		t.Fatal(earlyErr)
	}
	if got, want := resultFingerprint(sharedLate), resultFingerprint(soloLate); got != want {
		t.Fatalf("late subscriber diverged from its solo run:\n got %s\nwant %s", got, want)
	}
}

// TestShareSamplesCrossFingerprint pins that queries with different
// fingerprints (different δ here) share one broker — the broker key is
// (table, filter, mode, seed), not the full query — and each still matches
// its own solo run.
func TestShareSamplesCrossFingerprint(t *testing.T) {
	tab := whereTestTable(t, 2000)
	solo, shared := sharingEngines(t, 8)
	qa := Query{Seed: 5, Bound: 100, Resolution: 2, Delta: 0.05, BatchSize: 64}
	qb := Query{Seed: 5, Bound: 100, Resolution: 2, Delta: 0.2, BatchSize: 64}
	if shared.Fingerprint(qa) == shared.Fingerprint(qb) {
		t.Fatal("test needs distinct fingerprints")
	}
	wantA := resultFingerprint(mustRun(t, solo, qa, tab))
	wantB := resultFingerprint(mustRun(t, solo, qb, tab))

	var wg sync.WaitGroup
	var gotA, gotB *Result
	var errA, errB error
	wg.Add(2)
	go func() { defer wg.Done(); gotA, errA = shared.Run(context.Background(), qa, tab.View()) }()
	go func() { defer wg.Done(); gotB, errB = shared.Run(context.Background(), qb, tab.View()) }()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if got := resultFingerprint(gotA); got != wantA {
		t.Fatalf("δ=0.05 shared run diverged:\n got %s\nwant %s", got, wantA)
	}
	if got := resultFingerprint(gotB); got != wantB {
		t.Fatalf("δ=0.2 shared run diverged:\n got %s\nwant %s", got, wantB)
	}
}

// TestShareSamplesFallbackShapes pins the advisory fallback: ineligible
// shapes run solo — same result, Shared false — rather than erroring.
func TestShareSamplesFallbackShapes(t *testing.T) {
	tab := whereTestTable(t, 500)
	solo, shared := sharingEngines(t, 0)
	for _, q := range []Query{
		{Algorithm: AlgoIRefine, Seed: 3, Bound: 100, Resolution: 2},
		{Algorithm: AlgoNoIndex, Seed: 3, Bound: 100, Resolution: 2},
		{Aggregate: AggNormalizedSum, Seed: 3, Bound: 100, Resolution: 2},
	} {
		want := resultFingerprint(mustRun(t, solo, q, tab))
		res, err := shared.Run(context.Background(), q, tab.View())
		if err != nil {
			t.Fatalf("fallback shape %v errored: %v", q.Algorithm, err)
		}
		if res.Shared {
			t.Fatalf("ineligible shape %v/%v reported Shared", q.Algorithm, q.Aggregate)
		}
		if got := resultFingerprint(res); got != want {
			t.Fatalf("fallback shape diverged:\n got %s\nwant %s", got, want)
		}
	}
}

// sharingEngines returns two engines with the given worker count, one
// running every query solo and one with the sample broker on.
func sharingEngines(t *testing.T, workers int) (solo, shared *Engine) {
	t.Helper()
	solo, err := NewEngine(EngineConfig{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	shared, err = NewEngine(EngineConfig{Workers: workers, ShareSamples: true})
	if err != nil {
		t.Fatal(err)
	}
	return solo, shared
}

func mustRun(t *testing.T, eng *Engine, q Query, tab *Table) *Result {
	t.Helper()
	res, err := eng.Run(context.Background(), q, tab.View())
	if err != nil {
		t.Fatal(err)
	}
	return res
}
