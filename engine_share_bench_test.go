package rapidviz

import (
	"context"
	"sync"
	"testing"
)

// BenchmarkSharedSamples measures the point of the broker: eight identical
// concurrent ifocus queries over one table, with and without sample
// sharing. "logical" samples are what the queries consumed (Σ TotalSamples);
// "physical" samples are what actually hit the data. Solo, the two are
// equal; shared, physical collapses toward one query's worth, and the
// reduction_x metric (logical/physical) should approach the subscriber
// count — the acceptance floor is 5x. A start barrier releases the eight
// queries together once all are spawned, so every subscriber attaches to a
// live broker rather than to one a faster predecessor already retired.
func BenchmarkSharedSamples(b *testing.B) {
	tab := whereTestTable(b, 20000)
	const concurrent = 8
	query := Query{Seed: 7, Bound: 100, Resolution: 1, BatchSize: 64}

	run := func(b *testing.B, share bool) {
		eng, err := NewEngine(EngineConfig{Workers: 2 * concurrent, ShareSamples: share})
		if err != nil {
			b.Fatal(err)
		}
		var logical, physical int64
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			results := make([]*Result, concurrent)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < concurrent; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					<-start
					res, err := eng.Run(context.Background(), query, tab.View())
					if err != nil {
						b.Error(err)
						return
					}
					results[i] = res
				}(i)
			}
			close(start)
			wg.Wait()
			if b.Failed() {
				return
			}
			for _, res := range results {
				logical += res.TotalSamples
			}
		}
		b.StopTimer()
		if share {
			physical = eng.BrokerStats().SamplesDrawn
		} else {
			physical = logical
		}
		b.ReportMetric(float64(logical)/float64(b.N), "logical-samples/op")
		b.ReportMetric(float64(physical)/float64(b.N), "physical-samples/op")
		if physical > 0 {
			b.ReportMetric(float64(logical)/float64(physical), "reduction_x")
		}
	}

	b.Run("solo", func(b *testing.B) { run(b, false) })
	b.Run("shared", func(b *testing.B) { run(b, true) })
}
