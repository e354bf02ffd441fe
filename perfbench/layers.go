package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/colcodec"
	"repro/internal/conc"
	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/xrand"
)

// Replays time each layer's public entry points on the workload's own
// data, outside any query, so a layer's cost per unit of work can be read
// next to the end-to-end figures. Each replay reports the median of a few
// repetitions.
const replayReps = 3

// xrandNsPerDraw times the per-group RNG stream drawing row indices.
func xrandNsPerDraw(seed uint64) float64 {
	const n = 4_000_000
	return medianOf(5, func() float64 {
		r := xrand.Stream(seed, 1)
		var acc int
		t0 := time.Now()
		for i := 0; i < n; i++ {
			acc += r.Intn(1 << 20)
		}
		d := time.Since(t0)
		sink += float64(acc)
		return float64(d) / n
	})
}

// sink keeps replay results observable so loops are not optimized away.
var sink float64

// randomReadNs is the machine reference for a gather: independent random
// 8-byte reads over a buffer the size of the workload's value column.
func randomReadNs(rows int64, seed uint64) float64 {
	buf := make([]float64, rows)
	for i := range buf {
		buf[i] = float64(i)
	}
	const n = 4_000_000
	return medianOf(replayReps, func() float64 {
		x := seed | 1
		acc := 0.0
		t0 := time.Now()
		for i := 0; i < n; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			acc += buf[x%uint64(len(buf))]
		}
		d := time.Since(t0)
		sink += acc
		return float64(d) / n
	})
}

// drawNsPerSample replays fused block draws (Sampler.DrawBlockSum) over
// every group of the table, without replacement, at the auto-batch block
// schedule (64 doubling to 4096), until half of each group or maxSamples
// are drawn; it returns ns per sample.
func drawNsPerSample(table *rapidviz.Table, seed uint64) float64 {
	const maxSamples = 3_000_000
	groups := table.View()
	perGroup := int64(maxSamples / len(groups))
	return medianOf(replayReps, func() float64 {
		u := dataset.NewUniverse(table.MaxValue(), table.View()...)
		s := dataset.NewStreamSampler(u, seed, true)
		s.EnableBlockKernels()
		var total int64
		acc := 0.0
		t0 := time.Now()
		for i, g := range groups {
			limit := min(g.Size()/2, perGroup)
			var drawn int64
			for m := 1; ; m++ {
				b := min(64<<min(m-1, 6), 4096)
				if drawn+int64(b) > limit {
					break
				}
				sum, ok := s.DrawBlockSum(i, b)
				if !ok {
					panic("perfbench: table groups have no block kernel")
				}
				acc += sum
				drawn += int64(b)
			}
			total += drawn
		}
		d := time.Since(t0)
		sink += acc
		return float64(d) / float64(total)
	})
}

// scalarDrawNs replays one-sample draws (Sampler.Draw) round-robin over
// the groups, the paper's BatchSize 1 round shape.
func scalarDrawNs(table *rapidviz.Table, seed uint64) float64 {
	const maxSamples = 2_000_000
	groups := table.View()
	rounds := maxSamples / len(groups)
	var minSize int64 = math.MaxInt64
	for _, g := range groups {
		minSize = min(minSize, g.Size())
	}
	rounds = min(rounds, int(minSize/2))
	return medianOf(replayReps, func() float64 {
		u := dataset.NewUniverse(table.MaxValue(), table.View()...)
		s := dataset.NewStreamSampler(u, seed, true)
		acc := 0.0
		t0 := time.Now()
		for m := 0; m < rounds; m++ {
			for i := range groups {
				acc += s.Draw(i)
			}
		}
		d := time.Since(t0)
		sink += acc
		return float64(d) / float64(rounds*len(groups))
	})
}

// decodeNsPerValue encodes the value column in the segment block length
// (untimed) and times colcodec.DecodeBlock over every block.
func decodeNsPerValue(mem *rapidviz.Table) float64 {
	var vals []float64
	for i := 0; i < mem.K(); i++ {
		vals = append(vals, mem.Column(i)...)
	}
	var blocks [][]byte
	for lo := 0; lo < len(vals); lo += dataset.DefaultBlockLen {
		hi := min(lo+dataset.DefaultBlockLen, len(vals))
		blk, _ := colcodec.EncodeBlock(nil, vals[lo:hi])
		blocks = append(blocks, blk)
	}
	dst := make([]float64, 0, dataset.DefaultBlockLen)
	return medianOf(replayReps, func() float64 {
		t0 := time.Now()
		for _, blk := range blocks {
			out, _, _, err := colcodec.DecodeBlock(dst[:0], blk)
			if err != nil {
				panic(fmt.Sprintf("perfbench: decoding a block just encoded: %v", err))
			}
			sink += out[0]
		}
		return float64(time.Since(t0)) / float64(len(vals))
	})
}

// radiusNs times one confidence-radius evaluation of each kind the
// workload uses at its group count and value bound: Bound.Radius for
// Bernstein, the shared Schedule.EpsilonN step for Hoeffding.
func radiusNs(c float64, k int, n int64) (bernstein, hoeffding float64) {
	const calls = 1_000_000
	b := conc.MustBound(conc.KindBernstein, c, k, 0.05, 1)
	var mom conc.Moments
	for i := 0; i < 64; i++ {
		mom.Add(float64(i%17) * c / 17)
	}
	bernstein = medianOf(replayReps, func() float64 {
		acc := 0.0
		t0 := time.Now()
		for m := 1; m <= calls; m++ {
			acc += b.Radius(m, n, &mom)
		}
		d := time.Since(t0)
		sink += acc
		return float64(d) / calls
	})
	s := conc.MustSchedule(c, k, 0.05, 1, n)
	hoeffding = medianOf(replayReps, func() float64 {
		acc := 0.0
		t0 := time.Now()
		for m := 1; m <= calls; m++ {
			acc += s.EpsilonN(m, n)
		}
		d := time.Since(t0)
		sink += acc
		return float64(d) / calls
	})
	return bernstein, hoeffding
}

// filterReplay times Table.Filter once per distinct predicate (no cache
// in between) and returns the mean time and the mean share of rows kept.
func filterReplay(table *rapidviz.Table, preds []rapidviz.Predicate) (msPer, selectivity float64, err error) {
	var times, sel []float64
	for _, p := range preds {
		t0 := time.Now()
		v, err := table.Filter(p)
		if err != nil {
			return 0, 0, err
		}
		times = append(times, ms(time.Since(t0)))
		sel = append(sel, float64(v.NumRows())/float64(table.NumRows()))
	}
	return mean(times), mean(sel), nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// span is one traced interval in µs: since the core replay began for
// library spans, since the stream was dialed for serve spans.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Parent string  `json:"parent,omitempty"`
	Query  int     `json:"query"`
}

// querySpans converts a traced query into its spans: the query itself,
// admission wait, planning (admission to the first completed round), the
// round loop, and the tail from the last round to the terminal event.
func querySpans(rec *queryRec, origin time.Time, out []span) []span {
	qt := rec.tr
	if qt == nil || qt.done.IsZero() {
		return out
	}
	at := func(t time.Time) float64 { return float64(t.Sub(origin)) / 1e3 }
	q := rec.idx
	out = append(out, span{Name: "query", Start: at(qt.submit), End: at(qt.done), Query: q})
	if !qt.admitted.IsZero() {
		out = append(out, span{Name: "engine.admission", Start: at(qt.admitted.Add(-qt.admitWait)), End: at(qt.admitted), Parent: "query", Query: q})
		if !qt.firstRound.IsZero() {
			out = append(out, span{Name: "engine.plan", Start: at(qt.admitted), End: at(qt.firstRound), Parent: "query", Query: q})
		}
	}
	if !qt.firstRound.IsZero() {
		out = append(out, span{Name: "core.rounds", Start: at(qt.firstRound), End: at(qt.lastRound), Parent: "query", Query: q})
		out = append(out, span{Name: "tail", Start: at(qt.lastRound), End: at(qt.done), Parent: "query", Query: q})
	}
	return out
}

// wsSpans records a served query from the client side: the stream, the
// wait for the accepted event, and the wait for the first bar.
func wsSpans(rec *queryRec, out []span) []span {
	out = append(out, span{Name: "serve.stream", End: rec.ttg * 1e3, Query: rec.idx})
	out = append(out, span{Name: "serve.accept", End: rec.accept * 1e3, Parent: "serve.stream", Query: rec.idx})
	out = append(out, span{Name: "serve.first_bar", End: rec.firstBar * 1e3, Parent: "serve.stream", Query: rec.idx})
	return out
}

// writeSpans writes the traced run's spans as JSON under .bench_build.
func writeSpans(workload string, seed uint64, spans []span) (string, error) {
	dir := filepath.Join(".bench_build", "perfbench-traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	blob, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, blob, 0o644)
}

// distinctPrefix returns the first n distinct requests of the stream, in
// stream order.
func distinctPrefix(reqs []serve.QueryRequest, n int) []serve.QueryRequest {
	seen := map[string]bool{}
	var out []serve.QueryRequest
	for _, r := range reqs {
		blob, _ := json.Marshal(r) // a plain struct of scalars always marshals
		if seen[string(blob)] {
			continue
		}
		seen[string(blob)] = true
		out = append(out, r)
		if len(out) == n {
			break
		}
	}
	return out
}
