package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro"
	"repro/internal/serve"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Workload sizes. Each is chosen against a cache or budget of the program
// (perfbench/NOTES.md gives the reasoning behind every number).
const (
	// serve-flights: the rapidvizd demo scale. A 30 s run submits about
	// 460 distinct requests, more than the 256-entry flight cache holds,
	// so a repeat of an old request can miss.
	serveRows       = 2_000_000
	serveResolution = 1.0 // minutes

	// paper-scalar: ~300 groups of the paper's truncnorm family, large
	// enough that no group exhausts before the resolution stop.
	scalarGroups     = 300
	scalarRowsPerGrp = 16_000
	scalarResolution = 25.0

	// segments-v2: 4.5M rows put the decoded value column (36 MB) over
	// the 32 MiB decoded-block LRU. The 96 Where thresholds do not repeat
	// within a run, so every filtered query builds its filter.
	segRows       = 4_500_000
	segResolution = 10.0
	segThresholds = 96

	// streamLen bounds the pregenerated query stream; the closed loop
	// stops at its end, which no run at these sizes reaches.
	streamLen = 8192
)

// delayCap caps generated arrival delays (minutes), so segments-v2 can
// pass it as every query's value bound: values must lie in [0, bound].
// The cap is a guard; at 4.5M rows the largest delay of seeds 1-3 is
// 182-197 minutes.
const delayCap = 240.0

// serveQuantiles place serve-flights' elapsed-time cut-offs: each filter
// keeps 80%, 60%, 40% or 20% of the rows.
var serveQuantiles = []float64{0.2, 0.4, 0.6, 0.8}

// truth is the exact answer for one filter: the surviving groups in table
// order with their true means and sizes, computed by a full scan of the
// generated rows at set-up.
type truth struct {
	names []string
	means []float64
	sizes []int64
}

// env is one workload, set up and ready to query.
type env struct {
	name    string
	table   *rapidviz.Table        // the table queries run over
	seg     *rapidviz.SegmentTable // segments-v2 only
	mem     *rapidviz.Table        // the rows in memory (segments-v2: trace runs only)
	rows    int64
	reqs    []serve.QueryRequest
	truth   map[float64]*truth // keyed by elapsed threshold, 0 = unfiltered
	clients int
	ws      bool // submit over WebSocket through serve.Server
	prefix  int  // queries every run completes; deterministic metrics use them
	scalar  bool // BatchSize 1: draws go one sample at a time

	setupS  float64 // median set-up time
	ingestS float64 // median of the timed ingest (+ segment write/open) part
	workDir string
}

func (e *env) close() {
	if e.seg != nil {
		e.seg.Close()
	}
	if e.workDir != "" {
		os.RemoveAll(e.workDir)
	}
}

// whereKey names the filter of a request: its elapsed threshold, or 0.
func whereKey(r serve.QueryRequest) float64 {
	if len(r.Where) == 0 {
		return 0
	}
	return r.Where[0].Value
}

// flightRows is a generated flights dataset, column-wise, with the exact
// per-airline sums behind every filter the workload uses.
type flightRows struct {
	names   []string // airline codes, spec order
	airline []uint8
	value   []float64 // arrdelay
	elapsed []float64
	ths     []float64 // ascending filter thresholds on elapsed
	// sum[a][b], cnt[a][b]: rows of airline a whose elapsed lies in
	// threshold bucket b (b thresholds are <= elapsed).
	sum [][]float64
	cnt [][]int64
}

// genFlights generates n flight rows from seed and picks the workload's
// filter thresholds at the given quantiles of their elapsed times, so a
// threshold keeps the same share of rows whatever the seed. round4 stores
// values with four decimals, as cmd/datagen's CSV does, so block codecs
// see ingested decimals rather than full-precision doubles.
func genFlights(n int64, seed uint64, round4 bool, quantiles []float64) (*flightRows, error) {
	fr := &flightRows{
		names:   workload.AirlineNames(),
		airline: make([]uint8, 0, n),
		value:   make([]float64, 0, n),
		elapsed: make([]float64, 0, n),
	}
	idx := make(map[string]uint8, len(fr.names))
	for i, name := range fr.names {
		idx[name] = uint8(i)
	}
	err := workload.FlightsRows(n, seed, func(r workload.FlightRow) error {
		a, ok := idx[r.Airline]
		if !ok {
			return fmt.Errorf("unknown airline %q", r.Airline)
		}
		v, e := min(r.ArrDelay, delayCap), r.Elapsed
		if round4 {
			v = math.Round(v*1e4) / 1e4
			e = math.Round(e*1e4) / 1e4
		}
		fr.airline = append(fr.airline, a)
		fr.value = append(fr.value, v)
		fr.elapsed = append(fr.elapsed, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sorted := append([]float64(nil), fr.elapsed...)
	sort.Float64s(sorted)
	for _, q := range quantiles {
		// Whole hundredths of a minute, as a client would type them.
		t := math.Round(sorted[int(q*float64(len(sorted)-1))]*100) / 100
		if len(fr.ths) == 0 || t > fr.ths[len(fr.ths)-1] {
			fr.ths = append(fr.ths, t)
		}
	}
	fr.sum = make([][]float64, len(fr.names))
	fr.cnt = make([][]int64, len(fr.names))
	for i := range fr.names {
		fr.sum[i] = make([]float64, len(fr.ths)+1)
		fr.cnt[i] = make([]int64, len(fr.ths)+1)
	}
	for i, e := range fr.elapsed {
		a := fr.airline[i]
		b := sort.Search(len(fr.ths), func(j int) bool { return fr.ths[j] > e })
		fr.sum[a][b] += fr.value[i]
		fr.cnt[a][b]++
	}
	return fr, nil
}

// build ingests the rows into an in-memory table (value arrdelay, extra
// elapsed) through the public builder.
func (fr *flightRows) build() (*rapidviz.Table, error) {
	b := rapidviz.NewTableBuilderColumns("arrdelay", "elapsed")
	for i, a := range fr.airline {
		if err := b.AddRow(fr.names[a], fr.value[i], fr.elapsed[i]); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// truths assembles the exact answer of every filter in the table's group
// order.
func (fr *flightRows) truths(tableNames []string) (map[float64]*truth, error) {
	pos := make(map[string]int, len(fr.names))
	for i, n := range fr.names {
		pos[n] = i
	}
	out := make(map[float64]*truth, len(fr.ths)+1)
	keys := append([]float64{0}, fr.ths...)
	for ki, key := range keys {
		// Threshold ths[ki-1] keeps buckets ki.. (rows with at least ki
		// thresholds at or below their elapsed); key 0 keeps every bucket.
		from := ki
		t := &truth{}
		for _, name := range tableNames {
			a, ok := pos[name]
			if !ok {
				return nil, fmt.Errorf("table group %q is not an airline", name)
			}
			sum, cnt := 0.0, int64(0)
			for b := from; b < len(fr.sum[a]); b++ {
				sum += fr.sum[a][b]
				cnt += fr.cnt[a][b]
			}
			if cnt == 0 {
				continue
			}
			t.names = append(t.names, name)
			t.means = append(t.means, sum/float64(cnt))
			t.sizes = append(t.sizes, cnt)
		}
		out[key] = t
	}
	return out, nil
}

// timedSetups runs one set-up reps times and returns the median duration.
// Every repetition but the last is torn down by drop, so the last one's
// products stay live for the run.
func timedSetups(reps int, once func() (time.Duration, error), drop func()) (float64, error) {
	var times []float64
	for r := 0; r < reps; r++ {
		runtime.GC()
		d, err := once()
		if err != nil {
			return 0, err
		}
		times = append(times, d.Seconds())
		if r < reps-1 {
			drop()
		}
	}
	return median(times), nil
}

func setupServeFlights(seed uint64, reps int, trace bool) (*env, error) {
	fr, err := genFlights(serveRows, seed, false, serveQuantiles)
	if err != nil {
		return nil, err
	}
	e := &env{name: "serve-flights", rows: serveRows, clients: 2, ws: true, prefix: 200}
	var ingest []float64
	e.setupS, err = timedSetups(reps, func() (time.Duration, error) {
		t0 := time.Now()
		tb, err := fr.build()
		if err != nil {
			return 0, err
		}
		ingest = append(ingest, time.Since(t0).Seconds())
		h, err := startServer(tb)
		if err != nil {
			return 0, err
		}
		d := time.Since(t0)
		h.stop()
		e.table = tb
		return d, nil
	}, func() { e.table = nil })
	if err != nil {
		return nil, err
	}
	e.ingestS = median(ingest)
	if e.truth, err = fr.truths(e.table.Names()); err != nil {
		return nil, err
	}
	e.mem = e.table
	e.reqs = serveFlightsStream(seed, fr.ths, streamLen)
	return e, nil
}

// serveFlightsStream is the serving mix. Requests come in blocks of four
// that share a seed and filter but differ in algorithm, bound or δ, so the
// two clients' concurrent queries feed one broker stream. One block in
// four filters on elapsed time, cycling through the thresholds in a
// seeded order, and every third request from the ninth on repeats an
// earlier one (a cache replay, or a flight attach when it is still
// running). The mix is stratified rather than drawn independently, so
// every seed runs the same proportions.
func serveFlightsStream(seed uint64, thresholds []float64, n int) []serve.QueryRequest {
	rng := xrand.New(seed ^ 0x5e7ef11e)
	type combo struct {
		algo, bound string
		delta       float64
	}
	var combos []combo
	for _, a := range []string{"ifocus", "roundrobin"} {
		for _, b := range []string{"hoeffding", "bernstein"} {
			for _, d := range []float64{0.05, 0.1} {
				combos = append(combos, combo{a, b, d})
			}
		}
	}
	filtered := rng.Intn(4)
	var perm []int
	var ths []float64
	var fresh, out []serve.QueryRequest
	for blk := 0; len(out) < n; blk++ {
		var where []serve.WirePredicate
		if blk%4 == filtered {
			if len(ths) == 0 {
				for _, i := range rng.Perm(len(thresholds)) {
					ths = append(ths, thresholds[i])
				}
			}
			where = []serve.WirePredicate{{Column: "elapsed", Op: ">=", Value: ths[0]}}
			ths = ths[1:]
		}
		// Each pair of blocks runs all eight combinations once.
		if blk%2 == 0 {
			perm = rng.Perm(len(combos))
		}
		for s := 0; s < 4 && len(out) < n; s++ {
			if len(out) >= 8 && len(out)%3 == 2 {
				pick := rng.Intn(len(fresh))
				if rng.Float64() < 0.5 {
					pick = len(fresh) - 1 - rng.Intn(8)
				}
				out = append(out, fresh[pick])
				continue
			}
			c := combos[perm[4*(blk%2)+s]]
			req := serve.QueryRequest{
				Algorithm:       c.algo,
				ConfidenceBound: c.bound,
				Delta:           c.delta,
				Resolution:      serveResolution,
				Seed:            seed*1_000_003 + uint64(blk) + 1,
				Where:           where,
			}
			fresh = append(fresh, req)
			out = append(out, req)
		}
	}
	return out
}

func setupPaperScalar(seed uint64, reps int, trace bool) (*env, error) {
	u, err := workload.Materialize(workload.Config{
		Kind:      workload.TruncNorm,
		K:         scalarGroups,
		TotalRows: scalarGroups * scalarRowsPerGrp,
		Seed:      seed,
	})
	if err != nil {
		return nil, err
	}
	type col struct {
		name string
		vals []float64
	}
	cols := make([]col, u.K())
	sums := make(map[string]float64, u.K())
	for i, g := range u.Groups {
		sg, ok := g.(interface{ Values() []float64 })
		if !ok {
			return nil, fmt.Errorf("paper-scalar: group %q is not materialized", g.Name())
		}
		cols[i] = col{g.Name(), sg.Values()}
		for _, v := range cols[i].vals {
			sums[g.Name()] += v
		}
	}
	e := &env{name: "paper-scalar", rows: scalarGroups * scalarRowsPerGrp, clients: 1, prefix: 60, scalar: true}
	var ingest []float64
	e.setupS, err = timedSetups(reps, func() (time.Duration, error) {
		t0 := time.Now()
		b := rapidviz.NewTableBuilder()
		for _, c := range cols {
			for _, v := range c.vals {
				b.Add(c.name, v)
			}
		}
		tb, err := b.Build()
		if err != nil {
			return 0, err
		}
		d := time.Since(t0)
		ingest = append(ingest, d.Seconds())
		e.table = tb
		return d, nil
	}, func() { e.table = nil })
	if err != nil {
		return nil, err
	}
	e.ingestS = median(ingest)
	t := &truth{}
	for _, g := range e.table.Groups() {
		t.names = append(t.names, g.Name())
		t.means = append(t.means, sums[g.Name()]/float64(g.Size()))
		t.sizes = append(t.sizes, g.Size())
	}
	e.truth = map[float64]*truth{0: t}
	e.mem = e.table
	for j := 0; j < streamLen; j++ {
		bound := "bernstein"
		if j%2 == 1 {
			bound = "hoeffding"
		}
		e.reqs = append(e.reqs, serve.QueryRequest{
			Algorithm:       "ifocus",
			ConfidenceBound: bound,
			Delta:           0.05,
			Resolution:      scalarResolution,
			BatchSize:       1,
			Seed:            seed*1_000_003 + uint64(j) + 1,
		})
	}
	return e, nil
}

func setupSegmentsV2(seed uint64, reps int, trace bool) (*env, error) {
	// Thresholds keep from 95% down to 5% of the rows.
	qs := make([]float64, segThresholds)
	for i := range qs {
		qs[i] = 0.05 + 0.9*float64(i)/float64(segThresholds-1)
	}
	fr, err := genFlights(segRows, seed, true, qs)
	if err != nil {
		return nil, err
	}
	work, err := workDir()
	if err != nil {
		return nil, err
	}
	e := &env{name: "segments-v2", rows: segRows, clients: 1, prefix: 64, workDir: work}
	var ingest []float64
	rep := 0
	e.setupS, err = timedSetups(reps, func() (time.Duration, error) {
		rep++
		dir := filepath.Join(work, fmt.Sprintf("seg%d", rep))
		t0 := time.Now()
		tb, err := fr.build()
		if err != nil {
			return 0, err
		}
		if err := tb.WriteSegmentsOptions(dir, rapidviz.SegmentOptions{Compress: true}); err != nil {
			return 0, err
		}
		st, err := rapidviz.OpenSegments(dir)
		if err != nil {
			return 0, err
		}
		d := time.Since(t0)
		ingest = append(ingest, d.Seconds())
		e.seg, e.table = st, st.Table
		if trace {
			e.mem = tb
		}
		return d, nil
	}, func() {
		e.seg.Close()
		os.RemoveAll(e.seg.Dir())
		e.seg, e.table, e.mem = nil, nil, nil
	})
	if err != nil {
		e.close()
		return nil, err
	}
	e.ingestS = median(ingest)
	if e.truth, err = fr.truths(e.table.Names()); err != nil {
		e.close()
		return nil, err
	}
	e.reqs = segmentsStream(seed, fr.ths, streamLen)
	return e, nil
}

// workDir makes a private scratch directory under .bench_build in the
// current directory (the checkout root).
func workDir() (string, error) {
	base := filepath.Join(".bench_build", "perfbench-work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run")
}

// segmentsStream is the segments-v2 mix: IFOCUS throughout, Hoeffding
// and Bernstein in turn, and in every block of eight requests three
// (chosen per block) carry a Where filter. Filter thresholds are
// stratified over the range (successive filtered requests draw from
// successive eighths of the sorted thresholds) and do not repeat until
// all are used, so every seed filters at the same spread of
// selectivities and every filter is a view-cache miss. Requests carry the
// capped column's value bound, so a filter's cost does not hinge on the
// largest delay it happens to keep.
func segmentsStream(seed uint64, ths []float64, n int) []serve.QueryRequest {
	rng := xrand.New(seed ^ 0x5e65e9)
	stratum := len(ths) / 8
	order := make([][]int, 8) // per stratum, a seeded order of its thresholds
	for s := range order {
		order[s] = rng.Perm(stratum)
	}
	var out []serve.QueryRequest
	nfilter := 0
	for len(out) < n {
		filter := map[int]bool{}
		for _, i := range rng.Perm(8)[:3] {
			filter[i] = true
		}
		for pos := 0; pos < 8; pos++ {
			bound := "hoeffding"
			if pos%2 == 1 {
				bound = "bernstein"
			}
			req := serve.QueryRequest{
				Algorithm:       "ifocus",
				ConfidenceBound: bound,
				Bound:           delayCap,
				Delta:           0.05,
				Resolution:      segResolution,
				Seed:            seed*1_000_003 + uint64(len(out)) + 1,
			}
			if filter[pos] {
				s, k := nfilter%8, (nfilter/8)%stratum
				req.Where = []serve.WirePredicate{{Column: "elapsed", Op: ">=", Value: ths[s*stratum+order[s][k]]}}
				nfilter++
			}
			out = append(out, req)
		}
	}
	return out[:n]
}
