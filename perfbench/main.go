// Command perfbench is the repository benchmark: it sets up one workload
// from a seed, drives it closed-loop for a fixed time, checks every result
// against exact answers computed at set-up, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) as one JSON line.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload serve-flights|paper-scalar|segments-v2
//	          [--seed 1] [--seconds 15] [--trace 0|1]
//
// See perfbench/NOTES.md for the workloads, the metrics and what each
// per-layer metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro"
	"repro/internal/serve"
)

// defaultSeed drives tuning runs; heldOutSeed is reserved for confirming
// a claimed gain on inputs its author did not tune against.
const (
	defaultSeed = 1
	heldOutSeed = 9001
)

// Per-run counts behind the traced metrics: the core set is the first
// coreN distinct requests (traced rounds), the serve probe the first
// probeN (WebSocket versus in-process latency).
const (
	coreN  = 12
	probeN = 4
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var setups = map[string]func(seed uint64, reps int, trace bool) (*env, error){
	"serve-flights": setupServeFlights,
	"paper-scalar":  setupPaperScalar,
	"segments-v2":   setupSegmentsV2,
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "serve-flights | paper-scalar | segments-v2")
	seed := fl.Uint64("seed", defaultSeed, fmt.Sprintf("input seed (held-out seed for claims: %d)", heldOutSeed))
	seconds := fl.Float64("seconds", 15, "measured closed-loop time")
	trace := fl.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	setup, ok := setups[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: workload %q, seconds %v, trace %d\n", *name, *seconds, *trace)
		return 2
	}
	reps := 3 // set-up repetitions; setup_s is their median
	if *trace == 1 {
		reps = 1
	}
	e, err := setup(*seed, reps, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s set-up: %v\n", *name, err)
		return 1
	}
	defer e.close()
	dur := time.Duration(*seconds * float64(time.Second))
	var out *output
	if *trace == 1 {
		out, err = traceRun(e, *seed, dur)
	} else {
		out, err = measure(e, dur)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	blob, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(blob))
	if !out.Correct {
		return 1
	}
	return 0
}

// warmUp runs two queries shaped like the stream's first ones, with seeds
// the stream never uses, on a throwaway engine: code paths, the page
// cache and the decoded-block cache are warm before timing starts, while
// the engine and server caches the run measures start empty.
func warmUp(e *env) {
	eng, err := rapidviz.NewEngine(rapidviz.EngineConfig{})
	if err != nil {
		panic(err) // the zero config is valid
	}
	for i := 0; i < 2 && i < len(e.reqs); i++ {
		req := e.reqs[i]
		req.Seed = ^req.Seed
		streamQuery(eng, e.table, req, 0, nil)
	}
	runtime.GC()
}

// loop runs the workload's closed loop once, untraced.
func loop(e *env, dur time.Duration, minQueries int) (*loopResult, error) {
	if e.ws {
		return runServe(e, e.reqs, e.clients, dur, minQueries)
	}
	return runLibrary(e, rapidviz.EngineConfig{}, 0, dur, minQueries, false)
}

func ttgs(recs []*queryRec) (ttg, first []float64) {
	for _, r := range recs {
		if r.err == nil {
			ttg = append(ttg, r.ttg)
			first = append(first, r.firstBar)
		}
	}
	return ttg, first
}

// measure is the untraced run behind the end-to-end metrics.
func measure(e *env, dur time.Duration) (*output, error) {
	warmUp(e)
	if !resetPeakRSS() {
		fmt.Fprintf(os.Stderr, "perfbench: cannot reset the peak-RSS window; peak_rss_mb covers set-up too\n")
	}
	lr, err := loop(e, dur, e.prefix)
	if err != nil {
		return nil, err
	}
	recs := lr.completed()
	g := runGate(lr.recs, e.truth, e.prefix)
	correct, why := g.pass()
	if !correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: correctness gate failed: %s\n", e.name, why)
	}
	failed := 0
	var prefixSamples []float64
	sources := map[string]int{}
	for _, r := range recs {
		if r.err != nil || r.res == nil || r.res.Capped {
			failed++
			continue
		}
		sources[r.source]++
		if r.idx < e.prefix {
			prefixSamples = append(prefixSamples, float64(r.res.TotalSamples))
		}
	}
	ttg, first := ttgs(recs)
	wall := lr.wall.Seconds()
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d queries in %.2fs (sources %v), %d ordered of %d checked\n",
		e.name, len(recs), wall, sources, g.ordered, g.checked)
	return &output{
		Correct:   correct,
		Attempted: len(recs),
		Failed:    failed,
		Metrics: map[string]metric{
			"ttg_p50_ms":         {quantile(ttg, 0.5), "ms"},
			"ttg_p90_ms":         {quantile(ttg, 0.9), "ms"},
			"first_bar_p50_ms":   {quantile(first, 0.5), "ms"},
			"queries_per_s":      {float64(len(recs)) / wall, "1/s"},
			"samples_per_s":      {float64(lr.samples) / wall, "1/s"},
			"samples_per_query":  {mean(prefixSamples), "count"},
			"order_correct_frac": {ratio(float64(g.prefixOrdered), float64(g.prefixChecked), 0), "frac"},
			"success_frac":       {1 - ratio(float64(failed), float64(len(recs)), 1), "frac"},
			"setup_s":            {e.setupS, "s"},
			"peak_rss_mb":        {peakRSSMB(), "MB"},
		},
	}, nil
}

// traceRun is the traced run behind the per-layer metrics: half the time
// untraced, half traced (their difference is the tracing overhead), then
// a sequential traced replay of the first coreN distinct requests for
// round-level attribution, the serve probe, and the layer replays.
func traceRun(e *env, seed uint64, dur time.Duration) (*output, error) {
	warmUp(e)
	plain, err := loop(e, dur/2, coreN)
	if err != nil {
		return nil, err
	}
	plainTTG, _ := ttgs(plain.completed())
	runtime.GC()

	// The traced loop: the workload itself with the benchmark's hooks on.
	var traced *loopResult
	var admission []float64
	if e.ws {
		if traced, err = runServe(e, e.reqs, e.clients, dur/2, coreN); err != nil {
			return nil, err
		}
		admission = []float64{traced.srv.Metrics().AdmissionQuantile(0.9) * 1000}
	} else {
		if traced, err = runLibrary(e, rapidviz.EngineConfig{}, 0, dur/2, coreN, true); err != nil {
			return nil, err
		}
		admission = traced.admission
	}
	tracedRecs := traced.completed()
	tracedTTG, _ := ttgs(tracedRecs)

	// The core replay: one worker per query, so a round's span is the sum
	// of its layers' work rather than an overlap of fanned-out draws.
	replay := *e
	replay.reqs, replay.clients = distinctPrefix(e.reqs, coreN), 1
	coreRun, err := runLibrary(&replay, rapidviz.EngineConfig{}, 1, 0, len(replay.reqs), true)
	if err != nil {
		return nil, err
	}
	core := coreRun.completed()

	correct, why := true, ""
	for _, recs := range [][]*queryRec{plain.recs, traced.recs, core} {
		if ok, w := runGate(recs, e.truth, 0).pass(); !ok {
			correct, why = false, w
		}
	}
	if !correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: correctness gate failed: %s\n", e.name, why)
	}

	probe, err := serveProbe(e)
	if err != nil {
		return nil, err
	}
	serveRecs, serveEng := tracedRecs, traced.engine
	if !e.ws {
		serveRecs, serveEng = probe.ws, probe.engine
	}
	var accept, bytes []float64
	sources := map[string]float64{}
	for _, r := range serveRecs {
		accept = append(accept, r.accept)
		bytes = append(bytes, float64(r.bytes))
		sources[r.source]++
	}

	// Layer replays.
	ladder, err := gatherLadder(e, seed)
	if err != nil {
		return nil, err
	}
	filterMs, filterSel, err := filterReplay(e.table, filterPreds(e))
	if err != nil {
		return nil, err
	}
	radB, radH := radiusNs(e.table.MaxValue(), e.table.K(), e.rows/int64(e.table.K()))
	drawNs := ladder.inmem
	switch {
	case e.scalar:
		drawNs = ladder.scalar
	case e.seg != nil:
		drawNs = ladder.v2
	}

	// Round-level attribution over the core replay: admission wait, plan
	// (admission to the first completed round), and the round loop, whose
	// core self time is what the replayed draw and radius costs leave.
	var rounds, groupRounds, radiusCalls, plan, self, roundDurs []float64
	var ttgSum, attributed, bCalls, hCalls float64
	var spans []span
	for _, r := range core {
		qt := r.tr
		if qt == nil || r.res == nil || qt.firstRound.IsZero() {
			continue
		}
		rad := radH
		if qt.bernstein {
			rad = radB
			bCalls += float64(qt.radiusCalls)
		} else {
			hCalls += float64(qt.radiusCalls)
		}
		roundSpan := qt.lastRound.Sub(qt.firstRound)
		p := qt.firstRound.Sub(qt.admitted)
		plan = append(plan, ms(p))
		later := float64(r.res.TotalSamples-qt.samplesFirst)*drawNs + float64(qt.radiusCalls-qt.radiusFirst)*rad
		self = append(self, ms(roundSpan)-later/1e6)
		roundDurs = append(roundDurs, qt.roundDurs...)
		ttgSum += r.ttg
		attributed += ms(qt.admitWait) + ms(p) + ms(roundSpan)
		rounds = append(rounds, float64(r.res.Rounds))
		groupRounds = append(groupRounds, float64(qt.groupRounds))
		radiusCalls = append(radiusCalls, float64(qt.radiusCalls))
		spans = querySpans(r, core[0].tr.submit, spans)
	}
	if e.ws {
		for _, r := range tracedRecs {
			spans = wsSpans(r, spans)
		}
	}
	path, err := writeSpans(e.name, seed, spans)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d traced queries, %d spans written to %s\n", e.name, len(tracedRecs), len(spans), path)

	views := traced.engine.ViewCacheStats()
	broker := serveEng.BrokerStats()
	n := float64(len(serveRecs))
	all := append(append(plain.completed(), tracedRecs...), core...)
	failed := 0
	for _, r := range all {
		if r.err != nil || r.res == nil || r.res.Capped {
			failed++
		}
	}
	m := map[string]metric{
		"serve.overhead_p50_ms":             {median(probe.overhead), "ms"},
		"serve.accept_p50_ms":               {median(accept), "ms"},
		"serve.bytes_per_query":             {mean(bytes), "bytes"},
		"serve.cached_frac":                 {ratio(sources[serve.SourceCached], n, 0), "frac"},
		"serve.shared_frac":                 {ratio(sources[serve.SourceShared], n, 0), "frac"},
		"engine.admission_wait_p90_ms":      {quantile(admission, 0.9), "ms"},
		"engine.plan_ms_per_query":          {mean(plan), "ms"},
		"engine.view_hit_frac":              {ratio(float64(views.Hits), float64(views.Hits+views.Misses), 0), "frac"},
		"engine.view_evictions":             {float64(views.Evictions), "count"},
		"engine.broker_reduction":           {ratio(float64(broker.SamplesServed), float64(broker.SamplesDrawn), 1), "x"},
		"core.rounds_per_query":             {mean(rounds), "count"},
		"core.group_rounds_per_query":       {mean(groupRounds), "count"},
		"core.round_p50_us":                 {median(roundDurs), "us"},
		"core.self_ms_per_query":            {mean(self), "ms"},
		"conc.radius_ns":                    {ratio(bCalls*radB+hCalls*radH, bCalls+hCalls, radB), "ns"},
		"conc.radius_calls_per_query":       {mean(radiusCalls), "count"},
		"dataset.draw_ns_per_sample.inmem":  {ladder.inmem, "ns"},
		"dataset.draw_ns_per_sample.mmap":   {ladder.mmap, "ns"},
		"dataset.draw_ns_per_sample.v2":     {ladder.v2, "ns"},
		"dataset.draw_ns_per_sample.scalar": {ladder.scalar, "ns"},
		"dataset.filter_ms":                 {filterMs, "ms"},
		"dataset.filter_selectivity":        {filterSel, "frac"},
		"dataset.segment_bytes_per_row":     {ladder.v2BytesPerRow, "bytes"},
		"dataset.ingest_rows_per_s":         {float64(e.rows) / e.ingestS, "1/s"},
		"colcodec.decode_ns_per_value":      {decodeNsPerValue(e.mem), "ns"},
		"xrand.ns_per_draw":                 {xrandNsPerDraw(seed), "ns"},
		"machine.random_read_ns":            {randomReadNs(e.rows, seed), "ns"},
		"ladder.unattributed_frac":          {ratio(ttgSum-attributed, ttgSum, 0), "frac"},
		"trace.overhead_frac":               {ratio(median(tracedTTG)-median(plainTTG), median(plainTTG), 0), "frac"},
	}
	return &output{Correct: correct, Attempted: len(all), Failed: failed, Metrics: m}, nil
}

// probeResult compares the same requests served over WebSocket and run in
// process.
type probeResult struct {
	ws       []*queryRec
	overhead []float64 // per request: WebSocket ttg minus in-process ttg, ms
	engine   *rapidviz.Engine
}

// serveProbe submits the first probeN distinct requests one at a time,
// each over WebSocket to a fresh server and in process on an engine
// configured like the server's, alternating which goes first.
func serveProbe(e *env) (*probeResult, error) {
	h, err := startServer(e.table)
	if err != nil {
		return nil, err
	}
	defer h.stop()
	// The admission pool and sample sharing serve.Server's defaults use.
	eng, err := rapidviz.NewEngine(rapidviz.EngineConfig{Workers: max(8, runtime.GOMAXPROCS(0)), ShareSamples: true})
	if err != nil {
		return nil, err
	}
	pr := &probeResult{engine: h.srv.Engine()}
	for i, req := range distinctPrefix(e.reqs, probeN) {
		var ws, lib *queryRec
		if i%2 == 0 {
			ws = wsQuery(h.url, req)
			lib = streamQuery(eng, e.table, req, 0, nil)
		} else {
			lib = streamQuery(eng, e.table, req, 0, nil)
			ws = wsQuery(h.url, req)
		}
		if ws.err != nil || lib.err != nil {
			return nil, fmt.Errorf("serve probe: %v / %v", ws.err, lib.err)
		}
		ws.idx = i
		pr.ws = append(pr.ws, ws)
		pr.overhead = append(pr.overhead, ws.ttg-lib.ttg)
	}
	return pr, nil
}

// ladderResult is the same-rows gather ladder: the workload's rows drawn
// through each storage path with set-up outside the timer.
type ladderResult struct {
	inmem, mmap, v2, scalar float64 // ns per sample
	v2BytesPerRow           float64
}

func gatherLadder(e *env, seed uint64) (*ladderResult, error) {
	if e.workDir == "" {
		dir, err := workDir()
		if err != nil {
			return nil, err
		}
		e.workDir = dir
	}
	lr := &ladderResult{}
	lr.inmem = drawNsPerSample(e.mem, seed)
	lr.scalar = scalarDrawNs(e.mem, seed)

	v1Dir := filepath.Join(e.workDir, "ladder-v1")
	if err := e.mem.WriteSegments(v1Dir); err != nil {
		return nil, err
	}
	v1, err := rapidviz.OpenSegments(v1Dir)
	if err != nil {
		return nil, err
	}
	lr.mmap = drawNsPerSample(v1.Table, seed)
	v1.Close()
	os.RemoveAll(v1Dir)

	v2 := e.seg
	if v2 == nil {
		dir := filepath.Join(e.workDir, "ladder-v2")
		if err := e.mem.WriteSegmentsOptions(dir, rapidviz.SegmentOptions{Compress: true}); err != nil {
			return nil, err
		}
		if v2, err = rapidviz.OpenSegments(dir); err != nil {
			return nil, err
		}
		defer v2.Close()
	}
	lr.v2 = drawNsPerSample(v2.Table, seed)
	size, err := dirBytes(v2.Dir())
	if err != nil {
		return nil, err
	}
	lr.v2BytesPerRow = float64(size) / float64(v2.NumRows())
	return lr, nil
}

// filterPreds lists the distinct predicates the workload's stream filters
// on (at most 12, in first-use order). A workload whose queries never
// filter is probed with value cut-offs, so the layer still reports a cost.
func filterPreds(e *env) []rapidviz.Predicate {
	var ths []float64
	seen := map[float64]bool{}
	for _, r := range e.reqs {
		if k := whereKey(r); k != 0 && !seen[k] && len(ths) < 12 {
			seen[k] = true
			ths = append(ths, k)
		}
	}
	var preds []rapidviz.Predicate
	if len(ths) == 0 {
		lo, hi := e.table.MinValue(), e.table.MaxValue()
		for _, f := range []float64{0.25, 0.5, 0.75} {
			preds = append(preds, rapidviz.WhereValue(rapidviz.OpGE, lo+f*(hi-lo)))
		}
		return preds
	}
	sort.Float64s(ths)
	for _, t := range ths {
		preds = append(preds, rapidviz.Where("elapsed", rapidviz.OpGE, t))
	}
	return preds
}
