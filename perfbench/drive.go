package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/serve"
)

// queryRec is one query's outcome as its caller saw it.
type queryRec struct {
	idx      int // position in the workload's request stream
	req      serve.QueryRequest
	ttg      float64 // submit to terminal result, ms
	firstBar float64 // submit to first settled bar (or the terminal), ms
	res      *rapidviz.Result
	err      error

	// Serving only.
	accept float64 // dial to the accepted event, ms
	bytes  int64   // request plus every received message
	source string  // run | shared | cached

	// Traced library runs only.
	tr *queryTrace
}

// queryTrace holds the spans and counts one traced query produced. Spans
// are measured from the benchmark's side of each layer boundary: the
// engine's admission hook and the per-round hook.
type queryTrace struct {
	submit, admitted, firstRound, lastRound, done time.Time
	admitWait                                     time.Duration
	rounds, groupRounds, radiusCalls              int64
	samplesFirst, radiusFirst                     int64
	roundDurs                                     []float64 // µs, between consecutive rounds
	bernstein                                     bool
	lastActive                                    int
}

// loopResult is one closed-loop measurement.
type loopResult struct {
	recs      []*queryRec // completed queries, indexed by stream position
	wall      time.Duration
	samples   int64 // samples drawn by fresh executions
	admission []float64
	engine    *rapidviz.Engine
	srv       *serve.Server
}

// completed returns the finished queries in stream order.
func (lr *loopResult) completed() []*queryRec {
	var out []*queryRec
	for _, r := range lr.recs {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// closedLoop runs clients callers, each submitting its next stream request
// only after the previous one finished. Callers stop at the deadline once
// the first minQueries requests of the stream have all been taken, so
// that prefix always completes. do executes one request.
func closedLoop(n, clients int, dur time.Duration, minQueries int, do func(j int) *queryRec) ([]*queryRec, time.Duration) {
	recs := make([]*queryRec, n)
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= n || (j >= minQueries && time.Now().After(deadline)) {
					return
				}
				recs[j] = do(j)
			}
		}()
	}
	wg.Wait()
	return recs, time.Since(start)
}

// runLibrary drives the workload through Engine.Stream on a fresh engine
// built from cfg. A nonzero workers pins every query's fan-out (results do
// not depend on it). With traced set, every query records its admission
// and round spans; the admission hook is attributed per query, so traced
// runs use one caller.
func runLibrary(e *env, cfg rapidviz.EngineConfig, workers int, dur time.Duration, minQueries int, traced bool) (*loopResult, error) {
	var mu sync.Mutex
	var admission []float64
	var cur *queryTrace
	cfg.OnAdmission = func(wait time.Duration) {
		mu.Lock()
		admission = append(admission, ms(wait))
		if cur != nil {
			cur.admitWait = wait
			cur.admitted = time.Now()
		}
		mu.Unlock()
	}
	eng, err := rapidviz.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	var samples atomic.Int64
	recs, wall := closedLoop(len(e.reqs), e.clients, dur, minQueries, func(j int) *queryRec {
		req := e.reqs[j]
		var qt *queryTrace
		if traced {
			qt = &queryTrace{bernstein: req.ConfidenceBound == "bernstein"}
			mu.Lock()
			cur = qt
			mu.Unlock()
		}
		rec := streamQuery(eng, e.table, req, workers, qt)
		rec.idx = j
		if rec.res != nil {
			samples.Add(rec.res.TotalSamples)
		}
		return rec
	})
	return &loopResult{recs: recs, wall: wall, samples: samples.Load(), admission: admission, engine: eng}, nil
}

// streamQuery runs one request in process and times it from submission.
func streamQuery(eng *rapidviz.Engine, table *rapidviz.Table, req serve.QueryRequest, workers int, qt *queryTrace) *queryRec {
	rec := &queryRec{req: req, tr: qt}
	q, err := req.Query()
	if err != nil {
		rec.err = err
		return rec
	}
	if workers > 0 {
		q.Workers = workers
	}
	if qt != nil {
		q.OnRound = qt.onRound
	}
	start := time.Now()
	if qt != nil {
		qt.submit = start
	}
	for ev := range eng.Stream(context.Background(), q, table.View()) {
		now := time.Since(start)
		switch {
		case ev.Partial != nil:
			if rec.firstBar == 0 {
				rec.firstBar = ms(now)
			}
		default:
			rec.ttg = ms(now)
			if rec.firstBar == 0 {
				rec.firstBar = rec.ttg
			}
			rec.res, rec.err = ev.Result, ev.Err
		}
	}
	if qt != nil {
		qt.done = time.Now()
	}
	return rec
}

// onRound is the traced query's per-round hook. It counts the groups that
// drew in the round (those active after the previous round) and the
// radius evaluations that implies: one per drawing group under Bernstein,
// one shared schedule step per round under Hoeffding.
func (qt *queryTrace) onRound(tr rapidviz.RoundTrace) {
	now := time.Now()
	drew := qt.lastActive
	if qt.rounds == 0 {
		drew = len(tr.Active)
		qt.firstRound = now
		if tr.Round > 1 {
			// The seed round ran untraced: every group drew in it.
			qt.groupRounds += int64(len(tr.Active)) * int64(tr.Round-1)
			if qt.bernstein {
				qt.radiusCalls += int64(len(tr.Active))
			}
		}
		qt.samplesFirst = tr.TotalSamples
	} else {
		qt.roundDurs = append(qt.roundDurs, float64(now.Sub(qt.lastRound))/1e3)
	}
	qt.rounds++
	qt.groupRounds += int64(drew)
	if qt.bernstein {
		qt.radiusCalls += int64(drew)
	} else {
		qt.radiusCalls++
	}
	if qt.rounds == 1 {
		qt.radiusFirst = qt.radiusCalls
	}
	active := 0
	for _, a := range tr.Active {
		if a {
			active++
		}
	}
	qt.lastActive = active
	qt.lastRound = now
}

// server is a serve.Server listening on loopback.
type server struct {
	srv  *serve.Server
	http *http.Server
	url  string
	done chan struct{}
}

// startServer serves table on an ephemeral loopback port with the
// serving defaults (admission pool, result cache, sample broker).
func startServer(table *rapidviz.Table) (*server, error) {
	srv, err := serve.New(serve.Config{Table: table})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := &server{
		srv:  srv,
		http: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:  "ws://" + ln.Addr().String() + "/api/stream",
		done: make(chan struct{}),
	}
	go func() {
		defer close(h.done)
		h.http.Serve(ln)
	}()
	return h, nil
}

// stop closes the listener and every connection, cancels in-flight
// executions, and waits for the accept loop to exit.
func (h *server) stop() {
	h.http.Close()
	h.srv.Close()
	<-h.done
}

// runServe drives the workload over WebSocket against a fresh server,
// one stream per query as cmd/loadgen does.
func runServe(e *env, reqs []serve.QueryRequest, clients int, dur time.Duration, minQueries int) (*loopResult, error) {
	h, err := startServer(e.table)
	if err != nil {
		return nil, err
	}
	defer h.stop()
	recs, wall := closedLoop(len(reqs), clients, dur, minQueries, func(j int) *queryRec {
		rec := wsQuery(h.url, reqs[j])
		rec.idx = j
		return rec
	})
	return &loopResult{
		recs:    recs,
		wall:    wall,
		samples: h.srv.Metrics().SamplesTotal(),
		engine:  h.srv.Engine(),
		srv:     h.srv,
	}, nil
}

// wsQuery submits one request on its own WebSocket stream and reads it to
// the terminal event.
func wsQuery(url string, req serve.QueryRequest) *queryRec {
	rec := &queryRec{req: req}
	start := time.Now()
	fail := func(err error) *queryRec {
		rec.err = err
		rec.ttg = ms(time.Since(start))
		return rec
	}
	conn, err := serve.DialWS(url, 10*time.Second)
	if err != nil {
		return fail(err)
	}
	defer conn.Close()
	blob, err := json.Marshal(req)
	if err != nil {
		return fail(err)
	}
	rec.bytes += int64(len(blob))
	if err := conn.WriteText(blob); err != nil {
		return fail(err)
	}
	for {
		msg, err := conn.ReadMessage()
		if err != nil {
			return fail(fmt.Errorf("stream ended without a terminal event: %w", err))
		}
		now := ms(time.Since(start))
		rec.bytes += int64(len(msg))
		var ev serve.Event
		if err := json.Unmarshal(msg, &ev); err != nil {
			return fail(err)
		}
		switch ev.Type {
		case "accepted":
			rec.accept = now
			rec.source = ev.Source
		case "partial":
			if rec.firstBar == 0 {
				rec.firstBar = now
			}
		case "result":
			rec.ttg = now
			if rec.firstBar == 0 {
				rec.firstBar = now
			}
			rec.res = ev.Result
			return rec
		case "error":
			return fail(errors.New(ev.Error))
		}
	}
}
