package main

import (
	"fmt"
	"math"
)

// checkResult validates one query's result against the exact answer of
// its filter. shapeErr reports a malformed or failed result; ordered
// reports whether every pair of groups whose true means differ by more
// than the query's resolution came back in the right order.
func checkResult(rec *queryRec, truths map[float64]*truth) (ordered bool, shapeErr error) {
	if rec.err != nil {
		return false, fmt.Errorf("query %d failed: %v", rec.idx, rec.err)
	}
	res := rec.res
	if res == nil {
		return false, fmt.Errorf("query %d: no result", rec.idx)
	}
	if res.Capped {
		return false, fmt.Errorf("query %d: capped, guarantee void", rec.idx)
	}
	t, ok := truths[whereKey(rec.req)]
	if !ok {
		return false, fmt.Errorf("query %d: no exact answer for filter %v", rec.idx, rec.req.Where)
	}
	k := len(t.names)
	if len(res.Names) != k || len(res.Estimates) != k || len(res.SampleCounts) != k {
		return false, fmt.Errorf("query %d: %d names, %d estimates, %d counts; want %d groups",
			rec.idx, len(res.Names), len(res.Estimates), len(res.SampleCounts), k)
	}
	var total int64
	for i := 0; i < k; i++ {
		if res.Names[i] != t.names[i] {
			return false, fmt.Errorf("query %d: group %d is %q, want %q", rec.idx, i, res.Names[i], t.names[i])
		}
		if est := res.Estimates[i]; math.IsNaN(est) || math.IsInf(est, 0) {
			return false, fmt.Errorf("query %d: group %q estimate %v", rec.idx, t.names[i], est)
		}
		if c := res.SampleCounts[i]; c < 1 || c > t.sizes[i] {
			return false, fmt.Errorf("query %d: group %q drew %d samples of %d rows", rec.idx, t.names[i], c, t.sizes[i])
		}
		total += res.SampleCounts[i]
	}
	if total != res.TotalSamples {
		return false, fmt.Errorf("query %d: sample counts sum to %d, TotalSamples %d", rec.idx, total, res.TotalSamples)
	}
	r := rec.req.Resolution
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			gap := t.means[i] - t.means[j]
			if math.Abs(gap) <= r {
				continue
			}
			if (res.Estimates[i]-res.Estimates[j])*gap <= 0 {
				return false, nil
			}
		}
	}
	return true, nil
}

// gate is the correctness verdict over a run's results.
type gate struct {
	checked, ordered int
	shapeErrs        int
	firstErr         error
	prefixOrdered    int // ordered results among the deterministic prefix
	prefixChecked    int
	maxDelta         float64
}

func runGate(recs []*queryRec, truths map[float64]*truth, prefix int) *gate {
	g := &gate{}
	for _, rec := range recs {
		if rec == nil {
			continue
		}
		ok, err := checkResult(rec, truths)
		g.checked++
		if rec.req.Delta > g.maxDelta {
			g.maxDelta = rec.req.Delta
		}
		if err != nil {
			g.shapeErrs++
			if g.firstErr == nil {
				g.firstErr = err
			}
		}
		if ok {
			g.ordered++
		}
		if rec.idx < prefix {
			g.prefixChecked++
			if ok {
				g.prefixOrdered++
			}
		}
	}
	return g
}

// pass applies the ordering guarantee: the observed share of correctly
// ordered results may fall short of 1−δ only by binomial slack (three
// standard errors at the run's sample size).
func (g *gate) pass() (bool, string) {
	if g.checked == 0 {
		return false, "no query completed"
	}
	if g.shapeErrs > 0 {
		return false, g.firstErr.Error()
	}
	d := g.maxDelta
	need := 1 - d - 3*math.Sqrt(d*(1-d)/float64(g.checked))
	frac := float64(g.ordered) / float64(g.checked)
	if frac < need {
		return false, fmt.Sprintf("ordered %d of %d results (%.3f), below 1-δ minus slack (%.3f)", g.ordered, g.checked, frac, need)
	}
	return true, ""
}
