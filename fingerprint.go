package rapidviz

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/conc"
	"repro/internal/dataset"
)

// Fingerprint returns a canonical identifier of everything that determines
// q's result under this engine, extending the predicate-fingerprint scheme
// of the Where cache to whole queries. Two queries with equal fingerprints
// executed over the same group set produce bit-for-bit identical results
// (sampling is deterministic given the resolved seed), so serving layers
// can key result caches by (table, fingerprint) and collapse identical
// concurrent queries into one execution.
//
// The encoding resolves the engine's defaults first — a zero Delta and an
// explicit Delta equal to the engine default fingerprint identically, and
// the seed policy (Deterministic / Query.Seed / engine default) is folded
// into one resolved seed. Fields that provably do not affect results are
// excluded: Workers (worker invariance is pinned by the test suite) and
// the OnRound observer. Fields that do — BatchSize, MaxRounds, MaxDraws,
// the confidence bound, and every guarantee parameter — are included. A
// zero Bound means "infer from the groups", which is a pure function of
// the group set, so it fingerprints as the inferred marker rather than a
// value. Sample sharing (EngineConfig.ShareSamples) needs no field:
// broker-fed and solo runs are pinned bit-for-bit equal.
//
// The fingerprint identifies the query only; callers caching results must
// additionally key by the identity of the groups it ran over.
func (e *Engine) Fingerprint(q Query) string {
	var b strings.Builder
	b.Grow(160)
	b.WriteString("q1|")
	fmt.Fprintf(&b, "agg=%d|guar=%d|algo=%d|", int(q.Aggregate), int(q.Guarantee), int(q.Algorithm))
	fmt.Fprintf(&b, "t=%d|sub=%d|", q.T, q.SubGroups)
	fpFloat(&b, "err", q.MaxError)
	fpFloat(&b, "pairs", q.CorrectPairs)
	if len(q.Adjacency) > 0 {
		b.WriteString("adj=")
		for i, list := range q.Adjacency {
			if i > 0 {
				b.WriteByte(';')
			}
			sorted := append([]int(nil), list...)
			sort.Ints(sorted)
			for j, n := range sorted {
				if j > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%d", n)
			}
		}
		b.WriteByte('|')
	}
	if len(q.Where) > 0 {
		// Already canonical: order-insensitive across conjuncts.
		fmt.Fprintf(&b, "where=%s|", dataset.FingerprintPredicates(q.Where))
	}

	delta := q.Delta
	if delta == 0 {
		delta = e.cfg.Delta
	}
	fpFloat(&b, "delta", delta)
	bound := q.Bound
	if bound == 0 {
		bound = e.cfg.Bound
	}
	if bound == 0 {
		b.WriteString("c=inferred|")
	} else {
		fpFloat(&b, "c", bound)
	}
	res := q.Resolution
	if res == 0 {
		res = e.cfg.Resolution
	}
	fpFloat(&b, "res", res)
	kind, err := conc.ParseKind(q.ConfidenceBound)
	if err != nil {
		// Invalid queries never execute; give them a distinct bucket so a
		// caching layer that fingerprints before validation cannot alias
		// them with a valid query.
		kind = conc.Kind("invalid:" + q.ConfidenceBound)
	}
	fmt.Fprintf(&b, "cb=%s|", kind)
	wr := q.WithReplacement || e.cfg.WithReplacement
	fmt.Fprintf(&b, "wr=%t|", wr)
	fmt.Fprintf(&b, "batch=%d|", q.BatchSize)
	rounds := q.MaxRounds
	if rounds == 0 {
		rounds = e.cfg.MaxRounds
	}
	fmt.Fprintf(&b, "rounds=%d|draws=%d|", rounds, q.MaxDraws)
	fmt.Fprintf(&b, "seed=%d", e.seed(q))
	return b.String()
}

// fpFloat appends one name=value field encoding the float exactly (by
// bits), so no two distinct values ever collide and the encoding never
// depends on formatting precision. Zero — by far the common case for unset
// knobs — is written compactly.
func fpFloat(b *strings.Builder, name string, v float64) {
	if v == 0 {
		fmt.Fprintf(b, "%s=0|", name)
		return
	}
	fmt.Fprintf(b, "%s=%x|", name, math.Float64bits(v))
}
