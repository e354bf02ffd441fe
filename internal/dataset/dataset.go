// Package dataset defines the group abstraction shared by every sampling
// algorithm in this repository: a group is a (possibly enormous) multiset of
// bounded numeric values from which uniform random samples can be drawn.
//
// Two implementations are provided:
//
//   - SliceGroup materializes its values in memory and supports exact
//     sampling both with and without replacement. It backs the unit tests,
//     the NEEDLETAIL engine, and every experiment small enough to hold.
//   - DistGroup is *virtual*: it is defined by a distribution and a nominal
//     size. The paper's sample complexity is independent of group size
//     (Theorem 3.6), so the 10⁹–10¹⁰-row sweeps of Figures 3 and 4 only need
//     the ability to draw the next sample and the nominal n for the
//     Hoeffding–Serfling finite-population term; DistGroup provides both
//     without materializing rows. See DESIGN.md §4 ("Virtual groups").
package dataset

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/xrand"
)

// Group is a named multiset of values in a bounded range that supports
// uniform random sampling. Implementations are not safe for concurrent use.
type Group interface {
	// Name identifies the group (the x-axis label of its bar).
	Name() string
	// Size returns the number of elements, or 0 if unknown/unbounded.
	Size() int64
	// Draw returns a uniform random element with replacement.
	Draw(r *xrand.RNG) float64
	// TrueMean returns the exact average of the multiset. Algorithms must
	// never call this; it exists for verification and difficulty analysis.
	TrueMean() float64
}

// WithoutReplacementGroup is implemented by groups that support exact
// sampling without replacement.
type WithoutReplacementGroup interface {
	Group
	// DrawWithoutReplacement returns the next element of a uniformly random
	// permutation of the multiset, and false once the group is exhausted.
	DrawWithoutReplacement(r *xrand.RNG) (float64, bool)
	// ResetDraws restarts without-replacement sampling with a fresh
	// permutation.
	ResetDraws()
}

// BatchGroup is implemented by groups that can fill a whole block of
// with-replacement samples in one call, amortizing dispatch, bounds
// checks, and accounting over the block. DrawBatch must produce exactly
// the stream that len(dst) successive Draw calls would.
type BatchGroup interface {
	Group
	// DrawBatch fills dst with uniform random elements (with replacement).
	DrawBatch(r *xrand.RNG, dst []float64)
}

// BatchWithoutReplacementGroup is the block counterpart of
// WithoutReplacementGroup. The produced stream must be identical to the
// same number of successive DrawWithoutReplacement calls.
type BatchWithoutReplacementGroup interface {
	WithoutReplacementGroup
	// DrawBatchWithoutReplacement fills a prefix of dst with the next
	// elements of the random permutation and returns how many elements it
	// produced — fewer than len(dst) only when the group is exhausted.
	DrawBatchWithoutReplacement(r *xrand.RNG, dst []float64) int
}

// Scannable is implemented by groups whose full contents can be visited,
// enabling the SCAN baseline.
type Scannable interface {
	Group
	// Scan calls fn for every element. It returns the number visited.
	Scan(fn func(v float64)) int64
}

// SliceGroup is a fully materialized group.
type SliceGroup struct {
	name   string
	values []float64
	// next indexes into the lazily built without-replacement permutation:
	// values[perm[0..next)] have been consumed. The permutation is built
	// incrementally by an inside-out Fisher–Yates so that consuming only a
	// few samples from a huge group costs O(samples), not O(n).
	perm []int32
	next int

	mean float64
	maxv float64

	// seg marks the group segment-backed (values alias an mmapped column
	// chunk): block draws stage their row indices first and gather the
	// values in ascending row order, so a round touches its O(batch) pages
	// with page-cache-friendly locality instead of faulting them in random
	// order. The value stream is unchanged — rows are chosen by the exact
	// same Fisher–Yates / Intn sequence and folded in draw order.
	seg bool
	// win replaces values for compressed (v2) segments: reads go through a
	// block-decoding cursor instead of a flat slice. win-backed groups are
	// always seg, and batch draws route through the same staged/gathered
	// path so each batch decodes every touched block once.
	win *blockWindow
	// sparse switches the without-replacement permutation to the sparse
	// map form: disp records only the displaced entries (perm[i] != i),
	// identity elsewhere. Same arrangement and RNG discipline as the dense
	// array, O(draws) memory instead of O(rows) — what lets a group far
	// larger than RAM be sampled without replacement. Only segment-backed
	// groups past sparsePermGate use it.
	sparse bool
	disp   map[int32]int32

	rowBuf []int32  // staged block rows, draw order
	keyBuf []uint64 // (row<<32 | slot) sort keys for the page-ordered gather
}

// sparsePermGate is the row count above which a segment-backed group
// tracks its Fisher–Yates permutation sparsely. Below it the dense int32
// array (4 bytes/row) is cheap and faster per step; above it the array
// alone would rival the mapped data in size, defeating out-of-core
// sampling. A var so tests can force the sparse path on small groups.
var sparsePermGate = 1 << 22

// NewSliceGroup returns a materialized group over the given values.
// The values slice is retained; callers must not mutate it afterwards.
func NewSliceGroup(name string, values []float64) *SliceGroup {
	if len(values) == 0 {
		panic(fmt.Sprintf("dataset: group %q has no values", name))
	}
	g := &SliceGroup{name: name, values: values, maxv: values[0]}
	sum := 0.0
	for _, v := range values {
		sum += v
		if v > g.maxv {
			g.maxv = v
		}
	}
	g.mean = sum / float64(len(values))
	return g
}

// newSegmentSliceGroup returns a group over an mmapped column chunk whose
// mean and max were recorded in the segment manifest at write time — no
// construction scan, so opening a table faults in zero data pages.
func newSegmentSliceGroup(name string, values []float64, mean, maxv float64) *SliceGroup {
	if len(values) == 0 {
		panic(fmt.Sprintf("dataset: group %q has no values", name))
	}
	return &SliceGroup{
		name:   name,
		values: values,
		mean:   mean,
		maxv:   maxv,
		seg:    true,
		sparse: len(values) > sparsePermGate,
	}
}

// newBlockSliceGroup returns a group over a compressed column window
// (manifest-recorded statistics, like newSegmentSliceGroup). Every read
// decodes through the table's shared block cache.
func newBlockSliceGroup(name string, win *blockWindow, mean, maxv float64) *SliceGroup {
	if win.n == 0 {
		panic(fmt.Sprintf("dataset: group %q has no values", name))
	}
	return &SliceGroup{
		name:   name,
		win:    win,
		mean:   mean,
		maxv:   maxv,
		seg:    true,
		sparse: win.n > sparsePermGate,
	}
}

// n returns the group's row count regardless of backing (slice or window).
func (g *SliceGroup) n() int {
	if g.win != nil {
		return g.win.n
	}
	return len(g.values)
}

// Name returns the group's name.
func (g *SliceGroup) Name() string { return g.name }

// Size returns the number of values.
func (g *SliceGroup) Size() int64 { return int64(g.n()) }

// TrueMean returns the exact mean of the values.
func (g *SliceGroup) TrueMean() float64 { return g.mean }

// MaxValue returns the largest value, tracked at construction so bound
// bookkeeping (table views, filters) never rescans the column.
func (g *SliceGroup) MaxValue() float64 { return g.maxv }

// Draw samples uniformly with replacement.
func (g *SliceGroup) Draw(r *xrand.RNG) float64 {
	if g.win != nil {
		return g.win.at(r.Intn(g.win.n))
	}
	return g.values[r.Intn(len(g.values))]
}

// DrawBatch fills dst with uniform with-replacement samples in one call.
// Window-backed groups always stage (even single draws) so reads hit the
// block cursor in sorted order.
func (g *SliceGroup) DrawBatch(r *xrand.RNG, dst []float64) {
	if g.seg && (len(dst) > 1 || g.win != nil) {
		g.stageBatchWR(r, len(dst))
		g.gatherRows(g.rowBuf, dst)
		return
	}
	vals := g.values
	n := len(vals)
	for i := range dst {
		dst[i] = vals[r.Intn(n)]
	}
}

// stageBatchWR fills rowBuf with count with-replacement row picks, consuming
// the RNG exactly as the direct loop would.
func (g *SliceGroup) stageBatchWR(r *xrand.RNG, count int) {
	if cap(g.rowBuf) < count {
		g.rowBuf = make([]int32, count)
	}
	rows := g.rowBuf[:count]
	n := g.n()
	for i := range rows {
		rows[i] = int32(r.Intn(n))
	}
	g.rowBuf = rows
}

// gatherRows copies values[rows[i]] into dst[i] for every i, but performs
// the reads in ascending row order: keys pack (row<<32 | slot) so a single
// sort yields both the page-friendly visit order and where each value
// belongs in the draw-order output. On an mmapped column this turns a
// random page walk into a short sorted sweep — the round touches O(batch)
// pages, clustered, and sequential enough for OS readahead to help.
func (g *SliceGroup) gatherRows(rows []int32, dst []float64) {
	if g.win != nil {
		g.win.gatherSorted(rows, dst, &g.keyBuf)
		return
	}
	if len(rows) <= 1 {
		for i, row := range rows {
			dst[i] = g.values[row]
		}
		return
	}
	if cap(g.keyBuf) < len(rows) {
		g.keyBuf = make([]uint64, len(rows))
	}
	keys := g.keyBuf[:len(rows)]
	for pos, row := range rows {
		keys[pos] = uint64(uint32(row))<<32 | uint64(uint32(pos))
	}
	slices.Sort(keys)
	g.keyBuf = keys
	vals := g.values
	for _, k := range keys {
		dst[uint32(k)] = vals[int32(k>>32)]
	}
}

// DrawWithoutReplacement returns the next element of a uniform random
// permutation, building the permutation lazily.
func (g *SliceGroup) DrawWithoutReplacement(r *xrand.RNG) (float64, bool) {
	if g.next >= g.n() {
		return 0, false
	}
	row := g.permStep(r)
	if g.win != nil {
		return g.win.at(int(row)), true
	}
	return g.values[row], true
}

// permStep performs one inside-out Fisher–Yates step — choose the next
// element uniformly from the unconsumed suffix [next, n) — and returns the
// row it lands on. Dense and sparse permutations consume the RNG
// identically, so the drawn row sequence is bit-for-bit the same either
// way.
func (g *SliceGroup) permStep(r *xrand.RNG) int32 {
	next := g.next
	j := next + r.Intn(g.n()-next)
	g.next++
	if g.sparse {
		pn := g.permAt(int32(next))
		if j != next {
			// Swap perm[next] and perm[j]: both displaced entries must be
			// recorded so the retained arrangement stays a valid permutation
			// across ResetDraws.
			pj := g.permAt(int32(j))
			if g.disp == nil {
				g.disp = make(map[int32]int32)
			}
			g.disp[int32(next)] = pj
			g.disp[int32(j)] = pn
			pn = pj
		}
		return pn
	}
	g.ensurePerm()
	g.perm[next], g.perm[j] = g.perm[j], g.perm[next]
	return g.perm[next]
}

// permAt reads the sparse permutation at index i: displaced entries live in
// disp, everything else is identity.
func (g *SliceGroup) permAt(i int32) int32 {
	if g.disp != nil {
		if v, ok := g.disp[i]; ok {
			return v
		}
	}
	return i
}

// DrawBatchWithoutReplacement consumes up to len(dst) further permutation
// elements in one tight Fisher–Yates loop, returning how many it produced.
func (g *SliceGroup) DrawBatchWithoutReplacement(r *xrand.RNG, dst []float64) int {
	n := g.n()
	if g.next >= n {
		return 0
	}
	if g.seg && (len(dst) > 1 || g.win != nil) {
		taken := g.stageBatchWOR(r, len(dst))
		g.gatherRows(g.rowBuf[:taken], dst[:taken])
		return taken
	}
	g.ensurePerm()
	perm, vals := g.perm, g.values
	taken := 0
	for taken < len(dst) && g.next < n {
		j := g.next + r.Intn(n-g.next)
		perm[g.next], perm[j] = perm[j], perm[g.next]
		dst[taken] = vals[perm[g.next]]
		g.next++
		taken++
	}
	return taken
}

// stageBatchWOR runs up to count Fisher–Yates steps, recording the drawn
// rows in rowBuf without touching the value column, and returns how many
// steps ran before exhaustion.
func (g *SliceGroup) stageBatchWOR(r *xrand.RNG, count int) int {
	if cap(g.rowBuf) < count {
		g.rowBuf = make([]int32, count)
	}
	rows := g.rowBuf[:count]
	n := g.n()
	taken := 0
	for taken < count && g.next < n {
		rows[taken] = g.permStep(r)
		taken++
	}
	g.rowBuf = rows
	return taken
}

// ensurePerm lazily builds the identity permutation the Fisher–Yates
// suffix consumption shuffles in place.
func (g *SliceGroup) ensurePerm() {
	if g.perm == nil {
		g.perm = make([]int32, g.n())
		for i := range g.perm {
			g.perm[i] = int32(i)
		}
	}
}

// ResetDraws restarts without-replacement sampling. The permutation array
// is kept: restarting the Fisher–Yates suffix consumption from position 0
// over any arrangement yields a fresh uniform permutation, so the reset is
// O(1) rather than O(n). The new run's sample stream is therefore uniform
// but not a replay of the previous run's.
func (g *SliceGroup) ResetDraws() { g.next = 0 }

// resetView clears all per-view draw state: the permutation (dense and
// sparse), the consumption cursor, and the staging buffers. Views copy a
// group by value, so without this the copy would share (and corrupt) the
// original's permutation arrays.
func (g *SliceGroup) resetView() {
	g.perm = nil
	g.disp = nil
	g.next = 0
	g.rowBuf = nil
	g.keyBuf = nil
	if g.win != nil {
		// The block cursor memoizes draw position; views need their own.
		g.win = g.win.clone()
	}
}

// Scan visits every value.
func (g *SliceGroup) Scan(fn func(v float64)) int64 {
	if g.win != nil {
		g.win.scan(fn)
		return int64(g.win.n)
	}
	for _, v := range g.values {
		fn(v)
	}
	return int64(len(g.values))
}

// Values exposes the backing slice for storage engines that materialize the
// group into a table. Callers must not mutate the returned slice. Groups
// over compressed segments have no backing slice and return nil — use Scan
// (or Table.Column, which materializes) instead.
func (g *SliceGroup) Values() []float64 { return g.values }

// DistGroup is a virtual group: a distribution plus a nominal size.
// Draw samples from the distribution; because the nominal population is vast
// relative to the number of samples any algorithm takes, with- and
// without-replacement sampling are statistically indistinguishable, and the
// algorithms consume the nominal size only through the (tiny) Serfling
// correction term.
type DistGroup struct {
	name string
	dist xrand.Dist
	size int64
}

// NewDistGroup returns a virtual group of nominal size n backed by dist.
func NewDistGroup(name string, dist xrand.Dist, n int64) *DistGroup {
	if n <= 0 {
		panic(fmt.Sprintf("dataset: virtual group %q must have positive nominal size", name))
	}
	return &DistGroup{name: name, dist: dist, size: n}
}

// Name returns the group's name.
func (g *DistGroup) Name() string { return g.name }

// Size returns the nominal population size.
func (g *DistGroup) Size() int64 { return g.size }

// TrueMean returns the analytical mean of the backing distribution.
func (g *DistGroup) TrueMean() float64 { return g.dist.Mean() }

// Draw samples from the backing distribution.
func (g *DistGroup) Draw(r *xrand.RNG) float64 { return g.dist.Sample(r) }

// DrawBatch fills dst through the distribution's bulk sampler, paying one
// dispatch per block instead of one per sample.
func (g *DistGroup) DrawBatch(r *xrand.RNG, dst []float64) {
	xrand.SampleInto(g.dist, r, dst)
}

// Dist returns the backing distribution.
func (g *DistGroup) Dist() xrand.Dist { return g.dist }

// Universe is an ordered collection of groups plus the value bound c.
// It is the input to every sampling algorithm.
type Universe struct {
	Groups []Group
	// C bounds every value: all elements lie in [0, C].
	C float64
}

// NewUniverse wraps groups with the given value bound.
func NewUniverse(c float64, groups ...Group) *Universe {
	if c <= 0 {
		panic("dataset: universe bound c must be positive")
	}
	return &Universe{Groups: groups, C: c}
}

// K returns the number of groups.
func (u *Universe) K() int { return len(u.Groups) }

// TotalSize returns the summed group sizes (0 if any is unknown).
func (u *Universe) TotalSize() int64 {
	var total int64
	for _, g := range u.Groups {
		n := g.Size()
		if n == 0 {
			return 0
		}
		total += n
	}
	return total
}

// MaxSize returns the largest group size.
func (u *Universe) MaxSize() int64 {
	var max int64
	for _, g := range u.Groups {
		if n := g.Size(); n > max {
			max = n
		}
	}
	return max
}

// TrueMeans returns the exact group means, for verification only.
func (u *Universe) TrueMeans() []float64 {
	means := make([]float64, len(u.Groups))
	for i, g := range u.Groups {
		means[i] = g.TrueMean()
	}
	return means
}

// Etas returns η_i = min_{j≠i} |µ_i − µ_j| for every group: the paper's
// per-group hardness measure (Table 2).
func Etas(means []float64) []float64 {
	etas := make([]float64, len(means))
	for i := range means {
		eta := math.Inf(1)
		for j := range means {
			if i == j {
				continue
			}
			if d := math.Abs(means[i] - means[j]); d < eta {
				eta = d
			}
		}
		etas[i] = eta
	}
	return etas
}

// MinEta returns η = min_i η_i, the global hardness of the instance.
func MinEta(means []float64) float64 {
	eta := math.Inf(1)
	for _, e := range Etas(means) {
		if e < eta {
			eta = e
		}
	}
	return eta
}
