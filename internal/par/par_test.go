package par

import (
	"sync/atomic"
	"testing"
)

// TestForCoversEveryIndexOnce: each index runs exactly once for any
// workers value, including the inline and over-provisioned cases.
func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 100
		var hits [n]int64
		For(n, workers, func(i int) { atomic.AddInt64(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

// TestForBarrier: For must not return before every call completes.
func TestForBarrier(t *testing.T) {
	var done int64
	For(50, 8, func(i int) { atomic.AddInt64(&done, 1) })
	if done != 50 {
		t.Fatalf("For returned with %d/50 calls complete", done)
	}
}

// TestForZeroItems: degenerate sizes are no-ops.
func TestForZeroItems(t *testing.T) {
	For(0, 4, func(i int) { t.Fatal("fn called for n=0") })
}
