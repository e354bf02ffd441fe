// Package par provides the one bounded work-queue primitive shared by the
// parallel round driver, the exact-scan fan-out, the engine's per-group
// preprocessing, and sharded table ingestion. It deliberately stays tiny:
// a fixed pool of workers draining an atomic index counter, with an inline
// fast path when parallelism is not requested — so callers can use the
// same code path for Workers=1 and Workers=N and rely on the results being
// identical.
package par

import (
	"sync"
	"sync/atomic"
)

// For runs fn(0..n-1) across at most workers goroutines (clamped to n;
// workers <= 1 runs inline on the calling goroutine). Each fn call must
// touch only state owned by its index. For returns after every call has
// completed, so writes made by fn happen-before the caller's next read.
//
// Work is distributed by an atomic fetch-and-add over the index range —
// one uncontended RMW per item — rather than a channel: the previous
// unbuffered-channel queue cost a sender/receiver rendezvous (two
// scheduler handoffs) per item, which dominated small per-item work and
// made fan-out a net loss for rounds of cheap blocks. The calling
// goroutine participates as a worker, so only workers−1 goroutines are
// spawned and the caller stays busy instead of blocking on a feed loop.
func For(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	drain := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drain()
		}()
	}
	drain()
	wg.Wait()
}
