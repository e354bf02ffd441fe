//go:build !race

package dataset

import "testing"

// TestDrawBlockSumAllocs: once the pooled value buffer and the group's own
// staging scratch have grown to the block size, DrawBlockSum allocates
// nothing. Broker-fed samplers are left out, because the broker retains
// every value it draws by design. The race detector makes sync.Pool drop
// items at random, hence the build tag.
func TestDrawBlockSumAllocs(t *testing.T) {
	for _, tc := range blockCases() {
		if tc.broker {
			continue
		}
		for _, without := range []bool{true, false} {
			s := tc.sampler(t, without)
			s.EnableMoments(true)
			// Warm-up: a 512 block grows every buffer and exhausts every
			// finite population, so the measured blocks run in steady state.
			for gi := 0; gi < 3; gi++ {
				s.DrawBlockSum(gi, 512)
			}
			gi := 0
			allocs := testing.AllocsPerRun(100, func() {
				s.DrawBlockSum(gi, 256)
				gi = (gi + 1) % 3
			})
			if allocs != 0 {
				t.Errorf("%s/without=%v: %v allocs per block, want 0", tc.name, without, allocs)
			}
		}
	}
}
