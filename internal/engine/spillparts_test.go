package engine

import "testing"

// Small integer keys are float bit patterns that differ only in a few
// high mantissa bits; the partition hash still has to spread them, or a
// spilled group-by puts every group in one partition and bounds
// nothing.
func TestCodePartitionSpreadsSmallIntKeys(t *testing.T) {
	for _, p := range []int{2, 16, 128} {
		counts := make([]int, p)
		const keys = 1024
		for k := 0; k < keys; k++ {
			bits, _ := intKeyBits(int64(k))
			part := codePartition(bits, p)
			if part >= uint64(p) {
				t.Fatalf("partition %d of %d", part, p)
			}
			counts[part]++
		}
		for part, n := range counts {
			if even := keys / p; n < even/4 || n > even*4 {
				t.Fatalf("P=%d: partition %d holds %d of %d keys (even share %d)", p, part, n, keys, even)
			}
		}
	}
}
