package cluster

import (
	"fmt"
	"testing"
)

// TestRingOwnersBasics: owner sets are deterministic, distinct, primary
// first, and clamped to the fleet.
func TestRingOwnersBasics(t *testing.T) {
	r := newRing(5, 64)
	for _, name := range []string{"a", "zoo-ridge", "fmax-gp", ""} {
		o1 := r.owners(name, 3)
		o2 := r.owners(name, 3)
		if len(o1) != 3 {
			t.Fatalf("owners(%q, 3) = %v, want 3 owners", name, o1)
		}
		if fmt.Sprint(o1) != fmt.Sprint(o2) {
			t.Fatalf("owners(%q) not deterministic: %v vs %v", name, o1, o2)
		}
		seen := map[int]bool{}
		for _, i := range o1 {
			if i < 0 || i >= 5 {
				t.Fatalf("owners(%q) = %v: replica %d out of range", name, o1, i)
			}
			if seen[i] {
				t.Fatalf("owners(%q) = %v: duplicate replica", name, o1)
			}
			seen[i] = true
		}
	}
	// Clamping: more replication than replicas yields the whole fleet.
	if got := r.owners("m", 99); len(got) != 5 {
		t.Fatalf("owners clamped to fleet: got %v", got)
	}
	if got := r.owners("m", 0); got != nil {
		t.Fatalf("owners with k=0: got %v, want nil", got)
	}
	empty := newRing(0, 64)
	if got := empty.owners("m", 2); got != nil {
		t.Fatalf("empty ring owners: got %v, want nil", got)
	}
}

// TestRingBalance: with enough vnodes, primary ownership over many
// models is roughly uniform — no replica is starved or doubly loaded.
func TestRingBalance(t *testing.T) {
	const n, models = 4, 4000
	r := newRing(n, 64)
	counts := make([]int, n)
	for i := 0; i < models; i++ {
		counts[r.owners(fmt.Sprintf("model-%d", i), 1)[0]]++
	}
	for i, c := range counts {
		frac := float64(c) / models
		if frac < 0.10 || frac > 0.45 {
			t.Errorf("replica %d owns %.1f%% of models (counts %v) — ring too lumpy", i, 100*frac, counts)
		}
	}
}

// TestRingStability: growing the fleet by one reassigns only a modest
// fraction of primaries — the consistent-hash property that makes
// scale-out cheap.
func TestRingStability(t *testing.T) {
	const models = 2000
	small, big := newRing(4, 64), newRing(5, 64)
	moved := 0
	for i := 0; i < models; i++ {
		name := fmt.Sprintf("model-%d", i)
		if small.owners(name, 1)[0] != big.owners(name, 1)[0] {
			moved++
		}
	}
	// Ideal is 1/5 = 20%; allow generous slack but fail the
	// modulo-hashing failure mode, which moves ~80%.
	if frac := float64(moved) / models; frac > 0.40 {
		t.Errorf("adding a 5th replica moved %.1f%% of primaries, want ~20%%", 100*frac)
	}
}
