package shard_test

// Reduction-lane suite: fold correctness under concurrency (CI runs this
// package with -race -count=2), grow-on-demand domains and the overflow
// guard.

import (
	"errors"
	"math"
	"sync"
	"testing"

	"hep/internal/shard"
)

func TestLanesFoldMatchesSequentialSum(t *testing.T) {
	const workers, n, rounds = 4, 500, 50
	l := shard.NewLanes[int64](workers, n)
	want := make([]int64, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			state := uint64(w + 1)
			for r := 0; r < rounds; r++ {
				for j := 0; j < 200; j++ {
					state = state*2862933555777941757 + 3037000493
					i := int(state>>33) % n
					d := int64(state % 7)
					l.Add(w, i, d)
					mu.Lock()
					want[i] += d
					mu.Unlock()
				}
				if err := l.Fold(w); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	got, err := l.Drain()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("index %d: folded %d, want %d", i, got[i], want[i])
		}
	}
}

func TestLanesGrowOnDemand(t *testing.T) {
	l := shard.NewLanes[int32](2, 4)
	l.Add(0, 2, 1)
	l.Add(1, 100, 5) // beyond the initial domain
	if err := l.Fold(0); err != nil {
		t.Fatal(err)
	}
	if err := l.Fold(1); err != nil {
		t.Fatal(err)
	}
	got, err := l.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 101 {
		t.Fatalf("global grew to %d, want 101", len(got))
	}
	if got[2] != 1 || got[100] != 5 {
		t.Fatalf("folded values wrong: got[2]=%d got[100]=%d", got[2], got[100])
	}
}

func TestLanesFoldDetectsInt32Overflow(t *testing.T) {
	l := shard.NewLanes[int32](1, 8)
	l.Add(0, 3, math.MaxInt32)
	if err := l.Fold(0); err != nil {
		t.Fatalf("first fold must fit exactly: %v", err)
	}
	l.Add(0, 3, 1)
	err := l.Fold(0)
	if !errors.Is(err, shard.ErrOverflow) {
		t.Fatalf("overflowing fold returned %v, want ErrOverflow", err)
	}
}
