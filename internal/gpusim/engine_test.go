package gpusim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestGridVisitsEveryBlockOnce(t *testing.T) {
	for _, blocks := range []int{0, 1, 7, 256} {
		var visits [256]int32
		RTX4090.Grid(blocks, 64, func(int) func(*Block) {
			return func(b *Block) {
				atomic.AddInt32(&visits[b.Idx], 1)
			}
		})
		for i := 0; i < blocks; i++ {
			if visits[i] != 1 {
				t.Fatalf("blocks=%d: block %d visited %d times", blocks, i, visits[i])
			}
		}
	}
}

func TestGridClampsThreadsToDeviceLimit(t *testing.T) {
	small := DeviceModel{Name: "small", SMs: 1, CoresPerSM: 1, BoostClockGHz: 1,
		MemBandwidthGBs: 1, MaxThreadsPerBlock: 128}
	var got int32
	small.Grid(1, 1024, func(int) func(*Block) {
		return func(b *Block) { atomic.StoreInt32(&got, int32(b.Threads)) }
	})
	if got != 128 {
		t.Fatalf("block ran with %d threads, want 128", got)
	}
}

func TestForEachCoversAllThreads(t *testing.T) {
	b := Block{Threads: 96}
	var seen [96]bool
	b.ForEach(func(tid int) { seen[tid] = true })
	for i, s := range seen {
		if !s {
			t.Fatalf("thread %d not run", i)
		}
	}
	warps := 0
	b.ForEachWarp(func(w int) { warps++ })
	if warps != 3 {
		t.Fatalf("got %d warps, want 3", warps)
	}
}

func TestMakeKernelCalledPerWorkerNotPerBlock(t *testing.T) {
	var factories int32
	var blocks int32
	RTX4090.Grid(64, 32, func(int) func(*Block) {
		atomic.AddInt32(&factories, 1)
		return func(b *Block) { atomic.AddInt32(&blocks, 1) }
	})
	if blocks != 64 {
		t.Fatalf("ran %d blocks", blocks)
	}
	if factories > 64 {
		t.Fatalf("factory called %d times", factories)
	}
}

func TestLookbackSingleBlock(t *testing.T) {
	lb := NewLookback(1)
	if p := lb.ExclusivePrefix(0, 42); p != 0 {
		t.Fatalf("prefix %d, want 0", p)
	}
	if lb.Total() != 42 {
		t.Fatalf("total %d, want 42", lb.Total())
	}
}

func TestLookbackEmpty(t *testing.T) {
	lb := NewLookback(0)
	if lb.Total() != 0 {
		t.Fatal("empty lookback total nonzero")
	}
}

// TestLookbackUpgradeDuringRead forces the interleaving that broke the
// two-word descriptor: block 2 reads block 1's descriptor while it still
// holds the aggregate, then block 1 upgrades it to its inclusive prefix
// before block 2 walks on to block 0. A reader that took status and value
// from separate loads would count block 0 twice here.
func TestLookbackUpgradeDuringRead(t *testing.T) {
	agg := []int64{5, 7, 11}
	lb := NewLookback(len(agg))
	lb.ExclusivePrefix(0, agg[0])

	block1Read := make(chan struct{}) // block 1 has loaded block 0's descriptor
	block2Read := make(chan struct{}) // block 2 has loaded block 1's descriptor
	block1Done := make(chan struct{}) // block 1 has upgraded its descriptor
	lookbackHook = func(block, pred int) {
		switch {
		case block == 1 && pred == 0:
			close(block1Read)
			<-block2Read
		case block == 2 && pred == 1:
			close(block2Read)
			<-block1Done
		}
	}
	defer func() { lookbackHook = nil }()

	var p1 int64
	go func() {
		p1 = lb.ExclusivePrefix(1, agg[1])
		close(block1Done)
	}()
	<-block1Read
	p2 := lb.ExclusivePrefix(2, agg[2])
	<-block1Done
	if p1 != 5 || p2 != 12 {
		t.Fatalf("prefixes %d, %d; want 5, 12", p1, p2)
	}
	if got := lb.Total(); got != 23 {
		t.Fatalf("total %d, want 23", got)
	}
}

// TestLookbackYieldingReaders re-runs the concurrent prefix check with a
// yield after every descriptor load, so readers and upgrading owners
// interleave on any core count.
func TestLookbackYieldingReaders(t *testing.T) {
	lookbackHook = func(int, int) { runtime.Gosched() }
	defer func() { lookbackHook = nil }()
	const n = 64
	for trial := 0; trial < 50; trial++ {
		lb := NewLookback(n)
		got := make([]int64, n)
		var next int64
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(atomic.AddInt64(&next, 1)) - 1
					if i >= n {
						return
					}
					got[i] = lb.ExclusivePrefix(i, int64(i+1))
				}
			}()
		}
		wg.Wait()
		for i, g := range got {
			if want := int64(i * (i + 1) / 2); g != want {
				t.Fatalf("trial %d: prefix[%d] = %d, want %d", trial, i, g, want)
			}
		}
		if tot := lb.Total(); tot != n*(n+1)/2 {
			t.Fatalf("trial %d: total %d", trial, tot)
		}
	}
}
