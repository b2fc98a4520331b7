package storage

import (
	"fmt"
	"testing"

	"diskpack/internal/disk"
	"diskpack/internal/trace"
)

// coldFarm builds a farm of nDisks break-even disks where a fixed
// 2^10-file active set, spread evenly across the farm, receives the
// same 10^3-request trace whatever the farm size. Every other disk
// only idles, spins down and sits in standby.
func coldFarm(nDisks int) (*trace.Trace, []int, Config) {
	const (
		nFiles  = 1 << 10
		nReqs   = 1000
		horizon = 120.0
	)
	tr := &trace.Trace{Duration: horizon}
	tr.Files = make([]trace.FileInfo, nFiles)
	assign := make([]int, nFiles)
	for i := range tr.Files {
		tr.Files[i] = trace.FileInfo{ID: i, Size: 64 * disk.MB, Rate: 0.01}
		assign[i] = i * (nDisks / nFiles)
	}
	tr.Requests = make([]trace.Request, nReqs)
	for r := range tr.Requests {
		tr.Requests[r] = trace.Request{
			Time:   horizon * float64(r) / nReqs,
			FileID: (r * 7919) % nFiles,
		}
	}
	return tr, assign, Config{NumDisks: nDisks, IdleThreshold: BreakEven}
}

// TestAllocationsDoNotScaleWithIdleDisks pins "pay only for disks that
// do work": a 16x larger cold farm serving the same requests makes the
// same number of allocations, give or take a small constant. Disks are
// laid out in one slab per shard and idle timeouts are settled without
// events, so nothing is allocated per idle disk.
func TestAllocationsDoNotScaleWithIdleDisks(t *testing.T) {
	// The slack absorbs runtime allocations that ride along with the
	// larger farm's extra GC cycles; one allocation per idle disk
	// would add 61,440.
	const slack = 64
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// Both farms must do the same work for the comparison to
			// mean anything.
			completed := map[int64]bool{}
			allocs := func(nDisks int) float64 {
				tr, assign, cfg := coldFarm(nDisks)
				return testing.AllocsPerRun(2, func() {
					res, err := RunParallel(tr, assign, cfg, ParallelConfig{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					completed[res.Completed] = true
				})
			}
			small, large := allocs(1<<12), allocs(1<<16)
			if len(completed) != 1 {
				t.Fatalf("farm sizes served different request counts: %v", completed)
			}
			if large > small+slack {
				t.Fatalf("allocations grow with idle disks: %v at 2^12 disks, %v at 2^16 (slack %d)",
					small, large, slack)
			}
			t.Logf("allocs/run: %v at 2^12 disks, %v at 2^16", small, large)
		})
	}
}
