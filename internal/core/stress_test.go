package core

import (
	"testing"

	"dnc/internal/prefetch"
)

// Failure injection: the simulator must stay live and self-consistent with
// wrong-path fetch off and with its design's queues starved far below
// realistic sizes.

func TestZeroWrongPathBlocks(t *testing.T) {
	c, _ := newTestCore(t, Config{NoWrongPath: true}, prefetch.NewBaseline(2048))
	runCycles(c, 20000)
	if c.M.WrongPathFetches != 0 {
		t.Fatalf("wrong-path fetches with wrong-path fetch off: %d", c.M.WrongPathFetches)
	}
	if c.M.Retired == 0 {
		t.Fatal("no progress without wrong-path modelling")
	}
}

// TestStarvedProactiveQueues: 1-entry queues keep the core live, and they
// overflow, so the same run issues fewer prefetches than with the paper's
// 16-entry queues.
func TestStarvedProactiveQueues(t *testing.T) {
	issued := func(depth int) uint64 {
		cfg := prefetch.DefaultProactiveConfig()
		cfg.QueueDepth = depth
		cfg.WithBTBPrefetch = true
		c, _ := newTestCore(t, Config{}, prefetch.NewProactive(cfg))
		runCycles(c, 20000)
		if c.M.Retired == 0 {
			t.Fatalf("%d-entry proactive queues deadlocked", depth)
		}
		return c.M.PrefetchesIssued
	}
	if starved, full := issued(1), issued(16); starved >= full {
		t.Fatalf("1-entry queues issued %d prefetches, 16-entry ones %d: the starved queues never overflowed",
			starved, full)
	}
}
