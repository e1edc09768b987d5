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

func TestStarvedProactiveQueues(t *testing.T) {
	cfg := prefetch.DefaultProactiveConfig()
	cfg.QueueDepth = 1
	cfg.WithBTBPrefetch = true
	c, _ := newTestCore(t, Config{}, prefetch.NewProactive(cfg))
	runCycles(c, 20000)
	if c.M.Retired == 0 {
		t.Fatal("1-entry proactive queues deadlocked")
	}
	d := c.Design().(*prefetch.Proactive)
	if s, di, r := d.QueueDrops(); s+di+r == 0 {
		t.Fatal("1-entry queues never overflowed in a miss-heavy run")
	}
}
