package memory

import "testing"

func TestUnloadedLatency(t *testing.T) {
	d := New()
	got := d.Access(0, 64)
	// 64 B at 42.5 B/cycle rounds to 1 cycle of service + 120 latency.
	if got != 121 {
		t.Errorf("unloaded access completes at %d, want 121", got)
	}
}

func TestBandwidthQueueing(t *testing.T) {
	d := New()
	// Saturate: many 64-byte transfers at cycle 0. Total service time is
	// bounded below by bytes/bandwidth.
	n := 1000
	var last uint64
	for i := 0; i < n; i++ {
		last = d.Access(0, 64)
	}
	minService := uint64(n*64*10) / 425
	if last < minService {
		t.Errorf("completion %d under bandwidth bound %d", last, minService)
	}
	if d.QueuedCycles() == 0 {
		t.Error("no queueing recorded under saturation")
	}
	if d.Accesses() != uint64(n) {
		t.Errorf("accesses = %d", d.Accesses())
	}
}

func TestNoQueueingWhenIdle(t *testing.T) {
	d := New()
	d.Access(0, 64)
	d.Access(1000, 64)
	if d.QueuedCycles() != 0 {
		t.Errorf("idle accesses queued %d cycles", d.QueuedCycles())
	}
}

func TestFractionalServiceAccumulates(t *testing.T) {
	d := New()
	// 64 B = 1.5 cycles of service; over many back-to-back accesses the
	// average service must approach 1.5 cycles, not 1.
	n := 10000
	var last uint64
	for i := 0; i < n; i++ {
		last = d.Access(0, 64)
	}
	service := last - 120
	want := uint64(float64(n) * 64 * 10 / 425)
	if service < want-2 || service > want+2 {
		t.Errorf("total service %d, want about %d", service, want)
	}
}

func TestReset(t *testing.T) {
	d := New()
	d.Access(0, 64)
	d.Reset()
	if d.Accesses() != 0 || d.QueuedCycles() != 0 {
		t.Error("reset incomplete")
	}
	if got := d.Access(0, 64); got != 121 {
		t.Errorf("post-reset access at %d, want 121", got)
	}
}
