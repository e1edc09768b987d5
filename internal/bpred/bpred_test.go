package bpred

import (
	"math/rand"
	"testing"

	"dnc/internal/isa"
)

func TestBimodalLearnsBias(t *testing.T) {
	b := NewBimodal(1024)
	pc := isa.Addr(0x1000)
	for i := 0; i < 10; i++ {
		b.Update(pc, true)
	}
	if !b.Predict(pc) {
		t.Fatal("bimodal failed to learn taken bias")
	}
	for i := 0; i < 10; i++ {
		b.Update(pc, false)
	}
	if b.Predict(pc) {
		t.Fatal("bimodal failed to learn not-taken bias")
	}
}

func TestBimodalSaturation(t *testing.T) {
	b := NewBimodal(64)
	pc := isa.Addr(0x40)
	for i := 0; i < 100; i++ {
		b.Update(pc, true)
	}
	// One not-taken must not flip a saturated counter.
	b.Update(pc, false)
	if !b.Predict(pc) {
		t.Fatal("saturated counter flipped after one opposite outcome")
	}
}

func TestBimodalBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBimodal(100)
}

func accuracy(p Predictor, branches []isa.Addr, bias []float64, n int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	correct := 0
	for i := 0; i < n; i++ {
		j := rng.Intn(len(branches))
		taken := rng.Float64() < bias[j]
		if p.Predict(branches[j]) == taken {
			correct++
		}
		p.Update(branches[j], taken)
	}
	return float64(correct) / float64(n)
}

func TestTAGEAccuracyOnBiasedBranches(t *testing.T) {
	p := NewTAGE()
	branches := make([]isa.Addr, 200)
	bias := make([]float64, 200)
	rng := rand.New(rand.NewSource(1))
	for i := range branches {
		branches[i] = isa.Addr(0x1000 + i*8)
		if rng.Float64() < 0.85 {
			if rng.Float64() < 0.5 {
				bias[i] = 0.95
			} else {
				bias[i] = 0.05
			}
		} else {
			bias[i] = 0.6
		}
	}
	acc := accuracy(p, branches, bias, 100000, 2)
	if acc < 0.85 {
		t.Errorf("TAGE accuracy %.3f on biased mix, want >= 0.85", acc)
	}
}

func TestTAGELearnsHistoryCorrelation(t *testing.T) {
	// A branch alternating T,N,T,N is fully predictable from one bit of
	// history; bimodal cannot do better than ~50%, TAGE should approach 100%.
	tage := NewTAGE()
	pc := isa.Addr(0x2000)
	correct := 0
	n := 20000
	for i := 0; i < n; i++ {
		taken := i%2 == 0
		if tage.Predict(pc) == taken {
			correct++
		}
		tage.Update(pc, taken)
	}
	acc := float64(correct) / float64(n)
	if acc < 0.95 {
		t.Errorf("TAGE accuracy %.3f on alternating branch, want >= 0.95", acc)
	}
}

func TestTAGEBeatsNoise(t *testing.T) {
	// Purely random branches: accuracy should hover around 0.5, never crash.
	p := NewTAGE()
	branches := []isa.Addr{0x100, 0x200}
	bias := []float64{0.5, 0.5}
	acc := accuracy(p, branches, bias, 20000, 3)
	if acc < 0.4 || acc > 0.6 {
		t.Errorf("accuracy on random branches = %.3f, expected near 0.5", acc)
	}
}

func TestFold(t *testing.T) {
	if fold(0, 16, 8) != 0 {
		t.Error("fold of zero history nonzero")
	}
	// Folding must depend on bits within the length only.
	a := fold(0xFFFF, 8, 8)
	b := fold(0xFF, 8, 8)
	if a != b {
		t.Errorf("fold leaked bits beyond history length: %x vs %x", a, b)
	}
}

func TestRAS(t *testing.T) {
	r := NewRAS(4)
	if _, ok := r.Pop(); ok {
		t.Fatal("pop from empty RAS succeeded")
	}
	r.Push(0x10)
	r.Push(0x20)
	if v, ok := r.Pop(); !ok || v != 0x20 {
		t.Fatalf("pop = %#x, %v", v, ok)
	}
	if v, ok := r.Pop(); !ok || v != 0x10 {
		t.Fatalf("pop = %#x, %v", v, ok)
	}
}

func TestRASOverflowDropsOldest(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // drops 1
	if r.Depth() != 2 {
		t.Fatalf("depth = %d", r.Depth())
	}
	if v, _ := r.Pop(); v != 3 {
		t.Fatalf("top = %d, want 3", v)
	}
	if v, _ := r.Pop(); v != 2 {
		t.Fatalf("next = %d, want 2", v)
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("oldest entry should have been dropped")
	}
}

func TestTAGEUncondHistory(t *testing.T) {
	// Folding unconditional targets into history must not corrupt
	// prediction of a perfectly alternating branch.
	p := NewTAGE()
	pc := isa.Addr(0x3000)
	correct, n := 0, 10000
	for i := 0; i < n; i++ {
		taken := i%2 == 0
		if p.Predict(pc) == taken {
			correct++
		}
		p.Update(pc, taken)
		p.UpdateHistoryUncond(isa.Addr(0x8000)) // constant: adds no noise
	}
	if acc := float64(correct) / float64(n); acc < 0.9 {
		t.Errorf("accuracy with uncond history = %.3f", acc)
	}
}
