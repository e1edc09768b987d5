package sim

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dnc/internal/checkpoint"
	"dnc/internal/llc"
	"dnc/internal/prefetch"
)

// mutationDesigns are the designs whose snapshots the restore-validation
// tests damage: between them they carry every container shape a snapshot
// holds (bit tables, tagged tables, bounded queues, sorted sets and maps,
// history rings, shadow stacks, the three Shotgun BTBs and the prefetch
// buffer).
var mutationDesigns = []string{"SN4L+Dis+BTB", "shotgun", "confluence", "boomerang", "RDIP", "PIF"}

// mutationConfig is a variable-length run (DV-LLC footprints are live) of a
// catalog design on a machine small enough to restore in about a
// millisecond: 2 cores and a 256 KB LLC. What a snapshot's sections hold
// does not depend on either.
func mutationConfig(tb testing.TB, design string) RunConfig {
	tb.Helper()
	e, ok := prefetch.FindDesign(design)
	if !ok {
		tb.Fatalf("catalog entry %q missing", design)
	}
	return RunConfig{
		Workload:      variableWorkload(),
		NewDesign:     e.New,
		Cores:         2,
		LLC:           llc.Config{SizeBytes: 256 << 10},
		WarmCycles:    10_000,
		MeasureCycles: 10_000,
		Seed:          3,
	}
}

var mutationSeeds struct {
	once  sync.Once
	snaps [][]byte // by mutationDesigns index
	err   error
}

// mutationSnapshots returns each mutationDesigns entry's last cadence
// snapshot (cycle 16384 of 20000: mid-measurement), taken once per process.
func mutationSnapshots(tb testing.TB) [][]byte {
	tb.Helper()
	s := &mutationSeeds
	s.once.Do(func() {
		dir, err := os.MkdirTemp("", "dnc-mutation-seeds")
		if err != nil {
			s.err = err
			return
		}
		defer os.RemoveAll(dir)
		for _, name := range mutationDesigns {
			rc := mutationConfig(tb, name)
			rc.CheckpointEvery = 8192
			rc.CheckpointPath = filepath.Join(dir, "seed.ckpt")
			if _, err := RunChecked(context.Background(), rc); err != nil {
				s.err = fmt.Errorf("%s: %w", name, err)
				return
			}
			snap, err := os.ReadFile(rc.CheckpointPath)
			if err != nil {
				s.err = err
				return
			}
			s.snaps = append(s.snaps, snap)
		}
	})
	if s.err != nil {
		tb.Fatal(s.err)
	}
	return s.snaps
}

// reseal recomputes the CRC trailer over data's (damaged) body, so the
// damage reaches the restore code instead of stopping at the checksum.
func reseal(data []byte) {
	body := data[:len(data)-4]
	binary.LittleEndian.PutUint32(data[len(body):], crc32.ChecksumIEEE(body))
}

// sectionAt returns the offset of the first section tagged tag (of its
// tag's length prefix) and checks the section fits the file.
func sectionAt(tb testing.TB, data []byte, tag string) int {
	tb.Helper()
	pat := binary.LittleEndian.AppendUint32(nil, uint32(len(tag)))
	pat = append(pat, tag...)
	at := bytes.Index(data, pat)
	if at < 0 {
		tb.Fatalf("no %q section in the snapshot", tag)
	}
	if n := int(binary.LittleEndian.Uint32(data[at+len(pat):])); at+len(pat)+4+n > len(data)-4 {
		tb.Fatalf("%q section at %d runs past the file", tag, at)
	}
	return at
}

// auditWithin writes data to path and feeds it to Audit, which must come
// back within limit and without panicking.
func auditWithin(t *testing.T, rc RunConfig, path string, data []byte, limit time.Duration) ([]*AuditError, error) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		found    []*AuditError
		err      error
		panicked any
	}
	done := make(chan outcome, 1) // the one send must not block a late Audit
	go func() {
		var o outcome
		defer func() {
			o.panicked = recover()
			done <- o
		}()
		o.found, o.err = Audit(rc, path)
	}()
	timer := time.NewTimer(limit)
	defer timer.Stop()
	select {
	case o := <-done:
		if o.panicked != nil {
			t.Fatalf("Audit panicked: %v", o.panicked)
		}
		return o.found, o.err
	case <-timer.C:
		t.Fatalf("Audit still running after %v", limit)
		return nil, nil
	}
}

func typedRefusal(err error) bool {
	return errors.Is(err, checkpoint.ErrCorrupt) || errors.Is(err, checkpoint.ErrTruncated)
}

// TestRestoreSurvivesFieldMutations is validation parity for the restore
// path: a CRC-valid snapshot with one damaged field — a word overwritten, a
// bit flipped, a byte replaced, anywhere in the cores' sections or the first
// 4 KB of the LLC's — either restores (and is then the auditor's to judge)
// or is refused with a typed error, within a second, and never panics.
func TestRestoreSurvivesFieldMutations(t *testing.T) {
	t.Parallel()
	perDesign := 2000
	if testing.Short() {
		perDesign = 300
	}
	words := []uint64{0, 1, 1 << 31, 1 << 32, 1<<63 - 1, 1 << 63, ^uint64(0)}
	snaps := mutationSnapshots(t)
	path := filepath.Join(t.TempDir(), "mutant.ckpt")
	for di, name := range mutationDesigns {
		rc := mutationConfig(t, name)
		snap := snaps[di]
		lo, hi := 6, sectionAt(t, snap, "llc")+4096 // past magic+version; into the LLC
		if hi > len(snap)-4 {
			hi = len(snap) - 4
		}
		rng := rand.New(rand.NewSource(int64(1000 + di)))
		var restored, refused int
		mutant := make([]byte, len(snap))
		for i := 0; i < perDesign; i++ {
			copy(mutant, snap)
			at := lo + rng.Intn(hi-lo)
			var what string
			switch rng.Intn(3) {
			case 0:
				if at+8 > hi {
					at = hi - 8
				}
				v := words[rng.Intn(len(words))]
				if rng.Intn(2) == 0 {
					v = rng.Uint64() >> uint(rng.Intn(64))
				}
				binary.LittleEndian.PutUint64(mutant[at:], v)
				what = fmt.Sprintf("word %#x at %d", v, at)
			case 1:
				bit := rng.Intn(8)
				mutant[at] ^= 1 << bit
				what = fmt.Sprintf("bit %d flipped at %d", bit, at)
			default:
				b := byte(rng.Intn(256))
				mutant[at] = b
				what = fmt.Sprintf("byte %#x at %d", b, at)
			}
			reseal(mutant)
			_, err := auditWithin(t, rc, path, mutant, time.Second)
			switch {
			case err == nil:
				restored++
			case typedRefusal(err):
				refused++
			default:
				t.Errorf("%s, mutation %d (%s): untyped error %v", name, i, what, err)
			}
		}
		t.Logf("%s: %d mutations of a %d-byte snapshot: %d restored, %d refused",
			name, perDesign, len(snap), restored, refused)
	}
}

// TestRestoreRejectsWalkerMutations pins the two walker fields a restore
// used to take on trust. A high bit flipped in the draw count made Restore
// replay the generator for as long as the count said — hours; a call-stack
// frame naming no block restored and panicked at the return that popped it.
func TestRestoreRejectsWalkerMutations(t *testing.T) {
	rc := mutationConfig(t, mutationDesigns[0])
	snap := mutationSnapshots(t)[0]
	path := filepath.Join(t.TempDir(), "mutant.ckpt")
	// tag(4+6) length(4) seed(8) draws(8) cur(8) idx(8) frames(8) frame...
	const draws, frames = 10 + 4 + 8, 10 + 4 + 8 + 8 + 8 + 8

	t.Run("draw count", func(t *testing.T) {
		mutant := bytes.Clone(snap)
		mutant[sectionAt(t, mutant, "walker")+draws+7] ^= 0x40 // bit 62
		reseal(mutant)
		_, err := auditWithin(t, rc, path, mutant, time.Second)
		if !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("want ErrCorrupt, got %v", err)
		}
	})

	t.Run("call-stack frame", func(t *testing.T) {
		mutant := bytes.Clone(snap)
		// Every walker section starts the same way; take the first one that
		// was inside a call when the snapshot was cut.
		for off := 0; ; {
			at := sectionAt(t, mutant[off:], "walker") + off
			if binary.LittleEndian.Uint64(mutant[at+frames:]) > 0 {
				binary.LittleEndian.PutUint64(mutant[at+frames+8:], 1<<40)
				break
			}
			off = at + 1
		}
		reseal(mutant)
		_, err := auditWithin(t, rc, path, mutant, time.Second)
		if !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("want ErrCorrupt, got %v", err)
		}
	})
}

// FuzzMachineRestore feeds arbitrary damage of real snapshots to the whole
// machine's restore and then to the auditor. The checksum is resealed first
// so the fuzzer's edits are not all spent on the CRC.
func FuzzMachineRestore(f *testing.F) {
	for i, snap := range mutationSnapshots(f) {
		f.Add(uint8(i), snap)
	}
	f.Fuzz(func(t *testing.T, design uint8, data []byte) {
		if len(data) < 10 {
			return
		}
		data = bytes.Clone(data)
		reseal(data)
		if checkpoint.Load(data, func(*checkpoint.Codec) {}) != nil {
			return // bad magic or version: the framing's own fuzzer covers it
		}
		rc := applyDefaults(mutationConfig(t, mutationDesigns[int(design)%len(mutationDesigns)]))
		m, err := buildMachine(rc, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer m.close()
		if err := m.load(data); err != nil {
			if !typedRefusal(err) {
				t.Fatalf("untyped restore error: %v", err)
			}
			return
		}
		m.audit()
	})
}
